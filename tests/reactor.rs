//! Where the reactor runs a request: cheap reads (ping, challenge,
//! status) run to completion on the event loop, while grants and
//! attestations go to the compute pool. These tests pin what that
//! placement must give and must keep: reads never queue behind a slow
//! write, a challenge issued on the loop is the one a worker later
//! checks, and the `requests_inline` counter tells the two apart.

mod common;

use common::{World, CAS_ADDR, CONFIG_ID};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sinclave_repro::cas::policy::PolicyMode;
use sinclave_repro::core::protocol::Message;
use sinclave_repro::core::InstancePage;
use sinclave_repro::net::SecureChannel;
use sinclave_repro::runtime::scone::StartOptions;
use sinclave_repro::runtime::ProgramImage;
use sinclave_repro::sgx::attributes::Attributes;
use sinclave_repro::sgx::report::ReportData;
use std::time::Instant;

fn world(seed: u64) -> World {
    let image = ProgramImage::with_entry("svc", "print ok", 2).sinclave_aware();
    World::new(seed, image, common::user_config_with_secrets(), PolicyMode::Either)
}

fn grant_request(world: &World) -> Message {
    Message::GrantRequest {
        common_sigstruct: world.packaged.signed.common_sigstruct.to_bytes(),
        base_hash: world.packaged.signed.base_hash.encode().to_vec(),
    }
}

fn session(world: &World, seed: u64) -> SecureChannel {
    let conn = world.network.connect(CAS_ADDR).expect("connect");
    let mut rng = StdRng::seed_from_u64(seed);
    SecureChannel::client_connect(conn, &mut rng).expect("handshake")
}

fn call(chan: &mut SecureChannel, request: &Message) -> Message {
    chan.send(&request.to_bytes()).expect("send");
    Message::from_bytes(&chan.recv().expect("recv")).expect("decode")
}

#[test]
fn reads_do_not_queue_behind_a_slow_write() {
    // One loop, one compute worker, and a 200 ms modeled flush: the
    // grant on session A parks the only worker in its commit wait.
    // Session B's ping, challenge and health probe must all be
    // answered before A's grant is.
    let w = world(0x1e00);
    w.cas.store().set_flush_latency_micros(200_000);
    let serving = w.cas.serve_reactor_with(&w.network, CAS_ADDR, 2, 0x1e01, 1, 1);

    let mut writer = session(&w, 0x1e02);
    writer.send(&grant_request(&w).to_bytes()).expect("send grant");
    std::thread::scope(|scope| {
        let granting = scope.spawn(move || {
            let reply = Message::from_bytes(&writer.recv().expect("recv grant")).expect("decode");
            assert!(matches!(reply, Message::GrantResponse { .. }), "grant refused: {reply:?}");
            Instant::now()
        });

        let mut reader = session(&w, 0x1e03);
        assert_eq!(call(&mut reader, &Message::Ping), Message::Pong);
        let challenge = call(&mut reader, &Message::ChallengeRequest);
        assert!(matches!(challenge, Message::Challenge { .. }), "got {challenge:?}");
        let status = call(&mut reader, &Message::StatusRequest { view: "health".into() });
        assert!(matches!(status, Message::StatusResponse { .. }), "got {status:?}");
        let read_at = Instant::now();

        let granted_at = granting.join().expect("grant thread");
        assert!(read_at < granted_at, "the reads queued behind the grant's commit wait");
    });
    serving.join().expect("serve");
    assert_eq!(w.cas.stats.snapshot().requests_inline, 3);
}

#[test]
fn attest_after_an_inline_challenge_uses_its_nonce() {
    // The challenge runs on the loop and the attestation on a worker:
    // the session's outstanding nonce must travel between them.
    let w = world(0x1e10);
    let serving = w.cas.serve_reactor_with(&w.network, CAS_ADDR, 3, 0x1e11, 1, 1);

    // The singleton flow: grant, then challenge + AttestRequest on a
    // second connection.
    let app = w
        .host
        .start_sinclave(&w.packaged, &StartOptions::new(CAS_ADDR, CONFIG_ID).with_seed(0x1e12))
        .expect("singleton start over the reactor");
    assert_eq!(app.outcome.stdout, vec!["ok"]);

    // The baseline flow by hand, on one session: a quote over a
    // superseded challenge is refused, a quote over the latest one is
    // accepted.
    let enclave = w
        .host
        .build_enclave(
            &w.packaged,
            &InstancePage::common_page(),
            &w.packaged.signed.common_sigstruct,
            Attributes::production(),
        )
        .expect("common enclave");
    let mut chan = session(&w, 0x1e13);
    let report =
        enclave.ereport(&w.host.qe.target_info(), ReportData::from_digest(&chan.transcript()));
    let challenge = |chan: &mut SecureChannel| match call(chan, &Message::ChallengeRequest) {
        Message::Challenge { nonce } => nonce,
        other => panic!("expected a challenge, got {other:?}"),
    };
    let attest = |chan: &mut SecureChannel, nonce: [u8; 16]| {
        let quote = w.host.qe.quote(&report, nonce).expect("quote");
        call(
            chan,
            &Message::BaselineAttestRequest {
                quote: quote.to_bytes(),
                config_id: CONFIG_ID.to_owned(),
            },
        )
    };
    let superseded = challenge(&mut chan);
    let latest = challenge(&mut chan);
    assert_ne!(superseded, latest);
    let stale = attest(&mut chan, superseded);
    assert!(matches!(stale, Message::Denied { .. }), "stale nonce accepted: {stale:?}");
    let fresh = challenge(&mut chan);
    let accepted = attest(&mut chan, fresh);
    assert!(
        matches!(accepted, Message::ConfigResponse { .. }),
        "fresh nonce refused: {accepted:?}"
    );
    drop(chan);
    serving.join().expect("serve");

    let stats = w.cas.stats.snapshot();
    assert_eq!(stats.configs_delivered, 2);
    // The singleton start's challenge plus the three by hand.
    assert_eq!(stats.requests_inline, 4);
}

#[test]
fn inline_counter_moves_for_reads_only() {
    let w = world(0x1e20);
    let serving = w.cas.serve_reactor_with(&w.network, CAS_ADDR, 1, 0x1e21, 1, 1);
    let mut chan = session(&w, 0x1e22);
    let pings = 5;
    for _ in 0..pings {
        assert_eq!(call(&mut chan, &Message::Ping), Message::Pong);
    }
    assert_eq!(w.cas.stats.snapshot().requests_inline, pings);
    let reply = call(&mut chan, &grant_request(&w));
    assert!(matches!(reply, Message::GrantResponse { .. }), "grant refused: {reply:?}");
    drop(chan);
    serving.join().expect("serve");
    let stats = w.cas.stats.snapshot();
    assert_eq!(stats.requests_inline, pings, "a grant ran on the loop");
    assert_eq!(stats.grants_issued, 1);

    // The metrics view renders it, and the pooled path never moves it.
    let status = w.serve_status(1);
    let view = w.probe_view("metrics");
    assert!(view.contains(&format!("cas_requests_inline {pings}\n")), "metrics view:\n{view}");
    status.join().expect("status");
    let pooled = w.serve_cas(1, 0x1e23);
    let mut chan = session(&w, 0x1e24);
    assert_eq!(call(&mut chan, &Message::Ping), Message::Pong);
    drop(chan);
    pooled.join().expect("serve");
    assert_eq!(w.cas.stats.snapshot().requests_inline, pings);
}
