//! Isolated layer costs for the traced run: each layer's public
//! functions called directly, one at a time, on a probe fleet of their
//! own so that the workload's counters stay untouched.

use crate::spans::SpanLog;
use crate::stats::{median, median_us, us};
use crate::world::{Binary, Infra, FLUSH_MICROS};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sinclave::instance_page::InstancePage;
use sinclave::protocol::Message;
use sinclave::verifier::SingletonIssuer;
use sinclave_cas::{status_body, CasServer, HistogramView};
use sinclave_crypto::aead::{self, AeadKey, Nonce};
use sinclave_crypto::sha256;
use sinclave_fs::Volume;
use sinclave_net::SecureChannel;
use sinclave_runtime::exec::{self, ExecContext, Reporter};
use sinclave_runtime::scone::SconeHost;
use sinclave_runtime::script::Script;
use sinclave_sgx::attributes::Attributes;
use sinclave_sgx::enclave::Enclave;
use sinclave_sgx::report::ReportData;
use sinclave_sgx::sigstruct::SigStruct;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Plaintext size for the AEAD probe: between the ~20-byte challenge
/// and ping records and the multi-KiB status bodies of session-reads.
const AEAD_RECORD_BYTES: usize = 256;
/// Journal payload size for the log-append probe (one sealed record).
const LOG_PAYLOAD_BYTES: usize = 128;
/// Sequential traced starts run on the probe fleet.
const PROBE_STARTS: u64 = 12;
/// Grant + redeem rounds on the probe fleet.
const PROBE_WRITES: usize = 30;
/// Timed app runs per binary.
const APP_RUNS: usize = 20;

/// One CAS stage histogram, summarised.
pub struct Stage {
    pub name: &'static str,
    pub count: u64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// A point-in-time copy of every stage histogram of `server`.
pub fn stage_views(server: &CasServer) -> Vec<(&'static str, HistogramView)> {
    server.latency().named().iter().map(|(name, histogram)| (*name, histogram.view())).collect()
}

/// Stage views of one server before and after an interval (both from
/// [`stage_views`]; `before` empty for the server's whole life).
pub type StageInterval<'a> =
    (&'a [(&'static str, HistogramView)], &'a [(&'static str, HistogramView)]);

/// Every stage's samples recorded over the intervals, summed over the
/// servers they come from — on a fleet each server records the stages
/// it ran, a follower the requests it serves and the primary the
/// writes forwarded to it — with quantiles interpolated inside their
/// log2 buckets.
pub fn stages_between(nodes: &[StageInterval<'_>]) -> Vec<Stage> {
    let Some((_, names)) = nodes.first() else { return Vec::new() };
    names
        .iter()
        .map(|(name, _)| {
            // (lower, upper) → samples, over every server.
            let mut buckets = std::collections::BTreeMap::<(u64, u64), u64>::new();
            let mut max = Duration::ZERO;
            for (before, after) in nodes {
                let Some((_, view)) = after.iter().find(|(n, _)| n == name) else { continue };
                let earlier = before.iter().find(|(n, _)| n == name).map(|(_, v)| v.rows());
                let mut grew = false;
                for (lower, upper, count) in view.rows() {
                    let old =
                        earlier.iter().flatten().find(|row| row.0 == lower).map_or(0, |row| row.2);
                    if count > old {
                        *buckets.entry((lower, upper)).or_default() += count - old;
                        grew = true;
                    }
                }
                if grew {
                    max = max.max(view.max());
                }
            }
            let rows: Vec<(u64, u64, u64)> =
                buckets.into_iter().map(|((lower, upper), count)| (lower, upper, count)).collect();
            Stage {
                name,
                count: rows.iter().map(|row| row.2).sum(),
                p50_us: crate::stats::bucket_quantile_us(&rows, max, 0.50),
                p99_us: crate::stats::bucket_quantile_us(&rows, max, 0.99),
            }
        })
        .collect()
}

/// The isolated cost of every probed layer (medians).
pub struct Isolated {
    pub rsa3072_sign_us: f64,
    pub rsa1024_sign_us: f64,
    pub sha256_mib_s: f64,
    pub aead_seal_us: f64,
    pub sigstruct_verify_us: f64,
    pub quote_verify_us: f64,
    pub issue_warm_us: f64,
    pub issue_cold_us: f64,
    pub handshake_us: f64,
    pub rtt_challenge_us: f64,
    pub rtt_ping_us: f64,
    pub rtt_status_us: f64,
    pub log_append_us: f64,
    pub redeem_commit_us: f64,
    pub status_render_us: f64,
    /// The app run that ends a start, averaged over the binaries (the
    /// start mix uses each equally often).
    pub app_run_us: f64,
    pub apply_lag_ms: f64,
    /// Spans of sequential starts against the probe primary.
    pub starts: SpanLog,
    /// The probe primary's stage histograms, set-up included.
    pub stages: Vec<Stage>,
}

fn crypto(infra: &Infra, seed: u64) -> (f64, f64, f64, f64) {
    let digest = sha256::digest(&seed.to_le_bytes());
    let rsa3072 = median_us(24, || infra.signer_key.sign_digest(&digest).expect("sign"));
    let rsa1024 = median_us(100, || infra.channel_key.sign_digest(&digest).expect("sign"));

    let mut buffer = vec![0u8; 1 << 20];
    StdRng::seed_from_u64(seed).fill_bytes(&mut buffer);
    let mut rates: Vec<f64> = (0..24)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(sha256::digest(std::hint::black_box(&buffer)));
            1.0 / started.elapsed().as_secs_f64()
        })
        .collect();
    let sha = median(&mut rates);

    let key = AeadKey::new([0xae; 32]);
    let record = vec![0x5c; AEAD_RECORD_BYTES];
    let mut counter = 0u64;
    const BATCH: u64 = 64;
    let mut per_seal: Vec<f64> = (0..200)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..BATCH {
                counter += 1;
                std::hint::black_box(aead::seal(&key, Nonce::from_parts(1, counter), b"", &record));
            }
            us(started.elapsed()) / BATCH as f64
        })
        .collect();
    (rsa3072, rsa1024, sha, median(&mut per_seal))
}

/// What `resume_singleton` does once attested, through the same public
/// calls: mount the volume the config names, load the entry script
/// (embedded, or read from the encrypted volume) and run it.
fn run_app(host: &SconeHost, enclave: &Arc<Enclave>, binary: &Binary) -> exec::ExecOutcome {
    let config = &binary.config;
    let volume = config.volume_key.map(|key| {
        let key = AeadKey::new(key);
        let volume = binary.volume.clone().expect("the binary's volume");
        volume.lock().verify_key(&key).expect("volume key");
        (volume, key)
    });
    let source = match &volume {
        Some((volume, key)) if config.entry != "embedded" => {
            String::from_utf8(volume.lock().read_file(key, &config.entry).expect("entry script"))
                .expect("utf-8 script")
        }
        _ => binary.packaged.image.embedded_entry.clone().expect("embedded entry"),
    };
    let script = Script::parse(&source).expect("script");
    let mut ctx = ExecContext {
        config: config.clone(),
        volume,
        network: host.network.clone(),
        reporter: Reporter::Enclave { enclave: enclave.clone(), qe_target: host.qe.target_info() },
        max_steps: 10_000_000,
    };
    exec::execute(&script, &mut ctx).expect("app run")
}

/// Times `request` on an established session `reps` times.
fn rtt_us(chan: &mut SecureChannel, request: &Message, reps: usize) -> f64 {
    let bytes = request.to_bytes();
    median_us(reps, || {
        chan.send(&bytes).expect("send");
        chan.recv().expect("recv")
    })
}

/// Runs every probe on a fresh fleet (a primary and a follower) built
/// from `infra`'s keys and binaries, then stops the fleet.
pub fn run(infra: &Infra, seed: u64, epoch: Instant) -> Isolated {
    let (rsa3072_sign_us, rsa1024_sign_us, sha256_mib_s, aead_seal_us) = crypto(infra, seed);
    let binary = &infra.binaries[0];
    let common: &SigStruct = &binary.packaged.signed.common_sigstruct;
    let base_hash = &binary.packaged.signed.base_hash;

    let sigstruct_verify_us = median_us(50, || common.verify().expect("common sigstruct"));
    let host = &infra.host;
    let enclave = Arc::new(
        host.build_enclave(
            &binary.packaged,
            &InstancePage::common_page(),
            common,
            Attributes::production(),
        )
        .expect("common enclave"),
    );
    let app_run_us = infra
        .binaries
        .iter()
        .map(|binary| median_us(APP_RUNS, || run_app(host, &enclave, binary)))
        .sum::<f64>()
        / infra.binaries.len() as f64;
    let report =
        enclave.ereport(&host.qe.target_info(), ReportData::from_digest(&sha256::digest(b"q")));
    let nonce = [0x9a; 16];
    let quote = host.qe.quote(&report, nonce).expect("quote");
    let quote_verify_us =
        median_us(50, || quote.verify(&infra.attestation_root, &nonce).map(|_| ()).expect("quote"));

    let identity = infra.channel_key.public_key().fingerprint();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x15);
    let warm = SingletonIssuer::new(infra.signer_key.clone(), identity);
    warm.issue(&mut rng, common, base_hash).expect("issue");
    let issue_warm_us = median_us(24, || warm.issue(&mut rng, common, base_hash).expect("issue"));
    let mut cold: Vec<f64> = (0..8)
        .map(|_| {
            let issuer = SingletonIssuer::new(infra.signer_key.clone(), identity);
            let started = Instant::now();
            issuer.issue(&mut rng, common, base_hash).expect("issue");
            us(started.elapsed())
        })
        .collect();
    let issue_cold_us = median(&mut cold);

    let log_key = AeadKey::new([0x10; 32]);
    let mut volume = Volume::format(&log_key, "probe");
    volume.set_flush_latency_micros(FLUSH_MICROS);
    volume.create_log(&log_key, "journal").expect("log");
    let payload = vec![0x4a; LOG_PAYLOAD_BYTES];
    let log_append_us =
        median_us(200, || volume.append_log_chunk(&log_key, "journal", &payload).expect("append"));

    let fleet = infra.start_fleet("probe", true);
    let primary = &fleet.primary;
    let follower = &fleet.follower.as_ref().expect("probe follower").node;
    let connect = |rng: &mut StdRng| {
        let conn = infra.network.connect(&fleet.primary_addr).expect("connect");
        SecureChannel::client_connect(conn, rng).expect("handshake")
    };
    let handshake_us = median_us(40, || connect(&mut rng));
    let mut chan = connect(&mut rng);
    let rtt_challenge_us = rtt_us(&mut chan, &Message::ChallengeRequest, 300);
    let rtt_ping_us = rtt_us(&mut chan, &Message::Ping, 300);
    let status_rtt = |chan: &mut SecureChannel, view: &str| {
        rtt_us(chan, &Message::StatusRequest { view: view.into() }, 150)
    };
    let rtt_status_us = (status_rtt(&mut chan, "metrics") + status_rtt(&mut chan, "health")) / 2.0;

    let caught_up = |seq: u64| {
        let deadline = Instant::now() + Duration::from_secs(5);
        while follower.journal_sequence() < seq && Instant::now() < deadline {
            std::thread::yield_now();
        }
    };
    let mut lags = Vec::new();
    let mut redeems = Vec::new();
    for k in 0..PROBE_WRITES {
        let binary = &infra.binaries[k % infra.binaries.len()];
        let request = Message::GrantRequest {
            common_sigstruct: binary.packaged.signed.common_sigstruct.to_bytes(),
            base_hash: binary.packaged.signed.base_hash.encode().to_vec(),
        };
        chan.send(&request.to_bytes()).expect("send grant");
        let reply = Message::from_bytes(&chan.recv().expect("grant reply")).expect("decode");
        let acked = Instant::now();
        let Message::GrantResponse { token, sigstruct, .. } = reply else {
            panic!("probe grant refused: {reply:?}");
        };
        caught_up(primary.journal_sequence());
        lags.push(crate::stats::ms(acked.elapsed()));
        let mrenclave = SigStruct::from_bytes(&sigstruct).expect("sigstruct").body().enclave_hash;
        let started = Instant::now();
        primary.redeem_token(&token, &mrenclave).expect("redeem");
        let acked = Instant::now();
        redeems.push(us(acked - started));
        caught_up(primary.journal_sequence());
        lags.push(crate::stats::ms(acked.elapsed()));
    }
    let redeem_commit_us = median(&mut redeems);
    let apply_lag_ms = median(&mut lags);

    let views = ["metrics", "health"];
    let mut render = 0usize;
    let status_render_us = median_us(400, || {
        render += 1;
        status_body(primary, views[render % 2]).expect("view")
    });

    let mut starts = SpanLog::new(epoch);
    let mut mix = crate::drive::Mix::new(seed ^ 0x9b, infra.binaries.len());
    for op in 0..PROBE_STARTS {
        let b = mix.at(op);
        let binary = &infra.binaries[b];
        let opts = binary.start_options(&fleet.primary_addr, seed ^ 0x7000 ^ op);
        crate::drive::traced_start(host, binary, &opts, &mut starts, u64::MAX - op)
            .expect("probe start");
    }
    let stages = stages_between(&[(&[], &stage_views(primary))]);
    drop(chan);
    fleet.stop();
    Isolated {
        rsa3072_sign_us,
        rsa1024_sign_us,
        sha256_mib_s,
        aead_seal_us,
        sigstruct_verify_us,
        quote_verify_us,
        issue_warm_us,
        issue_cold_us,
        handshake_us,
        rtt_challenge_us,
        rtt_ping_us,
        rtt_status_us,
        log_append_us,
        redeem_commit_us,
        status_render_us,
        app_run_us,
        apply_lag_ms,
        starts,
        stages,
    }
}
