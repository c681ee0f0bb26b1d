//! The SinClave perf ledger: one command that drives the CAS from
//! outside through public calls only, on one of three workloads, checks
//! the outputs, and prints every metric by name and unit.
//!
//! ```text
//! perf-ledger --workload <singleton-start|follower-start|session-reads>
//!             --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on an untraced window.
//! `--trace 1` runs the same window with every other op traced (spans
//! around every layer call, written to `out/spans-<workload>.csv` in
//! this package), then the isolated layer probes, and prints the
//! per-layer metrics. The last line of standard output is the result
//! as one JSON object.

mod drive;
mod probe;
mod spans;
mod stats;
mod world;

use drive::{run_reads, run_starts, StartLoad, Window, GENERATORS};
use sinclave_cas::StatsSnapshot;
use sinclave_net::SecureChannel;
use sinclave_runtime::RuntimeError;
use stats::{median, Metrics};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use world::{Fleet, Infra};

/// Offered rate of the open-loop start workloads.
const START_RATE: u64 = 25;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: u64 = 7;
/// Seed of every repeated set-up. A set-up's cost depends on its seed
/// (the RSA key search takes from under half to twice the typical
/// time), so the repeats all redo one fixed set-up: their median is the
/// time of the same work in every run, whatever the run's seed.
const SETUP_REPEAT_SEED: u64 = 0x5e7_0005;
/// Redeemed singletons presented again after the window.
const REPLAYS: usize = 8;
/// An open-loop run whose generator woke more than this late for an op
/// (p99) is flagged as behind.
const GEN_BEHIND_MS: f64 = 2.0;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    SingletonStart,
    FollowerStart,
    SessionReads,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "singleton-start" => Some(Workload::SingletonStart),
            "follower-start" => Some(Workload::FollowerStart),
            "session-reads" => Some(Workload::SessionReads),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SingletonStart => "singleton-start",
            Workload::FollowerStart => "follower-start",
            Workload::SessionReads => "session-reads",
        }
    }

    fn starts(self) -> bool {
        self != Workload::SessionReads
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let number = || value.parse::<u64>().map_err(|_| format!("{flag}: bad number {value}"));
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => trace = Some(number()? != 0),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(30),
            trace: trace.unwrap_or(false),
        })
    }
}

/// The fleet and the client sessions a workload runs on.
struct Setup {
    infra: Infra,
    fleet: Fleet,
    sessions: Vec<SecureChannel>,
}

fn set_up(workload: Workload, seed: u64) -> Setup {
    let infra = Infra::new(seed);
    let fleet = infra.start_fleet("cas", workload == Workload::FollowerStart);
    let mut sessions = Vec::new();
    if workload == Workload::SessionReads {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed ^ 0x5e5);
        for _ in 0..GENERATORS {
            let conn = infra.network.connect(&fleet.primary_addr).expect("connect");
            sessions.push(SecureChannel::client_connect(conn, &mut rng).expect("handshake"));
        }
    }
    Setup { infra, fleet, sessions }
}

/// The counters and stage histograms of every node of a fleet, plus
/// the primary's journal flushes (one per group-commit batch).
struct Counters {
    primary: StatsSnapshot,
    follower: StatsSnapshot,
    flushes: u64,
    primary_stages: Vec<(&'static str, sinclave_cas::HistogramView)>,
    follower_stages: Vec<(&'static str, sinclave_cas::HistogramView)>,
}

fn counters(fleet: &Fleet) -> Counters {
    let follower = fleet.follower.as_ref().map(|f| &f.node);
    Counters {
        primary: fleet.primary.stats.snapshot(),
        follower: follower.map(|node| node.stats.snapshot()).unwrap_or_default(),
        flushes: fleet.primary.latency().journal_flush.view().count(),
        primary_stages: probe::stage_views(&fleet.primary),
        follower_stages: follower.map(|node| probe::stage_views(node)).unwrap_or_default(),
    }
}

/// Runs the workload's window; with `traced`, every other op is traced.
fn window(
    setup: &mut Setup,
    args: &Args,
    length: Duration,
    traced: Option<Instant>,
    keep: &std::collections::HashSet<u64>,
) -> Window {
    if args.workload.starts() {
        run_starts(&StartLoad {
            infra: &setup.infra,
            fleet: &setup.fleet,
            rate: START_RATE,
            length,
            seed: args.seed,
            traced,
            keep,
        })
    } else {
        run_reads(&mut setup.sessions, length, args.seed, traced)
    }
}

/// The output checks that need the fleet: replayed singletons refused,
/// counters reconciled, nonces distinct, status bodies well formed.
fn check(
    setup: &Setup,
    args: &Args,
    window: &Window,
    before: &Counters,
    after: &Counters,
) -> Vec<String> {
    let mut failures: Vec<String> = window.check_failures.iter().take(10).cloned().collect();
    let completed = window.attempted - window.failed;
    if args.workload.starts() {
        let redeemed = after.primary.tokens_redeemed - before.primary.tokens_redeemed;
        if redeemed != completed {
            failures.push(format!("primary redeemed {redeemed} tokens for {completed} starts"));
        }
        if args.workload == Workload::FollowerStart {
            let forwarded = after.follower.forwarded_writes - before.follower.forwarded_writes;
            if forwarded != 2 * completed {
                failures
                    .push(format!("follower forwarded {forwarded} writes for {completed} starts"));
            }
        }
        if window.kept.is_empty() {
            failures.push("no redeemed singleton was kept for the replay check".into());
        }
        for replay in &window.kept {
            let binary = &setup.infra.binaries[replay.binary];
            match setup.infra.host.resume_singleton(
                &binary.packaged,
                replay.enclave.clone(),
                &replay.opts,
            ) {
                Err(RuntimeError::AttestationDenied { .. }) => {}
                Ok(_) => failures
                    .push(format!("a redeemed {} singleton attested again", binary.config_id)),
                Err(other) => {
                    failures.push(format!("replay of {} failed oddly: {other}", binary.config_id))
                }
            }
        }
    } else {
        let mut nonces = window.nonces.clone();
        let received = nonces.len();
        nonces.sort_unstable();
        nonces.dedup();
        if nonces.len() != received {
            failures.push(format!("{} repeated challenge nonces", received - nonces.len()));
        }
        if window.status_bodies.is_empty() {
            failures.push("no status body was sampled".into());
        }
        for (view, body) in &window.status_bodies {
            if let Err(why) = parse_status(view, body) {
                failures.push(format!("{view} body does not parse: {why}"));
            }
        }
    }
    failures
}

/// Parses a `metrics` (Prometheus text) or `health` status body.
fn parse_status(view: &str, body: &str) -> Result<(), String> {
    match view {
        "metrics" => {
            let mut samples = 0;
            for line in body.lines().filter(|l| !l.starts_with('#')) {
                let (name, value) = line.rsplit_once(' ').ok_or(format!("no value: {line}"))?;
                if !name.starts_with("cas_") || value.parse::<f64>().is_err() {
                    return Err(format!("bad sample: {line}"));
                }
                samples += 1;
            }
            if samples == 0 || !body.contains("cas_grants_issued ") {
                return Err("no counters".into());
            }
            Ok(())
        }
        _ => match body.lines().next().and_then(|l| l.strip_prefix("status: ")) {
            Some("healthy") => Ok(()),
            other => Err(format!("verdict {other:?}")),
        },
    }
}

fn span_median(logs: &[spans::SpanLog], name: &str) -> f64 {
    median(&mut spans::durations_ms(logs, name))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perf-ledger: {why}");
            eprintln!("usage: perf-ledger --workload <singleton-start|follower-start|session-reads> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;

    let mut setup = set_up(workload, args.seed);
    let mut setup_s = vec![started.elapsed().as_secs_f64()];
    let before = counters(&setup.fleet);
    let length = Duration::from_secs(args.seconds);
    let keep = drive::sample_ops(args.seed, drive::ops_in(START_RATE, length), REPLAYS);
    let epoch = Instant::now();
    let run = window(&mut setup, &args, length, args.trace.then_some(epoch), &keep);
    let after = counters(&setup.fleet);
    let failures = check(&setup, &args, &run, &before, &after);
    let Setup { infra, fleet, sessions } = setup;
    drop(sessions);
    fleet.stop();
    let isolated = args.trace.then(|| probe::run(&infra, args.seed, epoch));
    drop(infra);

    // More set-ups for the median; only the untraced run reports it.
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    for _ in 1..repeats {
        let t = Instant::now();
        let extra = set_up(workload, SETUP_REPEAT_SEED);
        setup_s.push(t.elapsed().as_secs_f64());
        drop(extra.sessions);
        extra.fleet.stop();
    }

    let gen_lag_p99_ms = run.gen_lags.quantile_ms(0.99);
    let behind = workload.starts() && gen_lag_p99_ms > GEN_BEHIND_MS;
    println!(
        "workload={} seed={} seconds={} trace={} offered={} achieved={:.3}/s gen_lag_p99_ms={:.4} generator={} host_steal_pct={:.1}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if workload.starts() { format!("{START_RATE}/s") } else { "closed-loop".into() },
        run.throughput(),
        gen_lag_p99_ms,
        if behind { "BEHIND" } else { "on-time" },
        run.steal_pct,
    );
    for failure in &failures {
        println!("check failed: {failure}");
    }

    let mut metrics = Metrics::default();
    match &isolated {
        Some(isolated) => {
            layer_metrics(&mut metrics, workload, &run, isolated, &before, &after);
            let mut logs: Vec<&spans::SpanLog> = run.spans.iter().collect();
            logs.push(&isolated.starts);
            let path = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join(format!("out/spans-{}.csv", workload.name()));
            if let Err(err) = spans::write_csv(&path, &logs) {
                eprintln!("perf-ledger: writing {}: {err}", path.display());
            }
        }
        None => {
            let completed = run.attempted - run.failed;
            metrics.add("setup_s", median(&mut setup_s), "s");
            metrics.add("latency_p50_ms", run.latencies.quantile_ms(0.50, length), "ms");
            metrics.add("latency_p90_ms", run.latencies.quantile_ms(0.90, length), "ms");
            metrics.add("throughput_ops_s", run.throughput(), "1/s");
            metrics.add("cpu_us_per_op", stats::us(run.cpu) / completed.max(1) as f64, "us");
            metrics.add("success_ratio", completed as f64 / run.attempted.max(1) as f64, "ratio");
            metrics.add("peak_rss_mib", stats::peak_rss_mib(), "MiB");
        }
    }
    let correct = failures.is_empty();
    println!("{}", stats::result_line(correct, run.attempted.max(1), run.failed, &metrics));
    ExitCode::SUCCESS
}

/// The traced run's per-layer metrics.
fn layer_metrics(
    m: &mut Metrics,
    workload: Workload,
    run: &Window,
    iso: &probe::Isolated,
    before: &Counters,
    after: &Counters,
) {
    // Client-side start legs: from the traced ops where the workload
    // starts singletons, else from the probe's starts.
    let start_logs =
        if workload.starts() { &run.spans[..] } else { std::slice::from_ref(&iso.starts) };
    let grant_ms = span_median(start_logs, "runtime.request_grant");
    let build_ms = span_median(start_logs, "sgx.build_enclave");
    let resume_ms = span_median(start_logs, "runtime.resume_singleton");
    let start_ms = span_median(start_logs, "start");
    m.add("runtime.request_grant_ms", grant_ms, "ms");
    m.add("sgx.build_enclave_ms", build_ms, "ms");
    m.add("runtime.resume_singleton_ms", resume_ms, "ms");

    m.add("crypto.rsa3072_sign_us", iso.rsa3072_sign_us, "us");
    m.add("crypto.rsa1024_sign_us", iso.rsa1024_sign_us, "us");
    m.add("crypto.sha256_mib_s", iso.sha256_mib_s, "MiB/s");
    m.add("crypto.aead_seal_us", iso.aead_seal_us, "us");
    m.add("sgx.sigstruct_verify_us", iso.sigstruct_verify_us, "us");
    m.add("sgx.quote_verify_us", iso.quote_verify_us, "us");
    m.add("core.issue_warm_us", iso.issue_warm_us, "us");
    m.add("core.issue_cold_us", iso.issue_cold_us, "us");
    m.add("net.handshake_us", iso.handshake_us, "us");

    // Session round trips: from the traced ops on session-reads, else
    // from the probe session.
    let (challenge, ping, status) = if workload.starts() {
        (iso.rtt_challenge_us, iso.rtt_ping_us, iso.rtt_status_us)
    } else {
        let rtt = |name| span_median(&run.spans, name) * 1e3;
        (
            rtt("net.session_rtt.challenge"),
            rtt("net.session_rtt.ping"),
            rtt("net.session_rtt.status"),
        )
    };
    m.add("net.session_rtt_us.challenge", challenge, "us");
    m.add("net.session_rtt_us.ping", ping, "us");
    m.add("net.session_rtt_us.status", status, "us");

    m.add("fs.log_append_us", iso.log_append_us, "us");
    m.add("cas.redeem_commit_us", iso.redeem_commit_us, "us");
    let writes = (after.primary.grants_issued - before.primary.grants_issued)
        + (after.primary.tokens_redeemed - before.primary.tokens_redeemed);
    let flushes = after.flushes - before.flushes;
    m.add(
        "cas.journal_appends_per_write",
        if writes == 0 { 0.0 } else { flushes as f64 / writes as f64 },
        "ratio",
    );
    m.add("cas.status_render_us", iso.status_render_us, "us");
    m.add("runtime.app_run_us", iso.app_run_us, "us");

    // Stage histograms over the window, summed over the workload's
    // nodes; a stage no node of the workload recorded reads from the
    // probe primary.
    let stages = probe::stages_between(&[
        (&before.primary_stages, &after.primary_stages),
        (&before.follower_stages, &after.follower_stages),
    ]);
    for stage in ["verify", "sign", "seal", "journal_flush", "request"] {
        let own = stages.iter().find(|s| s.name == stage && s.count > 0);
        let from = own.or_else(|| iso.stages.iter().find(|s| s.name == stage));
        let (p50, p99) = from.map_or((0.0, 0.0), |s| (s.p50_us, s.p99_us));
        m.add(format!("cas.stage.{stage}.p50_us"), p50, "us");
        m.add(format!("cas.stage.{stage}.p99_us"), p99, "us");
    }

    let completed = run.attempted - run.failed;
    let forwarded = after.follower.forwarded_writes - before.follower.forwarded_writes;
    m.add("cas.forwarded_writes_per_op", forwarded as f64 / completed.max(1) as f64, "ratio");
    let delta = |f: fn(&StatsSnapshot) -> u64| {
        (f(&after.primary) - f(&before.primary)) + (f(&after.follower) - f(&before.follower))
    };
    m.add("cas.requests_shed", delta(|s| s.requests_shed) as f64, "count");
    m.add("cas.denials", delta(|s| s.denials) as f64, "count");

    let apply_lag_ms = if run.apply_lags_ms.is_empty() {
        iso.apply_lag_ms
    } else {
        median(&mut run.apply_lags_ms.clone())
    };
    m.add("replica.apply_lag_ms", apply_lag_ms, "ms");

    m.add("bench.gen_lag_p99_ms", run.gen_lags.quantile_ms(0.99), "ms");
    m.add("bench.host_steal_pct", run.steal_pct, "%");
    let untraced = run.latencies.whole();
    m.add("latency_p99_ms", untraced.quantile_ms(0.99), "ms");

    // What the isolated layer costs leave unexplained of the traced
    // path. A start's grant leg is a handshake, one request round trip,
    // the issuer's work and a journal append; its resume leg is a
    // handshake, the challenge round trip, the quote's RSA-1024
    // signature, the attest round trip, quote verification, the
    // redemption commit and the app run. A session read is two seals
    // and two opens plus, for a status request, the render.
    let grant_known = iso.handshake_us + iso.rtt_ping_us + iso.issue_warm_us + iso.log_append_us;
    let resume_known = iso.handshake_us
        + iso.rtt_challenge_us
        + iso.rsa1024_sign_us
        + iso.rtt_ping_us
        + iso.quote_verify_us
        + iso.redeem_commit_us
        + iso.app_run_us;
    let unexplained =
        |known_us: f64, measured_ms: f64| 100.0 * (1.0 - known_us / 1e3 / measured_ms);
    let whole = if workload.starts() {
        unexplained(grant_known + build_ms * 1e3 + resume_known, start_ms)
    } else {
        let known = 4.0 * iso.aead_seal_us + drive::status_share() * iso.status_render_us;
        unexplained(known, run.traced_latencies.quantile_ms(0.5))
    };
    m.add("layers.unaccounted_pct", whole, "%");
    m.add("layers.unaccounted_pct.grant", unexplained(grant_known, grant_ms), "%");
    m.add("layers.unaccounted_pct.resume", unexplained(resume_known, resume_ms), "%");

    // Traced against untraced ops of the same window.
    let (u50, t50) = (untraced.quantile_ms(0.5), run.traced_latencies.quantile_ms(0.5));
    m.add("trace.overhead_pct", 100.0 * (t50 - u50) / u50, "%");
    m.add("error_ratio", run.failed as f64 / run.attempted.max(1) as f64, "ratio");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_the_command_line() {
        let argv = ["--workload", "session-reads", "--seed", "7", "--seconds", "3", "--trace", "1"];
        let args = Args::parse(argv.iter().map(|s| (*s).to_owned())).expect("parses");
        assert!(args.workload == Workload::SessionReads && args.seed == 7);
        assert!(args.seconds == 3 && args.trace);
        assert!(Args::parse(["--workload", "nope"].iter().map(|s| (*s).to_owned())).is_err());
    }

    #[test]
    fn status_bodies_parse() {
        assert!(parse_status("metrics", "# TYPE cas_grants_issued counter\ncas_grants_issued 3\n")
            .is_ok());
        assert!(parse_status("metrics", "cas_grants_issued three\n").is_err());
        assert!(parse_status("health", "status: healthy\nfenced: false\n").is_ok());
        assert!(parse_status("health", "status: degraded\n").is_err());
    }
}
