//! The load generators: an open loop of singleton starts and a closed
//! loop of requests on established secure sessions. Both run at most
//! two generator threads, and both time every op from outside, through
//! public calls only.

use crate::spans::SpanLog;
use crate::stats::{Histo, SlicedHisto};
use crate::world::{Binary, Fleet, Infra};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sinclave::instance_page::InstancePage;
use sinclave::protocol::Message;
use sinclave_net::SecureChannel;
use sinclave_runtime::scone::{RunningApp, SconeHost, StartOptions};
use sinclave_runtime::RuntimeError;
use sinclave_sgx::enclave::Enclave;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Generator threads (the box's core count) — and, one session each,
/// client connections in flight.
pub const GENERATORS: usize = 2;

/// A seeded mix of `n` items: every block of `n` consecutive ops holds
/// each item once, in an order drawn from the seed, so the seed decides
/// the order and never the proportions.
pub struct Mix {
    seed: u64,
    n: usize,
    block: Option<u64>,
    order: Vec<usize>,
}

impl Mix {
    pub fn new(seed: u64, n: usize) -> Mix {
        Mix { seed, n, block: None, order: (0..n).collect() }
    }

    /// The item op `op` uses.
    pub fn at(&mut self, op: u64) -> usize {
        let n = self.n as u64;
        let block = op / n;
        if self.block != Some(block) {
            // Fisher–Yates over the block.
            let mut rng =
                StdRng::seed_from_u64(self.seed ^ block.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            self.order = (0..self.n).collect();
            for i in (1..self.n).rev() {
                let j = usize::try_from(rng.next_u64() % (i as u64 + 1)).unwrap_or(0);
                self.order.swap(i, j);
            }
            self.block = Some(block);
        }
        self.order[usize::try_from(op % n).unwrap_or(0)]
    }
}

/// Ops an open loop at `rate` per second offers in `length`.
pub fn ops_in(rate: u64, length: Duration) -> u64 {
    u64::try_from(u128::from(rate) * length.as_millis() / 1000).unwrap_or(u64::MAX)
}

/// A seeded choice of `count` distinct op ids in `0..ops`.
pub fn sample_ops(seed: u64, ops: u64, count: usize) -> HashSet<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5a3b1e);
    let mut chosen = HashSet::new();
    while chosen.len() < count.min(usize::try_from(ops).unwrap_or(usize::MAX)) {
        chosen.insert(rng.next_u64() % ops);
    }
    chosen
}

/// What one window of ops produced.
#[derive(Default)]
pub struct Window {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold (the run is then incorrect).
    pub check_failures: Vec<String>,
    /// Per completed untraced op: latency (open loop: from when the op
    /// was due, less the generator's own lateness), by the slice of the
    /// window the op was due in (closed loop: sent in).
    pub latencies: SlicedHisto,
    /// The same, in one histogram, for the traced ops of a traced window
    /// (every even op id), so tracing's cost is read against untraced
    /// ops of the same window.
    pub traced_latencies: Histo,
    /// Per op: the generator's own lateness (open loop: how late an
    /// idle generator woke for an op; closed loop: the gap between a
    /// reply and the next request).
    pub gen_lags: Histo,
    /// From the window's start (on the open loop, the first op's due
    /// time) to the last op's completion.
    pub elapsed: Duration,
    /// Process CPU time spent in the window.
    pub cpu: Duration,
    /// The share (%) of vCPU time the host stole during the window.
    pub steal_pct: f64,
    /// Spans of the traced ops, one log per generator thread.
    pub spans: Vec<SpanLog>,
    /// Follower apply lag samples in ms (traced follower windows).
    pub apply_lags_ms: Vec<f64>,
    /// Singletons kept for the replay check.
    pub kept: Vec<Kept>,
    /// The first [`NONCES_KEPT`] challenge nonces of each session
    /// (closed loop).
    pub nonces: Vec<[u8; 16]>,
    /// A sample of status replies, at most [`BODIES_KEPT`] per session:
    /// (view, body) (closed loop).
    pub status_bodies: Vec<(&'static str, String)>,
}

impl Window {
    fn absorb(&mut self, other: Window) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.check_failures.extend(other.check_failures);
        self.latencies.merge(&other.latencies);
        self.traced_latencies.merge(&other.traced_latencies);
        self.gen_lags.merge(&other.gen_lags);
        self.spans.extend(other.spans);
        self.kept.extend(other.kept);
        self.nonces.extend(other.nonces);
        self.status_bodies.extend(other.status_bodies);
    }

    /// Completed ops per second over the window.
    pub fn throughput(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// A singleton that already ran, kept to be presented again.
pub struct Kept {
    pub binary: usize,
    pub enclave: Arc<Enclave>,
    pub opts: StartOptions,
}

/// One open-loop window of singleton starts.
pub struct StartLoad<'a> {
    pub infra: &'a Infra,
    pub fleet: &'a Fleet,
    pub rate: u64,
    pub length: Duration,
    pub seed: u64,
    /// The span epoch of a traced window, whose even ops are traced.
    pub traced: Option<Instant>,
    pub keep: &'a HashSet<u64>,
}

/// `SconeHost::start_sinclave`, as its three public calls, each in a
/// span under the op's root span.
pub fn traced_start(
    host: &SconeHost,
    binary: &Binary,
    opts: &StartOptions,
    log: &mut SpanLog,
    op: u64,
) -> Result<RunningApp, RuntimeError> {
    let root = log.enter("start", op, None);
    // The grant RNG `start_sinclave` derives from the same options, so a
    // traced start sends the bytes an untraced one would.
    let mut rng = StdRng::seed_from_u64(opts.rng_seed ^ 0x51c1);
    let result = log
        .time("runtime.request_grant", op, Some(root), || {
            host.request_grant(&binary.packaged, &opts.verifier_addr, &mut rng)
        })
        .and_then(|grant| {
            let page = InstancePage::new(grant.token, grant.verifier_identity);
            log.time("sgx.build_enclave", op, Some(root), || {
                host.build_enclave(
                    &binary.packaged,
                    &page.to_page_bytes(),
                    &grant.sigstruct,
                    opts.attributes,
                )
            })
        })
        .and_then(|enclave| {
            log.time("runtime.resume_singleton", op, Some(root), || {
                host.resume_singleton(&binary.packaged, Arc::new(enclave), opts)
            })
        });
    log.exit(root);
    result
}

/// Checks one start's outputs: the delivered config is its policy's,
/// and the app's last line ends in `-done`.
fn check_start(binary: &Binary, app: &RunningApp) -> Option<String> {
    if app.config != binary.config {
        return Some(format!("{}: delivered config differs from its policy", binary.config_id));
    }
    match app.outcome.stdout.last() {
        Some(line) if line.ends_with("-done") => None,
        other => Some(format!("{}: app ended with {other:?}", binary.config_id)),
    }
}

/// Samples the follower's apply lag from outside: the time from when a
/// primary journal sequence is first seen until the follower's
/// sequence reaches it.
fn sample_apply_lag(fleet: &Fleet, stop: &AtomicBool) -> Vec<f64> {
    let Some(follower) = &fleet.follower else { return Vec::new() };
    let mut pending: std::collections::VecDeque<(u64, Instant)> = Default::default();
    let mut last_seen = fleet.primary.journal_sequence();
    let mut lags = Vec::new();
    let mut stopped_at: Option<Instant> = None;
    loop {
        if stop.load(Ordering::Relaxed) {
            // Drain what is pending, for at most a second.
            let since = *stopped_at.get_or_insert_with(Instant::now);
            if pending.is_empty() || since.elapsed() > Duration::from_secs(1) {
                break;
            }
        }
        let seq = fleet.primary.journal_sequence();
        if seq > last_seen {
            pending.push_back((seq, Instant::now()));
            last_seen = seq;
        }
        let applied = follower.node.journal_sequence();
        while pending.front().is_some_and(|&(seq, _)| seq <= applied) {
            let (_, seen) = pending.pop_front().expect("front exists");
            lags.push(crate::stats::ms(seen.elapsed()));
        }
        std::thread::sleep(Duration::from_micros(250));
    }
    lags
}

/// Whether op `op` of a traced window is traced: every other op, so
/// traced and untraced ops share the window and its drift.
fn traced_op(tracing: bool, op: u64) -> bool {
    tracing && op.is_multiple_of(2)
}

/// Runs `rate × length` singleton starts on an open loop: op `i` is
/// due at `i / rate` seconds, and a free generator thread takes the
/// next op — so at most [`GENERATORS`] starts are in flight, and a
/// start that waits for a busy generator is charged that wait.
pub fn run_starts(load: &StartLoad<'_>) -> Window {
    let ops = ops_in(load.rate, load.length);
    let next = AtomicU64::new(0);
    let addr = load.fleet.client_addr();
    let cpu_before = crate::stats::process_cpu();
    let steal_before = crate::stats::host_steal();
    let t0 = Instant::now() + Duration::from_millis(5);
    let last_done = parking_lot::Mutex::new(t0);
    let stop_sampler = AtomicBool::new(false);
    let mut window = Window::default();
    std::thread::scope(|scope| {
        let sampler = (load.traced.is_some() && load.fleet.follower.is_some())
            .then(|| scope.spawn(|| sample_apply_lag(load.fleet, &stop_sampler)));
        let workers: Vec<_> = (0..GENERATORS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Window::default();
                    let mut log = load.traced.map(SpanLog::new);
                    let mut binaries = Mix::new(load.seed ^ 0xb1, load.infra.binaries.len());
                    loop {
                        let op = next.fetch_add(1, Ordering::Relaxed);
                        if op >= ops {
                            break;
                        }
                        let due = t0 + Duration::from_nanos(op * 1_000_000_000 / load.rate);
                        let now = Instant::now();
                        let lag = if now < due {
                            std::thread::sleep(due - now);
                            Instant::now() - due
                        } else {
                            Duration::ZERO
                        };
                        let b = binaries.at(op);
                        let binary = &load.infra.binaries[b];
                        let opts = binary
                            .start_options(addr, load.seed.wrapping_mul(0x100_0000_01b3) ^ op);
                        let traced = traced_op(log.is_some(), op);
                        let result = match log.as_mut().filter(|_| traced) {
                            Some(log) => traced_start(&load.infra.host, binary, &opts, log, op),
                            None => load.infra.host.start_sinclave(&binary.packaged, &opts),
                        };
                        let done = Instant::now();
                        mine.attempted += 1;
                        mine.gen_lags.record(lag);
                        match result {
                            Ok(app) => {
                                let latency = done - due - lag;
                                if traced {
                                    mine.traced_latencies.record(latency);
                                } else {
                                    mine.latencies.record(due - t0, latency);
                                }
                                mine.check_failures.extend(check_start(binary, &app));
                                if load.keep.contains(&op) {
                                    mine.kept.push(Kept { binary: b, enclave: app.enclave, opts });
                                }
                            }
                            Err(err) => {
                                mine.failed += 1;
                                eprintln!("op {op} ({}) failed: {err}", binary.config_id);
                            }
                        }
                        let mut last = last_done.lock();
                        *last = (*last).max(done);
                    }
                    mine.spans.extend(log);
                    mine
                })
            })
            .collect();
        for worker in workers {
            window.absorb(worker.join().expect("generator thread"));
        }
        stop_sampler.store(true, Ordering::Relaxed);
        if let Some(sampler) = sampler {
            window.apply_lags_ms = sampler.join().expect("lag sampler");
        }
    });
    window.elapsed = *last_done.lock() - t0;
    window.cpu = crate::stats::process_cpu().saturating_sub(cpu_before);
    window.steal_pct = crate::stats::steal_pct(steal_before, window.elapsed);
    window
}

/// The session-reads request mix: each of the three request types in
/// equal shares, the status requests split evenly between the
/// `metrics` and `health` views, in a seeded order. The equal shares
/// are a choice, not measured traffic.
const READ_MIX: [Read; 6] = [
    Read::Challenge,
    Read::Ping,
    Read::Status("metrics"),
    Read::Challenge,
    Read::Ping,
    Read::Status("health"),
];

/// The share of status requests in [`READ_MIX`].
pub fn status_share() -> f64 {
    let status = READ_MIX.iter().filter(|r| matches!(r, Read::Status(_))).count();
    status as f64 / READ_MIX.len() as f64
}

/// Every this many status replies, one is kept and parsed after the
/// window (parsing on the hot path would slow the closed loop down).
const STATUS_SAMPLE_EVERY: u64 = 50;
/// Status bodies kept per session.
const BODIES_KEPT: usize = 64;
/// Challenge nonces kept per session for the distinctness check. The
/// caps keep a run's memory independent of how many ops it completes,
/// so `peak_rss_mib` does not grow with throughput.
const NONCES_KEPT: usize = 1 << 16;

#[derive(Clone, Copy)]
enum Read {
    Challenge,
    Ping,
    Status(&'static str),
}

impl Read {
    fn request(self) -> Message {
        match self {
            Read::Challenge => Message::ChallengeRequest,
            Read::Ping => Message::Ping,
            Read::Status(view) => Message::StatusRequest { view: view.to_owned() },
        }
    }

    fn span(self) -> &'static str {
        match self {
            Read::Challenge => "net.session_rtt.challenge",
            Read::Ping => "net.session_rtt.ping",
            Read::Status(_) => "net.session_rtt.status",
        }
    }
}

/// One request on a session; `Err` is a refused or failed request.
fn read_once(
    chan: &mut SecureChannel,
    read: Read,
    keep_status: bool,
    window: &mut Window,
) -> Result<(), String> {
    chan.send(&read.request().to_bytes()).map_err(|e| e.to_string())?;
    let raw = chan.recv().map_err(|e| e.to_string())?;
    match (read, Message::from_bytes(&raw).map_err(|e| e.to_string())?) {
        (Read::Challenge, Message::Challenge { nonce }) => {
            if window.nonces.len() < NONCES_KEPT {
                window.nonces.push(nonce);
            }
        }
        (Read::Ping, Message::Pong) => {}
        (Read::Status(view), Message::StatusResponse { body }) => {
            if keep_status && window.status_bodies.len() < BODIES_KEPT {
                window.status_bodies.push((view, body));
            }
        }
        (_, Message::Denied { reason }) => return Err(format!("refused: {reason}")),
        (_, other) => window.check_failures.push(format!("unexpected reply {other:?}")),
    }
    Ok(())
}

/// Runs a closed loop for `length` on each session — one request in
/// flight per session, the next sent as soon as the reply is in.
pub fn run_reads(
    sessions: &mut [SecureChannel],
    length: Duration,
    seed: u64,
    traced: Option<Instant>,
) -> Window {
    let cpu_before = crate::stats::process_cpu();
    let steal_before = crate::stats::host_steal();
    let t0 = Instant::now();
    let deadline = t0 + length;
    let mut window = Window::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = sessions
            .iter_mut()
            .enumerate()
            .map(|(s, chan)| {
                scope.spawn(move || {
                    let mut mine = Window::default();
                    let mut log = traced.map(SpanLog::new);
                    let mut mix = Mix::new(seed ^ (0x5e55 + s as u64), READ_MIX.len());
                    let mut statuses = 0u64;
                    let mut prev_done = Instant::now();
                    let mut op = 0u64;
                    while prev_done < deadline {
                        let read = READ_MIX[mix.at(op)];
                        let keep = matches!(read, Read::Status(_)) && {
                            statuses += 1;
                            statuses.is_multiple_of(STATUS_SAMPLE_EVERY)
                        };
                        let sent = Instant::now();
                        let id = ((s as u64) << 48) | op;
                        let traced = traced_op(log.is_some(), op);
                        let result = match log.as_mut().filter(|_| traced) {
                            Some(log) => log.time(read.span(), id, None, || {
                                read_once(chan, read, keep, &mut mine)
                            }),
                            None => read_once(chan, read, keep, &mut mine),
                        };
                        let done = Instant::now();
                        mine.attempted += 1;
                        mine.gen_lags.record(sent - prev_done);
                        match result {
                            Ok(()) if traced => mine.traced_latencies.record(done - sent),
                            Ok(()) => mine.latencies.record(sent - t0, done - sent),
                            Err(err) => {
                                mine.failed += 1;
                                if mine.failed <= 3 {
                                    eprintln!("read {op} on session {s} failed: {err}");
                                }
                            }
                        }
                        prev_done = done;
                        op += 1;
                    }
                    mine.elapsed = prev_done - t0;
                    mine.spans.extend(log);
                    mine
                })
            })
            .collect();
        for worker in workers {
            let mine = worker.join().expect("session thread");
            window.elapsed = window.elapsed.max(mine.elapsed);
            window.absorb(mine);
        }
    });
    window.cpu = crate::stats::process_cpu().saturating_sub(cpu_before);
    window.steal_pct = crate::stats::steal_pct(steal_before, window.elapsed);
    window
}
