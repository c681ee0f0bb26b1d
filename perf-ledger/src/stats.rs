//! Order statistics, process accounting read from `/proc`, and the
//! result line the benchmark prints last.

use std::time::Duration;

/// The `q` quantile (0..=1) of `samples` by linear interpolation
/// between closest ranks. Sorts in place; `0.0` for no samples.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    #[allow(clippy::cast_precision_loss)]
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(samples.len() - 1);
    #[allow(clippy::cast_precision_loss)]
    let frac = pos - lo as f64;
    samples[lo] + (samples[hi] - samples[lo]) * frac
}

/// The median of `samples` (see [`quantile`]).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Times `op` `reps` times and returns the median of the per-call
/// durations in microseconds. Every call's result goes through
/// `black_box` so the work cannot be optimised away.
pub fn median_us<T>(reps: usize, mut op: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = std::time::Instant::now();
            std::hint::black_box(op());
            us(started.elapsed())
        })
        .collect();
    median(&mut samples)
}

/// A duration in (fractional) microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A duration in (fractional) milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q` quantile of a log2-bucketed histogram, in microseconds,
/// interpolated geometrically inside the bucket that holds the rank
/// and clamped to the largest sample. `rows` are `(lower_ns,
/// upper_ns, count)` for the non-empty buckets in ascending order;
/// `0.0` when the histogram is empty.
pub fn bucket_quantile_us(rows: &[(u64, u64, u64)], max: Duration, q: f64) -> f64 {
    let total: u64 = rows.iter().map(|r| r.2).sum();
    if total == 0 {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
    let mut seen = 0.0;
    for &(lower, upper, count) in rows {
        #[allow(clippy::cast_precision_loss)]
        let count = count as f64;
        if seen + count >= rank {
            let frac = (rank - seen) / count;
            #[allow(clippy::cast_precision_loss)]
            let (lo, hi) = ((lower.max(1)) as f64, upper as f64);
            let ns = lo * (hi / lo).powf(frac);
            return ns.min(max.as_secs_f64() * 1e9) / 1e3;
        }
        seen += count;
    }
    us(max)
}

/// Buckets per unit of natural log: bucket `i` holds values in
/// `[e^(i/100), e^((i+1)/100))` ns, about 1 % wide.
const BUCKETS_PER_E: f64 = 100.0;
/// Enough buckets for every duration up to about 100 s.
const HISTO_BUCKETS: usize = 2_550;

/// A latency histogram with buckets about 1 % wide, so a run's
/// bookkeeping takes the same memory however many ops it completes.
pub struct Histo {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histo {
    fn default() -> Self {
        Histo { counts: vec![0; HISTO_BUCKETS], total: 0 }
    }
}

impl Histo {
    pub fn record(&mut self, d: Duration) {
        let ns = d.as_nanos().max(1) as f64;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let i = ((ns.ln() * BUCKETS_PER_E) as usize).min(HISTO_BUCKETS - 1);
        self.counts[i] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histo) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The `q` quantile in ms, interpolated by rank inside its bucket;
    /// `0.0` when empty.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut seen = 0.0;
        for (i, &count) in self.counts.iter().enumerate() {
            #[allow(clippy::cast_precision_loss)]
            let count = count as f64;
            if count > 0.0 && seen + count > rank {
                #[allow(clippy::cast_precision_loss)]
                let (lo, hi) =
                    ((i as f64 / BUCKETS_PER_E).exp(), ((i + 1) as f64 / BUCKETS_PER_E).exp());
                let frac = (rank - seen + 0.5) / count;
                return (lo + (hi - lo) * frac.min(1.0)) / 1e6;
            }
            seen += count;
        }
        0.0
    }
}

/// Length of one slice of a [`SlicedHisto`]: 50 ops of an open loop at
/// 25/s. A stall of length `s` touches up to `s / SLICE + 1` slices, so
/// short slices keep longer stalls out of the median; across the 15
/// slices of a 30-second window the p90 still rests on 75 ops beyond it.
pub const SLICE: Duration = Duration::from_secs(2);

/// Latencies by the [`SLICE`] of the window an op began in. Its
/// quantiles are the median over the slices of each slice's quantile,
/// so a stall of the shared host that covers less than half of the
/// window leaves them where the rest of the window puts them, where it
/// would lift a whole-window p90 by as much as it slows the ops it
/// covers.
#[derive(Default)]
pub struct SlicedHisto {
    slices: Vec<Histo>,
}

impl SlicedHisto {
    /// Records latency `d` of an op that began `at` into the window.
    pub fn record(&mut self, at: Duration, d: Duration) {
        let i = usize::try_from(at.as_nanos() / SLICE.as_nanos()).unwrap_or(usize::MAX);
        if self.slices.len() <= i {
            self.slices.resize_with(i + 1, Histo::default);
        }
        self.slices[i].record(d);
    }

    pub fn merge(&mut self, other: &SlicedHisto) {
        if self.slices.len() < other.slices.len() {
            self.slices.resize_with(other.slices.len(), Histo::default);
        }
        for (mine, theirs) in self.slices.iter_mut().zip(&other.slices) {
            mine.merge(theirs);
        }
    }

    /// Every slice's latencies in one histogram.
    pub fn whole(&self) -> Histo {
        let mut all = Histo::default();
        for slice in &self.slices {
            all.merge(slice);
        }
        all
    }

    /// The median, over the slices that lie wholly inside a window of
    /// length `window` (every slice, if none does), of each slice's
    /// `q` quantile, in ms; `0.0` when nothing was recorded.
    pub fn quantile_ms(&self, q: f64, window: Duration) -> f64 {
        let whole = usize::try_from(window.as_nanos() / SLICE.as_nanos()).unwrap_or(usize::MAX);
        let slices = if whole == 0 {
            &self.slices[..]
        } else {
            &self.slices[..whole.min(self.slices.len())]
        };
        let mut per_slice: Vec<f64> =
            slices.iter().filter(|s| s.total > 0).map(|s| s.quantile_ms(q)).collect();
        median(&mut per_slice)
    }
}

/// Process CPU time, user + system, of all threads so far.
///
/// Read from `/proc/self/stat` (fields 14 and 15, in clock ticks of
/// 1/100 s, the fixed `USER_HZ` of Linux on x86-64 and arm64).
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields after the
    // closing parenthesis are space-separated, starting at field 3.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    // Field 14 is index 11 after the parenthesis (field 3 is index 0).
    Duration::from_millis((ticks(11) + ticks(12)) * 10)
}

/// Host steal so far: the time the hypervisor ran something else while
/// a vCPU of this machine was ready to run (`steal` in `/proc/stat`,
/// summed over the vCPUs, in ticks of 1/100 s).
pub fn host_steal() -> Duration {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|field| field.parse::<u64>().ok())
        .unwrap_or(0);
    Duration::from_millis(ticks * 10)
}

/// The share (%) of all vCPU time over `elapsed` the host stole since
/// `before`, a [`host_steal`] reading.
pub fn steal_pct(before: Duration, elapsed: Duration) -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let stolen = host_steal().saturating_sub(before).as_secs_f64();
    #[allow(clippy::cast_precision_loss)]
    let available = elapsed.as_secs_f64() * cpus as f64;
    100.0 * stolen / available.max(1e-9)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One named metric with its unit, in print order.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of one run, in the order they were added.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric { name: name.into(), value, unit });
    }
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert!((quantile(&mut v, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&mut v, 1.0) - 4.0).abs() < 1e-12);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn histo_quantiles_are_within_a_bucket() {
        let mut h = Histo::default();
        for ms in 1..=100u64 {
            h.record(Duration::from_millis(ms));
        }
        let p50 = h.quantile_ms(0.5);
        assert!((p50 - 50.5).abs() / 50.5 < 0.02, "{p50}");
        let p90 = h.quantile_ms(0.9);
        assert!((p90 - 90.1).abs() / 90.1 < 0.02, "{p90}");
        assert_eq!(Histo::default().quantile_ms(0.5), 0.0);
    }

    #[test]
    fn sliced_quantiles_ignore_a_minority_of_slow_slices() {
        let mut h = SlicedHisto::default();
        for slice in 0..5u32 {
            // Two of five slices run 3x slower; the slice past the
            // window is left out.
            let ms = if slice < 2 { 30 } else { 10 };
            for op in 0..50u32 {
                h.record(
                    SLICE * slice + Duration::from_millis(op.into()),
                    Duration::from_millis(ms),
                );
            }
        }
        h.record(SLICE * 5, Duration::from_millis(500));
        let p90 = h.quantile_ms(0.9, SLICE * 5 + SLICE / 2);
        assert!((p90 - 10.0).abs() / 10.0 < 0.02, "{p90}");
        let first_three = h.quantile_ms(0.9, SLICE * 3);
        assert!((first_three - 30.0).abs() / 30.0 < 0.02, "{first_three}");
        // A window shorter than a slice reads its one partial slice.
        let mut short = SlicedHisto::default();
        short.record(Duration::ZERO, Duration::from_millis(7));
        assert!((short.quantile_ms(0.9, SLICE / 2) - 7.0).abs() / 7.0 < 0.02);
        assert_eq!(SlicedHisto::default().quantile_ms(0.5, SLICE), 0.0);
    }

    #[test]
    fn bucket_quantile_stays_inside_its_bucket() {
        // 10 samples in [1024, 2047] ns, 10 in [2048, 4095] ns.
        let rows = [(1024, 2047, 10), (2048, 4095, 10)];
        let p50 = bucket_quantile_us(&rows, Duration::from_nanos(3000), 0.5);
        assert!((1.024..=2.047).contains(&p50), "{p50}");
        let p99 = bucket_quantile_us(&rows, Duration::from_nanos(3000), 0.99);
        assert!((p99 - 3.0).abs() < 1e-9, "clamped to the max: {p99}");
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.add("latency_p50_ms", 1.5, "ms");
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
