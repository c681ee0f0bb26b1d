//! The traced run's span log: the benchmark's own code opens a span
//! around each call into a layer. Spans live in memory, one log per
//! generator thread (no lock on the measured path), and are written
//! out when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: name, interval, the span that caused it, and the op
/// id shared by every span of one operation.
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single thread's spans, timed against an epoch shared by all logs.
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> Self {
        SpanLog { epoch, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its index, the handle for [`SpanLog::exit`]
    /// and for children's `parent`.
    pub fn enter(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, op, parent, start_ns, end_ns: start_ns });
        self.spans.len() - 1
    }

    pub fn exit(&mut self, index: usize) {
        let end = self.now_ns();
        self.spans[index].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.enter(name, op, parent);
        let out = f();
        self.exit(span);
        out
    }

    /// Self time of every span: its duration minus its children's. A
    /// span's children are calls made one after another on the same
    /// thread, so their intervals do not overlap and their sum is the
    /// covered part.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.dur_ns());
            }
        }
        own
    }
}

/// Durations in milliseconds of every span named `name` across `logs`.
pub fn durations_ms(logs: &[SpanLog], name: &str) -> Vec<f64> {
    logs.iter()
        .flat_map(|log| log.spans.iter())
        .filter(|span| span.name == name)
        .map(|span| span.dur_ns() as f64 / 1e6)
        .collect()
}

/// Writes every span as one CSV row: thread, index, parent index (empty
/// for a root), op id, name, start and end (ns since the run's epoch)
/// and self time (ns).
pub fn write_csv(path: &Path, logs: &[&SpanLog]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread,index,parent,op,name,start_ns,end_ns,self_ns")?;
    for (thread, log) in logs.iter().enumerate() {
        for (index, (span, own)) in log.spans.iter().zip(log.self_ns()).enumerate() {
            let parent = span.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{thread},{index},{parent},{},{},{},{},{own}",
                span.op, span.name, span.start_ns, span.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new(Instant::now());
        log.spans.push(Span { name: "op", op: 1, parent: None, start_ns: 0, end_ns: 100 });
        log.spans.push(Span { name: "a", op: 1, parent: Some(0), start_ns: 10, end_ns: 40 });
        log.spans.push(Span { name: "b", op: 1, parent: Some(0), start_ns: 50, end_ns: 90 });
        assert_eq!(log.self_ns(), vec![30, 30, 40]);
        assert_eq!(durations_ms(&[log], "a"), vec![30.0 / 1e6]);
    }
}
