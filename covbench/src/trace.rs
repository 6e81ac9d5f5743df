//! Spans recorded from the benchmark's side, around its calls into each
//! layer's public functions. Spans stay in memory while the workload
//! runs and are written out once, when it ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;

/// Parent id of a span that has no parent.
pub const ROOT: SpanId = 0;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span; `f` gets the tracer and the new span's id
    /// so it can open child spans.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce(&mut Self, SpanId) -> T,
    ) -> T {
        let id = self.spans.len() as SpanId + 1;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        let out = f(self, id);
        let end_ns = self.ns(Instant::now());
        self.spans[id as usize - 1].end_ns = end_ns;
        out
    }

    /// Record a span timed elsewhere (on another thread, or by a client).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations in seconds of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// A span's duration minus the part its child spans cover.
    pub fn self_time(&self, id: SpanId) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == id)
            .map(Span::secs)
            .sum();
        self.spans[id as usize - 1].secs() - children
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns,
                (self.self_time(s.id) * 1e9).round() as i64
            )?;
        }
        out.flush()
    }
}

/// Measured cost in seconds of recording one span on this machine; the
/// traced run's overhead is the spans it recorded times this cost.
pub fn span_cost_s() -> f64 {
    const N: u32 = 20_000;
    let mut t = Tracer::new();
    let start = Instant::now();
    for _ in 0..N {
        t.span("calibrate", ROOT, |_, _| ());
    }
    start.elapsed().as_secs_f64() / f64::from(N)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.span("root", ROOT, |t, id| {
            t.span("child", id, |_, _| {
                std::thread::sleep(Duration::from_millis(20))
            });
            t.span("child", id, |_, _| {
                std::thread::sleep(Duration::from_millis(20))
            });
            std::thread::sleep(Duration::from_millis(5));
            id
        });
        let children: f64 = t.durations("child").iter().sum();
        assert_eq!(t.durations("child").len(), 2);
        assert!(children >= 0.040);
        let root_secs = t.durations("root")[0];
        assert!((t.self_time(root) - (root_secs - children)).abs() < 1e-9);
        assert!(t.self_time(root) >= 0.005 && t.self_time(root) < 0.040);
    }

    #[test]
    fn recorded_spans_keep_their_interval() {
        let mut t = Tracer::new();
        let start = Instant::now();
        let end = start + Duration::from_millis(3);
        let id = t.record("elsewhere", ROOT, start, end);
        assert_eq!(id, 1);
        assert!((t.durations("elsewhere")[0] - 0.003).abs() < 1e-6);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn span_cost_is_small_and_positive() {
        let c = span_cost_s();
        assert!(c > 0.0 && c < 1e-4, "span cost {c}");
    }
}
