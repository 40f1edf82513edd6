//! In-memory spans for the traced replay: name, start, end and parent,
//! recorded around calls into each layer's public functions and reduced
//! to per-layer self time when the replay ends.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

/// Spans of one single-threaded replay, kept in memory.
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// The layer a span name belongs to: its first dotted component, with the
/// streaming command's helpers and the distributed plane's parts folded
/// into one layer each.
pub fn layer_of(name: &str) -> &str {
    match name.split('.').next().unwrap_or(name) {
        "supervisor" | "checkpoint" => "streaming",
        "sender" | "aggregator" | "frame" | "spool" => "net",
        other => other,
    }
}

/// Every layer a span may belong to, in report order.
pub const LAYERS: [&str; 8] =
    ["io", "segment", "detector", "engine", "glr", "streaming", "serve", "net"];

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Tracer {
        Tracer { spans: Vec::with_capacity(1 << 16), open: Vec::new() }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let now = Instant::now();
        self.spans.push(Span { name, start: now, end: now, parent: self.open.last().copied() });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = Instant::now();
        out
    }

    /// Total duration of every span named `name` (seconds).
    pub fn total(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| (s.end - s.start).as_secs_f64()).sum()
    }

    /// Self time (duration minus the time its children cover) summed per
    /// span name. Children of one span run one after another on the same
    /// thread, so their durations never overlap.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child: Vec<f64> = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += (s.end - s.start).as_secs_f64();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start).as_secs_f64() - child[i];
        }
        out
    }

    /// Writes every span as one JSON object a line: name, start and end
    /// in microseconds since the first span began, and the parent's index.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let Some(t0) = self.spans.first().map(|s| s.start) else { return std::fs::write(path, "") };
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}}}\n",
                s.name,
                (s.start - t0).as_secs_f64() * 1e6,
                (s.end - t0).as_secs_f64() * 1e6,
            ));
        }
        std::fs::write(path, out)
    }
}
