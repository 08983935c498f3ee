//! In-memory span recorder for the traced replay.
//!
//! Spans are recorded around calls into the repository's public
//! functions, from the benchmark's side of the boundary only; nothing
//! inside the program is instrumented. Spans nest, so a layer's self
//! time is its total minus the part its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span: name, start and end in seconds since the recorder's
/// origin, and nesting depth (0 = outermost).
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    depth: usize,
}

/// Records spans and counters for one traced replay.
pub struct Tracer {
    origin: Instant,
    depth: usize,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            depth: 0,
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Seconds since the recorder was created.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let start = self.now();
        let depth = self.depth;
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        let end = self.now();
        self.spans.push(Span {
            name,
            start,
            end,
            depth,
        });
        out
    }

    /// Adds `by` to the counter `name`.
    pub fn count(&mut self, name: &'static str, by: u64) {
        *self.counts.entry(name).or_insert(0) += by;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Total seconds spent in spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + (s.end - s.start))
    }

    /// Seconds covered by outermost spans that start at or after `from`.
    pub fn covered_since(&self, from: f64) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.depth == 0 && s.start >= from)
            .fold(0.0, |acc, s| acc + (s.end - s.start))
    }

    /// Per-name totals as `(name, calls, seconds)`, for the span report.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64)> {
        let mut by_name: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for s in &self.spans {
            let slot = by_name.entry(s.name).or_insert((0, 0.0));
            slot.0 += 1;
            slot.1 += s.end - s.start;
        }
        by_name.into_iter().map(|(k, (c, t))| (k, c, t)).collect()
    }
}
