//! Deterministic span/event tracing with Chrome-trace export.
//!
//! A [`span`] guard marks a named region of work. Every thread keeps a
//! local event buffer: leaving a span (when the global sink was enabled
//! at entry) records one complete event with wall-clock `ts`/`dur`.
//! Buffers flush into the process-wide [`TraceSink`] in batches, so the
//! hot path touches no lock until a batch boundary.
//!
//! [`render_chrome_trace`] turns drained events into the Chrome trace
//! event format (the `{"traceEvents":[...]}` JSON array of `"ph":"X"`
//! complete events) that `chrome://tracing` and [Perfetto] load
//! directly.
//!
//! ## Determinism boundary
//!
//! Event recording (timestamps, durations, the sink) only happens while
//! the sink is [enabled](TraceSink::enable), and nothing ever reads an
//! event to make a decision — traces are write-only, so seeded outputs
//! are byte-identical with tracing on or off.
//!
//! Timestamps are microseconds since the sink's first use; thread ids
//! are small dense integers assigned on each thread's first span. Both
//! vary run to run — traces are an operator artifact, not a seeded one.
//!
//! [Perfetto]: https://ui.perfetto.dev

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Thread-local buffers hand batches of this size to the sink.
const FLUSH_BATCH: usize = 256;

/// One completed span, ready for Chrome-trace export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (a `'static` literal at the instrumentation site).
    pub name: &'static str,
    /// Category — the subsystem that emitted the span (`"campaign"`,
    /// `"relay"`, ...); Perfetto can filter on it.
    pub cat: &'static str,
    /// Start, in microseconds since the sink's time origin.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Dense per-process thread id (assigned at each thread's first span).
    pub tid: u64,
    /// Logical ids carried by the span (cell index, epoch, ...).
    pub args: Vec<(&'static str, u64)>,
}

/// The process-wide collection point for trace events.
///
/// Disabled by default: spans record nothing. A sweep that was asked
/// for `--trace-out` enables the sink for its duration,
/// [drains](TraceSink::drain) it at the end, and renders the result with
/// [`render_chrome_trace`].
#[derive(Debug)]
pub struct TraceSink {
    enabled: AtomicBool,
    events: Mutex<Vec<TraceEvent>>,
    origin: OnceLock<Instant>,
    next_tid: AtomicU64,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new()
    }
}

impl TraceSink {
    /// A fresh, disabled sink.
    pub fn new() -> Self {
        TraceSink {
            enabled: AtomicBool::new(false),
            events: Mutex::new(Vec::new()),
            origin: OnceLock::new(),
            next_tid: AtomicU64::new(1),
        }
    }

    /// The process-wide sink every [`span`] records into.
    pub fn global() -> &'static TraceSink {
        static GLOBAL: OnceLock<TraceSink> = OnceLock::new();
        GLOBAL.get_or_init(TraceSink::new)
    }

    /// Starts recording events.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::SeqCst);
    }

    /// Stops recording.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::SeqCst);
    }

    /// Whether spans are currently recording events.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Flushes the calling thread's buffer and takes every event
    /// collected so far. Other threads' unflushed buffers are *not*
    /// visible — instrumented code flushes at natural quiescence points
    /// ([`flush`] at the end of each campaign cell) and on thread exit.
    pub fn drain(&self) -> Vec<TraceEvent> {
        flush();
        std::mem::take(&mut self.events.lock().expect("trace sink lock"))
    }

    /// Microseconds since the sink's (lazily fixed) time origin.
    fn now_us(&self) -> u64 {
        let origin = *self.origin.get_or_init(Instant::now);
        origin.elapsed().as_micros() as u64
    }

    fn submit(&self, batch: &mut Vec<TraceEvent>) {
        if batch.is_empty() {
            return;
        }
        self.events.lock().expect("trace sink lock").append(batch);
    }
}

struct ThreadTrace {
    buffer: Vec<TraceEvent>,
    tid: u64,
}

impl Drop for ThreadTrace {
    fn drop(&mut self) {
        TraceSink::global().submit(&mut self.buffer);
    }
}

thread_local! {
    static THREAD: RefCell<ThreadTrace> = RefCell::new(ThreadTrace {
        buffer: Vec::new(),
        tid: TraceSink::global().next_tid.fetch_add(1, Ordering::Relaxed),
    });
}

/// An active span; completing (dropping) it records one [`TraceEvent`]
/// when the sink was enabled at entry.
#[derive(Debug)]
#[must_use = "a span measures the scope it is alive for"]
pub struct Span {
    name: &'static str,
    cat: &'static str,
    args: Vec<(&'static str, u64)>,
    /// `Some` iff the sink was enabled when the span was entered.
    start_us: Option<u64>,
}

/// Enters a span named `name` in category `cat` on the current thread.
pub fn span(name: &'static str, cat: &'static str) -> Span {
    span_with(name, cat, &[])
}

/// [`span`] carrying logical ids (cell index, epoch, ...) into the
/// exported event's `args`.
pub fn span_with(name: &'static str, cat: &'static str, args: &[(&'static str, u64)]) -> Span {
    let sink = TraceSink::global();
    let start_us = sink.is_enabled().then(|| sink.now_us());
    Span {
        name,
        cat,
        args: args.to_vec(),
        start_us,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let end_us = self.start_us.map(|_| TraceSink::global().now_us());
        THREAD.with(|t| {
            let mut t = t.borrow_mut();
            if let (Some(start), Some(end)) = (self.start_us, end_us) {
                let tid = t.tid;
                t.buffer.push(TraceEvent {
                    name: self.name,
                    cat: self.cat,
                    ts_us: start,
                    dur_us: end.saturating_sub(start),
                    tid,
                    args: std::mem::take(&mut self.args),
                });
                if t.buffer.len() >= FLUSH_BATCH {
                    TraceSink::global().submit(&mut t.buffer);
                }
            }
        });
    }
}

/// Pushes the calling thread's buffered events into the global sink.
/// Instrumented code calls this at quiescence points (end of a campaign
/// cell) so [`TraceSink::drain`] sees everything.
pub fn flush() {
    THREAD.with(|t| {
        let mut t = t.borrow_mut();
        TraceSink::global().submit(&mut t.buffer);
    });
}

/// Renders events as Chrome trace event format JSON — the
/// `{"traceEvents":[...]}` shape `chrome://tracing` and Perfetto load.
/// Events are sorted by `(ts, tid, name)` so equal inputs render equal
/// bytes regardless of drain interleaving.
pub fn render_chrome_trace(events: &[TraceEvent]) -> String {
    let mut ordered: Vec<&TraceEvent> = events.iter().collect();
    ordered.sort_by(|a, b| {
        (a.ts_us, a.tid, a.name)
            .cmp(&(b.ts_us, b.tid, b.name))
            .then_with(|| a.dur_us.cmp(&b.dur_us))
    });
    let mut out = String::with_capacity(64 + 96 * ordered.len());
    out.push_str("{\"traceEvents\":[\n");
    for (i, e) in ordered.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}",
            json_escape(e.name),
            json_escape(e.cat),
            e.ts_us,
            e.dur_us,
            e.tid
        )
        .expect("writing to a String cannot fail");
        if !e.args.is_empty() {
            out.push_str(",\"args\":{");
            for (j, (key, value)) in e.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write!(out, "\"{}\":{}", json_escape(key), value)
                    .expect("writing to a String cannot fail");
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

/// Escapes `s` for use inside a JSON string literal: quotes,
/// backslashes, and every control character (as `\n`, `\r`, `\t`, or
/// `\u00XX`). The one JSON string escaper of the workspace — the trace
/// export here and the campaign's JSONL and manifest writers all use it.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        TraceSink::global().disable();
        {
            let _outer = span("outer", "test-disabled");
            let _inner = span("inner", "test-disabled");
        }
        assert!(
            TraceSink::global()
                .drain()
                .iter()
                .all(|e| e.cat != "test-disabled"),
            "no events from this test"
        );
    }

    #[test]
    fn enabled_spans_record_complete_events() {
        let sink = TraceSink::global();
        sink.enable();
        {
            let _s = span_with("unit.work", "unit-test", &[("cell", 7)]);
        }
        sink.disable();
        let events = sink.drain();
        let mine: Vec<_> = events.iter().filter(|e| e.cat == "unit-test").collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].name, "unit.work");
        assert_eq!(mine[0].args, vec![("cell", 7)]);
    }

    #[test]
    fn chrome_render_sorts_and_escapes() {
        let events = vec![
            TraceEvent {
                name: "b",
                cat: "t",
                ts_us: 5,
                dur_us: 1,
                tid: 2,
                args: vec![],
            },
            TraceEvent {
                name: "a\"q",
                cat: "t",
                ts_us: 1,
                dur_us: 3,
                tid: 1,
                args: vec![("epoch", 2)],
            },
        ];
        let json = render_chrome_trace(&events);
        assert!(json.starts_with("{\"traceEvents\":[\n"));
        assert!(json.trim_end().ends_with("]}"));
        let a = json.find("a\\\"q").expect("escaped name present");
        let b = json.find("\"name\":\"b\"").expect("second event present");
        assert!(a < b, "events sort by timestamp");
        assert!(json.contains("\"args\":{\"epoch\":2}"));
    }

    #[test]
    fn chrome_render_escapes_control_characters() {
        let events = vec![TraceEvent {
            name: "a\nb\t\u{1}",
            cat: "c\r",
            ts_us: 0,
            dur_us: 1,
            tid: 1,
            args: vec![],
        }];
        let json = render_chrome_trace(&events);
        assert!(json.contains("\"name\":\"a\\nb\\t\\u0001\""), "{json}");
        assert!(json.contains("\"cat\":\"c\\r\""), "{json}");
        assert!(!json.chars().any(|c| c < ' ' && c != '\n'), "{json:?}");
    }

    #[test]
    fn json_escape_covers_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1f}x\u{7f}é"), "\\u001fx\u{7f}é");
    }
}
