//! # anonroute-obs
//!
//! Observability for long-running anonroute processes — relay daemons
//! and multi-minute campaign sweeps — built entirely on `std` (atomics,
//! `std::net`, threads; the workspace's vendored-deps constraint rules
//! out tokio/hyper/prometheus crates):
//!
//! * [`metrics`] — lock-cheap instruments: [`Counter`] and [`Gauge`]
//!   over single atomics, [`Histogram`] over an atomic bucket array with
//!   a CAS-accumulated sum;
//! * [`registry`] — a labeled [`Registry`] of named metric families with
//!   deterministic Prometheus-style text exposition (stable family and
//!   series ordering, label escaping);
//! * [`health`] — process [`Health`]: readiness and a free-form status
//!   note for probe bodies;
//! * [`http`] — [`ObsServer`], a tiny hand-rolled HTTP/1.1 server
//!   exposing `GET /metrics`, `/healthz`, and `/readyz` on a
//!   thread-per-connection accept loop with bounded shutdown — plus the
//!   `POST /control/*` operator routes when a control handle is
//!   attached;
//! * [`control`] — [`SweepControl`], the pause/resume/drain/abort state
//!   machine a sweep polls at its deterministic scheduling points;
//! * [`trace`] — span tracing ([`span`] guards over thread-local
//!   buffers, a process-wide [`TraceSink`]) with Chrome-trace/Perfetto
//!   JSON export.
//!
//! ## Determinism boundary
//!
//! Metrics and traces are **write-only sinks**: evaluation code may
//! increment counters, set gauges, observe histograms, and emit spans,
//! but must never *read* one to make a decision. The workspace's seeded
//! evaluation pipeline (campaign cells, cluster runs, adversary
//! scoring) promises byte-identical artifacts per seed with
//! observability on or off — pinned by the campaign golden-file tests —
//! and that contract holds exactly because nothing numeric ever flows
//! back out of this crate into an evaluator. Instrument reads
//! ([`Counter::get`] and friends) exist for exposition and tests only.
//! The one deliberate, still-deterministic exception is
//! [`SweepControl::checkpoint`], which only ever delays or skips whole
//! units of work at scheduling boundaries — see its module docs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub mod health;
pub mod http;
pub mod metrics;
pub mod registry;
pub mod trace;

pub use control::{Checkpoint, SweepControl, SweepState};
pub use health::Health;
pub use http::ObsServer;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::Registry;
pub use trace::{json_escape, render_chrome_trace, span, span_with, Span, TraceEvent, TraceSink};
