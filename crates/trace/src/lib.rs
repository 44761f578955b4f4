//! # moe-trace
//!
//! Structured tracing for the simulator stack. Every layer of the
//! pipeline — the `moe-gpusim` cost model, the `moe-cluster` serving
//! loop, and the `moe-bench` experiment harness — can emit **spans**
//! (named intervals on the *simulated* clock) and **instant events**
//! (scheduler decisions, preemptions) into a [`Tracer`]. The collected
//! events render three ways:
//!
//! * a Chrome-trace JSON file ([`chrome_trace_json`]) loadable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev),
//! * a human text flame summary ([`flame_summary`]) aggregating time by
//!   span path, and
//! * deterministic latency [`Histogram`]s (p50/p95/p99) that back the
//!   serving loop's latency reporting.
//!
//! ## Clocks
//!
//! Timestamps are **simulated seconds**, never the host wall clock: the
//! values come from the discrete-event queue and the roofline cost model,
//! so two runs with the same seed produce byte-identical traces (the
//! `no-wall-clock` moe-lint rule stays trivially satisfied). The
//! [`Tracer`] carries a *base offset* so that many independent simulations
//! (each starting at its own local t = 0) compose into one monotone
//! timeline — the bench harness advances the base after every sweep point.
//!
//! ## Cost when disabled
//!
//! A disabled tracer ([`Tracer::disabled`]) records nothing and callers
//! are expected to branch on [`Tracer::is_enabled`] before computing any
//! breakdown, so the hot path pays one branch. Sinks implement
//! [`TraceSink`]; the bounded [`RingSink`] keeps the last *N* events for
//! tests and long-running servers, [`MemorySink`] keeps everything.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod flame;
mod hist;
mod sink;
mod span;
mod tracer;

pub use chrome::chrome_trace_json;
pub use flame::{flame_summary, timeline_coverage};
pub use hist::Histogram;
pub use sink::{MemorySink, RingSink, TraceSink};
pub use span::{ArgValue, Category, TraceEvent, TrackId, BENCH_TRACK, ENGINE_TRACK};
pub use tracer::Tracer;
