//! The event model: spans, instants and counters on the simulated clock.

/// Identifier of one horizontal lane in the trace (a Chrome-trace `tid`).
///
/// By convention in this workspace: track 0 is the cost model's engine
/// step timeline and track 2 the bench harness; `moe-cluster` owns the
/// tracks from 7 up (control, router, one per replica).
pub type TrackId = u32;

/// Track carrying engine step spans (prefill/decode and their kernels).
pub const ENGINE_TRACK: TrackId = 0;

/// Track carrying bench-harness experiment/sweep grouping spans.
pub const BENCH_TRACK: TrackId = 2;

/// Coarse classification of an event, exported as the Chrome-trace
/// category (`cat`) so the viewer can filter by subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Engine step or phase on the simulated device (prefill, decode).
    Step,
    /// A kernel-level component: GEMM, attention core, weight streaming.
    Kernel,
    /// Collective communication: all-reduce, all-to-all, P2P hops.
    Comm,
    /// Scheduler decision: admit, preempt, finish.
    Sched,
    /// Experiment-harness grouping span.
    Bench,
}

impl Category {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Category::Step => "step",
            Category::Kernel => "kernel",
            Category::Comm => "comm",
            Category::Sched => "sched",
            Category::Bench => "bench",
        }
    }
}

/// An argument value attached to an event (rendered into Chrome `args`).
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Integer payload (token counts, ids).
    Int(i64),
    /// Float payload (seconds, bytes as f64).
    Float(f64),
    /// String payload.
    Str(String),
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::Int(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::Int(i64::from(v))
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::Float(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// One recorded trace event on the simulated timeline.
///
/// Times are absolute simulated seconds (the [`crate::Tracer`] adds its
/// base offset before the event reaches a sink).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A named interval `[start_s, start_s + dur_s]` on `track`. Spans on
    /// the same track nest by time containment (Chrome `ph: "X"`).
    Span {
        /// Display name ("prefill", "moe-ffn", "req 3", ...).
        name: String,
        /// Subsystem category.
        cat: Category,
        /// Lane the span renders on.
        track: TrackId,
        /// Absolute start, simulated seconds.
        start_s: f64,
        /// Duration, simulated seconds (non-negative).
        dur_s: f64,
        /// Optional key/value payload.
        args: Vec<(&'static str, ArgValue)>,
    },
    /// A point-in-time marker (Chrome `ph: "i"`).
    Instant {
        /// Display name ("admit", "preempt", ...).
        name: String,
        /// Subsystem category.
        cat: Category,
        /// Lane the marker renders on.
        track: TrackId,
        /// Absolute time, simulated seconds.
        t_s: f64,
        /// Optional key/value payload.
        args: Vec<(&'static str, ArgValue)>,
    },
    /// A sampled counter series value (Chrome `ph: "C"`).
    Counter {
        /// Series name ("kv-blocks-used", ...).
        name: String,
        /// Absolute sample time, simulated seconds.
        t_s: f64,
        /// Sampled value.
        value: f64,
    },
}

#[cfg(test)]
impl TraceEvent {
    /// The event's timestamp (start time for spans).
    pub(crate) fn time_s(&self) -> f64 {
        match self {
            TraceEvent::Span { start_s, .. } => *start_s,
            TraceEvent::Instant { t_s, .. } => *t_s,
            TraceEvent::Counter { t_s, .. } => *t_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_names_are_stable() {
        assert_eq!(Category::Step.name(), "step");
        assert_eq!(Category::Bench.name(), "bench");
    }

    #[test]
    fn arg_conversions() {
        assert_eq!(ArgValue::from(3usize), ArgValue::Int(3));
        assert_eq!(ArgValue::from("x"), ArgValue::Str("x".into()));
        assert!(matches!(ArgValue::from(1.5f64), ArgValue::Float(_)));
    }

    #[test]
    fn event_time_accessor() {
        let ev = TraceEvent::Counter {
            name: "c".into(),
            t_s: 2.5,
            value: 1.0,
        };
        assert!((ev.time_s() - 2.5).abs() < 1e-12);
    }
}
