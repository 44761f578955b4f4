//! Trace sinks: where recorded events go.

use crate::span::TraceEvent;

/// Destination for trace events.
///
/// Implementations must be deterministic: `snapshot` returns events in
/// the order they were recorded (the ring sink returns the surviving
/// suffix in record order).
///
/// Sinks are `Send` so a [`crate::Tracer`] can be moved into a parallel
/// task (each task records into its own child tracer, later merged in
/// submission order via [`crate::Tracer::absorb`]); they are never
/// shared between threads, so `Sync` is not required.
pub trait TraceSink: Send {
    /// Record one event.
    fn record(&mut self, event: TraceEvent);

    /// The retained events, oldest first.
    fn snapshot(&self) -> Vec<TraceEvent>;

    /// Events discarded by a bounded sink (0 for unbounded sinks).
    fn dropped(&self) -> u64 {
        0
    }
}

/// An unbounded in-memory sink; used for file export.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Vec<TraceEvent>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.clone()
    }
}

/// A bounded ring buffer keeping the most recent `capacity` events.
///
/// Overflow silently evicts the oldest event and increments the dropped
/// counter; the retained window is always the most recent suffix, in
/// record order. Suits always-on tracing of long-running servers where
/// only the recent past matters.
#[derive(Debug)]
pub struct RingSink {
    buf: Vec<TraceEvent>,
    /// Index of the oldest retained event once the ring has wrapped.
    head: usize,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    /// A ring retaining at most `capacity` events (capacity 0 drops all).
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity.min(4096)),
            head: 0,
            capacity,
            dropped: 0,
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Category, TrackId};

    fn ev(i: usize) -> TraceEvent {
        TraceEvent::Instant {
            name: format!("e{i}"),
            cat: Category::Sched,
            track: 0 as TrackId,
            t_s: i as f64,
            args: Vec::new(),
        }
    }

    fn names(evs: &[TraceEvent]) -> Vec<String> {
        evs.iter()
            .map(|e| match e {
                TraceEvent::Instant { name, .. } => name.clone(),
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn memory_sink_keeps_order() {
        let mut s = MemorySink::new();
        for i in 0..5 {
            s.record(ev(i));
        }
        assert_eq!(s.len(), 5);
        assert_eq!(names(&s.snapshot()), vec!["e0", "e1", "e2", "e3", "e4"]);
    }

    #[test]
    fn ring_under_capacity_keeps_everything() {
        let mut s = RingSink::new(8);
        for i in 0..5 {
            s.record(ev(i));
        }
        assert_eq!(s.dropped(), 0);
        assert_eq!(names(&s.snapshot()), vec!["e0", "e1", "e2", "e3", "e4"]);
    }

    #[test]
    fn ring_overflow_keeps_most_recent_suffix_in_order() {
        let mut s = RingSink::new(3);
        for i in 0..7 {
            s.record(ev(i));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 4);
        assert_eq!(names(&s.snapshot()), vec!["e4", "e5", "e6"]);
    }

    #[test]
    fn ring_exact_capacity_boundary() {
        let mut s = RingSink::new(3);
        for i in 0..3 {
            s.record(ev(i));
        }
        assert_eq!(s.dropped(), 0);
        s.record(ev(3));
        assert_eq!(s.dropped(), 1);
        assert_eq!(names(&s.snapshot()), vec!["e1", "e2", "e3"]);
    }

    #[test]
    fn zero_capacity_ring_counts_drops() {
        let mut s = RingSink::new(0);
        s.record(ev(0));
        s.record(ev(1));
        assert!(s.is_empty());
        assert_eq!(s.dropped(), 2);
    }
}
