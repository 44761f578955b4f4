//! The indexed binary event heap driving the cluster event loop.
//!
//! ## Ordering contract
//!
//! Events are totally ordered by `(t_s, source, id, gen)` with
//! `f64::total_cmp` on time. `source` is the fixed round-priority
//! enumeration — faults, step completions, retry releases, arrivals,
//! timeouts — and `id` is the event's natural index (replica for step
//! completions, request for retries/timeouts). Because the key is total
//! and every push is deterministic, the pop sequence is a pure function
//! of the pushed set: no tie is ever left to container iteration order.
//! `docs/SCALE.md` walks through why this makes the heap-driven loop
//! replay byte-identically.
//!
//! ## Staleness
//!
//! The heap is *lazy*: entries are never removed when they are
//! invalidated (a request times out, a crash wipes an in-flight step).
//! Producers instead tag entries so consumers can recognize and skip
//! dead ones — step completions carry the replica's step generation,
//! retry/timeout entries are checked against the live-request table.
//! This keeps every mutation O(log n) with no indexed deletes.

/// Event-source priority, the second component of the heap key. The
/// discriminant order *is* the processing order within a coalesced
/// round: faults first, then step completions, retry releases, arrivals
/// and finally TTFT timeouts (so a first token produced in the same
/// round beats its deadline, matching the pre-heap loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Source {
    /// Fault-plan cursor: apply every fault that is due.
    Fault = 0,
    /// A replica's in-flight step reached its completion time.
    StepEnd = 1,
    /// A backoff expired: the request re-enters the router queue.
    Retry = 2,
    /// Arrival cursor: deliver every request that is due.
    Arrival = 3,
    /// A request's TTFT deadline passed.
    Timeout = 4,
    /// A provisioning replica finished warming up and goes live.
    Reconfig = 5,
    /// Control-plane tick: observe the cluster, apply controller actions.
    /// Last in the round so the controller sees fully settled state.
    Control = 6,
}

/// One scheduled event. `id` is the replica index for [`Source::StepEnd`],
/// the request id for [`Source::Retry`]/[`Source::Timeout`], and 0 for
/// the two cursor sources (at most one of each is ever pending). `gen`
/// is the step generation for staleness checks, 0 elsewhere.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub t_s: f64,
    pub source: Source,
    pub id: u64,
    pub gen: u64,
}

impl Event {
    /// The total ordering `(time, source, id, gen)` comparison.
    fn cmp_key(&self, other: &Event) -> std::cmp::Ordering {
        self.t_s
            .total_cmp(&other.t_s)
            .then_with(|| self.source.cmp(&other.source))
            .then_with(|| self.id.cmp(&other.id))
            .then_with(|| self.gen.cmp(&other.gen))
    }
}

/// A from-scratch binary min-heap over [`Event`]s. `std`'s `BinaryHeap`
/// would need an `Ord` wrapper over the float key; writing the sift
/// loops directly keeps the ordering contract in one place and the
/// dependency surface at zero.
#[derive(Debug, Default)]
pub(crate) struct EventHeap {
    items: Vec<Event>,
}

impl EventHeap {
    pub fn new() -> Self {
        Self { items: Vec::new() }
    }

    /// Pending entry count, stale entries included (tests only).
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Schedule an event: O(log n).
    pub fn push(&mut self, ev: Event) {
        self.items.push(ev);
        self.sift_up(self.items.len() - 1);
    }

    /// Schedule a generation-0 event (every source but step ends).
    pub fn push_at(&mut self, t_s: f64, source: Source, id: u64) {
        self.push(Event {
            t_s,
            source,
            id,
            gen: 0,
        });
    }

    /// The earliest event without removing it.
    pub fn peek(&self) -> Option<&Event> {
        self.items.first()
    }

    /// Remove and return the earliest event: O(log n).
    pub fn pop(&mut self) -> Option<Event> {
        if self.items.is_empty() {
            return None;
        }
        let last = self.items.len() - 1;
        self.items.swap(0, last);
        let top = self.items.pop();
        if !self.items.is_empty() {
            self.sift_down(0);
        }
        top
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.items[i].cmp_key(&self.items[parent]).is_lt() {
                self.items.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.items.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < n && self.items[l].cmp_key(&self.items[smallest]).is_lt() {
                smallest = l;
            }
            if r < n && self.items[r].cmp_key(&self.items[smallest]).is_lt() {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.items.swap(i, smallest);
            i = smallest;
        }
    }
}

/// Sort a coalesced round's events into processing order:
/// `(source, t_s, id, gen)` — source priority first, then time and the
/// natural index. The comparator is total, so the order is unique.
pub(crate) fn sort_round(events: &mut [Event]) {
    events.sort_by(|a, b| {
        a.source
            .cmp(&b.source)
            .then_with(|| a.t_s.total_cmp(&b.t_s))
            .then_with(|| a.id.cmp(&b.id))
            .then_with(|| a.gen.cmp(&b.gen))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_s: f64, source: Source, id: u64) -> Event {
        Event {
            t_s,
            source,
            id,
            gen: 0,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut h = EventHeap::new();
        for (i, t) in [5.0, 1.0, 3.0, 2.0, 4.0].iter().enumerate() {
            h.push(ev(*t, Source::StepEnd, i as u64));
        }
        let times: Vec<f64> = std::iter::from_fn(|| h.pop()).map(|e| e.t_s).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(h.is_empty());
    }

    #[test]
    fn equal_times_break_by_source_then_id() {
        let mut h = EventHeap::new();
        h.push(ev(1.0, Source::Timeout, 0));
        h.push(ev(1.0, Source::Fault, 9));
        h.push(ev(1.0, Source::StepEnd, 4));
        h.push(ev(1.0, Source::StepEnd, 2));
        let order: Vec<(Source, u64)> = std::iter::from_fn(|| h.pop())
            .map(|e| (e.source, e.id))
            .collect();
        assert_eq!(
            order,
            vec![
                (Source::Fault, 9),
                (Source::StepEnd, 2),
                (Source::StepEnd, 4),
                (Source::Timeout, 0),
            ]
        );
    }

    #[test]
    fn heap_order_matches_a_full_sort_on_random_pushes() {
        // Seeded LCG so the shuffle is reproducible without RNG deps.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let mut h = EventHeap::new();
        let mut all = Vec::new();
        for _ in 0..500 {
            let t = (next() % 1000) as f64 * 0.01;
            let src = match next() % 5 {
                0 => Source::Fault,
                1 => Source::StepEnd,
                2 => Source::Retry,
                3 => Source::Arrival,
                _ => Source::Timeout,
            };
            let e = Event {
                t_s: t,
                source: src,
                id: next() % 64,
                gen: next() % 4,
            };
            h.push(e);
            all.push(e);
        }
        all.sort_by(|a, b| a.cmp_key(b));
        let popped: Vec<Event> = std::iter::from_fn(|| h.pop()).collect();
        assert_eq!(popped.len(), all.len());
        for (a, b) in popped.iter().zip(&all) {
            assert!(a.cmp_key(b).is_eq(), "heap order diverged from sort");
        }
    }

    #[test]
    fn round_sort_puts_source_priority_first() {
        let mut round = vec![
            ev(1.0000000002, Source::Fault, 0),
            ev(1.0, Source::Timeout, 3),
            ev(1.0000000001, Source::StepEnd, 1),
            ev(1.0, Source::StepEnd, 7),
        ];
        sort_round(&mut round);
        let order: Vec<Source> = round.iter().map(|e| e.source).collect();
        assert_eq!(
            order,
            vec![
                Source::Fault,
                Source::StepEnd,
                Source::StepEnd,
                Source::Timeout
            ]
        );
        // Within a source, earlier time first even when ids disagree.
        assert_eq!(round[1].id, 7);
        assert_eq!(round[2].id, 1);
    }
}
