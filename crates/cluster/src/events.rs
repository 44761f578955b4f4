//! The cluster event loop's event queue: `std`'s [`BinaryHeap`] over
//! [`Event`]s, and the TTFT [`Deadlines`] that wait beside it.
//!
//! ## Ordering contract
//!
//! Events are totally ordered by `(t_s, source, id, gen)` with
//! `f64::total_cmp` on time. `source` is the fixed round-priority
//! enumeration — faults, step completions, retry releases, arrivals,
//! timeouts — and `id` is the event's natural index (replica for step
//! completions, request for retries and for the timeouts of a round).
//! Every field is part of the key, so two events with equal keys are the
//! same event, and any correct heap pops the same sequence: the pop
//! sequence is a pure function of the pushed set, no tie is ever left to
//! container internals. [`Event`]'s `Ord` is the reversed key, which
//! makes the max-heap a min-heap. `docs/SCALE.md` walks through why this
//! makes the heap-driven loop replay byte-identically.
//!
//! ## Staleness
//!
//! The heap is *lazy*: entries are never removed when they are
//! invalidated (a request finishes, a crash wipes an in-flight step).
//! Producers instead tag entries so consumers can recognize and skip
//! dead ones — step completions carry the replica's step generation,
//! retry entries are checked against the live-request table.
//! This keeps every mutation O(log n) with no indexed deletes.
//!
//! TTFT deadlines stay out of the heap: almost none fires, so as heap
//! entries they would mostly be dead weight on every pop. [`Deadlines`]
//! keeps them behind one [`Source::Timeout`] cursor instead.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Events closer than this collapse into one processing round.
pub(crate) const EPS: f64 = 1e-9;

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
    /// Timeout cursor: the first live TTFT deadline is due. The round
    /// then holds one event per due deadline, with the request as `id`.
    Timeout = 4,
    /// A provisioning replica finished warming up and goes live.
    Reconfig = 5,
    /// Control-plane tick: observe the cluster, apply controller actions.
    /// Last in the round so the controller sees fully settled state.
    Control = 6,
}

/// One scheduled event. `id` is the replica index for [`Source::StepEnd`]
/// and [`Source::Reconfig`], the request id for [`Source::Retry`] and for
/// a round's [`Source::Timeout`] firings, and 0 for the cursor sources
/// (at most one of each is ever pending in the heap). `gen` is the step
/// generation for staleness checks, 0 elsewhere.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub t_s: f64,
    pub source: Source,
    pub id: u64,
    pub gen: u64,
}

impl Event {
    /// A generation-0 event (every source but step ends).
    pub fn at(t_s: f64, source: Source, id: u64) -> Self {
        Self {
            t_s,
            source,
            id,
            gen: 0,
        }
    }

    /// The total ordering `(time, source, id, gen)` comparison.
    fn cmp_key(&self, other: &Event) -> Ordering {
        self.t_s
            .total_cmp(&other.t_s)
            .then_with(|| self.source.cmp(&other.source))
            .then_with(|| self.id.cmp(&other.id))
            .then_with(|| self.gen.cmp(&other.gen))
    }
}

/// `BinaryHeap` is a max-heap, so the order is the reversed key: the
/// heap's top is the earliest event.
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        other.cmp_key(self)
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Equal keys, so equal events: every field is part of the key.
impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_key(other).is_eq()
    }
}

impl Eq for Event {}

/// The TTFT deadlines `(deadline, request id)` in delivery order, hence
/// deadline order (arrival times never decrease), and the one
/// [`Source::Timeout`] cursor that sits in the heap at the first live
/// deadline. A cursor whose request left the system is stale; skipping
/// it re-arms it on the next live deadline, so the clock never stops at
/// a dead one. `live` answers whether a request is still in the system.
#[derive(Debug, Default)]
pub(crate) struct Deadlines {
    fifo: VecDeque<(f64, u64)>,
}

impl Deadlines {
    /// Queue request `id`'s deadline, putting the cursor on it if the
    /// queue was empty.
    pub fn push(&mut self, deadline: f64, id: u64, heap: &mut BinaryHeap<Event>) {
        debug_assert!(
            self.fifo.back().is_none_or(|&(t, _)| t <= deadline),
            "arrival source yielded a decreasing arrival time"
        );
        if self.fifo.is_empty() {
            heap.push(Event::at(deadline, Source::Timeout, 0));
        }
        self.fifo.push_back((deadline, id));
    }

    /// Is the cursor stale: has the front deadline's request left?
    pub fn cursor_stale(&self, live: impl Fn(u64) -> bool) -> bool {
        self.fifo.front().is_none_or(|&(_, id)| !live(id))
    }

    /// Drop the dead deadlines at the front of the queue and put the
    /// cursor on the first live one, if any is left.
    pub fn arm(&mut self, heap: &mut BinaryHeap<Event>, live: impl Fn(u64) -> bool) {
        while let Some(&(t_s, id)) = self.fifo.front() {
            if live(id) {
                heap.push(Event::at(t_s, Source::Timeout, 0));
                return;
            }
            self.fifo.pop_front();
        }
    }

    /// The cursor came due: move every deadline due at `now` whose
    /// request is still live into the round, then re-arm. The round's
    /// sort fires them in `(deadline, id)` order.
    pub fn take_due(
        &mut self,
        now: f64,
        heap: &mut BinaryHeap<Event>,
        live: impl Fn(u64) -> bool,
        round: &mut Vec<Event>,
    ) {
        while let Some(&(t_s, id)) = self.fifo.front() {
            if t_s > now + EPS {
                break;
            }
            self.fifo.pop_front();
            if live(id) {
                round.push(Event::at(t_s, Source::Timeout, id));
            }
        }
        self.arm(heap, live);
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
        Event::at(t_s, source, id)
    }

    #[test]
    fn pops_in_time_order() {
        let mut h = BinaryHeap::new();
        for (i, t) in [5.0, 1.0, 3.0, 2.0, 4.0].iter().enumerate() {
            h.push(ev(*t, Source::StepEnd, i as u64));
        }
        let times: Vec<f64> = std::iter::from_fn(|| h.pop()).map(|e| e.t_s).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(h.is_empty());
    }

    #[test]
    fn equal_times_break_by_source_then_id() {
        let mut h = BinaryHeap::new();
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
    fn std_heap_pops_in_full_sort_order() {
        // Seeded LCG so the pushes are reproducible without RNG deps.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let sources = [
            Source::Fault,
            Source::StepEnd,
            Source::Retry,
            Source::Arrival,
            Source::Timeout,
            Source::Reconfig,
            Source::Control,
        ];
        // Few distinct times, both zeros among them, so equal times
        // across sources and exact duplicates are common.
        let times = [-0.0, 0.0, 0.5, 0.5 + EPS, 1.0, 2.0];
        let mut h = BinaryHeap::new();
        let mut all = Vec::new();
        for _ in 0..2000 {
            let e = Event {
                t_s: times[next() as usize % times.len()],
                source: sources[next() as usize % sources.len()],
                id: next() % 8,
                gen: next() % 3,
            };
            let copies = if next() % 4 == 0 { 2 } else { 1 };
            for _ in 0..copies {
                h.push(e);
                all.push(e);
            }
        }
        all.sort_by(|a, b| a.cmp_key(b));
        let popped: Vec<Event> = std::iter::from_fn(|| h.pop()).collect();
        assert_eq!(popped.len(), all.len());
        for (a, b) in popped.iter().zip(&all) {
            assert!(a.cmp_key(b).is_eq(), "heap order diverged from sort");
            // `-0.0` pops before `0.0`: the key compares bits, not values.
            assert_eq!(a.t_s.to_bits(), b.t_s.to_bits());
        }
        assert!(all[0].t_s.is_sign_negative(), "-0.0 sorts first");
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
