//! The cluster event loop's event queue: [`EventHeap`], a binary heap of
//! [`Event`]s packed into integer keys, and the TTFT [`Deadlines`] that
//! wait beside it.
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
//! container internals. `docs/SCALE.md` walks through why this makes the
//! heap-driven loop replay byte-identically.
//!
//! ## The packed key
//!
//! [`EventHeap`] stores each event as one `u128` whose unsigned order is
//! that total order, so a sift step is one integer compare and a 16-byte
//! move:
//!
//! | bits | field | budget |
//! |------|-------|--------|
//! | 127..64 | `t_s`, its bits mapped to `f64::total_cmp` order | every `f64` |
//! | 63..61 | `source` | 3 bits (7 sources) |
//! | 60..32 | `id` | 29 bits: dense trace indices or replica slots |
//! | 31..0 | `gen` | 32 bits: a replica's step counter |
//!
//! The time mapping flips every bit of a negative time and only the sign
//! bit of a positive one, which is `f64::total_cmp`'s order read as an
//! unsigned integer: `-0.0` sorts before `0.0`, and unpacking restores
//! the exact bits. A field over its budget would alias another event's
//! key, so [`EventHeap::push`] asserts the budgets instead of truncating.
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

use std::cmp::Reverse;
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

impl Source {
    /// Every source, indexed by its discriminant.
    const ALL: [Source; 7] = [
        Source::Fault,
        Source::StepEnd,
        Source::Retry,
        Source::Arrival,
        Source::Timeout,
        Source::Reconfig,
        Source::Control,
    ];
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

/// Bits of [`Event::id`] and [`Event::gen`] in a packed key.
const ID_BITS: u32 = 29;
const GEN_BITS: u32 = 32;
/// The sign bit of an `f64`, and of the packed time word.
const SIGN: u64 = 1 << 63;

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

    /// The total ordering `(time, source, id, gen)` comparison that the
    /// packed key encodes; the tests' reference.
    #[cfg(test)]
    fn cmp_key(&self, other: &Event) -> std::cmp::Ordering {
        self.t_s
            .total_cmp(&other.t_s)
            .then_with(|| self.source.cmp(&other.source))
            .then_with(|| self.id.cmp(&other.id))
            .then_with(|| self.gen.cmp(&other.gen))
    }

    /// The packed key (see the module docs). Panics if `id` or `gen`
    /// exceeds its budget.
    fn pack(&self) -> u128 {
        // Ids are dense trace indices or replica slots and generations
        // per-replica step counters, so no real run nears either budget;
        // one that did must stop rather than alias another event's key.
        assert!(
            self.id < 1 << ID_BITS,
            "event id {} exceeds the {ID_BITS}-bit key budget",
            self.id
        );
        assert!(
            self.gen < 1 << GEN_BITS,
            "step generation {} exceeds the {GEN_BITS}-bit key budget",
            self.gen
        );
        let bits = self.t_s.to_bits();
        let time = if bits & SIGN != 0 { !bits } else { bits | SIGN };
        (u128::from(time) << 64)
            | (u128::from(self.source as u8) << (ID_BITS + GEN_BITS))
            | (u128::from(self.id) << GEN_BITS)
            | u128::from(self.gen)
    }

    /// The event a [`Self::pack`]ed key holds, time bits included.
    fn unpack(key: u128) -> Self {
        let time = (key >> 64) as u64;
        let bits = if time & SIGN != 0 {
            time & !SIGN
        } else {
            !time
        };
        let low = key as u64;
        Self {
            t_s: f64::from_bits(bits),
            source: Source::ALL[(low >> (ID_BITS + GEN_BITS)) as usize],
            id: (low >> GEN_BITS) & ((1 << ID_BITS) - 1),
            gen: low & ((1 << GEN_BITS) - 1),
        }
    }
}

/// The event queue: a min-heap of packed keys (`std`'s max-heap over
/// [`Reverse`]), popping events in the contract's total order.
#[derive(Debug, Default)]
pub(crate) struct EventHeap {
    keys: BinaryHeap<Reverse<u128>>,
}

impl EventHeap {
    /// Schedule `ev`. Panics if its `id` or `gen` exceeds the key's
    /// budget (see the module docs).
    pub fn push(&mut self, ev: Event) {
        self.keys.push(Reverse(ev.pack()));
    }

    /// The earliest event, if any.
    pub fn peek(&self) -> Option<Event> {
        self.keys.peek().map(|k| Event::unpack(k.0))
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.keys.pop().map(|k| Event::unpack(k.0))
    }
}

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
    pub fn push(&mut self, deadline: f64, id: u64, heap: &mut EventHeap) {
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
    pub fn arm(&mut self, heap: &mut EventHeap, live: impl Fn(u64) -> bool) {
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
        heap: &mut EventHeap,
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

    fn drain(h: &mut EventHeap) -> Vec<Event> {
        std::iter::from_fn(|| h.pop()).collect()
    }

    #[test]
    fn pack_round_trips_every_field_bit_for_bit() {
        let times = [
            -0.0,
            0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            -f64::MIN_POSITIVE / 2.0,
            1e300,
            -1e300,
            1.5,
            f64::INFINITY,
        ];
        for &t_s in &times {
            for source in Source::ALL {
                for (id, gen) in [(0, 0), ((1 << 29) - 1, 0), (0, (1 << 32) - 1)] {
                    let e = Event {
                        t_s,
                        source,
                        id,
                        gen,
                    };
                    let back = Event::unpack(e.pack());
                    assert_eq!(back.t_s.to_bits(), t_s.to_bits());
                    assert_eq!((back.source, back.id, back.gen), (source, id, gen));
                }
            }
        }
        // The key's unsigned order is the total order, across signs too.
        let mut sorted = times;
        sorted.sort_by(f64::total_cmp);
        for w in sorted.windows(2) {
            let key = |t_s| ev(t_s, Source::Fault, 0).pack();
            assert!(key(w[0]) < key(w[1]), "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    #[should_panic(expected = "29-bit key budget")]
    fn an_id_over_budget_fails_loudly() {
        EventHeap::default().push(ev(1.0, Source::Retry, 1 << 29));
    }

    #[test]
    #[should_panic(expected = "32-bit key budget")]
    fn a_generation_over_budget_fails_loudly() {
        EventHeap::default().push(Event {
            gen: 1 << 32,
            ..ev(1.0, Source::StepEnd, 3)
        });
    }

    #[test]
    fn pops_in_time_order() {
        let mut h = EventHeap::default();
        for (i, t) in [5.0, 1.0, 3.0, 2.0, 4.0].iter().enumerate() {
            h.push(ev(*t, Source::StepEnd, i as u64));
        }
        let times: Vec<f64> = drain(&mut h).iter().map(|e| e.t_s).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(h.peek().is_none());
    }

    #[test]
    fn equal_times_break_by_source_then_id() {
        let mut h = EventHeap::default();
        h.push(ev(1.0, Source::Timeout, 0));
        h.push(ev(1.0, Source::Fault, 9));
        h.push(ev(1.0, Source::StepEnd, 4));
        h.push(ev(1.0, Source::StepEnd, 2));
        let order: Vec<(Source, u64)> = drain(&mut h).iter().map(|e| (e.source, e.id)).collect();
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

    /// Seeded pushes with ties in every field (few distinct times, both
    /// zeros among them, ids and generations at their budget edges, and
    /// exact duplicates) pop in exactly the `cmp_key` sort order.
    #[test]
    fn event_heap_pops_in_full_sort_order() {
        // Seeded LCG so the pushes are reproducible without RNG deps.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let times = [-0.0, 0.0, 0.5, 0.5 + EPS, 1.0, 2.0];
        let ids = [0, 1, 2, 7, (1 << 29) - 2, (1 << 29) - 1];
        let gens = [0, 1, u64::from(u32::MAX)];
        for seed_round in 0..4 {
            let mut h = EventHeap::default();
            let mut all = Vec::new();
            let pushes = 500 * (seed_round + 1);
            for i in 0..pushes {
                let e = Event {
                    t_s: times[next() as usize % times.len()],
                    source: Source::ALL[next() as usize % Source::ALL.len()],
                    id: ids[next() as usize % ids.len()],
                    gen: gens[next() as usize % gens.len()],
                };
                let copies = if next() % 4 == 0 { 2 } else { 1 };
                for _ in 0..copies {
                    h.push(e);
                    all.push(e);
                }
                // Interleave pops over the first half so the heap's
                // internal layout varies; the second half refills the
                // zeros they drained first.
                if i < pushes / 2 && next() % 5 == 0 {
                    let top = h.pop().expect("just pushed");
                    let pos = all
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.cmp_key(b.1))
                        .map(|(i, _)| i)
                        .expect("non-empty");
                    let want = all.swap_remove(pos);
                    assert!(top.cmp_key(&want).is_eq(), "interleaved pop diverged");
                }
            }
            all.sort_by(Event::cmp_key);
            let popped = drain(&mut h);
            assert_eq!(popped.len(), all.len());
            for (a, b) in popped.iter().zip(&all) {
                assert!(a.cmp_key(b).is_eq(), "heap order diverged from sort");
                assert_eq!((a.source, a.id, a.gen), (b.source, b.id, b.gen));
                // `-0.0` pops before `0.0`: the key compares bits, not values.
                assert_eq!(a.t_s.to_bits(), b.t_s.to_bits());
            }
            assert!(all[0].t_s.is_sign_negative(), "-0.0 sorts first");
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
