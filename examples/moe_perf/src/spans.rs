//! Host-time spans recorded from outside the layers.
//!
//! Every span wraps one call the benchmark makes into a layer's public
//! function: `MoeTransformer::forward`, `LiveServer::step`,
//! `ClusterSim::run`, `moe_plan::plan`, and — through [`TimedSource`] and
//! [`TimedHook`] — the arrival pulls and controller ticks the cluster
//! simulator makes into code the benchmark hands it. Spans land in a
//! `moe_trace::Tracer` over a `MemorySink`, one named track per layer,
//! timestamped in host seconds since the recorder was built. Each span's
//! args carry its own id, the id of the span that was open when it began
//! (0 at top level), and an op index (chunk, step, plan or tick number),
//! so self time can be recovered from the trace alone.
//!
//! A disabled recorder reads no clock and records nothing; the wrappers
//! then read the clock once per [`ARRIVAL_BLOCK`] arrivals and never per
//! tick.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use moe_cluster::workload::ClusterRequest;
use moe_cluster::{ArrivalSource, ControlAction, ControlHook, ControlObs};
use moe_trace::{ArgValue, Category, Histogram, MemorySink, TraceEvent, Tracer, TrackId};

use crate::clock::cpu_now;

/// The benchmark's own code between layer calls.
pub const BENCH: TrackId = 0;
/// `moe-engine` (and the `moe-tensor` kernels beneath it).
pub const ENGINE: TrackId = 1;
/// `moe-runtime`: the live server, scheduler and prefix cache.
pub const RUNTIME: TrackId = 2;
/// `moe-cluster`: the event loop, router and replicas.
pub const CLUSTER: TrackId = 3;
/// Arrival pulls the cluster makes into the wrapped `TraceSource`.
pub const ARRIVALS: TrackId = 4;
/// `moe-ctrl`: controller ticks.
pub const CTRL: TrackId = 5;
/// `moe-plan`: planner calls.
pub const PLAN: TrackId = 6;

/// Track ids with their display names, in id order.
pub const TRACKS: [(TrackId, &str); 7] = [
    (BENCH, "bench"),
    (ENGINE, "engine"),
    (RUNTIME, "runtime"),
    (CLUSTER, "cluster"),
    (ARRIVALS, "arrivals"),
    (CTRL, "ctrl"),
    (PLAN, "plan"),
];

/// Records host-time spans into a `moe_trace::Tracer`.
#[derive(Debug)]
pub struct Recorder {
    tracer: Tracer,
    t0: Instant,
    /// Ids of the spans currently open, innermost last.
    open: Vec<i64>,
    next_id: i64,
}

/// The recorder shared between the workload bodies and the wrappers the
/// cluster simulator calls back into.
pub type Shared = Rc<RefCell<Recorder>>;

/// A span that has begun but not ended.
#[derive(Debug)]
struct Open {
    track: TrackId,
    name: &'static str,
    op: i64,
    id: i64,
    parent: i64,
    start_s: f64,
}

impl Recorder {
    /// A recorder; `enabled = false` records nothing and reads no clock.
    pub fn shared(enabled: bool) -> Shared {
        let mut tracer = if enabled {
            Tracer::new(Box::new(MemorySink::new()))
        } else {
            Tracer::disabled()
        };
        for (track, name) in TRACKS {
            tracer.name_track(track, name);
        }
        Rc::new(RefCell::new(Self {
            tracer,
            t0: Instant::now(),
            open: Vec::new(),
            next_id: 1,
        }))
    }

    fn begin(&mut self, track: TrackId, name: &'static str, op: i64) -> Option<Open> {
        if !self.tracer.is_enabled() {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied().unwrap_or(0);
        self.open.push(id);
        Some(Open {
            track,
            name,
            op,
            id,
            parent,
            start_s: self.t0.elapsed().as_secs_f64(),
        })
    }

    fn end(&mut self, open: Option<Open>) {
        let Some(o) = open else { return };
        let end_s = self.t0.elapsed().as_secs_f64();
        self.open.pop();
        let cat = if o.track == BENCH {
            Category::Bench
        } else {
            Category::Step
        };
        self.tracer.span_with(
            o.track,
            cat,
            o.name,
            o.start_s,
            end_s - o.start_s,
            vec![
                ("id", o.id.into()),
                ("parent", o.parent.into()),
                ("op", o.op.into()),
            ],
        );
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.tracer.snapshot()
    }

    /// Registered `(track, name)` pairs.
    pub fn tracks(&self) -> Vec<(TrackId, String)> {
        self.tracer.tracks().to_vec()
    }
}

/// Run `f` inside a span named `name` on `track`. The recorder is not
/// borrowed while `f` runs, so `f` may itself record spans.
pub fn span<R>(
    rec: &Shared,
    track: TrackId,
    name: &'static str,
    op: usize,
    f: impl FnOnce() -> R,
) -> R {
    let op = i64::try_from(op).unwrap_or(i64::MAX);
    let open = rec.borrow_mut().begin(track, name, op);
    let out = f();
    rec.borrow_mut().end(open);
    out
}

/// Simulated arrivals per timed block of [`TimedSource`].
pub const ARRIVAL_BLOCK: usize = 1000;

/// An [`ArrivalSource`] wrapper that records the on-CPU time the simulator
/// takes per [`ARRIVAL_BLOCK`] arrivals (pull to pull) and, when tracing,
/// a span around each pull of the inner source. Single gaps are mostly
/// back-to-back pulls a few hundred nanoseconds apart, too close to the
/// clock's own cost to time one by one.
#[derive(Debug)]
pub struct TimedSource<S> {
    inner: S,
    rec: Shared,
    block_start: Option<f64>,
    pulls: usize,
    blocks: Rc<RefCell<Vec<f64>>>,
}

impl<S: ArrivalSource> TimedSource<S> {
    /// Wrap `inner`; the on-CPU seconds of each complete block accumulate
    /// into `blocks`.
    pub fn new(inner: S, rec: Shared, blocks: Rc<RefCell<Vec<f64>>>) -> Self {
        Self {
            inner,
            rec,
            block_start: None,
            pulls: 0,
            blocks,
        }
    }
}

impl<S: ArrivalSource> ArrivalSource for TimedSource<S> {
    fn next_request(&mut self) -> Option<ClusterRequest> {
        if self.pulls.is_multiple_of(ARRIVAL_BLOCK) {
            let now = cpu_now();
            if let Some(start) = self.block_start {
                self.blocks.borrow_mut().push(now - start);
            }
            self.block_start = Some(now);
        }
        self.pulls += 1;
        let inner = &mut self.inner;
        span(
            &self.rec,
            ARRIVALS,
            "TraceSource::next_request",
            self.pulls,
            || inner.next_request(),
        )
    }
}

/// A [`ControlHook`] wrapper recording a span around each tick of the
/// inner controller.
#[derive(Debug)]
pub struct TimedHook<H> {
    inner: H,
    rec: Shared,
    ticks: usize,
}

impl<H: ControlHook> TimedHook<H> {
    /// Wrap `inner`.
    pub fn new(inner: H, rec: Shared) -> Self {
        Self {
            inner,
            rec,
            ticks: 0,
        }
    }
}

impl<H: ControlHook> ControlHook for TimedHook<H> {
    fn tick(&mut self, obs: &ControlObs) -> Vec<ControlAction> {
        self.ticks += 1;
        let inner = &mut self.inner;
        span(&self.rec, CTRL, "Controller::tick", self.ticks, || {
            inner.tick(obs)
        })
    }
}

/// Host time of every span sharing one `(track, name)`.
#[derive(Debug, Clone)]
pub struct SpanStat {
    /// Calls recorded.
    pub calls: u64,
    /// Summed span durations (s).
    pub total_s: f64,
    /// Summed self time: duration minus the time of child spans (s).
    pub self_s: f64,
    /// Distribution of span durations (s).
    pub durations: Histogram,
}

fn int_arg(args: &[(&'static str, ArgValue)], key: &str) -> i64 {
    args.iter()
        .find_map(|(k, v)| match v {
            ArgValue::Int(i) if *k == key => Some(*i),
            _ => None,
        })
        .unwrap_or(0)
}

/// Per-`(track, name)` span statistics, with self time recovered from
/// the parent ids in the span args.
pub fn span_stats(events: &[TraceEvent]) -> BTreeMap<(TrackId, String), SpanStat> {
    let spans: Vec<(TrackId, &str, f64, i64, i64)> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Span {
                name,
                track,
                dur_s,
                args,
                ..
            } => Some((
                *track,
                name.as_str(),
                *dur_s,
                int_arg(args, "id"),
                int_arg(args, "parent"),
            )),
            _ => None,
        })
        .collect();
    let mut child_s: BTreeMap<i64, f64> = BTreeMap::new();
    for &(_, _, dur, _, parent) in &spans {
        if parent != 0 {
            *child_s.entry(parent).or_insert(0.0) += dur;
        }
    }
    let mut out: BTreeMap<(TrackId, String), SpanStat> = BTreeMap::new();
    for &(track, name, dur, id, _) in &spans {
        let stat = out
            .entry((track, name.to_string()))
            .or_insert_with(|| SpanStat {
                calls: 0,
                total_s: 0.0,
                self_s: 0.0,
                durations: Histogram::new(),
            });
        stat.calls += 1;
        stat.total_s += dur;
        stat.self_s += dur - child_s.get(&id).copied().unwrap_or(0.0);
        stat.durations.record(dur);
    }
    out
}
