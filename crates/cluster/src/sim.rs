//! The cluster event loop: N replicas, one router, a fault schedule and
//! an arrival source, advanced on a single simulated clock.
//!
//! ## The heap-driven loop
//!
//! Every event source feeds one `std` binary heap of `events::Event`s
//! keyed `(time, source, id, gen)`. Events that coincide (within `EPS`)
//! form one round, processed in **fixed priority order** — faults, step
//! completions, retry releases, arrivals, then timeouts — after which
//! the router dispatches and idle replicas restart. Invalidated entries
//! are skipped lazily via generation/liveness checks rather than
//! removed. `docs/SCALE.md` documents the full ordering contract.
//!
//! This file keeps the loop itself, dispatch and step starts. The rest
//! of the state has one owner per decision: `events::Deadlines` (the
//! TTFT deadline FIFO and its heap cursor), `fleet::Fleet` (replica
//! lifecycle, canary routing, device-seconds) and `tally::Tally` (the
//! histograms and counters that stream into the [`ClusterReport`];
//! per-request state follows concurrency, not trace length).
//!
//! ## Determinism
//!
//! The heap key is total (`f64::total_cmp`, then source, id,
//! generation), every queue is FIFO, the router breaks ties by replica
//! index, and all randomness was already materialized into the arrival
//! source. The same `(source, config, fault plan)` therefore replays
//! byte-identically — `tests/determinism.rs` pins this end to end
//! through the report *and* trace JSON.

use std::collections::{BinaryHeap, HashMap, VecDeque};

use moe_gpusim::perfmodel::PerfModel;
use moe_json::{FromJson, ToJson};
use moe_runtime::inthash::IntHash;
use moe_runtime::metrics::LatencySummary;
use moe_runtime::request::RequestId;
use moe_runtime::scheduler::SchedulerConfig;
use moe_runtime::simserver::scheduler_config_for;
use moe_runtime::step::PriceCache;
use moe_trace::{ArgValue, Category, Histogram, Tracer};

use crate::ctrl::{ControlAction, ControlHook, ControlObs};
use crate::events::{sort_round, Deadlines, Event, Source, EPS};
use crate::fault::{FaultEvent, FaultPlan};
use crate::fleet::Fleet;
use crate::router::{RoutePolicy, Router, RouterConfig};
use crate::tally::Tally;
use crate::workload::{ArrivalSource, RequestTrace, TraceSource};
use crate::{CONTROL_TRACK, REPLICA_TRACK_BASE, ROUTER_TRACK};

/// Cluster-level knobs.
#[derive(Debug, Clone, Copy, PartialEq, ToJson, FromJson)]
pub struct ClusterConfig {
    /// Number of serving replicas.
    pub replicas: usize,
    /// Routing policy.
    pub policy: RoutePolicy,
    /// Router limits (timeout / retry / admission queue).
    pub router: RouterConfig,
    /// Per-replica prefix-LRU capacity in groups (0 disables the cache).
    pub prefix_capacity: usize,
    /// Seed perturbing the router's affinity hashes.
    pub seed: u64,
    /// Collect a per-request [`ClusterOutput`] row for every completion.
    /// Off by default: the streaming histograms carry every reported
    /// metric, and retaining rows makes memory grow with trace length.
    pub retain_outputs: bool,
    /// Constant added to every recorded TTFT/E2E sample (not ITL — a
    /// constant shift cancels in inter-token gaps). The sharded runner
    /// uses this to price multi-region network round trips into
    /// user-perceived latency without perturbing cluster-side times.
    pub latency_offset_s: f64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            replicas: 4,
            policy: RoutePolicy::LeastOutstanding,
            router: RouterConfig::default(),
            prefix_capacity: 0,
            seed: 0,
            retain_outputs: false,
            latency_offset_s: 0.0,
        }
    }
}

/// Where a live request currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqState {
    /// Parked at the router (initial, and between retries).
    AtRouter,
    /// Waiting out a retry backoff.
    Backoff,
    /// Resident on a replica.
    Dispatched,
}

/// Bookkeeping for one request currently in the system. Entries are
/// created at arrival delivery and removed at any terminal state, so
/// the table size tracks concurrency, not trace length.
#[derive(Debug, Clone)]
struct LiveReq {
    req: crate::workload::ClusterRequest,
    state: ReqState,
    replica: usize,
    sched_id: RequestId,
    attempts: u32,
}

/// One completed request, cluster view. Only collected when
/// [`ClusterConfig::retain_outputs`] is set; times are cluster-side
/// (no [`ClusterConfig::latency_offset_s`] applied).
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct ClusterOutput {
    /// Trace id.
    pub id: u64,
    /// Replica that completed it.
    pub replica: usize,
    /// Dispatch attempts (1 = no retries).
    pub attempts: u32,
    /// Full prompt length (tokens), undiscounted by prefix caching.
    pub prompt_len: usize,
    /// Tokens generated.
    pub generated: usize,
    /// Original arrival (s).
    pub arrival_s: f64,
    /// First-token time (s).
    pub first_token_s: f64,
    /// Completion time (s).
    pub finish_s: f64,
}

impl ClusterOutput {
    /// Time to first token from the original arrival.
    pub fn ttft_s(&self) -> f64 {
        self.first_token_s - self.arrival_s
    }

    /// End-to-end latency from the original arrival.
    pub fn e2e_s(&self) -> f64 {
        self.finish_s - self.arrival_s
    }
}

/// Aggregate results of one cluster run.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct ClusterReport {
    /// Routing policy label.
    pub policy: String,
    /// Per-request completions, sorted by trace id. **Empty unless**
    /// [`ClusterConfig::retain_outputs`] was set — every aggregate below
    /// streams through histograms and does not need the rows.
    pub outputs: Vec<ClusterOutput>,
    /// Clock when the last event settled (s).
    pub makespan_s: f64,
    /// Requests delivered by the arrival source.
    pub submitted: usize,
    /// Requests that completed.
    pub completed: usize,
    /// Requests canceled at their TTFT deadline.
    pub timed_out: usize,
    /// Crash losses past the retry budget plus unservable leftovers.
    pub dropped: usize,
    /// Requests bounced by the admission queue.
    pub rejected: usize,
    /// Total redispatch attempts performed.
    pub retries: usize,
    /// Crash faults applied.
    pub crashes: usize,
    /// Simulation events processed: faults applied, step completions,
    /// retry releases, arrivals delivered and timeout firings.
    pub events: u64,
    /// High-water mark of requests simultaneously in the system — the
    /// simulator's memory footprint is proportional to this, not to
    /// `submitted` (streaming aggregation).
    pub peak_live: usize,
    /// Prefix-cache hits summed over replicas.
    pub prefix_hits: u64,
    /// Prefix-cache misses summed over replicas.
    pub prefix_misses: u64,
    /// TTFT distribution over completions (includes any configured
    /// latency offset).
    pub ttft: LatencySummary,
    /// End-to-end distribution over completions (includes any
    /// configured latency offset).
    pub e2e: LatencySummary,
    /// Inter-token latency distribution: `(finish - first_token) /
    /// (generated - 1)` over completions that generated ≥ 2 tokens.
    pub itl: LatencySummary,
    /// Completed (prompt + generated) tokens.
    pub completed_tokens: u64,
    /// Completed tokens over the makespan.
    pub throughput_tok_s: f64,
    /// Completions per replica (load-balance signal).
    pub per_replica_completed: Vec<usize>,
    /// Total devices held for the whole run: replicas x devices per
    /// replica (the engine's parallel degree).
    pub devices: usize,
    /// Cost per completed token in device-seconds — the MoE-CAP cost
    /// axis: `devices x makespan / completed tokens`. The deployment
    /// planner quotes exactly this metric when refining candidates.
    pub cost_per_token_device_s: f64,
    /// Device-seconds spent per completed request:
    /// `devices x makespan / completed`.
    pub device_s_per_request: f64,
    /// Device-seconds accrued over the run, price factors applied. For
    /// a static fleet this is exactly `devices x makespan`; under a
    /// controller (or spot preemption) it integrates each replica's
    /// provision→retire lifetime instead, and `devices` reports the
    /// peak concurrently-held device count.
    pub device_seconds: f64,
    /// Reconfiguration actions executed (replica adds + drain starts).
    pub reconfigs: usize,
    /// Spot-market preemptions applied.
    pub preemptions: usize,
    /// Full TTFT histogram over completions, the basis for
    /// [`ClusterReport::slo_attainment`] and for merging shard reports.
    pub ttft_hist: Histogram,
    /// Full end-to-end latency histogram over completions.
    pub e2e_hist: Histogram,
    /// Full inter-token latency histogram (see `itl`).
    pub itl_hist: Histogram,
}

impl ClusterReport {
    /// p99 TTFT (s) over completions.
    pub fn p99_ttft_s(&self) -> f64 {
        self.ttft.p99_s
    }

    /// Fraction of *submitted* requests that completed with
    /// TTFT ≤ `slo_s`. Timeouts, drops and rejections all count against
    /// attainment, so this is the serving-quality headline number.
    /// Answered from the TTFT histogram at bucket resolution (~2%).
    pub fn slo_attainment(&self, slo_s: f64) -> f64 {
        if self.submitted == 0 {
            return 1.0;
        }
        self.ttft_hist.count_le(slo_s) as f64 / self.submitted as f64
    }

    /// Prefix-cache hit rate over all lookups (0 when caching is off).
    pub fn prefix_hit_rate(&self) -> f64 {
        let total = self.prefix_hits + self.prefix_misses;
        if total == 0 {
            0.0
        } else {
            self.prefix_hits as f64 / total as f64
        }
    }
}

/// The multi-replica serving simulator.
#[derive(Debug)]
pub struct ClusterSim {
    cfg: ClusterConfig,
    fleet: Fleet,
    /// Online controller ticked every `ctrl_interval_s`, if configured.
    controller: Option<Box<dyn ControlHook>>,
    ctrl_interval_s: f64,
    router: Router,
    /// Lazy request source; only the next undelivered request is held.
    source: Box<dyn ArrivalSource>,
    pending_arrival: Option<crate::workload::ClusterRequest>,
    /// Requests currently in the system, by trace id. Never iterated.
    live: HashMap<u64, LiveReq, IntHash>,
    faults: FaultPlan,
    fault_idx: usize,
    /// The event heap: step ends, retry releases, reconfigs and the
    /// fault, arrival, timeout and control cursors.
    heap: BinaryHeap<Event>,
    deadlines: Deadlines,
    /// Reusable buffer of one coalesced round's events.
    round: Vec<Event>,
    /// Router admission queue: trace ids, FIFO. May contain entries for
    /// requests that left the system (lazy deletion); `queue_dead`
    /// counts them so admission control sees the live length.
    queue: VecDeque<u64>,
    queue_dead: usize,
    /// Replicas touched this round (deduplicated before step starts).
    dirty: Vec<usize>,
    clock_s: f64,
    tally: Tally,
    prices: PriceCache,
    tracer: Tracer,
}

impl ClusterSim {
    /// Build a cluster of identical replicas from an explicit scheduler
    /// config and a materialized trace.
    pub fn new(
        model: &PerfModel,
        sched: SchedulerConfig,
        cfg: ClusterConfig,
        faults: FaultPlan,
        trace: RequestTrace,
    ) -> Self {
        Self::with_source(model, sched, cfg, faults, Box::new(TraceSource::new(trace)))
    }

    /// Build a cluster fed by any [`ArrivalSource`] — a materialized
    /// trace or a lazy [`crate::workload::WorkloadStream`]. With a
    /// streaming source the simulator's memory stays bounded by peak
    /// concurrency regardless of how many requests the source yields.
    pub fn with_source(
        model: &PerfModel,
        sched: SchedulerConfig,
        cfg: ClusterConfig,
        faults: FaultPlan,
        source: Box<dyn ArrivalSource>,
    ) -> Self {
        assert!(cfg.replicas > 0, "cluster needs at least one replica");
        Self {
            fleet: Fleet::new(model, sched, &cfg),
            router: Router::new(cfg.policy, cfg.seed),
            controller: None,
            ctrl_interval_s: 0.0,
            cfg,
            source,
            pending_arrival: None,
            live: HashMap::default(),
            faults,
            fault_idx: 0,
            heap: BinaryHeap::new(),
            deadlines: Deadlines::default(),
            round: Vec::new(),
            queue: VecDeque::new(),
            queue_dead: 0,
            dirty: Vec::new(),
            clock_s: 0.0,
            tally: Tally::default(),
            prices: PriceCache::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attach an online controller, ticked every `interval_s` of
    /// simulated time (first tick at `interval_s`). The tick is an
    /// ordinary heap event processed *last* in its round, so the
    /// controller observes fully settled state; its actions execute
    /// immediately and deterministically. A controlled run switches the
    /// cost accounting to per-replica lifetime integration (see
    /// [`ClusterReport::device_seconds`]).
    pub fn with_controller(mut self, hook: Box<dyn ControlHook>, interval_s: f64) -> Self {
        assert!(interval_s > 0.0, "control interval must be positive");
        self.controller = Some(hook);
        self.ctrl_interval_s = interval_s;
        self.fleet.dynamic = true;
        self
    }

    /// Build a cluster whose replica KV pools are derived from device
    /// memory through `moe_runtime::simserver::scheduler_config_for`.
    pub fn sized_for(
        model: &PerfModel,
        max_seq: usize,
        cfg: ClusterConfig,
        faults: FaultPlan,
        trace: RequestTrace,
    ) -> Self {
        let sched = scheduler_config_for(model, max_seq);
        Self::new(model, sched, cfg, faults, trace)
    }

    /// Is a heap entry invalidated? The fault, arrival and control
    /// cursors never are; step completions are stale when the replica's
    /// in-flight generation moved on (crash, or the step already
    /// committed); retry releases are stale unless the request still
    /// waits in backoff; the timeout cursor is stale once the request of
    /// the front deadline left the system.
    fn is_stale(&self, ev: &Event) -> bool {
        match ev.source {
            Source::Fault | Source::Arrival | Source::Reconfig | Source::Control => false,
            Source::StepEnd => {
                self.fleet
                    .replicas
                    .get(ev.id as usize)
                    .and_then(|r| r.current_gen())
                    != Some(ev.gen)
            }
            Source::Retry => !self
                .live
                .get(&ev.id)
                .is_some_and(|l| l.state == ReqState::Backoff),
            Source::Timeout => self
                .deadlines
                .cursor_stale(|id| self.live.contains_key(&id)),
        }
    }

    /// Next pending event time; `None` when drained. Pops stale entries
    /// off the top, re-arming a stale timeout cursor past the dead
    /// deadlines, so the clock never jumps to a dead deadline.
    fn next_event_s(&mut self) -> Option<f64> {
        loop {
            let ev = *self.heap.peek()?;
            if !self.is_stale(&ev) {
                return Some(ev.t_s);
            }
            self.heap.pop();
            if ev.source == Source::Timeout {
                self.deadlines
                    .arm(&mut self.heap, |id| self.live.contains_key(&id));
            }
        }
    }

    /// Run to completion and build the report, recording router
    /// decisions, per-replica step spans with their cost-model children
    /// and scheduler decisions, and queue counters into `tracer` (see
    /// `docs/CLUSTER.md`). Callers wanting no tracing pass
    /// [`Tracer::disabled`] — the event sequence and report are
    /// identical, with no recording overhead.
    pub fn run(mut self, tracer: &mut Tracer) -> ClusterReport {
        std::mem::swap(&mut self.tracer, tracer);
        if self.tracer.is_enabled() {
            self.tracer.name_track(ROUTER_TRACK, "router");
            if self.controller.is_some() {
                self.tracer.name_track(CONTROL_TRACK, "control");
            }
            for idx in 0..self.fleet.replicas.len() {
                self.fleet.trace_replica(idx, &mut self.tracer);
            }
        }
        self.schedule_initial();
        let mut guard = 0u64;
        while let Some(next) = self.next_event_s() {
            guard += 1;
            assert!(guard < 10_000_000_000, "cluster simulation livelock");
            self.clock_s = self.clock_s.max(next);
            self.process_round();
        }
        self.drain_unservable();
        std::mem::swap(&mut self.tracer, tracer);
        let policy = self.cfg.policy.label().to_string();
        let fleet = self.fleet.totals(self.clock_s);
        self.tally.into_report(policy, self.clock_s, fleet)
    }

    /// Seed the heap: the fault cursor and the first arrival. Exactly
    /// one cursor event per source is ever pending; processing it
    /// drains everything due and reschedules the cursor.
    fn schedule_initial(&mut self) {
        if let Some(ev) = self.faults.events.get(self.fault_idx) {
            self.heap.push(Event::at(ev.t_s(), Source::Fault, 0));
        }
        self.pending_arrival = self.source.next_request();
        if let Some(req) = &self.pending_arrival {
            self.heap.push(Event::at(req.arrival_s, Source::Arrival, 0));
        }
        if self.controller.is_some() {
            self.heap
                .push(Event::at(self.ctrl_interval_s, Source::Control, 0));
        }
    }

    /// Drain every event due at the current clock into the round
    /// buffer, sort it into source-priority order, process it, then
    /// dispatch and restart replicas.
    fn process_round(&mut self) {
        let now = self.clock_s;
        let mut round = std::mem::take(&mut self.round);
        while let Some(&ev) = self.heap.peek().filter(|ev| ev.t_s <= now + EPS) {
            self.heap.pop();
            if ev.source == Source::Timeout {
                let live = &self.live;
                self.deadlines.take_due(
                    now,
                    &mut self.heap,
                    |id| live.contains_key(&id),
                    &mut round,
                );
            } else if !self.is_stale(&ev) {
                round.push(ev);
            }
        }
        sort_round(&mut round);
        for ev in round.drain(..) {
            match ev.source {
                Source::Fault => self.apply_faults(now),
                Source::StepEnd => self.complete_step_on(ev.id as usize, ev.gen, now),
                Source::Retry => self.release_retry(ev.id),
                Source::Arrival => self.deliver_arrivals(now),
                Source::Timeout => self.fire_timeout(ev.id, now),
                Source::Reconfig => self.activate_replica(ev.id as usize, now),
                Source::Control => self.control_tick(now),
            }
        }
        self.round = round;
        self.dispatch(now);
        self.start_steps(now);
        self.sample_counters(now);
    }

    fn apply_faults(&mut self, now: f64) {
        while let Some(ev) = self.faults.events.get(self.fault_idx) {
            if ev.t_s() > now + EPS {
                break;
            }
            let ev = ev.clone();
            self.fault_idx += 1;
            let idx = ev.replica();
            if idx >= self.fleet.replicas.len() || self.fleet.is_retired(idx) {
                continue; // retired slots are beyond fault reach
            }
            self.tally.events += 1;
            let replica = &mut self.fleet.replicas[idx];
            let mut failed = Vec::new();
            let (name, arg) = match ev {
                FaultEvent::Crash { .. } => {
                    if !replica.alive {
                        continue;
                    }
                    self.tally.crashes += 1;
                    failed = replica.crash();
                    ("crash", Some(("lost", failed.len().into())))
                }
                FaultEvent::Recover { .. } => {
                    replica.recover();
                    ("recover", None)
                }
                FaultEvent::SlowdownStart { factor, .. } => {
                    replica.slowdown = factor.max(1.0);
                    ("slowdown", Some(("factor", factor.into())))
                }
                FaultEvent::SlowdownEnd { .. } => {
                    replica.slowdown = 1.0;
                    ("full-speed", None)
                }
                FaultEvent::Preempt { .. } => {
                    // Spot reclaim: requests fail back to the router, and
                    // the slot stops accruing device-seconds for good.
                    failed = self.fleet.reclaim(idx, now);
                    ("preempt", Some(("lost", failed.len().into())))
                }
            };
            self.fleet.refresh_load(idx);
            let track = REPLICA_TRACK_BASE.saturating_add(idx as u32);
            self.trace_instant(track, name, now, || arg.into_iter().collect());
            for id in failed {
                self.requeue_after_crash(id, now);
            }
        }
        // Reschedule the cursor for the next pending fault.
        if let Some(ev) = self.faults.events.get(self.fault_idx) {
            self.heap.push(Event::at(ev.t_s(), Source::Fault, 0));
        }
    }

    /// A crash loss either re-queues with backoff or drops.
    fn requeue_after_crash(&mut self, cluster_id: u64, now: f64) {
        let Some(lv) = self.live.get_mut(&cluster_id) else {
            return;
        };
        if lv.attempts > self.cfg.router.max_retries {
            self.live.remove(&cluster_id);
            self.tally.dropped += 1;
            self.trace_instant(ROUTER_TRACK, "drop", now, || {
                vec![("req", cluster_id.into())]
            });
            return;
        }
        // Exponential backoff keyed on the attempt that just failed.
        let exp = lv.attempts.saturating_sub(1).min(16);
        let ready = now + self.cfg.router.backoff_s * f64::from(1u32 << exp);
        lv.state = ReqState::Backoff;
        self.tally.retries += 1;
        self.heap.push(Event::at(ready, Source::Retry, cluster_id));
        self.trace_instant(ROUTER_TRACK, "retry", now, || {
            vec![("req", cluster_id.into()), ("ready", ready.into())]
        });
    }

    /// Commit a replica's in-flight step and stream its completions into
    /// the tally. `gen` guards against a crash earlier in this same round
    /// having wiped the step.
    fn complete_step_on(&mut self, idx: usize, gen: u64, now: f64) {
        let replica = &mut self.fleet.replicas[idx];
        if replica.current_gen() != Some(gen) {
            return;
        }
        self.tally.events += 1;
        for f in replica.complete_step(&mut self.tracer).unwrap_or_default() {
            // `f.id` is the cluster request id.
            if let Some(lv) = self.live.remove(&f.id) {
                let row = ClusterOutput {
                    id: f.id,
                    replica: idx,
                    attempts: lv.attempts,
                    prompt_len: lv.req.prompt_len,
                    generated: f.generated,
                    arrival_s: lv.req.arrival_s,
                    first_token_s: f.first_token_s,
                    finish_s: f.finish_s,
                };
                self.tally.finish(row, &self.cfg);
            }
        }
        self.fleet.refresh_load(idx);
        self.dirty.push(idx);
        self.maybe_retire(idx, now);
    }

    /// Retire replica `idx` if it is draining and holds no more work.
    fn maybe_retire(&mut self, idx: usize, now: f64) {
        if self.fleet.try_retire(idx, now) {
            self.trace_instant(CONTROL_TRACK, "retire", now, || {
                vec![("replica", idx.into())]
            });
        }
    }

    /// A backoff expired: the request re-enters the router queue.
    fn release_retry(&mut self, id: u64) {
        let Some(lv) = self.live.get_mut(&id) else {
            return;
        };
        if lv.state != ReqState::Backoff {
            return;
        }
        self.tally.events += 1;
        lv.state = ReqState::AtRouter;
        self.queue.push_back(id);
    }

    /// Deliver every due arrival, then reschedule the cursor.
    fn deliver_arrivals(&mut self, now: f64) {
        while let Some(req) = self.pending_arrival.take() {
            if req.arrival_s > now + EPS {
                self.pending_arrival = Some(req);
                break;
            }
            self.tally.events += 1;
            self.tally.submitted += 1;
            let id = req.id;
            if self.cfg.router.ttft_timeout_s > 0.0 {
                let deadline = req.arrival_s + self.cfg.router.ttft_timeout_s;
                self.deadlines.push(deadline, id, &mut self.heap);
            }
            self.queue.push_back(id);
            self.live.insert(
                id,
                LiveReq {
                    req,
                    state: ReqState::AtRouter,
                    replica: 0,
                    sched_id: 0,
                    attempts: 0,
                },
            );
            self.tally.peak_live = self.tally.peak_live.max(self.live.len());
            self.pending_arrival = self.source.next_request();
        }
        if let Some(req) = &self.pending_arrival {
            self.heap.push(Event::at(req.arrival_s, Source::Arrival, 0));
        }
    }

    /// A request's TTFT deadline passed: cancel it wherever it sits.
    /// Liveness was checked when the round was collected, but a step
    /// completion earlier in this same round may have finished it —
    /// re-check.
    fn fire_timeout(&mut self, id: u64, now: f64) {
        let Some(lv) = self.live.get(&id) else {
            return;
        };
        match lv.state {
            ReqState::Dispatched => {
                let (replica, sched_id) = (lv.replica, lv.sched_id);
                if !self.fleet.replicas[replica].cancel(sched_id) {
                    return; // finished in this very round
                }
                self.fleet.refresh_load(replica);
            }
            // The queue entry goes stale; dispatch skips it lazily.
            ReqState::AtRouter => self.queue_dead += 1,
            // The retry heap entry goes stale the same way.
            ReqState::Backoff => {}
        }
        self.live.remove(&id);
        self.tally.events += 1;
        self.tally.timed_out += 1;
        self.trace_instant(ROUTER_TRACK, "timeout", now, || vec![("req", id.into())]);
    }

    /// Requests waiting at the router, lazily deleted entries excluded.
    fn queue_depth(&self) -> usize {
        self.queue.len().saturating_sub(self.queue_dead)
    }

    /// Drain the router queue onto alive replicas, then enforce the
    /// admission bound (newest arrivals bounce first).
    fn dispatch(&mut self, now: f64) {
        while let Some(&id) = self.queue.front() {
            // One lookup per dispatch: `lv` borrows only `self.live`, so
            // the router and fleet stay reachable as disjoint fields.
            let Some(lv) = self
                .live
                .get_mut(&id)
                .filter(|l| l.state == ReqState::AtRouter)
            else {
                // Lazily deleted entry: timed out while queued, or no
                // longer waiting at the router.
                self.queue.pop_front();
                self.queue_dead = self.queue_dead.saturating_sub(1);
                continue;
            };
            let key = (lv.req.prefix_len > 0).then_some(lv.req.prefix_group);
            let Some(target) = self.fleet.route(&mut self.router, id, key) else {
                break; // nobody alive; leave the queue parked
            };
            self.queue.pop_front();
            let Some(sched_id) = self.fleet.replicas[target].enqueue(&lv.req) else {
                // Even an empty KV pool could not admit it, so it could
                // never run: drop it now rather than park it where only
                // the end of the run would drop it.
                self.live.remove(&id);
                self.tally.dropped += 1;
                self.trace_instant(ROUTER_TRACK, "drop", now, || vec![("req", id.into())]);
                continue;
            };
            lv.state = ReqState::Dispatched;
            lv.replica = target;
            lv.sched_id = sched_id;
            lv.attempts += 1;
            let attempts = lv.attempts;
            self.fleet.refresh_load(target);
            self.dirty.push(target);
            self.trace_instant(ROUTER_TRACK, "dispatch", now, || {
                vec![
                    ("req", id.into()),
                    ("replica", target.into()),
                    ("attempt", attempts.into()),
                ]
            });
        }
        // Admission control: bounce the newest arrivals over capacity.
        while self.queue_depth() > self.cfg.router.queue_capacity {
            let Some(id) = self.queue.pop_back() else {
                break;
            };
            if self
                .live
                .get(&id)
                .is_some_and(|l| l.state == ReqState::AtRouter)
            {
                self.live.remove(&id);
                self.tally.rejected += 1;
                self.trace_instant(ROUTER_TRACK, "reject", now, || vec![("req", id.into())]);
            } else {
                self.queue_dead = self.queue_dead.saturating_sub(1);
            }
        }
    }

    /// Start steps only on replicas whose state changed this round —
    /// a dispatch target, a step completion, or a recovery — instead of
    /// probing all of them.
    fn start_steps(&mut self, now: f64) {
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable();
        dirty.dedup();
        for idx in dirty.drain(..) {
            let started = self.fleet.replicas[idx].try_start_step(now, &mut self.prices);
            if let Some((end, gen)) = started {
                self.heap.push(Event {
                    t_s: end,
                    source: Source::StepEnd,
                    id: idx as u64,
                    gen,
                });
                self.fleet.refresh_load(idx);
            }
        }
        self.dirty = dirty;
    }

    /// A provisioning replica's ready delay elapsed: bring it online
    /// (unless a preemption already reclaimed the slot).
    fn activate_replica(&mut self, idx: usize, now: f64) {
        if !self.fleet.activate(idx) {
            return;
        }
        self.tally.events += 1;
        self.dirty.push(idx);
        self.trace_instant(CONTROL_TRACK, "ready", now, || {
            vec![("replica", idx.into())]
        });
    }

    /// Snapshot the cluster for the controller.
    fn build_obs(&self, now: f64) -> ControlObs {
        let t = &self.tally;
        ControlObs {
            now_s: now,
            submitted: t.submitted,
            completed: t.completed,
            timed_out: t.timed_out,
            dropped: t.dropped,
            rejected: t.rejected,
            queue_depth: self.queue_depth(),
            completed_tokens: t.tokens,
            device_seconds: self.fleet.accrued_device_s(now),
            ttft_hist: t.ttft_hist.clone(),
            itl_hist: t.itl_hist.clone(),
            canary: self.fleet.canary,
            replicas: self.fleet.obs(now),
        }
    }

    /// Run one control tick: observe, apply the hook's actions, and
    /// reschedule the next tick while there is still work in flight.
    fn control_tick(&mut self, now: f64) {
        let Some(mut hook) = self.controller.take() else {
            return;
        };
        self.tally.events += 1;
        let obs = self.build_obs(now);
        for action in hook.tick(&obs) {
            self.apply_action(action, now);
        }
        self.controller = Some(hook);
        if self.pending_arrival.is_some() || !self.live.is_empty() {
            self.heap
                .push(Event::at(now + self.ctrl_interval_s, Source::Control, 0));
        }
    }

    /// Execute one controller action at time `now`.
    fn apply_action(&mut self, action: ControlAction, now: f64) {
        match action {
            ControlAction::AddReplica(spec) => {
                let generation = spec.generation;
                let (idx, ready_s) = self.fleet.provision(*spec, now, &mut self.tracer);
                self.heap
                    .push(Event::at(ready_s, Source::Reconfig, idx as u64));
                self.trace_instant(CONTROL_TRACK, "provision", now, || {
                    vec![
                        ("replica", idx.into()),
                        ("generation", u64::from(generation).into()),
                    ]
                });
            }
            ControlAction::DrainReplica {
                replica,
                migration_s,
            } => {
                if !self.fleet.drain(replica, migration_s) {
                    return;
                }
                self.trace_instant(CONTROL_TRACK, "drain", now, || {
                    vec![("replica", replica.into())]
                });
                self.maybe_retire(replica, now);
            }
            ControlAction::SetCanary {
                generation,
                fraction,
            } => {
                self.fleet.canary = Some((generation, fraction.clamp(0.0, 1.0)));
                self.fleet.dynamic = true;
                self.trace_instant(CONTROL_TRACK, "canary", now, || {
                    vec![
                        ("generation", u64::from(generation).into()),
                        ("fraction", fraction.into()),
                    ]
                });
            }
            ControlAction::ClearCanary => {
                if self.fleet.canary.take().is_some() {
                    self.trace_instant(CONTROL_TRACK, "canary-clear", now, Vec::new);
                }
            }
        }
    }

    fn sample_counters(&mut self, now: f64) {
        if !self.tracer.is_enabled() {
            return;
        }
        let depth = self.queue_depth();
        self.tracer.counter("router-queue-depth", now, depth as f64);
        for r in &self.fleet.replicas {
            self.tracer.counter(
                &format!("outstanding-r{}", r.id),
                now,
                r.outstanding() as f64,
            );
        }
    }

    /// Record an instant; `args` runs only when the tracer is enabled,
    /// so untraced runs build no argument list.
    fn trace_instant(
        &mut self,
        track: moe_trace::TrackId,
        name: &str,
        t_s: f64,
        args: impl FnOnce() -> Vec<(&'static str, ArgValue)>,
    ) {
        if self.tracer.is_enabled() {
            self.tracer
                .instant(track, Category::Sched, name, t_s, args());
        }
    }

    /// Anything still live when no event source remains can never be
    /// served: parked at the router with every replica down for good, or
    /// a preempted sequence that outgrew its replica's KV pool. Drop it.
    fn drain_unservable(&mut self) {
        self.tally.dropped += self.live.len();
        self.live.clear();
        self.queue.clear();
        self.queue_dead = 0;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::workload::{generate, TenantSpec, WorkloadSpec, WorkloadStream};
    use moe_gpusim::device::Cluster;
    use moe_gpusim::perfmodel::EngineOptions;
    use moe_model::registry::olmoe_1b_7b;

    /// Convenience: accounting consistency checks shared by tests.
    pub(crate) fn assert_accounted(report: &ClusterReport) {
        assert_eq!(
            report.completed + report.timed_out + report.dropped + report.rejected,
            report.submitted,
            "every request must reach exactly one terminal state: {report:?}"
        );
        for (name, s) in [
            ("ttft", &report.ttft),
            ("e2e", &report.e2e),
            ("itl", &report.itl),
        ] {
            assert!(
                s.p50_s <= s.p95_s && s.p95_s <= s.p99_s && s.p99_s <= s.max_s,
                "{name} percentiles out of order: {s:?}"
            );
        }
        assert_eq!(
            report.per_replica_completed.iter().sum::<usize>(),
            report.completed,
            "per-replica completions must add up"
        );
        assert!(
            report.device_seconds.is_finite() && report.device_seconds >= 0.0,
            "device-seconds must be finite and non-negative: {}",
            report.device_seconds
        );
    }

    fn olmoe() -> PerfModel {
        PerfModel::new(
            olmoe_1b_7b(),
            Cluster::h100_node(1),
            EngineOptions::default(),
        )
        .unwrap()
    }

    fn small_trace(n: usize, qps: f64, seed: u64) -> RequestTrace {
        generate(
            &WorkloadSpec::poisson(qps, n, TenantSpec::uniform("t", 1.0, (128, 256), (16, 32))),
            seed,
        )
    }

    fn base_cfg(policy: RoutePolicy) -> ClusterConfig {
        ClusterConfig {
            replicas: 3,
            policy,
            router: RouterConfig::default(),
            prefix_capacity: 0,
            seed: 1,
            retain_outputs: false,
            latency_offset_s: 0.0,
        }
    }

    #[test]
    fn healthy_cluster_completes_everything() {
        for policy in RoutePolicy::all() {
            let sim = ClusterSim::sized_for(
                &olmoe(),
                2048,
                base_cfg(policy),
                FaultPlan::none(),
                small_trace(60, 12.0, 3),
            );
            let report = sim.run(&mut Tracer::disabled());
            assert_accounted(&report);
            assert_eq!(report.completed, 60, "{policy:?}");
            assert_eq!(report.dropped + report.timed_out + report.rejected, 0);
            assert!(report.makespan_s > 0.0);
            assert!(report.ttft.p99_s >= report.ttft.p50_s);
            // Every replica that completed work is accounted.
            assert_eq!(report.per_replica_completed.iter().sum::<usize>(), 60);
            // Streaming aggregation: the histograms carry every completion.
            assert_eq!(report.ttft_hist.count(), 60);
            assert_eq!(report.e2e_hist.count(), 60);
            assert!(report.peak_live > 0 && report.peak_live <= 60);
            // Rows are only retained on request.
            assert!(report.outputs.is_empty());
        }
    }

    #[test]
    fn retained_outputs_match_streamed_aggregates() {
        let mut cfg = base_cfg(RoutePolicy::LeastOutstanding);
        cfg.retain_outputs = true;
        let sim = ClusterSim::sized_for(
            &olmoe(),
            2048,
            cfg,
            FaultPlan::none(),
            small_trace(80, 16.0, 5),
        );
        let report = sim.run(&mut Tracer::disabled());
        assert_accounted(&report);
        assert_eq!(report.outputs.len(), report.completed);
        // Rows arrive sorted by id.
        assert!(report.outputs.windows(2).all(|w| w[0].id < w[1].id));
        // The streamed token count equals the per-row sum.
        let tokens: u64 = report
            .outputs
            .iter()
            .map(|o| (o.prompt_len + o.generated) as u64)
            .sum();
        assert_eq!(tokens, report.completed_tokens);
        // Exact aggregates agree with the rows.
        let max_ttft = report
            .outputs
            .iter()
            .map(ClusterOutput::ttft_s)
            .fold(0.0f64, f64::max);
        assert!((report.ttft.max_s - max_ttft).abs() < 1e-12);
    }

    #[test]
    fn retention_does_not_perturb_the_run() {
        let run = |retain: bool| {
            let mut cfg = base_cfg(RoutePolicy::PowerOfTwo);
            cfg.retain_outputs = retain;
            let mut report = ClusterSim::sized_for(
                &olmoe(),
                2048,
                cfg,
                FaultPlan::crash_window(1, 0.5, 1.0),
                small_trace(50, 20.0, 11),
            )
            .run(&mut Tracer::disabled());
            assert_accounted(&report);
            report.outputs.clear();
            report
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn streaming_source_matches_materialized_trace() {
        let spec = WorkloadSpec::poisson(
            15.0,
            70,
            TenantSpec::uniform("t", 1.0, (128, 256), (16, 32)),
        );
        let cfg = base_cfg(RoutePolicy::LeastOutstanding);
        let model = olmoe();
        let sched = scheduler_config_for(&model, 2048);
        let from_trace = ClusterSim::new(&model, sched, cfg, FaultPlan::none(), generate(&spec, 9))
            .run(&mut Tracer::disabled());
        let from_stream = ClusterSim::with_source(
            &model,
            sched,
            cfg,
            FaultPlan::none(),
            Box::new(WorkloadStream::new(spec, 9)),
        )
        .run(&mut Tracer::disabled());
        assert_accounted(&from_trace);
        assert_eq!(
            moe_json::to_string(&from_trace),
            moe_json::to_string(&from_stream),
            "a lazy source must replay the materialized run byte for byte"
        );
    }

    #[test]
    fn latency_offset_shifts_ttft_and_e2e_but_not_itl() {
        let run = |offset: f64| {
            let mut cfg = base_cfg(RoutePolicy::LeastOutstanding);
            cfg.latency_offset_s = offset;
            let report = ClusterSim::sized_for(
                &olmoe(),
                2048,
                cfg,
                FaultPlan::none(),
                small_trace(40, 10.0, 7),
            )
            .run(&mut Tracer::disabled());
            assert_accounted(&report);
            report
        };
        let base = run(0.0);
        let shifted = run(0.25);
        assert!((shifted.ttft.max_s - base.ttft.max_s - 0.25).abs() < 1e-9);
        assert!((shifted.e2e.max_s - base.e2e.max_s - 0.25).abs() < 1e-9);
        assert_eq!(shifted.itl, base.itl, "a constant shift cancels in ITL");
        assert_eq!(shifted.makespan_s, base.makespan_s);
    }

    #[test]
    fn cost_metrics_track_devices_and_makespan() {
        let sim = ClusterSim::sized_for(
            &olmoe(),
            2048,
            base_cfg(RoutePolicy::LeastOutstanding),
            FaultPlan::none(),
            small_trace(60, 12.0, 3),
        );
        let report = sim.run(&mut Tracer::disabled());
        assert_accounted(&report);
        // Single-device replicas: devices == replicas.
        assert_eq!(report.devices, 3);
        let device_seconds = report.devices as f64 * report.makespan_s;
        assert!(
            (report.cost_per_token_device_s - device_seconds / report.completed_tokens as f64)
                .abs()
                < 1e-12
        );
        assert!(
            (report.device_s_per_request - device_seconds / report.completed as f64).abs() < 1e-12
        );
        // Cost identity: cost/token x throughput == devices.
        assert!(
            (report.cost_per_token_device_s * report.throughput_tok_s - report.devices as f64)
                .abs()
                < 1e-6
        );
    }

    #[test]
    fn same_seed_is_byte_identical_and_seeds_differ() {
        let run = |seed: u64| {
            let sim = ClusterSim::sized_for(
                &olmoe(),
                2048,
                base_cfg(RoutePolicy::PowerOfTwo),
                FaultPlan::none(),
                small_trace(50, 10.0, seed),
            );
            let report = sim.run(&mut Tracer::disabled());
            assert_accounted(&report);
            moe_json::to_string(&report)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn crash_without_retries_drops_requests() {
        let mut cfg = base_cfg(RoutePolicy::LeastOutstanding);
        cfg.router.max_retries = 0;
        let trace = small_trace(80, 20.0, 5);
        let crash_at = trace.requests[20].arrival_s;
        let sim = ClusterSim::sized_for(
            &olmoe(),
            2048,
            cfg,
            FaultPlan::crash_window(0, crash_at, 1e9),
            trace,
        );
        let report = sim.run(&mut Tracer::disabled());
        assert_accounted(&report);
        assert_eq!(report.crashes, 1);
        assert!(report.dropped > 0, "no retries: crash losses drop");
        assert!(report.completed > 0, "other replicas keep serving");
    }

    #[test]
    fn crash_with_retries_completes_everything() {
        let cfg = base_cfg(RoutePolicy::LeastOutstanding);
        let trace = small_trace(80, 20.0, 5);
        let crash_at = trace.requests[20].arrival_s;
        let sim = ClusterSim::sized_for(
            &olmoe(),
            2048,
            cfg,
            FaultPlan::crash_window(0, crash_at, 2.0),
            trace,
        );
        let report = sim.run(&mut Tracer::disabled());
        assert_accounted(&report);
        assert_eq!(report.completed, 80, "retries recover every crash loss");
        assert!(report.retries > 0);
        assert_eq!(report.dropped, 0);
    }

    /// A controller that never acts: its ticks alone keep a run going.
    #[derive(Debug)]
    struct IdleController;

    impl ControlHook for IdleController {
        fn tick(&mut self, _: &ControlObs) -> Vec<ControlAction> {
            Vec::new()
        }
    }

    #[test]
    fn a_prompt_no_empty_pool_admits_drops_at_dispatch_and_a_controlled_run_ends() {
        // One replica with four 16-token KV blocks (one held in reserve):
        // the 200-token prompt can never be admitted, the 16-token one can.
        let sched = SchedulerConfig {
            total_blocks: 4,
            block_tokens: 16,
            ..scheduler_config_for(&olmoe(), 2048)
        };
        let request = |id: u64, prompt_len: usize| crate::workload::ClusterRequest {
            id,
            arrival_s: 0.01 * id as f64,
            prompt_len,
            max_new_tokens: 8,
            tenant: 0,
            prefix_group: 0,
            prefix_len: 0,
        };
        let trace = RequestTrace {
            requests: vec![request(0, 200), request(1, 16)],
        };
        let mut cfg = base_cfg(RoutePolicy::RoundRobin);
        cfg.replicas = 1;
        for controlled in [false, true] {
            let mut sim = ClusterSim::new(&olmoe(), sched, cfg, FaultPlan::none(), trace.clone());
            if controlled {
                sim = sim.with_controller(Box::new(IdleController), 1.0);
            }
            let report = sim.run(&mut Tracer::disabled());
            assert_accounted(&report);
            assert_eq!(report.submitted, 2);
            assert_eq!(
                (report.completed, report.dropped),
                (1, 1),
                "controlled: {controlled}: the short prompt is not stuck behind the long one"
            );
        }
    }

    #[test]
    fn all_replicas_down_forever_drops_the_leftovers() {
        let mut cfg = base_cfg(RoutePolicy::RoundRobin);
        cfg.replicas = 2;
        cfg.router.max_retries = 1;
        let trace = small_trace(30, 50.0, 9);
        // Permanent crashes: no recovery event is ever scheduled.
        let faults = FaultPlan {
            events: vec![
                FaultEvent::Crash {
                    t_s: 0.05,
                    replica: 0,
                },
                FaultEvent::Crash {
                    t_s: 0.05,
                    replica: 1,
                },
            ],
        };
        let sim = ClusterSim::sized_for(&olmoe(), 2048, cfg, faults, trace);
        let report = sim.run(&mut Tracer::disabled());
        assert_accounted(&report);
        assert!(report.dropped > 0, "unservable work must drop, not hang");
    }

    #[test]
    fn ttft_timeout_cancels_stragglers() {
        let mut cfg = base_cfg(RoutePolicy::RoundRobin);
        cfg.replicas = 1;
        cfg.router.ttft_timeout_s = 0.5;
        cfg.retain_outputs = true;
        // Overload a single replica: late arrivals cannot make the gate.
        let trace = small_trace(120, 200.0, 13);
        let sim = ClusterSim::sized_for(&olmoe(), 2048, cfg, FaultPlan::none(), trace);
        let report = sim.run(&mut Tracer::disabled());
        assert_accounted(&report);
        assert!(report.timed_out > 0, "overload must trip the TTFT gate");
        for o in &report.outputs {
            assert!(
                o.ttft_s() <= 0.5 + 1e-6,
                "completed request {} beat the gate: {}",
                o.id,
                o.ttft_s()
            );
        }
        assert!(report.ttft.max_s <= 0.5 + 1e-6);
    }

    #[test]
    fn same_round_deadlines_fire_in_deadline_then_id_order() {
        use moe_trace::{ArgValue, MemorySink, TraceEvent};
        let request = |id: u64, arrival_s: f64| crate::workload::ClusterRequest {
            id,
            arrival_s,
            prompt_len: 64,
            max_new_tokens: 4,
            tenant: 0,
            prefix_group: 0,
            prefix_len: 0,
        };
        // Delivery order 2, 0, 1, 3: ids 2 and 0 share a deadline, id 1's
        // lies within the round's coalescing window after theirs.
        let trace = RequestTrace {
            requests: vec![
                request(2, 0.1),
                request(0, 0.1),
                request(1, 0.1 + 0.5 * EPS),
                request(3, 0.3),
            ],
        };
        let mut cfg = base_cfg(RoutePolicy::RoundRobin);
        cfg.replicas = 1;
        cfg.router.ttft_timeout_s = 0.5;
        // The only replica is down for good: every request waits at the
        // router until its deadline.
        let faults = FaultPlan {
            events: vec![FaultEvent::Crash {
                t_s: 0.0,
                replica: 0,
            }],
        };
        let mut tracer = Tracer::new(Box::new(MemorySink::new()));
        let report = ClusterSim::sized_for(&olmoe(), 2048, cfg, faults, trace).run(&mut tracer);
        assert_accounted(&report);
        assert_eq!(report.timed_out, 4);
        let fired: Vec<(f64, i64)> = tracer
            .snapshot()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Instant {
                    name, t_s, args, ..
                } if name == "timeout" => match args[..] {
                    [("req", ArgValue::Int(id))] => Some((t_s, id)),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        assert_eq!(fired, vec![(0.6, 0), (0.6, 2), (0.6, 1), (0.8, 3)]);
        assert_eq!(report.makespan_s, 0.8);
    }

    #[test]
    fn a_run_that_finishes_early_ends_at_its_last_completion() {
        let mut cfg = base_cfg(RoutePolicy::LeastOutstanding);
        cfg.router.ttft_timeout_s = 100.0;
        cfg.retain_outputs = true;
        let sim = ClusterSim::sized_for(
            &olmoe(),
            2048,
            cfg,
            FaultPlan::none(),
            small_trace(40, 20.0, 3),
        );
        let report = sim.run(&mut Tracer::disabled());
        assert_accounted(&report);
        assert_eq!(report.completed, 40);
        let last = report
            .outputs
            .iter()
            .map(|o| o.finish_s)
            .fold(0.0, f64::max);
        assert!(last < 100.0);
        assert_eq!(
            report.makespan_s, last,
            "the clock must not run on to a dead deadline"
        );
    }

    #[test]
    fn slowdown_degrades_but_does_not_lose_requests() {
        let cfg = base_cfg(RoutePolicy::LeastOutstanding);
        let trace = small_trace(60, 15.0, 21);
        let healthy = ClusterSim::sized_for(&olmoe(), 2048, cfg, FaultPlan::none(), trace.clone())
            .run(&mut Tracer::disabled());
        assert_accounted(&healthy);
        let slowed = ClusterSim::sized_for(
            &olmoe(),
            2048,
            cfg,
            FaultPlan::slowdown_window(0, 0.0, 1e9, 4.0),
            trace,
        )
        .run(&mut Tracer::disabled());
        assert_accounted(&slowed);
        assert_eq!(slowed.completed, 60);
        assert!(
            slowed.e2e.p99_s >= healthy.e2e.p99_s,
            "a straggler cannot make the tail better"
        );
    }

    /// Run the canonical prefix-heavy mix near saturation.
    fn prefix_heavy_report(policy: RoutePolicy) -> ClusterReport {
        let trace = generate(&WorkloadSpec::prefix_heavy(100.0, 400), 31);
        let cfg = ClusterConfig {
            replicas: 4,
            policy,
            router: RouterConfig::default(),
            prefix_capacity: 16,
            seed: 1,
            retain_outputs: false,
            latency_offset_s: 0.0,
        };
        let report = ClusterSim::sized_for(&olmoe(), 8192, cfg, FaultPlan::none(), trace)
            .run(&mut Tracer::disabled());
        assert_accounted(&report);
        report
    }

    #[test]
    fn prefix_affinity_gets_more_hits_than_round_robin() {
        // Long prompts with long shared prefixes: a prefix hit roughly
        // halves the prefill, so affinity buys both hit rate and tail
        // latency (short prompts would not — MoE prefill is flat there).
        let affine = prefix_heavy_report(RoutePolicy::PrefixAffinity);
        let rr = prefix_heavy_report(RoutePolicy::RoundRobin);
        assert!(
            affine.prefix_hit_rate() > rr.prefix_hit_rate() + 0.2,
            "affinity {:.2} vs rr {:.2}",
            affine.prefix_hit_rate(),
            rr.prefix_hit_rate()
        );
        assert!(affine.ttft.p99_s <= rr.ttft.p99_s);
    }

    #[test]
    fn policy_ordering_on_prefix_heavy_workload() {
        // The headline acceptance ordering: near saturation on the
        // prefix-heavy mix, smarter placement strictly helps the tail.
        let reports: Vec<ClusterReport> = RoutePolicy::all()
            .into_iter()
            .map(prefix_heavy_report)
            .collect();
        for pair in reports.windows(2) {
            assert!(
                pair[0].ttft.p50_s <= pair[1].ttft.p50_s,
                "p50 TTFT ordering violated: {} {} > {} {}",
                pair[0].policy,
                pair[0].ttft.p50_s,
                pair[1].policy,
                pair[1].ttft.p50_s
            );
            assert!(
                pair[0].ttft.p99_s <= pair[1].ttft.p99_s,
                "p99 TTFT ordering violated: {} {} > {} {}",
                pair[0].policy,
                pair[0].ttft.p99_s,
                pair[1].policy,
                pair[1].ttft.p99_s
            );
        }
    }

    #[test]
    fn preemption_retires_the_slot_and_cuts_device_seconds() {
        let trace = small_trace(80, 20.0, 5);
        let preempt_at = trace.requests[20].arrival_s;
        let faults = FaultPlan {
            events: vec![FaultEvent::Preempt {
                t_s: preempt_at,
                replica: 0,
            }],
        };
        let sim = ClusterSim::sized_for(
            &olmoe(),
            2048,
            base_cfg(RoutePolicy::LeastOutstanding),
            faults,
            trace,
        );
        let report = sim.run(&mut Tracer::disabled());
        assert_accounted(&report);
        assert_eq!(report.preemptions, 1);
        assert_eq!(report.crashes, 0, "preemption is not a crash");
        assert_eq!(report.completed, 80, "retries recover the reclaim losses");
        // The reclaimed slot stops accruing cost: lifetime accounting
        // comes in strictly below the static devices x makespan product.
        let static_cost = report.devices as f64 * report.makespan_s;
        assert!(
            report.device_seconds < static_cost - 1e-9,
            "{} !< {}",
            report.device_seconds,
            static_cost
        );
        assert_eq!(report.per_replica_completed.len(), 3);
    }

    /// A scripted hook for the tests: at the first tick, add one
    /// replica (generation 1, canaried at 50%); at the third, drain
    /// replica 0.
    #[derive(Debug, Default)]
    struct ScriptedHook {
        ticks: usize,
        spec: Option<crate::ctrl::ReplicaSpec>,
    }

    impl crate::ctrl::ControlHook for ScriptedHook {
        fn tick(&mut self, _obs: &crate::ctrl::ControlObs) -> Vec<ControlAction> {
            self.ticks += 1;
            match self.ticks {
                1 => {
                    let spec = self.spec.take().expect("spec consumed once");
                    vec![
                        ControlAction::AddReplica(Box::new(spec)),
                        ControlAction::SetCanary {
                            generation: 1,
                            fraction: 0.5,
                        },
                    ]
                }
                3 => vec![
                    ControlAction::DrainReplica {
                        replica: 0,
                        migration_s: 2.0,
                    },
                    ControlAction::ClearCanary,
                ],
                _ => Vec::new(),
            }
        }
    }

    #[test]
    fn controller_grows_drains_and_accounts_lifetimes() {
        let model = olmoe();
        let sched = scheduler_config_for(&model, 2048);
        let spec = crate::ctrl::ReplicaSpec {
            model: model.clone(),
            sched,
            generation: 1,
            spot: true,
            price_factor: 0.4,
            ready_delay_s: 0.5,
        };
        let hook = ScriptedHook {
            ticks: 0,
            spec: Some(spec),
        };
        let sim = ClusterSim::new(
            &model,
            sched,
            base_cfg(RoutePolicy::LeastOutstanding),
            FaultPlan::none(),
            small_trace(200, 40.0, 9),
        )
        .with_controller(Box::new(hook), 1.0);
        let report = sim.run(&mut Tracer::disabled());
        assert_accounted(&report);
        assert_eq!(report.completed, 200);
        assert_eq!(report.reconfigs, 2, "one add + one drain");
        // Four slots existed; the added one completed work after its
        // ready delay, the drained one stopped at its drain point.
        assert_eq!(report.per_replica_completed.len(), 4);
        assert!(
            report.per_replica_completed[3] > 0,
            "provisioned replica must serve: {:?}",
            report.per_replica_completed
        );
        // Peak fleet: 4 single-device replicas held concurrently.
        assert_eq!(report.devices, 4);
        // Lifetime accounting: strictly below paying for 4 devices the
        // whole run (the spot add is discounted, the drain retires).
        assert!(report.device_seconds < 4.0 * report.makespan_s);
        assert!(report.device_seconds > 0.0);
    }

    #[test]
    fn controlled_run_is_deterministic() {
        let run = || {
            let model = olmoe();
            let sched = scheduler_config_for(&model, 2048);
            let spec = crate::ctrl::ReplicaSpec {
                model: model.clone(),
                sched,
                generation: 1,
                spot: false,
                price_factor: 1.0,
                ready_delay_s: 0.25,
            };
            let hook = ScriptedHook {
                ticks: 0,
                spec: Some(spec),
            };
            let sim = ClusterSim::new(
                &model,
                sched,
                base_cfg(RoutePolicy::PowerOfTwo),
                FaultPlan::spot_preemptions(7, &[1], 20.0, 15.0),
                small_trace(150, 50.0, 13),
            )
            .with_controller(Box::new(hook), 0.5);
            let report = sim.run(&mut Tracer::disabled());
            assert_accounted(&report);
            moe_json::to_string(&report)
        };
        assert_eq!(run(), run(), "controlled runs replay byte-identically");
    }

    #[test]
    fn uncontrolled_cost_math_is_bit_identical_to_legacy() {
        let sim = ClusterSim::sized_for(
            &olmoe(),
            2048,
            base_cfg(RoutePolicy::LeastOutstanding),
            FaultPlan::none(),
            small_trace(60, 12.0, 3),
        );
        let report = sim.run(&mut Tracer::disabled());
        assert_accounted(&report);
        let legacy = report.devices as f64 * report.makespan_s;
        assert_eq!(
            report.device_seconds, legacy,
            "static runs keep the exact product"
        );
        assert_eq!(report.reconfigs, 0);
        assert_eq!(report.preemptions, 0);
    }

    #[test]
    fn traced_run_reports_identically_and_records_decisions() {
        use moe_trace::{MemorySink, TraceEvent};
        let build = || {
            ClusterSim::sized_for(
                &olmoe(),
                2048,
                base_cfg(RoutePolicy::PowerOfTwo),
                FaultPlan::crash_window(1, 0.5, 1.0),
                small_trace(40, 25.0, 17),
            )
        };
        let plain = build().run(&mut Tracer::disabled());
        let mut tracer = Tracer::new(Box::new(MemorySink::new()));
        let traced = build().run(&mut tracer);
        assert_accounted(&traced);
        assert_eq!(plain, traced, "tracing must not perturb the cluster");

        let evs = tracer.snapshot();
        let instants: Vec<&str> = evs
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Instant { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        for name in ["dispatch", "crash", "recover", "admit", "finish"] {
            assert!(instants.contains(&name), "no {name} instant");
        }
        // Per-replica step spans, with their kernel children, landed on
        // replica tracks.
        for name in ["decode", "moe-ffn"] {
            assert!(evs.iter().any(|e| matches!(
                e,
                TraceEvent::Span { track, name: n, .. } if *track >= REPLICA_TRACK_BASE && n == name
            )));
        }
        // Queue counter sampled.
        assert!(evs.iter().any(
            |e| matches!(e, TraceEvent::Counter { name, .. } if name == "router-queue-depth")
        ));
        assert!(tracer.tracks().iter().any(|(_, n)| n == "router"));
    }
}
