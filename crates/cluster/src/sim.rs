//! The cluster event loop: N replicas, one router, a fault schedule and
//! an arrival source, advanced on a single simulated clock.
//!
//! ## The heap-driven loop
//!
//! All five event sources — faults, step completions, retry releases,
//! arrivals and TTFT timeouts — feed one indexed binary event heap
//! (`events::EventHeap`) keyed `(time, source, id, gen)`, so finding
//! the next event is
//! O(log n) instead of a linear scan over every replica and pending
//! queue. Events that coincide (within `EPS`) are drained into a round
//! buffer and processed in **fixed priority order** — faults (plan
//! order), step completions (time, then replica index), retry releases,
//! arrivals, then timeouts — after which the router dispatches and idle
//! replicas restart. Invalidated heap entries (a canceled request's
//! timeout, a crashed step's completion) are skipped lazily via
//! generation/liveness checks rather than removed. `docs/SCALE.md`
//! documents the full ordering contract.
//!
//! ## Streaming aggregation
//!
//! Latency distributions accumulate into fixed-footprint log-linear
//! [`Histogram`]s as requests finish, and per-request state lives in a
//! table keyed by request id that only holds requests currently *in*
//! the system. Peak memory is therefore bounded by peak concurrency,
//! not trace length — the report's `peak_live` field records it.
//! Per-request [`ClusterOutput`] rows are only collected when
//! [`ClusterConfig::retain_outputs`] is set (tests and small debugging
//! runs).
//!
//! ## Determinism
//!
//! The heap key is total (`f64::total_cmp`, then source, id,
//! generation), every queue is FIFO, the router breaks ties by replica
//! index, and all randomness was already materialized into the arrival
//! source. The same `(source, config, fault plan)` therefore replays
//! byte-identically — `tests/determinism.rs` pins this end to end
//! through the report *and* trace JSON.

use std::collections::{BTreeMap, VecDeque};

use moe_gpusim::perfmodel::PerfModel;
use moe_json::{FromJson, ToJson};
use moe_runtime::metrics::LatencySummary;
use moe_runtime::request::RequestId;
use moe_runtime::scheduler::SchedulerConfig;
use moe_runtime::simserver::scheduler_config_for;
use moe_runtime::step::{Finished, PriceCache};
use moe_trace::{Category, Histogram, Tracer};

use crate::ctrl::{ControlAction, ControlHook, ControlObs, ReplicaObs};
use crate::events::{sort_round, Event, EventHeap, Source};
use crate::fault::{FaultEvent, FaultPlan};
use crate::replica::Replica;
use crate::router::{mix, ReplicaLoad, RoutePolicy, Router, RouterConfig};
use crate::workload::{ArrivalSource, RequestTrace, TraceSource};
use crate::{CONTROL_TRACK, REPLICA_TRACK_BASE, ROUTER_TRACK};

/// Events closer than this collapse into one processing round.
const EPS: f64 = 1e-9;

/// Salt decorrelating canary membership hashes from the router's
/// affinity hashes and the shard partition, which share the mixer.
const CANARY_SALT: u64 = 0xca4a_57e1_0000_00d5;

/// Is request `id` in the canary slice of size `frac`? A pure seeded
/// hash, so membership is stable across retries and replays.
fn canary_pick(seed: u64, id: u64, frac: f64) -> bool {
    let h = mix(seed ^ CANARY_SALT, id);
    ((h >> 11) as f64 / (1u64 << 53) as f64) < frac
}

/// Fleet-lifecycle bookkeeping for one replica slot, parallel to
/// `ClusterSim::replicas`. Static runs never touch it beyond defaults;
/// a controlled run uses it to integrate per-replica device-seconds
/// over provision→retire lifetimes and to scope canary routing.
#[derive(Debug, Clone)]
struct ReplicaMeta {
    /// Devices the replica holds (its engine's parallel degree).
    devices: usize,
    /// Plan generation (0 for the initial fleet).
    generation: u32,
    /// When the replica started accruing device-seconds.
    born_s: f64,
    /// When it starts serving (> `born_s` while provisioning).
    ready_s: f64,
    /// Closed to new dispatches, finishing resident work.
    draining: bool,
    /// Permanently gone since this time (drain completed or preempted).
    retired_s: Option<f64>,
    /// Spot-market capacity.
    spot: bool,
    /// Price multiplier on accrued device-seconds.
    price_factor: f64,
    /// Extra device-time charged at retirement (drain migration tail).
    extra_s: f64,
}

impl ReplicaMeta {
    fn initial(devices: usize) -> Self {
        Self {
            devices,
            generation: 0,
            born_s: 0.0,
            ready_s: 0.0,
            draining: false,
            retired_s: None,
            spot: false,
            price_factor: 1.0,
            extra_s: 0.0,
        }
    }
}

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
    /// Devices per replica (the engine plan's parallel degree), for the
    /// report's device-seconds cost accounting.
    devices_per_replica: usize,
    replicas: Vec<Replica>,
    /// Fleet-lifecycle state, parallel to `replicas`.
    meta: Vec<ReplicaMeta>,
    /// Online controller ticked every `ctrl_interval_s`, if configured.
    controller: Option<Box<dyn ControlHook>>,
    ctrl_interval_s: f64,
    /// Lifetime-integrated cost accounting is in effect (controller
    /// configured, replica added/drained, or a preemption applied).
    /// Static runs keep the exact legacy `devices x makespan` math.
    dynamic_fleet: bool,
    /// Active canary split: `(generation, fraction)`.
    canary: Option<(u32, f64)>,
    reconfigs: usize,
    preemptions: usize,
    /// Devices held by non-retired replicas right now, and the peak.
    cur_devices: usize,
    peak_devices: usize,
    router: Router,
    /// Lazy request source; only the next undelivered request is held.
    source: Box<dyn ArrivalSource>,
    pending_arrival: Option<crate::workload::ClusterRequest>,
    /// Requests currently in the system, by trace id.
    live: BTreeMap<u64, LiveReq>,
    faults: FaultPlan,
    fault_idx: usize,
    /// The indexed event heap over all five sources.
    heap: EventHeap,
    /// Reusable buffer of one coalesced round's events.
    round: Vec<Event>,
    /// Router admission queue: trace ids, FIFO. May contain entries for
    /// requests that left the system (lazy deletion); `queue_dead`
    /// counts them so admission control sees the live length.
    queue: VecDeque<u64>,
    queue_dead: usize,
    /// Per-replica load snapshots, updated incrementally at every
    /// mutation instead of rebuilt per routing decision.
    loads: Vec<ReplicaLoad>,
    /// Replicas touched this round (deduplicated before step starts).
    dirty: Vec<usize>,
    clock_s: f64,
    // Streaming aggregation state.
    ttft_hist: Histogram,
    e2e_hist: Histogram,
    itl_hist: Histogram,
    tokens: u64,
    submitted: usize,
    completed: usize,
    peak_live: usize,
    outputs: Vec<ClusterOutput>,
    timed_out: usize,
    dropped: usize,
    rejected: usize,
    retry_count: usize,
    crashes: usize,
    events: u64,
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
        let replicas: Vec<Replica> = (0..cfg.replicas)
            .map(|i| Replica::new(i, model.clone(), sched, cfg.prefix_capacity))
            .collect();
        let loads = replicas.iter().map(Replica::load).collect();
        let devices_per_replica = model.options().plan.degree;
        Self {
            router: Router::new(cfg.policy, cfg.seed),
            devices_per_replica,
            meta: vec![ReplicaMeta::initial(devices_per_replica); cfg.replicas],
            controller: None,
            ctrl_interval_s: 0.0,
            dynamic_fleet: false,
            canary: None,
            reconfigs: 0,
            preemptions: 0,
            cur_devices: cfg.replicas * devices_per_replica,
            peak_devices: cfg.replicas * devices_per_replica,
            replicas,
            cfg,
            source,
            pending_arrival: None,
            live: BTreeMap::new(),
            faults,
            fault_idx: 0,
            heap: EventHeap::new(),
            round: Vec::new(),
            queue: VecDeque::new(),
            queue_dead: 0,
            loads,
            dirty: Vec::new(),
            clock_s: 0.0,
            ttft_hist: Histogram::new(),
            e2e_hist: Histogram::new(),
            itl_hist: Histogram::new(),
            tokens: 0,
            submitted: 0,
            completed: 0,
            peak_live: 0,
            outputs: Vec::new(),
            timed_out: 0,
            dropped: 0,
            rejected: 0,
            retry_count: 0,
            crashes: 0,
            events: 0,
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
        self.dynamic_fleet = true;
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

    /// Is a heap entry invalidated? Cursor events never are; step
    /// completions are stale when the replica's in-flight generation
    /// moved on (crash, or the step already committed); retry releases
    /// are stale unless the request still waits in backoff; timeouts
    /// are stale once the request left the system.
    fn is_stale(&self, ev: &Event) -> bool {
        match ev.source {
            Source::Fault | Source::Arrival | Source::Reconfig | Source::Control => false,
            Source::StepEnd => {
                self.replicas
                    .get(ev.id as usize)
                    .and_then(Replica::current_gen)
                    != Some(ev.gen)
            }
            Source::Retry => !self
                .live
                .get(&ev.id)
                .is_some_and(|l| l.state == ReqState::Backoff),
            Source::Timeout => !self.live.contains_key(&ev.id),
        }
    }

    /// Next pending event time; `None` when drained. Pops stale entries
    /// off the top so the clock never jumps to a dead deadline.
    fn next_event_s(&mut self) -> Option<f64> {
        loop {
            let (t, stale) = match self.heap.peek() {
                Some(ev) => (ev.t_s, self.is_stale(ev)),
                None => return None,
            };
            if stale {
                self.heap.pop();
                continue;
            }
            return Some(t);
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
            for (i, replica) in self.replicas.iter_mut().enumerate() {
                let track = REPLICA_TRACK_BASE.saturating_add(i as u32);
                self.tracer.name_track(track, &format!("replica {i}"));
                replica.record_decisions();
            }
        }
        let (report, finished) = self.run_consume();
        *tracer = finished;
        report
    }

    fn run_consume(mut self) -> (ClusterReport, Tracer) {
        self.schedule_initial();
        let mut guard = 0u64;
        while let Some(next) = self.next_event_s() {
            guard += 1;
            assert!(guard < 10_000_000_000, "cluster simulation livelock");
            self.clock_s = self.clock_s.max(next);
            self.process_round();
        }
        self.drain_unservable();
        self.build_report()
    }

    /// Seed the heap: the fault cursor and the first arrival. Exactly
    /// one cursor event per source is ever pending; processing it
    /// drains everything due and reschedules the cursor.
    fn schedule_initial(&mut self) {
        if let Some(ev) = self.faults.events.get(self.fault_idx) {
            self.heap.push_at(ev.t_s(), Source::Fault, 0);
        }
        self.pending_arrival = self.source.next_request();
        if let Some(req) = &self.pending_arrival {
            self.heap.push_at(req.arrival_s, Source::Arrival, 0);
        }
        if self.controller.is_some() {
            self.heap.push_at(self.ctrl_interval_s, Source::Control, 0);
        }
    }

    /// Drain every event due at the current clock into the round
    /// buffer, sort it into source-priority order, process it, then
    /// dispatch and restart replicas.
    fn process_round(&mut self) {
        let now = self.clock_s;
        let mut round = std::mem::take(&mut self.round);
        loop {
            let due = self.heap.peek().is_some_and(|ev| ev.t_s <= now + EPS);
            if !due {
                break;
            }
            if let Some(ev) = self.heap.pop() {
                if !self.is_stale(&ev) {
                    round.push(ev);
                }
            }
        }
        sort_round(&mut round);
        for &ev in &round {
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
        round.clear();
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
            if idx >= self.replicas.len() {
                continue;
            }
            if self.meta[idx].retired_s.is_some() {
                continue; // retired slots are beyond fault reach
            }
            self.events += 1;
            let mut failed = Vec::new();
            let (name, args) = match ev {
                FaultEvent::Crash { .. } => {
                    if !self.replicas[idx].alive {
                        continue;
                    }
                    self.crashes += 1;
                    failed = self.replicas[idx].crash();
                    ("crash", vec![("lost", failed.len().into())])
                }
                FaultEvent::Recover { .. } => {
                    self.replicas[idx].recover();
                    ("recover", vec![])
                }
                FaultEvent::SlowdownStart { factor, .. } => {
                    self.replicas[idx].slowdown = factor.max(1.0);
                    ("slowdown", vec![("factor", factor.into())])
                }
                FaultEvent::SlowdownEnd { .. } => {
                    self.replicas[idx].slowdown = 1.0;
                    ("full-speed", vec![])
                }
                FaultEvent::Preempt { .. } => {
                    // Spot reclaim: a crash that also retires the slot —
                    // requests fail back to the router, but the replica
                    // stops accruing device-seconds for good.
                    self.preemptions += 1;
                    self.dynamic_fleet = true;
                    failed = self.replicas[idx].crash();
                    self.meta[idx].retired_s = Some(now);
                    self.meta[idx].extra_s = 0.0; // no migration tail on reclaim
                    self.cur_devices = self.cur_devices.saturating_sub(self.meta[idx].devices);
                    ("preempt", vec![("lost", failed.len().into())])
                }
            };
            self.refresh_load(idx);
            let track = REPLICA_TRACK_BASE.saturating_add(idx as u32);
            self.trace_instant(track, name, now, args);
            for id in failed {
                self.requeue_after_crash(id, now);
            }
        }
        // Reschedule the cursor for the next pending fault.
        if let Some(ev) = self.faults.events.get(self.fault_idx) {
            self.heap.push_at(ev.t_s(), Source::Fault, 0);
        }
    }

    /// A crash loss either re-queues with backoff or drops.
    fn requeue_after_crash(&mut self, cluster_id: u64, now: f64) {
        let Some(lv) = self.live.get_mut(&cluster_id) else {
            return;
        };
        if lv.attempts > self.cfg.router.max_retries {
            self.live.remove(&cluster_id);
            self.dropped += 1;
            self.trace_instant(ROUTER_TRACK, "drop", now, vec![("req", cluster_id.into())]);
            return;
        }
        // Exponential backoff keyed on the attempt that just failed.
        let exp = lv.attempts.saturating_sub(1).min(16);
        let ready = now + self.cfg.router.backoff_s * f64::from(1u32 << exp);
        lv.state = ReqState::Backoff;
        self.retry_count += 1;
        self.heap.push_at(ready, Source::Retry, cluster_id);
        self.trace_instant(
            ROUTER_TRACK,
            "retry",
            now,
            vec![("req", cluster_id.into()), ("ready", ready.into())],
        );
    }

    /// Commit a replica's in-flight step. `gen` guards against a crash
    /// earlier in this same round having wiped the step.
    fn complete_step_on(&mut self, idx: usize, gen: u64, now: f64) {
        if self.replicas[idx].current_gen() != Some(gen) {
            return;
        }
        self.events += 1;
        if let Some(finished) = self.replicas[idx].complete_step(&mut self.tracer) {
            for f in finished {
                self.finish_request(idx, f);
            }
        }
        self.refresh_load(idx);
        self.dirty.push(idx);
        self.maybe_retire(idx, now);
    }

    /// Stream one completion (`f.id` is the cluster request id) into the
    /// aggregates and retire its live entry.
    fn finish_request(&mut self, replica: usize, f: Finished) {
        let Some(lv) = self.live.remove(&f.id) else {
            return;
        };
        let offset = self.cfg.latency_offset_s;
        let ttft = f.first_token_s - lv.req.arrival_s + offset;
        let e2e = f.finish_s - lv.req.arrival_s + offset;
        self.ttft_hist.record(ttft);
        self.e2e_hist.record(e2e);
        if f.generated > 1 {
            self.itl_hist
                .record((f.finish_s - f.first_token_s) / (f.generated - 1) as f64);
        }
        self.tokens += (lv.req.prompt_len + f.generated) as u64;
        self.completed += 1;
        if self.cfg.retain_outputs {
            self.outputs.push(ClusterOutput {
                id: f.id,
                replica,
                attempts: lv.attempts,
                prompt_len: lv.req.prompt_len,
                generated: f.generated,
                arrival_s: lv.req.arrival_s,
                first_token_s: f.first_token_s,
                finish_s: f.finish_s,
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
        self.events += 1;
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
            self.events += 1;
            self.submitted += 1;
            let id = req.id;
            if self.cfg.router.ttft_timeout_s > 0.0 {
                let deadline = req.arrival_s + self.cfg.router.ttft_timeout_s;
                self.heap.push_at(deadline, Source::Timeout, id);
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
            if self.live.len() > self.peak_live {
                self.peak_live = self.live.len();
            }
            self.pending_arrival = self.source.next_request();
        }
        if let Some(req) = &self.pending_arrival {
            self.heap.push_at(req.arrival_s, Source::Arrival, 0);
        }
    }

    /// A request's TTFT deadline passed: cancel it wherever it sits.
    /// Liveness was checked at pop time, but a step completion earlier
    /// in this same round may have finished it — re-check.
    fn fire_timeout(&mut self, id: u64, now: f64) {
        let Some(lv) = self.live.get(&id) else {
            return;
        };
        match lv.state {
            ReqState::Dispatched => {
                let (replica, sched_id) = (lv.replica, lv.sched_id);
                if !self.replicas[replica].cancel(sched_id) {
                    return; // finished in this very round
                }
                self.refresh_load(replica);
            }
            // The queue entry goes stale; dispatch skips it lazily.
            ReqState::AtRouter => self.queue_dead += 1,
            // The retry heap entry goes stale the same way.
            ReqState::Backoff => {}
        }
        self.live.remove(&id);
        self.events += 1;
        self.timed_out += 1;
        self.trace_instant(ROUTER_TRACK, "timeout", now, vec![("req", id.into())]);
    }

    /// Drain the router queue onto alive replicas, then enforce the
    /// admission bound (newest arrivals bounce first).
    fn dispatch(&mut self, now: f64) {
        while let Some(&id) = self.queue.front() {
            let Some((key, state)) = self.live.get(&id).map(|l| {
                (
                    (l.req.prefix_len > 0).then_some(l.req.prefix_group),
                    l.state,
                )
            }) else {
                // Lazily deleted entry (timed out while queued).
                self.queue.pop_front();
                self.queue_dead = self.queue_dead.saturating_sub(1);
                continue;
            };
            if state != ReqState::AtRouter {
                self.queue.pop_front();
                self.queue_dead = self.queue_dead.saturating_sub(1);
                continue;
            }
            let target = match self.canary {
                Some((generation, frac)) => {
                    // Restrict each side of the split to its generations,
                    // falling back to the whole fleet if a side is empty
                    // (e.g. the old generation fully drained).
                    let is_canary = canary_pick(self.cfg.seed, id, frac);
                    let mut masked: Vec<ReplicaLoad> = Vec::with_capacity(self.loads.len());
                    for (l, m) in self.loads.iter().zip(&self.meta) {
                        let keep = (m.generation == generation) == is_canary;
                        let mut load = *l;
                        load.alive = load.alive && keep;
                        masked.push(load);
                    }
                    if masked.iter().any(|l| l.alive) {
                        self.router.choose(&masked, key)
                    } else {
                        self.router.choose(&self.loads, key)
                    }
                }
                None => self.router.choose(&self.loads, key),
            };
            let Some(target) = target else {
                break; // nobody alive; leave the queue parked
            };
            self.queue.pop_front();
            let mut attempts = 0;
            if let Some(lv) = self.live.get_mut(&id) {
                lv.state = ReqState::Dispatched;
                lv.replica = target;
                lv.attempts += 1;
                attempts = lv.attempts;
            }
            // Split the borrow: enqueue reads the request, then the
            // scheduler id is written back.
            let sched_id = match self.live.get(&id) {
                Some(lv) => self.replicas[target].enqueue(&lv.req),
                None => continue,
            };
            if let Some(lv) = self.live.get_mut(&id) {
                lv.sched_id = sched_id;
            }
            self.refresh_load(target);
            self.dirty.push(target);
            self.trace_instant(
                ROUTER_TRACK,
                "dispatch",
                now,
                vec![
                    ("req", id.into()),
                    ("replica", target.into()),
                    ("attempt", attempts.into()),
                ],
            );
        }
        // Admission control: bounce the newest arrivals over capacity.
        while self.queue.len().saturating_sub(self.queue_dead) > self.cfg.router.queue_capacity {
            let Some(id) = self.queue.pop_back() else {
                break;
            };
            if self
                .live
                .get(&id)
                .is_some_and(|l| l.state == ReqState::AtRouter)
            {
                self.live.remove(&id);
                self.rejected += 1;
                self.trace_instant(ROUTER_TRACK, "reject", now, vec![("req", id.into())]);
            } else {
                self.queue_dead = self.queue_dead.saturating_sub(1);
            }
        }
    }

    /// Start steps only on replicas whose state changed this round —
    /// a dispatch target, a step completion, or a recovery — instead of
    /// probing all of them.
    fn start_steps(&mut self, now: f64) {
        if self.dirty.is_empty() {
            return;
        }
        self.dirty.sort_unstable();
        self.dirty.dedup();
        let dirty = std::mem::take(&mut self.dirty);
        for &idx in &dirty {
            if let Some((end, gen)) = self.replicas[idx].try_start_step(now, &mut self.prices) {
                self.heap.push(Event {
                    t_s: end,
                    source: Source::StepEnd,
                    id: idx as u64,
                    gen,
                });
                self.refresh_load(idx);
            }
        }
        self.dirty = dirty;
        self.dirty.clear();
    }

    fn refresh_load(&mut self, idx: usize) {
        let mut load = self.replicas[idx].load();
        // Draining and retired replicas are closed to new dispatches;
        // routing liveness is the replica's own liveness otherwise.
        if self.meta[idx].draining || self.meta[idx].retired_s.is_some() {
            load.alive = false;
        }
        self.loads[idx] = load;
    }

    /// A provisioning replica's ready delay elapsed: bring it online
    /// (unless a preemption already reclaimed the slot).
    fn activate_replica(&mut self, idx: usize, now: f64) {
        if idx >= self.replicas.len()
            || self.meta[idx].retired_s.is_some()
            || self.replicas[idx].alive
        {
            return;
        }
        self.events += 1;
        self.replicas[idx].recover();
        self.refresh_load(idx);
        self.dirty.push(idx);
        self.trace_instant(CONTROL_TRACK, "ready", now, vec![("replica", idx.into())]);
    }

    /// A draining replica with no resident work retires: it stops
    /// accruing device-seconds after charging its migration tail.
    fn maybe_retire(&mut self, idx: usize, now: f64) {
        if !self.meta[idx].draining || self.meta[idx].retired_s.is_some() {
            return;
        }
        if self.replicas[idx].outstanding() > 0 || self.replicas[idx].current_gen().is_some() {
            return;
        }
        self.replicas[idx].alive = false;
        self.meta[idx].retired_s = Some(now);
        self.cur_devices = self.cur_devices.saturating_sub(self.meta[idx].devices);
        self.refresh_load(idx);
        self.trace_instant(CONTROL_TRACK, "retire", now, vec![("replica", idx.into())]);
    }

    /// Device-seconds accrued by the whole fleet up to `now`: each
    /// replica pays `devices x price_factor` per second from birth to
    /// retirement (plus its migration tail) or to `now` if still held.
    /// Summed in fleet index order, so the fold is deterministic.
    fn accrued_device_s(&self, now: f64) -> f64 {
        let mut total = 0.0;
        for m in &self.meta {
            let (end, extra) = match m.retired_s {
                Some(t) => (t, m.extra_s),
                None => (now, 0.0),
            };
            total += m.devices as f64 * ((end - m.born_s).max(0.0) + extra) * m.price_factor;
        }
        total
    }

    /// Snapshot the cluster for the controller.
    fn build_obs(&self, now: f64) -> ControlObs {
        let replicas = self
            .replicas
            .iter()
            .zip(&self.meta)
            .map(|(r, m)| ReplicaObs {
                alive: r.alive,
                draining: m.draining,
                retired: m.retired_s.is_some(),
                provisioning: m.retired_s.is_none() && now + EPS < m.ready_s,
                spot: m.spot,
                generation: m.generation,
                devices: m.devices,
                queued: r.queued(),
                outstanding: r.outstanding(),
                completed: r.completed,
            })
            .collect();
        ControlObs {
            now_s: now,
            submitted: self.submitted,
            completed: self.completed,
            timed_out: self.timed_out,
            dropped: self.dropped,
            rejected: self.rejected,
            queue_depth: self.queue.len().saturating_sub(self.queue_dead),
            completed_tokens: self.tokens,
            device_seconds: self.accrued_device_s(now),
            ttft_hist: self.ttft_hist.clone(),
            itl_hist: self.itl_hist.clone(),
            canary: self.canary,
            replicas,
        }
    }

    /// Run one control tick: observe, apply the hook's actions, and
    /// reschedule the next tick while there is still work in flight.
    fn control_tick(&mut self, now: f64) {
        let Some(mut hook) = self.controller.take() else {
            return;
        };
        self.events += 1;
        let obs = self.build_obs(now);
        for action in hook.tick(&obs) {
            self.apply_action(action, now);
        }
        self.controller = Some(hook);
        if self.pending_arrival.is_some() || !self.live.is_empty() {
            self.heap
                .push_at(now + self.ctrl_interval_s, Source::Control, 0);
        }
    }

    /// Execute one controller action at time `now`.
    fn apply_action(&mut self, action: ControlAction, now: f64) {
        match action {
            ControlAction::AddReplica(spec) => {
                let spec = *spec;
                let idx = self.replicas.len();
                let devices = spec.model.options().plan.degree;
                let ready_s = now + spec.ready_delay_s.max(0.0);
                let mut replica =
                    Replica::new(idx, spec.model, spec.sched, self.cfg.prefix_capacity);
                replica.alive = false; // provisioning until the ready event
                if self.tracer.is_enabled() {
                    let track = REPLICA_TRACK_BASE.saturating_add(idx as u32);
                    self.tracer.name_track(track, &format!("replica {idx}"));
                    replica.record_decisions();
                }
                self.replicas.push(replica);
                self.loads.push(ReplicaLoad {
                    alive: false,
                    queued: 0,
                    outstanding: 0,
                });
                self.meta.push(ReplicaMeta {
                    devices,
                    generation: spec.generation,
                    born_s: now,
                    ready_s,
                    draining: false,
                    retired_s: None,
                    spot: spec.spot,
                    price_factor: spec.price_factor,
                    extra_s: 0.0,
                });
                self.cur_devices += devices;
                self.peak_devices = self.peak_devices.max(self.cur_devices);
                self.reconfigs += 1;
                self.dynamic_fleet = true;
                self.heap.push_at(ready_s, Source::Reconfig, idx as u64);
                self.trace_instant(
                    CONTROL_TRACK,
                    "provision",
                    now,
                    vec![
                        ("replica", idx.into()),
                        ("generation", u64::from(spec.generation).into()),
                    ],
                );
            }
            ControlAction::DrainReplica {
                replica,
                migration_s,
            } => {
                if replica >= self.replicas.len()
                    || self.meta[replica].draining
                    || self.meta[replica].retired_s.is_some()
                {
                    return;
                }
                self.meta[replica].draining = true;
                self.meta[replica].extra_s = migration_s.max(0.0);
                self.reconfigs += 1;
                self.dynamic_fleet = true;
                self.refresh_load(replica);
                self.trace_instant(
                    CONTROL_TRACK,
                    "drain",
                    now,
                    vec![("replica", replica.into())],
                );
                self.maybe_retire(replica, now);
            }
            ControlAction::SetCanary {
                generation,
                fraction,
            } => {
                self.canary = Some((generation, fraction.clamp(0.0, 1.0)));
                self.dynamic_fleet = true;
                self.trace_instant(
                    CONTROL_TRACK,
                    "canary",
                    now,
                    vec![
                        ("generation", u64::from(generation).into()),
                        ("fraction", fraction.into()),
                    ],
                );
            }
            ControlAction::ClearCanary => {
                if self.canary.take().is_some() {
                    self.trace_instant(CONTROL_TRACK, "canary-clear", now, vec![]);
                }
            }
        }
    }

    fn sample_counters(&mut self, now: f64) {
        if !self.tracer.is_enabled() {
            return;
        }
        let depth = self.queue.len().saturating_sub(self.queue_dead);
        self.tracer.counter("router-queue-depth", now, depth as f64);
        for r in &self.replicas {
            self.tracer.counter(
                &format!("outstanding-r{}", r.id),
                now,
                r.outstanding() as f64,
            );
        }
    }

    fn trace_instant(
        &mut self,
        track: moe_trace::TrackId,
        name: &str,
        t_s: f64,
        args: Vec<(&'static str, moe_trace::ArgValue)>,
    ) {
        if self.tracer.is_enabled() {
            self.tracer.instant(track, Category::Sched, name, t_s, args);
        }
    }

    /// Anything still live when no event source remains can never be
    /// served: parked at the router with every replica down for good, or
    /// resident on a replica whose KV pool can never admit it. Drop it.
    fn drain_unservable(&mut self) {
        self.dropped += self.live.len();
        self.live.clear();
        self.queue.clear();
        self.queue_dead = 0;
    }

    fn build_report(mut self) -> (ClusterReport, Tracer) {
        self.outputs.sort_by_key(|o| o.id);
        let per_replica: Vec<usize> = self.replicas.iter().map(|r| r.completed).collect();
        let hits: u64 = self.replicas.iter().map(|r| r.prefix_hits).sum();
        let misses: u64 = self.replicas.iter().map(|r| r.prefix_misses).sum();
        // Static fleets keep the exact legacy cost math (bit-identical
        // to prior releases); dynamic fleets integrate per-replica
        // lifetimes and report peak concurrently-held devices.
        let (devices, device_seconds) = if self.dynamic_fleet {
            (self.peak_devices, self.accrued_device_s(self.clock_s))
        } else {
            let devices = self.cfg.replicas * self.devices_per_replica;
            (devices, devices as f64 * self.clock_s)
        };
        let ttft = LatencySummary::from_histogram(&self.ttft_hist);
        let e2e = LatencySummary::from_histogram(&self.e2e_hist);
        let itl = LatencySummary::from_histogram(&self.itl_hist);
        let report = ClusterReport {
            policy: self.cfg.policy.label().to_string(),
            makespan_s: self.clock_s,
            submitted: self.submitted,
            completed: self.completed,
            timed_out: self.timed_out,
            dropped: self.dropped,
            rejected: self.rejected,
            retries: self.retry_count,
            crashes: self.crashes,
            events: self.events,
            peak_live: self.peak_live,
            prefix_hits: hits,
            prefix_misses: misses,
            ttft,
            e2e,
            itl,
            completed_tokens: self.tokens,
            throughput_tok_s: self.tokens as f64 / self.clock_s.max(1e-12),
            per_replica_completed: per_replica,
            devices,
            cost_per_token_device_s: device_seconds / (self.tokens as f64).max(1.0),
            device_s_per_request: device_seconds / (self.completed as f64).max(1.0),
            device_seconds,
            reconfigs: self.reconfigs,
            preemptions: self.preemptions,
            ttft_hist: self.ttft_hist,
            e2e_hist: self.e2e_hist,
            itl_hist: self.itl_hist,
            outputs: self.outputs,
        };
        (report, std::mem::take(&mut self.tracer))
    }
}

/// Convenience: accounting consistency checks shared by tests.
#[cfg(test)]
pub(crate) fn assert_accounted(report: &ClusterReport) {
    assert_eq!(
        report.completed + report.timed_out + report.dropped + report.rejected,
        report.submitted,
        "every request must reach exactly one terminal state: {report:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, TenantSpec, WorkloadSpec, WorkloadStream};
    use moe_gpusim::device::Cluster;
    use moe_gpusim::perfmodel::EngineOptions;
    use moe_model::registry::olmoe_1b_7b;

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
            ClusterSim::sized_for(
                &olmoe(),
                2048,
                cfg,
                FaultPlan::none(),
                small_trace(40, 10.0, 7),
            )
            .run(&mut Tracer::disabled())
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
            moe_json::to_string(&sim.run(&mut Tracer::disabled()))
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
    fn slowdown_degrades_but_does_not_lose_requests() {
        let cfg = base_cfg(RoutePolicy::LeastOutstanding);
        let trace = small_trace(60, 15.0, 21);
        let healthy = ClusterSim::sized_for(&olmoe(), 2048, cfg, FaultPlan::none(), trace.clone())
            .run(&mut Tracer::disabled());
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
        ClusterSim::sized_for(&olmoe(), 8192, cfg, FaultPlan::none(), trace)
            .run(&mut Tracer::disabled())
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
            moe_json::to_string(&sim.run(&mut Tracer::disabled()))
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
