//! One serving replica: a [`StepCore`] stepped asynchronously by the
//! cluster event loop. The replica is the core's only driver; a
//! single-engine run is a one-replica cluster ([`crate::serve_one_replica`]).
//!
//! The core plans, prices and commits steps; the replica only decides
//! *when*. It exposes step boundaries: the simulator starts a step
//! (planning admissions/preemptions and pricing it through the
//! simulation's shared [`PriceCache`]), learns its completion time, and
//! commits it when the cluster clock reaches that time. Requests
//! dispatched while a step is in flight join the scheduler's waiting
//! queue and are picked up by the next plan — the same semantics as a
//! real engine accepting work mid-iteration. Around the core the replica
//! keeps what only a cluster member has: liveness, a slowdown factor, the
//! step generation that invalidates stale completion events, and the
//! mapping from scheduler ids to cluster request ids.
//!
//! When tracing is on, each committed step renders on the replica's track
//! as a step span with one child per cost-model component, followed by
//! the scheduler decisions it carried (`admit` / `preempt` at its start,
//! `finish` at its end) under cluster request ids.
//!
//! The replica also models *prefix-cache locality* without token-level
//! KV: a bounded LRU of shared-prefix group ids. A dispatched request
//! whose group is resident skips recomputing its shared prefix, so its
//! prefill submits with `prompt_len - prefix_len` effective tokens (KV
//! block sharing included, as in vLLM automatic prefix caching). This is
//! the signal the prefix-affinity routing policies exploit.

use std::collections::{BTreeMap, HashMap};

use moe_gpusim::perfmodel::PerfModel;
use moe_runtime::inthash::IntHash;
use moe_runtime::request::{Request, RequestId};
use moe_runtime::scheduler::{SchedEvent, SchedulerConfig};
use moe_runtime::step::{Finished, PlannedStep, PriceCache, StepCore, StepShape};
use moe_trace::{Category, Tracer};

use crate::router::ReplicaLoad;
use crate::workload::ClusterRequest;
use crate::REPLICA_TRACK_BASE;

/// The step currently executing on the replica.
#[derive(Debug)]
struct InFlight {
    step: PlannedStep,
    end_s: f64,
    start_s: f64,
    /// The replica's slowdown when the step was priced.
    slowdown: f64,
    /// Monotonic step generation, matched against heap entries so a
    /// completion event scheduled for a step that a crash wiped out is
    /// recognized as stale instead of committing the wrong step.
    gen: u64,
}

/// One simulated engine replica.
#[derive(Debug)]
pub(crate) struct Replica {
    pub id: usize,
    core: StepCore,
    in_flight: Option<InFlight>,
    pub alive: bool,
    /// Step-time multiplier (1 = nominal; >1 while a slowdown fault is
    /// active). Applied when a step is *priced*, so an in-flight step
    /// keeps its original cost.
    pub slowdown: f64,
    /// Resident shared-prefix groups, LRU by stamp.
    prefix_lru: BTreeMap<u64, u64>,
    lru_clock: u64,
    prefix_capacity: usize,
    /// Scheduler id -> cluster request id, for resident requests. Only
    /// [`Self::crash`] reads it whole, in scheduler-id order.
    active: HashMap<RequestId, u64, IntHash>,
    /// Generation of the most recently started step (see [`InFlight::gen`]).
    step_gen: u64,
    pub prefix_hits: u64,
    pub prefix_misses: u64,
    pub completed: usize,
}

impl Replica {
    pub fn new(id: usize, model: PerfModel, cfg: SchedulerConfig, prefix_capacity: usize) -> Self {
        Self {
            id,
            core: StepCore::new(model, cfg),
            in_flight: None,
            alive: true,
            slowdown: 1.0,
            prefix_lru: BTreeMap::new(),
            lru_clock: 0,
            prefix_capacity,
            active: HashMap::default(),
            step_gen: 0,
            prefix_hits: 0,
            prefix_misses: 0,
            completed: 0,
        }
    }

    /// Turn on the scheduler's decision log, drained onto the trace at
    /// every commit. Only traced runs turn it on.
    pub fn record_decisions(&mut self) {
        self.core.set_record_events(true);
    }

    /// Queued + running requests (the router's coarse load signal).
    pub fn outstanding(&self) -> usize {
        self.core.scheduler().num_waiting() + self.core.scheduler().num_running()
    }

    /// Requests still waiting for their prefill (the router's
    /// TTFT-predictive load signal).
    pub fn queued(&self) -> usize {
        self.core.scheduler().num_waiting()
    }

    /// Generation of the in-flight step, if one is executing. A heap
    /// entry whose generation differs is stale.
    pub fn current_gen(&self) -> Option<u64> {
        self.in_flight.as_ref().map(|f| f.gen)
    }

    /// Snapshot of this replica's load for the router.
    pub fn load(&self) -> ReplicaLoad {
        ReplicaLoad {
            alive: self.alive,
            queued: self.queued(),
            outstanding: self.outstanding(),
        }
    }

    /// Accept a dispatched request. Consults the prefix LRU: a resident
    /// group discounts the effective prefill length by the shared prefix
    /// (at least one token always runs). Returns the scheduler-local id,
    /// or `None` when even an empty KV pool could not admit the prefill:
    /// the request could never run here, so the replica refuses it and
    /// leaves the LRU and its hit/miss counts untouched.
    pub fn enqueue(&mut self, req: &ClusterRequest) -> Option<RequestId> {
        let shares_prefix = req.prefix_len > 0 && self.prefix_capacity > 0;
        let hit = shares_prefix && self.prefix_lru.contains_key(&req.prefix_group);
        let effective = if hit {
            (req.prompt_len - req.prefix_len).max(1)
        } else {
            req.prompt_len
        };
        if !self.core.scheduler().blocks().fits_when_empty(effective) {
            return None;
        }
        if shares_prefix {
            self.prefix_touch(req.prefix_group);
            if hit {
                self.prefix_hits += 1;
            } else {
                self.prefix_misses += 1;
            }
        }
        let sched_id = self
            .core
            .submit(Request::new(effective, req.max_new_tokens));
        self.active.insert(sched_id, req.id);
        Some(sched_id)
    }

    /// Mark a prefix group most recently used, inserting it (and evicting
    /// the least recently used group past capacity) if it is not resident.
    fn prefix_touch(&mut self, group: u64) {
        self.lru_clock += 1;
        let stamp = self.lru_clock;
        if let Some(s) = self.prefix_lru.get_mut(&group) {
            *s = stamp;
            return;
        }
        self.prefix_lru.insert(group, stamp);
        while self.prefix_lru.len() > self.prefix_capacity {
            // Evict the least recently used group (min stamp; group id
            // breaks exact ties deterministically via iteration order of
            // the BTreeMap).
            let oldest = self
                .prefix_lru
                .iter()
                .min_by_key(|(g, s)| (**s, **g))
                .map(|(g, _)| *g);
            match oldest {
                Some(g) => self.prefix_lru.remove(&g),
                None => break,
            };
        }
    }

    /// Cancel a request (router timeout). True if it was still active.
    pub fn cancel(&mut self, sched_id: RequestId) -> bool {
        self.active.remove(&sched_id);
        self.core.cancel(sched_id)
    }

    /// If idle and alive, plan and price the next step (through the
    /// shared [`PriceCache`]); returns its completion time and
    /// generation. `None` when nothing starts.
    pub fn try_start_step(&mut self, now_s: f64, prices: &mut PriceCache) -> Option<(f64, u64)> {
        if !self.alive || self.in_flight.is_some() {
            return None;
        }
        // Nothing runs when the replica is empty, or when the head of its
        // waiting queue can never fit the KV pool; the simulator drops
        // such leftovers when the run drains.
        let step = self.core.plan(prices)?;
        let end_s = now_s + step.dt_s * self.slowdown;
        self.step_gen += 1;
        self.in_flight = Some(InFlight {
            step,
            end_s,
            start_s: now_s,
            slowdown: self.slowdown,
            gen: self.step_gen,
        });
        Some((end_s, self.step_gen))
    }

    /// Commit the in-flight step at its completion time, tracing it into
    /// `tracer` when enabled (see the module docs). Returns the requests
    /// that finished, with `id` mapped to the cluster request id.
    pub fn complete_step(&mut self, tracer: &mut Tracer) -> Option<Vec<Finished>> {
        let InFlight {
            step,
            end_s,
            start_s,
            slowdown,
            ..
        } = self.in_flight.take()?;
        let shape = step.shape;
        let mut done = self.core.commit(step, end_s);
        if tracer.is_enabled() {
            self.trace_step(tracer, shape, slowdown, start_s, end_s);
        }
        done.retain_mut(|f| match self.active.remove(&f.id) {
            Some(cluster_id) => {
                f.id = cluster_id;
                true
            }
            None => false,
        });
        self.completed += done.len();
        Some(done)
    }

    /// Emit a committed step and the scheduler decisions it carried onto
    /// this replica's track. Decisions about requests canceled mid-step
    /// have no cluster id left and are skipped.
    fn trace_step(
        &mut self,
        tracer: &mut Tracer,
        shape: StepShape,
        slowdown: f64,
        start_s: f64,
        end_s: f64,
    ) {
        let track = REPLICA_TRACK_BASE.saturating_add(self.id as u32);
        shape
            .forward_parts(self.core.model())
            .scaled(slowdown)
            .emit(tracer, track, shape.label(), start_s, shape.trace_args());
        for ev in self.core.drain_events() {
            let (name, id, t_s, arg) = match ev {
                SchedEvent::Admitted { id, context_tokens } => {
                    ("admit", id, start_s, ("tokens", context_tokens))
                }
                SchedEvent::Preempted { id, preemptions } => {
                    ("preempt", id, start_s, ("preemptions", preemptions))
                }
                SchedEvent::Finished { id, generated } => {
                    ("finish", id, end_s, ("generated", generated))
                }
            };
            if let Some(&req) = self.active.get(&id) {
                tracer.instant(
                    track,
                    Category::Sched,
                    name,
                    t_s,
                    vec![("req", req.into()), (arg.0, arg.1.into())],
                );
            }
        }
    }

    /// Kill the replica: the in-flight step is lost, every resident
    /// request fails back to the caller for retry, the scheduler and
    /// prefix cache restart cold. Returns the failed cluster request ids
    /// in scheduler-id (submission) order.
    pub fn crash(&mut self) -> Vec<u64> {
        self.alive = false;
        self.in_flight = None;
        self.slowdown = 1.0;
        self.prefix_lru.clear();
        self.core.reset();
        let mut failed: Vec<(RequestId, u64)> =
            std::mem::take(&mut self.active).into_iter().collect();
        failed.sort_unstable();
        failed
            .into_iter()
            .map(|(_, cluster_id)| cluster_id)
            .collect()
    }

    /// Bring a crashed replica back, empty and cold.
    pub fn recover(&mut self) {
        self.alive = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_gpusim::device::Cluster;
    use moe_gpusim::perfmodel::EngineOptions;
    use moe_model::registry::olmoe_1b_7b;
    use moe_runtime::simserver::scheduler_config_for;

    fn test_replica(prefix_capacity: usize) -> Replica {
        let model = PerfModel::new(
            olmoe_1b_7b(),
            Cluster::h100_node(1),
            EngineOptions::default(),
        )
        .unwrap();
        let cfg = scheduler_config_for(&model, 8192);
        Replica::new(0, model, cfg, prefix_capacity)
    }

    fn req(id: u64, prompt: usize, out: usize) -> ClusterRequest {
        ClusterRequest {
            id,
            arrival_s: 0.0,
            prompt_len: prompt,
            max_new_tokens: out,
            tenant: 0,
            prefix_group: 0,
            prefix_len: 0,
        }
    }

    fn run_to_drain(r: &mut Replica, mut now: f64) -> (Vec<Finished>, f64) {
        let mut prices = PriceCache::new();
        let mut done = Vec::new();
        let mut guard = 0;
        while let Some((end, _)) = r.try_start_step(now, &mut prices) {
            now = end;
            let fin = r
                .complete_step(&mut Tracer::disabled())
                .expect("step in flight");
            done.extend(fin);
            guard += 1;
            assert!(guard < 100_000);
        }
        (done, now)
    }

    #[test]
    fn steps_advance_and_finish_requests() {
        let mut r = test_replica(0);
        r.enqueue(&req(0, 128, 8));
        r.enqueue(&req(1, 128, 8));
        assert_eq!(r.outstanding(), 2);
        let (done, end) = run_to_drain(&mut r, 0.0);
        assert_eq!(done.len(), 2);
        assert!(end > 0.0);
        assert_eq!(r.outstanding(), 0);
        for f in &done {
            assert_eq!(f.generated, 8);
            assert!(f.first_token_s > 0.0 && f.finish_s >= f.first_token_s);
        }
    }

    #[test]
    fn prefix_hits_discount_prefill_time() {
        // Two identical-group requests back to back: the second prefill
        // is shorter, so total makespan shrinks versus two cold ones.
        // Long prompts matter here: MoE prefill is weight-streaming bound
        // below ~2k tokens, so only long shared prefixes buy real time.
        let shared = ClusterRequest {
            prefix_group: 7,
            prefix_len: 3584,
            ..req(0, 4096, 1)
        };
        let mut warm = test_replica(8);
        warm.enqueue(&shared);
        let (_, t1) = run_to_drain(&mut warm, 0.0);
        warm.enqueue(&ClusterRequest {
            id: 1,
            ..shared.clone()
        });
        let (_, t_warm) = run_to_drain(&mut warm, t1);
        assert_eq!(warm.prefix_hits, 1);
        assert_eq!(warm.prefix_misses, 1);

        let mut cold = test_replica(0);
        cold.enqueue(&shared);
        let (_, c1) = run_to_drain(&mut cold, 0.0);
        cold.enqueue(&ClusterRequest {
            id: 1,
            ..shared.clone()
        });
        let (_, t_cold) = run_to_drain(&mut cold, c1);
        assert!(
            t_warm - t1 < 0.7 * (t_cold - c1),
            "warm second request {t_warm} vs cold {t_cold}"
        );
    }

    #[test]
    fn prompts_no_empty_pool_can_admit_are_refused() {
        // Four 16-token blocks, one of them the admission reserve.
        let model = test_replica(0).core.model().clone();
        let cfg = SchedulerConfig {
            total_blocks: 4,
            block_tokens: 16,
            ..scheduler_config_for(&model, 8192)
        };
        let mut r = Replica::new(0, model, cfg, 2);
        assert!(r.enqueue(&req(0, 49, 1)).is_none());
        assert_eq!(r.outstanding(), 0, "a refused request is not queued");
        assert!(r.enqueue(&req(1, 48, 1)).is_some());

        // A resident prefix discounts an 80-token prompt to 40 tokens, so
        // it fits; a refused prompt leaves the LRU and its counts alone.
        let prefixed = |id, group| ClusterRequest {
            prefix_group: group,
            prefix_len: 40,
            ..req(id, 80, 1)
        };
        assert!(r
            .enqueue(&ClusterRequest {
                prompt_len: 48,
                ..prefixed(2, 7)
            })
            .is_some());
        assert!(r.enqueue(&prefixed(3, 7)).is_some());
        assert!(r.enqueue(&prefixed(4, 9)).is_none());
        assert_eq!((r.prefix_hits, r.prefix_misses), (1, 1));
        assert!(!r.prefix_lru.contains_key(&9));
    }

    #[test]
    fn prefix_lru_is_bounded() {
        let mut r = test_replica(2);
        for g in 0..5u64 {
            let mut q = req(g, 256, 1);
            q.prefix_group = g;
            q.prefix_len = 128;
            r.enqueue(&q);
        }
        assert!(r.prefix_lru.len() <= 2);
        assert_eq!(r.prefix_hits, 0, "distinct groups never hit");
    }

    #[test]
    fn crash_fails_active_requests_and_clears_state() {
        let mut r = test_replica(4);
        // Cluster ids out of order: the failed list follows enqueue
        // (scheduler-id) order, not the cluster ids or the hash order.
        let ids: Vec<u64> = (0..40).map(|i| (i * 7919) % 1000).collect();
        for &id in &ids {
            r.enqueue(&req(id, 128, 64));
        }
        let mut prices = PriceCache::new();
        let (end, _) = r.try_start_step(0.0, &mut prices).expect("step starts");
        assert!(end > 0.0);
        let failed = r.crash();
        assert_eq!(failed, ids);
        assert!(!r.alive);
        assert_eq!(r.outstanding(), 0);
        assert!(r.current_gen().is_none());
        assert!(
            r.try_start_step(1.0, &mut prices).is_none(),
            "dead replicas don't step"
        );
        r.recover();
        r.enqueue(&req(12, 64, 4));
        let (done, _) = run_to_drain(&mut r, 2.0);
        assert_eq!(done.len(), 1, "recovered replica serves again");
    }

    #[test]
    fn cancel_mid_flight_is_not_reported_finished() {
        let mut r = test_replica(0);
        let sid = r.enqueue(&req(0, 64, 1)).expect("fits"); // finishes at its prefill
        r.try_start_step(0.0, &mut PriceCache::new())
            .expect("step starts");
        assert!(r.cancel(sid));
        let done = r
            .complete_step(&mut Tracer::disabled())
            .expect("step in flight");
        assert!(done.is_empty(), "canceled request must not complete");
    }

    #[test]
    fn slowdown_scales_step_cost() {
        let mut prices = PriceCache::new();
        let mut a = test_replica(0);
        a.enqueue(&req(0, 256, 1));
        let (nominal, _) = a.try_start_step(0.0, &mut prices).expect("step");

        // The second replica reuses the shared cache: the scaled cost
        // must come out of the cached nominal price.
        let mut b = test_replica(0);
        b.slowdown = 3.0;
        b.enqueue(&req(0, 256, 1));
        let (slowed, _) = b.try_start_step(0.0, &mut prices).expect("step");
        assert!((slowed - 3.0 * nominal).abs() < 1e-9 * nominal.max(1.0));
    }
}
