//! The replica fleet: the replicas, their router loads and lifecycle
//! (provision, drain, retire, spot reclaim), canary routing, and the
//! device-seconds cost (the MoE-CAP axis). A static fleet pays exactly
//! `devices x makespan`; a controller, drain or reclaim makes it
//! *dynamic*, and each replica then pays `devices x price_factor` per
//! second from birth to retirement, plus its migration tail.

use moe_gpusim::perfmodel::PerfModel;
use moe_runtime::scheduler::SchedulerConfig;
use moe_trace::Tracer;

use crate::ctrl::{ReplicaObs, ReplicaSpec};
use crate::events::EPS;
use crate::replica::Replica;
use crate::router::{mix, ReplicaLoad, Router};
use crate::sim::ClusterConfig;
use crate::REPLICA_TRACK_BASE;

/// Salt decorrelating canary membership hashes from the router's
/// affinity hashes and the shard partition, which share the mixer.
const CANARY_SALT: u64 = 0xca4a_57e1_0000_00d5;

/// Is request `id` in the canary slice of size `frac`? A pure seeded
/// hash, so membership is stable across retries and replays.
fn canary_pick(seed: u64, id: u64, frac: f64) -> bool {
    let h = mix(seed ^ CANARY_SALT, id);
    ((h >> 11) as f64 / (1u64 << 53) as f64) < frac
}

/// Lifecycle bookkeeping for one replica slot, parallel to
/// [`Fleet::replicas`].
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
    fn new(model: &PerfModel, generation: u32, born_s: f64, ready_s: f64) -> Self {
        Self {
            devices: model.options().plan.degree,
            generation,
            born_s,
            ready_s,
            draining: false,
            retired_s: None,
            spot: false,
            price_factor: 1.0,
            extra_s: 0.0,
        }
    }
}

/// The fleet's fields of a [`crate::ClusterReport`], documented there.
#[derive(Debug, Default)]
pub(crate) struct FleetTotals {
    pub devices: usize,
    pub device_seconds: f64,
    pub per_replica_completed: Vec<usize>,
    pub prefix_hits: u64,
    pub prefix_misses: u64,
    pub reconfigs: usize,
    pub preemptions: usize,
}

/// The replicas and their lifecycle and cost state.
#[derive(Debug, Default)]
pub(crate) struct Fleet {
    pub replicas: Vec<Replica>,
    /// Per-replica load snapshots, updated at every mutation instead of
    /// rebuilt per routing decision.
    pub loads: Vec<ReplicaLoad>,
    meta: Vec<ReplicaMeta>,
    /// Lifetime-integrated cost accounting is in effect (controller
    /// configured, replica added/drained, or a preemption applied).
    pub dynamic: bool,
    /// Active canary split: `(generation, fraction)`.
    pub canary: Option<(u32, f64)>,
    /// Reconfiguration actions executed (replica adds + drain starts).
    pub reconfigs: usize,
    /// Spot preemptions applied.
    pub preemptions: usize,
    /// Devices held by non-retired replicas right now, and the peak.
    cur_devices: usize,
    peak_devices: usize,
    /// [`ClusterConfig::prefix_capacity`] and [`ClusterConfig::seed`].
    prefix_capacity: usize,
    seed: u64,
}

impl Fleet {
    /// `cfg.replicas` identical replicas of `model`, alive from time 0.
    pub fn new(model: &PerfModel, sched: SchedulerConfig, cfg: &ClusterConfig) -> Self {
        let mut fleet = Self {
            prefix_capacity: cfg.prefix_capacity,
            seed: cfg.seed,
            ..Self::default()
        };
        for i in 0..cfg.replicas {
            let replica = Replica::new(i, model.clone(), sched, cfg.prefix_capacity);
            fleet.push(replica, ReplicaMeta::new(model, 0, 0.0, 0.0));
        }
        fleet
    }

    fn push(&mut self, replica: Replica, meta: ReplicaMeta) {
        self.loads.push(replica.load());
        self.replicas.push(replica);
        self.cur_devices += meta.devices;
        self.peak_devices = self.peak_devices.max(self.cur_devices);
        self.meta.push(meta);
    }

    /// Name replica `idx`'s trace track and turn on its decision log.
    pub fn trace_replica(&mut self, idx: usize, tracer: &mut Tracer) {
        let track = REPLICA_TRACK_BASE.saturating_add(idx as u32);
        tracer.name_track(track, &format!("replica {idx}"));
        self.replicas[idx].record_decisions();
    }

    pub fn is_retired(&self, idx: usize) -> bool {
        self.meta[idx].retired_s.is_some()
    }

    /// Re-read replica `idx`'s load. Draining and retired replicas are
    /// closed to new dispatches; routing liveness is the replica's own
    /// liveness otherwise.
    pub fn refresh_load(&mut self, idx: usize) {
        let mut load = self.replicas[idx].load();
        let m = &self.meta[idx];
        if m.draining || m.retired_s.is_some() {
            load.alive = false;
        }
        self.loads[idx] = load;
    }

    /// Pick the replica for request `id`. Under a canary split each side
    /// is restricted to its generations, falling back to the whole fleet
    /// if a side is empty (e.g. the old generation fully drained).
    pub fn route(&self, router: &mut Router, id: u64, key: Option<u64>) -> Option<usize> {
        let Some((generation, frac)) = self.canary else {
            return router.choose(&self.loads, key);
        };
        let is_canary = canary_pick(self.seed, id, frac);
        let masked: Vec<ReplicaLoad> = self
            .loads
            .iter()
            .zip(&self.meta)
            .map(|(l, m)| ReplicaLoad {
                alive: l.alive && (m.generation == generation) == is_canary,
                ..*l
            })
            .collect();
        if masked.iter().any(|l| l.alive) {
            router.choose(&masked, key)
        } else {
            router.choose(&self.loads, key)
        }
    }

    /// Provision a replica from `spec` at `now`, closed until its ready
    /// event. Returns its index and ready time.
    pub fn provision(&mut self, spec: ReplicaSpec, now: f64, tracer: &mut Tracer) -> (usize, f64) {
        let idx = self.replicas.len();
        let ready_s = now + spec.ready_delay_s.max(0.0);
        let meta = ReplicaMeta {
            spot: spec.spot,
            price_factor: spec.price_factor,
            ..ReplicaMeta::new(&spec.model, spec.generation, now, ready_s)
        };
        let mut replica = Replica::new(idx, spec.model, spec.sched, self.prefix_capacity);
        replica.alive = false;
        self.push(replica, meta);
        if tracer.is_enabled() {
            self.trace_replica(idx, tracer);
        }
        self.reconfigs += 1;
        self.dynamic = true;
        (idx, ready_s)
    }

    /// A provisioning replica's ready delay elapsed: bring it online,
    /// unless a preemption already reclaimed the slot. True if it came up.
    pub fn activate(&mut self, idx: usize) -> bool {
        if idx >= self.replicas.len() || self.is_retired(idx) || self.replicas[idx].alive {
            return false;
        }
        self.replicas[idx].recover();
        self.refresh_load(idx);
        true
    }

    /// Close replica `idx` to new dispatches, charging `migration_s` at
    /// retirement. False if it is unknown, already draining or retired.
    pub fn drain(&mut self, idx: usize, migration_s: f64) -> bool {
        if idx >= self.replicas.len() || self.meta[idx].draining || self.is_retired(idx) {
            return false;
        }
        self.meta[idx].draining = true;
        self.meta[idx].extra_s = migration_s.max(0.0);
        self.reconfigs += 1;
        self.dynamic = true;
        self.refresh_load(idx);
        true
    }

    /// Retire a draining replica once it holds no work, so it stops
    /// accruing device-seconds after its migration tail. True if it did.
    pub fn try_retire(&mut self, idx: usize, now: f64) -> bool {
        let r = &self.replicas[idx];
        if !self.meta[idx].draining
            || self.is_retired(idx)
            || r.outstanding() > 0
            || r.current_gen().is_some()
        {
            return false;
        }
        self.replicas[idx].alive = false;
        self.retire(idx, now);
        self.refresh_load(idx);
        true
    }

    /// Spot reclaim: a crash that also retires the slot, with no
    /// migration tail. Returns the failed cluster request ids.
    pub fn reclaim(&mut self, idx: usize, now: f64) -> Vec<u64> {
        self.preemptions += 1;
        self.dynamic = true;
        self.meta[idx].extra_s = 0.0;
        self.retire(idx, now);
        self.replicas[idx].crash()
    }

    fn retire(&mut self, idx: usize, now: f64) {
        self.meta[idx].retired_s = Some(now);
        self.cur_devices = self.cur_devices.saturating_sub(self.meta[idx].devices);
    }

    /// Device-seconds accrued by the whole fleet up to `now`: each
    /// replica pays `devices x price_factor` per second from birth to
    /// retirement (plus its migration tail) or to `now` if still held.
    /// Summed in fleet index order, so the fold is deterministic.
    pub fn accrued_device_s(&self, now: f64) -> f64 {
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

    /// The report's fleet fields at the end of a run of `makespan_s`. A
    /// static fleet keeps the exact `devices x makespan` product
    /// (bit-identical to prior releases); a dynamic one reports its peak
    /// concurrently-held devices and integrates lifetimes.
    pub fn totals(&self, makespan_s: f64) -> FleetTotals {
        let device_seconds = if self.dynamic {
            self.accrued_device_s(makespan_s)
        } else {
            self.peak_devices as f64 * makespan_s
        };
        FleetTotals {
            devices: self.peak_devices,
            device_seconds,
            per_replica_completed: self.replicas.iter().map(|r| r.completed).collect(),
            prefix_hits: self.replicas.iter().map(|r| r.prefix_hits).sum(),
            prefix_misses: self.replicas.iter().map(|r| r.prefix_misses).sum(),
            reconfigs: self.reconfigs,
            preemptions: self.preemptions,
        }
    }

    /// Snapshot every replica slot for the controller.
    pub fn obs(&self, now: f64) -> Vec<ReplicaObs> {
        self.replicas
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
            .collect()
    }
}
