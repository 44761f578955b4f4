//! Sharded cluster execution: independent replica groups across
//! `moe-par` workers, merged into one deterministic report.
//!
//! ## The sharding model
//!
//! A [`ShardPlan`] splits a planet-scale deployment into shards of
//! `replicas_per_shard` replicas, grouped into named [`RegionTier`]s
//! with a per-tier network round trip. Requests are partitioned by a
//! seeded hash of their prefix group (falling back to the request id),
//! so a shared-prefix family always lands on one shard and
//! prefix-affinity routing keeps working inside it. Shards share
//! nothing — no router, queue or cache state crosses the boundary — so
//! each one is an ordinary [`ClusterSim`] that can run on any worker.
//!
//! ## Why the merge is deterministic
//!
//! Each shard's simulation is a pure function of its `(sub-trace,
//! config, sub-plan)` triple: the partition is seeded hashing, the
//! per-shard seed comes from `derive_seed`, and nothing reads the
//! worker that happened to execute it. `moe_par::map_collect` returns
//! results **in index order regardless of the steal schedule**, and the
//! merge folds counters, histograms and per-replica vectors in that
//! fixed shard order — u64 sums and histogram bucket adds are
//! associative, and the two float folds (makespan max, histogram sums)
//! happen sequentially on the caller's thread in shard order. The
//! merged report is therefore byte-identical across `MOE_THREADS`
//! settings, which `tests/determinism.rs` gates at 1000-replica scale.
//! `docs/SCALE.md` walks the argument end to end.

use moe_gpusim::perfmodel::PerfModel;
use moe_json::{FromJson, ToJson};
use moe_runtime::scheduler::SchedulerConfig;
use moe_runtime::simserver::scheduler_config_for;
use moe_trace::Tracer;

use crate::fault::FaultPlan;
use crate::fleet::FleetTotals;
use crate::router::mix;
use crate::sim::{ClusterConfig, ClusterReport, ClusterSim};
use crate::tally::Tally;
use crate::workload::{
    ArrivalSource, ClusterRequest, RequestTrace, TraceSource, WorkloadSpec, WorkloadStream,
};

/// Salt decorrelating shard placement from the router's affinity
/// hashes, which reuse the same mixer with the raw config seed.
const SHARD_SALT: u64 = 0x5ead_c0de_57ab_1e11;

/// A group of shards sharing a network position relative to the
/// workload's users.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct RegionTier {
    /// Display name ("us-east", "ap-south", …).
    pub name: String,
    /// Number of shards in this tier.
    pub shards: usize,
    /// User-to-region network round trip (s), added to every TTFT/E2E
    /// sample recorded by this tier's shards via
    /// [`ClusterConfig::latency_offset_s`].
    pub rtt_s: f64,
}

/// How to split a deployment into independently simulated shards.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct ShardPlan {
    /// Replicas per shard (each shard is one [`ClusterSim`]).
    pub replicas_per_shard: usize,
    /// Region tiers in declaration order; shard indices are assigned
    /// tier by tier, so tier boundaries are cumulative shard counts.
    pub tiers: Vec<RegionTier>,
}

impl ShardPlan {
    /// A single-region plan: `shards` shards with zero network offset.
    pub fn single_region(shards: usize, replicas_per_shard: usize) -> Self {
        Self {
            replicas_per_shard,
            tiers: vec![RegionTier {
                name: "local".to_string(),
                shards,
                rtt_s: 0.0,
            }],
        }
    }

    /// Total shard count across tiers.
    pub fn shards(&self) -> usize {
        self.tiers.iter().map(|t| t.shards).sum()
    }

    /// Total replica count across shards.
    pub fn replicas(&self) -> usize {
        self.shards() * self.replicas_per_shard
    }

    /// The tier owning a shard index (shards are dealt tier by tier).
    fn tier_of(&self, shard: usize) -> Option<&RegionTier> {
        let mut base = 0;
        for t in &self.tiers {
            if shard < base + t.shards {
                return Some(t);
            }
            base += t.shards;
        }
        None
    }

    /// The network round trip priced into a shard's latency samples.
    fn rtt_of(&self, shard: usize) -> f64 {
        self.tier_of(shard).map_or(0.0, |t| t.rtt_s)
    }
}

/// The shard a request lands on: a seeded hash of its prefix group when
/// it has one (keeping shared-prefix families together for affinity
/// routing), else of its id. Pure and stateless, so the partition is
/// identical however the requests are enumerated.
fn shard_of(req: &ClusterRequest, seed: u64, shards: usize) -> usize {
    let key = if req.prefix_len > 0 {
        req.prefix_group
    } else {
        req.id
    };
    (mix(seed ^ SHARD_SALT, key) % shards.max(1) as u64) as usize
}

/// An [`ArrivalSource`] yielding only one shard's slice of a lazily
/// generated workload. Each shard walks the full stream and filters, so
/// memory stays O(1) in trace length at the cost of `shards` redundant
/// generation passes — the trade the fully streaming mode makes.
#[derive(Debug)]
pub struct ShardStream {
    inner: WorkloadStream,
    part_seed: u64,
    shard: usize,
    shards: usize,
}

impl ShardStream {
    /// Shard `shard` of `shards` over `spec` generated with
    /// `workload_seed`; `part_seed` keys the placement hash (the trace
    /// path uses the cluster config seed, so pass the same one here to
    /// replay a materialized sharded run byte-identically).
    pub fn new(
        spec: WorkloadSpec,
        workload_seed: u64,
        part_seed: u64,
        shard: usize,
        shards: usize,
    ) -> Self {
        Self {
            inner: WorkloadStream::new(spec, workload_seed),
            part_seed,
            shard,
            shards,
        }
    }
}

impl ArrivalSource for ShardStream {
    fn next_request(&mut self) -> Option<ClusterRequest> {
        loop {
            let req = self.inner.next_request()?;
            if shard_of(&req, self.part_seed, self.shards) == self.shard {
                return Some(req);
            }
        }
    }
}

/// Split a fault plan over shards: global replica `g` maps to local
/// replica `g % replicas_per_shard` on shard `g / replicas_per_shard`.
/// Each sub-plan stays time-sorted (a subsequence of a sorted list).
fn partition_faults(plan: &FaultPlan, shards: usize, per_shard: usize) -> Vec<FaultPlan> {
    let mut parts = vec![FaultPlan::none(); shards];
    for ev in &plan.events {
        let g = ev.replica();
        let shard = g / per_shard.max(1);
        if shard >= shards {
            continue; // fault targets a replica outside the plan
        }
        let mut local = ev.clone();
        local.retarget(g % per_shard.max(1));
        parts[shard].events.push(local);
    }
    parts
}

fn shard_config(base: &ClusterConfig, plan: &ShardPlan, shard: usize) -> ClusterConfig {
    let mut cfg = *base;
    cfg.replicas = plan.replicas_per_shard;
    cfg.seed = moe_par::derive_seed(base.seed, shard as u64);
    cfg.latency_offset_s = base.latency_offset_s + plan.rtt_of(shard);
    cfg
}

/// The one sharded runner behind [`run_sharded`] and
/// [`run_sharded_stream`]: split the faults over shards, simulate every
/// shard on the `moe-par` pool fed by `source(shard)`, and merge in shard
/// order. Returns the merged report plus every per-shard report; both
/// are byte-identical for any worker count.
fn run_shards(
    model: &PerfModel,
    sched: SchedulerConfig,
    base: &ClusterConfig,
    plan: &ShardPlan,
    faults: &FaultPlan,
    source: impl Fn(usize) -> Box<dyn ArrivalSource> + Sync,
) -> (ClusterReport, Vec<ClusterReport>) {
    let fault_parts = partition_faults(faults, plan.shards().max(1), plan.replicas_per_shard);
    let reports = moe_par::map_collect(fault_parts.len(), |s| {
        let cfg = shard_config(base, plan, s);
        ClusterSim::with_source(model, sched, cfg, fault_parts[s].clone(), source(s))
            .run(&mut Tracer::disabled())
    });
    (merge_reports(&reports), reports)
}

/// Run a sharded deployment over a materialized trace and return the
/// merged report plus every per-shard report (for tier breakdowns).
pub fn run_sharded(
    model: &PerfModel,
    sched: SchedulerConfig,
    base: &ClusterConfig,
    plan: &ShardPlan,
    faults: &FaultPlan,
    trace: &RequestTrace,
) -> (ClusterReport, Vec<ClusterReport>) {
    let shards = plan.shards().max(1);
    // Each shard copies only its own slice, in trace order.
    run_shards(model, sched, base, plan, faults, |s| {
        let requests = trace
            .requests
            .iter()
            .filter(|r| shard_of(r, base.seed, shards) == s)
            .cloned()
            .collect();
        Box::new(TraceSource::new(RequestTrace { requests }))
    })
}

/// Fully streaming sharded run: every shard draws its slice lazily from
/// the workload spec, so peak memory is bounded by peak concurrency even
/// at millions of requests. `sized_for`-style KV sizing via `max_seq`.
pub fn run_sharded_stream(
    model: &PerfModel,
    max_seq: usize,
    base: &ClusterConfig,
    plan: &ShardPlan,
    faults: &FaultPlan,
    spec: &WorkloadSpec,
    workload_seed: u64,
) -> ClusterReport {
    let sched = scheduler_config_for(model, max_seq);
    let shards = plan.shards().max(1);
    run_shards(model, sched, base, plan, faults, |s| {
        Box::new(ShardStream::new(
            spec.clone(),
            workload_seed,
            base.seed,
            s,
            shards,
        ))
    })
    .0
}

/// Fold per-shard reports into one deployment-level report, in shard
/// order. Counters and histogram buckets are integer sums; makespan is
/// the max; latency summaries are recomputed from the merged
/// histograms; `peak_live` sums shard high-water marks (an upper bound
/// on global concurrency, since shard peaks need not coincide).
pub fn merge_reports(reports: &[ClusterReport]) -> ClusterReport {
    let mut tally = Tally::default();
    let mut fleet = FleetTotals::default();
    let mut makespan: f64 = 0.0;
    for r in reports {
        tally.absorb(r);
        makespan = makespan.max(r.makespan_s);
        fleet.per_replica_completed.extend(&r.per_replica_completed);
        fleet.prefix_hits += r.prefix_hits;
        fleet.prefix_misses += r.prefix_misses;
        fleet.devices += r.devices;
        fleet.reconfigs += r.reconfigs;
        fleet.preemptions += r.preemptions;
    }
    fleet.device_seconds = fleet.devices as f64 * makespan;
    let policy = reports
        .first()
        .map_or_else(String::new, |r| r.policy.clone());
    tally.into_report(policy, makespan, fleet)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultEvent;
    use crate::sim::tests::assert_accounted;
    use crate::workload::{generate, TenantSpec};
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

    fn base_cfg() -> ClusterConfig {
        ClusterConfig {
            seed: 11,
            ..ClusterConfig::default()
        }
    }

    fn spec(n: usize) -> WorkloadSpec {
        WorkloadSpec::poisson(40.0, n, TenantSpec::uniform("t", 1.0, (128, 256), (16, 32)))
    }

    #[test]
    fn shard_of_covers_every_shard_and_keeps_prefix_families_together() {
        let trace = generate(&spec(200), 3);
        let mut per_shard = [0usize; 4];
        for r in &trace.requests {
            per_shard[shard_of(r, 11, 4)] += 1;
        }
        assert_eq!(per_shard.iter().sum::<usize>(), 200);
        assert!(per_shard.iter().all(|&n| n > 0), "{per_shard:?}");
        // Shared-prefix families stay together.
        let heavy = generate(&WorkloadSpec::prefix_heavy(50.0, 300), 5);
        let mut home = std::collections::BTreeMap::new();
        for r in heavy.requests.iter().filter(|r| r.prefix_len > 0) {
            let s = shard_of(r, 11, 4);
            assert_eq!(*home.entry(r.prefix_group).or_insert(s), s);
        }
        assert!(home.len() > 1, "prefix-heavy mix must have families");
    }

    #[test]
    fn fault_partition_remaps_global_to_local() {
        let plan = FaultPlan {
            events: vec![
                FaultEvent::Crash {
                    t_s: 1.0,
                    replica: 0,
                },
                FaultEvent::Crash {
                    t_s: 2.0,
                    replica: 5,
                },
                FaultEvent::Recover {
                    t_s: 3.0,
                    replica: 5,
                },
                FaultEvent::Crash {
                    t_s: 4.0,
                    replica: 99,
                },
            ],
        };
        let parts = partition_faults(&plan, 3, 2);
        assert_eq!(parts[0].events.len(), 1);
        assert_eq!(parts[0].events[0].replica(), 0);
        assert_eq!(parts[2].events.len(), 2);
        assert_eq!(parts[2].events[0].replica(), 1, "global 5 -> local 1");
        // Replica 99 is outside the 6-replica plan: dropped.
        assert_eq!(parts.iter().map(|p| p.events.len()).sum::<usize>(), 3);
    }

    #[test]
    fn merged_report_accounts_for_every_request() {
        let model = olmoe();
        let sched = scheduler_config_for(&model, 2048);
        let trace = generate(&spec(240), 7);
        let plan = ShardPlan::single_region(4, 2);
        let (merged, per_shard) = run_sharded(
            &model,
            sched,
            &base_cfg(),
            &plan,
            &FaultPlan::none(),
            &trace,
        );
        assert_eq!(per_shard.len(), 4);
        assert_eq!(merged.submitted, 240);
        assert_accounted(&merged);
        per_shard.iter().for_each(assert_accounted);
        assert_eq!(merged.devices, 8);
        assert_eq!(merged.per_replica_completed.len(), 8);
        assert_eq!(
            merged.completed_tokens,
            per_shard.iter().map(|r| r.completed_tokens).sum::<u64>()
        );
        assert_eq!(merged.ttft_hist.count(), merged.completed as u64);
        let max_shard_makespan = per_shard
            .iter()
            .map(|r| r.makespan_s)
            .fold(0.0f64, f64::max);
        assert_eq!(merged.makespan_s, max_shard_makespan);
    }

    #[test]
    fn stream_mode_matches_trace_mode_byte_for_byte() {
        let model = olmoe();
        let sched = scheduler_config_for(&model, 2048);
        let cfg = base_cfg();
        let plan = ShardPlan::single_region(3, 2);
        let w = spec(150);
        let (from_trace, _) = run_sharded(
            &model,
            sched,
            &cfg,
            &plan,
            &FaultPlan::none(),
            &generate(&w, 9),
        );
        let from_stream = run_sharded_stream(&model, 2048, &cfg, &plan, &FaultPlan::none(), &w, 9);
        assert_accounted(&from_trace);
        assert_eq!(
            moe_json::to_string(&from_trace),
            moe_json::to_string(&from_stream)
        );
    }

    #[test]
    fn region_tiers_price_the_round_trip_into_the_tail() {
        let model = olmoe();
        let sched = scheduler_config_for(&model, 2048);
        let trace = generate(&spec(200), 13);
        let local = ShardPlan::single_region(2, 2);
        let far = ShardPlan {
            replicas_per_shard: 2,
            tiers: vec![RegionTier {
                name: "ap-south".to_string(),
                shards: 2,
                rtt_s: 0.25,
            }],
        };
        let (near, _) = run_sharded(
            &model,
            sched,
            &base_cfg(),
            &local,
            &FaultPlan::none(),
            &trace,
        );
        let (remote, _) = run_sharded(&model, sched, &base_cfg(), &far, &FaultPlan::none(), &trace);
        assert_accounted(&near);
        assert_accounted(&remote);
        assert!((remote.ttft.max_s - near.ttft.max_s - 0.25).abs() < 1e-9);
        assert_eq!(remote.itl, near.itl, "rtt does not touch inter-token gaps");
        assert_eq!(far.tier_of(1).map(|t| t.name.as_str()), Some("ap-south"));
        assert_eq!(far.tier_of(2), None);
        assert_eq!(far.replicas(), 4);
    }
}
