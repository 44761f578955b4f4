//! `ext-scale`: planet-scale serving simulations on the sharded
//! cluster core.
//!
//! Two studies, both on the diurnal think-time workload
//! ([`WorkloadSpec::diurnal_users`]: a population of users issuing a
//! request every ~5 simulated minutes, so offered load tracks a
//! day/night cycle):
//!
//! * **Scale ladder** — deployments from tens to a thousand OLMoE
//!   replicas fed lazily via [`run_sharded_stream`], with crash faults
//!   scaled to fleet size. The table records the simulator's own scale
//!   evidence alongside serving quality: total events processed and the
//!   `peak_live` high-water mark, which stays a tiny fraction of the
//!   submitted request count because aggregation is streaming
//!   (histograms, not per-request rows).
//! * **Multi-region tiers** — one deployment split across us-east /
//!   eu-west / ap-south region tiers whose network round trip is priced
//!   into user-perceived TTFT via [`ClusterConfig::latency_offset_s`].
//!   Per-tier rows come from the same sharded run's per-shard reports,
//!   merged tier by tier.
//!
//! Wall-clock throughput (events/sec) is deliberately absent here —
//! experiments report simulated metrics only; the committed trajectory
//! lives in `BENCH_cluster.json` via `cargo bench -p moe-bench --bench
//! cluster` (see `docs/SCALE.md`).

use moe_cluster::shard::merge_reports;
use moe_cluster::{
    run_sharded, run_sharded_stream, ClusterConfig, ClusterReport, FaultPlan, RegionTier,
    RoutePolicy, ShardPlan, WorkloadSpec,
};
use moe_gpusim::perfmodel::PerfModel;
use moe_model::registry::olmoe_1b_7b;
use moe_runtime::simserver::scheduler_config_for;
use moe_trace::Tracer;

use crate::report::{num, secs, ExperimentReport, Table};

/// TTFT service-level objective for attainment columns. Looser than the
/// single-cluster SLO because the remote tiers carry up to 120 ms of
/// network round trip before the first token can land.
pub const SCALE_TTFT_SLO_S: f64 = 0.25;

/// Mean think time between a user's requests (s).
const THINK_S: f64 = 300.0;

/// One scale-ladder rung: a sharded deployment and its offered load.
struct Rung {
    shards: usize,
    replicas_per_shard: usize,
    users: u64,
    requests: usize,
}

impl Rung {
    fn replicas(&self) -> usize {
        self.shards * self.replicas_per_shard
    }
}

fn ladder(fast: bool) -> Vec<Rung> {
    if fast {
        vec![
            Rung {
                shards: 4,
                replicas_per_shard: 4,
                users: 10_000,
                requests: 3_000,
            },
            Rung {
                shards: 8,
                replicas_per_shard: 8,
                users: 40_000,
                requests: 6_000,
            },
        ]
    } else {
        vec![
            Rung {
                shards: 8,
                replicas_per_shard: 8,
                users: 40_000,
                requests: 12_000,
            },
            Rung {
                shards: 16,
                replicas_per_shard: 16,
                users: 150_000,
                requests: 40_000,
            },
            Rung {
                shards: 32,
                replicas_per_shard: 32,
                users: 600_000,
                requests: 100_000,
            },
        ]
    }
}

fn base_config() -> ClusterConfig {
    let mut cfg = ClusterConfig {
        policy: RoutePolicy::LeastOutstanding,
        seed: 42,
        ..ClusterConfig::default()
    };
    cfg.router.ttft_timeout_s = 2.0;
    cfg
}

/// Crash faults proportional to fleet size: one outage per ~100
/// replicas over the busy first 15 simulated seconds.
fn faults_for(replicas: usize) -> FaultPlan {
    FaultPlan::random_crashes(42, replicas, 15.0, (replicas / 100).max(1), 5.0)
}

fn run_rung(model: &PerfModel, rung: &Rung) -> ClusterReport {
    let plan = ShardPlan::single_region(rung.shards, rung.replicas_per_shard);
    let spec = WorkloadSpec::diurnal_users(rung.users, THINK_S, rung.requests);
    run_sharded_stream(
        model,
        2048,
        &base_config(),
        &plan,
        &faults_for(rung.replicas()),
        &spec,
        42,
    )
}

/// The multi-region plan: shard counts scale with `per_tier` so the
/// fast preset stays a smoke test.
fn region_plan(per_tier: usize, replicas_per_shard: usize) -> ShardPlan {
    ShardPlan {
        replicas_per_shard,
        tiers: vec![
            RegionTier {
                name: "us-east".to_string(),
                shards: 2 * per_tier,
                rtt_s: 0.0,
            },
            RegionTier {
                name: "eu-west".to_string(),
                shards: per_tier,
                rtt_s: 0.03,
            },
            RegionTier {
                name: "ap-south".to_string(),
                shards: per_tier,
                rtt_s: 0.12,
            },
        ],
    }
}

pub(crate) fn build(report: &mut ExperimentReport, fast: bool, _tracer: &mut Tracer) {
    let model = PerfModel::h100(olmoe_1b_7b());

    // Study 1: the scale ladder, fully streaming.
    let mut t = Table::new(
        "Scale ladder (streaming arrivals, crash faults, diurnal traffic)",
        &[
            "replicas",
            "users",
            "submitted",
            "completed",
            "events",
            "peak-live",
            "live/submitted",
            "makespan",
            "tok/s (sim)",
            "p99 TTFT",
            "SLO@250ms",
        ],
    );
    for rung in ladder(fast) {
        let r = run_rung(&model, &rung);
        t.row(vec![
            rung.replicas().to_string(),
            rung.users.to_string(),
            r.submitted.to_string(),
            r.completed.to_string(),
            r.events.to_string(),
            r.peak_live.to_string(),
            num(r.peak_live as f64 / (r.submitted as f64).max(1.0)),
            secs(r.makespan_s),
            num(r.throughput_tok_s),
            secs(r.ttft.p99_s),
            num(r.slo_attainment(SCALE_TTFT_SLO_S)),
        ]);
    }
    report.table(t);
    report.note(
        "peak-live is the simulator's memory high-water mark in requests: it tracks \
         concurrency (users x duty cycle), not trace length, because latency aggregation \
         streams into fixed-size histograms and arrivals are generated lazily per shard.",
    );

    // Study 2: multi-region tiers over one sharded deployment.
    let (per_tier, per_shard, users, requests) = if fast {
        (2, 4, 12_000, 4_000)
    } else {
        (8, 16, 250_000, 60_000)
    };
    let plan = region_plan(per_tier, per_shard);
    let spec = WorkloadSpec::diurnal_users(users, THINK_S, requests);
    let trace = moe_cluster::generate(&spec, 42);
    let sched = scheduler_config_for(&model, 2048);
    let (merged, per_shard_reports) = run_sharded(
        &model,
        sched,
        &base_config(),
        &plan,
        &faults_for(plan.replicas()),
        &trace,
    );
    let mut t = Table::new(
        "Multi-region tiers (network RTT priced into user-perceived TTFT)",
        &[
            "tier",
            "shards",
            "replicas",
            "rtt",
            "submitted",
            "completed",
            "p50 TTFT",
            "p99 TTFT",
            "SLO@250ms",
        ],
    );
    let mut base = 0;
    for tier in &plan.tiers {
        let slice = &per_shard_reports[base..base + tier.shards];
        base += tier.shards;
        let tr = merge_reports(slice);
        t.row(vec![
            tier.name.clone(),
            tier.shards.to_string(),
            (tier.shards * plan.replicas_per_shard).to_string(),
            secs(tier.rtt_s),
            tr.submitted.to_string(),
            tr.completed.to_string(),
            secs(tr.ttft.p50_s),
            secs(tr.ttft.p99_s),
            num(tr.slo_attainment(SCALE_TTFT_SLO_S)),
        ]);
    }
    t.row(vec![
        "all".to_string(),
        plan.shards().to_string(),
        plan.replicas().to_string(),
        "-".to_string(),
        merged.submitted.to_string(),
        merged.completed.to_string(),
        secs(merged.ttft.p50_s),
        secs(merged.ttft.p99_s),
        num(merged.slo_attainment(SCALE_TTFT_SLO_S)),
    ]);
    report.table(t);
    report.note(
        "Tier rows are merged from the same run's per-shard reports; the deployment row \
         merges all of them, so user-perceived tails blend the zero-RTT home region with \
         the +120 ms ap-south tier. Cluster-side scheduling is identical across tiers — \
         only the recorded latency samples shift.",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_scale_report_is_populated_and_consistent() {
        let report =
            crate::run_experiment("ext-scale", true, &mut Tracer::disabled()).expect("registered");
        assert_eq!(report.tables.len(), 2);
        // Ladder rows: one per rung.
        assert_eq!(report.tables[0].rows.len(), 2);
        // Tier rows: three tiers plus the merged deployment row.
        assert_eq!(report.tables[1].rows.len(), 4);
        let rendered = report.render();
        assert!(rendered.contains("ap-south"));
        assert!(rendered.contains("peak-live"));
    }
}
