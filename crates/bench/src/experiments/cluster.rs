//! `ext-cluster`: multi-replica serving experiments on `moe-cluster`.
//!
//! Two studies, both on the canonical prefix-heavy mix
//! ([`WorkloadSpec::prefix_heavy`]) over 4 OLMoE-1B-7B/H100 replicas:
//!
//! * **QPS sweep per routing policy** — offered load vs p50/p99 TTFT and
//!   TTFT-SLO attainment for round-robin, least-outstanding,
//!   power-of-two-choices and prefix-affinity. Near saturation the
//!   ordering `prefix-affinity ≤ power-of-two ≤ least-outstanding ≤
//!   round-robin` emerges on tail TTFT: cache affinity cuts effective
//!   prefill work, and queue-aware placement dodges the cold heavy
//!   tenant.
//! * **Fault sweep** — the same workload under replica faults: a crash
//!   with retries disabled (losses drop), the same crash with bounded
//!   retry + backoff (losses recover, tail grows but stays bounded), and
//!   a 4x straggler window.

use moe_cluster::{
    generate, ClusterConfig, ClusterReport, ClusterSim, FaultPlan, RoutePolicy, RouterConfig,
    WorkloadSpec,
};
use moe_gpusim::perfmodel::PerfModel;
use moe_model::registry::olmoe_1b_7b;
use moe_trace::{Category, Tracer, BENCH_TRACK};

use crate::report::{num, secs, ExperimentReport, Table};

/// TTFT service-level objective used for attainment curves.
pub const TTFT_SLO_S: f64 = 0.05;

/// Workload seed shared by every `ext-cluster` point (the policy
/// comparison must hold the trace fixed across policies).
const WORKLOAD_SEED: u64 = 31;

fn cluster_config(policy: RoutePolicy) -> ClusterConfig {
    ClusterConfig {
        replicas: 4,
        policy,
        router: RouterConfig::default(),
        prefix_capacity: 16,
        seed: 1,
        ..ClusterConfig::default()
    }
}

fn run_point(
    model: &PerfModel,
    policy: RoutePolicy,
    qps: f64,
    requests: usize,
    faults: FaultPlan,
    retries: u32,
    tracer: &mut Tracer,
) -> ClusterReport {
    let trace = generate(&WorkloadSpec::prefix_heavy(qps, requests), WORKLOAD_SEED);
    let mut cfg = cluster_config(policy);
    cfg.router.max_retries = retries;
    let sim = ClusterSim::sized_for(model, 8192, cfg, faults, trace);
    let report = sim.run(tracer);
    if tracer.is_enabled() {
        tracer.span_with(
            BENCH_TRACK,
            Category::Bench,
            &format!("{} qps {qps}", policy.label()),
            0.0,
            report.makespan_s,
            vec![("qps", qps.into()), ("requests", requests.into())],
        );
        tracer.advance(report.makespan_s);
    }
    report
}

/// QPS-sweep rows `(policy, qps, report)`. Every point runs through
/// `ClusterSim::run` (router decisions, per-replica step spans, queue
/// counters) and, when `tracer` is enabled, gets a grouping span on
/// [`BENCH_TRACK`] and advances the tracer base by the point's makespan
/// so points tile one monotone timeline.
fn sweep_rows(fast: bool, tracer: &mut Tracer) -> Vec<(RoutePolicy, f64, ClusterReport)> {
    let rates: &[f64] = if fast {
        &[60.0, 100.0]
    } else {
        &[40.0, 60.0, 80.0, 100.0]
    };
    let requests: usize = if fast { 150 } else { 400 };
    let model = PerfModel::h100(olmoe_1b_7b());
    let mut rows = Vec::new();
    for &qps in rates {
        for policy in RoutePolicy::all() {
            let report = run_point(
                &model,
                policy,
                qps,
                requests,
                FaultPlan::none(),
                RouterConfig::default().max_retries,
                tracer,
            );
            rows.push((policy, qps, report));
        }
    }
    rows
}

/// Fault-sweep rows `(scenario label, report)`, traced like
/// [`sweep_rows`].
///
/// All scenarios route with least-outstanding at a moderate load; the
/// crash takes one of four replicas down for two seconds mid-run.
fn fault_rows(fast: bool, tracer: &mut Tracer) -> Vec<(&'static str, ClusterReport)> {
    let requests: usize = if fast { 150 } else { 400 };
    // Near saturation: replicas hold real queue depth, so a crash loses
    // a visible slice of in-flight work rather than one straggler.
    let qps = 100.0;
    let model = PerfModel::h100(olmoe_1b_7b());
    let policy = RoutePolicy::LeastOutstanding;
    // The fast trace is shorter; keep the fault inside its busy window.
    let crash_at = if fast { 0.7 } else { 1.5 };
    let crash = || FaultPlan::crash_window(0, crash_at, 2.0);
    let scenarios: Vec<(&'static str, FaultPlan, u32)> = vec![
        ("healthy", FaultPlan::none(), 3),
        ("crash, no retry", crash(), 0),
        ("crash, retries=3", crash(), 3),
        (
            "4x slowdown window",
            FaultPlan::slowdown_window(0, crash_at, 2.0, 4.0),
            3,
        ),
    ];
    scenarios
        .into_iter()
        .map(|(label, faults, retries)| {
            (
                label,
                run_point(&model, policy, qps, requests, faults, retries, tracer),
            )
        })
        .collect()
}

/// Build the cluster report while recording every point into `tracer`.
pub(crate) fn build(report: &mut ExperimentReport, fast: bool, tracer: &mut Tracer) {
    let mut sweep = Table::new(
        format!(
            "routing policy vs offered load (TTFT SLO = {} ms)",
            (TTFT_SLO_S * 1e3) as i64
        ),
        &[
            "Policy",
            "Offered QPS",
            "p50 TTFT",
            "p99 TTFT",
            "SLO attain",
            "Prefix hits",
            "Cost dev-ms/tok",
        ],
    );
    for (policy, qps, r) in sweep_rows(fast, tracer) {
        sweep.row(vec![
            policy.label().to_string(),
            num(qps),
            secs(r.ttft.p50_s),
            secs(r.ttft.p99_s),
            num(r.slo_attainment(TTFT_SLO_S)),
            num(r.prefix_hit_rate()),
            format!("{:.3}", r.cost_per_token_device_s * 1e3),
        ]);
    }
    report.table(sweep);

    let mut faults = Table::new(
        "fault sweep (least-outstanding, 100 QPS, crash/slowdown on 1 of 4 replicas)",
        &[
            "Scenario",
            "Completed",
            "Dropped",
            "Retries",
            "p99 TTFT",
            "p99 E2E",
        ],
    );
    for (label, r) in fault_rows(fast, tracer) {
        faults.row(vec![
            label.to_string(),
            format!("{}/{}", r.completed, r.submitted),
            num(r.dropped as f64),
            num(r.retries as f64),
            secs(r.ttft.p99_s),
            secs(r.e2e.p99_s),
        ]);
    }
    report.table(faults);

    report.note(
        "Near saturation, tail TTFT orders prefix-affinity <= power-of-two <= \
         least-outstanding <= round-robin: long shared prefixes make cache-affine \
         placement cheaper per request, and queue-aware policies dodge the cold heavy \
         tenant that blind round-robin stacks. Under a replica crash, bounded retry \
         with backoff recovers every lost request (completed stays full) at a bounded \
         tail cost, where disabling retries silently drops them.",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_sweep_retries_bound_tail_instead_of_dropping() {
        let rows = fault_rows(true, &mut Tracer::disabled());
        let get = |label: &str| {
            rows.iter()
                .find(|(l, _)| *l == label)
                .map(|(_, r)| r)
                .expect("scenario present")
        };
        let healthy = get("healthy");
        let no_retry = get("crash, no retry");
        let retried = get("crash, retries=3");

        assert_eq!(healthy.completed, healthy.submitted);
        assert!(no_retry.dropped > 0, "crash without retries loses requests");
        assert_eq!(
            retried.completed, retried.submitted,
            "retries must recover every crash loss"
        );
        assert!(retried.retries > 0);
        // The tail pays for the outage, but stays bounded: within the
        // outage duration (2 s) of the healthy tail rather than runaway.
        assert!(retried.e2e.p99_s < healthy.e2e.p99_s + 2.0);
    }

    #[test]
    fn sweep_covers_every_policy_at_every_rate() {
        let rows = sweep_rows(true, &mut Tracer::disabled());
        assert_eq!(rows.len(), 2 * RoutePolicy::all().len());
        for (_, _, r) in &rows {
            assert_eq!(r.completed, r.submitted, "healthy sweep completes all");
        }
        // Prefix-affinity keeps its cache edge at every offered load.
        for qps in [60.0, 100.0] {
            let hit = |p: RoutePolicy| {
                rows.iter()
                    .find(|(pp, q, _)| *pp == p && *q == qps)
                    .map(|(_, _, r)| r.prefix_hit_rate())
                    .expect("point present")
            };
            assert!(hit(RoutePolicy::PrefixAffinity) > hit(RoutePolicy::RoundRobin));
        }
    }

    #[test]
    fn report_renders_with_both_tables() {
        let rendered = crate::run_experiment("ext-cluster", true, &mut Tracer::disabled())
            .expect("registered")
            .render();
        assert!(rendered.contains("routing policy vs offered load"));
        assert!(rendered.contains("fault sweep"));
        assert!(rendered.contains("prefix-affinity"));
        assert!(rendered.contains("crash, retries=3"));
    }
}
