//! Refinement: simulate top candidates through `moe-cluster` to replace
//! analytic estimates with measured p50/p99 latencies, SLO attainment and
//! the device-seconds cost the cluster report itself quotes.
//!
//! The router policy is a refinement-stage knob: the analytic model is
//! policy-blind, so each refined candidate sweeps every policy in the
//! space and keeps the best-measured one.

use moe_cluster::workload::RequestTrace;
use moe_cluster::{ClusterConfig, ClusterReport, ClusterSim, FaultPlan, RoutePolicy, RouterConfig};
use moe_gpusim::perfmodel::PerfModel;
use moe_json::{FromJson, ToJson};
use moe_runtime::simserver::scheduler_config_for;
use moe_tensor::rng::derive_seed;
use moe_trace::{Category, Tracer};

use crate::candidate::CandidateConfig;
use crate::score::{accuracy_proxy, build_engine, measured_meets_slo, WorkloadSketch};
use crate::spec::PlannerSpec;
use crate::{Infeasible, PLANNER_TRACK};

/// Measured (simulated) serving quality of one candidate under the
/// materialized workload trace.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct RefinedScore {
    /// The configuration refined.
    pub config: CandidateConfig,
    /// `config.label()`, denormalized for reports.
    pub label: String,
    /// Router policy that measured best (the refinement-stage knob).
    pub policy: String,
    /// Requests in the trace.
    pub submitted: usize,
    /// Requests that completed.
    pub completed: usize,
    /// Measured p50 TTFT (s).
    pub p50_ttft_s: f64,
    /// Measured p99 TTFT (s).
    pub p99_ttft_s: f64,
    /// Measured p99 inter-token latency (s); for speculative candidates
    /// this is the simulated decode scaled by the analytic speculation
    /// speedup (the cluster engine does not model draft cycles).
    pub p99_itl_s: f64,
    /// Fraction of submitted requests finishing TTFT within the SLO.
    pub slo_attainment: f64,
    /// Measured cluster throughput (tokens/s).
    pub measured_tok_s: f64,
    /// Measured cost — `ClusterReport::cost_per_token_device_s`.
    pub cost_per_token_device_s: f64,
    /// Accuracy proxy (identical to the analytic score's).
    pub accuracy: f64,
    /// Every SLO bound holds on measured numbers.
    pub meets_slo: bool,
}

/// p99 inter-token latency over completions, streamed by the cluster's
/// ITL histogram (zero when nothing decoded more than one token).
fn p99_itl(report: &ClusterReport) -> f64 {
    report.itl.p99_s
}

/// Analytic decode-speedup factor a speculative candidate applies to the
/// simulated ITL (< 1 when speculation helps; 1 for plain candidates or
/// when the analytic model is unavailable).
fn spec_itl_factor(spec: &PlannerSpec, sketch: &WorkloadSketch, config: &CandidateConfig) -> f64 {
    if !config.spec_decode {
        return 1.0;
    }
    let plain = CandidateConfig {
        spec_decode: false,
        ..*config
    };
    match (
        crate::score::score_candidate(spec, sketch, config),
        crate::score::score_candidate(spec, sketch, &plain),
    ) {
        (Ok(with), Ok(without)) if without.predicted_itl_s > 0.0 => {
            (with.predicted_itl_s / without.predicted_itl_s).max(0.0)
        }
        _ => 1.0,
    }
}

/// Simulate one `(candidate, policy)` pair over the shared trace.
fn simulate_policy(
    engine: &PerfModel,
    spec: &PlannerSpec,
    sketch: &WorkloadSketch,
    config: &CandidateConfig,
    policy: RoutePolicy,
    trace: &RequestTrace,
    tracer: &mut Tracer,
) -> ClusterReport {
    let mut sched = scheduler_config_for(engine, sketch.max_seq);
    sched.max_batched_tokens = config.max_batch_tokens;
    let cfg = ClusterConfig {
        replicas: config.replicas,
        policy,
        router: RouterConfig::default(),
        prefix_capacity: 16,
        seed: derive_seed(spec.seed, 0x9e37),
        ..ClusterConfig::default()
    };
    ClusterSim::new(engine, sched, cfg, FaultPlan::none(), trace.clone()).run(tracer)
}

/// Refine one candidate: sweep the policy knob through the cluster
/// simulator and keep the best-measured run.
///
/// When tracing, each policy run emits the cluster's own router/replica
/// tracks, gets a grouping span on [`PLANNER_TRACK`] labeled
/// `"<candidate> / <policy>"`, and advances the tracer base by the run's
/// makespan so refinement runs tile one monotone timeline.
pub fn refine_candidate(
    spec: &PlannerSpec,
    sketch: &WorkloadSketch,
    config: &CandidateConfig,
    trace: &RequestTrace,
    tracer: &mut Tracer,
) -> Result<RefinedScore, Infeasible> {
    let (engine, _model) = build_engine(spec, config)?;
    let accuracy = accuracy_proxy(&spec.model, config.precision, config.prune_ratio);
    let itl_factor = spec_itl_factor(spec, sketch, config);

    let mut policies: Vec<RoutePolicy> = spec.space.policies.clone();
    policies.sort_by_key(|p| p.label());
    policies.dedup();

    let mut best: Option<RefinedScore> = None;
    for policy in policies {
        let report = simulate_policy(&engine, spec, sketch, config, policy, trace, tracer);
        if tracer.is_enabled() {
            tracer.span_with(
                PLANNER_TRACK,
                Category::Bench,
                &format!("{} / {}", config.label(), policy.label()),
                0.0,
                report.makespan_s,
                vec![
                    ("replicas", config.replicas.into()),
                    ("devices", config.devices().into()),
                ],
            );
            tracer.advance(report.makespan_s);
        }
        let p99_itl_s = p99_itl(&report) * itl_factor;
        let refined = RefinedScore {
            config: *config,
            label: config.label(),
            policy: policy.label().to_string(),
            submitted: report.submitted,
            completed: report.completed,
            p50_ttft_s: report.ttft.p50_s,
            p99_ttft_s: report.ttft.p99_s,
            p99_itl_s,
            slo_attainment: report.slo_attainment(spec.slo.p99_ttft_s),
            measured_tok_s: report.throughput_tok_s,
            cost_per_token_device_s: report.cost_per_token_device_s,
            accuracy,
            meets_slo: measured_meets_slo(
                &spec.slo,
                report.ttft.p99_s,
                p99_itl_s,
                report.cost_per_token_device_s,
                accuracy,
                report.completed == report.submitted,
            ),
        };
        let better = match &best {
            None => true,
            Some(b) => refined_rank(&refined) < refined_rank(b),
        };
        if better {
            best = Some(refined);
        }
    }
    // The policy list is non-empty (spec.check), so `best` is set; the
    // fallback keeps the library panic-free regardless.
    best.ok_or_else(|| Infeasible::Engine("no policies to refine over".into()))
}

/// Ascending rank: SLO-meeting runs first, then attainment, then tail
/// TTFT, then cost, then the policy label for a total order.
fn refined_rank(r: &RefinedScore) -> (u8, u64, u64, u64, String) {
    (
        u8::from(!r.meets_slo),
        (1.0 - r.slo_attainment).to_bits(),
        r.p99_ttft_s.to_bits(),
        r.cost_per_token_device_s.to_bits(),
        r.policy.clone(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FleetSpec, PlannerSpec, SearchMode, SearchSpace, SloSpec};
    use moe_cluster::{generate, TenantSpec, WorkloadSpec};
    use moe_gpusim::parallel::ParallelPlan;
    use moe_model::registry::olmoe_1b_7b;
    use moe_tensor::Precision;

    fn tiny_spec() -> PlannerSpec {
        PlannerSpec {
            model: olmoe_1b_7b(),
            draft: None,
            fleet: FleetSpec::h100(2),
            workload: WorkloadSpec::poisson(
                20.0,
                40,
                TenantSpec::uniform("t", 1.0, (128, 256), (32, 64)),
            ),
            slo: SloSpec::latency(0.5, 0.05),
            space: SearchSpace::minimal(),
            mode: SearchMode::Exhaustive,
            refine_top_k: 1,
            seed: 7,
        }
    }

    #[test]
    fn refinement_measures_and_ranks_policies() {
        let spec = tiny_spec();
        let trace = generate(&spec.workload, spec.seed);
        let sketch = crate::planner::sketch_of(&trace);
        let config = CandidateConfig {
            plan: ParallelPlan::single(),
            replicas: 2,
            precision: Precision::F16,
            prune_ratio: 0.0,
            spec_decode: false,
            max_batch_tokens: 32_768,
            residency: moe_gpusim::residency::ExpertResidency::all_resident(),
        };
        let refined =
            refine_candidate(&spec, &sketch, &config, &trace, &mut Tracer::disabled()).unwrap();
        assert_eq!(refined.submitted, 40);
        assert_eq!(refined.completed, 40);
        assert!(refined.p99_ttft_s > 0.0);
        assert!(refined.p99_itl_s > 0.0);
        assert!(refined.cost_per_token_device_s > 0.0);
        assert_eq!(refined.policy, "least-outstanding");
    }
}
