//! Analytic candidate evaluation: feasibility pruning (plan validity and
//! the OOM wall) and roofline scoring (throughput, TTFT/ITL, MoE-CAP
//! cost-per-token, accuracy proxy).

use moe_eval::profiles::capability_from_active_params;
use moe_gpusim::device::Cluster;
use moe_gpusim::memory::OomError;
use moe_gpusim::parallel::{ParallelPlan, PlanError};
use moe_gpusim::perfmodel::{EngineOptions, PerfModel, RunMetrics};
use moe_gpusim::residency::ExpertResidency;
use moe_gpusim::spec::{acceptance_rate, spec_run, SpecParams};
use moe_json::{FromJson, ToJson};
use moe_model::prune::{PruneKind, PruneSpec};
use moe_model::{ModelConfig, ParamBreakdown};
use moe_tensor::Precision;

use crate::candidate::CandidateConfig;
use crate::spec::{PlannerSpec, SloSpec};

/// Draft tokens proposed per speculative cycle.
pub const SPEC_GAMMA: usize = 4;

/// Utilization ceiling used when converting the load factor into a
/// queueing inflation — keeps predicted TTFT finite (and JSON-safe) for
/// saturated candidates, which fail the SLO anyway.
pub const MAX_RHO: f64 = 0.999;

/// M/D/1-flavored waiting-time inflation factor at effective utilization
/// `rho_eff` (callers clamp to [`MAX_RHO`] first): light load leaves the
/// raw estimate untouched, saturation blows it up. Exposed so mixed-fleet
/// blending ([`crate::plan_fleet`]) can invert and re-apply the exact same
/// inflation at the blended utilization.
pub fn queueing_inflation(rho_eff: f64) -> f64 {
    1.0 + rho_eff * rho_eff / (2.0 * (1.0 - rho_eff))
}

/// Largest decode batch the analytic capacity search will consider
/// (matches the runtime scheduler's `max_running`).
const MAX_DECODE_BATCH: usize = 512;

/// Why a candidate was pruned analytically.
#[derive(Debug, Clone, PartialEq)]
pub enum Infeasible {
    /// The parallel plan violates a model invariant.
    Plan(Vec<PlanError>),
    /// The operating point does not fit device memory (the OOM wall).
    Oom(OomError),
    /// Engine construction failed (defensive; unreachable for enumerated
    /// candidates, which validate the plan first).
    Engine(String),
}

/// Workload statistics the analytic model scores against, derived once
/// from the materialized request trace.
#[derive(Debug, Clone, Copy, PartialEq, ToJson, FromJson)]
pub struct WorkloadSketch {
    /// Mean offered load (requests/s).
    pub offered_qps: f64,
    /// Mean prompt length (tokens, >= 1).
    pub mean_input: usize,
    /// Mean generation length (tokens, >= 1).
    pub mean_output: usize,
    /// Longest prompt + generation in the trace (sizes KV pools).
    pub max_seq: usize,
}

impl WorkloadSketch {
    /// Offered token throughput (prompt + generated per second).
    pub fn offered_tok_s(&self) -> f64 {
        self.offered_qps * (self.mean_input + self.mean_output) as f64
    }
}

/// Analytic score of one feasible candidate. The four Pareto axes are
/// `cost_per_token_device_s` (minimize), `accuracy` (maximize),
/// `predicted_tok_s` (maximize) and `predicted_itl_s` (minimize — the
/// axis tensor parallelism wins); the SLO folds the rest into
/// `meets_slo`.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct CandidateScore {
    /// The configuration scored.
    pub config: CandidateConfig,
    /// `config.label()`, denormalized for reports.
    pub label: String,
    /// Devices held (`replicas x degree`).
    pub devices: usize,
    /// Batch the roofline model was evaluated at (max of the prefill
    /// wave and the capacity-matching decode batch).
    pub operating_batch: usize,
    /// Whole-fleet token throughput capacity (tokens/s).
    pub predicted_tok_s: f64,
    /// Queueing-inflated prefill estimate (s).
    pub predicted_ttft_s: f64,
    /// Midpoint-context inter-token latency (s).
    pub predicted_itl_s: f64,
    /// Device-seconds per token at capacity — the MoE-CAP cost axis.
    pub cost_per_token_device_s: f64,
    /// Accuracy proxy (0–1) after pruning/quantization penalties.
    pub accuracy: f64,
    /// Offered load over capacity (clamped to [0, 1]).
    pub utilization: f64,
    /// True when every SLO bound holds analytically.
    pub meets_slo: bool,
}

/// Apply the candidate's pruning level to the base model.
pub fn candidate_model(base: &ModelConfig, prune_ratio: f64) -> ModelConfig {
    if prune_ratio > 0.0 && base.moe.is_some() {
        PruneSpec::new(PruneKind::InterExpert, prune_ratio).apply(base)
    } else {
        base.clone()
    }
}

/// Engine options for a candidate (fused kernels on, fp16 KV cache).
/// All-resident residencies are *not* attached, so classic candidates
/// price through the exact pre-`moe-mem` option set.
fn candidate_options(
    plan: ParallelPlan,
    precision: Precision,
    residency: ExpertResidency,
) -> EngineOptions {
    let opts = EngineOptions::default()
        .with_precision(precision)
        .with_plan(plan);
    if residency.is_all_resident() {
        opts
    } else {
        opts.with_residency(residency)
    }
}

/// Build the placed engine model for a candidate; `Err` carries the typed
/// infeasibility.
pub fn build_engine(
    spec: &PlannerSpec,
    config: &CandidateConfig,
) -> Result<(PerfModel, ModelConfig), Infeasible> {
    let model = candidate_model(&spec.model, config.prune_ratio);
    let problems = config.plan.validate(&model);
    if !problems.is_empty() {
        return Err(Infeasible::Plan(problems));
    }
    let cluster: Cluster = spec.fleet.cluster(config.plan.degree);
    let engine = PerfModel::new(
        model.clone(),
        cluster,
        candidate_options(config.plan, config.precision, config.residency),
    )
    .map_err(Infeasible::Engine)?;
    Ok((engine, model))
}

/// Draft-model placement for speculative decoding: tensor parallel over
/// the same device group (EP/PP make no sense for a small dense draft).
fn draft_plan(plan: ParallelPlan) -> ParallelPlan {
    ParallelPlan::tensor(plan.degree.max(1))
}

/// The operating batch for a candidate under the sketch: the prefill wave
/// that fills `max_batch_tokens`, or the smallest power-of-two decode
/// batch whose token rate covers the per-replica offered load — whichever
/// is larger. Deterministic, and the batch whose memory footprint defines
/// the candidate's OOM wall.
pub fn operating_batch(
    engine: &PerfModel,
    config: &CandidateConfig,
    sketch: &WorkloadSketch,
) -> usize {
    let prefill_wave = (config.max_batch_tokens / sketch.mean_input.max(1)).clamp(1, 64);
    let per_replica_tok_s = sketch.offered_tok_s() / config.replicas as f64;
    let mid_ctx = sketch.mean_input + sketch.mean_output / 2;
    let mut decode = 1usize;
    while decode < MAX_DECODE_BATCH {
        let step = engine.decode_step_time(decode, mid_ctx);
        if step <= 0.0 || decode as f64 / step >= per_replica_tok_s {
            break;
        }
        decode *= 2;
    }
    prefill_wave.max(decode)
}

/// Score one candidate analytically, or report why it is infeasible.
pub fn score_candidate(
    spec: &PlannerSpec,
    sketch: &WorkloadSketch,
    config: &CandidateConfig,
) -> Result<CandidateScore, Infeasible> {
    let (engine, model) = build_engine(spec, config)?;
    let batch = operating_batch(&engine, config, sketch);
    let metrics = run_metrics(spec, config, &engine, &model, batch, sketch)?;

    let fleet_tok_s = config.replicas as f64 * metrics.throughput_tok_s;
    let rho = (sketch.offered_tok_s() / fleet_tok_s.max(1e-12)).max(0.0);
    let rho_eff = rho.min(MAX_RHO);
    // M/D/1-flavored waiting inflation on the prefill estimate.
    let ttft = metrics.ttft_s * queueing_inflation(rho_eff);
    let cost = config.devices() as f64 / fleet_tok_s.max(1e-12);
    let accuracy = accuracy_proxy(&spec.model, config.precision, config.prune_ratio);

    let meets_slo = rho < 1.0
        && ttft <= spec.slo.p99_ttft_s
        && metrics.itl_s <= spec.slo.p99_itl_s
        && cost <= spec.slo.max_cost_per_token_device_s
        && accuracy >= spec.slo.min_accuracy;

    Ok(CandidateScore {
        config: *config,
        label: config.label(),
        devices: config.devices(),
        operating_batch: batch,
        predicted_tok_s: fleet_tok_s,
        predicted_ttft_s: ttft,
        predicted_itl_s: metrics.itl_s,
        cost_per_token_device_s: cost,
        accuracy,
        utilization: rho.min(1.0),
        meets_slo,
    })
}

/// One roofline run at the operating point, speculative or plain.
fn run_metrics(
    spec: &PlannerSpec,
    config: &CandidateConfig,
    engine: &PerfModel,
    model: &ModelConfig,
    batch: usize,
    sketch: &WorkloadSketch,
) -> Result<RunMetrics, Infeasible> {
    if config.spec_decode {
        if let Some(draft_cfg) = &spec.draft {
            // The draft is a small dense model: always fully resident.
            let draft = PerfModel::new(
                draft_cfg.clone(),
                spec.fleet.cluster(config.plan.degree),
                candidate_options(
                    draft_plan(config.plan),
                    config.precision,
                    ExpertResidency::all_resident(),
                ),
            )
            .map_err(Infeasible::Engine)?;
            let params = SpecParams {
                gamma: SPEC_GAMMA,
                alpha: acceptance_rate(draft_cfg, model),
            };
            return spec_run(
                engine,
                &draft,
                params,
                batch,
                sketch.mean_input,
                sketch.mean_output,
            )
            .map_err(Infeasible::Oom);
        }
    }
    engine
        .run(
            batch,
            sketch.mean_input,
            sketch.mean_output,
            &mut moe_trace::Tracer::disabled(),
            0,
        )
        .map_err(Infeasible::Oom)
}

/// Accuracy proxy for a (precision, pruning) variant of `base`.
///
/// Base capability comes from `moe-eval`'s calibrated profiles (falling
/// back to the active-parameter scaling law for unknown names); the
/// paper-shaped penalties stack multiplicatively: quantization costs are
/// small and fixed per format (Fig. 10 keeps fp8 near-lossless),
/// inter-expert pruning costs grow linearly with the ratio (Fig. 11's
/// 50% prune loses roughly a third of task accuracy).
pub fn accuracy_proxy(base: &ModelConfig, precision: Precision, prune_ratio: f64) -> f64 {
    let cap = moe_eval::capability(&base.name)
        .unwrap_or_else(|| capability_from_active_params(ParamBreakdown::of(base).active()));
    let quant_penalty = match precision {
        Precision::F32 | Precision::F16 | Precision::Bf16 => 0.0,
        Precision::Fp8E4M3 => 0.01,
        Precision::Int8 => 0.02,
        Precision::Int4 => 0.06,
    };
    let prune_penalty = 0.35 * prune_ratio.clamp(0.0, 1.0);
    (cap.language * (1.0 - quant_penalty) * (1.0 - prune_penalty)).max(0.0)
}

/// SLO re-check against *measured* cluster numbers (used by refinement).
pub fn measured_meets_slo(
    slo: &SloSpec,
    p99_ttft_s: f64,
    p99_itl_s: f64,
    cost_per_token_device_s: f64,
    accuracy: f64,
    all_completed: bool,
) -> bool {
    all_completed
        && p99_ttft_s <= slo.p99_ttft_s
        && p99_itl_s <= slo.p99_itl_s
        && cost_per_token_device_s <= slo.max_cost_per_token_device_s
        && accuracy >= slo.min_accuracy
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_model::registry::{mixtral_8x7b, olmoe_1b_7b, qwen3_1_7b};

    #[test]
    fn accuracy_proxy_orders_variants() {
        let base = mixtral_8x7b();
        let clean = accuracy_proxy(&base, Precision::F16, 0.0);
        let fp8 = accuracy_proxy(&base, Precision::Fp8E4M3, 0.0);
        let pruned = accuracy_proxy(&base, Precision::F16, 0.5);
        assert!(clean > fp8, "fp8 pays a small penalty");
        assert!(fp8 > pruned, "heavy pruning costs more than fp8");
        assert!(clean > 0.6 && clean <= 1.0);
        // Unknown names fall back to the scaling law.
        let mut custom = olmoe_1b_7b();
        custom.name = "custom-moe".into();
        assert!(accuracy_proxy(&custom, Precision::F16, 0.0) > 0.2);
    }

    #[test]
    fn accuracy_proxy_monotone_in_prune_ratio() {
        let base = olmoe_1b_7b();
        let mut last = f64::MAX;
        for r in [0.0, 0.125, 0.25, 0.5] {
            let a = accuracy_proxy(&base, Precision::F16, r);
            assert!(a < last || r == 0.0);
            last = a;
        }
    }

    #[test]
    fn draft_plan_is_always_tensor() {
        assert_eq!(
            draft_plan(ParallelPlan::pipeline(4)),
            ParallelPlan::tensor(4)
        );
        assert_eq!(
            draft_plan(ParallelPlan::tensor(2).with_expert_parallel()),
            ParallelPlan::tensor(2)
        );
        assert_eq!(draft_plan(ParallelPlan::single()), ParallelPlan::single());
    }

    #[test]
    fn proxy_handles_dense_models() {
        let dense = qwen3_1_7b();
        assert!(accuracy_proxy(&dense, Precision::F16, 0.0) > 0.0);
    }
}
