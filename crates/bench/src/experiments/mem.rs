//! `ext-mem`: expert residency, predictive prefetch, and offload-aware
//! serving under constrained HBM budgets.
//!
//! Four studies driven by `moe-mem`:
//!
//! * **Trace artifact** — a seeded `moe-engine` generation run exports its
//!   routing trace + activation stats as a moe-json-replayable
//!   [`TraceArtifact`]; every derived number below is a pure function of
//!   those bytes.
//! * **Degradation sweep** — HBM budget x predictor quality priced through
//!   the analytic cost model (Mixtral-8x7B, 2x H100, TP2). The full
//!   budget reproduces the all-resident prices bit for bit; shrinking it
//!   bends TTFT/ITL upward, with the knee and the collapse of the
//!   predictor-quality ladder quoted in the headline note.
//! * **Replication** — hot-expert replication across EP ranks measured
//!   against contiguous and LPT packing on the real routing loads.
//! * **The cost cliff** — the planner's single-device fp16 OOM wall
//!   (Figure 5) turns into a feasible-but-slower offloaded deployment
//!   once derived residencies join the search space.

use moe_cluster::{TenantSpec, WorkloadSpec};
use moe_engine::trace::{capture_trace, TraceArtifact};
use moe_gpusim::device::Interconnect;
use moe_gpusim::residency::ExpertResidency;
use moe_gpusim::{Cluster, EngineOptions, ParallelPlan, PerfModel};
use moe_mem::{derive_residency, mean_imbalance, replication_study, PredictorQuality};
use moe_model::registry::{mixtral_8x7b, tiny_test_model};
use moe_plan::{plan, FleetSpec, PlanReport, PlannerSpec, SearchMode, SearchSpace, SloSpec};
use moe_trace::Tracer;

use crate::report::{num, secs, yes_no, ExperimentReport, Table};

/// Seed for the trace-capture generation run and every planner study.
pub const MEM_SEED: u64 = 29;

/// Predictor quality ladder, best first.
const QUALITIES: [PredictorQuality; 3] = [
    PredictorQuality::Oracle,
    PredictorQuality::Frequency,
    PredictorQuality::Uniform,
];

/// HBM budgets swept (fractions of routed-expert bytes), descending.
/// Multiples of 1/8 keep `floor(frac * 8)` exact on the 8-expert models.
fn budgets(fast: bool) -> &'static [f64] {
    if fast {
        &[1.0, 0.5, 0.25]
    } else {
        &[1.0, 0.75, 0.5, 0.375, 0.25, 0.125]
    }
}

/// The seeded engine run every residency in this experiment derives from:
/// a down-scaled 8-expert top-2 model (Mixtral's routing shape) so the
/// transition tables and hot-sets come from real dispatch, not synthetic
/// skew.
fn trace_artifact() -> TraceArtifact {
    capture_trace(
        "tiny-8x2",
        tiny_test_model(8, 2),
        MEM_SEED,
        &[1, 2, 3, 4, 5, 6, 7, 8],
        24,
    )
}

/// One priced point of the degradation sweep.
pub struct DegradationRow {
    /// Swept HBM budget (fraction of routed-expert bytes).
    pub hbm_frac: f64,
    /// Predictor tier the residency was derived under.
    pub quality: PredictorQuality,
    /// Derived residency (resident fraction + hit probabilities).
    pub residency: ExpertResidency,
    /// Priced time-to-first-token (s).
    pub ttft_s: f64,
    /// Priced inter-token latency (s).
    pub itl_s: f64,
}

/// Price one residency on the serving configuration of the sweep:
/// Mixtral-8x7B, 2x H100 TP2, batch 8, 1k prompt / 1k decode.
fn price(residency: ExpertResidency) -> (f64, f64) {
    let opts = EngineOptions::default()
        .with_plan(ParallelPlan::tensor(2))
        .with_residency(residency);
    let metrics = PerfModel::new(mixtral_8x7b(), Cluster::h100_node(2), opts)
        .expect("TP2 Mixtral on H100 is a valid configuration")
        .run(8, 1024, 1024, &mut Tracer::disabled(), 0)
        .expect("offloaded Mixtral fits two 80 GB devices");
    (metrics.ttft_s, metrics.itl_s)
}

/// The full budget x quality sweep: derive a residency from the trace at
/// each point and price it through the analytic model.
fn degradation_rows(fast: bool) -> Vec<DegradationRow> {
    let artifact = trace_artifact();
    let mut rows = Vec::new();
    for &hbm_frac in budgets(fast) {
        for quality in QUALITIES {
            let derived = derive_residency(&artifact, hbm_frac, quality, Interconnect::pcie_gen5());
            let (ttft_s, itl_s) = price(derived.residency);
            rows.push(DegradationRow {
                hbm_frac,
                quality,
                residency: derived.residency,
                ttft_s,
                itl_s,
            });
        }
    }
    rows
}

/// Planner spec for the cost-cliff study: Mixtral-8x7B on a single 80 GB
/// device under a loose latency SLO (feasibility, not SLO filtering, is
/// the subject). Sequences are kept short so the KV cache stays small
/// enough that the wall is weights-driven — exactly Figure 5's regime.
fn cliff_spec(space: SearchSpace) -> PlannerSpec {
    PlannerSpec {
        model: mixtral_8x7b(),
        draft: None,
        fleet: FleetSpec::h100(1),
        workload: WorkloadSpec::poisson(
            3.0,
            80,
            TenantSpec::uniform("chat", 1.0, (128, 512), (32, 128)),
        ),
        slo: SloSpec::latency(2.0, 0.05),
        space,
        mode: SearchMode::Exhaustive,
        refine_top_k: 1,
        seed: MEM_SEED,
    }
}

/// Run the single-device planner twice: on the classic all-resident grid
/// (fp16 dies on the OOM wall) and on the same grid widened with two
/// trace-derived offload residencies (fp16 becomes feasible but slower).
fn cliff_reports() -> (PlanReport, PlanReport) {
    let artifact = trace_artifact();
    let offloads: Vec<ExpertResidency> = [0.5, 0.25]
        .iter()
        .map(|&frac| {
            derive_residency(
                &artifact,
                frac,
                PredictorQuality::Frequency,
                Interconnect::pcie_gen5(),
            )
            .residency
        })
        .collect();
    let walled =
        plan(&cliff_spec(SearchSpace::paper())).expect("fp8 keeps the single-device grid feasible");
    let offloaded = plan(&cliff_spec(
        SearchSpace::paper().with_residencies(&offloads),
    ))
    .expect("the offload grid is a superset of a feasible grid");
    (walled, offloaded)
}

fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

fn artifact_table(artifact: &TraceArtifact) -> Table {
    let mut t = Table::new(
        "seeded routing-trace artifact (moe-json replayable)",
        &[
            "Model",
            "Seed",
            "Layers",
            "Experts",
            "Top-k",
            "Tokens/layer",
            "Assignments",
            "JSON bytes",
        ],
    );
    t.row(vec![
        artifact.model.clone(),
        artifact.seed.to_string(),
        num(artifact.trace.num_layers as f64),
        num(artifact.trace.num_experts as f64),
        num(artifact.trace.top_k as f64),
        num(artifact.trace.tokens(0) as f64),
        num(artifact.trace.total_assignments() as f64),
        num(moe_json::to_string(artifact).len() as f64),
    ]);
    t
}

fn degradation_table(rows: &[DegradationRow], full_itl_s: f64) -> Table {
    let mut t = Table::new(
        "TTFT/ITL under HBM budget x predictor quality (Mixtral-8x7B, 2x H100 TP2, batch 8, 1k/1k)",
        &[
            "HBM budget",
            "Predictor",
            "Resident",
            "Residency hit",
            "Predictor hit",
            "TTFT",
            "ITL",
            "ITL vs full",
        ],
    );
    for r in rows {
        t.row(vec![
            pct(r.hbm_frac),
            r.quality.name().to_string(),
            pct(r.residency.resident_frac),
            num(r.residency.residency_hit),
            num(r.residency.predictor_hit),
            secs(r.ttft_s),
            secs(r.itl_s),
            format!("{:.2}x", r.itl_s / full_itl_s),
        ]);
    }
    t
}

fn replication_table(artifact: &TraceArtifact) -> Table {
    let mut t = Table::new(
        "hot-expert replication across 4 EP ranks (real routing loads, mean over layers)",
        &[
            "Replication factor",
            "Contiguous",
            "LPT",
            "Replicated",
            "Skew recovered",
        ],
    );
    for factor in [1usize, 2, 4] {
        let study = replication_study(&artifact.stats, 4, factor);
        let contiguous = mean_imbalance(&study, |r| r.contiguous);
        let lpt = mean_imbalance(&study, |r| r.lpt);
        let replicated = mean_imbalance(&study, |r| r.replicated);
        let recovered = if lpt > 1.0 + 1e-12 {
            pct((lpt - replicated) / (lpt - 1.0))
        } else {
            "-".to_string()
        };
        t.row(vec![
            num(factor as f64),
            num(contiguous),
            num(lpt),
            num(replicated),
            recovered,
        ]);
    }
    t
}

fn cliff_counts_table(walled: &PlanReport, offloaded: &PlanReport) -> Table {
    let mut t = Table::new(
        "the OOM wall becomes a cost cliff: Mixtral-8x7B on one 80 GB device",
        &[
            "Grid",
            "Enumerated",
            "Scored",
            "OOM",
            "fp16 on frontier",
            "Recommended",
        ],
    );
    for (label, report) in [("all-resident", walled), ("+offload", offloaded)] {
        let fp16 = report
            .frontier
            .iter()
            .any(|c| c.config.precision == moe_tensor::Precision::F16);
        t.row(vec![
            label.to_string(),
            num(report.counts.enumerated as f64),
            num(report.counts.scored as f64),
            num(report.counts.infeasible_oom as f64),
            yes_no(fp16),
            report.recommended.label.clone(),
        ]);
    }
    t
}

fn cliff_frontier_table(offloaded: &PlanReport) -> Table {
    let mut t = Table::new(
        "offload frontier (single device, cost-ascending)",
        &[
            "Config",
            "tok/s",
            "TTFT",
            "ITL",
            "Cost dev-ms/tok",
            "Accuracy",
        ],
    );
    for c in &offloaded.frontier {
        t.row(vec![
            c.label.clone(),
            num(c.predicted_tok_s),
            secs(c.predicted_ttft_s),
            secs(c.predicted_itl_s),
            format!("{:.4}", c.cost_per_token_device_s * 1e3),
            num(c.accuracy),
        ]);
    }
    t
}

/// One `(budget, quality)` point of the sweep.
fn row_at(rows: &[DegradationRow], hbm_frac: f64, quality: PredictorQuality) -> &DegradationRow {
    rows.iter()
        .find(|r| r.hbm_frac == hbm_frac && r.quality == quality)
        .expect("the sweep prices every (budget, quality) point")
}

/// ITL of one `(budget, quality)` point of the sweep.
fn itl_at(rows: &[DegradationRow], hbm_frac: f64, quality: PredictorQuality) -> f64 {
    row_at(rows, hbm_frac, quality).itl_s
}

pub(crate) fn build(report: &mut ExperimentReport, fast: bool, _tracer: &mut Tracer) {
    let artifact = trace_artifact();
    report.table(artifact_table(&artifact));

    let rows = degradation_rows(fast);
    let full_itl_s = itl_at(&rows, 1.0, PredictorQuality::Oracle);
    report.table(degradation_table(&rows, full_itl_s));
    report.table(replication_table(&artifact));

    let (walled, offloaded) = cliff_reports();
    report.table(cliff_counts_table(&walled, &offloaded));
    report.table(cliff_frontier_table(&offloaded));

    // The budget knee: the largest constrained budget whose trained
    // predictor no longer holds ITL within 25% of the full-budget price.
    let swept = budgets(fast);
    let knee = swept
        .iter()
        .filter(|&&b| b < 1.0)
        .find(|&&b| itl_at(&rows, b, PredictorQuality::Frequency) > 1.25 * full_itl_s)
        .copied();
    // Quality-ladder spread (uniform over oracle) on TTFT — the prefill
    // window is long enough for prediction quality to matter, where the
    // decode stall saturates on miss latency. Where the spread collapses,
    // prefetch quality has stopped saving the budget.
    let spread = |b: f64| {
        row_at(&rows, b, PredictorQuality::Uniform).ttft_s
            / row_at(&rows, b, PredictorQuality::Oracle).ttft_s
    };
    let widest = swept
        .iter()
        .copied()
        .max_by(|&a, &b| spread(a).total_cmp(&spread(b)))
        .unwrap_or(1.0);
    let tightest = swept.last().copied().unwrap_or(1.0);
    let cliff = offloaded
        .frontier
        .iter()
        .find(|c| !c.config.residency.is_all_resident());
    let base = offloaded
        .frontier
        .iter()
        .find(|c| c.config.residency.is_all_resident());
    report.note(format!(
        "Residencies derived from the seed-{MEM_SEED} routing trace and priced as prefetch \
         transfers that overlap the layer's compute window (stall = max(0, load - window)). \
         The full budget reproduces the all-resident prices bit for bit. The budget knee \
         sits at {}: the first swept budget where the trained frequency predictor exceeds \
         1.25x the full-budget ITL. The predictor-quality ladder shows in TTFT (the \
         prefill window is long enough for prediction quality to matter): widest at a {} \
         budget (uniform {:.2}x oracle) and collapsed to {:.2}x at {} — once miss traffic \
         swamps the overlap window, prefetch quality stops saving an over-constrained \
         budget. On \
         one 80 GB device the all-resident grid rejects every fp16 Mixtral candidate as \
         OOM ({} rejections); the offload grid keeps {} on the frontier at {} ITL — \
         feasible, full fp16 accuracy, and {:.1}x the ITL of the cheapest all-resident \
         (fp8) point: the OOM wall priced as a cost cliff.",
        knee.map_or("below the sweep".to_string(), pct),
        pct(widest),
        spread(widest),
        spread(tightest),
        pct(tightest),
        walled.counts.infeasible_oom,
        cliff.map_or("no offloaded point".to_string(), |c| c.label.clone()),
        cliff.map_or("-".to_string(), |c| secs(c.predicted_itl_s)),
        match (cliff, base) {
            (Some(c), Some(b)) if b.predicted_itl_s > 0.0 => c.predicted_itl_s / b.predicted_itl_s,
            _ => f64::NAN,
        },
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_tensor::Precision;

    #[test]
    fn report_renders_with_all_tables() {
        let rendered = crate::run_experiment("ext-mem", true, &mut Tracer::disabled())
            .expect("registered")
            .render();
        assert!(rendered.contains("routing-trace artifact"));
        assert!(rendered.contains("TTFT/ITL under HBM budget"));
        assert!(rendered.contains("hot-expert replication"));
        assert!(rendered.contains("cost cliff"));
        assert!(rendered.contains("offload frontier"));
        assert!(rendered.contains("hbm"));
    }

    #[test]
    fn budget_pressure_is_monotone_under_the_oracle() {
        let rows = degradation_rows(true);
        let oracle: Vec<f64> = budgets(true)
            .iter()
            .map(|&b| itl_at(&rows, b, PredictorQuality::Oracle))
            .collect();
        for pair in oracle.windows(2) {
            assert!(
                pair[1] >= pair[0] - 1e-15,
                "shrinking budget must not speed decode: {pair:?}"
            );
        }
    }

    #[test]
    fn quality_ladder_orders_every_constrained_budget() {
        let rows = degradation_rows(true);
        for &b in budgets(true).iter().filter(|&&b| b < 1.0) {
            let oracle = row_at(&rows, b, PredictorQuality::Oracle);
            let freq = row_at(&rows, b, PredictorQuality::Frequency);
            let uniform = row_at(&rows, b, PredictorQuality::Uniform);
            for (metric, o, f, u) in [
                ("itl", oracle.itl_s, freq.itl_s, uniform.itl_s),
                ("ttft", oracle.ttft_s, freq.ttft_s, uniform.ttft_s),
            ] {
                assert!(o <= f + 1e-12, "budget {b} {metric}: {o} vs {f}");
                assert!(f <= u + 1e-12, "budget {b} {metric}: {f} vs {u}");
            }
        }
    }

    #[test]
    fn offload_turns_the_oom_wall_into_a_cost_cliff() {
        let (walled, offloaded) = cliff_reports();
        assert!(
            walled.counts.infeasible_oom > 0,
            "fp16 Mixtral cannot fit one 80 GB device"
        );
        assert!(
            !walled
                .frontier
                .iter()
                .any(|c| c.config.precision == Precision::F16),
            "the all-resident grid must not surface fp16 on one device"
        );
        let cliff = offloaded
            .frontier
            .iter()
            .find(|c| c.config.precision == Precision::F16 && !c.config.residency.is_all_resident())
            .expect("an offloaded fp16 candidate joins the frontier");
        let fp8 = offloaded
            .frontier
            .iter()
            .find(|c| c.config.residency.is_all_resident())
            .expect("the fp8 all-resident points survive");
        assert!(
            cliff.predicted_itl_s > fp8.predicted_itl_s,
            "the cliff must be visible: offloaded fp16 {} vs resident fp8 {}",
            cliff.predicted_itl_s,
            fp8.predicted_itl_s
        );
        assert!(cliff.accuracy > fp8.accuracy, "fp16 keeps full accuracy");
    }

    #[test]
    fn replication_never_loses_to_lpt_in_the_report() {
        let artifact = trace_artifact();
        for factor in [1usize, 2, 4] {
            let study = replication_study(&artifact.stats, 4, factor);
            assert!(!study.is_empty());
            let lpt = mean_imbalance(&study, |r| r.lpt);
            let replicated = mean_imbalance(&study, |r| r.replicated);
            assert!(
                replicated <= lpt + 1e-9,
                "factor {factor}: {replicated} vs {lpt}"
            );
        }
    }
}
