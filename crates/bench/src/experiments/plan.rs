//! `ext-plan`: deployment planning on the simulated fleet.
//!
//! Four studies driven by `moe-plan`:
//!
//! * **Headline plan** — Mixtral-8x7B on 4x H100 under a latency SLO
//!   (p99 TTFT 1 s, p99 ITL 14 ms, accuracy floor 0.65) over the full
//!   paper grid. The Pareto frontier spans cheap single-device fp8
//!   replicas through latency-optimal TP4; the SLO admits exactly the
//!   tensor-parallel degree-4 placements, so the recommendation lands on
//!   a TP=4 plan — the paper's own serving choice for Mixtral.
//! * **Figure-13 rediscovery** — the four degree-4 placements scored at
//!   the same operating point order `TP4 < TP4+EP < PP4+EP < PP4` on
//!   inter-token latency, reproducing Figure 13's `TP >> PP/EP` decode
//!   ordering from the planner's own cost model.
//! * **The OOM wall** — Mixtral across 1–8 device fleets: fp16 needs
//!   2 devices (94 GB of weights against an 80 GB card), and the
//!   planner's infeasibility counts trace the wall analytically, echoing
//!   Figure 5's memory ceiling.
//! * **Beam vs exhaustive** — on a small OLMoE grid the branch-and-bound
//!   search must emit a byte-identical frontier to exhaustive scoring
//!   (its bounds are admissible; only the width cap is lossy).

use moe_cluster::{TenantSpec, WorkloadSpec};
use moe_model::registry::{mixtral_8x7b, olmoe_1b_7b};
use moe_model::ModelConfig;
use moe_plan::{
    plan, plan_traced, score_candidate, sketch_of, CandidateConfig, FleetSpec, PlanReport,
    PlannerSpec, SearchMode, SearchSpace, SloSpec,
};
use moe_tensor::Precision;
use moe_trace::Tracer;

use crate::report::{num, secs, yes_no, ExperimentReport, Table};

/// Master seed every `ext-plan` planner run derives from.
pub const PLAN_SEED: u64 = 17;

/// Frontier rows shown in the headline table (the full frontier is
/// larger; rows are cost-ascending so the cut keeps the cheap end).
const FRONTIER_ROWS: usize = 12;

/// The headline workload: a chat-shaped Poisson stream.
fn chat_workload(requests: usize) -> WorkloadSpec {
    WorkloadSpec::poisson(
        8.0,
        requests,
        TenantSpec::uniform("chat", 1.0, (256, 1024), (64, 256)),
    )
}

/// The headline spec: Mixtral-8x7B on 4x H100, paper grid, latency SLO
/// tight enough that only the degree-4 tensor placements qualify.
fn mixtral_4dev_spec(mode: SearchMode) -> PlannerSpec {
    PlannerSpec {
        model: mixtral_8x7b(),
        draft: None,
        fleet: FleetSpec::h100(4),
        workload: chat_workload(120),
        slo: SloSpec::latency(1.0, 0.014).with_accuracy_floor(0.65),
        space: SearchSpace::paper(),
        mode,
        refine_top_k: 6,
        seed: PLAN_SEED,
    }
}

/// A small OLMoE spec for the beam-vs-exhaustive agreement check.
fn olmoe_smoke_spec(mode: SearchMode) -> PlannerSpec {
    PlannerSpec {
        model: olmoe_1b_7b(),
        draft: None,
        fleet: FleetSpec::h100(2),
        workload: WorkloadSpec::poisson(
            25.0,
            40,
            TenantSpec::uniform("chat", 1.0, (128, 256), (32, 64)),
        ),
        slo: SloSpec::latency(0.5, 0.05),
        space: SearchSpace::minimal(),
        mode,
        refine_top_k: 2,
        seed: PLAN_SEED,
    }
}

/// Mixtral spec used for the OOM-wall fleet sweep (exhaustive, no
/// refinement beyond the single cheapest pick).
fn mixtral_fleet_spec(devices: usize) -> PlannerSpec {
    let mut spec = mixtral_4dev_spec(SearchMode::Exhaustive);
    spec.fleet = FleetSpec::h100(devices);
    spec.refine_top_k = 1;
    spec
}

fn frontier_table(report: &PlanReport) -> Table {
    let mut t = Table::new(
        format!(
            "Pareto frontier, {} on {} ({} of {} shown, cost-ascending)",
            report.model,
            report.fleet,
            report.frontier.len().min(FRONTIER_ROWS),
            report.frontier.len()
        ),
        &[
            "Config",
            "Devices",
            "tok/s",
            "TTFT",
            "ITL",
            "Cost dev-ms/tok",
            "Accuracy",
            "Meets SLO",
        ],
    );
    for c in report.frontier.iter().take(FRONTIER_ROWS) {
        t.row(vec![
            c.label.clone(),
            num(c.devices as f64),
            num(c.predicted_tok_s),
            secs(c.predicted_ttft_s),
            secs(c.predicted_itl_s),
            format!("{:.4}", c.cost_per_token_device_s * 1e3),
            num(c.accuracy),
            yes_no(c.meets_slo),
        ]);
    }
    t
}

fn refined_table(report: &PlanReport) -> Table {
    let mut t = Table::new(
        "cluster-refined top candidates (measured on the simulated fleet)",
        &[
            "Config",
            "Policy",
            "p99 TTFT",
            "p99 ITL",
            "SLO attain",
            "Cost dev-ms/tok",
            "Meets SLO",
        ],
    );
    for r in &report.refined {
        t.row(vec![
            r.label.clone(),
            r.policy.clone(),
            secs(r.p99_ttft_s),
            secs(r.p99_itl_s),
            num(r.slo_attainment),
            format!("{:.4}", r.cost_per_token_device_s * 1e3),
            yes_no(r.meets_slo),
        ]);
    }
    t
}

/// Score the four degree-4 fp16 placements of `model` at the headline
/// operating point: `(plan label, ITL, throughput)` rows in plan order.
fn fig13_rows(model: &ModelConfig) -> Vec<(String, f64, f64)> {
    let mut spec = mixtral_4dev_spec(SearchMode::Exhaustive);
    spec.model = model.clone();
    let trace = moe_cluster::generate(&spec.workload, spec.seed);
    let sketch = sketch_of(&trace);
    moe_gpusim::parallel::ParallelPlan::fig13_plans(4)
        .into_iter()
        .filter_map(|p| {
            let candidate = CandidateConfig {
                plan: p,
                replicas: 1,
                precision: Precision::F16,
                prune_ratio: 0.0,
                spec_decode: false,
                max_batch_tokens: 8192,
                residency: moe_gpusim::residency::ExpertResidency::all_resident(),
            };
            score_candidate(&spec, &sketch, &candidate)
                .ok()
                .map(|s| (p.label(), s.predicted_itl_s, s.predicted_tok_s))
        })
        .collect()
}

/// Build the planning report while recording the headline planner run —
/// its search marker and every refinement cluster simulation — into
/// `tracer` on the planner track.
pub(crate) fn build(report: &mut ExperimentReport, fast: bool, tracer: &mut Tracer) {
    // Headline: Mixtral on 4 devices, beam search wide enough to be
    // provably exhaustive (32 shapes on this fleet).
    let headline_spec = mixtral_4dev_spec(SearchMode::Beam { width: 64 });
    let headline = plan_traced(&headline_spec, tracer)
        .expect("the 4-device Mixtral grid has feasible candidates");
    report.table(frontier_table(&headline));
    report.table(refined_table(&headline));

    let mut fig13 = Table::new(
        "Figure-13 rediscovery: degree-4 placements at the headline operating point (fp16)",
        &["Plan", "ITL", "tok/s"],
    );
    for (label, itl, tok) in fig13_rows(&mixtral_8x7b()) {
        fig13.row(vec![label, secs(itl), num(tok)]);
    }
    report.table(fig13);

    // The OOM wall: fleet sizes vs feasibility counts.
    let fleets: &[usize] = if fast { &[1, 4] } else { &[1, 2, 4, 8] };
    let mut wall = Table::new(
        "the OOM wall: Mixtral-8x7B feasibility vs fleet size (paper grid, exhaustive)",
        &[
            "Devices",
            "Enumerated",
            "Scored",
            "OOM",
            "Plan-invalid",
            "Recommended",
        ],
    );
    for &devices in fleets {
        let spec = mixtral_fleet_spec(devices);
        let row = match plan(&spec) {
            Ok(r) => vec![
                num(devices as f64),
                num(r.counts.enumerated as f64),
                num(r.counts.scored as f64),
                num(r.counts.infeasible_oom as f64),
                num(r.counts.infeasible_plan as f64),
                r.recommended.label.clone(),
            ],
            Err(e) => vec![
                num(devices as f64),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                format!("{e}"),
            ],
        };
        wall.row(row);
    }
    report.table(wall);

    // Beam-vs-exhaustive agreement on the smoke grid.
    let exhaustive = plan(&olmoe_smoke_spec(SearchMode::Exhaustive))
        .expect("the OLMoE smoke grid has feasible candidates");
    let beam = plan(&olmoe_smoke_spec(SearchMode::Beam { width: 64 }))
        .expect("the OLMoE smoke grid has feasible candidates");
    let identical =
        moe_json::to_string(&exhaustive.frontier) == moe_json::to_string(&beam.frontier);
    let mut agree = Table::new(
        "beam vs exhaustive (OLMoE-1B-7B, 2 devices, minimal grid)",
        &[
            "Mode",
            "Scored",
            "Bound-pruned",
            "Width-pruned",
            "Frontier",
            "Frontier JSON identical",
        ],
    );
    for (r, label) in [(&exhaustive, "exhaustive"), (&beam, "beam(64)")] {
        agree.row(vec![
            label.to_string(),
            num(r.counts.scored as f64),
            num(r.counts.pruned_by_bound as f64),
            num(r.counts.pruned_by_width as f64),
            num(r.frontier.len() as f64),
            yes_no(identical),
        ]);
    }
    report.table(agree);

    report.note(format!(
        "Recommended for Mixtral-8x7B on 4x H100 under a 1 s p99 TTFT / 14 ms p99 ITL SLO \
         with a 0.65 accuracy floor: {} routed {} (measured p99 TTFT {}, p99 ITL {}). Only \
         the tensor-parallel degree-4 placements clear the ITL bound — TP shards every \
         weight read across all four devices, where pipeline placements still decode each \
         token through full-width layers (Figure 13). The fleet sweep shows the Figure-5 \
         OOM wall analytically: fp16 Mixtral (94 GB of weights) cannot fit one 80 GB \
         device, so every single-device fp16 point lands in the OOM column and the \
         1-device recommendation falls to fp8.",
        headline.recommended.label,
        headline.recommended.policy,
        secs(headline.recommended.p99_ttft_s),
        secs(headline.recommended.p99_itl_s),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_gpusim::parallel::ParallelMode;

    #[test]
    fn recommended_mixtral_4dev_is_tp4() {
        let report = plan(&mixtral_4dev_spec(SearchMode::Beam { width: 64 })).unwrap();
        let plan = report.recommended.config.plan;
        assert_eq!(plan.mode, ParallelMode::Tensor, "TP wins the latency SLO");
        assert_eq!(plan.degree, 4, "full-width TP over the fleet");
        assert!(report.recommended.meets_slo, "the recommendation is viable");
        assert_eq!(report.recommended.config.devices(), 4);
    }

    #[test]
    fn fig13_ordering_holds_in_the_cost_model() {
        let rows = fig13_rows(&mixtral_8x7b());
        assert_eq!(rows.len(), 4);
        let itl = |label: &str| {
            rows.iter()
                .find(|(l, _, _)| l == label)
                .map(|(_, itl, _)| *itl)
                .expect("plan present")
        };
        assert!(itl("TP4") < itl("TP4+EP"), "pure TP decodes fastest");
        assert!(itl("TP4+EP") < itl("PP4+EP"), "TP beats pipeline");
        assert!(
            itl("PP4+EP") < itl("PP4"),
            "EP spreads the expert tables, so pipelined decode still gains from it"
        );
    }

    #[test]
    fn oom_wall_blocks_single_device_fp16() {
        let report = plan(&mixtral_fleet_spec(1)).unwrap();
        assert!(report.counts.infeasible_oom > 0, "fp16 cannot fit 80 GB");
        assert_eq!(
            report.recommended.config.precision,
            Precision::Fp8E4M3,
            "one device forces quantization"
        );
    }

    #[test]
    fn beam_agrees_with_exhaustive_on_smoke_grid() {
        let e = plan(&olmoe_smoke_spec(SearchMode::Exhaustive)).unwrap();
        let b = plan(&olmoe_smoke_spec(SearchMode::Beam { width: 64 })).unwrap();
        assert_eq!(b.counts.pruned_by_width, 0);
        assert_eq!(
            moe_json::to_string(&e.frontier),
            moe_json::to_string(&b.frontier)
        );
        assert_eq!(e.recommended, b.recommended);
    }

    #[test]
    fn report_renders_with_all_tables() {
        let rendered = crate::run_experiment("ext-plan", true, &mut Tracer::disabled())
            .expect("registered")
            .render();
        assert!(rendered.contains("Pareto frontier"));
        assert!(rendered.contains("cluster-refined top candidates"));
        assert!(rendered.contains("Figure-13 rediscovery"));
        assert!(rendered.contains("the OOM wall"));
        assert!(rendered.contains("beam vs exhaustive"));
        assert!(rendered.contains("TP4"));
    }
}
