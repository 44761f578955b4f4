//! Figure 1: layer-wise total and active parameter breakdown for
//! Mixtral-8x7B, OLMoE-1B-7B and Qwen1.5-MoE.

use moe_model::params::{human_params, ParamBreakdown};
use moe_model::registry::{mixtral_8x7b, olmoe_1b_7b, qwen15_moe_a27b};
use moe_model::ModelConfig;
use moe_trace::Tracer;

use crate::report::{num, ExperimentReport, Table};

/// The three models Figure 1 plots.
fn fig1_models() -> Vec<ModelConfig> {
    vec![mixtral_8x7b(), olmoe_1b_7b(), qwen15_moe_a27b()]
}

/// Build the report.
pub(crate) fn build(report: &mut ExperimentReport, _fast: bool, _tracer: &mut Tracer) {
    for m in fig1_models() {
        let b = ParamBreakdown::of(&m);
        let mut t = Table::new(
            format!("{} (per layer)", m.name),
            &["Component", "Total", "Active", "Share of layer"],
        );
        // All layers are identical in these models; show layer 0 and the
        // whole-model aggregates.
        let lp = b.layers[0];
        let total = lp.total() as f64;
        let mut push = |name: &str, tot: u64, act: u64| {
            t.row(vec![
                name.into(),
                human_params(tot),
                human_params(act),
                format!("{}%", num(100.0 * tot as f64 / total)),
            ]);
        };
        push("attention", lp.attention, lp.attention);
        push("router", lp.router, lp.router);
        push("routed experts", lp.experts_total, lp.experts_active);
        push("shared experts", lp.shared_experts, lp.shared_experts);
        report.table(t);

        let mut agg = Table::new(
            format!("{} (whole model)", m.name),
            &["Total params", "Active params", "MoE fraction"],
        );
        agg.row(vec![
            human_params(b.total()),
            human_params(b.active()),
            format!("{}%", num(100.0 * b.moe_fraction())),
        ]);
        report.table(agg);
    }
    report.note(
        "Reproduces the figure's claim: MoE (expert) parameters dominate both total and \
         active parameter counts in every layer of all three models.",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_models_two_tables_each() {
        let r = crate::run_experiment("fig1", true, &mut Tracer::disabled()).expect("registered");
        assert_eq!(r.tables.len(), 6);
    }

    #[test]
    fn moe_dominates_every_model() {
        for m in fig1_models() {
            let b = ParamBreakdown::of(&m);
            assert!(b.moe_fraction() > 0.75, "{}", m.name);
            assert!(b.layers[0].moe_fraction() > 0.75, "{}", m.name);
        }
    }

    #[test]
    fn active_share_smaller_for_sparser_models() {
        // OLMoE activates 8/64 experts; Mixtral 2/8. Active/total expert
        // ratio must reflect that.
        let olmoe = ParamBreakdown::of(&olmoe_1b_7b());
        let mixtral = ParamBreakdown::of(&mixtral_8x7b());
        let ratio = |b: &ParamBreakdown| {
            b.components.experts_active as f64 / b.components.experts_total as f64
        };
        assert!((ratio(&olmoe) - 8.0 / 64.0).abs() < 1e-9);
        assert!((ratio(&mixtral) - 2.0 / 8.0).abs() < 1e-9);
    }
}
