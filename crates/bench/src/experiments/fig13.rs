//! Figure 13: TP/PP/EP parallelism scaling for Mixtral-8x7B and
//! OLMoE-1B-7B on 1-4 H100s.

use moe_gpusim::parallel::ParallelPlan;
use moe_model::registry::{mixtral_8x7b, olmoe_1b_7b};
use moe_model::ModelConfig;
use moe_tensor::Precision;
use moe_trace::Tracer;

use crate::common::place_with_plan;
use crate::report::{num, tput_cell, ExperimentReport, Table};

pub const BATCH: usize = 16;
pub const IN_LEN: usize = 1024;
pub const OUT_LEN: usize = 1024;

/// GPU counts swept.
pub const GPU_COUNTS: [usize; 3] = [1, 2, 4];

/// One model's scaling results: `(plan label, gpus, Option<tok/s>)`.
pub fn sweep(base: &ModelConfig, precision: Precision) -> Vec<(String, usize, Option<f64>)> {
    let mut out = Vec::new();
    for &gpus in &GPU_COUNTS {
        let plans = if gpus == 1 {
            vec![ParallelPlan::single()]
        } else {
            ParallelPlan::fig13_plans(gpus)
        };
        for plan in plans {
            let label = plan.label();
            let result = place_with_plan(base, precision, plan, true)
                .ok()
                .and_then(|m| {
                    m.run(
                        BATCH,
                        IN_LEN,
                        OUT_LEN,
                        &mut moe_trace::Tracer::disabled(),
                        0,
                    )
                    .ok()
                })
                .map(|r| r.throughput_tok_s);
            out.push((label, gpus, result));
        }
    }
    out
}

/// Lookup helper (by plan prefix "TP"/"TP+EP"/"PP"/"PP+EP" and gpu count).
pub fn at(
    sweep: &[(String, usize, Option<f64>)],
    mode: &str,
    ep: bool,
    gpus: usize,
) -> Option<f64> {
    let want = if gpus == 1 {
        "TP1".to_string()
    } else if ep {
        format!("{mode}{gpus}+EP")
    } else {
        format!("{mode}{gpus}")
    };
    sweep
        .iter()
        .find(|s| s.0 == want && s.1 == gpus)
        .and_then(|s| s.2)
}

pub(crate) fn build(report: &mut ExperimentReport, _fast: bool, _tracer: &mut Tracer) {
    // Mixtral at fp16 cannot exist on one GPU; the 1-GPU baseline (and all
    // its points, for a fair curve) uses fp8 weights. OLMoE runs fp16.
    for (base, precision) in [
        (mixtral_8x7b(), Precision::Fp8E4M3),
        (olmoe_1b_7b(), Precision::F16),
    ] {
        let s = sweep(&base, precision);
        let mut t = Table::new(
            format!("{} ({}) — throughput (tok/s)", base.name, precision.label()),
            &["Placement", "GPUs", "tok/s", "Speedup vs 1 GPU"],
        );
        let single = at(&s, "TP", false, 1);
        for (label, gpus, v) in &s {
            let speedup = match (v, single) {
                (Some(v), Some(s1)) => num(v / s1),
                _ => "-".into(),
            };
            t.row(vec![
                label.clone(),
                gpus.to_string(),
                tput_cell(*v),
                speedup,
            ]);
        }
        report.table(t);
    }
    report.note(
        "TP without EP scales best (paper: >2x from 1 to 4 GPUs); TP+EP scales less; \
         PP+EP improves minimally; PP alone is nearly flat.",
    );
    report.note(
        "A single-GPU Mixtral-8x7B baseline requires 8-bit weights (94 GB at fp16); the \
         whole Mixtral curve therefore runs fp8 for internal consistency.",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixtral_sweep() -> Vec<(String, usize, Option<f64>)> {
        sweep(&mixtral_8x7b(), Precision::Fp8E4M3)
    }

    #[test]
    fn tp_scales_over_2x_on_4_gpus() {
        let s = mixtral_sweep();
        let single = at(&s, "TP", false, 1).unwrap();
        let tp4 = at(&s, "TP", false, 4).unwrap();
        assert!(tp4 / single > 2.0, "speedup {}", tp4 / single);
    }

    #[test]
    fn tp_beats_tp_ep_beats_pp() {
        for (base, p) in [
            (mixtral_8x7b(), Precision::Fp8E4M3),
            (olmoe_1b_7b(), Precision::F16),
        ] {
            let s = sweep(&base, p);
            let tp4 = at(&s, "TP", false, 4).unwrap();
            let tp4ep = at(&s, "TP", true, 4).unwrap();
            let pp4ep = at(&s, "PP", true, 4).unwrap();
            let pp4 = at(&s, "PP", false, 4).unwrap();
            assert!(tp4 > tp4ep, "{}: TP4 {tp4} vs TP4+EP {tp4ep}", base.name);
            assert!(tp4ep > pp4, "{}: TP4+EP {tp4ep} vs PP4 {pp4}", base.name);
            assert!(
                pp4ep >= pp4 * 0.95,
                "{}: PP4+EP {pp4ep} vs PP4 {pp4}",
                base.name
            );
        }
    }

    #[test]
    fn pp_nearly_flat() {
        let s = mixtral_sweep();
        let single = at(&s, "TP", false, 1).unwrap();
        let pp4 = at(&s, "PP", false, 4).unwrap();
        assert!(pp4 / single < 1.5, "PP speedup {}", pp4 / single);
    }

    #[test]
    fn every_plan_produced_a_result() {
        // fp8 Mixtral fits everywhere in this sweep; no OOM cells.
        let s = mixtral_sweep();
        assert_eq!(s.len(), 1 + 4 + 4);
        assert!(s.iter().all(|p| p.2.is_some()), "{s:?}");
    }
}
