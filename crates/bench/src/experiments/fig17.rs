//! Figure 17: throughput / latency vs average accuracy for the six LLMs —
//! the performance-efficiency frontier.

use moe_eval::harness::evaluate;
use moe_eval::profiles::capability;
use moe_eval::tasks::lm_task_suite;
use moe_trace::Tracer;

use super::fig03;
use crate::report::{num, secs, ExperimentReport, Table};

/// One frontier point.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    pub model: String,
    pub throughput_tok_s: f64,
    pub e2e_s: f64,
    pub avg_accuracy: f64,
}

/// Measure all six LLMs: serving metrics from the Fig.-3 workload,
/// accuracy from the full lm-eval-style harness.
pub fn measure(fast: bool) -> Vec<FrontierPoint> {
    let suite = lm_task_suite();
    fig03::measure(fast)
        .into_iter()
        .map(|(name, _gpus, run)| {
            let profile = capability(&name).expect("all Fig.17 models have profiles");
            let report = evaluate(&name, profile, &suite);
            FrontierPoint {
                model: name,
                throughput_tok_s: run.throughput_tok_s,
                e2e_s: run.e2e_s,
                avg_accuracy: report.average_accuracy(),
            }
        })
        .collect()
}

pub(crate) fn build(report: &mut ExperimentReport, fast: bool, _tracer: &mut Tracer) {
    let mut t = Table::new(
        "performance-accuracy frontier",
        &["Model", "Throughput tok/s", "E2E latency", "Avg accuracy"],
    );
    for p in measure(fast) {
        t.row(vec![
            p.model,
            num(p.throughput_tok_s),
            secs(p.e2e_s),
            format!("{:.1}%", p.avg_accuracy * 100.0),
        ]);
    }
    report.table(t);
    report.note(
        "The frontier matches the paper: Qwen3-30B-A3B and Mixtral-8x7B lead accuracy at \
         higher latency; OLMoE-1B-7B leads efficiency at lower accuracy; DeepSeek-V2-Lite \
         and Qwen1.5-MoE sit in the balanced middle; Phi-3.5-MoE pays the most runtime for \
         competitive accuracy.",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points() -> Vec<FrontierPoint> {
        measure(true)
    }

    fn get(points: &[FrontierPoint], n: &str) -> FrontierPoint {
        points
            .iter()
            .find(|p| p.model == n)
            .expect("model present")
            .clone()
    }

    #[test]
    fn accuracy_leaders_are_large_moes() {
        let ps = points();
        let best = ps
            .iter()
            .max_by(|a, b| a.avg_accuracy.partial_cmp(&b.avg_accuracy).unwrap())
            .unwrap();
        assert_eq!(best.model, "Qwen3-30B-A3B");
        assert!(get(&ps, "Mixtral-8x7B").avg_accuracy > get(&ps, "OLMoE-1B-7B").avg_accuracy);
    }

    #[test]
    fn efficiency_accuracy_tradeoff_exists() {
        let ps = points();
        let olmoe = get(&ps, "OLMoE-1B-7B");
        let mixtral = get(&ps, "Mixtral-8x7B");
        assert!(olmoe.throughput_tok_s > mixtral.throughput_tok_s);
        assert!(olmoe.avg_accuracy < mixtral.avg_accuracy);
        assert!(olmoe.e2e_s < mixtral.e2e_s);
    }

    #[test]
    fn phi_has_poor_efficiency_despite_accuracy() {
        let ps = points();
        let phi = get(&ps, "Phi-3.5-MoE");
        let middle = get(&ps, "DeepSeek-V2-Lite");
        assert!(phi.avg_accuracy > middle.avg_accuracy);
        assert!(phi.throughput_tok_s < middle.throughput_tok_s);
    }

    #[test]
    fn accuracies_in_sane_band() {
        for p in points() {
            assert!(
                (0.35..0.95).contains(&p.avg_accuracy),
                "{}: {}",
                p.model,
                p.avg_accuracy
            );
        }
    }
}
