//! Figure 18: throughput / latency vs average accuracy for the
//! DeepSeek-VL2 family.

use moe_eval::harness::evaluate;
use moe_eval::profiles::capability;
use moe_eval::tasks::vlm_task_suite;
use moe_trace::Tracer;

use super::fig04;
use crate::report::{num, secs, ExperimentReport, Table};

/// One frontier point (samples/s is the paper's VLM throughput metric).
#[derive(Debug, Clone, PartialEq)]
pub struct VlmFrontierPoint {
    pub model: String,
    pub samples_per_s: f64,
    pub e2e_s: f64,
    pub avg_accuracy: f64,
}

/// Measure the three VLMs.
pub fn measure(fast: bool) -> Vec<VlmFrontierPoint> {
    let suite = vlm_task_suite();
    fig04::measure(fast)
        .into_iter()
        .map(|(name, run)| {
            let profile = capability(&name).expect("all Fig.18 models have profiles");
            let report = evaluate(&name, profile, &suite);
            VlmFrontierPoint {
                model: name,
                samples_per_s: run.samples_per_s,
                e2e_s: run.e2e_s,
                avg_accuracy: report.average_accuracy(),
            }
        })
        .collect()
}

pub(crate) fn build(report: &mut ExperimentReport, fast: bool, _tracer: &mut Tracer) {
    let mut t = Table::new(
        "performance-accuracy frontier",
        &["Model", "Samples/s", "E2E latency", "Avg accuracy"],
    );
    for p in measure(fast) {
        t.row(vec![
            p.model,
            num(p.samples_per_s),
            secs(p.e2e_s),
            format!("{:.1}%", p.avg_accuracy * 100.0),
        ]);
    }
    report.table(t);
    report.note(
        "As in the paper: Tiny is fastest and least accurate, the Base model most \
         accurate and slowest, Small the balanced middle ground.",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_fast_base_accurate() {
        let ps = measure(true);
        assert_eq!(ps.len(), 3);
        let tiny = &ps[0];
        let small = &ps[1];
        let base = &ps[2];
        assert!(tiny.samples_per_s > small.samples_per_s);
        assert!(small.samples_per_s > base.samples_per_s);
        assert!(tiny.avg_accuracy < small.avg_accuracy);
        assert!(small.avg_accuracy < base.avg_accuracy);
        assert!(tiny.e2e_s < base.e2e_s);
    }

    #[test]
    fn vlm_accuracy_below_llm_leaders() {
        // VLM multimodal accuracy sits below top LLM language accuracy —
        // a sanity cross-check between the two frontiers.
        let vlm_best = measure(true)
            .into_iter()
            .map(|p| p.avg_accuracy)
            .fold(0.0, f64::max);
        assert!((0.3..0.8).contains(&vlm_best));
    }
}
