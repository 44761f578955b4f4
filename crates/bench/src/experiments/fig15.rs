//! Figure 15: expert-activation-frequency heat maps of the DeepSeek-VL2
//! family and MolmoE-1B on an MME-like task stream, from *real* routing
//! through the engine's routers (see `moe_eval::activation`).

use moe_eval::activation::{activation_study, ActivationReport};
use moe_model::registry::{deepseek_vl2, deepseek_vl2_small, deepseek_vl2_tiny, molmoe_1b};
use moe_trace::Tracer;

use crate::report::{num, ExperimentReport, Table};

/// Tokens routed per model (scaled to full-MME counts afterwards).
pub const SAMPLE_TOKENS: usize = 1024;

/// Run the study for the four models of the figure. Results are cached
/// per process (the study routes real tokens and is the one genuinely
/// compute-heavy experiment).
pub fn measure(fast: bool) -> Vec<ActivationReport> {
    static CACHE: std::sync::OnceLock<Vec<ActivationReport>> = std::sync::OnceLock::new();
    let _ = fast; // sample size must stay large enough for stable statistics
    CACHE
        .get_or_init(|| {
            [
                deepseek_vl2_tiny(),
                deepseek_vl2_small(),
                deepseek_vl2(),
                molmoe_1b(),
            ]
            .iter()
            .map(|m| activation_study(m, SAMPLE_TOKENS, 7))
            .collect()
        })
        .clone()
}

pub(crate) fn build(report: &mut ExperimentReport, fast: bool, _tracer: &mut Tracer) {
    let mut t = Table::new(
        "activation statistics",
        &[
            "Model",
            "Experts",
            "Peak count",
            "Max/mean imbalance",
            "Norm. entropy",
        ],
    );
    let reports = measure(fast);
    for r in &reports {
        t.row(vec![
            r.model.clone(),
            r.num_experts.to_string(),
            r.peak_count.to_string(),
            num(r.mean_imbalance),
            num(r.mean_entropy),
        ]);
    }
    report.table(t);

    // A compact heat-map digest: the top-3 expert shares of layer 0.
    let mut digest = Table::new(
        "layer-0 heat-map digest (top-3 expert shares)",
        &["Model", "1st", "2nd", "3rd", "uniform share"],
    );
    for r in &reports {
        let mut row0: Vec<f64> = r.heatmap[0].clone();
        row0.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        digest.row(vec![
            r.model.clone(),
            format!("{:.1}%", row0[0] * 100.0),
            format!("{:.1}%", row0[1] * 100.0),
            format!("{:.1}%", row0[2] * 100.0),
            format!("{:.1}%", 100.0 / r.num_experts as f64),
        ]);
    }
    report.table(digest);
    report.note(
        "DeepSeek-VL2 models (aux-loss balanced) activate experts near-uniformly; \
         MolmoE-1B routes far more skewed, with single-expert counts several times \
         higher (paper: MolmoE peaks near 1M vs ~290K for DeepSeek-VL2).",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn molmoe_is_the_outlier() {
        let rs = measure(true);
        let molmoe = rs.iter().find(|r| r.model == "MolmoE-1B").expect("present");
        for r in rs.iter().filter(|r| r.model != "MolmoE-1B") {
            assert!(
                molmoe.mean_imbalance > r.mean_imbalance,
                "{}: {} vs molmoe {}",
                r.model,
                r.mean_imbalance,
                molmoe.mean_imbalance
            );
            assert!(molmoe.mean_entropy < r.mean_entropy);
        }
    }

    #[test]
    fn peak_count_magnitudes() {
        let rs = measure(true);
        let molmoe = rs.iter().find(|r| r.model == "MolmoE-1B").expect("present");
        let tiny = rs
            .iter()
            .find(|r| r.model == "DeepSeek-VL2-Tiny")
            .expect("present");
        assert!(molmoe.peak_count > 2 * tiny.peak_count);
    }

    #[test]
    fn heatmaps_have_model_shapes() {
        let rs = measure(true);
        for r in &rs {
            assert_eq!(r.heatmap.len(), r.num_layers);
            assert!(r.heatmap.iter().all(|row| row.len() == r.num_experts));
        }
    }
}
