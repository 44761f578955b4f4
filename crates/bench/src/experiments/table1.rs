//! Table 1: comparison of Mixture-of-Experts model architectures.

use moe_model::params::{human_params, ParamBreakdown};
use moe_model::registry;
use moe_model::Modality;
use moe_trace::Tracer;

use crate::report::{ExperimentReport, Table};

/// The nine Table-1 models, in paper order.
fn table1_models() -> Vec<moe_model::ModelConfig> {
    let mut v = registry::llms();
    v.extend(registry::vlms());
    v
}

/// Build the report.
pub(crate) fn build(report: &mut ExperimentReport, _fast: bool, _tracer: &mut Tracer) {
    let mut t = Table::new(
        "architectures",
        &[
            "Model",
            "Modality",
            "#Layers",
            "Hidden",
            "FFN Dim",
            "#Experts",
            "#Active",
            "Size (ours)",
            "Active (ours)",
            "Size (paper)",
            "Active (paper)",
        ],
    );
    for m in table1_models() {
        let b = ParamBreakdown::of(&m);
        let moe = m.moe.as_ref().expect("all Table-1 models are MoEs");
        t.row(vec![
            m.name.clone(),
            match m.modality {
                Modality::Text => "Text".into(),
                Modality::TextImage => "Text+Image".into(),
            },
            m.num_layers.to_string(),
            m.hidden_size.to_string(),
            m.table_ffn_dim().to_string(),
            moe.num_experts.to_string(),
            moe.top_k.to_string(),
            human_params(b.total()),
            human_params(b.active()),
            m.reported_total_params
                .map(human_params)
                .unwrap_or_default(),
            m.reported_active_params
                .map(human_params)
                .unwrap_or_default(),
        ]);
    }
    report.table(t);
    report.note(
        "Structural hyperparameters follow the released model configs; where the paper's \
         printed FFN dimension differs (Qwen1.5-MoE, Qwen3-30B, OLMoE, DeepSeek-VL2), the \
         printed value is shown and the structural value drives all modeling.",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_nine_rows() {
        let r = crate::run_experiment("table1", true, &mut Tracer::disabled()).expect("registered");
        assert_eq!(r.tables[0].rows.len(), 9);
    }

    #[test]
    fn sizes_track_reported_values() {
        for m in table1_models() {
            let b = ParamBreakdown::of(&m);
            let err = b.total_error_vs_reported(&m).expect("all report sizes");
            assert!(err < 0.12, "{}", m.name);
        }
    }

    #[test]
    fn row_order_matches_paper() {
        let r = crate::run_experiment("table1", true, &mut Tracer::disabled()).expect("registered");
        assert_eq!(r.tables[0].rows[0][0], "Mixtral-8x7B");
        assert_eq!(r.tables[0].rows[8][0], "DeepSeek-VL2");
    }
}
