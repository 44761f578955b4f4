//! Weight-level expert pruning (Section 6.2), the functional counterpart
//! of `moe_model::prune`:
//!
//! * **Inter-expert** — score each expert by the product of its router-row
//!   norm (how much traffic it attracts) and its weight norm, drop the
//!   lowest-scoring fraction, and remove the matching router rows.
//! * **Intra-expert** — score each FFN hidden unit by
//!   `|gate_row| * |down_column|` (its contribution path), and drop the
//!   lowest-scoring units from gate/up rows and down columns.

use moe_model::{ModelConfig, PruneKind, PruneSpec};
use moe_tensor::Matrix;

use crate::model::MoeTransformer;
use crate::weights::{ExpertWeights, LayerWeights, ModelWeights};

// Weights are stored k-major (`[in x out]`), so a logical row of a weight
// (one output unit) is a stored column and a logical column is a stored
// row. Every norm sums in the logical row-major order.

/// Norm of stored row `r`: logical column `r`.
fn row_norm(m: &Matrix, r: usize) -> f32 {
    m.row(r).iter().map(|v| v * v).sum::<f32>().sqrt()
}

/// Norm of stored column `c`: logical row `c`.
fn col_norm(m: &Matrix, c: usize) -> f32 {
    (0..m.rows())
        .map(|r| m.get(r, c) * m.get(r, c))
        .sum::<f32>()
        .sqrt()
}

/// Frobenius norm of a k-major weight, summed over its logical rows.
fn frobenius_norm(m: &Matrix) -> f32 {
    (0..m.cols())
        .flat_map(|c| (0..m.rows()).map(move |r| m.get(r, c)))
        .map(|v| v * v)
        .sum::<f32>()
        .sqrt()
}

/// Inter-expert score of expert `e`: its router-row norm times its weight
/// norm.
fn inter_score(layer: &LayerWeights, e: usize) -> f32 {
    let traffic = col_norm(&layer.router, e);
    let weight = frobenius_norm(&layer.experts[e].gate) + frobenius_norm(&layer.experts[e].down);
    traffic * weight
}

/// Copy stored columns `kept` of `m` (logical rows) into a new matrix.
fn keep_cols(m: &Matrix, kept: &[usize]) -> Matrix {
    m.transpose().gather_rows(kept).transpose()
}

/// Indices of the `keep` highest-scoring entries, in ascending index order
/// (preserves relative structure).
fn keep_indices(scores: &[f32], keep: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    let mut kept: Vec<usize> = order.into_iter().take(keep).collect();
    kept.sort_unstable();
    kept
}

fn prune_expert_intra(e: &ExpertWeights, keep: usize) -> ExpertWeights {
    let ffn = e.ffn_dim();
    let scores: Vec<f32> = (0..ffn)
        .map(|i| col_norm(&e.gate, i) * row_norm(&e.down, i))
        .collect();
    let kept = keep_indices(&scores, keep);
    ExpertWeights {
        gate: keep_cols(&e.gate, &kept),
        up: keep_cols(&e.up, &kept),
        down: e.down.gather_rows(&kept),
    }
}

/// Apply a pruning spec to (config, weights) in place.
fn prune_weights(config: &mut ModelConfig, weights: &mut ModelWeights, spec: PruneSpec) {
    let moe = config.moe.as_mut().expect("pruning a dense model"); // lint:allow(no-panic-in-lib) -- caller contract: pruning applies only to MoE configs, fail fast on misuse
    match spec.kind {
        PruneKind::InterExpert => {
            let removed = (moe.num_experts as f64 * spec.ratio).round() as usize;
            let keep = (moe.num_experts - removed).max(1);
            for layer in &mut weights.layers {
                if !layer.is_moe() {
                    continue;
                }
                let scores: Vec<f32> = (0..layer.experts.len())
                    .map(|e| inter_score(layer, e))
                    .collect();
                let kept = keep_indices(&scores, keep);
                layer.experts = kept.iter().map(|&e| layer.experts[e].clone()).collect();
                layer.router = keep_cols(&layer.router, &kept);
            }
            moe.num_experts = keep;
            moe.top_k = moe.top_k.min(keep);
        }
        PruneKind::IntraExpert => {
            let keep = (((moe.expert_ffn_dim as f64) * (1.0 - spec.ratio)).round() as usize).max(1);
            for layer in &mut weights.layers {
                for e in &mut layer.experts {
                    *e = prune_expert_intra(e, keep);
                }
            }
            moe.expert_ffn_dim = keep;
        }
    }
}

/// Convenience: prune a built transformer in place.
pub fn prune_transformer(model: &mut MoeTransformer, spec: PruneSpec) {
    let (config, weights) = model.parts_mut();
    prune_weights(config, weights, spec);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;
    use moe_model::registry::tiny_test_model;
    use moe_model::ParamBreakdown;

    fn tiny() -> MoeTransformer {
        MoeTransformer::new(tiny_test_model(8, 2), 21)
    }

    #[test]
    fn inter_prune_drops_experts_and_router_rows() {
        let mut m = tiny();
        prune_transformer(&mut m, PruneSpec::new(PruneKind::InterExpert, 0.5));
        assert_eq!(m.config().moe.as_ref().unwrap().num_experts, 4);
        for layer in &m.weights().layers {
            assert_eq!(layer.experts.len(), 4);
            assert_eq!(layer.router.cols(), 4);
        }
        assert!(m.config().validate().is_empty());
    }

    #[test]
    fn intra_prune_shrinks_ffn_dims() {
        let mut m = tiny();
        prune_transformer(&mut m, PruneSpec::new(PruneKind::IntraExpert, 0.25));
        assert_eq!(m.config().moe.as_ref().unwrap().expert_ffn_dim, 72);
        for layer in &m.weights().layers {
            for e in &layer.experts {
                assert_eq!(e.ffn_dim(), 72);
                assert_eq!(e.down.rows(), 72);
            }
        }
    }

    #[test]
    fn pruned_model_still_generates() {
        for spec in [
            PruneSpec::new(PruneKind::InterExpert, 0.25),
            PruneSpec::new(PruneKind::IntraExpert, 0.5),
        ] {
            let mut m = tiny();
            prune_transformer(&mut m, spec);
            let g = generate(&mut m, &[1, 2, 3], 8);
            assert_eq!(g.tokens.len(), 8);
        }
    }

    #[test]
    fn pruning_changes_outputs() {
        let base = generate(&mut tiny(), &[5, 6, 7], 10);
        let mut m = tiny();
        prune_transformer(&mut m, PruneSpec::new(PruneKind::InterExpert, 0.5));
        let pruned = generate(&mut m, &[5, 6, 7], 10);
        assert_ne!(base.tokens, pruned.tokens);
    }

    #[test]
    fn param_count_shrinks_consistently_with_config_accounting() {
        let mut m = tiny();
        prune_transformer(&mut m, PruneSpec::new(PruneKind::IntraExpert, 0.5));
        // The weight store and the analytic accounting must agree exactly.
        assert_eq!(
            m.weights().param_count(),
            ParamBreakdown::of(m.config()).total()
        );
    }

    #[test]
    fn mild_intra_prune_perturbs_logits_less_than_heavy() {
        let prompt = [1usize, 2, 3, 4];
        let positions = [0usize, 1, 2, 3];
        let mut base = tiny();
        let mut kv = base.new_kv();
        let ref_logits = base.forward(&prompt, &positions, &mut kv);

        let diff_of = |ratio: f64| {
            let mut m = tiny();
            prune_transformer(&mut m, PruneSpec::new(PruneKind::IntraExpert, ratio));
            let mut kv = m.new_kv();
            let logits = m.forward(&prompt, &positions, &mut kv);
            logits.max_abs_diff(&ref_logits)
        };
        let mild = diff_of(0.125);
        let heavy = diff_of(0.75);
        assert!(mild < heavy, "mild {mild} vs heavy {heavy}");
        assert!(mild > 0.0);
    }

    #[test]
    fn keep_indices_selects_best_in_order() {
        let scores = [0.1, 5.0, 3.0, 4.0];
        assert_eq!(keep_indices(&scores, 2), vec![1, 3]);
        assert_eq!(keep_indices(&scores, 4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn inter_prune_keeps_highest_traffic_experts() {
        let mut m = tiny();
        // Record which experts score highest in layer 0 before pruning.
        // The score is computed here from the logical `[out x in]`
        // matrices: router row `e` times (|gate|_F + |down|_F).
        let layer = &m.weights().layers[0];
        let norm = |v: &[f32]| v.iter().map(|x| x * x).sum::<f32>().sqrt();
        let router = layer.router.transpose();
        let scores: Vec<f32> = (0..8)
            .map(|e| {
                let ex = &layer.experts[e];
                norm(router.row(e))
                    * (norm(ex.gate.transpose().as_slice()) + norm(ex.down.transpose().as_slice()))
            })
            .collect();
        let expect = keep_indices(&scores, 4);
        let expected_experts: Vec<ExpertWeights> =
            expect.iter().map(|&e| layer.experts[e].clone()).collect();

        prune_transformer(&mut m, PruneSpec::new(PruneKind::InterExpert, 0.5));
        assert_eq!(m.weights().layers[0].experts, expected_experts);
    }
}
