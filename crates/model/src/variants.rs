//! The Section-5 hyperparameter grids: Mixtral-8x7B is used as a skeleton
//! and one MoE-layer hyperparameter is swept at a time — FFN dimension,
//! total expert count and active expert count — on 4 H100s.

use crate::config::ModelConfig;
use crate::registry::mixtral_8x7b;

/// FFN dimensions swept in Figures 7–9.
pub const FFN_DIMS: [usize; 4] = [1792, 3584, 7168, 14_336];

/// Total expert counts swept in Figures 7–9.
pub const EXPERT_COUNTS: [usize; 4] = [8, 16, 32, 64];

/// Active expert counts swept in Figures 7–9.
pub const ACTIVE_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Build the Mixtral-skeleton variant with the given MoE hyperparameters.
///
/// Everything else (layer count, hidden size, attention geometry, vocab)
/// stays at the Mixtral-8x7B baseline, exactly as Section 5.1 describes.
pub fn mixtral_variant(ffn_dim: usize, num_experts: usize, top_k: usize) -> ModelConfig {
    let mut c = mixtral_8x7b()
        .with_expert_ffn_dim(ffn_dim)
        .with_num_experts(num_experts)
        .with_top_k(top_k);
    c.name = format!("Mixtral-skel-ffn{ffn_dim}-e{num_experts}-k{top_k}");
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamBreakdown;

    /// The full 4x4x4 grid (64 configurations).
    fn full_grid() -> Vec<ModelConfig> {
        let mut points = Vec::with_capacity(64);
        for &ffn in &FFN_DIMS {
            for &e in &EXPERT_COUNTS {
                for &k in &ACTIVE_COUNTS {
                    points.push(mixtral_variant(ffn, e, k));
                }
            }
        }
        points
    }

    #[test]
    fn variant_applies_all_three_knobs() {
        let v = mixtral_variant(3584, 32, 4);
        let moe = v.moe.as_ref().unwrap();
        assert_eq!(moe.expert_ffn_dim, 3584);
        assert_eq!(moe.num_experts, 32);
        assert_eq!(moe.top_k, 4);
        // Skeleton is untouched.
        assert_eq!(v.num_layers, 32);
        assert_eq!(v.hidden_size, 4096);
    }

    #[test]
    fn variants_all_valid() {
        for c in full_grid() {
            assert!(c.validate().is_empty(), "{}", c.name);
        }
    }

    #[test]
    fn grid_has_64_unique_points() {
        let g = full_grid();
        assert_eq!(g.len(), 64);
        let mut names: Vec<&str> = g.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 64);
    }

    #[test]
    fn params_grow_monotonically_with_each_knob() {
        // More experts / larger FFN => strictly more total params.
        let base = ParamBreakdown::of(&mixtral_variant(1792, 8, 2)).total();
        assert!(ParamBreakdown::of(&mixtral_variant(3584, 8, 2)).total() > base);
        assert!(ParamBreakdown::of(&mixtral_variant(1792, 16, 2)).total() > base);
        // TopK changes active, not total.
        let k1 = ParamBreakdown::of(&mixtral_variant(1792, 8, 1));
        let k8 = ParamBreakdown::of(&mixtral_variant(1792, 8, 8));
        assert_eq!(k1.total(), k8.total());
        assert!(k8.active() > k1.active());
    }

    #[test]
    fn baseline_point_matches_mixtral_size() {
        // ffn 14336, 8 experts, top-2 *is* Mixtral-8x7B.
        let v = ParamBreakdown::of(&mixtral_variant(14_336, 8, 2));
        let m = ParamBreakdown::of(&crate::registry::mixtral_8x7b());
        assert_eq!(v.total(), m.total());
        assert_eq!(v.active(), m.active());
    }
}
