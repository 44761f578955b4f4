//! Expert-pruning transforms (Section 6.2).
//!
//! * **Inter-expert pruning** removes whole experts (and their routing
//!   weights), shrinking memory while keeping the active-expert count: a
//!   ratio of 12.5% on a 64-expert layer removes 8 experts.
//! * **Intra-expert pruning** shrinks each expert's FFN intermediate
//!   dimension, keeping the expert count: 25% intra-expert pruning reduces
//!   the FFN dimension by a quarter.
//!
//! The transforms operate on [`ModelConfig`]; the functional weight-level
//! counterpart lives in `moe-engine::prune`.

use moe_json::{FromJson, ToJson};

use crate::config::ModelConfig;

/// Which structure the pruning removes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, ToJson, FromJson)]
pub enum PruneKind {
    /// Remove whole experts and their router columns.
    InterExpert,
    /// Shrink every expert's FFN intermediate dimension.
    IntraExpert,
}

impl PruneKind {
    pub fn label(self) -> &'static str {
        match self {
            PruneKind::InterExpert => "inter-expert",
            PruneKind::IntraExpert => "intra-expert",
        }
    }
}

/// A pruning configuration: kind plus fraction removed (0.0–1.0 exclusive).
#[derive(Debug, Clone, Copy, PartialEq, ToJson, FromJson)]
pub struct PruneSpec {
    pub kind: PruneKind,
    pub ratio: f64,
}

/// The pruning ratios evaluated in Figure 11.
pub const PAPER_PRUNE_RATIOS: [f64; 3] = [0.125, 0.25, 0.50];

impl PruneSpec {
    pub fn new(kind: PruneKind, ratio: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&ratio),
            "prune ratio must be in [0, 1), got {ratio}"
        );
        Self { kind, ratio }
    }

    /// Apply the pruning transform to a model config, returning the pruned
    /// config. Panics on dense models.
    ///
    /// Inter-expert pruning never removes so many experts that `top_k`
    /// becomes unsatisfiable; `top_k` is clamped when necessary (matching
    /// the paper, which evaluates TopK from 1 up to the pretrained value).
    pub fn apply(&self, config: &ModelConfig) -> ModelConfig {
        let mut c = config.clone();
        let moe = c.moe.as_mut().expect("pruning a dense model"); // lint:allow(no-panic-in-lib) -- caller contract: pruning applies only to MoE configs, fail fast on misuse
        match self.kind {
            PruneKind::InterExpert => {
                let removed = (moe.num_experts as f64 * self.ratio).round() as usize;
                let kept = (moe.num_experts - removed).max(1);
                moe.num_experts = kept;
                moe.top_k = moe.top_k.min(kept);
            }
            PruneKind::IntraExpert => {
                let kept = ((moe.expert_ffn_dim as f64) * (1.0 - self.ratio)).round() as usize;
                moe.expert_ffn_dim = kept.max(1);
            }
        }
        c.reported_total_params = None;
        c.reported_active_params = None;
        c.display_ffn_dim = None;
        c.name = format!(
            "{}-{}{}",
            config.name,
            match self.kind {
                PruneKind::InterExpert => "interprune",
                PruneKind::IntraExpert => "intraprune",
            },
            (self.ratio * 100.0).round() as usize
        );
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamBreakdown;
    use crate::registry::{olmoe_1b_7b, qwen15_moe_a27b};

    #[test]
    fn inter_prune_removes_experts() {
        // The paper's example: "12.5% inter-expert pruning removes 1/8 of
        // the experts in each layer" (8 of OLMoE's 64).
        let spec = PruneSpec::new(PruneKind::InterExpert, 0.125);
        let pruned = spec.apply(&olmoe_1b_7b());
        assert_eq!(pruned.moe.as_ref().unwrap().num_experts, 56);
    }

    #[test]
    fn intra_prune_shrinks_ffn() {
        // "25% intra-expert pruning reduces the FFN dimension by 1/4".
        let spec = PruneSpec::new(PruneKind::IntraExpert, 0.25);
        let pruned = spec.apply(&olmoe_1b_7b());
        assert_eq!(pruned.moe.as_ref().unwrap().expert_ffn_dim, 768);
        assert_eq!(pruned.moe.as_ref().unwrap().num_experts, 64);
    }

    #[test]
    fn pruning_reduces_params() {
        for kind in [PruneKind::InterExpert, PruneKind::IntraExpert] {
            for ratio in PAPER_PRUNE_RATIOS {
                let spec = PruneSpec::new(kind, ratio);
                let base = ParamBreakdown::of(&qwen15_moe_a27b()).total();
                let pruned = ParamBreakdown::of(&spec.apply(&qwen15_moe_a27b())).total();
                assert!(pruned < base, "{kind:?} {ratio}");
            }
        }
    }

    #[test]
    fn heavier_pruning_removes_more() {
        let base = olmoe_1b_7b();
        let mut last = u64::MAX;
        for ratio in PAPER_PRUNE_RATIOS {
            let spec = PruneSpec::new(PruneKind::InterExpert, ratio);
            let total = ParamBreakdown::of(&spec.apply(&base)).total();
            assert!(total < last);
            last = total;
        }
    }

    #[test]
    fn topk_clamped_when_experts_removed() {
        let spec = PruneSpec::new(PruneKind::InterExpert, 0.9);
        let pruned = spec.apply(&olmoe_1b_7b()); // 64 -> 6 experts
        let moe = pruned.moe.as_ref().unwrap();
        assert_eq!(moe.num_experts, 6);
        assert!(moe.top_k <= moe.num_experts);
        assert!(pruned.validate().is_empty());
    }

    #[test]
    #[should_panic(expected = "prune ratio")]
    fn ratio_one_rejected() {
        let _ = PruneSpec::new(PruneKind::InterExpert, 1.0);
    }

    #[test]
    fn pruned_names_encode_spec() {
        let spec = PruneSpec::new(PruneKind::IntraExpert, 0.5);
        assert_eq!(spec.apply(&olmoe_1b_7b()).name, "OLMoE-1B-7B-intraprune50");
    }
}
