//! Parameter accounting: exact total/active counts per component and per
//! layer, reproducing Figure 1 (layer-wise total vs active breakdown) and
//! the size columns of Table 1.
//!
//! Conventions (matching how the evaluated models report sizes):
//!
//! * Expert FFNs are SwiGLU: three projections (`gate`, `up`, `down`), i.e.
//!   `3 * hidden * ffn_dim` parameters per expert.
//! * "Active" parameters count everything touched by one token: embeddings,
//!   attention, router, the `top_k` routed experts, all shared experts and
//!   all dense components — but not the non-selected experts.
//! * Biases and norm vectors are counted (they are negligible but free).

use moe_json::{FromJson, ToJson};

use crate::config::ModelConfig;

/// Parameter counts of one decoder layer, split by component.
#[derive(Debug, Clone, Copy, Default, PartialEq, ToJson, FromJson)]
pub struct LayerParams {
    pub attention: u64,
    pub router: u64,
    /// All routed experts in this layer.
    pub experts_total: u64,
    /// Only the `top_k` routed experts a token activates.
    pub experts_active: u64,
    pub shared_experts: u64,
    pub dense_ffn: u64,
    pub norms: u64,
}

impl LayerParams {
    /// All parameters stored for this layer.
    pub fn total(&self) -> u64 {
        self.attention
            + self.router
            + self.experts_total
            + self.shared_experts
            + self.dense_ffn
            + self.norms
    }

    /// Parameters active for a single token.
    pub fn active(&self) -> u64 {
        self.attention
            + self.router
            + self.experts_active
            + self.shared_experts
            + self.dense_ffn
            + self.norms
    }

    /// Fraction of this layer's parameters that sit in the MoE block
    /// (router + experts + shared experts).
    pub fn moe_fraction(&self) -> f64 {
        let moe = self.router + self.experts_total + self.shared_experts;
        if self.total() == 0 {
            0.0
        } else {
            moe as f64 / self.total() as f64
        }
    }
}

/// Whole-model component totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, ToJson, FromJson)]
pub struct ComponentParams {
    pub embedding: u64,
    pub lm_head: u64,
    pub attention: u64,
    pub router: u64,
    pub experts_total: u64,
    pub experts_active: u64,
    pub shared_experts: u64,
    pub dense_ffn: u64,
    pub norms: u64,
    pub vision: u64,
}

/// Full parameter breakdown of a model.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct ParamBreakdown {
    pub model: String,
    pub components: ComponentParams,
    pub layers: Vec<LayerParams>,
}

impl ParamBreakdown {
    /// Compute the breakdown for a config.
    pub fn of(config: &ModelConfig) -> Self {
        let h = config.hidden_size as u64;
        let q_dim = (config.num_heads * config.head_dim) as u64;
        let kv_dim = (config.num_kv_heads * config.head_dim) as u64;

        let attention = h * q_dim + 2 * h * kv_dim + q_dim * h;
        let norms_per_layer = 2 * h;

        let mut layers = Vec::with_capacity(config.num_layers);
        for layer_idx in 0..config.num_layers {
            let is_moe_layer = config.moe.is_some() && layer_idx >= config.first_k_dense_layers;
            let mut lp = LayerParams {
                attention,
                norms: norms_per_layer,
                ..Default::default()
            };
            if is_moe_layer {
                let moe = config.moe.as_ref().expect("checked above"); // lint:allow(no-panic-in-lib) -- guarded by the is_moe check above
                let per_expert = 3 * h * moe.expert_ffn_dim as u64;
                lp.router = h * moe.num_experts as u64;
                lp.experts_total = moe.num_experts as u64 * per_expert;
                lp.experts_active = moe.top_k as u64 * per_expert;
                lp.shared_experts =
                    moe.num_shared_experts as u64 * 3 * h * moe.shared_expert_ffn_dim as u64;
            } else {
                lp.dense_ffn = 3 * h * config.dense_ffn_dim as u64;
            }
            layers.push(lp);
        }

        let embedding = config.vocab_size as u64 * h;
        let lm_head = if config.tie_embeddings { 0 } else { embedding };

        let vision = config
            .vision
            .as_ref()
            .map(|v| {
                let vh = v.hidden_size as u64;
                // ViT block: MHA (4 h^2) + GeLU MLP (2 h ffn) + norms,
                // plus patch embedding and an output projector into the LM.
                let per_layer = 4 * vh * vh + 2 * vh * v.ffn_dim as u64 + 2 * vh;
                let patch_embed = vh * (3 * 14 * 14) as u64;
                let projector = vh * h + h * h;
                v.num_layers as u64 * per_layer + patch_embed + projector
            })
            .unwrap_or(0);

        let mut components = ComponentParams {
            embedding,
            lm_head,
            vision,
            ..Default::default()
        };
        for lp in &layers {
            components.attention += lp.attention;
            components.router += lp.router;
            components.experts_total += lp.experts_total;
            components.experts_active += lp.experts_active;
            components.shared_experts += lp.shared_experts;
            components.dense_ffn += lp.dense_ffn;
            components.norms += lp.norms;
        }
        components.norms += h; // final norm

        Self {
            model: config.name.clone(),
            components,
            layers,
        }
    }

    /// Total stored parameters.
    pub fn total(&self) -> u64 {
        let c = &self.components;
        c.embedding
            + c.lm_head
            + c.attention
            + c.router
            + c.experts_total
            + c.shared_experts
            + c.dense_ffn
            + c.norms
            + c.vision
    }

    /// Parameters active for one token. For VLMs the vision tower is fully
    /// dense and counts as active (every image activates all of it).
    pub fn active(&self) -> u64 {
        let c = &self.components;
        c.embedding
            + c.lm_head
            + c.attention
            + c.router
            + c.experts_active
            + c.shared_experts
            + c.dense_ffn
            + c.norms
            + c.vision
    }

    /// Fraction of all parameters that sit in MoE blocks — the headline of
    /// Figure 1 ("MoE layers dominate total parameters").
    pub fn moe_fraction(&self) -> f64 {
        let c = &self.components;
        let moe = c.router + c.experts_total + c.shared_experts;
        moe as f64 / self.total() as f64
    }

    /// Relative error of our total-count vs the paper-reported size, when
    /// the config records one.
    // lint:allow(dead-pub) -- moe-bench's Table 1 unit test checks sizes with it
    pub fn total_error_vs_reported(&self, config: &ModelConfig) -> Option<f64> {
        config
            .reported_total_params
            .map(|r| (self.total() as f64 - r as f64).abs() / r as f64)
    }

    /// Relative error of our active-count vs the paper-reported size.
    #[cfg(test)]
    pub(crate) fn active_error_vs_reported(&self, config: &ModelConfig) -> Option<f64> {
        config
            .reported_active_params
            .map(|r| (self.active() as f64 - r as f64).abs() / r as f64)
    }
}

/// Format a parameter count the way the paper does ("47B", "2.7B", "560M").
pub fn human_params(n: u64) -> String {
    let b = n as f64 / 1e9;
    if b >= 10.0 {
        format!("{b:.0}B")
    } else if b >= 1.0 {
        format!("{b:.1}B")
    } else {
        format!("{:.0}M", n as f64 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Family, MoeConfig};

    fn toy() -> ModelConfig {
        let mut c = ModelConfig::dense("toy", Family::Custom, 2, 10, 2, 2, 40, 100);
        c.moe = Some(MoeConfig::routed(4, 2, 20));
        c.first_k_dense_layers = 0;
        c
    }

    #[test]
    fn hand_computed_toy_counts() {
        let c = toy();
        let b = ParamBreakdown::of(&c);
        // attention: q 10*10 + k 10*10 + v 10*10 + o 10*10 = 400 per layer
        assert_eq!(b.components.attention, 2 * 400);
        // router: 10*4 = 40 per layer
        assert_eq!(b.components.router, 2 * 40);
        // experts: 4 * 3*10*20 = 2400 per layer
        assert_eq!(b.components.experts_total, 2 * 2400);
        assert_eq!(b.components.experts_active, 2 * 1200);
        // embedding 100*10 each side
        assert_eq!(b.components.embedding, 1000);
        assert_eq!(b.components.lm_head, 1000);
        // norms: 2*10 per layer + final 10
        assert_eq!(b.components.norms, 50);
        assert_eq!(b.total(), 2 * 400 + 2 * 40 + 2 * 2400 + 1000 + 1000 + 50);
    }

    #[test]
    fn active_less_than_total_iff_moe() {
        let moe = ParamBreakdown::of(&toy());
        assert!(moe.active() < moe.total());

        let dense = ModelConfig::dense("d", Family::Qwen, 2, 10, 2, 2, 40, 100);
        let b = ParamBreakdown::of(&dense);
        assert_eq!(b.active(), b.total());
    }

    #[test]
    fn topk_equals_experts_makes_all_active() {
        let mut c = toy();
        c.moe.as_mut().unwrap().top_k = 4;
        let b = ParamBreakdown::of(&c);
        assert_eq!(b.components.experts_active, b.components.experts_total);
    }

    #[test]
    fn first_k_dense_layers_accounted() {
        let mut c = toy();
        c.first_k_dense_layers = 1;
        let b = ParamBreakdown::of(&c);
        assert_eq!(b.layers[0].experts_total, 0);
        assert_eq!(b.layers[0].dense_ffn, 3 * 10 * 40);
        assert!(b.layers[1].experts_total > 0);
        assert_eq!(b.layers[1].dense_ffn, 0);
    }

    #[test]
    fn tied_embeddings_drop_lm_head() {
        let mut c = toy();
        c.tie_embeddings = true;
        let b = ParamBreakdown::of(&c);
        assert_eq!(b.components.lm_head, 0);
    }

    #[test]
    fn vision_tower_counts_and_is_active() {
        let mut c = toy();
        c.modality = crate::config::Modality::TextImage;
        c.vision = Some(crate::config::VisionConfig::siglip_so400m(64));
        let b = ParamBreakdown::of(&c);
        assert!(b.components.vision > 0);
        let no_vision = ParamBreakdown::of(&toy());
        assert_eq!(b.active() - no_vision.active(), b.components.vision);
    }

    #[test]
    fn moe_fraction_dominates_in_expert_heavy_layer() {
        let b = ParamBreakdown::of(&toy());
        // 2440 of 2850 per layer
        assert!(b.layers[0].moe_fraction() > 0.8);
    }

    #[test]
    fn human_params_formats() {
        assert_eq!(human_params(47_000_000_000), "47B");
        assert_eq!(human_params(2_700_000_000), "2.7B");
        assert_eq!(human_params(560_000_000), "560M");
    }
}
