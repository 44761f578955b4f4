//! The architecture description language: enough structure to account for
//! parameters exactly, to drive the functional executor, and to feed the
//! performance model — no more.

use moe_json::{FromJson, ToJson};

/// Model family, used for grouping in reports and for family-compatibility
/// checks (speculative decoding requires draft and target from the same
/// family so vocabularies match).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, ToJson, FromJson)]
pub enum Family {
    Mixtral,
    Qwen,
    DeepSeek,
    Phi,
    Olmo,
    Molmo,
    Llama,
    Custom,
}

/// Input modality (Table 1 column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, ToJson, FromJson)]
pub enum Modality {
    Text,
    TextImage,
}

/// Router scoring variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, ToJson, FromJson)]
pub enum RouterKind {
    /// Mixtral-style: select top-k logits, softmax over the selected set.
    TopKSoftmax,
    /// DeepSeek-style: softmax over all logits, then select top-k
    /// probabilities without renormalization.
    SoftmaxTopK,
}

/// MoE block hyperparameters.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct MoeConfig {
    /// Routed experts per MoE layer.
    pub num_experts: usize,
    /// Active (routed-to) experts per token.
    pub top_k: usize,
    /// Per-expert FFN intermediate dimension.
    pub expert_ffn_dim: usize,
    /// Always-active shared experts (DeepSeek/Qwen1.5/Llama-4 style).
    pub num_shared_experts: usize,
    /// Intermediate dimension of each shared expert.
    pub shared_expert_ffn_dim: usize,
    pub router: RouterKind,
    /// Whether the model was trained with an auxiliary load-balancing loss
    /// (drives the expert-activation-frequency study of Fig. 15).
    pub aux_loss_balanced: bool,
}

impl MoeConfig {
    /// Mixtral-style block: `num_experts` routed experts, no shared expert.
    pub fn routed(num_experts: usize, top_k: usize, expert_ffn_dim: usize) -> Self {
        Self {
            num_experts,
            top_k,
            expert_ffn_dim,
            num_shared_experts: 0,
            shared_expert_ffn_dim: 0,
            router: RouterKind::TopKSoftmax,
            aux_loss_balanced: true,
        }
    }
}

/// Vision tower description for VLMs. Modeled after the SigLIP-style
/// encoders used by DeepSeek-VL2 / MolmoE: a dense ViT whose output is
/// projected into `tokens_per_image` language-model tokens.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct VisionConfig {
    pub num_layers: usize,
    pub hidden_size: usize,
    pub ffn_dim: usize,
    pub num_heads: usize,
    /// Language-model tokens produced per input image after projection.
    pub tokens_per_image: usize,
}

impl VisionConfig {
    /// SigLIP-so400m-class tower, the encoder used by the DeepSeek-VL2
    /// family (27 layers, hidden 1152).
    pub fn siglip_so400m(tokens_per_image: usize) -> Self {
        Self {
            num_layers: 27,
            hidden_size: 1152,
            ffn_dim: 4304,
            num_heads: 16,
            tokens_per_image,
        }
    }
}

/// Complete architecture description of one evaluated model.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct ModelConfig {
    pub name: String,
    pub family: Family,
    pub modality: Modality,
    pub num_layers: usize,
    pub hidden_size: usize,
    pub num_heads: usize,
    /// KV heads for grouped-query attention; equals `num_heads` for MHA.
    pub num_kv_heads: usize,
    pub head_dim: usize,
    pub vocab_size: usize,
    /// MoE block config; `None` for dense models (the draft models).
    pub moe: Option<MoeConfig>,
    /// FFN intermediate dimension of dense layers (dense models, and the
    /// `first_k_dense_layers` of DeepSeek-style models).
    pub dense_ffn_dim: usize,
    /// Leading layers that use a dense FFN instead of the MoE block.
    pub first_k_dense_layers: usize,
    /// Whether input embedding and LM head share weights.
    pub tie_embeddings: bool,
    pub norm_eps: f32,
    pub rope_theta: f32,
    /// Multi-head Latent Attention (DeepSeek-V2): when set, the KV cache
    /// stores one compressed latent of this dimension per token per layer
    /// instead of full per-head K/V.
    pub kv_latent_dim: Option<usize>,
    pub vision: Option<VisionConfig>,
    /// Paper-reported sizes (Table 1), used as calibration targets.
    pub reported_total_params: Option<u64>,
    pub reported_active_params: Option<u64>,
    /// The FFN dimension the paper's Table 1 prints when it differs from the
    /// structural `expert_ffn_dim` (see crate docs).
    pub display_ffn_dim: Option<usize>,
}

impl ModelConfig {
    /// A dense decoder-only config (no MoE); used for draft models.
    #[allow(clippy::too_many_arguments)]
    pub fn dense(
        name: &str,
        family: Family,
        num_layers: usize,
        hidden_size: usize,
        num_heads: usize,
        num_kv_heads: usize,
        dense_ffn_dim: usize,
        vocab_size: usize,
    ) -> Self {
        Self {
            name: name.to_string(),
            family,
            modality: Modality::Text,
            num_layers,
            hidden_size,
            num_heads,
            num_kv_heads,
            head_dim: hidden_size / num_heads,
            vocab_size,
            moe: None,
            dense_ffn_dim,
            first_k_dense_layers: num_layers,
            tie_embeddings: false,
            norm_eps: 1e-6,
            rope_theta: 10_000.0,
            kv_latent_dim: None,
            vision: None,
            reported_total_params: None,
            reported_active_params: None,
            display_ffn_dim: None,
        }
    }

    /// Number of MoE layers (layers minus the leading dense ones). Zero for
    /// dense models.
    fn num_moe_layers(&self) -> usize {
        if self.moe.is_some() {
            self.num_layers - self.first_k_dense_layers
        } else {
            0
        }
    }

    /// Is this a Mixture-of-Experts model?
    pub fn is_moe(&self) -> bool {
        self.moe.is_some() && self.num_moe_layers() > 0
    }

    /// KV cache bytes per token at the given element size (2 for fp16).
    /// MLA models store a single compressed latent per token per layer.
    pub fn kv_bytes_per_token(&self, elem_bytes: f64) -> f64 {
        match self.kv_latent_dim {
            Some(latent) => self.num_layers as f64 * latent as f64 * elem_bytes,
            None => {
                2.0 * self.num_layers as f64
                    * self.num_kv_heads as f64
                    * self.head_dim as f64
                    * elem_bytes
            }
        }
    }

    /// The FFN dimension to print in Table-1 style listings.
    pub fn table_ffn_dim(&self) -> usize {
        self.display_ffn_dim.unwrap_or_else(|| {
            self.moe
                .as_ref()
                .map(|m| m.expert_ffn_dim)
                .unwrap_or(self.dense_ffn_dim)
        })
    }

    /// Clone with a different per-expert FFN dimension (hyperparameter
    /// sweeps). Panics on dense models.
    pub fn with_expert_ffn_dim(&self, ffn_dim: usize) -> Self {
        let mut c = self.clone();
        let moe = c.moe.as_mut().expect("with_expert_ffn_dim on dense model"); // lint:allow(no-panic-in-lib) -- builder misuse on a dense config is a programmer error, fail fast
        moe.expert_ffn_dim = ffn_dim;
        c.display_ffn_dim = None;
        c.reported_total_params = None;
        c.reported_active_params = None;
        c.name = format!("{}-ffn{}", base_name(&self.name), ffn_dim);
        c
    }

    /// Clone with a different routed-expert count.
    pub fn with_num_experts(&self, num_experts: usize) -> Self {
        let mut c = self.clone();
        let moe = c.moe.as_mut().expect("with_num_experts on dense model"); // lint:allow(no-panic-in-lib) -- builder misuse on a dense config is a programmer error, fail fast
        moe.num_experts = num_experts;
        moe.top_k = moe.top_k.min(num_experts);
        c.reported_total_params = None;
        c.reported_active_params = None;
        c.name = format!("{}-e{}", base_name(&self.name), num_experts);
        c
    }

    /// Clone with a different active-expert count (TopK). Clamped to the
    /// expert count.
    pub fn with_top_k(&self, top_k: usize) -> Self {
        let mut c = self.clone();
        let moe = c.moe.as_mut().expect("with_top_k on dense model"); // lint:allow(no-panic-in-lib) -- builder misuse on a dense config is a programmer error, fail fast
        moe.top_k = top_k.min(moe.num_experts).max(1);
        c.reported_active_params = None;
        c.name = format!("{}-k{}", base_name(&self.name), top_k);
        c
    }

    /// Validate structural invariants; returns a list of human-readable
    /// problems (empty when valid).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.num_layers == 0 {
            problems.push("num_layers must be positive".into());
        }
        if self.hidden_size == 0 || self.num_heads == 0 || self.vocab_size == 0 {
            problems.push("hidden_size/num_heads/vocab_size must be positive".into());
        }
        if !self.num_heads.is_multiple_of(self.num_kv_heads.max(1)) {
            problems.push(format!(
                "num_heads {} not divisible by num_kv_heads {}",
                self.num_heads, self.num_kv_heads
            ));
        }
        if let Some(moe) = &self.moe {
            if moe.top_k == 0 || moe.top_k > moe.num_experts {
                problems.push(format!(
                    "top_k {} out of range for {} experts",
                    moe.top_k, moe.num_experts
                ));
            }
            if moe.expert_ffn_dim == 0 {
                problems.push("expert_ffn_dim must be positive".into());
            }
            if self.first_k_dense_layers > self.num_layers {
                problems.push("first_k_dense_layers exceeds num_layers".into());
            }
            if moe.num_shared_experts > 0 && moe.shared_expert_ffn_dim == 0 {
                problems.push("shared experts declared with zero ffn dim".into());
            }
        } else if self.dense_ffn_dim == 0 {
            problems.push("dense model with zero dense_ffn_dim".into());
        }
        if self.modality == Modality::TextImage && self.vision.is_none() {
            problems.push("TextImage model without a vision tower".into());
        }
        problems
    }
}

/// Strip previously-appended sweep suffixes so names do not accumulate.
fn base_name(name: &str) -> &str {
    match name.find("-ffn").or_else(|| {
        // Only strip `-e<digits>` / `-k<digits>` suffixes, not e.g. `-A2.7B`.
        name.match_indices(['-']).map(|(i, _)| i).find(|&i| {
            let rest = &name[i + 1..];
            (rest.starts_with('e') || rest.starts_with('k'))
                && rest.len() > 1
                && rest[1..].chars().all(|c| c.is_ascii_digit())
        })
    }) {
        Some(i) => &name[..i],
        None => name,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_moe() -> ModelConfig {
        let mut c = ModelConfig::dense("toy", Family::Custom, 4, 64, 4, 2, 128, 256);
        c.moe = Some(MoeConfig::routed(8, 2, 96));
        c.first_k_dense_layers = 0;
        c
    }

    #[test]
    fn dense_config_valid() {
        let c = ModelConfig::dense("d", Family::Qwen, 2, 32, 4, 4, 64, 100);
        assert!(c.validate().is_empty());
        assert!(!c.is_moe());
        assert_eq!(c.num_moe_layers(), 0);
    }

    #[test]
    fn moe_layer_count_respects_leading_dense() {
        let mut c = toy_moe();
        c.first_k_dense_layers = 1;
        assert_eq!(c.num_moe_layers(), 3);
        assert!(c.is_moe());
    }

    #[test]
    fn with_top_k_clamps() {
        let c = toy_moe();
        assert_eq!(c.with_top_k(100).moe.unwrap().top_k, 8);
        assert_eq!(c.with_top_k(0).moe.unwrap().top_k, 1);
        assert_eq!(c.with_top_k(3).moe.unwrap().top_k, 3);
    }

    #[test]
    fn with_num_experts_clamps_topk() {
        let mut c = toy_moe();
        c.moe.as_mut().unwrap().top_k = 8;
        let c2 = c.with_num_experts(4);
        assert_eq!(c2.moe.as_ref().unwrap().num_experts, 4);
        assert_eq!(c2.moe.unwrap().top_k, 4);
    }

    #[test]
    fn sweep_names_do_not_accumulate() {
        let c = toy_moe();
        let c2 = c.with_top_k(4).with_top_k(2).with_num_experts(16);
        assert_eq!(c2.name, "toy-e16");
        let c3 = c.with_expert_ffn_dim(256).with_expert_ffn_dim(512);
        assert_eq!(c3.name, "toy-ffn512");
    }

    #[test]
    fn base_name_keeps_model_version_suffixes() {
        assert_eq!(base_name("Qwen1.5-MoE-A2.7B"), "Qwen1.5-MoE-A2.7B");
        assert_eq!(base_name("toy-k4"), "toy");
        assert_eq!(base_name("toy-e16"), "toy");
    }

    #[test]
    fn validate_catches_bad_topk() {
        let mut c = toy_moe();
        c.moe.as_mut().unwrap().top_k = 9;
        assert!(!c.validate().is_empty());
    }

    #[test]
    fn validate_catches_vlm_without_tower() {
        let mut c = toy_moe();
        c.modality = Modality::TextImage;
        assert!(c.validate().iter().any(|p| p.contains("vision")));
        c.vision = Some(VisionConfig::siglip_so400m(576));
        assert!(c.validate().is_empty());
    }

    #[test]
    fn kv_bytes_formula() {
        let c = ModelConfig::dense("d", Family::Qwen, 10, 64, 4, 2, 64, 100);
        // 2 (K and V) * 10 layers * 2 kv heads * 16 head_dim * 2 bytes
        assert_eq!(c.kv_bytes_per_token(2.0), 2.0 * 10.0 * 2.0 * 16.0 * 2.0);
    }

    #[test]
    fn mla_latent_shrinks_kv() {
        let mut c = ModelConfig::dense("d", Family::DeepSeek, 10, 2048, 16, 16, 64, 100);
        c.head_dim = 128;
        let full = c.kv_bytes_per_token(2.0);
        c.kv_latent_dim = Some(576);
        let latent = c.kv_bytes_per_token(2.0);
        assert_eq!(latent, 10.0 * 576.0 * 2.0);
        assert!(latent < full / 5.0);
    }
}
