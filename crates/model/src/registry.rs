//! Constructors for every model in the paper's evaluation (Table 1), the
//! speculative-decoding draft models, and the two models of the ancillary
//! studies (MolmoE-1B, Llama-4-Scout).
//!
//! Structural hyperparameters come from the models' public configurations;
//! each entry records the paper-reported total/active parameter counts, and
//! the test-suite asserts our accounting lands within tolerance of them.
//! Where Table 1 prints a headline FFN dimension that differs from the
//! structural per-expert value (Qwen1.5-MoE, OLMoE, Qwen3-30B,
//! DeepSeek-VL2-Tiny), the printed value is kept in `display_ffn_dim`.

use crate::config::{Family, Modality, ModelConfig, MoeConfig, RouterKind, VisionConfig};

#[allow(clippy::too_many_arguments)]
fn moe_model(
    name: &str,
    family: Family,
    num_layers: usize,
    hidden: usize,
    heads: usize,
    kv_heads: usize,
    head_dim: usize,
    vocab: usize,
    moe: MoeConfig,
) -> ModelConfig {
    let mut c = ModelConfig::dense(name, family, num_layers, hidden, heads, kv_heads, 0, vocab);
    c.head_dim = head_dim;
    c.moe = Some(moe);
    c.first_k_dense_layers = 0;
    c
}

/// Mixtral-8x7B: 32 layers, 8 experts, top-2 (47B total / 12.9B active).
pub fn mixtral_8x7b() -> ModelConfig {
    let mut c = moe_model(
        "Mixtral-8x7B",
        Family::Mixtral,
        32,
        4096,
        32,
        8,
        128,
        32_000,
        MoeConfig::routed(8, 2, 14_336),
    );
    c.rope_theta = 1e6;
    c.reported_total_params = Some(47_000_000_000);
    c.reported_active_params = Some(12_900_000_000);
    c
}

/// Qwen1.5-MoE-A2.7B: 60 fine-grained experts (top-4) plus one shared
/// expert (14.3B / 2.7B). Table 1 prints the shared expert's 5632
/// intermediate dimension.
pub fn qwen15_moe_a27b() -> ModelConfig {
    let mut moe = MoeConfig::routed(60, 4, 1408);
    moe.num_shared_experts = 1;
    moe.shared_expert_ffn_dim = 5632;
    let mut c = moe_model(
        "Qwen1.5-MoE-A2.7B",
        Family::Qwen,
        24,
        2048,
        16,
        16,
        128,
        151_936,
        moe,
    );
    c.display_ffn_dim = Some(5632);
    c.reported_total_params = Some(14_300_000_000);
    c.reported_active_params = Some(2_700_000_000);
    c
}

/// Qwen3-30B-A3B: 48 layers, 128 experts, top-8 (30.5B / 3.3B). Table 1
/// prints 5120/13824 for this row, which matches the dense Qwen3-32B; the
/// structural values here are from the released MoE config.
pub fn qwen3_30b_a3b() -> ModelConfig {
    let mut c = moe_model(
        "Qwen3-30B-A3B",
        Family::Qwen,
        48,
        2048,
        32,
        4,
        128,
        151_936,
        MoeConfig::routed(128, 8, 768),
    );
    c.rope_theta = 1e6;
    c.display_ffn_dim = Some(13_824);
    c.reported_total_params = Some(30_500_000_000);
    c.reported_active_params = Some(3_300_000_000);
    c
}

/// DeepSeek-V2-Lite: 27 layers (first dense), 64 routed experts top-6 plus
/// two shared experts (15.7B / 2.4B).
pub fn deepseek_v2_lite() -> ModelConfig {
    let mut moe = MoeConfig::routed(64, 6, 1408);
    moe.num_shared_experts = 2;
    moe.shared_expert_ffn_dim = 1408;
    moe.router = RouterKind::SoftmaxTopK;
    let mut c = moe_model(
        "DeepSeek-V2-Lite",
        Family::DeepSeek,
        27,
        2048,
        16,
        16,
        128,
        102_400,
        moe,
    );
    c.first_k_dense_layers = 1;
    c.dense_ffn_dim = 10_944;
    // NOTE: DeepSeek-V2 uses MLA (kv_latent_dim = 576 would model the
    // compressed cache), but the vLLM builds the paper benchmarked
    // materialize full per-head KV for DeepSeek models; we model that
    // serving behaviour, so the latent stays unset here.
    c.reported_total_params = Some(15_700_000_000);
    c.reported_active_params = Some(2_400_000_000);
    c
}

/// Phi-3.5-MoE: 32 layers, 16 experts, top-2 (41.9B / 6.6B).
pub fn phi35_moe() -> ModelConfig {
    let mut c = moe_model(
        "Phi-3.5-MoE",
        Family::Phi,
        32,
        4096,
        32,
        8,
        128,
        32_064,
        MoeConfig::routed(16, 2, 6400),
    );
    c.reported_total_params = Some(41_900_000_000);
    c.reported_active_params = Some(6_600_000_000);
    c
}

/// OLMoE-1B-7B: 16 layers, 64 experts, top-8 (7.2B / 1.3B). Table 1 prints
/// 8192 (= 8 active x 1024); the structural per-expert dimension is 1024.
pub fn olmoe_1b_7b() -> ModelConfig {
    let mut c = moe_model(
        "OLMoE-1B-7B",
        Family::Olmo,
        16,
        2048,
        16,
        16,
        128,
        50_304,
        MoeConfig::routed(64, 8, 1024),
    );
    c.display_ffn_dim = Some(8192);
    c.reported_total_params = Some(7_200_000_000);
    c.reported_active_params = Some(1_300_000_000);
    c
}

fn deepseek_vl2_moe(experts: usize, ffn: usize) -> MoeConfig {
    let mut moe = MoeConfig::routed(experts, 6, ffn);
    moe.num_shared_experts = 2;
    moe.shared_expert_ffn_dim = ffn;
    moe.router = RouterKind::SoftmaxTopK;
    moe
}

/// DeepSeek-VL2-Tiny: DeepSeekMoE-3B language model + SigLIP tower
/// (3B / 1.0B).
pub fn deepseek_vl2_tiny() -> ModelConfig {
    let mut c = moe_model(
        "DeepSeek-VL2-Tiny",
        Family::DeepSeek,
        12,
        1280,
        10,
        10,
        128,
        102_400,
        deepseek_vl2_moe(64, 896),
    );
    c.modality = Modality::TextImage;
    c.vision = Some(VisionConfig::siglip_so400m(576));
    c.first_k_dense_layers = 1;
    c.dense_ffn_dim = 6848;
    c.display_ffn_dim = Some(8960);
    c.reported_total_params = Some(3_000_000_000);
    c.reported_active_params = Some(1_000_000_000);
    c
}

/// DeepSeek-VL2-Small: DeepSeek-V2-Lite language model + SigLIP tower
/// (16B / 2.8B).
pub fn deepseek_vl2_small() -> ModelConfig {
    let mut c = moe_model(
        "DeepSeek-VL2-Small",
        Family::DeepSeek,
        27,
        2048,
        16,
        16,
        128,
        102_400,
        deepseek_vl2_moe(64, 1408),
    );
    c.modality = Modality::TextImage;
    c.vision = Some(VisionConfig::siglip_so400m(576));
    c.first_k_dense_layers = 1;
    c.dense_ffn_dim = 10_944;
    c.display_ffn_dim = Some(11_008);
    c.reported_total_params = Some(16_000_000_000);
    c.reported_active_params = Some(2_800_000_000);
    c
}

/// DeepSeek-VL2 (base): 27B language model + SigLIP tower (27B / 4.5B).
pub fn deepseek_vl2() -> ModelConfig {
    let mut c = moe_model(
        "DeepSeek-VL2",
        Family::DeepSeek,
        30,
        2560,
        20,
        20,
        128,
        102_400,
        deepseek_vl2_moe(72, 1536),
    );
    c.modality = Modality::TextImage;
    c.vision = Some(VisionConfig::siglip_so400m(576));
    c.first_k_dense_layers = 1;
    c.dense_ffn_dim = 12_288;
    c.display_ffn_dim = Some(14_336);
    c.reported_total_params = Some(27_000_000_000);
    c.reported_active_params = Some(4_500_000_000);
    c
}

/// MolmoE-1B: OLMoE-1B-7B language model + CLIP-class vision tower. Unlike
/// the DeepSeek models it was *not* trained with an auxiliary
/// load-balancing loss, which is what Figure 15's skewed activation map
/// shows.
pub fn molmoe_1b() -> ModelConfig {
    let mut moe = MoeConfig::routed(64, 8, 1024);
    moe.aux_loss_balanced = false;
    let mut c = moe_model(
        "MolmoE-1B",
        Family::Molmo,
        16,
        2048,
        16,
        16,
        128,
        152_064,
        moe,
    );
    c.modality = Modality::TextImage;
    c.vision = Some(VisionConfig {
        num_layers: 23,
        hidden_size: 1024,
        ffn_dim: 4096,
        num_heads: 16,
        tokens_per_image: 576,
    });
    c.tie_embeddings = true;
    c.reported_total_params = Some(7_200_000_000);
    c.reported_active_params = Some(1_500_000_000);
    c
}

/// Llama-4-Scout-17B-16E: 16 routed experts (top-1) plus one shared expert
/// per layer (109B / 17B). Used for the H100-vs-CS-3 study (Fig. 16).
pub fn llama4_scout_17b_16e() -> ModelConfig {
    let mut moe = MoeConfig::routed(16, 1, 8192);
    moe.num_shared_experts = 1;
    moe.shared_expert_ffn_dim = 8192;
    let mut c = moe_model(
        "Llama-4-Scout-17B-16E",
        Family::Llama,
        48,
        5120,
        40,
        8,
        128,
        202_048,
        moe,
    );
    c.rope_theta = 5e5;
    c.reported_total_params = Some(109_000_000_000);
    c.reported_active_params = Some(17_000_000_000);
    c
}

fn qwen3_dense(
    name: &str,
    layers: usize,
    hidden: usize,
    heads: usize,
    ffn: usize,
    tie: bool,
    reported: u64,
) -> ModelConfig {
    let mut c = ModelConfig::dense(name, Family::Qwen, layers, hidden, heads, 8, ffn, 151_936);
    c.head_dim = 128;
    c.tie_embeddings = tie;
    c.rope_theta = 1e6;
    c.reported_total_params = Some(reported);
    c.reported_active_params = Some(reported);
    c
}

/// Qwen3-0.6B dense draft model.
pub fn qwen3_0_6b() -> ModelConfig {
    qwen3_dense("Qwen3-0.6B", 28, 1024, 16, 3072, true, 600_000_000)
}

/// Qwen3-1.7B dense draft model.
pub fn qwen3_1_7b() -> ModelConfig {
    qwen3_dense("Qwen3-1.7B", 28, 2048, 16, 6144, true, 1_700_000_000)
}

/// Qwen3-4B dense draft model.
pub fn qwen3_4b() -> ModelConfig {
    qwen3_dense("Qwen3-4B", 36, 2560, 32, 9728, true, 4_000_000_000)
}

/// Qwen3-8B dense draft model.
pub fn qwen3_8b() -> ModelConfig {
    qwen3_dense("Qwen3-8B", 36, 4096, 32, 12_288, false, 8_200_000_000)
}

/// The six text-only MoE LLMs of the main latency/accuracy studies
/// (Figures 3, 17).
pub fn llms() -> Vec<ModelConfig> {
    vec![
        mixtral_8x7b(),
        qwen15_moe_a27b(),
        qwen3_30b_a3b(),
        deepseek_v2_lite(),
        phi35_moe(),
        olmoe_1b_7b(),
    ]
}

/// The three DeepSeek-VL2 vision-language models (Figures 4, 18).
pub fn vlms() -> Vec<ModelConfig> {
    vec![deepseek_vl2_tiny(), deepseek_vl2_small(), deepseek_vl2()]
}

/// The four Qwen3 dense draft models of the speculative-decoding study
/// (Figure 12).
pub fn draft_models() -> Vec<ModelConfig> {
    vec![qwen3_0_6b(), qwen3_1_7b(), qwen3_4b(), qwen3_8b()]
}

/// Every model in the study (Table 1 rows plus ancillary models).
// lint:allow(dead-pub) -- moe-eval's unit test checks every model has a capability profile
pub fn all_models() -> Vec<ModelConfig> {
    let mut v = llms();
    v.extend(vlms());
    v.push(molmoe_1b());
    v.push(llama4_scout_17b_16e());
    v.extend(draft_models());
    v
}

/// Look a model up by its exact name.
pub fn by_name(name: &str) -> Option<ModelConfig> {
    all_models().into_iter().find(|m| m.name == name)
}

/// A deliberately tiny MoE config for functional tests and examples: same
/// structure as the big models (GQA attention, SwiGLU experts, shared
/// expert optional) at a scale that runs in milliseconds on a CPU.
pub fn tiny_test_model(num_experts: usize, top_k: usize) -> ModelConfig {
    let mut c = moe_model(
        "tiny-test",
        Family::Custom,
        2,
        64,
        4,
        2,
        16,
        256,
        MoeConfig::routed(num_experts, top_k, 96),
    );
    c.reported_total_params = None;
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamBreakdown;

    #[test]
    fn all_models_validate() {
        for m in all_models() {
            let problems = m.validate();
            assert!(problems.is_empty(), "{}: {:?}", m.name, problems);
        }
    }

    #[test]
    fn param_counts_match_reported_totals() {
        for m in all_models() {
            let b = ParamBreakdown::of(&m);
            if let Some(err) = b.total_error_vs_reported(&m) {
                assert!(
                    err < 0.12,
                    "{}: total {} vs reported {} (err {:.1}%)",
                    m.name,
                    b.total(),
                    m.reported_total_params.unwrap(),
                    err * 100.0
                );
            }
        }
    }

    #[test]
    fn param_counts_match_reported_actives() {
        for m in all_models() {
            let b = ParamBreakdown::of(&m);
            if let Some(err) = b.active_error_vs_reported(&m) {
                assert!(
                    err < 0.25,
                    "{}: active {} vs reported {} (err {:.1}%)",
                    m.name,
                    b.active(),
                    m.reported_active_params.unwrap(),
                    err * 100.0
                );
            }
        }
    }

    #[test]
    fn table1_roster_is_complete() {
        // The nine Table-1 rows.
        for name in [
            "Mixtral-8x7B",
            "Qwen1.5-MoE-A2.7B",
            "Qwen3-30B-A3B",
            "DeepSeek-V2-Lite",
            "Phi-3.5-MoE",
            "OLMoE-1B-7B",
            "DeepSeek-VL2-Tiny",
            "DeepSeek-VL2-Small",
            "DeepSeek-VL2",
        ] {
            assert!(by_name(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn llms_are_text_and_vlms_are_multimodal() {
        use crate::config::Modality;
        assert!(llms().iter().all(|m| m.modality == Modality::Text));
        assert!(vlms().iter().all(|m| m.modality == Modality::TextImage));
    }

    #[test]
    fn drafts_are_dense_same_family_as_target() {
        let target = qwen3_30b_a3b();
        for d in draft_models() {
            assert!(!d.is_moe(), "{} should be dense", d.name);
            assert_eq!(d.family, target.family);
            assert_eq!(d.vocab_size, target.vocab_size, "{}", d.name);
        }
    }

    #[test]
    fn molmoe_is_unbalanced_deepseek_balanced() {
        assert!(!molmoe_1b().moe.unwrap().aux_loss_balanced);
        assert!(deepseek_vl2().moe.unwrap().aux_loss_balanced);
    }

    #[test]
    fn table_ffn_dim_uses_paper_display_values() {
        assert_eq!(olmoe_1b_7b().table_ffn_dim(), 8192);
        assert_eq!(mixtral_8x7b().table_ffn_dim(), 14_336);
        assert_eq!(qwen15_moe_a27b().table_ffn_dim(), 5632);
    }

    #[test]
    fn by_name_misses_cleanly() {
        assert!(by_name("GPT-5").is_none());
    }

    #[test]
    fn tiny_model_is_fast_scale() {
        let t = tiny_test_model(8, 2);
        assert!(ParamBreakdown::of(&t).total() < 2_000_000);
        assert!(t.validate().is_empty());
    }

    #[test]
    fn moe_dominates_parameters_fig1() {
        // Figure 1's claim: MoE layers dominate total parameters.
        for m in [mixtral_8x7b(), olmoe_1b_7b(), qwen15_moe_a27b()] {
            let b = ParamBreakdown::of(&m);
            assert!(b.moe_fraction() > 0.75, "{}: {}", m.name, b.moe_fraction());
        }
    }
}
