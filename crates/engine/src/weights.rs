//! Weight containers and deterministic initialization.
//!
//! All weights are stored as f32 [`Matrix`] values. Quantized execution is
//! weight-only fake-quantization: weights are passed through the *real*
//! [`QuantizedMatrix`] encode/decode (so they take exactly the values the
//! low-precision format can represent) while accumulation stays in f32 —
//! the same numerics as weight-only-quantized GPU kernels.

use moe_json::{FromJson, ToJson};
use moe_model::ModelConfig;
use moe_tensor::rng::derive_seed;
use moe_tensor::{Matrix, Precision, QuantizedMatrix};

/// One expert's SwiGLU FFN.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct ExpertWeights {
    /// `[ffn_dim x hidden]` gate projection (applied as `x @ W^T`).
    pub gate: Matrix,
    /// `[ffn_dim x hidden]` up projection.
    pub up: Matrix,
    /// `[hidden x ffn_dim]` down projection.
    pub down: Matrix,
}

impl ExpertWeights {
    fn init(hidden: usize, ffn: usize, seed: u64) -> Self {
        let std = (2.0 / (hidden + ffn) as f32).sqrt();
        Self {
            gate: Matrix::random_normal(ffn, hidden, derive_seed(seed, 1), std),
            up: Matrix::random_normal(ffn, hidden, derive_seed(seed, 2), std),
            down: Matrix::random_normal(hidden, ffn, derive_seed(seed, 3), std),
        }
    }

    /// FFN intermediate dimension.
    pub fn ffn_dim(&self) -> usize {
        self.gate.rows()
    }

    fn quantize(&mut self, p: Precision) {
        self.gate = fake_quant(&self.gate, p);
        self.up = fake_quant(&self.up, p);
        self.down = fake_quant(&self.down, p);
    }
}

/// One decoder layer's weights.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct LayerWeights {
    /// `[q_dim x hidden]`.
    pub wq: Matrix,
    /// `[kv_dim x hidden]`.
    pub wk: Matrix,
    /// `[kv_dim x hidden]`.
    pub wv: Matrix,
    /// `[hidden x q_dim]`.
    pub wo: Matrix,
    pub attn_norm: Vec<f32>,
    pub ffn_norm: Vec<f32>,
    /// `[num_experts x hidden]` router; empty matrix for dense layers.
    pub router: Matrix,
    /// Per-expert routing bias (zero-initialized; adjusted by
    /// [`crate::balance`] to emulate aux-loss load balancing, the
    /// mechanism DeepSeek-V3 implements as bias-based balancing). Not
    /// counted as parameters.
    pub router_bias: Vec<f32>,
    /// Routed experts; empty for dense layers.
    pub experts: Vec<ExpertWeights>,
    /// Always-active shared experts.
    pub shared_experts: Vec<ExpertWeights>,
    /// Dense FFN (dense layers only).
    pub dense_ffn: Option<ExpertWeights>,
}

impl LayerWeights {
    /// Whether this layer routes through experts.
    pub fn is_moe(&self) -> bool {
        !self.experts.is_empty()
    }
}

/// All weights of a model.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct ModelWeights {
    /// `[vocab x hidden]` token embedding.
    pub embedding: Matrix,
    /// `[vocab x hidden]` LM head (may alias the embedding values when the
    /// config ties them).
    pub lm_head: Matrix,
    pub final_norm: Vec<f32>,
    pub layers: Vec<LayerWeights>,
    /// Precision the weights were (fake-)quantized to.
    pub precision: Precision,
}

/// Pass a matrix through a quantized encoding and back, so its values are
/// exactly representable in `p`.
fn fake_quant(m: &Matrix, p: Precision) -> Matrix {
    if p == Precision::F32 {
        return m.clone();
    }
    QuantizedMatrix::quantize(m, p).dequantize()
}

impl ModelWeights {
    /// Deterministically initialize weights for a config.
    ///
    /// The `router_seed_skew` knob biases router rows: 0.0 keeps logits
    /// balanced in expectation (aux-loss-trained models); positive values
    /// add a per-expert offset drawn once, producing the spiky activation
    /// patterns of models trained without balancing (Fig. 15).
    pub fn init(config: &ModelConfig, seed: u64) -> Self {
        Self::init_with_skew(config, seed, default_router_skew(config))
    }

    /// Like [`ModelWeights::init`] with an explicit router skew.
    pub fn init_with_skew(config: &ModelConfig, seed: u64, router_skew: f32) -> Self {
        let h = config.hidden_size;
        let q_dim = config.num_heads * config.head_dim;
        let kv_dim = config.num_kv_heads * config.head_dim;
        let std = (1.0 / h as f32).sqrt();

        let mut layers = Vec::with_capacity(config.num_layers);
        for l in 0..config.num_layers {
            let ls = derive_seed(seed, 100 + l as u64);
            let is_moe = config.moe.is_some() && l >= config.first_k_dense_layers;
            let (router, experts) = if is_moe {
                let moe = config.moe.as_ref().expect("is_moe checked"); // lint:allow(no-panic-in-lib) -- guarded by the is_moe branch above
                let mut router =
                    Matrix::random_normal(moe.num_experts, h, derive_seed(ls, 10), std);
                // Aux-loss-trained routers select experts near-uniformly;
                // the closest untrained analogue is equal row norms (equal
                // logit variance per expert). Skewed routers get a
                // log-normal per-expert norm spread, so high-variance rows
                // systematically win top-k (Fig. 15's spiky pattern).
                let bias = Matrix::random_normal(moe.num_experts, 1, derive_seed(ls, 11), 1.0);
                for e in 0..moe.num_experts {
                    let norm: f32 = router
                        .row(e)
                        .iter()
                        .map(|v| v * v)
                        .sum::<f32>()
                        .sqrt()
                        .max(1e-12);
                    let scale = (router_skew * bias.get(e, 0)).exp() / norm;
                    for v in router.row_mut(e) {
                        *v *= scale;
                    }
                }
                let experts = (0..moe.num_experts)
                    .map(|e| {
                        ExpertWeights::init(h, moe.expert_ffn_dim, derive_seed(ls, 20 + e as u64))
                    })
                    .collect();
                (router, experts)
            } else {
                (Matrix::zeros(0, 0), Vec::new())
            };

            let shared_experts = if is_moe {
                let moe = config.moe.as_ref().expect("is_moe checked"); // lint:allow(no-panic-in-lib) -- guarded by the is_moe branch above
                (0..moe.num_shared_experts)
                    .map(|e| {
                        ExpertWeights::init(
                            h,
                            moe.shared_expert_ffn_dim,
                            derive_seed(ls, 500 + e as u64),
                        )
                    })
                    .collect()
            } else {
                Vec::new()
            };

            let dense_ffn = if is_moe {
                None
            } else {
                Some(ExpertWeights::init(
                    h,
                    config.dense_ffn_dim,
                    derive_seed(ls, 600),
                ))
            };

            let router_bias = vec![0.0; router.rows()];
            layers.push(LayerWeights {
                wq: Matrix::random_normal(q_dim, h, derive_seed(ls, 1), std),
                wk: Matrix::random_normal(kv_dim, h, derive_seed(ls, 2), std),
                wv: Matrix::random_normal(kv_dim, h, derive_seed(ls, 3), std),
                wo: Matrix::random_normal(h, q_dim, derive_seed(ls, 4), std),
                attn_norm: vec![1.0; h],
                ffn_norm: vec![1.0; h],
                router,
                router_bias,
                experts,
                shared_experts,
                dense_ffn,
            });
        }

        let embedding = Matrix::random_normal(config.vocab_size, h, derive_seed(seed, 1), 0.02);
        let lm_head = if config.tie_embeddings {
            embedding.clone()
        } else {
            Matrix::random_normal(config.vocab_size, h, derive_seed(seed, 2), 0.02)
        };

        Self {
            embedding,
            lm_head,
            final_norm: vec![1.0; h],
            layers,
            precision: Precision::F32,
        }
    }

    /// Fake-quantize every weight matrix to `p` (norms stay f32, as on real
    /// deployments).
    pub fn quantize(&mut self, p: Precision) {
        self.embedding = fake_quant(&self.embedding, p);
        self.lm_head = fake_quant(&self.lm_head, p);
        for layer in &mut self.layers {
            layer.wq = fake_quant(&layer.wq, p);
            layer.wk = fake_quant(&layer.wk, p);
            layer.wv = fake_quant(&layer.wv, p);
            layer.wo = fake_quant(&layer.wo, p);
            if !layer.router.is_empty() {
                layer.router = fake_quant(&layer.router, p);
            }
            for e in &mut layer.experts {
                e.quantize(p);
            }
            for e in &mut layer.shared_experts {
                e.quantize(p);
            }
            if let Some(d) = &mut layer.dense_ffn {
                d.quantize(p);
            }
        }
        self.precision = p;
    }

    /// Total stored f32 values: what tests check against `ParamBreakdown`.
    #[cfg(test)]
    pub(crate) fn param_count(&self) -> u64 {
        let mut n = (self.embedding.len() + self.lm_head.len() + self.final_norm.len()) as u64;
        for l in &self.layers {
            n += (l.wq.len() + l.wk.len() + l.wv.len() + l.wo.len()) as u64;
            n += (l.attn_norm.len() + l.ffn_norm.len()) as u64;
            n += l.router.len() as u64;
            for e in l.experts.iter().chain(&l.shared_experts) {
                n += (e.gate.len() + e.up.len() + e.down.len()) as u64;
            }
            if let Some(d) = &l.dense_ffn {
                n += (d.gate.len() + d.up.len() + d.down.len()) as u64;
            }
        }
        n
    }
}

/// Default router skew from the config's training metadata.
pub fn default_router_skew(config: &ModelConfig) -> f32 {
    match &config.moe {
        Some(moe) if !moe.aux_loss_balanced => 0.8,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_model::registry::tiny_test_model;
    use moe_model::ParamBreakdown;

    #[test]
    fn init_is_deterministic() {
        let cfg = tiny_test_model(8, 2);
        let a = ModelWeights::init(&cfg, 7);
        let b = ModelWeights::init(&cfg, 7);
        assert_eq!(a, b);
        let c = ModelWeights::init(&cfg, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn param_count_matches_breakdown() {
        let cfg = tiny_test_model(8, 2);
        let w = ModelWeights::init(&cfg, 1);
        let expect = ParamBreakdown::of(&cfg).total();
        assert_eq!(w.param_count(), expect);
    }

    #[test]
    fn layers_have_expected_structure() {
        let mut cfg = tiny_test_model(4, 2);
        cfg.first_k_dense_layers = 1;
        cfg.dense_ffn_dim = 128;
        let w = ModelWeights::init(&cfg, 1);
        assert!(!w.layers[0].is_moe());
        assert!(w.layers[0].dense_ffn.is_some());
        assert!(w.layers[1].is_moe());
        assert_eq!(w.layers[1].experts.len(), 4);
        assert_eq!(w.layers[1].router.rows(), 4);
    }

    #[test]
    fn tied_embeddings_share_values() {
        let mut cfg = tiny_test_model(4, 1);
        cfg.tie_embeddings = true;
        let w = ModelWeights::init(&cfg, 3);
        assert_eq!(w.embedding, w.lm_head);
    }

    #[test]
    fn quantize_changes_values_within_bound() {
        let cfg = tiny_test_model(4, 2);
        let base = ModelWeights::init(&cfg, 5);
        let mut q = base.clone();
        q.quantize(Precision::Int8);
        assert_ne!(base.layers[0].wq, q.layers[0].wq);
        let diff = base.layers[0].wq.max_abs_diff(&q.layers[0].wq);
        // Block-wise int8: error bounded by amax/127 per block.
        assert!(diff < 0.05, "diff {diff}");
        assert_eq!(q.precision, Precision::Int8);
    }

    #[test]
    fn f32_quantize_is_identity() {
        let cfg = tiny_test_model(4, 2);
        let base = ModelWeights::init(&cfg, 5);
        let mut q = base.clone();
        q.quantize(Precision::F32);
        assert_eq!(base, q);
    }

    #[test]
    fn skew_scales_router_only() {
        let cfg = tiny_test_model(8, 2);
        let flat = ModelWeights::init_with_skew(&cfg, 9, 0.0);
        let skewed = ModelWeights::init_with_skew(&cfg, 9, 0.8);
        assert_ne!(flat.layers[0].router, skewed.layers[0].router);
        assert_eq!(flat.layers[0].wq, skewed.layers[0].wq);
        assert_eq!(flat.layers[0].experts, skewed.layers[0].experts);
    }

    #[test]
    fn default_skew_follows_balance_flag() {
        let balanced = tiny_test_model(8, 2);
        assert_eq!(default_router_skew(&balanced), 0.0);
        let mut unbalanced = tiny_test_model(8, 2);
        unbalanced.moe.as_mut().unwrap().aux_loss_balanced = false;
        assert!(default_router_skew(&unbalanced) > 0.0);
    }
}
