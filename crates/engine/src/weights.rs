//! Weight containers and deterministic initialization.
//!
//! All weights are stored as f32 [`Matrix`] values. Every linear weight is
//! stored **k-major**, `[in x out]`, so a layer computes `y = x @ W` with
//! [`moe_tensor::matrix`]'s one kernel; only the embedding stays
//! `[vocab x hidden]`, for its row gather. Initialization draws each
//! weight in its logical `[out x in]` order and writes every value to its
//! k-major slot, so the layout changes no value.
//!
//! Quantized execution is weight-only fake-quantization: weights are passed
//! through the *real* [`QuantizedMatrix`] encode/decode (so they take
//! exactly the values the low-precision format can represent) while
//! accumulation stays in f32 — the same numerics as weight-only-quantized
//! GPU kernels. The integer formats scale blocks of the logical `[out x
//! in]` rows, so quantization runs on that layout too.

use moe_model::ModelConfig;
use moe_tensor::rng::{derive_seed, normals};
use moe_tensor::{Matrix, Precision, QuantizedMatrix};

/// One expert's SwiGLU FFN.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpertWeights {
    /// `[hidden x ffn_dim]` gate projection (applied as `x @ W`).
    pub gate: Matrix,
    /// `[hidden x ffn_dim]` up projection.
    pub up: Matrix,
    /// `[ffn_dim x hidden]` down projection.
    pub down: Matrix,
}

impl ExpertWeights {
    fn init(hidden: usize, ffn: usize, seed: u64) -> Self {
        let std = (2.0 / (hidden + ffn) as f32).sqrt();
        Self {
            gate: linear(ffn, hidden, derive_seed(seed, 1), std),
            up: linear(ffn, hidden, derive_seed(seed, 2), std),
            down: linear(hidden, ffn, derive_seed(seed, 3), std),
        }
    }

    /// FFN intermediate dimension.
    pub fn ffn_dim(&self) -> usize {
        self.gate.cols()
    }

    fn quantize(&mut self, p: Precision) {
        fake_quant(&mut self.gate, p);
        fake_quant(&mut self.up, p);
        fake_quant(&mut self.down, p);
    }
}

/// One decoder layer's weights.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerWeights {
    /// `[hidden x q_dim]`.
    pub wq: Matrix,
    /// `[hidden x kv_dim]`.
    pub wk: Matrix,
    /// `[hidden x kv_dim]`.
    pub wv: Matrix,
    /// `[q_dim x hidden]`.
    pub wo: Matrix,
    pub attn_norm: Vec<f32>,
    pub ffn_norm: Vec<f32>,
    /// `[hidden x num_experts]` router; empty matrix for dense layers.
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
#[derive(Debug, Clone, PartialEq)]
pub struct ModelWeights {
    /// `[vocab x hidden]` token embedding (row-major, for the row gather).
    pub embedding: Matrix,
    /// `[hidden x vocab]` LM head (the embedding's transpose when the
    /// config ties them).
    pub lm_head: Matrix,
    pub final_norm: Vec<f32>,
    pub layers: Vec<LayerWeights>,
    /// Precision the weights were (fake-)quantized to.
    pub precision: Precision,
}

/// A linear weight of logical shape `[out x inp]` with ~N(0, std^2)
/// entries drawn from `seed` in that order, each written straight to its
/// k-major slot.
fn linear(out: usize, inp: usize, seed: u64, std: f32) -> Matrix {
    let mut m = Matrix::zeros(inp, out);
    let w = m.as_mut_slice();
    let mut draws = normals(seed, std);
    for o in 0..out {
        for (i, v) in draws.by_ref().take(inp).enumerate() {
            w[i * out + o] = v;
        }
    }
    m
}

/// Pass a row-major matrix through a quantized encoding and back, so its
/// values are exactly representable in `p`.
fn fake_quant_rows(m: &mut Matrix, p: Precision) {
    if p != Precision::F32 {
        *m = QuantizedMatrix::quantize(m, p).dequantize();
    }
}

/// [`fake_quant_rows`] for a k-major weight: quantized on its logical
/// `[out x in]` rows, stored k-major again.
fn fake_quant(m: &mut Matrix, p: Precision) {
    if p != Precision::F32 {
        let mut rows = m.transpose();
        fake_quant_rows(&mut rows, p);
        *m = rows.transpose();
    }
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
                (router.transpose(), experts)
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

            let router_bias = vec![0.0; router.cols()];
            layers.push(LayerWeights {
                wq: linear(q_dim, h, derive_seed(ls, 1), std),
                wk: linear(kv_dim, h, derive_seed(ls, 2), std),
                wv: linear(kv_dim, h, derive_seed(ls, 3), std),
                wo: linear(h, q_dim, derive_seed(ls, 4), std),
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
            embedding.transpose()
        } else {
            linear(config.vocab_size, h, derive_seed(seed, 2), 0.02)
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
        fake_quant_rows(&mut self.embedding, p);
        fake_quant(&mut self.lm_head, p);
        for layer in &mut self.layers {
            fake_quant(&mut layer.wq, p);
            fake_quant(&mut layer.wk, p);
            fake_quant(&mut layer.wv, p);
            fake_quant(&mut layer.wo, p);
            if !layer.router.is_empty() {
                fake_quant(&mut layer.router, p);
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
        assert_eq!(w.layers[1].router.cols(), 4);
    }

    #[test]
    fn k_major_weights_hold_the_values_drawn_in_out_by_in_order() {
        let cfg = tiny_test_model(4, 2);
        let w = ModelWeights::init(&cfg, 7);
        let h = cfg.hidden_size;
        let std = (1.0 / h as f32).sqrt();
        let ls = derive_seed(derive_seed(7, 100), 1);
        let drawn = Matrix::random_normal(cfg.num_heads * cfg.head_dim, h, ls, std);
        assert_eq!(w.layers[0].wq.transpose(), drawn);
        let e0 = derive_seed(derive_seed(7, 100), 20);
        let ffn = w.layers[0].experts[0].ffn_dim();
        let std = (2.0 / (h + ffn) as f32).sqrt();
        let down = Matrix::random_normal(h, ffn, derive_seed(e0, 3), std);
        assert_eq!(w.layers[0].experts[0].down.transpose(), down);
    }

    #[test]
    fn tied_embeddings_share_values() {
        let mut cfg = tiny_test_model(4, 1);
        cfg.tie_embeddings = true;
        let w = ModelWeights::init(&cfg, 3);
        assert_eq!(w.embedding, w.lm_head.transpose());
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
