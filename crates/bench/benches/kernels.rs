//! Kernel microbenchmarks: GEMM, quantized GEMV, softmax, top-k routing,
//! and the engine's own kernels at the shapes of the Fig. 15 analogue.

use moe_bench::timing::Runner;
use moe_engine::attention::{attention_forward, AttentionParams};
use moe_engine::moe::expert_forward_batch;
use moe_engine::{ContiguousKv, KvStore, ModelWeights};
use moe_eval::activation::analogue_config;
use moe_model::registry::deepseek_vl2_tiny;
use moe_tensor::matrix::gemv;
use moe_tensor::ops::softmax_inplace;
use moe_tensor::topk::top_k_softmax;
use moe_tensor::{Matrix, Precision, QuantizedMatrix};
use std::hint::black_box;

fn main() {
    let r = Runner::from_args();

    for &n in &[64usize, 128, 256] {
        let a = Matrix::random(n, n, 1, 1.0);
        let b = Matrix::random(n, n, 2, 1.0);
        r.bench(&format!("matmul/{n}"), || black_box(a.matmul(&b)));
    }

    let w = Matrix::random(1024, 1024, 3, 1.0);
    let x: Vec<f32> = (0..1024).map(|i| (i as f32 * 0.01).sin()).collect();
    r.bench("gemv_precision/f32", || black_box(gemv(&w, &x)));
    for p in [
        Precision::F16,
        Precision::Fp8E4M3,
        Precision::Int8,
        Precision::Int4,
    ] {
        let q = QuantizedMatrix::quantize(&w, p);
        r.bench(&format!("gemv_precision/{}", p.label()), || {
            black_box(q.gemv(&x))
        });
    }

    for &n in &[64usize, 4096] {
        let row: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
        r.bench(&format!("softmax/{n}"), || {
            let mut v = row.clone();
            softmax_inplace(&mut v);
            black_box(v)
        });
    }

    for &(e, k) in &[(8usize, 2usize), (64, 8), (128, 8)] {
        let logits: Vec<f32> = (0..e).map(|i| (i as f32 * 0.7).sin()).collect();
        r.bench(&format!("router_topk/{e}experts_top{k}"), || {
            black_box(top_k_softmax(&logits, k))
        });
    }

    // Engine shapes: the DeepSeek-VL2-Tiny analogue (hidden 64, 4 query
    // and 2 KV heads of 16, experts 32 wide, vocab 256, 32-token chunks).
    let cfg = analogue_config(&deepseek_vl2_tiny());
    let weights = ModelWeights::init(&cfg, 42);
    let layer = &weights.layers[0];
    let x = Matrix::random(32, cfg.hidden_size, 4, 0.5);
    r.bench("gemv/64x64", || black_box(gemv(&layer.wq, x.row(0))));
    r.bench("matmul_transposed/32x64x256", || {
        black_box(x.matmul_transposed(&weights.lm_head))
    });
    let group = x.gather_rows(&[0, 1, 2]);
    r.bench("expert_ffn/3x64x32", || {
        black_box(expert_forward_batch(&layer.experts[0], &group))
    });
    let params = AttentionParams {
        num_heads: cfg.num_heads,
        num_kv_heads: cfg.num_kv_heads,
        head_dim: cfg.head_dim,
        rope_theta: cfg.rope_theta,
    };
    let history = Matrix::random(63, cfg.hidden_size, 5, 0.5);
    let positions: Vec<usize> = (0..63).collect();
    let mut kv = ContiguousKv::new(1, params.kv_dim());
    attention_forward(&params, layer, &history, &positions, &mut kv, 0);
    let row = x.gather_rows(&[0]);
    r.bench("attention_row/ctx64", || {
        kv.truncate(63);
        black_box(attention_forward(&params, layer, &row, &[63], &mut kv, 0))
    });
}
