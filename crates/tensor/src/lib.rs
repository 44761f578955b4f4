//! # moe-tensor
//!
//! Dense and quantized tensor kernels underpinning the MoE-Inference-Bench
//! functional executor (`moe-engine`).
//!
//! This crate deliberately implements a *small* surface: row-major 2-D
//! matrices over `f32`, the handful of kernels a decoder-only transformer
//! needs (GEMM, GEMV, softmax, RMSNorm, SiLU/GeLU, RoPE, top-k selection),
//! and the reduced-precision weight formats the paper's quantization study
//! exercises (FP16, BF16, FP8-E4M3, block-wise INT8/INT4).
//!
//! Design points:
//!
//! * **Determinism** — every random initializer takes an explicit seed and
//!   uses a counter-based ChaCha stream ([`rng`]), so functional experiments
//!   are bit-reproducible across thread counts.
//! * **Parallelism** — the one dense-product kernel
//!   ([`matrix::matmul_into`]) parallelizes over output-row blocks (a
//!   single row over column blocks) with the contiguous-run helper in
//!   `moe_par` (the workspace's deterministic fork/join executor); below a
//!   size threshold it runs on the calling thread to avoid fork/join
//!   overhead on the tiny matrices the down-scaled models use.
//! * **No `unsafe`** — the kernels stay within safe Rust; performance on the
//!   down-scaled models is more than sufficient and data-race freedom is
//!   guaranteed by construction.

#![forbid(unsafe_code)]

pub mod matrix;
pub mod ops;
pub mod quant;
pub mod rng;
pub mod topk;

pub use matrix::Matrix;
pub use quant::{Precision, QuantizedMatrix};
pub use topk::{top_k, top_k_softmax, TopK};
