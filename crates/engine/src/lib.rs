//! # moe-engine
//!
//! The functional MoE transformer executor: a real (CPU, f32) forward pass
//! for any [`moe_model::ModelConfig`], with every mechanism the paper
//! benchmarks implemented for real:
//!
//! * GQA attention with RoPE over a KV cache — both contiguous and paged
//!   storage, proven equivalent ([`attention`], [`kvcache`]);
//! * top-k expert routing (Mixtral- and DeepSeek-style) and expert SwiGLU
//!   FFNs, with **fused** (sort-by-expert grouped execution) and
//!   **unfused** (per-token loop) dispatch paths that produce identical
//!   outputs ([`moe`]);
//! * weight quantization (weight-only fake-quant through the real
//!   [`moe_tensor::QuantizedMatrix`] encodings) ([`weights`]);
//! * inter- and intra-expert structured pruning at the weight level
//!   ([`prune`]);
//! * greedy generation ([`generate`]) and speculative
//!   decoding with the exact greedy-equivalence guarantee ([`spec`]);
//! * expert-activation statistics for the Fig. 15 study ([`stats`]), and
//!   per-token routing traces exported as seeded replayable artifacts for
//!   `moe-mem`'s prefetch predictors ([`trace`]).
//!
//! Weights are deterministic seeded random values: performance experiments
//! never depend on weight *values* (only shapes), and functional
//! experiments (equivalence, routing, pruning) are exercised genuinely.
//! Models are run at down-scaled dimensions (see
//! `moe_model::registry::tiny_test_model`) so the suite runs in
//! milliseconds.

#![forbid(unsafe_code)]

pub mod attention;
pub mod balance;
pub mod generate;
pub mod kvcache;
pub mod model;
pub mod moe;
pub mod prune;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod weights;

pub use generate::Generated;
pub use kvcache::{ContiguousKv, KvStore, PagedKv, KV_BLOCK_TOKENS};
pub use model::MoeTransformer;
pub use stats::ActivationStats;
pub use trace::{capture_trace, RoutingTrace, TraceArtifact};
pub use weights::ModelWeights;
