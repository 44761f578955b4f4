//! # moe-mem
//!
//! Expert residency, predictive prefetch, and offload-aware serving for
//! MoE models that do not fit their HBM budget.
//!
//! The paper's models are dominated by routed-expert weights that are
//! *sparsely* activated: per token, only `top_k` of `E` experts per layer
//! touch their weights. That sparsity is the opening this crate exploits —
//! under a constrained HBM budget, keep the hot experts resident, stream
//! the rest from an offload tier (host DRAM over PCIe, NVMe), and hide the
//! streaming under compute with a lookahead predictor trained on real
//! routing traces:
//!
//! * [`predictor`] — layer-transition frequency tables built from
//!   `moe-engine` [`RoutingTrace`](moe_engine::trace::RoutingTrace)
//!   exports, with an oracle → frequency → uniform quality ladder;
//! * [`residency`] — hot-first resident sets per layer and the derivation
//!   of the [`ExpertResidency`](moe_gpusim::ExpertResidency) summary the
//!   analytic cost model prices;
//! * [`replication`] — hot-expert replication across EP ranks, measured
//!   against LPT packing on real activation statistics.
//!
//! Everything is deterministic: traces are seeded, predictors are pure
//! functions of their tables, and ties break by expert index.

#![forbid(unsafe_code)]

pub mod predictor;
#[cfg(test)]
mod prefetch;
pub mod replication;
pub mod residency;

pub use predictor::{replay_hit_rate, PredictorQuality, TransitionTable};
pub use replication::{mean_imbalance, replication_study, ReplicationStudy};
pub use residency::{derive_residency, DerivedResidency};
