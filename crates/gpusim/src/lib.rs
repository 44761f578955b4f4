//! # moe-gpusim
//!
//! An analytical roofline model with a flow-shop pipeline recurrence of a
//! zoo of accelerators: the paper's testbed (NVIDIA H100 SXM5, Cerebras
//! CS-3) plus consumer/edge classes (RTX 4090, M2 Ultra, Jetson AGX Orin),
//! each described as a declarative [`device::DeviceProfile`] capability
//! record (see `docs/DEVICES.md`). This crate is the substitution for
//! the physical hardware (see `DESIGN.md`): it predicts *time*, *memory*
//! and *scaling shape* for MoE transformer inference, and the serving
//! runtime advances its simulated clock by these predictions.
//!
//! The model captures, explicitly and testably, the first-order mechanisms
//! behind every performance result in the paper:
//!
//! * compute-vs-memory rooflines with GEMM pipeline-fill and wave
//!   quantization efficiencies ([`roofline`]),
//! * MoE expert weight traffic driven by the expected number of *distinct*
//!   activated experts, router load imbalance, and fused-vs-unfused
//!   dispatch ([`moecost`]),
//! * weight/KV/activation memory footprints and OOM boundaries
//!   ([`memory`]),
//! * expert residency across an HBM budget plus offload tiers, with
//!   prefetch-overlap stall pricing for non-resident experts
//!   ([`residency`], consumed by [`perfmodel`] and `moe-mem`),
//! * tensor/pipeline/expert parallelism with ring-collective costs
//!   ([`parallel`]) and a flow-shop recurrence for the pipelined-prefill
//!   makespan ([`perfmodel`]),
//! * end-to-end serving metrics — TTFT, ITL, E2E latency, throughput —
//!   composed per layer and per phase ([`perfmodel`]),
//! * a speculative-decoding cycle model ([`spec`]),
//! * sparsity-aware CAP cost metrics — naive $/peak-FLOP against
//!   $/achievable-active-FLOP under weight streaming ([`cap`]).
//!
//! Nothing here claims absolute-accuracy against real silicon; the paper's
//! *relative* results (who wins, by what factor, where the crossovers and
//! OOM walls are) all fall out of these mechanisms.

#![forbid(unsafe_code)]

pub mod cap;
pub mod convert;
pub mod device;
pub mod memory;
pub mod moecost;
pub mod parallel;
pub mod perfmodel;
pub mod placement;
pub mod residency;
pub mod roofline;
pub mod spec;
pub mod steptrace;

pub use device::{
    Cluster, DeviceClass, DeviceProfile, Interconnect, InterconnectPort, MemoryTier, PowerPrice,
};
pub use memory::{MemoryFootprint, OomError};
pub use parallel::{ParallelMode, ParallelPlan, PlanError};
pub use perfmodel::{EngineOptions, PerfModel, RunMetrics};
pub use residency::ExpertResidency;
