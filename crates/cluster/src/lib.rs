//! moe-cluster: a deterministic multi-replica serving simulator.
//!
//! The runtime crate provides *one* continuous-batching engine's step
//! core; this crate puts N of them behind a front-end router and drives
//! the whole cluster on a single discrete-event clock. It is the only
//! simulated serving driver: a single-engine run is a one-replica
//! cluster ([`serve_one_replica`]).
//!
//! * [`workload`] — seeded open-loop arrival generation (Poisson, bursty
//!   Markov-modulated, diurnal ramp), per-tenant request shapes and
//!   shared-prefix groups, materialized into a replayable
//!   [`workload::RequestTrace`] that round-trips through `moe-json` —
//!   or streamed lazily through any [`workload::ArrivalSource`]
//!   ([`workload::WorkloadStream`]), so memory never scales with trace
//!   length.
//! * [`router`] — pluggable replica-selection policies (round-robin,
//!   least-outstanding, power-of-two-choices, prefix-affinity) plus the
//!   admission-queue / retry / TTFT-timeout knobs in
//!   [`router::RouterConfig`].
//! * [`fault`] — seeded crash/recover and slowdown schedules as plain
//!   data ([`fault::FaultPlan`]).
//! * [`sim`] — the event loop tying them together on one indexed binary
//!   event heap with streaming histogram aggregation; produces a
//!   [`sim::ClusterReport`] and, via [`sim::ClusterSim::run`],
//!   a `moe-trace` timeline with router-decision instants, per-replica
//!   step spans (with cost-model children and scheduler decisions) and
//!   queue-depth counters.
//! * [`serve`] — the one-replica round-robin cluster behind every
//!   single-engine serving experiment ([`serve::serve_one_replica`]).
//! * [`ctrl`] — the control-plane contract: a [`ctrl::ControlHook`]
//!   registered via [`sim::ClusterSim::with_controller`] is ticked on
//!   the simulated clock, observes the cluster ([`ctrl::ControlObs`])
//!   and reconfigures it live ([`ctrl::ControlAction`]: replica
//!   add/drain with modeled provisioning and migration cost, canary
//!   routing between plan generations). The policy side lives in the
//!   `moe-ctrl` crate.
//! * [`shard`] — planet-scale execution: independent replica groups
//!   partitioned by seeded hashing, run across `moe-par` workers, and
//!   merged deterministically ([`shard::ShardPlan`], with multi-region
//!   [`shard::RegionTier`]s pricing network RTT into user-perceived
//!   latency). See `docs/SCALE.md`.
//!
//! Everything is seeded and tie-broken deterministically: the same
//! `(trace, config, fault plan)` replays byte-identically — at any
//! `MOE_THREADS` worker count when sharded — which
//! `tests/determinism.rs` pins at the workspace level.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ctrl;
pub(crate) mod events;
pub mod fault;
pub(crate) mod fleet;
pub(crate) mod replica;
pub mod router;
pub mod serve;
pub mod shard;
pub mod sim;
pub(crate) mod tally;
pub mod workload;

/// Trace track carrying control-plane decisions (provision/ready/drain/
/// retire/canary instants emitted by a controlled [`sim::ClusterSim`]).
pub const CONTROL_TRACK: moe_trace::TrackId = 7;

/// Trace track carrying router decisions (dispatch/retry/timeout/reject).
pub const ROUTER_TRACK: moe_trace::TrackId = 8;

/// First trace track for per-replica step spans and scheduler decisions;
/// replica `i` uses `REPLICA_TRACK_BASE + i`.
pub const REPLICA_TRACK_BASE: moe_trace::TrackId = 9;

pub use ctrl::{ControlAction, ControlHook, ControlObs, ReplicaObs, ReplicaSpec};
pub use fault::{FaultEvent, FaultPlan};
pub use router::{RoutePolicy, RouterConfig};
pub use serve::serve_one_replica;
pub use shard::{run_sharded, run_sharded_stream, RegionTier, ShardPlan};
pub use sim::{ClusterConfig, ClusterOutput, ClusterReport, ClusterSim};
pub use workload::{
    generate, ArrivalProcess, ArrivalSource, ClusterRequest, RequestTrace, TenantSpec, TraceSource,
    WorkloadSpec, WorkloadStream,
};
