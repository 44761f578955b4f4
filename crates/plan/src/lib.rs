//! moe-plan: a deterministic deployment planner for MoE serving.
//!
//! Given a model, a device fleet, a workload sketch and an SLO, the
//! planner searches the paper's joint configuration space — parallel
//! plan (TP/PP/EP), replica count, precision, expert pruning,
//! speculative decoding, batch-token budget, router policy — and emits a
//! Pareto frontier over the MoE-CAP axes (cost-per-token in
//! device-seconds, accuracy proxy, throughput) extended with inter-token
//! latency — the axis tensor parallelism wins — plus one recommended
//! configuration.
//!
//! The pipeline has four stages:
//!
//! 1. **Enumerate** every deployment shape that fits the fleet
//!    ([`candidate::enumerate_shapes`]) and every knob completion.
//! 2. **Prune** infeasible points analytically — typed
//!    [`moe_gpusim::parallel::PlanError`]s and the memory model's OOM
//!    wall — without simulating anything.
//! 3. **Score** survivors with the roofline model and fold the SLO in
//!    ([`score::score_candidate`]); keep the Pareto frontier.
//! 4. **Refine** the top-K frontier picks through the `moe-cluster`
//!    simulator for measured p50/p99 latencies and SLO attainment,
//!    sweeping the router-policy knob ([`refine::refine_candidate`]).
//!
//! Everything is seeded and deterministic: the same [`spec::PlannerSpec`]
//! and seed replay to a byte-identical [`planner::PlanReport`] JSON, in
//! both search modes ([`spec::SearchMode::Beam`] proves itself against
//! [`spec::SearchMode::Exhaustive`] — see `search`'s module docs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod candidate;
pub mod fleet;
pub mod planner;
pub mod refine;
pub mod score;
pub mod search;
pub mod spec;

/// Trace track planner spans land on (cluster refinement additionally
/// uses the cluster crate's router/replica tracks).
pub const PLANNER_TRACK: moe_trace::TrackId = 3;

pub use candidate::{enumerate_shapes, CandidateConfig};
pub use fleet::{plan_fleet, ClassPlan, FleetPlanReport, MixedPart, MixedScore};
pub use planner::{plan, plan_traced, sketch_of, PlanFailure, PlanReport};
pub use refine::RefinedScore;
pub use score::{accuracy_proxy, score_candidate, CandidateScore, Infeasible, WorkloadSketch};
pub use search::{
    pareto_frontier, reachable_shapes, search, warm_search, ReachableSpace, SearchCounts,
    SearchOutcome,
};
pub use spec::{DevicePool, FleetSpec, PlannerSpec, SearchMode, SearchSpace, SloSpec};
