//! Planner inputs: the fleet, the SLO, the searchable knob space, and the
//! search mode.

use moe_cluster::{RoutePolicy, WorkloadSpec};
use moe_gpusim::device::{Cluster, DeviceProfile, Interconnect};
use moe_gpusim::residency::ExpertResidency;
use moe_json::{FromJson, ToJson};
use moe_model::ModelConfig;
use moe_tensor::Precision;

use crate::PlanFailure;

/// One homogeneous pool inside a (possibly mixed) fleet: one accelerator
/// profile, one intra-node fabric, `count` devices. Replicas carve device
/// groups out of a pool; a replica never spans pools.
#[derive(Debug, Clone, PartialEq)]
pub struct DevicePool {
    /// Accelerator profile shared by every device in the pool.
    pub device: DeviceProfile,
    /// Fabric inside a replica's device group.
    pub link: Interconnect,
    /// Devices in the pool.
    pub count: usize,
}

impl DevicePool {
    /// Pool of `count` devices of the given profile on the given fabric.
    pub fn new(device: DeviceProfile, link: Interconnect, count: usize) -> Self {
        Self {
            device,
            link,
            count,
        }
    }

    /// Pool of `count` zoo devices looked up by name/alias, joined by the
    /// profile's default port fabric. `None` for unknown devices.
    pub fn of(name: &str, count: usize) -> Option<Self> {
        let device = moe_gpusim::device::profile(name)?;
        let link = device.default_link();
        Some(Self {
            device,
            link,
            count,
        })
    }

    /// One replica's device group of the given degree.
    pub fn cluster(&self, degree: usize) -> Cluster {
        Cluster {
            device: self.device.clone(),
            num_devices: degree,
            link: self.link,
            devices_per_node: degree,
            inter_link: Interconnect::infiniband_ndr(),
        }
    }

    /// Short label for reports, e.g. `4x H100-SXM5-80GB`.
    pub fn label(&self) -> String {
        format!("{}x {}", self.count, self.device.name)
    }
}

/// The device fleet: one or more homogeneous pools. The classic planner
/// ([`crate::plan`]) requires a single pool; mixed fleets go through
/// [`crate::plan_fleet`], which plans each pool and blends the frontiers.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Homogeneous pools, in deterministic declaration order.
    pub pools: Vec<DevicePool>,
}

impl FleetSpec {
    /// `count` H100 SXM5 devices on NVLink — the paper's testbed scaled out.
    pub fn h100(count: usize) -> Self {
        Self::uniform(
            moe_gpusim::device::profile("h100").expect("h100 is in the zoo"), // lint:allow(no-panic-in-lib) -- registry always carries the paper's baseline device
            Interconnect::nvlink4(),
            count,
        )
    }

    /// A single homogeneous pool.
    pub fn uniform(device: DeviceProfile, link: Interconnect, count: usize) -> Self {
        Self {
            pools: vec![DevicePool::new(device, link, count)],
        }
    }

    /// A mixed fleet of several pools (declaration order is preserved and
    /// deterministic).
    pub fn mixed(pools: Vec<DevicePool>) -> Self {
        Self { pools }
    }

    /// Total devices across pools.
    pub fn count(&self) -> usize {
        self.pools.iter().map(|p| p.count).sum()
    }

    /// Whether the fleet has more than one pool.
    fn is_mixed(&self) -> bool {
        self.pools.len() > 1
    }

    /// The first (and for uniform fleets, only) pool.
    fn primary(&self) -> &DevicePool {
        self.pools.first().expect("fleet needs at least one pool") // lint:allow(no-panic-in-lib) -- PlannerSpec::check rejects empty fleets before any planning path reaches here
    }

    /// One replica's device group of the given degree, carved from the
    /// primary pool.
    pub fn cluster(&self, degree: usize) -> Cluster {
        self.primary().cluster(degree)
    }

    /// Short label for reports: `4x H100-SXM5-80GB`, or pools joined with
    /// ` + ` for mixed fleets.
    pub fn label(&self) -> String {
        self.pools
            .iter()
            .map(|p| p.label())
            .collect::<Vec<_>>()
            .join(" + ")
    }
}

/// Service-level objective plus budgets. A candidate *meets the SLO* when
/// every bound holds; use `f64::MAX` (or `0.0` for the accuracy floor) to
/// disable a bound.
#[derive(Debug, Clone, Copy, PartialEq, ToJson, FromJson)]
pub struct SloSpec {
    /// p99 time-to-first-token target (s).
    pub p99_ttft_s: f64,
    /// p99 inter-token-latency target (s).
    pub p99_itl_s: f64,
    /// Cost budget in device-seconds per completed token (the MoE-CAP
    /// cost axis; `ClusterReport::cost_per_token_device_s` measures the
    /// same quantity).
    pub max_cost_per_token_device_s: f64,
    /// Accuracy-proxy floor (0–1); pruned/quantized variants pay
    /// penalties against it.
    pub min_accuracy: f64,
}

impl SloSpec {
    /// Latency targets only; cost and accuracy unconstrained.
    pub fn latency(p99_ttft_s: f64, p99_itl_s: f64) -> Self {
        Self {
            p99_ttft_s,
            p99_itl_s,
            max_cost_per_token_device_s: f64::MAX,
            min_accuracy: 0.0,
        }
    }

    /// Add an accuracy-proxy floor.
    pub fn with_accuracy_floor(mut self, floor: f64) -> Self {
        self.min_accuracy = floor;
        self
    }
}

/// The searchable knob grid. Parallel plans and replica counts are derived
/// from the fleet (every power-of-two degree, every replica count that
/// fits); everything else is enumerated from these lists.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    /// Weight precisions to consider.
    pub precisions: Vec<Precision>,
    /// Inter-expert pruning ratios (0.0 = unpruned). Collapses to
    /// `[0.0]` for dense models.
    pub prune_ratios: Vec<f64>,
    /// Speculative-decode settings. `true` requires a draft model in the
    /// [`PlannerSpec`]; collapses to `[false]` without one.
    pub spec_decode: Vec<bool>,
    /// Max batched tokens per engine step (the chunked-prefill budget).
    pub max_batch_tokens: Vec<usize>,
    /// Expert-residency configurations (HBM budget + offload tier).
    /// [`ExpertResidency::all_resident`] is the classic no-offload
    /// deployment; offloaded entries turn OOM walls into cost cliffs.
    /// Collapses to all-resident for dense models.
    pub residencies: Vec<ExpertResidency>,
    /// Router policies swept during cluster refinement (the analytic
    /// model is policy-blind, so policy is a refinement-stage knob).
    pub policies: Vec<RoutePolicy>,
}

impl SearchSpace {
    /// The default paper-shaped grid: fp16 vs fp8, three pruning levels,
    /// two chunked-prefill budgets, queue-aware routing.
    pub fn paper() -> Self {
        Self {
            precisions: vec![Precision::F16, Precision::Fp8E4M3],
            prune_ratios: vec![0.0, 0.25, 0.5],
            spec_decode: vec![false],
            max_batch_tokens: vec![8_192, 32_768],
            residencies: vec![ExpertResidency::all_resident()],
            policies: vec![RoutePolicy::LeastOutstanding],
        }
    }

    /// A minimal grid for smoke tests: one knob value per dimension
    /// except precision.
    pub fn minimal() -> Self {
        Self {
            precisions: vec![Precision::F16, Precision::Fp8E4M3],
            prune_ratios: vec![0.0],
            spec_decode: vec![false],
            max_batch_tokens: vec![32_768],
            residencies: vec![ExpertResidency::all_resident()],
            policies: vec![RoutePolicy::LeastOutstanding],
        }
    }

    /// Add offloaded residency configurations to the grid (all-resident
    /// stays enumerated first).
    pub fn with_residencies(mut self, extra: &[ExpertResidency]) -> Self {
        self.residencies.extend_from_slice(extra);
        self
    }
}

/// How to traverse the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// Score every enumerated candidate. Ground truth for small grids.
    Exhaustive,
    /// Branch-and-bound over deployment *shapes* (plan x replicas x
    /// precision) with admissible roofline bounds, keeping at most
    /// `width` shapes. With `width >=` the shape count, the Pareto
    /// frontier is provably identical to [`SearchMode::Exhaustive`]
    /// (bound-pruned subtrees are strictly dominated by a scored point).
    Beam {
        /// Maximum shapes expanded into full candidates.
        width: usize,
    },
}

impl SearchMode {
    /// Stable label for reports ("exhaustive", "beam(8)").
    pub fn label(&self) -> String {
        match self {
            SearchMode::Exhaustive => "exhaustive".to_string(),
            SearchMode::Beam { width } => format!("beam({width})"),
        }
    }
}

/// Everything the planner needs: model, fleet, workload, SLO, grid, mode.
#[derive(Debug, Clone)]
pub struct PlannerSpec {
    /// Target model (from `moe-model::registry` or custom).
    pub model: ModelConfig,
    /// Draft model for speculative decoding; `None` disables the
    /// spec-decode knob.
    pub draft: Option<ModelConfig>,
    /// Device fleet.
    pub fleet: FleetSpec,
    /// Workload sketch; materialized once with `seed` and shared by
    /// analytic scoring and cluster refinement.
    pub workload: WorkloadSpec,
    /// Service-level objective and budgets.
    pub slo: SloSpec,
    /// Knob grid.
    pub space: SearchSpace,
    /// Search mode.
    pub mode: SearchMode,
    /// Frontier candidates refined through the cluster simulator.
    pub refine_top_k: usize,
    /// Master seed: workload materialization and cluster tie-breaking
    /// derive from it, so the full report replays byte-identically.
    pub seed: u64,
}

impl PlannerSpec {
    /// Validate the inputs; the planner refuses malformed specs instead
    /// of panicking mid-search.
    pub fn check(&self) -> Result<(), PlanFailure> {
        let fail = |msg: String| Err(PlanFailure::InvalidSpec(msg));
        if self.fleet.count() == 0 {
            return fail("fleet has zero devices".into());
        }
        if self.fleet.is_mixed() {
            return fail("mixed fleet: the classic planner is single-pool; use plan_fleet".into());
        }
        if self.workload.num_requests == 0 {
            return fail("workload has zero requests".into());
        }
        if self.refine_top_k == 0 {
            return fail("refine_top_k must be at least 1".into());
        }
        if let SearchMode::Beam { width: 0 } = self.mode {
            return fail("beam width must be at least 1".into());
        }
        if self.space.precisions.is_empty()
            || self.space.prune_ratios.is_empty()
            || self.space.spec_decode.is_empty()
            || self.space.max_batch_tokens.is_empty()
            || self.space.residencies.is_empty()
            || self.space.policies.is_empty()
        {
            return fail("every search-space dimension needs at least one value".into());
        }
        for r in &self.space.residencies {
            if !(r.resident_frac > 0.0 && r.resident_frac <= 1.0) {
                return fail(format!(
                    "residency resident_frac {} outside (0, 1]",
                    r.resident_frac
                ));
            }
            if !(0.0..=1.0).contains(&r.residency_hit) || !(0.0..=1.0).contains(&r.predictor_hit) {
                return fail("residency hit probabilities must be in [0, 1]".into());
            }
        }
        for &r in &self.space.prune_ratios {
            if !(0.0..1.0).contains(&r) {
                return fail(format!("prune ratio {r} outside [0, 1)"));
            }
        }
        for &m in &self.space.max_batch_tokens {
            if m == 0 {
                return fail("max_batch_tokens of zero".into());
            }
        }
        if self.space.spec_decode.contains(&true) && self.draft.is_none() {
            return fail("spec_decode=true in the space but no draft model given".into());
        }
        Ok(())
    }
}
