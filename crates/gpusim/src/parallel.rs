//! Parallelism plans and collective-communication cost models.
//!
//! The paper evaluates four placements on 1–4 H100s (Fig. 13): tensor
//! parallelism with and without expert parallelism, and pipeline
//! parallelism with and without expert parallelism. A plan is therefore a
//! base mode ([`ParallelMode::Tensor`] or [`ParallelMode::Pipeline`]) of a
//! given degree, plus an `expert_parallel` flag that redistributes MoE
//! experts across the same device group.
//!
//! Collectives use standard ring-algorithm cost models over the cluster
//! fabric.

use std::error::Error;
use std::fmt;

use moe_json::{FromJson, ToJson};
use moe_model::ModelConfig;

use crate::device::Interconnect;

/// A typed violation reported by [`ParallelPlan::validate`].
///
/// Non-exhaustive: downstream matchers (the deployment planner buckets
/// violations by kind) must carry a wildcard arm so new invariants can be
/// added without breaking them.
#[derive(Debug, Clone, PartialEq, Eq, ToJson, FromJson)]
#[non_exhaustive]
pub enum PlanError {
    /// `degree == 0`: a placement needs at least one device.
    ZeroDegree,
    /// Expert parallelism requested on a model without MoE layers.
    ExpertParallelOnDense,
    /// Fewer experts than devices: whole-expert distribution impossible.
    TooFewExperts {
        /// Experts per MoE layer in the model.
        experts: usize,
        /// Devices in the expert-parallel group.
        degree: usize,
    },
    /// Fewer layers than pipeline stages: at least one stage would be empty.
    TooFewLayers {
        /// Transformer layers in the model.
        layers: usize,
        /// Requested pipeline stages.
        degree: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::ZeroDegree => write!(f, "parallel degree must be positive"),
            PlanError::ExpertParallelOnDense => {
                write!(f, "expert parallelism on a dense model")
            }
            PlanError::TooFewExperts { experts, degree } => {
                write!(f, "cannot spread {experts} experts across {degree} devices")
            }
            PlanError::TooFewLayers { layers, degree } => write!(
                f,
                "cannot split {layers} layers into {degree} pipeline stages"
            ),
        }
    }
}

impl Error for PlanError {}

/// Base sharding dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, ToJson, FromJson)]
pub enum ParallelMode {
    /// Megatron-style intra-layer sharding: every GEMM split across the
    /// group, two all-reduces per transformer layer.
    Tensor,
    /// Inter-layer staging: contiguous layer blocks per device,
    /// point-to-point activations between stages.
    Pipeline,
}

/// A complete placement description.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, ToJson, FromJson)]
pub struct ParallelPlan {
    pub mode: ParallelMode,
    /// Number of devices in the group.
    pub degree: usize,
    /// Distribute whole experts across the group instead of sharding each
    /// expert (vLLM `--enable-expert-parallel`).
    pub expert_parallel: bool,
}

impl ParallelPlan {
    /// Single device, no parallelism.
    pub fn single() -> Self {
        Self {
            mode: ParallelMode::Tensor,
            degree: 1,
            expert_parallel: false,
        }
    }

    /// Tensor parallelism of the given degree.
    pub fn tensor(degree: usize) -> Self {
        assert!(degree >= 1);
        Self {
            mode: ParallelMode::Tensor,
            degree,
            expert_parallel: false,
        }
    }

    /// Pipeline parallelism of the given degree.
    pub fn pipeline(degree: usize) -> Self {
        assert!(degree >= 1);
        Self {
            mode: ParallelMode::Pipeline,
            degree,
            expert_parallel: false,
        }
    }

    /// Enable expert parallelism on top of the base mode.
    pub fn with_expert_parallel(mut self) -> Self {
        self.expert_parallel = true;
        self
    }

    /// Human-readable label as used in Figure 13 ("TP4+EP", "PP2", ...).
    pub fn label(&self) -> String {
        let base = match self.mode {
            ParallelMode::Tensor => "TP",
            ParallelMode::Pipeline => "PP",
        };
        if self.expert_parallel {
            format!("{base}{}+EP", self.degree)
        } else {
            format!("{base}{}", self.degree)
        }
    }

    /// Validate the plan against a model; returns every violated invariant
    /// as a typed [`PlanError`] (empty = valid).
    pub fn validate(&self, config: &ModelConfig) -> Vec<PlanError> {
        let mut problems = Vec::new();
        if self.degree == 0 {
            problems.push(PlanError::ZeroDegree);
        }
        if self.expert_parallel {
            match &config.moe {
                None => problems.push(PlanError::ExpertParallelOnDense),
                Some(moe) => {
                    if moe.num_experts < self.degree {
                        problems.push(PlanError::TooFewExperts {
                            experts: moe.num_experts,
                            degree: self.degree,
                        });
                    }
                }
            }
        }
        if self.mode == ParallelMode::Pipeline && config.num_layers < self.degree {
            problems.push(PlanError::TooFewLayers {
                layers: config.num_layers,
                degree: self.degree,
            });
        }
        problems
    }

    /// The four placements evaluated in Figure 13 at a given degree.
    pub fn fig13_plans(degree: usize) -> Vec<ParallelPlan> {
        vec![
            ParallelPlan::tensor(degree),
            ParallelPlan::tensor(degree).with_expert_parallel(),
            ParallelPlan::pipeline(degree).with_expert_parallel(),
            ParallelPlan::pipeline(degree),
        ]
    }
}

/// Ring all-reduce time for `bytes` per device across `devices`.
pub fn allreduce_time(link: &Interconnect, devices: usize, bytes: f64) -> f64 {
    if devices <= 1 {
        return 0.0;
    }
    let g = devices as f64;
    2.0 * (g - 1.0) / g * bytes / link.bandwidth + 2.0 * (g - 1.0) * link.latency
}

/// All-to-all time for `bytes` total shuffled per device (MoE expert
/// dispatch/combine).
pub fn all_to_all_time(link: &Interconnect, devices: usize, bytes: f64) -> f64 {
    if devices <= 1 {
        return 0.0;
    }
    let g = devices as f64;
    (g - 1.0) / g * bytes / link.bandwidth + (g - 1.0) * link.latency
}

/// Point-to-point transfer time between adjacent pipeline stages.
pub fn p2p_time(link: &Interconnect, bytes: f64) -> f64 {
    bytes / link.bandwidth + link.latency
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_model::registry::{mixtral_8x7b, qwen3_1_7b};

    #[test]
    fn labels_match_fig13() {
        assert_eq!(ParallelPlan::tensor(4).label(), "TP4");
        assert_eq!(
            ParallelPlan::tensor(2).with_expert_parallel().label(),
            "TP2+EP"
        );
        assert_eq!(ParallelPlan::pipeline(4).label(), "PP4");
        assert_eq!(
            ParallelPlan::pipeline(4).with_expert_parallel().label(),
            "PP4+EP"
        );
    }

    #[test]
    fn fig13_has_four_placements() {
        let plans = ParallelPlan::fig13_plans(4);
        assert_eq!(plans.len(), 4);
        let labels: Vec<String> = plans.iter().map(|p| p.label()).collect();
        assert!(labels.contains(&"TP4".to_string()));
        assert!(labels.contains(&"PP4+EP".to_string()));
    }

    #[test]
    fn ep_on_dense_model_invalid() {
        let plan = ParallelPlan::tensor(2).with_expert_parallel();
        assert!(!plan.validate(&qwen3_1_7b()).is_empty());
        assert!(plan.validate(&mixtral_8x7b()).is_empty());
    }

    #[test]
    fn ep_needs_enough_experts() {
        let plan = ParallelPlan::tensor(16).with_expert_parallel();
        // Mixtral has 8 experts; 16-way EP impossible.
        assert_eq!(
            plan.validate(&mixtral_8x7b()),
            vec![PlanError::TooFewExperts {
                experts: 8,
                degree: 16
            }]
        );
    }

    #[test]
    fn validate_reports_typed_kinds() {
        let errs = ParallelPlan::pipeline(64)
            .with_expert_parallel()
            .validate(&qwen3_1_7b());
        assert!(errs.contains(&PlanError::ExpertParallelOnDense));
        assert!(errs.contains(&PlanError::TooFewLayers {
            layers: qwen3_1_7b().num_layers,
            degree: 64
        }));
        let mut zero = ParallelPlan::single();
        zero.degree = 0;
        assert_eq!(zero.validate(&mixtral_8x7b()), vec![PlanError::ZeroDegree]);
    }

    #[test]
    fn plan_errors_render_stable_messages() {
        let plan = ParallelPlan::tensor(16).with_expert_parallel();
        let errs = plan.validate(&mixtral_8x7b());
        assert_eq!(
            errs,
            vec![PlanError::TooFewExperts {
                experts: 8,
                degree: 16
            }]
        );
        assert_eq!(
            errs[0].to_string(),
            "cannot spread 8 experts across 16 devices"
        );
        // PlanError is a real std error.
        let _: &dyn std::error::Error = &errs[0];
    }

    #[test]
    fn pipeline_needs_enough_layers() {
        let plan = ParallelPlan::pipeline(64);
        assert!(!plan.validate(&mixtral_8x7b()).is_empty());
        assert!(ParallelPlan::pipeline(4)
            .validate(&mixtral_8x7b())
            .is_empty());
    }

    #[test]
    fn single_device_collectives_free() {
        let link = Interconnect::nvlink4();
        assert_eq!(allreduce_time(&link, 1, 1e9), 0.0);
        assert_eq!(all_to_all_time(&link, 1, 1e9), 0.0);
    }

    #[test]
    fn collectives_scale_with_bytes_and_latency_floor() {
        let link = Interconnect::nvlink4();
        let tiny = allreduce_time(&link, 4, 8.0);
        // Latency floor: 2*(G-1)*lat = 18 us.
        assert!((tiny - 2.0 * 3.0 * link.latency).abs() / tiny < 0.01);
        let big = allreduce_time(&link, 4, 10e9);
        assert!(big > 100.0 * tiny);
    }

    #[test]
    fn slower_fabric_costs_more() {
        let nv = allreduce_time(&Interconnect::nvlink4(), 4, 1e9);
        let pcie = allreduce_time(&Interconnect::pcie_gen5(), 4, 1e9);
        assert!(pcie > 5.0 * nv);
    }
}
