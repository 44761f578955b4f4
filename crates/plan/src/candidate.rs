//! Candidate deployment configurations and their deterministic
//! enumeration.
//!
//! The grid factors into *shapes* — the expensive-to-bound outer
//! dimensions (parallel plan, replica count, precision) — and knob
//! *completions* (pruning ratio, speculative decode, max batched
//! tokens). Beam search bounds whole shapes; exhaustive search expands
//! everything. All enumeration orders are sorted by [`order_key`] so the
//! two modes visit candidates identically and reports replay
//! byte-identically.

use moe_gpusim::parallel::{ParallelMode, ParallelPlan};
use moe_gpusim::residency::ExpertResidency;
use moe_json::{FromJson, ToJson};
use moe_model::ModelConfig;
use moe_tensor::Precision;

use crate::spec::{FleetSpec, SearchSpace};

/// One fully specified deployment configuration.
#[derive(Debug, Clone, Copy, PartialEq, ToJson, FromJson)]
pub struct CandidateConfig {
    /// Device placement inside one replica.
    pub plan: ParallelPlan,
    /// Identical replicas behind the router.
    pub replicas: usize,
    /// Weight precision.
    pub precision: Precision,
    /// Inter-expert pruning ratio (0.0 = unpruned).
    pub prune_ratio: f64,
    /// Speculative decoding on/off.
    pub spec_decode: bool,
    /// Max batched tokens per engine step (chunked-prefill budget).
    pub max_batch_tokens: usize,
    /// Expert residency across the HBM budget (all-resident = the classic
    /// no-offload deployment; offloaded turns OOM into a cost cliff).
    pub residency: ExpertResidency,
}

impl CandidateConfig {
    /// Devices the deployment holds: replicas x plan degree.
    pub fn devices(&self) -> usize {
        self.replicas * self.plan.degree
    }

    /// Stable human-readable label, e.g. `2x TP2+EP fp8 prune25% mbt8192`.
    pub fn label(&self) -> String {
        let mut s = format!(
            "{}x {} {}",
            self.replicas,
            self.plan.label(),
            self.precision.label()
        );
        if self.prune_ratio > 0.0 {
            s.push_str(&format!(" prune{}%", prune_pct(self.prune_ratio)));
        }
        if self.spec_decode {
            s.push_str(" spec");
        }
        s.push_str(&format!(" mbt{}", self.max_batch_tokens));
        if self.residency.resident_frac < 1.0 {
            s.push_str(&format!(" hbm{}%", prune_pct(self.residency.resident_frac)));
        }
        s
    }
}

/// Pruning ratio as an integer percent for labels (banker-free floor of
/// `ratio * 100 + 0.5`; ratios are planner inputs in [0, 1)).
fn prune_pct(ratio: f64) -> u32 {
    (ratio * 100.0 + 0.5) as u32 // lint:allow(no-lossy-float-cast) -- display-only percent from a validated [0,1) ratio
}

/// A candidate's position in the total enumeration order: see
/// [`order_key`].
pub type OrderKey = (
    usize,
    usize,
    u8,
    u8,
    usize,
    u8,
    u64,
    u8,
    usize,
    (u64, u64, u64),
);

/// Total order over candidates used for every enumeration and tie-break:
/// devices, then degree, mode, EP flag, replicas, precision, prune,
/// spec-decode, batch budget, residency (all-resident first).
/// Deterministic and independent of scoring.
pub fn order_key(c: &CandidateConfig) -> OrderKey {
    (
        c.devices(),
        c.plan.degree,
        match c.plan.mode {
            ParallelMode::Tensor => 0,
            ParallelMode::Pipeline => 1,
        },
        u8::from(c.plan.expert_parallel),
        c.replicas,
        precision_rank(c.precision),
        // f64 in a sort key: ratios are finite in [0, 1) by spec
        // validation, so the bit pattern is monotone in the value.
        c.prune_ratio.to_bits(),
        u8::from(c.spec_decode),
        c.max_batch_tokens,
        residency_rank(&c.residency),
    )
}

/// Stable rank for residencies: more resident sorts first, so the classic
/// all-resident deployment leads every enumeration. The complements are
/// finite non-negative f64s, so their bit patterns are monotone.
fn residency_rank(r: &ExpertResidency) -> (u64, u64, u64) {
    (
        (1.0 - r.resident_frac).to_bits(),
        (1.0 - r.residency_hit).to_bits(),
        (1.0 - r.predictor_hit).to_bits(),
    )
}

/// Stable rank for precisions (narrower = later, so fp16 sorts first).
fn precision_rank(p: Precision) -> u8 {
    match p {
        Precision::F32 => 0,
        Precision::F16 => 1,
        Precision::Bf16 => 2,
        Precision::Fp8E4M3 => 3,
        Precision::Int8 => 4,
        Precision::Int4 => 5,
    }
}

/// A deployment shape: the outer search dimensions that beam search
/// bounds as a unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Device placement inside one replica.
    pub plan: ParallelPlan,
    /// Identical replicas behind the router.
    pub replicas: usize,
    /// Weight precision.
    pub precision: Precision,
}

impl Shape {
    /// The candidate obtained by fixing this shape's knobs.
    pub fn complete(
        &self,
        prune_ratio: f64,
        spec_decode: bool,
        max_batch_tokens: usize,
        residency: ExpertResidency,
    ) -> CandidateConfig {
        CandidateConfig {
            plan: self.plan,
            replicas: self.replicas,
            precision: self.precision,
            prune_ratio,
            spec_decode,
            max_batch_tokens,
            residency,
        }
    }
}

/// Knob lists a shape expands over, pre-collapsed for the model at hand
/// (dense models take no pruning; no draft model means no spec decode).
#[derive(Debug, Clone, PartialEq)]
pub struct Completions {
    /// Inter-expert pruning ratios, ascending.
    pub prune_ratios: Vec<f64>,
    /// Speculative-decode options, `false` first.
    pub spec_decode: Vec<bool>,
    /// Max-batched-token budgets, ascending.
    pub max_batch_tokens: Vec<usize>,
    /// Expert residencies, most-resident first (all-resident leads).
    pub residencies: Vec<ExpertResidency>,
}

impl Completions {
    /// Collapse the space's knob lists against the model: deduplicate,
    /// sort, and drop dimensions the model cannot use.
    pub fn for_model(space: &SearchSpace, model: &ModelConfig, has_draft: bool) -> Self {
        let mut prune: Vec<f64> = if model.moe.is_some() {
            space.prune_ratios.clone()
        } else {
            vec![0.0]
        };
        prune.sort_by(f64::total_cmp);
        prune.dedup();
        let mut spec: Vec<bool> = if has_draft {
            space.spec_decode.clone()
        } else {
            vec![false]
        };
        spec.sort_unstable();
        spec.dedup();
        let mut mbt = space.max_batch_tokens.clone();
        mbt.sort_unstable();
        mbt.dedup();
        // Expert offload only applies to routed experts: dense models
        // collapse to the all-resident identity.
        let mut residencies: Vec<ExpertResidency> = if model.moe.is_some() {
            space.residencies.clone()
        } else {
            vec![ExpertResidency::all_resident()]
        };
        residencies.sort_by_key(residency_rank);
        residencies.dedup();
        Self {
            prune_ratios: prune,
            spec_decode: spec,
            max_batch_tokens: mbt,
            residencies,
        }
    }

    /// Completions per shape.
    pub fn len(&self) -> usize {
        self.prune_ratios.len()
            * self.spec_decode.len()
            * self.max_batch_tokens.len()
            * self.residencies.len()
    }

    /// True when no knob has any value (cannot happen for checked specs).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All `(prune, spec, mbt, residency)` tuples in enumeration order.
    pub fn iter(&self) -> impl Iterator<Item = (f64, bool, usize, ExpertResidency)> + '_ {
        self.prune_ratios.iter().flat_map(move |&p| {
            self.spec_decode.iter().flat_map(move |&s| {
                self.max_batch_tokens
                    .iter()
                    .flat_map(move |&m| self.residencies.iter().map(move |&r| (p, s, m, r)))
            })
        })
    }
}

/// Enumerate every deployment shape that fits the fleet, sorted by
/// [`order_key`] of a representative candidate.
///
/// Degrees are powers of two up to the fleet size (the paper's 1–8 GPU
/// settings); replicas fill whatever multiple of the degree fits. Plans
/// per degree are the four Figure-13 placements (TP, TP+EP, PP+EP, PP) —
/// degree 1 collapses to the single-device plan.
pub fn enumerate_shapes(fleet: &FleetSpec, space: &SearchSpace) -> Vec<Shape> {
    let mut shapes = Vec::new();
    let mut degree = 1usize;
    while degree <= fleet.count() {
        let plans: Vec<ParallelPlan> = if degree == 1 {
            vec![ParallelPlan::single()]
        } else {
            ParallelPlan::fig13_plans(degree)
        };
        for plan in plans {
            for replicas in 1..=fleet.count() / degree {
                for &precision in &space.precisions {
                    shapes.push(Shape {
                        plan,
                        replicas,
                        precision,
                    });
                }
            }
        }
        degree *= 2;
    }
    shapes.sort_by_key(|s| order_key(&s.complete(0.0, false, 1, ExpertResidency::all_resident())));
    shapes.dedup();
    shapes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable_and_descriptive() {
        let c = CandidateConfig {
            plan: ParallelPlan::tensor(2).with_expert_parallel(),
            replicas: 2,
            precision: Precision::Fp8E4M3,
            prune_ratio: 0.25,
            spec_decode: true,
            max_batch_tokens: 8192,
            residency: ExpertResidency::all_resident(),
        };
        assert_eq!(c.label(), "2x TP2+EP fp8 prune25% spec mbt8192");
        assert_eq!(c.devices(), 4);
        let offloaded = CandidateConfig {
            residency: ExpertResidency::offloaded(0.5, 0.8, 0.7),
            ..c
        };
        assert_eq!(
            offloaded.label(),
            "2x TP2+EP fp8 prune25% spec mbt8192 hbm50%"
        );
        assert!(
            order_key(&c) < order_key(&offloaded),
            "all-resident sorts first"
        );
    }

    #[test]
    fn shapes_cover_fleet_and_sort_deterministically() {
        let space = SearchSpace::minimal();
        let shapes = enumerate_shapes(&FleetSpec::h100(4), &space);
        // Degrees 1, 2, 4; degree 1 has 4 replica counts, degree 2 has 4
        // plans x 2 replica counts, degree 4 has 4 plans x 1; times two
        // precisions.
        assert_eq!(shapes.len(), (4 + 4 * 2 + 4) * 2);
        let keys: Vec<_> = shapes
            .iter()
            .map(|s| order_key(&s.complete(0.0, false, 1, ExpertResidency::all_resident())))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        // Every shape fits the fleet.
        assert!(shapes.iter().all(|s| s.plan.degree * s.replicas <= 4));
    }

    #[test]
    fn completions_collapse_for_dense_models() {
        let mut space = SearchSpace::paper();
        space.spec_decode = vec![false, true];
        let moe = moe_model::registry::olmoe_1b_7b();
        let dense = moe_model::registry::qwen3_1_7b();
        let with_moe = Completions::for_model(&space, &moe, true);
        assert_eq!(with_moe.prune_ratios.len(), 3);
        assert_eq!(with_moe.spec_decode, vec![false, true]);
        let without = Completions::for_model(&space, &dense, false);
        assert_eq!(without.prune_ratios, vec![0.0]);
        assert_eq!(without.spec_decode, vec![false]);
        assert_eq!(without.len(), 2); // two batch budgets
    }

    #[test]
    fn residencies_collapse_for_dense_and_sort_most_resident_first() {
        let offload = ExpertResidency::offloaded(0.5, 0.8, 0.7);
        let space = SearchSpace {
            residencies: vec![offload, ExpertResidency::all_resident()],
            ..SearchSpace::minimal()
        };
        let moe = moe_model::registry::olmoe_1b_7b();
        let dense = moe_model::registry::qwen3_1_7b();
        let with_moe = Completions::for_model(&space, &moe, false);
        assert_eq!(
            with_moe.residencies,
            vec![ExpertResidency::all_resident(), offload]
        );
        let without = Completions::for_model(&space, &dense, false);
        assert_eq!(without.residencies, vec![ExpertResidency::all_resident()]);
    }
}
