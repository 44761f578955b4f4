//! Heterogeneous fleet planning: per-class feasibility and pricing, plus
//! blended mixed-fleet deployments with CAP cost axes.
//!
//! The classic planner ([`crate::plan`]) is single-pool by construction —
//! its `CandidateConfig` describes replicas of one device type, and its
//! reports are frozen byte-for-byte in `reports/`. [`plan_fleet`] layers
//! heterogeneity on top without touching that contract: each pool of a
//! mixed [`FleetSpec`] is planned independently
//! with the classic pipeline (so per-class feasibility and frontiers are
//! exactly what the homogeneous planner would say), then per-class
//! frontier picks are composed into *mixed deployments* whose traffic is
//! split proportionally to each class's throughput capacity.
//!
//! Blending is exact where it can be and conservative where it cannot:
//!
//! * capacities (`predicted_tok_s`) are load-independent in the analytic
//!   model, so they sum across classes;
//! * per-class TTFT is *de-inflated* back to the raw prefill estimate by
//!   inverting [`queueing_inflation`] at the class's solo utilization,
//!   then re-inflated at the blended utilization — the same M/D/1 factor
//!   the classic scorer applies;
//! * ITL and TTFT take the max across classes (a request lands on one
//!   class; the tail is the slowest class), accuracy the min;
//! * cost adds a USD axis: `usd_per_mtok` from per-device prices in the
//!   device zoo, the end-to-end MoE-CAP cost metric.

use moe_gpusim::cap;
use moe_json::ToJson;

use crate::candidate::order_key;
use crate::planner::{plan, PlanFailure, PlanReport};
use crate::score::{queueing_inflation, CandidateScore, WorkloadSketch, MAX_RHO};
use crate::spec::{FleetSpec, PlannerSpec};

/// Frontier picks per class considered for mixing. Small and fixed: with
/// `C` classes the composition space is `(MIXED_TOP_PER_CLASS + 1)^C - 1`.
pub const MIXED_TOP_PER_CLASS: usize = 3;

/// The classic planner's verdict on one device class of a mixed fleet.
#[derive(Debug, Clone, PartialEq, ToJson)]
pub struct ClassPlan {
    /// Device name (zoo profile name).
    pub device: String,
    /// Device-class label (`datacenter-gpu`, `edge-soc`, ...).
    pub class: String,
    /// Devices of this class in the fleet.
    pub count: usize,
    /// Indicative price of one device-hour (USD).
    pub usd_per_device_hour: f64,
    /// Whether the classic planner found any feasible candidate.
    pub feasible: bool,
    /// Failure label when infeasible (`""` when feasible).
    pub failure: String,
    /// The class-local Pareto frontier (empty when infeasible).
    pub frontier: Vec<CandidateScore>,
}

/// One class's contribution to a mixed deployment.
#[derive(Debug, Clone, PartialEq, ToJson)]
pub struct MixedPart {
    /// Device name the part runs on.
    pub device: String,
    /// Fraction of offered traffic routed to this part (capacity share).
    pub share: f64,
    /// Price of this part's devices (USD/hour, all devices of the part).
    pub usd_per_hour: f64,
    /// The class-local candidate backing the part.
    pub score: CandidateScore,
}

/// A blended mixed-fleet deployment: one frontier pick per participating
/// class, traffic split by capacity.
#[derive(Debug, Clone, PartialEq, ToJson)]
pub struct MixedScore {
    /// Device-prefixed parts joined with ` + `, e.g.
    /// `H100-SXM5-80GB[1x TP2 fp8 mbt32768] + RTX-4090-24GB[2x TP1 ...]`.
    pub label: String,
    /// Total devices held across classes.
    pub devices: usize,
    /// Blended fleet capacity (tokens/s).
    pub predicted_tok_s: f64,
    /// Worst-class TTFT re-inflated at the blended utilization (s).
    pub predicted_ttft_s: f64,
    /// Worst-class inter-token latency (s).
    pub predicted_itl_s: f64,
    /// Device-seconds per token at capacity (the classic CAP cost axis).
    pub cost_per_token_device_s: f64,
    /// USD per million tokens at capacity — the priced CAP cost axis.
    pub usd_per_mtok: f64,
    /// Worst-class accuracy proxy.
    pub accuracy: f64,
    /// Blended offered load over blended capacity (clamped to [0, 1]).
    pub utilization: f64,
    /// True when every SLO bound holds for the blend.
    pub meets_slo: bool,
    /// Per-class parts, in fleet pool order.
    pub parts: Vec<MixedPart>,
}

/// Mixed-fleet planning report: per-class feasibility/pricing plus the
/// blended Pareto frontier with CAP axes.
#[derive(Debug, Clone, PartialEq, ToJson)]
pub struct FleetPlanReport {
    /// Target model name.
    pub model: String,
    /// Fleet label, pools joined with ` + `.
    pub fleet: String,
    /// Total devices across pools.
    pub devices: usize,
    /// Search-mode label.
    pub mode: String,
    /// Master seed.
    pub seed: u64,
    /// Workload statistics (shared by every class plan).
    pub sketch: WorkloadSketch,
    /// Per-class verdicts, in fleet pool order.
    pub classes: Vec<ClassPlan>,
    /// Pareto-optimal mixed deployments, USD-cost-ascending.
    pub frontier: Vec<MixedScore>,
    /// The recommended blend (SLO-meeting, then cheapest in USD).
    pub recommended: MixedScore,
}

/// Deterministic total order over mixed deployments: the device *name*
/// joins each part's candidate enumeration key, so mixed frontiers are
/// byte-stable across worker counts regardless of which class finished
/// scoring first.
fn mixed_order_key(m: &MixedScore) -> Vec<(String, MixedPartKey)> {
    m.parts
        .iter()
        .map(|p| (p.device.clone(), order_key(&p.score.config)))
        .collect()
}

type MixedPartKey = (
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

/// `a` dominates `b` over the mixed CAP axes: USD cost and ITL minimized,
/// accuracy and throughput maximized.
fn dominates(a: &MixedScore, b: &MixedScore) -> bool {
    let no_worse = a.usd_per_mtok <= b.usd_per_mtok
        && a.accuracy >= b.accuracy
        && a.predicted_tok_s >= b.predicted_tok_s
        && a.predicted_itl_s <= b.predicted_itl_s;
    let better = a.usd_per_mtok < b.usd_per_mtok
        || a.accuracy > b.accuracy
        || a.predicted_tok_s > b.predicted_tok_s
        || a.predicted_itl_s < b.predicted_itl_s;
    no_worse && better
}

/// Blend one frontier pick per participating class into a mixed score.
fn blend(
    spec: &PlannerSpec,
    sketch: &WorkloadSketch,
    picks: &[(usize, &CandidateScore)],
) -> MixedScore {
    let offered = sketch.offered_tok_s();
    let total_capacity: f64 = picks.iter().map(|(_, s)| s.predicted_tok_s).sum();
    let rho = (offered / total_capacity.max(1e-12)).max(0.0);
    let rho_eff = rho.min(MAX_RHO);
    let inflation = queueing_inflation(rho_eff);

    let mut parts = Vec::with_capacity(picks.len());
    let mut devices = 0usize;
    let mut usd_per_hour = 0.0;
    let mut raw_ttft: f64 = 0.0;
    let mut itl: f64 = 0.0;
    let mut accuracy = f64::MAX;
    for &(pool_idx, score) in picks {
        let pool = &spec.fleet.pools[pool_idx];
        // Invert the solo inflation the classic scorer applied to this
        // class (same rho expression, same clamp, same factor).
        let solo_rho = (offered / score.predicted_tok_s.max(1e-12)).max(0.0);
        let solo_inflation = queueing_inflation(solo_rho.min(MAX_RHO));
        raw_ttft = raw_ttft.max(score.predicted_ttft_s / solo_inflation);
        itl = itl.max(score.predicted_itl_s);
        accuracy = accuracy.min(score.accuracy);
        devices += score.devices;
        let part_usd = score.devices as f64 * pool.device.power.price_per_hour_usd;
        usd_per_hour += part_usd;
        parts.push(MixedPart {
            device: pool.device.name.clone(),
            share: score.predicted_tok_s / total_capacity.max(1e-12),
            usd_per_hour: part_usd,
            score: score.clone(),
        });
    }

    let ttft = raw_ttft * inflation;
    let cost = devices as f64 / total_capacity.max(1e-12);
    let usd_per_mtok = cap::usd_per_mtok(usd_per_hour, total_capacity.max(1e-12));
    let meets_slo = rho < 1.0
        && ttft <= spec.slo.p99_ttft_s
        && itl <= spec.slo.p99_itl_s
        && cost <= spec.slo.max_cost_per_token_device_s
        && accuracy >= spec.slo.min_accuracy;
    let label = parts
        .iter()
        .map(|p| format!("{}[{}]", p.device, p.score.label))
        .collect::<Vec<_>>()
        .join(" + ");

    MixedScore {
        label,
        devices,
        predicted_tok_s: total_capacity,
        predicted_ttft_s: ttft,
        predicted_itl_s: itl,
        cost_per_token_device_s: cost,
        usd_per_mtok,
        accuracy,
        utilization: rho.min(1.0),
        meets_slo,
        parts,
    }
}

/// Rank for picking the per-class frontier candidates offered to the
/// mixer: SLO-meeting first, then cheapest, then enumeration order —
/// mirrors the classic refinement rank.
fn class_pick_rank(c: &CandidateScore) -> impl Ord {
    (
        u8::from(!c.meets_slo),
        c.cost_per_token_device_s.to_bits(),
        (1.0 - c.accuracy).to_bits(),
        order_key(&c.config),
    )
}

/// Recommendation order over blends: SLO-meeting first, then cheapest in
/// USD, then the deterministic mixed key.
fn recommendation_rank(m: &MixedScore) -> (u8, u64, Vec<(String, MixedPartKey)>) {
    (
        u8::from(!m.meets_slo),
        m.usd_per_mtok.to_bits(),
        mixed_order_key(m),
    )
}

/// Plan a (possibly mixed) fleet: run the classic planner per pool, then
/// compose per-class frontier picks into blended mixed deployments.
/// Uniform fleets work too — the blend frontier then contains the
/// single-class deployments.
pub fn plan_fleet(spec: &PlannerSpec) -> Result<FleetPlanReport, PlanFailure> {
    if spec.fleet.pools.is_empty() {
        return Err(PlanFailure::InvalidSpec("fleet has zero pools".into()));
    }
    for pool in &spec.fleet.pools {
        if pool.count == 0 {
            return Err(PlanFailure::InvalidSpec(format!(
                "pool {} has zero devices",
                pool.device.name
            )));
        }
    }

    // Classic plan per pool, sequentially in pool order (each plan
    // already fans out on the worker pool internally).
    let mut classes = Vec::with_capacity(spec.fleet.pools.len());
    let mut class_reports: Vec<Option<PlanReport>> = Vec::with_capacity(spec.fleet.pools.len());
    let mut sketch: Option<WorkloadSketch> = None;
    for pool in &spec.fleet.pools {
        let sub = PlannerSpec {
            fleet: FleetSpec {
                pools: vec![pool.clone()],
            },
            ..spec.clone()
        };
        let outcome = plan(&sub);
        let (feasible, failure, frontier, report) = match outcome {
            Ok(report) => {
                sketch.get_or_insert(report.sketch);
                (true, String::new(), report.frontier.clone(), Some(report))
            }
            Err(PlanFailure::NoFeasibleCandidate) => {
                (false, "no feasible candidate".to_string(), Vec::new(), None)
            }
            Err(e) => return Err(e),
        };
        classes.push(ClassPlan {
            device: pool.device.name.clone(),
            class: pool.device.class.label().to_string(),
            count: pool.count,
            usd_per_device_hour: pool.device.power.price_per_hour_usd,
            feasible,
            failure,
            frontier,
        });
        class_reports.push(report);
    }
    let sketch = sketch.ok_or(PlanFailure::NoFeasibleCandidate)?;

    // Per class: the top picks offered to the mixer.
    let mut class_picks: Vec<Vec<&CandidateScore>> = Vec::with_capacity(classes.len());
    for class in &classes {
        let mut picks: Vec<&CandidateScore> = class.frontier.iter().collect();
        picks.sort_by_key(|c| class_pick_rank(c));
        picks.truncate(MIXED_TOP_PER_CLASS);
        class_picks.push(picks);
    }

    // Enumerate every composition: per class either one of its picks or
    // absent; skip the all-absent composition. Deterministic nested
    // enumeration in pool order.
    let mut blends: Vec<MixedScore> = Vec::new();
    let mut cursor: Vec<usize> = vec![0; classes.len()]; // 0 = absent, i+1 = pick i
    loop {
        let picks: Vec<(usize, &CandidateScore)> = cursor
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(pool_idx, &c)| (pool_idx, class_picks[pool_idx][c - 1]))
            .collect();
        if !picks.is_empty() {
            blends.push(blend(spec, &sketch, &picks));
        }
        // Odometer increment over per-class option counts.
        let mut advanced = false;
        for (pool_idx, digit) in cursor.iter_mut().enumerate() {
            if *digit < class_picks[pool_idx].len() {
                *digit += 1;
                advanced = true;
                break;
            }
            *digit = 0;
        }
        if !advanced {
            break;
        }
    }
    if blends.is_empty() {
        return Err(PlanFailure::NoFeasibleCandidate);
    }

    // Pareto filter over the CAP axes, then USD-ascending deterministic
    // order.
    let mut frontier: Vec<MixedScore> = blends
        .iter()
        .filter(|m| !blends.iter().any(|other| dominates(other, m)))
        .cloned()
        .collect();
    frontier.sort_by_key(|m| (m.usd_per_mtok.to_bits(), mixed_order_key(m)));

    let recommended = frontier
        .iter()
        .min_by_key(|m| recommendation_rank(m))
        .cloned()
        .ok_or(PlanFailure::NoFeasibleCandidate)?;

    Ok(FleetPlanReport {
        model: spec.model.name.clone(),
        fleet: spec.fleet.label(),
        devices: spec.fleet.count(),
        mode: spec.mode.label(),
        seed: spec.seed,
        sketch,
        classes,
        frontier,
        recommended,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DevicePool, SearchMode, SearchSpace, SloSpec};
    use moe_cluster::{TenantSpec, WorkloadSpec};
    use moe_model::registry;

    fn mixed_spec() -> PlannerSpec {
        PlannerSpec {
            model: registry::olmoe_1b_7b(),
            draft: None,
            fleet: FleetSpec::mixed(vec![
                DevicePool::of("h100", 2).expect("zoo device"),
                DevicePool::of("4090", 4).expect("zoo device"),
            ]),
            workload: WorkloadSpec::poisson(
                2.0,
                40,
                TenantSpec::uniform("chat", 1.0, (128, 512), (32, 128)),
            ),
            slo: SloSpec::latency(2.0, 0.2),
            space: SearchSpace::minimal(),
            mode: SearchMode::Exhaustive,
            refine_top_k: 1,
            seed: 7,
        }
    }

    #[test]
    fn classic_plan_rejects_mixed_fleets() {
        let spec = mixed_spec();
        match crate::plan(&spec) {
            Err(PlanFailure::InvalidSpec(msg)) => assert!(msg.contains("plan_fleet"), "{msg}"),
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
    }

    #[test]
    fn mixed_fleet_plans_every_class_and_blends() {
        let report = plan_fleet(&mixed_spec()).expect("mixed plan succeeds");
        assert_eq!(report.classes.len(), 2);
        assert_eq!(report.classes[0].device, "H100-SXM5-80GB");
        assert_eq!(report.classes[1].device, "RTX-4090-24GB");
        assert!(report.classes.iter().all(|c| c.feasible));
        assert!(!report.frontier.is_empty());
        // At least one genuinely mixed deployment exists in the blends'
        // frontier or the single-class picks dominate — either way every
        // frontier label names its device(s).
        for m in &report.frontier {
            assert!(!m.parts.is_empty());
            for p in &m.parts {
                assert!(m.label.contains(&p.device), "{}", m.label);
            }
            let share: f64 = m.parts.iter().map(|p| p.share).sum();
            assert!((share - 1.0).abs() < 1e-9);
            assert!(m.usd_per_mtok > 0.0);
        }
        assert_eq!(report.fleet, "2x H100-SXM5-80GB + 4x RTX-4090-24GB");
        assert_eq!(report.devices, 6);
    }

    #[test]
    fn uniform_fleet_blends_to_single_class_deployments() {
        let mut spec = mixed_spec();
        spec.fleet = FleetSpec::h100(2);
        let report = plan_fleet(&spec).expect("uniform plan succeeds");
        assert_eq!(report.classes.len(), 1);
        for m in &report.frontier {
            assert_eq!(m.parts.len(), 1);
            assert!((m.parts[0].share - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn infeasible_class_is_reported_not_fatal() {
        let mut spec = mixed_spec();
        // Mixtral fp16 (94 GB of weights) cannot fit a single 24 GB 4090,
        // but still fits the H100 pool at TP2.
        spec.model = registry::mixtral_8x7b();
        spec.fleet = FleetSpec::mixed(vec![
            DevicePool::of("h100", 2).expect("zoo device"),
            DevicePool::of("4090", 1).expect("zoo device"),
        ]);
        let report = plan_fleet(&spec).expect("H100 class keeps the fleet feasible");
        assert!(report.classes[0].feasible);
        assert!(!report.classes[1].feasible);
        assert_eq!(report.classes[1].failure, "no feasible candidate");
        // Every blend runs on the feasible class only.
        for m in &report.frontier {
            assert!(m.parts.iter().all(|p| p.device == "H100-SXM5-80GB"));
        }
    }

    #[test]
    fn blended_metrics_are_conservative_composites() {
        let report = plan_fleet(&mixed_spec()).expect("mixed plan succeeds");
        for m in &report.frontier {
            let cap_sum: f64 = m.parts.iter().map(|p| p.score.predicted_tok_s).sum();
            assert!((m.predicted_tok_s - cap_sum).abs() < 1e-9 * cap_sum.max(1.0));
            let worst_itl = m
                .parts
                .iter()
                .map(|p| p.score.predicted_itl_s)
                .fold(0.0, f64::max);
            assert_eq!(m.predicted_itl_s, worst_itl);
            let min_acc = m
                .parts
                .iter()
                .map(|p| p.score.accuracy)
                .fold(f64::MAX, f64::min);
            assert_eq!(m.accuracy, min_acc);
        }
    }
}
