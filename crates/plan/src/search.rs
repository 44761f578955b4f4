//! Grid traversal: exhaustive scoring, beam/branch-and-bound with
//! admissible bounds, and the Pareto frontier over (cost, accuracy,
//! throughput, inter-token latency).
//!
//! Latency is a frontier axis of its own because it is the one
//! dimension tensor parallelism buys (Figure 13): on (cost, accuracy,
//! throughput) alone every TP plan is dominated by replica or pipeline
//! placements, and an SLO-driven planner could never recommend the
//! paper's latency-optimal configs.
//!
//! ## Why beam ≡ exhaustive on the frontier
//!
//! Beam search bounds a whole *shape* (plan x replicas x precision) with
//! an optimistic completion: for every (prune, spec) knob pair it scores
//! the largest feasible batch budget — throughput is monotone in the
//! budget (a gpusim-pinned property), so this upper-bounds every
//! completion's throughput and lower-bounds its cost — plus the smallest
//! budget, whose operating batch lower-bounds the inter-token latency of
//! every completion. Accuracy takes the least-pruned completion. A shape
//! is skipped only when its optimistic bound is *strictly* dominated on
//! all four axes by an already-scored candidate, which proves every one
//! of its completions strictly dominated too — none of them could sit on
//! the exhaustive frontier. The `width` cap is the only lossy step; with
//! `width >=` the shape count the two modes emit byte-identical
//! frontiers, which `ext-plan` and the property tests pin.

use moe_json::{FromJson, ToJson};

use crate::candidate::{enumerate_shapes, order_key, CandidateConfig, Completions, Shape};
use crate::score::{score_candidate, CandidateScore, Infeasible, WorkloadSketch};
use crate::spec::{PlannerSpec, SearchMode};

/// Feasibility/pruning accounting for one search run.
#[derive(Debug, Clone, Copy, PartialEq, Default, ToJson, FromJson)]
pub struct SearchCounts {
    /// Deployment shapes enumerated.
    pub shapes: usize,
    /// Full grid size (shapes x knob completions).
    pub enumerated: usize,
    /// Candidates scored analytically.
    pub scored: usize,
    /// Candidates rejected by `ParallelPlan::validate`.
    pub infeasible_plan: usize,
    /// Candidates rejected by the memory model (the OOM wall).
    pub infeasible_oom: usize,
    /// Candidates skipped because their shape's admissible bound was
    /// strictly dominated (beam mode only).
    pub pruned_by_bound: usize,
    /// Candidates skipped by the beam-width cap (beam mode only; zero
    /// means the frontier provably matches exhaustive).
    pub pruned_by_width: usize,
}

/// Result of one grid traversal.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Every scored candidate, in enumeration order.
    pub scored: Vec<CandidateScore>,
    /// Pareto-optimal scored candidates, sorted by cost, then accuracy,
    /// throughput and enumeration key.
    pub frontier: Vec<CandidateScore>,
    /// Accounting.
    pub counts: SearchCounts,
}

/// `a` dominates `b`: no worse on every axis (cost down, accuracy up,
/// throughput up, inter-token latency down) and strictly better on at
/// least one.
fn dominates(a: &CandidateScore, b: &CandidateScore) -> bool {
    let no_worse = a.cost_per_token_device_s <= b.cost_per_token_device_s
        && a.accuracy >= b.accuracy
        && a.predicted_tok_s >= b.predicted_tok_s
        && a.predicted_itl_s <= b.predicted_itl_s;
    let strictly = a.cost_per_token_device_s < b.cost_per_token_device_s
        || a.accuracy > b.accuracy
        || a.predicted_tok_s > b.predicted_tok_s
        || a.predicted_itl_s < b.predicted_itl_s;
    no_worse && strictly
}

/// `a` strictly dominates `b` on *every* axis — the admissible pruning
/// test (safe against frontier ties).
fn strictly_dominates_bound(a: &CandidateScore, bound: &OptimisticBound) -> bool {
    a.cost_per_token_device_s < bound.cost_lb
        && a.accuracy > bound.accuracy_ub
        && a.predicted_tok_s > bound.tok_ub
        && a.predicted_itl_s < bound.itl_lb
}

/// Admissible optimistic bound for one shape.
struct OptimisticBound {
    cost_lb: f64,
    accuracy_ub: f64,
    tok_ub: f64,
    itl_lb: f64,
}

/// Non-dominated scored points, sorted by (cost asc, accuracy desc,
/// throughput desc, enumeration key) — a deterministic frontier whose
/// JSON is byte-stable across replays and search modes.
fn pareto_frontier(scored: &[CandidateScore]) -> Vec<CandidateScore> {
    let mut frontier: Vec<CandidateScore> = scored
        .iter()
        .filter(|c| !scored.iter().any(|other| dominates(other, c)))
        .cloned()
        .collect();
    frontier.sort_by(|a, b| {
        a.cost_per_token_device_s
            .total_cmp(&b.cost_per_token_device_s)
            .then(b.accuracy.total_cmp(&a.accuracy))
            .then(b.predicted_tok_s.total_cmp(&a.predicted_tok_s))
            .then(a.predicted_itl_s.total_cmp(&b.predicted_itl_s))
            .then(order_key(&a.config).cmp(&order_key(&b.config)))
    });
    frontier
}

/// Fold a parallel stage's per-shape count delta into the totals (the
/// grid-level `shapes`/`enumerated` fields are set once up front).
fn add_counts(into: &mut SearchCounts, delta: &SearchCounts) {
    into.scored += delta.scored;
    into.infeasible_plan += delta.infeasible_plan;
    into.infeasible_oom += delta.infeasible_oom;
    into.pruned_by_bound += delta.pruned_by_bound;
    into.pruned_by_width += delta.pruned_by_width;
}

fn tally(counts: &mut SearchCounts, err: &Infeasible) {
    match err {
        Infeasible::Plan(_) => counts.infeasible_plan += 1,
        Infeasible::Oom(_) => counts.infeasible_oom += 1,
        // Defensive bucket; enumerated candidates validate plans first.
        Infeasible::Engine(_) => counts.infeasible_plan += 1,
    }
}

/// Expand one shape over every knob completion, scoring each.
fn expand_shape(
    spec: &PlannerSpec,
    sketch: &WorkloadSketch,
    shape: &Shape,
    completions: &Completions,
    scored: &mut Vec<CandidateScore>,
    counts: &mut SearchCounts,
) {
    for (prune, spec_decode, mbt, residency) in completions.iter() {
        let candidate = shape.complete(prune, spec_decode, mbt, residency);
        match score_candidate(spec, sketch, &candidate) {
            Ok(score) => {
                counts.scored += 1;
                scored.push(score);
            }
            Err(err) => tally(counts, &err),
        }
    }
}

/// Optimistic completion bound for a shape: per (prune, spec) pair score
/// the largest batch budget that fits (descending scan — bounds
/// throughput and cost) plus the smallest budget (feasible whenever any
/// budget is, since memory grows with the operating batch — bounds the
/// inter-token latency), then combine the best observed axes. `None`
/// when every probe is infeasible — the whole shape is then counted
/// infeasible without expansion.
fn shape_bound(
    spec: &PlannerSpec,
    sketch: &WorkloadSketch,
    shape: &Shape,
    completions: &Completions,
    counts: &mut SearchCounts,
) -> Option<OptimisticBound> {
    let mut best: Option<OptimisticBound> = None;
    for &residency in &completions.residencies {
        for &prune in &completions.prune_ratios {
            for &spec_decode in &completions.spec_decode {
                let mut probed = None;
                // Descending budgets: the largest feasible batch
                // upper-bounds the throughput of every smaller budget.
                for &mbt in completions.max_batch_tokens.iter().rev() {
                    let candidate = shape.complete(prune, spec_decode, mbt, residency);
                    match score_candidate(spec, sketch, &candidate) {
                        Ok(score) => {
                            probed = Some(score);
                            break;
                        }
                        Err(Infeasible::Oom(_)) => continue,
                        Err(_) => break, // plan errors hold for every budget
                    }
                }
                let Some(score) = probed else { continue };
                // The smallest budget runs the smallest operating batch
                // and therefore the lowest per-step latency of any
                // completion.
                let itl_lb = completions
                    .max_batch_tokens
                    .first()
                    .and_then(|&mbt| {
                        score_candidate(
                            spec,
                            sketch,
                            &shape.complete(prune, spec_decode, mbt, residency),
                        )
                        .ok()
                    })
                    .map_or(score.predicted_itl_s, |s| {
                        s.predicted_itl_s.min(score.predicted_itl_s)
                    });
                let b = best.get_or_insert(OptimisticBound {
                    cost_lb: f64::MAX,
                    accuracy_ub: 0.0,
                    tok_ub: 0.0,
                    itl_lb: f64::MAX,
                });
                b.cost_lb = b.cost_lb.min(score.cost_per_token_device_s);
                b.accuracy_ub = b.accuracy_ub.max(score.accuracy);
                b.tok_ub = b.tok_ub.max(score.predicted_tok_s);
                b.itl_lb = b.itl_lb.min(itl_lb);
            }
        }
    }
    if best.is_none() {
        // Every probe failed: the shape cannot host the workload at any
        // budget. Attribute the whole expansion to the dominant cause by
        // re-probing the cheapest completion once (most-offloaded
        // residency — the one with the best chance of fitting).
        let candidate = shape.complete(
            *completions.prune_ratios.last().unwrap_or(&0.0),
            false,
            *completions.max_batch_tokens.first().unwrap_or(&1),
            completions.residencies.last().copied().unwrap_or_default(),
        );
        match score_candidate(spec, sketch, &candidate) {
            Err(Infeasible::Plan(_)) | Err(Infeasible::Engine(_)) => {
                counts.infeasible_plan += completions.len();
            }
            _ => counts.infeasible_oom += completions.len(),
        }
    }
    best
}

/// Traverse the grid in the requested mode.
pub fn search(spec: &PlannerSpec, sketch: &WorkloadSketch) -> SearchOutcome {
    traverse(
        spec,
        sketch,
        enumerate_shapes(&spec.fleet, &spec.space),
        None,
    )
}

/// The one grid traversal behind [`search`] and [`warm_search`]: every
/// shape in `shapes` times every knob completion, in `spec.mode`. A
/// `warm` shape found in `shapes` expands first and unconditionally —
/// never probed, exempt from the beam-width cap — so its scores seed the
/// dominance pruning of every other shape.
fn traverse(
    spec: &PlannerSpec,
    sketch: &WorkloadSketch,
    shapes: Vec<Shape>,
    warm: Option<Shape>,
) -> SearchOutcome {
    let completions = Completions::for_model(&spec.space, &spec.model, spec.draft.is_some());
    let mut counts = SearchCounts {
        shapes: shapes.len(),
        enumerated: shapes.len() * completions.len(),
        ..SearchCounts::default()
    };
    let mut scored: Vec<CandidateScore> = Vec::new();
    let warm_idx = warm.and_then(|w| shapes.iter().position(|s| *s == w));
    if let Some(i) = warm_idx {
        expand_shape(
            spec,
            sketch,
            &shapes[i],
            &completions,
            &mut scored,
            &mut counts,
        );
    }
    let cold = |i: usize| Some(i) != warm_idx;

    match spec.mode {
        SearchMode::Exhaustive => {
            // Shapes expand independently on the work-stealing pool;
            // per-shape results and count deltas merge back in
            // enumeration order, so the scored list and accounting are
            // identical to the serial loop's for any worker count.
            let expanded = moe_par::map_collect(shapes.len(), |i| {
                let mut part = Vec::new();
                let mut delta = SearchCounts::default();
                if cold(i) {
                    expand_shape(
                        spec,
                        sketch,
                        &shapes[i],
                        &completions,
                        &mut part,
                        &mut delta,
                    );
                }
                (part, delta)
            });
            for (part, delta) in expanded {
                scored.extend(part);
                add_counts(&mut counts, &delta);
            }
        }
        SearchMode::Beam { width } => {
            // Bound every cold shape (independent probes, parallel), then
            // keep the `width` most promising by optimistic cost (ties:
            // accuracy, throughput, order key). The expansion phase
            // below stays serial: its dominance pruning is
            // order-dependent by design.
            let probes = moe_par::map_collect(shapes.len(), |i| {
                let mut delta = SearchCounts::default();
                let bound = if cold(i) {
                    shape_bound(spec, sketch, &shapes[i], &completions, &mut delta)
                } else {
                    None
                };
                (bound, delta)
            });
            let mut bounded: Vec<(usize, OptimisticBound)> = Vec::new();
            for (i, (bound, delta)) in probes.into_iter().enumerate() {
                add_counts(&mut counts, &delta);
                if let Some(b) = bound {
                    bounded.push((i, b));
                }
            }
            bounded.sort_by(|(ia, a), (ib, b)| {
                a.cost_lb
                    .total_cmp(&b.cost_lb)
                    .then(b.accuracy_ub.total_cmp(&a.accuracy_ub))
                    .then(b.tok_ub.total_cmp(&a.tok_ub))
                    .then(ia.cmp(ib))
            });
            if bounded.len() > width {
                counts.pruned_by_width += (bounded.len() - width) * completions.len();
                bounded.truncate(width);
            }
            // Expand survivors in enumeration order, skipping any shape
            // whose bound a scored candidate strictly dominates.
            bounded.sort_by_key(|(i, _)| *i);
            for (i, bound) in &bounded {
                if scored.iter().any(|s| strictly_dominates_bound(s, bound)) {
                    counts.pruned_by_bound += completions.len();
                    continue;
                }
                expand_shape(
                    spec,
                    sketch,
                    &shapes[*i],
                    &completions,
                    &mut scored,
                    &mut counts,
                );
            }
        }
    }

    let frontier = pareto_frontier(&scored);
    SearchOutcome {
        scored,
        frontier,
        counts,
    }
}

/// Which reconfigurations are *reachable* from an incumbent deployment
/// in one control-plane step. An online controller cannot jump to an
/// arbitrary point of the config space — replicas are added or drained
/// a few at a time, and plan/precision changes mean provisioning a new
/// replica generation — so the incremental re-planner restricts the
/// grid to this neighborhood before searching it.
#[derive(Debug, Clone, Copy, PartialEq, ToJson, FromJson)]
pub struct ReachableSpace {
    /// Largest replica-count change considered (`|candidate - incumbent|`).
    pub max_replica_delta: usize,
    /// May the per-replica parallel plan (TP/EP/PP layout) change?
    /// Requires rolling new replicas, so controllers canary it.
    pub allow_plan_change: bool,
    /// May the weight precision change? Also a rolling change.
    pub allow_precision_change: bool,
}

impl ReachableSpace {
    /// Everything within a replica delta, rolling changes included.
    pub fn rolling(max_replica_delta: usize) -> Self {
        Self {
            max_replica_delta,
            allow_plan_change: true,
            allow_precision_change: true,
        }
    }

    /// Is `shape` reachable from `incumbent` under this space?
    fn admits(&self, shape: &Shape, incumbent: &CandidateConfig) -> bool {
        shape.replicas.abs_diff(incumbent.replicas) <= self.max_replica_delta
            && (self.allow_plan_change || shape.plan == incumbent.plan)
            && (self.allow_precision_change || shape.precision == incumbent.precision)
    }
}

/// Filter the full shape enumeration down to the reachable neighborhood
/// of `incumbent` (enumeration order preserved).
fn reachable_shapes(
    spec: &PlannerSpec,
    incumbent: &CandidateConfig,
    reach: &ReachableSpace,
) -> Vec<Shape> {
    enumerate_shapes(&spec.fleet, &spec.space)
        .into_iter()
        .filter(|s| reach.admits(s, incumbent))
        .collect()
}

/// Incremental re-plan: search only the reachable neighborhood of the
/// incumbent config, *warm-started* from the incumbent's shape.
///
/// The incumbent shape expands first, unconditionally — it is exempt
/// from the beam-width cap (the controller can always keep what it is
/// already running) and its scores seed the dominance pruning, so in
/// beam mode every other shape must beat the incumbent's optimistic
/// bound to be expanded at all. With the same mode and a width covering
/// the neighborhood, the frontier equals a cold [`search`] over the
/// restricted grid — the warm start changes *work*, never the answer
/// (`pruned_by_width == 0` certifies it, exactly as for cold beam).
pub fn warm_search(
    spec: &PlannerSpec,
    sketch: &WorkloadSketch,
    incumbent: &CandidateConfig,
    reach: &ReachableSpace,
) -> SearchOutcome {
    let incumbent_shape = Shape {
        plan: incumbent.plan,
        replicas: incumbent.replicas,
        precision: incumbent.precision,
    };
    traverse(
        spec,
        sketch,
        reachable_shapes(spec, incumbent, reach),
        Some(incumbent_shape),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::CandidateConfig;
    use moe_gpusim::parallel::ParallelPlan;
    use moe_tensor::Precision;

    fn score(cost: f64, acc: f64, tok: f64) -> CandidateScore {
        let config = CandidateConfig {
            plan: ParallelPlan::single(),
            replicas: 1,
            precision: Precision::F16,
            prune_ratio: 0.0,
            spec_decode: false,
            max_batch_tokens: moe_gpusim::convert::f64_to_count(tok * 1000.0), // distinct order keys
            residency: moe_gpusim::ExpertResidency::all_resident(),
        };
        CandidateScore {
            config,
            label: config.label(),
            devices: 1,
            operating_batch: 1,
            predicted_tok_s: tok,
            predicted_ttft_s: 0.1,
            predicted_itl_s: 0.01,
            cost_per_token_device_s: cost,
            accuracy: acc,
            utilization: 0.5,
            meets_slo: true,
        }
    }

    #[test]
    fn frontier_drops_dominated_points_keeps_ties() {
        let a = score(1.0, 0.7, 100.0);
        let b = score(2.0, 0.6, 90.0); // dominated by a
        let c = score(0.5, 0.5, 50.0); // cheaper, less accurate: kept
        let d = score(1.0, 0.7, 100.0); // tie with a: kept
        let f = pareto_frontier(&[a.clone(), b, c.clone(), d.clone()]);
        assert_eq!(f.len(), 3);
        assert_eq!(f[0].cost_per_token_device_s, 0.5);
        assert!(f.contains(&a) && f.contains(&d) && f.contains(&c));
    }

    #[test]
    fn dominance_requires_one_strict_axis() {
        let a = score(1.0, 0.7, 100.0);
        let b = score(1.0, 0.7, 100.0);
        assert!(!dominates(&a, &b));
        let better = score(1.0, 0.7, 101.0);
        assert!(dominates(&better, &a));
    }

    use crate::spec::{FleetSpec, SearchSpace, SloSpec};
    use moe_cluster::{TenantSpec, WorkloadSpec};

    fn planner_spec(mode: SearchMode) -> crate::spec::PlannerSpec {
        crate::spec::PlannerSpec {
            model: moe_model::registry::olmoe_1b_7b(),
            draft: None,
            fleet: FleetSpec::h100(4),
            workload: WorkloadSpec::poisson(
                40.0,
                64,
                TenantSpec::uniform("t", 1.0, (128, 256), (16, 64)),
            ),
            slo: SloSpec::latency(1.0, 0.05),
            space: SearchSpace::minimal(),
            mode,
            refine_top_k: 1,
            seed: 5,
        }
    }

    fn sketch() -> WorkloadSketch {
        WorkloadSketch {
            offered_qps: 40.0,
            mean_input: 192,
            mean_output: 40,
            max_seq: 2048,
        }
    }

    /// Some feasible incumbent to warm from: the cold frontier's first.
    fn incumbent(spec: &crate::spec::PlannerSpec) -> CandidateConfig {
        search(spec, &sketch()).frontier[0].config
    }

    #[test]
    fn unrestricted_warm_search_matches_cold_search() {
        let spec = planner_spec(SearchMode::Exhaustive);
        let inc = incumbent(&spec);
        let cold = search(&spec, &sketch());
        let warm = warm_search(&spec, &sketch(), &inc, &ReachableSpace::rolling(usize::MAX));
        assert_eq!(
            warm.frontier, cold.frontier,
            "an unrestricted warm start changes work, never the answer"
        );
        assert_eq!(warm.counts.scored, cold.counts.scored);
    }

    #[test]
    fn scaling_only_reach_pins_plan_and_precision() {
        let spec = planner_spec(SearchMode::Exhaustive);
        let inc = incumbent(&spec);
        let scaling_only = ReachableSpace {
            max_replica_delta: 1,
            allow_plan_change: false,
            allow_precision_change: false,
        };
        let shapes = reachable_shapes(&spec, &inc, &scaling_only);
        assert!(!shapes.is_empty(), "the incumbent itself is reachable");
        for s in &shapes {
            assert_eq!(s.plan, inc.plan);
            assert_eq!(s.precision, inc.precision);
            assert!(s.replicas.abs_diff(inc.replicas) <= 1);
        }
        let out = warm_search(&spec, &sketch(), &inc, &scaling_only);
        assert!(out
            .frontier
            .iter()
            .all(|c| c.config.plan == inc.plan && c.config.precision == inc.precision));
    }

    #[test]
    fn warm_beam_with_covering_width_matches_warm_exhaustive() {
        let inc = incumbent(&planner_spec(SearchMode::Exhaustive));
        let reach = ReachableSpace::rolling(2);
        let ex = warm_search(
            &planner_spec(SearchMode::Exhaustive),
            &sketch(),
            &inc,
            &reach,
        );
        let beam = warm_search(
            &planner_spec(SearchMode::Beam { width: 1024 }),
            &sketch(),
            &inc,
            &reach,
        );
        assert_eq!(beam.counts.pruned_by_width, 0);
        assert_eq!(beam.frontier, ex.frontier);
        // The warm start did real pruning work: bound-pruned shapes are
        // never expanded, so beam scores at most what exhaustive does.
        assert!(beam.counts.scored <= ex.counts.scored);
    }
}
