//! Expert-placement optimization for expert parallelism.
//!
//! EP performance is gated by the most-loaded device. Contiguous
//! placement (experts 0..E/G on device 0, ...) is what naive EP does; when
//! activation frequencies are skewed (Fig. 15's MolmoE), hot experts
//! cluster and one device becomes the bottleneck. Longest-processing-time
//! (LPT) greedy placement assigns experts in descending load order to the
//! least-loaded device — the classic 4/3-approximation for makespan — and
//! is what load-aware serving systems implement.

use moe_json::{FromJson, ToJson};

/// An assignment of experts to devices: `placement[d]` lists the expert
/// indices on device `d`.
pub type Placement = Vec<Vec<usize>>;

/// Naive contiguous placement: equal-sized consecutive ranges.
pub fn contiguous_placement(num_experts: usize, devices: usize) -> Placement {
    assert!(devices >= 1);
    let per = num_experts.div_ceil(devices);
    (0..devices)
        .map(|d| (d * per..((d + 1) * per).min(num_experts)).collect())
        .collect()
}

/// Greedy LPT placement by observed expert loads.
pub fn lpt_placement(loads: &[u64], devices: usize) -> Placement {
    assert!(devices >= 1);
    let mut order: Vec<usize> = (0..loads.len()).collect();
    order.sort_by(|&a, &b| loads[b].cmp(&loads[a]).then(a.cmp(&b)));
    let mut placement: Placement = vec![Vec::new(); devices];
    let mut device_load = vec![0u64; devices];
    for e in order {
        let d = device_load
            .iter()
            .enumerate()
            .min_by_key(|(_, &l)| l)
            .map(|(d, _)| d)
            .unwrap_or(0);
        placement[d].push(e);
        device_load[d] += loads[e];
    }
    placement
}

/// Per-device total loads under a placement.
fn device_loads(placement: &Placement, loads: &[u64]) -> Vec<u64> {
    placement
        .iter()
        .map(|experts| experts.iter().map(|&e| loads[e]).sum())
        .collect()
}

/// Max/mean device-load ratio (1.0 = perfectly balanced). This is the
/// factor by which the busiest device gates an EP layer.
pub fn placement_imbalance(placement: &Placement, loads: &[u64]) -> f64 {
    let per_device = device_loads(placement, loads);
    let total: u64 = per_device.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / per_device.len() as f64;
    let max = per_device.iter().max().copied().unwrap_or(0) as f64;
    max / mean
}

/// Replication-aware placement: experts whose load exceeds the ideal
/// per-device share are split into up to `factor` copies (never more than
/// one copy per device), the copies are forced onto distinct devices, and
/// the per-copy loads are placed greedily LPT-style. Falls back to plain
/// [`lpt_placement`] whenever splitting does not strictly improve the
/// balance, so `factor = 1` reproduces LPT exactly and replication never
/// hurts. Replication is what fixes the skew LPT alone cannot: once a
/// single hot expert's load exceeds the makespan lower bound, no
/// unreplicated placement can balance it.
pub fn replicated_placement(loads: &[u64], devices: usize, factor: usize) -> Placement {
    assert!(devices >= 1);
    assert!(factor >= 1);
    let total: u64 = loads.iter().sum();
    let ideal = total as f64 / devices as f64;
    let max_copies = factor.min(devices);
    let copies: Vec<usize> = loads
        .iter()
        .map(|&l| {
            if total == 0 {
                return 1;
            }
            let want = crate::convert::f64_to_count((l as f64 / ideal).ceil());
            want.clamp(1, max_copies)
        })
        .collect();
    // One item per copy, heaviest share first (ties by expert index, so
    // factor = 1 degenerates to the exact LPT order).
    let mut order: Vec<usize> = (0..loads.len()).collect();
    let share = |e: usize| loads[e] as f64 / copies[e] as f64;
    order.sort_by(|&a, &b| share(b).total_cmp(&share(a)).then(a.cmp(&b)));
    let mut placement: Placement = vec![Vec::new(); devices];
    let mut device_load = vec![0.0f64; devices];
    for e in order {
        for _ in 0..copies[e] {
            // Least-loaded device not already holding a copy of `e`
            // (first such device on ties, like LPT's min_by_key).
            let d = (0..devices)
                .filter(|&d| !placement[d].contains(&e))
                .min_by(|&a, &b| device_load[a].total_cmp(&device_load[b]))
                .unwrap_or(0);
            placement[d].push(e);
            device_load[d] += share(e);
        }
    }
    // Splitting a copy onto an already-loaded device can lose to not
    // splitting at all; keep whichever placement balances better.
    let unreplicated = lpt_placement(loads, devices);
    if replicated_imbalance(&placement, loads) < replicated_imbalance(&unreplicated, loads) {
        placement
    } else {
        unreplicated
    }
}

/// Copy counts per expert implied by a (possibly replicated) placement.
fn copy_counts(placement: &Placement, num_experts: usize) -> Vec<usize> {
    let mut counts = vec![0usize; num_experts];
    for experts in placement {
        for &e in experts {
            counts[e] += 1;
        }
    }
    counts
}

/// Per-device loads under a replicated placement, with each expert's load
/// split evenly across its copies.
fn replicated_device_loads(placement: &Placement, loads: &[u64]) -> Vec<f64> {
    let counts = copy_counts(placement, loads.len());
    placement
        .iter()
        .map(|experts| {
            experts
                .iter()
                .map(|&e| loads[e] as f64 / counts[e].max(1) as f64)
                .sum()
        })
        .collect()
}

/// Max/mean device-load ratio of a replicated placement (1.0 = perfectly
/// balanced), with each expert's load split evenly across its copies.
pub fn replicated_imbalance(placement: &Placement, loads: &[u64]) -> f64 {
    let per_device = replicated_device_loads(placement, loads);
    let total: f64 = per_device.iter().sum();
    if total <= 0.0 {
        return 1.0;
    }
    let mean = total / per_device.len() as f64;
    let max = per_device.iter().copied().fold(0.0f64, f64::max);
    max / mean
}

/// Summary of a placement comparison.
#[derive(Debug, Clone, Copy, PartialEq, ToJson, FromJson)]
pub struct PlacementComparison {
    pub contiguous_imbalance: f64,
    pub lpt_imbalance: f64,
    /// EP-layer speedup from re-placing (busiest-device ratio).
    pub speedup: f64,
}

/// Compare contiguous vs LPT placement for given loads.
pub fn compare_placements(loads: &[u64], devices: usize) -> PlacementComparison {
    let contiguous = placement_imbalance(&contiguous_placement(loads.len(), devices), loads);
    let lpt = placement_imbalance(&lpt_placement(loads, devices), loads);
    PlacementComparison {
        contiguous_imbalance: contiguous,
        lpt_imbalance: lpt,
        speedup: contiguous / lpt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_covers_all_experts() {
        let p = contiguous_placement(10, 3);
        assert_eq!(p.len(), 3);
        let mut all: Vec<usize> = p.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn lpt_balances_skewed_loads() {
        // Hot experts clustered at the front: contiguous is terrible.
        let loads = [100u64, 90, 80, 70, 1, 1, 1, 1];
        let c = compare_placements(&loads, 4);
        assert!(c.contiguous_imbalance > 2.0, "{c:?}");
        assert!(c.lpt_imbalance < 1.2, "{c:?}");
        assert!(c.speedup > 1.8);
    }

    #[test]
    fn lpt_on_uniform_loads_is_balanced() {
        let loads = vec![10u64; 16];
        let c = compare_placements(&loads, 4);
        assert_eq!(c.contiguous_imbalance, 1.0);
        assert_eq!(c.lpt_imbalance, 1.0);
    }

    #[test]
    fn single_device_trivial() {
        let loads = [5u64, 3, 2];
        let p = lpt_placement(&loads, 1);
        assert_eq!(p.len(), 1);
        assert_eq!(placement_imbalance(&p, &loads), 1.0);
    }

    #[test]
    fn zero_loads_are_neutral() {
        let loads = [0u64; 8];
        assert_eq!(
            placement_imbalance(&contiguous_placement(8, 4), &loads),
            1.0
        );
    }

    // Deterministic randomized sweeps (replacing the former proptest versions).

    #[test]
    fn randomized_lpt_within_classical_bound() {
        let mut rng = moe_tensor::rng::rng_from_seed(0x17_ac_ed);
        for _ in 0..64 {
            let n = 4 + rng.next_below(60);
            let loads: Vec<u64> = (0..n).map(|_| rng.next_below(1000) as u64).collect();
            let devices = 2 + rng.next_below(6);
            // Graham's bound: LPT makespan <= (4/3 - 1/3m) * OPT, and
            // OPT >= max(mean load, largest single load).
            let p = lpt_placement(&loads, devices);
            let per_device = device_loads(&p, &loads);
            let makespan = *per_device.iter().max().expect("non-empty") as f64;
            let total: u64 = loads.iter().sum();
            let mean = total as f64 / devices as f64;
            let largest = loads.iter().copied().max().unwrap_or(0) as f64;
            // With more jobs than machines, some machine runs two of the
            // largest m+1 jobs: OPT >= L_m + L_{m+1} (1-indexed, sorted
            // descending).
            let mut sorted = loads.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            let pair = if sorted.len() > devices {
                (sorted[devices - 1] + sorted[devices]) as f64
            } else {
                0.0
            };
            let opt_lower = mean.max(largest).max(pair);
            let bound = (4.0 / 3.0 - 1.0 / (3.0 * devices as f64)) * opt_lower;
            assert!(
                makespan <= bound + 1e-9,
                "makespan {makespan} bound {bound}"
            );
            assert!(placement_imbalance(&p, &loads) >= 1.0 - 1e-12);
        }
    }

    #[test]
    fn replication_factor_one_is_exactly_lpt() {
        let mut rng = moe_tensor::rng::rng_from_seed(0x17_ac_ef);
        for _ in 0..32 {
            let n = 2 + rng.next_below(30);
            let loads: Vec<u64> = (0..n).map(|_| rng.next_below(500) as u64).collect();
            let devices = 1 + rng.next_below(7);
            assert_eq!(
                replicated_placement(&loads, devices, 1),
                lpt_placement(&loads, devices)
            );
        }
    }

    #[test]
    fn replication_splits_the_hot_expert_lpt_cannot() {
        // One expert carries most of the load: no unreplicated placement
        // can balance it, replication splits it across devices.
        let loads = [400u64, 10, 10, 10, 10, 10, 10, 10];
        let lpt = replicated_imbalance(&lpt_placement(&loads, 4), &loads);
        let rep = replicated_imbalance(&replicated_placement(&loads, 4, 4), &loads);
        assert!(lpt > 2.5, "lpt imbalance {lpt}");
        assert!(rep < 1.5, "replicated imbalance {rep}");
    }

    #[test]
    fn replica_copies_land_on_distinct_devices() {
        let loads = [900u64, 5, 5, 5];
        let p = replicated_placement(&loads, 4, 3);
        let on: Vec<usize> = (0..4).filter(|&d| p[d].contains(&0)).collect();
        assert!(on.len() >= 2, "hot expert must replicate, got {p:?}");
        for d in &p {
            let mut seen = d.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), d.len(), "duplicate expert on one device");
        }
    }

    #[test]
    fn replicated_placement_covers_every_expert() {
        let mut rng = moe_tensor::rng::rng_from_seed(0x17_ac_f0);
        for _ in 0..32 {
            let n = 1 + rng.next_below(40);
            let devices = 1 + rng.next_below(7);
            let factor = 1 + rng.next_below(4);
            let loads: Vec<u64> = (0..n).map(|_| rng.next_below(1000) as u64).collect();
            let p = replicated_placement(&loads, devices, factor);
            let mut all: Vec<usize> = p.iter().flatten().copied().collect();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all, (0..n).collect::<Vec<_>>(), "every expert placed");
            // Imbalance never worse than unreplicated LPT.
            let rep = replicated_imbalance(&p, &loads);
            let lpt = replicated_imbalance(&lpt_placement(&loads, devices), &loads);
            assert!(rep <= lpt + 1e-9, "replication hurt: {rep} vs {lpt}");
        }
    }

    #[test]
    fn randomized_every_expert_placed_exactly_once() {
        let mut rng = moe_tensor::rng::rng_from_seed(0x17_ac_ee);
        for _ in 0..64 {
            let n = 1 + rng.next_below(63);
            let devices = 1 + rng.next_below(7);
            let loads: Vec<u64> = (0..n as u64).collect();
            for p in [
                contiguous_placement(n, devices),
                lpt_placement(&loads, devices),
            ] {
                let mut all: Vec<usize> = p.into_iter().flatten().collect();
                all.sort_unstable();
                assert_eq!(all, (0..n).collect::<Vec<_>>());
            }
        }
    }
}
