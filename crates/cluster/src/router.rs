//! Front-end routing: policy selection, the admission-control queue, and
//! retry/timeout bookkeeping.
//!
//! The router is deliberately *stateless about time* — the cluster
//! simulator owns the clock and calls [`Router::choose`] with a snapshot
//! of per-replica load. All tie-breaks are by replica index, and the
//! hash used by the affinity policies is a fixed splitmix-style mix of
//! the request's prefix group and the cluster seed, so placements are
//! identical across replays.

use moe_json::{FromJson, ToJson};

/// Replica-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, ToJson, FromJson)]
pub enum RoutePolicy {
    /// Cycle through alive replicas in index order.
    RoundRobin,
    /// Replica with the fewest outstanding requests, ranked by
    /// `(queued, outstanding)` (see [`ReplicaLoad`]); exact rank ties
    /// rotate round-robin so an idle cluster still spreads work.
    LeastOutstanding,
    /// Power of two choices with *affine candidates*: the two candidate
    /// replicas are derived from the request's prefix group (a rotating
    /// nonce when it shares nothing), and the less-loaded candidate wins.
    /// Keeping
    /// both candidates group-stable concentrates each group on two
    /// replicas — bounded-load consistent hashing in miniature — so the
    /// policy inherits some prefix-cache locality on top of its load
    /// balancing.
    PowerOfTwo,
    /// Pin each prefix group to one replica (hash of the group); requests
    /// without a shared prefix, and groups whose home replica is down,
    /// fall back to least-outstanding.
    PrefixAffinity,
}

impl RoutePolicy {
    /// Short stable label for tables and traces.
    pub fn label(self) -> &'static str {
        match self {
            RoutePolicy::RoundRobin => "round-robin",
            RoutePolicy::LeastOutstanding => "least-outstanding",
            RoutePolicy::PowerOfTwo => "power-of-two",
            RoutePolicy::PrefixAffinity => "prefix-affinity",
        }
    }

    /// Every policy, in the expected best-to-worst p99-TTFT order on a
    /// prefix-heavy workload.
    pub fn all() -> Vec<RoutePolicy> {
        vec![
            RoutePolicy::PrefixAffinity,
            RoutePolicy::PowerOfTwo,
            RoutePolicy::LeastOutstanding,
            RoutePolicy::RoundRobin,
        ]
    }
}

/// Router limits and failure-handling knobs.
#[derive(Debug, Clone, Copy, PartialEq, ToJson, FromJson)]
pub struct RouterConfig {
    /// Time-to-first-token deadline measured from the *original* arrival;
    /// a request with no first token by then is canceled and counted
    /// `timed_out`. Non-positive disables timeouts.
    pub ttft_timeout_s: f64,
    /// Redispatch attempts after a replica crash loses a request (0 =
    /// crash losses are dropped immediately).
    pub max_retries: u32,
    /// Base retry backoff; attempt `k` (1-based) waits `backoff_s * 2^(k-1)`.
    pub backoff_s: f64,
    /// Admission-control bound on requests parked at the router while no
    /// replica can accept work; arrivals beyond it are rejected.
    pub queue_capacity: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            ttft_timeout_s: 0.0,
            max_retries: 3,
            backoff_s: 0.25,
            queue_capacity: 4096,
        }
    }
}

/// Per-replica load snapshot the simulator hands to [`Router::choose`].
///
/// Two signals matter for different things: `queued` (requests still
/// waiting for their prefill) predicts a newcomer's TTFT, because a
/// continuous-batching engine folds extra *decodes* into a running batch
/// almost for free while pending prefills serialize. `outstanding`
/// (queued + running) is the coarser in-flight count a real front-end
/// sees. Load-aware policies rank by `(queued, outstanding, index)`.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaLoad {
    /// Is the replica accepting work?
    pub alive: bool,
    /// Requests admitted to the replica but not yet past prefill.
    pub queued: usize,
    /// Queued + running requests on the replica.
    pub outstanding: usize,
}

impl ReplicaLoad {
    /// The ranking key used by every load-aware decision.
    fn rank(&self) -> (usize, usize) {
        (self.queued, self.outstanding)
    }
}

/// The routing decision state machine.
#[derive(Debug)]
pub struct Router {
    policy: RoutePolicy,
    /// Mixed into candidate hashes so different cluster seeds explore
    /// different placements while one seed replays identically.
    hash_seed: u64,
    rr_next: usize,
    /// Deterministic nonce standing in for "two random choices" when a
    /// power-of-two request has no affinity key.
    p2c_nonce: u64,
}

impl Router {
    /// Router with the given policy; `hash_seed` perturbs affinity hashes.
    pub fn new(policy: RoutePolicy, hash_seed: u64) -> Self {
        Self {
            policy,
            hash_seed,
            rr_next: 0,
            p2c_nonce: 0,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> RoutePolicy {
        self.policy
    }

    /// Pick a replica for a request, or `None` when no replica is alive.
    ///
    /// `affinity_key` is the request's prefix group when it shares a
    /// prefix, `None` otherwise. Requests without a key cannot benefit
    /// from cache locality, so the affinity policies route them by load:
    /// prefix-affinity falls back to least-outstanding, and power-of-two
    /// draws its two candidates from a deterministic nonce instead of a
    /// group hash.
    pub fn choose(&mut self, loads: &[ReplicaLoad], affinity_key: Option<u64>) -> Option<usize> {
        let n = loads.len();
        if !loads.iter().any(|l| l.alive) {
            return None;
        }
        match self.policy {
            RoutePolicy::RoundRobin => {
                for probe in 0..n {
                    let idx = (self.rr_next + probe) % n;
                    if loads[idx].alive {
                        self.rr_next = (idx + 1) % n;
                        return Some(idx);
                    }
                }
                None
            }
            RoutePolicy::LeastOutstanding => self.least_outstanding_rotating(loads),
            RoutePolicy::PowerOfTwo => {
                let key = affinity_key.unwrap_or_else(|| {
                    self.p2c_nonce = self.p2c_nonce.wrapping_add(1);
                    self.p2c_nonce ^ 0xa5a5_0000_0000_0000
                });
                let a = (mix(self.hash_seed, key) % n as u64) as usize;
                let mut b = (mix(self.hash_seed ^ 0x9e37_79b9, key) % n as u64) as usize;
                if b == a {
                    b = (a + 1) % n;
                }
                match (loads[a].alive, loads[b].alive) {
                    (true, true) => {
                        // Less loaded wins; ties to the lower index.
                        let (lo, hi) = (a.min(b), a.max(b));
                        if loads[hi].rank() < loads[lo].rank() {
                            Some(hi)
                        } else {
                            Some(lo)
                        }
                    }
                    (true, false) => Some(a),
                    (false, true) => Some(b),
                    (false, false) => least_outstanding(loads, 0),
                }
            }
            RoutePolicy::PrefixAffinity => {
                let Some(key) = affinity_key else {
                    return self.least_outstanding_rotating(loads);
                };
                let home = (mix(self.hash_seed, key) % n as u64) as usize;
                if loads[home].alive {
                    Some(home)
                } else {
                    self.least_outstanding_rotating(loads)
                }
            }
        }
    }

    /// JSQ with rotating tie-breaks: among alive replicas sharing the
    /// minimum rank, take the first at-or-after the round-robin pointer.
    /// Under rank ties this *is* round-robin, so the policy never herds
    /// onto low indices when the cluster is idle.
    fn least_outstanding_rotating(&mut self, loads: &[ReplicaLoad]) -> Option<usize> {
        let idx = least_outstanding(loads, self.rr_next)?;
        self.rr_next = (idx + 1) % loads.len();
        Some(idx)
    }
}

/// Alive replica with minimum rank; ties break to the first in cyclic
/// order from `start`. One pass keeps the first strict minimum and stops
/// at an idle replica, whose rank `(0, 0)` nothing can beat.
fn least_outstanding(loads: &[ReplicaLoad], start: usize) -> Option<usize> {
    let start = start % loads.len().max(1);
    let mut best: Option<(usize, (usize, usize))> = None;
    for idx in (start..loads.len()).chain(0..start) {
        let load = &loads[idx];
        if !load.alive {
            continue;
        }
        let rank = load.rank();
        if best.is_none_or(|(_, b)| rank < b) {
            best = Some((idx, rank));
            if rank == (0, 0) {
                break;
            }
        }
    }
    best.map(|(idx, _)| idx)
}

/// SplitMix64-style avalanche of seed and key — stable across platforms.
pub(crate) fn mix(seed: u64, key: u64) -> u64 {
    let mut z = seed ^ key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loads(outstanding: &[usize]) -> Vec<ReplicaLoad> {
        outstanding
            .iter()
            .map(|&o| ReplicaLoad {
                alive: true,
                queued: o,
                outstanding: o,
            })
            .collect()
    }

    #[test]
    fn round_robin_cycles_and_skips_dead() {
        let mut r = Router::new(RoutePolicy::RoundRobin, 1);
        let mut l = loads(&[0, 0, 0]);
        assert_eq!(r.choose(&l, Some(0)), Some(0));
        assert_eq!(r.choose(&l, Some(0)), Some(1));
        assert_eq!(r.choose(&l, Some(0)), Some(2));
        assert_eq!(r.choose(&l, Some(0)), Some(0));
        l[1].alive = false;
        assert_eq!(r.choose(&l, Some(0)), Some(2), "dead replica skipped");
    }

    #[test]
    fn least_outstanding_prefers_idle_and_rotates_ties() {
        let mut r = Router::new(RoutePolicy::LeastOutstanding, 1);
        assert_eq!(r.choose(&loads(&[3, 1, 2]), Some(9)), Some(1));
        // Exact ties rotate from the pointer (now at 2) instead of
        // herding onto replica 0.
        assert_eq!(r.choose(&loads(&[2, 2, 2]), None), Some(2));
        assert_eq!(r.choose(&loads(&[2, 2, 2]), None), Some(0));
        assert_eq!(r.choose(&loads(&[2, 2, 2]), None), Some(1));
    }

    /// The definition the scan must match: the minimum rank over alive
    /// replicas, then the first replica of that rank in cyclic order
    /// from `start`.
    fn reference_pick(loads: &[ReplicaLoad], start: usize) -> Option<usize> {
        let n = loads.len();
        let best = loads.iter().filter(|l| l.alive).map(|l| l.rank()).min()?;
        (0..n)
            .map(|probe| (start + probe) % n)
            .find(|&idx| loads[idx].alive && loads[idx].rank() == best)
    }

    #[test]
    fn one_pass_scan_matches_the_brute_force_reference() {
        let mut rng = moe_tensor::rng::rng_from_seed(17);
        for case in 0..300 {
            let n = 1 + rng.next_below(24);
            // Small ranges make rank ties, idle replicas and all-dead
            // fleets common.
            let loads: Vec<ReplicaLoad> = (0..n)
                .map(|_| {
                    let queued = rng.next_below(3);
                    ReplicaLoad {
                        alive: rng.next_below(4) != 0,
                        queued,
                        outstanding: queued + rng.next_below(3),
                    }
                })
                .collect();
            assert_eq!(
                least_outstanding(&loads, 0),
                reference_pick(&loads, 0),
                "case {case}: scan from 0"
            );
            for start in 0..n {
                let mut r = Router::new(RoutePolicy::LeastOutstanding, 1);
                r.rr_next = start;
                let want = reference_pick(&loads, start);
                assert_eq!(r.choose(&loads, None), want, "case {case}, start {start}");
                let next = want.map_or(start, |idx| (idx + 1) % n);
                assert_eq!(r.rr_next, next, "case {case}, start {start}: pointer");
            }
        }
    }

    #[test]
    fn power_of_two_candidates_are_stable_and_load_aware() {
        let mut r = Router::new(RoutePolicy::PowerOfTwo, 7);
        let l = loads(&[0, 0, 0, 0]);
        let first = r.choose(&l, Some(1234)).expect("alive");
        // Same key, same load -> same pick, always.
        for _ in 0..5 {
            assert_eq!(r.choose(&l, Some(1234)), Some(first));
        }
        // Loading the winner shifts the choice to its sibling candidate
        // (still one of exactly two group-stable replicas).
        let mut heavy = l.clone();
        heavy[first].outstanding = 10;
        let second = r.choose(&heavy, Some(1234)).expect("alive");
        assert_ne!(second, first);
        heavy[second].outstanding = 20;
        let third = r.choose(&heavy, Some(1234)).expect("alive");
        assert_eq!(third, first, "only two candidates per key");
    }

    #[test]
    fn prefix_affinity_pins_and_fails_over() {
        let mut r = Router::new(RoutePolicy::PrefixAffinity, 3);
        let l = loads(&[5, 5, 5, 5]);
        let home = r.choose(&l, Some(77)).expect("alive");
        assert_eq!(r.choose(&l, Some(77)), Some(home), "group stays home");
        let mut down = l.clone();
        down[home].alive = false;
        down[(home + 1) % 4].outstanding = 0;
        let fallback = r.choose(&down, Some(77)).expect("alive");
        assert_ne!(fallback, home, "dead home fails over");
    }

    #[test]
    fn no_alive_replicas_yields_none() {
        for policy in RoutePolicy::all() {
            let mut r = Router::new(policy, 1);
            let l = vec![
                ReplicaLoad {
                    alive: false,
                    queued: 0,
                    outstanding: 0
                };
                3
            ];
            assert_eq!(r.choose(&l, Some(5)), None, "{policy:?}");
        }
    }
}
