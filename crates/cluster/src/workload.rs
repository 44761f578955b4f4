//! Seeded open-loop workload generation.
//!
//! A [`WorkloadSpec`] describes *how* traffic looks — the arrival process,
//! the tenant mix, per-tenant request shapes and prefix sharing — and
//! [`generate`] expands it into a concrete [`RequestTrace`]: a flat,
//! replayable list of timestamped requests. The trace, not the spec, is
//! what the cluster simulator consumes, so a trace serialized through
//! `moe-json` replays byte-identically on any host regardless of how it
//! was produced.
//!
//! All randomness flows from the single seed through
//! [`moe_tensor::rng::DetRng`]; per-concern streams are split with
//! [`derive_seed`] so adding a tenant never perturbs arrival times.

use moe_json::{FromJson, ToJson};
use moe_tensor::rng::{derive_seed, rng_from_seed, DetRng};

/// The arrival process shaping request timestamps (open loop: arrivals do
/// not wait for completions).
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals: exponential inter-arrival gaps at
    /// `rate_qps`.
    Poisson {
        /// Offered load, requests per second.
        rate_qps: f64,
    },
    /// Markov-modulated (bursty) arrivals: an on/off phase process where
    /// phase durations are exponential and each phase runs its own
    /// Poisson rate. Memorylessness makes redrawing the gap at each phase
    /// switch exact.
    Bursty {
        /// Arrival rate while the burst is on.
        on_rate_qps: f64,
        /// Arrival rate while the burst is off (may be 0).
        off_rate_qps: f64,
        /// Mean on-phase duration (s).
        mean_on_s: f64,
        /// Mean off-phase duration (s).
        mean_off_s: f64,
    },
    /// Diurnal ramp: a non-homogeneous Poisson process whose rate follows
    /// a raised cosine between `base_qps` and `peak_qps` with the given
    /// period, sampled by thinning against the peak rate.
    Diurnal {
        /// Trough arrival rate.
        base_qps: f64,
        /// Crest arrival rate.
        peak_qps: f64,
        /// Full cycle length (s).
        period_s: f64,
    },
}

impl ArrivalProcess {
    /// Draw the next arrival time strictly after `t`.
    fn next_after(&self, t: f64, rng: &mut DetRng, phase: &mut BurstPhase) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate_qps } => t + exp_gap(rng, *rate_qps),
            ArrivalProcess::Bursty {
                on_rate_qps,
                off_rate_qps,
                mean_on_s,
                mean_off_s,
            } => {
                let mut now = t;
                loop {
                    let (rate, mean_phase) = if phase.on {
                        (*on_rate_qps, *mean_on_s)
                    } else {
                        (*off_rate_qps, *mean_off_s)
                    };
                    // Remaining phase time is exponential by memorylessness.
                    if phase.until_s <= now {
                        phase.until_s = now + exp_gap(rng, 1.0 / mean_phase.max(1e-9));
                    }
                    let gap = exp_gap(rng, rate);
                    if now + gap <= phase.until_s {
                        return now + gap;
                    }
                    // Phase expires before the next arrival: switch and
                    // redraw from the boundary.
                    now = phase.until_s;
                    phase.on = !phase.on;
                    phase.until_s = now;
                }
            }
            ArrivalProcess::Diurnal {
                base_qps,
                peak_qps,
                period_s,
            } => {
                // Thinning: candidate gaps at the peak rate, accepted with
                // probability rate(t)/peak.
                let peak = peak_qps.max(*base_qps).max(1e-9);
                let mut now = t;
                loop {
                    now += exp_gap(rng, peak);
                    let x = (2.0 * std::f64::consts::PI * now / period_s.max(1e-9)).cos();
                    let rate = base_qps + (peak_qps - base_qps) * 0.5 * (1.0 - x);
                    if rng.next_f64() * peak <= rate {
                        return now;
                    }
                }
            }
        }
    }
}

/// Exponential gap with the given rate (events/s).
fn exp_gap(rng: &mut DetRng, rate: f64) -> f64 {
    let u = rng.next_f64().max(1e-12);
    -u.ln() / rate.max(1e-9)
}

/// Mutable on/off state threaded through bursty sampling.
#[derive(Debug, Clone)]
struct BurstPhase {
    on: bool,
    until_s: f64,
}

/// One tenant's traffic shape within the mix.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct TenantSpec {
    /// Tenant label; a trace names the tenant by its index in
    /// [`WorkloadSpec::tenants`] instead.
    pub name: String,
    /// Relative share of arrivals (weights need not sum to 1).
    pub weight: f64,
    /// Inclusive prompt-length range (tokens), sampled uniformly.
    pub prompt_tokens: (usize, usize),
    /// Inclusive output-length range (tokens), sampled uniformly.
    pub output_tokens: (usize, usize),
    /// Number of distinct shared-prefix groups; 0 disables sharing.
    pub prefix_groups: usize,
    /// Shared-prefix length (tokens) for requests in a group; clamped to
    /// the sampled prompt length minus one.
    pub prefix_tokens: usize,
}

impl TenantSpec {
    /// A tenant with uniform request shapes and no prefix sharing.
    pub fn uniform(
        name: &str,
        weight: f64,
        prompt_tokens: (usize, usize),
        output_tokens: (usize, usize),
    ) -> Self {
        Self {
            name: name.to_string(),
            weight,
            prompt_tokens,
            output_tokens,
            prefix_groups: 0,
            prefix_tokens: 0,
        }
    }

    /// Enable prefix sharing: requests pick one of `groups` shared
    /// prefixes of `tokens` tokens.
    fn with_shared_prefixes(mut self, groups: usize, tokens: usize) -> Self {
        self.prefix_groups = groups;
        self.prefix_tokens = tokens;
        self
    }
}

/// A complete workload description.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct WorkloadSpec {
    /// Arrival process for the merged stream.
    pub arrivals: ArrivalProcess,
    /// Total number of requests to generate.
    pub num_requests: usize,
    /// Tenant mix; each arrival is assigned a tenant by weight.
    pub tenants: Vec<TenantSpec>,
}

impl WorkloadSpec {
    /// Single-tenant Poisson workload with uniform shapes.
    pub fn poisson(rate_qps: f64, num_requests: usize, tenant: TenantSpec) -> Self {
        Self {
            arrivals: ArrivalProcess::Poisson { rate_qps },
            num_requests,
            tenants: vec![tenant],
        }
    }

    /// The `ext-scale` reference workload: one uniform chat-shaped
    /// tenant driven by a simulated population of `users` on a diurnal
    /// cycle. Each user re-issues a request on average every `think_s`
    /// seconds at the crest, so the peak offered rate is
    /// `users / think_s` QPS and the trough is 20% of it; one simulated
    /// "day" is compressed to 300 s so a short horizon still sweeps the
    /// full rate range.
    pub fn diurnal_users(users: u64, think_s: f64, num_requests: usize) -> Self {
        let peak_qps = users as f64 / think_s.max(1e-9);
        Self {
            arrivals: ArrivalProcess::Diurnal {
                base_qps: 0.2 * peak_qps,
                peak_qps,
                period_s: 300.0,
            },
            num_requests,
            tenants: vec![TenantSpec::uniform("u", 1.0, (128, 512), (16, 64))],
        }
    }

    /// The prefix-heavy reference mix used by the `ext-cluster`
    /// experiments and the policy-ordering tests: a bursty
    /// (Markov-modulated) arrival stream averaging roughly `rate_qps`,
    /// 85% "chat" traffic whose 4096-token prompts share 3584-token
    /// prefixes across 32 groups, and 15% "batch" traffic with long
    /// cold prompts and no shared prefix.
    ///
    /// The shapes are deliberate: MoE prefill on a single device is
    /// weight-streaming bound below ~2k tokens, so only *long* shared
    /// prefixes make cache hits cheaper, and the cold batch tenant gives
    /// load-aware policies heterogeneity that blind round-robin cannot
    /// see. Both effects are what the routing-policy comparison is
    /// designed to expose.
    pub fn prefix_heavy(rate_qps: f64, num_requests: usize) -> Self {
        Self {
            arrivals: ArrivalProcess::Bursty {
                on_rate_qps: 2.5 * rate_qps,
                off_rate_qps: 0.25 * rate_qps,
                mean_on_s: 0.4,
                mean_off_s: 0.6,
            },
            num_requests,
            tenants: vec![
                TenantSpec::uniform("chat", 0.85, (4096, 4096), (4, 8))
                    .with_shared_prefixes(32, 3584),
                TenantSpec::uniform("batch", 0.15, (6144, 8064), (4, 8)),
            ],
        }
    }
}

/// One concrete request in a trace.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct ClusterRequest {
    /// Trace-unique id, dense from 0 in arrival order.
    pub id: u64,
    /// Arrival time (s) on the cluster clock.
    pub arrival_s: f64,
    /// Prompt length (tokens).
    pub prompt_len: usize,
    /// Tokens to generate.
    pub max_new_tokens: usize,
    /// The tenant's index in the generating [`WorkloadSpec::tenants`]
    /// (its label is that entry's [`TenantSpec::name`]).
    pub tenant: u32,
    /// Shared-prefix group id (meaningful only when `prefix_len > 0`);
    /// stable across replays, unique across tenants.
    pub prefix_group: u64,
    /// Tokens shared with other members of `prefix_group` (0 = none).
    pub prefix_len: usize,
}

/// A replayable, fully materialized workload.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct RequestTrace {
    /// Requests in arrival order (`arrival_s` non-decreasing, ids dense).
    pub requests: Vec<ClusterRequest>,
}

impl RequestTrace {
    /// Time of the last arrival (0 for an empty trace).
    pub fn horizon_s(&self) -> f64 {
        self.requests.last().map_or(0.0, |r| r.arrival_s)
    }

    /// Mean offered load over the arrival span.
    pub fn offered_qps(&self) -> f64 {
        let span = self.horizon_s();
        if span <= 0.0 {
            0.0
        } else {
            self.requests.len() as f64 / span
        }
    }

    /// Shift every arrival by `offset_s` (compose episodes in time).
    pub fn shifted(mut self, offset_s: f64) -> Self {
        for r in &mut self.requests {
            r.arrival_s += offset_s;
        }
        self
    }

    /// Merge traces into one, interleaved by arrival time (stable on
    /// ties: earlier input trace first) and re-id'd densely from 0 in
    /// the merged arrival order, preserving the id invariant the
    /// simulator relies on. Prefix groups are salted per input trace so
    /// distinct traces never alias each other's shared-prefix families.
    /// This is how the control-plane experiments compose a diurnal
    /// baseline with a flash-crowd episode into one day.
    pub fn merge(parts: Vec<RequestTrace>) -> Self {
        let total = parts.iter().map(|p| p.requests.len()).sum();
        let mut requests: Vec<ClusterRequest> = Vec::with_capacity(total);
        for (i, part) in parts.into_iter().enumerate() {
            let salt = (i as u64) << 56;
            requests.extend(part.requests.into_iter().map(|mut r| {
                if r.prefix_len > 0 {
                    r.prefix_group ^= salt;
                }
                r
            }));
        }
        // The concatenation position, parked in `id`, breaks arrival ties:
        // an in-place unstable sort on `(arrival_s, position)` yields the
        // stable order without a scratch copy.
        for (pos, r) in requests.iter_mut().enumerate() {
            r.id = pos as u64;
        }
        requests.sort_unstable_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id)));
        for (id, r) in requests.iter_mut().enumerate() {
            r.id = id as u64;
        }
        Self { requests }
    }
}

/// A pull source of requests in arrival order, consumed lazily by the
/// cluster simulator. Implementations must yield non-decreasing
/// `arrival_s` and unique ids; both a materialized [`RequestTrace`] and
/// the streaming [`WorkloadStream`] qualify. The simulator holds only
/// the *live* requests; of the rest, a [`WorkloadStream`] holds none and
/// a [`TraceSource`] the undelivered remainder.
pub trait ArrivalSource: std::fmt::Debug {
    /// The next request, or `None` when the source is exhausted.
    fn next_request(&mut self) -> Option<ClusterRequest>;
}

/// A materialized trace consumed front to back. Only its undelivered
/// remainder stays resident: the requests are kept last-to-arrive first,
/// each pull pops one off the end, and the buffer gives its spare
/// capacity back as it drains.
#[derive(Debug)]
pub struct TraceSource {
    /// Undelivered requests in reverse arrival order.
    rest: Vec<ClusterRequest>,
}

impl TraceSource {
    /// Wrap a trace for consumption.
    pub fn new(trace: RequestTrace) -> Self {
        let mut rest = trace.requests;
        rest.reverse();
        Self { rest }
    }
}

impl ArrivalSource for TraceSource {
    fn next_request(&mut self) -> Option<ClusterRequest> {
        let req = self.rest.pop()?;
        // The allocator can usually trim the tail in place; the slack
        // keeps the number of shrinks logarithmic in the trace length.
        let len = self.rest.len();
        if self.rest.capacity() > len + len / 8 + 1024 {
            self.rest.shrink_to_fit();
        }
        Some(req)
    }
}

/// Lazy request generation: the exact sampling loop behind [`generate`],
/// exposed as an [`ArrivalSource`] so arbitrarily long workloads never
/// materialize. `generate(spec, seed)` and `WorkloadStream::new(spec,
/// seed)` produce byte-identical request sequences — `generate` *is*
/// this stream, collected.
#[derive(Debug, Clone)]
pub struct WorkloadStream {
    spec: WorkloadSpec,
    arrival_rng: DetRng,
    tenant_rng: DetRng,
    shape_rng: DetRng,
    total_weight: f64,
    phase: BurstPhase,
    t: f64,
    next_id: u64,
}

impl WorkloadStream {
    /// Start the stream for `(spec, seed)`. Deterministic: arrivals,
    /// tenant assignment and request shapes each draw from an
    /// independent derived RNG stream.
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        assert!(
            !spec.tenants.is_empty(),
            "workload needs at least one tenant"
        );
        let total_weight = spec.tenants.iter().map(|t| t.weight.max(0.0)).sum();
        Self {
            arrival_rng: rng_from_seed(derive_seed(seed, 0x0a77)),
            tenant_rng: rng_from_seed(derive_seed(seed, 0x7e4a)),
            shape_rng: rng_from_seed(derive_seed(seed, 0x54a9)),
            spec,
            total_weight,
            phase: BurstPhase {
                on: true,
                until_s: 0.0,
            },
            t: 0.0,
            next_id: 0,
        }
    }
}

impl ArrivalSource for WorkloadStream {
    fn next_request(&mut self) -> Option<ClusterRequest> {
        if self.next_id >= self.spec.num_requests as u64 {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.t = self
            .spec
            .arrivals
            .next_after(self.t, &mut self.arrival_rng, &mut self.phase);

        // Tenant by weight (categorical over the mix).
        let mut pick = self.tenant_rng.next_f64() * self.total_weight.max(1e-12);
        let mut tenant_idx = self.spec.tenants.len() - 1;
        for (i, ten) in self.spec.tenants.iter().enumerate() {
            pick -= ten.weight.max(0.0);
            if pick <= 0.0 {
                tenant_idx = i;
                break;
            }
        }
        let ten = &self.spec.tenants[tenant_idx];

        let prompt_len = sample_range(&mut self.shape_rng, ten.prompt_tokens).max(1);
        let max_new_tokens = sample_range(&mut self.shape_rng, ten.output_tokens).max(1);
        let (prefix_group, prefix_len) = if ten.prefix_groups > 0 && ten.prefix_tokens > 0 {
            let group = self.shape_rng.next_below(ten.prefix_groups) as u64;
            // Group ids are globally unique: offset by tenant index.
            let global = (tenant_idx as u64) << 32 | group;
            (global, ten.prefix_tokens.min(prompt_len.saturating_sub(1)))
        } else {
            (0, 0)
        };
        Some(ClusterRequest {
            id,
            arrival_s: self.t,
            prompt_len,
            max_new_tokens,
            tenant: tenant_idx as u32,
            prefix_group,
            prefix_len,
        })
    }
}

/// Expand a spec into a concrete trace. Deterministic in `(spec, seed)`;
/// defined as the collected [`WorkloadStream`], so streaming and
/// materialized consumption see the same requests byte for byte.
pub fn generate(spec: &WorkloadSpec, seed: u64) -> RequestTrace {
    let mut stream = WorkloadStream::new(spec.clone(), seed);
    let mut requests = Vec::with_capacity(spec.num_requests);
    while let Some(req) = stream.next_request() {
        requests.push(req);
    }
    RequestTrace { requests }
}

/// Uniform sample from an inclusive range (degenerate ranges allowed).
fn sample_range(rng: &mut DetRng, (lo, hi): (usize, usize)) -> usize {
    let (lo, hi) = (lo.min(hi), lo.max(hi));
    lo + rng.next_below(hi - lo + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain_tenant() -> TenantSpec {
        TenantSpec::uniform("web", 1.0, (256, 512), (32, 64))
    }

    #[test]
    fn poisson_interarrival_mean_within_tolerance() {
        // Empirical mean gap over many draws must approach 1/rate.
        let rate = 4.0;
        let spec = WorkloadSpec::poisson(rate, 4000, plain_tenant());
        let trace = generate(&spec, 7);
        let gaps: Vec<f64> = trace
            .requests
            .windows(2)
            .map(|w| w[1].arrival_s - w[0].arrival_s)
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let expect = 1.0 / rate;
        assert!(
            (mean - expect).abs() < 0.05 * expect,
            "mean gap {mean} vs {expect}"
        );
        // And the arrivals are strictly increasing.
        assert!(gaps.iter().all(|&g| g > 0.0));
    }

    #[test]
    fn bursty_duty_cycle_matches_phase_means() {
        // on 2s at 50 qps, off 2s at 0 qps: arrivals only inside bursts,
        // so the arrival-weighted on fraction is ~1 while the arrival
        // *rate* over the horizon is about half the on rate.
        let spec = WorkloadSpec {
            arrivals: ArrivalProcess::Bursty {
                on_rate_qps: 50.0,
                off_rate_qps: 0.0,
                mean_on_s: 2.0,
                mean_off_s: 2.0,
            },
            num_requests: 3000,
            tenants: vec![plain_tenant()],
        };
        let trace = generate(&spec, 11);
        let qps = trace.offered_qps();
        assert!(
            qps > 0.35 * 50.0 && qps < 0.65 * 50.0,
            "effective qps {qps} should be ~half the on rate"
        );
        // Burstiness: the squared coefficient of variation of gaps far
        // exceeds 1 (a Poisson process would sit at 1).
        let gaps: Vec<f64> = trace
            .requests
            .windows(2)
            .map(|w| w[1].arrival_s - w[0].arrival_s)
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        let cv2 = var / (mean * mean);
        assert!(cv2 > 2.0, "cv^2 {cv2} not bursty");
    }

    #[test]
    fn diurnal_rate_tracks_the_cycle() {
        let spec = WorkloadSpec {
            arrivals: ArrivalProcess::Diurnal {
                base_qps: 1.0,
                peak_qps: 20.0,
                period_s: 100.0,
            },
            num_requests: 2000,
            tenants: vec![plain_tenant()],
        };
        let trace = generate(&spec, 13);
        // Crest half-periods (cos < 0) must see far more arrivals than
        // trough half-periods.
        let (mut crest, mut trough) = (0usize, 0usize);
        for r in &trace.requests {
            let x = (2.0 * std::f64::consts::PI * r.arrival_s / 100.0).cos();
            if x < 0.0 {
                crest += 1;
            } else {
                trough += 1;
            }
        }
        assert!(
            crest > 3 * trough,
            "crest {crest} vs trough {trough}: rate is not following the cycle"
        );
    }

    #[test]
    fn tenant_mix_follows_weights() {
        let spec = WorkloadSpec {
            arrivals: ArrivalProcess::Poisson { rate_qps: 10.0 },
            num_requests: 3000,
            tenants: vec![
                TenantSpec::uniform("heavy", 3.0, (512, 1024), (64, 128)),
                TenantSpec::uniform("light", 1.0, (64, 128), (8, 16)),
            ],
        };
        let trace = generate(&spec, 17);
        let heavy = trace.requests.iter().filter(|r| r.tenant == 0).count();
        let frac = heavy as f64 / trace.requests.len() as f64;
        assert!((frac - 0.75).abs() < 0.05, "heavy fraction {frac}");
        // Shapes respect per-tenant ranges.
        for r in &trace.requests {
            match r.tenant {
                0 => assert!((512..=1024).contains(&r.prompt_len)),
                t => {
                    assert_eq!(t, 1, "tenant indices name the spec's tenants");
                    assert!((64..=128).contains(&r.prompt_len));
                }
            }
        }
    }

    #[test]
    fn prefix_groups_are_bounded_and_clamped() {
        let ten = TenantSpec::uniform("chat", 1.0, (100, 200), (8, 8)).with_shared_prefixes(4, 150);
        let spec = WorkloadSpec::poisson(5.0, 500, ten);
        let trace = generate(&spec, 19);
        let mut groups = std::collections::BTreeSet::new();
        for r in &trace.requests {
            assert!(r.prefix_len < r.prompt_len, "prefix must leave >=1 token");
            groups.insert(r.prefix_group);
        }
        assert!(groups.len() <= 4);
        assert!(groups.len() >= 2, "expected multiple groups in 500 draws");
    }

    #[test]
    fn stream_and_generate_are_byte_identical() {
        let spec = WorkloadSpec {
            arrivals: ArrivalProcess::Bursty {
                on_rate_qps: 30.0,
                off_rate_qps: 2.0,
                mean_on_s: 1.0,
                mean_off_s: 2.0,
            },
            num_requests: 400,
            tenants: vec![
                plain_tenant(),
                TenantSpec::uniform("chat", 2.0, (64, 96), (4, 8)).with_shared_prefixes(4, 48),
            ],
        };
        let trace = generate(&spec, 77);
        let mut stream = WorkloadStream::new(spec, 77);
        let mut streamed = Vec::new();
        while let Some(r) = stream.next_request() {
            streamed.push(r);
        }
        assert_eq!(trace.requests, streamed);
        assert!(stream.next_request().is_none(), "stream stays exhausted");
    }

    #[test]
    fn diurnal_users_peak_rate_matches_population() {
        let spec = WorkloadSpec::diurnal_users(150_000, 300.0, 10);
        match spec.arrivals {
            ArrivalProcess::Diurnal {
                base_qps, peak_qps, ..
            } => {
                assert!((peak_qps - 500.0).abs() < 1e-9);
                assert!((base_qps - 100.0).abs() < 1e-9);
            }
            _ => panic!("diurnal_users must be diurnal"),
        }
    }

    #[test]
    fn same_seed_same_trace_different_seed_differs() {
        let spec = WorkloadSpec::poisson(3.0, 200, plain_tenant());
        let a = generate(&spec, 42);
        let b = generate(&spec, 42);
        assert_eq!(a, b);
        let c = generate(&spec, 43);
        assert_ne!(a, c);
    }

    /// A request is six words and a tenant index, with nothing on the
    /// heap, so a trace costs the same per request whatever its labels.
    #[test]
    fn a_request_is_at_most_56_bytes() {
        assert!(std::mem::size_of::<ClusterRequest>() <= 56);
    }

    #[test]
    fn merge_matches_a_stable_sort_of_the_salted_concatenation() {
        // Three parts that interleave, share arrival times within and
        // across parts, and share prefix groups (one part has none).
        let part = |arrivals: &[f64], group: u64, prefix_len: usize| RequestTrace {
            requests: arrivals
                .iter()
                .enumerate()
                .map(|(i, &arrival_s)| ClusterRequest {
                    id: i as u64,
                    arrival_s,
                    prompt_len: 100 + i,
                    max_new_tokens: 4,
                    tenant: 0,
                    prefix_group: group,
                    prefix_len,
                })
                .collect(),
        };
        let parts = vec![
            part(&[0.0, 1.0, 1.0, 2.0, 3.0], 7, 32),
            part(&[1.0, 1.0, 2.5, 3.0], 7, 32),
            part(&[0.0, 1.0, 3.0, 3.0], 7, 0),
        ];

        // Reference: salt, concatenate, stable-sort by arrival, re-id.
        let mut expect: Vec<ClusterRequest> = Vec::new();
        for (i, p) in parts.iter().enumerate() {
            for r in &p.requests {
                let mut r = r.clone();
                if r.prefix_len > 0 {
                    r.prefix_group ^= (i as u64) << 56;
                }
                expect.push(r);
            }
        }
        expect.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
        for (id, r) in expect.iter_mut().enumerate() {
            r.id = id as u64;
        }

        let merged = RequestTrace::merge(parts);
        assert_eq!(merged.requests, expect);
        // Ties keep part order, then position within the part.
        let at_one: Vec<(usize, u64)> = merged
            .requests
            .iter()
            .filter(|r| r.arrival_s == 1.0)
            .map(|r| (r.prompt_len, r.prefix_group >> 56))
            .collect();
        assert_eq!(at_one, [(101, 0), (102, 0), (100, 1), (101, 1), (101, 0)]);
    }

    #[test]
    fn trace_source_yields_in_order_and_holds_only_the_remainder() {
        let spec = WorkloadSpec::poisson(50.0, 20_000, plain_tenant());
        let trace = generate(&spec, 29);
        let mut source = TraceSource::new(trace.clone());
        for (i, expect) in trace.requests.iter().enumerate() {
            assert_eq!(source.next_request().as_ref(), Some(expect));
            let left = trace.requests.len() - i - 1;
            assert_eq!(source.rest.len(), left);
            assert!(
                source.rest.capacity() <= left + left / 8 + 1024,
                "{} slots held for {left} undelivered requests",
                source.rest.capacity()
            );
        }
        assert!(source.next_request().is_none());
        assert!(source.next_request().is_none(), "stays exhausted");
    }

    #[test]
    fn trace_replays_byte_identically_through_json() {
        let ten = TenantSpec::uniform("api", 2.0, (128, 256), (16, 32)).with_shared_prefixes(3, 96);
        let spec = WorkloadSpec {
            arrivals: ArrivalProcess::Bursty {
                on_rate_qps: 20.0,
                off_rate_qps: 1.0,
                mean_on_s: 1.0,
                mean_off_s: 3.0,
            },
            num_requests: 300,
            tenants: vec![plain_tenant(), ten],
        };
        let trace = generate(&spec, 23);
        let json = moe_json::to_string(&trace);
        let back: RequestTrace = moe_json::from_str(&json).expect("trace json round-trips");
        assert_eq!(trace, back);
        // Byte-identical re-serialization (the replay contract).
        assert_eq!(json, moe_json::to_string(&back));
    }
}
