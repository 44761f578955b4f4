//! The five seeded workloads. Each builds all of its inputs in `setup`
//! (before the timed body starts) and then runs one batch job through
//! the public APIs of the layers it exercises.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::rc::Rc;

use moe_cluster::workload::RequestTrace;
use moe_cluster::{
    generate, ArrivalProcess, ClusterConfig, ClusterReport, ClusterSim, FaultPlan, RoutePolicy,
    TenantSpec, TraceSource, WorkloadSpec,
};
use moe_ctrl::{Controller, ControllerConfig, Decision, DecisionLog};
use moe_engine::MoeTransformer;
use moe_eval::activation::{analogue_config, mme_token};
use moe_gpusim::PerfModel;
use moe_model::registry::{
    deepseek_v2_lite, deepseek_vl2_tiny, mixtral_8x7b, olmoe_1b_7b, phi35_moe, qwen15_moe_a27b,
    qwen3_30b_a3b,
};
use moe_model::ModelConfig;
use moe_plan::score::build_engine;
use moe_plan::{
    plan, search, CandidateConfig, CandidateScore, FleetSpec, PlanFailure, PlannerSpec,
    ReachableSpace, SearchMode, SearchSpace, SloSpec, WorkloadSketch,
};
use moe_runtime::liveserver::LiveServer;
use moe_runtime::prefixcache::PrefixCache;
use moe_runtime::simserver::scheduler_config_for;
use moe_runtime::SchedulerConfig;
use moe_tensor::ops::argmax;
use moe_tensor::rng::{derive_seed, rng_from_seed};
use moe_tensor::Precision;
use moe_trace::Tracer;

use crate::clock::cpu_now;
use crate::spans::{span, Shared, TimedHook, TimedSource, CLUSTER, ENGINE, PLAN, RUNTIME};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Chunked prefill of MME-like tokens through the engine.
    EnginePrefill,
    /// Multi-turn conversations served by `LiveServer` with prefix caching.
    EngineServe,
    /// 1000 replicas under a diurnal open-loop stream with faults.
    ClusterDiurnal,
    /// A controlled serving day: few replicas, big batches, controller ticks.
    ClusterDay,
    /// Deployment planning over models x fleets x rate/SLO draws.
    PlanSweep,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 5] = [
        Workload::EnginePrefill,
        Workload::EngineServe,
        Workload::ClusterDiurnal,
        Workload::ClusterDay,
        Workload::PlanSweep,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EnginePrefill => "engine-prefill",
            Workload::EngineServe => "engine-serve",
            Workload::ClusterDiurnal => "cluster-diurnal",
            Workload::ClusterDay => "cluster-day",
            Workload::PlanSweep => "plan-sweep",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one operation is, for the `op_*` latency metrics.
    pub fn op_label(self) -> &'static str {
        match self {
            Workload::EnginePrefill => "64-token document",
            Workload::EngineServe => "LiveServer::step",
            Workload::ClusterDiurnal | Workload::ClusterDay => "1000 simulated arrivals",
            Workload::PlanSweep => "moe_plan::plan call",
        }
    }

    /// What one unit of `work_per_s` is.
    pub fn work_label(self) -> &'static str {
        match self {
            Workload::EnginePrefill | Workload::EngineServe => "tokens requested",
            Workload::ClusterDiurnal | Workload::ClusterDay => "simulated requests",
            Workload::PlanSweep => "plans",
        }
    }

    /// Build every input the body needs.
    pub fn setup(self, seed: u64, rec: &Shared) -> Job {
        match self {
            Workload::EnginePrefill => Job::Prefill(Prefill::new(seed)),
            Workload::EngineServe => Job::Serve(Serve::new(seed)),
            Workload::ClusterDiurnal => {
                Job::Cluster(Cluster::diurnal(DIURNAL_REQUESTS, seed, rec.clone()))
            }
            Workload::ClusterDay => Job::Cluster(Cluster::day(seed, rec.clone())),
            Workload::PlanSweep => Job::Plans(plan_specs(seed)),
        }
    }
}

/// What one run of a body produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// On-CPU seconds of each operation.
    pub op_s: Vec<f64>,
    /// Units of work done (see [`Workload::work_label`]).
    pub work: u64,
    /// Digest of every output the body produced.
    pub digest: u64,
    /// Digest of the outputs an oracle recomputes independently (the
    /// last turn of each served conversation); 0 where there are none.
    pub check: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Exact counts the layers report, keyed by per-layer metric name.
    pub counts: BTreeMap<String, f64>,
}

/// A workload with its inputs built, ready to run once.
pub enum Job {
    /// `engine-prefill`.
    Prefill(Prefill),
    /// `engine-serve`.
    Serve(Serve),
    /// `cluster-diurnal` and `cluster-day`.
    Cluster(Cluster),
    /// `plan-sweep`.
    Plans(Vec<PlannerSpec>),
}

impl Job {
    /// Run the body.
    pub fn run(self, rec: &Shared) -> Outcome {
        match self {
            Job::Prefill(p) => p.run(rec),
            Job::Serve(s) => s.run(rec),
            Job::Cluster(c) => c.run(rec),
            Job::Plans(specs) => run_plans(&specs, rec),
        }
    }
}

/// Digest of a value, for comparing outputs within one invocation.
pub fn digest_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

fn count(n: usize) -> f64 {
    n as f64
}

// ---------------------------------------------------------------------------
// engine-prefill and engine-serve: the Fig. 15 VLM analogue on the CPU engine
// ---------------------------------------------------------------------------

/// Synthetic MME-like tokens routed per body.
const PREFILL_TOKENS: usize = 2048;
/// Tokens per document; the KV cache restarts at every document.
const DOC_TOKENS: usize = 64;
/// Tokens per forward call.
pub const CHUNK_TOKENS: usize = 32;

/// The down-scaled DeepSeek-VL2-Tiny analogue (8 layers, 64 experts,
/// top-6) with weights seeded from `seed`.
pub fn vlm_analogue(seed: u64) -> MoeTransformer {
    MoeTransformer::new(
        analogue_config(&deepseek_vl2_tiny()),
        derive_seed(seed, 0x3e16),
    )
}

/// `n` tokens of the synthetic MME stream drawn from `stream_seed`.
fn mme_tokens(stream_seed: u64, n: usize, vocab: usize) -> Vec<usize> {
    let mut rng = rng_from_seed(stream_seed);
    (0..n).map(|i| mme_token(&mut rng, i, vocab)).collect()
}

/// `engine-prefill` inputs: the model with activation statistics on and
/// the token stream cut into documents.
pub struct Prefill {
    model: MoeTransformer,
    docs: Vec<Vec<usize>>,
}

impl Prefill {
    fn new(seed: u64) -> Self {
        let mut model = vlm_analogue(seed);
        model.enable_stats();
        let tokens = mme_tokens(
            derive_seed(seed, 0x70c5),
            PREFILL_TOKENS,
            model.config().vocab_size,
        );
        let docs = tokens.chunks(DOC_TOKENS).map(<[usize]>::to_vec).collect();
        Self { model, docs }
    }

    fn run(mut self, rec: &Shared) -> Outcome {
        let mut h = DefaultHasher::new();
        let mut op_s = Vec::with_capacity(self.docs.len());
        let model = &mut self.model;
        let mut chunk_no = 0;
        for (d, doc) in self.docs.iter().enumerate() {
            let t = cpu_now();
            let mut kv = span(rec, ENGINE, "MoeTransformer::new_kv", d, || model.new_kv());
            for (c, chunk) in doc.chunks(CHUNK_TOKENS).enumerate() {
                let start = c * CHUNK_TOKENS;
                let positions: Vec<usize> = (start..start + chunk.len()).collect();
                let logits = span(rec, ENGINE, "MoeTransformer::forward", chunk_no, || {
                    model.forward(chunk, &positions, &mut kv)
                });
                argmax(logits.row(chunk.len() - 1)).hash(&mut h);
                chunk_no += 1;
            }
            op_s.push(cpu_now() - t);
        }
        let config = model.config().clone();
        let stats = model.take_stats().expect("statistics are enabled in setup");
        for layer in 0..stats.num_layers() {
            stats.layer(layer).hash(&mut h);
        }
        let top_k = config.moe.as_ref().map_or(0, |m| m.top_k);
        let moe_layers = config.num_layers - config.first_k_dense_layers;
        let expected = (PREFILL_TOKENS * top_k * moe_layers) as u64;
        let ops = self.docs.len() as u64;
        Outcome {
            op_s,
            work: PREFILL_TOKENS as u64,
            digest: h.finish(),
            check: 0,
            attempted: ops,
            failed: if stats.total_assignments() == expected {
                0
            } else {
                ops
            },
            counts: BTreeMap::from([
                (
                    "engine.routing.assignments".into(),
                    stats.total_assignments() as f64,
                ),
                (
                    "engine.routing.max_over_mean".into(),
                    stats.mean_imbalance(),
                ),
            ]),
        }
    }
}

/// Conversations served per body.
const CONVERSATIONS: usize = 8;
/// Cumulative turns per conversation.
const TURNS: usize = 4;
/// Prompt tokens each turn adds.
const TURN_TOKENS: usize = 32;
/// Tokens generated greedily per request.
pub const GEN_TOKENS: usize = 24;

/// `engine-serve` inputs: a server with a prefix cache and a tight KV pool
/// (so preemption and recompute happen), and every prompt.
pub struct Serve {
    server: LiveServer,
    prompts: Vec<Vec<usize>>,
}

impl Serve {
    /// Prompts in submission order, turn-major: turn `t` of every
    /// conversation is the first `32 t` tokens of its stream, and all of
    /// turn `t` is submitted before turn `t + 1`.
    pub fn prompts(seed: u64) -> Vec<Vec<usize>> {
        let vocab = analogue_config(&deepseek_vl2_tiny()).vocab_size;
        let streams: Vec<Vec<usize>> = (0..CONVERSATIONS)
            .map(|c| {
                mme_tokens(
                    derive_seed(seed, 0x5e57 + c as u64),
                    TURNS * TURN_TOKENS,
                    vocab,
                )
            })
            .collect();
        (1..=TURNS)
            .flat_map(|t| streams.iter().map(move |s| s[..t * TURN_TOKENS].to_vec()))
            .collect()
    }

    /// Submission indices of every conversation's last turn.
    pub fn last_turns() -> Range<usize> {
        (TURNS - 1) * CONVERSATIONS..TURNS * CONVERSATIONS
    }

    fn new(seed: u64) -> Self {
        let sched = SchedulerConfig {
            max_running: 16,
            max_batched_tokens: 512,
            block_tokens: 16,
            total_blocks: 96,
        };
        let server = LiveServer::new(vlm_analogue(seed), sched)
            .with_prefix_cache(PrefixCache::new(16, 16384));
        Self {
            server,
            prompts: Self::prompts(seed),
        }
    }

    fn run(mut self, rec: &Shared) -> Outcome {
        let requested: usize = self.prompts.iter().map(|p| p.len() + GEN_TOKENS).sum();
        let server = &mut self.server;
        let ids: Vec<_> = self
            .prompts
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                span(rec, RUNTIME, "LiveServer::submit", i, || {
                    server.submit(p, GEN_TOKENS)
                })
            })
            .collect();
        let mut op_s = Vec::new();
        let mut peak_blocks = 0;
        loop {
            let t = cpu_now();
            let more = span(rec, RUNTIME, "LiveServer::step", op_s.len(), || {
                server.step()
            });
            if !more {
                break;
            }
            op_s.push(cpu_now() - t);
            peak_blocks = peak_blocks.max(server.used_blocks());
        }
        let (hits, misses, saved) = server.prefix_stats().unwrap_or_default();
        let forwarded = server.tokens_processed();
        let outputs = span(rec, RUNTIME, "LiveServer::run", 0, || self.server.run());

        let served: Vec<&[usize]> = ids
            .iter()
            .map(|id| outputs.get(id).map_or(&[][..], Vec::as_slice))
            .collect();
        let failed = served.iter().filter(|o| o.len() != GEN_TOKENS).count() as u64;
        let lookups = (hits + misses).max(1);
        Outcome {
            work: requested as u64,
            digest: digest_of(&served),
            check: digest_of(&served[Self::last_turns()]),
            attempted: ids.len() as u64,
            failed,
            counts: BTreeMap::from([
                ("runtime.live_step.calls".into(), count(op_s.len())),
                (
                    "runtime.prefix.hit_ratio".into(),
                    hits as f64 / lookups as f64,
                ),
                ("runtime.prefix.tokens_saved".into(), saved as f64),
                ("runtime.tokens_forwarded".into(), forwarded as f64),
                ("runtime.tokens_requested".into(), count(requested)),
                (
                    "runtime.forwarded_per_requested".into(),
                    forwarded as f64 / requested as f64,
                ),
                ("runtime.kv.peak_used_blocks".into(), count(peak_blocks)),
            ]),
            op_s,
        }
    }
}

// ---------------------------------------------------------------------------
// cluster-diurnal and cluster-day
// ---------------------------------------------------------------------------

/// Simulated requests in the diurnal stream.
const DIURNAL_REQUESTS: usize = 100_000;
/// Replicas in the diurnal cell.
const DIURNAL_REPLICAS: usize = 1000;
/// TTFT target both cluster workloads report attainment against (s).
pub const TTFT_SLO_S: f64 = 0.1;

/// A built cluster simulation and the handles its run reports through.
pub struct Cluster {
    sim: ClusterSim,
    blocks: Rc<RefCell<Vec<f64>>>,
    decisions: Option<DecisionLog>,
}

/// A cluster run's results.
pub struct ClusterRun {
    /// The simulator's report.
    pub report: ClusterReport,
    /// Controller decisions (empty without a controller).
    pub decisions: Vec<Decision>,
    /// On-CPU seconds per block of `ARRIVAL_BLOCK` simulated arrivals.
    pub blocks: Vec<f64>,
}

impl Cluster {
    /// The `BENCH_cluster` scenario: 1000 OLMoE-1B-7B/H100 replicas,
    /// least-outstanding routing, a 2 s TTFT timeout with retries and a
    /// seeded crash plan, fed a diurnal 400→2000 qps stream.
    pub fn diurnal(requests: usize, seed: u64, rec: Shared) -> Self {
        let model = PerfModel::h100(olmoe_1b_7b());
        let spec = WorkloadSpec {
            arrivals: ArrivalProcess::Diurnal {
                base_qps: 400.0,
                peak_qps: 2000.0,
                period_s: 300.0,
            },
            num_requests: requests,
            tenants: vec![TenantSpec::uniform("u", 1.0, (128, 512), (16, 64))],
        };
        let mut cfg = ClusterConfig {
            replicas: DIURNAL_REPLICAS,
            policy: RoutePolicy::LeastOutstanding,
            prefix_capacity: 0,
            seed,
            ..ClusterConfig::default()
        };
        cfg.router.ttft_timeout_s = 2.0;
        let faults = FaultPlan::random_crashes(seed, DIURNAL_REPLICAS, 15.0, 10, 5.0);
        let blocks = Rc::new(RefCell::new(Vec::new()));
        let source = TimedSource::new(TraceSource::new(generate(&spec, seed)), rec, blocks.clone());
        let sched = scheduler_config_for(&model, 2048);
        Self {
            sim: ClusterSim::with_source(&model, sched, cfg, faults, Box::new(source)),
            blocks,
            decisions: None,
        }
    }

    /// The `ext-ctrl` controlled day rebuilt from public APIs with every
    /// seed replaced by `seed`: the fleet starts on the night-sized fp16
    /// incumbent under the warm re-planner, with canary rollouts, spot
    /// reclaims on slots 8-19 and a controller tick every 2.5 s.
    pub fn day(seed: u64, rec: Shared) -> Self {
        let full_spec = day_planner_spec(SearchSpace::minimal(), seed);
        let day = search(&full_spec, &day_sketch(day_mean_qps()));
        let shape = day
            .scored
            .iter()
            .filter(|c| c.config.plan.degree == 1)
            .min_by_key(|c| candidate_rank(c))
            .expect("the grid includes the single-device layout")
            .config;
        let mut fp16 = SearchSpace::minimal();
        fp16.precisions = vec![Precision::F16];
        let night = search(&day_planner_spec(fp16, seed), &day_sketch(DAY_PHASES[0].0));
        let incumbent: CandidateConfig = night
            .scored
            .iter()
            .filter(|c| c.config.plan == shape.plan)
            .min_by_key(|c| candidate_rank(c))
            .expect("the fp16 grid covers the pinned layout")
            .config;
        let (engine, _) = build_engine(&full_spec, &incumbent).expect("incumbent is feasible");
        let mut sched = scheduler_config_for(&engine, 2048);
        sched.max_batched_tokens = incumbent.max_batch_tokens;

        let mut reach = ReachableSpace::rolling(12);
        reach.allow_plan_change = false;
        let ctl = Controller::new(day_controller_config(), engine.clone(), sched).with_replanner(
            full_spec,
            day_sketch(day_mean_qps()),
            incumbent,
            reach,
        );
        let decisions = ctl.log_handle();
        let spot_slots: Vec<usize> = (8..20).collect();
        let faults = FaultPlan::spot_preemptions(seed, &spot_slots, day_len_s(), 80.0);
        let cfg = ClusterConfig {
            replicas: incumbent.replicas.max(2),
            policy: RoutePolicy::LeastOutstanding,
            seed,
            prefix_capacity: 0,
            ..ClusterConfig::default()
        };
        let blocks = Rc::new(RefCell::new(Vec::new()));
        let source = TimedSource::new(
            TraceSource::new(day_trace(seed)),
            rec.clone(),
            blocks.clone(),
        );
        let sim = ClusterSim::with_source(&engine, sched, cfg, faults, Box::new(source))
            .with_controller(Box::new(TimedHook::new(ctl, rec)), DAY_TICK_S);
        Self {
            sim,
            blocks,
            decisions: Some(decisions),
        }
    }

    /// Run the simulation to completion.
    pub fn simulate(self, rec: &Shared) -> ClusterRun {
        let sim = self.sim;
        let report = span(rec, CLUSTER, "ClusterSim::run", 0, || {
            sim.run(&mut Tracer::disabled())
        });
        let decisions = self
            .decisions
            .map(|log| log.borrow().clone())
            .unwrap_or_default();
        let blocks = self.blocks.take();
        ClusterRun {
            report,
            decisions,
            blocks,
        }
    }

    fn run(self, rec: &Shared) -> Outcome {
        let ClusterRun {
            report: r,
            decisions,
            blocks,
        } = self.simulate(rec);
        let failed = unsettled(&r) as u64;
        let digest = digest_of(&(moe_json::to_string(&r), format!("{decisions:?}")));
        Outcome {
            op_s: blocks,
            work: r.submitted as u64,
            digest,
            check: 0,
            attempted: r.submitted as u64,
            failed,
            counts: BTreeMap::from([
                ("cluster.events".into(), r.events as f64),
                (
                    "cluster.events_per_request".into(),
                    r.events as f64 / r.submitted.max(1) as f64,
                ),
                ("cluster.completed".into(), count(r.completed)),
                ("cluster.timed_out".into(), count(r.timed_out)),
                ("cluster.dropped".into(), count(r.dropped)),
                ("cluster.retries".into(), count(r.retries)),
                ("cluster.crashes".into(), count(r.crashes)),
                ("cluster.preemptions".into(), count(r.preemptions)),
                ("cluster.peak_live".into(), count(r.peak_live)),
                ("cluster.sim.ttft_p99_s".into(), r.ttft.p99_s),
                (
                    "cluster.sim.slo_attainment".into(),
                    r.slo_attainment(TTFT_SLO_S),
                ),
                ("ctrl.decisions".into(), count(decisions.len())),
                ("ctrl.reconfigs".into(), count(r.reconfigs)),
            ]),
        }
    }
}

/// Requests the report does not account for: submitted minus completed,
/// timed out, dropped and rejected.
pub fn unsettled(r: &ClusterReport) -> usize {
    r.submitted
        .abs_diff(r.completed + r.timed_out + r.dropped + r.rejected)
}

/// The controlled day: (offered qps, duration s) per phase — a diurnal
/// ramp with a 3200 qps flash crowd at midday.
const DAY_PHASES: [(f64, f64); 8] = [
    (400.0, 20.0),
    (700.0, 20.0),
    (1000.0, 20.0),
    (1800.0, 10.0),
    (3200.0, 15.0),
    (1000.0, 20.0),
    (600.0, 20.0),
    (300.0, 25.0),
];
/// Simulated seconds between controller ticks.
const DAY_TICK_S: f64 = 2.5;
/// TTFT and inter-token-latency objectives of the day (s).
const DAY_SLO: (f64, f64) = (0.1, 0.2);

fn day_tenant() -> TenantSpec {
    TenantSpec::uniform("web", 1.0, (128, 256), (16, 64))
}

fn day_trace(seed: u64) -> RequestTrace {
    let mut parts = Vec::new();
    let mut offset = 0.0;
    for (i, &(qps, dur)) in DAY_PHASES.iter().enumerate() {
        let n = (qps * dur).round() as usize;
        let seg = generate(
            &WorkloadSpec::poisson(qps, n.max(1), day_tenant()),
            seed ^ ((i as u64) << 8),
        );
        parts.push(seg.shifted(offset));
        offset += dur;
    }
    RequestTrace::merge(parts)
}

fn day_len_s() -> f64 {
    DAY_PHASES.iter().map(|&(_, d)| d).sum()
}

fn day_mean_qps() -> f64 {
    DAY_PHASES.iter().map(|&(q, d)| q * d).sum::<f64>() / day_len_s()
}

fn day_sketch(qps: f64) -> WorkloadSketch {
    WorkloadSketch {
        offered_qps: qps,
        mean_input: 192,
        mean_output: 40,
        max_seq: 2048,
    }
}

fn day_planner_spec(space: SearchSpace, seed: u64) -> PlannerSpec {
    PlannerSpec {
        model: olmoe_1b_7b(),
        draft: None,
        fleet: FleetSpec::h100(12),
        workload: WorkloadSpec::poisson(200.0, 64, day_tenant()),
        slo: SloSpec::latency(DAY_SLO.0, DAY_SLO.1),
        space,
        mode: SearchMode::Exhaustive,
        refine_top_k: 1,
        seed,
    }
}

/// SLO-meeting first, then fewest devices, then cheapest.
fn candidate_rank(c: &CandidateScore) -> (u8, usize, u64, String) {
    (
        u8::from(!c.meets_slo),
        c.config.devices(),
        c.cost_per_token_device_s.to_bits(),
        c.label.clone(),
    )
}

fn day_controller_config() -> ControllerConfig {
    let mut cc = ControllerConfig::for_slo(DAY_SLO.0, DAY_SLO.1);
    cc.target_attainment = 0.95;
    cc.window_ticks = 3;
    cc.upscale_burn = 0.5;
    cc.downscale_burn = 0.15;
    cc.calm_ticks = 6;
    cc.cooldown_ticks = 1;
    cc.min_replicas = 2;
    cc.max_replicas = 10;
    cc.max_scale_step = 6;
    cc.provision_delay_s = 3.0;
    cc.migration_s = 3.0;
    cc.spot_scaleout = true;
    cc.spot_price_factor = 0.35;
    cc.replan_every_ticks = 1;
    cc.canary_fraction = 0.15;
    cc.canary_ticks = 4;
    cc.promote_burn = 1.0;
    cc
}

// ---------------------------------------------------------------------------
// plan-sweep
// ---------------------------------------------------------------------------

/// Seeded rate/SLO draws per (model, fleet) pair.
const PLAN_DRAWS: usize = 5;
/// H100 fleet sizes planned for.
const PLAN_FLEETS: [usize; 4] = [1, 2, 4, 8];
/// Index in [`plan_specs`] of Mixtral-8x7B on 8 H100 (first draw): the
/// spec the search probe times and the beam oracle checks.
pub const PROBE_SPEC: usize = 3 * PLAN_DRAWS;

fn plan_models() -> [ModelConfig; 6] {
    [
        mixtral_8x7b(),
        olmoe_1b_7b(),
        qwen3_30b_a3b(),
        deepseek_v2_lite(),
        phi35_moe(),
        qwen15_moe_a27b(),
    ]
}

/// Every planner spec of the sweep: models x fleets x draws, each over
/// the paper grid with exhaustive search and four refinements. Draw `d`
/// samples its rate and SLO from the `d`-th of [`PLAN_DRAWS`] equal
/// strata of each range: refinement cost grows steeply as the rate
/// falls, so unstratified draws would make the sweep's cost depend on
/// the seed far more than on the code.
pub fn plan_specs(seed: u64) -> Vec<PlannerSpec> {
    let mut specs = Vec::new();
    for model in plan_models() {
        for devices in PLAN_FLEETS {
            for d in 0..PLAN_DRAWS {
                let spec_seed = derive_seed(seed, specs.len() as u64);
                let mut rng = rng_from_seed(spec_seed);
                let mut stratum = |lo: f64, hi: f64| {
                    lo + (hi - lo) * (d as f64 + rng.next_f64()) / PLAN_DRAWS as f64
                };
                let rate_qps = stratum(2.0, 32.0);
                let ttft_s = stratum(0.5, 2.0);
                let itl_s = stratum(0.02, 0.1);
                specs.push(PlannerSpec {
                    model: model.clone(),
                    draft: None,
                    fleet: FleetSpec::h100(devices),
                    workload: WorkloadSpec::poisson(
                        rate_qps,
                        40,
                        TenantSpec::uniform("chat", 1.0, (128, 512), (32, 128)),
                    ),
                    slo: SloSpec::latency(ttft_s, itl_s),
                    space: SearchSpace::paper(),
                    mode: SearchMode::Exhaustive,
                    refine_top_k: 4,
                    seed: spec_seed,
                });
            }
        }
    }
    specs
}

fn run_plans(specs: &[PlannerSpec], rec: &Shared) -> Outcome {
    let mut h = DefaultHasher::new();
    let mut op_s = Vec::with_capacity(specs.len());
    let mut failed = 0;
    let mut counts: BTreeMap<String, f64> = BTreeMap::new();
    let mut add = |key: &str, v: usize| *counts.entry(key.to_string()).or_insert(0.0) += v as f64;
    for (i, spec) in specs.iter().enumerate() {
        let t = cpu_now();
        let result = span(rec, PLAN, "moe_plan::plan", i, || plan(spec));
        op_s.push(cpu_now() - t);
        match result {
            Ok(report) => {
                moe_json::to_string(&report).hash(&mut h);
                add("plan.enumerated", report.counts.enumerated);
                add("plan.scored", report.counts.scored);
                add("plan.infeasible_oom", report.counts.infeasible_oom);
                add("plan.frontier", report.frontier.len());
                add("plan.refined", report.refined.len());
                add("plan.feasible_calls", 1);
            }
            // The fleet cannot host the model: a correct planner answer.
            Err(PlanFailure::NoFeasibleCandidate) => "no feasible candidate".hash(&mut h),
            Err(e) => {
                e.to_string().hash(&mut h);
                failed += 1;
            }
        }
    }
    Outcome {
        op_s,
        work: specs.len() as u64,
        digest: h.finish(),
        check: 0,
        attempted: specs.len() as u64,
        failed,
        counts,
    }
}
