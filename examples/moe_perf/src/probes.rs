//! Probes: each replays one layer's public kernel at a fixed shape and
//! reports the median host time of a call. They run after the body in
//! the traced child, identically for every workload, so a per-layer
//! change shows up as the same probe moving everywhere.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use moe_cluster::generate;
use moe_cluster::router::{ReplicaLoad, RoutePolicy, Router};
use moe_engine::attention::{attention_forward, attention_forward_multi, AttentionParams};
use moe_engine::moe::{moe_forward_fused, route};
use moe_engine::{KvStore, PagedKv};
use moe_gpusim::perfmodel::Phase;
use moe_gpusim::PerfModel;
use moe_model::registry::olmoe_1b_7b;
use moe_plan::{search, sketch_of, PlannerSpec};
use moe_runtime::metrics::percentile;
use moe_runtime::{Request, Scheduler, SchedulerConfig, StepPlan};
use moe_tensor::rng::{derive_seed, rng_from_seed};
use moe_tensor::Matrix;
use moe_trace::Histogram;

use crate::workloads::{plan_specs, vlm_analogue, CHUNK_TOKENS, PROBE_SPEC};

/// Timed batches per batched probe (after one untimed warm-up batch).
const BATCHES: usize = 15;
/// Rows of a decode-shaped probe (sequences in one batched step).
const DECODE_ROWS: usize = 16;
/// Context each decode-shaped probe sequence already holds.
const DECODE_CTX: usize = 64;

fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Median seconds per call over [`BATCHES`] batches of `iters` calls.
fn batched<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut per_call = Vec::with_capacity(BATCHES);
    for batch in 0..=BATCHES {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        if batch > 0 {
            per_call.push(t.elapsed().as_secs_f64() / iters as f64);
        }
    }
    median(&per_call)
}

/// Median seconds of `run` timed alone over `n` calls, each handed fresh
/// state built (untimed) by `setup`.
fn each<S, R>(n: usize, mut setup: impl FnMut() -> S, mut run: impl FnMut(S) -> R) -> f64 {
    let mut secs = Vec::with_capacity(n);
    for _ in 0..n {
        let state = setup();
        let t = Instant::now();
        black_box(run(state));
        secs.push(t.elapsed().as_secs_f64());
    }
    median(&secs)
}

/// Run every probe; values are keyed by per-layer metric name.
pub fn run_all(seed: u64) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    engine(seed, &mut m);
    scheduler(&mut m);
    pricing(&mut m);
    router_and_histogram(seed, &mut m);
    let spec = plan_specs(seed).swap_remove(PROBE_SPEC);
    m.insert("plan.search.ms".into(), 1e3 * search_seconds(&[spec], 3));
    m
}

/// Kernels of the engine workloads' model, at their chunk (32 rows) and
/// decode (16 rows) shapes.
fn engine(seed: u64, m: &mut BTreeMap<String, f64>) {
    let mut model = vlm_analogue(seed);
    let cfg = model.config().clone();
    let moe = cfg.moe.clone().expect("the analogue is an MoE model");
    let params = AttentionParams {
        num_heads: cfg.num_heads,
        num_kv_heads: cfg.num_kv_heads,
        head_dim: cfg.head_dim,
        rope_theta: cfg.rope_theta,
    };
    let (layers, kv_dim, hidden) = (cfg.num_layers, params.kv_dim(), cfg.hidden_size);
    let w = model.weights().layers[0].clone();
    let x_chunk = Matrix::random(CHUNK_TOKENS, hidden, derive_seed(seed, 0x32), 1.0);
    let x_decode = Matrix::random(DECODE_ROWS, hidden, derive_seed(seed, 0x16), 1.0);
    let mut rng = rng_from_seed(derive_seed(seed, 0x70c));
    let tokens: Vec<usize> = (0..DECODE_CTX)
        .map(|_| rng.next_below(cfg.vocab_size))
        .collect();
    let chunk_pos: Vec<usize> = (0..CHUNK_TOKENS).collect();
    let decode_pos = vec![DECODE_CTX; DECODE_ROWS];
    let fresh_kv = || PagedKv::new(layers, kv_dim);
    // One sequence holding DECODE_CTX tokens in every layer, cloned per
    // decode-shaped call so every call sees the same context.
    let ctx_kv = {
        let mut kv = fresh_kv();
        let pos: Vec<usize> = (0..DECODE_CTX).collect();
        model.forward(&tokens, &pos, &mut kv);
        kv
    };
    let decode_kvs = || vec![ctx_kv.clone(); DECODE_ROWS];

    let attention = each(200, fresh_kv, |mut kv| {
        attention_forward(&params, &w, &x_chunk, &chunk_pos, &mut kv, 0)
    });
    let attention_multi = each(200, decode_kvs, |mut kvs| {
        let mut refs: Vec<&mut dyn KvStore> =
            kvs.iter_mut().map(|k| k as &mut dyn KvStore).collect();
        attention_forward_multi(&params, &w, &x_decode, &decode_pos, &mut refs, 0)
    });
    let route_s = batched(200, || route(&w, &moe, &x_chunk));
    let moe_ffn = batched(40, || moe_forward_fused(&w, &moe, &x_chunk, None, None, 0));
    let moe_ffn_decode = batched(40, || moe_forward_fused(&w, &moe, &x_decode, None, None, 0));
    let a = Matrix::random(CHUNK_TOKENS, hidden, derive_seed(seed, 0xa), 1.0);
    let b = Matrix::random(hidden, cfg.vocab_size, derive_seed(seed, 0xb), 1.0);
    let lm_head = batched(200, || a.matmul(&b));
    let forward = each(15, fresh_kv, |mut kv| {
        model.forward(&tokens[..CHUNK_TOKENS], &chunk_pos, &mut kv)
    });
    let forward_multi = each(15, decode_kvs, |mut kvs| {
        let mut refs: Vec<&mut dyn KvStore> =
            kvs.iter_mut().map(|k| k as &mut dyn KvStore).collect();
        model.forward_multi(&tokens[..DECODE_ROWS], &decode_pos, &mut refs)
    });

    let probed = layers as f64 * (attention + moe_ffn) + lm_head;
    for (name, us) in [
        ("engine.attention.us", attention),
        ("engine.attention_multi.us", attention_multi),
        ("engine.route.us", route_s),
        ("engine.moe_ffn.us", moe_ffn),
        ("engine.moe_ffn_decode.us", moe_ffn_decode),
        ("tensor.lm_head.us", lm_head),
        ("engine.forward.us_per_token", forward / CHUNK_TOKENS as f64),
        (
            "engine.forward_multi.us_per_token",
            forward_multi / DECODE_ROWS as f64,
        ),
    ] {
        m.insert(name.into(), us * 1e6);
    }
    m.insert("engine.probe_coverage".into(), probed / forward);
}

/// Seconds of one `plan_step` and of one `commit_decode`, for decode
/// steps of `running` sequences that never finish: the median over
/// [`BATCHES`] batches of `steps` steps of each batch's mean.
fn decode_steps(running: usize, steps: usize) -> (f64, f64) {
    let prompt = 192;
    let mut s = Scheduler::new(SchedulerConfig {
        max_running: running,
        max_batched_tokens: running * prompt,
        block_tokens: 16,
        total_blocks: 1 << 16,
    });
    for _ in 0..running {
        s.submit(Request::new(prompt, 1 << 30));
    }
    if let StepPlan::Prefill { ids, .. } = s.plan_step() {
        s.commit_prefill(&ids);
    }
    let mut plan_s = Vec::with_capacity(BATCHES);
    let mut commit_s = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let (mut planning, mut committing, mut commits) = (0.0, 0.0, 0);
        for _ in 0..steps {
            let t = Instant::now();
            let plan = black_box(s.plan_step());
            let planned = Instant::now();
            if let StepPlan::Decode { ids } = plan {
                for &id in &ids {
                    black_box(s.commit_decode(id));
                }
                committing += planned.elapsed().as_secs_f64();
                commits += ids.len();
            }
            planning += (planned - t).as_secs_f64();
        }
        plan_s.push(planning / steps as f64);
        commit_s.push(committing / commits.max(1) as f64);
    }
    (median(&plan_s), median(&commit_s))
}

/// `Scheduler` decode planning at cluster-day batch size (300 running)
/// and at cluster-diurnal batch size (4 running).
fn scheduler(m: &mut BTreeMap<String, f64>) {
    let (plan_big, commit) = decode_steps(300, 20);
    let (plan_small, _) = decode_steps(4, 200);
    m.insert("runtime.scheduler.plan_step_big.us".into(), plan_big * 1e6);
    m.insert(
        "runtime.scheduler.plan_step_small.us".into(),
        plan_small * 1e6,
    );
    m.insert("runtime.scheduler.commit_decode.ns".into(), commit * 1e9);
}

/// Uncached `PerfModel` pricing over a batch 1-256 x context 128-2048 grid.
fn pricing(m: &mut BTreeMap<String, f64>) {
    let model = PerfModel::h100(olmoe_1b_7b());
    let grid: Vec<(usize, usize)> = (0..9)
        .flat_map(|b| (0..5).map(move |c| (1usize << b, 128usize << c)))
        .collect();
    let n = grid.len() as f64;
    let decode = batched(20, || {
        grid.iter()
            .map(|&(b, ctx)| model.decode_step_time(b, ctx))
            .sum::<f64>()
    });
    let prefill = batched(20, || {
        grid.iter()
            .map(|&(b, ctx)| model.forward_time(b * ctx, b, ctx, Phase::Prefill))
            .sum::<f64>()
    });
    m.insert("gpusim.decode_step_time.ns".into(), decode / n * 1e9);
    m.insert("gpusim.forward_time_prefill.ns".into(), prefill / n * 1e9);
}

/// `Router::choose` over the diurnal cell's 1000 replicas, and
/// `Histogram::record`, the cluster's per-completion aggregation.
fn router_and_histogram(seed: u64, m: &mut BTreeMap<String, f64>) {
    let mut rng = rng_from_seed(derive_seed(seed, 0x4007));
    let loads: Vec<ReplicaLoad> = (0..1000)
        .map(|_| ReplicaLoad {
            alive: true,
            queued: rng.next_below(3),
            outstanding: rng.next_below(8),
        })
        .collect();
    let mut router = Router::new(RoutePolicy::LeastOutstanding, seed);
    let choose = batched(1000, || router.choose(&loads, None));
    m.insert("cluster.router.choose.ns".into(), choose * 1e9);

    let samples: Vec<f64> = (0..4096).map(|_| 1e-4 + rng.next_f64()).collect();
    let mut hist = Histogram::new();
    let pass = batched(20, || {
        for &v in &samples {
            hist.record(v);
        }
    });
    black_box(&hist);
    m.insert(
        "trace.histogram.record.ns".into(),
        pass / samples.len() as f64 * 1e9,
    );
}

/// Summed median seconds of one `moe_plan::search` per spec, over `n`
/// calls each, on the workload its own seed materializes.
pub fn search_seconds(specs: &[PlannerSpec], n: usize) -> f64 {
    specs
        .iter()
        .map(|spec| {
            let sketch = sketch_of(&generate(&spec.workload, spec.seed));
            each(n, || (), |()| search(spec, &sketch))
        })
        .sum()
}
