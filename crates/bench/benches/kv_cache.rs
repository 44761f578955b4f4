//! Paged vs contiguous KV-cache storage: append and full-sweep read; and
//! the KV bookkeeping of one continuous-batching decode step, with no
//! sequence finishing and with a few finishing on every step.

use moe_bench::timing::Runner;
use moe_engine::kvcache::{ContiguousKv, KvStore, PagedKv};
use moe_runtime::{Request, Scheduler, SchedulerConfig, StepPlan};
use std::hint::black_box;

const LAYERS: usize = 4;
const KV_DIM: usize = 64;
const TOKENS: usize = 512;

fn fill<S: KvStore>(store: &mut S) {
    let k: Vec<f32> = (0..KV_DIM).map(|i| i as f32).collect();
    for l in 0..LAYERS {
        for t in 0..TOKENS {
            store.write(l, t, &k, &k);
        }
    }
}

fn main() {
    let r = Runner::from_args();

    r.bench("kv_append/contiguous", || {
        let mut s = ContiguousKv::new(LAYERS, KV_DIM);
        fill(&mut s);
        black_box(s.len())
    });
    r.bench("kv_append/paged", || {
        let mut s = PagedKv::new(LAYERS, KV_DIM);
        fill(&mut s);
        black_box(s.len())
    });

    let mut cont = ContiguousKv::new(LAYERS, KV_DIM);
    fill(&mut cont);
    let mut paged = PagedKv::new(LAYERS, KV_DIM);
    fill(&mut paged);
    let sum_all = |s: &dyn KvStore| -> f32 {
        let mut acc = 0.0;
        for l in 0..LAYERS {
            for t in 0..TOKENS {
                acc += s.key(l, t)[0] + s.value(l, t)[KV_DIM - 1];
            }
        }
        acc
    };
    r.bench("kv_read_sweep/contiguous", || black_box(sum_all(&cont)));
    r.bench("kv_read_sweep/paged", || black_box(sum_all(&paged)));

    let mut sched = busy_scheduler(300, 10_000);
    r.bench("scheduler/decode_step_300", || {
        let StepPlan::Decode { ids } = sched.plan_step() else {
            unreachable!("every running sequence decodes forever")
        };
        for &id in &ids {
            black_box(sched.commit_decode(id));
        }
        ids.len()
    });

    // The cluster-day shape: about 140 running sequences with outputs of
    // 16-79 tokens, so about three finish on every decode step. Each
    // iteration commits one decode step the way a replica does, taking
    // the finished records it hands out, then resubmits one request per
    // finish and commits the prefill that admits them, keeping the batch
    // full.
    let (mut sched, mut submitted) = churning_scheduler(140);
    r.bench("scheduler/decode_step_140_finishing", || {
        let plan = sched.plan_step();
        assert!(matches!(plan, StepPlan::Decode { .. }), "the batch decodes");
        let finished = black_box(sched.commit_step(plan)).len();
        for _ in 0..finished {
            sched.submit(churn_request(submitted));
            submitted += 1;
        }
        if finished > 0 {
            let refill = sched.plan_step();
            black_box(sched.commit_step(refill));
        }
        finished
    });
}

/// The `n`-th request of [`churning_scheduler`]'s stream: a 192-token
/// prompt and 16-79 new tokens, spread by a multiplicative step.
fn churn_request(n: usize) -> Request {
    Request::new(192, 16 + (n * 29) % 64)
}

/// A scheduler with `running` sequences of [`churn_request`] decoding;
/// returns it with the number of requests submitted so far.
fn churning_scheduler(running: usize) -> (Scheduler, usize) {
    let prompt = 192;
    let mut s = Scheduler::new(SchedulerConfig {
        max_running: running,
        max_batched_tokens: running * prompt,
        block_tokens: 16,
        total_blocks: 1 << 24,
    });
    for n in 0..running {
        s.submit(churn_request(n));
    }
    let admit = s.plan_step();
    s.commit_step(admit);
    (s, running)
}

/// A scheduler with `running` never-ending sequences decoding, behind
/// `finished` one-token requests that already completed (their records
/// are freed, so they only advance the ids).
fn busy_scheduler(running: usize, finished: usize) -> Scheduler {
    let prompt = 192;
    let mut s = Scheduler::new(SchedulerConfig {
        max_running: running,
        max_batched_tokens: running * prompt,
        block_tokens: 16,
        total_blocks: 1 << 24,
    });
    for _ in 0..finished {
        s.submit(Request::new(16, 1));
    }
    for _ in 0..running {
        s.submit(Request::new(prompt, usize::MAX));
    }
    while s.num_running() < running {
        let StepPlan::Prefill { ids, .. } = s.plan_step() else {
            unreachable!("admission comes first while requests wait")
        };
        s.commit_prefill(&ids);
    }
    s
}
