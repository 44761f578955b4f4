//! Paged vs contiguous KV-cache storage: append and full-sweep read; and
//! the KV bookkeeping of one continuous-batching decode step.

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
}

/// A scheduler with `running` never-ending sequences decoding, behind
/// `finished` one-token requests that already completed (a long-lived
/// replica keeps every finished record).
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
