//! Seeded random operation sequences against the continuous-batching
//! `Scheduler`: submits, plans, commits and cancels — cancels also
//! between a plan and its commit — over KV pools tight enough to force
//! preemptions.
//!
//! After every operation the harness checks the scheduler's invariants:
//! `running` is in admission-stamp order and in id order, the running
//! context sum equals Σ `context_len` over running, the block pool
//! balances, and the blocks in use are exactly those owned by running
//! sequences. At drain every
//! request finished exactly once or was canceled, and the pool is empty.
//! Finished data is read from the records `commit_step` hands out; the
//! scheduler keeps none of it.
//!
//! The plans (kind, ids, tokens), the cancel results and the finish
//! order also hash to a fixed FNV-1a digest, recorded before the scheduler's state moved from
//! id-keyed maps to dense id-indexed vectors, so any change of decision
//! shows up here.

mod common;

use common::{fnv1a, FNV_OFFSET};
use moe_runtime::{Request, RequestId, Scheduler, SchedulerConfig, SeqState, StepPlan};
use moe_tensor::rng::{rng_from_seed, DetRng};

/// Digest of every run of [`drive`] over [`CONFIGS`] and [`SEEDS`].
const GOLDEN_DIGEST: u64 = 0xab62_8e96_aafb_4d52;

/// Requests submitted per run.
const REQUESTS: usize = 160;
const SEEDS: std::ops::Range<u64> = 0..12;

/// `(max_running, max_batched_tokens, total_blocks)`, 16-token blocks.
/// The largest request (160 prompt + 96 generated tokens) needs 16
/// blocks, so every pool can always run a lone sequence to completion.
const CONFIGS: [(usize, usize, usize); 4] =
    [(4, 64, 20), (8, 256, 24), (32, 512, 40), (64, 8192, 4096)];

fn hash_u64(hash: &mut u64, word: u64) {
    fnv1a(hash, &word.to_le_bytes());
}

fn hash_plan(hash: &mut u64, plan: &StepPlan) {
    let (kind, ids, tokens) = match plan {
        StepPlan::Prefill { ids, tokens } => (0, ids.as_slice(), *tokens),
        StepPlan::Decode { ids } => (1, ids.as_slice(), 0),
        StepPlan::Idle => (2, &[][..], 0),
    };
    hash_u64(hash, kind);
    hash_u64(hash, ids.len() as u64);
    for &id in ids {
        hash_u64(hash, id);
    }
    hash_u64(hash, tokens as u64);
}

/// Per-run bookkeeping: what happened to each id, one entry per
/// submitted request, and the preemptions the finished ones saw.
struct Ledger {
    finished: Vec<usize>,
    canceled: Vec<bool>,
    preemptions: usize,
}

fn check_invariants(s: &Scheduler, what: &str) {
    let running = s.running();
    let stamps: Vec<u64> = running
        .iter()
        .map(|&id| s.seq(id).expect("running id has a record").admitted_at)
        .collect();
    assert!(
        stamps.windows(2).all(|w| w[0] < w[1]),
        "{what}: running not in admission order: {stamps:?}"
    );
    assert!(
        running.windows(2).all(|w| w[0] < w[1]),
        "{what}: running not in id order: {running:?}"
    );
    for &id in running {
        assert_eq!(s.seq(id).unwrap().state, SeqState::Running, "{what}");
    }
    let ctx: usize = running
        .iter()
        .map(|&id| s.seq(id).unwrap().context_len())
        .sum();
    assert_eq!(s.running_context_tokens(), ctx, "{what}: context sum");
    // Only running sequences own blocks, so the pool balances against
    // their records' counts.
    let owned: usize = running.iter().map(|&id| s.seq(id).unwrap().blocks).sum();
    s.blocks().check_invariants(owned);
}

/// Commit `plan` the way a serving loop does, skipping ids canceled
/// while it was in flight, and check each finished record it hands out.
fn commit(s: &mut Scheduler, plan: StepPlan, ledger: &mut Ledger, hash: &mut u64) {
    let mut finished = Vec::new();
    s.commit_step(plan, &mut finished);
    for (id, seq) in finished {
        hash_u64(hash, 3);
        hash_u64(hash, id);
        ledger.finished[id as usize] += 1;
        assert_eq!(seq.state, SeqState::Finished);
        assert_eq!(seq.generated, seq.request.max_new_tokens);
        assert_eq!(seq.blocks, 0, "a finished sequence owns no blocks");
        assert!(s.seq(id).is_none(), "finished record is gone");
        ledger.preemptions += seq.preemptions;
    }
}

fn cancel_some(s: &mut Scheduler, rng: &mut DetRng, ledger: &mut Ledger, hash: &mut u64) {
    let submitted = ledger.canceled.len();
    if submitted == 0 {
        return;
    }
    let id = rng.next_below(submitted) as RequestId;
    let ok = s.cancel(id);
    hash_u64(hash, 4);
    hash_u64(hash, id);
    hash_u64(hash, u64::from(ok));
    if ok {
        assert!(s.seq(id).is_none(), "canceled record is gone");
        ledger.canceled[id as usize] = true;
    }
}

/// One seeded run; returns how many preemptions it saw.
fn drive(cfg: SchedulerConfig, seed: u64, hash: &mut u64) -> usize {
    let mut rng = rng_from_seed(seed);
    let mut s = Scheduler::new(cfg);
    let mut ledger = Ledger {
        finished: Vec::new(),
        canceled: Vec::new(),
        preemptions: 0,
    };
    let mut in_flight: Option<StepPlan> = None;
    let mut step = 0usize;
    loop {
        step += 1;
        assert!(step < 200_000, "seed {seed}: scheduler livelock");
        let draining = ledger.canceled.len() == REQUESTS;
        match rng.next_below(50) {
            0..=3 if !draining => {
                let prompt = 1 + rng.next_below(160);
                let new = 1 + rng.next_below(96);
                let id = s.submit(Request::new(prompt, new));
                assert_eq!(id as usize, ledger.canceled.len(), "ids are dense");
                ledger.finished.push(0);
                ledger.canceled.push(false);
            }
            4 => cancel_some(&mut s, &mut rng, &mut ledger, hash),
            _ => match in_flight.take() {
                Some(plan) => commit(&mut s, plan, &mut ledger, hash),
                None => {
                    let plan = s.plan_step();
                    hash_plan(hash, &plan);
                    if plan == StepPlan::Idle && draining {
                        break;
                    }
                    in_flight = Some(plan);
                }
            },
        }
        check_invariants(&s, &format!("seed {seed} step {step}"));
    }

    assert!(!s.has_work(), "seed {seed}: idle with work left");
    assert_eq!(s.blocks().used_blocks(), 0, "seed {seed}: leaked blocks");
    assert_eq!(s.record_window(), 0, "seed {seed}: records outlive drain");
    for (id, (&finished, &canceled)) in ledger.finished.iter().zip(&ledger.canceled).enumerate() {
        assert!(
            finished + usize::from(canceled) == 1,
            "seed {seed}: id {id} finished {finished}x, canceled {canceled}"
        );
    }
    ledger.preemptions
}

#[test]
fn random_operation_sequences_keep_invariants_and_golden_digest() {
    let mut hash = FNV_OFFSET;
    for (max_running, max_batched_tokens, total_blocks) in CONFIGS {
        let cfg = SchedulerConfig {
            max_running,
            max_batched_tokens,
            block_tokens: 16,
            total_blocks,
        };
        let preemptions: usize = SEEDS.map(|seed| drive(cfg, seed, &mut hash)).sum();
        if total_blocks < 100 {
            assert!(preemptions > 0, "{cfg:?}: the pool must preempt");
        }
    }
    assert_eq!(
        hash, GOLDEN_DIGEST,
        "scheduler decisions moved: digest {hash:#018x}"
    );
}

/// Concurrency held by [`peak_record_window`].
const CONCURRENCY: usize = 48;

/// Stream `requests` requests through one scheduler, topping its
/// waiting + running count back up to [`CONCURRENCY`] before every plan,
/// over a pool tight enough to preempt; returns the longest the record
/// window got and the preemptions the finished requests saw.
fn peak_record_window(requests: usize) -> (usize, usize) {
    let mut s = Scheduler::new(SchedulerConfig {
        max_running: 32,
        max_batched_tokens: 512,
        block_tokens: 16,
        total_blocks: 160,
    });
    let (mut submitted, mut peak, mut preemptions) = (0, 0, 0);
    let mut finished = Vec::new();
    loop {
        while submitted < requests && s.num_waiting() + s.num_running() < CONCURRENCY {
            // Spread by multiplicative steps: 1-96 prompt, 1-64 new tokens.
            s.submit(Request::new(
                1 + submitted * 37 % 96,
                1 + submitted * 29 % 64,
            ));
            submitted += 1;
        }
        peak = peak.max(s.record_window());
        let plan = s.plan_step();
        if plan == StepPlan::Idle {
            break;
        }
        s.commit_step(plan, &mut finished);
        for (_, seq) in finished.drain(..) {
            preemptions += seq.preemptions;
        }
    }
    assert_eq!(submitted, requests);
    assert!(!s.has_work());
    assert_eq!(s.record_window(), 0);
    (peak, preemptions)
}

/// The scheduler's records are sized by concurrency, not trace length:
/// four times the requests at the same concurrency leave the peak record
/// window where it was, a small multiple of `max_running`.
#[test]
fn record_window_is_bounded_by_concurrency_not_trace_length() {
    let (short, preemptions) = peak_record_window(20_000);
    assert!(preemptions > 0, "the pool must preempt");
    let (long, _) = peak_record_window(80_000);
    assert_eq!(short, long, "the window grew with the trace");
    assert!(
        (CONCURRENCY..=8 * 32).contains(&long),
        "peak window {long} is not a small multiple of max_running"
    );
}
