//! Seeded random operation sequences against the continuous-batching
//! `Scheduler`: submits, plans, commits and cancels — cancels also
//! between a plan and its commit — over KV pools tight enough to force
//! preemptions.
//!
//! After every operation the harness checks the scheduler's invariants:
//! `running` is in admission-stamp order, the running context sum equals
//! Σ `context_len` over running, the block pool balances, and the blocks
//! in use are exactly those owned by running sequences. At drain every
//! request finished exactly once or was canceled, and the pool is empty.
//!
//! The plans (kind, ids, tokens), the cancel results and the finish
//! order also hash to a fixed FNV-1a digest, recorded before the scheduler's state moved from
//! id-keyed maps to dense id-indexed vectors, so any change of decision
//! shows up here.

use moe_runtime::{Request, RequestId, Scheduler, SchedulerConfig, SeqState, StepPlan};
use moe_tensor::rng::{rng_from_seed, DetRng};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

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

fn fnv1a(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

fn hash_plan(hash: &mut u64, plan: &StepPlan) {
    let (kind, ids, tokens) = match plan {
        StepPlan::Prefill { ids, tokens } => (0, ids.as_slice(), *tokens),
        StepPlan::Decode { ids } => (1, ids.as_slice(), 0),
        StepPlan::Idle => (2, &[][..], 0),
    };
    fnv1a(hash, kind);
    fnv1a(hash, ids.len() as u64);
    for &id in ids {
        fnv1a(hash, id);
    }
    fnv1a(hash, tokens as u64);
}

/// Per-run bookkeeping: what happened to each id, one entry per
/// submitted request.
struct Ledger {
    finished: Vec<usize>,
    canceled: Vec<bool>,
}

impl Ledger {
    fn finish(&mut self, hash: &mut u64, id: RequestId) {
        fnv1a(hash, 3);
        fnv1a(hash, id);
        self.finished[id as usize] += 1;
    }
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
    for &id in running {
        assert_eq!(s.seq(id).unwrap().state, SeqState::Running, "{what}");
    }
    let ctx: usize = running
        .iter()
        .map(|&id| s.seq(id).unwrap().context_len())
        .sum();
    assert_eq!(s.running_context_tokens(), ctx, "{what}: context sum");
    s.blocks().check_invariants();
    let owned: usize = running.iter().map(|&id| s.blocks().owned_by(id)).sum();
    assert_eq!(s.blocks().used_blocks(), owned, "{what}: blocks in use");
}

/// Commit `plan` the way a serving loop does, skipping ids canceled
/// while it was in flight.
fn commit(s: &mut Scheduler, plan: StepPlan, ledger: &mut Ledger, hash: &mut u64) {
    match plan {
        StepPlan::Prefill { ids, .. } => {
            for id in s.commit_prefill(&ids) {
                ledger.finish(hash, id);
            }
        }
        StepPlan::Decode { ids } => {
            for id in ids {
                if s.commit_decode(id) {
                    ledger.finish(hash, id);
                }
            }
        }
        StepPlan::Idle => {}
    }
}

fn cancel_some(s: &mut Scheduler, rng: &mut DetRng, ledger: &mut Ledger, hash: &mut u64) {
    let submitted = ledger.canceled.len();
    if submitted == 0 {
        return;
    }
    let id = rng.next_below(submitted) as RequestId;
    let ok = s.cancel(id);
    fnv1a(hash, 4);
    fnv1a(hash, id);
    fnv1a(hash, u64::from(ok));
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
    let mut preemptions = 0;
    for (id, (&finished, &canceled)) in ledger.finished.iter().zip(&ledger.canceled).enumerate() {
        let id = id as RequestId;
        assert!(
            finished + usize::from(canceled) == 1,
            "seed {seed}: id {id} finished {finished}x, canceled {canceled}"
        );
        if finished == 1 {
            let seq = s.seq(id).expect("finished record stays queryable");
            assert_eq!(seq.state, SeqState::Finished);
            assert_eq!(seq.generated, seq.request.max_new_tokens);
            preemptions += seq.preemptions;
        }
    }
    preemptions
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
