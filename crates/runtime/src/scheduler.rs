//! The continuous-batching scheduler (vLLM-style):
//!
//! * **Admission**: waiting sequences are admitted FCFS into a prefill
//!   step, bounded by a batched-token budget and the block-manager
//!   watermark.
//! * **Decode**: all running sequences advance one token per step.
//! * **Preemption**: if a decode step cannot grow some sequence's KV
//!   allocation, the *most recently admitted* running sequence is evicted
//!   (recompute-style: blocks freed, sequence re-queued with its generated
//!   prefix intact) until the step fits.
//!
//! ## The FCFS invariant
//!
//! Admission order is a **total order on `RequestId`** within each
//! priority class: ids are assigned in submission order, fresh arrivals
//! queue at the tail in id order, and preempted sequences re-queue at the
//! *head* (they hold generated tokens that must not starve) — also in id
//! order among themselves, because preemption evicts strictly newest-first
//! and each eviction prepends. Every tie anywhere in the scheduler is
//! broken by `RequestId`, never by map iteration order, so cluster-level
//! replays that fan requests across schedulers are byte-stable. The
//! `fcfs_admission_is_ordered_by_request_id` test pins this.
//!
//! ## State layout and per-step cost
//!
//! A decode step touches every running sequence, so each per-sequence
//! operation of a step is O(1), and a step costs O(batch) however many
//! of its sequences finish:
//!
//! * **A record window.** Ids are handed out densely from 0, and
//!   sequence records live in a window that starts at the oldest
//!   unfinished id, indexed by `id - base`. A sequence's record, KV
//!   block count included, is freed the moment it finishes or is
//!   canceled — a finish hands it to the caller through
//!   [`Scheduler::commit_step`] — and the dead front of the window is
//!   popped (in batches, so lookups index a plain `Vec`). The window
//!   therefore spans the requests in the system plus the freed slots
//!   that an older unfinished request keeps open, not every request ever
//!   submitted. Ids are never recycled, so the FCFS order by id holds for
//!   the life of the scheduler.
//! * **Admission-ordered `running`.** Admission appends to `running` in
//!   admission-stamp order and removals keep the order, so `running` is
//!   always sorted by `admitted_at` (stamps are unique) and the newest
//!   sequence — the next to preempt — is its last element. Admission
//!   moves the head of `waiting` to the tail of `running`, preemption
//!   moves it back, and fresh ids join the tail of `waiting`, so
//!   `running` followed by `waiting` is ascending in id, and
//!   [`Scheduler::cancel`] finds an id in either by binary search.
//! * **A recycled plan buffer.** [`Scheduler::commit_step`] keeps the
//!   id `Vec` of the plan it consumed, and the next
//!   [`Scheduler::plan_step`] fills it, so a serving loop that commits
//!   every plan allocates no id list per step.
//! * **Running context sum.** Σ `context_len` over `running` is kept up
//!   to date on admit, commit, finish, preemption and cancel, so pricing
//!   a decode step reads its mean context without a pass over the batch.
//! * **Block counts in the record.** The [`BlockManager`] is the pool
//!   arithmetic only; each record carries the blocks its sequence owns,
//!   so reserving a decode token's KV touches one record per running
//!   sequence. That compares the context against the owned blocks, and
//!   only a token that crosses a block boundary pays the block count's
//!   division.
//! * **One-pass commit.** [`Scheduler::commit_step`] commits a planned
//!   step's tokens, releases the blocks and takes the records of the
//!   sequences that finished at once, and drops them from `running`
//!   together in one pass at the end, so a finish costs no pass over the
//!   batch of its own.
//!   [`Scheduler::commit_decode`] and [`Scheduler::commit_prefill`] are
//!   the same per-token commit over one id and over a prefill's ids.
//!
//! `tests/scheduler_ops.rs` checks both invariants after every operation
//! of seeded random submit/plan/commit/cancel sequences.
//!
//! The scheduler is pure bookkeeping — no clock, no tensors — so both the
//! simulated and the live server drive it and its behaviour is
//! deterministic and unit-testable.

use std::collections::VecDeque;

use moe_json::{FromJson, ToJson};

use crate::blockmgr::BlockManager;
use crate::request::{Request, RequestId, SeqState};

/// Scheduler limits.
#[derive(Debug, Clone, Copy, PartialEq, ToJson, FromJson)]
pub struct SchedulerConfig {
    /// Maximum sequences decoding concurrently.
    pub max_running: usize,
    /// Maximum tokens in one prefill step (chunked-prefill budget).
    pub max_batched_tokens: usize,
    /// KV block size in tokens.
    pub block_tokens: usize,
    /// Total KV blocks available.
    pub total_blocks: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            max_running: 256,
            max_batched_tokens: 8192,
            block_tokens: 16,
            total_blocks: 4096,
        }
    }
}

/// Scheduler-internal sequence record. Its id is its position in the
/// scheduler's record window, so the record does not repeat it.
#[derive(Debug, Clone)]
pub struct SeqRecord {
    pub request: Request,
    pub state: SeqState,
    /// Tokens generated so far (survives preemption).
    pub generated: usize,
    /// Admission order stamp of the latest (re-)admission.
    pub admitted_at: u64,
    pub preemptions: usize,
    /// KV blocks the sequence owns (0 unless running).
    pub blocks: usize,
}

impl SeqRecord {
    /// Current total context length (prompt + generated).
    pub fn context_len(&self) -> usize {
        self.request.prompt_len + self.generated
    }

    /// Has the sequence generated everything it asked for?
    pub fn done(&self) -> bool {
        self.generated >= self.request.max_new_tokens
    }
}

/// One scheduler decision, recorded when event recording is on.
///
/// The scheduler itself is clock-free, so events carry no timestamp;
/// the serving loop drains them each step ([`Scheduler::drain_events`])
/// and stamps them with the simulated time of the step boundary they
/// occurred at.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedEvent {
    /// Sequence (re-)admitted into a prefill batch with this many
    /// context tokens to (re)compute.
    Admitted {
        /// Sequence id.
        id: RequestId,
        /// Prompt + regenerated tokens entering the prefill step.
        context_tokens: usize,
    },
    /// Sequence evicted under memory pressure (recompute-style) and
    /// returned to the head of the waiting queue.
    Preempted {
        /// Sequence id.
        id: RequestId,
        /// Lifetime preemption count for the sequence, after this one.
        preemptions: usize,
    },
    /// Sequence generated its final token and released its KV blocks.
    Finished {
        /// Sequence id.
        id: RequestId,
        /// Total tokens generated.
        generated: usize,
    },
}

/// What the engine should execute next.
#[derive(Debug, Clone, PartialEq)]
pub enum StepPlan {
    /// Prefill these sequences (tokens = total prompt+regenerated tokens
    /// to process).
    Prefill { ids: Vec<RequestId>, tokens: usize },
    /// One decode iteration for these running sequences.
    Decode { ids: Vec<RequestId> },
    /// Nothing to do.
    Idle,
}

/// The record window (see the module docs): the records of ids
/// `base + head..base + slots.len()`, at `slots[id - base]`.
///
/// A plain `Vec` indexes cheaper than a `VecDeque`, whose wrap-around
/// costs every lookup of a decode step. So the popped front stays as
/// `head` dead slots until they are as many as the window's, then leaves
/// in one `drain` that moves at most as many slots as were popped: each
/// slot moves O(1) times amortized, and the `Vec` holds at most twice
/// the window.
#[derive(Debug, Default)]
struct Records {
    /// Id of `slots[0]`.
    base: RequestId,
    /// Dead slots before the window.
    head: usize,
    /// `None` once finished or canceled; `slots[head]` is always live.
    slots: Vec<Option<SeqRecord>>,
}

impl Records {
    fn push(&mut self, seq: SeqRecord) -> RequestId {
        let id = self.base + self.slots.len() as RequestId;
        self.slots.push(Some(seq));
        id
    }

    /// Position of `id` in `slots`; ids before `base` wrap to positions
    /// past the end.
    fn index(&self, id: RequestId) -> usize {
        id.wrapping_sub(self.base) as usize
    }

    fn get(&self, id: RequestId) -> Option<&SeqRecord> {
        self.slots.get(self.index(id))?.as_ref()
    }

    fn get_mut(&mut self, id: RequestId) -> Option<&mut SeqRecord> {
        let i = self.index(id);
        self.slots.get_mut(i)?.as_mut()
    }

    /// Slots in the window.
    fn len(&self) -> usize {
        self.slots.len() - self.head
    }

    /// Free `id`'s record, returning it, and pop the window's dead front.
    fn take(&mut self, id: RequestId) -> Option<SeqRecord> {
        let i = self.index(id);
        let seq = self.slots.get_mut(i)?.take()?;
        while let Some(None) = self.slots.get(self.head) {
            self.head += 1;
        }
        if self.head >= self.len() {
            self.slots.drain(..self.head);
            self.base += self.head as RequestId;
            self.head = 0;
        }
        Some(seq)
    }
}

/// The continuous-batching scheduler.
#[derive(Debug)]
pub struct Scheduler {
    cfg: SchedulerConfig,
    blocks: BlockManager,
    /// Records of the unfinished sequences.
    seqs: Records,
    /// FCFS waiting queue (front = next to admit).
    waiting: VecDeque<RequestId>,
    /// Running sequences in admission-stamp order (oldest first).
    running: Vec<RequestId>,
    /// The emptied id list of the last committed plan, for the next.
    spare_ids: Vec<RequestId>,
    /// Σ `context_len` over `running`.
    running_ctx: usize,
    admission_stamp: u64,
    /// When true, decisions append to `events` (off by default: the hot
    /// path must not allocate for runs nobody is tracing).
    record_events: bool,
    events: Vec<SchedEvent>,
}

impl Scheduler {
    pub fn new(cfg: SchedulerConfig) -> Self {
        Self {
            blocks: BlockManager::new(cfg.total_blocks, cfg.block_tokens),
            cfg,
            seqs: Records::default(),
            waiting: VecDeque::new(),
            running: Vec::new(),
            spare_ids: Vec::new(),
            running_ctx: 0,
            admission_stamp: 0,
            record_events: false,
            events: Vec::new(),
        }
    }

    /// Drop every sequence and restart cold under the same config,
    /// keeping decision recording as it was.
    pub fn reset(&mut self) {
        let record_events = self.record_events;
        *self = Self::new(self.cfg);
        self.record_events = record_events;
    }

    /// Turn decision recording on or off (off by default).
    pub fn set_record_events(&mut self, on: bool) {
        self.record_events = on;
        if !on {
            self.events.clear();
        }
    }

    /// Take the decisions recorded since the last drain (empty when
    /// recording is off).
    pub fn drain_events(&mut self) -> Vec<SchedEvent> {
        std::mem::take(&mut self.events)
    }

    fn record(&mut self, ev: SchedEvent) {
        if self.record_events {
            self.events.push(ev);
        }
    }

    pub fn blocks(&self) -> &BlockManager {
        &self.blocks
    }

    /// Submit a request; returns its id.
    pub fn submit(&mut self, request: Request) -> RequestId {
        assert!(request.prompt_len > 0, "empty prompt");
        assert!(request.max_new_tokens > 0, "nothing to generate");
        let id = self.seqs.push(SeqRecord {
            request,
            state: SeqState::Waiting,
            generated: 0,
            admitted_at: 0,
            preemptions: 0,
            blocks: 0,
        });
        self.waiting.push_back(id);
        id
    }

    /// The record of an unfinished sequence; `None` once it finished or
    /// was canceled.
    pub fn seq(&self, id: RequestId) -> Option<&SeqRecord> {
        self.seqs.get(id)
    }

    /// Length of the record window: the unfinished sequences plus the
    /// freed slots that older unfinished ones keep open.
    pub fn record_window(&self) -> usize {
        self.seqs.len()
    }

    /// Running sequences, oldest admission first.
    pub fn running(&self) -> &[RequestId] {
        &self.running
    }

    /// Σ `context_len` over the running sequences.
    pub fn running_context_tokens(&self) -> usize {
        self.running_ctx
    }

    pub fn num_waiting(&self) -> usize {
        self.waiting.len()
    }

    pub fn num_running(&self) -> usize {
        self.running.len()
    }

    /// Are there unfinished sequences anywhere?
    pub fn has_work(&self) -> bool {
        !self.waiting.is_empty() || !self.running.is_empty()
    }

    /// Decide the next step. Prefill admission takes priority (as in
    /// vLLM's default scheduler); otherwise a decode step for all running
    /// sequences; otherwise idle. The plan's ids fill the buffer the
    /// last [`Self::commit_step`] gave back, if any.
    pub fn plan_step(&mut self) -> StepPlan {
        let mut ids = std::mem::take(&mut self.spare_ids);
        // --- Try to admit waiting sequences into a prefill batch. ---
        let mut tokens = 0usize;
        while let Some(&id) = self.waiting.front() {
            if self.running.len() + ids.len() >= self.cfg.max_running {
                break;
            }
            let Some(seq) = self.seqs.get_mut(id) else {
                break;
            };
            // On re-admission after preemption the whole prefix
            // (prompt + generated) is recomputed.
            let need = seq.context_len();
            // A single over-budget prompt still goes alone (chunking is
            // modeled as one long step).
            let over_budget = tokens + need > self.cfg.max_batched_tokens;
            if over_budget && !ids.is_empty() {
                break;
            }
            if !self.blocks.can_admit(need) || !self.blocks.allocate(&mut seq.blocks, need) {
                break;
            }
            seq.state = SeqState::Running;
            seq.admitted_at = self.admission_stamp;
            self.admission_stamp += 1;
            self.waiting.pop_front();
            ids.push(id);
            tokens += need;
            self.record(SchedEvent::Admitted {
                id,
                context_tokens: need,
            });
            if over_budget {
                break;
            }
        }
        if !ids.is_empty() {
            // `tokens` is Σ context_len over the admitted sequences.
            self.running_ctx += tokens;
            self.running.extend(&ids);
            return StepPlan::Prefill { ids, tokens };
        }

        // --- Decode step: grow every running sequence by one token,
        // preempting the newest sequences until everything fits. ---
        loop {
            if self.try_grow_all() {
                break;
            }
            if !self.preempt_newest() {
                break; // nothing left to preempt; run with what fits
            }
        }
        if self.running.is_empty() {
            self.spare_ids = ids;
            return StepPlan::Idle;
        }
        ids.extend_from_slice(&self.running);
        StepPlan::Decode { ids }
    }

    /// Reserve one more token of KV for every running sequence. Already
    /// reserved boundary blocks are free (grow is idempotent per block),
    /// so partial success before a failure needs no rollback: the retry
    /// after preemption simply re-reserves. Returns false if any sequence
    /// could not grow.
    fn try_grow_all(&mut self) -> bool {
        for &id in &self.running {
            let Some(seq) = self.seqs.get_mut(id) else {
                continue;
            };
            let ctx = seq.context_len();
            if !self.blocks.grow(&mut seq.blocks, ctx, ctx + 1) {
                return false;
            }
        }
        true
    }

    /// Evict the most recently admitted running sequence: the last one in
    /// `running`, which is in admission-stamp order. Stamps are unique,
    /// so the eviction order is a pure function of scheduler state.
    fn preempt_newest(&mut self) -> bool {
        let Some(id) = self.running.pop() else {
            return false;
        };
        let mut preemptions = 0;
        if let Some(seq) = self.seqs.get_mut(id) {
            self.blocks.release(&mut seq.blocks);
            seq.state = SeqState::Waiting;
            seq.preemptions += 1;
            preemptions = seq.preemptions;
            self.running_ctx -= seq.context_len();
        }
        // Recompute-style: back to the head of the waiting queue.
        self.waiting.push_front(id);
        self.record(SchedEvent::Preempted { id, preemptions });
        true
    }

    /// Commit one decoded token for a sequence (KV block already reserved
    /// by `plan_step`). Returns true when the sequence just finished.
    pub fn commit_decode(&mut self, id: RequestId) -> bool {
        let finished = self.commit_token(id).is_some();
        if finished {
            self.drop_finished();
        }
        finished
    }

    /// Prefill also produces each sequence's first token; commit it.
    /// Returns sequences that finished at the first token. Ids canceled
    /// between planning and commit (a serving front-end timing out a
    /// request mid-step) are skipped.
    pub fn commit_prefill(&mut self, ids: &[RequestId]) -> Vec<RequestId> {
        self.commit_tokens(ids, true)
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    /// Commit a whole planned step: one token for every sequence it ran
    /// (the first token, for a prefill). Returns the sequences that
    /// finished with their final records, in plan order; the scheduler
    /// keeps no record of them. Ids canceled while the step was in
    /// flight are skipped.
    pub fn commit_step(&mut self, plan: StepPlan) -> Vec<(RequestId, SeqRecord)> {
        let (mut ids, prefill) = match plan {
            StepPlan::Prefill { ids, .. } => (ids, true),
            StepPlan::Decode { ids } => (ids, false),
            StepPlan::Idle => return Vec::new(),
        };
        let finished = self.commit_tokens(&ids, prefill);
        ids.clear();
        self.spare_ids = ids;
        finished
    }

    /// Commit one token for each of `ids` and return the sequences that
    /// finished, in order. The finished sequences leave `running`
    /// together, in one pass at the end.
    fn commit_tokens(&mut self, ids: &[RequestId], prefill: bool) -> Vec<(RequestId, SeqRecord)> {
        let mut finished = Vec::new();
        for &id in ids {
            if prefill {
                // The first token occupies KV beyond the prompt. Growth
                // may dip into the watermark reserve; if even that fails
                // the next decode plan will preempt.
                if let Some(seq) = self.seqs.get_mut(id) {
                    let ctx = seq.context_len();
                    let _ = self.blocks.grow(&mut seq.blocks, ctx, ctx + 1);
                }
            }
            if let Some(seq) = self.commit_token(id) {
                finished.push((id, seq));
            }
        }
        if !finished.is_empty() {
            self.drop_finished();
        }
        finished
    }

    /// The one token commit under every public commit: advance a known
    /// sequence by one token. A sequence that finishes releases its blocks
    /// and leaves the record window at once, returning its record, but
    /// stays in `running` until the caller's [`Self::drop_finished`].
    /// `None` for canceled ids.
    #[inline]
    fn commit_token(&mut self, id: RequestId) -> Option<SeqRecord> {
        // `None`: canceled while the step was in flight.
        let seq = self.seqs.get_mut(id)?;
        assert_eq!(seq.state, SeqState::Running, "decode on non-running seq");
        seq.generated += 1;
        self.running_ctx += 1;
        if !seq.done() {
            return None;
        }
        self.running_ctx -= seq.context_len();
        self.blocks.release(&mut seq.blocks);
        let mut seq = self.seqs.take(id)?;
        seq.state = SeqState::Finished;
        self.record(SchedEvent::Finished {
            id,
            generated: seq.generated,
        });
        Some(seq)
    }

    /// Drop the sequences that finished from `running`, keeping its
    /// order: one pass however many finished. Kept out of line so the
    /// per-token commits around it stay small enough to inline.
    #[inline(never)]
    fn drop_finished(&mut self) {
        let seqs = &self.seqs;
        self.running.retain(|&r| seqs.get(r).is_some());
    }

    /// Remove a sequence entirely — its queue slots, KV blocks, and
    /// record. Used by serving front-ends to enforce per-request timeouts
    /// and to fail over requests off a crashed replica. Safe to call while
    /// a planned step is in flight: the commit path skips unknown ids.
    /// Returns `false` when the id is unknown, finished or already
    /// canceled.
    pub fn cancel(&mut self, id: RequestId) -> bool {
        let Some(mut seq) = self.seqs.take(id) else {
            return false;
        };
        // `running` then `waiting` ascend in id (see the module docs).
        debug_assert!(self.running.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(self
            .waiting
            .iter()
            .zip(self.waiting.iter().skip(1))
            .all(|(a, b)| a < b));
        let removed = if seq.state == SeqState::Running {
            self.running_ctx -= seq.context_len();
            let at = self.running.binary_search(&id).ok();
            at.map(|i| self.running.remove(i))
        } else {
            let at = self.waiting.binary_search(&id).ok();
            at.and_then(|i| self.waiting.remove(i))
        };
        debug_assert_eq!(removed, Some(id), "an unfinished id is queued");
        self.blocks.release(&mut seq.blocks);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pool balances against the blocks the running records own.
    fn check_blocks(s: &Scheduler) {
        let owned = s.running.iter().map(|&id| s.seq(id).unwrap().blocks).sum();
        s.blocks().check_invariants(owned);
    }

    fn small_cfg() -> SchedulerConfig {
        SchedulerConfig {
            max_running: 4,
            max_batched_tokens: 64,
            block_tokens: 16,
            total_blocks: 32,
        }
    }

    #[test]
    fn fcfs_admission_under_token_budget() {
        let mut s = Scheduler::new(small_cfg());
        let a = s.submit(Request::new(30, 4));
        let b = s.submit(Request::new(30, 4));
        let c = s.submit(Request::new(30, 4));
        match s.plan_step() {
            StepPlan::Prefill { ids, tokens } => {
                // 30 + 30 fits the 64-token budget; the third does not.
                assert_eq!(ids, vec![a, b]);
                assert_eq!(tokens, 60);
            }
            other => panic!("expected prefill, got {other:?}"),
        }
        assert_eq!(s.num_waiting(), 1);
        let _ = c;
    }

    #[test]
    fn decode_follows_prefill() {
        let mut s = Scheduler::new(small_cfg());
        let a = s.submit(Request::new(10, 3));
        let StepPlan::Prefill { ids, .. } = s.plan_step() else {
            panic!()
        };
        s.commit_prefill(&ids);
        // Two decode steps remain (first token came from prefill).
        for step in 0..2 {
            match s.plan_step() {
                StepPlan::Decode { ids } => {
                    assert_eq!(ids, vec![a]);
                    let finished = s.commit_decode(a);
                    assert_eq!(finished, step == 1);
                }
                other => panic!("step {step}: {other:?}"),
            }
        }
        assert!(!s.has_work());
        assert_eq!(s.blocks().used_blocks(), 0);
    }

    #[test]
    fn oversized_prompt_admitted_alone() {
        let mut s = Scheduler::new(SchedulerConfig {
            max_batched_tokens: 16,
            ..small_cfg()
        });
        let big = s.submit(Request::new(100, 2));
        match s.plan_step() {
            StepPlan::Prefill { ids, tokens } => {
                assert_eq!(ids, vec![big]);
                assert_eq!(tokens, 100);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn preemption_under_memory_pressure() {
        // Pool of 8 blocks (128 tokens); two long-running sequences will
        // eventually collide and the newer one must be preempted.
        let mut s = Scheduler::new(SchedulerConfig {
            max_running: 4,
            max_batched_tokens: 256,
            block_tokens: 16,
            total_blocks: 7,
        });
        let a = s.submit(Request::new(48, 64)); // 3 blocks
        let b = s.submit(Request::new(48, 64)); // 3 blocks
        let StepPlan::Prefill { ids, .. } = s.plan_step() else {
            panic!()
        };
        assert_eq!(ids.len(), 2);
        s.commit_prefill(&ids);

        let mut b_preempted = false;
        for _ in 0..40 {
            match s.plan_step() {
                StepPlan::Decode { ids } => {
                    for id in ids {
                        s.commit_decode(id);
                    }
                }
                StepPlan::Prefill { ids, .. } => {
                    s.commit_prefill(&ids);
                }
                StepPlan::Idle => break,
            }
            if s.seq(b).unwrap().preemptions > 0 {
                b_preempted = true;
                break;
            }
            if s.seq(a).unwrap().preemptions > 0 {
                panic!("older sequence preempted before newer one");
            }
        }
        assert!(b_preempted, "expected the newer sequence to be preempted");
        check_blocks(&s);
    }

    #[test]
    fn preempted_sequence_resumes_and_finishes() {
        let mut s = Scheduler::new(SchedulerConfig {
            max_running: 4,
            max_batched_tokens: 256,
            block_tokens: 16,
            total_blocks: 7,
        });
        let ids = [
            s.submit(Request::new(48, 40)),
            s.submit(Request::new(48, 40)),
        ];
        let mut finished = Vec::new();
        let mut guard = 0;
        while s.has_work() {
            guard += 1;
            assert!(guard < 10_000, "scheduler livelock");
            let plan = s.plan_step();
            if plan == StepPlan::Idle {
                break;
            }
            finished.extend(s.commit_step(plan));
        }
        assert_eq!(finished.len(), 2);
        assert!(finished.iter().any(|(_, seq)| seq.preemptions > 0));
        for (id, seq) in finished {
            assert!(ids.contains(&id));
            assert_eq!(seq.state, SeqState::Finished);
            assert_eq!(seq.generated, 40);
            assert_eq!(seq.blocks, 0);
            assert!(s.seq(id).is_none(), "finished records leave the window");
        }
        assert_eq!(s.blocks().used_blocks(), 0);
        assert_eq!(s.record_window(), 0);
    }

    /// A freed record leaves the window only once every older one is
    /// freed too; ids keep counting from where they were.
    #[test]
    fn record_window_starts_at_the_oldest_unfinished_id() {
        let mut s = Scheduler::new(small_cfg());
        let long = s.submit(Request::new(10, 3));
        let short = s.submit(Request::new(10, 1));
        let plan = s.plan_step();
        let done = s.commit_step(plan);
        assert_eq!(done.iter().map(|(id, _)| *id).collect::<Vec<_>>(), [short]);
        assert!(s.seq(short).is_none());
        assert_eq!(s.record_window(), 2, "`long` keeps `short`'s slot open");
        let waiting = s.submit(Request::new(10, 1));
        assert!(s.cancel(waiting));
        assert_eq!(s.record_window(), 3);
        while s.has_work() {
            let plan = s.plan_step();
            s.commit_step(plan);
        }
        assert!(s.seq(long).is_none());
        assert_eq!(s.record_window(), 0);
        assert_eq!(
            s.submit(Request::new(10, 1)),
            waiting + 1,
            "ids are never reused"
        );
        assert_eq!(s.record_window(), 1);
    }

    #[test]
    fn max_running_respected() {
        let mut s = Scheduler::new(SchedulerConfig {
            max_running: 2,
            max_batched_tokens: 1024,
            block_tokens: 16,
            total_blocks: 1024,
        });
        for _ in 0..5 {
            s.submit(Request::new(8, 10));
        }
        let StepPlan::Prefill { ids, .. } = s.plan_step() else {
            panic!()
        };
        assert_eq!(ids.len(), 2);
        s.commit_prefill(&ids);
        // Running is full: next plan must be decode, not admission.
        assert!(matches!(s.plan_step(), StepPlan::Decode { .. }));
    }

    #[test]
    #[should_panic(expected = "empty prompt")]
    fn empty_prompt_rejected() {
        let mut s = Scheduler::new(small_cfg());
        s.submit(Request::new(0, 1));
    }

    /// The FCFS invariant (see the module docs): admission order within a
    /// priority class is ascending `RequestId` — for fresh arrivals because
    /// ids are assigned in submission order, and for preempted sequences
    /// because newest-first eviction prepends them back in id order.
    #[test]
    fn fcfs_admission_is_ordered_by_request_id() {
        // Fresh arrivals: admitted strictly in id order.
        let mut s = Scheduler::new(SchedulerConfig {
            max_running: 8,
            max_batched_tokens: 1024,
            block_tokens: 16,
            total_blocks: 1024,
        });
        let ids: Vec<RequestId> = (0..5).map(|_| s.submit(Request::new(16, 4))).collect();
        let StepPlan::Prefill { ids: admitted, .. } = s.plan_step() else {
            panic!("expected prefill");
        };
        assert_eq!(admitted, ids, "fresh admission must follow id order");
        s.commit_prefill(&admitted);

        // Preemption: evict the newest running sequence under block
        // pressure, then check the waiting queue re-admits it ahead of any
        // fresh arrival — and that never-admitted requests keep id order.
        let mut tight = Scheduler::new(SchedulerConfig {
            max_running: 4,
            max_batched_tokens: 512,
            block_tokens: 16,
            total_blocks: 9,
        });
        let a = tight.submit(Request::new(48, 64));
        let b = tight.submit(Request::new(48, 64));
        let c = tight.submit(Request::new(48, 64));
        let StepPlan::Prefill { ids, .. } = tight.plan_step() else {
            panic!("expected prefill");
        };
        assert_eq!(ids, vec![a, b], "only two fit: 4 blocks each, 9 total");
        tight.commit_prefill(&ids);
        let late = tight.submit(Request::new(48, 64)); // fresh arrival at the tail
                                                       // Decode under pressure until the newest running sequence is evicted.
        let mut guard = 0;
        while tight.seq(b).is_some_and(|s| s.preemptions == 0) {
            guard += 1;
            assert!(guard < 200, "no preemption under pressure");
            match tight.plan_step() {
                StepPlan::Decode { ids } => {
                    for id in ids {
                        tight.commit_decode(id);
                    }
                }
                StepPlan::Prefill { ids, .. } => {
                    tight.commit_prefill(&ids);
                }
                StepPlan::Idle => break,
            }
        }
        // The evicted sequence goes back to the head, ahead of both the
        // never-admitted `c` and the fresh arrival, all in ascending id
        // order: waiting == [b, c, late].
        assert_eq!(tight.waiting, vec![b, c, late]);
        assert_eq!(tight.running, vec![a]);
    }

    #[test]
    fn cancel_releases_blocks_and_queue_slots() {
        let mut s = Scheduler::new(small_cfg());
        let a = s.submit(Request::new(30, 8));
        let b = s.submit(Request::new(30, 8));
        let StepPlan::Prefill { ids, .. } = s.plan_step() else {
            panic!("expected prefill");
        };
        s.commit_prefill(&ids);
        assert!(s.blocks().used_blocks() > 0);
        assert!(s.cancel(a), "running sequence cancels");
        assert!(s.cancel(b), "running sequence cancels");
        assert!(!s.cancel(a), "double cancel is a no-op");
        assert!(!s.has_work());
        assert_eq!(s.blocks().used_blocks(), 0);
        check_blocks(&s);

        // Waiting sequences cancel too.
        let c = s.submit(Request::new(30, 8));
        assert!(s.cancel(c));
        assert!(!s.has_work());
        assert!(!s.cancel(999), "unknown id");
    }

    #[test]
    fn cancel_mid_flight_is_skipped_by_commit() {
        let mut s = Scheduler::new(small_cfg());
        let a = s.submit(Request::new(20, 4));
        let b = s.submit(Request::new(20, 4));
        let StepPlan::Prefill { ids, .. } = s.plan_step() else {
            panic!("expected prefill");
        };
        // The front-end times `a` out while the planned step is in flight.
        assert!(s.cancel(a));
        let finished = s.commit_prefill(&ids);
        assert!(finished.is_empty());
        assert!(s.seq(a).is_none());
        assert_eq!(s.seq(b).map(|r| r.generated), Some(1));
        // Decode b to completion; the pool drains fully.
        while s.has_work() {
            match s.plan_step() {
                StepPlan::Decode { ids } => {
                    for id in ids {
                        s.commit_decode(id);
                    }
                }
                StepPlan::Prefill { ids, .. } => {
                    s.commit_prefill(&ids);
                }
                StepPlan::Idle => break,
            }
        }
        assert_eq!(s.blocks().used_blocks(), 0);
    }

    #[test]
    fn events_off_by_default_on_when_enabled() {
        let mut s = Scheduler::new(small_cfg());
        let a = s.submit(Request::new(10, 1));
        let StepPlan::Prefill { ids, .. } = s.plan_step() else {
            panic!()
        };
        s.commit_prefill(&ids);
        assert!(s.drain_events().is_empty(), "recording must default off");

        s.set_record_events(true);
        let b = s.submit(Request::new(10, 1));
        let StepPlan::Prefill { ids, .. } = s.plan_step() else {
            panic!()
        };
        s.commit_prefill(&ids);
        let evs = s.drain_events();
        assert_eq!(
            evs,
            vec![
                SchedEvent::Admitted {
                    id: b,
                    context_tokens: 10
                },
                SchedEvent::Finished {
                    id: b,
                    generated: 1
                },
            ]
        );
        assert!(s.drain_events().is_empty(), "drain consumes");
        let _ = a;
    }

    #[test]
    fn reset_restarts_cold_and_keeps_recording() {
        let mut s = Scheduler::new(small_cfg());
        s.set_record_events(true);
        s.submit(Request::new(10, 4));
        s.plan_step();
        s.reset();
        assert!(s.drain_events().is_empty(), "pending decisions are dropped");
        assert_eq!(s.num_running() + s.num_waiting(), 0);
        let id = s.submit(Request::new(10, 4));
        assert_eq!(id, 0, "ids restart");
        s.plan_step();
        assert_eq!(
            s.drain_events(),
            vec![SchedEvent::Admitted {
                id,
                context_tokens: 10
            }]
        );
    }

    #[test]
    fn preemption_recorded_when_enabled() {
        let mut s = Scheduler::new(SchedulerConfig {
            max_running: 4,
            max_batched_tokens: 256,
            block_tokens: 16,
            total_blocks: 7,
        });
        s.set_record_events(true);
        let b;
        {
            let _a = s.submit(Request::new(48, 64));
            b = s.submit(Request::new(48, 64));
        }
        let StepPlan::Prefill { ids, .. } = s.plan_step() else {
            panic!()
        };
        s.commit_prefill(&ids);
        let mut saw_preempt = false;
        for _ in 0..40 {
            match s.plan_step() {
                StepPlan::Decode { ids } => {
                    for id in ids {
                        s.commit_decode(id);
                    }
                }
                StepPlan::Prefill { ids, .. } => {
                    s.commit_prefill(&ids);
                }
                StepPlan::Idle => break,
            }
            if s.drain_events()
                .iter()
                .any(|e| matches!(e, SchedEvent::Preempted { id, .. } if *id == b))
            {
                saw_preempt = true;
                break;
            }
        }
        assert!(saw_preempt, "expected a recorded preemption of {b}");
    }
}
