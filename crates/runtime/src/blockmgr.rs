//! Paged-KV block accounting (the management half of vLLM's
//! PagedAttention; the storage half lives in `moe_engine::kvcache`).
//!
//! The manager is the pool arithmetic only: free blocks, the watermark
//! and block counts. Capacity is expressed in blocks of `block_tokens`
//! tokens; one logical sequence block corresponds to `num_layers`
//! physical blocks, which is folded into the capacity accounting by the
//! caller. A fixed watermark reserve (1% of the pool) is kept free when
//! admitting new sequences, so running sequences can grow without
//! immediately preempting. Each sequence's block count lives with its
//! owner (the scheduler's sequence record); [`BlockManager::allocate`],
//! [`BlockManager::grow`] and [`BlockManager::release`] update it through
//! `&mut usize`, so the manager keeps no per-sequence table.

/// Fraction of blocks kept free when admitting *new* sequences.
const WATERMARK: f64 = 0.01;

/// Block-pool accountant.
#[derive(Debug, Clone)]
pub struct BlockManager {
    block_tokens: usize,
    total_blocks: usize,
    free_blocks: usize,
}

impl BlockManager {
    pub fn new(total_blocks: usize, block_tokens: usize) -> Self {
        assert!(block_tokens >= 1);
        Self {
            block_tokens,
            total_blocks,
            free_blocks: total_blocks,
        }
    }

    /// Blocks needed to hold `tokens`.
    fn blocks_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.block_tokens)
    }

    pub fn total_blocks(&self) -> usize {
        self.total_blocks
    }

    pub fn used_blocks(&self) -> usize {
        self.total_blocks - self.free_blocks
    }

    /// Pool utilization in [0, 1].
    pub fn utilization(&self) -> f64 {
        if self.total_blocks == 0 {
            0.0
        } else {
            self.used_blocks() as f64 / self.total_blocks as f64
        }
    }

    /// Blocks kept free when admitting a new sequence.
    fn reserve(&self) -> usize {
        (self.total_blocks as f64 * WATERMARK).ceil() as usize
    }

    /// Can a *new* sequence of `tokens` be admitted without crossing the
    /// watermark?
    pub fn can_admit(&self, tokens: usize) -> bool {
        self.free_blocks >= self.blocks_for(tokens) + self.reserve()
    }

    /// Could an empty pool admit a new sequence of `tokens`? One that
    /// fails this can never be admitted here, whatever else finishes.
    pub fn fits_when_empty(&self, tokens: usize) -> bool {
        self.total_blocks >= self.blocks_for(tokens) + self.reserve()
    }

    /// Allocate blocks to hold `tokens` for a new sequence whose block
    /// count is `owned` (0: it owns nothing yet). Returns false
    /// (allocating nothing) if the pool cannot satisfy it.
    pub fn allocate(&mut self, owned: &mut usize, tokens: usize) -> bool {
        assert!(*owned == 0, "sequence already allocated");
        let needed = self.blocks_for(tokens);
        if needed > self.free_blocks {
            return false;
        }
        self.free_blocks -= needed;
        *owned = needed;
        true
    }

    /// Grow a sequence owning `owned` blocks from `old_tokens` to
    /// `new_tokens`. Returns false if the extra blocks are unavailable
    /// (caller should preempt).
    pub fn grow(&mut self, owned: &mut usize, old_tokens: usize, new_tokens: usize) -> bool {
        assert!(new_tokens >= old_tokens);
        let have = *owned;
        // The owned blocks already hold `new_tokens` on most steps; only a
        // block boundary (or an owner left behind by an earlier failed
        // grow) pays the division below.
        if new_tokens <= have * self.block_tokens {
            return true;
        }
        debug_assert!(
            have >= self.blocks_for(old_tokens).saturating_sub(1),
            "grow with stale accounting"
        );
        let need = self.blocks_for(new_tokens);
        let extra = need.saturating_sub(have);
        if extra == 0 {
            return true;
        }
        if extra > self.free_blocks {
            return false;
        }
        self.free_blocks -= extra;
        *owned = need;
        true
    }

    /// Release all of a sequence's `owned` blocks (finish or preemption),
    /// leaving it owning none.
    pub fn release(&mut self, owned: &mut usize) {
        self.free_blocks += std::mem::take(owned);
    }

    /// Invariant check: `owned` (the caller's Σ of its sequences' block
    /// counts) + free == total.
    pub fn check_invariants(&self, owned: usize) {
        assert_eq!(
            owned + self.free_blocks,
            self.total_blocks,
            "block accounting leak: owned {owned} + free {} != total {}",
            self.free_blocks,
            self.total_blocks
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_for_rounds_up() {
        let m = BlockManager::new(100, 16);
        assert_eq!(m.blocks_for(0), 0);
        assert_eq!(m.blocks_for(1), 1);
        assert_eq!(m.blocks_for(16), 1);
        assert_eq!(m.blocks_for(17), 2);
    }

    #[test]
    fn allocate_and_release_roundtrip() {
        let mut m = BlockManager::new(10, 16);
        let mut a = 0;
        assert!(m.allocate(&mut a, 100)); // 7 blocks
        assert_eq!(m.free_blocks, 3);
        assert_eq!(a, 7);
        m.check_invariants(a);
        m.release(&mut a);
        assert_eq!((a, m.free_blocks), (0, 10));
        m.check_invariants(0);
    }

    #[test]
    fn allocate_fails_cleanly_when_full() {
        let mut m = BlockManager::new(4, 16);
        let (mut a, mut b) = (0, 0);
        assert!(m.allocate(&mut a, 64)); // all 4 blocks
        assert!(!m.allocate(&mut b, 1));
        assert_eq!(b, 0);
        m.check_invariants(a + b);
    }

    #[test]
    fn grow_only_charges_boundary_crossings() {
        let mut m = BlockManager::new(10, 16);
        let mut a = 0;
        assert!(m.allocate(&mut a, 16)); // 1 block
        assert!(m.grow(&mut a, 16, 17)); // new block
        assert_eq!(a, 2);
        assert!(m.grow(&mut a, 17, 18)); // same block
        assert_eq!(a, 2);
        assert_eq!(m.free_blocks, 8);
    }

    /// A failed first-token grow (`Scheduler::commit_prefill` ignores
    /// it) leaves the owner holding one token more than its blocks do.
    /// The next grow must not take the in-block fast path: it takes every
    /// missing block — both of them at one token per block, where the
    /// failed token and the new one each need a block.
    #[test]
    fn grow_catches_up_an_owner_left_behind_by_a_failed_grow() {
        for block_tokens in [1, 16] {
            let prompt = 2 * block_tokens;
            let mut m = BlockManager::new(4, block_tokens);
            let (mut a, mut b) = (0, 0);
            assert!(m.allocate(&mut a, prompt)); // 2 blocks
            assert!(m.allocate(&mut b, prompt)); // the other 2: the pool is full
            assert!(!m.grow(&mut a, prompt, prompt + 1));
            assert_eq!(a, 2);
            m.release(&mut b);
            assert!(m.grow(&mut a, prompt + 1, prompt + 2));
            let need = (prompt + 2).div_ceil(block_tokens);
            assert_eq!(need - 2, if block_tokens == 1 { 2 } else { 1 });
            assert_eq!(a, need, "{block_tokens}-token blocks");
            assert_eq!(m.used_blocks(), need);
            m.check_invariants(a + b);
        }
    }

    #[test]
    fn grow_fails_without_space() {
        let mut m = BlockManager::new(2, 16);
        let mut a = 0;
        assert!(m.allocate(&mut a, 32)); // both blocks
        assert!(!m.grow(&mut a, 32, 33));
        assert_eq!(a, 2); // unchanged
        m.check_invariants(a);
    }

    #[test]
    fn watermark_blocks_admission_but_not_growth() {
        // 1% of 100 blocks: a one-block reserve.
        let mut m = BlockManager::new(100, 16);
        assert!(m.can_admit(99 * 16)); // 99 blocks + 1 reserve <= 100
        assert!(!m.can_admit(100 * 16)); // 100 + 1 > 100

        // Growth may dip into the reserve.
        let mut a = 0;
        assert!(m.allocate(&mut a, 99 * 16));
        assert!(m.grow(&mut a, 99 * 16, 100 * 16)); // 100 blocks total
        assert_eq!((a, m.free_blocks), (100, 0));
    }

    #[test]
    #[should_panic(expected = "already allocated")]
    fn double_allocate_panics() {
        let mut m = BlockManager::new(10, 16);
        let mut a = 0;
        m.allocate(&mut a, 16);
        m.allocate(&mut a, 16);
    }

    // Deterministic randomized sweep (replacing the former proptest version).
    #[test]
    fn randomized_no_leaks_under_random_ops() {
        let mut rng = moe_tensor::rng::rng_from_seed(0xb10c);
        for _ in 0..48 {
            let n_ops = 1 + rng.next_below(59);
            let mut m = BlockManager::new(64, 16);
            // Per owner: blocks held and tokens, `None` when not live.
            let mut owned = [0usize; 8];
            let mut live: [Option<usize>; 8] = [None; 8];
            for _ in 0..n_ops {
                let i = rng.next_below(8);
                let tokens = 1 + rng.next_below(199);
                match rng.next_below(3) {
                    0 => {
                        if live[i].is_none() && m.allocate(&mut owned[i], tokens) {
                            live[i] = Some(tokens);
                        }
                    }
                    1 => {
                        if let Some(old) = live[i] {
                            let new = old + tokens;
                            if m.grow(&mut owned[i], old, new) {
                                live[i] = Some(new);
                            }
                        }
                    }
                    _ => {
                        m.release(&mut owned[i]);
                        live[i] = None;
                    }
                }
                m.check_invariants(owned.iter().sum());
                // Never over-allocated, and dead owners hold nothing.
                assert!(m.used_blocks() <= m.total_blocks());
                assert!((0..8).all(|j| live[j].is_some() || owned[j] == 0));
            }
        }
    }
}
