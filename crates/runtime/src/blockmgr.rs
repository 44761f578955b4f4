//! Paged-KV block accounting (the management half of vLLM's
//! PagedAttention; the storage half lives in `moe_engine::kvcache`).
//!
//! The manager tracks physical-block ownership per sequence. Capacity is
//! expressed in blocks of `block_tokens` tokens; one logical sequence
//! block corresponds to `num_layers` physical blocks, which is folded into
//! the capacity accounting by the caller. A watermark reserve keeps a
//! fraction of blocks free so running sequences can grow without
//! immediately preempting. Ownership is indexed by `RequestId`, which the
//! scheduler hands out densely from 0.

use crate::request::RequestId;

/// Block-pool accountant.
#[derive(Debug, Clone)]
pub struct BlockManager {
    block_tokens: usize,
    total_blocks: usize,
    free_blocks: usize,
    /// Fraction of blocks kept free when admitting *new* sequences.
    watermark: f64,
    /// Blocks owned per sequence, indexed by id; 0 = owns nothing.
    owned: Vec<usize>,
}

impl BlockManager {
    pub fn new(total_blocks: usize, block_tokens: usize) -> Self {
        assert!(block_tokens >= 1);
        Self {
            block_tokens,
            total_blocks,
            free_blocks: total_blocks,
            watermark: 0.01,
            owned: Vec::new(),
        }
    }

    /// Set the admission watermark (fraction of the pool kept free).
    pub fn with_watermark(mut self, watermark: f64) -> Self {
        assert!((0.0..1.0).contains(&watermark));
        self.watermark = watermark;
        self
    }

    /// Blocks needed to hold `tokens`.
    pub fn blocks_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.block_tokens)
    }

    pub fn total_blocks(&self) -> usize {
        self.total_blocks
    }

    pub fn free_blocks(&self) -> usize {
        self.free_blocks
    }

    pub fn used_blocks(&self) -> usize {
        self.total_blocks - self.free_blocks
    }

    /// Blocks currently owned by a sequence.
    pub fn owned_by(&self, id: RequestId) -> usize {
        self.owned.get(id as usize).copied().unwrap_or(0)
    }

    /// Pool utilization in [0, 1].
    pub fn utilization(&self) -> f64 {
        if self.total_blocks == 0 {
            0.0
        } else {
            self.used_blocks() as f64 / self.total_blocks as f64
        }
    }

    /// Can a *new* sequence of `tokens` be admitted without crossing the
    /// watermark?
    pub fn can_admit(&self, tokens: usize) -> bool {
        let needed = self.blocks_for(tokens);
        let reserve = (self.total_blocks as f64 * self.watermark).ceil() as usize;
        self.free_blocks >= needed + reserve
    }

    /// Allocate blocks to hold `tokens` for a new sequence. Returns false
    /// (allocating nothing) if the pool cannot satisfy it. Ownership is
    /// stored densely up to the largest id seen, so ids should be small
    /// and dense, as the scheduler's are.
    pub fn allocate(&mut self, id: RequestId, tokens: usize) -> bool {
        assert!(self.owned_by(id) == 0, "sequence {id} already allocated");
        let needed = self.blocks_for(tokens);
        if needed > self.free_blocks {
            return false;
        }
        self.free_blocks -= needed;
        self.set_owned(id, needed);
        true
    }

    /// Grow a sequence from `old_tokens` to `new_tokens`. Returns false if
    /// the extra blocks are unavailable (caller should preempt).
    pub fn grow(&mut self, id: RequestId, old_tokens: usize, new_tokens: usize) -> bool {
        assert!(new_tokens >= old_tokens);
        let have = self.owned_by(id);
        debug_assert!(
            have >= self.blocks_for(old_tokens).saturating_sub(1),
            "grow with stale accounting for {id}"
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
        self.set_owned(id, need);
        true
    }

    fn set_owned(&mut self, id: RequestId, blocks: usize) {
        let i = id as usize;
        if i >= self.owned.len() {
            self.owned.resize(i + 1, 0);
        }
        self.owned[i] = blocks;
    }

    /// Release all blocks of a sequence (finish or preemption).
    pub fn release(&mut self, id: RequestId) {
        if let Some(n) = self.owned.get_mut(id as usize) {
            self.free_blocks += std::mem::take(n);
        }
    }

    /// Invariant check: free + owned == total.
    pub fn check_invariants(&self) {
        let owned: usize = self.owned.iter().sum();
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
        assert!(m.allocate(1, 100)); // 7 blocks
        assert_eq!(m.free_blocks(), 3);
        assert_eq!(m.owned_by(1), 7);
        m.release(1);
        assert_eq!(m.free_blocks(), 10);
        m.check_invariants();
    }

    #[test]
    fn allocate_fails_cleanly_when_full() {
        let mut m = BlockManager::new(4, 16);
        assert!(m.allocate(1, 64)); // all 4 blocks
        assert!(!m.allocate(2, 1));
        assert_eq!(m.owned_by(2), 0);
        m.check_invariants();
    }

    #[test]
    fn grow_only_charges_boundary_crossings() {
        let mut m = BlockManager::new(10, 16);
        assert!(m.allocate(1, 16)); // 1 block
        assert!(m.grow(1, 16, 17)); // new block
        assert_eq!(m.owned_by(1), 2);
        assert!(m.grow(1, 17, 18)); // same block
        assert_eq!(m.owned_by(1), 2);
        assert_eq!(m.free_blocks(), 8);
    }

    #[test]
    fn grow_fails_without_space() {
        let mut m = BlockManager::new(2, 16);
        assert!(m.allocate(1, 32)); // both blocks
        assert!(!m.grow(1, 32, 33));
        assert_eq!(m.owned_by(1), 2); // unchanged
        m.check_invariants();
    }

    #[test]
    fn watermark_blocks_admission_but_not_growth() {
        let mut m = BlockManager::new(10, 16).with_watermark(0.3);
        assert!(m.can_admit(96)); // 6 blocks + 3 reserve <= 10
        assert!(!m.can_admit(128)); // 8 + 3 > 10
                                    // Growth may dip into the reserve.
        assert!(m.allocate(1, 112)); // 7 blocks
        assert!(m.grow(1, 112, 160)); // 10 blocks total
        assert_eq!(m.free_blocks(), 0);
    }

    #[test]
    #[should_panic(expected = "already allocated")]
    fn double_allocate_panics() {
        let mut m = BlockManager::new(10, 16);
        m.allocate(1, 16);
        m.allocate(1, 16);
    }

    // Deterministic randomized sweep (replacing the former proptest version).
    #[test]
    fn randomized_no_leaks_under_random_ops() {
        let mut rng = moe_tensor::rng::rng_from_seed(0xb10c);
        for _ in 0..48 {
            let n_ops = 1 + rng.next_below(59);
            let mut m = BlockManager::new(64, 16);
            let mut live: std::collections::BTreeMap<u64, usize> = Default::default();
            for _ in 0..n_ops {
                let id = rng.next_below(8) as u64;
                let tokens = 1 + rng.next_below(199);
                match rng.next_below(3) {
                    0 => {
                        if !live.contains_key(&id) && m.allocate(id, tokens) {
                            live.insert(id, tokens);
                        }
                    }
                    1 => {
                        if let Some(&old) = live.get(&id) {
                            let new = old + tokens;
                            if m.grow(id, old, new) {
                                live.insert(id, new);
                            }
                        }
                    }
                    _ => {
                        m.release(id);
                        live.remove(&id);
                    }
                }
                m.check_invariants();
                // Never over-allocated.
                assert!(m.used_blocks() <= m.total_blocks());
            }
        }
    }
}
