//! Prefix caching (vLLM's automatic-prefix-caching analogue): sequences
//! that share a block-aligned prompt prefix reuse the cached KV entries of
//! that prefix instead of recomputing them.
//!
//! The cache stores block-aligned KV snapshots keyed by the token prefix.
//! On admission, the longest cached block-aligned prefix of a prompt is
//! copied into the sequence's fresh KV store, and only the remaining
//! suffix runs a forward pass. Correctness is exact (the copied entries
//! are bit-identical to what recomputation would produce — tests pin
//! this); the saving is prefill compute, as in the real system.
//!
//! Eviction is LRU over whole snapshots, bounded by a token budget.

use std::collections::BTreeMap;

use moe_engine::kvcache::KvStore;

/// One cached prefix: per-layer K/V for `len` tokens.
#[derive(Debug, Clone)]
pub struct KvSnapshot {
    len: usize,
    kv_dim: usize,
    /// `keys[layer]` is `len * kv_dim` values; values likewise.
    keys: Vec<Vec<f32>>,
    values: Vec<Vec<f32>>,
}

impl KvSnapshot {
    /// Capture the first `len` tokens from a KV store.
    fn capture(kv: &dyn KvStore, len: usize) -> Self {
        assert!(len <= kv.len(), "snapshot beyond stored tokens");
        let layers = kv.num_layers();
        let kv_dim = kv.kv_dim();
        let mut keys = Vec::with_capacity(layers);
        let mut values = Vec::with_capacity(layers);
        for l in 0..layers {
            let mut ks = Vec::with_capacity(len * kv_dim);
            let mut vs = Vec::with_capacity(len * kv_dim);
            for t in 0..len {
                ks.extend_from_slice(kv.key(l, t));
                vs.extend_from_slice(kv.value(l, t));
            }
            keys.push(ks);
            values.push(vs);
        }
        Self {
            len,
            kv_dim,
            keys,
            values,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Replay the snapshot into an *empty* KV store.
    pub fn restore(&self, kv: &mut dyn KvStore) {
        assert_eq!(kv.len(), 0, "restore into a non-empty store");
        assert_eq!(kv.kv_dim(), self.kv_dim, "kv width mismatch");
        assert_eq!(kv.num_layers(), self.keys.len(), "layer count mismatch");
        for l in 0..self.keys.len() {
            for t in 0..self.len {
                let s = t * self.kv_dim;
                kv.write(
                    l,
                    t,
                    &self.keys[l][s..s + self.kv_dim],
                    &self.values[l][s..s + self.kv_dim],
                );
            }
        }
    }
}

/// The prefix store.
#[derive(Debug)]
pub struct PrefixCache {
    /// Block granularity: only multiples of this many tokens are cached.
    block_tokens: usize,
    /// Total token budget across snapshots.
    max_tokens: usize,
    stored_tokens: usize,
    entries: BTreeMap<Vec<usize>, (KvSnapshot, u64)>,
    clock: u64,
    pub hits: u64,
    pub misses: u64,
    /// Prefill tokens saved by cache hits.
    pub tokens_saved: u64,
}

impl PrefixCache {
    pub fn new(block_tokens: usize, max_tokens: usize) -> Self {
        assert!(block_tokens >= 1);
        Self {
            block_tokens,
            max_tokens,
            stored_tokens: 0,
            entries: BTreeMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            tokens_saved: 0,
        }
    }

    /// Number of cached snapshots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Longest cached block-aligned prefix of `prompt`. Records hit/miss
    /// statistics and refreshes LRU recency on hit.
    pub fn lookup(&mut self, prompt: &[usize]) -> Option<KvSnapshot> {
        let max_blocks = prompt.len() / self.block_tokens;
        for blocks in (1..=max_blocks).rev() {
            let prefix = &prompt[..blocks * self.block_tokens];
            if let Some((snap, stamp)) = self.entries.get_mut(prefix) {
                self.clock += 1;
                *stamp = self.clock;
                self.hits += 1;
                self.tokens_saved += snap.len() as u64;
                return Some(snap.clone());
            }
        }
        self.misses += 1;
        None
    }

    /// Insert the block-aligned prefix of `prompt` captured from `kv`
    /// (typically right after its prefill). No-op for prompts shorter than
    /// one block or snapshots over budget.
    pub fn insert(&mut self, prompt: &[usize], kv: &dyn KvStore) {
        let blocks = prompt.len().min(kv.len()) / self.block_tokens;
        if blocks == 0 {
            return;
        }
        let len = blocks * self.block_tokens;
        if len > self.max_tokens {
            return;
        }
        let key = prompt[..len].to_vec();
        if self.entries.contains_key(&key) {
            return;
        }
        let snap = KvSnapshot::capture(kv, len);
        self.stored_tokens += len;
        self.clock += 1;
        self.entries.insert(key, (snap, self.clock));
        self.evict_to_budget();
    }

    fn evict_to_budget(&mut self) {
        while self.stored_tokens > self.max_tokens {
            let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
            else {
                return;
            };
            if let Some((snap, _)) = self.entries.remove(&oldest) {
                self.stored_tokens -= snap.len();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_engine::kvcache::{ContiguousKv, PagedKv};

    fn filled_kv(tokens: usize) -> ContiguousKv {
        let mut kv = ContiguousKv::new(2, 4);
        for l in 0..2 {
            for t in 0..tokens {
                let k: Vec<f32> = (0..4).map(|i| (t * 100 + l * 10 + i) as f32).collect();
                kv.write(l, t, &k, &k);
            }
        }
        kv
    }

    #[test]
    fn snapshot_roundtrip_exact() {
        let kv = filled_kv(10);
        let snap = KvSnapshot::capture(&kv, 8);
        let mut restored = PagedKv::with_block_size(2, 4, 4);
        snap.restore(&mut restored);
        assert_eq!(restored.len(), 8);
        for l in 0..2 {
            for t in 0..8 {
                assert_eq!(kv.key(l, t), restored.key(l, t));
                assert_eq!(kv.value(l, t), restored.value(l, t));
            }
        }
    }

    #[test]
    fn lookup_finds_longest_block_aligned_prefix() {
        let mut cache = PrefixCache::new(4, 1000);
        let prompt: Vec<usize> = (0..12).collect();
        cache.insert(&prompt[..4], &filled_kv(4));
        cache.insert(&prompt[..8], &filled_kv(8));
        // A longer prompt sharing 8 tokens hits the 8-token snapshot.
        let hit = cache.lookup(&prompt).expect("prefix cached");
        assert_eq!(hit.len(), 8);
        assert_eq!(cache.hits, 1);
        // A prompt diverging after 4 tokens hits only the 4-token one.
        let mut other: Vec<usize> = (0..12).collect();
        other[5] = 99;
        let hit = cache.lookup(&other).expect("short prefix cached");
        assert_eq!(hit.len(), 4);
    }

    #[test]
    fn miss_on_unrelated_prompt() {
        let mut cache = PrefixCache::new(4, 1000);
        cache.insert(&[1, 2, 3, 4], &filled_kv(4));
        assert!(cache.lookup(&[9, 9, 9, 9, 9]).is_none());
        assert_eq!(cache.misses, 1);
        assert_eq!(cache.hits, 0);
    }

    #[test]
    fn sub_block_prompts_not_cached() {
        let mut cache = PrefixCache::new(8, 1000);
        cache.insert(&[1, 2, 3], &filled_kv(3));
        assert!(cache.is_empty());
    }

    #[test]
    fn lru_eviction_respects_budget() {
        let mut cache = PrefixCache::new(4, 8); // room for two 4-token snaps
        cache.insert(&[1, 2, 3, 4], &filled_kv(4));
        cache.insert(&[5, 6, 7, 8], &filled_kv(4));
        assert_eq!(cache.stored_tokens, 8);
        // Touch the first so the second is LRU.
        assert!(cache.lookup(&[1, 2, 3, 4]).is_some());
        cache.insert(&[9, 10, 11, 12], &filled_kv(4));
        assert_eq!(cache.stored_tokens, 8);
        assert!(
            cache.lookup(&[1, 2, 3, 4]).is_some(),
            "recently used survives"
        );
        assert!(cache.lookup(&[5, 6, 7, 8]).is_none(), "LRU entry evicted");
        assert!(cache.lookup(&[9, 10, 11, 12]).is_some());
    }

    #[test]
    fn oversized_snapshot_rejected() {
        let mut cache = PrefixCache::new(4, 6);
        cache.insert(&(0..8).collect::<Vec<_>>(), &filled_kv(8));
        assert!(cache.is_empty());
    }

    #[test]
    fn tokens_saved_accumulates() {
        let mut cache = PrefixCache::new(4, 100);
        cache.insert(&[1, 2, 3, 4], &filled_kv(4));
        let _ = cache.lookup(&[1, 2, 3, 4, 5]);
        let _ = cache.lookup(&[1, 2, 3, 4, 6]);
        assert_eq!(cache.tokens_saved, 8);
    }
}
