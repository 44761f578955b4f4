//! KV-cache storage: a contiguous reference implementation and a
//! vLLM-style paged implementation, behind one trait, proven equivalent by
//! tests and used interchangeably by the attention kernel.
//!
//! Writes are append-only *per layer* and indexed by absolute token
//! position: a prefill pass appends tokens `0..T` to layer 0, then to
//! layer 1, and so on — each layer's length advances independently (as in
//! real engines, where the cache for layer `l+1` lags while layer `l`
//! computes).
//!
//! The paged layout allocates fixed-size token blocks per layer on demand,
//! so memory growth is quantized to blocks — the property the serving
//! runtime's block manager (in `moe-runtime`) relies on. `truncate`
//! supports the KV rollback speculative decoding needs.

/// Tokens per KV block (vLLM's default block size).
pub const KV_BLOCK_TOKENS: usize = 16;

/// Read/write interface over a single sequence's KV history.
pub trait KvStore {
    /// Number of layers this store covers.
    fn num_layers(&self) -> usize;
    /// KV vector width (kv_heads * head_dim).
    fn kv_dim(&self) -> usize;
    /// Tokens stored for `layer`.
    fn layer_len(&self, layer: usize) -> usize;
    /// Tokens fully stored across all layers.
    fn len(&self) -> usize {
        (0..self.num_layers())
            .map(|l| self.layer_len(l))
            .min()
            .unwrap_or(0)
    }
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Append token `t`'s K and V for `layer`; `t` must equal
    /// `layer_len(layer)` (append-only).
    fn write(&mut self, layer: usize, t: usize, k: &[f32], v: &[f32]);
    /// Key vector of token `t` at `layer`.
    fn key(&self, layer: usize, t: usize) -> &[f32];
    /// Value vector of token `t` at `layer`.
    fn value(&self, layer: usize, t: usize) -> &[f32];
    /// Drop all tokens at positions `>= new_len` in every layer
    /// (speculative-decoding rollback).
    fn truncate(&mut self, new_len: usize);
}

/// Simple contiguous per-layer storage (the correctness reference).
#[derive(Debug, Clone)]
pub struct ContiguousKv {
    kv_dim: usize,
    keys: Vec<Vec<f32>>,
    values: Vec<Vec<f32>>,
}

impl ContiguousKv {
    pub fn new(num_layers: usize, kv_dim: usize) -> Self {
        Self {
            kv_dim,
            keys: vec![Vec::new(); num_layers],
            values: vec![Vec::new(); num_layers],
        }
    }
}

impl KvStore for ContiguousKv {
    fn num_layers(&self) -> usize {
        self.keys.len()
    }

    fn kv_dim(&self) -> usize {
        self.kv_dim
    }

    fn layer_len(&self, layer: usize) -> usize {
        self.keys[layer].len() / self.kv_dim
    }

    fn write(&mut self, layer: usize, t: usize, k: &[f32], v: &[f32]) {
        assert_eq!(k.len(), self.kv_dim);
        assert_eq!(v.len(), self.kv_dim);
        assert_eq!(
            t,
            self.layer_len(layer),
            "non-append write at layer {layer}"
        );
        self.keys[layer].extend_from_slice(k);
        self.values[layer].extend_from_slice(v);
    }

    fn key(&self, layer: usize, t: usize) -> &[f32] {
        &self.keys[layer][t * self.kv_dim..(t + 1) * self.kv_dim]
    }

    fn value(&self, layer: usize, t: usize) -> &[f32] {
        &self.values[layer][t * self.kv_dim..(t + 1) * self.kv_dim]
    }

    fn truncate(&mut self, new_len: usize) {
        for l in 0..self.keys.len() {
            let keep = new_len.min(self.layer_len(l)) * self.kv_dim;
            self.keys[l].truncate(keep);
            self.values[l].truncate(keep);
        }
    }
}

/// One physical block: K and V for up to `block_tokens` tokens of one
/// layer.
#[derive(Debug, Clone)]
struct Block {
    keys: Vec<f32>,
    values: Vec<f32>,
}

/// Paged storage: per layer, a block table mapping logical block index to
/// a pool slot; blocks allocated on demand and recycled on truncation.
#[derive(Debug, Clone)]
pub struct PagedKv {
    kv_dim: usize,
    block_tokens: usize,
    lens: Vec<usize>,
    pool: Vec<Block>,
    free: Vec<usize>,
    /// `tables[layer][logical_block] = pool index`.
    tables: Vec<Vec<usize>>,
}

impl PagedKv {
    pub fn new(num_layers: usize, kv_dim: usize) -> Self {
        Self::with_block_size(num_layers, kv_dim, KV_BLOCK_TOKENS)
    }

    // lint:allow(dead-pub) -- unit tests here, in attention.rs and in moe-runtime page at small block sizes
    pub fn with_block_size(num_layers: usize, kv_dim: usize, block_tokens: usize) -> Self {
        assert!(block_tokens >= 1, "block size must be positive");
        Self {
            kv_dim,
            block_tokens,
            lens: vec![0; num_layers],
            pool: Vec::new(),
            free: Vec::new(),
            tables: vec![Vec::new(); num_layers],
        }
    }

    fn alloc_block(&mut self) -> usize {
        if let Some(idx) = self.free.pop() {
            idx
        } else {
            self.pool.push(Block {
                keys: vec![0.0; self.block_tokens * self.kv_dim],
                values: vec![0.0; self.block_tokens * self.kv_dim],
            });
            self.pool.len() - 1
        }
    }

    fn slot(&self, layer: usize, t: usize) -> (usize, usize) {
        let logical = t / self.block_tokens;
        let offset = t % self.block_tokens;
        (self.tables[layer][logical], offset)
    }
}

impl KvStore for PagedKv {
    fn num_layers(&self) -> usize {
        self.tables.len()
    }

    fn kv_dim(&self) -> usize {
        self.kv_dim
    }

    fn layer_len(&self, layer: usize) -> usize {
        self.lens[layer]
    }

    fn write(&mut self, layer: usize, t: usize, k: &[f32], v: &[f32]) {
        assert_eq!(k.len(), self.kv_dim);
        assert_eq!(t, self.lens[layer], "non-append write at layer {layer}");
        let logical = t / self.block_tokens;
        if logical == self.tables[layer].len() {
            let b = self.alloc_block();
            self.tables[layer].push(b);
        }
        let (block, offset) = self.slot(layer, t);
        let start = offset * self.kv_dim;
        self.pool[block].keys[start..start + self.kv_dim].copy_from_slice(k);
        self.pool[block].values[start..start + self.kv_dim].copy_from_slice(v);
        self.lens[layer] = t + 1;
    }

    fn key(&self, layer: usize, t: usize) -> &[f32] {
        debug_assert!(t < self.lens[layer]);
        let (block, offset) = self.slot(layer, t);
        let start = offset * self.kv_dim;
        &self.pool[block].keys[start..start + self.kv_dim]
    }

    fn value(&self, layer: usize, t: usize) -> &[f32] {
        debug_assert!(t < self.lens[layer]);
        let (block, offset) = self.slot(layer, t);
        let start = offset * self.kv_dim;
        &self.pool[block].values[start..start + self.kv_dim]
    }

    fn truncate(&mut self, new_len: usize) {
        let needed_blocks = new_len.div_ceil(self.block_tokens);
        for layer in 0..self.tables.len() {
            if new_len < self.lens[layer] {
                self.lens[layer] = new_len;
            }
            while let Some(idx) = self.tables[layer].pop() {
                if self.tables[layer].len() < needed_blocks {
                    self.tables[layer].push(idx);
                    break;
                }
                self.free.push(idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Physical blocks currently allocated (across all layers).
    fn allocated(s: &PagedKv) -> usize {
        s.pool.len() - s.free.len()
    }

    /// Write `tokens` tokens into every layer, layer-major like a prefill.
    fn fill<S: KvStore>(store: &mut S, from: usize, to: usize, layers: usize, kv_dim: usize) {
        for l in 0..layers {
            for t in from..to {
                let k: Vec<f32> = (0..kv_dim)
                    .map(|i| (t * 1000 + l * 100 + i) as f32)
                    .collect();
                let v: Vec<f32> = k.iter().map(|x| -x).collect();
                store.write(l, t, &k, &v);
            }
        }
    }

    #[test]
    fn contiguous_roundtrip() {
        let mut s = ContiguousKv::new(2, 4);
        fill(&mut s, 0, 5, 2, 4);
        assert_eq!(s.len(), 5);
        assert_eq!(s.key(1, 3)[0], 3100.0);
        assert_eq!(s.value(1, 3)[0], -3100.0);
    }

    #[test]
    fn len_is_min_across_layers() {
        let mut s = ContiguousKv::new(2, 4);
        s.write(0, 0, &[0.0; 4], &[0.0; 4]);
        assert_eq!(s.layer_len(0), 1);
        assert_eq!(s.len(), 0); // layer 1 not written yet
        s.write(1, 0, &[0.0; 4], &[0.0; 4]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "non-append write")]
    fn out_of_order_write_rejected() {
        let mut s = ContiguousKv::new(1, 4);
        s.write(0, 1, &[0.0; 4], &[0.0; 4]);
    }

    #[test]
    fn paged_matches_contiguous() {
        let (layers, kv_dim, tokens) = (3, 8, 45);
        let mut a = ContiguousKv::new(layers, kv_dim);
        let mut b = PagedKv::with_block_size(layers, kv_dim, 16);
        fill(&mut a, 0, tokens, layers, kv_dim);
        fill(&mut b, 0, tokens, layers, kv_dim);
        for l in 0..layers {
            for t in 0..tokens {
                assert_eq!(a.key(l, t), b.key(l, t), "key l={l} t={t}");
                assert_eq!(a.value(l, t), b.value(l, t), "value l={l} t={t}");
            }
        }
    }

    #[test]
    fn paged_allocates_blocks_lazily() {
        let mut s = PagedKv::with_block_size(2, 4, 16);
        assert_eq!(allocated(&s), 0);
        fill(&mut s, 0, 1, 2, 4);
        assert_eq!(allocated(&s), 2); // one block per layer
        fill(&mut s, 1, 17, 2, 4); // crosses the block boundary
        assert_eq!(allocated(&s), 4);
    }

    #[test]
    fn truncate_returns_blocks_and_preserves_prefix() {
        let mut s = PagedKv::with_block_size(1, 4, 4);
        fill(&mut s, 0, 10, 1, 4);
        assert_eq!(allocated(&s), 3);
        let kept: Vec<f32> = s.key(0, 3).to_vec();
        s.truncate(4);
        assert_eq!(s.len(), 4);
        assert_eq!(allocated(&s), 1);
        assert_eq!(s.key(0, 3), &kept[..]);
        // Re-extend after truncation reuses freed blocks.
        fill(&mut s, 4, 12, 1, 4);
        assert_eq!(s.len(), 12);
        assert_eq!(allocated(&s), 3);
    }

    #[test]
    fn truncate_is_idempotent_and_clamps() {
        let mut s = ContiguousKv::new(2, 4);
        fill(&mut s, 0, 6, 2, 4);
        s.truncate(3);
        s.truncate(3);
        s.truncate(100); // beyond len: no-op
        assert_eq!(s.len(), 3);
    }

    // Deterministic randomized sweeps (replacing the former proptest versions).

    #[test]
    fn randomized_paged_equals_contiguous() {
        let mut rng = moe_tensor::rng::rng_from_seed(0x4b_c1);
        for _ in 0..32 {
            let tokens = 1 + rng.next_below(59);
            let block = 1 + rng.next_below(19);
            let kv_dim = 1 + rng.next_below(11);
            let mut a = ContiguousKv::new(2, kv_dim);
            let mut b = PagedKv::with_block_size(2, kv_dim, block);
            fill(&mut a, 0, tokens, 2, kv_dim);
            fill(&mut b, 0, tokens, 2, kv_dim);
            for t in 0..tokens {
                assert_eq!(a.key(0, t), b.key(0, t));
                assert_eq!(a.value(1, t), b.value(1, t));
            }
        }
    }

    #[test]
    fn randomized_truncate_then_refill_consistent() {
        let mut rng = moe_tensor::rng::rng_from_seed(0x4b_c2);
        for _ in 0..64 {
            let first = 1 + rng.next_below(39);
            let keep = rng.next_below(first + 1);
            let extra = rng.next_below(20);
            let mut s = PagedKv::with_block_size(1, 4, 8);
            fill(&mut s, 0, first, 1, 4);
            s.truncate(keep);
            fill(&mut s, keep, keep + extra, 1, 4);
            assert_eq!(s.len(), keep + extra);
            for t in 0..keep + extra {
                assert_eq!(s.key(0, t)[0], (t * 1000) as f32);
            }
        }
    }

    #[test]
    fn randomized_blocks_never_leak() {
        let mut rng = moe_tensor::rng::rng_from_seed(0x4b_c3);
        for _ in 0..48 {
            // Alternate extends and truncates; allocated blocks always
            // match ceil(len/block).
            let n_ops = 1 + rng.next_below(19);
            let mut s = PagedKv::with_block_size(1, 2, 4);
            let mut len = 0usize;
            for i in 0..n_ops {
                let target = rng.next_below(30);
                if i % 2 == 0 && target >= len {
                    fill(&mut s, len, target, 1, 2);
                    len = target;
                } else {
                    let t = target.min(len);
                    s.truncate(t);
                    len = t;
                }
                assert_eq!(allocated(&s), len.div_ceil(4));
            }
        }
    }
}
