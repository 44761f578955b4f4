//! Golden engine bits: the logits of real `moe-engine` forwards hash to a
//! fixed FNV-1a digest over their `f32::to_bits`, at every worker count.
//!
//! The kernels under the engine (`gemv`, `matmul_transposed`, the
//! attention scores and RoPE) may be restructured for speed only if every
//! output keeps its exact bits. This gate pins that for a prefill, a
//! decode, a continuous-batching `forward_multi` step and both MoE
//! dispatch paths, on the tiny test model and on the Fig. 15
//! DeepSeek-VL2-Tiny analogue. The digests were recorded before the
//! multi-chain kernels replaced the single-chain loops.

use moe_engine::{KvStore, MoeTransformer};
use moe_eval::activation::analogue_config;
use moe_model::registry::{deepseek_vl2_tiny, tiny_test_model};
use moe_tensor::Matrix;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// Digest of [`engine_digest`] on `tiny_test_model(8, 2)`, seed 11.
const TINY_DIGEST: u64 = 0xb16a_69d6_c08f_5865;
/// Digest of [`engine_digest`] on the DeepSeek-VL2-Tiny analogue, seed 11.
const VL2_ANALOGUE_DIGEST: u64 = 0x0a54_d0e8_f750_9237;

fn fnv1a(hash: &mut u64, logits: &Matrix) {
    for v in logits.as_slice() {
        for byte in v.to_bits().to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
}

fn tokens(n: usize, vocab: usize, salt: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 37 + salt * 11 + 5) % vocab).collect()
}

/// Hash the logits of, under fused and then unfused dispatch: a 32-token
/// prefill and one decode on the same cache, then three sequences of
/// different depths prefilled and stepped together by `forward_multi`.
fn engine_digest(mut model: MoeTransformer) -> u64 {
    let vocab = model.config().vocab_size;
    let mut hash = FNV_OFFSET;
    for fused in [true, false] {
        model.set_fused_moe(fused);

        let prompt = tokens(32, vocab, 0);
        let positions: Vec<usize> = (0..prompt.len()).collect();
        let mut kv = model.new_kv();
        fnv1a(&mut hash, &model.forward(&prompt, &positions, &mut kv));
        fnv1a(&mut hash, &model.forward(&[prompt[7]], &[32], &mut kv));

        let mut caches = Vec::new();
        let mut step_tokens = Vec::new();
        let mut step_positions = Vec::new();
        for seq in 0..3 {
            let p = tokens(5 + 4 * seq, vocab, seq + 1);
            let positions: Vec<usize> = (0..p.len()).collect();
            let mut kv = model.new_kv();
            fnv1a(&mut hash, &model.forward(&p, &positions, &mut kv));
            caches.push(kv);
            step_tokens.push(p[seq]);
            step_positions.push(p.len());
        }
        let mut stores: Vec<&mut dyn KvStore> =
            caches.iter_mut().map(|kv| kv as &mut dyn KvStore).collect();
        fnv1a(
            &mut hash,
            &model.forward_multi(&step_tokens, &step_positions, &mut stores),
        );
    }
    hash
}

/// The worker-count override is process-global; sweeps must not interleave.
fn worker_override_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn assert_digest_at_every_worker_count(
    name: &str,
    build: impl Fn() -> MoeTransformer,
    golden: u64,
) {
    let _guard = worker_override_lock();
    for threads in [1, 2, 8] {
        moe_par::set_workers_for_test(threads);
        let got = engine_digest(build());
        moe_par::set_workers_for_test(0);
        assert_eq!(
            got, golden,
            "{name}: logit bits moved at {threads} workers: {got:#018x} != {golden:#018x}"
        );
    }
}

#[test]
fn tiny_model_logit_bits_match_the_golden_digest() {
    assert_digest_at_every_worker_count(
        "tiny-test",
        || MoeTransformer::new(tiny_test_model(8, 2), 11),
        TINY_DIGEST,
    );
}

#[test]
fn vl2_tiny_analogue_logit_bits_match_the_golden_digest() {
    assert_digest_at_every_worker_count(
        "DeepSeek-VL2-Tiny analogue",
        || MoeTransformer::new(analogue_config(&deepseek_vl2_tiny()), 11),
        VL2_ANALOGUE_DIGEST,
    );
}
