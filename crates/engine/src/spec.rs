//! Speculative decoding, executed for real: a draft model proposes `gamma`
//! tokens autoregressively; the target verifies them in a single forward
//! pass, accepts the longest matching prefix, emits one bonus/correction
//! token, and rolls its KV cache back past the rejected suffix.
//!
//! With greedy acceptance (`accept iff the draft token equals the target's
//! greedy choice`) the committed sequence is *exactly* the target's greedy
//! output — the invariant the test-suite pins down. This mirrors the
//! lossless guarantee of production speculative decoding.

use moe_json::{FromJson, ToJson};
use moe_tensor::ops::argmax;

use crate::kvcache::KvStore;
use crate::model::MoeTransformer;

/// Outcome of a speculative generation run.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct SpecResult {
    /// Newly generated tokens (prompt excluded).
    pub tokens: Vec<usize>,
    /// Verification cycles executed.
    pub cycles: usize,
    /// Draft tokens proposed in total.
    pub proposed: usize,
    /// Draft tokens accepted in total.
    pub accepted: usize,
}

impl SpecResult {
    /// Fraction of proposed draft tokens the target accepted.
    pub fn acceptance_rate(&self) -> f64 {
        if self.proposed == 0 {
            0.0
        } else {
            self.accepted as f64 / self.proposed as f64
        }
    }

    /// Mean committed tokens per verification cycle (the speedup driver).
    pub fn tokens_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.tokens.len() as f64 / self.cycles as f64
        }
    }
}

/// Feed a model every committed token its cache is missing, returning the
/// logits of the last row (the model's prediction for the next token).
fn catch_up(model: &mut MoeTransformer, seq: &[usize], kv: &mut dyn KvStore) -> Vec<f32> {
    let from = kv.len();
    debug_assert!(from < seq.len(), "catch_up with nothing to feed");
    let tokens = &seq[from..];
    let positions: Vec<usize> = (from..seq.len()).collect();
    let logits = model.forward(tokens, &positions, kv);
    logits.row(tokens.len() - 1).to_vec()
}

/// Greedy speculative decoding.
///
/// Both models must share a vocabulary (same-family requirement from the
/// paper). Generates exactly `max_new_tokens` tokens.
pub fn speculative_generate(
    target: &mut MoeTransformer,
    draft: &mut MoeTransformer,
    prompt: &[usize],
    max_new_tokens: usize,
    gamma: usize,
) -> SpecResult {
    assert!(!prompt.is_empty(), "empty prompt");
    assert!(gamma >= 1, "gamma must be at least 1");
    assert_eq!(
        target.config().vocab_size,
        draft.config().vocab_size,
        "draft and target must share a vocabulary"
    );

    let mut target_kv = target.new_kv();
    let mut draft_kv = draft.new_kv();

    // Committed sequence; invariant between cycles: each model's KV cache
    // covers a prefix of `seq` (everything except at least the last
    // committed token).
    let mut seq: Vec<usize> = prompt.to_vec();
    let mut result = SpecResult {
        tokens: Vec::new(),
        cycles: 0,
        proposed: 0,
        accepted: 0,
    };

    if max_new_tokens == 0 {
        return result;
    }

    // Target prefill commits the first token.
    let first_logits = catch_up(target, &seq, &mut target_kv);
    let first = argmax(&first_logits);
    seq.push(first);
    result.tokens.push(first);

    while result.tokens.len() < max_new_tokens {
        // --- Draft phase: catch up, then propose gamma tokens. ---
        let mut proposals = Vec::with_capacity(gamma);
        let mut draft_logits = catch_up(draft, &seq, &mut draft_kv);
        for i in 0..gamma {
            let p = argmax(&draft_logits);
            proposals.push(p);
            if i + 1 < gamma {
                let pos = draft_kv.len();
                debug_assert_eq!(pos, seq.len() + i);
                let logits = draft.forward(&[p], &[pos], &mut draft_kv);
                draft_logits = logits.row(0).to_vec();
            }
        }
        result.proposed += proposals.len();

        // --- Verify phase: one target forward over the uncached committed
        // suffix plus all proposals. ---
        let from = target_kv.len();
        let mut feed: Vec<usize> = seq[from..].to_vec();
        let catchup_rows = feed.len();
        feed.extend_from_slice(&proposals);
        let positions: Vec<usize> = (from..from + feed.len()).collect();
        let logits = target.forward(&feed, &positions, &mut target_kv);

        // Row (catchup_rows - 1 + i) predicts the token after proposal i.
        let mut accepted = 0;
        for (i, &p) in proposals.iter().enumerate() {
            let choice = argmax(logits.row(catchup_rows - 1 + i));
            if choice == p {
                accepted += 1;
            } else {
                break;
            }
        }
        result.accepted += accepted;
        let bonus = argmax(logits.row(catchup_rows - 1 + accepted));

        // Commit the accepted prefix plus the bonus/correction token.
        for &p in &proposals[..accepted] {
            seq.push(p);
            result.tokens.push(p);
        }
        seq.push(bonus);
        result.tokens.push(bonus);
        result.cycles += 1;

        // Roll both caches back to cover exactly seq[..len-1].
        target_kv.truncate(seq.len() - 1);
        draft_kv.truncate((seq.len() - 1).min(draft_kv.len()));
    }

    result.tokens.truncate(max_new_tokens);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;
    use moe_model::registry::tiny_test_model;

    fn target() -> MoeTransformer {
        MoeTransformer::new(tiny_test_model(8, 2), 7)
    }

    fn draft(seed: u64) -> MoeTransformer {
        // A smaller dense-ish draft: fewer experts.
        MoeTransformer::new(tiny_test_model(4, 1), seed)
    }

    #[test]
    fn spec_equals_vanilla_greedy() {
        // The lossless guarantee, with an arbitrary (bad) draft.
        let prompt = vec![3usize, 14, 15];
        let vanilla = generate(&mut target(), &prompt, 20);
        for gamma in [1usize, 2, 4, 7] {
            let spec = speculative_generate(&mut target(), &mut draft(123), &prompt, 20, gamma);
            assert_eq!(spec.tokens, vanilla.tokens, "gamma={gamma}");
        }
    }

    #[test]
    fn perfect_draft_accepts_everything() {
        // Draft == target: every proposal matches the target's greedy
        // choice, so acceptance is 100%.
        let prompt = vec![5usize, 6, 7];
        let spec = speculative_generate(&mut target(), &mut target(), &prompt, 16, 4);
        assert_eq!(spec.accepted, spec.proposed);
        assert!(
            spec.tokens_per_cycle() >= 4.9,
            "{}",
            spec.tokens_per_cycle()
        );
        let vanilla = generate(&mut target(), &prompt, 16);
        assert_eq!(spec.tokens, vanilla.tokens);
    }

    #[test]
    fn bad_draft_still_correct_but_slow() {
        let prompt = vec![1usize, 2, 3];
        let spec = speculative_generate(&mut target(), &mut draft(999), &prompt, 12, 4);
        let vanilla = generate(&mut target(), &prompt, 12);
        assert_eq!(spec.tokens, vanilla.tokens);
        assert!(spec.acceptance_rate() < 1.0);
        // Even with zero acceptance every cycle commits one token.
        assert!(spec.tokens_per_cycle() >= 1.0);
    }

    #[test]
    fn cycle_accounting_consistent() {
        let prompt = vec![9usize, 8];
        let spec = speculative_generate(&mut target(), &mut draft(5), &prompt, 15, 3);
        assert_eq!(spec.tokens.len(), 15);
        assert!(spec.proposed >= spec.accepted);
        assert_eq!(spec.proposed, spec.cycles * 3);
        // tokens = 1 (prefill) + sum(accepted_i + 1), possibly truncated.
        assert!(spec.tokens.len() as u64 <= 1 + (spec.accepted + spec.cycles) as u64);
    }

    #[test]
    fn larger_gamma_fewer_cycles_with_good_draft() {
        let prompt = vec![2usize, 4, 6];
        let g1 = speculative_generate(&mut target(), &mut target(), &prompt, 24, 1);
        let g6 = speculative_generate(&mut target(), &mut target(), &prompt, 24, 6);
        assert!(g6.cycles < g1.cycles);
    }

    #[test]
    #[should_panic(expected = "share a vocabulary")]
    fn vocab_mismatch_rejected() {
        let mut small_vocab = tiny_test_model(4, 1);
        small_vocab.vocab_size = 128;
        let mut d = MoeTransformer::new(small_vocab, 1);
        let _ = speculative_generate(&mut target(), &mut d, &[1, 2], 4, 2);
    }

    #[test]
    fn acceptance_rate_bounds() {
        let spec = speculative_generate(&mut target(), &mut draft(77), &[1, 2, 3], 10, 2);
        let rate = spec.acceptance_rate();
        assert!((0.0..=1.0).contains(&rate));
    }
}
