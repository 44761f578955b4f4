//! Autoregressive greedy generation over the executor, with KV-cache
//! reuse across steps.

use moe_json::{FromJson, ToJson};
use moe_tensor::ops::argmax;

use crate::model::MoeTransformer;

/// Output of one generation run.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct Generated {
    /// Newly generated tokens (prompt excluded).
    pub tokens: Vec<usize>,
    /// Decode steps executed (equals `tokens.len()`).
    pub steps: usize,
}

/// Greedily generate `max_new_tokens` from a prompt, reusing the KV cache
/// across steps.
pub fn generate(model: &mut MoeTransformer, prompt: &[usize], max_new_tokens: usize) -> Generated {
    assert!(!prompt.is_empty(), "empty prompt");
    let mut kv = model.new_kv();

    let positions: Vec<usize> = (0..prompt.len()).collect();
    let logits = model.forward(prompt, &positions, &mut kv);
    let mut last_row: Vec<f32> = logits.row(prompt.len() - 1).to_vec();

    let mut tokens = Vec::with_capacity(max_new_tokens);
    for step in 0..max_new_tokens {
        let next = argmax(&last_row);
        tokens.push(next);
        if step + 1 == max_new_tokens {
            break;
        }
        let pos = prompt.len() + step;
        let logits = model.forward(&[next], &[pos], &mut kv);
        last_row.copy_from_slice(logits.row(0));
    }

    Generated {
        steps: tokens.len(),
        tokens,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_model::registry::tiny_test_model;
    use moe_tensor::Matrix;

    fn tiny(seed: u64) -> MoeTransformer {
        MoeTransformer::new(tiny_test_model(8, 2), seed)
    }

    #[test]
    fn greedy_is_deterministic() {
        let prompt = [1usize, 2, 3];
        let a = generate(&mut tiny(5), &prompt, 12);
        let b = generate(&mut tiny(5), &prompt, 12);
        assert_eq!(a, b);
        assert_eq!(a.tokens.len(), 12);
    }

    #[test]
    fn greedy_with_kv_equals_full_recompute() {
        // The strongest KV-cache correctness check: token-by-token with
        // cache must equal recomputing the whole sequence from scratch at
        // every step.
        let prompt = vec![4usize, 9, 33];
        let max_new = 8;
        let cached = generate(&mut tiny(11), &prompt, max_new);

        let mut seq = prompt.clone();
        let mut recomputed = Vec::new();
        for _ in 0..max_new {
            let mut m = tiny(11);
            let mut kv = m.new_kv();
            let positions: Vec<usize> = (0..seq.len()).collect();
            let logits = m.forward(&seq, &positions, &mut kv);
            let next = argmax(logits.row(seq.len() - 1));
            recomputed.push(next);
            seq.push(next);
        }
        assert_eq!(cached.tokens, recomputed);
    }

    #[test]
    fn tokens_stay_in_vocab() {
        let g = generate(&mut tiny(6), &[1, 2, 3], 32);
        assert!(g.tokens.iter().all(|&t| t < 256));
    }

    #[test]
    fn zero_new_tokens_is_prefill_only() {
        let g = generate(&mut tiny(6), &[1, 2, 3], 0);
        assert!(g.tokens.is_empty());
        assert_eq!(g.steps, 0);
    }

    #[test]
    fn fused_and_unfused_generate_identically() {
        let prompt = [10usize, 20, 30];
        let mut fused = tiny(8);
        fused.set_fused_moe(true);
        let mut unfused = tiny(8);
        unfused.set_fused_moe(false);
        let a = generate(&mut fused, &prompt, 10);
        let b = generate(&mut unfused, &prompt, 10);
        assert_eq!(a.tokens, b.tokens);
    }

    #[test]
    #[should_panic(expected = "empty prompt")]
    fn empty_prompt_rejected() {
        let _ = generate(&mut tiny(1), &[], 1);
    }

    #[test]
    fn logits_are_finite() {
        let mut m = tiny(3);
        let mut kv = m.new_kv();
        let logits: Matrix = m.forward(&[1, 2, 3, 4], &[0, 1, 2, 3], &mut kv);
        assert!(logits.as_slice().iter().all(|v| v.is_finite()));
    }
}
