//! Request and sequence bookkeeping types shared by the schedulers.

use moe_json::{FromJson, ToJson};

/// Identifier assigned by the scheduler at submission.
pub type RequestId = u64;

/// A generation request as submitted by a client.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct Request {
    /// Prompt length in tokens (the simulated server doesn't need values).
    pub prompt_len: usize,
    /// Tokens to generate.
    pub max_new_tokens: usize,
    /// Arrival time (s) on the server clock.
    pub arrival_s: f64,
}

impl Request {
    pub fn new(prompt_len: usize, max_new_tokens: usize) -> Self {
        Self {
            prompt_len,
            max_new_tokens,
            arrival_s: 0.0,
        }
    }

    pub fn at(mut self, arrival_s: f64) -> Self {
        self.arrival_s = arrival_s;
        self
    }
}

/// Lifecycle state of a sequence in the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, ToJson, FromJson)]
pub enum SeqState {
    /// Queued, no KV allocated (also after a recompute-style
    /// preemption, until re-admitted).
    Waiting,
    /// Prefilled and decoding.
    Running,
    /// All tokens generated.
    Finished,
}

/// Completion record with the per-request serving metrics.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct RequestOutput {
    pub id: RequestId,
    pub prompt_len: usize,
    pub generated: usize,
    pub arrival_s: f64,
    /// First token emission time (s).
    pub first_token_s: f64,
    /// Completion time (s).
    pub finish_s: f64,
    /// Times the sequence was preempted and recomputed.
    pub preemptions: usize,
}

impl RequestOutput {
    /// Time to first token, from arrival.
    pub fn ttft_s(&self) -> f64 {
        self.first_token_s - self.arrival_s
    }

    /// End-to-end latency, from arrival.
    pub fn e2e_s(&self) -> f64 {
        self.finish_s - self.arrival_s
    }

    /// Mean inter-token latency.
    pub fn itl_s(&self) -> f64 {
        if self.generated > 1 {
            (self.finish_s - self.first_token_s) / (self.generated - 1) as f64
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builder() {
        let r = Request::new(128, 64).at(1.5);
        assert_eq!(r.prompt_len, 128);
        assert_eq!(r.max_new_tokens, 64);
        assert_eq!(r.arrival_s, 1.5);
    }

    #[test]
    fn output_metric_identities() {
        let o = RequestOutput {
            id: 1,
            prompt_len: 100,
            generated: 11,
            arrival_s: 2.0,
            first_token_s: 3.0,
            finish_s: 8.0,
            preemptions: 0,
        };
        assert_eq!(o.ttft_s(), 1.0);
        assert_eq!(o.e2e_s(), 6.0);
        assert!((o.itl_s() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_token_output_has_zero_itl() {
        let o = RequestOutput {
            id: 1,
            prompt_len: 10,
            generated: 1,
            arrival_s: 0.0,
            first_token_s: 1.0,
            finish_s: 1.0,
            preemptions: 0,
        };
        assert_eq!(o.itl_s(), 0.0);
    }
}
