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
}

impl Request {
    pub fn new(prompt_len: usize, max_new_tokens: usize) -> Self {
        Self {
            prompt_len,
            max_new_tokens,
        }
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
