//! # moe-par
//!
//! A from-scratch, zero-dependency, deterministic fork/join executor for
//! the workspace, promoted out of the former `moe_tensor::par` module.
//!
//! Three primitives cover every parallel shape the benchmark, planner and
//! simulator stacks need:
//!
//! * [`map_collect`] — work-stealing indexed map with **ordered
//!   reduction**: `(0..n).map(body)` evaluated on a per-worker-deque
//!   work-stealing pool, with results merged back in **submission order**
//!   (by index), never in completion order. As long as `body(i)` is a
//!   pure function of `i` and its captured inputs, the output `Vec` is
//!   bit-identical for any worker count and any steal schedule.
//! * [`for_each_chunk_mut`] — split a mutable buffer into fixed-size
//!   chunks and process each with its global chunk index. Work is divided
//!   into **contiguous runs** of whole chunks, one run per worker; see
//!   the *determinism contract* below.
//!
//! ## Determinism contract
//!
//! The executor guarantees schedule-independence, not magic:
//!
//! 1. **Ordered reduction.** [`map_collect`] returns results indexed by
//!    submission order. Two runs with different `MOE_THREADS` values (or
//!    different steal interleavings) observe the same `Vec<R>` provided
//!    `body` is deterministic per index.
//! 2. **Contiguous runs.** [`for_each_chunk_mut`] assigns each worker a
//!    contiguous run of whole chunks (it deliberately does *not* steal):
//!    chunk `i` always receives the same `(index, data)` pair, and chunks
//!    never overlap, so the buffer's final contents are identical for any
//!    worker count. Float reductions *within* one chunk happen on one
//!    thread in index order; callers must not reduce *across* chunks in
//!    completion order.
//! 3. **Index-derived seeds.** Parallel stochastic tasks must derive
//!    their RNG stream from the task index ([`derive_seed`]), never from
//!    a shared mutable generator, which would make the stream depend on
//!    execution order.
//!
//! Worker count resolves, in priority order: [`set_workers_for_test`]
//! override → `MOE_THREADS` environment variable (re-read on every call,
//! so setting it after first use is honored) → host parallelism.
//!
//! Panics in task bodies are captured on the worker thread and re-raised
//! on the caller via [`std::panic::resume_unwind`] after all workers have
//! been joined — no `unsafe`, no aborts, no leaked threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod executor;
mod seed;
mod workers;

pub use executor::{for_each_chunk_mut, map_collect};
pub use seed::derive_seed;
pub use workers::{set_workers_for_test, workers};
