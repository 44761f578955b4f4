//! # moe-runtime
//!
//! The serving engine — the substitution for vLLM in the paper's stack.
//! It implements the serving-system mechanisms whose behaviour the paper
//! measures:
//!
//! * a **paged-KV block manager** with watermark admission and preemption
//!   accounting ([`blockmgr`]);
//! * a **continuous-batching scheduler**: FCFS admission of prefills under
//!   a token budget, batched decode for running sequences,
//!   recompute-style preemption under memory pressure ([`scheduler`]);
//! * the **step core** every simulated serving loop shares: plan a step,
//!   price it through a shape-keyed cache, commit it, report finished
//!   requests with their first-token times ([`step`]);
//! * a **simulated server** that drives the step core on its own clock
//!   and reports per-request TTFT / ITL / E2E and aggregate throughput
//!   ([`simserver`]);
//! * a **live server** that runs the same scheduler over the *real*
//!   `moe-engine` executor on down-scaled models, proving the scheduling
//!   machinery does not change model outputs ([`liveserver`]);
//! * the paper's metric definitions (Section 3.4) and simple aggregation
//!   helpers ([`metrics`]).

#![forbid(unsafe_code)]

pub mod blockmgr;
pub mod liveserver;
pub mod metrics;
pub mod prefixcache;
pub mod request;
pub mod scheduler;
pub mod simserver;
pub mod step;

pub use blockmgr::BlockManager;
pub use request::{Request, RequestId, RequestOutput, SeqState};
pub use scheduler::{Scheduler, SchedulerConfig, StepPlan};
pub use simserver::{SimReport, SimServer};
