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
//! * the one integer hasher of the simulator's id- and shape-keyed
//!   hash tables ([`inthash`]);
//! * the **step core** of simulated serving: plan a step, price it
//!   through a shape-keyed cache, commit it, report finished requests
//!   with their first-token times ([`step`]). One driver steps it: the
//!   `moe-cluster` replica, which a one-replica cluster also uses for
//!   every single-engine serving experiment;
//! * **KV-pool sizing** from the device memory a model leaves free
//!   ([`simserver::scheduler_config_for`]);
//! * a **live server** that runs the same scheduler over the *real*
//!   `moe-engine` executor on down-scaled models, proving the scheduling
//!   machinery does not change model outputs ([`liveserver`]);
//! * the paper's metric definitions (Section 3.4) and simple aggregation
//!   helpers ([`metrics`]).

#![forbid(unsafe_code)]

pub mod blockmgr;
pub mod inthash;
pub mod liveserver;
pub mod metrics;
pub mod prefixcache;
pub mod request;
pub mod scheduler;
pub mod simserver;
pub mod step;

pub use blockmgr::BlockManager;
pub use request::{Request, RequestId, SeqState};
pub use scheduler::{Scheduler, SchedulerConfig, StepPlan};
