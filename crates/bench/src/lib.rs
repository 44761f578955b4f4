//! # moe-bench
//!
//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation from the simulated serving stack. See `DESIGN.md`
//! for the experiment index and `EXPERIMENTS.md` for paper-vs-measured
//! records.
//!
//! Run `moe-bench list` for the experiment roster, `moe-bench <id>` to
//! regenerate one, `moe-bench all` for everything — `all` executes the
//! registry concurrently on the `moe-par` work-stealing pool and is
//! byte-identical for any `MOE_THREADS` value (see [`experiment`]).

#![forbid(unsafe_code)]

pub mod common;
pub mod experiment;
pub mod experiments;
pub mod report;
pub mod timing;

pub use experiment::{run_all, ExpCtx, Experiment, REGISTRY};
pub use report::{ExperimentReport, Table};

/// Run one experiment by id, recording its simulated work into `tracer`
/// (pass [`moe_trace::Tracer::disabled`] for none; the report is
/// identical either way). `None` for an unknown id. See
/// [`experiment::run_one`] for the root span each traced run gets.
pub fn run_experiment(
    id: &str,
    fast: bool,
    tracer: &mut moe_trace::Tracer,
) -> Option<ExperimentReport> {
    experiment::find(id).map(|e| experiment::run_one(e, fast, tracer))
}
