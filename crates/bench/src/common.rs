//! Shared experiment plumbing: automatic device placement, the paper's
//! standard workload grids, and A/B throughput comparisons.

use moe_gpusim::device::Cluster;
use moe_gpusim::memory::check_fits;
use moe_gpusim::parallel::ParallelPlan;
use moe_gpusim::perfmodel::{EngineOptions, PerfModel, RunMetrics};
use moe_model::ModelConfig;
use moe_tensor::Precision;

use crate::report::{num, Table};

/// Batch sizes evaluated throughout the paper (Section 3.2).
pub const PAPER_BATCHES: [usize; 4] = [1, 16, 32, 64];

/// Extended batch grid used by Figures 5/6.
pub const SWEEP_BATCHES: [usize; 5] = [1, 16, 32, 64, 128];

/// Input/output lengths evaluated throughout the paper (Section 3.2).
pub const PAPER_LENGTHS: [usize; 5] = [128, 256, 512, 1024, 2048];

/// Place a model on the smallest H100 TP group (1/2/4/8) where the given
/// workload fits; returns the ready `PerfModel`.
pub fn auto_place(
    config: &ModelConfig,
    precision: Precision,
    batch: usize,
    max_seq: usize,
) -> Result<PerfModel, String> {
    for gpus in [1usize, 2, 4, 8] {
        let plan = ParallelPlan::tensor(gpus);
        let cluster = Cluster::h100_node(gpus);
        let opts = EngineOptions::default()
            .with_precision(precision)
            .with_plan(plan);
        if check_fits(
            config,
            precision,
            opts.kv_precision,
            &plan,
            &cluster,
            batch,
            max_seq,
            1.0,
        )
        .is_ok()
        {
            return PerfModel::new(config.clone(), cluster, opts);
        }
    }
    Err(format!(
        "{} does not fit on 8 H100s at batch {batch}, seq {max_seq}",
        config.name
    ))
}

/// Place with an explicit plan on a matching H100 cluster.
pub fn place_with_plan(
    config: &ModelConfig,
    precision: Precision,
    plan: ParallelPlan,
    fused: bool,
) -> Result<PerfModel, String> {
    let cluster = Cluster::h100_node(plan.degree);
    let opts = EngineOptions::default()
        .with_precision(precision)
        .with_plan(plan)
        .with_fused_moe(fused);
    PerfModel::new(config.clone(), cluster, opts)
}

/// Run and return `None` on OOM (the missing points in Figures 7-9).
fn run_or_oom(model: &PerfModel, batch: usize, input: usize, output: usize) -> Option<RunMetrics> {
    model
        .run(batch, input, output, &mut moe_trace::Tracer::disabled(), 0)
        .ok()
}

/// Throughput of two engines over `(x, batch, input, output)` points, as
/// `(x, a tok/s, b tok/s)` rows. Every point must fit both engines.
pub fn ab_series(
    a: &PerfModel,
    b: &PerfModel,
    points: impl IntoIterator<Item = (usize, usize, usize, usize)>,
) -> Vec<(usize, f64, f64)> {
    let tok_s = |m: &PerfModel, batch, input, output| {
        run_or_oom(m, batch, input, output)
            .expect("A/B point fits")
            .throughput_tok_s
    };
    points
        .into_iter()
        .map(|(x, batch, input, output)| {
            (
                x,
                tok_s(a, batch, input, output),
                tok_s(b, batch, input, output),
            )
        })
        .collect()
}

/// Render an [`ab_series`] as `columns = [x, a, b, gain]`, the gain column
/// being `gain(a, b)` as a percentage.
pub fn gain_table(
    name: &str,
    columns: [&str; 4],
    s: &[(usize, f64, f64)],
    gain: impl Fn(f64, f64) -> f64,
) -> Table {
    let mut t = Table::new(name, &columns);
    for &(x, a, b) in s {
        t.row(vec![
            x.to_string(),
            num(a),
            num(b),
            format!("{}%", num(100.0 * gain(a, b))),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_model::registry::{mixtral_8x7b, olmoe_1b_7b};

    #[test]
    fn auto_place_small_model_single_gpu() {
        let m = auto_place(&olmoe_1b_7b(), Precision::F16, 1, 2048).unwrap();
        assert_eq!(m.cluster().num_devices, 1);
    }

    #[test]
    fn auto_place_mixtral_needs_two() {
        let m = auto_place(&mixtral_8x7b(), Precision::F16, 1, 2048).unwrap();
        assert_eq!(m.cluster().num_devices, 2);
    }

    #[test]
    fn auto_place_grows_with_batch() {
        let small = auto_place(&mixtral_8x7b(), Precision::F16, 1, 4096).unwrap();
        let big = auto_place(&mixtral_8x7b(), Precision::F16, 64, 4096).unwrap();
        assert!(big.cluster().num_devices >= small.cluster().num_devices);
    }

    #[test]
    fn fp8_reduces_required_gpus() {
        let f16 = auto_place(&mixtral_8x7b(), Precision::F16, 1, 2048).unwrap();
        let f8 = auto_place(&mixtral_8x7b(), Precision::Fp8E4M3, 1, 2048).unwrap();
        assert!(f8.cluster().num_devices < f16.cluster().num_devices);
    }

    #[test]
    fn run_or_oom_reports_oom_as_none() {
        let model = place_with_plan(
            &mixtral_8x7b(),
            Precision::F16,
            ParallelPlan::tensor(1),
            true,
        )
        .unwrap();
        assert!(run_or_oom(&model, 1, 128, 128).is_none());
    }
}
