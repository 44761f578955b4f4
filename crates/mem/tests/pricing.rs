//! End-to-end pricing checks: trace capture → residency derivation →
//! analytic cost model. The load-bearing guarantee is the identity: an
//! oracle predictor at an unconstrained HBM budget must reproduce the
//! pre-`moe-mem` prices bit for bit.

use moe_engine::trace::{capture_trace, TraceArtifact};
use moe_gpusim::device::Interconnect;
use moe_gpusim::{Cluster, EngineOptions, ParallelPlan, PerfModel};
use moe_mem::{derive_residency, PredictorQuality};
use moe_model::registry::{mixtral_8x7b, tiny_test_model};
use moe_trace::Tracer;

fn artifact() -> TraceArtifact {
    capture_trace(
        "tiny-8x2",
        tiny_test_model(8, 2),
        33,
        &[1, 2, 3, 4, 5, 6, 7, 8],
        16,
    )
}

fn priced_itl(opts: EngineOptions) -> f64 {
    PerfModel::new(mixtral_8x7b(), Cluster::h100_node(2), opts)
        .unwrap()
        .run(8, 1024, 1024, &mut Tracer::disabled(), 0)
        .unwrap()
        .itl_s
}

fn baseline_opts() -> EngineOptions {
    EngineOptions::default().with_plan(ParallelPlan::tensor(2))
}

#[test]
fn oracle_at_infinite_budget_reproduces_baseline_prices_bitwise() {
    let derived = derive_residency(
        &artifact(),
        1.0,
        PredictorQuality::Oracle,
        Interconnect::pcie_gen5(),
    );
    assert!(derived.residency.is_all_resident());

    let baseline = PerfModel::new(mixtral_8x7b(), Cluster::h100_node(2), baseline_opts()).unwrap();
    let derived_model = PerfModel::new(
        mixtral_8x7b(),
        Cluster::h100_node(2),
        baseline_opts().with_residency(derived.residency),
    )
    .unwrap();
    for (batch, input, output) in [
        (1usize, 128usize, 128usize),
        (8, 1024, 1024),
        (64, 2048, 256),
    ] {
        let a = baseline
            .run(batch, input, output, &mut Tracer::disabled(), 0)
            .unwrap();
        let b = derived_model
            .run(batch, input, output, &mut Tracer::disabled(), 0)
            .unwrap();
        assert_eq!(a, b, "batch {batch} input {input} output {output}");
    }
}

#[test]
fn shrinking_budget_degrades_itl_monotonically() {
    let a = artifact();
    let itl_at = |frac: f64| {
        let d = derive_residency(
            &a,
            frac,
            PredictorQuality::Frequency,
            Interconnect::pcie_gen5(),
        );
        priced_itl(baseline_opts().with_residency(d.residency))
    };
    let full = itl_at(1.0);
    let tight = itl_at(0.5);
    let tighter = itl_at(0.25);
    assert!(tight >= full, "{tight} vs {full}");
    assert!(tighter >= tight, "{tighter} vs {tight}");
    assert!(tighter > full * 1.01, "budget pressure must show up in ITL");
}

#[test]
fn predictor_quality_ladder_orders_the_price() {
    let a = artifact();
    let itl_at = |q: PredictorQuality| {
        let d = derive_residency(&a, 0.25, q, Interconnect::pcie_gen5());
        priced_itl(baseline_opts().with_residency(d.residency))
    };
    let oracle = itl_at(PredictorQuality::Oracle);
    let freq = itl_at(PredictorQuality::Frequency);
    let uniform = itl_at(PredictorQuality::Uniform);
    assert!(oracle <= freq + 1e-12, "{oracle} vs {freq}");
    assert!(freq <= uniform + 1e-12, "{freq} vs {uniform}");
    assert!(uniform > oracle, "the ladder must separate somewhere");
}
