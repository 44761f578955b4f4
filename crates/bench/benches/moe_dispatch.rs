//! Fused vs unfused MoE dispatch on the real executor — the functional
//! counterpart of Figure 14 at CPU scale — and the analytic pricing of the
//! same MoE layers: `PerfModel` decode and pipelined prefill steps, and
//! one planner search that prices tens of thousands of candidates.

use moe_bench::timing::Runner;
use moe_cluster::{generate, TenantSpec, WorkloadSpec};
use moe_engine::moe::{moe_forward_fused, moe_forward_unfused};
use moe_engine::weights::ModelWeights;
use moe_gpusim::device::Cluster;
use moe_gpusim::perfmodel::{EngineOptions, PerfModel, Phase};
use moe_gpusim::ParallelPlan;
use moe_model::registry::{deepseek_v2_lite, mixtral_8x7b, olmoe_1b_7b, tiny_test_model};
use moe_plan::{search, sketch_of, FleetSpec, PlannerSpec, SearchMode, SearchSpace, SloSpec};
use moe_tensor::Matrix;
use std::hint::black_box;

fn main() {
    let r = Runner::from_args();
    for &(experts, top_k) in &[(8usize, 2usize), (64, 8)] {
        let cfg = tiny_test_model(experts, top_k);
        let weights = ModelWeights::init(&cfg, 42);
        let layer = &weights.layers[0];
        let moe = cfg.moe.clone().expect("MoE config");
        for &tokens in &[4usize, 64] {
            let x = Matrix::random(tokens, cfg.hidden_size, 7, 0.5);
            r.bench(
                &format!("moe_dispatch/fused/e{experts}k{top_k}t{tokens}"),
                || black_box(moe_forward_fused(layer, &moe, &x, None, None, 0)),
            );
            r.bench(
                &format!("moe_dispatch/unfused/e{experts}k{top_k}t{tokens}"),
                || black_box(moe_forward_unfused(layer, &moe, &x, None, None, 0)),
            );
        }
    }

    // DeepSeek-V2-Lite leads with a dense layer, so its stack has both
    // layer kinds.
    for (name, config) in [
        ("olmoe", olmoe_1b_7b()),
        ("deepseek_v2_lite", deepseek_v2_lite()),
    ] {
        let model = PerfModel::h100(config);
        r.bench(&format!("pricing/decode_step_time/{name}"), || {
            black_box(model.decode_step_time(black_box(32), black_box(1024)))
        });
    }
    let mixtral_pp4 = PerfModel::new(
        mixtral_8x7b(),
        Cluster::h100_node(4),
        EngineOptions::default().with_plan(ParallelPlan::pipeline(4)),
    )
    .expect("a 4-stage pipeline plan is valid for Mixtral-8x7B");
    r.bench("pricing/forward_time_prefill/mixtral_pp4", || {
        black_box(mixtral_pp4.forward_time(black_box(16 * 512), 16, 512, Phase::Prefill))
    });

    let spec = PlannerSpec {
        model: mixtral_8x7b(),
        draft: None,
        fleet: FleetSpec::h100(8),
        workload: WorkloadSpec::poisson(
            8.0,
            40,
            TenantSpec::uniform("chat", 1.0, (128, 512), (32, 128)),
        ),
        slo: SloSpec::latency(1.0, 0.05),
        space: SearchSpace::paper(),
        mode: SearchMode::Exhaustive,
        refine_top_k: 4,
        seed: 42,
    };
    let sketch = sketch_of(&generate(&spec.workload, spec.seed));
    r.bench("plan/search/mixtral_8xh100_paper", || {
        black_box(search(&spec, &sketch))
    });
}
