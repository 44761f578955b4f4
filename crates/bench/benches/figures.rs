//! Figure-regeneration benchmarks: one entry per paper table/figure,
//! timing a full (fast-grid) regeneration of each report. These double as
//! a `cargo bench` entry point that exercises every experiment path, and
//! as a performance budget for the harness itself.

use moe_bench::timing::Runner;
use moe_trace::Tracer;
use std::hint::black_box;

fn main() {
    let r = Runner::from_args();

    for id in moe_bench::REGISTRY.iter().map(|e| e.id) {
        // fig15 routes real tokens through the executor for tens of
        // seconds; it is exercised (once) but not iterated.
        if id == "fig15" {
            continue;
        }
        r.bench(&format!("figures/{id}"), || {
            black_box(
                moe_bench::run_experiment(id, true, &mut Tracer::disabled()).expect("known id"),
            )
        });
    }

    {
        use moe_engine::model::MoeTransformer;
        use moe_engine::spec::speculative_generate;
        use moe_model::registry::tiny_test_model;
        for &gamma in &[1usize, 4] {
            r.bench(&format!("speculative_decode_functional/{gamma}"), || {
                let mut target = MoeTransformer::new(tiny_test_model(8, 2), 7);
                let mut draft = MoeTransformer::new(tiny_test_model(4, 1), 9);
                black_box(speculative_generate(
                    &mut target,
                    &mut draft,
                    &[1, 2, 3],
                    16,
                    gamma,
                ))
            });
        }
    }
}
