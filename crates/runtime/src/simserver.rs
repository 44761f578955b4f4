//! KV-pool sizing for simulated serving: [`scheduler_config_for`] derives
//! a replica's scheduler config from the device memory its model leaves
//! free.
//!
//! Simulated runs themselves are served by `moe-cluster` (a one-replica
//! `ClusterSim` for single-engine experiments), which drives the
//! [`crate::step::StepCore`]. The module keeps its name because the
//! sizing function is imported from this path by code that pins its
//! own dependency graph, such as the `examples/moe_perf` benchmark.

use moe_gpusim::memory::footprint;
use moe_gpusim::perfmodel::PerfModel;

use crate::scheduler::SchedulerConfig;

/// Derive a scheduler config whose KV pool matches the device memory left
/// after weights, mirroring vLLM's `gpu_memory_utilization` bootstrapping.
pub fn scheduler_config_for(model: &PerfModel, max_seq: usize) -> SchedulerConfig {
    let opts = model.options();
    let fp = footprint(
        model.config(),
        opts.precision,
        opts.kv_precision,
        &opts.plan,
        model.cluster(),
        1,
        max_seq,
    );
    let kv_budget = (fp.capacity_bytes - fp.weight_bytes - fp.reserve_bytes - fp.activation_bytes)
        .max(0.0)
        * model.cluster().num_devices as f64;
    let block_tokens = 16;
    let bytes_per_token = model
        .config()
        .kv_bytes_per_token(opts.kv_precision.bytes_per_param());
    let total_blocks = if bytes_per_token > 0.0 {
        (kv_budget / (bytes_per_token * block_tokens as f64)) as usize
    } else {
        0
    };
    SchedulerConfig {
        max_running: 512,
        max_batched_tokens: 32_768,
        block_tokens,
        total_blocks: total_blocks.max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_model::registry::olmoe_1b_7b;

    #[test]
    fn memory_derived_config_is_sane() {
        let cfg = scheduler_config_for(&PerfModel::h100(olmoe_1b_7b()), 4096);
        // OLMoE fp16 weights ~14 GB of 80 GB; tens of GB of KV blocks.
        assert!(cfg.total_blocks > 1000, "blocks {}", cfg.total_blocks);
    }
}
