//! Ablation studies on the design choices `DESIGN.md` calls out — what
//! each modeling/serving mechanism contributes, and where the paper's
//! numbers are sensitive to stack assumptions.
//!
//! * `overhead` — host-overhead sensitivity of the Fig. 5 TopK result
//!   (documents why our small-batch sensitivity deviates from vLLM's).
//! * `mla` — what MLA KV compression would change for DeepSeek-V2-Lite
//!   (the paper's vLLM materialized full KV; real MLA shrinks it ~15x).
//! * [`kv_precision`] — FP8 KV cache on a KV-heavy model (Qwen1.5-MoE).
//! * `spec_surface` — acceptance-rate x draft-length surface for
//!   speculative decoding, with the optimal gamma per acceptance level.
//! * `prefix_caching` — measured prefill-compute savings of the live
//!   server's prefix cache on repeated prompts (real execution).

use moe_engine::model::MoeTransformer;
use moe_gpusim::device::Cluster;
use moe_gpusim::parallel::ParallelPlan;
use moe_gpusim::perfmodel::{EngineOptions, PerfModel};
use moe_gpusim::spec::{expected_tokens_per_cycle, spec_run, SpecParams};
use moe_model::registry::{deepseek_v2_lite, qwen15_moe_a27b, qwen3_1_7b, qwen3_30b_a3b};
use moe_runtime::liveserver::LiveServer;
use moe_runtime::prefixcache::PrefixCache;
use moe_runtime::scheduler::SchedulerConfig;
use moe_tensor::Precision;
use moe_trace::Tracer;

use crate::report::{num, ExperimentReport, Table};

/// Host-overhead ablation: the TopK 1->32 relative throughput drop of
/// DeepSeek-V2-Lite at batch 1 and 64, under different per-step host
/// overheads. Returns `(overhead_ms, drop_b1, drop_b64)` rows.
fn overhead() -> Vec<(f64, f64, f64)> {
    let mut rows = Vec::new();
    for overhead_ms in [0.0f64, 2.0, 4.0, 8.0, 16.0] {
        let opts = EngineOptions::default()
            .with_plan(ParallelPlan::tensor(2))
            .with_framework_overhead(overhead_ms / 1e3);
        let drop_at = |batch: usize| {
            let t = |k: usize| {
                PerfModel::new(
                    deepseek_v2_lite().with_top_k(k),
                    Cluster::h100_node(2),
                    opts.clone(),
                )
                .expect("valid plan")
                .run(batch, 1024, 1024, &mut moe_trace::Tracer::disabled(), 0)
                .expect("fits TP2")
                .throughput_tok_s
            };
            1.0 - t(32) / t(1)
        };
        rows.push((overhead_ms, drop_at(1), drop_at(64)));
    }
    rows
}

/// MLA ablation: DeepSeek-V2-Lite served with materialized full KV (what
/// the paper's vLLM did) vs the compressed 576-dim MLA latent. Returns
/// `(label, kv_gb_batch64_ctx4k, tok/s_batch64)`.
fn mla() -> Vec<(String, f64, f64)> {
    let mut rows = Vec::new();
    for (label, latent) in [
        ("full KV (paper's stack)", None),
        ("MLA latent 576", Some(576)),
    ] {
        let mut cfg = deepseek_v2_lite();
        cfg.kv_latent_dim = latent;
        let kv_gb = cfg.kv_bytes_per_token(2.0) * 64.0 * 4096.0 / 1e9;
        let model = PerfModel::new(
            cfg,
            Cluster::h100_node(2),
            EngineOptions::default().with_plan(ParallelPlan::tensor(2)),
        )
        .expect("valid plan");
        let tput = model
            .run(64, 1024, 1024, &mut moe_trace::Tracer::disabled(), 0)
            .expect("fits TP2")
            .throughput_tok_s;
        rows.push((label.to_string(), kv_gb, tput));
    }
    rows
}

/// KV-precision ablation on the KV-heavy Qwen1.5-MoE: fp16 vs fp8 cache.
/// Returns `(label, kv_gb, tok/s)` at batch 64, ctx 4096.
pub fn kv_precision() -> Vec<(String, f64, f64)> {
    let mut rows = Vec::new();
    for (label, p) in [("fp16 KV", Precision::F16), ("fp8 KV", Precision::Fp8E4M3)] {
        let cfg = qwen15_moe_a27b();
        let kv_gb = cfg.kv_bytes_per_token(p.bytes_per_param()) * 64.0 * 4096.0 / 1e9;
        let model = PerfModel::new(
            cfg,
            Cluster::h100_node(2),
            EngineOptions::default()
                .with_plan(ParallelPlan::tensor(2))
                .with_kv_precision(p),
        )
        .expect("valid plan");
        let tput = model
            .run(64, 1024, 1024, &mut moe_trace::Tracer::disabled(), 0)
            .expect("fits TP2")
            .throughput_tok_s;
        rows.push((label.to_string(), kv_gb, tput));
    }
    rows
}

/// Speculation surface: throughput for acceptance levels x gamma, plus
/// the analytic tokens/cycle. Returns `(alpha, gamma, tokens_per_cycle,
/// tok/s)`.
fn spec_surface(fast: bool) -> Vec<(f64, usize, f64, f64)> {
    let gammas: &[usize] = if fast { &[1, 3, 7] } else { &[1, 2, 3, 5, 7] };
    let place = |cfg| {
        PerfModel::new(
            cfg,
            Cluster::h100_node(2),
            EngineOptions::default().with_plan(ParallelPlan::tensor(2)),
        )
        .expect("TP2 valid")
    };
    let target = place(qwen3_30b_a3b());
    let draft = place(qwen3_1_7b());
    let mut rows = Vec::new();
    for alpha in [0.5f64, 0.7, 0.9] {
        for &gamma in gammas {
            let r = spec_run(&target, &draft, SpecParams { gamma, alpha }, 16, 1024, 256)
                .expect("fits");
            rows.push((
                alpha,
                gamma,
                expected_tokens_per_cycle(alpha, gamma),
                r.throughput_tok_s,
            ));
        }
    }
    rows
}

/// Prefix-caching ablation on the live executor: serve the same long
/// prompt `requests` times with and without the cache; returns
/// `(tokens_without, tokens_with, saved)` forward-pass token counts.
fn prefix_caching(requests: usize) -> (u64, u64, u64) {
    let prompt: Vec<usize> = (1..64).collect();
    let serve = |cache: Option<PrefixCache>| {
        let model = MoeTransformer::new(moe_model::registry::tiny_test_model(8, 2), 42);
        let mut server = LiveServer::new(model, SchedulerConfig::default());
        if let Some(c) = cache {
            server = server.with_prefix_cache(c);
        }
        for _ in 0..requests {
            server.submit(prompt.clone(), 4);
        }
        let mut steps = 0;
        while server.step() {
            steps += 1;
            assert!(steps < 100_000, "livelock");
        }
        server.tokens_processed()
    };
    let without = serve(None);
    let with = serve(Some(PrefixCache::new(16, 100_000)));
    (without, with, without - with)
}

/// Build the combined ablation report.
pub(crate) fn build(report: &mut ExperimentReport, fast: bool, _tracer: &mut Tracer) {
    let mut t = Table::new(
        "host-overhead sensitivity of the Fig.5 TopK drop (DeepSeek-V2-Lite)",
        &["Overhead ms/step", "Drop @ batch 1", "Drop @ batch 64"],
    );
    for (ms, d1, d64) in overhead() {
        t.row(vec![
            num(ms),
            format!("{:.1}%", d1 * 100.0),
            format!("{:.1}%", d64 * 100.0),
        ]);
    }
    report.table(t);
    report.note(
        "Higher host overhead suppresses the small-batch TopK penalty — the mechanism \
         behind the Fig.5 small-batch deviation recorded in EXPERIMENTS.md.",
    );

    let mut t = Table::new(
        "MLA KV compression (DeepSeek-V2-Lite, batch 64, ctx 4096, TP2)",
        &["KV layout", "KV size (GB)", "tok/s"],
    );
    for (label, gb, tput) in mla() {
        t.row(vec![label, num(gb), num(tput)]);
    }
    report.table(t);

    let mut t = Table::new(
        "KV precision (Qwen1.5-MoE, batch 64, ctx 4096, TP2)",
        &["KV precision", "KV size (GB)", "tok/s"],
    );
    for (label, gb, tput) in kv_precision() {
        t.row(vec![label, num(gb), num(tput)]);
    }
    report.table(t);

    let mut t = Table::new(
        "speculation surface (Qwen3-30B target, Qwen3-1.7B-class draft)",
        &["alpha", "gamma", "tokens/cycle", "tok/s"],
    );
    for (alpha, gamma, tpc, tput) in spec_surface(fast) {
        t.row(vec![num(alpha), gamma.to_string(), num(tpc), num(tput)]);
    }
    report.table(t);

    let (without, with, saved) = prefix_caching(4);
    let mut t = Table::new(
        "prefix caching on the live executor (4 identical 63-token prompts)",
        &["Configuration", "Forward tokens", "Saved"],
    );
    t.row(vec!["no cache".into(), without.to_string(), "-".into()]);
    t.row(vec![
        "prefix cache".into(),
        with.to_string(),
        saved.to_string(),
    ]);
    report.table(t);
    report.note(
        "Prefix caching is measured on real forward passes; outputs are bit-identical \
         with and without the cache (pinned by unit tests).",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_suppresses_small_batch_sensitivity() {
        let rows = overhead();
        let first = rows.first().expect("rows");
        let last = rows.last().expect("rows");
        // Batch-1 drop shrinks sharply as overhead grows (53% -> 11%).
        assert!(last.1 < first.1 * 0.4, "0ms {} vs 16ms {}", first.1, last.1);
        // The batch-1 vs batch-64 sensitivity gap closes: from >2x apart
        // at 0 ms to near-parity at vLLM-like overheads.
        assert!(first.1 / first.2 > 1.8);
        assert!(
            last.1 / last.2 < 1.15,
            "b1 {} vs b64 {} at 16ms",
            last.1,
            last.2
        );
    }

    #[test]
    fn mla_shrinks_kv_and_raises_throughput() {
        let rows = mla();
        let (full, mla) = (&rows[0], &rows[1]);
        assert!(mla.1 < full.1 / 5.0, "KV {} vs {}", mla.1, full.1);
        assert!(mla.2 > full.2, "tok/s {} vs {}", mla.2, full.2);
    }

    #[test]
    fn fp8_kv_halves_cache_and_helps() {
        let rows = kv_precision();
        let (f16, f8) = (&rows[0], &rows[1]);
        assert!((f8.1 - f16.1 / 2.0).abs() / f16.1 < 0.01);
        assert!(f8.2 > f16.2);
    }

    #[test]
    fn higher_acceptance_rewards_longer_drafts() {
        let rows = spec_surface(true);
        let best_gamma = |alpha: f64| {
            rows.iter()
                .filter(|r| r.0 == alpha)
                .max_by(|a, b| a.3.partial_cmp(&b.3).expect("finite"))
                .expect("rows")
                .1
        };
        assert!(best_gamma(0.9) >= best_gamma(0.5));
    }

    #[test]
    fn prefix_cache_saves_prompt_blocks() {
        let (without, with, saved) = prefix_caching(3);
        assert!(with < without);
        // Two later requests each reuse 48 cached tokens (three 16-token
        // blocks of the 63-token prompt).
        assert_eq!(saved, 2 * 48);
    }
}
