//! End-to-end performance model: composes the roofline op costs per layer
//! and per phase into the serving metrics the paper reports (Section 3.4):
//! TTFT, ITL, end-to-end latency, throughput, and samples/s for VLMs.

use moe_json::{FromJson, ToJson};
use moe_model::{ModelConfig, MoeConfig};
use moe_tensor::Precision;

use moe_trace::{Tracer, TrackId};

use crate::device::Cluster;
use crate::memory::{check_fits_resident, MemoryFootprint, OomError};
use crate::moecost::{expected_distinct_experts, imbalance_factor, moe_layer_cost, router_skew};
use crate::parallel::{all_to_all_time, allreduce_time, p2p_time, ParallelMode, ParallelPlan};
use crate::residency::ExpertResidency;
use crate::roofline::{gemm_cost, stream_cost, OpCost};
use crate::steptrace::StepParts;

/// Host-side image preprocessing cost per image (decode, resize,
/// normalize, tile) — a model-independent constant that dominates VLM TTFT
/// in real serving stacks, which is why the paper's Fig. 4 TTFT gap across
/// the VL2 family is far smaller than the model-size ratio.
pub const IMAGE_PREPROCESS_S: f64 = 0.06;

/// Execution phase of a forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Parallel encoding of the prompt.
    Prefill,
    /// One autoregressive step (one token per sequence).
    Decode,
}

/// Inference-engine configuration knobs.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct EngineOptions {
    /// Weight precision.
    pub precision: Precision,
    /// KV-cache precision.
    pub kv_precision: Precision,
    /// Fused MoE kernel (Section 7.2) vs naive per-expert dispatch.
    pub fused_moe: bool,
    /// Device placement.
    pub plan: ParallelPlan,
    /// Per-engine-step host-side overhead (scheduler, Python glue, sampler)
    /// — vLLM-class serving engines pay milliseconds per iteration, which
    /// dominates small-batch decode.
    pub framework_overhead_s: f64,
    /// Expert residency across memory tiers. `None` (and
    /// [`ExpertResidency::all_resident`]) price every expert as
    /// HBM-resident, the pre-`moe-mem` behavior; an offloaded residency
    /// shrinks the weight footprint and adds prefetch/miss stalls to
    /// every MoE layer.
    pub residency: Option<ExpertResidency>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            precision: Precision::F16,
            kv_precision: Precision::F16,
            fused_moe: true,
            plan: ParallelPlan::single(),
            framework_overhead_s: 4e-3,
            residency: None,
        }
    }
}

impl EngineOptions {
    pub fn with_precision(mut self, p: Precision) -> Self {
        self.precision = p;
        self
    }

    pub fn with_plan(mut self, plan: ParallelPlan) -> Self {
        self.plan = plan;
        self
    }

    pub fn with_fused_moe(mut self, fused: bool) -> Self {
        self.fused_moe = fused;
        self
    }

    pub fn with_kv_precision(mut self, p: Precision) -> Self {
        self.kv_precision = p;
        self
    }

    pub fn with_framework_overhead(mut self, seconds: f64) -> Self {
        assert!(seconds >= 0.0, "negative overhead");
        self.framework_overhead_s = seconds;
        self
    }

    pub fn with_residency(mut self, residency: ExpertResidency) -> Self {
        self.residency = Some(residency);
        self
    }
}

/// Makespan of `microbatches` items flowing in order through a linear
/// pipeline with per-stage service times `stage_s` and `comm_s` per hop
/// between adjacent stages (a permutation flow shop). Each stage serves
/// microbatches FIFO:
/// `end = free[s].max(arrive) + t[s]; free[s] = end; arrive = end + comm`.
/// Unlike the closed-form `(m + s - 1) * t` bubble formula, this holds
/// for imbalanced stages.
fn flow_shop_makespan(stage_s: &[f64], comm_s: f64, microbatches: usize) -> f64 {
    let mut free = vec![0.0f64; stage_s.len()];
    let mut end = 0.0f64;
    for _ in 0..microbatches {
        let mut arrive = 0.0f64;
        for (free, &t) in free.iter_mut().zip(stage_s) {
            end = free.max(arrive) + t;
            *free = end;
            arrive = end + comm_s;
        }
    }
    end
}

/// Serving metrics for one (batch, input, output) run, following the
/// paper's definitions.
#[derive(Debug, Clone, Copy, PartialEq, ToJson, FromJson)]
pub struct RunMetrics {
    pub batch: usize,
    pub input_tokens: usize,
    pub output_tokens: usize,
    /// Time to first token (s): the full prefill.
    pub ttft_s: f64,
    /// Inter-token latency (s): mean time between consecutive output
    /// tokens of one sequence.
    pub itl_s: f64,
    /// End-to-end latency (s).
    pub e2e_s: f64,
    /// Paper Eq. 2: `batch * (input + output) / e2e` (tokens/s).
    pub throughput_tok_s: f64,
    /// Generated tokens per second across the batch.
    pub decode_tok_s: f64,
    /// Samples (requests) per second.
    pub samples_per_s: f64,
}

impl RunMetrics {
    fn from_times(batch: usize, input: usize, output: usize, ttft: f64, e2e: f64) -> Self {
        let decode_time = (e2e - ttft).max(0.0);
        let itl = if output > 1 {
            decode_time / (output - 1) as f64
        } else {
            0.0
        };
        Self {
            batch,
            input_tokens: input,
            output_tokens: output,
            ttft_s: ttft,
            itl_s: itl,
            e2e_s: e2e,
            throughput_tok_s: batch as f64 * (input + output) as f64 / e2e,
            decode_tok_s: if itl > 0.0 { batch as f64 / itl } else { 0.0 },
            samples_per_s: batch as f64 / e2e,
        }
    }
}

/// The per-model performance model.
#[derive(Debug, Clone)]
pub struct PerfModel {
    config: ModelConfig,
    cluster: Cluster,
    opts: EngineOptions,
}

impl PerfModel {
    /// Build a model; validates that the plan matches the cluster and the
    /// architecture.
    pub fn new(config: ModelConfig, cluster: Cluster, opts: EngineOptions) -> Result<Self, String> {
        if opts.plan.degree != cluster.num_devices {
            return Err(format!(
                "plan degree {} != cluster devices {}",
                opts.plan.degree, cluster.num_devices
            ));
        }
        let problems = opts.plan.validate(&config);
        if !problems.is_empty() {
            let rendered: Vec<String> = problems.iter().map(ToString::to_string).collect();
            return Err(rendered.join("; "));
        }
        Ok(Self {
            config,
            cluster,
            opts,
        })
    }

    /// Convenience: single H100, default options.
    pub fn h100(config: ModelConfig) -> Self {
        Self::new(config, Cluster::h100_node(1), EngineOptions::default())
            .expect("single-device plan always valid") // lint:allow(no-panic-in-lib) -- a one-device H100 plan validates for every config by construction
    }

    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    pub fn options(&self) -> &EngineOptions {
        &self.opts
    }

    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Check that the run fits in memory. With an offloaded residency
    /// configured, only the resident expert fraction is charged to HBM.
    pub fn check_memory(&self, batch: usize, max_seq: usize) -> Result<MemoryFootprint, OomError> {
        check_fits_resident(
            &self.config,
            self.opts.precision,
            self.opts.kv_precision,
            &self.opts.plan,
            &self.cluster,
            batch,
            max_seq,
            self.opts.residency.map_or(1.0, |r| r.resident_frac),
        )
    }

    /// Tensor-sharding degree for within-layer GEMMs (1 in pipeline mode).
    fn tp(&self) -> usize {
        match self.opts.plan.mode {
            ParallelMode::Tensor => self.opts.plan.degree,
            ParallelMode::Pipeline => 1,
        }
    }

    /// Attention cost for one layer on one device: QKV projection,
    /// attention core (FlashAttention-style — no quadratic HBM traffic),
    /// output projection, plus the KV-cache read/write traffic.
    fn attn_layer_cost(&self, tokens: usize, batch: usize, ctx: usize, phase: Phase) -> OpCost {
        let d = &self.cluster.device;
        let tp = self.tp();
        let h = self.config.hidden_size;
        let q_dim = (self.config.num_heads * self.config.head_dim).div_ceil(tp);
        let kv_dim = (self.config.num_kv_heads * self.config.head_dim).div_ceil(tp);
        let heads = self.config.num_heads.div_ceil(tp);
        let hd = self.config.head_dim;

        let mut cost = OpCost::zero();
        // Fused QKV projection.
        cost.add(&gemm_cost(
            d,
            self.opts.precision,
            tokens,
            q_dim + 2 * kv_dim,
            h,
        ));
        // Attention core.
        let kv_layer_bytes_per_token = self
            .config
            .kv_bytes_per_token(self.opts.kv_precision.bytes_per_param())
            / self.config.num_layers as f64
            / tp as f64;
        let core = match phase {
            Phase::Prefill => {
                let seq = tokens / batch.max(1);
                // Causal QK^T + AV: 2 * 2 * heads * seq^2/2 * hd per sequence.
                let flops = 2.0 * (batch * heads * hd) as f64 * (seq as f64) * (seq as f64);
                OpCost {
                    flops,
                    compute_eff: 0.6, // flash kernels sustain below GEMM peak
                    mem_eff: 1.0,
                    weight_bytes: 0.0,
                    act_bytes: tokens as f64 * kv_layer_bytes_per_token
                        + tokens as f64 * (q_dim + kv_dim) as f64 * 2.0,
                    launches: 1.0,
                    precision: Precision::F16,
                }
            }
            Phase::Decode => {
                let flops = 4.0 * (batch * heads * hd) as f64 * ctx as f64;
                OpCost {
                    flops,
                    compute_eff: 0.5,
                    mem_eff: 1.0,
                    weight_bytes: 0.0,
                    // Read the whole KV cache for the batch, write one slot.
                    act_bytes: (batch * ctx) as f64 * kv_layer_bytes_per_token
                        + batch as f64 * kv_layer_bytes_per_token,
                    launches: 1.0,
                    precision: Precision::F16,
                }
            }
        };
        cost.add(&core);
        // Output projection.
        cost.add(&gemm_cost(d, self.opts.precision, tokens, h, q_dim));
        // Norms + residuals.
        cost.add(&stream_cost(tokens as f64 * h as f64 * 2.0 * 4.0));
        cost
    }

    /// MoE (or, for `moe == None`, dense FFN) cost for one layer on one
    /// device, plus any expert-parallel collective seconds.
    fn ffn_layer_cost(&self, tokens: usize, moe: Option<&MoeConfig>) -> (OpCost, f64) {
        let d = &self.cluster.device;
        let h = self.config.hidden_size;
        let tp = self.tp();
        let Some(moe) = moe else {
            let ffn = self.config.dense_ffn_dim.div_ceil(tp);
            let mut cost = OpCost::zero();
            cost.add(&gemm_cost(d, self.opts.precision, tokens, ffn, h));
            cost.add(&gemm_cost(d, self.opts.precision, tokens, ffn, h));
            cost.add(&gemm_cost(d, self.opts.precision, tokens, h, ffn));
            return (cost, 0.0);
        };
        let group = self.opts.plan.degree;
        if self.opts.plan.expert_parallel && group > 1 {
            // Whole experts distributed across the group; tokens shuffled
            // to their experts with all-to-all dispatch + combine.
            let local = MoeConfig {
                num_experts: (moe.num_experts / group).max(1),
                ..moe.clone()
            };
            let local_tokens = tokens.div_ceil(group);
            let mut cost = moe_layer_cost(
                d,
                self.opts.precision,
                local_tokens,
                h,
                &local,
                self.opts.fused_moe,
            );
            // Device-level load imbalance gates the group.
            let assignments = (tokens * moe.top_k) as f64;
            let dev_imbalance = imbalance_factor(group, assignments, router_skew(moe));
            cost.compute_eff = (cost.compute_eff / dev_imbalance).clamp(1e-6, 1.0);
            cost.weight_bytes *= dev_imbalance.min(group as f64);
            let shuffle_bytes = assignments * h as f64 * 2.0 / group as f64;
            let comm =
                2.0 * all_to_all_time(&self.cluster.effective_link(group), group, shuffle_bytes);
            (cost, comm)
        } else {
            // Tensor sharding: every expert split across the TP group.
            let sharded = MoeConfig {
                expert_ffn_dim: moe.expert_ffn_dim.div_ceil(tp),
                shared_expert_ffn_dim: moe.shared_expert_ffn_dim.div_ceil(tp),
                ..moe.clone()
            };
            let cost = moe_layer_cost(
                d,
                self.opts.precision,
                tokens,
                h,
                &sharded,
                self.opts.fused_moe,
            );
            (cost, 0.0)
        }
    }

    /// Expected stall seconds of one MoE layer from streaming
    /// non-resident expert weights in from the offload tier.
    ///
    /// Per the `moe-mem` overlap model (`docs/MEMORY.md`): of the distinct
    /// experts the layer activates, `1 - residency_hit` are not in HBM; of
    /// those, the predictor prefetched `predictor_hit` a layer ahead, so
    /// their transfer overlaps `window` seconds of compute and stalls by
    /// `max(0, load - window)`. The rest are synchronous misses whose load
    /// is fully exposed. Exactly `0.0` when every needed expert is
    /// resident, so an all-resident residency prices bit-for-bit like no
    /// residency model at all.
    fn expert_load_stall(&self, tokens: usize, moe: &MoeConfig, window: f64) -> f64 {
        let Some(res) = &self.opts.residency else {
            return 0.0;
        };
        let group = self.opts.plan.degree;
        let (local_experts, local_assignments, bytes_per_expert) =
            if self.opts.plan.expert_parallel && group > 1 {
                // EP holds whole experts per rank; each rank streams full
                // expert tables for its share of the tokens.
                let e = (moe.num_experts / group).max(1);
                let a = (tokens.div_ceil(group) * moe.top_k) as f64;
                let b = 3.0
                    * self.config.hidden_size as f64
                    * moe.expert_ffn_dim as f64
                    * self.opts.precision.bytes_per_param();
                (e, a, b)
            } else {
                // TP shards every expert, so a miss streams only the shard.
                let b = 3.0
                    * self.config.hidden_size as f64
                    * moe.expert_ffn_dim.div_ceil(self.tp()) as f64
                    * self.opts.precision.bytes_per_param();
                (moe.num_experts, (tokens * moe.top_k) as f64, b)
            };
        let distinct = expected_distinct_experts(local_experts, local_assignments);
        let non_resident = distinct * (1.0 - res.residency_hit);
        if non_resident <= 0.0 {
            return 0.0;
        }
        let predicted = non_resident * res.predictor_hit;
        let missed = non_resident - predicted;
        let load =
            |experts: f64| res.link.latency + experts * bytes_per_expert / res.link.bandwidth;
        let prefetch_stall = if predicted > 0.0 {
            (load(predicted) - window).max(0.0)
        } else {
            0.0
        };
        let miss_stall = if missed > 0.0 { load(missed) } else { 0.0 };
        prefetch_stall + miss_stall
    }

    /// Per-component times of one transformer layer on one device:
    /// `(attention, ffn/moe, expert-parallel comm, tensor-parallel comm)`,
    /// for an MoE layer when `moe` is given and a dense one otherwise.
    /// Offload stalls from non-resident experts fold into the ffn term.
    fn layer_parts(
        &self,
        tokens: usize,
        batch: usize,
        ctx: usize,
        phase: Phase,
        moe: Option<&MoeConfig>,
    ) -> (f64, f64, f64, f64) {
        let d = &self.cluster.device;
        let attn = self.attn_layer_cost(tokens, batch, ctx, phase).time_on(d);
        let (ffn_cost, ep_comm) = self.ffn_layer_cost(tokens, moe);
        let ffn = ffn_cost.time_on(d);
        // The prefetch window is the layer's own compute: the next layer's
        // experts load while this layer runs.
        let stall = moe.map_or(0.0, |moe| self.expert_load_stall(tokens, moe, attn + ffn));
        let tp_comm = if self.opts.plan.mode == ParallelMode::Tensor && self.opts.plan.degree > 1 {
            // Two all-reduces per layer (post-attention, post-FFN).
            let bytes = (tokens * self.config.hidden_size) as f64 * 2.0;
            2.0 * allreduce_time(
                &self.cluster.effective_link(self.opts.plan.degree),
                self.opts.plan.degree,
                bytes,
            )
        } else {
            0.0
        };
        (attn, ffn + stall, ep_comm, tp_comm)
    }

    /// LM head + embedding costs; the head only projects the tokens that
    /// actually sample (the last one of each sequence).
    fn head_time(&self, batch: usize) -> f64 {
        let d = &self.cluster.device;
        let tp = self.tp();
        let vocab = self.config.vocab_size.div_ceil(tp);
        let h = self.config.hidden_size;
        gemm_cost(d, self.opts.precision, batch, vocab, h).time_on(d)
            + stream_cost(batch as f64 * vocab as f64 * 4.0).time_on(d)
    }

    /// One full forward pass over `tokens` rows at context `ctx`,
    /// including the per-step host-side overhead.
    pub fn forward_time(&self, tokens: usize, batch: usize, ctx: usize, phase: Phase) -> f64 {
        self.price(tokens, batch, ctx, phase).total_s
    }

    /// The one pricing walk over the layer stack; it feeds both the
    /// forward time (`total_s`) and the work decomposition.
    ///
    /// Every layer of one kind (dense, MoE) gets the same arguments within
    /// one walk, so [`Self::layer_parts`] prices each kind the stack has
    /// once, not once per layer. The walk then still visits every layer
    /// and accumulates that layer's terms in order; this per-layer
    /// accumulation order is the bit contract every report rests on.
    /// Multiplying a kind's terms by its layer count instead would round
    /// differently and is not allowed.
    ///
    /// The time sums `attn + (ffn + ep_comm) + tp_comm` per layer into
    /// per-stage sums (one stage outside pipeline mode). Pipeline prefill
    /// splits the batch into microbatches and takes the flow-shop makespan
    /// of the stages; pipeline decode traverses every stage sequentially
    /// (the paper's flat PP) and pays one P2P hop per stage boundary. The
    /// head is added last and the host overhead in front. The parts weight
    /// each layer term by the microbatch count; the bubble and the rescale
    /// of overlapped work are left to [`Self::forward_parts`].
    fn price(&self, tokens: usize, batch: usize, ctx: usize, phase: Phase) -> StepParts {
        let layers = self.config.num_layers;
        let pipeline = self.opts.plan.mode == ParallelMode::Pipeline;
        let pipelined = pipeline && phase == Phase::Prefill;
        let stages = if pipeline { self.opts.plan.degree } else { 1 };
        let per_stage = layers.div_ceil(stages);
        let microbatches = if pipelined { batch.clamp(1, 8) } else { 1 };
        let mb_tokens = tokens.div_ceil(microbatches);
        let mb_batch = batch.div_ceil(microbatches);
        let mult = microbatches as f64;
        let mut parts = StepParts {
            overhead_s: self.opts.framework_overhead_s,
            ..StepParts::default()
        };
        // Layers `first_moe..` are MoE, the ones before it dense. Each kind
        // the stack has is priced once: `kinds` is `[dense, moe]`.
        let moe = self.config.moe.as_ref();
        let first_moe = moe.map_or(layers, |_| self.config.first_k_dense_layers);
        let kind = |moe, present: bool| {
            if present {
                self.layer_parts(mb_tokens, mb_batch, ctx, phase, moe)
            } else {
                (0.0, 0.0, 0.0, 0.0)
            }
        };
        let kinds = [kind(None, first_moe > 0), kind(moe, first_moe < layers)];
        let mut serial = 0.0;
        let mut stage_times = Vec::new();
        for s in 0..stages {
            let first = s * per_stage;
            let mut stage = 0.0;
            for layer in first..first + per_stage.min(layers.saturating_sub(first)) {
                let (attn, ffn, ep_comm, tp_comm) = kinds[usize::from(layer >= first_moe)];
                stage += attn + (ffn + ep_comm) + tp_comm;
                parts.attn_s += mult * attn;
                parts.ffn_s += mult * ffn;
                parts.moe_comm_s += mult * ep_comm;
                parts.tp_comm_s += mult * tp_comm;
            }
            serial += stage;
            if pipelined {
                stage_times.push(stage);
            }
        }
        let device = if pipeline {
            let hop = p2p_time(
                &self.cluster.effective_link(stages),
                (mb_tokens * self.config.hidden_size) as f64 * 2.0,
            );
            parts.tp_comm_s += ((stages - 1) * microbatches) as f64 * hop;
            if pipelined {
                flow_shop_makespan(&stage_times, hop, microbatches)
            } else {
                serial + (stages - 1) as f64 * hop
            }
        } else {
            serial
        };
        parts.head_s = self.head_time(batch);
        parts.total_s = parts.overhead_s + (device + parts.head_s);
        parts
    }

    /// Additive decomposition of one forward pass for tracing.
    ///
    /// `total_s` equals [`Self::forward_time`] for the same arguments and
    /// the component fields tile it exactly: in tensor mode (and pipeline
    /// decode) the per-layer sums already add up to the total; in
    /// pipeline prefill the summed device work can exceed the overlapped
    /// makespan, in which case the work terms are scaled down
    /// proportionally, and any positive residual is reported as
    /// `bubble_s`.
    pub fn forward_parts(
        &self,
        tokens: usize,
        batch: usize,
        ctx: usize,
        phase: Phase,
    ) -> StepParts {
        let mut parts = self.price(tokens, batch, ctx, phase);
        let total = parts.total_s;
        let work = parts.component_sum_s();
        if work > total && work > 0.0 {
            // Pipelined overlap: summed device work exceeds the makespan.
            // Rescale so the components tile the observed wall time.
            let scale = total / work;
            parts.overhead_s *= scale;
            parts.attn_s *= scale;
            parts.ffn_s *= scale;
            parts.moe_comm_s *= scale;
            parts.tp_comm_s *= scale;
            parts.head_s *= scale;
        } else {
            parts.bubble_s = (total - work).max(0.0);
        }
        parts
    }

    /// Full generation run, with trace emission when the tracer is
    /// enabled (callers wanting no tracing pass
    /// [`Tracer::disabled`] — emission is skipped entirely and the
    /// metrics are identical either way).
    ///
    /// Decode time integrates the per-step cost, which is affine in
    /// context length, via the midpoint step (exact for affine costs).
    ///
    /// When the tracer is enabled, emits a `prefill` step span at local
    /// time 0 and a single aggregated `decode` span (one midpoint step
    /// scaled by the step count — exact, because the decode total is
    /// defined as `steps x midpoint step time`) covering `[ttft, e2e]`,
    /// each tiled by per-component child spans. The caller picks the
    /// `track` and is responsible for advancing the tracer base between
    /// runs.
    pub fn run(
        &self,
        batch: usize,
        input: usize,
        output: usize,
        tracer: &mut Tracer,
        track: TrackId,
    ) -> Result<RunMetrics, OomError> {
        if !tracer.is_enabled() {
            return self.compute_metrics(batch, input, output);
        }
        let metrics = self.compute_metrics(batch, input, output)?;
        let prefill = self.forward_parts(batch * input, batch, input, Phase::Prefill);
        prefill.emit(
            tracer,
            track,
            "prefill",
            0.0,
            vec![
                ("batch", batch.into()),
                ("prompt_tokens", input.into()),
                ("tokens", (batch * input).into()),
            ],
        );
        let steps = output.saturating_sub(1);
        if steps > 0 {
            let mid_ctx = input + output / 2;
            let step = self.forward_parts(batch, batch, mid_ctx, Phase::Decode);
            step.scaled(steps as f64).emit(
                tracer,
                track,
                "decode",
                metrics.ttft_s,
                vec![
                    ("batch", batch.into()),
                    ("steps", steps.into()),
                    ("mid_ctx", mid_ctx.into()),
                ],
            );
        }
        Ok(metrics)
    }

    /// Vision-tower encode time for `batch * images` images (dense ViT).
    pub fn vision_encode_time(&self, batch: usize, images: usize) -> f64 {
        let Some(v) = &self.config.vision else {
            return 0.0;
        };
        let d = &self.cluster.device;
        let tokens = batch * images * v.tokens_per_image;
        if tokens == 0 {
            return 0.0;
        }
        let p = self.opts.precision;
        // One ViT layer; every layer is identical, so build its ops once
        // and add them per layer in order.
        let layer = [
            gemm_cost(d, p, tokens, 3 * v.hidden_size, v.hidden_size),
            gemm_cost(d, p, tokens, v.hidden_size, v.hidden_size),
            gemm_cost(d, p, tokens, v.ffn_dim, v.hidden_size),
            gemm_cost(d, p, tokens, v.hidden_size, v.ffn_dim),
            // Attention core within each image's token window.
            OpCost {
                flops: 4.0 * tokens as f64 * v.tokens_per_image as f64 * v.hidden_size as f64,
                compute_eff: 0.6,
                mem_eff: 1.0,
                weight_bytes: 0.0,
                act_bytes: tokens as f64 * v.hidden_size as f64 * 4.0,
                launches: 1.0,
                precision: Precision::F16,
            },
        ];
        let mut cost = OpCost::zero();
        for _ in 0..v.num_layers {
            for op in &layer {
                cost.add(op);
            }
        }
        (cost.time_on(d) / self.tp() as f64).max(0.0)
    }

    /// Prefill (prompt encoding) time for `batch` prompts of `prompt`
    /// tokens each.
    pub fn prefill_time(&self, batch: usize, prompt: usize) -> f64 {
        self.forward_time(batch * prompt, batch, prompt, Phase::Prefill)
    }

    /// One decode step for `batch` sequences at context length `ctx`.
    pub fn decode_step_time(&self, batch: usize, ctx: usize) -> f64 {
        self.forward_time(batch, batch, ctx, Phase::Decode)
    }

    /// The untraced metric computation behind [`Self::run`].
    fn compute_metrics(
        &self,
        batch: usize,
        input: usize,
        output: usize,
    ) -> Result<RunMetrics, OomError> {
        self.check_memory(batch, input + output)?;
        let ttft = self.prefill_time(batch, input);
        let steps = output.saturating_sub(1);
        let decode = if steps > 0 {
            let mid_ctx = input + output / 2;
            steps as f64 * self.decode_step_time(batch, mid_ctx)
        } else {
            0.0
        };
        Ok(RunMetrics::from_times(
            batch,
            input,
            output,
            ttft,
            ttft + decode,
        ))
    }

    /// Full generation run for a VLM: each sample carries `images` images
    /// whose tokens are prepended to the text prompt.
    pub fn run_vlm(
        &self,
        batch: usize,
        images: usize,
        input: usize,
        output: usize,
    ) -> Result<RunMetrics, OomError> {
        let image_tokens = self
            .config
            .vision
            .as_ref()
            .map(|v| v.tokens_per_image * images)
            .unwrap_or(0);
        let eff_input = input + image_tokens;
        self.check_memory(batch, eff_input + output)?;
        let ttft = (batch * images) as f64 * IMAGE_PREPROCESS_S
            + self.vision_encode_time(batch, images)
            + self.prefill_time(batch, eff_input);
        let steps = output.saturating_sub(1);
        let decode = if steps > 0 {
            let mid_ctx = eff_input + output / 2;
            steps as f64 * self.decode_step_time(batch, mid_ctx)
        } else {
            0.0
        };
        // Metrics are reported against the *text* input size (the image is
        // the sample, not tokens the user typed).
        Ok(RunMetrics::from_times(
            batch,
            input,
            output,
            ttft,
            ttft + decode,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_model::registry::{
        deepseek_v2_lite, mixtral_8x7b, olmoe_1b_7b, qwen15_moe_a27b, qwen3_1_7b,
    };

    fn model_on(config: ModelConfig, gpus: usize, plan: ParallelPlan) -> PerfModel {
        PerfModel::new(
            config,
            Cluster::h100_node(gpus),
            EngineOptions::default().with_plan(plan),
        )
        .unwrap()
    }

    #[test]
    fn plan_cluster_mismatch_rejected() {
        let r = PerfModel::new(
            olmoe_1b_7b(),
            Cluster::h100_node(2),
            EngineOptions::default().with_plan(ParallelPlan::tensor(4)),
        );
        assert!(r.is_err());
    }

    #[test]
    fn throughput_grows_with_batch() {
        let m = PerfModel::h100(olmoe_1b_7b());
        let mut last = 0.0;
        for b in [1usize, 16, 32, 64] {
            let r = m.run(b, 512, 512, &mut Tracer::disabled(), 0).unwrap();
            assert!(r.throughput_tok_s > last, "batch {b}");
            last = r.throughput_tok_s;
        }
    }

    #[test]
    fn batch_scaling_sublinear() {
        let m = PerfModel::h100(olmoe_1b_7b());
        let t1 = m
            .run(1, 512, 512, &mut Tracer::disabled(), 0)
            .unwrap()
            .throughput_tok_s;
        let t64 = m
            .run(64, 512, 512, &mut Tracer::disabled(), 0)
            .unwrap()
            .throughput_tok_s;
        let gain = t64 / t1;
        assert!(gain > 4.0 && gain < 64.0, "gain {gain}");
    }

    #[test]
    fn shorter_sequences_higher_throughput() {
        // Fig. 6: throughput at in/out 128 beats in/out 2048. (TP2: the
        // batch-64, 4K-context KV cache exceeds a single 80 GB device.)
        let m = model_on(deepseek_v2_lite(), 2, ParallelPlan::tensor(2));
        let short = m
            .run(64, 128, 128, &mut Tracer::disabled(), 0)
            .unwrap()
            .throughput_tok_s;
        let long = m
            .run(64, 2048, 2048, &mut Tracer::disabled(), 0)
            .unwrap()
            .throughput_tok_s;
        assert!(short > long, "short {short} long {long}");
    }

    #[test]
    fn ttft_scales_with_prompt() {
        let m = PerfModel::h100(olmoe_1b_7b());
        // At batch 1 short prompts sit on the weight-streaming floor, so
        // scaling is sublinear; it must still grow clearly with length.
        let a = m.prefill_time(1, 128);
        let b = m.prefill_time(1, 4096);
        assert!(b > 2.0 * a, "prefill 128: {a}, 4096: {b}");
        // At large batch the prefill is compute-bound and scales ~linearly.
        let c = m.prefill_time(64, 128);
        let d = m.prefill_time(64, 2048);
        assert!(d > 8.0 * c, "batched prefill 128: {c}, 2048: {d}");
    }

    #[test]
    fn decode_step_grows_with_context() {
        let m = PerfModel::h100(olmoe_1b_7b());
        let a = m.decode_step_time(32, 256);
        let b = m.decode_step_time(32, 4096);
        assert!(b > a);
    }

    #[test]
    fn more_active_experts_lower_throughput() {
        // Fig. 5 shape.
        let base = deepseek_v2_lite();
        let mut last = f64::INFINITY;
        for k in [1usize, 2, 4, 8, 16, 32] {
            let m = model_on(base.with_top_k(k), 2, ParallelPlan::tensor(2));
            let r = m.run(64, 1024, 1024, &mut Tracer::disabled(), 0).unwrap();
            assert!(r.throughput_tok_s < last, "k={k}");
            last = r.throughput_tok_s;
        }
    }

    #[test]
    fn fp8_beats_fp16_by_20_to_40_percent() {
        // Fig. 10 headline: 20-30% throughput gain at high batch.
        let mk = |p: Precision| {
            PerfModel::new(
                mixtral_8x7b(),
                Cluster::h100_node(2),
                EngineOptions::default()
                    .with_plan(ParallelPlan::tensor(2))
                    .with_precision(p),
            )
            .unwrap()
            .run(64, 1024, 1024, &mut Tracer::disabled(), 0)
            .unwrap()
            .throughput_tok_s
        };
        let gain = mk(Precision::Fp8E4M3) / mk(Precision::F16);
        assert!(gain > 1.15 && gain < 1.8, "fp8 gain {gain}");
    }

    #[test]
    fn fused_moe_beats_unfused() {
        // Fig. 14: roughly 12-20% throughput advantage.
        let mk = |fused: bool| {
            PerfModel::new(
                mixtral_8x7b(),
                Cluster::h100_node(4),
                EngineOptions::default()
                    .with_plan(ParallelPlan::tensor(4))
                    .with_fused_moe(fused),
            )
            .unwrap()
            .run(16, 1024, 1024, &mut Tracer::disabled(), 0)
            .unwrap()
            .throughput_tok_s
        };
        let gain = mk(true) / mk(false);
        assert!(gain > 1.05 && gain < 1.6, "fused gain {gain}");
    }

    #[test]
    fn tp_scales_well_pp_flat() {
        // Fig. 13: Mixtral TP gains over 2x from 1 to 4 GPUs; PP nearly
        // flat. (A single-GPU Mixtral requires 8-bit weights, as any real
        // 1-GPU baseline would.)
        let run_with = |plan: ParallelPlan| {
            PerfModel::new(
                mixtral_8x7b(),
                Cluster::h100_node(plan.degree),
                EngineOptions::default()
                    .with_precision(Precision::Fp8E4M3)
                    .with_plan(plan),
            )
            .unwrap()
            .run(16, 1024, 1024, &mut Tracer::disabled(), 0)
            .unwrap()
            .throughput_tok_s
        };
        let single = run_with(ParallelPlan::single());
        let tp4 = run_with(ParallelPlan::tensor(4));
        let pp4 = run_with(ParallelPlan::pipeline(4));
        assert!(tp4 / single > 2.0, "TP4 speedup {}", tp4 / single);
        assert!(pp4 / single < 1.4, "PP4 speedup {}", pp4 / single);
        assert!(tp4 > pp4);
    }

    #[test]
    fn tp_with_ep_scales_worse_than_pure_tp() {
        let tp4 = model_on(qwen15_moe_a27b(), 4, ParallelPlan::tensor(4))
            .run(16, 1024, 1024, &mut Tracer::disabled(), 0)
            .unwrap()
            .throughput_tok_s;
        let tp4ep = model_on(
            qwen15_moe_a27b(),
            4,
            ParallelPlan::tensor(4).with_expert_parallel(),
        )
        .run(16, 1024, 1024, &mut Tracer::disabled(), 0)
        .unwrap()
        .throughput_tok_s;
        assert!(tp4ep < tp4, "TP4+EP {tp4ep} vs TP4 {tp4}");
    }

    #[test]
    fn oom_propagates_from_run() {
        let m = PerfModel::h100(mixtral_8x7b()); // 94 GB fp16 on one 80 GB GPU
        assert!(m.run(1, 128, 128, &mut Tracer::disabled(), 0).is_err());
    }

    #[test]
    fn dense_draft_model_runs() {
        let m = PerfModel::h100(qwen3_1_7b());
        let r = m.run(8, 256, 256, &mut Tracer::disabled(), 0).unwrap();
        assert!(r.throughput_tok_s > 0.0);
        assert!(r.itl_s > 0.0);
    }

    #[test]
    fn metrics_identities_hold() {
        let m = PerfModel::h100(olmoe_1b_7b());
        let r = m.run(16, 512, 512, &mut Tracer::disabled(), 0).unwrap();
        assert!(r.e2e_s > r.ttft_s);
        let expect_tp = 16.0 * 1024.0 / r.e2e_s;
        assert!((r.throughput_tok_s - expect_tp).abs() < 1e-9);
        let expect_itl = (r.e2e_s - r.ttft_s) / 511.0;
        assert!((r.itl_s - expect_itl).abs() < 1e-12);
    }

    #[test]
    fn vlm_run_includes_vision_cost() {
        use moe_model::registry::deepseek_vl2_tiny;
        let cfg = deepseek_vl2_tiny();
        let m = PerfModel::h100(cfg.clone());
        let with_img = m.run_vlm(4, 1, 256, 256).unwrap();
        let no_img = m.run_vlm(4, 0, 256, 256).unwrap();
        assert!(with_img.ttft_s > no_img.ttft_s);
        assert!(with_img.samples_per_s < no_img.samples_per_s);
    }

    #[test]
    fn forward_parts_tile_forward_time() {
        // Tensor, tensor+EP, and pipeline plans; prefill and decode.
        let cases: Vec<PerfModel> = vec![
            PerfModel::h100(olmoe_1b_7b()),
            model_on(deepseek_v2_lite(), 2, ParallelPlan::tensor(2)),
            model_on(
                qwen15_moe_a27b(),
                4,
                ParallelPlan::tensor(4).with_expert_parallel(),
            ),
            model_on(qwen15_moe_a27b(), 4, ParallelPlan::pipeline(4)),
            // 27 layers, the first dense: an uneven last stage, mixed stack.
            model_on(deepseek_v2_lite(), 2, ParallelPlan::pipeline(2)),
        ];
        for m in &cases {
            for (tokens, batch, ctx, phase) in [
                (8 * 512, 8, 512, Phase::Prefill),
                (8, 8, 768, Phase::Decode),
            ] {
                let parts = m.forward_parts(tokens, batch, ctx, phase);
                let total = m.forward_time(tokens, batch, ctx, phase);
                assert_eq!(
                    parts.total_s.to_bits(),
                    total.to_bits(),
                    "total mismatch: {} vs {total}",
                    parts.total_s
                );
                assert!(
                    (parts.component_sum_s() - total).abs() < 1e-9 * total.max(1.0),
                    "components {} don't tile total {total}",
                    parts.component_sum_s()
                );
                assert!(parts.attn_s > 0.0 && parts.ffn_s > 0.0);
            }
        }
    }

    #[test]
    fn ep_plan_shows_moe_comm_tp_plan_does_not() {
        let tp = model_on(qwen15_moe_a27b(), 4, ParallelPlan::tensor(4));
        let ep = model_on(
            qwen15_moe_a27b(),
            4,
            ParallelPlan::tensor(4).with_expert_parallel(),
        );
        let tp_parts = tp.forward_parts(16, 16, 1024, Phase::Decode);
        let ep_parts = ep.forward_parts(16, 16, 1024, Phase::Decode);
        assert_eq!(tp_parts.moe_comm_s, 0.0);
        assert!(ep_parts.moe_comm_s > 0.0);
        assert!(tp_parts.tp_comm_s > 0.0);
    }

    #[test]
    fn traced_run_matches_untraced_and_covers_e2e() {
        use moe_trace::{timeline_coverage, MemorySink, Tracer};
        let m = PerfModel::h100(olmoe_1b_7b());
        let plain = m.run(8, 512, 256, &mut Tracer::disabled(), 0).unwrap();
        let mut tracer = Tracer::new(Box::new(MemorySink::new()));
        let traced = m.run(8, 512, 256, &mut tracer, 0).unwrap();
        assert_eq!(plain, traced);
        let evs = tracer.snapshot();
        assert!(!evs.is_empty());
        let cov = timeline_coverage(&evs, 0);
        assert!(cov > 0.999, "coverage {cov}");
        // Disabled tracer takes the plain path and emits nothing.
        let mut off = Tracer::disabled();
        let silent = m.run(8, 512, 256, &mut off, 0).unwrap();
        assert_eq!(plain, silent);
        assert!(off.snapshot().is_empty());
    }

    #[test]
    fn all_resident_residency_prices_bit_for_bit_like_none() {
        // The oracle-predictor / unbounded-HBM configuration must
        // reproduce the pre-moe-mem pricing exactly (not just closely).
        let cases = [
            (mixtral_8x7b(), 2, ParallelPlan::tensor(2)),
            (
                qwen15_moe_a27b(),
                4,
                ParallelPlan::tensor(4).with_expert_parallel(),
            ),
            (olmoe_1b_7b(), 1, ParallelPlan::single()),
        ];
        for (config, gpus, plan) in cases {
            let without = model_on(config.clone(), gpus, plan);
            let with = PerfModel::new(
                config,
                Cluster::h100_node(gpus),
                EngineOptions::default()
                    .with_plan(plan)
                    .with_residency(crate::residency::ExpertResidency::all_resident()),
            )
            .unwrap();
            let a = without
                .run(16, 512, 256, &mut Tracer::disabled(), 0)
                .unwrap();
            let b = with.run(16, 512, 256, &mut Tracer::disabled(), 0).unwrap();
            assert_eq!(a, b, "all-resident must price identically");
            assert_eq!(
                moe_json::to_string(&without.check_memory(16, 768).unwrap()),
                moe_json::to_string(&with.check_memory(16, 768).unwrap()),
            );
        }
    }

    #[test]
    fn offloaded_residency_stalls_decode() {
        let residency = crate::residency::ExpertResidency::offloaded(0.5, 0.5, 0.8);
        let base = model_on(mixtral_8x7b(), 2, ParallelPlan::tensor(2));
        let offloaded = PerfModel::new(
            mixtral_8x7b(),
            Cluster::h100_node(2),
            EngineOptions::default()
                .with_plan(ParallelPlan::tensor(2))
                .with_residency(residency),
        )
        .unwrap();
        let fast = base.decode_step_time(16, 1024);
        let slow = offloaded.decode_step_time(16, 1024);
        assert!(slow > fast * 1.02, "offload must cost: {slow} vs {fast}");
    }

    #[test]
    fn better_predictor_shrinks_the_stall() {
        let mk = |predictor_hit: f64| {
            PerfModel::new(
                mixtral_8x7b(),
                Cluster::h100_node(2),
                EngineOptions::default()
                    .with_plan(ParallelPlan::tensor(2))
                    .with_residency(crate::residency::ExpertResidency::offloaded(
                        0.5,
                        0.5,
                        predictor_hit,
                    )),
            )
            .unwrap()
            .decode_step_time(16, 1024)
        };
        let uniform = mk(0.0);
        let frequency = mk(0.6);
        let oracle = mk(1.0);
        assert!(oracle < frequency && frequency < uniform);
    }

    #[test]
    fn offload_admits_the_single_device_fp16_mixtral() {
        // 94 GB fp16 Mixtral OOMs one 80 GB H100 all-resident; with half
        // the experts offloaded it runs, feasible-but-slower.
        let residency = crate::residency::ExpertResidency::offloaded(0.5, 0.6, 0.7);
        let m = PerfModel::new(
            mixtral_8x7b(),
            Cluster::h100_node(1),
            EngineOptions::default().with_residency(residency),
        )
        .unwrap();
        let r = m.run(1, 128, 128, &mut Tracer::disabled(), 0).unwrap();
        assert!(r.throughput_tok_s > 0.0);
        assert!(PerfModel::h100(mixtral_8x7b())
            .run(1, 128, 128, &mut Tracer::disabled(), 0)
            .is_err());
    }

    #[test]
    fn residency_stall_preserves_forward_parts_tiling() {
        let m = PerfModel::new(
            qwen15_moe_a27b(),
            Cluster::h100_node(4),
            EngineOptions::default()
                .with_plan(ParallelPlan::tensor(4).with_expert_parallel())
                .with_residency(crate::residency::ExpertResidency::offloaded(0.4, 0.5, 0.5)),
        )
        .unwrap();
        for (tokens, batch, ctx, phase) in [
            (8 * 512, 8, 512, Phase::Prefill),
            (8, 8, 768, Phase::Decode),
        ] {
            let parts = m.forward_parts(tokens, batch, ctx, phase);
            let total = m.forward_time(tokens, batch, ctx, phase);
            assert!(
                (parts.component_sum_s() - total).abs() < 1e-9 * total.max(1.0),
                "stalled components {} don't tile total {total}",
                parts.component_sum_s()
            );
        }
    }

    #[test]
    fn cs3_latency_grows_slower_with_context_than_h100() {
        // Fig. 16 mechanism.
        use moe_model::registry::llama4_scout_17b_16e;
        let cfg = llama4_scout_17b_16e();
        let h100 = PerfModel::new(
            cfg.clone(),
            Cluster::h100_node(8),
            EngineOptions::default().with_plan(ParallelPlan::tensor(8)),
        )
        .unwrap();
        let cs3 = PerfModel::new(cfg, Cluster::cs3(), EngineOptions::default()).unwrap();
        let ratio = |m: &PerfModel| m.decode_step_time(1, 8192) / m.decode_step_time(1, 128);
        assert!(
            ratio(&h100) > ratio(&cs3),
            "H100 growth {} vs CS-3 {}",
            ratio(&h100),
            ratio(&cs3)
        );
        // And CS-3 is absolutely faster per step.
        assert!(cs3.decode_step_time(1, 1024) < h100.decode_step_time(1, 1024));
    }

    #[test]
    fn flow_shop_exact_imbalanced_case() {
        // By hand: stage 0 ends at 1, 2, 3; stage 1 (arrivals 1.5, 2.5,
        // 3.5) ends at 11.5, 21.5, 31.5; stage 2 (arrivals 12, 22, 32)
        // ends at 13, 23, 33.
        assert_eq!(flow_shop_makespan(&[1.0, 10.0, 1.0], 0.5, 3), 33.0);
    }

    #[test]
    fn uniform_flow_shop_matches_bubble_formula() {
        // m microbatches through s uniform stages: (m + s - 1) * t.
        for (s, m) in [(1usize, 1usize), (4, 1), (4, 8), (2, 16)] {
            let t = 3.0;
            let got = flow_shop_makespan(&vec![t; s], 0.0, m);
            let expect = (m + s - 1) as f64 * t;
            assert!(
                (got - expect).abs() < 1e-9,
                "s={s} m={m}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn slowest_stage_gates_flow_shop_throughput() {
        // One slow stage dominates: makespan ~ m * t_slow for large m.
        let got = flow_shop_makespan(&[1.0, 10.0, 1.0], 0.0, 100);
        assert!(got >= 100.0 * 10.0);
        assert!(got < 100.0 * 10.0 + 25.0);
    }

    #[test]
    fn flow_shop_comm_adds_per_hop() {
        let base = flow_shop_makespan(&[1.0, 1.0, 1.0], 0.0, 1);
        let with_comm = flow_shop_makespan(&[1.0, 1.0, 1.0], 0.5, 1);
        assert!((with_comm - base - 2.0 * 0.5).abs() < 1e-9);
    }

    /// Deterministic randomized stage-time vector with `1..=5` stages.
    fn rand_stage_times(rng: &mut moe_tensor::rng::DetRng) -> Vec<f64> {
        let n = 1 + rng.next_below(5);
        (0..n).map(|_| 0.1 + rng.next_f64() * 9.9).collect()
    }

    #[test]
    fn randomized_flow_shop_monotone_in_microbatches() {
        let mut rng = moe_tensor::rng::rng_from_seed(0xde_51);
        for _ in 0..64 {
            let times = rand_stage_times(&mut rng);
            let m = 1 + rng.next_below(19);
            let a = flow_shop_makespan(&times, 0.05, m);
            let b = flow_shop_makespan(&times, 0.05, m + 1);
            assert!(b >= a - 1e-9);
        }
    }

    #[test]
    fn randomized_flow_shop_lower_bounds() {
        let mut rng = moe_tensor::rng::rng_from_seed(0xde_52);
        for _ in 0..64 {
            let times = rand_stage_times(&mut rng);
            let m = 1 + rng.next_below(19);
            let got = flow_shop_makespan(&times, 0.0, m);
            let sum: f64 = times.iter().sum();
            let max = times.iter().cloned().fold(0.0, f64::max);
            assert!(got >= sum - 1e-9);
            assert!(got >= m as f64 * max - 1e-9);
        }
    }
}
