//! The simulated serving engine: the [`StepCore`] driven by one clock
//! that advances by `moe-gpusim` step costs. This is the piece that
//! stands in for "vLLM on H100" in every timing experiment.

use std::collections::BTreeMap;

use moe_gpusim::memory::footprint;
use moe_gpusim::perfmodel::PerfModel;
use moe_json::{FromJson, ToJson};
use moe_trace::{Category, Tracer, ENGINE_TRACK, REQUEST_TRACK_BASE, SCHED_TRACK};

use crate::metrics::LatencySummary;
use crate::request::{Request, RequestId, RequestOutput};
use crate::scheduler::{SchedEvent, SchedulerConfig};
use crate::step::{Finished, PriceCache, StepCore};

/// Aggregate results of one simulated serving run.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct SimReport {
    pub outputs: Vec<RequestOutput>,
    /// Wall-clock makespan of the run (s).
    pub makespan_s: f64,
    /// Engine steps executed.
    pub steps: usize,
    pub ttft: LatencySummary,
    pub itl: LatencySummary,
    pub e2e: LatencySummary,
    /// Total (prompt + generated) tokens over makespan.
    pub throughput_tok_s: f64,
    pub requests_per_s: f64,
    pub preemptions: usize,
}

impl SimReport {
    fn from_outputs(outputs: Vec<RequestOutput>, makespan_s: f64, steps: usize) -> Self {
        let ttfts: Vec<f64> = outputs.iter().map(|o| o.ttft_s()).collect();
        let itls: Vec<f64> = outputs.iter().map(|o| o.itl_s()).collect();
        let e2es: Vec<f64> = outputs.iter().map(|o| o.e2e_s()).collect();
        let tokens: usize = outputs.iter().map(|o| o.prompt_len + o.generated).sum();
        let preemptions = outputs.iter().map(|o| o.preemptions).sum();
        Self {
            makespan_s,
            steps,
            ttft: LatencySummary::of(&ttfts),
            itl: LatencySummary::of(&itls),
            e2e: LatencySummary::of(&e2es),
            throughput_tok_s: tokens as f64 / makespan_s.max(1e-12),
            requests_per_s: outputs.len() as f64 / makespan_s.max(1e-12),
            preemptions,
            outputs,
        }
    }
}

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

/// The simulated server: a [`StepCore`] driven on one clock that runs to
/// completion.
#[derive(Debug)]
pub struct SimServer {
    core: StepCore,
    prices: PriceCache,
    /// Requests not yet visible to the scheduler (future arrivals),
    /// sorted by arrival time.
    pending: Vec<(Request, RequestId)>,
    /// Delivered, unfinished requests. External ids equal scheduler ids
    /// (ids are assigned here and passed through).
    arrivals: BTreeMap<RequestId, Request>,
    clock_s: f64,
    steps: usize,
    next_external: RequestId,
    outputs: Vec<RequestOutput>,
    /// Trace collector; disabled (zero-cost) unless [`Self::run`]
    /// installs an enabled one.
    tracer: Tracer,
}

impl SimServer {
    pub fn new(model: PerfModel, cfg: SchedulerConfig) -> Self {
        Self {
            core: StepCore::new(model, cfg),
            prices: PriceCache::new(),
            pending: Vec::new(),
            arrivals: BTreeMap::new(),
            clock_s: 0.0,
            steps: 0,
            next_external: 0,
            outputs: Vec::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Server with a memory-derived scheduler config.
    pub fn sized_for(model: PerfModel, max_seq: usize) -> Self {
        let cfg = scheduler_config_for(&model, max_seq);
        Self::new(model, cfg)
    }

    pub fn model(&self) -> &PerfModel {
        self.core.model()
    }

    /// Queue a request for its arrival time.
    pub fn submit(&mut self, request: Request) -> RequestId {
        let id = self.next_external;
        self.next_external += 1;
        self.pending.push((request, id));
        // Stable tie-break on id: simultaneous arrivals deliver in
        // submission order (the FCFS invariant, see `scheduler`).
        self.pending
            .sort_by(|a, b| a.0.arrival_s.total_cmp(&b.0.arrival_s).then(a.1.cmp(&b.1)));
        id
    }

    fn deliver_arrivals(&mut self) {
        while let Some((req, _)) = self.pending.first() {
            if req.arrival_s <= self.clock_s + 1e-12 {
                let (req, ext_id) = self.pending.remove(0);
                let sched_id = self.core.submit(req.clone());
                debug_assert_eq!(
                    sched_id, ext_id,
                    "scheduler ids must track submission order"
                );
                self.arrivals.insert(sched_id, req);
            } else {
                break;
            }
        }
    }

    /// Execute one engine step; returns false when fully drained.
    pub fn step(&mut self) -> bool {
        self.deliver_arrivals();
        if !self.core.scheduler().has_work() {
            if let Some((req, _)) = self.pending.first() {
                // Jump to the next arrival.
                self.clock_s = req.arrival_s;
                return true;
            }
            return false;
        }

        let planned = self.core.plan(&mut self.prices);
        let step_start_s = self.clock_s;
        // Admissions/preemptions happen at the step boundary just planned.
        self.emit_sched_events(step_start_s);
        match planned {
            Some(step) => {
                if self.tracer.is_enabled() {
                    step.shape.forward_parts(self.core.model()).emit(
                        &mut self.tracer,
                        ENGINE_TRACK,
                        step.shape.label(),
                        step_start_s,
                        step.shape.trace_args(),
                    );
                }
                self.clock_s += step.dt_s;
                for f in self.core.commit(step, self.clock_s) {
                    self.finish(f);
                }
            }
            None => match self.pending.first() {
                Some((req, _)) => self.clock_s = self.clock_s.max(req.arrival_s),
                None => return false,
            },
        }
        // Completions land at the post-step clock.
        self.emit_sched_events(self.clock_s);
        self.emit_counters();
        self.steps += 1;
        true
    }

    /// Drain the scheduler's decision log into trace instants stamped at
    /// simulated time `t_s`. No-op (and the log stays empty) when tracing
    /// is disabled.
    fn emit_sched_events(&mut self, t_s: f64) {
        if !self.tracer.is_enabled() {
            return;
        }
        for ev in self.core.drain_events() {
            let (name, args) = match ev {
                SchedEvent::Admitted { id, context_tokens } => (
                    "admit",
                    vec![("req", id.into()), ("tokens", context_tokens.into())],
                ),
                SchedEvent::Preempted { id, preemptions } => (
                    "preempt",
                    vec![("req", id.into()), ("preemptions", preemptions.into())],
                ),
                SchedEvent::Finished { id, generated } => (
                    "finish",
                    vec![("req", id.into()), ("generated", generated.into())],
                ),
            };
            self.tracer
                .instant(SCHED_TRACK, Category::Sched, name, t_s, args);
        }
    }

    /// Sample the KV-block and queue counters at the current clock.
    fn emit_counters(&mut self) {
        if !self.tracer.is_enabled() {
            return;
        }
        let t = self.clock_s;
        let sched = self.core.scheduler();
        let used = sched.blocks().used_blocks() as f64;
        self.tracer.counter("kv-blocks-used", t, used);
        self.tracer
            .counter("running-seqs", t, sched.num_running() as f64);
        self.tracer
            .counter("waiting-seqs", t, sched.num_waiting() as f64);
    }

    fn finish(&mut self, f: Finished) {
        let Some(req) = self.arrivals.remove(&f.id) else {
            return;
        };
        let id = f.id;
        let output = RequestOutput {
            id,
            prompt_len: req.prompt_len,
            generated: f.generated,
            arrival_s: req.arrival_s,
            first_token_s: f.first_token_s,
            finish_s: f.finish_s,
            preemptions: f.preemptions,
        };
        if self.tracer.is_enabled() {
            // Per-request lifecycle chain on the request's own lane:
            // parent request span tiled by a time-to-first-token child
            // and a decode child.
            let track = REQUEST_TRACK_BASE.saturating_add(u32::try_from(id).unwrap_or(u32::MAX));
            self.tracer.name_track(track, &format!("req {id}"));
            self.tracer.span_with(
                track,
                Category::Request,
                "request",
                output.arrival_s,
                output.finish_s - output.arrival_s,
                vec![
                    ("id", id.into()),
                    ("prompt", output.prompt_len.into()),
                    ("generated", output.generated.into()),
                    ("preemptions", output.preemptions.into()),
                ],
            );
            self.tracer.span(
                track,
                Category::Request,
                "ttft",
                output.arrival_s,
                output.first_token_s - output.arrival_s,
            );
            self.tracer.span(
                track,
                Category::Request,
                "decode",
                output.first_token_s,
                output.finish_s - output.first_token_s,
            );
        }
        self.outputs.push(output);
    }

    /// Run until every submitted request completes, recording into
    /// `tracer` (callers wanting no tracing pass
    /// [`Tracer::disabled`]).
    ///
    /// The tracer is borrowed for the duration of the run and handed
    /// back with all events recorded; its base offset is *not* advanced
    /// (the caller decides how runs tile the global timeline). With a
    /// disabled tracer the step sequence and report are identical and
    /// there is no recording overhead.
    pub fn run(mut self, tracer: &mut Tracer) -> SimReport {
        std::mem::swap(&mut self.tracer, tracer);
        self.core.set_record_events(self.tracer.is_enabled());
        self.tracer.name_track(ENGINE_TRACK, "engine");
        self.tracer.name_track(SCHED_TRACK, "scheduler");
        let mut guard = 0u64;
        while self.step() {
            guard += 1;
            assert!(guard < 50_000_000, "simulation livelock");
        }
        std::mem::swap(&mut self.tracer, tracer);
        self.outputs.sort_by_key(|o| o.id);
        SimReport::from_outputs(self.outputs, self.clock_s, self.steps)
    }
}

/// Serve a static batch (the paper's benchmark style): `batch` identical
/// requests arriving together, recording into `tracer` (callers wanting
/// no tracing pass [`Tracer::disabled`]; the report is identical either
/// way).
pub fn serve_static_batch(
    model: PerfModel,
    batch: usize,
    input_tokens: usize,
    output_tokens: usize,
    tracer: &mut Tracer,
) -> SimReport {
    let mut server = SimServer::sized_for(model, input_tokens + output_tokens);
    for _ in 0..batch {
        server.submit(Request::new(input_tokens, output_tokens));
    }
    server.run(tracer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_gpusim::device::Cluster;
    use moe_gpusim::parallel::ParallelPlan;
    use moe_gpusim::perfmodel::EngineOptions;
    use moe_model::registry::olmoe_1b_7b;

    fn olmoe_server() -> PerfModel {
        PerfModel::new(
            olmoe_1b_7b(),
            Cluster::h100_node(1),
            EngineOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn static_batch_completes_everything() {
        let report = serve_static_batch(olmoe_server(), 8, 128, 64, &mut Tracer::disabled());
        assert_eq!(report.outputs.len(), 8);
        for o in &report.outputs {
            assert_eq!(o.generated, 64);
            assert!(o.ttft_s() > 0.0);
            assert!(o.e2e_s() >= o.ttft_s());
        }
        assert!(report.throughput_tok_s > 0.0);
    }

    #[test]
    fn larger_batch_raises_throughput() {
        let small = serve_static_batch(olmoe_server(), 1, 256, 128, &mut Tracer::disabled());
        let large = serve_static_batch(olmoe_server(), 32, 256, 128, &mut Tracer::disabled());
        assert!(large.throughput_tok_s > 2.0 * small.throughput_tok_s);
    }

    #[test]
    fn staggered_arrivals_respected() {
        let mut server = SimServer::sized_for(olmoe_server(), 512);
        server.submit(Request::new(128, 32).at(0.0));
        server.submit(Request::new(128, 32).at(100.0)); // long after the first finishes
        let report = server.run(&mut Tracer::disabled());
        assert_eq!(report.outputs.len(), 2);
        let late = &report.outputs[1];
        assert!(late.first_token_s >= 100.0, "must not start before arrival");
        // TTFT measured from arrival stays small.
        assert!(late.ttft_s() < 10.0);
        assert!(report.makespan_s >= 100.0);
    }

    #[test]
    fn continuous_batching_beats_sequential() {
        // 16 requests served together finish far sooner than the sum of
        // 16 solo runs.
        let batch = serve_static_batch(olmoe_server(), 16, 256, 128, &mut Tracer::disabled());
        let solo = serve_static_batch(olmoe_server(), 1, 256, 128, &mut Tracer::disabled());
        assert!(batch.makespan_s < 16.0 * solo.makespan_s * 0.5);
    }

    #[test]
    fn memory_derived_config_is_sane() {
        let cfg = scheduler_config_for(&olmoe_server(), 4096);
        // OLMoE fp16 weights ~14 GB of 80 GB; tens of GB of KV blocks.
        assert!(cfg.total_blocks > 1000, "blocks {}", cfg.total_blocks);
    }

    #[test]
    fn sharded_model_serves() {
        let model = PerfModel::new(
            moe_model::registry::mixtral_8x7b(),
            Cluster::h100_node(4),
            EngineOptions::default().with_plan(ParallelPlan::tensor(4)),
        )
        .unwrap();
        let report = serve_static_batch(model, 4, 128, 32, &mut Tracer::disabled());
        assert_eq!(report.outputs.len(), 4);
    }

    #[test]
    fn traced_run_reports_identically_and_records() {
        use moe_trace::{timeline_coverage, MemorySink, TraceEvent};
        let plain = serve_static_batch(olmoe_server(), 4, 128, 32, &mut Tracer::disabled());
        let mut tracer = Tracer::new(Box::new(MemorySink::new()));
        let traced = serve_static_batch(olmoe_server(), 4, 128, 32, &mut tracer);
        assert_eq!(plain, traced, "tracing must not perturb the simulation");

        let evs = tracer.snapshot();
        assert!(!evs.is_empty());
        // Engine track: back-to-back steps cover the whole makespan.
        let cov = timeline_coverage(&evs, ENGINE_TRACK);
        assert!(cov > 0.999, "engine coverage {cov}");
        // Scheduler track saw admits and finishes.
        let sched_names: Vec<&str> = evs
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Instant { name, track, .. } if *track == SCHED_TRACK => {
                    Some(name.as_str())
                }
                _ => None,
            })
            .collect();
        assert!(sched_names.contains(&"admit"));
        assert!(sched_names.contains(&"finish"));
        // Every request got a lifecycle span on its own lane.
        let req_spans = evs
            .iter()
            .filter(|e| {
                matches!(e, TraceEvent::Span { name, track, .. }
                    if name == "request" && *track >= REQUEST_TRACK_BASE)
            })
            .count();
        assert_eq!(req_spans, 4);
        // Counters sampled on the sim clock.
        assert!(evs
            .iter()
            .any(|e| matches!(e, TraceEvent::Counter { name, .. } if name == "kv-blocks-used")));
        // Named tracks registered.
        assert!(tracer.tracks().iter().any(|(_, n)| n == "engine"));
    }

    #[test]
    fn traced_run_with_disabled_tracer_is_plain_run() {
        let plain = serve_static_batch(olmoe_server(), 2, 64, 16, &mut Tracer::disabled());
        let mut off = Tracer::disabled();
        let silent = serve_static_batch(olmoe_server(), 2, 64, 16, &mut off);
        assert_eq!(plain, silent);
        assert!(off.snapshot().is_empty());
        assert!(off.tracks().is_empty());
    }

    #[test]
    fn report_aggregates_consistent() {
        let report = serve_static_batch(olmoe_server(), 4, 64, 16, &mut Tracer::disabled());
        let worst = report.outputs.iter().map(|o| o.e2e_s()).fold(0.0, f64::max);
        assert!((report.e2e.max_s - worst).abs() < 1e-12);
        assert!(report.ttft.mean_s <= report.e2e.mean_s);
        assert!(report.steps > 0);
    }
}
