//! The serving step core shared by every simulated serving loop:
//! [`StepCore`] plans a step, prices it through a [`PriceCache`], commits
//! it at its end time and reports the requests that finished with their
//! first-token times. The drivers differ only in how they keep time:
//! [`crate::SimServer`] runs one clock to completion, while a
//! `moe-cluster` replica plans and commits at separate events of a shared
//! event loop and may cancel requests in between.

use std::collections::BTreeMap;

use moe_gpusim::perfmodel::{PerfModel, Phase};
use moe_gpusim::steptrace::StepParts;
use moe_trace::ArgValue;

use crate::request::{Request, RequestId};
use crate::scheduler::{SchedEvent, Scheduler, SchedulerConfig, StepPlan};

/// The cost-relevant shape of one engine step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StepShape {
    /// `tokens` prefill tokens over `batch` sequences (`per_seq` each,
    /// rounded up).
    Prefill {
        tokens: usize,
        batch: usize,
        per_seq: usize,
    },
    /// One decode iteration over `batch` sequences.
    Decode { batch: usize, mean_ctx: usize },
}

impl StepShape {
    /// Trace label: `"prefill"` or `"decode"`.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Prefill { .. } => "prefill",
            Self::Decode { .. } => "decode",
        }
    }

    pub fn batch(&self) -> usize {
        match *self {
            Self::Prefill { batch, .. } | Self::Decode { batch, .. } => batch,
        }
    }

    /// Arguments of the step's engine span.
    pub(crate) fn trace_args(&self) -> Vec<(&'static str, ArgValue)> {
        match *self {
            Self::Prefill { tokens, batch, .. } => {
                vec![("batch", batch.into()), ("tokens", tokens.into())]
            }
            Self::Decode { batch, mean_ctx } => {
                vec![("batch", batch.into()), ("mean_ctx", mean_ctx.into())]
            }
        }
    }

    /// `(tokens, batch, ctx, phase)` as the [`PerfModel`] takes them.
    fn forward_args(&self) -> (usize, usize, usize, Phase) {
        match *self {
            Self::Prefill {
                tokens,
                batch,
                per_seq: ctx,
            } => (tokens, batch, ctx, Phase::Prefill),
            Self::Decode { batch, mean_ctx } => (batch, batch, mean_ctx, Phase::Decode),
        }
    }

    /// Nominal step time (s) under `model`.
    fn price(&self, model: &PerfModel) -> f64 {
        match *self {
            Self::Decode { batch, mean_ctx } => model.decode_step_time(batch, mean_ctx),
            Self::Prefill { .. } => {
                let (tokens, batch, ctx, phase) = self.forward_args();
                model.forward_time(tokens, batch, ctx, phase)
            }
        }
    }

    /// The step's additive cost breakdown under `model`, for tracing.
    pub(crate) fn forward_parts(&self, model: &PerfModel) -> StepParts {
        let (tokens, batch, ctx, phase) = self.forward_args();
        model.forward_parts(tokens, batch, ctx, phase)
    }
}

/// Memoized nominal step prices. A step's cost is a pure function of its
/// shape, so a hit returns bit-identically what the model would
/// recompute; drivers apply any slowdown after lookup, so straggler
/// windows never pollute a cache shared by replicas of one model.
#[derive(Debug, Default)]
pub struct PriceCache {
    map: BTreeMap<StepShape, f64>,
}

impl PriceCache {
    pub fn new() -> Self {
        Self::default()
    }

    fn price(&mut self, shape: StepShape, model: &PerfModel) -> f64 {
        *self.map.entry(shape).or_insert_with(|| shape.price(model))
    }
}

/// A planned, priced step awaiting its commit.
#[derive(Debug)]
pub struct PlannedStep {
    plan: StepPlan,
    pub shape: StepShape,
    /// Nominal duration (s).
    pub dt_s: f64,
}

/// A request that generated its last token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Finished {
    pub id: RequestId,
    pub generated: usize,
    pub preemptions: usize,
    pub first_token_s: f64,
    pub finish_s: f64,
}

/// A scheduler priced by a cost model (see the module docs).
#[derive(Debug)]
pub struct StepCore {
    model: PerfModel,
    scheduler: Scheduler,
    /// First-token times of prefilled, unfinished requests. An entry
    /// survives preemption: a recompute keeps the original first token.
    first_token: BTreeMap<RequestId, f64>,
}

impl StepCore {
    pub fn new(model: PerfModel, cfg: SchedulerConfig) -> Self {
        Self {
            model,
            scheduler: Scheduler::new(cfg),
            first_token: BTreeMap::new(),
        }
    }

    pub(crate) fn model(&self) -> &PerfModel {
        &self.model
    }

    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Drop every request and restart the scheduler cold.
    pub fn reset(&mut self) {
        self.scheduler = Scheduler::new(*self.scheduler.config());
        self.first_token.clear();
    }

    pub(crate) fn set_record_events(&mut self, on: bool) {
        self.scheduler.set_record_events(on);
    }

    pub(crate) fn drain_events(&mut self) -> Vec<SchedEvent> {
        self.scheduler.drain_events()
    }

    pub fn submit(&mut self, request: Request) -> RequestId {
        self.scheduler.submit(request)
    }

    /// Remove a request wherever it sits; a planned step in flight skips
    /// it at commit. True if it was unfinished.
    pub fn cancel(&mut self, id: RequestId) -> bool {
        self.first_token.remove(&id);
        self.scheduler.cancel(id)
    }

    /// Plan the next step and price it through `prices`; `None` when
    /// nothing can run.
    pub fn plan(&mut self, prices: &mut PriceCache) -> Option<PlannedStep> {
        let plan = self.scheduler.plan_step();
        let shape = match &plan {
            StepPlan::Prefill { ids, tokens } => {
                let batch = ids.len().max(1);
                let per_seq = tokens.div_ceil(batch);
                StepShape::Prefill {
                    tokens: *tokens,
                    batch,
                    per_seq,
                }
            }
            StepPlan::Decode { ids } => {
                let batch = ids.len().max(1);
                let ctx = self.scheduler.running_context_tokens();
                let mean_ctx = (ctx / batch).max(1);
                StepShape::Decode { batch, mean_ctx }
            }
            StepPlan::Idle => return None,
        };
        let dt_s = prices.price(shape, &self.model);
        Some(PlannedStep { plan, shape, dt_s })
    }

    /// Commit `step` at time `end_s`; returns the requests that finished,
    /// in commit order.
    pub fn commit(&mut self, step: PlannedStep, end_s: f64) -> Vec<Finished> {
        let finished = match step.plan {
            StepPlan::Prefill { ids, .. } => {
                for &id in &ids {
                    if self.scheduler.seq(id).is_some() {
                        self.first_token.entry(id).or_insert(end_s);
                    }
                }
                self.scheduler.commit_prefill(&ids)
            }
            StepPlan::Decode { mut ids } => {
                ids.retain(|&id| self.scheduler.commit_decode(id));
                ids
            }
            StepPlan::Idle => Vec::new(),
        };
        finished
            .into_iter()
            .filter_map(|id| {
                let seq = self.scheduler.seq(id)?;
                Some(Finished {
                    id,
                    generated: seq.generated,
                    preemptions: seq.preemptions,
                    first_token_s: self.first_token.remove(&id).unwrap_or(end_s),
                    finish_s: end_s,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_model::registry::olmoe_1b_7b;

    fn core(total_blocks: usize) -> StepCore {
        StepCore::new(
            PerfModel::h100(olmoe_1b_7b()),
            SchedulerConfig {
                total_blocks,
                ..SchedulerConfig::default()
            },
        )
    }

    fn drain(core: &mut StepCore, prices: &mut PriceCache) -> Vec<Finished> {
        let (mut now, mut done) = (0.0, Vec::new());
        while let Some(step) = core.plan(prices) {
            now += step.dt_s;
            done.extend(core.commit(step, now));
        }
        done
    }

    #[test]
    fn cached_price_is_bit_identical_to_the_model() {
        let model = PerfModel::h100(olmoe_1b_7b());
        let mut prices = PriceCache::new();
        for shape in [
            StepShape::Prefill {
                tokens: 1000,
                batch: 3,
                per_seq: 334,
            },
            StepShape::Decode {
                batch: 7,
                mean_ctx: 900,
            },
        ] {
            let fresh = shape.price(&model);
            assert_eq!(prices.price(shape, &model).to_bits(), fresh.to_bits());
            assert_eq!(prices.price(shape, &model).to_bits(), fresh.to_bits());
            assert_eq!(
                shape.forward_parts(&model).total_s.to_bits(),
                fresh.to_bits()
            );
        }
        assert_eq!(prices.map.len(), 2);
    }

    #[test]
    fn first_token_is_the_first_prefill_commit() {
        let mut c = core(4096);
        let a = c.submit(Request::new(64, 1));
        let b = c.submit(Request::new(64, 4));
        let done = drain(&mut c, &mut PriceCache::new());
        assert_eq!(done.iter().map(|f| f.id).collect::<Vec<_>>(), vec![a, b]);
        // Both prefilled in the first step; `a` finished right there.
        assert_eq!(done[0].first_token_s, done[0].finish_s);
        assert_eq!(done[1].first_token_s, done[0].finish_s);
        assert!(done[1].finish_s > done[1].first_token_s);
        assert_eq!(done[1].generated, 4);
        assert!(c.first_token.is_empty(), "finished requests leave no state");
    }

    #[test]
    fn preempted_requests_keep_their_first_token() {
        let mut c = core(7);
        c.submit(Request::new(48, 64));
        c.submit(Request::new(48, 64));
        let done = drain(&mut c, &mut PriceCache::new());
        assert_eq!(done.len(), 2);
        assert!(
            done.iter().any(|f| f.preemptions > 0),
            "the pool must preempt"
        );
        // Both prefilled in the first step; the recompute after the
        // preemption does not move the first token.
        assert_eq!(done[0].first_token_s, done[1].first_token_s);
    }
}
