//! The serving step core of simulated serving: [`StepCore`] plans a
//! step, prices it through a [`PriceCache`], commits it at its end time
//! and reports the requests that finished with their first-token times.
//! It keeps no clock. Its one driver is the `moe-cluster` replica, which
//! plans and commits at separate events of the cluster's event loop and
//! may cancel requests in between; single-engine experiments run it as a
//! one-replica cluster.

use std::collections::{BTreeMap, HashMap};

use moe_gpusim::perfmodel::{PerfModel, Phase};
use moe_gpusim::steptrace::StepParts;
use moe_trace::ArgValue;

use crate::inthash::IntHash;
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

    /// Arguments of the step's trace span.
    pub fn trace_args(&self) -> Vec<(&'static str, ArgValue)> {
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
    pub fn forward_parts(&self, model: &PerfModel) -> StepParts {
        let (tokens, batch, ctx, phase) = self.forward_args();
        model.forward_parts(tokens, batch, ctx, phase)
    }
}

/// Memoized nominal step prices. A step's cost is a pure function of its
/// shape, so a hit returns bit-identically what the model would
/// recompute; drivers apply any slowdown after lookup, so straggler
/// windows never pollute a cache shared by replicas of one model.
///
/// Decode shapes, priced once per decode step, hit a hashed map keyed by
/// `(batch, mean_ctx)`; the rarer prefill shapes stay in an ordered map.
/// Neither map is ever iterated, so the hash order never shows.
#[derive(Debug, Default)]
pub struct PriceCache {
    decode: HashMap<(usize, usize), f64, IntHash>,
    prefill: BTreeMap<StepShape, f64>,
}

impl PriceCache {
    pub fn new() -> Self {
        Self::default()
    }

    fn price(&mut self, shape: StepShape, model: &PerfModel) -> f64 {
        let price = || shape.price(model);
        match shape {
            StepShape::Decode { batch, mean_ctx } => {
                *self.decode.entry((batch, mean_ctx)).or_insert_with(price)
            }
            StepShape::Prefill { .. } => *self.prefill.entry(shape).or_insert_with(price),
        }
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
    /// Never iterated.
    first_token: HashMap<RequestId, f64, IntHash>,
}

impl StepCore {
    pub fn new(model: PerfModel, cfg: SchedulerConfig) -> Self {
        Self {
            model,
            scheduler: Scheduler::new(cfg),
            first_token: HashMap::default(),
        }
    }

    pub fn model(&self) -> &PerfModel {
        &self.model
    }

    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Drop every request and restart the scheduler cold. Decision
    /// recording stays as it was.
    pub fn reset(&mut self) {
        self.scheduler.reset();
        self.first_token.clear();
    }

    /// Turn the scheduler's decision log on or off (see
    /// [`Scheduler::set_record_events`]).
    pub fn set_record_events(&mut self, on: bool) {
        self.scheduler.set_record_events(on);
    }

    /// Take the decisions recorded since the last drain.
    pub fn drain_events(&mut self) -> Vec<SchedEvent> {
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
        if let StepPlan::Prefill { ids, .. } = &step.plan {
            for &id in ids {
                if self.scheduler.seq(id).is_some() {
                    self.first_token.entry(id).or_insert(end_s);
                }
            }
        }
        self.scheduler
            .commit_step(step.plan)
            .into_iter()
            .map(|(id, seq)| Finished {
                id,
                generated: seq.generated,
                preemptions: seq.preemptions,
                first_token_s: self.first_token.remove(&id).unwrap_or(end_s),
                finish_s: end_s,
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
        assert_eq!((prices.decode.len(), prices.prefill.len()), (1, 1));
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
