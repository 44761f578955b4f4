//! The evaluation harness: runs a task suite against a capability profile,
//! scoring synthetic items deterministically, and aggregates per-task and
//! average accuracies — the numbers Figures 17/18 plot on their x-axes.
//!
//! Per-item model: a model of capability `c` answers an item of difficulty
//! `d` correctly with probability
//!
//! ```text
//! p = chance + (1 - chance) * sigmoid(8 * (c - d))
//! ```
//!
//! (a 2-parameter IRT curve with the task's guess floor). The Bernoulli
//! draw is seeded by (model, task, item), so a report is bit-reproducible
//! and *monotone*: a strictly more capable model never scores worse in
//! expectation.

use moe_json::ToJson;
use moe_tensor::rng::{derive_seed, rng_from_seed};

use crate::profiles::CapabilityProfile;
use crate::tasks::{item_difficulty, Task, TaskKind};

/// Accuracy on one task. (Serialize-only: task names are static.)
#[derive(Debug, Clone, PartialEq, ToJson)]
pub struct TaskResult {
    pub task: &'static str,
    pub kind: TaskKind,
    pub items: usize,
    pub correct: usize,
}

impl TaskResult {
    pub fn accuracy(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.correct as f64 / self.items as f64
        }
    }
}

/// A full evaluation report for one model.
#[derive(Debug, Clone, PartialEq, ToJson)]
pub struct EvalReport {
    pub model: String,
    pub results: Vec<TaskResult>,
}

impl EvalReport {
    /// Unweighted mean accuracy across tasks (how the paper averages).
    pub fn average_accuracy(&self) -> f64 {
        if self.results.is_empty() {
            0.0
        } else {
            self.results.iter().map(|r| r.accuracy()).sum::<f64>() / self.results.len() as f64
        }
    }

    pub fn task(&self, name: &str) -> Option<&TaskResult> {
        self.results.iter().find(|r| r.task == name)
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Slip probability: even far above an item's difficulty a model misses
/// sometimes (formatting, ambiguity), keeping ceilings below 100% — the
/// 4-parameter-IRT upper asymptote.
pub const SLIP: f64 = 0.12;

/// Expected accuracy of capability `c` on an item of difficulty `d` with
/// guess floor `chance`.
fn expected_item_accuracy(c: f64, d: f64, chance: f64) -> f64 {
    chance + (1.0 - chance - SLIP) * sigmoid(8.0 * (c - d))
}

/// Evaluate a capability profile over a task suite.
pub fn evaluate(model_name: &str, profile: CapabilityProfile, suite: &[Task]) -> EvalReport {
    let model_seed = model_name
        .bytes()
        .fold(0xE7A1u64, |a, b| a.wrapping_mul(131).wrapping_add(b as u64));
    // Tasks are mutually independent (each draws from its own
    // (model, task)-derived stream), so score them on the work-stealing
    // pool; `map_collect` returns results in suite order regardless of
    // the steal schedule, keeping reports byte-identical.
    let results = moe_par::map_collect(suite.len(), |t| {
        let task = &suite[t];
        let c = match task.kind {
            TaskKind::Language => profile.language,
            TaskKind::VisionLanguage => profile.vision,
        };
        let task_seed = derive_seed(
            model_seed,
            task.name
                .bytes()
                .fold(0u64, |a, b| a.wrapping_mul(31).wrapping_add(b as u64)),
        );
        let mut rng = rng_from_seed(task_seed);
        let mut correct = 0usize;
        for i in 0..task.num_items {
            let d = item_difficulty(task, i);
            let p = expected_item_accuracy(c, d, task.chance);
            if rng.next_f64() < p {
                correct += 1;
            }
        }
        TaskResult {
            task: task.name,
            kind: task.kind,
            items: task.num_items,
            correct,
        }
    });
    EvalReport {
        model: model_name.to_string(),
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::capability;
    use crate::tasks::{lm_task_suite, vlm_task_suite};

    #[test]
    fn report_is_deterministic() {
        let p = capability("Mixtral-8x7B").unwrap();
        let a = evaluate("Mixtral-8x7B", p, &lm_task_suite());
        let b = evaluate("Mixtral-8x7B", p, &lm_task_suite());
        assert_eq!(a, b);
    }

    #[test]
    fn stronger_model_scores_higher() {
        let suite = lm_task_suite();
        let weak = evaluate("OLMoE-1B-7B", capability("OLMoE-1B-7B").unwrap(), &suite);
        let strong = evaluate(
            "Qwen3-30B-A3B",
            capability("Qwen3-30B-A3B").unwrap(),
            &suite,
        );
        assert!(strong.average_accuracy() > weak.average_accuracy());
    }

    #[test]
    fn accuracies_above_chance_below_one() {
        let suite = lm_task_suite();
        let r = evaluate("Mixtral-8x7B", capability("Mixtral-8x7B").unwrap(), &suite);
        for tr in &r.results {
            let task = suite.iter().find(|t| t.name == tr.task).unwrap();
            assert!(
                tr.accuracy() > task.chance - 0.05,
                "{}: {}",
                tr.task,
                tr.accuracy()
            );
            assert!(tr.accuracy() < 1.0);
        }
    }

    #[test]
    fn item_accuracy_curve_shape() {
        // At c == d the model sits halfway between chance and the slipped
        // ceiling.
        let mid = expected_item_accuracy(0.5, 0.5, 0.25);
        assert!((mid - (0.25 + (0.75 - SLIP) * 0.5)).abs() < 1e-9);
        // Far above difficulty: near the (slipped) ceiling. Far below:
        // near chance.
        assert!(expected_item_accuracy(0.9, 0.3, 0.25) > 1.0 - SLIP - 0.1);
        assert!(expected_item_accuracy(0.9, 0.3, 0.25) < 1.0 - SLIP + 1e-9);
        assert!(expected_item_accuracy(0.1, 0.8, 0.25) < 0.30);
        // Monotone in capability.
        assert!(expected_item_accuracy(0.6, 0.5, 0.25) > expected_item_accuracy(0.4, 0.5, 0.25));
    }

    #[test]
    fn text_model_fails_vlm_suite() {
        // A text-only profile (vision = 0) performs near chance on VLM
        // tasks.
        let p = capability("Mixtral-8x7B").unwrap();
        let r = evaluate("Mixtral-8x7B", p, &vlm_task_suite());
        let suite = vlm_task_suite();
        for tr in &r.results {
            let task = suite.iter().find(|t| t.name == tr.task).unwrap();
            assert!(
                tr.accuracy() < task.chance + 0.15,
                "{}: {}",
                tr.task,
                tr.accuracy()
            );
        }
    }

    #[test]
    fn vlm_family_ordering_survives_harness_noise() {
        // Fig. 18: Tiny < Small < Base after running the full harness.
        let suite = vlm_task_suite();
        let acc = |n: &str| evaluate(n, capability(n).unwrap(), &suite).average_accuracy();
        let tiny = acc("DeepSeek-VL2-Tiny");
        let small = acc("DeepSeek-VL2-Small");
        let base = acc("DeepSeek-VL2");
        assert!(tiny < small && small < base, "{tiny} {small} {base}");
    }

    #[test]
    fn average_is_unweighted_task_mean() {
        let p = capability("OLMoE-1B-7B").unwrap();
        let r = evaluate("OLMoE-1B-7B", p, &lm_task_suite());
        let manual: f64 =
            r.results.iter().map(|t| t.accuracy()).sum::<f64>() / r.results.len() as f64;
        assert!((r.average_accuracy() - manual).abs() < 1e-12);
    }

    #[test]
    fn task_lookup() {
        let p = capability("OLMoE-1B-7B").unwrap();
        let r = evaluate("OLMoE-1B-7B", p, &lm_task_suite());
        assert!(r.task("MMLU").is_some());
        assert!(r.task("NoSuchTask").is_none());
    }
}
