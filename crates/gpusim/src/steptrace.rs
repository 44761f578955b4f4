//! Trace-facing decomposition of one engine step.
//!
//! The roofline cost model composes a forward pass as an exact sum of
//! per-layer terms (attention, FFN/MoE, collectives) plus head, host
//! overhead, and — in pipeline mode — a bubble residual. [`StepParts`]
//! captures that sum so the tracer can render each step as a parent span
//! with one child span per component, with the children tiling the
//! parent exactly. Kernel-level detail that does *not* time additively
//! under the roofline `max(compute, memory)` (GEMM vs weight streaming)
//! rides along as span arguments instead of fake sub-intervals.

use moe_trace::{ArgValue, Category, Tracer, TrackId};

/// Additive decomposition of one forward pass (one engine step) in
/// simulated seconds. Produced by
/// [`PerfModel::forward_parts`](crate::perfmodel::PerfModel::forward_parts).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepParts {
    /// Host-side per-step overhead (scheduler, glue, sampler).
    pub overhead_s: f64,
    /// Attention stack: QKV/output GEMMs, attention core, KV traffic.
    pub attn_s: f64,
    /// FFN / MoE expert compute, including expert weight streaming.
    pub ffn_s: f64,
    /// Expert-parallel all-to-all (dispatch + combine halves).
    pub moe_comm_s: f64,
    /// Tensor-parallel all-reduces (and pipeline P2P hops in PP decode).
    pub tp_comm_s: f64,
    /// LM-head projection + sampling streams.
    pub head_s: f64,
    /// Pipeline bubble: makespan minus the summed work (0 outside PP
    /// prefill).
    pub bubble_s: f64,
    /// Total step time; equals the model's `forward_time` for the same
    /// arguments (the bubble absorbs any pipeline residual).
    pub total_s: f64,
}

impl StepParts {
    /// Scale every component by `k` — used to aggregate `k` identical
    /// decode steps into one span without emitting thousands of events.
    pub fn scaled(&self, k: f64) -> Self {
        Self {
            overhead_s: self.overhead_s * k,
            attn_s: self.attn_s * k,
            ffn_s: self.ffn_s * k,
            moe_comm_s: self.moe_comm_s * k,
            tp_comm_s: self.tp_comm_s * k,
            head_s: self.head_s * k,
            bubble_s: self.bubble_s * k,
            total_s: self.total_s * k,
        }
    }

    /// Sum of the component fields (diagnostic; `total_s` is the
    /// authoritative duration and the two agree to float rounding).
    pub fn component_sum_s(&self) -> f64 {
        self.overhead_s
            + self.attn_s
            + self.ffn_s
            + self.moe_comm_s
            + self.tp_comm_s
            + self.head_s
            + self.bubble_s
    }

    /// Emit this step as a parent span at local time `start_s` on
    /// `track`, with one child span per non-zero component laid out
    /// sequentially so they nest by time containment. `args` attaches to
    /// the parent span. No-op on a disabled tracer.
    pub fn emit(
        &self,
        tracer: &mut Tracer,
        track: TrackId,
        name: &str,
        start_s: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !tracer.is_enabled() {
            return;
        }
        tracer.span_with(track, Category::Step, name, start_s, self.total_s, args);
        let mut t = start_s;
        let children: [(&str, Category, f64); 7] = [
            ("host-overhead", Category::Step, self.overhead_s),
            ("attn", Category::Kernel, self.attn_s),
            ("moe-ffn", Category::Kernel, self.ffn_s),
            ("moe-a2a", Category::Comm, self.moe_comm_s),
            ("tp-collective", Category::Comm, self.tp_comm_s),
            ("lm-head", Category::Kernel, self.head_s),
            ("pp-bubble", Category::Step, self.bubble_s),
        ];
        // Skip components below float-rounding scale (the PP bubble
        // residual is often ~1e-16 of the total): a sub-picosecond child
        // is rendering noise, not a real interval.
        let eps = self.total_s.abs() * 1e-12;
        for (child, cat, dur) in children {
            if dur > eps {
                tracer.span(track, cat, child, t, dur);
                t += dur;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_trace::{MemorySink, TraceEvent};

    /// Sum the step spans named `name` in a recorded event slice.
    fn total_span_time(events: &[TraceEvent], name: &str) -> f64 {
        events
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::Span { name: n, dur_s, .. } if n == name => Some(*dur_s),
                _ => None,
            })
            .sum()
    }

    fn sample() -> StepParts {
        StepParts {
            overhead_s: 0.004,
            attn_s: 0.010,
            ffn_s: 0.020,
            moe_comm_s: 0.002,
            tp_comm_s: 0.001,
            head_s: 0.003,
            bubble_s: 0.0,
            total_s: 0.040,
        }
    }

    #[test]
    fn components_sum_to_total() {
        let p = sample();
        assert!((p.component_sum_s() - p.total_s).abs() < 1e-12);
    }

    #[test]
    fn scaling_scales_every_field() {
        let p = sample().scaled(3.0);
        assert!((p.total_s - 0.12).abs() < 1e-12);
        assert!((p.component_sum_s() - p.total_s).abs() < 1e-12);
    }

    #[test]
    fn emit_tiles_parent_with_children() {
        let mut tracer = Tracer::new(Box::new(MemorySink::new()));
        sample().emit(
            &mut tracer,
            0,
            "prefill",
            1.0,
            vec![("batch", 4usize.into())],
        );
        let evs = tracer.snapshot();
        // Parent + 6 non-zero children (bubble is 0).
        assert_eq!(evs.len(), 7);
        let (parent_start, parent_dur) = match &evs[0] {
            TraceEvent::Span { start_s, dur_s, .. } => (*start_s, *dur_s),
            other => panic!("unexpected {other:?}"),
        };
        let mut cursor = parent_start;
        for ev in &evs[1..] {
            match ev {
                TraceEvent::Span { start_s, dur_s, .. } => {
                    assert!((start_s - cursor).abs() < 1e-12);
                    cursor += dur_s;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!((cursor - (parent_start + parent_dur)).abs() < 1e-12);
    }

    #[test]
    fn emit_on_disabled_tracer_is_noop() {
        let mut tracer = Tracer::disabled();
        sample().emit(&mut tracer, 0, "prefill", 0.0, Vec::new());
        assert!(tracer.snapshot().is_empty());
    }

    #[test]
    fn span_time_totals_by_name() {
        let mut tracer = Tracer::new(Box::new(MemorySink::new()));
        sample().emit(&mut tracer, 0, "prefill", 0.0, Vec::new());
        sample().emit(&mut tracer, 0, "prefill", 0.04, Vec::new());
        let evs = tracer.snapshot();
        assert!((total_span_time(&evs, "prefill") - 0.08).abs() < 1e-12);
        assert!((total_span_time(&evs, "attn") - 0.02).abs() < 1e-12);
    }
}
