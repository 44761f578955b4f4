//! Discrete-event validation of the prefetch-overlap stall model, compiled
//! for tests only: the unit tests below check the event replay against
//! the closed form the cost model prices with.
//!
//! The analytic cost model (`moe_gpusim::perfmodel`) prices a layer's
//! expert-load stall with [`moe_gpusim::residency::offload_stall`]:
//! `max(0, load(predicted) - window) + load(missed)`:
//! predicted experts stream over the offload link *during* the previous
//! layer's compute window and stall only by the overshoot, while missed
//! experts are synchronous, fully exposed loads. This module replays the
//! same schedule on an explicit event timeline with the offload link as a
//! serializing resource (the time it next falls free), which both
//! validates the closed form (a free link reproduces it exactly) and
//! prices what the closed form cannot: a congested link where consecutive
//! prefetches queue behind each other.

use moe_gpusim::device::Interconnect;

/// One layer's demand on the prefetch pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerDemand {
    /// Compute time of the layer — the overlap window it offers to the
    /// *next* layer's prefetch.
    pub compute_s: f64,
    /// Bytes the predictor wants streamed in before this layer starts.
    pub prefetch_bytes: f64,
    /// Bytes the predictor missed: loaded synchronously at layer entry.
    pub miss_bytes: f64,
}

impl LayerDemand {
    /// A layer with no offload traffic (all experts resident).
    fn resident(compute_s: f64) -> Self {
        Self {
            compute_s,
            prefetch_bytes: 0.0,
            miss_bytes: 0.0,
        }
    }
}

/// Timed outcome of a prefetch schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchOutcome {
    /// End-to-end time including stalls.
    pub total_s: f64,
    /// Time spent waiting on the offload link (prefetch overshoot plus
    /// synchronous miss loads).
    pub stall_s: f64,
}

fn link_time(link: Interconnect, bytes: f64) -> f64 {
    if bytes > 0.0 {
        link.latency + bytes / link.bandwidth
    } else {
        0.0
    }
}

/// Replay the layer sequence on an event timeline with the offload link
/// as a serializing resource. Layer `l + 1`'s prefetch is issued when
/// layer `l` starts computing; layer 0 has no window, so its prefetch is
/// fully exposed. Miss loads are synchronous and also occupy the link.
fn simulate_prefetch(layers: &[LayerDemand], link: Interconnect) -> PrefetchOutcome {
    // When the link next falls free; a transfer starts no earlier.
    let mut link_free = 0.0f64;
    let mut transfer = |at: f64, bytes: f64| {
        link_free = link_free.max(at) + link_time(link, bytes);
        link_free
    };
    let mut t = 0.0f64;
    let mut stall = 0.0f64;

    // Layer 0's prefetch has no preceding compute to hide under.
    let mut prefetch_done = match layers.first() {
        Some(d) if d.prefetch_bytes > 0.0 => transfer(t, d.prefetch_bytes),
        _ => t,
    };

    for (l, d) in layers.iter().enumerate() {
        // Wait for this layer's prefetch to land.
        if prefetch_done > t {
            stall += prefetch_done - t;
            t = prefetch_done;
        }
        // Synchronous miss loads: fully exposed, and they hold the link.
        if d.miss_bytes > 0.0 {
            let end = transfer(t, d.miss_bytes);
            stall += end - t;
            t = end;
        }
        // Issue the next layer's prefetch to overlap this compute.
        prefetch_done = match layers.get(l + 1) {
            Some(next) if next.prefetch_bytes > 0.0 => transfer(t, next.prefetch_bytes),
            _ => t,
        };
        t += d.compute_s;
    }

    PrefetchOutcome {
        total_s: t,
        stall_s: stall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_gpusim::residency::offload_stall;

    /// The cost model's closed-form stall for one layer, in bytes (one
    /// "expert" of one byte, so the load is `latency + bytes / bandwidth`
    /// to the bit).
    fn closed_form(window_s: f64, prefetch_bytes: f64, miss_bytes: f64) -> f64 {
        offload_stall(&link(), window_s, prefetch_bytes, miss_bytes, 1.0)
    }

    fn link() -> Interconnect {
        Interconnect::pcie_gen5()
    }

    #[test]
    fn resident_layers_price_exactly_the_compute_sum() {
        let layers: Vec<LayerDemand> = [0.5, 0.25, 0.125]
            .iter()
            .map(|&c| LayerDemand::resident(c))
            .collect();
        let out = simulate_prefetch(&layers, link());
        assert_eq!(out.stall_s, 0.0, "no offload traffic must stall 0.0");
        assert_eq!(out.total_s, 0.5 + 0.25 + 0.125);
    }

    #[test]
    fn fully_hidden_prefetch_adds_no_stall() {
        // Tiny transfers under a huge compute window: total == compute.
        let layers = vec![
            LayerDemand {
                compute_s: 1.0,
                prefetch_bytes: 0.0,
                miss_bytes: 0.0,
            };
            4
        ];
        let mut with_prefetch = layers.clone();
        for d in with_prefetch.iter_mut().skip(1) {
            d.prefetch_bytes = 1e3; // ~18 ns on PCIe Gen5 + 8 us latency
        }
        let out = simulate_prefetch(&with_prefetch, link());
        assert!(out.stall_s.abs() < 1e-12, "{}", out.stall_s);
        assert!((out.total_s - 4.0).abs() < 1e-12);
    }

    #[test]
    fn uncontended_stall_matches_the_closed_form() {
        // Seeded sweep: windows long enough that the link never queues, so
        // the DES must reproduce the analytic per-layer stalls exactly.
        let mut rng = moe_tensor::rng::rng_from_seed(0x3e_a0);
        for case in 0..32 {
            let n = 2 + rng.next_below(5);
            let layers: Vec<LayerDemand> = (0..n)
                .map(|_| LayerDemand {
                    compute_s: 1.0 + rng.next_f64(),
                    prefetch_bytes: rng.next_f64() * 20e9, // up to ~0.36 s on PCIe
                    miss_bytes: rng.next_f64() * 5e9,
                })
                .collect();
            let out = simulate_prefetch(&layers, link());
            // Layer 0's prefetch has no window; it is priced on its own.
            let mut expect = closed_form(0.0, layers[0].prefetch_bytes, 0.0);
            for l in 0..layers.len() {
                let window = if l == 0 { 0.0 } else { layers[l - 1].compute_s };
                let prefetch = if l == 0 {
                    0.0
                } else {
                    layers[l].prefetch_bytes
                };
                expect += closed_form(window, prefetch, layers[l].miss_bytes);
            }
            // Windows (>= 1 s) dwarf the transfers (<= ~0.46 s), so the
            // link never queues and the DES must equal the closed form.
            assert!(
                (out.stall_s - expect).abs() < 1e-9,
                "case {case}: DES {} vs analytic {expect}",
                out.stall_s
            );
            let compute: f64 = layers.iter().map(|d| d.compute_s).sum();
            assert!((out.total_s - compute - out.stall_s).abs() < 1e-9);
        }
    }

    #[test]
    fn overshoot_is_exactly_load_minus_window() {
        // One prefetch larger than its window, nothing else on the link:
        // stall = load - window, to the bit.
        let bytes = 100e9; // ~1.8 s on PCIe Gen5
        let window = 0.25;
        let layers = [
            LayerDemand::resident(window),
            LayerDemand {
                compute_s: 0.1,
                prefetch_bytes: bytes,
                miss_bytes: 0.0,
            },
        ];
        let out = simulate_prefetch(&layers, link());
        let expect = link_time(link(), bytes) - window;
        assert!((out.stall_s - expect).abs() < 1e-12, "{}", out.stall_s);
    }

    #[test]
    fn misses_are_fully_exposed() {
        let bytes = 10e9;
        let layers = [LayerDemand {
            compute_s: 1.0,
            prefetch_bytes: 0.0,
            miss_bytes: bytes,
        }];
        let out = simulate_prefetch(&layers, link());
        let expect = link_time(link(), bytes);
        assert!((out.stall_s - expect).abs() < 1e-12);
        assert!((out.total_s - 1.0 - expect).abs() < 1e-12);
    }

    #[test]
    fn link_contention_only_ever_hurts() {
        // Doubling every transfer on the shared link can never reduce the
        // stall below the independent-transfer analytic bound.
        let mut rng = moe_tensor::rng::rng_from_seed(0x3e_a1);
        for _ in 0..32 {
            let n = 2 + rng.next_below(6);
            let layers: Vec<LayerDemand> = (0..n)
                .map(|_| LayerDemand {
                    compute_s: 0.01 + rng.next_f64() * 0.05,
                    prefetch_bytes: rng.next_f64() * 40e9,
                    miss_bytes: rng.next_f64() * 10e9,
                })
                .collect();
            let out = simulate_prefetch(&layers, link());
            let mut independent = 0.0;
            for l in 0..layers.len() {
                let window = if l == 0 { 0.0 } else { layers[l - 1].compute_s };
                independent += closed_form(window, layers[l].prefetch_bytes, layers[l].miss_bytes);
            }
            // First layer's prefetch has no window in the DES either; the
            // analytic sum above treats it the same (window 0).
            assert!(out.stall_s >= independent - 1e-9);
        }
    }
}
