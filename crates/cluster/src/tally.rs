//! Streaming aggregation: latency distributions accumulate into
//! fixed-footprint log-linear [`Histogram`]s as requests finish, so with
//! the simulator's live-request table and the replicas' record windows
//! its state is bounded by peak concurrency (`peak_live`), not trace
//! length (`docs/CLUSTER.md`). [`ClusterOutput`] rows are kept only when
//! [`ClusterConfig::retain_outputs`] is set.

use moe_runtime::metrics::LatencySummary;
use moe_trace::Histogram;

use crate::fleet::FleetTotals;
use crate::sim::{ClusterConfig, ClusterOutput, ClusterReport};

/// The report's counters and distributions, as they stand mid-run.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub ttft_hist: Histogram,
    pub e2e_hist: Histogram,
    pub itl_hist: Histogram,
    /// Completed (prompt + generated) tokens.
    pub tokens: u64,
    pub submitted: usize,
    pub completed: usize,
    pub timed_out: usize,
    pub dropped: usize,
    pub rejected: usize,
    pub retries: usize,
    pub crashes: usize,
    pub events: u64,
    pub peak_live: usize,
    outputs: Vec<ClusterOutput>,
}

impl Tally {
    /// Stream one completion into the aggregates.
    pub fn finish(&mut self, row: ClusterOutput, cfg: &ClusterConfig) {
        let offset = cfg.latency_offset_s;
        self.ttft_hist.record(row.ttft_s() + offset);
        self.e2e_hist.record(row.e2e_s() + offset);
        if row.generated > 1 {
            self.itl_hist
                .record((row.finish_s - row.first_token_s) / (row.generated - 1) as f64);
        }
        self.tokens += (row.prompt_len + row.generated) as u64;
        self.completed += 1;
        if cfg.retain_outputs {
            self.outputs.push(row);
        }
    }

    /// Fold in a finished report's counters, histograms and rows, in
    /// call order (`peak_live` adds up too).
    pub fn absorb(&mut self, r: &ClusterReport) {
        self.ttft_hist.merge(&r.ttft_hist);
        self.e2e_hist.merge(&r.e2e_hist);
        self.itl_hist.merge(&r.itl_hist);
        self.outputs.extend(r.outputs.iter().cloned());
        self.tokens += r.completed_tokens;
        self.submitted += r.submitted;
        self.completed += r.completed;
        self.timed_out += r.timed_out;
        self.dropped += r.dropped;
        self.rejected += r.rejected;
        self.retries += r.retries;
        self.crashes += r.crashes;
        self.events += r.events;
        self.peak_live += r.peak_live;
    }

    /// The report of a run that ended at `makespan_s`.
    pub fn into_report(
        mut self,
        policy: String,
        makespan_s: f64,
        fleet: FleetTotals,
    ) -> ClusterReport {
        self.outputs.sort_by_key(|o| o.id);
        let device_seconds = fleet.device_seconds;
        ClusterReport {
            policy,
            makespan_s,
            submitted: self.submitted,
            completed: self.completed,
            timed_out: self.timed_out,
            dropped: self.dropped,
            rejected: self.rejected,
            retries: self.retries,
            crashes: self.crashes,
            events: self.events,
            peak_live: self.peak_live,
            prefix_hits: fleet.prefix_hits,
            prefix_misses: fleet.prefix_misses,
            ttft: LatencySummary::from_histogram(&self.ttft_hist),
            e2e: LatencySummary::from_histogram(&self.e2e_hist),
            itl: LatencySummary::from_histogram(&self.itl_hist),
            completed_tokens: self.tokens,
            throughput_tok_s: self.tokens as f64 / makespan_s.max(1e-12),
            per_replica_completed: fleet.per_replica_completed,
            devices: fleet.devices,
            cost_per_token_device_s: device_seconds / (self.tokens as f64).max(1.0),
            device_s_per_request: device_seconds / (self.completed as f64).max(1.0),
            device_seconds,
            reconfigs: fleet.reconfigs,
            preemptions: fleet.preemptions,
            ttft_hist: self.ttft_hist,
            e2e_hist: self.e2e_hist,
            itl_hist: self.itl_hist,
            outputs: self.outputs,
        }
    }
}
