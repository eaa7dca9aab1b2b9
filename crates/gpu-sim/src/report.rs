//! Common search-report structure shared by the GPU search implementations.

use crate::counters::Counters;
use crate::launch::LaunchReport;
use crate::ledger::ResponseTime;
use crate::memory::OutOfDeviceMemory;
use std::fmt;

/// Load-balance metrics accumulated over every kernel launch of a search.
///
/// The headline figure of the work-queue ablation is [`LoadBalance::spread`]
/// — the cost of the heaviest warp relative to the mean. Under the paper's
/// one-thread-per-query mapping the spread tracks the skew of per-query
/// candidate-range lengths; warp-per-tile dispatch caps every dispatch unit
/// at `tile_size` entries, so the spread collapses toward 1.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LoadBalance {
    /// Cycles of the most expensive warp over all launches.
    pub max_warp_cycles: f64,
    /// Warp cycles summed over all launches.
    pub warp_cycles: f64,
    /// Warps executed over all launches.
    pub warps: u64,
    /// Work-queue tiles dispatched (0 under `ThreadPerQuery`).
    pub tiles_dispatched: u64,
    /// Work-queue cursor atomics: one per tile plus one failed probe per
    /// persistent warp (0 under `ThreadPerQuery`).
    pub queue_atomics: u64,
    /// Smallest final-wave SM occupancy seen across launches (1.0 when
    /// every launch filled its last round-robin wave; 0.0 if no warps ran).
    pub min_last_wave_occupancy: f64,
}

impl LoadBalance {
    /// Fold one launch's metrics into the totals.
    pub fn add_launch(&mut self, r: &LaunchReport) {
        self.tiles_dispatched += r.tiles_dispatched;
        self.queue_atomics += r.queue_atomics;
        if r.warps == 0 {
            return;
        }
        self.max_warp_cycles = self.max_warp_cycles.max(r.max_warp_cycles);
        self.warp_cycles += r.mean_warp_cycles * r.warps as f64;
        let first = self.warps == 0;
        self.warps += r.warps as u64;
        self.min_last_wave_occupancy = if first {
            r.last_wave_occupancy
        } else {
            self.min_last_wave_occupancy.min(r.last_wave_occupancy)
        };
    }

    /// Fold another accumulated [`LoadBalance`] into this one (e.g. when a
    /// service aggregates the reports of many batch searches).
    pub fn merge(&mut self, other: &LoadBalance) {
        self.tiles_dispatched += other.tiles_dispatched;
        self.queue_atomics += other.queue_atomics;
        if other.warps == 0 {
            return;
        }
        self.max_warp_cycles = self.max_warp_cycles.max(other.max_warp_cycles);
        self.warp_cycles += other.warp_cycles;
        let first = self.warps == 0;
        self.warps += other.warps;
        self.min_last_wave_occupancy = if first {
            other.min_last_wave_occupancy
        } else {
            self.min_last_wave_occupancy.min(other.min_last_wave_occupancy)
        };
    }

    /// Mean cycles per warp over all launches.
    pub fn mean_warp_cycles(&self) -> f64 {
        if self.warps == 0 {
            0.0
        } else {
            self.warp_cycles / self.warps as f64
        }
    }

    /// Max-over-mean warp cost: 1.0 is perfectly balanced.
    pub fn spread(&self) -> f64 {
        let mean = self.mean_warp_cycles();
        if mean == 0.0 {
            1.0
        } else {
            self.max_warp_cycles / mean
        }
    }
}

/// Aggregate slab-routing counters of a (possibly sharded) search.
///
/// Filled by dispatchers that route queries to the shards their reach
/// interval touches instead of broadcasting to all of them; an unsharded
/// (or broadcast) search leaves it at the default. All counters sum under
/// both [`SearchReport::merge`] and [`SearchReport::merge_concurrent`] —
/// they count dispatch *work*, which every shard really performed (or
/// provably avoided), independent of whether the shards ran back to back
/// or side by side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoutingSummary {
    /// Shard-query pairs actually dispatched: each query counts once per
    /// shard whose sub-batch it joined. Broadcast dispatch reports
    /// `shards × |Q|` here and 0 below.
    pub shard_queries_routed: u64,
    /// Shard-query pairs skipped because the query's reach interval missed
    /// the shard's slab. `routed + skipped = shards × |Q|` always.
    pub shard_queries_skipped: u64,
    /// Shards that received a non-empty sub-batch and were searched.
    pub shards_probed: u64,
    /// Shards skipped outright (every query's reach missed their slab).
    pub shards_skipped: u64,
    /// Shard searches re-run at full result capacity after the routed
    /// budget share proved too small for a single query's results.
    pub budget_redos: u64,
}

impl RoutingSummary {
    /// Fold another summary in (all counters sum; see the type docs for
    /// why this is correct under concurrent merges too).
    pub fn merge(&mut self, other: &RoutingSummary) {
        self.shard_queries_routed += other.shard_queries_routed;
        self.shard_queries_skipped += other.shard_queries_skipped;
        self.shards_probed += other.shards_probed;
        self.shards_skipped += other.shards_skipped;
        self.budget_redos += other.budget_redos;
    }
}

/// Summary of one distance threshold search execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SearchReport {
    /// Simulated response-time breakdown.
    pub response: ResponseTime,
    /// Query/entry segment comparisons performed (candidate refinements).
    pub comparisons: u64,
    /// Final result records (before host dedup).
    pub raw_matches: u64,
    /// Result records after host dedup.
    pub matches: u64,
    /// Kernel re-invocation rounds beyond the first (buffer overflow redo).
    pub redo_rounds: u32,
    /// Queries that fell back to the purely temporal scheme
    /// (GPUSpatioTemporal only; 0 elsewhere).
    pub fallback_queries: u64,
    /// Warps that diverged (distinct control paths within a warp).
    pub divergent_warps: u64,
    /// Counters summed over every kernel launch of the search (lane work
    /// plus warp-epilogue charges); `totals.atomics` is the headline metric
    /// of the per-lane vs warp-aggregated result-write ablation.
    pub totals: Counters,
    /// Load-imbalance metrics over every launch (see [`LoadBalance`]).
    pub load: LoadBalance,
    /// Host wall-clock seconds the caller waited for the search. The
    /// engines leave it at 0 — every second they report is priced from
    /// counted work — and the caller that times its own call fills it in
    /// (the query service, `tdts-cli search`).
    pub wall_seconds: f64,
    /// Sanitizer findings recorded during this search (0 under
    /// [`crate::SanitizerMode::Off`]); a per-search delta from
    /// [`crate::Device::sanitizer_checkpoint`], so merged reports sum. The
    /// structured diagnostics live on [`crate::Device::sanitizer_report`].
    pub sanitizer_findings: u64,
    /// Slab-routing dispatch counters (all-default when the search was not
    /// sharded or the dispatcher broadcast to every shard).
    pub routing: RoutingSummary,
}

impl SearchReport {
    /// Total simulated response time in seconds.
    pub fn response_seconds(&self) -> f64 {
        self.response.total()
    }

    /// Accumulate another search's report into this one. Used by callers
    /// that run many searches (a batching service, a cluster) and want one
    /// aggregate report: phases, counters, and load metrics sum; wall time
    /// sums (the searches ran back to back on one resource).
    pub fn merge(&mut self, other: &SearchReport) {
        self.response.merge(&other.response);
        self.comparisons += other.comparisons;
        self.raw_matches += other.raw_matches;
        self.matches += other.matches;
        self.redo_rounds += other.redo_rounds;
        self.fallback_queries += other.fallback_queries;
        self.divergent_warps += other.divergent_warps;
        self.totals.add(&other.totals);
        self.load.merge(&other.load);
        self.wall_seconds += other.wall_seconds;
        self.sanitizer_findings += other.sanitizer_findings;
        self.routing.merge(&other.routing);
    }

    /// Aggregate the report of a search that ran *concurrently* on another
    /// device — one shard of a partitioned store. Work counters (segment
    /// comparisons, result records, transfer bytes, launch counts, load
    /// metrics) sum because every device really did that work, but elapsed
    /// time does not: the merge point waits for the slowest shard, so the
    /// response adopts the slower device's phase breakdown
    /// ([`ResponseTime::merge_concurrent`]). Shards are engines, which
    /// leave `wall_seconds` at 0, so it is not merged.
    ///
    /// The caller owns the final `matches` count: per-shard counts sum
    /// here, but cross-shard dedup of boundary replicas happens after the
    /// merge, so sharded callers overwrite `matches` with the deduplicated
    /// total.
    pub fn merge_concurrent(&mut self, other: &SearchReport) {
        self.response.merge_concurrent(&other.response);
        self.comparisons += other.comparisons;
        self.raw_matches += other.raw_matches;
        self.matches += other.matches;
        self.redo_rounds += other.redo_rounds;
        self.fallback_queries += other.fallback_queries;
        self.divergent_warps += other.divergent_warps;
        self.totals.add(&other.totals);
        self.load.merge(&other.load);
        self.sanitizer_findings += other.sanitizer_findings;
        self.routing.merge(&other.routing);
    }
}

/// Errors a GPU search can hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// A device allocation failed.
    OutOfDeviceMemory(OutOfDeviceMemory),
    /// The result buffer is too small for even a single query's results, so
    /// the redo protocol cannot make progress.
    ResultCapacityTooSmall { capacity: usize },
    /// The per-query candidate buffer is too small for even one query when
    /// processed alone (GPUSpatial).
    ScratchCapacityTooSmall { capacity: usize },
    /// An index, device, or engine configuration parameter is invalid.
    InvalidConfig(String),
    /// The dataset is empty; the indexes require at least one entry.
    EmptyDataset,
    /// The dataset is not sorted by `t_start`, which the temporal indexes
    /// require (prepare it with `PreparedDataset` / `sort_by_t_start`).
    UnsortedDataset,
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::OutOfDeviceMemory(e) => write!(f, "{e}"),
            SearchError::ResultCapacityTooSmall { capacity } => write!(
                f,
                "result buffer of {capacity} elements cannot hold a single query's results"
            ),
            SearchError::ScratchCapacityTooSmall { capacity } => write!(
                f,
                "candidate buffer of {capacity} elements cannot hold one query's candidates"
            ),
            SearchError::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
            SearchError::EmptyDataset => write!(f, "cannot index an empty dataset"),
            SearchError::UnsortedDataset => {
                write!(f, "temporal indexes require the dataset sorted by t_start")
            }
        }
    }
}

impl std::error::Error for SearchError {}

impl From<OutOfDeviceMemory> for SearchError {
    fn from(e: OutOfDeviceMemory) -> Self {
        SearchError::OutOfDeviceMemory(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Phase;

    fn report(exec_secs: f64, comparisons: u64, wall: f64) -> SearchReport {
        let mut r = SearchReport { comparisons, wall_seconds: wall, ..SearchReport::default() };
        r.response.add(Phase::KernelExec, exec_secs);
        r
    }

    #[test]
    fn merge_concurrent_bounds_time_and_sums_work() {
        let mut a = report(1.0, 100, 0.5);
        let b = report(4.0, 300, 0.25);
        a.merge_concurrent(&b);
        // Response is the slower shard's, not the sum.
        assert_eq!(a.response.get(Phase::KernelExec), 4.0);
        assert_eq!(a.response_seconds(), 4.0);
        // Work sums across shards.
        assert_eq!(a.comparisons, 400);
    }

    #[test]
    fn sequential_merge_still_sums_time() {
        let mut a = report(1.0, 100, 0.5);
        let b = report(4.0, 300, 0.25);
        a.merge(&b);
        assert_eq!(a.response.get(Phase::KernelExec), 5.0);
        assert_eq!(a.wall_seconds, 0.75);
    }
}
