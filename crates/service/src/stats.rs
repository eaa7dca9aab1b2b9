//! Service observability: per-batch counters and the cumulative
//! [`SearchReport`] (whose `LoadBalance` section aggregates across every
//! batch the service executed).

// The counters are pure observability and stay on raw `std` atomics: they
// carry no protocol decisions, and scheduling them would only blow up the
// model checker's schedule space. The protocol state (admission count,
// stop flag, failure streak, `degraded`) lives under the service's
// pending-queue lock instead; the cumulative-report lock goes through the
// shim.
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use tdts_core::ShardStats;
use tdts_gpu_sim::SearchReport;
use tdts_sync::sync::Mutex;

/// Lock-free counters the hot paths touch, plus the merged report.
#[derive(Default)]
pub(crate) struct StatsInner {
    pub(crate) admitted: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) served: AtomicU64,
    pub(crate) timed_out: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) fallback_batches: AtomicU64,
    pub(crate) batch_queries: AtomicU64,
    pub(crate) batch_latency_nanos: AtomicU64,
    pub(crate) max_queue_depth: AtomicU64,
    pub(crate) window_advances: AtomicU64,
    pub(crate) segments_ingested: AtomicU64,
    pub(crate) segments_expired: AtomicU64,
    pub(crate) cumulative: Mutex<SearchReport>,
}

impl StatsInner {
    pub(crate) fn record_batch(&self, queries: usize, latency: Duration, report: &SearchReport) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_queries.fetch_add(queries as u64, Ordering::Relaxed);
        self.batch_latency_nanos.fetch_add(latency.as_nanos() as u64, Ordering::Relaxed);
        self.cumulative.lock().unwrap().merge(report);
    }

    /// The counters; the caller fills in `degraded` and the shard fields.
    pub(crate) fn snapshot(&self) -> ServiceStats {
        let batches = self.batches.load(Ordering::Relaxed);
        let queries = self.batch_queries.load(Ordering::Relaxed);
        let latency_nanos = self.batch_latency_nanos.load(Ordering::Relaxed);
        ServiceStats {
            requests_admitted: self.admitted.load(Ordering::Relaxed),
            requests_rejected: self.rejected.load(Ordering::Relaxed),
            requests_served: self.served.load(Ordering::Relaxed),
            requests_timed_out: self.timed_out.load(Ordering::Relaxed),
            requests_failed: self.failed.load(Ordering::Relaxed),
            batches_executed: batches,
            fallback_batches: self.fallback_batches.load(Ordering::Relaxed),
            mean_batch_queries: if batches == 0 { 0.0 } else { queries as f64 / batches as f64 },
            mean_batch_latency_seconds: if batches == 0 {
                0.0
            } else {
                latency_nanos as f64 * 1e-9 / batches as f64
            },
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            degraded: false,
            window_advances: self.window_advances.load(Ordering::Relaxed),
            segments_ingested: self.segments_ingested.load(Ordering::Relaxed),
            segments_expired: self.segments_expired.load(Ordering::Relaxed),
            cumulative: *self.cumulative.lock().unwrap(),
            shards: 1,
            duplicates_dropped: 0,
            per_shard: Vec::new(),
        }
    }
}

/// A point-in-time view of the service counters.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct ServiceStats {
    /// Requests accepted past admission control.
    pub requests_admitted: u64,
    /// Requests rejected with `Overloaded`.
    pub requests_rejected: u64,
    /// Requests answered with a result set.
    pub requests_served: u64,
    /// Requests that missed their deadline.
    pub requests_timed_out: u64,
    /// Requests answered with a search error (both kernel shapes failed).
    pub requests_failed: u64,
    /// Coalesced batches run through an engine.
    pub batches_executed: u64,
    /// Batches served under the fallback kernel shape.
    pub fallback_batches: u64,
    /// Mean query segments per executed batch.
    pub mean_batch_queries: f64,
    /// Mean enqueue-to-response latency over executed batches.
    pub mean_batch_latency_seconds: f64,
    /// Highest simultaneous admitted-request count observed.
    pub max_queue_depth: u64,
    /// Whether the service has permanently degraded to the fallback kernel
    /// shape.
    pub degraded: bool,
    /// Sliding-window advances applied (0 unless streaming mode).
    pub window_advances: u64,
    /// Segments ingested across all window advances.
    pub segments_ingested: u64,
    /// Segments expired across all window advances.
    pub segments_expired: u64,
    /// Every executed batch's [`SearchReport`] merged together — phase
    /// timings, comparison counts, and aggregated `LoadBalance` metrics.
    pub cumulative: SearchReport,
    /// Configured shard count (1 = unsharded).
    pub shards: usize,
    /// Cross-shard duplicate records dropped by the sharded index's merge
    /// path (0 when unsharded).
    pub duplicates_dropped: u64,
    /// Per-slab work counters of the sharded index since its last
    /// re-partition, in slab order (empty when unsharded).
    pub per_shard: Vec<ShardStats>,
}
