//! The [`TrajectoryIndex`] abstraction: one object-safe interface over the
//! paper's four search implementations and the sharded index, so a
//! [`SearchEngine`](crate::SearchEngine) — the one owner of a resident index,
//! held by the service, the figures harness and the CLI — searches and
//! updates any of them without matching on [`Method`](crate::Method).

use std::sync::Arc;
use tdts_geom::{
    check_threshold, first_invalid, AppendDelta, ExpireDelta, MatchRecord, SegmentStore,
};
use tdts_gpu_sim::{replay_earliest_free, KernelShape, Phase, SearchReport};
use tdts_kernels::{GpuSearch, Scheme};
use tdts_rtree::{RTree, RTreeConfig, SearchStats};

use crate::error::TdtsError;

/// One batch of query segments with its search parameters.
///
/// Borrowed, so a service can slice a coalesced super-batch into
/// per-request views without copying segments.
#[derive(Debug, Clone, Copy)]
pub struct QueryBatch<'a> {
    /// The query segments `Q`.
    pub queries: &'a SegmentStore,
    /// The distance threshold `d`.
    pub d: f64,
    /// Device result-buffer bound (the paper's fixed-size buffer). CPU
    /// implementations ignore it.
    pub result_capacity: usize,
}

impl QueryBatch<'_> {
    /// Refuse a threshold or a query segment outside the
    /// [numeric domain](tdts_geom::DOMAIN_BOUND): `d` must satisfy
    /// `0 ≤ d ≤ 2¹⁶⁰` and every query be [valid](tdts_geom::Segment::is_valid).
    /// Every comparison against NaN is false, a negative `d` is squared
    /// away, and past the domain the distance test's coefficients overflow,
    /// so without this check a release build returns a confidently wrong
    /// result set — a different one per method — instead of an error.
    pub fn validate(&self) -> Result<(), TdtsError> {
        check_threshold(self.d).map_err(TdtsError::InvalidConfig)?;
        match first_invalid(self.queries.iter()) {
            Some(bad) => Err(TdtsError::InvalidConfig(format!("query {bad}"))),
            None => Ok(()),
        }
    }
}

/// The product of one batch search: canonical deduplicated result records
/// and the instrumentation report.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Result records in the canonical `(query, entry, interval)` order.
    pub matches: Vec<MatchRecord>,
    /// Counters, phase timings and load-balance metrics for the batch.
    pub report: SearchReport,
}

/// A fully built distance-threshold search index.
///
/// Implementations own everything they need to serve queries — the entry
/// database (or a handle to it), the index structure, and the device
/// residency for GPU methods. Building happens elsewhere (offline, as in
/// the paper); this trait is the online query path only.
///
/// `Send + Sync` is required so a query service can share one engine, and
/// with it one index, across worker threads behind an `Arc`.
pub trait TrajectoryIndex: Send + Sync {
    /// Run the distance threshold search for every query in the batch under
    /// kernel `shape`; `None` means the configured shape of the device the
    /// index is resident on ([`DeviceConfig::kernel_shape`]). No index build
    /// depends on the shape, so one resident index serves both. CPU-RTree,
    /// which has no kernel, ignores it.
    ///
    /// [`DeviceConfig::kernel_shape`]: tdts_gpu_sim::DeviceConfig::kernel_shape
    fn search_shaped(
        &self,
        batch: &QueryBatch<'_>,
        shape: Option<KernelShape>,
    ) -> Result<SearchOutcome, TdtsError>;

    /// [`search_shaped`](TrajectoryIndex::search_shaped) under the device's
    /// configured kernel shape.
    fn search(&self, batch: &QueryBatch<'_>) -> Result<SearchOutcome, TdtsError> {
        self.search_shaped(batch, None)
    }

    /// The paper's name for the implementation (e.g. `"GPUTemporal"`).
    fn name(&self) -> &'static str;

    /// Whether the index accepts [`ingest`](TrajectoryIndex::ingest) and
    /// [`expire_before`](TrajectoryIndex::expire_before) at all, in place
    /// (the GPU methods) or by rebuilding (CPU-RTree). When `false` both
    /// return [`TdtsError::IncrementalUnsupported`].
    fn supports_incremental(&self) -> bool {
        false
    }

    /// The store generation this index reflects. `0` for implementations
    /// that do not track generations (they are rebuilt per store state).
    fn generation(&self) -> u64 {
        0
    }

    /// Absorb the segments described by `delta`, which `store` has already
    /// appended. After this returns `Ok`, a search must produce results
    /// byte-identical to a cold rebuild at `store`'s current generation.
    fn ingest(&mut self, store: &Arc<SegmentStore>, delta: &AppendDelta) -> Result<(), TdtsError> {
        let _ = (store, delta);
        Err(TdtsError::IncrementalUnsupported(self.name()))
    }

    /// Drop the segments described by `delta`, which `store` has already
    /// expired, remapping retained positions. Same correctness contract
    /// as [`ingest`](TrajectoryIndex::ingest).
    fn expire_before(
        &mut self,
        store: &Arc<SegmentStore>,
        delta: &ExpireDelta,
    ) -> Result<(), TdtsError> {
        let _ = (store, delta);
        Err(TdtsError::IncrementalUnsupported(self.name()))
    }
}

/// Every GPU method is one [`GpuSearch`] over its scheme and applies deltas
/// in place.
impl<S: Scheme> TrajectoryIndex for GpuSearch<S> {
    fn search_shaped(
        &self,
        batch: &QueryBatch<'_>,
        shape: Option<KernelShape>,
    ) -> Result<SearchOutcome, TdtsError> {
        batch.validate()?;
        let (matches, report) =
            GpuSearch::search_shaped(self, batch.queries, batch.d, batch.result_capacity, shape)?;
        Ok(SearchOutcome { matches, report })
    }

    fn name(&self) -> &'static str {
        S::NAME
    }

    fn supports_incremental(&self) -> bool {
        true
    }

    fn generation(&self) -> u64 {
        GpuSearch::generation(self)
    }

    fn ingest(&mut self, store: &Arc<SegmentStore>, delta: &AppendDelta) -> Result<(), TdtsError> {
        Ok(GpuSearch::ingest(self, store, delta)?)
    }

    fn expire_before(
        &mut self,
        store: &Arc<SegmentStore>,
        delta: &ExpireDelta,
    ) -> Result<(), TdtsError> {
        Ok(GpuSearch::expire(self, store, delta)?)
    }
}

/// Cores of the paper's CPU baseline host (a 6-core Xeon), each running
/// one query segment at a time.
const CPU_WORKERS: usize = 6;
// Nanoseconds per R-tree node visited, candidate refined, record produced.
const CPU_NODE_NS: f64 = 497.0;
const CPU_CANDIDATE_NS: f64 = 82.4;
const CPU_MATCH_NS: f64 = 546.0;

/// The CPU baseline behind the trait. [`RTree`] does not own the entry
/// store (its result positions refer to an external store), so this
/// wrapper pairs the tree with the canonical store it was built from.
///
/// Its response time is counted like the GPU methods': each query is
/// priced from the nodes it visited, the candidates it refined and the
/// records it produced, and the priced queries are replayed in batch order
/// onto six cores, each to the one that becomes free earliest
/// (the paper's one query segment per task). The prices were fitted once
/// to this baseline's measured wall (DESIGN.md §4c).
pub struct CpuRTreeIndex {
    tree: RTree,
    store: Arc<SegmentStore>,
    config: RTreeConfig,
    generation: u64,
}

impl CpuRTreeIndex {
    /// Wrap a built tree with the store its positions refer to and the
    /// config to rebuild it with when the store changes.
    pub fn new(tree: RTree, store: Arc<SegmentStore>, config: RTreeConfig) -> CpuRTreeIndex {
        let generation = store.generation();
        CpuRTreeIndex { tree, store, config, generation }
    }

    /// Packed STR builds are cheap on the CPU, so the baseline answers
    /// both delta kinds the same way: swap in the new store handle and
    /// rebuild the tree over it.
    fn rebuild(&mut self, store: &Arc<SegmentStore>, generation: u64) {
        self.store = Arc::clone(store);
        self.tree = RTree::build(store, self.config);
        self.generation = generation;
    }
}

impl TrajectoryIndex for CpuRTreeIndex {
    fn search_shaped(
        &self,
        batch: &QueryBatch<'_>,
        _shape: Option<KernelShape>,
    ) -> Result<SearchOutcome, TdtsError> {
        batch.validate()?;
        let (matches, per_query) = self.tree.search(&self.store, batch.queries, batch.d);
        let price = |s: &SearchStats| {
            let ns = CPU_NODE_NS * s.nodes_visited as f64
                + CPU_CANDIDATE_NS * s.candidates as f64
                + CPU_MATCH_NS * s.matches as f64;
            ns * 1e-9
        };
        let busy = replay_earliest_free(CPU_WORKERS, per_query.iter().map(price), |_, _| {});
        let mut report = SearchReport {
            comparisons: per_query.iter().map(|s| s.candidates).sum(),
            raw_matches: per_query.iter().map(|s| s.matches).sum(),
            matches: matches.len() as u64,
            ..SearchReport::default()
        };
        report.response.add(Phase::HostCompute, busy.into_iter().fold(0.0, f64::max));
        Ok(SearchOutcome { matches, report })
    }

    fn name(&self) -> &'static str {
        "CPU-RTree"
    }

    fn supports_incremental(&self) -> bool {
        true
    }

    fn generation(&self) -> u64 {
        self.generation
    }

    fn ingest(&mut self, store: &Arc<SegmentStore>, delta: &AppendDelta) -> Result<(), TdtsError> {
        self.rebuild(store, delta.generation);
        Ok(())
    }

    fn expire_before(
        &mut self,
        store: &Arc<SegmentStore>,
        delta: &ExpireDelta,
    ) -> Result<(), TdtsError> {
        self.rebuild(store, delta.generation);
        Ok(())
    }
}
