//! The one GPU search driver. The paper's three GPU methods are one
//! pipeline in three variations (§IV): an index resident on the device, a
//! host-side plan per query batch, and a kernel that walks the plan.
//! [`GpuSearch`] owns what they share, including the host steps' charges;
//! a [`Scheme`] supplies what differs.

use crate::pipeline::{run_thread_per_query, run_warp_per_tile, CandidateGenerator, TileGenerator};
use crate::queries::SortedQueries;
use crate::segments::{DeviceQueries, DeviceSegments};
use std::sync::Arc;
use tdts_geom::{
    dedup_matches, AppendDelta, ExpireDelta, MatchRecord, Segment, SegmentStore, StoreStats,
};
use tdts_gpu_sim::{Device, HostWork, KernelShape, SearchError, SearchReport};

/// What one GPU method contributes to [`GpuSearch`].
///
/// `ingest` and `expire` update the index and its device arrays in place
/// and are all-or-nothing: every fallible step (a check, a device
/// allocation) runs before anything changes, so a refused update leaves
/// both as they were.
pub trait Scheme: Sized + 'static {
    /// The paper's name for the method (e.g. `"GPUTemporal"`).
    const NAME: &'static str;
    /// Whether the driver sorts `Q` by `t_start` before planning. The
    /// temporal schemes do; `GPUSpatial` does not (§IV-A2: sorting by one
    /// spatial dimension would not help 3-D data).
    const SORTS_QUERIES: bool;
    /// Index and search parameters.
    type Config: Copy + Send + Sync + 'static;
    /// The index, with whatever arrays of it are resident on the device.
    type Index: Send + Sync + 'static;
    /// The host-side plan for one query batch.
    type Plan: Send + Sync + 'static;
    /// Thread-per-query candidate generation over a plan.
    type Threads<'a>: CandidateGenerator;
    /// Warp-per-tile decomposition of a plan.
    type Tiles<'a>: TileGenerator;

    /// Build the index over `store`, whose statistics are `stats`, and
    /// place its device arrays in `device` memory (offline).
    fn build(
        device: &Arc<Device>,
        store: &SegmentStore,
        stats: &StoreStats,
        config: &Self::Config,
    ) -> Result<Self::Index, SearchError>;

    /// Extend `index` and its device arrays over store entries `from..`.
    fn ingest(
        index: &mut Self::Index,
        device: &Arc<Device>,
        store: &SegmentStore,
        from: usize,
    ) -> Result<(), SearchError>;

    /// Drop the entries `delta` removed from `store` from `index` and its
    /// device arrays.
    fn expire(
        index: &mut Self::Index,
        device: &Arc<Device>,
        store: &SegmentStore,
        delta: &ExpireDelta,
    ) -> Result<(), SearchError>;

    /// Plan a batch: `queries` (sorted when [`SORTS_QUERIES`]) at distance
    /// `d` under kernel `shape`.
    ///
    /// [`SORTS_QUERIES`]: Scheme::SORTS_QUERIES
    fn plan(
        search: &GpuSearch<Self>,
        queries: &[Segment],
        d: f64,
        shape: KernelShape,
    ) -> Self::Plan;

    /// Queries the plan sends to the temporal fallback (the report's
    /// `fallback_queries`).
    fn fallback_queries(_plan: &Self::Plan) -> u64 {
        0
    }

    /// Entries the plan holds, which [`GpuSearch`] charges as
    /// [`HostWork::PlanEntries`].
    fn plan_entries(plan: &Self::Plan) -> usize;

    /// The thread-per-query generator for `plan`; may upload plan buffers
    /// to the batch's device.
    fn threads<'a>(
        batch: Batch<'a, Self>,
        plan: &'a Self::Plan,
    ) -> Result<Self::Threads<'a>, SearchError>;

    /// The warp-per-tile generator for `plan`.
    fn tiles<'a>(batch: Batch<'a, Self>, plan: &'a Self::Plan) -> Self::Tiles<'a>;
}

/// One batch as a scheme's generators see it: the resident search, the
/// batch's own device handle (uploads charge its ledger), the uploaded `Q`
/// and the distance `d`.
pub struct Batch<'a, S: Scheme> {
    /// The resident index and entries.
    pub search: &'a GpuSearch<S>,
    /// The search's handle on the device, with its own ledger.
    pub device: &'a Arc<Device>,
    /// The query set on the device.
    pub queries: &'a DeviceQueries,
    /// The distance threshold.
    pub d: f64,
}

/// A GPU search method: the scheme's index and the entry database,
/// resident on one device.
///
/// Constructing it sorts nothing and transfers the database *offline* (the
/// paper stores `D` and the index on the GPU before the timed search).
pub struct GpuSearch<S: Scheme> {
    device: Arc<Device>,
    config: S::Config,
    index: S::Index,
    entries: DeviceSegments,
    generation: u64,
}

impl<S: Scheme> GpuSearch<S> {
    /// Build the index over `store` and place the database and the index
    /// arrays in device memory. The temporal schemes need `store` sorted
    /// by `t_start`.
    pub fn new(
        device: Arc<Device>,
        store: &SegmentStore,
        config: S::Config,
    ) -> Result<GpuSearch<S>, SearchError> {
        let stats = store.stats().ok_or(SearchError::EmptyDataset)?;
        GpuSearch::new_with_stats(device, store, &stats, config)
    }

    /// [`new`](GpuSearch::new) with the store's [`StoreStats`] supplied by
    /// the caller.
    pub fn new_with_stats(
        device: Arc<Device>,
        store: &SegmentStore,
        stats: &StoreStats,
        config: S::Config,
    ) -> Result<GpuSearch<S>, SearchError> {
        let index = S::build(&device, store, stats, &config)?;
        let entries = DeviceSegments::alloc(&device, store.segments())?;
        Ok(GpuSearch { device, config, index, entries, generation: store.generation() })
    }

    /// The index.
    pub fn index(&self) -> &S::Index {
        &self.index
    }

    /// The entry database resident on the device.
    pub fn entries(&self) -> &DeviceSegments {
        &self.entries
    }

    /// The configuration the search was built with.
    pub fn config(&self) -> &S::Config {
        &self.config
    }

    /// The device this search runs on.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// The store generation this index currently reflects.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Absorb store entries `delta.from..` (offline; the temporal schemes
    /// need them to continue the store's `t_start` order): extend the index
    /// and its device arrays, and grow the resident database, in place. The
    /// delta must continue the entries the search holds
    /// ([`SearchError::InvalidConfig`] otherwise). The database rows'
    /// device bytes are reserved first and the scheme's update is
    /// all-or-nothing, so on `Err` the search is exactly as it was.
    pub fn ingest(&mut self, store: &SegmentStore, delta: &AppendDelta) -> Result<(), SearchError> {
        if delta.from != self.entries.len() {
            return Err(SearchError::InvalidConfig(format!(
                "append delta starts at {} but the search holds {} entries",
                delta.from,
                self.entries.len()
            )));
        }
        let tail = &store.segments()[delta.from..];
        let mut rows = self.device.reserve(DeviceSegments::bytes_for(tail.len()))?;
        S::ingest(&mut self.index, &self.device, store, delta.from)?;
        self.entries.extend(tail, &mut rows);
        self.generation = delta.generation;
        Ok(())
    }

    /// Drop expired entries from the index, its device arrays and the
    /// resident database. The delta must describe the entries the search
    /// holds ([`SearchError::InvalidConfig`] otherwise); all-or-nothing
    /// like [`ingest`](GpuSearch::ingest).
    pub fn expire(&mut self, store: &SegmentStore, delta: &ExpireDelta) -> Result<(), SearchError> {
        if delta.old_len != self.entries.len() {
            return Err(SearchError::InvalidConfig(format!(
                "expire delta describes {} entries but the search holds {}",
                delta.old_len,
                self.entries.len()
            )));
        }
        S::expire(&mut self.index, &self.device, store, delta)?;
        self.entries.remove_positions(&delta.removed);
        self.generation = delta.generation;
        Ok(())
    }

    /// Run the distance threshold search for `queries` at distance `d`,
    /// with a result buffer of `result_capacity` records.
    ///
    /// Returns the canonical (sorted, deduplicated) result set, reported
    /// against the caller's query order, and the search report. The search
    /// charges a ledger of its own ([`Device::for_search`]), so the
    /// report's response time covers exactly this search even while others
    /// run on the same index.
    pub fn search(
        &self,
        queries: &SegmentStore,
        d: f64,
        result_capacity: usize,
    ) -> Result<(Vec<MatchRecord>, SearchReport), SearchError> {
        self.search_shaped(queries, d, result_capacity, None)
    }

    /// [`GpuSearch::search`] under kernel `shape`; `None` is the device's
    /// configured [`KernelShape`]. The resident index and database are the
    /// same for both shapes.
    pub fn search_shaped(
        &self,
        queries: &SegmentStore,
        d: f64,
        result_capacity: usize,
        shape: Option<KernelShape>,
    ) -> Result<(Vec<MatchRecord>, SearchReport), SearchError> {
        let device = self.device.for_search();
        let shape = shape.unwrap_or(device.config().kernel_shape);
        let mut report = SearchReport::default();

        // Host: sort Q (when the scheme does) and plan the batch.
        let sorted = S::SORTS_QUERIES.then(|| SortedQueries::from_store(queries));
        if sorted.is_some() {
            device.charge_host(HostWork::SortQueries(queries.len()));
        }
        let segments = sorted.as_deref().unwrap_or(queries.segments());
        let plan = S::plan(self, segments, d, shape);
        device.charge_host(HostWork::PlanEntries(S::plan_entries(&plan)));
        report.fallback_queries = S::fallback_queries(&plan);

        if segments.is_empty() {
            report.response = device.ledger();
            return Ok((Vec::new(), report));
        }

        // Online transfer: Q (the generators add their plan buffers).
        let uploaded = DeviceQueries::upload(&device, segments)?;
        let batch = Batch { search: self, device: &device, queries: &uploaded, d };
        let n = segments.len();
        let mut matches = match shape {
            KernelShape::WarpPerTile => {
                let tiles = S::tiles(batch, &plan);
                run_warp_per_tile(&device, &tiles, &uploaded, d, n, result_capacity, &mut report)?
            }
            KernelShape::ThreadPerQuery => {
                let threads = S::threads(batch, &plan)?;
                run_thread_per_query(&device, &threads, n, result_capacity, &mut report)?
            }
        };

        // Host: map sorted positions back to the caller's order and
        // collapse duplicates, then seal the report from the ledger.
        report.raw_matches = matches.len() as u64;
        if let Some(sorted) = &sorted {
            sorted.unpermute(&mut matches);
            device.charge_host(HostWork::UnpermuteRecords(matches.len()));
        }
        device.charge_host(HostWork::DedupRecords(matches.len()));
        dedup_matches(&mut matches);
        report.matches = matches.len() as u64;
        report.response = device.ledger();
        report.sanitizer_findings = device.sanitizer_checkpoint();
        Ok((matches, report))
    }
}
