//! Unified engine over the paper's search implementations.

use std::sync::Arc;
use tdts_geom::{first_invalid, MatchRecord, Segment, SegmentStore};
use tdts_gpu_sim::SearchError;
use tdts_gpu_sim::{Device, KernelShape, SearchReport};
use tdts_index_spatial::{GpuSpatialConfig, GpuSpatialSearch};
use tdts_index_spatiotemporal::{GpuSpatioTemporalSearch, SpatioTemporalIndexConfig};
use tdts_index_temporal::{GpuTemporalSearch, TemporalIndexConfig};
use tdts_rtree::{RTree, RTreeConfig};

use crate::error::TdtsError;
use crate::sharding::ShardedIndex;
use crate::traits::{CpuRTreeIndex, QueryBatch, TrajectoryIndex};

/// A search method with its configuration.
///
/// `Method` is a *factory*: [`Method::build_index`] constructs the matching
/// [`TrajectoryIndex`] implementation for a [`SearchEngine`] (directly, or
/// per shard of a [`ShardedIndex`]), and everything downstream (service,
/// figures harness, CLI) holds that engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// The paper's CPU baseline: multithreaded in-memory R-tree.
    CpuRTree(RTreeConfig),
    /// `GPUSpatial`: flatly structured grid (§IV-A).
    GpuSpatial(GpuSpatialConfig),
    /// `GPUTemporal`: temporal bins (§IV-B).
    GpuTemporal(TemporalIndexConfig),
    /// `GPUSpatioTemporal`: temporal bins with spatial subbins (§IV-C).
    GpuSpatioTemporal(SpatioTemporalIndexConfig),
}

impl Method {
    /// The paper's name for this implementation.
    pub fn name(&self) -> &'static str {
        match self {
            Method::CpuRTree(_) => "CPU-RTree",
            Method::GpuSpatial(_) => "GPUSpatial",
            Method::GpuTemporal(_) => "GPUTemporal",
            Method::GpuSpatioTemporal(_) => "GPUSpatioTemporal",
        }
    }

    /// Build the index this method describes over the canonical `store`.
    ///
    /// GPU methods place the database and index into `device` memory
    /// (offline — excluded from response time, as in the paper). The CPU
    /// baseline ignores the device. A store holding a segment that is not
    /// [valid](Segment::is_valid) is [`TdtsError::InvalidConfig`].
    pub fn build_index(
        &self,
        store: &Arc<SegmentStore>,
        device: Arc<Device>,
    ) -> Result<Box<dyn TrajectoryIndex>, TdtsError> {
        check_database(store)?;
        self.build_checked_index(store, device)
    }

    /// [`build_index`](Method::build_index) over a store whose segments
    /// [`check_database`] has already passed (or a slice of one that has).
    pub(crate) fn build_checked_index(
        &self,
        store: &Arc<SegmentStore>,
        device: Arc<Device>,
    ) -> Result<Box<dyn TrajectoryIndex>, TdtsError> {
        Ok(match *self {
            Method::CpuRTree(cfg) => {
                cfg.validate().map_err(TdtsError::InvalidConfig)?;
                Box::new(CpuRTreeIndex::new(RTree::build(store, cfg), Arc::clone(store), cfg))
            }
            Method::GpuSpatial(cfg) => Box::new(GpuSpatialSearch::new(device, store, cfg)?),
            Method::GpuTemporal(cfg) => Box::new(GpuTemporalSearch::new(device, store, cfg)?),
            Method::GpuSpatioTemporal(cfg) => {
                Box::new(GpuSpatioTemporalSearch::new(device, store, cfg)?)
            }
        })
    }
}

/// Refuse a database holding a segment that is not
/// [valid](Segment::is_valid), naming its position and the rule it breaks:
/// the index methods prune on different coordinates, and past the numeric
/// domain the distance test overflows, so such a segment would make them
/// disagree (or panic) instead of erroring.
pub(crate) fn check_database(store: &SegmentStore) -> Result<(), TdtsError> {
    match first_invalid(store.iter()) {
        Some(bad) => Err(TdtsError::InvalidConfig(format!("database {bad}"))),
        None => Ok(()),
    }
}

/// An entry database canonicalised for searching: sorted by `t_start`
/// (required by the temporal indexes; harmless for the others).
///
/// Every [`SearchEngine`] built from the same prepared dataset reports
/// result records against the same entry positions, so result sets are
/// directly comparable across methods.
#[derive(Debug, Clone)]
pub struct PreparedDataset {
    store: Arc<SegmentStore>,
}

impl PreparedDataset {
    /// Sort (a copy of) the store by `t_start`.
    pub fn new(mut store: SegmentStore) -> PreparedDataset {
        store.sort_by_t_start();
        PreparedDataset { store: Arc::new(store) }
    }

    /// The canonical (sorted) store result positions refer to.
    pub fn store(&self) -> &SegmentStore {
        &self.store
    }

    /// Shared handle to the store.
    pub fn store_arc(&self) -> Arc<SegmentStore> {
        Arc::clone(&self.store)
    }
}

/// What a [`SearchEngine`] searches: one index, or a [`ShardedIndex`] over
/// one device per shard.
enum Resident {
    /// One index and the device it is resident on (`None` for an index
    /// handed to [`SearchEngine::with_index`]). The CPU baseline keeps the
    /// device it was given and never touches it.
    Single {
        index: Box<dyn TrajectoryIndex>,
        device: Option<Arc<Device>>,
    },
    Sharded(ShardedIndex),
}

impl Resident {
    fn index(&self) -> &dyn TrajectoryIndex {
        match self {
            Resident::Single { index, .. } => index.as_ref(),
            Resident::Sharded(sharded) => sharded,
        }
    }

    fn index_mut(&mut self) -> &mut dyn TrajectoryIndex {
        match self {
            Resident::Single { index, .. } => index.as_mut(),
            Resident::Sharded(sharded) => sharded,
        }
    }
}

/// One search implementation, fully built (index constructed, database
/// resident on the device for the GPU methods) and ready to serve queries:
/// the one owner of a canonical store, the index over it and the devices
/// under that index. The query service, the figures harness and the CLI all
/// hold one of these.
///
/// Fail-stop: once the index refuses a delta the store has already
/// absorbed, store and index disagree, so that call, every later mutation
/// and every later search return the index's error ([`SearchEngine::failed`]).
pub struct SearchEngine {
    store: Arc<SegmentStore>,
    method: Method,
    resident: Resident,
    failed: Option<TdtsError>,
}

impl SearchEngine {
    /// Build the index for `method` over `dataset`. GPU methods place the
    /// database and index into `device` memory (offline — excluded from
    /// response time, as in the paper).
    pub fn build(
        dataset: &PreparedDataset,
        method: Method,
        device: Arc<Device>,
    ) -> Result<SearchEngine, TdtsError> {
        let store = dataset.store_arc();
        if store.is_empty() {
            return Err(TdtsError::Search(SearchError::EmptyDataset));
        }
        let index = method.build_index(&store, Arc::clone(&device))?;
        let resident = Resident::Single { index, device: Some(device) };
        Ok(SearchEngine { store, method, resident, failed: None })
    }

    /// Build `method` sharded across `sharding.shards` simulated devices
    /// (each instantiated from `device_config`), per the tentpole
    /// multi-device execution model in [`crate::sharding`]. With
    /// `sharding.shards == 1` this is a one-member [`ShardedIndex`]: the
    /// same results as [`SearchEngine::build`] on a fresh device.
    pub fn build_sharded(
        dataset: &PreparedDataset,
        method: Method,
        device_config: &tdts_gpu_sim::DeviceConfig,
        sharding: &crate::sharding::ShardedIndexConfig,
    ) -> Result<SearchEngine, TdtsError> {
        let store = dataset.store_arc();
        let stats = store.stats().ok_or(TdtsError::Search(SearchError::EmptyDataset))?;
        let sharded = ShardedIndex::build(method, &store, &stats, device_config, sharding)?;
        Ok(SearchEngine { store, method, resident: Resident::Sharded(sharded), failed: None })
    }

    /// Wrap an `index` the caller built over `dataset`'s store, with no
    /// device: the seam a test double (the service's model-check mock)
    /// enters through.
    pub fn with_index(
        dataset: &PreparedDataset,
        method: Method,
        index: Box<dyn TrajectoryIndex>,
    ) -> SearchEngine {
        let resident = Resident::Single { index, device: None };
        SearchEngine { store: dataset.store_arc(), method, resident, failed: None }
    }

    /// The method this engine implements.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The canonical entry store result positions refer to.
    pub fn store(&self) -> &SegmentStore {
        &self.store
    }

    /// Shared handle to the canonical store's current epoch. A holder keeps
    /// that epoch; the engine's next mutation then copies the store first.
    pub fn store_arc(&self) -> Arc<SegmentStore> {
        Arc::clone(&self.store)
    }

    /// The sharded index, for its per-shard stats, duplicates dropped and
    /// free device bytes; `None` when the engine is unsharded.
    pub fn sharded(&self) -> Option<&ShardedIndex> {
        match &self.resident {
            Resident::Sharded(sharded) => Some(sharded),
            Resident::Single { .. } => None,
        }
    }

    /// The one device an unsharded engine is resident on, for its free bytes
    /// and sanitizer report; `None` when sharded (each shard has its own)
    /// or built by [`SearchEngine::with_index`].
    pub fn device(&self) -> Option<&Device> {
        match &self.resident {
            Resident::Single { device, .. } => device.as_deref(),
            Resident::Sharded(_) => None,
        }
    }

    /// The index refusal that stopped the engine, if one has.
    pub fn failed(&self) -> Option<&TdtsError> {
        self.failed.as_ref()
    }

    /// The store generation this engine's index reflects.
    pub fn generation(&self) -> u64 {
        self.resident.index().generation()
    }

    /// Whether the underlying index accepts append/expire deltas (every
    /// unsharded method; not a sharded one).
    pub fn supports_incremental(&self) -> bool {
        self.resident.index().supports_incremental()
    }

    /// Refuse a mutation the index cannot follow, before the store changes.
    fn check_incremental(&self) -> Result<(), TdtsError> {
        if self.supports_incremental() {
            Ok(())
        } else {
            Err(TdtsError::IncrementalUnsupported(self.resident.index().name()))
        }
    }

    /// Fail-stop: once the index has refused a delta, return its refusal.
    fn check_live(&self) -> Result<(), TdtsError> {
        self.failed.clone().map_or(Ok(()), Err)
    }

    /// Append `new_segments` to the canonical store and bring the index to
    /// the new generation.
    ///
    /// The temporal methods require appends in `t_start` order (the
    /// streaming model of §V: updates arrive time-ordered), so this
    /// rejects a batch that starts before the current store's last
    /// `t_start`, and any batch holding an invalid segment
    /// ([`SegmentStore::check_append`]). After `Ok`, searches are
    /// byte-identical to a cold rebuild at the new generation.
    ///
    /// Fails with [`TdtsError::IncrementalUnsupported`] when the index is
    /// sharded. These refusals leave the store unmodified; a
    /// refusal by the index itself (e.g. out of device memory) comes after
    /// the store changed and stops the engine (see [`SearchEngine`]).
    pub fn ingest(&mut self, new_segments: &[Segment]) -> Result<(), TdtsError> {
        self.check_live()?;
        if new_segments.is_empty() {
            return Ok(());
        }
        self.store.check_append(new_segments).map_err(TdtsError::InvalidConfig)?;
        self.check_incremental()?;
        let delta = Arc::make_mut(&mut self.store).append(new_segments);
        let index = self.resident.index_mut();
        index.ingest(&self.store, &delta).inspect_err(|e| self.failed = Some(e.clone()))
    }

    /// Drop every stored segment that ends before `t` from the canonical
    /// store and the index. Same contract as [`SearchEngine::ingest`]; a
    /// NaN cut, which no `t_end` is at or after, is refused rather than
    /// taken to expire everything. `±∞` are valid cuts.
    pub fn expire_before(&mut self, t: f64) -> Result<(), TdtsError> {
        self.check_live()?;
        if t.is_nan() {
            return Err(TdtsError::InvalidConfig("expiry cut must not be NaN".into()));
        }
        self.check_incremental()?;
        let delta = Arc::make_mut(&mut self.store).expire_before(t);
        let index = self.resident.index_mut();
        index.expire_before(&self.store, &delta).inspect_err(|e| self.failed = Some(e.clone()))
    }

    /// Run the distance threshold search.
    ///
    /// `result_capacity` bounds the GPU result buffer (the paper's fixed
    /// 5×10⁷-element buffer); the CPU baseline ignores it (host memory is
    /// dynamic, §III). Returns the canonical result set and a report whose
    /// every second is priced from counted work: simulated device time plus
    /// the host steps (`Phase::HostCompute`) for the GPU methods, and the
    /// per-query prices replayed onto six cores for the CPU baseline
    /// (DESIGN.md §4c). The report's `wall_seconds` is left at 0; a caller
    /// that wants the wall times its own call.
    pub fn search(
        &self,
        queries: &SegmentStore,
        d: f64,
        result_capacity: usize,
    ) -> Result<(Vec<MatchRecord>, SearchReport), TdtsError> {
        self.search_shaped(queries, d, result_capacity, None)
    }

    /// [`SearchEngine::search`] under kernel `shape` instead of the device's
    /// configured one (see [`TrajectoryIndex::search_shaped`]).
    pub fn search_shaped(
        &self,
        queries: &SegmentStore,
        d: f64,
        result_capacity: usize,
        shape: Option<KernelShape>,
    ) -> Result<(Vec<MatchRecord>, SearchReport), TdtsError> {
        self.check_live()?;
        let batch = QueryBatch { queries, d, result_capacity };
        let outcome = self.resident.index().search_shaped(&batch, shape)?;
        Ok((outcome.matches, outcome.report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdts_geom::{Point3, SegId, Segment, TrajId, DOMAIN_BOUND};
    use tdts_gpu_sim::{DeviceConfig, Phase};
    use tdts_index_spatial::FsgConfig;

    fn store(n: usize) -> SegmentStore {
        (0..n)
            .map(|i| {
                // Deliberately unsorted in time.
                let t = ((i * 7) % n) as f64 * 0.3;
                Segment::new(
                    Point3::new(i as f64, (i % 5) as f64, 0.0),
                    Point3::new(i as f64 + 1.0, (i % 5) as f64 + 1.0, 1.0),
                    t,
                    t + 1.0,
                    SegId(i as u32),
                    TrajId(i as u32),
                )
            })
            .collect()
    }

    fn device() -> Arc<Device> {
        Device::new(DeviceConfig::test_tiny()).unwrap()
    }

    fn all_methods() -> Vec<Method> {
        vec![
            Method::CpuRTree(RTreeConfig::default()),
            Method::GpuSpatial(GpuSpatialConfig {
                fsg: FsgConfig { cells_per_dim: 6 },
                total_scratch: 50_000,
            }),
            Method::GpuTemporal(TemporalIndexConfig { bins: 8 }),
            Method::GpuSpatioTemporal(SpatioTemporalIndexConfig {
                bins: 8,
                subbins: 4,
                sort_by_selector: true,
            }),
        ]
    }

    #[test]
    fn prepared_dataset_sorts() {
        let p = PreparedDataset::new(store(20));
        assert!(p.store().is_sorted_by_t_start());
        assert_eq!(p.store().len(), 20);
    }

    #[test]
    fn all_methods_agree() {
        let dataset = PreparedDataset::new(store(60));
        let queries = store(20);
        let mut reference: Option<Vec<MatchRecord>> = None;
        for method in all_methods() {
            let engine = SearchEngine::build(&dataset, method, device()).unwrap();
            let (matches, report) = engine.search(&queries, 3.0, 20_000).unwrap();
            assert_eq!(report.matches as usize, matches.len(), "{}", method.name());
            match &reference {
                None => reference = Some(matches),
                Some(r) => assert_eq!(&matches, r, "{} disagrees with CPU-RTree", method.name()),
            }
        }
        assert!(!reference.unwrap().is_empty());
    }

    /// NaN, negative, infinite and past-the-domain thresholds, and query
    /// segments outside the numeric domain or with an inverted interval,
    /// are refused at every `TrajectoryIndex::search` entry point (every
    /// `GpuSearch` scheme, the CPU baseline, the sharded index); `d = 0`
    /// and `d = DOMAIN_BOUND` are valid queries.
    #[test]
    fn hostile_d_is_a_typed_error_at_every_entry_point() {
        let dataset = PreparedDataset::new(store(40));
        let queries = store(8);
        let mut engines: Vec<SearchEngine> = all_methods()
            .into_iter()
            .map(|m| SearchEngine::build(&dataset, m, device()).unwrap())
            .collect();
        let sharding = crate::sharding::ShardedIndexConfig::builder().shards(2).build().unwrap();
        engines.push(
            SearchEngine::build_sharded(
                &dataset,
                Method::GpuTemporal(TemporalIndexConfig { bins: 8 }),
                &DeviceConfig::test_tiny(),
                &sharding,
            )
            .unwrap(),
        );
        for engine in &engines {
            for d in [f64::NAN, -1.0, f64::INFINITY, f64::NEG_INFINITY, 2.0 * DOMAIN_BOUND] {
                let err = engine.search(&queries, d, 20_000).unwrap_err();
                assert!(
                    matches!(err, TdtsError::InvalidConfig(_)),
                    "{} at d = {d}: {err}",
                    engine.method().name()
                );
            }
            engine.search(&queries, 0.0, 20_000).unwrap();
            engine.search(&queries, DOMAIN_BOUND, 20_000).unwrap();
            for poison in hostile_segments(*queries.get(3)) {
                let mut poisoned = queries.segments().to_vec();
                poisoned[3] = poison;
                let err = engine.search(&poisoned.into_iter().collect(), 2.0, 20_000).unwrap_err();
                assert!(
                    matches!(err, TdtsError::InvalidConfig(_)),
                    "{} at {poison:?}: {err}",
                    engine.method().name()
                );
            }
        }
    }

    /// `valid` made hostile, one variant per way the methods used to
    /// disagree: a NaN coordinate, an infinite coordinate, a NaN timestamp
    /// (which also defeats the `t_start <= t_end` ordering), a finite but
    /// inverted interval, and finite endpoints whose velocity squared
    /// overflows (x from −2e154 to 2e154 in one time unit), which the
    /// solver turned into NaN roots and a match over the whole overlap.
    fn hostile_segments(valid: Segment) -> [Segment; 5] {
        let mut hostile = [valid; 5];
        hostile[0].start.x = f64::NAN;
        hostile[1].end.x = f64::INFINITY;
        hostile[2].t_end = f64::NAN;
        hostile[3].t_end = valid.t_start - 1.0;
        hostile[4].start.x = -2e154;
        hostile[4].end.x = 2e154;
        hostile[4].t_end = valid.t_start + 1.0;
        hostile
    }

    /// One segment near the origin cluster, time-stamped so appends stay
    /// `t_start`-ordered.
    fn seg(i: u32, t: f64) -> Segment {
        Segment::new(
            Point3::new(i as f64 % 7.0, (i % 5) as f64, 0.0),
            Point3::new(i as f64 % 7.0 + 1.0, (i % 5) as f64 + 1.0, 1.0),
            t,
            t + 1.0,
            SegId(i),
            TrajId(i),
        )
    }

    #[test]
    fn streaming_matches_cold_rebuild_for_all_methods() {
        let base: SegmentStore = (0..40).map(|i| seg(i, (i as f64) * 0.2)).collect();
        let queries = store(12);
        for method in all_methods() {
            let dataset = PreparedDataset::new(base.clone());
            let mut warm = SearchEngine::build(&dataset, method, device()).unwrap();
            // Tick 1: append past the current time frontier.
            warm.ingest(&[seg(100, 9.0), seg(101, 9.1), seg(102, 9.5)]).unwrap();
            // Tick 2: expire the oldest prefix, then append again.
            warm.expire_before(2.0).unwrap();
            warm.ingest(&[seg(103, 10.0), seg(104, 10.2)]).unwrap();
            assert_eq!(warm.generation(), warm.store().generation(), "{}", method.name());

            // Cold oracle: rebuild from the warm engine's final store state.
            let cold_set = PreparedDataset::new(warm.store().clone());
            let cold = SearchEngine::build(&cold_set, method, device()).unwrap();
            for d in [0.8, 3.0] {
                let (got, _) = warm.search(&queries, d, 20_000).unwrap();
                let (want, _) = cold.search(&queries, d, 20_000).unwrap();
                assert_eq!(got, want, "{} at d={d}", method.name());
            }
        }
    }

    #[test]
    fn out_of_order_ingest_is_rejected() {
        let dataset = PreparedDataset::new(store(30));
        let mut engine = SearchEngine::build(
            &dataset,
            Method::GpuTemporal(TemporalIndexConfig { bins: 8 }),
            device(),
        )
        .unwrap();
        let generation = engine.store().generation();
        let in_order = seg(201, 99.0);
        let refused = [[seg(200, -5.0), in_order]]
            .into_iter()
            .chain(hostile_segments(seg(202, 99.5)).map(|hostile| [in_order, hostile]));
        for batch in refused {
            let err = engine.ingest(&batch).unwrap_err();
            assert!(matches!(err, TdtsError::InvalidConfig(_)), "{batch:?}: {err}");
            // The store must be untouched by the failed ingest.
            assert_eq!(engine.store().len(), 30, "{batch:?}");
            assert_eq!(engine.store().generation(), generation, "{batch:?}");
        }
        engine.ingest(&[in_order]).unwrap();
    }

    #[test]
    fn nan_expiry_cut_is_rejected() {
        let dataset = PreparedDataset::new(store(30));
        let method = Method::GpuTemporal(TemporalIndexConfig { bins: 8 });
        let mut engine = SearchEngine::build(&dataset, method, device()).unwrap();
        let generation = engine.store().generation();
        let err = engine.expire_before(f64::NAN).unwrap_err();
        assert!(matches!(err, TdtsError::InvalidConfig(_)), "{err}");
        assert_eq!(engine.store().len(), 30);
        assert_eq!(engine.store().generation(), generation);
        // The infinite cuts stay legal: nothing ends before -inf, everything
        // ends before +inf.
        engine.expire_before(f64::NEG_INFINITY).unwrap();
        assert_eq!(engine.store().len(), 30);
        engine.expire_before(f64::INFINITY).unwrap();
        assert_eq!(engine.store().len(), 0);
    }

    /// A valid segment far past the indexed span would grow the temporal
    /// directory without bound: the index refuses it with a typed error
    /// after the store took it, so the engine stops.
    #[test]
    fn far_future_ingest_is_a_typed_error_then_fail_stop() {
        let dataset = PreparedDataset::new(store(30));
        let method = Method::GpuTemporal(TemporalIndexConfig { bins: 10 });
        let mut engine = SearchEngine::build(&dataset, method, device()).unwrap();
        let err = engine.ingest(&[seg(100, 1e12)]).unwrap_err();
        assert!(matches!(err, TdtsError::Search(SearchError::InvalidConfig(_))), "{err}");
        assert_eq!(engine.search(&store(5), 2.0, 100).unwrap_err(), err);
        assert_eq!(engine.ingest(&[seg(101, 2e12)]).unwrap_err(), err);
        assert_eq!(engine.store().len(), 31);
    }

    #[test]
    fn empty_store_is_refused_by_every_method() {
        let dataset = PreparedDataset::new(SegmentStore::new());
        for method in all_methods() {
            let err = SearchEngine::build(&dataset, method, device()).err().unwrap();
            assert_eq!(err, TdtsError::Search(SearchError::EmptyDataset), "{}", method.name());
        }
    }

    /// An index refusal after the store absorbed the delta stops the
    /// engine: that call, later mutations and later searches all return
    /// the refusal, and no later mutation reaches the store.
    #[test]
    fn index_refusal_stops_the_engine() {
        let mut config = DeviceConfig::test_tiny();
        config.global_mem_bytes = 64 * 40 + 32 * 1024;
        let dataset = PreparedDataset::new(store(40));
        let method = Method::GpuTemporal(TemporalIndexConfig { bins: 8 });
        let mut engine =
            SearchEngine::build(&dataset, method, Device::new(config).unwrap()).unwrap();
        let tail: Vec<Segment> = (0..2_000).map(|i| seg(500 + i, 20.0 + i as f64 * 0.01)).collect();
        assert_eq!(engine.failed(), None);
        let err = engine.ingest(&tail).unwrap_err();
        assert!(matches!(err, TdtsError::Search(SearchError::OutOfDeviceMemory(_))), "{err}");
        assert_eq!(engine.failed(), Some(&err));
        assert_eq!(engine.store().len(), 2_040);
        assert_eq!(engine.search(&store(5), 2.0, 100).unwrap_err(), err);
        assert_eq!(engine.ingest(&[seg(9_000, 99.0)]).unwrap_err(), err);
        assert_eq!(engine.expire_before(f64::INFINITY).unwrap_err(), err);
        assert_eq!(engine.store().len(), 2_040);
    }

    #[test]
    fn sharded_engine_refuses_incremental_without_mutating_store() {
        let dataset = PreparedDataset::new(store(30));
        let sharding = crate::sharding::ShardedIndexConfig::builder().shards(2).build().unwrap();
        let mut engine = SearchEngine::build_sharded(
            &dataset,
            Method::GpuTemporal(TemporalIndexConfig { bins: 8 }),
            &DeviceConfig::test_tiny(),
            &sharding,
        )
        .unwrap();
        assert!(!engine.supports_incremental());
        assert_eq!(engine.sharded().map(ShardedIndex::requested_shards), Some(2));
        assert!(engine.device().is_none(), "each shard has its own device");
        let gen_before = engine.store().generation();
        let err = engine.ingest(&[seg(300, 99.0)]).unwrap_err();
        assert!(matches!(err, TdtsError::IncrementalUnsupported(_)));
        assert_eq!(engine.store().len(), 30);
        assert_eq!(engine.store().generation(), gen_before);
        let err = engine.expire_before(100.0).unwrap_err();
        assert!(matches!(err, TdtsError::IncrementalUnsupported(_)));
        assert_eq!(engine.store().len(), 30);
    }

    /// A CPU-RTree configuration the tree cannot be built with is a typed
    /// error from both engine constructors, as a bad GPU configuration is.
    #[test]
    fn bad_rtree_config_is_a_typed_error() {
        let dataset = PreparedDataset::new(store(30));
        let sharding = crate::sharding::ShardedIndexConfig::builder().shards(2).build().unwrap();
        for cfg in [
            RTreeConfig { segments_per_mbb: 0, ..RTreeConfig::default() },
            RTreeConfig { node_capacity: 1, ..RTreeConfig::default() },
        ] {
            let method = Method::CpuRTree(cfg);
            let err = SearchEngine::build(&dataset, method, device()).err().unwrap();
            assert!(matches!(err, TdtsError::InvalidConfig(_)), "{cfg:?}: {err}");
            let err = SearchEngine::build_sharded(
                &dataset,
                method,
                &DeviceConfig::test_tiny(),
                &sharding,
            )
            .err()
            .unwrap();
            assert!(matches!(err, TdtsError::InvalidConfig(_)), "{cfg:?} sharded: {err}");
        }
    }

    #[test]
    fn method_names() {
        assert_eq!(Method::CpuRTree(RTreeConfig::default()).name(), "CPU-RTree");
        assert_eq!(Method::GpuTemporal(TemporalIndexConfig::default()).name(), "GPUTemporal");
    }

    #[test]
    fn cpu_report_uses_host_phase() {
        let dataset = PreparedDataset::new(store(30));
        let engine =
            SearchEngine::build(&dataset, Method::CpuRTree(RTreeConfig::default()), device())
                .unwrap();
        let (_, report) = engine.search(&store(5), 2.0, 1_000).unwrap();
        assert!(report.response.get(Phase::HostCompute) > 0.0);
        assert_eq!(report.response.get(Phase::KernelExec), 0.0);
        assert_eq!(report.response.kernel_invocations, 0);
    }
}
