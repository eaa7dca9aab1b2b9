//! The traced run's probe rig: one directly constructed instance of every
//! layer, kept beside the system under test and called on each op's own
//! inputs *after* the op's timed call, each call wrapped in a span named
//! after the per-layer metric it produces.
//!
//! The rig exists only with `--trace 1`; the untraced run never builds it,
//! so end-to-end numbers and peak memory are the system's alone.

use std::hint::black_box;
use std::sync::Arc;

use tdts_core::{
    PreparedDataset, QueryBatch, SearchEngine, ShardedIndex, ShardedIndexConfig, TrajectoryIndex,
};
use tdts_geom::{
    dedup_matches, PartitionStrategy, Segment, SegmentColumns, SegmentStore, ShardedStore,
};
use tdts_gpu_sim::{Device, KernelShape};
use tdts_index_spatial::{Fsg, FsgConfig, GpuSpatialConfig, GpuSpatialSearch};
use tdts_index_spatiotemporal::GpuSpatioTemporalSearch;
use tdts_index_temporal::{GpuTemporalSearch, TemporalIndexConfig, TemporalSchedule};
use tdts_kernels::{DeviceSegments, SortedQueries};
use tdts_rtree::{RTree, RTreeConfig};

use crate::inputs::{
    device_config, spatiotemporal_config, Workload, BINS, D, RESULT_CAPACITY, SHARDS,
};
use crate::run::{Repeat, Work};
use crate::trace::Tracer;

pub struct Rig {
    workload: Workload,
    /// A private copy of the database the system under test holds; the
    /// stream workload advances it in lock-step with the service.
    store: SegmentStore,
    temporal: GpuTemporalSearch,
    spatiotemporal: GpuSpatioTemporalSearch,
    spatial: GpuSpatialSearch,
    rtree: RTree,
    /// Unsharded engine of the workload's method and kernel shape.
    engine: SearchEngine,
    /// The same method and shape over `SHARDS` temporal slabs.
    sharded: ShardedIndex,
    pub replication_factor: f64,
    /// Sums over every `probe` call (divide by `probes` for per-op values).
    pub probes: u64,
    pub fallback_queries: u64,
    pub shard_queries_routed: u64,
    pub shard_queries_skipped: u64,
    pub budget_redos: u64,
    pub duplicates_dropped: u64,
}

fn device(shape: KernelShape) -> Arc<Device> {
    Device::new(device_config(shape)).expect("valid device config")
}

fn build_sharded(workload: Workload, store: &SegmentStore) -> ShardedIndex {
    let store = Arc::new(store.clone());
    let stats = store.stats().expect("non-empty store");
    let config = ShardedIndexConfig::builder().shards(SHARDS).build().expect("valid shard config");
    ShardedIndex::build(workload.method(), &store, &stats, &workload.device(), &config)
        .expect("sharded probe index")
}

impl Rig {
    /// Build every probe instance over `store` (sorted by `t_start`), each
    /// constructor under its own span.
    pub fn build(tr: &mut Tracer, workload: Workload, store: SegmentStore) -> Rig {
        let root = tr.begin("rig.build");
        let stats = store.stats().expect("non-empty store");
        tr.time("geom.columns_transpose_s", || {
            black_box(SegmentColumns::from_segments(store.segments()));
        });
        let (parts, _) = tr.time("geom.partition_s", || {
            ShardedStore::partition(&store, &stats, SHARDS, PartitionStrategy::Temporal)
        });
        let (probe_device, _) = tr.time("gpu-sim.device_new_s", || device(KernelShape::default()));
        tr.time("kernels.upload_s", || {
            black_box(DeviceSegments::upload(&probe_device, store.segments()).expect("upload"));
        });
        let (temporal, _) = tr.time("index-temporal.build_s", || {
            GpuTemporalSearch::new_with_stats(
                device(KernelShape::ThreadPerQuery),
                &store,
                &stats,
                TemporalIndexConfig { bins: BINS },
            )
            .expect("temporal probe index")
        });
        let (spatiotemporal, _) = tr.time("index-spatiotemporal.build_s", || {
            GpuSpatioTemporalSearch::new_with_stats(
                device(KernelShape::WarpPerTile),
                &store,
                &stats,
                spatiotemporal_config(),
            )
            .expect("spatiotemporal probe index")
        });
        tr.time("index-spatial.fsg_build_s", || {
            black_box(Fsg::build_with_stats(&store, &stats, FsgConfig::default()).expect("fsg"));
        });
        let spatial = GpuSpatialSearch::new_with_stats(
            device(KernelShape::WarpPerTile),
            &store,
            &stats,
            GpuSpatialConfig::default(),
        )
        .expect("spatial probe index");
        let (rtree, _) = tr.time("rtree.build_s", || RTree::build(&store, RTreeConfig::default()));
        let dataset = PreparedDataset::new(store.clone());
        let (engine, _) = tr.time("core.engine_build_s", || {
            let device = Device::new(workload.device()).expect("valid device config");
            SearchEngine::build(&dataset, workload.method(), device).expect("probe engine")
        });
        let (sharded, _) = tr.time("core.sharded_build_s", || build_sharded(workload, &store));
        tr.end(root);
        Rig {
            workload,
            replication_factor: parts.replication_factor(),
            store,
            temporal,
            spatiotemporal,
            spatial,
            rtree,
            engine,
            sharded,
            probes: 0,
            fallback_queries: 0,
            shard_queries_routed: 0,
            shard_queries_skipped: 0,
            budget_redos: 0,
            duplicates_dropped: 0,
        }
    }

    /// Call every layer's query path on one op's `queries`. `key` names the
    /// input for the repeat tracker (the same key means the same queries).
    pub fn probe(
        &mut self,
        tr: &mut Tracer,
        queries: &SegmentStore,
        key: usize,
        repeat: &mut Repeat,
    ) {
        let root = tr.begin("probes");
        let (sorted, _) = tr.time("kernels.sort_queries_s", || SortedQueries::from_store(queries));
        tr.time("index-temporal.schedule_build_s", || {
            black_box(TemporalSchedule::build(self.temporal.index(), &sorted));
        });
        tr.time("index-temporal.search_s", || {
            black_box(self.temporal.search(queries, D, RESULT_CAPACITY).expect("temporal probe"));
        });
        tr.time("index-spatiotemporal.schedule_s", || {
            let index = self.spatiotemporal.index();
            black_box(sorted.segments.iter().map(|q| index.schedule_for(q, D).len()).max());
        });
        let (st, _) = tr.time("index-spatiotemporal.search_s", || {
            self.spatiotemporal.search(queries, D, RESULT_CAPACITY).expect("spatiotemporal probe")
        });
        self.fallback_queries += st.1.fallback_queries;
        tr.time("index-spatial.search_s", || {
            black_box(self.spatial.search(queries, D, RESULT_CAPACITY).expect("spatial probe"));
        });
        tr.time("rtree.search_s", || {
            black_box(self.rtree.search(&self.store, queries, D));
        });

        let ((mut matches, report), _) = tr.time("core.engine_search_s", || {
            self.engine.search(queries, D, RESULT_CAPACITY).expect("engine probe")
        });
        repeat.note(key + Repeat::RIG, Work::of(&report).simulated());
        if self.probes < 4 {
            // A second pass over the same queries, so even a workload
            // whose inputs never repeat reports a repeat spread.
            let (_, again) =
                self.engine.search(queries, D, RESULT_CAPACITY).expect("engine probe repeat");
            repeat.note(key + Repeat::RIG, Work::of(&again).simulated());
        }

        let dropped_before = self.sharded.duplicates_dropped();
        let (outcome, _) = tr.time("core.sharded_search_s", || {
            let batch = QueryBatch { queries, d: D, result_capacity: RESULT_CAPACITY };
            self.sharded.search(&batch).expect("sharded probe")
        });
        let routing = outcome.report.routing;
        self.shard_queries_routed += routing.shard_queries_routed;
        self.shard_queries_skipped += routing.shard_queries_skipped;
        self.budget_redos += routing.budget_redos;
        self.duplicates_dropped += self.sharded.duplicates_dropped() - dropped_before;

        // Two sorted runs back to back: the shape the shard merge dedups.
        let half = matches.len() / 2;
        matches.rotate_left(half);
        tr.time("geom.dedup_s", || dedup_matches(&mut matches));
        black_box(&matches);
        self.probes += 1;
        tr.end(root);
    }

    /// Apply one stream tick — the segments the service just ingested and
    /// the expiry cut it applied — to the private store and every probe
    /// instance, timing the store and index lifecycle calls.
    pub fn advance(&mut self, tr: &mut Tracer, new: &[Segment], cut: Option<f64>) {
        let root = tr.begin("lifecycle");
        let (delta, _) = tr.time("geom.append_s", || self.store.append(new));
        tr.time("index-temporal.append_s", || {
            self.temporal.ingest(&self.store, &delta).expect("temporal ingest");
        });
        tr.time("index-spatiotemporal.append_s", || {
            self.spatiotemporal.ingest(&self.store, &delta).expect("spatiotemporal ingest");
        });
        self.spatial.ingest(&self.store, &delta).expect("spatial ingest");
        self.engine.ingest(new).expect("engine ingest");
        if let Some(cut) = cut {
            let (expired, _) = tr.time("geom.expire_s", || self.store.expire_before(cut));
            tr.time("index-temporal.expire_s", || {
                self.temporal.expire(&self.store, &expired).expect("temporal expire");
            });
            tr.time("index-spatiotemporal.expire_s", || {
                self.spatiotemporal.expire(&self.store, &expired).expect("spatiotemporal expire");
            });
            self.spatial.expire(&self.store, &expired).expect("spatial expire");
            self.engine.expire_before(cut).expect("engine expire");
        }
        // The R-tree and the sharded index have no in-place lifecycle;
        // rebuild them, as the system itself would have to.
        self.rtree =
            tr.time("rtree.build_s", || RTree::build(&self.store, RTreeConfig::default())).0;
        self.sharded =
            tr.time("core.sharded_build_s", || build_sharded(self.workload, &self.store)).0;
        tr.end(root);
    }
}
