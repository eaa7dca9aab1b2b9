//! The `GPUTemporal` scheme (§IV-B, Algorithm 2).
//!
//! The driver ([`GpuSearch`]) and the kernel skeleton (candidate iteration →
//! refinement → warp-stash commit → redo) live in [`tdts_kernels`]; this
//! module contributes only what is specific to the method: the temporal
//! bin index, the host-computed schedule `S` of contiguous candidate
//! ranges, and the generators that walk it.

use crate::index::{TemporalIndex, TemporalIndexConfig};
use std::sync::Arc;
use tdts_geom::{
    ExpireDelta, MatchRecord, PreparedQuery, Segment, SegmentStore, StoreStats, TimeInterval,
};
use tdts_gpu_sim::{Device, DeviceBuffer, KernelShape, Lane, SearchError, Tile, Warp, WarpStash};
use tdts_kernels::{
    Batch, CandidateGenerator, GpuSearch, LaneWork, Scheme, TileGenerator, SCHEDULE_INSTR,
};

/// `GPUTemporal`: the temporal bin index and the device-resident database.
pub type GpuTemporalSearch = GpuSearch<TemporalScheme>;

/// The host-computed schedule `S`: one candidate entry range per (sorted)
/// query segment (§IV-B2).
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalSchedule {
    /// Half-open entry position ranges, one per query ( `(0, 0)` = none).
    pub ranges: Vec<[u32; 2]>,
}

impl TemporalSchedule {
    /// Compute the schedule for sorted queries. The paper does this on the
    /// host (a negligible portion of response time) because the incremental
    /// bin search does not parallelise across thread blocks. Each lookup is
    /// a pair of binary searches taking tens of nanoseconds, far less than
    /// starting host workers for them, so they run on the calling thread.
    pub fn build(index: &TemporalIndex, queries: &[Segment]) -> TemporalSchedule {
        let ranges = queries
            .iter()
            .map(|q| {
                let r = index.candidate_range(q).unwrap_or((0, 0));
                [r.0, r.1]
            })
            .collect();
        TemporalSchedule { ranges }
    }
}

/// The `GPUTemporal` [`Scheme`]: queries sorted by `t_start`, no device
/// arrays beside the entries, and the schedule `S` as the plan.
pub struct TemporalScheme;

impl Scheme for TemporalScheme {
    const NAME: &'static str = "GPUTemporal";
    const SORTS_QUERIES: bool = true;
    type Config = TemporalIndexConfig;
    type Index = TemporalIndex;
    type Plan = TemporalSchedule;
    type Threads<'a> = TemporalThreads<'a>;
    type Tiles<'a> = TemporalTiles<'a>;

    fn build(
        _device: &Arc<Device>,
        store: &SegmentStore,
        stats: &StoreStats,
        config: &TemporalIndexConfig,
    ) -> Result<TemporalIndex, SearchError> {
        TemporalIndex::build_with_stats(store, stats, *config)
    }

    fn ingest(
        index: &mut TemporalIndex,
        _device: &Arc<Device>,
        store: &SegmentStore,
        from: usize,
    ) -> Result<(), SearchError> {
        index.append(store, from)
    }

    fn expire(
        index: &mut TemporalIndex,
        _device: &Arc<Device>,
        store: &SegmentStore,
        delta: &ExpireDelta,
    ) -> Result<(), SearchError> {
        index.expire(store, delta)
    }

    fn plan(
        search: &GpuTemporalSearch,
        queries: &[Segment],
        _d: f64,
        _shape: KernelShape,
    ) -> TemporalSchedule {
        TemporalSchedule::build(search.index(), queries)
    }

    fn plan_entries(schedule: &TemporalSchedule) -> usize {
        schedule.ranges.len()
    }

    fn threads<'a>(
        batch: Batch<'a, Self>,
        schedule: &'a TemporalSchedule,
    ) -> Result<TemporalThreads<'a>, SearchError> {
        // Online transfer: the schedule (warp-per-tile tiles carry it).
        let schedule = batch.device.upload(schedule.ranges.clone())?;
        Ok(TemporalThreads { batch, schedule })
    }

    fn tiles<'a>(batch: Batch<'a, Self>, schedule: &'a TemporalSchedule) -> TemporalTiles<'a> {
        TemporalTiles { batch, schedule }
    }
}

/// Thread-per-query candidate generation: each thread reads its schedule
/// entry and refines the contiguous range with no indirection at all.
pub struct TemporalThreads<'a> {
    batch: Batch<'a, TemporalScheme>,
    schedule: DeviceBuffer<[u32; 2]>,
}

impl CandidateGenerator for TemporalThreads<'_> {
    type Round = ();

    fn begin_round(&self, _batch_len: usize) -> Result<(), SearchError> {
        Ok(())
    }

    fn run_query(
        &self,
        lane: &mut Lane,
        qid: u32,
        stash: &mut WarpStash<'_, MatchRecord>,
        _round: &(),
    ) -> LaneWork {
        let [lo, hi] = self.schedule.read(lane, qid as usize);
        lane.instr(SCHEDULE_INSTR);
        let batch = &self.batch;
        let q = PreparedQuery::new(&batch.queries.read_segment(lane, qid as usize), batch.d);
        let stage = |lane: &mut Lane, pos, interval| {
            stash.stage(lane, MatchRecord::new(qid, pos, interval))
        };
        let entries = batch.search.entries();
        let compared = entries.refine_range(std::slice::from_mut(lane), lo..hi, &q, stage);
        LaneWork { compared, scratch_bytes: 0 }
    }
}

/// Warp-per-tile decomposition: the host splits every scheduled range into
/// tiles of at most `tile_size` entries; the tile list replaces the
/// uploaded schedule `S` (each tile carries its own range).
pub struct TemporalTiles<'a> {
    batch: Batch<'a, TemporalScheme>,
    schedule: &'a TemporalSchedule,
}

impl TileGenerator for TemporalTiles<'_> {
    fn push_tiles(&self, tiles: &mut Vec<Tile>, qid: u32, tile_size: usize) {
        let r = self.schedule.ranges[qid as usize];
        Tile::split_into(tiles, qid, r[0], r[1], 0, tile_size);
    }

    fn refine_tile(
        &self,
        warp: &mut Warp,
        tile: &Tile,
        q: &PreparedQuery,
        on_hit: impl FnMut(&mut Lane, u32, TimeInterval),
    ) -> u64 {
        self.batch.search.entries().refine_range(warp.lanes_mut(), tile.lo..tile.hi, q, on_hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdts_geom::{dedup_matches, within_distance, Point3, SegId, Segment, TrajId};
    use tdts_gpu_sim::DeviceConfig;
    use tdts_kernels::SortedQueries;

    fn seg(x: f64, t0: f64, id: u32) -> Segment {
        Segment::new(
            Point3::new(x, 0.0, 0.0),
            Point3::new(x + 1.0, 0.0, 0.0),
            t0,
            t0 + 1.0,
            SegId(id),
            TrajId(id),
        )
    }

    fn sorted_store(n: usize) -> SegmentStore {
        (0..n).map(|i| seg(i as f64 * 3.0, i as f64 * 0.5, i as u32)).collect()
    }

    fn brute(store: &SegmentStore, queries: &SegmentStore, d: f64) -> Vec<MatchRecord> {
        let mut out = Vec::new();
        for (qi, q) in queries.iter().enumerate() {
            for (ei, e) in store.iter().enumerate() {
                if let Some(iv) = within_distance(q, e, d) {
                    out.push(MatchRecord::new(qi as u32, ei as u32, iv));
                }
            }
        }
        dedup_matches(&mut out);
        out
    }

    fn device() -> Arc<Device> {
        Device::new(DeviceConfig::test_tiny()).unwrap()
    }

    #[test]
    fn sorted_queries_roundtrip() {
        let mut store = SegmentStore::new();
        store.push(seg(0.0, 5.0, 0));
        store.push(seg(0.0, 1.0, 1));
        store.push(seg(0.0, 3.0, 2));
        let sq = SortedQueries::from_store(&store);
        assert_eq!(sq.original_pos, vec![1, 2, 0]);
        let mut ms = vec![MatchRecord::new(0, 9, tdts_geom::TimeInterval::new(0.0, 1.0))];
        sq.unpermute(&mut ms);
        assert_eq!(ms[0].query, 1);
    }

    #[test]
    fn matches_brute_force() {
        let store = sorted_store(60);
        let queries: SegmentStore =
            (0..20).map(|i| seg(i as f64 * 7.0 + 0.3, i as f64 * 1.3, 100 + i as u32)).collect();
        let search =
            GpuTemporalSearch::new(device(), &store, TemporalIndexConfig { bins: 8 }).unwrap();
        for d in [0.5, 2.0, 10.0] {
            let (got, report) = search.search(&queries, d, 10_000).unwrap();
            let expect = brute(&store, &queries, d);
            assert_eq!(got, expect, "d = {d}");
            assert_eq!(report.matches as usize, got.len());
            assert!(report.comparisons >= report.matches);
            assert_eq!(report.redo_rounds, 0);
            assert!(report.response.total() > 0.0);
        }
    }

    #[test]
    fn tiny_result_buffer_triggers_redo_but_same_results() {
        let store = sorted_store(40);
        let queries = sorted_store(40); // queries = entries → many matches
        let search =
            GpuTemporalSearch::new(device(), &store, TemporalIndexConfig { bins: 4 }).unwrap();
        let (full, _) = search.search(&queries, 5.0, 20_000).unwrap();
        assert!(!full.is_empty());
        // Small-but-sufficient-for-one-query buffer: forces redo rounds.
        let (constrained, report) = search.search(&queries, 5.0, full.len().max(4) / 4).unwrap();
        assert_eq!(constrained, full);
        assert!(report.redo_rounds > 0, "expected redo rounds");
        assert!(report.response.kernel_invocations > 1);
    }

    #[test]
    fn impossible_result_capacity_errors() {
        let store = sorted_store(10);
        let queries = sorted_store(10);
        let search =
            GpuTemporalSearch::new(device(), &store, TemporalIndexConfig { bins: 2 }).unwrap();
        // Capacity 0: nothing can ever be stored.
        let err = search.search(&queries, 5.0, 0).unwrap_err();
        assert!(matches!(err, SearchError::ResultCapacityTooSmall { .. }));
    }

    #[test]
    fn empty_query_set() {
        let store = sorted_store(5);
        let search =
            GpuTemporalSearch::new(device(), &store, TemporalIndexConfig { bins: 2 }).unwrap();
        let (m, report) = search.search(&SegmentStore::new(), 1.0, 100).unwrap();
        assert!(m.is_empty());
        assert_eq!(report.matches, 0);
    }

    fn wpt_device() -> Arc<Device> {
        let mut c = DeviceConfig::test_tiny();
        c.kernel_shape = tdts_gpu_sim::KernelShape::WarpPerTile;
        Device::new(c).unwrap()
    }

    #[test]
    fn warp_per_tile_matches_thread_per_query() {
        let store = sorted_store(60);
        let queries: SegmentStore =
            (0..20).map(|i| seg(i as f64 * 7.0 + 0.3, i as f64 * 1.3, 100 + i as u32)).collect();
        let tpq =
            GpuTemporalSearch::new(device(), &store, TemporalIndexConfig { bins: 8 }).unwrap();
        let wpt =
            GpuTemporalSearch::new(wpt_device(), &store, TemporalIndexConfig { bins: 8 }).unwrap();
        for d in [0.5, 2.0, 10.0] {
            let (a, ra) = tpq.search(&queries, d, 10_000).unwrap();
            let (b, rb) = wpt.search(&queries, d, 10_000).unwrap();
            assert_eq!(a, b, "d = {d}");
            assert_eq!(ra.comparisons, rb.comparisons, "same candidates refined");
            assert_eq!(ra.load.tiles_dispatched, 0);
            assert!(rb.load.tiles_dispatched > 0);
            assert!(rb.load.queue_atomics > rb.load.tiles_dispatched);
        }
    }

    #[test]
    fn warp_per_tile_redo_preserves_results() {
        let store = sorted_store(40);
        let queries = sorted_store(40);
        let search =
            GpuTemporalSearch::new(wpt_device(), &store, TemporalIndexConfig { bins: 4 }).unwrap();
        let (full, _) = search.search(&queries, 5.0, 20_000).unwrap();
        assert!(!full.is_empty());
        let (constrained, report) = search.search(&queries, 5.0, full.len().max(4) / 4).unwrap();
        assert_eq!(constrained, full);
        assert!(report.redo_rounds > 0, "expected redo rounds");
        let err = search.search(&queries, 5.0, 0).unwrap_err();
        assert!(matches!(err, SearchError::ResultCapacityTooSmall { .. }));
    }

    #[test]
    fn ingest_and_expire_match_cold_rebuild() {
        for make_dev in [device as fn() -> Arc<Device>, wpt_device as fn() -> Arc<Device>] {
            let mut store = sorted_store(40);
            let queries: SegmentStore = (0..15)
                .map(|i| seg(i as f64 * 6.0 + 0.2, i as f64 * 1.7, 300 + i as u32))
                .collect();
            let cfg = TemporalIndexConfig { bins: 6 };
            let mut search = GpuTemporalSearch::new(make_dev(), &store, cfg).unwrap();
            // Three time-ordered ticks past the current extent.
            for tick in 0..3u32 {
                let t0 = 20.0 + tick as f64 * 2.0;
                let delta = store.append(&[
                    seg(tick as f64 * 4.0, t0, 700 + tick),
                    seg(50.0, t0 + 1.0, 800 + tick),
                ]);
                search.ingest(&store, &delta).unwrap();
            }
            let exp = store.expire_before(5.0);
            assert!(!exp.removed.is_empty());
            search.expire(&store, &exp).unwrap();

            let cold = GpuTemporalSearch::new(make_dev(), &store, cfg).unwrap();
            for d in [0.5, 3.0, 12.0] {
                let (warm, _) = search.search(&queries, d, 20_000).unwrap();
                let (want, _) = cold.search(&queries, d, 20_000).unwrap();
                assert_eq!(warm, want, "d = {d}");
                assert_eq!(warm, brute(&store, &queries, d), "d = {d}");
            }
        }
    }

    #[test]
    fn response_time_independent_of_d() {
        // The defining property of GPUTemporal: candidates are selected
        // purely temporally, so simulated comparisons don't change with d.
        let store = sorted_store(100);
        let queries = sorted_store(30);
        let search =
            GpuTemporalSearch::new(device(), &store, TemporalIndexConfig { bins: 16 }).unwrap();
        let (_, small_d) = search.search(&queries, 0.01, 20_000).unwrap();
        let (_, large_d) = search.search(&queries, 50.0, 20_000).unwrap();
        assert_eq!(small_d.comparisons, large_d.comparisons);
    }
}
