//! The `GPUTemporal` search driver (host side) and kernel (Algorithm 2).
//!
//! The kernel skeleton (candidate iteration → refinement → warp-stash
//! commit → redo) lives in [`tdts_kernels`]; this module contributes only
//! what is specific to the method: the host-computed schedule `S` of
//! contiguous candidate ranges, and the generators that walk it.

use crate::index::{TemporalIndex, TemporalIndexConfig};
use rayon::prelude::*;
use std::sync::Arc;
use std::time::Instant;
use tdts_geom::{MatchRecord, PreparedQuery, SegmentStore, StoreStats, TimeInterval};
use tdts_gpu_sim::{
    Device, DeviceBuffer, KernelShape, Lane, SearchError, SearchReport, Tile, Warp,
};
pub use tdts_kernels::SortedQueries;
use tdts_kernels::{
    finish_search, run_thread_per_query, run_warp_per_tile, CandidateGenerator, DeviceQueries,
    DeviceSegments, LaneWork, TileGenerator, SCHEDULE_INSTR,
};

/// The host-computed schedule `S`: one candidate entry range per (sorted)
/// query segment (§IV-B2).
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalSchedule {
    /// Half-open entry position ranges, one per query ( `(0, 0)` = none).
    pub ranges: Vec<[u32; 2]>,
    /// Sum of range lengths (scheduled candidate comparisons).
    pub total_candidates: u64,
}

impl TemporalSchedule {
    /// Compute the schedule for sorted queries. The paper does this on the
    /// host (a negligible portion of response time) because the incremental
    /// bin search does not parallelise across thread blocks; here the
    /// per-query range lookups are independent, so they fan out across host
    /// cores.
    pub fn build(index: &TemporalIndex, queries: &SortedQueries) -> TemporalSchedule {
        let ranges: Vec<[u32; 2]> = queries
            .segments
            .par_iter()
            .map(|q| {
                let r = index.candidate_range(q).unwrap_or((0, 0));
                [r.0, r.1]
            })
            .collect();
        let total_candidates = ranges.iter().map(|r| (r[1] - r[0]) as u64).sum();
        TemporalSchedule { ranges, total_candidates }
    }
}

/// Thread-per-query candidate generation: each thread reads its schedule
/// entry and refines the contiguous range with no indirection at all.
struct TemporalThreads<'a> {
    entries: &'a DeviceSegments,
    queries: &'a DeviceQueries,
    schedule: DeviceBuffer<[u32; 2]>,
    d: f64,
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
        stash: &mut tdts_gpu_sim::WarpStash<'_, MatchRecord>,
        _round: &(),
    ) -> LaneWork {
        let [lo, hi] = self.schedule.read(lane, qid as usize);
        lane.instr(SCHEDULE_INSTR);
        let q = PreparedQuery::new(&self.queries.read_segment(lane, qid as usize), self.d);
        let stage = |lane: &mut Lane, pos, interval| {
            stash.stage(lane, MatchRecord::new(qid, pos, interval))
        };
        let compared = self.entries.refine_range(std::slice::from_mut(lane), lo..hi, &q, stage);
        LaneWork { compared, scratch_bytes: 0 }
    }
}

/// Warp-per-tile decomposition: the host splits every scheduled range into
/// tiles of at most `tile_size` entries; the tile list replaces the
/// uploaded schedule `S` (each tile carries its own range).
struct TemporalTiles<'a> {
    entries: &'a DeviceSegments,
    queries: &'a DeviceQueries,
    schedule: &'a TemporalSchedule,
    d: f64,
}

impl TileGenerator for TemporalTiles<'_> {
    fn queries(&self) -> &DeviceQueries {
        self.queries
    }

    fn distance(&self) -> f64 {
        self.d
    }

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
        self.entries.refine_range(warp.lanes_mut(), tile.lo..tile.hi, q, on_hit)
    }
}

/// `GPUTemporal`: the complete search implementation (index + device state).
///
/// Constructing it sorts nothing and transfers the database *offline* (the
/// paper stores `D` and the index on the GPU before the timed search).
pub struct GpuTemporalSearch {
    device: Arc<Device>,
    index: TemporalIndex,
    generation: u64,
    dev_entries: DeviceSegments,
}

impl GpuTemporalSearch {
    /// Build the index over `store` (must be sorted by `t_start`) and place
    /// the database in device memory.
    pub fn new(
        device: Arc<Device>,
        store: &SegmentStore,
        config: TemporalIndexConfig,
    ) -> Result<GpuTemporalSearch, SearchError> {
        let stats = store.stats().ok_or(SearchError::EmptyDataset)?;
        GpuTemporalSearch::new_with_stats(device, store, &stats, config)
    }

    /// [`new`](GpuTemporalSearch::new) with the store's [`StoreStats`]
    /// supplied by the caller, sharing one stats scan across methods.
    pub fn new_with_stats(
        device: Arc<Device>,
        store: &SegmentStore,
        stats: &StoreStats,
        config: TemporalIndexConfig,
    ) -> Result<GpuTemporalSearch, SearchError> {
        let index = TemporalIndex::build_with_stats(store, stats, config)?;
        let dev_entries = DeviceSegments::alloc_store(&device, store)?;
        Ok(GpuTemporalSearch { device, index, generation: store.generation(), dev_entries })
    }

    /// The temporal index.
    pub fn index(&self) -> &TemporalIndex {
        &self.index
    }

    /// The device this search runs on.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// The store generation this index currently reflects.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Extend the bin directory over store entries `delta.from..` and grow
    /// the device-resident database in place (offline; appends must arrive
    /// time-ordered, continuing the store's global `t_start` order).
    pub fn ingest(
        &mut self,
        store: &SegmentStore,
        delta: &tdts_geom::AppendDelta,
    ) -> Result<(), SearchError> {
        self.index.append(store, delta.from)?;
        self.dev_entries.extend(&store.segments()[delta.from..])?;
        self.generation = delta.generation;
        Ok(())
    }

    /// Drop expired entries from the bin directory and the device-resident
    /// database.
    pub fn expire(
        &mut self,
        store: &SegmentStore,
        delta: &tdts_geom::ExpireDelta,
    ) -> Result<(), SearchError> {
        self.index.expire(store, delta)?;
        self.dev_entries.remove_positions(&delta.removed);
        self.generation = delta.generation;
        Ok(())
    }

    /// Run the distance threshold search for `queries` at distance `d`,
    /// with a result buffer of `result_capacity` records.
    ///
    /// Returns the canonical (sorted, deduplicated) result set and the
    /// search report. The search charges a ledger of its own
    /// ([`Device::for_search`]), so the report's response time covers exactly
    /// this search even while others run on the same index.
    pub fn search(
        &self,
        queries: &SegmentStore,
        d: f64,
        result_capacity: usize,
    ) -> Result<(Vec<MatchRecord>, SearchReport), SearchError> {
        self.search_shaped(queries, d, result_capacity, None)
    }

    /// [`GpuTemporalSearch::search`] under kernel `shape`; `None` is the
    /// device's configured [`KernelShape`]. The resident index and database
    /// are the same for both shapes.
    pub fn search_shaped(
        &self,
        queries: &SegmentStore,
        d: f64,
        result_capacity: usize,
        shape: Option<KernelShape>,
    ) -> Result<(Vec<MatchRecord>, SearchReport), SearchError> {
        let wall_start = Instant::now();
        let device = self.device.for_search();
        let shape = shape.unwrap_or(device.config().kernel_shape);
        let mut report = SearchReport::default();

        // Host: sort Q and compute the schedule S.
        let host_start = Instant::now();
        let sorted = SortedQueries::from_store(queries);
        let schedule = TemporalSchedule::build(&self.index, &sorted);
        device.charge_host(host_start.elapsed().as_secs_f64());

        if sorted.is_empty() {
            report.response = device.ledger();
            report.wall_seconds = wall_start.elapsed().as_secs_f64();
            return Ok((Vec::new(), report));
        }

        // Online transfers: Q and (thread-per-query only) S.
        let dev_queries = DeviceQueries::upload(&device, &sorted.segments)?;
        let (matches, comparisons) = if shape == KernelShape::WarpPerTile {
            let generator = TemporalTiles {
                entries: &self.dev_entries,
                queries: &dev_queries,
                schedule: &schedule,
                d,
            };
            run_warp_per_tile(&device, &generator, sorted.len(), result_capacity, &mut report)?
        } else {
            let generator = TemporalThreads {
                entries: &self.dev_entries,
                queries: &dev_queries,
                schedule: device.upload(schedule.ranges.clone())?,
                d,
            };
            run_thread_per_query(&device, &generator, sorted.len(), result_capacity, &mut report)?
        };
        Ok(finish_search(&device, matches, Some(&sorted), comparisons, report, wall_start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdts_geom::{dedup_matches, within_distance, Point3, SegId, Segment, TrajId};
    use tdts_gpu_sim::DeviceConfig;

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
