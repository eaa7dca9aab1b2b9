//! The `GPUSpatial` search driver and kernel (Algorithm 1).
//!
//! The kernel skeleton (candidate iteration → refinement → warp-stash
//! commit → redo) lives in [`tdts_kernels`]; this module contributes the
//! FSG-specific candidate generation: the device-side `getCandidates` walk
//! over rasterised grid cells into the per-query candidate buffer `U_k`
//! (thread-per-query), or the host-side rasterisation into lookup-range
//! tiles with a fused gather+refine kernel (warp-per-tile).

use crate::fsg::{Fsg, FsgConfig};
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tdts_geom::{MatchRecord, PreparedQuery, SegmentStore, StoreStats, TimeInterval};
use tdts_gpu_sim::{
    Device, DeviceBuffer, KernelShape, Lane, PartitionedScratch, SearchError, SearchReport, Tile,
    Warp, WarpStash,
};
use tdts_kernels::{
    finish_search, lane_share, run_thread_per_query, run_warp_per_tile, CandidateGenerator,
    DeviceQueries, DeviceSegments, LaneWork, TileGenerator,
};

/// `GPUSpatial` parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuSpatialConfig {
    /// Grid resolution.
    pub fsg: FsgConfig,
    /// Total candidate-buffer budget `s` in entries; each query gets
    /// `s / |Q|` slots (`U_k`), growing as re-invocations shrink the batch.
    pub total_scratch: usize,
}

impl Default for GpuSpatialConfig {
    fn default() -> Self {
        GpuSpatialConfig { fsg: FsgConfig::default(), total_scratch: 2_000_000 }
    }
}

/// `GPUSpatial`: FSG index + device-resident arrays + search driver.
pub struct GpuSpatialSearch {
    device: Arc<Device>,
    fsg: Fsg,
    config: GpuSpatialConfig,
    generation: u64,
    dev_entries: DeviceSegments,
    /// `G`: sorted linearised coordinates of non-empty cells.
    dev_cell_ids: DeviceBuffer<u64>,
    /// Per-cell half-open ranges into the lookup array.
    dev_cell_ranges: DeviceBuffer<[u32; 2]>,
    /// `A`: entry positions grouped by cell.
    dev_lookup: DeviceBuffer<u32>,
}

impl GpuSpatialSearch {
    /// Build the FSG over `store` (any order — the index is purely spatial)
    /// and place the database and index in device memory (offline).
    pub fn new(
        device: Arc<Device>,
        store: &SegmentStore,
        config: GpuSpatialConfig,
    ) -> Result<GpuSpatialSearch, SearchError> {
        let stats = store.stats().ok_or(SearchError::EmptyDataset)?;
        GpuSpatialSearch::new_with_stats(device, store, &stats, config)
    }

    /// [`new`](GpuSpatialSearch::new) with the store's [`StoreStats`]
    /// supplied by the caller, sharing one stats scan across methods.
    pub fn new_with_stats(
        device: Arc<Device>,
        store: &SegmentStore,
        stats: &StoreStats,
        config: GpuSpatialConfig,
    ) -> Result<GpuSpatialSearch, SearchError> {
        let fsg = Fsg::build_with_stats(store, stats, config.fsg)?;
        let dev_entries = DeviceSegments::alloc_store(&device, store)?;
        let dev_cell_ids = device.alloc_from_host(fsg.cell_ids.clone())?;
        let dev_cell_ranges = device.alloc_from_host(fsg.cell_ranges.clone())?;
        let dev_lookup = device.alloc_from_host(fsg.lookup.clone())?;
        Ok(GpuSpatialSearch {
            device,
            fsg,
            config,
            generation: store.generation(),
            dev_entries,
            dev_cell_ids,
            dev_cell_ranges,
            dev_lookup,
        })
    }

    /// The grid.
    pub fn fsg(&self) -> &Fsg {
        &self.fsg
    }

    /// The device this search runs on.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// The store generation this index currently reflects.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Fold store entries `delta.from..` into the grid, extend the
    /// device-resident database in place and re-place the grid arrays
    /// (offline — no PCIe transfer is charged).
    pub fn ingest(
        &mut self,
        store: &SegmentStore,
        delta: &tdts_geom::AppendDelta,
    ) -> Result<(), SearchError> {
        self.fsg.append(store, delta.from)?;
        self.dev_entries.extend(&store.segments()[delta.from..])?;
        self.place_grid()?;
        self.generation = delta.generation;
        Ok(())
    }

    /// Drop expired entries from the database and the grid.
    pub fn expire(
        &mut self,
        store: &SegmentStore,
        delta: &tdts_geom::ExpireDelta,
    ) -> Result<(), SearchError> {
        let _ = store;
        self.fsg.expire(delta)?;
        self.dev_entries.remove_positions(&delta.removed);
        self.place_grid()?;
        self.generation = delta.generation;
        Ok(())
    }

    /// Re-place the grid triple in device memory after a host-side update.
    fn place_grid(&mut self) -> Result<(), SearchError> {
        self.dev_cell_ids = self.device.alloc_from_host(self.fsg.cell_ids.clone())?;
        self.dev_cell_ranges = self.device.alloc_from_host(self.fsg.cell_ranges.clone())?;
        self.dev_lookup = self.device.alloc_from_host(self.fsg.lookup.clone())?;
        Ok(())
    }

    /// Device-side binary search of cell `h` in `G`, charging one global
    /// read per probe (the paper's `O(log |G|)` step).
    fn find_cell_device(&self, lane: &mut Lane, h: u64) -> Option<usize> {
        let cell_ids = &self.dev_cell_ids;
        let n = cell_ids.len();
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let v = cell_ids.read(lane, mid);
            lane.instr(2);
            match v.cmp(&h) {
                std::cmp::Ordering::Equal => return Some(mid),
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        None
    }

    /// Run the distance threshold search. Queries are *not* sorted (§IV-A2:
    /// sorting by one spatial dimension would not help 3-D data), so results
    /// already refer to the caller's ordering.
    pub fn search(
        &self,
        queries: &SegmentStore,
        d: f64,
        result_capacity: usize,
    ) -> Result<(Vec<MatchRecord>, SearchReport), SearchError> {
        self.search_shaped(queries, d, result_capacity, None)
    }

    /// [`GpuSpatialSearch::search`] under kernel `shape`; `None` is
    /// the device's configured [`KernelShape`]. The resident index and
    /// database are the same for both shapes.
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

        if queries.is_empty() {
            report.response = device.ledger();
            report.wall_seconds = wall_start.elapsed().as_secs_f64();
            return Ok((Vec::new(), report));
        }

        // Online transfer: the query set.
        let dev_queries = DeviceQueries::upload(&device, queries.segments())?;
        let (matches, comparisons) = if shape == KernelShape::WarpPerTile {
            // Host getCandidates scheduling, computed once and reused
            // across redo rounds (d is fixed for the whole search).
            let host_start = Instant::now();
            let ranges: Vec<Vec<[u32; 2]>> = queries
                .segments()
                .par_iter()
                .map(|q| {
                    let search_box = q.mbb().inflate(d);
                    let mut rs = Vec::new();
                    if !self.fsg.outside(&search_box) {
                        for (x, y, z) in self.fsg.rasterise(&search_box).iter() {
                            if let Some(ci) = self.fsg.find_cell(self.fsg.linear(x, y, z)) {
                                let r = self.fsg.cell_ranges[ci];
                                if r[0] < r[1] {
                                    rs.push(r);
                                }
                            }
                        }
                    }
                    rs
                })
                .collect();
            device.charge_host(host_start.elapsed().as_secs_f64());

            let generator =
                SpatialTiles { search: self, queries: &dev_queries, ranges: &ranges, d };
            run_warp_per_tile(&device, &generator, queries.len(), result_capacity, &mut report)?
        } else {
            let generator = SpatialThreads { search: self, queries: &dev_queries, d };
            run_thread_per_query(&device, &generator, queries.len(), result_capacity, &mut report)?
        };

        // No query sorting → no unpermute; the host dedup collapses pairs an
        // entry rasterised into several cells reported more than once.
        Ok(finish_search(&device, matches, None, comparisons, report, wall_start))
    }
}

/// Per-round device state of the thread-per-query mapping: the candidate
/// buffers `U_k` (the budget `s` split across the live batch) and the
/// sticky overflow flag that turns a stuck redo into
/// [`SearchError::ScratchCapacityTooSmall`].
struct SpatialRound {
    scratch: PartitionedScratch<u32>,
    overflow: AtomicBool,
}

/// Thread-per-query candidate generation: device-side `getCandidates` into
/// `U_k`, then refinement over the gathered positions.
struct SpatialThreads<'a> {
    search: &'a GpuSpatialSearch,
    queries: &'a DeviceQueries,
    d: f64,
}

impl CandidateGenerator for SpatialThreads<'_> {
    type Round = SpatialRound;

    fn begin_round(&self, batch_len: usize) -> Result<SpatialRound, SearchError> {
        // Candidate buffers: the budget `s` split across this batch.
        let per_thread = (self.search.config.total_scratch / batch_len).max(1);
        Ok(SpatialRound {
            scratch: self.search.device.alloc_scratch::<u32>(batch_len, per_thread)?,
            overflow: AtomicBool::new(false),
        })
    }

    fn run_query(
        &self,
        lane: &mut Lane,
        qid: u32,
        stash: &mut WarpStash<'_, MatchRecord>,
        round: &SpatialRound,
    ) -> LaneWork {
        let q = self.queries.read_segment(lane, qid as usize);
        lane.instr(12); // MBB + inflation + cell-range setup

        // getCandidates: rasterise the inflated MBB and gather entry
        // positions into U_k, one probe of `G` per cell.
        let mut uk = round.scratch.take_partition(lane.global_id);
        let search_box = q.mbb().inflate(self.d);
        let mut overflow = false;
        if !self.search.fsg.outside(&search_box) {
            let range = self.search.fsg.rasterise(&search_box);
            'cells: for (x, y, z) in range.iter() {
                let h = self.search.fsg.linear(x, y, z);
                lane.instr(4);
                if let Some(ci) = self.search.find_cell_device(lane, h) {
                    let r = self.search.dev_cell_ranges.read(lane, ci);
                    for ai in r[0]..r[1] {
                        let entry_pos = self.search.dev_lookup.read(lane, ai as usize);
                        lane.instr(1);
                        if !uk.push(lane, entry_pos) {
                            overflow = true;
                            break 'cells;
                        }
                    }
                }
            }
        }
        let mut compared = 0u64;
        if overflow {
            // Buffer exceeded: abandon; host will re-invoke with a larger
            // per-query buffer (lines 10–12 of Algorithm 1).
            round.overflow.store(true, Ordering::Relaxed);
            stash.mark_dropped(lane);
        } else {
            // Refinement over the candidate set (duplicates included).
            let q = PreparedQuery::new(&q, self.d);
            let positions = uk.read_all(lane);
            compared = self.search.dev_entries.refine_positions(
                std::slice::from_mut(lane),
                positions,
                &q,
                |lane, pos, interval| stash.stage(lane, MatchRecord::new(qid, pos, interval)),
            );
        }
        LaneWork { compared, scratch_bytes: uk.pending_write_bytes() }
    }

    fn end_warp(&self, warp: &mut Warp, _round: &SpatialRound, scratch_bytes: u64) {
        // Flush the staged U_k chunks as coalesced traffic before the
        // result commit.
        warp.gmem_write(scratch_bytes);
    }

    fn stuck_error(&self, round: &SpatialRound, result_capacity: usize) -> SearchError {
        // A single query alone cannot complete: the batch was 1, so its
        // candidate buffer was the entire budget `s`.
        if round.overflow.load(Ordering::Relaxed) {
            SearchError::ScratchCapacityTooSmall { capacity: self.search.config.total_scratch }
        } else {
            SearchError::ResultCapacityTooSmall { capacity: result_capacity }
        }
    }
}

/// Warp-per-tile decomposition (`getCandidates` moved to the host): each
/// query's rasterised lookup ranges are cut into tiles and the kernel
/// *fuses* gather and refine — a lane reads `A[i]`, loads the entry, and
/// compares — so the per-query candidate buffer `U_k` disappears along with
/// its overflow path: warp-per-tile `GPUSpatial` can never return
/// [`SearchError::ScratchCapacityTooSmall`].
struct SpatialTiles<'a> {
    search: &'a GpuSpatialSearch,
    queries: &'a DeviceQueries,
    ranges: &'a [Vec<[u32; 2]>],
    d: f64,
}

impl TileGenerator for SpatialTiles<'_> {
    fn queries(&self) -> &DeviceQueries {
        self.queries
    }

    fn distance(&self) -> f64 {
        self.d
    }

    fn push_tiles(&self, tiles: &mut Vec<Tile>, qid: u32, tile_size: usize) {
        for r in &self.ranges[qid as usize] {
            Tile::split_into(tiles, qid, r[0], r[1], 0, tile_size);
        }
    }

    fn tile_setup_instr(&self) -> u64 {
        12 // MBB + inflation + tile setup
    }

    fn refine_tile(
        &self,
        warp: &mut Warp,
        tile: &Tile,
        q: &PreparedQuery,
        on_hit: impl FnMut(&mut Lane, u32, TimeInterval),
    ) -> u64 {
        // Fused gather + refine through A, one address instruction per id:
        // each lane's share, in closed form.
        let lanes = warp.lanes_mut();
        let compared = self.search.dev_entries.refine_gather(
            lanes,
            &self.search.dev_lookup,
            tile.lo..tile.hi,
            q,
            on_hit,
        );
        let w = lanes.len();
        for (l, lane) in lanes.iter_mut().enumerate() {
            lane.instr(lane_share(compared, l, w));
        }
        compared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdts_geom::{dedup_matches, within_distance, Point3, SegId, Segment, TrajId};
    use tdts_gpu_sim::DeviceConfig;

    fn seg(x: f64, y: f64, t0: f64, id: u32) -> Segment {
        Segment::new(
            Point3::new(x, y, 0.0),
            Point3::new(x + 1.0, y + 0.5, 0.0),
            t0,
            t0 + 1.0,
            SegId(id),
            TrajId(id),
        )
    }

    fn grid_store(n_side: usize) -> SegmentStore {
        let mut s = SegmentStore::new();
        let mut id = 0u32;
        for i in 0..n_side {
            for j in 0..n_side {
                s.push(seg(i as f64 * 5.0, j as f64 * 5.0, (i + j) as f64 * 0.1, id));
                id += 1;
            }
        }
        s
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

    fn cfg(cells: usize, scratch: usize) -> GpuSpatialConfig {
        GpuSpatialConfig { fsg: FsgConfig { cells_per_dim: cells }, total_scratch: scratch }
    }

    #[test]
    fn matches_brute_force() {
        let store = grid_store(8);
        let queries: SegmentStore =
            (0..12).map(|i| seg(i as f64 * 3.3, i as f64 * 2.7, i as f64 * 0.15, i)).collect();
        let search = GpuSpatialSearch::new(device(), &store, cfg(6, 100_000)).unwrap();
        for d in [0.5, 3.0, 12.0] {
            let (got, report) = search.search(&queries, d, 20_000).unwrap();
            let expect = brute(&store, &queries, d);
            assert_eq!(got, expect, "d = {d}");
            assert!(report.comparisons >= report.matches);
        }
    }

    #[test]
    fn temporal_misses_are_filtered_by_refinement() {
        // Same place, disjoint times: FSG (spatial only) produces the
        // candidate, refinement must reject it.
        let mut store = SegmentStore::new();
        store.push(seg(0.0, 0.0, 0.0, 0));
        let mut queries = SegmentStore::new();
        queries.push(seg(0.0, 0.0, 100.0, 1));
        let search = GpuSpatialSearch::new(device(), &store, cfg(4, 1_000)).unwrap();
        let (got, report) = search.search(&queries, 10.0, 1_000).unwrap();
        assert!(got.is_empty());
        assert!(report.comparisons >= 1, "candidate must have been compared");
    }

    #[test]
    fn scratch_overflow_triggers_reinvocation() {
        let store = grid_store(8); // 64 entries
        let queries = grid_store(4); // 16 queries, co-located with entries
                                     // Scratch so small that the first round (16 threads) overflows but a
                                     // later round with fewer queries succeeds: 64 entries all in range at
                                     // large d means up to 64+ candidates per query.
        let search = GpuSpatialSearch::new(device(), &store, cfg(4, 256)).unwrap();
        let (got, report) = search.search(&queries, 50.0, 10_000).unwrap();
        let expect = brute(&store, &queries, 50.0);
        assert_eq!(got, expect);
        assert!(report.redo_rounds > 0, "expected re-invocation");
        assert!(report.response.kernel_invocations > 1);
    }

    #[test]
    fn impossible_scratch_errors() {
        let store = grid_store(6);
        let queries = grid_store(2);
        // One query alone needs more candidates than the whole budget.
        let search = GpuSpatialSearch::new(device(), &store, cfg(3, 4)).unwrap();
        let err = search.search(&queries, 100.0, 10_000).unwrap_err();
        assert!(matches!(err, SearchError::ScratchCapacityTooSmall { .. }), "got {err:?}");
    }

    #[test]
    fn result_overflow_redo_produces_same_results() {
        let store = grid_store(6);
        let queries = grid_store(6);
        let search = GpuSpatialSearch::new(device(), &store, cfg(4, 100_000)).unwrap();
        let (full, _) = search.search(&queries, 10.0, 20_000).unwrap();
        assert!(!full.is_empty());
        let (constrained, report) = search.search(&queries, 10.0, (full.len() / 3).max(2)).unwrap();
        assert_eq!(constrained, full);
        assert!(report.redo_rounds > 0);
    }

    fn wpt_device() -> Arc<Device> {
        let mut c = DeviceConfig::test_tiny();
        c.kernel_shape = KernelShape::WarpPerTile;
        Device::new(c).unwrap()
    }

    #[test]
    fn warp_per_tile_matches_thread_per_query() {
        let store = grid_store(8);
        let queries: SegmentStore =
            (0..12).map(|i| seg(i as f64 * 3.3, i as f64 * 2.7, i as f64 * 0.15, i)).collect();
        let tpq = GpuSpatialSearch::new(device(), &store, cfg(6, 100_000)).unwrap();
        let wpt = GpuSpatialSearch::new(wpt_device(), &store, cfg(6, 100_000)).unwrap();
        for d in [0.5, 3.0, 12.0] {
            let (a, ra) = tpq.search(&queries, d, 20_000).unwrap();
            let (b, rb) = wpt.search(&queries, d, 20_000).unwrap();
            assert_eq!(a, b, "d = {d}");
            assert_eq!(ra.comparisons, rb.comparisons, "same candidates refined at d = {d}");
        }
    }

    #[test]
    fn warp_per_tile_never_hits_scratch_limits() {
        // The fused kernel has no U_k buffer: a scratch budget that forces
        // the static mapping into ScratchCapacityTooSmall is simply ignored.
        let store = grid_store(6);
        let queries = grid_store(2);
        let tpq = GpuSpatialSearch::new(device(), &store, cfg(3, 4)).unwrap();
        let err = tpq.search(&queries, 100.0, 10_000).unwrap_err();
        assert!(matches!(err, SearchError::ScratchCapacityTooSmall { .. }));
        let wpt = GpuSpatialSearch::new(wpt_device(), &store, cfg(3, 4)).unwrap();
        let (got, _) = wpt.search(&queries, 100.0, 10_000).unwrap();
        assert_eq!(got, brute(&store, &queries, 100.0));
    }

    #[test]
    fn warp_per_tile_redo_preserves_results() {
        let store = grid_store(6);
        let queries = grid_store(6);
        let search = GpuSpatialSearch::new(wpt_device(), &store, cfg(4, 100_000)).unwrap();
        let (full, _) = search.search(&queries, 10.0, 20_000).unwrap();
        assert!(!full.is_empty());
        let (constrained, report) = search.search(&queries, 10.0, (full.len() / 3).max(2)).unwrap();
        assert_eq!(constrained, full);
        assert!(report.redo_rounds > 0);
    }

    #[test]
    fn far_away_queries_cost_nothing() {
        let store = grid_store(4);
        let mut queries = SegmentStore::new();
        queries.push(seg(1e6, 1e6, 0.0, 0));
        let search = GpuSpatialSearch::new(device(), &store, cfg(4, 1_000)).unwrap();
        let (got, report) = search.search(&queries, 1.0, 100).unwrap();
        assert!(got.is_empty());
        assert_eq!(report.comparisons, 0);
    }

    #[test]
    fn empty_queries() {
        let store = grid_store(3);
        let search = GpuSpatialSearch::new(device(), &store, cfg(4, 1_000)).unwrap();
        let (got, report) = search.search(&SegmentStore::new(), 1.0, 100).unwrap();
        assert!(got.is_empty());
        assert_eq!(report.response.kernel_invocations, 0);
    }

    #[test]
    fn ingest_and_expire_match_cold_rebuild() {
        for make_dev in [device as fn() -> Arc<Device>, wpt_device as fn() -> Arc<Device>] {
            let dev = make_dev();
            let mut store = grid_store(6);
            let queries = grid_store(4);
            let config = cfg(5, 100_000);
            let mut search = GpuSpatialSearch::new(dev.clone(), &store, config).unwrap();
            for tick in 0..3 {
                let base = 100.0 + tick as f64 * 10.0;
                let delta = store.append(&[
                    seg(base, base, tick as f64, 500 + tick),
                    seg(-base, -base, tick as f64, 600 + tick),
                ]);
                search.ingest(&store, &delta).unwrap();
            }
            let exp = store.expire_before(1.5);
            assert!(!exp.removed.is_empty());
            search.expire(&store, &exp).unwrap();

            // A second engine does not fit on the tiny test device; the
            // oracle gets its own identically-shaped device.
            let cold = GpuSpatialSearch::new(make_dev(), &store, config).unwrap();
            for d in [1.0, 8.0, 40.0] {
                let (warm, _) = search.search(&queries, d, 20_000).unwrap();
                let (want, _) = cold.search(&queries, d, 20_000).unwrap();
                assert_eq!(warm, want, "d = {d}");
                assert_eq!(warm, brute(&store, &queries, d), "d = {d}");
            }
        }
    }

    #[test]
    fn duplicates_removed_on_host() {
        // An entry spanning many cells is reported once despite appearing in
        // multiple cells of the candidate set.
        let mut store = SegmentStore::new();
        store.push(Segment::new(
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(20.0, 20.0, 20.0),
            0.0,
            1.0,
            SegId(0),
            TrajId(0),
        ));
        store.push(seg(0.0, 0.0, 0.0, 1)); // second entry so the grid isn't trivial
        let mut queries = SegmentStore::new();
        queries.push(Segment::new(
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(20.0, 20.0, 20.0),
            0.0,
            1.0,
            SegId(0),
            TrajId(9),
        ));
        let search = GpuSpatialSearch::new(device(), &store, cfg(5, 1_000)).unwrap();
        let (got, report) = search.search(&queries, 1.0, 1_000).unwrap();
        assert_eq!(got.iter().filter(|m| m.entry == 0).count(), 1);
        assert!(report.raw_matches > report.matches, "dedup must have removed duplicates");
    }
}
