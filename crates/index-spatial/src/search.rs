//! The `GPUSpatial` scheme (§IV-A, Algorithm 1).
//!
//! The driver ([`GpuSearch`]) and the kernel skeleton (candidate iteration →
//! refinement → warp-stash commit → redo) live in [`tdts_kernels`]; this
//! module contributes the FSG-specific candidate generation: the
//! device-side `getCandidates` walk over rasterised grid cells into the
//! per-query candidate buffer `U_k` (thread-per-query), or the host-side
//! rasterisation into lookup-range tiles with a fused gather+refine kernel
//! (warp-per-tile).

use crate::fsg::{Fsg, FsgConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tdts_geom::{
    ExpireDelta, MatchRecord, PreparedQuery, Segment, SegmentStore, StoreStats, TimeInterval,
};
use tdts_gpu_sim::{
    Device, DeviceBuffer, DeviceConfig, KernelShape, Lane, PartitionedScratch, SearchError, Tile,
    Warp, WarpStash,
};
use tdts_kernels::{
    lane_share, Batch, CandidateGenerator, GpuSearch, LaneWork, Scheme, TileGenerator,
};

/// `GPUSpatial`: the FSG, its arrays and the database resident on the
/// device.
pub type GpuSpatialSearch = GpuSearch<SpatialScheme>;

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

/// The FSG arrays resident on the device.
pub struct GridArrays {
    /// `G`: sorted linearised coordinates of non-empty cells.
    cell_ids: DeviceBuffer<u64>,
    /// Per-cell half-open ranges into the lookup array.
    cell_ranges: DeviceBuffer<[u32; 2]>,
    /// `A`: entry positions grouped by cell.
    lookup: DeviceBuffer<u32>,
}

impl GridArrays {
    /// Device-side binary search of cell `h` in `G`, charging one global
    /// read per probe (the paper's `O(log |G|)` step).
    fn find_cell(&self, lane: &mut Lane, h: u64) -> Option<usize> {
        let (mut lo, mut hi) = (0usize, self.cell_ids.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            let v = self.cell_ids.read(lane, mid);
            lane.instr(2);
            match v.cmp(&h) {
                std::cmp::Ordering::Equal => return Some(mid),
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        None
    }
}

/// The `GPUSpatial` [`Scheme`]: queries left unsorted (so results already
/// refer to the caller's ordering), the grid triple on the device, and —
/// under warp-per-tile only — the host-rasterised lookup ranges as the
/// plan.
pub struct SpatialScheme;

/// Place the grid's arrays in `device` memory (offline).
fn place(device: &Arc<Device>, fsg: &Fsg) -> Result<GridArrays, SearchError> {
    Ok(GridArrays {
        cell_ids: device.alloc_from_host(fsg.cell_ids.clone())?,
        cell_ranges: device.alloc_from_host(fsg.cell_ranges.clone())?,
        lookup: device.alloc_from_host(fsg.lookup.clone())?,
    })
}

impl Scheme for SpatialScheme {
    const NAME: &'static str = "GPUSpatial";
    const SORTS_QUERIES: bool = false;
    type Config = GpuSpatialConfig;
    type Index = Fsg;
    type Arrays = GridArrays;
    /// Per query, the non-empty lookup ranges of the cells its inflated
    /// MBB rasterises to (empty under thread-per-query, which walks the
    /// grid on the device).
    type Plan = Vec<Vec<[u32; 2]>>;
    type Threads<'a> = SpatialThreads<'a>;
    type Tiles<'a> = SpatialTiles<'a>;

    fn build(
        device: &Arc<Device>,
        store: &SegmentStore,
        stats: &StoreStats,
        config: &GpuSpatialConfig,
    ) -> Result<(Fsg, GridArrays), SearchError> {
        let fsg = Fsg::build_with_stats(store, stats, config.fsg)?;
        let grid = place(device, &fsg)?;
        Ok((fsg, grid))
    }

    /// The grid is rebuilt beside the old one and re-placed whole: an
    /// append can move every cell's run of ids.
    fn ingest(
        fsg: &mut Fsg,
        grid: &mut GridArrays,
        device: &Arc<Device>,
        store: &SegmentStore,
        from: usize,
    ) -> Result<(), SearchError> {
        let next = fsg.append(store, from)?;
        (*grid, *fsg) = (place(device, &next)?, next);
        Ok(())
    }

    fn expire(
        fsg: &mut Fsg,
        grid: &mut GridArrays,
        device: &Arc<Device>,
        _store: &SegmentStore,
        delta: &ExpireDelta,
    ) -> Result<(), SearchError> {
        let next = fsg.expire(delta)?;
        (*grid, *fsg) = (place(device, &next)?, next);
        Ok(())
    }

    /// Host `getCandidates` scheduling for warp-per-tile, computed once and
    /// reused across redo rounds (d is fixed for the whole search).
    fn plan(
        search: &GpuSpatialSearch,
        queries: &[Segment],
        d: f64,
        shape: KernelShape,
        _device: &DeviceConfig,
    ) -> Vec<Vec<[u32; 2]>> {
        if shape == KernelShape::ThreadPerQuery {
            return Vec::new();
        }
        let fsg = search.index();
        tdts_geom::par::par_map(queries.len(), |qi| {
            let search_box = queries[qi].mbb().inflate(d);
            let mut rs = Vec::new();
            if !fsg.outside(&search_box) {
                for (x, y, z) in fsg.rasterise(&search_box).iter() {
                    if let Some(ci) = fsg.find_cell(fsg.linear(x, y, z)) {
                        let r = fsg.cell_ranges[ci];
                        if r[0] < r[1] {
                            rs.push(r);
                        }
                    }
                }
            }
            rs
        })
    }

    /// One candidate-cell list per query under warp-per-tile; none under
    /// thread-per-query, whose lanes look their cells up on the device.
    fn plan_entries(plan: &Vec<Vec<[u32; 2]>>) -> usize {
        plan.len()
    }

    fn threads<'a>(
        batch: Batch<'a, Self>,
        _plan: &'a Vec<Vec<[u32; 2]>>,
    ) -> Result<SpatialThreads<'a>, SearchError> {
        Ok(SpatialThreads { batch })
    }

    fn tiles<'a>(batch: Batch<'a, Self>, ranges: &'a Vec<Vec<[u32; 2]>>) -> SpatialTiles<'a> {
        SpatialTiles { batch, ranges }
    }
}

/// Per-round device state of the thread-per-query mapping: the candidate
/// buffers `U_k` (the budget `s` split across the live batch) and the
/// sticky overflow flag that turns a stuck redo into
/// [`SearchError::ScratchCapacityTooSmall`].
pub struct SpatialRound {
    scratch: PartitionedScratch<u32>,
    overflow: AtomicBool,
}

/// Thread-per-query candidate generation: device-side `getCandidates` into
/// `U_k`, then refinement over the gathered positions.
pub struct SpatialThreads<'a> {
    batch: Batch<'a, SpatialScheme>,
}

impl CandidateGenerator for SpatialThreads<'_> {
    type Round = SpatialRound;

    fn begin_round(&self, batch_len: usize) -> Result<SpatialRound, SearchError> {
        // Candidate buffers: the budget `s` split across this batch.
        let search = self.batch.search;
        let per_thread = (search.config().total_scratch / batch_len).max(1);
        Ok(SpatialRound {
            scratch: search.device().alloc_scratch::<u32>(batch_len, per_thread)?,
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
        let (search, d) = (self.batch.search, self.batch.d);
        let (fsg, grid) = (search.index(), search.arrays());
        let q = self.batch.queries.read_segment(lane, qid as usize);
        lane.instr(12); // MBB + inflation + cell-range setup

        // getCandidates: rasterise the inflated MBB and gather entry
        // positions into U_k, one probe of `G` per cell.
        let mut uk = round.scratch.take_partition(lane.global_id);
        let search_box = q.mbb().inflate(d);
        let mut overflow = false;
        if !fsg.outside(&search_box) {
            let range = fsg.rasterise(&search_box);
            'cells: for (x, y, z) in range.iter() {
                let h = fsg.linear(x, y, z);
                lane.instr(4);
                if let Some(ci) = grid.find_cell(lane, h) {
                    let r = grid.cell_ranges.read(lane, ci);
                    for ai in r[0]..r[1] {
                        let entry_pos = grid.lookup.read(lane, ai as usize);
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
            let q = PreparedQuery::new(&q, d);
            let positions = uk.read_all(lane);
            compared = search.entries().refine_positions(
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
            let capacity = self.batch.search.config().total_scratch;
            SearchError::ScratchCapacityTooSmall { capacity }
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
pub struct SpatialTiles<'a> {
    batch: Batch<'a, SpatialScheme>,
    ranges: &'a [Vec<[u32; 2]>],
}

impl TileGenerator for SpatialTiles<'_> {
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
        let search = self.batch.search;
        let lookup = &search.arrays().lookup;
        let compared =
            search.entries().refine_gather(lanes, lookup, 0, tile.lo..tile.hi, q, on_hit);
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
