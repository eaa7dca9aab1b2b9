//! The `GPUSpatioTemporal` scheme (§IV-C, Algorithm 3).
//!
//! The driver ([`GpuSearch`]) and the kernel skeleton (candidate iteration →
//! refinement → warp-stash commit → redo) live in [`tdts_kernels`]; this
//! module contributes the selector machinery: the per-query schedule entry
//! choosing one of the `X`/`Y`/`Z` id arrays (or the temporal fallback),
//! the selector-sorted, warp-padded execution order (thread-per-query), and
//! selector-tagged tiles (warp-per-tile).

use crate::index::{Selector, SpatioTemporalIndex, SpatioTemporalIndexConfig};
use std::ops::Range;
use std::sync::Arc;
use tdts_geom::{
    ExpireDelta, MatchRecord, PreparedQuery, Segment, SegmentStore, StoreStats, TimeInterval,
};
use tdts_gpu_sim::{Device, DeviceBuffer, KernelShape, Lane, SearchError, Tile, Warp, WarpStash};
use tdts_kernels::{
    Batch, CandidateGenerator, GpuSearch, LaneWork, Scheme, TileGenerator, SCHEDULE_INSTR,
};

/// `GPUSpatioTemporal`: the index, its `X`/`Y`/`Z` id arrays and the
/// database resident on the device.
pub type GpuSpatioTemporalSearch = GpuSearch<SpatioTemporalScheme>;

/// The index a search holds: its runs in device memory.
type Index = SpatioTemporalIndex<DeviceBuffer<u32>>;

/// High bit of an execution-order slot: the lane is warp-alignment padding
/// (the low bits carry the selector so the lane stays on its group's path).
const IDLE_LANE: u32 = 1 << 31;

/// Pad each selector group of `exec` to a multiple of `warp_size` slots so
/// warps never mix selectors. `exec` must already be grouped by selector.
fn pad_groups_to_warps(exec: &[u32], schedule: &[[u32; 4]], warp_size: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(exec.len() + 4 * warp_size);
    let mut i = 0;
    while i < exec.len() {
        let selector = schedule[exec[i] as usize][0];
        let start = i;
        while i < exec.len() && schedule[exec[i] as usize][0] == selector {
            i += 1;
        }
        out.extend_from_slice(&exec[start..i]);
        if i < exec.len() {
            while out.len() % warp_size != 0 {
                out.push(IDLE_LANE | selector);
            }
        }
    }
    out
}

/// A batch's plan: the encoded schedule entry of every sorted query, the
/// execution order (thread-per-query only; empty under warp-per-tile) and
/// the count of queries sent to the temporal fallback.
pub struct SpatioTemporalPlan {
    schedule: Vec<[u32; 4]>,
    exec_order: Vec<u32>,
    fallback: u64,
}

/// The `GPUSpatioTemporal` [`Scheme`]: queries sorted by `t_start`, the
/// `X`/`Y`/`Z` id arrays on the device, and a selector schedule as the plan.
pub struct SpatioTemporalScheme;

impl Scheme for SpatioTemporalScheme {
    const NAME: &'static str = "GPUSpatioTemporal";
    const SORTS_QUERIES: bool = true;
    type Config = SpatioTemporalIndexConfig;
    /// The index, its `X`/`Y`/`Z` runs resident on the device.
    type Index = Index;
    type Plan = SpatioTemporalPlan;
    type Threads<'a> = SpatioTemporalThreads<'a>;
    type Tiles<'a> = SpatioTemporalTiles<'a>;

    /// The runs move into device memory: the search reads, extends and
    /// cuts that one copy.
    fn build(
        device: &Arc<Device>,
        store: &SegmentStore,
        stats: &StoreStats,
        config: &SpatioTemporalIndexConfig,
    ) -> Result<Index, SearchError> {
        SpatioTemporalIndex::build_with_stats(store, stats, *config)?.place(device)
    }

    /// Only the run tails grow, in place: the device bytes for every tail
    /// are reserved before any run changes.
    fn ingest(
        index: &mut Index,
        device: &Arc<Device>,
        store: &SegmentStore,
        from: usize,
    ) -> Result<(), SearchError> {
        let append = index.prepare_append(store, from)?;
        let mut reserved = device.reserve(append.ids() * std::mem::size_of::<u32>())?;
        index.apply_append(append, &mut reserved);
        Ok(())
    }

    fn expire(
        index: &mut Index,
        _device: &Arc<Device>,
        store: &SegmentStore,
        delta: &ExpireDelta,
    ) -> Result<(), SearchError> {
        index.expire(store, delta)
    }

    /// Compute the schedule and order query execution by array selector to
    /// reduce warp divergence (§IV-C2).
    fn plan(
        search: &GpuSpatioTemporalSearch,
        queries: &[Segment],
        d: f64,
        shape: KernelShape,
    ) -> SpatioTemporalPlan {
        let mut schedule: Vec<[u32; 4]> = Vec::with_capacity(queries.len());
        let mut fallback = 0u64;
        for q in queries {
            let entry = search.index().schedule_for(q, d);
            if entry.selector == Selector::Temporal {
                fallback += 1;
            }
            schedule.push(entry.encode());
        }
        // Warp-per-tile dispatch skips the execution order entirely: every
        // tile carries its selector, so warps are selector-homogeneous by
        // construction and need no permutation or padding.
        if shape == KernelShape::WarpPerTile {
            return SpatioTemporalPlan { schedule, exec_order: Vec::new(), fallback };
        }
        let mut exec_order: Vec<u32> = (0..queries.len() as u32).collect();
        if search.config().sort_by_selector {
            // Selector first (bounds divergence to the group boundaries),
            // then candidate count: SIMT warps cost as much as their
            // heaviest lane, so co-scheduling similar workloads keeps
            // max-over-lanes close to the mean.
            exec_order.sort_by_key(|&qi| {
                let entry = schedule[qi as usize];
                (entry[0], std::cmp::Reverse(entry[2].saturating_sub(entry[1])))
            });
            // Warp-align the selector groups with idle lanes so no warp
            // mixes control paths (mixing triggers the uncoalesced-memory
            // penalty, which dwarfs the few wasted lanes).
            let warp_size = search.device().config().warp_size;
            exec_order = pad_groups_to_warps(&exec_order, &schedule, warp_size);
        }
        SpatioTemporalPlan { schedule, exec_order, fallback }
    }

    fn fallback_queries(plan: &SpatioTemporalPlan) -> u64 {
        plan.fallback
    }

    fn plan_entries(plan: &SpatioTemporalPlan) -> usize {
        plan.schedule.len()
    }

    fn threads<'a>(
        batch: Batch<'a, Self>,
        plan: &'a SpatioTemporalPlan,
    ) -> Result<SpatioTemporalThreads<'a>, SearchError> {
        // Online transfers: the schedule and the execution order.
        let schedule = batch.device.upload(plan.schedule.clone())?;
        let exec = batch.device.upload(plan.exec_order.clone())?;
        Ok(SpatioTemporalThreads { batch, schedule, exec })
    }

    fn tiles<'a>(batch: Batch<'a, Self>, plan: &'a SpatioTemporalPlan) -> SpatioTemporalTiles<'a> {
        SpatioTemporalTiles { batch, schedule: &plan.schedule }
    }
}

/// Refine the candidates `rows` of a query whose schedule entry chose
/// `selector` and `subbin`, dealt round robin to `lanes`: selectors 0–2
/// gather through the subbin's run of the `X`/`Y`/`Z` id array (slots,
/// mapped to positions per candidate), selector 3 (the temporal fallback)
/// is a direct entry range. Both kernel shapes refine through here.
fn refine(
    search: &GpuSpatioTemporalSearch,
    lanes: &mut [Lane],
    [selector, subbin]: [u32; 2],
    rows: Range<u32>,
    q: &PreparedQuery,
    on_hit: impl FnMut(&mut Lane, u32, TimeInterval),
) -> u64 {
    let index = search.index();
    if selector < 3 {
        let run = &index.runs()[selector as usize * index.effective_subbins() + subbin as usize];
        search.entries().refine_gather(lanes, run.ids(), index.origin(), rows, q, on_hit)
    } else {
        search.entries().refine_range(lanes, rows, q, on_hit)
    }
}

/// Thread-per-query candidate generation: the first round launches one
/// thread per *slot* of the padded execution order; each live lane reads its
/// schedule entry, takes its selector's control path, and walks the chosen
/// id array (or the direct temporal range).
pub struct SpatioTemporalThreads<'a> {
    batch: Batch<'a, SpatioTemporalScheme>,
    schedule: DeviceBuffer<[u32; 4]>,
    exec: DeviceBuffer<u32>,
}

impl CandidateGenerator for SpatioTemporalThreads<'_> {
    type Round = ();

    fn begin_round(&self, _batch_len: usize) -> Result<(), SearchError> {
        Ok(())
    }

    fn first_round_slots(&self) -> Option<&DeviceBuffer<u32>> {
        Some(&self.exec)
    }

    fn decode_slot(&self, lane: &mut Lane, code: u32) -> Option<u32> {
        if code & IDLE_LANE != 0 {
            // Warp-alignment padding: take the same control path as the
            // surrounding selector group and retire (before staging
            // anything, so the lane can never appear in the dropped mask).
            lane.set_path((code & !IDLE_LANE) as u64);
            return None;
        }
        Some(code)
    }

    fn run_query(
        &self,
        lane: &mut Lane,
        qid: u32,
        stash: &mut WarpStash<'_, MatchRecord>,
        _round: &(),
    ) -> LaneWork {
        let entry = self.schedule.read(lane, qid as usize);
        lane.instr(SCHEDULE_INSTR);
        let selector = entry[0];
        // Control-flow divergence: lanes with different selectors serialise
        // (the reason the schedule is selector-sorted).
        lane.set_path(selector as u64);
        if selector == 4 {
            return LaneWork::default(); // no temporally overlapping entries
        }
        let batch = &self.batch;
        let q = PreparedQuery::new(&batch.queries.read_segment(lane, qid as usize), batch.d);
        let stage = |lane: &mut Lane, pos, interval| {
            stash.stage(lane, MatchRecord::new(qid, pos, interval))
        };
        let lanes = std::slice::from_mut(lane);
        let run = [selector, entry[3]];
        let compared = refine(batch.search, lanes, run, entry[1]..entry[2], &q, stage);
        LaneWork { compared, scratch_bytes: 0 }
    }
}

/// Warp-per-tile decomposition: each schedule entry's candidate range is
/// split into tiles tagged with the entry's selector, so every warp works
/// one selector at a time — selector homogeneity by construction, with no
/// execution-order sort or idle-lane padding. Selector 4 (no temporally
/// overlapping entries) contributes no tiles.
pub struct SpatioTemporalTiles<'a> {
    batch: Batch<'a, SpatioTemporalScheme>,
    schedule: &'a [[u32; 4]],
}

impl TileGenerator for SpatioTemporalTiles<'_> {
    fn push_tiles(&self, tiles: &mut Vec<Tile>, qid: u32, tile_size: usize) {
        let e = self.schedule[qid as usize];
        if e[0] == 4 {
            return; // no temporally overlapping entries
        }
        Tile::split_into(tiles, qid, e[1], e[2], e[0], tile_size);
    }

    fn refine_tile(
        &self,
        warp: &mut Warp,
        tile: &Tile,
        q: &PreparedQuery,
        on_hit: impl FnMut(&mut Lane, u32, TimeInterval),
    ) -> u64 {
        let run = [tile.tag, self.schedule[tile.query as usize][3]];
        refine(self.batch.search, warp.lanes_mut(), run, tile.lo..tile.hi, q, on_hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdts_geom::{dedup_matches, within_distance, Point3, SegId, Segment, TrajId};
    use tdts_gpu_sim::DeviceConfig;

    fn seg(x: f64, t0: f64, id: u32) -> Segment {
        Segment::new(
            Point3::new(x, x * 0.3, -x * 0.2),
            Point3::new(x + 1.0, x * 0.3 + 0.7, -x * 0.2 + 0.4),
            t0,
            t0 + 1.0,
            SegId(id),
            TrajId(id),
        )
    }

    fn sorted_store(n: usize) -> SegmentStore {
        (0..n).map(|i| seg(i as f64 * 2.0, i as f64 * 0.4, i as u32)).collect()
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
    fn matches_brute_force_across_distances() {
        let store = sorted_store(50);
        let queries: SegmentStore =
            (0..15).map(|i| seg(i as f64 * 5.0 + 0.3, i as f64 * 1.1, 100 + i as u32)).collect();
        let search = GpuSpatioTemporalSearch::new(
            device(),
            &store,
            SpatioTemporalIndexConfig { bins: 8, subbins: 4, sort_by_selector: true },
        )
        .unwrap();
        // Sweep d across regimes: subbin-selective, mixed, all-fallback.
        for d in [0.3, 2.0, 15.0, 200.0] {
            let (got, report) = search.search(&queries, d, 20_000).unwrap();
            let expect = brute(&store, &queries, d);
            assert_eq!(got, expect, "d = {d}");
            assert!(report.comparisons >= report.matches);
        }
    }

    #[test]
    fn fallback_grows_with_d() {
        let store = sorted_store(60);
        let queries = sorted_store(20);
        let search = GpuSpatioTemporalSearch::new(
            device(),
            &store,
            SpatioTemporalIndexConfig { bins: 6, subbins: 4, sort_by_selector: true },
        )
        .unwrap();
        let (_, small) = search.search(&queries, 0.1, 20_000).unwrap();
        let (_, large) = search.search(&queries, 1_000.0, 20_000).unwrap();
        assert!(small.fallback_queries < large.fallback_queries);
        assert_eq!(large.fallback_queries, queries.len() as u64);
    }

    #[test]
    fn no_duplicates_without_redo() {
        let store = sorted_store(40);
        let queries = sorted_store(40);
        let search = GpuSpatioTemporalSearch::new(
            device(),
            &store,
            SpatioTemporalIndexConfig { bins: 8, subbins: 4, sort_by_selector: true },
        )
        .unwrap();
        let (_, report) = search.search(&queries, 1.5, 20_000).unwrap();
        assert_eq!(report.redo_rounds, 0);
        assert_eq!(
            report.raw_matches, report.matches,
            "single-subbin scheme must not produce duplicates"
        );
    }

    #[test]
    fn result_overflow_redo_same_results() {
        let store = sorted_store(40);
        let queries = sorted_store(40);
        let search = GpuSpatioTemporalSearch::new(
            device(),
            &store,
            SpatioTemporalIndexConfig { bins: 4, subbins: 2, sort_by_selector: true },
        )
        .unwrap();
        let (full, _) = search.search(&queries, 4.0, 20_000).unwrap();
        assert!(!full.is_empty());
        let (constrained, report) = search.search(&queries, 4.0, (full.len() / 4).max(2)).unwrap();
        assert_eq!(constrained, full);
        assert!(report.redo_rounds > 0);
    }

    #[test]
    fn divergence_is_visible_with_mixed_selectors() {
        // A d in the mixed regime gives different selectors to different
        // queries; the simulator should report divergent warps only when the
        // selector-sorted order still mixes paths inside one warp.
        let store = sorted_store(100);
        let queries = sorted_store(64);
        let search = GpuSpatioTemporalSearch::new(
            device(),
            &store,
            SpatioTemporalIndexConfig { bins: 8, subbins: 4, sort_by_selector: true },
        )
        .unwrap();
        let (_, report) = search.search(&queries, 5.0, 20_000).unwrap();
        // Sorting by selector bounds divergence: at most 3 boundary warps
        // (one per selector transition) can diverge.
        assert!(report.divergent_warps <= 3, "divergent warps {}", report.divergent_warps);
    }

    fn wpt_device() -> Arc<Device> {
        let mut c = DeviceConfig::test_tiny();
        c.kernel_shape = KernelShape::WarpPerTile;
        Device::new(c).unwrap()
    }

    #[test]
    fn warp_per_tile_matches_thread_per_query() {
        let store = sorted_store(50);
        let queries: SegmentStore =
            (0..15).map(|i| seg(i as f64 * 5.0 + 0.3, i as f64 * 1.1, 100 + i as u32)).collect();
        let cfg = SpatioTemporalIndexConfig { bins: 8, subbins: 4, sort_by_selector: true };
        let tpq = GpuSpatioTemporalSearch::new(device(), &store, cfg).unwrap();
        let wpt = GpuSpatioTemporalSearch::new(wpt_device(), &store, cfg).unwrap();
        // Sweep d across regimes: subbin-selective, mixed, all-fallback.
        for d in [0.3, 2.0, 15.0, 200.0] {
            let (a, ra) = tpq.search(&queries, d, 20_000).unwrap();
            let (b, rb) = wpt.search(&queries, d, 20_000).unwrap();
            assert_eq!(a, b, "d = {d}");
            assert_eq!(ra.comparisons, rb.comparisons, "same candidates refined at d = {d}");
            // Selector-homogeneous tiles: warps never mix control paths.
            assert_eq!(rb.divergent_warps, 0, "d = {d}");
        }
    }

    #[test]
    fn warp_per_tile_redo_preserves_results() {
        let store = sorted_store(40);
        let queries = sorted_store(40);
        let search = GpuSpatioTemporalSearch::new(
            wpt_device(),
            &store,
            SpatioTemporalIndexConfig { bins: 4, subbins: 2, sort_by_selector: true },
        )
        .unwrap();
        let (full, _) = search.search(&queries, 4.0, 20_000).unwrap();
        assert!(!full.is_empty());
        let (constrained, report) = search.search(&queries, 4.0, (full.len() / 4).max(2)).unwrap();
        assert_eq!(constrained, full);
        assert!(report.redo_rounds > 0);
    }

    #[test]
    fn ingest_and_expire_match_cold_rebuild() {
        for make_dev in [device as fn() -> Arc<Device>, wpt_device as fn() -> Arc<Device>] {
            let mut store = sorted_store(40);
            let queries: SegmentStore = (0..15)
                .map(|i| seg(i as f64 * 4.0 + 0.3, i as f64 * 1.2, 100 + i as u32))
                .collect();
            let cfg = SpatioTemporalIndexConfig { bins: 6, subbins: 4, sort_by_selector: true };
            let mut search = GpuSpatioTemporalSearch::new(make_dev(), &store, cfg).unwrap();
            // Time-ordered ticks past the current extent (t_max ≈ 16.6),
            // including a spatially out-of-bounds segment.
            for tick in 0..3u32 {
                let t0 = 17.0 + tick as f64 * 2.0;
                let delta = store.append(&[
                    seg(tick as f64 * 3.0, t0, 700 + tick),
                    seg(300.0, t0 + 1.0, 800 + tick),
                ]);
                search.ingest(&store, &delta).unwrap();
            }
            assert!(search.index().validate(&store).is_ok());
            let exp = store.expire_before(4.0);
            assert!(!exp.removed.is_empty());
            search.expire(&store, &exp).unwrap();
            assert!(search.index().validate(&store).is_ok());

            let cold = GpuSpatioTemporalSearch::new(make_dev(), &store, cfg).unwrap();
            for d in [0.3, 2.0, 15.0] {
                let (warm, _) = search.search(&queries, d, 20_000).unwrap();
                let (want, _) = cold.search(&queries, d, 20_000).unwrap();
                assert_eq!(warm, want, "d = {d}");
                assert_eq!(warm, brute(&store, &queries, d), "d = {d}");
            }
        }
    }

    #[test]
    fn empty_queries() {
        let store = sorted_store(5);
        let search = GpuSpatioTemporalSearch::new(
            device(),
            &store,
            SpatioTemporalIndexConfig { bins: 2, subbins: 2, sort_by_selector: true },
        )
        .unwrap();
        let (m, report) = search.search(&SegmentStore::new(), 1.0, 100).unwrap();
        assert!(m.is_empty());
        assert_eq!(report.matches, 0);
    }
}
