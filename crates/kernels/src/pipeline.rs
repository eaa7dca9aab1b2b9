//! The host-side search skeleton every GPU method shares.
//!
//! All three kernels (GPUSpatial, GPUTemporal and GPUSpatioTemporal) run
//! the same outer protocol; only *candidate generation* differs. The
//! protocol, in both kernel shapes:
//!
//! * **Thread-per-query** (`run_thread_per_query`): launch one thread per
//!   query (or per execution-order slot), let each thread generate and
//!   refine its candidates, commit matches through the warp stash, and stage
//!   the query id for *redo* when its records were dropped by a full result
//!   buffer. The host drains results and redo ids after every round and
//!   re-launches over the redo set ([`RedoSchedule`]) until it is empty —
//!   the paper's incremental processing of `Q` (§V-E).
//! * **Warp-per-tile** (`run_warp_per_tile`): the host cuts every query's
//!   candidate range into fixed-size tiles, a persistent grid of warps pulls
//!   them from a device-side work queue, and each warp scans one tile once,
//!   dealing candidate `j` to lane `j % warp_size`. An overflowing tile
//!   re-queues its whole *query* through the same redo protocol (several
//!   tiles of one query may report the same overflow, so redo ids are
//!   deduplicated first).
//!
//! What a method plugs in is a [`CandidateGenerator`] (thread-per-query) and
//! a [`TileGenerator`] (warp-per-tile): slot decoding, per-query candidate
//! iteration, per-round scratch state, tile construction, and which
//! [`DeviceSegments`](crate::DeviceSegments) scan a tile's tag selects.
//! Everything else — result/redo buffers, downloads, ledger charges and
//! report totals — lives here once. A warp's (or tile's) comparison count
//! rides in its staged state with its matches and is summed in the ordered
//! epilogue, which runs one warp at a time, so no kernel body writes a
//! counter that other host workers share.

use crate::segments::DeviceQueries;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tdts_geom::{MatchRecord, PreparedQuery, TimeInterval};
use tdts_gpu_sim::{
    Device, DeviceBuffer, Lane, NextBatch, RedoSchedule, SearchError, SearchReport, Tile, Warp,
    WarpStash, MAX_WARP_LANES,
};

/// Instruction cost of reading a schedule entry / index arithmetic.
pub const SCHEDULE_INSTR: u64 = 4;

/// Work one lane reports back to the shared thread-per-query skeleton.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaneWork {
    /// Refinement comparisons performed (the report's `comparisons`).
    pub compared: u64,
    /// Bytes of candidate-buffer writes to flush as coalesced traffic in
    /// the warp epilogue (only `GPUSpatial`'s `U_k` gather uses this).
    pub scratch_bytes: u64,
}

/// A method's thread-per-query candidate generation, plugged into
/// `run_thread_per_query`.
pub trait CandidateGenerator: Sync {
    /// Per-round device state (e.g. the spatial candidate scratch, sized by
    /// the live batch); `()` when a method needs none.
    type Round: Sync;

    /// Allocate per-round state before each launch over `batch_len` queries.
    fn begin_round(&self, batch_len: usize) -> Result<Self::Round, SearchError>;

    /// Threads to launch in the first round (defaults to one per query;
    /// GPUSpatioTemporal launches one per padded execution-order slot).
    fn first_round_threads(&self, n_queries: usize) -> usize {
        n_queries
    }

    /// Fetch the lane's execution slot in the first round (redo rounds read
    /// from the uploaded redo-id buffer instead).
    fn first_round_slot(&self, lane: &mut Lane) -> u32 {
        lane.global_id as u32
    }

    /// Decode a slot into a query id, or `None` for a padding lane that
    /// retires immediately (after taking its group's control path).
    fn decode_slot(&self, _lane: &mut Lane, slot: u32) -> Option<u32> {
        Some(slot)
    }

    /// Generate and refine the candidates of query `qid`, staging matches
    /// into the warp stash. Overflow handling is the skeleton's job: the
    /// commit reports lanes that lost records (a lane that gave up early
    /// marks itself dropped) and their queries are redone.
    fn run_query(
        &self,
        lane: &mut Lane,
        qid: u32,
        stash: &mut WarpStash<'_, MatchRecord>,
        round: &Self::Round,
    ) -> LaneWork;

    /// Warp hook, run after the lanes and *before* the stash commit.
    /// `GPUSpatial` flushes its staged candidate-buffer bytes here.
    fn end_warp(&self, _warp: &mut Warp, _round: &Self::Round, _scratch_bytes: u64) {}

    /// The error when a single query cannot complete even alone in a batch.
    fn stuck_error(&self, _round: &Self::Round, result_capacity: usize) -> SearchError {
        SearchError::ResultCapacityTooSmall { capacity: result_capacity }
    }
}

/// A method's warp-per-tile candidate decomposition, plugged into
/// `run_warp_per_tile`.
pub trait TileGenerator: Sync {
    /// Append the tiles of query `qid` (its candidate ranges cut to at most
    /// `tile_size` entries, tagged as the method requires).
    fn push_tiles(&self, tiles: &mut Vec<Tile>, qid: u32, tile_size: usize);

    /// Per-tile setup instruction charge (broadcast decode, MBB setup, …),
    /// converged at warp scope.
    fn tile_setup_instr(&self) -> u64 {
        SCHEDULE_INSTR
    }

    /// Refine the whole `tile` against its prepared query `q` on the
    /// warp's lanes — one scan, candidate `j` of the tile on lane
    /// `j % warp_size`, the mapping of lanes striding the tile together —
    /// handing each match to `on_hit` on its lane, and return the
    /// comparisons performed. A method resolves its tile tag here: a direct
    /// range is [`refine_range`], a range of an index array is
    /// [`refine_gather`], each over [`Warp::lanes_mut`].
    ///
    /// [`refine_range`]: crate::DeviceSegments::refine_range
    /// [`refine_gather`]: crate::DeviceSegments::refine_gather
    fn refine_tile(
        &self,
        warp: &mut Warp,
        tile: &Tile,
        q: &PreparedQuery,
        on_hit: impl FnMut(&mut Lane, u32, TimeInterval),
    ) -> u64;
}

/// Run the thread-per-query protocol to completion. Returns the raw
/// (sorted-position, undeduplicated) matches and the comparison count;
/// the driver deduplicates them.
pub(crate) fn run_thread_per_query<G: CandidateGenerator>(
    device: &Arc<Device>,
    generator: &G,
    n_queries: usize,
    result_capacity: usize,
    report: &mut SearchReport,
) -> Result<(Vec<MatchRecord>, u64), SearchError> {
    let mut results = device.alloc_result::<MatchRecord>(result_capacity)?;
    let mut redo = device.alloc_result::<u32>(n_queries)?;

    let mut matches: Vec<MatchRecord> = Vec::new();
    let mut batch: Option<DeviceBuffer<u32>> = None; // None = all queries
    let mut batch_len = n_queries;
    let mut launch_threads = generator.first_round_threads(n_queries);
    let mut redo_schedule = RedoSchedule::new();
    let comparisons = AtomicU64::new(0);

    loop {
        let round = generator.begin_round(batch_len)?;
        let launch = device.launch_warps_ordered(
            launch_threads,
            |warp| {
                let mut stash = results.warp_stash();
                let mut qids = [0u32; MAX_WARP_LANES];
                let mut scratch_bytes = 0u64;
                let mut compared = 0u64;
                warp.for_each_lane(|lane| {
                    let slot = match &batch {
                        None => generator.first_round_slot(lane),
                        Some(ids) => ids.read(lane, lane.global_id),
                    };
                    let Some(qid) = generator.decode_slot(lane, slot) else {
                        return;
                    };
                    qids[lane.lane_index()] = qid;
                    let work = generator.run_query(lane, qid, &mut stash, &round);
                    scratch_bytes += work.scratch_bytes;
                    compared += work.compared;
                });
                generator.end_warp(warp, &round, scratch_bytes);
                (stash, qids, compared)
            },
            // Warp epilogue, in warp order: the comparison count, one cursor
            // bump for the warp's matches, then redo ids for lanes that lost
            // records.
            |warp, (mut stash, qids, compared)| {
                comparisons.fetch_add(compared, Ordering::Relaxed);
                let dropped = stash.commit(warp);
                if dropped != 0 {
                    let mut redo_stash = redo.warp_stash();
                    for (li, &qid) in qids.iter().enumerate().take(warp.lane_count()) {
                        if dropped & (1 << li) != 0 {
                            redo_stash.stage_at(li, qid);
                        }
                    }
                    redo_stash.commit(warp);
                }
            },
        );
        report.divergent_warps += launch.divergent_warps as u64;
        report.totals.add(&launch.totals);
        report.load.add_launch(&launch);

        let produced = results.len();
        device.charge_download(produced * std::mem::size_of::<MatchRecord>());
        matches.extend(results.drain_to_host());
        let redo_ids = redo.drain_to_host();
        device.charge_download(redo_ids.len() * std::mem::size_of::<u32>());

        match redo_schedule.next(redo_ids, batch_len) {
            NextBatch::Done => break,
            NextBatch::Stuck => return Err(generator.stuck_error(&round, result_capacity)),
            NextBatch::Ids(ids) => {
                report.redo_rounds += 1;
                batch_len = ids.len();
                launch_threads = ids.len();
                batch = Some(device.upload(ids)?);
            }
        }
    }
    Ok((matches, comparisons.into_inner()))
}

/// Run the warp-per-tile protocol to completion. Tile decomposition runs on
/// the host once per round (charged); each warp reads its tile's query once
/// through the leader, broadcasts it, and prepares it once for the whole
/// tile; the warp then scans the tile once, each lane charged its share
/// ([`TileGenerator::refine_tile`]) against the query prepared at distance
/// `d`. Returns the raw matches and the comparison count.
pub(crate) fn run_warp_per_tile<G: TileGenerator>(
    device: &Arc<Device>,
    generator: &G,
    queries: &DeviceQueries,
    d: f64,
    n_queries: usize,
    result_capacity: usize,
    report: &mut SearchReport,
) -> Result<(Vec<MatchRecord>, u64), SearchError> {
    let tile_size = device.config().tile_size;

    let build_tiles = |ids: Option<&[u32]>| -> Vec<Tile> {
        let host_start = Instant::now();
        let mut tiles = Vec::new();
        let mut push = |qid: u32| generator.push_tiles(&mut tiles, qid, tile_size);
        match ids {
            None => (0..n_queries as u32).for_each(&mut push),
            Some(ids) => ids.iter().copied().for_each(&mut push),
        }
        device.charge_host(host_start.elapsed().as_secs_f64());
        tiles
    };

    let mut tiles = build_tiles(None);
    let mut results = device.alloc_result::<MatchRecord>(result_capacity)?;
    // Each tile stages at most one redo id (its query); the first round has
    // the most tiles, later rounds cover subsets of its queries.
    let mut redo = device.alloc_result::<u32>(tiles.len().max(1))?;

    let mut matches: Vec<MatchRecord> = Vec::new();
    let mut batch_len = n_queries;
    let mut redo_schedule = RedoSchedule::new();
    let comparisons = AtomicU64::new(0);

    loop {
        let queue = device.work_queue(std::mem::take(&mut tiles))?;
        let launch = device.launch_persistent_ordered(
            &queue,
            |warp, tile| {
                let mut stash = results.warp_stash();
                // The warp leader reads the tile's query once and broadcasts
                // it (__shfl_sync analogue): converged charges, one row.
                let q = PreparedQuery::new(&queries.broadcast(warp, tile.query as usize), d);
                warp.instr(generator.tile_setup_instr());
                let compared =
                    generator.refine_tile(warp, &tile, &q, |lane, entry_pos, interval| {
                        stash.stage(lane, MatchRecord::new(tile.query, entry_pos, interval))
                    });
                (stash, tile.query, compared)
            },
            // Tile epilogue, in queue order.
            |warp, (mut stash, query, compared)| {
                comparisons.fetch_add(compared, Ordering::Relaxed);
                if stash.commit(warp) != 0 {
                    // Any lost record re-queues the whole query.
                    let mut redo_stash = redo.warp_stash();
                    redo_stash.stage_at(0, query);
                    redo_stash.commit(warp);
                }
            },
        );
        report.divergent_warps += launch.divergent_warps as u64;
        report.totals.add(&launch.totals);
        report.load.add_launch(&launch);

        let produced = results.len();
        device.charge_download(produced * std::mem::size_of::<MatchRecord>());
        matches.extend(results.drain_to_host());
        // Several tiles of one query may each report the overflow; the redo
        // schedule collapses them.
        let redo_ids = redo.drain_to_host();
        device.charge_download(redo_ids.len() * std::mem::size_of::<u32>());

        match redo_schedule.next(redo_ids, batch_len) {
            NextBatch::Done => break,
            NextBatch::Stuck => {
                return Err(SearchError::ResultCapacityTooSmall { capacity: result_capacity })
            }
            NextBatch::Ids(ids) => {
                report.redo_rounds += 1;
                batch_len = ids.len();
                tiles = build_tiles(Some(&ids));
            }
        }
    }
    Ok((matches, comparisons.into_inner()))
}
