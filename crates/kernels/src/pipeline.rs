//! The host-side search skeleton every GPU method shares.
//!
//! All three kernels (GPUSpatial, GPUTemporal and GPUSpatioTemporal) run
//! one protocol: launch a round into a fixed-size result buffer, drain it
//! and the ids of the queries that lost records, and re-launch over those
//! ids ([`RedoSchedule`]) until none are left — the paper's incremental
//! processing of `Q` (§V-E). `run_rounds` owns that loop once: both
//! buffers, folding each launch into the report, both downloads and the
//! schedule. A kernel shape supplies only the launch of one round:
//!
//! * **Thread-per-query** (`run_thread_per_query`): one thread per query
//!   (or execution-order slot), or per redo id, uploaded. Each thread
//!   refines its candidates and commits matches through the warp stash; a
//!   lane whose records were dropped stages its query id for redo.
//! * **Warp-per-tile** (`run_warp_per_tile`): the host cuts every query's
//!   (or redo id's) candidate range into fixed-size tiles, a persistent
//!   grid of warps pulls them from a device-side work queue, and each warp
//!   scans one tile once, candidate `j` on lane `j % warp_size`. Each host
//!   worker stages its tiles' matches in one warp stash, and a tile's
//!   epilogue commits the oldest records there, its own. An overflowing
//!   tile re-queues its whole *query* (the schedule collapses repeats).
//!
//! A method plugs in a [`CandidateGenerator`] and a [`TileGenerator`]: slot
//! decoding, per-query candidate iteration, per-round scratch state, tile
//! construction, and which [`DeviceSegments`](crate::DeviceSegments) scan a
//! tile's tag selects. A warp's (or tile's) comparison count rides in its
//! staged state and is summed in the ordered epilogue, which runs one warp
//! at a time, so no kernel body writes a counter other host workers share.

use crate::segments::DeviceQueries;
use std::sync::Arc;
use tdts_geom::{MatchRecord, PreparedQuery, TimeInterval};
use tdts_gpu_sim::{
    Device, DeviceBuffer, HostWork, Lane, LaunchReport, LoadBalance, NextBatch, RedoSchedule,
    ResultBuffer, SearchError, SearchReport, Tile, Warp, WarpStash, MAX_WARP_LANES,
};

/// Instruction cost of reading a schedule entry / index arithmetic.
pub const SCHEDULE_INSTR: u64 = 4;

/// Work one lane reports back to the shared thread-per-query skeleton.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaneWork {
    /// Refinement comparisons performed (the report's `comparisons`).
    pub compared: u64,
    /// Bytes of candidate-buffer writes, which the driver flushes as one
    /// coalesced warp write per warp before its result commit (only
    /// `GPUSpatial`'s `U_k` gather stages any).
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

    /// The first round's slots, one thread each, read as a redo round's
    /// ids are; `None` (the default) runs query `i` on thread `i`.
    /// GPUSpatioTemporal launches its padded execution order.
    fn first_round_slots(&self) -> Option<&DeviceBuffer<u32>> {
        None
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

    /// The error when a single query cannot complete even alone in a batch;
    /// the last round's state names the cause.
    fn stuck_error(&self, result_capacity: usize) -> SearchError {
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
    const TILE_SETUP_INSTR: u64 = SCHEDULE_INSTR;

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

/// The redo-round loop both kernel shapes share. `launch` runs one round
/// over every query (`None`) or the redo ids, committing into the result
/// and redo buffers, and returns the launch and its comparison count;
/// `stuck` names the error when a lone query cannot complete. Returns the
/// raw (sorted-position, undeduplicated) matches.
fn run_rounds<L>(
    device: &Arc<Device>,
    n_queries: usize,
    result_capacity: usize,
    redo_capacity: usize,
    report: &mut SearchReport,
    stuck: impl FnOnce() -> SearchError,
    mut launch: L,
) -> Result<Vec<MatchRecord>, SearchError>
where
    L: FnMut(
        Option<Vec<u32>>,
        &ResultBuffer<MatchRecord>,
        &ResultBuffer<u32>,
    ) -> Result<(LaunchReport, u64), SearchError>,
{
    let mut results = device.alloc_result::<MatchRecord>(result_capacity)?;
    let mut redo = device.alloc_result::<u32>(redo_capacity)?;

    let mut matches: Vec<MatchRecord> = Vec::new();
    let mut ids = None; // None = all queries
    let mut batch_len = n_queries;
    let mut redo_schedule = RedoSchedule::default();

    loop {
        let (round, compared) = launch(ids.take(), &results, &redo)?;
        report.comparisons += compared;
        report.divergent_warps += round.divergent_warps as u64;
        report.totals.add(&round.totals);
        report.load.merge(&LoadBalance::from(&round));

        let produced = results.len();
        device.charge_download(produced * std::mem::size_of::<MatchRecord>());
        matches.extend(results.drain_to_host());
        let redo_ids = redo.drain_to_host();
        device.charge_download(redo_ids.len() * std::mem::size_of::<u32>());

        match redo_schedule.next(redo_ids, batch_len) {
            NextBatch::Done => break,
            NextBatch::Stuck => return Err(stuck()),
            NextBatch::Ids(next) => {
                report.redo_rounds += 1;
                batch_len = next.len();
                ids = Some(next);
            }
        }
    }
    Ok(matches)
}

/// Run the thread-per-query protocol to completion: a redo round uploads
/// its ids and launches one thread per id.
pub(crate) fn run_thread_per_query<G: CandidateGenerator>(
    device: &Arc<Device>,
    generator: &G,
    n_queries: usize,
    result_capacity: usize,
    report: &mut SearchReport,
) -> Result<Vec<MatchRecord>, SearchError> {
    let mut batch: Option<DeviceBuffer<u32>> = None; // None = all queries
    let mut round = None;
    let slots = n_queries; // redo slots: one per query
    let stuck = || generator.stuck_error(result_capacity);
    run_rounds(device, n_queries, result_capacity, slots, report, stuck, |ids, results, redo| {
        let batch_len = match ids {
            None => n_queries,
            Some(ids) => {
                let len = ids.len();
                batch = Some(device.upload(ids)?);
                len
            }
        };
        // The last round's state goes only after the next round's ids are
        // on the device, then this round's is allocated.
        round = None;
        let round = &*round.insert(generator.begin_round(batch_len)?);
        let order = batch.as_ref().or(generator.first_round_slots());
        let threads = order.map_or(n_queries, DeviceBuffer::len);
        let mut comparisons = 0u64;
        let launch = device.launch_warps_ordered(
            threads,
            |warp| {
                let mut stash = results.warp_stash();
                let mut qids = [0u32; MAX_WARP_LANES];
                let mut scratch_bytes = 0u64;
                let mut compared = 0u64;
                warp.for_each_lane(|lane| {
                    let slot = match order {
                        None => lane.global_id as u32,
                        Some(ids) => ids.read(lane, lane.global_id),
                    };
                    let Some(qid) = generator.decode_slot(lane, slot) else {
                        return;
                    };
                    qids[lane.lane_index()] = qid;
                    let work = generator.run_query(lane, qid, &mut stash, round);
                    scratch_bytes += work.scratch_bytes;
                    compared += work.compared;
                });
                // The lanes' staged scratch chunks go out as coalesced
                // traffic before the result commit.
                warp.gmem_write(scratch_bytes);
                (stash, qids, compared)
            },
            // Warp epilogue, in warp order: the comparison count, one cursor
            // bump for the warp's matches, then redo ids for lanes that lost
            // records.
            |warp, (mut stash, qids, compared)| {
                comparisons += compared;
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
        Ok((launch, comparisons))
    })
}

/// Run the warp-per-tile protocol to completion. Tile decomposition runs on
/// the host once per round (charged; a redo round re-cuts the redo ids'
/// tiles); each warp reads its tile's query once through the leader,
/// broadcasts it, and prepares it once for the whole tile; the warp then
/// scans the tile once, each lane charged its share
/// ([`TileGenerator::refine_tile`]) against the query prepared at distance
/// `d`.
pub(crate) fn run_warp_per_tile<G: TileGenerator>(
    device: &Arc<Device>,
    generator: &G,
    queries: &DeviceQueries,
    d: f64,
    n_queries: usize,
    result_capacity: usize,
    report: &mut SearchReport,
) -> Result<Vec<MatchRecord>, SearchError> {
    let tile_size = device.config().tile_size;
    let cut = |ids: Option<&[u32]>| -> Vec<Tile> {
        let mut tiles = Vec::new();
        let mut push = |qid: u32| generator.push_tiles(&mut tiles, qid, tile_size);
        match ids {
            None => (0..n_queries as u32).for_each(&mut push),
            Some(ids) => ids.iter().copied().for_each(&mut push),
        }
        device.charge_host(HostWork::Tiles(tiles.len()));
        tiles
    };

    let mut tiles = cut(None);
    // Redo slots: each tile stages at most one redo id (its query); the
    // first round has the most tiles, later rounds cover subsets of its
    // queries.
    let slots = tiles.len().max(1);
    let stuck = || SearchError::ResultCapacityTooSmall { capacity: result_capacity };
    run_rounds(device, n_queries, result_capacity, slots, report, stuck, |ids, results, redo| {
        if let Some(ids) = ids {
            tiles = cut(Some(&ids));
        }
        let queue = device.work_queue(std::mem::take(&mut tiles))?;
        let mut comparisons = 0u64;
        let launch = device.launch_persistent_ordered(
            &queue,
            // Each host worker stages its tiles' matches in one stash.
            |warp, stash: &mut Option<WarpStash<'_, MatchRecord>>, tile| {
                let stash = stash.get_or_insert_with(|| results.warp_stash());
                let before = stash.len();
                // The warp leader reads the tile's query once and broadcasts
                // it (__shfl_sync analogue): converged charges, one row.
                let q = PreparedQuery::new(&queries.broadcast(warp, tile.query as usize), d);
                warp.instr(G::TILE_SETUP_INSTR);
                let compared =
                    generator.refine_tile(warp, &tile, &q, |lane, entry_pos, interval| {
                        stash.stage(lane, MatchRecord::new(tile.query, entry_pos, interval))
                    });
                (stash.len() - before, tile.query, compared)
            },
            // Tile epilogue, in queue order: the tile's matches are the
            // oldest its worker's stash holds.
            |warp, stash, (staged, query, compared)| {
                comparisons += compared;
                let stash = stash.as_mut().expect("the tile's body ran on this worker");
                if stash.commit_oldest(warp, staged) != 0 {
                    // Any lost record re-queues the whole query.
                    let mut redo_stash = redo.warp_stash();
                    redo_stash.stage_at(0, query);
                    redo_stash.commit(warp);
                }
            },
        );
        Ok((launch, comparisons))
    })
}
