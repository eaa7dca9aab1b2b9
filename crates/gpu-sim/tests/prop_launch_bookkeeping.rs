//! Property test: a launch's host bookkeeping is the cost model, exactly.
//!
//! Random warp-cooperative kernels — random per-lane instruction, read,
//! write and atomic charges, divergent `set_path` tags, records staged per
//! lane into a result buffer that overflows part-way through most
//! launches, and warps of 1 to 64 lanes — run through persistent and
//! static launches. Every field of the `LaunchReport`, float sums
//! included, and the order the records and redo ids are committed in must
//! equal a reference written out here plainly: fresh `Lane`s per warp,
//! reduced as the module docs of `launch` state the SIMT cost model, a
//! commit that counts its flush rounds lane by lane, and a separate
//! earliest-free replay of the tile queue.

use proptest::prelude::*;
use std::ops::Range;
use tdts_gpu_sim::{Counters, Device, DeviceConfig, Lane, LaunchReport, Tile, WarpStash};

/// Converged instructions the stash charges per flush round.
const COMMIT_INSTR: u64 = 8;
/// Bytes of one staged record.
const RECORD_BYTES: u64 = 8;
/// Bytes of one redo id.
const REDO_BYTES: u64 = 4;
/// Bytes of the tile descriptor a persistent warp reads per grab.
const TILE_BYTES: u64 = 16;

fn device(
    warp_size: usize,
    num_sms: usize,
    occupancy: f64,
    stash: usize,
) -> std::sync::Arc<Device> {
    let mut c = DeviceConfig::test_tiny();
    c.warp_size = warp_size;
    c.num_sms = num_sms;
    c.occupancy_factor = occupancy;
    c.warp_stash_capacity = stash;
    Device::new(c).unwrap()
}

/// A well-mixed 64-bit hash of `parts` (SplitMix64 steps).
fn mix(parts: &[u64]) -> u64 {
    let mut h = 0x243f_6a88_85a3_08d3u64;
    for &p in parts {
        h = (h ^ p).wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
    }
    h
}

/// One lane's work for item `key`, a function of the key and the lane's
/// index alone: its charges and control path, and the records it stages,
/// returned for the caller to stage.
fn lane_work(key: u64, divergence: u64, lane: &mut Lane) -> Vec<u64> {
    let h = mix(&[key, lane.lane_index() as u64]);
    lane.instr(h % 1000);
    lane.gmem_read((h >> 10) % 4096);
    lane.gmem_write((h >> 22) % 512);
    for _ in 0..(h >> 31) % 3 {
        lane.atomic();
    }
    if divergence > 0 {
        lane.set_path((h >> 40) % divergence);
        lane.set_path(divergence);
    }
    (0..(h >> 50) % 4).map(|k| mix(&[h, k])).collect()
}

/// A result buffer as the reference sees it: the cursor, the capacity and
/// the items stored, in slot order.
struct Buffer<T> {
    cursor: usize,
    capacity: usize,
    held: Vec<T>,
}

impl<T: Copy> Buffer<T> {
    fn new(capacity: usize) -> Self {
        Buffer { cursor: 0, capacity, held: Vec::new() }
    }

    /// Commit `staged` (lane, item) pairs, in staging order, for a warp
    /// whose converged charges are `warp`: lane-major slots from one
    /// cursor bump, one flush round per `stash_capacity` records of the
    /// deepest lane. Returns the mask of lanes that lost a record.
    fn commit(
        &mut self,
        staged: &[(usize, T)],
        stash_capacity: usize,
        item_bytes: u64,
        warp: &mut Counters,
    ) -> u64 {
        if staged.is_empty() {
            return 0;
        }
        let per_lane: Vec<usize> =
            (0..64).map(|l| staged.iter().filter(|&&(li, _)| li == l).count()).collect();
        let flushes = per_lane.iter().map(|n| n.div_ceil(stash_capacity)).max().unwrap() as u64;
        warp.instructions += flushes * COMMIT_INSTR;
        warp.atomics += flushes;
        let base = self.cursor;
        self.cursor += staged.len();
        let mut written = [0usize; 64];
        let mut dropped = 0u64;
        for &(li, item) in staged {
            let slot = base + per_lane[..li].iter().sum::<usize>() + written[li];
            written[li] += 1;
            if slot < self.capacity {
                self.held.push(item);
                warp.gmem_write_bytes += item_bytes;
            } else {
                dropped |= 1 << li;
            }
        }
        dropped
    }
}

/// The reference device: what one launch stores, and how it is priced.
struct Reference<'a> {
    config: &'a DeviceConfig,
    records: Buffer<u64>,
    redo: Buffer<u32>,
}

impl Reference<'_> {
    /// Run one warp of the threads `gids`, lane `l` doing the work of
    /// `keys(l)`, then its epilogue: commit the staged records and, when
    /// one was lost, the redo id. `warp` holds the body's converged
    /// charges. Returns `(cycles, divergent, totals)`.
    fn warp(
        &mut self,
        gids: Range<usize>,
        keys: impl Fn(usize) -> u64,
        divergence: u64,
        mut warp: Counters,
        redo_id: u32,
    ) -> (f64, bool, Counters) {
        let c = self.config;
        // A fresh lane per thread, its in-warp index its position.
        let mut lanes: Vec<Lane> = (0..gids.len()).map(Lane::new).collect();
        let mut staged = Vec::new();
        for (l, lane) in lanes.iter_mut().enumerate() {
            for record in lane_work(keys(l), divergence, lane) {
                lane.instr(1);
                staged.push((l, record));
            }
        }
        // The lanes' share: max-over-lanes instructions, summed traffic and
        // atomics, and `k` distinct control paths.
        let max_instructions = lanes.iter().map(|l| l.counters().instructions).max().unwrap();
        let mut totals = Counters::default();
        lanes.iter().for_each(|l| totals.add(l.counters()));
        let mut paths: Vec<u64> = lanes.iter().map(Lane::path).collect();
        paths.sort_unstable();
        paths.dedup();
        let k = paths.len();

        let cap = c.warp_stash_capacity;
        if self.records.commit(&staged, cap, RECORD_BYTES, &mut warp) != 0 {
            self.redo.commit(&[(0, redo_id)], cap, REDO_BYTES, &mut warp);
        }

        let divergent = k > 1;
        let alu =
            (k as f64 * max_instructions as f64 + warp.instructions as f64) * c.cycles_per_instr;
        let lane_bytes = (totals.gmem_read_bytes + totals.gmem_write_bytes) as f64;
        let lane_tx = (lane_bytes / c.gmem_transaction_bytes).ceil();
        let penalty = if divergent { c.uncoalesced_factor } else { 1.0 };
        let warp_bytes = (warp.gmem_read_bytes + warp.gmem_write_bytes) as f64;
        let warp_tx = (warp_bytes / c.gmem_transaction_bytes).ceil();
        let mem = (lane_tx * penalty + warp_tx) * c.cycles_per_gmem_transaction;
        let atom = (totals.atomics + warp.atomics) as f64 * c.cycles_per_atomic;
        totals.add(&warp);
        (alu + mem + atom, divergent, totals)
    }

    /// Round-robin per-warp `cycles` onto SMs and fill in the report.
    fn report(
        &self,
        threads: usize,
        cycles: &[f64],
        totals: Counters,
        divergent_warps: usize,
        queue: (u64, u64),
    ) -> LaunchReport {
        let c = self.config;
        let mut sm = vec![0.0f64; c.num_sms];
        for (w, &x) in cycles.iter().enumerate() {
            sm[w % c.num_sms] += x;
        }
        let max_sm = sm.iter().cloned().fold(0.0, f64::max);
        let warps = cycles.len();
        let mut sum = 0.0;
        for &x in cycles {
            sum += x;
        }
        LaunchReport {
            threads,
            warps,
            divergent_warps,
            totals,
            sim_exec_seconds: max_sm / c.occupancy_factor / c.clock_hz,
            launch_overhead_seconds: c.kernel_launch_overhead,
            max_warp_cycles: cycles.iter().cloned().fold(0.0, f64::max),
            mean_warp_cycles: if warps == 0 { 0.0 } else { sum / warps as f64 },
            last_wave_occupancy: match (warps, warps % c.num_sms) {
                (0, _) => 0.0,
                (_, 0) => 1.0,
                (_, rem) => rem as f64 / c.num_sms as f64,
            },
            tiles_dispatched: queue.0,
            queue_atomics: queue.1,
        }
    }
}

/// The key of lane `lane`'s share of `tile`.
fn tile_key(tile: &Tile, lane: usize) -> u64 {
    mix(&[tile.query as u64, tile.lo as u64, tile.hi as u64, tile.tag as u64, lane as u64])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A persistent launch: every report field, the records in commit
    /// order and the redo ids match the reference, whose tiles are
    /// dispatched by a replay of their own.
    #[test]
    fn persistent_launch_matches_the_reference(
        warp_size in 1usize..65,
        num_sms in 1usize..7,
        occupancy in 0usize..3,
        stash in 1usize..6,
        spec in proptest::collection::vec((0u32..40, 0u32..300, 0u32..5), 0..160),
        fill in 0usize..12,
    ) {
        let occupancy = [0.5, 1.0, 2.0][occupancy];
        let dev = device(warp_size, num_sms, occupancy, stash);
        let config = dev.config().clone();
        let tiles: Vec<Tile> = spec
            .iter()
            .map(|&(query, lo, tag)| Tile { query, lo, hi: lo + (lo % 13), tag })
            .collect();
        // Lanes stage 1.5 records on average: `fill` of 9 and more leaves
        // room for all of them.
        let capacity = (tiles.len() * warp_size * fill / 6).max(1);
        let mut results = dev.alloc_result::<u64>(capacity).unwrap();
        let mut redo = dev.alloc_result::<u32>(tiles.len().max(1)).unwrap();

        let queue = dev.work_queue(tiles.clone()).unwrap();
        let report = dev.launch_persistent_ordered(
            &queue,
            // Each host worker stages its tiles' records in one stash; a
            // tile's epilogue commits the oldest, its own.
            |warp, stash: &mut Option<WarpStash<'_, u64>>, tile| {
                let stash = stash.get_or_insert_with(|| results.warp_stash());
                let before = stash.len();
                warp.instr(u64::from(tile.tag));
                for lane in warp.lanes_mut() {
                    let key = tile_key(&tile, lane.lane_index());
                    for record in lane_work(key, u64::from(tile.tag), lane) {
                        stash.stage(lane, record);
                    }
                }
                (stash.len() - before, tile.query)
            },
            |warp, stash, (staged, query)| {
                let stash = stash.as_mut().expect("the body ran on this worker");
                if stash.commit_oldest(warp, staged) != 0 {
                    let mut redo_stash = redo.warp_stash();
                    redo_stash.stage_at(0, query);
                    redo_stash.commit(warp);
                }
            },
        );

        let mut reference = Reference {
            config: &config,
            records: Buffer::new(capacity),
            redo: Buffer::new(tiles.len().max(1)),
        };
        let grab = Counters { atomics: 1, gmem_read_bytes: TILE_BYTES, ..Counters::default() };
        let costs: Vec<(f64, bool, Counters)> = tiles
            .iter()
            .map(|tile| {
                let mut warp = grab;
                warp.instructions += u64::from(tile.tag);
                let keys = |l| tile_key(tile, l);
                reference.warp(0..warp_size, keys, u64::from(tile.tag), warp, tile.query)
            })
            .collect();
        // Dispatch replay: each tile, in queue order, to the warp that is
        // free earliest, ties to the lowest index.
        let grid = config.persistent_warps().min(tiles.len());
        let mut busy = vec![0.0f64; grid];
        for &(cycles, _, _) in &costs {
            let mut w = 0;
            for v in 1..grid {
                if busy[v] < busy[w] {
                    w = v;
                }
            }
            busy[w] += cycles;
        }
        let cycles: Vec<f64> = busy.iter().map(|b| b + config.cycles_per_atomic).collect();
        let mut totals = Counters::default();
        costs.iter().for_each(|(_, _, t)| totals.add(t));
        totals.atomics += grid as u64;
        let divergent = costs.iter().filter(|c| c.1).count();
        let n = tiles.len() as u64;
        let expect =
            reference.report(grid * warp_size, &cycles, totals, divergent, (n, n + grid as u64));

        prop_assert_eq!(report, expect);
        prop_assert_eq!(results.drain_to_host(), reference.records.held);
        prop_assert_eq!(redo.drain_to_host(), reference.redo.held);
    }

    /// A static launch of one thread per item: the same, warp by warp.
    #[test]
    fn static_launch_matches_the_reference(
        warp_size in 1usize..65,
        num_sms in 1usize..7,
        occupancy in 0usize..3,
        stash in 1usize..6,
        threads in 0usize..3000,
        divergence in 0u64..4,
        fill in 0usize..12,
        salt in 0u64..1000,
    ) {
        let occupancy = [0.5, 1.0, 2.0][occupancy];
        let dev = device(warp_size, num_sms, occupancy, stash);
        let config = dev.config().clone();
        let capacity = (threads * fill / 6).max(1);
        let mut results = dev.alloc_result::<u64>(capacity).unwrap();
        let warps = threads.div_ceil(warp_size);
        let mut redo = dev.alloc_result::<u32>(warps.max(1)).unwrap();

        let report = dev.launch_warps_ordered(
            threads,
            |warp| {
                let mut stash = results.warp_stash();
                warp.for_each_lane(|lane| {
                    let key = mix(&[salt, lane.global_id as u64]);
                    for record in lane_work(key, divergence, lane) {
                        stash.stage(lane, record);
                    }
                });
                stash
            },
            |warp, mut stash| {
                if stash.commit(warp) != 0 {
                    let mut redo_stash = redo.warp_stash();
                    redo_stash.stage_at(0, warp.index() as u32);
                    redo_stash.commit(warp);
                }
            },
        );

        let mut reference = Reference {
            config: &config,
            records: Buffer::new(capacity),
            redo: Buffer::new(warps.max(1)),
        };
        let costs: Vec<(f64, bool, Counters)> = (0..warps)
            .map(|w| {
                let first = w * warp_size;
                let gids = first..(first + warp_size).min(threads);
                let keys = |l| mix(&[salt, (first + l) as u64]);
                reference.warp(gids, keys, divergence, Counters::default(), w as u32)
            })
            .collect();
        let cycles: Vec<f64> = costs.iter().map(|c| c.0).collect();
        let mut totals = Counters::default();
        costs.iter().for_each(|(_, _, t)| totals.add(t));
        let divergent = costs.iter().filter(|c| c.1).count();
        let expect = reference.report(threads, &cycles, totals, divergent, (0, 0));

        prop_assert_eq!(report, expect);
        prop_assert_eq!(results.drain_to_host(), reference.records.held);
        prop_assert_eq!(redo.drain_to_host(), reference.redo.held);
    }
}
