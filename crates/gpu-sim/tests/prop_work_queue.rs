//! Property tests for the work queue and persistent-warp launches:
//! exactly-once tile dispatch, exact atomic accounting, and determinism of
//! the simulated dispatch replay.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use tdts_gpu_sim::{Device, DeviceConfig, Tile};

fn tiny_with(warp: usize, sms: usize, tile_size: usize) -> std::sync::Arc<Device> {
    let mut c = DeviceConfig::test_tiny();
    c.warp_size = warp;
    c.num_sms = sms;
    c.tile_size = tile_size;
    Device::new(c).unwrap()
}

/// Tiles for one synthetic range per query, of the given lengths.
fn tiles_for(lens: &[u32], tile_size: usize) -> Vec<Tile> {
    let mut tiles = Vec::new();
    for (q, &len) in lens.iter().enumerate() {
        Tile::split_into(&mut tiles, q as u32, 0, len, 0, tile_size);
    }
    tiles
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `split_into` covers every candidate position exactly once, in order,
    /// with no tile longer than `tile_size`.
    #[test]
    fn split_partitions_the_range(
        lo in 0u32..1000,
        len in 0u32..5000,
        tile_size in 1usize..600,
        tag in 0u32..5,
    ) {
        let mut tiles = Vec::new();
        Tile::split_into(&mut tiles, 3, lo, lo + len, tag, tile_size);
        prop_assert_eq!(tiles.len(), (len as usize).div_ceil(tile_size));
        let mut pos = lo;
        for t in &tiles {
            prop_assert_eq!(t.query, 3);
            prop_assert_eq!(t.tag, tag);
            prop_assert_eq!(t.lo, pos);
            prop_assert!(t.len() <= tile_size && !t.is_empty());
            pos = t.hi;
        }
        prop_assert_eq!(pos, lo + len);
    }

    /// A persistent launch runs every enqueued tile exactly once and charges
    /// exactly one cursor atomic per tile plus one failed probe per warp.
    #[test]
    fn persistent_launch_dispatches_exactly_once(
        lens in proptest::collection::vec(0u32..200, 0..40),
        warp in 1usize..16,
        sms in 1usize..8,
        tile_size in 1usize..64,
    ) {
        let dev = tiny_with(warp, sms, tile_size);
        let tiles = tiles_for(&lens, tile_size);
        let queue = dev.work_queue(tiles.clone()).unwrap();
        let entries_run = AtomicU64::new(0);
        let report = dev.launch_persistent(&queue, |warp, tile| {
            warp.for_each_lane(|lane| {
                let mut i = tile.lo as usize + lane.lane_index();
                while i < tile.hi as usize {
                    lane.instr(1);
                    entries_run.fetch_add(1, Ordering::Relaxed);
                    i += dev.config().warp_size;
                }
            });
        });
        let total_entries: u64 = lens.iter().map(|&l| l as u64).sum();
        prop_assert_eq!(entries_run.load(Ordering::Relaxed), total_entries);
        prop_assert_eq!(report.totals.instructions, total_entries);
        let grid = dev.config().persistent_warps().min(tiles.len());
        prop_assert_eq!(report.warps, grid);
        prop_assert_eq!(report.tiles_dispatched, tiles.len() as u64);
        prop_assert_eq!(report.queue_atomics, (tiles.len() + grid) as u64);
        prop_assert_eq!(report.totals.atomics, report.queue_atomics);
    }

    /// The simulated cost of a persistent launch is a deterministic function
    /// of the tiles — independent of how the host's thread pool raced
    /// through them.
    #[test]
    fn persistent_launch_is_deterministic(
        lens in proptest::collection::vec(1u32..300, 1..32),
        warp in 1usize..16,
        tile_size in 1usize..64,
    ) {
        let dev = tiny_with(warp, 2, tile_size);
        let kernel = |warp: &mut tdts_gpu_sim::Warp, tile: Tile| {
            warp.for_each_lane(|lane| {
                let mut i = tile.lo as usize + lane.lane_index();
                while i < tile.hi as usize {
                    lane.instr(7);
                    lane.gmem_read(16);
                    i += dev.config().warp_size;
                }
            });
            warp.gmem_write(8);
        };
        let r1 = dev.launch_persistent(&dev.work_queue(tiles_for(&lens, tile_size)).unwrap(), kernel);
        let r2 = dev.launch_persistent(&dev.work_queue(tiles_for(&lens, tile_size)).unwrap(), kernel);
        prop_assert_eq!(r1.sim_exec_seconds, r2.sim_exec_seconds);
        prop_assert_eq!(r1.max_warp_cycles, r2.max_warp_cycles);
        prop_assert_eq!(r1.mean_warp_cycles, r2.mean_warp_cycles);
        prop_assert_eq!(r1.totals, r2.totals);
    }
}
