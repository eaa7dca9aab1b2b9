//! Property tests for warp-aggregated result writes: a [`WarpStash`] commit
//! must behave like appending the lanes' records, in lane order, to a plain
//! `Vec` truncated at the buffer's capacity — same stored records in the
//! same order, same dropped-lane mask, same overflow flag — while paying one
//! global atomic per flush round rather than one per record.
//!
//! [`WarpStash`]: tdts_gpu_sim::WarpStash

use proptest::prelude::*;
use std::sync::Arc;
use tdts_gpu_sim::{Device, DeviceConfig, Warp};

fn device() -> Arc<Device> {
    Device::new(DeviceConfig::test_tiny()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn commit_matches_a_truncated_vec(
        capacity in 1usize..40,
        lanes in proptest::collection::vec(
            proptest::collection::vec(0u32..10_000, 0..12),
            1usize..=4,
        ),
    ) {
        let dev = device();
        let mut results = dev.alloc_result::<u32>(capacity).unwrap();
        let mut warp = Warp::standalone(lanes.len());
        let mut stash = results.warp_stash();
        warp.for_each_lane(|lane| {
            for &item in &lanes[lane.lane_index()] {
                stash.stage(lane, item);
            }
        });
        let dropped = stash.commit(&mut warp);
        let overflowed = results.overflowed();
        let mut stored = results.drain_to_host();

        // The model: one Vec, lanes appended in order, cut at capacity.
        let mut model: Vec<u32> = Vec::new();
        let mut model_dropped = 0u64;
        for (li, items) in lanes.iter().enumerate() {
            for &item in items {
                if model.len() < capacity {
                    model.push(item);
                } else {
                    model_dropped |= 1 << li;
                }
            }
        }
        let total: usize = lanes.iter().map(Vec::len).sum();

        stored.sort_unstable();
        model.sort_unstable();
        prop_assert_eq!(stored, model);
        prop_assert_eq!(dropped, model_dropped);
        prop_assert_eq!(overflowed, total > capacity);
    }

    /// Lanes stage in an arbitrary interleaving, as a tile scan's round
    /// robin does, mixed with epilogue `stage_at`s and `mark_dropped`s. The
    /// commit writes lane-major, each lane's records in staging order, and
    /// charges the warp per flush round of the fullest lane.
    #[test]
    fn commit_is_lane_major_and_staging_stable(
        capacity in 1usize..60,
        lane_count in 1usize..=6,
        // (op, lane, item): op 0..=5 stages from the lane, 6..=7 stages on
        // its behalf, 8 marks it dropped.
        ops in proptest::collection::vec((0u8..9, 0usize..6, 0u32..10_000), 0..64),
    ) {
        let dev = device();
        let stash_capacity = dev.config().warp_stash_capacity;
        let mut results = dev.alloc_result::<u32>(capacity).unwrap();
        let mut warp = Warp::standalone(lane_count);
        let mut stash = results.warp_stash();

        let mut per_lane: Vec<Vec<u32>> = vec![Vec::new(); lane_count];
        let mut lane_stages = vec![0u64; lane_count];
        let mut marked = 0u64;
        for &(op, lane, item) in &ops {
            let li = lane % lane_count;
            match op {
                0..=5 => {
                    stash.stage(&mut warp.lanes_mut()[li], item);
                    lane_stages[li] += 1;
                    per_lane[li].push(item);
                }
                6..=7 => {
                    stash.stage_at(li, item);
                    per_lane[li].push(item);
                }
                _ => {
                    stash.mark_dropped(&warp.lanes_mut()[li]);
                    marked |= 1 << li;
                }
            }
        }
        let dropped = stash.commit(&mut warp);
        // The commit emptied the stash: a second one flushes and charges
        // nothing.
        let first = *warp.counters();
        prop_assert_eq!(stash.commit(&mut warp), 0);
        prop_assert_eq!(*warp.counters(), first);
        let overflowed = results.overflowed();
        let stored = results.drain_to_host();

        // The model: lanes concatenated in lane order, cut at capacity.
        let mut model: Vec<u32> = Vec::new();
        let mut model_dropped = marked;
        for (li, items) in per_lane.iter().enumerate() {
            for &item in items {
                if model.len() < capacity {
                    model.push(item);
                } else {
                    model_dropped |= 1 << li;
                }
            }
        }
        let total: usize = per_lane.iter().map(Vec::len).sum();
        prop_assert_eq!(&stored, &model);
        prop_assert_eq!(dropped, model_dropped);
        prop_assert_eq!(overflowed, total > capacity);

        // One flush round per `warp_stash_capacity` records of the fullest
        // lane, each `COMMIT_INSTR` (8) converged instructions and one
        // atomic; coalesced write bytes for the stored records only.
        let rounds = per_lane.iter().map(|items| items.len().div_ceil(stash_capacity)).max();
        let rounds = rounds.unwrap_or(0) as u64;
        let counters = warp.counters();
        prop_assert_eq!(counters.instructions, rounds * 8);
        prop_assert_eq!(counters.atomics, rounds);
        prop_assert_eq!(counters.gmem_write_bytes, (stored.len() * 4) as u64);
        prop_assert_eq!(counters.gmem_read_bytes, 0);
        for (lane, &stages) in warp.lanes_mut().iter().zip(&lane_stages) {
            prop_assert_eq!(lane.counters().instructions, stages);
        }
    }

    /// A full launch writing through the warp stash performs one
    /// `fetch_add` per stash flush round, not one per record.
    #[test]
    fn launch_atomics_count_flush_rounds(
        threads in 32usize..256,
        items in 1u64..8,
    ) {
        let dev = device();
        let config = dev.config();
        let capacity = threads * items as usize;
        let mut results = dev.alloc_result::<u32>(capacity).unwrap();
        let launch = dev.launch_warps_ordered(
            threads,
            |warp| {
                let mut stash = results.warp_stash();
                warp.for_each_lane(|lane| {
                    for k in 0..items {
                        stash.stage(lane, lane.global_id as u32 * 100 + k as u32);
                    }
                });
                stash
            },
            |warp, mut stash| assert_eq!(stash.commit(warp), 0, "no lane may overflow here"),
        );
        prop_assert!(!results.overflowed());
        prop_assert_eq!(results.drain_to_host().len(), capacity);
        // Every lane stages `items` records: ceil(items / stash) rounds per warp.
        let rounds = items.div_ceil(config.warp_stash_capacity as u64);
        prop_assert_eq!(launch.totals.atomics, launch.warps as u64 * rounds);
        prop_assert!(launch.totals.atomics < threads as u64 * items);
    }
}
