//! Property tests for warp-aggregated result writes: a [`WarpStash`] commit
//! must behave like appending the lanes' records, in lane order, to a plain
//! `Vec` truncated at the buffer's capacity — same stored multiset, same
//! dropped-lane mask, same overflow flag — while paying one global atomic
//! per flush round rather than one per record.
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
        let launch = dev.launch_warps(threads, |warp| {
            let mut stash = results.warp_stash();
            warp.for_each_lane(|lane| {
                for k in 0..items {
                    stash.stage(lane, lane.global_id as u32 * 100 + k as u32);
                }
            });
            assert_eq!(stash.commit(warp), 0, "no lane may overflow here");
        });
        prop_assert!(!results.overflowed());
        prop_assert_eq!(results.drain_to_host().len(), capacity);
        // Every lane stages `items` records: ceil(items / stash) rounds per warp.
        let rounds = items.div_ceil(config.warp_stash_capacity as u64);
        prop_assert_eq!(launch.totals.atomics, launch.warps as u64 * rounds);
        prop_assert!(launch.totals.atomics < threads as u64 * items);
    }
}
