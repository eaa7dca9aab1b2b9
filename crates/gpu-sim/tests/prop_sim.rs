//! Property tests for the software GPU: determinism, conservation of work,
//! and buffer safety under concurrency.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use tdts_gpu_sim::{Device, DeviceConfig, Lane, LaunchReport};

fn tiny_with(warp: usize, sms: usize) -> std::sync::Arc<Device> {
    let mut c = DeviceConfig::test_tiny();
    c.warp_size = warp;
    c.num_sms = sms;
    Device::new(c).unwrap()
}

/// Launch a lane-level kernel over `threads` threads, with no epilogue.
fn per_lane(dev: &Device, threads: usize, kernel: impl Fn(&mut Lane) + Sync) -> LaunchReport {
    dev.launch_warps_ordered(threads, |warp| warp.for_each_lane(&kernel), |_, ()| {})
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Simulated time is deterministic regardless of host scheduling, and
    /// all threads execute exactly once.
    #[test]
    fn launch_determinism(
        threads in 0usize..3000,
        warp in 1usize..64,
        sms in 1usize..16,
        work in 1u64..100,
    ) {
        let dev = tiny_with(warp, sms);
        let ran = AtomicUsize::new(0);
        let kernel = |lane: &mut Lane| {
            ran.fetch_add(1, Ordering::Relaxed);
            lane.instr(work * (1 + lane.global_id as u64 % 7));
            lane.gmem_read(8 * (lane.global_id as u64 % 3));
        };
        let r1 = per_lane(&dev, threads, kernel);
        prop_assert_eq!(ran.swap(0, Ordering::Relaxed), threads);
        let r2 = per_lane(&dev, threads, kernel);
        prop_assert_eq!(ran.load(Ordering::Relaxed), threads);
        prop_assert_eq!(r1.sim_exec_seconds, r2.sim_exec_seconds);
        prop_assert_eq!(r1.totals, r2.totals);
        prop_assert_eq!(r1.warps, threads.div_ceil(warp));
    }

    /// Result buffers never lose or duplicate items below capacity and never
    /// store more than capacity above it.
    #[test]
    fn result_buffer_conservation(
        threads in 1usize..2000,
        capacity in 1usize..2500,
    ) {
        let dev = tiny_with(32, 4);
        let mut buf = dev.alloc_result::<u32>(capacity).unwrap();
        dev.launch_warps_ordered(
            threads,
            |warp| {
                let mut stash = buf.warp_stash();
                warp.for_each_lane(|lane| stash.stage(lane, lane.global_id as u32));
                stash
            },
            |warp, mut stash| {
                stash.commit(warp);
            },
        );
        prop_assert_eq!(buf.attempted(), threads);
        if threads <= capacity {
            prop_assert!(!buf.overflowed());
            let mut got = buf.drain_to_host();
            got.sort_unstable();
            let expect: Vec<u32> = (0..threads as u32).collect();
            prop_assert_eq!(got, expect);
        } else {
            prop_assert!(buf.overflowed());
            let got = buf.drain_to_host();
            prop_assert_eq!(got.len(), capacity);
            // Each stored item is unique and within range.
            let mut sorted = got.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), capacity);
            prop_assert!(sorted.iter().all(|&v| (v as usize) < threads));
        }
    }

    /// Scratch partitions never bleed into each other even when all threads
    /// write concurrently.
    #[test]
    fn scratch_isolation(threads in 1usize..300, per in 1usize..20) {
        let dev = tiny_with(8, 2);
        let scratch = dev.alloc_scratch::<u32>(threads, per).unwrap();
        per_lane(&dev, threads, |lane| {
            let mut p = scratch.take_partition(lane.global_id);
            for i in 0..per {
                assert!(p.push(lane, (lane.global_id * 1000 + i) as u32));
            }
            // Full now.
            assert!(!p.push(lane, u32::MAX));
            for i in 0..per {
                assert_eq!(p.read(lane, i), (lane.global_id * 1000 + i) as u32);
            }
        });
    }

    /// Adding SMs (more parallel hardware) never increases simulated time.
    #[test]
    fn more_sms_not_slower(threads in 1usize..2000, work in 1u64..50) {
        let d1 = tiny_with(8, 1);
        let d2 = tiny_with(8, 8);
        let kernel = |lane: &mut Lane| {
            lane.instr(work);
        };
        let t1 = per_lane(&d1, threads, kernel).sim_exec_seconds;
        let t2 = per_lane(&d2, threads, kernel).sim_exec_seconds;
        prop_assert!(t2 <= t1 + 1e-15);
    }

    /// Transfer cost is monotone in size and includes latency.
    #[test]
    fn transfer_monotone(a in 1usize..1_000_000, b in 1usize..1_000_000) {
        let c = DeviceConfig::test_tiny();
        let (small, large) = if a < b { (a, b) } else { (b, a) };
        prop_assert!(c.h2d_seconds(small) <= c.h2d_seconds(large));
        prop_assert!(c.h2d_seconds(small) >= c.transfer_latency);
    }
}
