//! Seeded defects: every sanitizer detector must actually fire.
//!
//! Each fixture builds a sanitized device (drains are paired with download
//! charges so the transfer check stays quiet unless it is the defect),
//! injects one defect a real kernel could exhibit, and asserts the *exact*
//! structured diagnostic — kind, buffer, offset, launch shape, and lanes.
//! Without the sanitizer the same hard defects keep their legacy panic.

use std::sync::Arc;
use tdts_gpu_sim::{Device, DeviceConfig, FindingKind, Lane, SanitizerMode, Tile};

fn device(mode: SanitizerMode) -> Arc<Device> {
    Device::new(DeviceConfig { sanitizer: mode, ..DeviceConfig::test_tiny() }).unwrap()
}

/// Launch a lane-level kernel over `threads` threads, with no epilogue.
fn per_lane(dev: &Device, threads: usize, kernel: impl Fn(&mut Lane) + Sync) {
    dev.launch_warps_ordered(threads, |warp| warp.for_each_lane(&kernel), |_, ()| {});
}

/// The one finding of a single-defect fixture.
fn sole_finding(dev: &Device) -> tdts_gpu_sim::Finding {
    let report = dev.sanitizer_report();
    assert_eq!(report.findings.len(), 1, "expected exactly one finding:\n{report}");
    report.findings[0].clone()
}

#[test]
fn oob_device_buffer_read_is_reported_and_neutralised() {
    let dev = device(SanitizerMode::Full);
    let buf = dev.alloc_from_host(vec![11u32, 22, 33]).unwrap();
    per_lane(&dev, 1, |lane| {
        // Reads past the length are reported and neutralised to the first
        // element instead of crashing the whole simulated kernel.
        assert_eq!(buf.read(lane, 10), 11);
    });
    let f = sole_finding(&dev);
    assert_eq!(f.kind, FindingKind::OutOfBoundsRead);
    assert!(f.buffer.starts_with("DeviceBuffer<u32>#"), "{}", f.buffer);
    assert_eq!(f.offset, 10);
    assert_eq!(f.shape, "static-grid");
    assert_eq!(f.lanes, vec![0]);
    assert!(f.detail.contains("beyond length 3"), "{}", f.detail);
}

#[test]
fn oob_device_buffer_row_range_is_reported_and_neutralised() {
    // A run of ids past the end: one finding for the whole run at the first
    // element that does not exist, neutralised to "no slice". In-bounds runs
    // hand out the elements and report nothing.
    let dev = device(SanitizerMode::Full);
    let buf = dev.alloc_from_host(vec![11u32, 22, 33]).unwrap();
    per_lane(&dev, 1, |lane| {
        assert!(buf.row_range(lane, 1..5).is_none());
        assert_eq!(buf.row_range(lane, 1..3), Some(&[22, 33][..]));
        assert_eq!(buf.row_range(lane, 3..3), Some(&[][..]));
        // Handing out a run charges nothing: the caller posts the charge.
        assert!(lane.counters().is_zero());
    });
    let f = sole_finding(&dev);
    assert_eq!(f.kind, FindingKind::OutOfBoundsRead);
    assert!(f.buffer.starts_with("DeviceBuffer<u32>#"), "{}", f.buffer);
    assert_eq!(f.offset, 3);
    assert_eq!(f.lanes, vec![0]);
    assert!(f.detail.contains("beyond length 3"), "{}", f.detail);

    // Without a sanitizer it panics like a slice index.
    let dev = device(SanitizerMode::Off);
    let buf = dev.alloc_from_host(vec![11u32, 22, 33]).unwrap();
    let lane = Lane::new(0);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| buf.row_range(&lane, 1..5)));
    assert!(err.is_err());
}

#[test]
fn extended_and_compacted_buffers_bound_reads_by_their_new_length() {
    // Ingest grows a resident buffer in place and expiry compacts it: the
    // bounds every read and run is tested against move with it.
    let dev = device(SanitizerMode::Full);
    let mut buf = dev.alloc_from_host(vec![11u32, 22, 33]).unwrap();
    buf.extend(&[44, 55], &mut dev.reserve(8).unwrap());
    assert_eq!(dev.mem_used(), 5 * 4);
    per_lane(&dev, 1, |lane| {
        assert_eq!(buf.read(lane, 4), 55);
        assert_eq!(buf.row_range(lane, 2..5), Some(&[33, 44, 55][..]));
    });
    dev.assert_sanitizer_clean();

    buf.remove_positions(&[0, 3]);
    assert_eq!(buf.as_slice(), &[22, 33, 55]);
    assert_eq!(dev.mem_used(), 3 * 4);
    per_lane(&dev, 1, |lane| {
        // The old length no longer holds: past the new end is reported and
        // neutralised to the (new) first element.
        assert_eq!(buf.read(lane, 4), 22);
    });
    let f = sole_finding(&dev);
    assert_eq!(f.kind, FindingKind::OutOfBoundsRead);
    assert!(f.buffer.starts_with("DeviceBuffer<u32>#"), "{}", f.buffer);
    assert_eq!(f.offset, 4);
    assert!(f.detail.contains("beyond length 3"), "{}", f.detail);

    // Without a sanitizer the same read panics like a slice index.
    let dev = device(SanitizerMode::Off);
    let mut buf = dev.alloc_from_host(vec![11u32, 22, 33]).unwrap();
    buf.extend(&[44], &mut dev.reserve(4).unwrap());
    buf.remove_positions(&[1, 2]);
    assert_eq!(buf.as_slice(), &[11, 44]);
    let mut lane = Lane::new(0);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| buf.read(&mut lane, 2)));
    assert!(err.is_err());
}

#[test]
fn uninitialized_scratch_read_is_reported_and_neutralised() {
    let dev = device(SanitizerMode::Full);
    let scratch = dev.alloc_scratch::<u32>(1, 8).unwrap();
    per_lane(&dev, 1, |lane| {
        let mut part = scratch.take_partition(0);
        assert!(part.push(lane, 5));
        // Word 3 of the partition was never written: the sanitizer reports it
        // and the read neutralises to the default value.
        assert_eq!(part.read(lane, 3), 0);
    });
    let f = sole_finding(&dev);
    assert_eq!(f.kind, FindingKind::UninitializedRead);
    assert!(f.buffer.starts_with("PartitionedScratch<u32>#"), "{}", f.buffer);
    assert_eq!(f.offset, 3);
    assert_eq!(f.lanes, vec![0]);
    assert!(f.detail.contains("only 1 word(s) were written"), "{}", f.detail);
}

#[test]
fn unacknowledged_stash_overflow_is_lost_records() {
    // A stash commit drops records (result buffer full) and the kernel
    // neither stages redo ids nor does the host check the overflow flag:
    // the undercount must surface instead of vanishing.
    let dev = device(SanitizerMode::Full);
    let mut results = dev.alloc_result::<u32>(1).unwrap();
    dev.launch_warps_ordered(
        2,
        |warp| {
            let mut stash = results.warp_stash();
            warp.for_each_lane(|lane| {
                stash.stage(lane, lane.global_id as u32);
            });
            stash
        },
        |warp, mut stash| {
            let dropped = stash.commit(warp);
            assert_ne!(dropped, 0, "fixture must overflow");
        },
    );
    // Deliberately no `results.overflowed()` check and no redo commit.
    assert_eq!(dev.sanitizer_checkpoint(), 1);
    let f = sole_finding(&dev);
    assert_eq!(f.kind, FindingKind::LostRecords);
    assert!(f.buffer.starts_with("ResultBuffer<u32>#"), "{}", f.buffer);
    assert_eq!(f.launch, 1);
    assert_eq!(f.shape, "static-grid");
    assert_eq!(f.lanes, vec![0], "the losing warp's index");
    assert!(f.detail.contains("dropped 1 record(s)"), "{}", f.detail);
    let _ = results.drain_to_host();
}

#[test]
fn overflow_acknowledged_by_host_check_is_clean() {
    // Same overflow, but the host checks the flag (host-driven redo): no
    // finding.
    let dev = device(SanitizerMode::Full);
    let mut results = dev.alloc_result::<u32>(1).unwrap();
    dev.launch_warps_ordered(
        2,
        |warp| {
            let mut stash = results.warp_stash();
            warp.for_each_lane(|lane| {
                stash.stage(lane, lane.global_id as u32);
            });
            stash
        },
        |warp, mut stash| {
            stash.commit(warp);
        },
    );
    assert!(results.overflowed());
    let out = results.drain_to_host();
    dev.charge_download(out.len() * std::mem::size_of::<u32>());
    assert_eq!(dev.sanitizer_checkpoint(), 0);
    dev.assert_sanitizer_clean();
}

#[test]
fn malformed_tile_is_reported_and_clamped() {
    let dev = device(SanitizerMode::Full);
    let tiles = vec![
        Tile { query: 0, lo: 0, hi: 4, tag: 0 },
        Tile { query: 3, lo: 9, hi: 2, tag: 0 }, // hi < lo: Tile::len underflows
    ];
    let queue = dev.work_queue(tiles).unwrap();
    assert!(queue.tile_at(1).is_empty(), "malformed tile must be clamped empty");
    assert_eq!(queue.tile_at(0).len(), 4, "well-formed tiles untouched");
    let report = dev.sanitizer_report();
    let f = report
        .findings
        .iter()
        .find(|f| f.kind == FindingKind::MalformedTile)
        .expect("malformed tile finding");
    assert_eq!(f.offset, 1, "tile position, not byte offset");
    assert_eq!(f.shape, "host");
    assert!(f.detail.contains("query 3 has hi 2 < lo 9"), "{}", f.detail);
}

#[test]
fn uncharged_drain_is_a_transfer_mismatch() {
    let dev = device(SanitizerMode::Full);
    let mut results = dev.alloc_result::<u32>(8).unwrap();
    dev.launch_warps_ordered(
        3,
        |warp| {
            let mut stash = results.warp_stash();
            warp.for_each_lane(|lane| stash.stage(lane, lane.global_id as u32));
            stash
        },
        |warp, mut stash| {
            stash.commit(warp);
        },
    );
    let out = results.drain_to_host();
    assert_eq!(out.len(), 3);
    // Deliberately no `charge_download`: the simulated response time now
    // pretends 12 bytes never crossed the bus.
    assert_eq!(dev.sanitizer_checkpoint(), 1);
    let f = sole_finding(&dev);
    assert_eq!(f.kind, FindingKind::TransferMismatch);
    assert_eq!(f.buffer, "d2h transfers");
    assert!(f.detail.contains("0 bytes charged"), "{}", f.detail);
    assert!(f.detail.contains("12 bytes drained"), "{}", f.detail);
}

#[test]
fn forgotten_buffer_shows_as_live_allocation() {
    let dev = device(SanitizerMode::Full);
    {
        let _dropped = dev.alloc_from_host(vec![1u32]).unwrap();
    }
    assert!(dev.sanitizer_report().live_allocations.is_empty(), "dropped buffers must deregister");
    let leaked = dev.alloc_from_host(vec![2u64, 3]).unwrap();
    std::mem::forget(leaked);
    let live = dev.sanitizer_report().live_allocations;
    assert_eq!(live.len(), 1);
    assert!(live[0].starts_with("DeviceBuffer<u64>#"), "{}", live[0]);
}

#[test]
fn hard_oob_read_panics_without_a_sanitizer() {
    // The neutralising path belongs to the sanitizer: an unsanitized device
    // keeps the legacy panic, and records nothing.
    let dev = device(SanitizerMode::Off);
    let buf = dev.alloc_from_host(vec![1u32]).unwrap();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        per_lane(&dev, 1, |lane| {
            buf.read(lane, 5);
        });
    }));
    assert!(err.is_err(), "an out-of-bounds read must panic with the sanitizer off");
    assert!(dev.sanitizer_report().is_clean());
}

#[test]
fn persistent_launch_findings_carry_the_persistent_shape() {
    let dev = device(SanitizerMode::Full);
    let entries = dev.alloc_from_host(vec![1u32, 2, 3, 4]).unwrap();
    let queue = dev.work_queue(vec![Tile { query: 0, lo: 0, hi: 4, tag: 0 }]).unwrap();
    dev.launch_persistent_ordered(
        &queue,
        |warp, _: &mut (), tile| {
            warp.for_each_lane(|lane| {
                // Off-by-one: reads one element past the tile's end.
                let _ = entries.read(lane, tile.hi as usize + lane.lane_index());
            });
        },
        |_, _, ()| {},
    );
    let report = dev.sanitizer_report();
    let f = &report.findings[0];
    assert_eq!(f.kind, FindingKind::OutOfBoundsRead);
    assert_eq!(f.shape, "persistent-warp-per-tile");
    assert_eq!(f.offset, 4);
}
