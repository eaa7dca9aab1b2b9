//! Device-side helpers shared by the GPU search kernels.
//!
//! These wrap the `compare()` refinement of Algorithms 1–3 with the cost
//! accounting the simulator needs: reading a segment charges global memory
//! per column touched (see [`DeviceSegments`]), the quadratic
//! solve charges a fixed instruction count, and a match is staged into the
//! warp's result stash, which the warp commits with one cursor bump.

use crate::segments::DeviceSegments;
use tdts_geom::{MatchRecord, PreparedQuery, Segment};
use tdts_gpu_sim::{Lane, WarpStash};

/// Instruction cost of one continuous distance comparison (quadratic
/// coefficient computation + root solve + interval clamp). Charged whatever
/// the outcome, so the comparison count and instruction totals are
/// independent of both the distance threshold and the temporal prefilter.
pub const COMPARE_INSTR: u64 = 48;

/// Instruction cost of reading a schedule entry / index arithmetic.
pub const SCHEDULE_INSTR: u64 = 4;

/// Read the query segment assigned to this thread, charging the access.
#[inline]
pub fn load_query(lane: &mut Lane, queries: &DeviceSegments, query_pos: u32) -> Segment {
    queries.read_segment(lane, query_pos as usize)
}

/// Compare entry `entry_pos` against query `q` and stage a result record on
/// a hit — one iteration of the refinement loop of Algorithms 1–3: load the
/// entry (16 or 64 bytes), run the continuous distance test and charge the
/// fixed compare cost. Staging never rejects: a full result buffer surfaces
/// at the warp's commit, which reports the lanes that lost records so the
/// host can redo their queries.
#[inline]
pub fn compare_and_stage(
    lane: &mut Lane,
    entries: &DeviceSegments,
    entry_pos: u32,
    q: &Segment,
    query_pos: u32,
    d: f64,
    stash: &mut WarpStash<'_, MatchRecord>,
) {
    let interval = entries.compare_within(lane, entry_pos as usize, q, d);
    lane.instr(COMPARE_INSTR);
    if let Some(interval) = interval {
        stash.stage(lane, MatchRecord::new(query_pos, entry_pos, interval));
    }
}

/// Refine the contiguous entry range `range[0]..range[1]` against the
/// prepared query `q` and stage a result record per hit — the whole
/// refinement loop of Algorithm 2 as one scan with one charge (see
/// [`DeviceSegments::refine_range`]). Returns the comparisons performed.
#[inline]
pub fn refine_range_and_stage(
    lane: &mut Lane,
    entries: &DeviceSegments,
    range: [u32; 2],
    q: &PreparedQuery,
    query_pos: u32,
    stash: &mut WarpStash<'_, MatchRecord>,
) -> u64 {
    entries.refine_range(lane, range[0]..range[1], q, |lane, entry_pos, interval| {
        stash.stage(lane, MatchRecord::new(query_pos, entry_pos, interval));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tdts_geom::{Point3, SegId, TimeInterval, TrajId};
    use tdts_gpu_sim::{Device, DeviceConfig, Warp};

    fn seg(x: f64, t0: f64) -> Segment {
        Segment::new(
            Point3::new(x, 0.0, 0.0),
            Point3::new(x + 1.0, 0.0, 0.0),
            t0,
            t0 + 1.0,
            SegId(0),
            TrajId(0),
        )
    }

    fn device() -> Arc<Device> {
        Device::new(DeviceConfig::test_tiny()).unwrap()
    }

    #[test]
    fn staging_charges_rows_and_one_flush() {
        let dev = device();
        let entries = DeviceSegments::alloc(&dev, &[seg(0.0, 0.0), seg(100.0, 0.0)]).unwrap();
        let mut results = dev.alloc_result::<MatchRecord>(8).unwrap();
        let mut warp = Warp::standalone(1);
        {
            let mut stash = results.warp_stash();
            warp.for_each_lane(|lane| {
                let q = seg(0.5, 0.0);
                // Hit, miss, hit. The entry at x = 100 shares the query's
                // time span, so no temporal reject fires: every comparison
                // reads the timestamps (16 B) plus the coordinates (48 B).
                compare_and_stage(lane, &entries, 0, &q, 7, 2.0, &mut stash);
                compare_and_stage(lane, &entries, 1, &q, 7, 2.0, &mut stash);
                compare_and_stage(lane, &entries, 0, &q, 7, 2.0, &mut stash);
                assert!(lane.counters().instructions >= 3 * COMPARE_INSTR);
                assert_eq!(lane.counters().gmem_read_bytes, 3 * 64);
                // Staging costs no lane atomics.
                assert_eq!(lane.counters().atomics, 0);
            });
            assert_eq!(stash.commit(&mut warp), 0);
        }
        // One warp flush for both records.
        assert_eq!(warp.counters().atomics, 1);
        assert_eq!(results.drain_to_host().len(), 2);
    }

    #[test]
    fn temporal_reject_reads_timestamps_only() {
        let dev = device();
        // Second entry is temporally disjoint from the query.
        let entries = DeviceSegments::alloc(&dev, &[seg(0.0, 0.0), seg(0.0, 50.0)]).unwrap();
        let mut results = dev.alloc_result::<MatchRecord>(8).unwrap();
        let mut warp = Warp::standalone(1);
        {
            let mut stash = results.warp_stash();
            warp.for_each_lane(|lane| {
                let q = seg(0.5, 0.0);
                compare_and_stage(lane, &entries, 0, &q, 2, 2.0, &mut stash);
                compare_and_stage(lane, &entries, 1, &q, 2, 2.0, &mut stash);
                // 64 bytes for the hit + 16 for the temporally-rejected miss.
                assert_eq!(lane.counters().gmem_read_bytes, 64 + 16);
                // Both comparisons charged the full compare cost.
                assert!(lane.counters().instructions >= 2 * COMPARE_INSTR);
            });
            stash.commit(&mut warp);
        }
        assert_eq!(results.drain_to_host().len(), 1);
    }

    #[test]
    fn stored_record_is_correct() {
        let dev = device();
        let entries = DeviceSegments::alloc(&dev, &[seg(0.0, 0.0)]).unwrap();
        let mut results = dev.alloc_result::<MatchRecord>(8).unwrap();
        let mut warp = Warp::standalone(1);
        {
            let mut stash = results.warp_stash();
            warp.for_each_lane(|lane| {
                compare_and_stage(lane, &entries, 0, &seg(0.0, 0.0), 3, 0.5, &mut stash);
            });
            stash.commit(&mut warp);
        }
        let got = results.drain_to_host();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].query, 3);
        assert_eq!(got[0].entry, 0);
        assert_eq!(got[0].interval, TimeInterval::new(0.0, 1.0));
    }
}
