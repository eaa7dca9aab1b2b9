//! Device-resident segment databases.
//!
//! [`DeviceSegments`] keeps a segment set in device memory as eight `f64`
//! columns (struct of arrays): consecutive lanes reading the same field hit
//! consecutive words — the coalescing-friendly layout the paper's `X`/`Y`/`Z`
//! id arrays already use — and every accessor charges exactly the column
//! elements a lane touches.
//!
//! Accounting rules (see DESIGN.md §"Data layout"):
//!
//! * Reads charge 8 bytes per column element actually touched. The distance
//!   compare reads `t_start`/`t_end` first (16 bytes) and loads the six
//!   coordinate columns (48 bytes) only when the temporal overlap test
//!   passes, so temporally-rejected candidates cost 16 bytes, not a row.
//! * A contiguous range of `k` entries is charged in closed form — one read
//!   of `16·k + 48·overlaps` bytes — equal to the per-element sum (see
//!   [`DeviceSegments::refine_range`]).
//! * Segment ids never reach the device (result records carry entry
//!   *positions*), so a full row is 64 bytes and uploads are charged
//!   accordingly.

use crate::compare::COMPARE_INSTR;
use std::ops::Range;
use std::sync::Arc;
use tdts_geom::{
    within_distance, Point3, PreparedQuery, SegId, Segment, SegmentColumns, SegmentStore,
    TimeInterval, TrajId,
};
use tdts_gpu_sim::{ColumnarBuffer, Device, Lane, OutOfDeviceMemory, Warp};

/// Column indices of the canonical device order (matching
/// [`SegmentColumns::f64_columns`]).
const COL_SX: usize = 0;
const COL_SY: usize = 1;
const COL_SZ: usize = 2;
const COL_EX: usize = 3;
const COL_EY: usize = 4;
const COL_EZ: usize = 5;
const COL_TS: usize = 6;
const COL_TE: usize = 7;

/// Bytes of one row: eight `f64` fields, ids not stored.
pub const COLUMNAR_ROW_BYTES: u64 = 8 * std::mem::size_of::<f64>() as u64;

/// Bytes of the two timestamp columns every comparison touches.
const TIMESTAMP_BYTES: u64 = 2 * std::mem::size_of::<f64>() as u64;

/// Bytes of the six coordinate columns, touched only on temporal overlap.
const COORDINATE_BYTES: u64 = COLUMNAR_ROW_BYTES - TIMESTAMP_BYTES;

/// A segment database (or query set) resident in device memory: eight `f64`
/// columns in the canonical order of [`SegmentColumns::f64_columns`]; ids
/// stay on the host.
#[derive(Debug)]
pub struct DeviceSegments {
    cols: ColumnarBuffer<f64>,
}

impl DeviceSegments {
    /// Place `segments` in device memory *offline* (no transfer charge).
    pub fn alloc(
        device: &Arc<Device>,
        segments: &[Segment],
    ) -> Result<DeviceSegments, OutOfDeviceMemory> {
        let cols = SegmentColumns::from_segments(segments);
        Ok(DeviceSegments { cols: device.alloc_columns(&cols.f64_columns())? })
    }

    /// Place a whole [`SegmentStore`] in device memory *offline*, reading
    /// the store's generation-tagged columnar mirror — repeated builds (or a
    /// compaction rebuild) at the same store generation share one host-side
    /// transpose, and a mirror from a previous generation can never be
    /// shipped (the tag forces a fresh transpose after any mutation).
    pub fn alloc_store(
        device: &Arc<Device>,
        store: &SegmentStore,
    ) -> Result<DeviceSegments, OutOfDeviceMemory> {
        let cols = store.columns();
        Ok(DeviceSegments { cols: device.alloc_columns(&cols.f64_columns())? })
    }

    /// Upload `segments` *online*, charging the host-to-device transfer for
    /// exactly the bytes shipped (64 per segment).
    pub fn upload(
        device: &Arc<Device>,
        segments: &[Segment],
    ) -> Result<DeviceSegments, OutOfDeviceMemory> {
        let cols = SegmentColumns::from_segments(segments);
        Ok(DeviceSegments { cols: device.upload_columns(&cols.f64_columns())? })
    }

    /// Append `segments` to the resident database in place, *offline* (no
    /// transfer charge, like [`alloc`]) — only the new tail is copied,
    /// existing rows stay put. The device side of generational ingestion.
    ///
    /// [`alloc`]: DeviceSegments::alloc
    pub fn extend(&mut self, segments: &[Segment]) -> Result<(), OutOfDeviceMemory> {
        let tail = SegmentColumns::from_segments(segments);
        self.cols.extend_columns(&tail.f64_columns())
    }

    /// Remove the rows at the ascending positions in `removed`, preserving
    /// survivor order — the expire side of generational ingestion. Freed
    /// device bytes are returned to the allocator.
    pub fn remove_positions(&mut self, removed: &[u32]) {
        self.cols.remove_positions(removed)
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True if no segments are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Device bytes occupied (also the bytes an [`upload`] charged).
    ///
    /// [`upload`]: DeviceSegments::upload
    pub fn size_bytes(&self) -> usize {
        self.cols.size_bytes()
    }

    /// Reconstruct segment `pos` *without* cost accounting. Host-side use
    /// only (the warp-broadcast prologue reads through the leader and
    /// charges via [`broadcast`]). Rows carry placeholder ids.
    ///
    /// [`broadcast`]: DeviceSegments::broadcast
    pub fn host_segment(&self, pos: usize) -> Segment {
        let at = |col: usize| self.cols.column(col)[pos];
        Segment::new(
            Point3::new(at(COL_SX), at(COL_SY), at(COL_SZ)),
            Point3::new(at(COL_EX), at(COL_EY), at(COL_EZ)),
            at(COL_TS),
            at(COL_TE),
            SegId(0),
            TrajId(0),
        )
    }

    /// Read the whole segment at `pos` from a kernel lane, charging the full
    /// 64-byte row (every column is touched). Rows carry placeholder ids; no
    /// kernel consumes them (result records store entry positions).
    pub fn read_segment(&self, lane: &mut Lane, pos: usize) -> Segment {
        let cols = &self.cols;
        Segment::new(
            Point3::new(
                cols.read(lane, COL_SX, pos),
                cols.read(lane, COL_SY, pos),
                cols.read(lane, COL_SZ, pos),
            ),
            Point3::new(
                cols.read(lane, COL_EX, pos),
                cols.read(lane, COL_EY, pos),
                cols.read(lane, COL_EZ, pos),
            ),
            cols.read(lane, COL_TS, pos),
            cols.read(lane, COL_TE, pos),
            SegId(0),
            TrajId(0),
        )
    }

    /// Warp-leader read of segment `pos`, broadcast to the warp
    /// (`__shfl_sync` analogue): one converged row read charged at warp
    /// scope.
    pub fn broadcast(&self, warp: &mut Warp, pos: usize) -> Segment {
        let q = self.host_segment(pos);
        warp.gmem_read(COLUMNAR_ROW_BYTES);
        q
    }

    /// The refinement memory access: load entry `pos` and run the continuous
    /// distance test against query `q`.
    ///
    /// Reads the two timestamp columns (16 bytes), applies the same temporal
    /// overlap test [`within_distance`] starts with, and loads the six
    /// coordinate columns (48 more bytes) only for candidates that overlap
    /// in time.
    ///
    /// Instruction cost is *not* charged here (the caller charges the fixed
    /// compare cost whatever the outcome, keeping the comparison count and
    /// instruction accounting independent of the prefilter).
    ///
    /// This is the element-at-a-time form, for candidates reached through an
    /// indirection (`GPUSpatial`'s `U_k`, the `X`/`Y`/`Z` id arrays, strided
    /// tile lanes). A lane that walks a contiguous run of entries uses
    /// [`refine_range`], where the hot loop lives.
    ///
    /// [`refine_range`]: DeviceSegments::refine_range
    pub fn compare_within(
        &self,
        lane: &mut Lane,
        pos: usize,
        q: &Segment,
        d: f64,
    ) -> Option<TimeInterval> {
        self.compare_element(lane, pos, q.time_span(), |entry| within_distance(q, entry, d))
    }

    /// One element of the refinement: the two timestamp reads, the overlap
    /// test against the query's `span`, and — for survivors only — the six
    /// coordinate reads and the distance `test`.
    #[inline(always)]
    fn compare_element(
        &self,
        lane: &mut Lane,
        pos: usize,
        span: TimeInterval,
        test: impl FnOnce(&Segment) -> Option<TimeInterval>,
    ) -> Option<TimeInterval> {
        let cols = &self.cols;
        let t_start = cols.read(lane, COL_TS, pos);
        let t_end = cols.read(lane, COL_TE, pos);
        // Identical predicate to within_distance's first step: temporally
        // disjoint candidates are rejected after touching only the
        // timestamp columns.
        span.intersect(&TimeInterval::new(t_start, t_end))?;
        let entry = Segment::new(
            Point3::new(
                cols.read(lane, COL_SX, pos),
                cols.read(lane, COL_SY, pos),
                cols.read(lane, COL_SZ, pos),
            ),
            Point3::new(
                cols.read(lane, COL_EX, pos),
                cols.read(lane, COL_EY, pos),
                cols.read(lane, COL_EZ, pos),
            ),
            t_start,
            t_end,
            SegId(0),
            TrajId(0),
        );
        test(&entry)
    }

    /// Refine the contiguous entry `range` against the prepared query `q`:
    /// one scan over the column slices, `on_hit(lane, pos, interval)` for
    /// every entry within distance, in position order. Returns the number
    /// of comparisons performed (the range's length, `k` below).
    ///
    /// The range is charged in closed form — **one** global-memory read of
    /// `16·k` bytes of timestamps plus `48` bytes of coordinates per
    /// temporally overlapping entry, and **one** `COMPARE_INSTR·k`
    /// instruction charge — which equals, by construction and by test, what
    /// `k` calls of [`compare_and_stage`](crate::compare::compare_and_stage)
    /// post one element at a time. The hit callback charges its own staging
    /// cost.
    ///
    /// The rows are bounds-tested once for the whole range. A range that
    /// leaves the buffer takes the per-element path, so the sanitizer reports
    /// and neutralises each bad read exactly as [`compare_within`] does (and
    /// without a sanitizer it panics like a slice index).
    ///
    /// [`compare_within`]: DeviceSegments::compare_within
    pub fn refine_range(
        &self,
        lane: &mut Lane,
        range: Range<u32>,
        q: &PreparedQuery,
        mut on_hit: impl FnMut(&mut Lane, u32, TimeInterval),
    ) -> u64 {
        if range.is_empty() {
            return 0;
        }
        let compared = u64::from(range.end - range.start);
        let span = q.time_span();
        let Some([sx, sy, sz, ex, ey, ez, ts, te]) =
            self.cols.row_range::<8>(lane, range.start as usize..range.end as usize)
        else {
            self.refine_elements(lane, range, q, &mut on_hit);
            return compared;
        };
        let mut overlapping = 0u64;
        for (i, pos) in range.enumerate() {
            let (t_start, t_end) = (ts[i], te[i]);
            // The same predicate, in the same place, as the element path.
            if span.intersect(&TimeInterval::new(t_start, t_end)).is_none() {
                continue;
            }
            overlapping += 1;
            let entry = Segment::new(
                Point3::new(sx[i], sy[i], sz[i]),
                Point3::new(ex[i], ey[i], ez[i]),
                t_start,
                t_end,
                SegId(0),
                TrajId(0),
            );
            if let Some(interval) = q.within(&entry) {
                on_hit(lane, pos, interval);
            }
        }
        lane.gmem_read(TIMESTAMP_BYTES * compared + COORDINATE_BYTES * overlapping);
        lane.instr(COMPARE_INSTR * compared);
        compared
    }

    /// [`refine_range`] one charged element at a time: where a range that
    /// leaves the buffer goes, so each bad read is reported where it happens.
    ///
    /// [`refine_range`]: DeviceSegments::refine_range
    #[cold]
    fn refine_elements(
        &self,
        lane: &mut Lane,
        range: Range<u32>,
        q: &PreparedQuery,
        on_hit: &mut impl FnMut(&mut Lane, u32, TimeInterval),
    ) {
        for pos in range {
            let hit =
                self.compare_element(lane, pos as usize, q.time_span(), |entry| q.within(entry));
            lane.instr(COMPARE_INSTR);
            if let Some(interval) = hit {
                on_hit(lane, pos, interval);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdts_gpu_sim::DeviceConfig;

    fn seg(x: f64, t0: f64, id: u32) -> Segment {
        Segment::new(
            Point3::new(x, 0.0, 0.0),
            Point3::new(x + 1.0, 0.5, 0.0),
            t0,
            t0 + 1.0,
            SegId(id),
            TrajId(id),
        )
    }

    fn device() -> Arc<Device> {
        Device::new(DeviceConfig::test_tiny()).unwrap()
    }

    #[test]
    fn rows_are_64_bytes_without_ids() {
        let segs = vec![seg(0.0, 0.0, 3), seg(2.0, 1.0, 4)];
        let resident = DeviceSegments::alloc(&device(), &segs).unwrap();
        assert_eq!(resident.len(), 2);
        assert_eq!(resident.size_bytes(), 2 * COLUMNAR_ROW_BYTES as usize);
    }

    #[test]
    fn reads_return_the_stored_segments_up_to_ids() {
        let segs: Vec<Segment> = (0..6).map(|i| seg(i as f64 * 2.0, i as f64 * 0.3, i)).collect();
        let resident = DeviceSegments::alloc(&device(), &segs).unwrap();
        let mut warp = Warp::standalone(1);
        warp.for_each_lane(|lane| {
            for (i, s) in segs.iter().enumerate() {
                for r in [resident.read_segment(lane, i), resident.host_segment(i)] {
                    assert_eq!(r.start, s.start);
                    assert_eq!(r.end, s.end);
                    assert_eq!(r.t_start, s.t_start);
                    assert_eq!(r.t_end, s.t_end);
                }
            }
        });
    }

    #[test]
    fn full_read_charges_64_bytes() {
        let resident = DeviceSegments::alloc(&device(), &[seg(0.0, 0.0, 0)]).unwrap();
        let mut warp = Warp::standalone(1);
        warp.for_each_lane(|lane| {
            resident.read_segment(lane, 0);
            assert_eq!(lane.counters().gmem_read_bytes, 64);
        });
        resident.broadcast(&mut warp, 0);
        assert_eq!(warp.counters().gmem_read_bytes, 64);
    }

    #[test]
    fn temporal_reject_touches_only_timestamps() {
        // Query at t in [100, 101]; entry at t in [0, 1]: disjoint.
        let resident = DeviceSegments::alloc(&device(), &[seg(0.0, 0.0, 0)]).unwrap();
        let mut warp = Warp::standalone(2);
        warp.for_each_lane(|lane| {
            if lane.lane_index() == 0 {
                let q = seg(0.0, 100.0, 9);
                assert!(resident.compare_within(lane, 0, &q, 5.0).is_none());
                assert_eq!(lane.counters().gmem_read_bytes, 16, "timestamps only");
            } else {
                let q = seg(0.0, 0.0, 9);
                assert!(resident.compare_within(lane, 0, &q, 5.0).is_some());
                assert_eq!(lane.counters().gmem_read_bytes, 64, "the full row");
            }
        });
    }

    #[test]
    fn extend_and_remove_track_store_mutations() {
        let dev = device();
        let mut store: SegmentStore = (0..5).map(|i| seg(i as f64, i as f64 * 0.5, i)).collect();
        let mut resident = DeviceSegments::alloc_store(&dev, &store).unwrap();
        let delta = store.append(&[seg(9.0, 5.0, 9), seg(10.0, 6.0, 10)]);
        resident.extend(&store.segments()[delta.from..]).unwrap();
        assert_eq!(resident.len(), store.len());
        let expired = store.expire_before(2.0);
        assert!(!expired.removed.is_empty());
        resident.remove_positions(&expired.removed);
        assert_eq!(resident.len(), store.len());
        for (i, s) in store.segments().iter().enumerate() {
            let r = resident.host_segment(i);
            assert_eq!(r.start, s.start);
            assert_eq!(r.end, s.end);
            assert_eq!(r.t_start, s.t_start);
            assert_eq!(r.t_end, s.t_end);
        }
    }

    #[test]
    fn compare_agrees_with_within_distance() {
        let segs: Vec<Segment> = (0..8).map(|i| seg(i as f64 * 1.5, i as f64 * 0.4, i)).collect();
        let resident = DeviceSegments::alloc(&device(), &segs).unwrap();
        let queries: Vec<Segment> =
            (0..5).map(|i| seg(i as f64 * 2.3, i as f64 * 0.7, i)).collect();
        let mut warp = Warp::standalone(1);
        warp.for_each_lane(|lane| {
            for q in &queries {
                for (i, s) in segs.iter().enumerate() {
                    for d in [0.1, 1.0, 10.0] {
                        assert_eq!(
                            resident.compare_within(lane, i, q, d),
                            within_distance(q, s, d)
                        );
                    }
                }
            }
        });
    }
}
