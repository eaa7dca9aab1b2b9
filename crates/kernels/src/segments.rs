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
//! * A lane's `k` candidates — a contiguous or strided range, or ids
//!   gathered through an index array — are charged in closed form: one read
//!   of `16·k + 48·overlaps` bytes (plus `4·k` for gathered ids), equal to
//!   the per-element sum (see [`DeviceSegments::refine_range`] and
//!   [`DeviceSegments::refine_gather`]).
//! * Segment ids never reach the device (result records carry entry
//!   *positions*), so a full row is 64 bytes and uploads are charged
//!   accordingly.

use std::ops::Range;
use std::sync::Arc;
use tdts_geom::{
    Point3, PreparedQuery, SegId, Segment, SegmentColumns, SegmentStore, TimeInterval, TrajId,
};
use tdts_gpu_sim::{ColumnarBuffer, Device, DeviceBuffer, Lane, OutOfDeviceMemory, Warp};

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

/// Instruction cost of one continuous distance comparison (quadratic
/// coefficient computation + root solve + interval clamp). Charged whatever
/// the outcome, so the comparison count and instruction totals are
/// independent of both the distance threshold and the temporal prefilter.
pub const COMPARE_INSTR: u64 = 48;

/// Bytes of one row: eight `f64` fields, ids not stored.
pub const COLUMNAR_ROW_BYTES: u64 = 8 * std::mem::size_of::<f64>() as u64;

/// Bytes of the two timestamp columns every comparison touches.
const TIMESTAMP_BYTES: u64 = 2 * std::mem::size_of::<f64>() as u64;

/// Bytes of the six coordinate columns, touched only on temporal overlap.
const COORDINATE_BYTES: u64 = COLUMNAR_ROW_BYTES - TIMESTAMP_BYTES;

/// Bytes of one id read from an index array on the way to its entry.
const ID_BYTES: u64 = std::mem::size_of::<u32>() as u64;

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

    /// Refine every `step`-th entry of the contiguous `range` against the
    /// prepared query `q`: one scan over the column slices,
    /// `on_hit(lane, pos, interval)` for every entry within distance, in
    /// position order. Returns the number of comparisons performed (`k`
    /// below). A thread-per-query lane walks its whole range (`step` 1); a
    /// warp-per-tile lane walks its share of a tile (`step` = warp size).
    ///
    /// The scan is charged in closed form — **one** global-memory read of
    /// `16·k` bytes of timestamps plus `48` bytes of coordinates per
    /// temporally overlapping entry, and **one** `COMPARE_INSTR·k`
    /// instruction charge — which equals, by construction and by test
    /// (`tests/refine_equivalence.rs`), the sum of `k` element-at-a-time
    /// charges. The hit callback charges its own staging cost.
    ///
    /// The rows are bounds-tested once for the whole range. A range that
    /// leaves the buffer takes the per-element path, so the sanitizer reports
    /// and neutralises each bad read where it happens (and without a
    /// sanitizer it panics like a slice index).
    pub fn refine_range(
        &self,
        lane: &mut Lane,
        range: Range<u32>,
        step: usize,
        q: &PreparedQuery,
        mut on_hit: impl FnMut(&mut Lane, u32, TimeInterval),
    ) -> u64 {
        if range.is_empty() {
            return 0;
        }
        let Some(cols) = self.cols.row_range::<8>(lane, range.start as usize..range.end as usize)
        else {
            return self.refine_elements(lane, range.step_by(step), q, &mut on_hit);
        };
        let (mut compared, mut overlapping) = (0u64, 0u64);
        for i in (0..cols[0].len()).step_by(step) {
            compared += 1;
            if let Some(hit) = test_row(&cols, i, q) {
                overlapping += 1;
                if let Some(interval) = hit {
                    on_hit(lane, range.start + i as u32, interval);
                }
            }
        }
        charge(lane, compared, overlapping, 0);
        compared
    }

    /// Refine the entries a lane reaches through an index array — every
    /// `step`-th id of `ids[range]` (the paper's `X`/`Y`/`Z` arrays, the FSG
    /// lookup arrays `A`/`A'`) — against the prepared query `q`, in id
    /// order; `on_hit` receives the entry position. Returns the comparisons
    /// performed (`k`). Charged like [`refine_range`] plus the `4·k` bytes of
    /// id reads, in the same one global-memory charge.
    ///
    /// The id range is bounds-tested once; one that leaves the index array
    /// takes the per-element path, so the sanitizer reports and neutralises
    /// each bad id read where it happens. So does an id that points past
    /// the entries.
    ///
    /// [`refine_range`]: DeviceSegments::refine_range
    pub fn refine_gather(
        &self,
        lane: &mut Lane,
        ids: &DeviceBuffer<u32>,
        range: Range<u32>,
        step: usize,
        q: &PreparedQuery,
        mut on_hit: impl FnMut(&mut Lane, u32, TimeInterval),
    ) -> u64 {
        if range.is_empty() {
            return 0;
        }
        match ids.row_range(lane, range.start as usize..range.end as usize) {
            Some(ids) => {
                self.refine_ids(lane, ids.iter().step_by(step).copied(), ID_BYTES, q, on_hit)
            }
            None => {
                let positions: Vec<u32> =
                    range.step_by(step).map(|i| ids.read(lane, i as usize)).collect();
                self.refine_elements(lane, positions, q, &mut on_hit)
            }
        }
    }

    /// Refine entry `positions` the lane has already read (and paid for) —
    /// `GPUSpatial`'s candidate buffer `U_k` — against the prepared query
    /// `q`, in the given order. Charged like [`refine_range`].
    ///
    /// [`refine_range`]: DeviceSegments::refine_range
    pub fn refine_positions(
        &self,
        lane: &mut Lane,
        positions: &[u32],
        q: &PreparedQuery,
        on_hit: impl FnMut(&mut Lane, u32, TimeInterval),
    ) -> u64 {
        self.refine_ids(lane, positions.iter().copied(), 0, q, on_hit)
    }

    /// The gathered scan over the whole columns, charging `id_bytes` per id
    /// on top of the entries. Each position is bounds-tested where it is
    /// used; one past the end is refined on the per-element path, which
    /// charges (and, under the sanitizer, reports) its own entry reads.
    #[inline(always)]
    fn refine_ids(
        &self,
        lane: &mut Lane,
        ids: impl Iterator<Item = u32>,
        id_bytes: u64,
        q: &PreparedQuery,
        mut on_hit: impl FnMut(&mut Lane, u32, TimeInterval),
    ) -> u64 {
        let cols = self.cols.row_range::<8>(lane, 0..self.len()).expect("whole buffer in bounds");
        let (mut compared, mut inside, mut overlapping) = (0u64, 0u64, 0u64);
        for pos in ids {
            compared += 1;
            let i = pos as usize;
            if i >= self.len() {
                self.refine_elements(lane, [pos], q, &mut on_hit);
                continue;
            }
            inside += 1;
            if let Some(hit) = test_row(&cols, i, q) {
                overlapping += 1;
                if let Some(interval) = hit {
                    on_hit(lane, pos, interval);
                }
            }
        }
        charge(lane, inside, overlapping, id_bytes * compared);
        compared
    }

    /// The refinement one charged element at a time: where a range that
    /// leaves its buffer goes, so each bad read is reported where it
    /// happens. Returns the comparisons performed.
    #[cold]
    fn refine_elements(
        &self,
        lane: &mut Lane,
        positions: impl IntoIterator<Item = u32>,
        q: &PreparedQuery,
        on_hit: &mut impl FnMut(&mut Lane, u32, TimeInterval),
    ) -> u64 {
        let mut compared = 0;
        for pos in positions {
            compared += 1;
            let hit = self.compare_element(lane, pos as usize, q);
            lane.instr(COMPARE_INSTR);
            if let Some(interval) = hit {
                on_hit(lane, pos, interval);
            }
        }
        compared
    }

    /// One charged element: the two timestamp reads, the overlap test, and
    /// — for survivors only — the six coordinate reads and the distance
    /// test.
    fn compare_element(
        &self,
        lane: &mut Lane,
        pos: usize,
        q: &PreparedQuery,
    ) -> Option<TimeInterval> {
        let cols = &self.cols;
        let t_start = cols.read(lane, COL_TS, pos);
        let t_end = cols.read(lane, COL_TE, pos);
        q.time_span().intersect(&TimeInterval::new(t_start, t_end))?;
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
        q.within(&entry)
    }
}

/// One comparison of the scans: row `i` of the column slices against `q`.
/// `None` when the temporal prefilter rejects the row (only its timestamps
/// were touched); otherwise the distance test's outcome.
#[inline(always)]
fn test_row(
    [sx, sy, sz, ex, ey, ez, ts, te]: &[&[f64]; 8],
    i: usize,
    q: &PreparedQuery,
) -> Option<Option<TimeInterval>> {
    let (t_start, t_end) = (ts[i], te[i]);
    // The predicate `within` starts with, applied before the six coordinate
    // columns are touched.
    q.time_span().intersect(&TimeInterval::new(t_start, t_end))?;
    let entry = Segment::new(
        Point3::new(sx[i], sy[i], sz[i]),
        Point3::new(ex[i], ey[i], ez[i]),
        t_start,
        t_end,
        SegId(0),
        TrajId(0),
    );
    Some(q.within(&entry))
}

/// The closed-form charge of `compared` in-bounds comparisons, of which
/// `overlapping` passed the temporal prefilter, plus `extra_bytes` read on
/// the way: one memory charge and one instruction charge.
#[inline(always)]
fn charge(lane: &mut Lane, compared: u64, overlapping: u64, extra_bytes: u64) {
    lane.gmem_read(TIMESTAMP_BYTES * compared + COORDINATE_BYTES * overlapping + extra_bytes);
    lane.instr(COMPARE_INSTR * compared);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdts_geom::within_distance;
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

    /// Refine the single entry `pos` on a fresh lane: the hit and the
    /// lane's read bytes.
    fn refine_one(
        resident: &DeviceSegments,
        pos: u32,
        q: &Segment,
        d: f64,
    ) -> (Option<TimeInterval>, u64) {
        let mut lane = Lane::new(0);
        let mut hit = None;
        let compared = resident.refine_positions(
            &mut lane,
            &[pos],
            &PreparedQuery::new(q, d),
            |_, _, interval| hit = Some(interval),
        );
        assert_eq!(compared, 1);
        assert_eq!(lane.counters().instructions, COMPARE_INSTR);
        (hit, lane.counters().gmem_read_bytes)
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
        let (hit, bytes) = refine_one(&resident, 0, &seg(0.0, 100.0, 9), 5.0);
        assert!(hit.is_none());
        assert_eq!(bytes, 16, "timestamps only");
        let (hit, bytes) = refine_one(&resident, 0, &seg(0.0, 0.0, 9), 5.0);
        assert!(hit.is_some());
        assert_eq!(bytes, 64, "the full row");
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
    fn refinement_agrees_with_within_distance() {
        let segs: Vec<Segment> = (0..8).map(|i| seg(i as f64 * 1.5, i as f64 * 0.4, i)).collect();
        let resident = DeviceSegments::alloc(&device(), &segs).unwrap();
        let queries: Vec<Segment> =
            (0..5).map(|i| seg(i as f64 * 2.3, i as f64 * 0.7, i)).collect();
        for q in &queries {
            for (i, s) in segs.iter().enumerate() {
                for d in [0.1, 1.0, 10.0] {
                    assert_eq!(refine_one(&resident, i as u32, q, d).0, within_distance(q, s, d));
                }
            }
        }
    }
}
