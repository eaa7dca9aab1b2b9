//! Device-resident segment databases and query sets.
//!
//! [`DeviceSegments`] keeps a segment database in device memory as eight
//! `f64` columns (struct of arrays) — the prepared columns
//! `vx vy vz bx by bz t_start t_end` of [`PreparedColumns`]: velocity,
//! affine base and time span, computed once when the entry is placed or
//! ingested, so a comparison pays for the solver and not for re-deriving
//! the entry's half of the quadratic. The host holds exactly the layout the
//! simulated device is charged for: consecutive lanes reading the same
//! field hit consecutive words — the coalescing-friendly layout the paper's
//! `X`/`Y`/`Z` id arrays already use — and a comparison is charged exactly
//! the column elements it touches.
//!
//! The scan walks its candidates in chunks of [`SCAN_CHUNK`] rows. A chunk
//! goes through [`PreparedQuery::pretest`] first, a branch-free loop over
//! the columns that the compiler vectorises, and only the rows it passes
//! reach the exact solver ([`PreparedQuery::within_prepared`]). The pre-test
//! rejects a row only where the solver would answer `None`, so the hits
//! are the solver's, bit for bit. Contiguous ranges are pre-tested in place;
//! gathered candidates are first copied into a chunk of stack columns.
//!
//! Accounting rules (see DESIGN.md §"Data layout"):
//!
//! * Reads charge 8 bytes per column element actually touched. The distance
//!   compare reads `t_start`/`t_end` first (16 bytes) and loads the six
//!   coordinate columns (48 bytes) only when the temporal overlap test
//!   passes, so temporally-rejected candidates cost 16 bytes, not a row.
//!   The host pre-tests whole chunks; what the device is charged does not
//!   depend on how the host evaluates a row.
//! * A lane's `k` candidates — a contiguous range, its share of a tile, or
//!   ids gathered through an index array — are charged in closed form: one
//!   read of `16·k + 48·overlaps` bytes (plus `4·k` for gathered ids), equal
//!   to the per-element sum (see [`DeviceSegments::refine_range`] and
//!   [`DeviceSegments::refine_gather`]).
//! * Segment ids never reach the device (result records carry entry
//!   *positions*), so a full row is 64 bytes and uploads are charged
//!   accordingly.
//!
//! [`DeviceQueries`] holds the query set `Q` as plain 64-byte segment rows:
//! kernels read a query whole (GPUSpatial builds its MBB from the
//! endpoints) and prepare it once per thread or tile.

use std::ops::Range;
use std::sync::Arc;
use tdts_geom::{
    Point3, PreparedColumns, PreparedEntry, PreparedQuery, SegId, Segment, TimeInterval, TrajId,
    MAY_MATCH, OVERLAPS,
};
use tdts_gpu_sim::{Device, DeviceBuffer, Lane, OutOfDeviceMemory, Reserved, Warp, MAX_WARP_LANES};

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

/// Rows the refinement scan pre-tests at a time. Chunks of 64 to 128 rows
/// scanned fastest; with the AVX2 copy of the pre-test, 128 led 64 in 8 of
/// 10 paired `batch-temporal` runs by a median 5.6 % on a 2-core x86-64
/// host, short of a clear gain. A chunk is also a whole number of 32-lane warps' turns.
pub const SCAN_CHUNK: usize = 64;

/// What a gathered candidate past the end of the database is pre-tested as:
/// a row with an empty time span, so it overlaps nothing and is a temporal
/// reject.
const MISSING_ROW: [f64; 8] = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY];

/// Rows `lo..hi` of every column.
#[inline(always)]
fn cut<'a>(columns: PreparedColumns<'a>, lo: usize, hi: usize) -> PreparedColumns<'a> {
    let [vx, vy, vz, bx, by, bz, t_start, t_end] = columns;
    [
        &vx[lo..hi],
        &vy[lo..hi],
        &vz[lo..hi],
        &bx[lo..hi],
        &by[lo..hi],
        &bz[lo..hi],
        &t_start[lo..hi],
        &t_end[lo..hi],
    ]
}

/// Row `i` across the columns.
#[inline(always)]
fn row_at(columns: PreparedColumns<'_>, i: usize) -> [f64; 8] {
    let [vx, vy, vz, bx, by, bz, t_start, t_end] = columns;
    [vx[i], vy[i], vz[i], bx[i], by[i], bz[i], t_start[i], t_end[i]]
}

/// How many of `candidates` dealt round robin to `lanes` lanes land on
/// lane `lane`: candidate `j` goes to lane `j % lanes`, the mapping of a
/// warp's lanes striding a tile together.
#[inline]
pub fn lane_share(candidates: u64, lane: usize, lanes: usize) -> u64 {
    let lanes = lanes as u64;
    candidates / lanes + u64::from((lane as u64) < candidates % lanes)
}

/// A segment database resident in device memory: the eight prepared
/// columns described in the module docs, in position order; ids stay on
/// the host.
#[derive(Debug)]
pub struct DeviceSegments {
    columns: [DeviceBuffer<f64>; 8],
}

/// The prepared columns of `segments`, in order.
fn prepare(segments: &[Segment]) -> [Vec<f64>; 8] {
    let mut columns: [Vec<f64>; 8] = std::array::from_fn(|_| Vec::with_capacity(segments.len()));
    for s in segments {
        for (column, x) in columns.iter_mut().zip(PreparedEntry::new(s).to_row()) {
            column.push(x);
        }
    }
    columns
}

impl DeviceSegments {
    /// Place `segments` in device memory *offline* (no transfer charge).
    pub fn alloc(
        device: &Arc<Device>,
        segments: &[Segment],
    ) -> Result<DeviceSegments, OutOfDeviceMemory> {
        let mut columns = Vec::with_capacity(8);
        for column in prepare(segments) {
            columns.push(device.alloc_from_host(column)?);
        }
        Ok(DeviceSegments { columns: columns.try_into().expect("eight prepared columns") })
    }

    /// Upload `segments` *online*, charging **one** host-to-device transfer
    /// for exactly the bytes shipped (64 per segment).
    pub fn upload(
        device: &Arc<Device>,
        segments: &[Segment],
    ) -> Result<DeviceSegments, OutOfDeviceMemory> {
        device.charge_upload(DeviceSegments::bytes_for(segments.len()));
        DeviceSegments::alloc(device, segments)
    }

    /// Device bytes `rows` appended rows occupy: what to [`Device::reserve`]
    /// ahead of an [`extend`](DeviceSegments::extend).
    pub fn bytes_for(rows: usize) -> usize {
        rows * COLUMNAR_ROW_BYTES as usize
    }

    /// Append `segments` to the resident database in place, *offline* (no
    /// transfer charge, like [`alloc`]), with device bytes taken from
    /// `reserved` — 64 per row, 8 for each column. Only the new tail is
    /// prepared and copied, existing rows stay put. The device side of
    /// generational ingestion.
    ///
    /// [`alloc`]: DeviceSegments::alloc
    pub fn extend(&mut self, segments: &[Segment], reserved: &mut Reserved) {
        for (column, more) in self.columns.iter_mut().zip(prepare(segments)) {
            column.extend(&more, reserved);
        }
    }

    /// Remove the rows at the ascending positions in `removed`, preserving
    /// survivor order — the expire side of generational ingestion. In each
    /// column only the survivors before the last removed row move; the rows
    /// after it stay in place behind the column's front offset. Freed device
    /// bytes are returned to the allocator.
    pub fn remove_positions(&mut self, removed: &[u32]) {
        for column in &mut self.columns {
            column.remove_positions(removed);
        }
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.columns[0].len()
    }

    /// True if no segments are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Device bytes occupied (also the bytes an [`upload`] charged).
    ///
    /// [`upload`]: DeviceSegments::upload
    pub fn size_bytes(&self) -> usize {
        self.columns.iter().map(DeviceBuffer::size_bytes).sum()
    }

    /// The resident columns, host access without cost accounting.
    fn column_slices(&self) -> PreparedColumns<'_> {
        let [vx, vy, vz, bx, by, bz, t_start, t_end] = &self.columns;
        [vx, vy, vz, bx, by, bz, t_start, t_end].map(DeviceBuffer::as_slice)
    }

    /// Refine the entries of the contiguous `range` against the prepared
    /// query `q`, dealt round robin to `lanes`: entry `range.start + j` is
    /// lane `j % lanes.len()`'s. A thread-per-query lane passes itself alone
    /// and walks the whole range; a warp-per-tile kernel passes the warp's
    /// lanes and scans the tile once. `on_hit(lane, pos, interval)` runs for
    /// every entry within distance, on the entry's lane, in position order.
    /// Returns the number of comparisons performed.
    ///
    /// Each lane's `k` comparisons are charged in closed form — **one**
    /// global-memory read of `16·k` bytes of timestamps plus `48` bytes of
    /// coordinates per temporally overlapping entry, and **one**
    /// `COMPARE_INSTR·k` instruction charge — which equals, by construction
    /// and by test (`tests/refine_equivalence.rs`), the sum of `k`
    /// element-at-a-time charges. The hit callback charges its own staging
    /// cost.
    ///
    /// The rows are bounds-tested once for the whole range and pre-tested in
    /// place. In a range that leaves the buffer each missing row is reported
    /// where it is reached: the sanitizer records an out-of-bounds read and
    /// neutralises it to a temporal reject (the comparison still counts),
    /// and without a sanitizer it panics like a slice index.
    pub fn refine_range(
        &self,
        lanes: &mut [Lane],
        range: Range<u32>,
        q: &PreparedQuery,
        on_hit: impl FnMut(&mut Lane, u32, TimeInterval),
    ) -> u64 {
        if range.is_empty() {
            return 0;
        }
        let mut scan = Scan::new(lanes, q, on_hit);
        let rows = range.start as usize..range.end as usize;
        if rows.end <= self.len() {
            let columns = self.column_slices();
            for lo in rows.clone().step_by(scan.chunk_rows) {
                let hi = (lo + scan.chunk_rows).min(rows.end);
                scan.chunk(cut(columns, lo, hi), |j| (lo + j) as u32);
            }
        } else {
            self.gather(&mut scan, range);
        }
        scan.finish(0)
    }

    /// Refine the entries reached through an index array — the ids
    /// `ids[range]` (the paper's `X`/`Y`/`Z` arrays, the FSG lookup array
    /// `A`) — against the prepared query `q`, dealt round robin to
    /// `lanes` like [`refine_range`]; `on_hit` receives the entry position.
    /// Returns the comparisons performed. Charged like [`refine_range`]
    /// plus each lane's `4·k` bytes of id reads, in the same one
    /// global-memory charge.
    ///
    /// An id is the entry's position plus `origin` (wrapping): an index
    /// whose ids are stable slots passes the slot of position 0, one whose
    /// ids are positions passes 0.
    ///
    /// The id range is bounds-tested once. One that leaves the index array
    /// is read id by id, so the sanitizer reports and neutralises each bad
    /// id read where it happens; an id that points past the entries is
    /// reported like a missing row of [`refine_range`].
    ///
    /// [`refine_range`]: DeviceSegments::refine_range
    pub fn refine_gather(
        &self,
        lanes: &mut [Lane],
        ids: &DeviceBuffer<u32>,
        origin: u32,
        range: Range<u32>,
        q: &PreparedQuery,
        on_hit: impl FnMut(&mut Lane, u32, TimeInterval),
    ) -> u64 {
        if range.is_empty() {
            return 0;
        }
        match ids.row_range(&lanes[0], range.start as usize..range.end as usize) {
            Some(run) => {
                let mut scan = Scan::new(lanes, q, on_hit);
                self.gather(&mut scan, run.iter().map(|&id| id.wrapping_sub(origin)));
                scan.finish(ID_BYTES)
            }
            None => {
                // Each id read is charged (4 bytes) by the lane that makes it.
                let w = lanes.len();
                let positions: Vec<u32> = range
                    .zip((0..w).cycle())
                    .map(|(i, l)| ids.read(&mut lanes[l], i as usize).wrapping_sub(origin))
                    .collect();
                self.refine_positions(lanes, &positions, q, on_hit)
            }
        }
    }

    /// Refine entry `positions` the lane has already read (and paid for) —
    /// `GPUSpatial`'s candidate buffer `U_k` — against the prepared query
    /// `q`, in the given order, dealt round robin to `lanes`. Charged like
    /// [`refine_range`](DeviceSegments::refine_range).
    pub fn refine_positions(
        &self,
        lanes: &mut [Lane],
        positions: &[u32],
        q: &PreparedQuery,
        on_hit: impl FnMut(&mut Lane, u32, TimeInterval),
    ) -> u64 {
        let mut scan = Scan::new(lanes, q, on_hit);
        self.gather(&mut scan, positions.iter().copied());
        scan.finish(0)
    }

    /// Feed the entries at `positions` to `scan`, a chunk at a time, each
    /// chunk's rows copied into stack columns first. A position past the
    /// end of the buffer is reported by [`missing_row`] on the lane it is
    /// dealt to and pre-tested as [`MISSING_ROW`].
    ///
    /// [`missing_row`]: DeviceSegments::missing_row
    #[inline(always)]
    fn gather<H>(&self, scan: &mut Scan<'_, '_, H>, mut positions: impl Iterator<Item = u32>)
    where
        H: FnMut(&mut Lane, u32, TimeInterval),
    {
        // Every column cut to one length, so one test bounds a row's reads.
        let len = self.len();
        let columns = cut(self.column_slices(), 0, len);
        let mut staged = [[0.0f64; SCAN_CHUNK]; 8];
        let mut at = [0u32; SCAN_CHUNK];
        loop {
            let mut n = 0;
            for (slot, pos) in at[..scan.chunk_rows].iter_mut().zip(positions.by_ref()) {
                let row = if (pos as usize) < len {
                    row_at(columns, pos as usize)
                } else {
                    self.missing_row(&scan.lanes[n % scan.lanes.len()], pos);
                    MISSING_ROW
                };
                for (column, x) in staged.iter_mut().zip(row) {
                    column[n] = x;
                }
                *slot = pos;
                n += 1;
            }
            if n == 0 {
                return;
            }
            let [vx, vy, vz, bx, by, bz, t_start, t_end] = &staged;
            scan.chunk(cut([vx, vy, vz, bx, by, bz, t_start, t_end], 0, n), |j| at[j]);
            if n < scan.chunk_rows {
                return;
            }
        }
    }

    /// A candidate row past the end of the buffer: under the sanitizer one
    /// out-of-bounds read of `t_start`, the column a comparison reads
    /// first, attributed to `lane` (the scan then treats the row as
    /// temporally rejected); without one a slice-index panic.
    #[cold]
    fn missing_row(&self, lane: &Lane, pos: u32) {
        let pos = pos as usize;
        let [.., t_start, _] = &self.columns;
        let row = t_start.row_range(lane, pos..pos + 1);
        debug_assert!(row.is_none(), "row {pos} is in bounds");
    }
}

/// One refinement scan in progress: candidates in order, dealt round robin
/// to `lanes`, and what each lane has been dealt. Every lane is charged
/// once, at [`finish`](Scan::finish), in closed form.
///
/// Chunks hold a whole number of turns of the lanes — [`SCAN_CHUNK`] rows
/// rounded down to a multiple of the lane count — so row `j` of every chunk
/// is lane `j % lanes`'s.
struct Scan<'l, 'q, H> {
    lanes: &'l mut [Lane],
    q: &'q PreparedQuery,
    on_hit: H,
    /// Rows per full chunk.
    chunk_rows: usize,
    compared: u64,
    /// Per chunk row, how many of the candidates dealt to it overlapped the
    /// query in time; row `j`'s count is lane `j % lanes`'s.
    overlapping: [u32; SCAN_CHUNK],
}

impl<'l, 'q, H: FnMut(&mut Lane, u32, TimeInterval)> Scan<'l, 'q, H> {
    fn new(lanes: &'l mut [Lane], q: &'q PreparedQuery, on_hit: H) -> Self {
        let w = lanes.len();
        assert!((1..=MAX_WARP_LANES).contains(&w), "a scan runs on 1..={MAX_WARP_LANES} lanes");
        let chunk_rows = SCAN_CHUNK - SCAN_CHUNK % w;
        Scan { lanes, q, on_hit, chunk_rows, compared: 0, overlapping: [0; SCAN_CHUNK] }
    }

    /// Deal the next chunk of at most `chunk_rows` candidates: `rows` (all
    /// columns one length), row `j` being entry `position(j)`. The chunk is
    /// pre-tested as a whole; the rows it passes go to the exact solver.
    #[inline(always)]
    fn chunk(&mut self, rows: PreparedColumns<'_>, position: impl Fn(usize) -> u32) {
        let n = rows[0].len();
        let mut verdicts = [0u8; SCAN_CHUNK];
        self.q.pretest(rows, &mut verdicts[..n]);
        for (count, verdict) in self.overlapping.iter_mut().zip(&verdicts[..n]) {
            *count += u32::from(verdict & OVERLAPS);
        }
        // The solver's rows, eight verdicts at a time.
        for (word, group) in verdicts.chunks_exact(8).enumerate() {
            let group = u64::from_le_bytes(group.try_into().expect("eight verdicts"));
            let mut may_match = group & u64::from_le_bytes([MAY_MATCH; 8]);
            while may_match != 0 {
                let j = 8 * word + may_match.trailing_zeros() as usize / 8;
                may_match &= may_match - 1;
                let entry = PreparedEntry::from_row(row_at(rows, j));
                if let Some(interval) = self.q.within_prepared(&entry) {
                    let lane = &mut self.lanes[j % self.lanes.len()];
                    (self.on_hit)(lane, position(j), interval);
                }
            }
        }
        self.compared += n as u64;
    }

    /// Post each lane's closed-form charge, plus `id_bytes` per candidate
    /// it was dealt, and return the comparisons performed.
    fn finish(self, id_bytes: u64) -> u64 {
        let w = self.lanes.len();
        for (l, lane) in self.lanes.iter_mut().enumerate() {
            let k = lane_share(self.compared, l, w);
            let overlapping: u64 =
                self.overlapping.iter().skip(l).step_by(w).map(|&c| u64::from(c)).sum();
            lane.gmem_read((TIMESTAMP_BYTES + id_bytes) * k + COORDINATE_BYTES * overlapping);
            lane.instr(COMPARE_INSTR * k);
        }
        self.compared
    }
}

/// The query set `Q` resident in device memory: one plain 64-byte row per
/// segment — start, end, `t_start`, `t_end`; ids stay on the host.
#[derive(Debug)]
pub struct DeviceQueries {
    rows: DeviceBuffer<[f64; 8]>,
}

/// A segment's device row (ids dropped).
fn row_of(s: &Segment) -> [f64; 8] {
    [s.start.x, s.start.y, s.start.z, s.end.x, s.end.y, s.end.z, s.t_start, s.t_end]
}

/// The segment of a device row, with placeholder ids: no kernel consumes
/// them (result records store positions).
fn segment_of([sx, sy, sz, ex, ey, ez, t_start, t_end]: [f64; 8]) -> Segment {
    Segment::new(
        Point3::new(sx, sy, sz),
        Point3::new(ex, ey, ez),
        t_start,
        t_end,
        SegId(0),
        TrajId(0),
    )
}

impl DeviceQueries {
    /// Upload `segments` *online*, charging the host-to-device transfer for
    /// exactly the bytes shipped (64 per segment).
    pub fn upload(
        device: &Arc<Device>,
        segments: &[Segment],
    ) -> Result<DeviceQueries, OutOfDeviceMemory> {
        Ok(DeviceQueries { rows: device.upload(segments.iter().map(row_of).collect())? })
    }

    /// Read query `pos` from a kernel lane, charging the full 64-byte row.
    pub fn read_segment(&self, lane: &mut Lane, pos: usize) -> Segment {
        segment_of(self.rows.read(lane, pos))
    }

    /// Warp-leader read of query `pos`, broadcast to the warp
    /// (`__shfl_sync` analogue): one converged row read charged at warp
    /// scope.
    pub fn broadcast(&self, warp: &mut Warp, pos: usize) -> Segment {
        warp.gmem_read(COLUMNAR_ROW_BYTES);
        segment_of(self.rows.as_slice()[pos])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdts_geom::{within_distance, SegmentStore};
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
            std::slice::from_mut(&mut lane),
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
        let dev = device();
        let resident = DeviceSegments::alloc(&dev, &segs).unwrap();
        assert_eq!(resident.len(), 2);
        assert_eq!(resident.size_bytes(), 2 * COLUMNAR_ROW_BYTES as usize);
        let _queries = DeviceQueries::upload(&dev, &segs).unwrap();
        assert_eq!(dev.ledger().h2d_bytes, 2 * COLUMNAR_ROW_BYTES);
        assert_eq!(dev.mem_used(), 4 * COLUMNAR_ROW_BYTES as usize);
    }

    #[test]
    fn query_reads_return_the_uploaded_segments_up_to_ids() {
        let segs: Vec<Segment> = (0..6).map(|i| seg(i as f64 * 2.0, i as f64 * 0.3, i)).collect();
        let queries = DeviceQueries::upload(&device(), &segs).unwrap();
        let mut warp = Warp::standalone(1);
        let same = |r: Segment, s: &Segment| {
            assert_eq!((r.start, r.end, r.t_start, r.t_end), (s.start, s.end, s.t_start, s.t_end))
        };
        for (i, s) in segs.iter().enumerate() {
            same(queries.broadcast(&mut warp, i), s);
        }
        warp.for_each_lane(|lane| {
            for (i, s) in segs.iter().enumerate() {
                same(queries.read_segment(lane, i), s);
            }
        });
    }

    #[test]
    fn full_query_read_charges_64_bytes() {
        let queries = DeviceQueries::upload(&device(), &[seg(0.0, 0.0, 0)]).unwrap();
        let mut warp = Warp::standalone(1);
        warp.for_each_lane(|lane| {
            queries.read_segment(lane, 0);
            assert_eq!(lane.counters().gmem_read_bytes, 64);
        });
        queries.broadcast(&mut warp, 0);
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
        let mut resident = DeviceSegments::alloc(&dev, store.segments()).unwrap();
        let delta = store.append(&[seg(9.0, 5.0, 9), seg(10.0, 6.0, 10)]);
        let mut reserved = dev.reserve(DeviceSegments::bytes_for(delta.count)).unwrap();
        resident.extend(&store.segments()[delta.from..], &mut reserved);
        assert_eq!(resident.len(), store.len());
        let expired = store.expire_before(2.0);
        assert!(!expired.removed.is_empty());
        resident.remove_positions(&expired.removed);
        assert_eq!(
            resident.column_slices(),
            prepare(store.segments()).each_ref().map(Vec::as_slice)
        );
        assert_eq!(dev.mem_used(), resident.size_bytes());
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

    #[test]
    fn lane_shares_deal_every_candidate_once() {
        for lanes in 1..=8 {
            for candidates in 0..40u64 {
                let shares: Vec<u64> =
                    (0..lanes).map(|l| lane_share(candidates, l, lanes)).collect();
                assert_eq!(shares.iter().sum::<u64>(), candidates);
                for (l, &k) in shares.iter().enumerate() {
                    // Lane `l` takes candidates l, l + lanes, … below the count.
                    assert_eq!(k, (l as u64..candidates).step_by(lanes).count() as u64);
                }
            }
        }
    }
}
