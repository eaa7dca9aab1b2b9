//! Columnar (struct-of-arrays) segment layout.
//!
//! The paper's GPUSpatioTemporal index stores its `X`/`Y`/`Z` id arrays in
//! struct-of-arrays form precisely so that consecutive kernel lanes read
//! consecutive words — the coalescing requirement the companion technical
//! report identifies as the dominant kernel cost. [`SegmentColumns`] extends
//! that layout to the segment data itself: one `f64` column per scalar field
//! plus two `u32` id columns, so a lane that only needs `t_start` during
//! schedule filtering touches 8 contiguous bytes instead of dragging a whole
//! 72-byte [`Segment`] through the memory system.
//!
//! The simulated device charges its reads by this layout (16 bytes of
//! timestamps per comparison, the other 48 only on temporal overlap). A
//! device-resident database holds eight columns of the same bytes in
//! prepared form ([`PreparedColumns`](crate::PreparedColumns): velocity and
//! affine base in place of the endpoints, then the two timestamps), which
//! the refinement scan pre-tests with unit stride; ids never reach the
//! device — kernels address entries by position, never by id.

use crate::{Point3, SegId, Segment, TrajId};

/// Canonical order of the eight `f64` columns as consumed by device code:
/// start x/y/z, end x/y/z, `t_start`, `t_end`.
pub const F64_COLUMN_NAMES: [&str; 8] = ["sx", "sy", "sz", "ex", "ey", "ez", "t_start", "t_end"];

/// A segment database in columnar (struct-of-arrays) layout.
///
/// Each scalar field of [`Segment`] becomes its own column; row `i` across
/// all columns reconstructs the segment at position `i` of the originating
/// array-of-structs store. All ten columns always have equal length.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegmentColumns {
    /// Start-point x coordinates.
    pub sx: Vec<f64>,
    /// Start-point y coordinates.
    pub sy: Vec<f64>,
    /// Start-point z coordinates.
    pub sz: Vec<f64>,
    /// End-point x coordinates.
    pub ex: Vec<f64>,
    /// End-point y coordinates.
    pub ey: Vec<f64>,
    /// End-point z coordinates.
    pub ez: Vec<f64>,
    /// Segment start times.
    pub t_start: Vec<f64>,
    /// Segment end times.
    pub t_end: Vec<f64>,
    /// Segment ids (host-only; device kernels address by position).
    pub seg_ids: Vec<u32>,
    /// Trajectory ids (host-only).
    pub traj_ids: Vec<u32>,
}

impl SegmentColumns {
    /// Empty column set.
    pub fn new() -> Self {
        SegmentColumns::default()
    }

    /// Transpose an array-of-structs slice into columns.
    pub fn from_segments(segments: &[Segment]) -> Self {
        let n = segments.len();
        let mut c = SegmentColumns {
            sx: Vec::with_capacity(n),
            sy: Vec::with_capacity(n),
            sz: Vec::with_capacity(n),
            ex: Vec::with_capacity(n),
            ey: Vec::with_capacity(n),
            ez: Vec::with_capacity(n),
            t_start: Vec::with_capacity(n),
            t_end: Vec::with_capacity(n),
            seg_ids: Vec::with_capacity(n),
            traj_ids: Vec::with_capacity(n),
        };
        for s in segments {
            c.push(s);
        }
        c
    }

    /// Append one segment as a row across all columns.
    pub fn push(&mut self, s: &Segment) {
        self.sx.push(s.start.x);
        self.sy.push(s.start.y);
        self.sz.push(s.start.z);
        self.ex.push(s.end.x);
        self.ey.push(s.end.y);
        self.ez.push(s.end.z);
        self.t_start.push(s.t_start);
        self.t_end.push(s.t_end);
        self.seg_ids.push(s.seg_id.0);
        self.traj_ids.push(s.traj_id.0);
    }

    /// Number of rows (segments).
    #[inline]
    pub fn len(&self) -> usize {
        self.t_start.len()
    }

    /// True if no rows are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.t_start.is_empty()
    }

    /// Reconstruct the segment at row `i`. Returns `None` out of range.
    pub fn segment(&self, i: usize) -> Option<Segment> {
        if i >= self.len() {
            return None;
        }
        Some(Segment::new(
            Point3::new(self.sx[i], self.sy[i], self.sz[i]),
            Point3::new(self.ex[i], self.ey[i], self.ez[i]),
            self.t_start[i],
            self.t_end[i],
            SegId(self.seg_ids[i]),
            TrajId(self.traj_ids[i]),
        ))
    }

    /// Transpose back to an array-of-structs vector.
    pub fn to_segments(&self) -> Vec<Segment> {
        (0..self.len()).map(|i| self.segment(i).expect("row in range")).collect()
    }

    /// The eight `f64` columns in the canonical device order
    /// ([`F64_COLUMN_NAMES`]): start x/y/z, end x/y/z, `t_start`, `t_end`.
    ///
    /// The two id columns are deliberately absent: device kernels identify
    /// entries by position, so uploading ids would only inflate transfers.
    pub fn f64_columns(&self) -> [&[f64]; 8] {
        [&self.sx, &self.sy, &self.sz, &self.ex, &self.ey, &self.ez, &self.t_start, &self.t_end]
    }
}

impl FromIterator<Segment> for SegmentColumns {
    fn from_iter<I: IntoIterator<Item = Segment>>(iter: I) -> Self {
        let mut c = SegmentColumns::new();
        for s in iter {
            c.push(&s);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(i: u32) -> Segment {
        let f = i as f64;
        Segment::new(
            Point3::new(f, f + 0.5, -f),
            Point3::new(f + 1.0, f - 2.0, 0.25 * f),
            f,
            f + 1.5,
            SegId(i),
            TrajId(i / 4),
        )
    }

    #[test]
    fn round_trip_preserves_segments() {
        let segs: Vec<Segment> = (0..17).map(seg).collect();
        let cols = SegmentColumns::from_segments(&segs);
        assert_eq!(cols.len(), segs.len());
        assert!(!cols.is_empty());
        assert_eq!(cols.to_segments(), segs);
        for (i, s) in segs.iter().enumerate() {
            assert_eq!(cols.segment(i).as_ref(), Some(s));
        }
        assert!(cols.segment(segs.len()).is_none());
    }

    #[test]
    fn empty_columns() {
        let cols = SegmentColumns::new();
        assert!(cols.is_empty());
        assert_eq!(cols.len(), 0);
        assert!(cols.segment(0).is_none());
        assert!(cols.to_segments().is_empty());
    }

    #[test]
    fn f64_columns_follow_canonical_order() {
        let cols: SegmentColumns = (0..3).map(seg).collect();
        let f = cols.f64_columns();
        assert_eq!(f.len(), F64_COLUMN_NAMES.len());
        assert_eq!(f[0], cols.sx.as_slice());
        assert_eq!(f[5], cols.ez.as_slice());
        assert_eq!(f[6], cols.t_start.as_slice());
        assert_eq!(f[7], cols.t_end.as_slice());
        for col in f {
            assert_eq!(col.len(), cols.len());
        }
    }
}
