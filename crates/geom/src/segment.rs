//! 4-D trajectory line segments.

use crate::{Mbb, Point3, TimeInterval};

/// Identifier of an entry or query segment within its database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegId(pub u32);

/// Identifier of the trajectory a segment belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrajId(pub u32);

/// A spatiotemporal trajectory line segment.
///
/// The segment models an object moving in a straight line at constant
/// velocity from `start` (at time `t_start`) to `end` (at time `t_end`).
/// This matches the paper's database entries: a 4-D (1 temporal + 3 spatial
/// dimensions) line segment with a segment id and a trajectory id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    pub start: Point3,
    pub end: Point3,
    pub t_start: f64,
    pub t_end: f64,
    pub seg_id: SegId,
    pub traj_id: TrajId,
}

impl Segment {
    /// Construct a segment. `t_start <= t_end` is required (debug-asserted).
    #[inline]
    pub fn new(
        start: Point3,
        end: Point3,
        t_start: f64,
        t_end: f64,
        seg_id: SegId,
        traj_id: TrajId,
    ) -> Self {
        debug_assert!(t_start <= t_end, "segment with t_start {t_start} > t_end {t_end}");
        Segment { start, end, t_start, t_end, seg_id, traj_id }
    }

    /// True when the segment lies in the [numeric domain](crate::DOMAIN_BOUND):
    /// all eight coordinates and timestamps, and the three components of its
    /// [velocity](Segment::velocity), have magnitude at most 2¹⁶⁰ (NaN and
    /// infinity do not), and `t_start <= t_end`. Every comparison against NaN
    /// is false, the index methods prune on different coordinates, and past
    /// the domain the distance test's coefficients overflow, so a segment
    /// failing this makes the methods disagree with each other instead of
    /// erroring. It is refused wherever segments enter from outside (a built
    /// database, query batches, ingest); [`first_invalid`](crate::first_invalid)
    /// names the rule it breaks.
    pub fn is_valid(&self) -> bool {
        crate::domain::segment_violation(self).is_none()
    }

    /// Temporal extent `[t_start, t_end]`.
    #[inline]
    pub fn time_span(&self) -> TimeInterval {
        TimeInterval::new(self.t_start, self.t_end)
    }

    /// Duration of the segment (`t_end - t_start`).
    #[inline]
    pub fn duration(&self) -> f64 {
        self.t_end - self.t_start
    }

    /// Velocity vector. Zero for instantaneous segments (`t_end == t_start`).
    #[inline]
    pub fn velocity(&self) -> Point3 {
        let dt = self.duration();
        if dt > 0.0 {
            (self.end - self.start) / dt
        } else {
            Point3::ZERO
        }
    }

    /// Position of the moving object at time `t`.
    ///
    /// `t` is clamped to the temporal extent so callers can evaluate at
    /// interval endpoints computed with rounding error.
    #[inline]
    pub fn position_at(&self, t: f64) -> Point3 {
        let dt = self.duration();
        if dt <= 0.0 {
            return self.start;
        }
        let s = ((t - self.t_start) / dt).clamp(0.0, 1.0);
        self.start.lerp(&self.end, s)
    }

    /// Spatial minimum bounding box of the segment.
    #[inline]
    pub fn mbb(&self) -> Mbb {
        Mbb::new(self.start.min(&self.end), self.start.max(&self.end))
    }

    /// Spatial extent of the segment in dimension `dim` (0 = x, 1 = y, 2 = z).
    #[inline]
    pub fn spatial_extent(&self, dim: usize) -> f64 {
        (self.end.coord(dim) - self.start.coord(dim)).abs()
    }

    /// Minimum coordinate over both endpoints in dimension `dim`.
    #[inline]
    pub fn min_coord(&self, dim: usize) -> f64 {
        self.start.coord(dim).min(self.end.coord(dim))
    }

    /// Maximum coordinate over both endpoints in dimension `dim`.
    #[inline]
    pub fn max_coord(&self, dim: usize) -> f64 {
        self.start.coord(dim).max(self.end.coord(dim))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(start: Point3, end: Point3, t0: f64, t1: f64) -> Segment {
        Segment::new(start, end, t0, t1, SegId(0), TrajId(0))
    }

    #[test]
    fn velocity_and_position() {
        let s = seg(Point3::ZERO, Point3::new(2.0, 4.0, 6.0), 1.0, 3.0);
        assert_eq!(s.velocity(), Point3::new(1.0, 2.0, 3.0));
        assert_eq!(s.position_at(1.0), Point3::ZERO);
        assert_eq!(s.position_at(2.0), Point3::new(1.0, 2.0, 3.0));
        assert_eq!(s.position_at(3.0), Point3::new(2.0, 4.0, 6.0));
        // Clamped outside the extent.
        assert_eq!(s.position_at(0.0), Point3::ZERO);
        assert_eq!(s.position_at(9.0), Point3::new(2.0, 4.0, 6.0));
    }

    #[test]
    fn instantaneous_segment() {
        let s = seg(Point3::new(1.0, 1.0, 1.0), Point3::new(1.0, 1.0, 1.0), 2.0, 2.0);
        assert_eq!(s.duration(), 0.0);
        assert_eq!(s.velocity(), Point3::ZERO);
        assert_eq!(s.position_at(2.0), Point3::new(1.0, 1.0, 1.0));
    }

    #[test]
    fn extents_and_mbb() {
        let s = seg(Point3::new(1.0, 5.0, -2.0), Point3::new(4.0, 3.0, 0.0), 0.0, 1.0);
        assert_eq!(s.spatial_extent(0), 3.0);
        assert_eq!(s.spatial_extent(1), 2.0);
        assert_eq!(s.spatial_extent(2), 2.0);
        assert_eq!(s.min_coord(1), 3.0);
        assert_eq!(s.max_coord(1), 5.0);
        let mbb = s.mbb();
        assert_eq!(mbb.lo, Point3::new(1.0, 3.0, -2.0));
        assert_eq!(mbb.hi, Point3::new(4.0, 5.0, 0.0));
    }

    #[test]
    fn time_span() {
        let s = seg(Point3::ZERO, Point3::ZERO, 1.5, 2.5);
        assert_eq!(s.time_span(), TimeInterval::new(1.5, 2.5));
    }
}
