//! Spatiotemporal minimum bounding boxes.

use tdts_geom::{Mbb, Segment, TimeInterval};

/// A 4-D bounding box: spatial [`Mbb`] plus temporal extent.
///
/// The R-tree prunes on both: a subtree can be skipped when it is farther
/// than `d` in space *or* disjoint in time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StMbb {
    pub space: Mbb,
    pub time: TimeInterval,
}

impl StMbb {
    /// Bounding box of one segment.
    pub fn of_segment(s: &Segment) -> Self {
        StMbb { space: s.mbb(), time: s.time_span() }
    }

    /// The empty box (identity for [`merge`]).
    ///
    /// [`merge`]: StMbb::merge
    pub fn empty() -> Self {
        StMbb {
            space: Mbb::empty(),
            time: TimeInterval { start: f64::INFINITY, end: f64::NEG_INFINITY },
        }
    }

    /// Smallest box containing both.
    pub fn merge(&self, other: &StMbb) -> StMbb {
        StMbb {
            space: self.space.merge(&other.space),
            time: TimeInterval {
                start: self.time.start.min(other.time.start),
                end: self.time.end.max(other.time.end),
            },
        }
    }

    /// True if `other` may contain segments within distance `d` of a segment
    /// bounded by `self`: temporal overlap and spatial gap at most `d`.
    #[inline]
    pub fn may_match(&self, other: &StMbb, d: f64) -> bool {
        self.time.start <= other.time.end
            && other.time.start <= self.time.end
            && self.space.min_dist2_to_box(&other.space) <= d * d
    }

    /// Centre coordinate along packing dimension `dim`
    /// (0 = t, 1 = x, 2 = y, 3 = z) — used by the STR bulk load.
    #[inline]
    pub fn center(&self, dim: usize) -> f64 {
        match dim {
            0 => 0.5 * (self.time.start + self.time.end),
            1 => 0.5 * (self.space.lo.x + self.space.hi.x),
            2 => 0.5 * (self.space.lo.y + self.space.hi.y),
            3 => 0.5 * (self.space.lo.z + self.space.hi.z),
            _ => panic!("packing dimension out of range: {dim}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdts_geom::{Point3, SegId, TrajId};

    fn seg(lo: f64, hi: f64, t0: f64, t1: f64) -> Segment {
        Segment::new(Point3::splat(lo), Point3::splat(hi), t0, t1, SegId(0), TrajId(0))
    }

    #[test]
    fn of_segment_and_merge() {
        let a = StMbb::of_segment(&seg(0.0, 1.0, 0.0, 1.0));
        let b = StMbb::of_segment(&seg(2.0, 3.0, 2.0, 3.0));
        let m = a.merge(&b);
        assert_eq!(m.space.lo, Point3::splat(0.0));
        assert_eq!(m.space.hi, Point3::splat(3.0));
        assert_eq!(m.time, TimeInterval::new(0.0, 3.0));
        // Identity.
        assert_eq!(StMbb::empty().merge(&a), a);
        assert_eq!(a.merge(&StMbb::empty()), a);
    }

    #[test]
    fn may_match_requires_both_dims() {
        let a = StMbb::of_segment(&seg(0.0, 1.0, 0.0, 1.0));
        let near_time_far_space = StMbb::of_segment(&seg(10.0, 11.0, 0.5, 1.5));
        let near_space_far_time = StMbb::of_segment(&seg(1.5, 2.0, 5.0, 6.0));
        assert!(!a.may_match(&near_time_far_space, 1.0));
        assert!(!a.may_match(&near_space_far_time, 1.0));
        // sqrt(3 * 9^2) ≈ 15.6 gap corner-to-corner.
        assert!(a.may_match(&near_time_far_space, 16.0));
        let near_both = StMbb::of_segment(&seg(1.5, 2.0, 0.5, 1.5));
        assert!(a.may_match(&near_both, 1.0));
        assert!(!a.may_match(&near_both, 0.5));
    }

    #[test]
    fn centers() {
        let a = StMbb::of_segment(&seg(0.0, 2.0, 4.0, 6.0));
        assert_eq!(a.center(0), 5.0);
        assert_eq!(a.center(1), 1.0);
        assert_eq!(a.center(2), 1.0);
        assert_eq!(a.center(3), 1.0);
    }
}
