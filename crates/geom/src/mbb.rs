//! Spatial minimum bounding boxes.

use crate::Point3;

/// An axis-aligned 3-D minimum bounding box (MBB).
///
/// Used both by the flatly structured grid (segments are rasterised to grid
/// cells via their MBB) and by the R-tree baseline (leaf nodes pack `r`
/// segments per MBB).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mbb {
    pub lo: Point3,
    pub hi: Point3,
}

impl Mbb {
    /// Create a box from its min and max corners (debug-asserted ordering).
    #[inline]
    pub fn new(lo: Point3, hi: Point3) -> Self {
        debug_assert!(
            lo.x <= hi.x && lo.y <= hi.y && lo.z <= hi.z,
            "Mbb lo {lo:?} not <= hi {hi:?}"
        );
        Mbb { lo, hi }
    }

    /// The empty box: any `expand_to_point` or `merge` resets it.
    #[inline]
    pub fn empty() -> Self {
        Mbb { lo: Point3::splat(f64::INFINITY), hi: Point3::splat(f64::NEG_INFINITY) }
    }

    /// True if no point has been added yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo.x > self.hi.x
    }

    /// Grow to include `p`.
    #[inline]
    pub fn expand_to_point(&mut self, p: &Point3) {
        self.lo = self.lo.min(p);
        self.hi = self.hi.max(p);
    }

    /// Smallest box containing both boxes.
    #[inline]
    pub fn merge(&self, other: &Mbb) -> Mbb {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Mbb { lo: self.lo.min(&other.lo), hi: self.hi.max(&other.hi) }
    }

    /// Box inflated by `d` on every side (Minkowski sum with a cube of
    /// half-width `d`). Used to turn a distance-`d` query into an overlap
    /// query, conservatively (cube ⊇ sphere).
    #[inline]
    pub fn inflate(&self, d: f64) -> Mbb {
        debug_assert!(d >= 0.0);
        Mbb { lo: self.lo - Point3::splat(d), hi: self.hi + Point3::splat(d) }
    }

    /// True if the closed boxes share at least one point.
    #[inline]
    pub fn overlaps(&self, other: &Mbb) -> bool {
        self.lo.x <= other.hi.x
            && other.lo.x <= self.hi.x
            && self.lo.y <= other.hi.y
            && other.lo.y <= self.hi.y
            && self.lo.z <= other.hi.z
            && other.lo.z <= self.hi.z
    }

    /// True if `p` lies within the closed box.
    #[inline]
    pub fn contains_point(&self, p: &Point3) -> bool {
        self.lo.x <= p.x
            && p.x <= self.hi.x
            && self.lo.y <= p.y
            && p.y <= self.hi.y
            && self.lo.z <= p.z
            && p.z <= self.hi.z
    }

    /// True if `other` lies entirely within `self`.
    #[inline]
    pub fn contains_box(&self, other: &Mbb) -> bool {
        self.contains_point(&other.lo) && self.contains_point(&other.hi)
    }

    /// Squared minimum distance between two boxes (0 if they overlap).
    #[inline]
    pub fn min_dist2_to_box(&self, other: &Mbb) -> f64 {
        let gap =
            |alo: f64, ahi: f64, blo: f64, bhi: f64| -> f64 { (blo - ahi).max(0.0).max(alo - bhi) };
        let dx = gap(self.lo.x, self.hi.x, other.lo.x, other.hi.x);
        let dy = gap(self.lo.y, self.hi.y, other.lo.y, other.hi.y);
        let dz = gap(self.lo.z, self.hi.z, other.lo.z, other.hi.z);
        dx * dx + dy * dy + dz * dz
    }

    /// Side lengths.
    #[inline]
    pub fn extent(&self) -> Point3 {
        self.hi - self.lo
    }

    /// Centre point.
    #[inline]
    pub fn center(&self) -> Point3 {
        (self.lo + self.hi) * 0.5
    }

    /// Volume; 0 for degenerate boxes, 0 for empty.
    #[inline]
    pub fn volume(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let e = self.extent();
        e.x * e.y * e.z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_expand() {
        let mut b = Mbb::empty();
        assert!(b.is_empty());
        assert_eq!(b.volume(), 0.0);
        b.expand_to_point(&Point3::new(1.0, 2.0, 3.0));
        assert!(!b.is_empty());
        b.expand_to_point(&Point3::new(-1.0, 4.0, 0.0));
        assert_eq!(b.lo, Point3::new(-1.0, 2.0, 0.0));
        assert_eq!(b.hi, Point3::new(1.0, 4.0, 3.0));
    }

    #[test]
    fn merge_with_empty() {
        let a = Mbb::new(Point3::splat(1.0), Point3::splat(1.0));
        let e = Mbb::empty();
        assert_eq!(a.merge(&e), a);
        assert_eq!(e.merge(&a), a);
    }

    #[test]
    fn overlap_tests() {
        let a = Mbb::new(Point3::ZERO, Point3::splat(1.0));
        let b = Mbb::new(Point3::splat(0.5), Point3::splat(2.0));
        let c = Mbb::new(Point3::splat(1.0), Point3::splat(2.0)); // touches at corner
        let d = Mbb::new(Point3::splat(1.5), Point3::splat(2.0));
        assert!(a.overlaps(&b));
        assert!(a.overlaps(&c));
        assert!(!a.overlaps(&d));
    }

    #[test]
    fn inflate_makes_overlap() {
        let a = Mbb::new(Point3::ZERO, Point3::splat(1.0));
        let d = Mbb::new(Point3::splat(1.5), Point3::splat(2.0));
        assert!(!a.overlaps(&d));
        assert!(a.inflate(0.5).overlaps(&d));
    }

    #[test]
    fn containment() {
        let a = Mbb::new(Point3::ZERO, Point3::splat(4.0));
        let b = Mbb::new(Point3::splat(1.0), Point3::splat(2.0));
        assert!(a.contains_box(&b));
        assert!(!b.contains_box(&a));
        assert!(a.contains_point(&Point3::splat(4.0)));
        assert!(!a.contains_point(&Point3::new(4.1, 0.0, 0.0)));
    }

    #[test]
    fn distances() {
        let a = Mbb::new(Point3::ZERO, Point3::splat(1.0));
        let b = Mbb::new(Point3::new(3.0, 0.0, 0.0), Point3::new(4.0, 1.0, 1.0));
        assert_eq!(a.min_dist2_to_box(&b), 4.0);
        assert_eq!(a.min_dist2_to_box(&a), 0.0);
    }

    #[test]
    fn geometry_helpers() {
        let a = Mbb::new(Point3::ZERO, Point3::new(2.0, 4.0, 6.0));
        assert_eq!(a.extent(), Point3::new(2.0, 4.0, 6.0));
        assert_eq!(a.center(), Point3::new(1.0, 2.0, 3.0));
        assert_eq!(a.volume(), 48.0);
    }
}
