//! Closed intervals on the temporal axis.

/// A closed time interval `[start, end]` with `start <= end`.
///
/// Distance threshold search results are annotated with the interval during
/// which the query and entry segments are within the threshold distance of
/// each other, so this type appears in every result record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeInterval {
    pub start: f64,
    pub end: f64,
}

impl TimeInterval {
    /// Create an interval; panics (in debug builds) if `start > end`.
    #[inline]
    pub fn new(start: f64, end: f64) -> Self {
        debug_assert!(start <= end, "TimeInterval start {start} > end {end}");
        TimeInterval { start, end }
    }

    /// Create an interval, ordering the endpoints if necessary.
    #[inline]
    pub fn ordered(a: f64, b: f64) -> Self {
        if a <= b {
            TimeInterval { start: a, end: b }
        } else {
            TimeInterval { start: b, end: a }
        }
    }

    /// Length of the interval (`end - start`). Zero for instantaneous intervals.
    #[inline]
    pub fn length(&self) -> f64 {
        self.end - self.start
    }

    /// True if `t` lies within the closed interval.
    #[inline]
    pub fn contains(&self, t: f64) -> bool {
        self.start <= t && t <= self.end
    }

    /// True if the closed intervals share at least one point.
    #[inline]
    pub fn overlaps(&self, other: &TimeInterval) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// Intersection of two closed intervals, `None` if disjoint.
    #[inline]
    pub fn intersect(&self, other: &TimeInterval) -> Option<TimeInterval> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start <= end {
            Some(TimeInterval { start, end })
        } else {
            None
        }
    }

    /// Approximate equality of both endpoints, for result-set comparisons.
    #[inline]
    pub fn approx_eq(&self, other: &TimeInterval, eps: f64) -> bool {
        (self.start - other.start).abs() <= eps && (self.end - other.end).abs() <= eps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_length() {
        let i = TimeInterval::new(1.0, 3.0);
        assert_eq!(i.length(), 2.0);
        let j = TimeInterval::ordered(3.0, 1.0);
        assert_eq!(j, i);
        let p = TimeInterval::new(2.0, 2.0);
        assert_eq!(p.length(), 0.0);
    }

    #[test]
    fn contains_points() {
        let i = TimeInterval::new(1.0, 3.0);
        assert!(i.contains(1.0));
        assert!(i.contains(3.0));
        assert!(i.contains(2.0));
        assert!(!i.contains(0.999));
        assert!(!i.contains(3.001));
    }

    #[test]
    fn overlap_and_intersection() {
        let a = TimeInterval::new(0.0, 2.0);
        let b = TimeInterval::new(1.0, 3.0);
        let c = TimeInterval::new(2.0, 4.0);
        let d = TimeInterval::new(2.5, 4.0);
        assert!(a.overlaps(&b));
        // Closed intervals: touching at a point counts as overlap.
        assert!(a.overlaps(&c));
        assert!(!a.overlaps(&d));
        assert_eq!(a.intersect(&b), Some(TimeInterval::new(1.0, 2.0)));
        assert_eq!(a.intersect(&c), Some(TimeInterval::new(2.0, 2.0)));
        assert_eq!(a.intersect(&d), None);
    }

    #[test]
    fn approx_equality() {
        let a = TimeInterval::new(0.0, 1.0);
        let b = TimeInterval::new(1e-12, 1.0 - 1e-12);
        assert!(a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&TimeInterval::new(0.1, 1.0), 1e-9));
    }
}
