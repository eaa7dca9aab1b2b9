//! The continuous distance threshold test between two moving points.
//!
//! During the temporal overlap of two segments, each object's position is an
//! affine function of time, so the squared separation is a quadratic in `t`
//! that opens upward. The set of times at which the objects are within a
//! distance `d` of each other is therefore a single closed interval (possibly
//! empty), obtained by solving `|r(t)|^2 <= d^2` and clamping to the overlap.
//!
//! This is the refinement step (`compare()` in Algorithms 1–3 of the paper):
//! it is exact — no time sampling is involved.

use crate::{Point3, Segment, TimeInterval};

/// Affine position model `p(t) = base + v t` of a segment over its extent,
/// as `(v, base)`.
#[inline]
fn affine_model(s: &Segment) -> (Point3, Point3) {
    let v = s.velocity();
    (v, s.start - v * s.t_start)
}

/// Temporal overlap of two segments, or `None` if they are temporally disjoint.
#[inline]
pub fn temporal_overlap(a: &Segment, b: &Segment) -> Option<TimeInterval> {
    a.time_span().intersect(&b.time_span())
}

/// An entry segment prepared for repeated distance tests: its half of the
/// quadratic — velocity, affine base `start − v·t_start` and time span —
/// computed once, when the entry is placed on the device, instead of once
/// per comparison.
///
/// The layout is one 64-byte row, `(v, base, t_start, t_end)`. It keeps
/// the natural 8-byte alignment: a 64-byte alignment made no measurable
/// difference to scan speed, while aligned reallocation (which cannot grow
/// in place) raised peak memory on streaming ingest. [`PreparedEntry::new`]
/// performs exactly the operations the unprepared test performs on its
/// second argument, so [`PreparedQuery::within_prepared`] agrees with
/// [`within_distance`] bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct PreparedEntry {
    velocity: Point3,
    base: Point3,
    span: TimeInterval,
}

const _: () = assert!(std::mem::size_of::<PreparedEntry>() == 64);

impl PreparedEntry {
    /// Prepare entry `e`.
    #[inline]
    pub fn new(e: &Segment) -> PreparedEntry {
        let (velocity, base) = affine_model(e);
        PreparedEntry { velocity, base, span: e.time_span() }
    }

    /// Temporal extent of the prepared entry.
    #[inline]
    pub fn time_span(&self) -> TimeInterval {
        self.span
    }
}

/// A query segment prepared for repeated distance tests at one threshold.
///
/// Everything [`within_distance`] derives from its first argument and `d`
/// alone — the time span, the velocity, the affine base `start − v·t_start`
/// and `d²` — is computed once here; [`PreparedEntry`] does the same for
/// the second argument. [`within_prepared`] is the one solver: [`within`]
/// and [`within_distance`] are wrappers over it, so every form agrees bit
/// for bit.
///
/// [`within_prepared`]: PreparedQuery::within_prepared
/// [`within`]: PreparedQuery::within
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparedQuery {
    span: TimeInterval,
    /// `(velocity, base)` of the query's affine position model.
    model: (Point3, Point3),
    d2: f64,
}

impl PreparedQuery {
    /// Prepare `q` for tests at distance `d`.
    ///
    /// `d` must be non-negative with a finite square. That is a
    /// precondition, not a check: `QueryBatch::validate` refuses any other
    /// `d` as a typed error at every search entry point, and the assertion
    /// here only catches a caller inside the workspace that bypassed it
    /// (debug builds).
    #[inline]
    pub fn new(q: &Segment, d: f64) -> PreparedQuery {
        debug_assert!(d >= 0.0 && (d * d).is_finite(), "invalid query distance {d}");
        PreparedQuery { span: q.time_span(), model: affine_model(q), d2: d * d }
    }

    /// Temporal extent of the prepared query.
    #[inline]
    pub fn time_span(&self) -> TimeInterval {
        self.span
    }

    /// The continuous distance threshold test of the prepared query against
    /// the prepared `entry`: the closed sub-interval of their temporal
    /// overlap during which the two moving points are within the prepared
    /// distance, or `None` if they never are (or never overlap temporally).
    ///
    /// Always inlined: the refinement scans call it once per candidate, and
    /// an out-of-line call would round-trip both models through memory.
    #[inline(always)]
    pub fn within_prepared(&self, entry: &PreparedEntry) -> Option<TimeInterval> {
        let ov = self.span.intersect(&entry.span)?;
        // Coefficients of the squared separation |r(t)|^2 = c2 t^2 + c1 t + c0,
        // valid over the overlap.
        let dv = self.model.0 - entry.velocity; // relative velocity
        let dp = self.model.1 - entry.base; // relative position at t = 0
        let c2 = dv.norm2();
        let c1 = 2.0 * dp.dot(&dv);
        let c0 = dp.norm2();

        if c2 <= 0.0 {
            // Parallel motion (zero relative velocity): constant separation c0.
            return if c0 <= self.d2 { Some(ov) } else { None };
        }

        // Solve c2 t^2 + c1 t + (c0 - d2) <= 0.
        let c = c0 - self.d2;
        let disc = c1 * c1 - 4.0 * c2 * c;
        if disc < 0.0 {
            return None; // never within d
        }
        if !disc.is_finite() {
            // +inf, or NaN from inf − inf: the discriminant overflowed.
            return within_rescaled(c2, c1, c, ov);
        }
        within_roots(c2, c1, c, disc, ov)
    }

    /// [`within_prepared`](PreparedQuery::within_prepared) against an
    /// unprepared `entry`.
    #[inline]
    pub fn within(&self, entry: &Segment) -> Option<TimeInterval> {
        self.within_prepared(&PreparedEntry::new(entry))
    }
}

/// The sub-interval of `ov` where `c2 t² + c1 t + c <= 0`, given its
/// discriminant `disc >= 0` (`c2 > 0`).
#[inline(always)]
fn within_roots(c2: f64, c1: f64, c: f64, disc: f64, ov: TimeInterval) -> Option<TimeInterval> {
    // Numerically stable root computation (avoids cancellation when
    // c1 and sqrt(disc) are close in magnitude).
    let sq = disc.sqrt();
    let q = -0.5 * (c1 + c1.signum() * sq);
    // q == 0 only when c1 == 0 exactly, where q/c2 and c/q divide by zero.
    // lint: allow(float-eq): exact-zero algebraic guard, not a threshold test
    let (mut r0, mut r1) = if q != 0.0 {
        (q / c2, c / q)
    } else {
        // c1 == 0 and disc == c1^2 - 4 c2 c >= 0: symmetric roots.
        let r = (-c / c2).max(0.0).sqrt();
        (-r, r)
    };
    if r0 > r1 {
        std::mem::swap(&mut r0, &mut r1);
    }
    TimeInterval::new(r0, r1).intersect(&ov)
}

/// [`within_roots`] for a discriminant that overflowed (a large `d` or a
/// fast relative motion): all three coefficients are first scaled by one
/// power of two, chosen so both terms of the discriminant land below 4.
/// Such scaling is exact and leaves the roots unchanged, so the answer is
/// the one unbounded-exponent arithmetic would give (unless a scaled
/// coefficient falls below the normal range). Out of line, so the
/// refinement scans' hot path carries one compare for it.
#[cold]
fn within_rescaled(c2: f64, c1: f64, c: f64, ov: TimeInterval) -> Option<TimeInterval> {
    if !(c2.is_finite() && c1.is_finite() && c.is_finite()) {
        return within_roots(c2, c1, c, c1 * c1 - 4.0 * c2 * c, ov);
    }
    // Binary exponent of a positive finite value (subnormals read as -1023).
    let exponent = |x: f64| ((x.to_bits() >> 52) & 0x7ff) as i32 - 1023;
    // 2^-e for 0 <= e <= 1022.
    let inverse_pow2 = |e: i32| f64::from_bits(((1023 - e) as u64) << 52);
    // |c1| < 2^k and 2·sqrt(c2·|c|) < 2^(k+1).
    let k = exponent(c1.abs()).max(exponent(c2.sqrt()) + exponent(c.abs().sqrt()) + 1).max(0) + 1;
    // In two steps, because 2^-k may be subnormal; each is exact.
    let (s1, s2) = (inverse_pow2(k / 2), inverse_pow2(k - k / 2));
    let (c2, c1, c) = (c2 * s1 * s2, c1 * s1 * s2, c * s1 * s2);
    let disc = c1 * c1 - 4.0 * c2 * c;
    if disc < 0.0 {
        return None;
    }
    within_roots(c2, c1, c, disc, ov)
}

/// The continuous distance threshold test.
///
/// Returns the closed sub-interval of the temporal overlap of `a` and `b`
/// during which the two moving points are within Euclidean distance `d`,
/// or `None` if they never are (or never overlap temporally).
///
/// `d` must be non-negative with a finite square. That is a precondition:
/// `QueryBatch::validate` is the enforcing boundary — every search entry
/// point and the service's admission refuse any other `d` with a typed
/// error before a comparison runs.
///
/// There is one solver: this is [`PreparedQuery::new`]`(a, d)` followed by
/// [`within_prepared`](PreparedQuery::within_prepared) against
/// [`PreparedEntry::new`]`(b)`.
///
/// ```
/// use tdts_geom::{within_distance, Point3, SegId, Segment, TrajId};
///
/// // Two objects crossing at the origin at t = 0.5.
/// let a = Segment::new(Point3::new(-1.0, 0.0, 0.0), Point3::new(1.0, 0.0, 0.0),
///                      0.0, 1.0, SegId(0), TrajId(0));
/// let b = Segment::new(Point3::new(0.0, -1.0, 0.0), Point3::new(0.0, 1.0, 0.0),
///                      0.0, 1.0, SegId(1), TrajId(1));
/// let iv = within_distance(&a, &b, 2.0_f64.sqrt() / 2.0).unwrap();
/// assert!((iv.start - 0.25).abs() < 1e-9);
/// assert!((iv.end - 0.75).abs() < 1e-9);
/// assert!(within_distance(&a, &b, 0.0).is_some()); // they actually touch
/// ```
pub fn within_distance(a: &Segment, b: &Segment, d: f64) -> Option<TimeInterval> {
    PreparedQuery::new(a, d).within(b)
}

/// Reference implementation of [`within_distance`] by dense time sampling.
///
/// Only intended for tests: samples the overlap at `steps + 1` points and
/// returns the hull of the sample times within distance `d`. Exposed from the
/// crate so the integration suites and property tests of downstream crates
/// can cross-check the analytic solver.
pub fn within_distance_sampled(
    a: &Segment,
    b: &Segment,
    d: f64,
    steps: usize,
) -> Option<TimeInterval> {
    let ov = temporal_overlap(a, b)?;
    let d2 = d * d;
    let mut first: Option<f64> = None;
    let mut last: Option<f64> = None;
    for i in 0..=steps {
        let t = ov.start + ov.length() * (i as f64) / (steps as f64).max(1.0);
        let pa = a.position_at(t);
        let pb = b.position_at(t);
        if pa.dist2(&pb) <= d2 {
            if first.is_none() {
                first = Some(t);
            }
            last = Some(t);
        }
    }
    match (first, last) {
        (Some(s), Some(e)) => Some(TimeInterval::new(s, e)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Point3, SegId, TrajId};

    fn seg(p0: (f64, f64, f64), p1: (f64, f64, f64), t0: f64, t1: f64) -> Segment {
        Segment::new(
            Point3::new(p0.0, p0.1, p0.2),
            Point3::new(p1.0, p1.1, p1.2),
            t0,
            t1,
            SegId(0),
            TrajId(0),
        )
    }

    #[test]
    fn temporally_disjoint() {
        let a = seg((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0, 1.0);
        let b = seg((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 2.0, 3.0);
        assert_eq!(within_distance(&a, &b, 100.0), None);
    }

    #[test]
    fn identical_segments_within_any_distance() {
        let a = seg((0.0, 0.0, 0.0), (1.0, 2.0, 3.0), 0.0, 1.0);
        let r = within_distance(&a, &a, 0.0).unwrap();
        assert_eq!(r, TimeInterval::new(0.0, 1.0));
    }

    #[test]
    fn parallel_constant_separation() {
        let a = seg((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0, 1.0);
        let b = seg((0.0, 3.0, 0.0), (1.0, 3.0, 0.0), 0.0, 1.0);
        assert_eq!(within_distance(&a, &b, 2.9), None);
        assert_eq!(within_distance(&a, &b, 3.0), Some(TimeInterval::new(0.0, 1.0)));
    }

    #[test]
    fn crossing_paths() {
        // Two objects crossing at the origin at t = 0.5.
        let a = seg((-1.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0, 1.0);
        let b = seg((0.0, -1.0, 0.0), (0.0, 1.0, 0.0), 0.0, 1.0);
        // Separation is sqrt(8) * |t - 0.5|; within d = sqrt(2)/2 for |t-0.5| <= 0.25.
        let d = (2.0f64).sqrt() / 2.0;
        let r = within_distance(&a, &b, d).unwrap();
        assert!((r.start - 0.25).abs() < 1e-9, "start {}", r.start);
        assert!((r.end - 0.75).abs() < 1e-9, "end {}", r.end);
    }

    #[test]
    fn interval_clamped_to_overlap() {
        // Same crossing, but b only exists for t in [0.5, 1.0].
        let a = seg((-1.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0, 1.0);
        let b = seg((0.0, 0.0, 0.0), (0.0, 1.0, 0.0), 0.5, 1.0);
        let d = (2.0f64).sqrt() / 2.0;
        let r = within_distance(&a, &b, d).unwrap();
        assert!(r.start >= 0.5);
        assert!(r.end <= 1.0);
    }

    #[test]
    fn never_within_distance() {
        let a = seg((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0, 1.0);
        let b = seg((0.0, 10.0, 0.0), (1.0, 11.0, 0.0), 0.0, 1.0);
        assert_eq!(within_distance(&a, &b, 1.0), None);
    }

    #[test]
    fn touch_exactly_at_threshold() {
        // Closest approach exactly equals d: result is a point interval.
        let a = seg((-1.0, 1.0, 0.0), (1.0, 1.0, 0.0), 0.0, 1.0);
        let b = seg((-1.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0, 1.0);
        // Constant separation 1.0 here (parallel); use crossing version instead:
        let c = seg((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), 0.0, 1.0);
        // a vs c: closest at t=0.5, separation 1.0 in y.
        let r = within_distance(&a, &c, 1.0).unwrap();
        assert!(r.length() < 1e-6);
        assert!((r.start - 0.5).abs() < 1e-6);
        let _ = b;
    }

    #[test]
    fn instantaneous_segments() {
        let a = seg((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 1.0, 1.0);
        let b = seg((0.5, 0.0, 0.0), (0.5, 0.0, 0.0), 1.0, 1.0);
        let r = within_distance(&a, &b, 0.6).unwrap();
        assert_eq!(r, TimeInterval::new(1.0, 1.0));
        assert_eq!(within_distance(&a, &b, 0.4), None);
    }

    #[test]
    fn huge_d_with_overflowing_discriminant_returns_the_whole_overlap() {
        // d² = 1e300 is finite, but 4·c2·(c0 − d²) = −1.6e313 is not. The
        // pair never separates by more than 2e6, so it is within d
        // throughout [0, 1].
        let a = seg((0.0, 0.0, 0.0), (2e6, 0.0, 0.0), 0.0, 1.0);
        let b = seg((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.0, 1.0);
        assert_eq!(within_distance(&a, &b, 1e150), Some(TimeInterval::new(0.0, 1.0)));
        assert_eq!(within_distance(&b, &a, 1e150), Some(TimeInterval::new(0.0, 1.0)));
        // Crossing, not merely near: the rescaled branch still finds a
        // contact interval strictly inside the overlap, where the
        // separation |t − 0.5|·4e100 is at most d = 1e99.
        let a = seg((-2e100, 0.0, 0.0), (2e100, 0.0, 0.0), 0.0, 1.0);
        let r = within_distance(&a, &b, 1e99).unwrap();
        assert!((r.start - 0.475).abs() < 1e-12 && (r.end - 0.525).abs() < 1e-12, "{r:?}");
        // Passing 3e99 away at that scale: no contact.
        let b = seg((0.0, 3e99, 0.0), (0.0, 3e99, 0.0), 0.0, 1.0);
        assert_eq!(within_distance(&a, &b, 1e99), None);
    }

    #[test]
    fn matches_sampled_reference() {
        // Deterministic pseudo-random segments via a simple LCG to avoid an
        // RNG dependency in unit tests.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) * 10.0 - 5.0
        };
        for _ in 0..200 {
            let a = seg((next(), next(), next()), (next(), next(), next()), 0.0, 1.0);
            let b = seg((next(), next(), next()), (next(), next(), next()), 0.0, 1.0);
            let d = 2.0;
            let analytic = within_distance(&a, &b, d);
            let sampled = within_distance_sampled(&a, &b, d, 20_000);
            match (analytic, sampled) {
                (Some(x), Some(y)) => {
                    assert!(
                        x.approx_eq(&y, 1e-3),
                        "analytic {x:?} vs sampled {y:?} for {a:?} {b:?}"
                    );
                }
                (None, None) => {}
                // Sampling can miss a grazing contact shorter than the step;
                // the analytic result must then be tiny.
                (Some(x), None) => assert!(x.length() < 1e-3),
                (None, Some(y)) => panic!("analytic missed interval {y:?}"),
            }
        }
    }
}
