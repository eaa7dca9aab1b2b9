//! The numeric domain every search input lies in, and the one check of it.
//!
//! A search is exact only while the coefficients of the distance test's
//! quadratic are finite (see [`DOMAIN_BOUND`]). Segments and thresholds are
//! checked against the domain where they enter — a built database, a query
//! batch, an appended tail — so the solver itself carries no overflow
//! handling.

use crate::Segment;
use std::fmt;

/// The numeric domain: every coordinate, timestamp and velocity component
/// of a segment, and every distance threshold `d`, has magnitude at most
/// 2¹⁶⁰ (about 1.5×10⁴⁸). NaN lies outside it, and so does infinity.
///
/// Within the domain every intermediate of the distance test
/// ([`PreparedQuery::within_prepared`]) is finite. With every input of
/// magnitude at most 2ᵏ, per component:
///
/// * the affine base `start − v·t_start` has `|base| < 2^(2k+1)`, so the
///   relative velocity has `|dv| ≤ 2^(k+1)` and the relative base
///   `|dp| < 2^(2k+2)`;
/// * over three components, `c2 = |dv|² < 2^(2k+4)`,
///   `|c1| = 2·|dp·dv| < 2^(3k+6)` and `c0 = |dp|² < 2^(4k+6)`, and with
///   `d² ≤ 2^(2k)` also `|c| = |c0 − d²| < 2^(4k+6)`;
/// * so the discriminant `c1² − 4·c2·c` has magnitude below
///   `2^(6k+12) + 2^(6k+12) = 2^(6k+13)`.
///
/// That is finite (below 2¹⁰²⁴) for every k ≤ 168. The bound takes
/// k = 160, which leaves eight binades for rounding, so the solver needs
/// no overflow branch. Velocity is bounded on its own because a short
/// segment between two in-domain endpoints can still move arbitrarily fast.
///
/// [`PreparedQuery::within_prepared`]: crate::PreparedQuery::within_prepared
pub const DOMAIN_BOUND: f64 = (1u128 << 80) as f64 * (1u128 << 80) as f64;

/// Whether `v` lies in the numeric domain.
#[inline]
fn in_domain(v: f64) -> bool {
    v.abs() <= DOMAIN_BOUND
}

/// The domain rule `s` breaks, or `None` when it is valid.
pub(crate) fn segment_violation(s: &Segment) -> Option<&'static str> {
    let Segment { start, end, t_start, t_end, .. } = s;
    if ![start.x, start.y, start.z, end.x, end.y, end.z, *t_start, *t_end]
        .into_iter()
        .all(in_domain)
    {
        return Some("has a coordinate or timestamp that is NaN or past ±2^160");
    }
    if t_start > t_end {
        return Some("has t_start > t_end");
    }
    let v = s.velocity();
    if ![v.x, v.y, v.z].into_iter().all(in_domain) {
        return Some("has a velocity component past ±2^160");
    }
    None
}

/// The first segment that is not [valid](Segment::is_valid), as found by
/// [`first_invalid`]. Displays as `segment <position> <rule>`, for the
/// caller to prefix with the segment's role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidSegment {
    /// Position of the segment in the scanned sequence.
    pub position: usize,
    /// The domain rule it breaks.
    pub rule: &'static str,
}

impl fmt::Display for InvalidSegment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "segment {} {}", self.position, self.rule)
    }
}

/// The first segment of `segments` outside the numeric domain, or `None`
/// when every one is [valid](Segment::is_valid). Every entry point runs
/// this: a built database, a query batch and an appended tail.
pub fn first_invalid<'a>(
    segments: impl IntoIterator<Item = &'a Segment>,
) -> Option<InvalidSegment> {
    segments.into_iter().enumerate().find_map(|(position, s)| {
        segment_violation(s).map(|rule| InvalidSegment { position, rule })
    })
}

/// Refuse a distance threshold outside `0 ≤ d ≤ 2¹⁶⁰` (NaN included).
pub fn check_threshold(d: f64) -> Result<(), String> {
    if (0.0..=DOMAIN_BOUND).contains(&d) {
        Ok(())
    } else {
        Err(format!("distance threshold d must lie in [0, 2^160], got {d}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Point3, SegId, TrajId};

    fn seg(x0: f64, x1: f64, t0: f64, t1: f64) -> Segment {
        Segment {
            start: Point3::new(x0, 0.0, 0.0),
            end: Point3::new(x1, 0.0, 0.0),
            t_start: t0,
            t_end: t1,
            seg_id: SegId(0),
            traj_id: TrajId(0),
        }
    }

    #[test]
    fn bound_is_two_to_the_160() {
        assert_eq!(DOMAIN_BOUND, 2f64.powi(160));
    }

    #[test]
    fn each_rule_is_named() {
        let b = DOMAIN_BOUND;
        let past = f64::from_bits(b.to_bits() + 1); // one ulp past the bound
        assert_eq!(segment_violation(&seg(-b, b, -b, b)), None);
        assert_eq!(segment_violation(&seg(0.0, b, 0.0, 1.0)), None);
        assert_eq!(segment_violation(&seg(0.0, 0.0, b, b)), None);
        let coordinate = segment_violation(&seg(past, 0.0, 0.0, 1.0)).unwrap();
        assert!(coordinate.contains("coordinate"));
        assert_eq!(segment_violation(&seg(0.0, 0.0, 0.0, -past)), Some(coordinate));
        assert_eq!(segment_violation(&seg(f64::NAN, 0.0, 0.0, 1.0)), Some(coordinate));
        assert_eq!(segment_violation(&seg(0.0, 0.0, 1.0, 0.0)), Some("has t_start > t_end"));
        // Both endpoints in the domain, but 2^161 covered in one time unit.
        let fast = segment_violation(&seg(-b, b, 0.0, 1.0)).unwrap();
        assert!(fast.contains("velocity"));
        // Finite endpoints far past the domain: refused on the coordinates.
        assert_eq!(segment_violation(&seg(-2e154, 2e154, 0.0, 1.0)), Some(coordinate));
    }

    #[test]
    fn first_invalid_names_position_and_rule() {
        let segments =
            [seg(0.0, 1.0, 0.0, 1.0), seg(0.0, 1.0, 2.0, 1.0), seg(f64::NAN, 0.0, 0.0, 1.0)];
        let bad = first_invalid(&segments).unwrap();
        assert_eq!(bad.position, 1);
        assert_eq!(bad.to_string(), "segment 1 has t_start > t_end");
        assert_eq!(first_invalid(&segments[..1]), None);
    }

    #[test]
    fn threshold_bounds() {
        for d in [0.0, -0.0, 1.0, DOMAIN_BOUND] {
            assert_eq!(check_threshold(d), Ok(()), "{d}");
        }
        for d in [f64::NAN, -1.0, f64::from_bits(DOMAIN_BOUND.to_bits() + 1), 1e155, f64::INFINITY]
        {
            assert!(check_threshold(d).is_err(), "{d}");
        }
    }
}
