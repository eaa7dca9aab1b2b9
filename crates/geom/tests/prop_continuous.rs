//! Property-based tests for the continuous distance solver and MBB algebra.

use proptest::prelude::*;
use tdts_geom::{
    within_distance, Mbb, Point3, PreparedEntry, PreparedQuery, SegId, Segment, TimeInterval,
    TrajId,
};

fn arb_point() -> impl Strategy<Value = Point3> {
    (-50.0f64..50.0, -50.0f64..50.0, -50.0f64..50.0).prop_map(|(x, y, z)| Point3::new(x, y, z))
}

fn arb_segment() -> impl Strategy<Value = Segment> {
    (arb_point(), arb_point(), 0.0f64..10.0, 0.001f64..5.0)
        .prop_map(|(a, b, t0, dt)| Segment::new(a, b, t0, t0 + dt, SegId(0), TrajId(0)))
}

/// The solver as it was written before [`PreparedQuery`] existed: every
/// quantity, the query's included, derived inside the one call. Kept
/// verbatim as the reference the prepared form must match bit for bit.
fn unprepared_within_distance(a: &Segment, b: &Segment, d: f64) -> Option<TimeInterval> {
    let ov = a.time_span().intersect(&b.time_span())?;
    let va = a.velocity();
    let vb = b.velocity();
    let base_a = a.start - va * a.t_start;
    let base_b = b.start - vb * b.t_start;
    let dv = va - vb;
    let dp = base_a - base_b;
    let c2 = dv.norm2();
    let c1 = 2.0 * dp.dot(&dv);
    let c0 = dp.norm2();
    let d2 = d * d;
    if c2 <= 0.0 {
        return if c0 <= d2 { Some(ov) } else { None };
    }
    let c = c0 - d2;
    let disc = c1 * c1 - 4.0 * c2 * c;
    if disc < 0.0 {
        return None;
    }
    let sq = disc.sqrt();
    let q = -0.5 * (c1 + c1.signum() * sq);
    let (mut r0, mut r1) = if q != 0.0 {
        (q / c2, c / q)
    } else {
        let r = (-c / c2).max(0.0).sqrt();
        (-r, r)
    };
    if r0 > r1 {
        std::mem::swap(&mut r0, &mut r1);
    }
    TimeInterval::new(r0, r1).intersect(&ov)
}

fn bits(iv: Option<TimeInterval>) -> Option<(u64, u64)> {
    iv.map(|iv| (iv.start.to_bits(), iv.end.to_bits()))
}

proptest! {
    /// Preparing the query once changes no bit of any answer, in either
    /// argument order, and `within_distance` is that same solver.
    #[test]
    fn prepared_equals_unprepared(a in arb_segment(), b in arb_segment(), d in 0.0f64..30.0) {
        for (x, y) in [(&a, &b), (&b, &a), (&a, &a)] {
            let expect = bits(unprepared_within_distance(x, y, d));
            prop_assert_eq!(bits(PreparedQuery::new(x, d).within(y)), expect);
            prop_assert_eq!(bits(within_distance(x, y, d)), expect);
        }
    }

    /// Preparing the entry once, as the device database does when it places
    /// an entry, changes no bit of any answer — including the degenerate
    /// entries: zero duration (the `v = 0` branch), parallel motion
    /// (`c2 = 0`), `d = 0`, and a separation of exactly `d`.
    #[test]
    fn prepared_entry_equals_within_distance(
        q in arb_segment(),
        e in arb_segment(),
        kind in 0u32..5,
        shift in (-20i32..20, -20i32..20),
        d in (0u32..4, 0.0f64..30.0),
    ) {
        let d = if d.0 == 0 { 0.0 } else { d.1 };
        let offset = Point3::new(f64::from(shift.0), f64::from(shift.1), 0.0);
        let (e, d) = match kind {
            // Zero duration: a stationary point inside the query's span.
            0 => (Segment::new(e.start, e.start, q.t_start, q.t_start, SegId(1), TrajId(1)), d),
            // Parallel motion: the query translated, same timestamps.
            1 => (Segment::new(q.start + offset, q.end + offset, q.t_start, q.t_end,
                               SegId(1), TrajId(1)), d),
            // The same translation tested at exactly its separation.
            2 => (Segment::new(q.start + offset, q.end + offset, q.t_start, q.t_end,
                               SegId(1), TrajId(1)), offset.norm2().sqrt()),
            // The query itself, at any d (d = 0 included).
            3 => (q, d),
            _ => (e, d),
        };
        let expect = bits(unprepared_within_distance(&q, &e, d));
        let prepared = PreparedQuery::new(&q, d).within_prepared(&PreparedEntry::new(&e));
        prop_assert_eq!(bits(prepared), expect);
        prop_assert_eq!(bits(within_distance(&q, &e, d)), expect);
        prop_assert_eq!(PreparedEntry::new(&e).time_span(), e.time_span());
    }

    /// Any time inside the returned interval must actually satisfy the
    /// distance condition (up to rounding), and any time strictly outside it
    /// (within the overlap) must not.
    #[test]
    fn interval_is_sound(a in arb_segment(), b in arb_segment(), d in 0.1f64..30.0) {
        let d2 = d * d;
        if let Some(iv) = within_distance(&a, &b, d) {
            // Sample inside the interval.
            for k in 0..=10 {
                let t = iv.start + iv.length() * (k as f64) / 10.0;
                let sep = a.position_at(t).dist2(&b.position_at(t));
                prop_assert!(sep <= d2 * (1.0 + 1e-6) + 1e-9,
                    "inside t={t}: sep2 {sep} > d2 {d2}");
            }
            // Interval lies inside the temporal overlap.
            let ov = a.time_span().intersect(&b.time_span()).unwrap();
            prop_assert!(iv.start >= ov.start - 1e-9);
            prop_assert!(iv.end <= ov.end + 1e-9);
            // Just outside the interval (but inside the overlap) must violate
            // the condition, unless the interval endpoint is clamped to the
            // overlap boundary.
            let eps = 1e-4 * (1.0 + iv.length());
            if iv.start - eps > ov.start {
                let t = iv.start - eps;
                let sep = a.position_at(t).dist2(&b.position_at(t));
                prop_assert!(sep >= d2 * (1.0 - 1e-6) - 1e-9,
                    "before start t={t}: sep2 {sep} < d2 {d2}");
            }
            if iv.end + eps < ov.end {
                let t = iv.end + eps;
                let sep = a.position_at(t).dist2(&b.position_at(t));
                prop_assert!(sep >= d2 * (1.0 - 1e-6) - 1e-9,
                    "after end t={t}: sep2 {sep} < d2 {d2}");
            }
        } else if let Some(ov) = a.time_span().intersect(&b.time_span()) {
            // No interval: no sampled time may satisfy the condition strictly.
            for k in 0..=20 {
                let t = ov.start + ov.length() * (k as f64) / 20.0;
                let sep = a.position_at(t).dist2(&b.position_at(t));
                prop_assert!(sep >= d2 * (1.0 - 1e-9) - 1e-9,
                    "no-interval but t={t} has sep2 {sep} < d2 {d2}");
            }
        }
    }

    /// The test is symmetric in its segment arguments.
    #[test]
    fn symmetry(a in arb_segment(), b in arb_segment(), d in 0.1f64..30.0) {
        let ab = within_distance(&a, &b, d);
        let ba = within_distance(&b, &a, d);
        match (ab, ba) {
            (Some(x), Some(y)) => prop_assert!(x.approx_eq(&y, 1e-9)),
            (None, None) => {}
            other => prop_assert!(false, "asymmetric result {other:?}"),
        }
    }

    /// Monotonicity: a larger threshold can only widen the interval.
    #[test]
    fn monotone_in_d(a in arb_segment(), b in arb_segment(), d in 0.1f64..20.0) {
        let small = within_distance(&a, &b, d);
        let large = within_distance(&a, &b, d * 2.0);
        if let Some(s) = small {
            let l = large.expect("interval disappeared when d grew");
            prop_assert!(l.start <= s.start + 1e-9);
            prop_assert!(l.end >= s.end - 1e-9);
        }
    }

    /// A segment is always within any non-negative distance of itself over
    /// its whole extent.
    #[test]
    fn reflexive(a in arb_segment(), d in 0.0f64..10.0) {
        let iv = within_distance(&a, &a, d).expect("segment not within d of itself");
        prop_assert!(iv.approx_eq(&a.time_span(), 1e-9));
    }

    /// MBB of a segment contains every interpolated position.
    #[test]
    fn mbb_contains_positions(a in arb_segment(), s in 0.0f64..1.0) {
        let t = a.t_start + a.duration() * s;
        let p = a.position_at(t);
        prop_assert!(a.mbb().contains_point(&p));
    }

    /// Inflating an MBB by the distance between boxes makes them overlap.
    #[test]
    fn inflate_by_gap_overlaps(a in arb_segment(), b in arb_segment()) {
        let (ma, mb) = (a.mbb(), b.mbb());
        let gap = ma.min_dist2_to_box(&mb).sqrt();
        prop_assert!(ma.inflate(gap + 1e-9).overlaps(&mb));
    }

    /// Merge is commutative and contains both inputs.
    #[test]
    fn mbb_merge_properties(a in arb_segment(), b in arb_segment()) {
        let (ma, mb) = (a.mbb(), b.mbb());
        let m1 = ma.merge(&mb);
        let m2 = mb.merge(&ma);
        prop_assert_eq!(m1, m2);
        prop_assert!(m1.contains_box(&ma));
        prop_assert!(m1.contains_box(&mb));
    }

    /// min_dist2_to_box is zero iff the boxes overlap.
    #[test]
    fn mbb_distance_consistency(a in arb_segment(), b in arb_segment()) {
        let (ma, mb) = (a.mbb(), b.mbb());
        let d2 = ma.min_dist2_to_box(&mb);
        if ma.overlaps(&mb) {
            prop_assert_eq!(d2, 0.0);
        } else {
            prop_assert!(d2 > 0.0);
        }
    }
}

#[test]
fn mbb_empty_identities() {
    let e = Mbb::empty();
    let a = Mbb::new(Point3::ZERO, Point3::splat(1.0));
    assert_eq!(e.merge(&a), a);
    assert_eq!(a.merge(&e), a);
}
