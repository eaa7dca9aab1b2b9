//! Property-based tests for the continuous distance solver and MBB algebra.

use proptest::prelude::*;
use tdts_geom::{
    first_invalid, within_distance, Mbb, Point3, PreparedEntry, PreparedQuery, SegId, Segment,
    TimeInterval, TrajId, DOMAIN_BOUND, MAY_MATCH, OVERLAPS,
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

/// Require the pre-test's invariant of `q` at `d` on every row of
/// `entries`, pre-tested together as columns: [`OVERLAPS`] is exactly the
/// temporal overlap, [`MAY_MATCH`] comes only with it, and a row without
/// `MAY_MATCH` is one `within_prepared` answers `None` for.
fn assert_pretest_superset(q: &Segment, d: f64, entries: &[Segment]) {
    let prepared = PreparedQuery::new(q, d);
    let rows: Vec<PreparedEntry> = entries.iter().map(PreparedEntry::new).collect();
    let columns: [Vec<f64>; 8] =
        std::array::from_fn(|c| rows.iter().map(|row| row.to_row()[c]).collect());
    let mut verdicts = vec![0xff; rows.len()];
    prepared.pretest(columns.each_ref().map(Vec::as_slice), &mut verdicts);
    for ((e, row), verdict) in entries.iter().zip(&rows).zip(verdicts) {
        assert_eq!(PreparedEntry::from_row(row.to_row()), *row);
        let overlaps = q.time_span().intersect(&e.time_span()).is_some();
        assert_eq!(verdict & OVERLAPS != 0, overlaps, "overlap verdict of {e:?} vs {q:?}");
        assert_eq!(verdict & !(OVERLAPS | MAY_MATCH), 0, "stray verdict bits");
        assert!(overlaps || verdict & MAY_MATCH == 0, "MAY_MATCH without overlap");
        if verdict & MAY_MATCH == 0 {
            let exact = prepared.within_prepared(row);
            assert_eq!(exact, None, "pre-test rejected a match: q {q:?}, e {e:?}, d {d}");
        }
    }
}

/// The threshold where `within_prepared` of `q` against `e` turns from
/// `None` to `Some`, as two adjacent doubles `(none, some)`, found by
/// bisecting the bit patterns of non-negative `d` (which order like the
/// values). `None` when the pair never overlaps in time or touches at
/// `d = 0`. At `some` the solver's discriminant is as close to zero as a
/// double allows whenever the closest approach falls inside the overlap,
/// so any rounding the pre-test does differently from the solver shows.
fn flip_point(q: &Segment, e: &Segment) -> Option<(f64, f64)> {
    let ov = q.time_span().intersect(&e.time_span())?;
    let within = |d: f64| PreparedQuery::new(q, d).within(e).is_some();
    let far = q.position_at(ov.start).dist(&e.position_at(ov.start));
    let (mut none, mut some) = (0.0f64.to_bits(), (2.0 * far + 1.0).min(DOMAIN_BOUND).to_bits());
    if within(0.0) || !within(f64::from_bits(some)) {
        return None;
    }
    while some - none > 1 {
        let mid = none + (some - none) / 2;
        if within(f64::from_bits(mid)) {
            some = mid;
        } else {
            none = mid;
        }
    }
    Some((f64::from_bits(none), f64::from_bits(some)))
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

    /// The scan's pre-test passes every row the solver can match: on
    /// random rows and on every degenerate kind — parallel motion
    /// (`c2 = 0`), `d = 0`, a separation of exactly `d`, zero-duration and
    /// temporally disjoint entries — and at the exact threshold where each
    /// random pair starts to match.
    #[test]
    fn pretest_rejects_only_what_the_solver_rejects(
        q in arb_segment(),
        es in proptest::collection::vec(arb_segment(), 1..24),
        shift in (-20i32..20, -20i32..20, -3i32..3),
        d in (0u32..4, 0.0f64..30.0),
    ) {
        let d = if d.0 == 0 { 0.0 } else { d.1 };
        let offset = Point3::new(f64::from(shift.0), f64::from(shift.1), f64::from(shift.2));
        let parallel = Segment::new(q.start + offset, q.end + offset, q.t_start, q.t_end,
                                    SegId(1), TrajId(1));
        let mut entries = es.clone();
        entries.extend([
            q,
            parallel,
            // Zero duration: a stationary point inside the query's span.
            Segment::new(es[0].start, es[0].start, q.t_start, q.t_start, SegId(2), TrajId(2)),
            // Zero duration at the query's end, and one just past it.
            Segment::new(es[0].end, es[0].end, q.t_end, q.t_end, SegId(3), TrajId(3)),
            Segment::new(q.end, q.end, q.t_end + 1e-9, q.t_end + 1e-9, SegId(4), TrajId(4)),
            // Temporally disjoint: the query itself, later.
            Segment::new(q.start, q.end, q.t_end + 1.0, q.t_end + 2.0, SegId(5), TrajId(5)),
        ]);
        for d in [d, 0.0] {
            assert_pretest_superset(&q, d, &entries);
        }
        // Parallel motion at exactly its separation.
        assert_pretest_superset(&q, offset.norm(), &[parallel]);
        for e in &es {
            if let Some((none, some)) = flip_point(&q, e) {
                assert_pretest_superset(&q, none, &[*e]);
                assert_pretest_superset(&q, some, &[*e]);
            }
        }
    }

    /// The same invariant at the edge of the numeric domain: coordinates,
    /// timestamps and thresholds up to 2^160 in magnitude.
    #[test]
    fn pretest_superset_holds_at_the_domain_edge(
        q in arb_segment(),
        es in proptest::collection::vec(arb_segment(), 1..12),
        scale in (0u32..4, 100i32..=160),
        d in 0.0f64..1.0,
    ) {
        let k = 2.0f64.powi(scale.1);
        let big = |s: &Segment| {
            let (start, end) = (s.start * k, s.end * k);
            let (t_start, t_end) = if scale.0 == 0 {
                (s.t_start * k, s.t_end * k)
            } else {
                (s.t_start, s.t_end)
            };
            Segment::new(start, end, t_start, t_end, s.seg_id, s.traj_id)
        };
        let q = big(&q);
        let entries: Vec<Segment> = es.iter().map(big).collect();
        let d = (d * k).min(DOMAIN_BOUND);
        if first_invalid(std::iter::once(&q).chain(&entries)).is_none() {
            assert_pretest_superset(&q, d, &entries);
            assert_pretest_superset(&q, DOMAIN_BOUND, &entries);
            for e in &entries {
                if let Some((none, some)) = flip_point(&q, e) {
                    assert_pretest_superset(&q, none, &[*e]);
                    assert_pretest_superset(&q, some, &[*e]);
                }
            }
        }
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
