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

use crate::{check_threshold, Point3, Segment, TimeInterval};

/// Affine position model `p(t) = base + v t` of a segment over its extent,
/// as `(v, base)`.
#[inline]
fn affine_model(s: &Segment) -> (Point3, Point3) {
    let v = s.velocity();
    (v, s.start - v * s.t_start)
}

/// An entry segment prepared for repeated distance tests: its half of the
/// quadratic — velocity, affine base `start − v·t_start` and time span —
/// computed once, when the entry is placed on the device, instead of once
/// per comparison.
///
/// A device-resident database keeps its entries as the eight columns of
/// [`PreparedColumns`], not as rows of this type; [`to_row`] and
/// [`from_row`] convert between one entry and one row across them.
/// [`PreparedEntry::new`] performs exactly the operations the unprepared
/// test performs on its second argument, so
/// [`PreparedQuery::within_prepared`] agrees with [`within_distance`] bit
/// for bit.
///
/// [`to_row`]: PreparedEntry::to_row
/// [`from_row`]: PreparedEntry::from_row
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparedEntry {
    velocity: Point3,
    base: Point3,
    span: TimeInterval,
}

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

    /// The entry's row across the [`PreparedColumns`]:
    /// `[vx, vy, vz, bx, by, bz, t_start, t_end]`.
    #[inline]
    pub fn to_row(&self) -> [f64; 8] {
        let (v, b, span) = (self.velocity, self.base, self.span);
        [v.x, v.y, v.z, b.x, b.y, b.z, span.start, span.end]
    }

    /// The entry whose [`to_row`](PreparedEntry::to_row) is `row`.
    #[inline(always)]
    pub fn from_row([vx, vy, vz, bx, by, bz, start, end]: [f64; 8]) -> PreparedEntry {
        PreparedEntry {
            velocity: Point3::new(vx, vy, vz),
            base: Point3::new(bx, by, bz),
            span: TimeInterval { start, end },
        }
    }
}

/// Prepared entries in struct-of-arrays form: the eight columns
/// `vx vy vz bx by bz t_start t_end` of [`PreparedEntry::to_row`], entry
/// `i` in row `i` of each — the layout the simulated device is charged
/// for, and the one [`PreparedQuery::pretest`] reads with unit stride.
pub type PreparedColumns<'a> = [&'a [f64]; 8];

/// [`PreparedQuery::pretest`]'s verdict on a chunk of at most 64 rows, one
/// bit per row in each word: bit `i` is row `i`'s, and no bit at or above
/// the chunk's length is set. One vote word per chunk, as a GPU subgroup
/// ballots a predicate across its lanes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ballot {
    /// The rows that overlap the query in time.
    pub overlaps: u64,
    /// The rows that may come within the distance, so
    /// [`PreparedQuery::within_prepared`] must decide them: those of
    /// `overlaps` whose discriminant is not negative.
    pub may_match: u64,
}

/// The coefficients of the squared separation
/// `|r(t)|² = c2·t² + c1·t + c0` of two affine motions, and the
/// discriminant of `c2·t² + c1·t + (c0 − d²)`. The one place they are
/// computed, so [`PreparedQuery::pretest`] and
/// [`PreparedQuery::within_prepared`] run the same IEEE operations in the
/// same order and agree on every bit of them.
struct Quadratic {
    c2: f64,
    c1: f64,
    c0: f64,
    /// `c0 − d²`.
    c: f64,
    disc: f64,
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
    /// `q` and `d` must lie in the [numeric domain](crate::DOMAIN_BOUND):
    /// `q` [valid](Segment::is_valid) and `0 ≤ d ≤ 2¹⁶⁰`. That is a
    /// precondition, not a check: `QueryBatch::validate` refuses anything
    /// else as a typed error at every search entry point, and the assertion
    /// here only catches a caller inside the workspace that bypassed it
    /// (debug builds).
    #[inline]
    pub fn new(q: &Segment, d: f64) -> PreparedQuery {
        debug_assert!(check_threshold(d).is_ok(), "invalid query distance {d}");
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
        let Quadratic { c2, c1, c0, c, disc } = self.quadratic(entry.velocity, entry.base);

        if c2 <= 0.0 {
            // Parallel motion (zero relative velocity): constant separation c0.
            return if c0 <= self.d2 { Some(ov) } else { None };
        }

        // Solve c2 t^2 + c1 t + (c0 - d2) <= 0. Every coefficient and the
        // discriminant are finite inside the numeric domain (DOMAIN_BOUND).
        if disc < 0.0 {
            return None; // never within d
        }
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

    /// [`Quadratic`] of the query against an entry moving as
    /// `base + velocity·t`: `dv` is the relative velocity, `dp` the
    /// relative position at `t = 0`.
    #[inline(always)]
    fn quadratic(&self, velocity: Point3, base: Point3) -> Quadratic {
        let dv = self.model.0 - velocity;
        let dp = self.model.1 - base;
        let c2 = dv.norm2();
        let c1 = 2.0 * dp.dot(&dv);
        let c0 = dp.norm2();
        let c = c0 - self.d2;
        Quadratic { c2, c1, c0, c, disc: c1 * c1 - 4.0 * c2 * c }
    }

    /// The branch-free pre-test of the refinement scan: the [`Ballot`] of a
    /// chunk of at most 64 rows, as many as the first column holds — bit
    /// `i` of `overlaps` set if row `i` overlaps the query in time, and of
    /// `may_match` if it also has `disc ≥ 0`.
    ///
    /// The invariant: a row without its `may_match` bit gets `None` from
    /// [`within_prepared`], exactly, so a scan runs the solver on the
    /// `may_match` rows alone and loses no match. It holds for every row
    /// and query without a NaN timestamp, which includes every one the
    /// numeric domain admits: both decide the overlap alike and compute
    /// the `Quadratic` with the same operations in the same order, and
    /// the solver answers `None` when the spans are disjoint or
    /// `disc < 0`. Its parallel-motion branch (`c2 = 0`) needs no term of
    /// its own: there `disc = c1² − 0 ≥ 0`, so the row is passed on.
    ///
    /// The loop reads each column with unit stride and has no branch, so
    /// the compiler vectorises it. It is compiled three times: for the
    /// target's baseline, for AVX2 (four rows an instruction) and for
    /// AVX-512 (eight), and runs the widest copy the CPU has ([`scan_isa`]
    /// says which). Every copy runs the same IEEE operations on every row —
    /// no fused multiply-add, no reassociation — so their ballots agree bit
    /// for bit.
    ///
    /// # Panics
    ///
    /// If the first column holds more than 64 rows, or another column
    /// fewer rows than the first.
    ///
    /// [`within_prepared`]: PreparedQuery::within_prepared
    #[inline]
    pub fn pretest(&self, rows: PreparedColumns<'_>) -> Ballot {
        #[allow(unsafe_code)]
        // SAFETY: `widest_copy` returns only a copy whose `detected` found
        // every feature it is compiled for on the running CPU.
        unsafe {
            self.pretest_as(widest_copy(), rows)
        }
    }

    /// [`pretest`](PreparedQuery::pretest) run by `copy`.
    ///
    /// # Safety
    ///
    /// `copy.detected()` must hold on the running CPU.
    #[allow(unsafe_code)]
    #[inline(always)]
    // SAFETY: a contract on the caller, who must name its detection.
    unsafe fn pretest_as(&self, copy: PretestCopy, rows: PreparedColumns<'_>) -> Ballot {
        match copy {
            PretestCopy::Portable => self.ballot(rows),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            // SAFETY: the caller has detected AVX2, the one feature
            // `pretest_avx2` is compiled for.
            PretestCopy::Avx2 => unsafe { self.pretest_avx2(rows) },
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            // SAFETY: the caller has detected the four AVX-512 subsets
            // `pretest_avx512` is compiled for.
            PretestCopy::Avx512 => unsafe { self.pretest_avx512(rows) },
            #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
            PretestCopy::Avx2 | PretestCopy::Avx512 => unreachable!("no x86 copy is detected"),
        }
    }

    /// [`pretest`](PreparedQuery::pretest)'s loop compiled for AVX2. Only
    /// the code generation differs: the body is the one `ballot`.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2")]
    fn pretest_avx2(&self, rows: PreparedColumns<'_>) -> Ballot {
        self.ballot(rows)
    }

    /// [`pretest`](PreparedQuery::pretest)'s loop compiled for AVX-512
    /// (eight rows an instruction, each comparison into a mask register).
    /// The body is the one `ballot`.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "avx512f,avx512vl,avx512dq,avx512bw")]
    fn pretest_avx512(&self, rows: PreparedColumns<'_>) -> Ballot {
        self.ballot(rows)
    }

    /// The body of [`pretest`](PreparedQuery::pretest), inlined into each
    /// copy so each is compiled for its own instruction set.
    #[inline(always)]
    fn ballot(&self, rows: PreparedColumns<'_>) -> Ballot {
        let [vx, vy, vz, bx, by, bz, t_start, t_end] = rows;
        let n = vx.len();
        assert!(n <= u64::BITS as usize, "a ballot holds at most 64 rows, not {n}");
        let (vy, vz, bx, by, bz) = (&vy[..n], &vz[..n], &bx[..n], &by[..n], &bz[..n]);
        let (t_start, t_end) = (&t_start[..n], &t_end[..n]);
        let TimeInterval { start: q_start, end: q_end } = self.span;
        let mut ballot = Ballot::default();
        // An empty or NaN query span overlaps no row. Tested once here, not
        // per row, so the loop's only lane-wide values are its comparisons.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(q_start <= q_end) {
            return ballot;
        }
        for i in 0..n {
            // `intersect(..).is_some()` — max(starts) <= min(ends) — as the
            // four comparisons it is equivalent to on non-NaN values, the
            // query's own tested above.
            let (start, end) = (t_start[i], t_end[i]);
            let overlaps = (start <= end) & (q_start <= end) & (start <= q_end);
            let velocity = Point3::new(vx[i], vy[i], vz[i]);
            let Quadratic { disc, .. } = self.quadratic(velocity, Point3::new(bx[i], by[i], bz[i]));
            // The negation of the solver's own reject test, so that a NaN
            // discriminant passes here as it passes there.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            let may_match = overlaps & !(disc < 0.0);
            // A select, not a shifted bool: each copy keeps the comparison
            // masks at full lane width and ORs the row's bit in under them.
            let bit = 1u64 << i;
            ballot.overlaps |= if overlaps { bit } else { 0 };
            ballot.may_match |= if may_match { bit } else { 0 };
        }
        ballot
    }

    /// [`within_prepared`](PreparedQuery::within_prepared) against an
    /// unprepared `entry`.
    #[inline]
    pub fn within(&self, entry: &Segment) -> Option<TimeInterval> {
        self.within_prepared(&PreparedEntry::new(entry))
    }
}

/// A copy of [`PreparedQuery::pretest`]'s loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PretestCopy {
    Portable,
    Avx2,
    Avx512,
}

impl PretestCopy {
    /// Whether the running CPU has every feature this copy is compiled
    /// for: the AVX-512 copy's four subsets are detected together.
    fn detected(self) -> bool {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            match self {
                PretestCopy::Portable => true,
                PretestCopy::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
                PretestCopy::Avx512 => {
                    std::arch::is_x86_feature_detected!("avx512f")
                        && std::arch::is_x86_feature_detected!("avx512vl")
                        && std::arch::is_x86_feature_detected!("avx512dq")
                        && std::arch::is_x86_feature_detected!("avx512bw")
                }
            }
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        {
            self == PretestCopy::Portable
        }
    }

    fn name(self) -> &'static str {
        match self {
            PretestCopy::Portable => "portable",
            PretestCopy::Avx2 => "avx2",
            PretestCopy::Avx512 => "avx512",
        }
    }
}

/// The widest copy the running CPU has, detected on the first call and
/// cached: the one choice behind [`PreparedQuery::pretest`].
#[inline]
fn widest_copy() -> PretestCopy {
    static WIDEST: std::sync::OnceLock<PretestCopy> = std::sync::OnceLock::new();
    *WIDEST.get_or_init(|| {
        [PretestCopy::Avx512, PretestCopy::Avx2]
            .into_iter()
            .find(|copy| copy.detected())
            .unwrap_or(PretestCopy::Portable)
    })
}

/// Which copy of [`PreparedQuery::pretest`]'s loop this host runs:
/// `"avx512"`, `"avx2"` or `"portable"`. Read-only — the CPU decides,
/// nothing else — so that every host-wall number can say which loop
/// produced it.
pub fn scan_isa() -> &'static str {
    widest_copy().name()
}

/// The continuous distance threshold test.
///
/// Returns the closed sub-interval of the temporal overlap of `a` and `b`
/// during which the two moving points are within Euclidean distance `d`,
/// or `None` if they never are (or never overlap temporally).
///
/// `a`, `b` and `d` must lie in the [numeric domain](crate::DOMAIN_BOUND),
/// inside which every coefficient of the quadratic is finite, so the
/// answer is exact up to their rounding. That is a precondition:
/// `QueryBatch::validate` and the
/// database and ingest checks are the enforcing boundary — every search
/// entry point and the service's admission refuse anything else with a
/// typed error before a comparison runs.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Point3, SegId, TrajId};

    /// Reference implementation of [`within_distance`] by dense time
    /// sampling: samples the temporal overlap at `steps + 1` points and
    /// returns the hull of the sample times within distance `d`.
    fn within_distance_sampled(
        a: &Segment,
        b: &Segment,
        d: f64,
        steps: usize,
    ) -> Option<TimeInterval> {
        let ov = a.time_span().intersect(&b.time_span())?;
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

    /// Rows in one chunk of the kernels' refinement scan (`SCAN_CHUNK`),
    /// one ballot word. The variant tests run every chunk length up to a
    /// full ballot at four start offsets, so every copy's vector body and
    /// scalar tail run.
    const CHUNK: usize = 64;

    /// The wide copies, each compared with the portable body.
    const WIDE_COPIES: [PretestCopy; 2] = [PretestCopy::Avx2, PretestCopy::Avx512];

    /// A wide copy this CPU lacks compares nothing in `test`: say so rather
    /// than pass silently. Written to stderr directly, which the test
    /// harness does not capture, so the line shows in a passing run.
    fn note_skipped_copies(test: &str) {
        use std::io::Write;
        for copy in WIDE_COPIES.into_iter().filter(|copy| !copy.detected()) {
            let name = copy.name();
            let line = format!("{test}: this CPU has no {name}; the {name} copy was skipped\n");
            let _ = std::io::stderr().write_all(line.as_bytes());
        }
    }

    /// Require every wide copy this CPU runs, and the dispatched pre-test,
    /// to cast the portable body's ballot, mask for mask: `rows` cut into
    /// ballots from each of the first four start offsets, each ballot at
    /// every length up to a full one, so every row is tested in every slot.
    fn assert_copies_agree(q: &PreparedQuery, rows: &[[f64; 8]]) {
        let columns: [Vec<f64>; 8] = std::array::from_fn(|c| rows.iter().map(|r| r[c]).collect());
        let starts = (0..rows.len().min(4)).flat_map(|offset| (offset..rows.len()).step_by(CHUNK));
        for start in starts {
            for n in 0..=(rows.len() - start).min(CHUNK) {
                let chunk = columns.each_ref().map(|c| &c[start..start + n]);
                let portable = q.ballot(chunk);
                let past = u64::MAX.checked_shl(n as u32).unwrap_or(0);
                assert_eq!(portable.overlaps & past, 0, "a bit past row {n}");
                assert_eq!(portable.may_match & !portable.overlaps, 0, "may_match without overlap");
                for copy in WIDE_COPIES.into_iter().filter(|copy| copy.detected()) {
                    #[allow(unsafe_code)]
                    // SAFETY: `copy.detected()` has just found every feature
                    // the copy is compiled for on the running CPU.
                    let wide = unsafe { q.pretest_as(copy, chunk) };
                    assert_eq!(wide, portable, "{copy:?}, {n} rows from {start}, query {q:?}");
                }
                assert_eq!(q.pretest(chunk), portable, "dispatched, {n} rows from {start}");
            }
        }
    }

    /// A query with any span, motion and `d²`, NaN and infinities included:
    /// the fields `PreparedQuery::new` would compute, set directly.
    fn raw_query(span: (f64, f64), v: Point3, base: Point3, d2: f64) -> PreparedQuery {
        PreparedQuery { span: TimeInterval { start: span.0, end: span.1 }, model: (v, base), d2 }
    }

    /// Deterministic pseudo-random segments via an LCG: motions in a
    /// 100-unit box over spans inside `[-0.5, 11.5]`, about one in five
    /// disjoint from `[0, 1]`.
    fn lcg_segments(n: usize, seed: u64) -> Vec<Segment> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        (0..n)
            .map(|_| {
                let p = (next() * 100.0 - 50.0, next() * 100.0 - 50.0, next() * 10.0);
                let e = (p.0 + next() * 8.0 - 4.0, p.1 + next() * 8.0 - 4.0, p.2 + next() - 0.5);
                let t0 = next() * 6.0 - 0.5;
                seg(p, e, t0, t0 + next() * 6.0)
            })
            .collect()
    }

    fn rows_of(segments: &[Segment]) -> Vec<[f64; 8]> {
        segments.iter().map(|s| PreparedEntry::new(s).to_row()).collect()
    }

    #[test]
    fn pretest_copies_agree_at_every_chunk_length() {
        note_skipped_copies("pretest_copies_agree_at_every_chunk_length");
        let rows = rows_of(&lcg_segments(2 * CHUNK + 3, 0x2545f4914f6cdd1d));
        let q = seg((-1.0, 2.0, 3.0), (0.5, 1.5, 3.5), 0.0, 1.0);
        for d in [0.0, 0.5, 5.0, 25.0, 200.0] {
            assert_copies_agree(&PreparedQuery::new(&q, d), &rows);
        }
    }

    #[test]
    fn pretest_copies_agree_on_nan_inf_and_signed_zero_timestamps() {
        note_skipped_copies("pretest_copies_agree_on_nan_inf_and_signed_zero_timestamps");
        let special = [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 1.0];
        let pairs: Vec<(f64, f64)> =
            special.iter().flat_map(|&a| special.iter().map(move |&b| (a, b))).collect();
        let motion = rows_of(&lcg_segments(pairs.len(), 7));
        let rows: Vec<[f64; 8]> = pairs
            .iter()
            .zip(&motion)
            .map(|(&(t0, t1), row)| [row[0], row[1], row[2], row[3], row[4], row[5], t0, t1])
            .collect();
        let (v, base) = (Point3::new(0.1, -0.2, 0.3), Point3::new(1.0, 2.0, 3.0));
        for &span in &pairs {
            assert_copies_agree(&raw_query(span, v, base, 2500.0), &rows);
        }
        // The same specials in each motion column and in d².
        for c in 0..6 {
            for &x in &special {
                let mut rows = rows.clone();
                rows.iter_mut().step_by(3).for_each(|row| row[c] = x);
                assert_copies_agree(&raw_query((0.0, 1.0), v, base, x.abs()), &rows);
            }
        }
    }

    #[test]
    fn pretest_copies_agree_on_parallel_motion_and_zero_d() {
        note_skipped_copies("pretest_copies_agree_on_parallel_motion_and_zero_d");
        let q = seg((0.0, 0.0, 0.0), (1.0, 2.0, 3.0), 0.0, 1.0);
        // The query translated (c2 = 0) by 0, 1, 2, … units, and stationary
        // points on its path (a zero-duration entry at each of its times).
        let rows: Vec<[f64; 8]> = (0..2 * CHUNK + 3)
            .map(|i| {
                let k = i as f64;
                let e = if i % 2 == 0 {
                    seg((0.0, k / 2.0, 0.0), (1.0, 2.0 + k / 2.0, 3.0), 0.0, 1.0)
                } else {
                    let t = k / (2 * CHUNK) as f64;
                    let p = q.position_at(t.min(1.0));
                    seg((p.x, p.y, p.z), (p.x, p.y, p.z), t, t)
                };
                PreparedEntry::new(&e).to_row()
            })
            .collect();
        for d in [0.0, 1.0, 2.5, 3.0] {
            assert_copies_agree(&PreparedQuery::new(&q, d), &rows);
        }
    }

    #[test]
    fn pretest_copies_agree_at_the_domain_edge() {
        note_skipped_copies("pretest_copies_agree_at_the_domain_edge");
        // Coordinates up to 2^160, timestamps too in every other row.
        let k = crate::DOMAIN_BOUND / 64.0;
        let big = |s: &Segment, time: bool| {
            let t = if time { k } else { 1.0 };
            Segment::new(s.start * k, s.end * k, s.t_start * t, s.t_end * t, s.seg_id, s.traj_id)
        };
        let segments: Vec<Segment> = lcg_segments(2 * CHUNK + 3, 11)
            .iter()
            .enumerate()
            .map(|(i, s)| big(s, i % 2 == 0))
            .collect();
        let rows = rows_of(&segments);
        let q = seg((-1.0, 1.0, 0.0), (1.0, -1.0, 0.5), 0.0, 1.0);
        for q in [big(&q, false), big(&q, true)] {
            for d in [0.0, 1.0, k, crate::DOMAIN_BOUND] {
                assert_copies_agree(&PreparedQuery::new(&q, d), &rows);
            }
        }
    }

    proptest::proptest! {
        /// The copies agree on the rows of `prop_continuous`'s generators:
        /// random segments, and the degenerate kinds its pre-test property
        /// adds to them.
        #[test]
        fn pretest_copies_agree_on_generated_rows(
            q in arb_segment(),
            es in proptest::collection::vec(arb_segment(), 1..40),
            shift in (-20i32..20, -20i32..20, -3i32..3),
            d in (0u32..4, 0.0f64..30.0),
        ) {
            static NOTE: std::sync::Once = std::sync::Once::new();
            NOTE.call_once(|| note_skipped_copies("pretest_copies_agree_on_generated_rows"));
            let d = if d.0 == 0 { 0.0 } else { d.1 };
            let offset = Point3::new(f64::from(shift.0), f64::from(shift.1), f64::from(shift.2));
            let mut entries = es.clone();
            entries.extend([
                q,
                Segment::new(q.start + offset, q.end + offset, q.t_start, q.t_end,
                             SegId(1), TrajId(1)),
                Segment::new(es[0].start, es[0].start, q.t_start, q.t_start, SegId(2), TrajId(2)),
                Segment::new(q.start, q.end, q.t_end + 1.0, q.t_end + 2.0, SegId(3), TrajId(3)),
            ]);
            let rows = rows_of(&entries);
            for d in [d, 0.0, offset.norm()] {
                assert_copies_agree(&PreparedQuery::new(&q, d), &rows);
            }
            // Each pair at its flip point, where the discriminant is as
            // close to zero as a double allows: a row in each slot of a
            // vector and of the tail.
            for e in &es {
                if let Some((none, some)) = flip_point(&q, e) {
                    let rows = rows_of(&[*e; 9]);
                    for d in [none, some] {
                        assert_copies_agree(&PreparedQuery::new(&q, d), &rows);
                    }
                }
            }
        }
    }

    /// `prop_continuous`'s flip point: the two adjacent doubles `(none,
    /// some)` between which `within` of `q` against `e` turns from `None`
    /// to `Some`, found by bisecting the bit patterns of non-negative `d`.
    fn flip_point(q: &Segment, e: &Segment) -> Option<(f64, f64)> {
        let ov = q.time_span().intersect(&e.time_span())?;
        let within = |d: f64| PreparedQuery::new(q, d).within(e).is_some();
        let far = q.position_at(ov.start).dist(&e.position_at(ov.start));
        let (mut none, mut some) = (0.0f64.to_bits(), (2.0 * far + 1.0).to_bits());
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

    /// `prop_continuous`'s segment generator.
    fn arb_segment() -> impl proptest::prelude::Strategy<Value = Segment> {
        use proptest::prelude::Strategy;
        let arb_point = || {
            (-50.0f64..50.0, -50.0f64..50.0, -50.0f64..50.0)
                .prop_map(|(x, y, z)| Point3::new(x, y, z))
        };
        (arb_point(), arb_point(), 0.0f64..10.0, 0.001f64..5.0)
            .prop_map(|(a, b, t0, dt)| Segment::new(a, b, t0, t0 + dt, SegId(0), TrajId(0)))
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
