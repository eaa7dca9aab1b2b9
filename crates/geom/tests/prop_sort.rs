//! Property-based tests: `SegmentStore::sort_by_t_start` and the order it
//! applies, `t_start_order` (which also sorts query batches), give exactly
//! the permutation of a stable comparison sort under `partial_cmp` with
//! every NaN last — signed zeros tie and keep their row order — on both
//! paths (direct key comparison for small stores, the radix sort for large
//! ones), and the sort leaves the store's bookkeeping (the generation, the
//! re-tagged stats cache, the time-order flag) as that sort would.

use proptest::prelude::*;
use tdts_geom::{t_start_order, Point3, SegId, Segment, SegmentStore, TrajId};

/// The order before the radix sort: `slice::sort_by` with the comparator
/// the store used to sort with.
fn reference(segs: &[Segment]) -> Vec<Segment> {
    let mut sorted = segs.to_vec();
    sorted.sort_by(|a, b| match (a.t_start.is_nan(), b.t_start.is_nan()) {
        (false, false) => a.t_start.partial_cmp(&b.t_start).expect("neither key is NaN"),
        (a_nan, b_nan) => a_nan.cmp(&b_nan),
    });
    sorted
}

/// Row `id` starting at `t_start`; `dur` may be negative (an inverted
/// segment) or NaN, since the sort must order hostile rows too.
fn row(id: usize, t_start: f64, dur: f64) -> Segment {
    let p = Point3::new(id as f64, 0.0, 0.0);
    Segment {
        start: p,
        end: p,
        t_start,
        t_end: t_start + dur,
        seg_id: SegId(id as u32),
        traj_id: TrajId(0),
    }
}

/// A time drawn mostly from a small pool of duplicates, with the keys the
/// order is defined on at its edges: signed zeros, NaNs, infinities,
/// subnormals, negative times and arbitrary bit patterns.
fn arb_time() -> impl Strategy<Value = f64> {
    (0u32..16, 0u32..=u32::MAX, 0u32..=u32::MAX).prop_map(|(pick, hi, lo)| {
        let bits = u64::from(hi) << 32 | u64::from(lo);
        match pick {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => -f64::NAN,
            4 => f64::INFINITY,
            5 => f64::NEG_INFINITY,
            6 => f64::from_bits(bits & 0x000f_ffff_ffff_ffff),
            7 => -f64::from_bits(bits & 0x000f_ffff_ffff_ffff),
            8 => -((bits % 4) as f64),
            9 => f64::from_bits(bits),
            _ => (bits % 5) as f64,
        }
    })
}

/// A time that is mostly a signed zero: `-0.0` and `0.0` tie, densely.
fn signed_zero_time() -> impl Strategy<Value = f64> {
    (0u32..10).prop_map(|pick| match pick {
        0..=3 => 0.0,
        4..=7 => -0.0,
        8 => 1.0,
        _ => -1.0,
    })
}

/// Rows over `times`, arranged as drawn (0), presorted (1) or reversed (2).
fn store_of(times: &[f64], durs: &[f64], arrange: u32) -> SegmentStore {
    let segs: Vec<Segment> = times
        .iter()
        .zip(durs.iter().cycle())
        .enumerate()
        .map(|(i, (&t, &d))| row(i, t, d))
        .collect();
    let segs = match arrange {
        0 => segs,
        1 => reference(&segs),
        _ => reference(&segs).into_iter().rev().collect(),
    };
    SegmentStore::from_segments(segs)
}

/// Sort `store` and check it against the reference: the order
/// `t_start_order` gives, then the same rows in the same slots, one
/// generation later, the stats it held before, and the time-order flag of
/// the sorted rows.
fn check_sort(mut store: SegmentStore) {
    let expected = reference(store.segments());
    let order = t_start_order(store.segments());
    let ordered: Vec<u32> = order.iter().map(|&i| store.get(i as usize).seg_id.0).collect();
    let expected_ids: Vec<u32> = expected.iter().map(|s| s.seg_id.0).collect();
    assert_eq!(ordered, expected_ids, "t_start_order");
    let stats = format!("{:?}", store.stats());
    let generation = store.generation();
    store.sort_by_t_start();
    let ids = |segs: &[Segment]| segs.iter().map(|s| s.seg_id.0).collect::<Vec<_>>();
    assert_eq!(ids(store.segments()), ids(&expected), "permutation");
    let bits = |segs: &[Segment]| segs.iter().map(|s| s.t_start.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(store.segments()), bits(&expected), "rows moved whole");
    assert_eq!(store.generation(), generation + 1);
    assert_eq!(format!("{:?}", store.stats()), stats, "stats cache re-tagged");
    let mut prev = f64::NEG_INFINITY;
    let ordered = expected.iter().all(|s| {
        let ok = prev <= s.t_start && s.t_start <= s.t_end;
        prev = s.t_start;
        ok
    });
    assert_eq!(store.is_time_ordered(), ordered, "time-order flag");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Small stores: heavy duplication and every edge key, in any
    /// arrangement.
    #[test]
    fn small_stores_sort_as_the_reference(
        times in proptest::collection::vec(arb_time(), 0..80),
        durs in proptest::collection::vec(-1.0f64..4.0, 1..4),
        arrange in 0u32..3,
    ) {
        check_sort(store_of(&times, &durs, arrange));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Signed-zero ties in small stores keep their row order.
    #[test]
    fn signed_zero_ties_keep_row_order(
        times in proptest::collection::vec(signed_zero_time(), 0..80),
        arrange in 0u32..3,
    ) {
        check_sort(store_of(&times, &[1.0], arrange));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Signed-zero ties past the radix threshold: one key, in row order.
    #[test]
    fn radix_signed_zero_ties_keep_row_order(
        times in proptest::collection::vec(signed_zero_time(), 4_096..5_000),
        arrange in 0u32..3,
    ) {
        check_sort(store_of(&times, &[1.0], arrange));
    }

    /// Stores past the radix threshold: the same keys, sorted by digits.
    #[test]
    fn radix_stores_sort_as_the_reference(
        times in proptest::collection::vec(arb_time(), 4_096..6_000),
        durs in proptest::collection::vec(0.0f64..4.0, 1..4),
        arrange in 0u32..3,
    ) {
        check_sort(store_of(&times, &durs, arrange));
    }
}

#[test]
fn tiny_stores_sort_as_the_reference() {
    for times in [&[][..], &[f64::NAN], &[1.0], &[1.0, 0.0], &[-0.0, 0.0], &[f64::NAN, -1.0]] {
        for arrange in 0..3 {
            check_sort(store_of(times, &[1.0], arrange));
        }
    }
}

/// More than 65,536 rows whose keys differ in every 16-bit digit, so every
/// radix pass runs; and as many whose keys differ only in the lowest digit,
/// so three passes are skipped.
#[test]
fn every_radix_pass_sorts_as_the_reference() {
    let n = 70_000;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // Positive finite times of every exponent, and as many negative ones.
    let all_digits: Vec<f64> = (0..n)
        .map(|_| {
            let bits = next() & 0x7fef_ffff_ffff_ffff;
            if bits & 1 == 0 {
                f64::from_bits(bits)
            } else {
                -f64::from_bits(bits)
            }
        })
        .collect();
    // `1.0` plus a few thousand ulps: only the low 16 bits differ, and
    // every key repeats about ten times.
    let low_digit: Vec<f64> =
        (0..n).map(|_| f64::from_bits(1.0f64.to_bits() + next() % 7_000)).collect();
    for times in [&all_digits, &low_digit] {
        for arrange in 0..3 {
            check_sort(store_of(times, &[1.0, 0.5], arrange));
        }
    }
}

/// The stats cache survives the sort as computed, in the pre-sort row
/// order: its duration sum is not re-added in the new order, which would
/// round differently here: `2^53 + 1 + 1` rounds to `2^53`, `1 + 1 + 2^53`
/// does not.
#[test]
fn sort_retags_the_stats_cache_instead_of_rescanning() {
    const LONG: f64 = 9_007_199_254_740_992.0;
    let rows = vec![row(0, 4.0, LONG), row(1, 0.0, 1.0), row(2, 1.0, 1.0)];
    let mut store = SegmentStore::from_segments(rows);
    assert!(!store.is_time_ordered());
    let before = store.stats().unwrap();
    store.sort_by_t_start();
    assert!(store.is_time_ordered());
    let after = store.stats().unwrap();
    assert_eq!(after.mean_duration.to_bits(), before.mean_duration.to_bits());
    let rescanned = SegmentStore::from_segments(store.segments().to_vec()).stats().unwrap();
    assert_ne!(rescanned.mean_duration, before.mean_duration, "a rescan rounds differently");
    // Without a scan to carry, the next stats call scans the sorted rows.
    let mut fresh = SegmentStore::from_segments(vec![row(0, 4.0, LONG), row(1, 0.0, 1.0)]);
    fresh.sort_by_t_start();
    let sorted = SegmentStore::from_segments(fresh.segments().to_vec());
    assert_eq!(fresh.stats(), sorted.stats());
}
