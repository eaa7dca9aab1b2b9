//! Property-based tests: `dedup_matches` produces, bit for bit, the
//! canonical result set of a full-comparator sort followed by the
//! duplicate filter, whatever order the records arrive in and whichever of
//! its internal paths (query-ordered runs, counting sort by query, or the
//! comparison sort for sparse query ids) the input takes.

use proptest::prelude::*;
use tdts_geom::{dedup_matches, MatchRecord, TimeInterval};

/// Interval endpoints, including both zeros and NaNs of either sign.
const ENDPOINTS: [f64; 8] = [0.0, -0.0, 0.25, 0.5, 1.0, f64::NAN, -f64::NAN, f64::INFINITY];

/// The canonical set by definition: the full `(query, entry, start, end)`
/// comparator in IEEE total order, then the duplicate filter.
fn reference(mut v: Vec<MatchRecord>) -> Vec<MatchRecord> {
    v.sort_by(|a, b| {
        a.query
            .cmp(&b.query)
            .then(a.entry.cmp(&b.entry))
            .then(a.interval.start.total_cmp(&b.interval.start))
            .then(a.interval.end.total_cmp(&b.interval.end))
    });
    v.dedup_by_key(|m| m.dedup_key());
    v
}

fn bits(v: &[MatchRecord]) -> Vec<(u32, u32, u64, u64)> {
    v.iter().map(MatchRecord::dedup_key).collect()
}

/// How the query ids are drawn: dense batch positions (the counting sort),
/// all near `u32::MAX`, or dense with one near `u32::MAX` (both sparse, so
/// the comparison sort).
fn query_id(mode: usize, raw: u32, first: bool) -> u32 {
    match mode {
        0 => raw,
        1 => u32::MAX - raw,
        _ if first => u32::MAX,
        _ => raw,
    }
}

/// The order the records arrive in.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// As generated.
    Shuffled,
    /// Already canonical.
    Canonical,
    /// `k` canonical runs concatenated, as the shard merge receives them.
    Runs(usize),
    /// Grouped by query with the groups in descending query order, as a
    /// search hands over records of its sorted query positions.
    Grouped,
}

fn arrange(records: Vec<MatchRecord>, layout: Layout) -> Vec<MatchRecord> {
    match layout {
        Layout::Shuffled => records,
        Layout::Canonical => reference(records),
        Layout::Runs(k) => {
            let chunk = records.len().div_ceil(k).max(1);
            records.chunks(chunk).flat_map(|run| reference(run.to_vec())).collect()
        }
        Layout::Grouped => {
            let mut v = records;
            v.sort_by_key(|m| std::cmp::Reverse(m.query));
            v
        }
    }
}

fn arb_records() -> impl Strategy<Value = Vec<MatchRecord>> {
    (
        proptest::collection::vec((0u32..12, 0u32..6, 0usize..8, 0usize..8), 0..160),
        0usize..3,
        0usize..4,
        1usize..6,
        0usize..4,
    )
        .prop_map(|(raw, id_mode, layout, k, size)| {
            let mut records: Vec<MatchRecord> = raw
                .iter()
                .enumerate()
                .map(|(i, &(q, e, s, t))| MatchRecord {
                    query: query_id(id_mode, q, i == 0),
                    entry: e,
                    interval: TimeInterval { start: ENDPOINTS[s], end: ENDPOINTS[t] },
                })
                .collect();
            match size {
                0 => records.clear(),
                1 => records.truncate(1),
                _ => {
                    // A byte-identical replica and a same-pair record with
                    // a different interval, so both dedup outcomes occur.
                    if let Some(&first) = records.first() {
                        let mut other = first;
                        other.interval.end = f64::from_bits(first.interval.end.to_bits() ^ 1);
                        records.extend([first, other]);
                    }
                }
            }
            let layout = match layout {
                0 => Layout::Shuffled,
                1 => Layout::Canonical,
                2 => Layout::Runs(k),
                _ => Layout::Grouped,
            };
            arrange(records, layout)
        })
}

proptest! {
    /// `dedup_matches` equals the full-comparator reference bit for bit.
    #[test]
    fn dedup_matches_the_full_comparator_reference(records in arb_records()) {
        let expect = reference(records.clone());
        let mut got = records;
        dedup_matches(&mut got);
        prop_assert_eq!(bits(&got), bits(&expect));
    }

    /// Canonicalising a canonical set changes nothing.
    #[test]
    fn dedup_is_idempotent(records in arb_records()) {
        let mut once = records;
        dedup_matches(&mut once);
        let mut twice = once.clone();
        dedup_matches(&mut twice);
        prop_assert_eq!(bits(&twice), bits(&once));
    }
}

#[test]
fn empty_and_single_record_inputs() {
    let mut v: Vec<MatchRecord> = Vec::new();
    dedup_matches(&mut v);
    assert!(v.is_empty());
    for query in [0, 7, u32::MAX] {
        let one = MatchRecord::new(query, 3, TimeInterval::new(-0.0, 0.0));
        let mut v = vec![one];
        dedup_matches(&mut v);
        assert_eq!(bits(&v), bits(&[one]));
    }
}

#[test]
fn signed_zeros_and_nans_order_by_total_order() {
    let at = |start: f64, end: f64| MatchRecord {
        query: 1,
        entry: 2,
        interval: TimeInterval { start, end },
    };
    let mut v =
        vec![at(f64::NAN, 1.0), at(0.0, 1.0), at(-f64::NAN, 1.0), at(-0.0, 1.0), at(0.0, 1.0)];
    dedup_matches(&mut v);
    let expect = [at(-f64::NAN, 1.0), at(-0.0, 1.0), at(0.0, 1.0), at(f64::NAN, 1.0)];
    assert_eq!(bits(&v), bits(&expect));
}
