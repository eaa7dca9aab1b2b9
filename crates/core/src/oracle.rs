//! Exhaustive reference search for verification.

use tdts_geom::{dedup_matches, diff_matches, within_distance, MatchRecord, SegmentStore};

/// Brute-force distance threshold search: every query against every entry.
///
/// Parallelised over queries so integration tests can verify non-trivial
/// datasets; still O(|D| · |Q|), use only as an oracle.
pub fn brute_force_search(
    store: &SegmentStore,
    queries: &SegmentStore,
    d: f64,
) -> Vec<MatchRecord> {
    let mut matches = tdts_geom::par::par_map(queries.len(), |qi| {
        let q = *queries.get(qi);
        let hits = store.iter().enumerate().filter_map(|(ei, e)| {
            within_distance(&q, e, d).map(|iv| MatchRecord::new(qi as u32, ei as u32, iv))
        });
        hits.collect::<Vec<_>>()
    })
    .concat();
    dedup_matches(&mut matches);
    matches
}

/// Verify a canonical result set against the oracle; returns a description
/// of the first discrepancy, or `None` when they agree (intervals compared
/// with tolerance `eps`).
pub fn verify_against_oracle(
    store: &SegmentStore,
    queries: &SegmentStore,
    d: f64,
    got: &[MatchRecord],
    eps: f64,
) -> Option<String> {
    let expect = brute_force_search(store, queries, d);
    diff_matches(got, &expect, eps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdts_geom::{Point3, SegId, Segment, TrajId};

    fn seg(x: f64, t0: f64, id: u32) -> Segment {
        Segment::new(
            Point3::new(x, 0.0, 0.0),
            Point3::new(x + 1.0, 0.0, 0.0),
            t0,
            t0 + 1.0,
            SegId(id),
            TrajId(id),
        )
    }

    #[test]
    fn oracle_finds_expected_pairs() {
        let store: SegmentStore = (0..10).map(|i| seg(i as f64 * 5.0, 0.0, i)).collect();
        let mut queries = SegmentStore::new();
        queries.push(seg(0.0, 0.0, 100));
        // Both walk in lock-step (+1 in x over [0,1]), so separations are
        // constant: entry 1 stays exactly 5 away.
        let got = brute_force_search(&store, &queries, 4.5);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].entry, 0);
        let got = brute_force_search(&store, &queries, 5.0);
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].entry, 1);
    }

    #[test]
    fn verify_detects_missing_and_extra() {
        let store: SegmentStore = (0..4).map(|i| seg(i as f64, 0.0, i)).collect();
        let queries: SegmentStore = vec![seg(0.0, 0.0, 9)].into_iter().collect();
        let correct = brute_force_search(&store, &queries, 2.0);
        assert!(verify_against_oracle(&store, &queries, 2.0, &correct, 1e-9).is_none());
        let missing = &correct[1..];
        assert!(verify_against_oracle(&store, &queries, 2.0, missing, 1e-9).is_some());
    }

    #[test]
    fn oracle_is_deterministic_under_parallelism() {
        let store: SegmentStore =
            (0..50).map(|i| seg((i % 13) as f64, (i % 7) as f64 * 0.2, i)).collect();
        let queries: SegmentStore = (0..20).map(|i| seg(i as f64 * 0.7, 0.5, i)).collect();
        let a = brute_force_search(&store, &queries, 3.0);
        let b = brute_force_search(&store, &queries, 3.0);
        assert_eq!(a, b);
    }
}
