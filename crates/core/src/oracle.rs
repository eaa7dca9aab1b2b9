//! Verification of a result set against the exhaustive reference search,
//! [`tdts_geom::brute_force_search`].

use tdts_geom::{brute_force_search, diff_matches, MatchRecord, SegmentStore};

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
    fn verify_detects_missing_and_extra() {
        let store: SegmentStore = (0..4).map(|i| seg(i as f64, 0.0, i)).collect();
        let queries: SegmentStore = vec![seg(0.0, 0.0, 9)].into_iter().collect();
        let correct = brute_force_search(&store, &queries, 2.0);
        assert!(verify_against_oracle(&store, &queries, 2.0, &correct, 1e-9).is_none());
        let missing = &correct[1..];
        assert!(verify_against_oracle(&store, &queries, 2.0, missing, 1e-9).is_some());
    }
}
