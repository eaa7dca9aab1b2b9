//! Result records of a distance threshold search.

use crate::TimeInterval;
use rayon::prelude::*;

/// One element of the final result set: a query/entry pair annotated with
/// the time interval during which the two segments are within the threshold
/// distance (e.g. the paper's `(q1, l1, [0.1, 0.3])`).
///
/// `query` and `entry` are *positions* in the query set and entry database
/// respectively (not segment ids), because that is what kernels naturally
/// produce; translate via the stores when ids are needed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchRecord {
    pub query: u32,
    pub entry: u32,
    pub interval: TimeInterval,
}

impl MatchRecord {
    pub fn new(query: u32, entry: u32, interval: TimeInterval) -> Self {
        MatchRecord { query, entry, interval }
    }

    /// Ordering key for canonicalisation: (query, entry).
    #[inline]
    pub fn key(&self) -> (u32, u32) {
        (self.query, self.entry)
    }

    /// Duplicate-collapse identity: the pair *plus* the exact interval
    /// bits. Replicas of the same finding — the same candidate pair
    /// reported by several grid cells, or by several shards that both hold
    /// a boundary-replicated segment — carry byte-identical intervals
    /// (the refinement is deterministic in the two segments and `d`) and
    /// collapse; genuinely different findings for the same pair never do.
    #[inline]
    pub fn dedup_key(&self) -> (u32, u32, u64, u64) {
        (self.query, self.entry, self.interval.start.to_bits(), self.interval.end.to_bits())
    }
}

/// Canonicalise a result set: sort by (query, entry, interval) and remove
/// duplicate *findings* (the paper's host-side duplicate filtering for
/// `GPUSpatial`, and the cross-shard merge filter for boundary-replicated
/// segments under sharded execution).
///
/// Deduplication is by [`MatchRecord::dedup_key`] — the full
/// `(query, entry, interval-bits)` identity — not by positional pair
/// adjacency alone: replicas of one finding are byte-identical and
/// collapse wherever they came from, while a record that genuinely
/// differs in its interval is never silently swallowed by a neighbour
/// that happens to share its pair.
///
/// Result sets reach millions of records at benchmark scales and this sort
/// sits on the timed host path, so it runs in parallel. The interval
/// tiebreak (IEEE total order, robust to NaN) keeps the canonical order
/// deterministic regardless of how kernel scheduling or shard interleaving
/// ordered the records.
pub fn dedup_matches(matches: &mut Vec<MatchRecord>) {
    matches.par_sort_unstable_by(|a, b| {
        a.key()
            .cmp(&b.key())
            .then(a.interval.start.total_cmp(&b.interval.start))
            .then(a.interval.end.total_cmp(&b.interval.end))
    });
    matches.dedup_by_key(|m| m.dedup_key());
}

/// Compare two *canonicalised* result sets for equality up to interval
/// rounding `eps`. Returns a human-readable description of the first
/// difference, or `None` when equal. Used by tests and the verification
/// oracle.
pub fn diff_matches(a: &[MatchRecord], b: &[MatchRecord], eps: f64) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("lengths differ: {} vs {}", a.len(), b.len()));
    }
    for (x, y) in a.iter().zip(b.iter()) {
        if x.key() != y.key() {
            return Some(format!("pair mismatch: {:?} vs {:?}", x.key(), y.key()));
        }
        if !x.interval.approx_eq(&y.interval, eps) {
            return Some(format!(
                "interval mismatch for {:?}: {:?} vs {:?}",
                x.key(),
                x.interval,
                y.interval
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(q: u32, e: u32, s: f64, t: f64) -> MatchRecord {
        MatchRecord::new(q, e, TimeInterval::new(s, t))
    }

    #[test]
    fn dedup_sorts_and_removes_duplicates() {
        let mut v =
            vec![m(1, 2, 0.0, 1.0), m(0, 5, 0.0, 1.0), m(1, 2, 0.0, 1.0), m(1, 1, 0.5, 0.6)];
        dedup_matches(&mut v);
        assert_eq!(v.len(), 3);
        assert_eq!(v[0].key(), (0, 5));
        assert_eq!(v[1].key(), (1, 1));
        assert_eq!(v[2].key(), (1, 2));
    }

    #[test]
    fn dedup_collapses_shard_replicas_by_full_key() {
        // A boundary-replicated segment reports the same finding from two
        // shards: byte-identical records, collapsed to one.
        let mut v = vec![m(3, 7, 0.25, 0.75), m(0, 1, 0.0, 1.0), m(3, 7, 0.25, 0.75)];
        dedup_matches(&mut v);
        assert_eq!(v, vec![m(0, 1, 0.0, 1.0), m(3, 7, 0.25, 0.75)]);

        // Same pair, genuinely different intervals: both survive, in
        // deterministic interval order (positional adjacency must not
        // swallow the second finding).
        let mut v = vec![m(3, 7, 0.5, 0.9), m(3, 7, 0.25, 0.75)];
        dedup_matches(&mut v);
        assert_eq!(v, vec![m(3, 7, 0.25, 0.75), m(3, 7, 0.5, 0.9)]);
    }

    #[test]
    fn dedup_is_order_insensitive() {
        let records =
            vec![m(1, 2, 0.0, 1.0), m(0, 5, 0.0, 1.0), m(1, 2, 0.0, 1.0), m(1, 1, 0.5, 0.6)];
        let mut a = records.clone();
        let mut b: Vec<MatchRecord> = records.into_iter().rev().collect();
        dedup_matches(&mut a);
        dedup_matches(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn diff_detects_differences() {
        let a = vec![m(0, 1, 0.0, 1.0)];
        assert!(diff_matches(&a, &a, 1e-9).is_none());
        let b = vec![m(0, 2, 0.0, 1.0)];
        assert!(diff_matches(&a, &b, 1e-9).unwrap().contains("pair mismatch"));
        let c = vec![m(0, 1, 0.0, 2.0)];
        assert!(diff_matches(&a, &c, 1e-9).unwrap().contains("interval mismatch"));
        let d = vec![m(0, 1, 0.0, 1.0), m(1, 1, 0.0, 1.0)];
        assert!(diff_matches(&a, &d, 1e-9).unwrap().contains("lengths differ"));
    }

    #[test]
    fn diff_tolerates_rounding() {
        let a = vec![m(0, 1, 0.0, 1.0)];
        let b = vec![m(0, 1, 1e-12, 1.0 - 1e-12)];
        assert!(diff_matches(&a, &b, 1e-9).is_none());
    }
}
