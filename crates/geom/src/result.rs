//! Result records of a distance threshold search.

use std::cmp::Ordering;

use crate::{within_distance, SegmentStore, TimeInterval};

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
/// The order is total — the interval tiebreak is IEEE total order, robust
/// to NaN and `-0.0` — and its only ties are byte-identical records, so
/// the canonical set is deterministic however kernel scheduling or shard
/// interleaving ordered the input. The sort runs on the calling thread in
/// linear time on search output: query ids are dense batch positions, so
/// the records are counting-sorted by query (skipped when they already
/// come in query order) and each query's short run, often already in
/// entry order, is sorted on its own. Query ids sparse relative to the
/// record count fall back to one comparison sort.
pub fn dedup_matches(matches: &mut Vec<MatchRecord>) {
    if matches.is_sorted_by_key(|m| m.query) {
        sort_query_runs(matches);
    } else {
        let buckets = matches.iter().map(|m| m.query as usize + 1).max().unwrap_or(0);
        if buckets <= BUCKETS_PER_RECORD * matches.len() {
            bucket_by_query(matches, buckets);
            sort_query_runs(matches);
        } else {
            matches.sort_unstable_by(|a, b| a.query.cmp(&b.query).then_with(|| within_query(a, b)));
        }
    }
    matches.dedup_by_key(|m| m.dedup_key());
}

/// Counting-sort buckets allowed per record before the bucket array costs
/// more than a comparison sort.
const BUCKETS_PER_RECORD: usize = 4;

/// The canonical order among the records of one query.
#[inline]
fn within_query(a: &MatchRecord, b: &MatchRecord) -> Ordering {
    a.entry
        .cmp(&b.entry)
        .then_with(|| a.interval.start.total_cmp(&b.interval.start))
        .then_with(|| a.interval.end.total_cmp(&b.interval.end))
}

/// Sort each run of equal query ids of a query-ordered `matches`.
fn sort_query_runs(matches: &mut [MatchRecord]) {
    for run in matches.chunk_by_mut(|a, b| a.query == b.query) {
        run.sort_unstable_by(within_query);
    }
}

/// Stable counting sort of `matches` by query id (every id below
/// `buckets`). Counts are taken per run of equal ids, because search
/// output arrives grouped by query.
fn bucket_by_query(matches: &mut Vec<MatchRecord>, buckets: usize) {
    let mut next = vec![0usize; buckets + 1];
    for run in matches.chunk_by(|a, b| a.query == b.query) {
        next[run[0].query as usize + 1] += run.len();
    }
    for b in 1..buckets {
        next[b] += next[b - 1];
    }
    let mut sorted = matches.clone();
    for m in matches.iter() {
        let slot = &mut next[m.query as usize];
        sorted[*slot] = *m;
        *slot += 1;
    }
    *matches = sorted;
}

/// The exhaustive reference search, the all-pairs test of the paper's §II:
/// every query against every entry, canonicalised with [`dedup_matches`].
/// Exactness of every method is defined against it.
///
/// Parallelised over queries ([`crate::par::par_map`]) so tests can verify
/// non-trivial datasets; still O(|D| · |Q|), use only as an oracle.
pub fn brute_force_search(
    store: &SegmentStore,
    queries: &SegmentStore,
    d: f64,
) -> Vec<MatchRecord> {
    let mut matches = crate::par::par_map(queries.len(), |qi| {
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
    use crate::{Point3, SegId, Segment, TrajId};

    fn m(q: u32, e: u32, s: f64, t: f64) -> MatchRecord {
        MatchRecord::new(q, e, TimeInterval::new(s, t))
    }

    /// A unit step in x over `[t0, t0 + 1]`.
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
    fn oracle_is_deterministic_under_parallelism() {
        let store: SegmentStore =
            (0..50).map(|i| seg((i % 13) as f64, (i % 7) as f64 * 0.2, i)).collect();
        let queries: SegmentStore = (0..20).map(|i| seg(i as f64 * 0.7, 0.5, i)).collect();
        let a = brute_force_search(&store, &queries, 3.0);
        let b = brute_force_search(&store, &queries, 3.0);
        assert_eq!(a, b);
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
