//! Translating positional result records into user-facing ids.

use tdts_geom::{MatchRecord, SegId, SegmentStore, TimeInterval, TrajId};

/// A result record with segment and trajectory ids resolved — the form an
/// application consumes (e.g. "star trajectory 17 is within `d` of the
/// supernova trajectory during `[t0, t1]`").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolvedMatch {
    pub query_seg: SegId,
    pub query_traj: TrajId,
    pub entry_seg: SegId,
    pub entry_traj: TrajId,
    pub interval: TimeInterval,
}

/// Resolve positional [`MatchRecord`]s against the stores they refer to.
///
/// The positions in a match record come back from a kernel result buffer,
/// so they are not trusted: records whose positions fall outside either
/// store are dropped rather than indexed unchecked.
pub fn resolve_matches(
    matches: &[MatchRecord],
    store: &SegmentStore,
    queries: &SegmentStore,
) -> Vec<ResolvedMatch> {
    matches
        .iter()
        .filter_map(|m| {
            let q = queries.try_get(m.query as usize)?;
            let e = store.try_get(m.entry as usize)?;
            Some(ResolvedMatch {
                query_seg: q.seg_id,
                query_traj: q.traj_id,
                entry_seg: e.seg_id,
                entry_traj: e.traj_id,
                interval: m.interval,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdts_geom::{Point3, Segment};

    #[test]
    fn resolves_ids() {
        let store: SegmentStore =
            vec![Segment::new(Point3::ZERO, Point3::ZERO, 0.0, 1.0, SegId(42), TrajId(7))]
                .into_iter()
                .collect();
        let queries: SegmentStore =
            vec![Segment::new(Point3::ZERO, Point3::ZERO, 0.0, 1.0, SegId(5), TrajId(1))]
                .into_iter()
                .collect();
        let m = vec![MatchRecord::new(0, 0, TimeInterval::new(0.25, 0.5))];
        let resolved = resolve_matches(&m, &store, &queries);
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].query_seg, SegId(5));
        assert_eq!(resolved[0].query_traj, TrajId(1));
        assert_eq!(resolved[0].entry_seg, SegId(42));
        assert_eq!(resolved[0].entry_traj, TrajId(7));
        assert_eq!(resolved[0].interval, TimeInterval::new(0.25, 0.5));
    }

    #[test]
    fn out_of_range_records_dropped() {
        let store: SegmentStore =
            vec![Segment::new(Point3::ZERO, Point3::ZERO, 0.0, 1.0, SegId(42), TrajId(7))]
                .into_iter()
                .collect();
        let queries = store.clone();
        // A corrupt result buffer: entry and query positions past the end.
        let m = vec![
            MatchRecord::new(0, 0, TimeInterval::new(0.0, 1.0)),
            MatchRecord::new(0, 9, TimeInterval::new(0.0, 1.0)),
            MatchRecord::new(9, 0, TimeInterval::new(0.0, 1.0)),
            MatchRecord::new(u32::MAX, u32::MAX, TimeInterval::new(0.0, 1.0)),
        ];
        let resolved = resolve_matches(&m, &store, &queries);
        assert_eq!(resolved.len(), 1, "only the in-range record survives");
    }
}
