//! Property-based test: the rank table an expiry returns answers every
//! position and boundary lookup exactly as the binary searches over the
//! removed positions it replaces.

use proptest::prelude::*;
use tdts_geom::{ExpireDelta, Point3, SegId, Segment, SegmentStore, TrajId};

/// The remap of old position `p` by binary search over `removed`.
fn remap_by_search(delta: &ExpireDelta, p: usize) -> Option<usize> {
    if p >= delta.old_len {
        return None;
    }
    let shift = delta.removed.partition_point(|&r| (r as usize) < p);
    if delta.removed.get(shift).is_some_and(|&r| r as usize == p) {
        return None;
    }
    Some(p - shift)
}

/// Where a boundary `b` between old positions moves, by binary search.
fn boundary_by_search(delta: &ExpireDelta, b: usize) -> usize {
    b - delta.removed.partition_point(|&r| (r as usize) < b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rank_table_equals_removed_partition_point(
        expire in proptest::collection::vec(proptest::bool::ANY, 0..300),
    ) {
        // Entry `i` ends before the cut exactly when `expire[i]`.
        let mut store: SegmentStore = expire
            .iter()
            .enumerate()
            .map(|(i, &gone)| {
                let t_end = if gone { 0.5 } else { 2.0 };
                Segment::new(Point3::ZERO, Point3::ZERO, 0.0, t_end, SegId(i as u32), TrajId(0))
            })
            .collect();
        let delta = store.expire_before(1.0);
        let removed: Vec<u32> =
            expire.iter().enumerate().filter(|(_, &gone)| gone).map(|(i, _)| i as u32).collect();
        prop_assert_eq!(&delta.removed, &removed);
        prop_assert_eq!(delta.old_len, expire.len());
        prop_assert_eq!(delta.rank.len(), expire.len() + 1);
        for p in 0..delta.old_len + 2 {
            prop_assert_eq!(delta.remap(p), remap_by_search(&delta, p), "remap({})", p);
        }
        for b in 0..=delta.old_len {
            prop_assert_eq!(delta.rank[b] as usize, boundary_by_search(&delta, b), "rank[{}]", b);
        }
        prop_assert_eq!(delta.rank[delta.old_len] as usize, store.len());
    }
}
