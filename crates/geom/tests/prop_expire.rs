//! Property-based tests: the rank table an expiry returns answers every
//! position and boundary lookup exactly as the binary searches over the
//! removed positions it replaces, and a store streamed through random
//! appends and cuts holds exactly what a `retain` model holds.

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
        prop_assert_eq!(delta.prefix(), removed.last().map_or(0, |&r| r as usize + 1));
        for p in 0..delta.old_len + 2 {
            prop_assert_eq!(delta.remap(p), remap_by_search(&delta, p), "remap({})", p);
        }
        for b in 0..=delta.old_len {
            prop_assert_eq!(delta.rank(b), boundary_by_search(&delta, b), "rank({})", b);
        }
        prop_assert_eq!(delta.rank(delta.old_len), store.len());
    }

    /// Random time-ordered appends and cuts, long segments straddling
    /// several cuts, cut to empty and regrown: the store's segments equal a
    /// `retain` model after every step, and every old position past the
    /// cut's `t_start` partition point `P` remaps to `p - removed.len()`.
    #[test]
    fn streamed_store_equals_a_retain_model(
        steps in proptest::collection::vec(
            (proptest::collection::vec((0u8..4, 0.0f64..6.0), 0..40), 0.0f64..3.0),
            1..40,
        ),
    ) {
        let mut store = SegmentStore::new();
        let mut model: Vec<Segment> = Vec::new();
        let mut t = 0.0;
        let mut id = 0u32;
        for (new, advance) in steps {
            let new: Vec<Segment> = new
                .into_iter()
                .map(|(gap, length)| {
                    t += f64::from(gap) * 0.25;
                    id += 1;
                    Segment::new(Point3::ZERO, Point3::ZERO, t, t + length, SegId(id), TrajId(0))
                })
                .collect();
            let delta = store.append(&new);
            prop_assert_eq!(delta.from, model.len());
            model.extend_from_slice(&new);
            // Cuts trail the frontier; a large `advance` empties the store.
            let cut = t - 4.0 + advance * 2.0;
            let partition = model.partition_point(|s| s.t_start < cut);
            let delta = store.expire_before(cut);
            let old = std::mem::take(&mut model);
            model = old.iter().copied().filter(|s| s.t_end >= cut).collect();
            prop_assert_eq!(store.segments(), &model[..]);
            prop_assert!(delta.prefix() <= partition);
            prop_assert!(delta.removed.iter().all(|&r| (r as usize) < partition));
            for p in 0..old.len() {
                let kept = old[..p].iter().filter(|s| s.t_end >= cut).count();
                let want = (old[p].t_end >= cut).then_some(kept);
                prop_assert_eq!(delta.remap(p), want, "remap({})", p);
                if p >= partition {
                    prop_assert_eq!(delta.remap(p), Some(p - delta.removed.len()));
                }
            }
        }
    }
}
