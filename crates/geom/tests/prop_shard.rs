//! Property-based tests: partitioning a store into shard slices is a
//! lossless, order-preserving cover of the source positions.

use proptest::prelude::*;
use tdts_geom::{
    within_distance, PartitionStrategy, Point3, SegId, Segment, SegmentStore, ShardPlan,
    ShardedStore, TrajId,
};

fn arb_segment() -> impl Strategy<Value = Segment> {
    (
        (-50.0f64..50.0, -50.0f64..50.0, -50.0f64..50.0),
        (-50.0f64..50.0, -50.0f64..50.0, -50.0f64..50.0),
        0.0f64..100.0,
        0.0f64..20.0,
        0u32..1000,
        0u32..64,
    )
        .prop_map(|((sx, sy, sz), (ex, ey, ez), t0, dt, sid, tid)| {
            Segment::new(
                Point3::new(sx, sy, sz),
                Point3::new(sx + ex * 0.1, sy + ey * 0.1, sz + ez * 0.1),
                t0,
                t0 + dt,
                SegId(sid),
                TrajId(tid),
            )
        })
}

fn arb_inputs() -> impl Strategy<Value = (SegmentStore, usize)> {
    (proptest::collection::vec(arb_segment(), 1..64), 1usize..=8).prop_map(|(mut segs, shards)| {
        // The partitioner is always fed a prepared (t_start-sorted) store.
        segs.sort_by(|a, b| a.t_start.total_cmp(&b.t_start));
        (SegmentStore::from_segments(segs), shards)
    })
}

proptest! {
    /// Every source position is covered by at least one slice, and the
    /// accounting identity `total = source + replicated` holds.
    #[test]
    fn partition_covers_every_position(inputs in arb_inputs()) {
        let (store, shards) = inputs;
        let stats = store.stats().unwrap();
        let sharded = ShardedStore::partition(&store, &stats, shards, PartitionStrategy::Temporal);
        let mut covered = vec![0usize; store.len()];
        for slice in &sharded.slices {
            for &g in slice.to_global.iter() {
                covered[g as usize] += 1;
            }
        }
        prop_assert!(covered.iter().all(|&c| c >= 1), "uncovered source position");
        let extra: usize = covered.iter().map(|&c| c - 1).sum();
        prop_assert_eq!(sharded.replicated_segments(), extra);
        prop_assert_eq!(sharded.total_segments(), store.len() + extra);
    }

    /// Each slice holds its segments in ascending global-position order,
    /// bit-identical to the source store at those positions, and its
    /// `replicated` count equals the number of multi-slab spans it holds.
    #[test]
    fn slices_preserve_order_and_content(inputs in arb_inputs()) {
        let (store, shards) = inputs;
        let stats = store.stats().unwrap();
        let sharded = ShardedStore::partition(&store, &stats, shards, PartitionStrategy::Temporal);
        let plan = &sharded.plan;
        for slice in &sharded.slices {
            prop_assert_eq!(slice.store.len(), slice.to_global.len());
            let mut straddlers = 0usize;
            for (local, &g) in slice.to_global.iter().enumerate() {
                if local > 0 {
                    prop_assert!(
                        slice.to_global[local - 1] < g,
                        "to_global must be strictly ascending"
                    );
                }
                let src = store.try_get(g as usize).expect("global position in range");
                prop_assert_eq!(slice.store.try_get(local), Some(src));
                let (lo, hi) = plan.slab_span(src);
                prop_assert!(
                    lo <= slice.slab && slice.slab <= hi,
                    "segment assigned to a slab outside its span"
                );
                if hi > lo {
                    straddlers += 1;
                }
            }
            prop_assert_eq!(slice.replicated, straddlers);
        }
    }

    /// A segment appears in exactly the slabs its time span touches: its copy
    /// count across slices equals its slab-span width.
    #[test]
    fn copy_count_equals_slab_span(inputs in arb_inputs()) {
        let (store, shards) = inputs;
        let stats = store.stats().unwrap();
        let sharded = ShardedStore::partition(&store, &stats, shards, PartitionStrategy::Temporal);
        let mut copies = vec![0usize; store.len()];
        for slice in &sharded.slices {
            for &g in slice.to_global.iter() {
                copies[g as usize] += 1;
            }
        }
        for (pos, seg) in store.iter().enumerate() {
            let (lo, hi) = sharded.plan.slab_span(seg);
            prop_assert_eq!(
                copies[pos],
                hi - lo + 1,
                "segment {} replicated into the wrong number of slabs",
                pos
            );
        }
    }

    /// Slab geometry: `slab_of` stays clamped in range, agrees with
    /// `slab_bounds`, and `slab_span` is consistent.
    #[test]
    fn slab_geometry_is_consistent(
        inputs in arb_inputs(),
        probe in -200.0f64..300.0,
    ) {
        let (store, shards) = inputs;
        let stats = store.stats().unwrap();
        let plan = ShardPlan::new(&stats, shards, PartitionStrategy::Temporal);
        prop_assert_eq!(plan.edges.len(), plan.shards + 1);
        prop_assert!(plan.edges.windows(2).all(|w| w[0] <= w[1]));
        let slab = plan.slab_of(probe);
        prop_assert!(slab < plan.shards);
        let (lo, hi) = plan.slab_bounds(slab);
        prop_assert!(lo <= hi);
        // A probe strictly inside a slab's bounds maps back to that slab.
        if lo < hi && !plan.is_degenerate() {
            let mid = (lo + hi) / 2.0;
            prop_assert_eq!(plan.slab_of(mid), slab);
        }
        for seg in store.iter() {
            let (a, b) = plan.slab_span(seg);
            prop_assert!(a <= b);
            prop_assert!(b < plan.shards);
        }
    }

    /// Routing soundness: whenever the continuous predicate reports a
    /// match, the entry's slab span intersects the query's reach span —
    /// so a dispatcher probing only the reach span cannot lose a record,
    /// for any shard count.
    #[test]
    fn reach_span_covers_every_match(
        inputs in arb_inputs(),
        query in arb_segment(),
        d in 0.0f64..30.0,
    ) {
        let (store, shards) = inputs;
        let stats = store.stats().unwrap();
        let plan = ShardPlan::new(&stats, shards, PartitionStrategy::Temporal);
        let reach = plan.reach_span(&query);
        if let Some((rl, rh)) = reach {
            prop_assert!(rl <= rh);
            prop_assert!(rh < plan.shards);
        }
        for seg in store.iter() {
            if within_distance(&query, seg, d).is_none() {
                continue;
            }
            let (rl, rh) = reach.expect("a matching query must reach some slab");
            let (el, eh) = plan.slab_span(seg);
            prop_assert!(
                rl <= eh && el <= rh,
                "entry slabs [{}, {}] outside reach [{}, {}]",
                el, eh, rl, rh
            );
        }
    }
}
