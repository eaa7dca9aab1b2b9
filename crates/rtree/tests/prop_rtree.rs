//! Property tests: the R-tree search must agree exactly with brute force.

use proptest::prelude::*;
use tdts_geom::{brute_force_search, diff_matches, Point3, SegId, Segment, SegmentStore, TrajId};
use tdts_rtree::{RTree, RTreeConfig};

fn arb_store(max_trajs: usize, max_segs: usize) -> impl Strategy<Value = SegmentStore> {
    proptest::collection::vec(
        (
            proptest::collection::vec(
                (-20.0f64..20.0, -20.0f64..20.0, -20.0f64..20.0),
                2..=max_segs + 1,
            ),
            0.0f64..5.0, // start time
        ),
        1..=max_trajs,
    )
    .prop_map(|trajs| {
        let mut store = SegmentStore::new();
        let mut seg_id = 0u32;
        for (ti, (points, t0)) in trajs.into_iter().enumerate() {
            for (i, w) in points.windows(2).enumerate() {
                store.push(Segment::new(
                    Point3::new(w[0].0, w[0].1, w[0].2),
                    Point3::new(w[1].0, w[1].1, w[1].2),
                    t0 + i as f64,
                    t0 + i as f64 + 1.0,
                    SegId(seg_id),
                    TrajId(ti as u32),
                ));
                seg_id += 1;
            }
        }
        store
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rtree_equals_brute_force(
        store in arb_store(8, 6),
        queries in arb_store(4, 4),
        d in 0.1f64..30.0,
        r in 1usize..6,
        cap in 2usize..10,
    ) {
        let tree = RTree::build(&store, RTreeConfig { segments_per_mbb: r, node_capacity: cap });
        let (got, stats) = tree.search(&store, &queries, d);
        let matches: u64 = stats.iter().map(|s| s.matches).sum();
        let candidates: u64 = stats.iter().map(|s| s.candidates).sum();
        let expect = brute_force_search(&store, &queries, d);
        if let Some(diff) = diff_matches(&got, &expect, 1e-9) {
            prop_assert!(false, "r={r} cap={cap} d={d}: {diff}");
        }
        prop_assert_eq!(matches as usize >= got.len(), true);
        // Candidates never exceed the full cross product.
        prop_assert!(candidates <= (store.len() * queries.len()) as u64);
    }

    /// Results are independent of the tree parameters.
    #[test]
    fn parameter_independence(
        store in arb_store(6, 5),
        queries in arb_store(3, 3),
        d in 0.5f64..20.0,
    ) {
        let a = RTree::build(&store, RTreeConfig { segments_per_mbb: 1, node_capacity: 2 });
        let b = RTree::build(&store, RTreeConfig { segments_per_mbb: 5, node_capacity: 32 });
        let (ma, _) = a.search(&store, &queries, d);
        let (mb, _) = b.search(&store, &queries, d);
        prop_assert!(diff_matches(&ma, &mb, 1e-9).is_none());
    }
}
