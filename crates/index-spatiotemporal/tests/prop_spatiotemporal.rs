//! Property tests for the bins×subbins index and the GPUSpatioTemporal
//! search.

use proptest::prelude::*;
use tdts_geom::{
    brute_force_search, diff_matches, within_distance, Point3, SegId, Segment, SegmentStore, TrajId,
};
use tdts_gpu_sim::{Device, DeviceConfig};
use tdts_index_spatiotemporal::{
    GpuSpatioTemporalSearch, SpatioTemporalIndex, SpatioTemporalIndexConfig,
};

fn arb_sorted_store(max: usize) -> impl Strategy<Value = SegmentStore> {
    proptest::collection::vec(
        (
            0.0f64..15.0,
            (-25.0f64..25.0, -25.0f64..25.0, -25.0f64..25.0),
            (-3.0f64..3.0, -3.0f64..3.0, -3.0f64..3.0),
        ),
        1..=max,
    )
    .prop_map(|rows| {
        let mut segs: Vec<Segment> = rows
            .into_iter()
            .enumerate()
            .map(|(i, (t0, p, dp))| {
                let start = Point3::new(p.0, p.1, p.2);
                Segment::new(
                    start,
                    start + Point3::new(dp.0, dp.1, dp.2),
                    t0,
                    t0 + 1.0,
                    SegId(i as u32),
                    TrajId(i as u32),
                )
            })
            .collect();
        segs.sort_by(|x, y| x.t_start.partial_cmp(&y.t_start).unwrap());
        segs.into_iter().collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The schedule's candidate set always covers every true match, for any
    /// bin/subbin configuration and distance.
    #[test]
    fn schedule_covers_all_matches(
        store in arb_sorted_store(30),
        bins in 1usize..12,
        subbins in 1usize..8,
        d in 0.1f64..20.0,
        qt in 0.0f64..15.0,
        qx in -25.0f64..25.0,
    ) {
        let idx = SpatioTemporalIndex::build(
            &store,
            SpatioTemporalIndexConfig { bins, subbins, sort_by_selector: true },
        )
        .unwrap();
        prop_assert!(idx.validate(&store).is_ok());
        let q = Segment::new(
            Point3::new(qx, qx * 0.5, -qx * 0.25),
            Point3::new(qx + 1.0, qx * 0.5 + 1.0, -qx * 0.25 + 1.0),
            qt,
            qt + 1.5,
            SegId(0),
            TrajId(1000),
        );
        let entry = idx.schedule_for(&q, d);
        let candidates = idx.candidates(&entry);
        for (pos, e) in store.iter().enumerate() {
            if within_distance(&q, e, d).is_some() {
                prop_assert!(
                    candidates.contains(&(pos as u32)),
                    "match {pos} missing ({:?}, bins {bins}, v {subbins}, d {d})",
                    entry.selector
                );
            }
        }
    }

    /// End-to-end search equals brute force, sorted or unsorted schedule.
    #[test]
    fn search_matches_brute(
        store in arb_sorted_store(25),
        queries in arb_sorted_store(6),
        bins in 1usize..10,
        subbins in 1usize..6,
        d in 0.5f64..25.0,
        sort in proptest::bool::ANY,
    ) {
        let device = Device::new(DeviceConfig::test_tiny()).unwrap();
        let search = GpuSpatioTemporalSearch::new(
            device,
            &store,
            SpatioTemporalIndexConfig { bins, subbins, sort_by_selector: sort },
        )
        .unwrap();
        let (got, report) = search.search(&queries, d, 30_000).unwrap();
        let expect = brute_force_search(&store, &queries, d);
        prop_assert!(diff_matches(&got, &expect, 1e-9).is_none(),
            "mismatch (bins {bins}, v {subbins}, d {d}, sort {sort})");
        prop_assert!(report.fallback_queries <= queries.len() as u64);
    }
}
