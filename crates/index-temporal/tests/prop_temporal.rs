//! Property tests for the temporal index and the GPUTemporal search.

use proptest::prelude::*;
use tdts_geom::{brute_force_search, diff_matches, Point3, SegId, Segment, SegmentStore, TrajId};
use tdts_gpu_sim::{Device, DeviceConfig};
use tdts_index_temporal::{GpuTemporalSearch, TemporalIndex, TemporalIndexConfig};

fn arb_sorted_store(max: usize) -> impl Strategy<Value = SegmentStore> {
    proptest::collection::vec((0.0f64..20.0, 0.01f64..5.0, -10.0f64..10.0, -10.0f64..10.0), 1..=max)
        .prop_map(|rows| {
            let mut segs: Vec<Segment> = rows
                .into_iter()
                .enumerate()
                .map(|(i, (t0, dur, a, b))| {
                    Segment::new(
                        Point3::new(a, b, a - b),
                        Point3::new(b, a, a + b),
                        t0,
                        t0 + dur,
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

    /// The candidate range is a superset of all temporal overlaps, for any
    /// bin count.
    #[test]
    fn candidate_range_superset(
        store in arb_sorted_store(40),
        bins in 1usize..40,
        qt in 0.0f64..25.0,
        qd in 0.01f64..5.0,
    ) {
        let idx = TemporalIndex::build(&store, TemporalIndexConfig { bins }).unwrap();
        let q = Segment::new(Point3::ZERO, Point3::ZERO, qt, qt + qd, SegId(0), TrajId(0));
        let range = idx.candidate_range(&q);
        for (pos, e) in store.iter().enumerate() {
            let overlaps = e.t_start <= q.t_end && e.t_end >= q.t_start;
            if overlaps {
                let (lo, hi) = range.expect("overlapping entry but no range");
                prop_assert!(
                    (lo as usize..hi as usize).contains(&pos),
                    "missing entry {pos} with bins {bins}"
                );
            }
        }
    }

    /// More bins never enlarge the candidate range.
    #[test]
    fn ranges_shrink_with_bins(
        store in arb_sorted_store(40),
        qt in 0.0f64..25.0,
    ) {
        let coarse = TemporalIndex::build(&store, TemporalIndexConfig { bins: 2 }).unwrap();
        let fine = TemporalIndex::build(&store, TemporalIndexConfig { bins: 64 }).unwrap();
        let q = Segment::new(Point3::ZERO, Point3::ZERO, qt, qt + 1.0, SegId(0), TrajId(0));
        match (coarse.candidate_range(&q), fine.candidate_range(&q)) {
            (Some((cl, ch)), Some((fl, fh))) => {
                prop_assert!(fl >= cl && fh <= ch, "fine [{fl},{fh}) vs coarse [{cl},{ch})");
            }
            (None, Some(_)) => prop_assert!(false, "fine found range coarse missed"),
            _ => {}
        }
    }

    /// The full GPU search agrees with brute force for arbitrary inputs.
    #[test]
    fn search_matches_brute(
        store in arb_sorted_store(30),
        queries in arb_sorted_store(8),
        bins in 1usize..20,
        d in 0.5f64..25.0,
    ) {
        let device = Device::new(DeviceConfig::test_tiny()).unwrap();
        let search = GpuTemporalSearch::new(device, &store, TemporalIndexConfig { bins }).unwrap();
        let (got, report) = search.search(&queries, d, 30_000).unwrap();
        let expect = brute_force_search(&store, &queries, d);
        prop_assert!(diff_matches(&got, &expect, 1e-9).is_none(),
            "mismatch at bins {bins} d {d}");
        prop_assert!(report.comparisons >= expect.len() as u64);
    }
}
