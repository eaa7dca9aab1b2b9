//! Property tests for the FSG and the GPUSpatial search.

use proptest::prelude::*;
use tdts_geom::{brute_force_search, diff_matches, Point3, SegId, Segment, SegmentStore, TrajId};
use tdts_gpu_sim::{Device, DeviceConfig};
use tdts_index_spatial::{Fsg, FsgConfig, GpuSpatialConfig, GpuSpatialSearch};

fn arb_store(max: usize) -> impl Strategy<Value = SegmentStore> {
    proptest::collection::vec(
        (
            (-20.0f64..20.0, -20.0f64..20.0, -20.0f64..20.0),
            (-20.0f64..20.0, -20.0f64..20.0, -20.0f64..20.0),
            0.0f64..10.0,
        ),
        1..=max,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (a, b, t0))| {
                Segment::new(
                    Point3::new(a.0, a.1, a.2),
                    Point3::new(b.0, b.1, b.2),
                    t0,
                    t0 + 1.0,
                    SegId(i as u32),
                    TrajId(i as u32),
                )
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every entry is findable through the grid: the cells overlapping its
    /// own MBB contain its index.
    #[test]
    fn every_entry_reachable(store in arb_store(30), cells in 1usize..15) {
        let fsg = Fsg::build(&store, FsgConfig { cells_per_dim: cells }).unwrap();
        for (pos, seg) in store.iter().enumerate() {
            let range = fsg.rasterise(&seg.mbb());
            let mut found = false;
            for (x, y, z) in range.iter() {
                if let Some(ci) = fsg.find_cell(fsg.linear(x, y, z)) {
                    let r = fsg.cell_ranges[ci];
                    if fsg.lookup[r[0] as usize..r[1] as usize].contains(&(pos as u32)) {
                        found = true;
                        break;
                    }
                }
            }
            prop_assert!(found, "entry {pos} unreachable at {cells} cells/dim");
        }
    }

    /// Lookup array length grows (weakly) with resolution and never drops
    /// below the entry count.
    #[test]
    fn duplication_monotone(store in arb_store(25)) {
        let mut prev = 0usize;
        for cells in [1usize, 4, 16] {
            let fsg = Fsg::build(&store, FsgConfig { cells_per_dim: cells }).unwrap();
            prop_assert!(fsg.lookup_len() >= store.len());
            prop_assert!(fsg.lookup_len() >= prev);
            prev = fsg.lookup_len();
        }
    }

    /// Appends that stay inside the build-time bounds leave the geometry
    /// unchanged, so folding them in gives exactly the cold build's arrays.
    #[test]
    fn in_bounds_appends_equal_cold_build(
        store in arb_store(20),
        ticks in proptest::collection::vec(
            proptest::collection::vec(((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
                                       (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0)), 1..6),
            1..4,
        ),
        cells in 1usize..12,
    ) {
        let config = FsgConfig { cells_per_dim: cells };
        let bounds = store.stats().unwrap().bounds;
        let lerp = |lo: f64, hi: f64, f: f64| (lo + (hi - lo) * f).clamp(lo, hi);
        let inside = |f: (f64, f64, f64)| {
            let (lo, hi) = (bounds.lo, bounds.hi);
            Point3::new(lerp(lo.x, hi.x, f.0), lerp(lo.y, hi.y, f.1), lerp(lo.z, hi.z, f.2))
        };
        let mut store = store;
        let mut fsg = Fsg::build(&store, config).unwrap();
        for tick in ticks {
            let from = store.len();
            let new: Vec<Segment> = tick
                .into_iter()
                .enumerate()
                .map(|(i, (a, b))| {
                    let id = (from + i) as u32;
                    Segment::new(inside(a), inside(b), 10.0, 11.0, SegId(id), TrajId(id))
                })
                .collect();
            store.append(&new);
            fsg = fsg.append(&store, from).unwrap();
        }
        let cold = Fsg::build(&store, config).unwrap();
        prop_assert_eq!(&fsg.cell_ids, &cold.cell_ids);
        prop_assert_eq!(&fsg.cell_ranges, &cold.cell_ranges);
        prop_assert_eq!(&fsg.lookup, &cold.lookup);
    }

    /// End-to-end GPUSpatial equals brute force for arbitrary resolutions
    /// and scratch budgets (exercising the redo protocol).
    #[test]
    fn search_matches_brute(
        store in arb_store(25),
        queries in arb_store(6),
        cells in 1usize..12,
        d in 0.5f64..30.0,
        scratch in 64usize..5_000,
    ) {
        let device = Device::new(DeviceConfig::test_tiny()).unwrap();
        let search = GpuSpatialSearch::new(
            device,
            &store,
            GpuSpatialConfig {
                fsg: FsgConfig { cells_per_dim: cells },
                total_scratch: scratch,
            },
        )
        .unwrap();
        match search.search(&queries, d, 30_000) {
            Ok((got, _)) => {
                let expect = brute_force_search(&store, &queries, d);
                prop_assert!(diff_matches(&got, &expect, 1e-9).is_none(),
                    "mismatch at cells {cells} d {d} scratch {scratch}");
            }
            // A single query can legitimately exceed a tiny scratch budget.
            Err(tdts_gpu_sim::SearchError::ScratchCapacityTooSmall { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error {e:?}"),
        }
    }
}
