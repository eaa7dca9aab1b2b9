//! Tier-1: warp-per-tile kernels are transparent — every GPU method
//! returns the brute-force oracle's result set in both kernel shapes, with
//! byte-identical canonical results — while cutting the max/mean warp-cost
//! spread on a skewed schedule (the headline of the work-queue ablation).

use proptest::prelude::*;
use std::sync::Arc;
use tdts::prelude::*;

mod common;
use common::arb_store;

/// One resident index serves both shapes; each search names its own.
fn device() -> Arc<Device> {
    Device::new(DeviceConfig::tesla_c2075()).unwrap()
}

fn gpu_methods() -> Vec<Method> {
    vec![
        Method::GpuSpatial(GpuSpatialConfig {
            fsg: FsgConfig { cells_per_dim: 10 },
            total_scratch: 500_000,
        }),
        Method::GpuTemporal(TemporalIndexConfig { bins: 50 }),
        Method::GpuSpatioTemporal(SpatioTemporalIndexConfig {
            bins: 50,
            subbins: 4,
            sort_by_selector: true,
        }),
    ]
}

#[test]
fn both_shapes_match_oracle_with_identical_results() {
    let store =
        RandomWalkConfig { trajectories: 40, timesteps: 30, ..Default::default() }.generate();
    let queries: SegmentStore = store.iter().filter(|s| s.traj_id.0 < 10).copied().collect();
    let dataset = PreparedDataset::new(store);
    let d = 25.0;
    let expect = brute_force_search(dataset.store(), &queries, d);
    assert!(!expect.is_empty(), "the fixture must produce matches");

    for method in gpu_methods() {
        let engine = SearchEngine::build(&dataset, method, device()).expect("build");
        let mut results = Vec::new();
        for shape in [KernelShape::ThreadPerQuery, KernelShape::WarpPerTile] {
            let (got, report) =
                engine.search_shaped(&queries, d, 2_000_000, Some(shape)).expect("search");
            assert!(
                tdts::geom::diff_matches(&got, &expect, 1e-9).is_none(),
                "{} in {shape:?} differs from the oracle",
                method.name()
            );
            match shape {
                KernelShape::ThreadPerQuery => assert_eq!(report.load.tiles_dispatched, 0),
                KernelShape::WarpPerTile => {
                    assert!(report.load.tiles_dispatched > 0);
                    assert!(report.load.queue_atomics > report.load.tiles_dispatched);
                }
            }
            results.push(got);
        }
        // Identical arithmetic on both shapes: the deduplicated result sets
        // are byte-identical, not merely equivalent.
        assert_eq!(results[0], results[1], "{}: kernel shape changed results", method.name());
    }
}

#[test]
fn work_queue_cuts_spread_on_skewed_schedule() {
    // A Merger skew: most query segments sit in sparse regions while a few
    // overlap the dense core, so the spatially-selective candidate ranges
    // span orders of magnitude and the static one-thread-per-query warps
    // cost as much as their heaviest lane. (The purely temporal index is
    // immune — every particle exists at every timestep, so its ranges are
    // near-uniform — which is why the fixture indexes space.)
    let store = MergerConfig { particles: 240, timesteps: 25, ..Default::default() }.generate();
    let queries: SegmentStore = store.iter().step_by(7).copied().collect();
    let dataset = PreparedDataset::new(store);
    let d = 0.5;

    let method = Method::GpuSpatioTemporal(SpatioTemporalIndexConfig {
        bins: 50,
        subbins: 8,
        sort_by_selector: true,
    });
    let engine = SearchEngine::build(&dataset, method, device()).expect("build");
    let run = |shape: KernelShape| {
        engine.search_shaped(&queries, d, 2_000_000, Some(shape)).expect("search")
    };
    let (tpq_matches, tpq) = run(KernelShape::ThreadPerQuery);
    let (wpt_matches, wpt) = run(KernelShape::WarpPerTile);

    assert_eq!(tpq_matches, wpt_matches);
    assert!(
        wpt.load.spread() * 2.0 <= tpq.load.spread(),
        "expected >= 2x spread cut: ThreadPerQuery {:.2}, WarpPerTile {:.2}",
        tpq.load.spread(),
        wpt.load.spread()
    );
    assert!(
        wpt.response_seconds() < tpq.response_seconds(),
        "expected a response-time win: ThreadPerQuery {:.6}s, WarpPerTile {:.6}s",
        tpq.response_seconds(),
        wpt.response_seconds()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The kernel shape is a pure execution strategy: on arbitrary inputs,
    /// index parameters, and tile sizes, warp-per-tile returns exactly the
    /// thread-per-query result set for every GPU method.
    #[test]
    fn kernel_shapes_are_equivalent(
        store in arb_store(6, 5),
        queries in arb_store(3, 4),
        d in 0.5f64..40.0,
        bins in 1usize..20,
        subbins in 1usize..6,
        cells in 1usize..12,
        tile_size in 1usize..300,
        capacity in 32usize..500_000,
    ) {
        let dataset = PreparedDataset::new(store);
        let methods = [
            Method::GpuSpatial(GpuSpatialConfig {
                fsg: FsgConfig { cells_per_dim: cells },
                total_scratch: 200_000,
            }),
            Method::GpuTemporal(TemporalIndexConfig { bins }),
            Method::GpuSpatioTemporal(SpatioTemporalIndexConfig {
                bins,
                subbins,
                sort_by_selector: true,
            }),
        ];
        for method in methods {
            let c = DeviceConfig { tile_size, ..DeviceConfig::tesla_c2075() };
            let engine = SearchEngine::build(&dataset, method, Device::new(c).unwrap()).unwrap();
            let run = |shape: KernelShape| engine.search_shaped(&queries, d, capacity, Some(shape));
            // Tiny capacities may legitimately fail with
            // ResultCapacityTooSmall; shapes must then fail identically or
            // return identical results.
            match (run(KernelShape::ThreadPerQuery), run(KernelShape::WarpPerTile)) {
                (Ok((tpq, _)), Ok((wpt, _))) => prop_assert_eq!(
                    tpq, wpt, "{} results differ across kernel shapes", method.name()
                ),
                (Err(_), Err(_)) => {}
                (tpq, wpt) => prop_assert!(
                    false,
                    "{}: one shape failed: tpq ok = {}, wpt ok = {}",
                    method.name(),
                    tpq.is_ok(),
                    wpt.is_ok()
                ),
            }
        }
    }
}
