//! Property test: on arbitrary segment databases and query sets, every
//! implementation agrees with the brute-force oracle for any index
//! parameters and any (sufficient) buffer sizes.

use proptest::prelude::*;
use std::sync::Arc;
use tdts::prelude::*;

mod common;
use common::arb_store;

fn device() -> Arc<Device> {
    Device::new(DeviceConfig::tesla_c2075()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_engines_match_oracle(
        store in arb_store(6, 5),
        queries in arb_store(3, 4),
        d in 0.5f64..40.0,
        bins in 1usize..20,
        subbins in 1usize..6,
        cells in 1usize..12,
        r in 1usize..5,
    ) {
        let dataset = PreparedDataset::new(store);
        let expect = brute_force_search(dataset.store(), &queries, d);
        let methods = [
            Method::CpuRTree(RTreeConfig { segments_per_mbb: r, node_capacity: 4 }),
            Method::GpuSpatial(GpuSpatialConfig {
                fsg: FsgConfig { cells_per_dim: cells },
                total_scratch: 200_000,
            }),
            Method::GpuTemporal(TemporalIndexConfig { bins }),
            Method::GpuSpatioTemporal(SpatioTemporalIndexConfig { bins, subbins, sort_by_selector: true }),
        ];
        for method in methods {
            let engine = SearchEngine::build(&dataset, method, device()).unwrap();
            let (got, _) = engine.search(&queries, d, 500_000).unwrap();
            prop_assert!(
                tdts::geom::diff_matches(&got, &expect, 1e-9).is_none(),
                "{} differs from oracle (d = {d}, bins = {bins}, v = {subbins}, cells = {cells})",
                method.name()
            );
        }
    }

    /// Result sets are insensitive to result-buffer capacity as long as the
    /// search completes (the redo protocol is transparent).
    #[test]
    fn capacity_transparency(
        store in arb_store(5, 4),
        queries in arb_store(2, 3),
        d in 1.0f64..30.0,
        capacity in 4usize..64,
    ) {
        let dataset = PreparedDataset::new(store);
        let engine = SearchEngine::build(
            &dataset,
            Method::GpuTemporal(TemporalIndexConfig { bins: 8 }),
            device(),
        )
        .unwrap();
        let (big, _) = engine.search(&queries, d, 500_000).unwrap();
        let (small, _) = engine.search(&queries, d, capacity).unwrap();
        prop_assert_eq!(big, small);
    }
}
