//! Integration: qualitative behaviours the paper reports must hold on
//! scaled-down versions of its scenarios.
//!
//! The Merger dataset is used for the spatial-selectivity behaviours: its
//! clustered, scale-free geometry survives down-scaling, whereas the two
//! random-walk datasets become degenerate at very small scales (too sparse
//! for any spatial interaction, or with segments rivalling the whole cube,
//! which caps the subbin count via the §IV-C1 constraint).

use std::sync::Arc;
use tdts::prelude::*;

fn device() -> Arc<Device> {
    Device::new(DeviceConfig::tesla_c2075()).unwrap()
}

const SCALE: f64 = 1.0 / 256.0;

#[test]
fn gputemporal_response_flat_in_d() {
    // §V-C: "GPUTemporal's response time does not depend on d".
    let scenario = Scenario::new(ScenarioKind::S1Random, SCALE);
    let dataset = PreparedDataset::new(scenario.dataset());
    let queries = scenario.queries();
    let engine = SearchEngine::build(
        &dataset,
        Method::GpuTemporal(TemporalIndexConfig { bins: 200 }),
        device(),
    )
    .unwrap();
    let mut comparisons = Vec::new();
    for d in [1.0, 10.0, 50.0] {
        let (_, report) = engine.search(&queries, d, 2_000_000).unwrap();
        comparisons.push(report.comparisons);
    }
    assert!(
        comparisons.windows(2).all(|w| w[0] == w[1]),
        "comparisons varied with d: {comparisons:?}"
    );
}

#[test]
fn gpuspatial_comparisons_grow_with_d() {
    // §V-C: GPUSpatial "does not scale well as d increases".
    let scenario = Scenario::new(ScenarioKind::S2Merger, SCALE);
    let dataset = PreparedDataset::new(scenario.dataset());
    let queries = scenario.queries();
    let engine = SearchEngine::build(
        &dataset,
        Method::GpuSpatial(GpuSpatialConfig {
            fsg: FsgConfig { cells_per_dim: 20 },
            total_scratch: 8_000_000,
        }),
        device(),
    )
    .unwrap();
    let (_, small) = engine.search(&queries, 0.1, 2_000_000).unwrap();
    let (_, large) = engine.search(&queries, 5.0, 2_000_000).unwrap();
    assert!(
        large.comparisons > small.comparisons * 3,
        "expected strong growth: {} vs {}",
        small.comparisons,
        large.comparisons
    );
    assert!(large.response_seconds() > small.response_seconds());
}

#[test]
fn spatiotemporal_more_selective_than_temporal_at_small_d() {
    // §IV-C: the subbins add spatial selectivity, so at small d the
    // spatiotemporal scheme compares far fewer candidates.
    let scenario = Scenario::new(ScenarioKind::S2Merger, SCALE);
    let dataset = PreparedDataset::new(scenario.dataset());
    let queries = scenario.queries();
    let bins = 100;
    let temporal =
        SearchEngine::build(&dataset, Method::GpuTemporal(TemporalIndexConfig { bins }), device())
            .unwrap();
    let st = SearchEngine::build(
        &dataset,
        Method::GpuSpatioTemporal(SpatioTemporalIndexConfig {
            bins,
            subbins: 8,
            sort_by_selector: true,
        }),
        device(),
    )
    .unwrap();
    let d = 0.1;
    let (mt, rt) = temporal.search(&queries, d, 2_000_000).unwrap();
    let (ms, rs) = st.search(&queries, d, 2_000_000).unwrap();
    assert_eq!(mt, ms);
    assert!(
        rs.comparisons * 2 < rt.comparisons,
        "spatiotemporal {} vs temporal {}",
        rs.comparisons,
        rt.comparisons
    );
    assert!(rs.response_seconds() < rt.response_seconds());
}

#[test]
fn fallback_rate_grows_with_d() {
    // §V-E: larger d makes queries overlap multiple subbins in every
    // dimension and fall back to the temporal scheme.
    let scenario = Scenario::new(ScenarioKind::S2Merger, SCALE);
    let dataset = PreparedDataset::new(scenario.dataset());
    let queries = scenario.queries();
    let engine = SearchEngine::build(
        &dataset,
        Method::GpuSpatioTemporal(SpatioTemporalIndexConfig {
            bins: 100,
            subbins: 8,
            sort_by_selector: true,
        }),
        device(),
    )
    .unwrap();
    let mut rates = Vec::new();
    for d in [0.01, 2.0, 50.0] {
        let (_, report) = engine.search(&queries, d, 2_000_000).unwrap();
        rates.push(report.fallback_queries);
    }
    assert!(rates[0] <= rates[1] && rates[1] <= rates[2], "rates {rates:?}");
    assert!(rates[2] > rates[0], "fallback must grow: {rates:?}");
}

#[test]
fn subbin_count_capped_by_extent_constraint() {
    // §IV-C1: v may not exceed extent / max segment extent.
    let scenario = Scenario::new(ScenarioKind::S1Random, SCALE);
    let store = {
        let mut s = scenario.dataset();
        s.sort_by_t_start();
        s
    };
    let idx = tdts::index_spatiotemporal::SpatioTemporalIndex::build(
        &store,
        SpatioTemporalIndexConfig { bins: 50, subbins: 1_000_000, sort_by_selector: true },
    )
    .unwrap();
    let stats = store.stats().unwrap();
    for d in 0..3 {
        let extent = stats.bounds.hi.coord(d) - stats.bounds.lo.coord(d);
        let max_ext = stats.max_segment_extent[d];
        assert!(
            idx.effective_subbins() as f64 <= extent / max_ext,
            "constraint violated in dim {d}"
        );
    }
}

#[test]
fn dense_dataset_scaling_caps_subbins() {
    // At reduced scale the dense cube shrinks (density is preserved) while
    // segment extents do not, so the §IV-C1 constraint caps v — documented
    // behaviour that the T-F harness notes.
    let scenario = Scenario::new(ScenarioKind::S3RandomDense, SCALE);
    let store = {
        let mut s = scenario.dataset();
        s.sort_by_t_start();
        s
    };
    let idx = tdts::index_spatiotemporal::SpatioTemporalIndex::build(
        &store,
        SpatioTemporalIndexConfig { bins: 50, subbins: 16, sort_by_selector: true },
    )
    .unwrap();
    assert!(idx.effective_subbins() < 16);
}
