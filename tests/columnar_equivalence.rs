//! Tier-1: the columnar device layout and its temporal prefilter change
//! what a comparison is charged, never what it computes.
//!
//! All five methods must return *byte-identical* result sets (exact
//! `MatchRecord` equality, not tolerance-based diffing) on the Merger and
//! Random-dense scenario generators, and each method's comparison count is
//! pinned: the prefilter rejects inside a comparison, it must not skip one.

use tdts::prelude::*;

fn methods() -> Vec<Method> {
    vec![
        Method::CpuRTree(RTreeConfig::default()),
        Method::GpuSpatial(GpuSpatialConfig {
            fsg: FsgConfig { cells_per_dim: 10 },
            total_scratch: 500_000,
            compaction_threshold: 4_096,
        }),
        Method::GpuTemporal(TemporalIndexConfig { bins: 40 }),
        Method::GpuBatchedTemporal(BatchedConfig {
            index: TemporalIndexConfig { bins: 40 },
            batch_size: 9,
        }),
        Method::GpuSpatioTemporal(SpatioTemporalIndexConfig {
            bins: 40,
            subbins: 4,
            sort_by_selector: true,
        }),
    ]
}

/// Exact equality — every field of every record, bit for bit.
fn assert_byte_identical(got: &[MatchRecord], expect: &[MatchRecord], label: &str) {
    assert_eq!(got.len(), expect.len(), "{label}: result count");
    for (i, (g, e)) in got.iter().zip(expect).enumerate() {
        assert_eq!(g.query, e.query, "{label}: record {i} query");
        assert_eq!(g.entry, e.entry, "{label}: record {i} entry");
        assert_eq!(
            g.interval.start.to_bits(),
            e.interval.start.to_bits(),
            "{label}: record {i} interval start"
        );
        assert_eq!(
            g.interval.end.to_bits(),
            e.interval.end.to_bits(),
            "{label}: record {i} interval end"
        );
    }
}

/// `comparisons[i][j]` is the pinned count of `methods()[j]` at
/// `distances[i]`.
fn check_scenario(
    store: SegmentStore,
    queries: SegmentStore,
    distances: &[f64],
    comparisons: &[[u64; 5]],
    label: &str,
) {
    let dataset = PreparedDataset::new(store);
    for (&d, pinned) in distances.iter().zip(comparisons) {
        let mut reference: Option<Vec<MatchRecord>> = None;
        for (method, &pinned) in methods().into_iter().zip(pinned) {
            let device = Device::new(DeviceConfig::tesla_c2075()).unwrap();
            let engine = SearchEngine::build(&dataset, method, device).unwrap();
            let (got, report) = engine.search(&queries, d, 2_000_000).unwrap();
            let name = method.name();
            assert_eq!(report.comparisons, pinned, "{label}/{name} d={d}: comparisons");
            match &reference {
                None => reference = Some(got),
                Some(r) => {
                    assert_byte_identical(&got, r, &format!("{label}/{name} vs reference d={d}"))
                }
            }
        }
        assert!(
            reference.as_ref().is_some_and(|r| !r.is_empty()),
            "{label} d={d}: scenario must produce matches for the test to mean anything"
        );
    }
}

#[test]
fn merger_scenario_byte_identical() {
    let store = MergerConfig { particles: 60, timesteps: 25, ..Default::default() }.generate();
    let queries =
        MergerConfig { particles: 12, timesteps: 25, seed: 77, ..Default::default() }.generate();
    let comparisons =
        [[2_017, 29_329, 50_400, 50_400, 21_940], [10_805, 87_437, 50_400, 50_400, 33_594]];
    check_scenario(store, queries, &[1.0, 4.0], &comparisons, "merger");
}

#[test]
fn random_dense_scenario_byte_identical() {
    let store = RandomDenseConfig { particles: 64, timesteps: 20, ..Default::default() }.generate();
    let queries =
        RandomDenseConfig { particles: 12, timesteps: 20, seed: 55, ..Default::default() }
            .generate();
    let comparisons =
        [[22_191, 6_310_153, 42_240, 42_240, 42_240], [42_240, 18_166_356, 42_240, 42_240, 42_240]];
    check_scenario(store, queries, &[2.0, 12.0], &comparisons, "random-dense");
}
