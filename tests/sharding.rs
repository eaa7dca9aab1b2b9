//! Tier-1: sharded execution is a deployment shape, not an algorithm.
//!
//! Partitioning the entry database across simulated devices must leave
//! result sets *byte-identical* to the single-device oracle — for every
//! method, every kernel shape, and temporal slabs at shard counts 1/2/4/8 —
//! because boundary segments are replicated into every slab they straddle
//! and the merge collapses the duplicate records on full
//! `(query, entry, interval)` keys.

use proptest::prelude::*;
use tdts::prelude::*;

mod common;
use common::{arb_store, assert_byte_identical};

fn methods() -> Vec<Method> {
    common::methods(40, 500_000)
}

const SHAPES: [KernelShape; 2] = [KernelShape::ThreadPerQuery, KernelShape::WarpPerTile];

/// Every index is built once per method and shard count; the kernel shape
/// and `d` travel with each search.
fn check_scenario(store: SegmentStore, queries: SegmentStore, distances: &[f64], label: &str) {
    let dataset = PreparedDataset::new(store);
    let config = DeviceConfig::tesla_c2075();
    let cases: Vec<(KernelShape, f64)> =
        SHAPES.iter().flat_map(|&shape| distances.iter().map(move |&d| (shape, d))).collect();
    for method in methods() {
        let oracle_engine =
            SearchEngine::build(&dataset, method, Device::new(config.clone()).unwrap()).unwrap();
        let oracles: Vec<Vec<MatchRecord>> = cases
            .iter()
            .map(|&(shape, d)| {
                let (oracle, _) =
                    oracle_engine.search_shaped(&queries, d, 2_000_000, Some(shape)).unwrap();
                assert!(
                    !oracle.is_empty(),
                    "{label}/{} d={d}: scenario must produce matches to mean anything",
                    method.name()
                );
                oracle
            })
            .collect();
        for shards in [1, 2, 4, 8] {
            let engine = SearchEngine::build_sharded(
                &dataset,
                method,
                &config,
                &ShardedIndexConfig::builder().shards(shards).build().unwrap(),
            )
            .unwrap();
            for (&(shape, d), oracle) in cases.iter().zip(&oracles) {
                let (got, report) =
                    engine.search_shaped(&queries, d, 2_000_000, Some(shape)).unwrap();
                assert_byte_identical(
                    &got,
                    oracle,
                    &format!("{label}/{} {shape:?} shards={shards} d={d}", method.name()),
                );
                assert_eq!(report.matches, got.len() as u64);
            }
        }
    }
}

#[test]
fn merger_scenario_sharded_byte_identical() {
    let store = MergerConfig { particles: 60, timesteps: 25, ..Default::default() }.generate();
    let queries =
        MergerConfig { particles: 12, timesteps: 25, seed: 77, ..Default::default() }.generate();
    check_scenario(store, queries, &[1.0, 4.0], "merger");
}

#[test]
fn random_dense_scenario_sharded_byte_identical() {
    let store = RandomDenseConfig { particles: 64, timesteps: 20, ..Default::default() }.generate();
    let queries =
        RandomDenseConfig { particles: 12, timesteps: 20, seed: 55, ..Default::default() }
            .generate();
    check_scenario(store, queries, &[2.0, 12.0], "random-dense");
}

/// Regression: a segment straddling a slab boundary is resident in both
/// slabs and reports its match from each — the merge must collapse the
/// replicas to exactly one record.
#[test]
fn boundary_straddling_segment_dedups_to_one_record() {
    // Two entries over [0, 10]: one inside the first temporal half, one
    // spanning the midpoint (replicated into both slabs at shards=2).
    let mut store = SegmentStore::new();
    store.push(Segment::new(
        Point3::new(0.0, 0.0, 0.0),
        Point3::new(1.0, 0.0, 0.0),
        0.0,
        2.0,
        SegId(0),
        TrajId(0),
    ));
    store.push(Segment::new(
        Point3::new(0.0, 1.0, 0.0),
        Point3::new(1.0, 1.0, 0.0),
        4.0,
        6.0,
        SegId(1),
        TrajId(1),
    ));
    store.push(Segment::new(
        Point3::new(0.0, 2.0, 0.0),
        Point3::new(1.0, 2.0, 0.0),
        8.0,
        10.0,
        SegId(2),
        TrajId(2),
    ));
    let mut queries = SegmentStore::new();
    // One query covering the whole span: it matches all three entries.
    queries.push(Segment::new(
        Point3::new(0.0, 0.5, 0.0),
        Point3::new(1.0, 0.5, 0.0),
        0.0,
        10.0,
        SegId(0),
        TrajId(9),
    ));

    let dataset = PreparedDataset::new(store);
    let stats = dataset.store().stats().unwrap();
    let plan = ShardPlan::new(&stats, 2, tdts::geom::PartitionStrategy::Temporal);
    let middle = dataset.store().iter().find(|s| s.t_start == 4.0).unwrap();
    let (lo, hi) = plan.slab_span(middle);
    assert!(lo < hi, "fixture must actually straddle the slab boundary");

    let config = DeviceConfig::tesla_c2075();
    let method = Method::GpuTemporal(TemporalIndexConfig { bins: 4 });
    let oracle_engine =
        SearchEngine::build(&dataset, method, Device::new(config.clone()).unwrap()).unwrap();
    let (oracle, _) = oracle_engine.search(&queries, 5.0, 10_000).unwrap();
    assert_eq!(oracle.len(), 3);

    let sharded = SearchEngine::build_sharded(
        &dataset,
        method,
        &config,
        &ShardedIndexConfig::builder().shards(2).build().unwrap(),
    )
    .unwrap();
    let (got, report) = sharded.search(&queries, 5.0, 10_000).unwrap();
    assert_byte_identical(&got, &oracle, "boundary straddle");
    // The straddler reported from both shards; exactly one replica dropped.
    assert_eq!(report.raw_matches, 4, "replicated entry must match in both shards");
    assert_eq!(report.matches, 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any temporal partition of any database merges back to the unsharded
    /// oracle.
    #[test]
    fn any_partition_merges_back_to_oracle(
        store in arb_store(6, 5),
        queries in arb_store(3, 4),
        shards in 1usize..=8,
        d in 0.5f64..25.0,
    ) {
        let dataset = PreparedDataset::new(store);
        let expect = brute_force_search(dataset.store(), &queries, d);
        let engine = SearchEngine::build_sharded(
            &dataset,
            Method::GpuTemporal(TemporalIndexConfig { bins: 7 }),
            &DeviceConfig::tesla_c2075(),
            &ShardedIndexConfig::builder().shards(shards).build().unwrap(),
        )
        .unwrap();
        let (got, _) = engine.search(&queries, d, 1_000_000).unwrap();
        assert_byte_identical(&got, &expect, &format!("proptest shards={shards} d={d}"));
    }
}
