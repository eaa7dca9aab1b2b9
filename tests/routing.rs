//! Tier-1: slab-aware query routing is an optimisation, never an answer
//! change.
//!
//! Routing dispatches each query only to the temporal slabs its own
//! `[t0, t1]` touches: a match needs a shared time instant, so no distance
//! slack applies. Every test here holds routed results byte-identical to
//! the unsharded oracle, while the dispatch counters prove real work was
//! avoided.

use proptest::prelude::*;
use tdts::prelude::*;

mod common;
use common::{arb_store, assert_byte_identical};

fn sharded(dataset: &PreparedDataset, shards: usize) -> SearchEngine {
    SearchEngine::build_sharded(
        dataset,
        Method::GpuTemporal(TemporalIndexConfig { bins: 40 }),
        &DeviceConfig::tesla_c2075(),
        &ShardedIndexConfig::builder().shards(shards).build().unwrap(),
    )
    .unwrap()
}

/// The headline behaviour: on a workload whose query segments each span a
/// narrow slice of the time extent, slab routing dispatches at most half of
/// the `|Q| × shards` shard-query pairs, with results byte-identical to the
/// unsharded oracle.
#[test]
fn narrow_extent_queries_cut_dispatch_at_least_2x() {
    let store = MergerConfig { particles: 60, timesteps: 25, ..Default::default() }.generate();
    let queries =
        MergerConfig { particles: 12, timesteps: 25, seed: 77, ..Default::default() }.generate();
    let dataset = PreparedDataset::new(store);
    let shards = 8;
    let all = (queries.len() * shards) as u64;

    let oracle_engine = SearchEngine::build(
        &dataset,
        Method::GpuTemporal(TemporalIndexConfig { bins: 40 }),
        Device::new(DeviceConfig::tesla_c2075()).unwrap(),
    )
    .unwrap();
    let routed = sharded(&dataset, shards);

    for d in [1.0, 4.0] {
        let (oracle, _) = oracle_engine.search(&queries, d, 2_000_000).unwrap();
        assert!(!oracle.is_empty(), "d={d}: scenario must produce matches to mean anything");

        let (r_matches, r_report) = routed.search(&queries, d, 2_000_000).unwrap();
        assert_byte_identical(&r_matches, &oracle, &format!("routed d={d}"));
        // Routed + skipped always accounts for the full cross product.
        let routing = r_report.routing;
        assert_eq!(
            routing.shard_queries_routed + routing.shard_queries_skipped,
            all,
            "d={d}: dispatch accounting"
        );
        assert!(
            routing.shard_queries_routed * 2 <= all,
            "d={d}: routed {} shard-queries, more than half of the {all} pairs \
             on narrow-extent queries",
            routing.shard_queries_routed
        );
    }
}

/// A batch whose every query lies entirely outside the indexed time extent
/// reaches no slab: the search returns empty without probing any shard.
#[test]
fn zero_reach_batch_skips_every_shard() {
    let store = MergerConfig { particles: 30, timesteps: 20, ..Default::default() }.generate();
    let span = store.stats().unwrap().time_span;
    let mut queries = SegmentStore::new();
    for i in 0..6u32 {
        let t0 = span.end + 1000.0 + f64::from(i);
        queries.push(Segment::new(
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 0.0, 0.0),
            t0,
            t0 + 1.0,
            SegId(i),
            TrajId(i),
        ));
    }
    let dataset = PreparedDataset::new(store);
    let engine = sharded(&dataset, 4);
    let (matches, report) = engine.search(&queries, 5.0, 100_000).unwrap();
    assert!(matches.is_empty(), "out-of-extent queries cannot match");
    assert_eq!(report.routing.shards_probed, 0, "no shard should be probed");
    assert_eq!(report.routing.shards_skipped, 4);
    assert_eq!(report.routing.shard_queries_skipped, (queries.len() * 4) as u64);
    assert_eq!(report.matches, 0);
}

/// Queries spanning the whole extent reach every slab: every shard is
/// probed with every query, with zero skips and the oracle's results.
#[test]
fn whole_span_queries_probe_every_shard() {
    let store = MergerConfig { particles: 30, timesteps: 20, ..Default::default() }.generate();
    let span = store.stats().unwrap().time_span;
    let mut queries = SegmentStore::new();
    for i in 0..4u32 {
        queries.push(Segment::new(
            Point3::new(f64::from(i), 0.0, 0.0),
            Point3::new(f64::from(i) + 1.0, 0.0, 0.0),
            span.start,
            span.end,
            SegId(i),
            TrajId(i),
        ));
    }
    let dataset = PreparedDataset::new(store);
    let shards = 4;
    let routed = sharded(&dataset, shards);
    let (r_matches, r_report) = routed.search(&queries, 6.0, 1_000_000).unwrap();
    let oracle = brute_force_search(dataset.store(), &queries, 6.0);
    assert_byte_identical(&r_matches, &oracle, "whole-span");
    assert_eq!(r_report.routing.shard_queries_skipped, 0);
    assert_eq!(r_report.routing.shards_probed, shards as u64);
    assert_eq!(r_report.routing.shard_queries_routed, (queries.len() * shards) as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any database, query set, shard count and threshold, slab
    /// routing returns exactly the brute-force oracle's
    /// records, and routes or skips every shard-query pair exactly once.
    #[test]
    fn routed_is_byte_identical_to_oracle(
        store in arb_store(6, 5),
        queries in arb_store(3, 4),
        shards in 1usize..=8,
        d in 0.1f64..25.0,
    ) {
        let dataset = PreparedDataset::new(store);
        let engine = SearchEngine::build_sharded(
            &dataset,
            Method::GpuTemporal(TemporalIndexConfig { bins: 7 }),
            &DeviceConfig::tesla_c2075(),
            &ShardedIndexConfig::builder().shards(shards).build().unwrap(),
        )
        .unwrap();
        let (r_matches, r_report) = engine.search(&queries, d, 1_000_000).unwrap();
        let oracle = brute_force_search(dataset.store(), &queries, d);
        assert_byte_identical(&r_matches, &oracle, &format!("proptest shards={shards} d={d}"));
        // An empty slab instantiates no shard, so the pairs are counted over
        // the shards built, which may be fewer than requested.
        let built = engine.sharded().unwrap().shards();
        prop_assert!(built <= shards);
        prop_assert_eq!(
            r_report.routing.shard_queries_routed + r_report.routing.shard_queries_skipped,
            (queries.len() * built) as u64
        );
    }
}
