//! Tier-1: the cost model is deterministic, not just the match set.
//!
//! Two searches of the same queries on freshly built devices must return
//! equal [`SearchReport`]s — every counter, every phase, the host steps'
//! counted seconds included — whatever the host scheduler did, with and without result-buffer pressure
//! (where the redo protocol re-launches over the queries that lost records).
//! The absolute counters of one small fixture are pinned as well: a
//! refactoring that claims to change no counter has to leave that table
//! alone.

use tdts::prelude::*;

mod common;

fn methods() -> Vec<Method> {
    common::methods(50, 2_000_000)
}

const D: f64 = 1.5;
const AMPLE: usize = 2_000_000;
const SHAPES: [KernelShape; 2] = [KernelShape::ThreadPerQuery, KernelShape::WarpPerTile];

fn fixture() -> (PreparedDataset, SegmentStore) {
    let scenario = Scenario::new(ScenarioKind::S2Merger, 1.0 / 256.0);
    (PreparedDataset::new(scenario.dataset()), scenario.queries())
}

/// An index on a device nothing else has touched.
fn fresh_engine(dataset: &PreparedDataset, method: Method, shape: KernelShape) -> SearchEngine {
    let config = DeviceConfig { kernel_shape: shape, ..DeviceConfig::tesla_c2075() };
    SearchEngine::build(dataset, method, Device::new(config).unwrap()).unwrap()
}

/// One search on a device and an index nothing else has touched.
fn fresh_search(
    dataset: &PreparedDataset,
    queries: &SegmentStore,
    method: Method,
    shape: KernelShape,
    result_capacity: usize,
) -> (Vec<MatchRecord>, SearchReport) {
    fresh_engine(dataset, method, shape).search(queries, D, result_capacity).unwrap()
}

#[test]
fn repeated_searches_report_identical_costs() {
    let (dataset, queries) = fixture();
    for shape in SHAPES {
        for method in methods() {
            let label = format!("{} / {shape:?}", method.name());
            let mut capacity = AMPLE;
            let mut expected = None;
            for pressure in [false, true] {
                let (m1, r1) = fresh_search(&dataset, &queries, method, shape, capacity);
                let (m2, r2) = fresh_search(&dataset, &queries, method, shape, capacity);
                assert_eq!(m1, m2, "{label} / {capacity}: matches differ between runs");
                assert_eq!(r1, r2, "{label} / {capacity}: cost model differs between runs");
                assert_eq!(
                    expected.get_or_insert_with(|| m1.clone()),
                    &m1,
                    "{label}: matches depend on the result capacity"
                );
                if pressure {
                    let redo_expected = !matches!(method, Method::CpuRTree(_));
                    assert_eq!(r1.redo_rounds >= 1, redo_expected, "{label}: redo rounds");
                } else {
                    // A third of the raw result set forces the redo protocol.
                    capacity = (r1.raw_matches / 3) as usize;
                }
            }
        }
    }
}

/// A search charges a ledger of its own, so four threads searching one
/// shared engine — one resident index, one device — each get the solo
/// search's report and matches, with and without result-buffer pressure.
#[test]
fn concurrent_searches_on_one_engine_report_solo_costs() {
    let (dataset, queries) = fixture();
    for shape in SHAPES {
        for method in methods() {
            let engine = fresh_engine(&dataset, method, shape);
            let label = format!("{} / {shape:?}", method.name());
            let ample = common::assert_concurrent_searches_match_solo(
                &engine, &queries, D, AMPLE, None, &label,
            );
            // A third of the raw result set forces the redo protocol.
            let pressure = (ample.raw_matches / 3) as usize;
            common::assert_concurrent_searches_match_solo(
                &engine, &queries, D, pressure, None, &label,
            );
        }
    }
}

/// The shape a search names is the whole of its shape: on a device configured
/// with the *other* one it returns the matches and charges the costs of a
/// device configured with `shape`, unsharded and forwarded through 4 shards.
#[test]
fn shape_argument_overrides_the_device_default() {
    let (dataset, queries) = fixture();
    let sharding = ShardedIndexConfig::builder().shards(4).build().unwrap();
    for method in methods() {
        for sharded in [false, true] {
            let build = |device_shape: KernelShape| {
                if sharded {
                    let config =
                        DeviceConfig { kernel_shape: device_shape, ..DeviceConfig::tesla_c2075() };
                    SearchEngine::build_sharded(&dataset, method, &config, &sharding).unwrap()
                } else {
                    fresh_engine(&dataset, method, device_shape)
                }
            };
            for (shape, other) in [(SHAPES[0], SHAPES[1]), (SHAPES[1], SHAPES[0])] {
                let label = format!("{} / {shape:?} / sharded: {sharded}", method.name());
                let (want, want_report) = build(shape).search(&queries, D, AMPLE).unwrap();
                let (got, got_report) =
                    build(other).search_shaped(&queries, D, AMPLE, Some(shape)).unwrap();
                common::assert_byte_identical(&got, &want, &label);
                assert_eq!(got_report, want_report, "{label}");
            }
        }
    }
}

/// `(comparisons, atomics, gmem_read_bytes, instructions)` of the fixture at
/// ample capacity, per method (rows, in [`methods`] order) and kernel shape
/// (columns, in [`SHAPES`] order).
const PINNED: [[(u64, u64, u64, u64); 2]; 4] = [
    [(24_006, 0, 0, 0), (24_006, 0, 0, 0)],
    [(2_391_505, 124, 71_954_640, 123_636_250), (2_391_505, 21_462, 55_745_700, 117_451_831)],
    [(1_147_904, 84, 46_607_360, 55_117_401), (1_147_904, 11_877, 47_297_152, 55_174_113)],
    [(494_346, 93, 21_943_952, 23_746_689), (494_346, 5_801, 22_234_952, 23_774_421)],
];

/// `(comparisons, atomics, gmem_read_bytes, instructions,
/// routing.shard_queries_routed)` of one sharded search.
type ShardedCounters = (u64, u64, u64, u64, u64);

/// [`ShardedCounters`] of the fixture at ample capacity over 4 temporal
/// shards, per method (rows, in [`methods`] order) and kernel shape
/// (columns, in [`SHAPES`] order).
const PINNED_SHARDED: [[ShardedCounters; 2]; 4] = [
    [(24_137, 0, 0, 0, 390), (24_137, 0, 0, 0, 390)],
    [
        (1_274_892, 94, 36_204_952, 63_827_765, 390),
        (1_274_892, 13_581, 31_797_856, 62_641_853, 390),
    ],
    [(590_848, 101, 37_842_352, 28_378_974, 390), (590_848, 7_624, 38_183_552, 28_418_238, 390)],
    [(260_426, 110, 17_566_332, 12_518_790, 390), (260_426, 4_039, 17_709_880, 12_538_914, 390)],
];

/// One search on an index sharded over 4 temporal slabs of fresh devices.
fn fresh_sharded_search(
    dataset: &PreparedDataset,
    queries: &SegmentStore,
    method: Method,
    shape: KernelShape,
) -> SearchReport {
    let config = DeviceConfig { kernel_shape: shape, ..DeviceConfig::tesla_c2075() };
    let sharding = ShardedIndexConfig::builder()
        .shards(4)
        .partition(PartitionStrategy::Temporal)
        .build()
        .unwrap();
    let engine = SearchEngine::build_sharded(dataset, method, &config, &sharding).unwrap();
    engine.search(queries, D, AMPLE).unwrap().1
}

#[test]
fn fixture_counters_are_pinned() {
    let (dataset, queries) = fixture();
    for (method, row) in methods().into_iter().zip(PINNED) {
        for (shape, pinned) in SHAPES.into_iter().zip(row) {
            let (_, r) = fresh_search(&dataset, &queries, method, shape, AMPLE);
            let t = r.totals;
            assert_eq!(
                (r.comparisons, t.atomics, t.gmem_read_bytes, t.instructions),
                pinned,
                "{} / {shape:?}",
                method.name()
            );
        }
    }
    for (method, row) in methods().into_iter().zip(PINNED_SHARDED) {
        for (shape, pinned) in SHAPES.into_iter().zip(row) {
            let label = format!("{} / 4 shards / {shape:?}", method.name());
            let r = fresh_sharded_search(&dataset, &queries, method, shape);
            let again = fresh_sharded_search(&dataset, &queries, method, shape);
            assert_eq!(r, again, "{label}");
            let t = r.totals;
            let got = (
                r.comparisons,
                t.atomics,
                t.gmem_read_bytes,
                t.instructions,
                r.routing.shard_queries_routed,
            );
            assert_eq!(got, pinned, "{label}");
        }
    }
}

/// The builds that run on the host's cores — an index's three dimensions,
/// a sharded index's members — give what the same build gives run inline
/// (as a loop nested in another loop's body runs), every time.
#[test]
fn parallel_builds_are_deterministic() {
    use tdts::geom::par::par_map;
    use tdts::index_spatiotemporal::SpatioTemporalIndex;

    let (dataset, queries) = fixture();
    let store = dataset.store();
    let stats = store.stats().unwrap();
    let config = SpatioTemporalIndexConfig { bins: 50, subbins: 8, sort_by_selector: true };
    let build = || SpatioTemporalIndex::build_with_stats(store, &stats, config).unwrap();
    let inline = par_map(1, |_| build()).pop().unwrap();
    for index in [build(), build()] {
        assert!(index.effective_subbins() > 1, "one subbin leaves nothing to compare");
        assert_eq!(index.runs().len(), inline.runs().len());
        for (run, expected) in index.runs().iter().zip(inline.runs()) {
            assert_eq!(run.ids(), expected.ids());
        }
        assert_eq!(format!("{index:?}"), format!("{inline:?}"), "runs, bounds and geometry");
    }

    for method in methods() {
        for shape in SHAPES {
            let label = format!("{} / 4 shards / {shape:?}", method.name());
            let config = DeviceConfig { kernel_shape: shape, ..DeviceConfig::tesla_c2075() };
            let sharding = ShardedIndexConfig::builder().shards(4).build().unwrap();
            let build = || SearchEngine::build_sharded(&dataset, method, &config, &sharding);
            let inline = par_map(1, |_| build().unwrap()).pop().unwrap();
            let (expected, report) = inline.search(&queries, D, AMPLE).unwrap();
            let stats = |engine: &SearchEngine| engine.sharded().unwrap().shard_stats();
            let expected_stats = stats(&inline);
            assert!(expected_stats.len() > 1, "{label}: one member leaves nothing to compare");
            for _ in 0..2 {
                let engine = build().unwrap();
                let (matches, again) = engine.search(&queries, D, AMPLE).unwrap();
                common::assert_byte_identical(&matches, &expected, &label);
                assert_eq!(again, report, "{label}");
                assert_eq!(stats(&engine), expected_stats, "{label}");
            }
        }
    }
}
