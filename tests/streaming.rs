//! Tier-1 streaming contract: after ANY interleaved append/expire sequence,
//! every method's search results are byte-identical to a cold rebuild of
//! the same method over the store at the same generation — for both kernel
//! shapes, unsharded and sharded.

use proptest::prelude::*;
use std::sync::Arc;
use tdts::prelude::*;

/// One resident index serves both kernel shapes; each search names its own.
fn device() -> Arc<Device> {
    Device::new(DeviceConfig::tesla_c2075()).unwrap()
}

const SHAPES: [KernelShape; 2] = [KernelShape::ThreadPerQuery, KernelShape::WarpPerTile];

fn all_methods(bins: usize, cells: usize) -> Vec<Method> {
    vec![
        Method::CpuRTree(RTreeConfig::default()),
        Method::GpuSpatial(GpuSpatialConfig {
            fsg: FsgConfig { cells_per_dim: cells },
            total_scratch: 500_000,
        }),
        Method::GpuTemporal(TemporalIndexConfig { bins }),
        Method::GpuSpatioTemporal(SpatioTemporalIndexConfig {
            bins,
            subbins: 3,
            sort_by_selector: true,
        }),
    ]
}

/// A deterministic time-ordered segment: clustered positions so queries at
/// moderate `d` produce non-empty result sets.
fn seg(i: u32, t: f64) -> Segment {
    Segment::new(
        Point3::new((i % 9) as f64, (i % 5) as f64, (i % 3) as f64),
        Point3::new((i % 9) as f64 + 1.0, (i % 5) as f64 + 1.0, (i % 3) as f64 + 0.5),
        t,
        t + 1.2,
        SegId(i),
        TrajId(i % 7),
    )
}

fn base_store(n: usize) -> SegmentStore {
    (0..n as u32).map(|i| seg(i, i as f64 * 0.25)).collect()
}

/// An engine over `dataset`: unsharded (`shards == 0`), or over `shards`
/// temporal slabs.
fn build_engine(dataset: &PreparedDataset, method: Method, shards: usize) -> SearchEngine {
    if shards == 0 {
        return SearchEngine::build(dataset, method, device()).unwrap();
    }
    let sharding = ShardedIndexConfig::builder().shards(shards).build().unwrap();
    SearchEngine::build_sharded(dataset, method, &DeviceConfig::tesla_c2075(), &sharding).unwrap()
}

/// Assert the warm (incrementally maintained) engine answers exactly like
/// one cold rebuild of the same method and sharding over the same store
/// state, under both kernel shapes at every distance.
fn assert_matches_cold(warm: &SearchEngine, queries: &SegmentStore, distances: &[f64]) {
    let cold_set = PreparedDataset::new(warm.store().clone());
    let shards = warm.sharded().map_or(0, ShardedIndex::requested_shards);
    let cold = build_engine(&cold_set, warm.method(), shards);
    for shape in SHAPES {
        for &d in distances {
            let (got, _) = warm.search_shaped(queries, d, 500_000, Some(shape)).unwrap();
            let (want, _) = cold.search_shaped(queries, d, 500_000, Some(shape)).unwrap();
            assert_eq!(
                got,
                want,
                "{} ({shape:?}, {:?}) diverged from cold rebuild at generation {} (d = {d})",
                warm.method().name(),
                warm.sharded(),
                warm.generation()
            );
        }
    }
}

/// Every method, unsharded and over 4 temporal slabs; a sharded
/// engine re-partitions on each delta and is compared with a cold sharded
/// build.
#[test]
fn interleaved_append_expire_matches_cold_rebuild() {
    let queries: SegmentStore = (0..12u32).map(|i| seg(100 + i, 3.0 + i as f64 * 0.9)).collect();
    for (method, shards) in all_methods(6, 5).into_iter().flat_map(|m| [0, 4].map(|s| (m, s))) {
        let dataset = PreparedDataset::new(base_store(48));
        let mut engine = build_engine(&dataset, method, shards);
        let t0 = 48.0 * 0.25;

        // Tick 1: append past the frontier, then search.
        let tick1: Vec<Segment> = (0..4).map(|i| seg(200 + i, t0 + 1.0 + i as f64 * 0.1)).collect();
        engine.ingest(&tick1).unwrap();
        assert_matches_cold(&engine, &queries, &[2.5]);

        // Tick 2: expire the oldest prefix, then search.
        engine.expire_before(4.0).unwrap();
        assert_matches_cold(&engine, &queries, &[2.5]);

        // Tick 3: append again, expire again, then search at several
        // distances.
        let tick2: Vec<Segment> = (0..3).map(|i| seg(300 + i, t0 + 2.0 + i as f64 * 0.1)).collect();
        engine.ingest(&tick2).unwrap();
        engine.expire_before(7.0).unwrap();
        assert_matches_cold(&engine, &queries, &[0.6, 2.5, 20.0]);
        assert_eq!(engine.generation(), engine.store().generation());

        // Tick 4: expire everything, so every batch answers with no
        // matches; then ingest into the empty engine and search near it.
        engine.expire_before(f64::INFINITY).unwrap();
        for shape in SHAPES {
            let (got, _) = engine.search_shaped(&queries, 20.0, 500_000, Some(shape)).unwrap();
            assert!(got.is_empty(), "{} ({shape:?}, shards={shards})", method.name());
        }
        let tick3: Vec<Segment> = (0..4).map(|i| seg(400 + i, t0 + 3.0 + i as f64 * 0.1)).collect();
        engine.ingest(&tick3).unwrap();
        let near: SegmentStore =
            (0..6u32).map(|i| seg(500 + i, t0 + 2.5 + i as f64 * 0.2)).collect();
        assert_matches_cold(&engine, &near, &[0.6, 2.5]);
        assert!(!engine.search(&near, 2.5, 500_000).unwrap().0.is_empty());
        assert_eq!(engine.generation(), engine.store().generation());
    }
}

/// Stream five window lengths through one temporal-directory index: every
/// tick appends a timestep's worth of segments and expires one, and every
/// tick's answers under both kernel shapes equal a cold rebuild's. The
/// directory (`bins` reads it) stays bounded by the window: after window 5
/// it holds no more bins than after window 1 plus what one tick adds.
fn stream_five_windows<I: TrajectoryIndex>(
    build: impl Fn(&SegmentStore) -> I,
    bins: impl Fn(&I) -> usize,
) {
    const TICKS_PER_WINDOW: usize = 6;
    const STEP: f64 = 2.0;
    let window = TICKS_PER_WINDOW as f64 * STEP;
    let mut store = Arc::new(base_store(48));
    let mut index = build(&store);
    let mut frontier = store.stats().unwrap().time_span.end;
    let (mut after_window_1, mut tick_growth) = (0, 0);
    for tick in 0..5 * TICKS_PER_WINDOW {
        let id0 = 1_000 + 8 * tick as u32;
        let new: Vec<Segment> =
            (0..8).map(|i| seg(id0 + i, frontier + i as f64 * STEP / 8.0)).collect();
        frontier = new.iter().map(|s| s.t_end).fold(frontier, f64::max);
        let before = bins(&index);
        let delta = Arc::make_mut(&mut store).append(&new);
        index.ingest(&store, &delta).unwrap();
        tick_growth = tick_growth.max(bins(&index) - before);
        let delta = Arc::make_mut(&mut store).expire_before(frontier - window);
        assert!(!delta.removed.is_empty(), "tick {tick} expires a timestep");
        index.expire_before(&store, &delta).unwrap();

        let queries: SegmentStore = (0..12u32)
            .map(|i| seg(100 + i, frontier - window * 0.5 + i as f64 * 0.4 - 2.0))
            .collect();
        let cold = build(&store);
        for shape in SHAPES {
            let batch = QueryBatch { queries: &queries, d: 2.5, result_capacity: 500_000 };
            let got = index.search_shaped(&batch, Some(shape)).unwrap().matches;
            let want = cold.search_shaped(&batch, Some(shape)).unwrap().matches;
            assert!(!want.is_empty(), "tick {tick}: the probe must match something");
            assert_eq!(got, want, "{} ({shape:?}) tick {tick}", index.name());
        }
        if tick + 1 == TICKS_PER_WINDOW {
            after_window_1 = bins(&index);
        }
    }
    let after_window_5 = bins(&index);
    assert!(
        after_window_5 <= after_window_1 + tick_growth,
        "{}: {after_window_5} bins after window 5, {after_window_1} after window 1, \
         {tick_growth} added by one tick",
        index.name()
    );
}

#[test]
fn a_window_of_ticks_keeps_the_temporal_directory_bounded() {
    use tdts::index_spatiotemporal::GpuSpatioTemporalSearch;
    use tdts::index_temporal::GpuTemporalSearch;
    let temporal = TemporalIndexConfig { bins: 6 };
    stream_five_windows(
        |store| GpuTemporalSearch::new(device(), store, temporal).unwrap(),
        |search| search.index().bins(),
    );
    let spatiotemporal = SpatioTemporalIndexConfig { bins: 6, subbins: 3, sort_by_selector: true };
    stream_five_windows(
        |store| GpuSpatioTemporalSearch::new(device(), store, spatiotemporal).unwrap(),
        |search| search.index().temporal().bins(),
    );
}

/// Every kernel shape's matches and comparison count for `queries`.
fn outcomes(index: &dyn TrajectoryIndex, queries: &SegmentStore) -> Vec<(Vec<MatchRecord>, u64)> {
    let batch = QueryBatch { queries, d: 2.5, result_capacity: 500 };
    SHAPES
        .iter()
        .map(|&shape| {
            let outcome = index.search_shaped(&batch, Some(shape)).unwrap();
            (outcome.matches, outcome.report.comparisons)
        })
        .collect()
}

/// A GPU index that refuses a delta for want of device memory is exactly as
/// it was: the same generation, and under both kernel shapes the same
/// matches and comparisons as before the delta, with no panic. An append
/// is refused on a device sized for the base store; an expiry, where it
/// re-places device arrays (GPUSpatial's grid), on a device with no memory
/// left. The other GPU methods cut their arrays in place, so the same
/// expiry succeeds there.
#[test]
fn refused_gpu_update_leaves_the_index_as_it_was() {
    let n = 40;
    let base = base_store(n);
    let queries: SegmentStore = base.iter().take(12).copied().collect();
    let tail: Vec<Segment> =
        (0..2_000u32).map(|i| seg(1_000 + i, n as f64 * 0.25 + 1.0 + i as f64 * 0.01)).collect();
    let mut config = DeviceConfig::test_tiny();
    config.global_mem_bytes = 64 * n + 32 * 1024;
    let methods = [
        Method::GpuSpatial(GpuSpatialConfig {
            fsg: FsgConfig { cells_per_dim: 5 },
            total_scratch: 1_000,
        }),
        Method::GpuTemporal(TemporalIndexConfig { bins: 6 }),
        Method::GpuSpatioTemporal(SpatioTemporalIndexConfig {
            bins: 6,
            subbins: 3,
            sort_by_selector: true,
        }),
    ];
    for method in methods {
        let name = method.name();
        let device = Device::new(config.clone()).unwrap();
        let mut store = Arc::new(base.clone());
        let mut index = method.build_index(&store, Arc::clone(&device)).unwrap();
        let generation = index.generation();
        let before = outcomes(&*index, &queries);
        assert!(!before[0].0.is_empty(), "{name}: the fixture must match something");

        let delta = Arc::make_mut(&mut store).append(&tail);
        let err = index.ingest(&store, &delta).unwrap_err();
        assert!(
            matches!(err, TdtsError::Search(SearchError::OutOfDeviceMemory(_))),
            "{name}: {err}"
        );
        assert_eq!(index.generation(), generation, "{name}: refused append");
        assert_eq!(outcomes(&*index, &queries), before, "{name}: refused append");

        let device = Device::new(config.clone()).unwrap();
        let mut store = Arc::new(base.clone());
        let mut index = method.build_index(&store, Arc::clone(&device)).unwrap();
        let filler = device.alloc_from_host(vec![0u8; device.mem_available()]).unwrap();
        let delta = Arc::make_mut(&mut store).expire_before(2.0);
        let result = index.expire_before(&store, &delta);
        drop(filler);
        if !matches!(method, Method::GpuSpatial(_)) {
            // Nothing to re-place: the directory and the id runs are cut in
            // place, so the expiry only frees memory.
            result.unwrap();
            assert_eq!(index.generation(), delta.generation, "{name}: in-place expiry");
            continue;
        }
        let err = result.unwrap_err();
        assert!(
            matches!(err, TdtsError::Search(SearchError::OutOfDeviceMemory(_))),
            "{name}: {err}"
        );
        assert_eq!(index.generation(), generation, "{name}: refused expiry");
        assert_eq!(outcomes(&*index, &queries), before, "{name}: refused expiry");
    }
}

/// A delta that does not continue the entries a GPU index holds — the same
/// append ingested twice, an expiry computed over rows the index never
/// took — is refused with a typed error before anything changes, for every
/// GPU method.
#[test]
fn a_delta_that_does_not_continue_the_index_is_refused() {
    let base = base_store(40);
    let queries: SegmentStore = base.iter().take(12).copied().collect();
    let tail: Vec<Segment> = (0..2u32).map(|i| seg(500 + i, 11.0 + i as f64 * 0.1)).collect();
    for method in all_methods(6, 5).into_iter().skip(1) {
        let name = method.name();
        let mut store = Arc::new(base.clone());
        let mut index = method.build_index(&store, device()).unwrap();
        let delta = Arc::make_mut(&mut store).append(&tail);
        index.ingest(&store, &delta).unwrap();
        let generation = index.generation();
        let before = outcomes(&*index, &queries);

        let refused =
            |err: TdtsError| matches!(err, TdtsError::Search(SearchError::InvalidConfig(_)));
        let err = index.ingest(&store, &delta).unwrap_err();
        assert!(refused(err), "{name}: the same append twice");
        let mut ahead = (*store).clone();
        ahead.append(&[seg(600, 12.0)]);
        let delta = ahead.expire_before(4.0);
        let err = index.expire_before(&Arc::new(ahead), &delta).unwrap_err();
        assert!(refused(err), "{name}: an expiry over rows the index never took");
        assert_eq!(index.generation(), generation, "{name}");
        assert_eq!(outcomes(&*index, &queries), before, "{name}");
    }
}

/// `seg`, with every fourth segment lasting long enough to straddle
/// several window cuts.
fn straddling(i: u32, t: f64) -> Segment {
    let s = seg(i, t);
    let t_end = if i.is_multiple_of(4) { t + 5.0 } else { s.t_end };
    Segment::new(s.start, s.end, t, t_end, s.seg_id, s.traj_id)
}

/// `(comparisons, gmem_read_bytes, instructions, atomics, tiles_dispatched,
/// simulated seconds)` of one search.
type TickCosts = (u64, u64, u64, u64, u64, f64);

/// Per tick of [`streamed_spatiotemporal_costs`]: what each kernel shape
/// (in [`SHAPES`] order) charged, and the device bytes in use.
const PINNED_STREAM: [([TickCosts; 2], usize); 12] = [
    (
        [
            (107, 6560, 5210, 3, 0, 7.539449275362319e-5),
            (107, 6300, 5266, 30, 10, 5.660855072463768e-5),
        ],
        2216,
    ),
    (
        [
            (95, 6128, 4634, 3, 0, 7.609014492753624e-5),
            (95, 5868, 4690, 30, 10, 5.633028985507246e-5),
        ],
        2208,
    ),
    (
        [
            (122, 6992, 5930, 3, 0, 7.467301449275362e-5),
            (122, 6720, 5986, 30, 10, 5.660855072463768e-5),
        ],
        2200,
    ),
    (
        [
            (144, 7704, 6986, 3, 0, 7.541040579710145e-5),
            (144, 7432, 7042, 30, 10, 5.674768115942029e-5),
        ],
        2196,
    ),
    (
        [
            (86, 5396, 4194, 2, 0, 7.539536231884059e-5),
            (86, 5256, 4258, 30, 10, 5.633028985507246e-5),
        ],
        2196,
    ),
    (
        [
            (145, 7836, 7034, 3, 0, 7.628692753623188e-5),
            (145, 7564, 7090, 30, 10, 5.730420289855072e-5),
        ],
        2192,
    ),
    (
        [
            (133, 7560, 6458, 3, 0, 7.503408695652174e-5),
            (133, 7292, 6514, 30, 10, 5.716507246376811e-5),
        ],
        2196,
    ),
    (
        [
            (83, 5332, 4050, 2, 0, 7.574947826086957e-5),
            (83, 5196, 4114, 30, 10, 5.633028985507246e-5),
        ],
        2200,
    ),
    (
        [
            (118, 6916, 5738, 3, 0, 7.475582608695653e-5),
            (118, 6648, 5794, 30, 10, 5.730420289855072e-5),
        ],
        2196,
    ),
    (
        [
            (137, 7628, 6650, 3, 0, 7.522953623188406e-5),
            (137, 7356, 6706, 30, 10, 5.660855072463768e-5),
        ],
        2196,
    ),
    (
        [
            (86, 5400, 4194, 2, 0, 7.440124637681159e-5),
            (86, 5256, 4258, 30, 10, 5.633028985507246e-5),
        ],
        2196,
    ),
    (
        [
            (160, 8712, 7754, 3, 0, 7.823608695652174e-5),
            (160, 8432, 7810, 30, 10, 5.716507246376811e-5),
        ],
        2200,
    ),
];

/// A streamed `GPUSpatioTemporal` index: every tick appends eight
/// [`straddling`] segments and cuts the window, so every cut leaves long
/// segments alive in front of short ones it removed. Per tick, what each
/// kernel shape's search charges and the device bytes the resident index
/// holds.
fn streamed_spatiotemporal_costs() -> Vec<([TickCosts; 2], usize)> {
    use tdts::index_spatiotemporal::GpuSpatioTemporalSearch;
    let config = SpatioTemporalIndexConfig { bins: 8, subbins: 3, sort_by_selector: true };
    let mut store: SegmentStore = (0..48u32).map(|i| straddling(i, i as f64 * 0.25)).collect();
    let mut search = GpuSpatioTemporalSearch::new(device(), &store, config).unwrap();
    let window = 9.0;
    let mut frontier = store.stats().unwrap().time_span.end;
    let mut rows = Vec::new();
    for tick in 0..12u32 {
        let t0 = store.segments().last().unwrap().t_start + 0.25;
        let new: Vec<Segment> =
            (0..8).map(|i| straddling(1_000 + 8 * tick + i, t0 + i as f64 * 0.25)).collect();
        frontier = new.iter().map(|s| s.t_end).fold(frontier, f64::max);
        let delta = store.append(&new);
        search.ingest(&store, &delta).unwrap();
        let delta = store.expire_before(frontier - window);
        let last = *delta.removed.last().unwrap() as usize;
        assert!((0..last).any(|p| delta.remap(p).is_some()), "tick {tick}: no straddler");
        search.expire(&store, &delta).unwrap();
        let mem = search.device().mem_used();
        let queries: SegmentStore = store.iter().step_by(3).copied().collect();
        let costs = SHAPES.map(|shape| {
            let (matches, r) = search.search_shaped(&queries, 0.4, 500_000, Some(shape)).unwrap();
            assert!(!matches.is_empty(), "tick {tick}: the probe must match something");
            assert!(r.fallback_queries < queries.len() as u64, "tick {tick}: no id array used");
            let t = r.totals;
            let sim = r.response.device_seconds();
            (
                r.comparisons,
                t.gmem_read_bytes,
                t.instructions,
                t.atomics,
                r.load.tiles_dispatched,
                sim,
            )
        });
        rows.push((costs, mem));
    }
    rows
}

/// What a streamed `GPUSpatioTemporal` search charges, tick by tick and
/// under both kernel shapes, is the same as when every advance rebuilt the
/// id arrays and re-placed them whole: the run layout moves ids, not
/// costs, and holds the same device bytes.
#[test]
fn streamed_spatiotemporal_charges_are_pinned() {
    for (tick, (got, want)) in
        streamed_spatiotemporal_costs().iter().zip(&PINNED_STREAM).enumerate()
    {
        assert_eq!(got, want, "tick {tick}");
    }
}

/// Twenty-six ticks of eight [`straddling`] segments each over a 48-row
/// base, cut by a 9-unit window; tick 12 cuts everything and tick 13
/// regrows the window from empty.
fn long_stream() -> Vec<(Vec<Segment>, f64)> {
    let mut t = 48.0 * 0.25;
    let mut frontier = t + 5.0;
    (0..26u32)
        .map(|tick| {
            let new: Vec<Segment> = (0..8)
                .map(|i| {
                    t += 0.25;
                    straddling(1_000 + 8 * tick + i, t)
                })
                .collect();
            frontier = new.iter().map(|s| s.t_end).fold(frontier, f64::max);
            (new, if tick == 12 { f64::INFINITY } else { frontier - 9.0 })
        })
        .collect()
}

/// The long stream through every method: after every tick each kernel
/// shape answers like a cold rebuild and the store's front-offset slack
/// stays bounded. Streamed once more through a `GPUSpatioTemporal` search
/// over a store it owns alone, the front offset compacts several times and
/// the runs validate against the store every tick, with the device charged
/// for exactly the live rows and ids.
#[test]
fn a_long_stream_compacts_and_matches_cold_rebuilds() {
    use tdts::index_spatiotemporal::GpuSpatioTemporalSearch;
    let base: SegmentStore = (0..48u32).map(|i| straddling(i, i as f64 * 0.25)).collect();
    for method in all_methods(6, 5) {
        let mut engine =
            SearchEngine::build(&PreparedDataset::new(base.clone()), method, device()).unwrap();
        for (tick, (new, cut)) in long_stream().into_iter().enumerate() {
            engine.ingest(&new).unwrap();
            engine.expire_before(cut).unwrap();
            let store = engine.store();
            assert!(store.slack() <= store.len() / 4 + 8, "tick {tick}: slack {}", store.slack());
            if store.is_empty() {
                let queries: SegmentStore = new.iter().copied().collect();
                assert!(engine.search(&queries, 2.5, 500_000).unwrap().0.is_empty());
                continue;
            }
            let queries: SegmentStore = store.iter().step_by(3).copied().collect();
            assert_matches_cold(&engine, &queries, &[0.4, 2.5]);
        }
    }

    let config = SpatioTemporalIndexConfig { bins: 6, subbins: 3, sort_by_selector: true };
    let mut store = base;
    let mut search = GpuSpatioTemporalSearch::new(device(), &store, config).unwrap();
    let mut compactions = 0;
    for (tick, (new, cut)) in long_stream().into_iter().enumerate() {
        let delta = store.append(&new);
        search.ingest(&store, &delta).unwrap();
        let slack = store.slack();
        let delta = store.expire_before(cut);
        compactions += usize::from(store.slack() < slack);
        search.expire(&store, &delta).unwrap();
        let index = search.index();
        if !store.is_empty() {
            index.validate(&store).unwrap_or_else(|e| panic!("tick {tick}: {e}"));
        }
        assert_eq!(search.entries().len(), store.len(), "tick {tick}");
        // The device is charged for the live rows and ids alone.
        let ids: usize = index.runs().iter().map(|run| run.ids().len()).sum();
        let resident = search.entries().size_bytes() + 4 * ids;
        assert_eq!(search.device().mem_used(), resident, "tick {tick}");
    }
    assert!(compactions >= 2, "{compactions} compactions");
}

/// Time-ordered random base stores for the property test (`t_start`
/// strictly increasing with position, positions in a small box).
fn arb_ordered_store(max_segs: usize) -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
    proptest::collection::vec((-8.0f64..8.0, -8.0f64..8.0, -8.0f64..8.0), 4..=max_segs)
}

fn build_ordered(points: &[(f64, f64, f64)], id0: u32, t0: f64) -> Vec<Segment> {
    points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let t = t0 + i as f64 * 0.5;
            Segment::new(
                Point3::new(p.0, p.1, p.2),
                Point3::new(p.0 + 1.0, p.1 + 0.5, p.2 - 0.5),
                t,
                t + 1.0,
                SegId(id0 + i as u32),
                TrajId((id0 + i as u32) % 5),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For random interleavings of append / expire / search, every method ×
    /// kernel shape stays byte-identical to rebuild-then-search.
    #[test]
    fn append_then_search_equals_rebuild_then_search(
        base in arb_ordered_store(20),
        tick1 in arb_ordered_store(8),
        tick2 in arb_ordered_store(8),
        qpts in arb_ordered_store(6),
        d in 1.0f64..25.0,
        bins in 2usize..10,
        cells in 2usize..8,
        cut_frac in 0.1f64..0.9,
    ) {
        let base_len = base.len();
        let store: SegmentStore = build_ordered(&base, 0, 0.0).into_iter().collect();
        let t_end = base_len as f64 * 0.5 + 1.0;
        let queries: SegmentStore =
            build_ordered(&qpts, 1_000, t_end * cut_frac).into_iter().collect();
        for method in all_methods(bins, cells) {
            let dataset = PreparedDataset::new(store.clone());
            let mut engine = SearchEngine::build(&dataset, method, device()).unwrap();
            engine.ingest(&build_ordered(&tick1, 2_000, t_end + 1.0)).unwrap();
            engine.expire_before(t_end * cut_frac).unwrap();
            engine.ingest(&build_ordered(&tick2, 3_000, t_end + 10.0)).unwrap();

            let cold_set = PreparedDataset::new(engine.store().clone());
            let cold = SearchEngine::build(&cold_set, method, device()).unwrap();
            for shape in SHAPES {
                let (got, _) = engine.search_shaped(&queries, d, 500_000, Some(shape)).unwrap();
                let (want, _) = cold.search_shaped(&queries, d, 500_000, Some(shape)).unwrap();
                prop_assert_eq!(
                    &got,
                    &want,
                    "{} ({:?}) diverged after append/expire/append (d = {}, bins = {}, cells = {})",
                    method.name(),
                    shape,
                    d,
                    bins,
                    cells
                );
            }
        }
    }
}

/// `tdts-cli stream --verify` streams ticks of one time step each, so the
/// probe finds matches on every tick; a run whose ticks all compared empty
/// result sets verified nothing and exits non-zero.
#[test]
fn cli_stream_verify_compares_nonempty_ticks() {
    let stream = |d: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_tdts-cli"))
            .args(["stream", "--dataset", "merger", "--scale", "0.002", "--method", "temporal"])
            .args(["--ticks", "4", "--advance-every", "2", "--verify", "--d", d])
            .output()
            .unwrap()
    };
    let out = stream("1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("4 with matches"), "{stdout}");

    let out = stream("0.000001");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("compared empty result sets"), "{stderr}");
}
