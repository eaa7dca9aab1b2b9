//! Tier-1 streaming contract: after ANY interleaved append/expire sequence,
//! every method's search results are byte-identical to a cold rebuild of
//! the same method over the store at the same generation — for both kernel
//! shapes.

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

/// Assert the warm (incrementally maintained) engine answers exactly like
/// one cold rebuild of the same method over the same store state, under both
/// kernel shapes at every distance.
fn assert_matches_cold(warm: &SearchEngine, queries: &SegmentStore, distances: &[f64]) {
    let cold_set = PreparedDataset::new(warm.store().clone());
    let cold = SearchEngine::build(&cold_set, warm.method(), device()).unwrap();
    for shape in SHAPES {
        for &d in distances {
            let (got, _) = warm.search_shaped(queries, d, 500_000, Some(shape)).unwrap();
            let (want, _) = cold.search_shaped(queries, d, 500_000, Some(shape)).unwrap();
            assert_eq!(
                got,
                want,
                "{} ({shape:?}) diverged from cold rebuild at generation {} (d = {d})",
                warm.method().name(),
                warm.generation()
            );
        }
    }
}

#[test]
fn interleaved_append_expire_matches_cold_rebuild() {
    let queries: SegmentStore = (0..12u32).map(|i| seg(100 + i, 3.0 + i as f64 * 0.9)).collect();
    for method in all_methods(6, 5) {
        let dataset = PreparedDataset::new(base_store(48));
        let mut engine = SearchEngine::build(&dataset, method, device()).unwrap();
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
/// is refused on a device sized for the base store; an expiry, wherever it
/// re-places device arrays, on a device with no memory left.
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
        if matches!(method, Method::GpuTemporal(_)) {
            // No device arrays to re-place: the expiry only frees memory.
            result.unwrap();
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
