//! Helpers shared by the tier-1 integration tests. Each test binary
//! compiles this module separately and uses a subset of it.
#![allow(dead_code)]

use proptest::prelude::*;
use tdts::prelude::*;

/// The four methods over a small fixture: a 10-cell FSG and 4 subbins
/// throughout; each suite passes the bin count and the GPUSpatial scratch
/// size it was written against.
pub fn methods(bins: usize, total_scratch: usize) -> Vec<Method> {
    vec![
        Method::CpuRTree(RTreeConfig::default()),
        Method::GpuSpatial(GpuSpatialConfig {
            fsg: FsgConfig { cells_per_dim: 10 },
            total_scratch,
        }),
        Method::GpuTemporal(TemporalIndexConfig { bins }),
        Method::GpuSpatioTemporal(SpatioTemporalIndexConfig {
            bins,
            subbins: 4,
            sort_by_selector: true,
        }),
    ]
}

/// Exact equality — every field of every record, bit for bit.
pub fn assert_byte_identical(got: &[MatchRecord], expect: &[MatchRecord], label: &str) {
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

/// Search `engine` alone under `shape` (`None`: its device's own), then from
/// four threads released together (all inside `search` at once, not one
/// after another), and require every
/// concurrent search to return the solo search's matches, byte for byte, and
/// its [`SearchReport::deterministic`] costs. Returns the solo report.
pub fn assert_concurrent_searches_match_solo(
    engine: &SearchEngine,
    queries: &SegmentStore,
    d: f64,
    result_capacity: usize,
    shape: Option<KernelShape>,
    label: &str,
) -> SearchReport {
    const THREADS: usize = 4;
    let search = || engine.search_shaped(queries, d, result_capacity, shape).unwrap();
    let (solo_matches, solo) = search();
    let start = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                start.wait();
                let (matches, report) = search();
                assert_byte_identical(&matches, &solo_matches, label);
                assert_eq!(
                    report.deterministic(),
                    solo.deterministic(),
                    "{label}: a concurrent search's costs differ from the solo run"
                );
            });
        }
    });
    solo
}

/// Up to `max_trajs` random trajectories of up to `max_segs_per` unit-time
/// segments each, in a 60-unit cube, starting within the first 8 time units.
pub fn arb_store(max_trajs: usize, max_segs_per: usize) -> impl Strategy<Value = SegmentStore> {
    proptest::collection::vec(
        (
            proptest::collection::vec(
                (-30.0f64..30.0, -30.0f64..30.0, -30.0f64..30.0),
                2..=max_segs_per + 1,
            ),
            0.0f64..8.0,
        ),
        1..=max_trajs,
    )
    .prop_map(|trajs| {
        let mut store = SegmentStore::new();
        let mut seg = 0u32;
        for (ti, (points, t0)) in trajs.into_iter().enumerate() {
            for (i, w) in points.windows(2).enumerate() {
                store.push(Segment::new(
                    Point3::new(w[0].0, w[0].1, w[0].2),
                    Point3::new(w[1].0, w[1].1, w[1].2),
                    t0 + i as f64,
                    t0 + i as f64 + 1.0,
                    SegId(seg),
                    TrajId(ti as u32),
                ));
                seg += 1;
            }
        }
        store
    })
}
