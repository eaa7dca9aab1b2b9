//! Integration: all four methods must return result sets byte-identical to
//! the brute-force oracle, on every dataset generator and on hand-built
//! degenerate geometry.

use std::sync::Arc;
use tdts::prelude::*;

mod common;

fn device() -> Arc<Device> {
    Device::new(DeviceConfig::tesla_c2075()).unwrap()
}

fn methods(bins: usize, subbins: usize, cells: usize) -> Vec<Method> {
    vec![
        Method::CpuRTree(RTreeConfig::default()),
        Method::CpuRTree(RTreeConfig { segments_per_mbb: 1, node_capacity: 4 }),
        Method::GpuSpatial(GpuSpatialConfig {
            fsg: FsgConfig { cells_per_dim: cells },
            total_scratch: 500_000,
        }),
        Method::GpuTemporal(TemporalIndexConfig { bins }),
        Method::GpuSpatioTemporal(SpatioTemporalIndexConfig {
            bins,
            subbins,
            sort_by_selector: true,
        }),
        Method::GpuSpatioTemporal(SpatioTemporalIndexConfig {
            bins,
            subbins: 1,
            sort_by_selector: true,
        }),
    ]
}

fn check_all(store: SegmentStore, queries: SegmentStore, distances: &[f64], label: &str) {
    let dataset = PreparedDataset::new(store);
    let engines: Vec<SearchEngine> = methods(50, 4, 10)
        .into_iter()
        .map(|m| SearchEngine::build(&dataset, m, device()).expect("build"))
        .collect();
    for &d in distances {
        let expect = brute_force_search(dataset.store(), &queries, d);
        for engine in &engines {
            let (got, report) = engine.search(&queries, d, 2_000_000).expect("search");
            let who = format!("{label}: {} at d = {d}", engine.method().name());
            common::assert_byte_identical(&got, &expect, &who);
            assert_eq!(report.matches as usize, got.len());
        }
    }
}

#[test]
fn random_walk_dataset() {
    let store =
        RandomWalkConfig { trajectories: 40, timesteps: 30, ..Default::default() }.generate();
    let queries =
        RandomWalkConfig { trajectories: 10, timesteps: 30, seed: 999, ..Default::default() }
            .generate();
    check_all(store, queries, &[1.0, 20.0, 100.0], "random");
}

#[test]
fn merger_dataset() {
    let store = MergerConfig { particles: 60, timesteps: 25, ..Default::default() }.generate();
    let queries =
        MergerConfig { particles: 12, timesteps: 25, seed: 77, ..Default::default() }.generate();
    check_all(store, queries, &[0.5, 3.0, 15.0], "merger");
}

#[test]
fn random_dense_dataset() {
    let store = RandomDenseConfig { particles: 64, timesteps: 20, ..Default::default() }.generate();
    let queries =
        RandomDenseConfig { particles: 12, timesteps: 20, seed: 55, ..Default::default() }
            .generate();
    check_all(store, queries, &[1.0, 10.0, 40.0], "dense");
}

#[test]
fn queries_from_dataset_itself() {
    // Use case (ii): query the database with its own trajectories.
    let store =
        RandomWalkConfig { trajectories: 30, timesteps: 20, ..Default::default() }.generate();
    let queries: SegmentStore = store.iter().filter(|s| s.traj_id.0 < 5).copied().collect();
    check_all(store, queries, &[5.0, 50.0], "self-query");
}

#[test]
fn degenerate_single_trajectory() {
    let store =
        RandomWalkConfig { trajectories: 1, timesteps: 10, ..Default::default() }.generate();
    let queries = store.clone();
    check_all(store, queries, &[0.1, 10.0], "single-trajectory");
}

#[test]
fn degenerate_geometry() {
    // The store spans t ∈ [0, 50], so `check_all`'s 50 temporal bins are one
    // time unit wide and every integer time is a bin edge.
    let seg = |id: u32, a: [f64; 3], b: [f64; 3], t0: f64, t1: f64| {
        let (a, b) = (Point3::new(a[0], a[1], a[2]), Point3::new(b[0], b[1], b[2]));
        Segment::new(a, b, t0, t1, SegId(id), TrajId(id))
    };
    // Moves along +x from the origin over t ∈ [3, 7], starting on a bin edge.
    let mover = |id| seg(id, [0.0, 0.0, 0.0], [4.0, 0.0, 0.0], 3.0, 7.0);
    let store: SegmentStore = [
        seg(0, [90.0, 90.0, 90.0], [90.0, 90.0, 90.0], 0.0, 50.0), // fixes the extent
        seg(1, [1.0, 0.0, 0.0], [1.0, 0.0, 0.0], 2.0, 4.0),        // stationary, zero length
        seg(2, [2.0, 0.5, 0.0], [2.0, 0.5, 0.0], 4.0, 4.0),        // zero duration
        mover(3),                                                  // identical to query 0
        seg(4, [0.0, 3.0, 0.0], [4.0, 3.0, 0.0], 3.0, 7.0),        // parallel (c2 = 0), 3 away
        seg(5, [0.0, 0.0, 1.0], [4.0, 0.0, 1.0], 3.0, 7.0),        // parallel, 1 away
        seg(6, [4.0, 1.0, 0.0], [0.0, 1.0, 0.0], 3.0, 7.0),        // head-on, closest 1 at t = 5
        seg(7, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], 1.0, 3.0),        // touches query 0 at t = 3 only
        seg(8, [3.0, 0.0, 0.0], [5.0, 0.0, 0.0], 6.0, 8.0),        // straddles the bin edge t = 7
        seg(9, [10.0, 0.0, 0.0], [10.0, 0.0, 0.0], 10.0, 11.0),    // exactly one bin
    ]
    .into_iter()
    .collect();
    let queries: SegmentStore = [
        mover(100),
        seg(101, [1.0, 0.0, 0.0], [1.0, 0.0, 0.0], 2.0, 4.0), // identical to the stationary entry
        seg(102, [2.0, 0.0, 0.0], [2.0, 0.0, 0.0], 4.0, 4.0), // zero duration
        seg(103, [10.0, 0.0, 3.0], [10.0, 0.0, 3.0], 10.0, 10.0), // instant on a bin edge
    ]
    .into_iter()
    .collect();

    // The fixture exercises what it claims: at d = 0 only exact contact
    // counts, and each parallel entry comes in exactly at its separation.
    let prepared = PreparedDataset::new(store.clone());
    let hits = |d: f64, query: u32| -> Vec<u32> {
        let found = brute_force_search(prepared.store(), &queries, d);
        let traj = |m: &MatchRecord| prepared.store().get(m.entry as usize).traj_id.0;
        found.iter().filter(|m| m.query == query).map(traj).collect()
    };
    // Entries by trajectory id, in store (t_start) order.
    assert_eq!(hits(0.0, 0), vec![7, 1, 3, 8], "d = 0: touching, crossing, identical");
    assert_eq!(hits(1.0, 0), vec![7, 1, 3, 5, 6, 8]);
    assert_eq!(hits(3.0, 0), vec![7, 1, 3, 4, 5, 6, 2, 8]);
    assert!(!hits(3.0 - 1e-9, 0).contains(&4), "just inside the separation misses");
    assert_eq!(hits(0.0, 1), vec![1, 3]);
    assert_eq!(hits(3.0, 3), vec![9], "an instant on a bin edge, exactly d away");

    check_all(store, queries, &[0.0, 0.5, 1.0, 3.0], "degenerate");
}

/// A database holding an invalid segment is refused where it enters, with
/// a typed error naming the segment's position in the canonical store: it
/// used to panic CPU-RTree's build ("NaN center") and be silently dropped
/// from every GPU method's answers.
#[test]
fn hostile_database_is_refused_at_build() {
    type Poison = fn(&mut Segment);
    let kinds: [(&str, Poison); 4] = [
        ("t_end = NaN", |s| s.t_end = f64::NAN),
        ("t_start = NaN", |s| s.t_start = f64::NAN),
        ("NaN coordinate", |s| s.start.y = f64::NAN),
        ("inverted interval", |s| s.t_end = s.t_start - 1.0),
    ];
    let mut valid = RandomWalkConfig { trajectories: 4, timesteps: 10, ..Default::default() }
        .generate()
        .segments()
        .to_vec();
    valid.sort_by(|a, b| a.t_start.total_cmp(&b.t_start));
    let sharding = ShardedIndexConfig::builder().shards(2).build().unwrap();
    for (kind, poison) in kinds {
        let mut segments = valid.clone();
        poison(&mut segments[17]);
        let dataset = PreparedDataset::new(segments.into_iter().collect());
        let bad = dataset.store().iter().position(|s| !s.is_valid()).expect("one hostile segment");
        for method in common::methods(8, 500_000) {
            let unsharded = SearchEngine::build(&dataset, method, device()).err();
            let sharded = SearchEngine::build_sharded(
                &dataset,
                method,
                &DeviceConfig::tesla_c2075(),
                &sharding,
            )
            .err();
            for (layout, error) in [("unsharded", unsharded), ("2 shards", sharded)] {
                let who = format!("{kind}, {}, {layout}", method.name());
                match error {
                    Some(TdtsError::InvalidConfig(message)) => assert!(
                        message.contains(&format!("segment {bad} ")),
                        "{who}: error does not name segment {bad}: {message}"
                    ),
                    Some(other) => panic!("{who}: expected InvalidConfig, got {other:?}"),
                    None => panic!("{who}: a hostile database was accepted"),
                }
            }
        }
    }
}
