//! Tier-1: warp-aggregated result writes are transparent — every GPU method
//! returns the brute-force oracle's result set — and cost one global atomic
//! per warp flush round, at least 8x fewer than the one per record of the
//! paper's per-lane append, on a fixed Random dataset.

use tdts::prelude::*;

fn gpu_methods() -> Vec<Method> {
    vec![
        Method::GpuSpatial(GpuSpatialConfig {
            fsg: FsgConfig { cells_per_dim: 10 },
            total_scratch: 500_000,
        }),
        Method::GpuTemporal(TemporalIndexConfig { bins: 50 }),
        Method::GpuSpatioTemporal(SpatioTemporalIndexConfig {
            bins: 50,
            subbins: 4,
            sort_by_selector: true,
        }),
    ]
}

#[test]
fn warp_aggregation_matches_oracle_and_bounds_atomics() {
    let store =
        RandomWalkConfig { trajectories: 40, timesteps: 30, ..Default::default() }.generate();
    // Use case (ii): query the database with its own first trajectories —
    // dense enough that every warp commits matches.
    let queries: SegmentStore = store.iter().filter(|s| s.traj_id.0 < 10).copied().collect();
    let dataset = PreparedDataset::new(store);
    let d = 25.0;
    let expect = brute_force_search(dataset.store(), &queries, d);
    assert!(!expect.is_empty(), "the fixture must produce matches");

    for method in gpu_methods() {
        let config = DeviceConfig::tesla_c2075();
        let stash_capacity = config.warp_stash_capacity as u64;
        let engine =
            SearchEngine::build(&dataset, method, Device::new(config).unwrap()).expect("build");
        let (got, report) = engine.search(&queries, d, 2_000_000).expect("search");
        let name = method.name();
        assert!(
            tdts::geom::diff_matches(&got, &expect, 1e-9).is_none(),
            "{name} differs from the oracle"
        );
        assert_eq!(report.redo_rounds, 0, "{name}: the bound below assumes one launch");

        // A warp flushes ceil(deepest lane / stash capacity) times, so over
        // the launch: at most one round per warp plus one per full stash.
        let atomics = report.totals.atomics;
        let flush_rounds = report.load.warps + report.raw_matches / stash_capacity;
        assert!(atomics <= flush_rounds, "{name}: {atomics} atomics > {flush_rounds} rounds");
        // Per-lane appends pay one atomic per record.
        assert!(
            atomics * 8 <= report.raw_matches,
            "{name}: {atomics} atomics for {} records is under 8x fewer than one per record",
            report.raw_matches
        );
    }
}
