//! Integration: buffer-pressure behaviours the paper's evaluation depends
//! on — result-buffer overflow driving kernel re-invocation (incremental
//! processing of `Q`) and candidate-buffer overflow driving the `GPUSpatial`
//! redo protocol — must not change the result set.

use std::sync::Arc;
use tdts::prelude::*;

fn device() -> Arc<Device> {
    Device::new(DeviceConfig::tesla_c2075()).unwrap()
}

fn dense_world() -> (PreparedDataset, SegmentStore) {
    // Small steps relative to the ~7.5-unit cube these particle counts
    // imply, so segment MBBs stay small and the FSG stays meaningful.
    let store =
        RandomDenseConfig { particles: 48, timesteps: 12, step_sigma: 0.3, ..Default::default() }
            .generate();
    let queries = RandomDenseConfig {
        particles: 12,
        timesteps: 12,
        step_sigma: 0.3,
        seed: 4242,
        ..Default::default()
    }
    .generate();
    (PreparedDataset::new(store), queries)
}

#[test]
fn result_overflow_is_transparent_for_all_gpu_methods() {
    let (dataset, queries) = dense_world();
    let d = 30.0; // large d: many matches
    let methods = [
        Method::GpuSpatial(GpuSpatialConfig {
            fsg: FsgConfig { cells_per_dim: 6 },
            total_scratch: 2_000_000,
        }),
        Method::GpuTemporal(TemporalIndexConfig { bins: 16 }),
        Method::GpuSpatioTemporal(SpatioTemporalIndexConfig {
            bins: 16,
            subbins: 4,
            sort_by_selector: true,
        }),
    ];
    for method in methods {
        let engine = SearchEngine::build(&dataset, method, device()).unwrap();
        let (unconstrained, r0) = engine.search(&queries, d, 4_000_000).unwrap();
        assert!(
            unconstrained.len() > 50,
            "{}: want real buffer pressure, got {} matches",
            method.name(),
            unconstrained.len()
        );
        assert_eq!(r0.redo_rounds, 0, "{}", method.name());

        // Squeeze the result buffer to a fraction of the result set.
        let (constrained, r1) = engine.search(&queries, d, unconstrained.len() / 5).unwrap();
        assert_eq!(constrained, unconstrained, "{}", method.name());
        assert!(r1.redo_rounds > 0, "{}: expected re-invocations", method.name());
        assert!(
            r1.response.kernel_invocations > r0.response.kernel_invocations,
            "{}",
            method.name()
        );
        // More invocations cost more simulated device time (the §V-E effect
        // that a larger buffer reduces response time). Host-compute time is
        // excluded: it is measured wall time and therefore noisy.
        let device_time =
            |r: &SearchReport| r.response.total() - r.response.get(Phase::HostCompute);
        assert!(
            device_time(&r1) > device_time(&r0),
            "{}: constrained {} vs unconstrained {}",
            method.name(),
            device_time(&r1),
            device_time(&r0)
        );
    }
}

#[test]
fn spatial_scratch_overflow_is_transparent() {
    let (dataset, queries) = dense_world();
    let d = 10.0;
    let roomy = SearchEngine::build(
        &dataset,
        Method::GpuSpatial(GpuSpatialConfig {
            fsg: FsgConfig { cells_per_dim: 8 },
            total_scratch: 2_000_000,
        }),
        device(),
    )
    .unwrap();
    let (expect, r0) = roomy.search(&queries, d, 2_000_000).unwrap();
    assert_eq!(r0.redo_rounds, 0);

    let tight = SearchEngine::build(
        &dataset,
        Method::GpuSpatial(GpuSpatialConfig {
            fsg: FsgConfig { cells_per_dim: 8 },
            // Enough for a few queries at a time only.
            total_scratch: dataset.store().len() * 2,
        }),
        device(),
    )
    .unwrap();
    let (got, r1) = tight.search(&queries, d, 2_000_000).unwrap();
    assert_eq!(got, expect);
    assert!(r1.redo_rounds > 0, "expected candidate-buffer re-invocations");
}

#[test]
fn device_memory_exhaustion_is_reported() {
    // A device too small for the database.
    let mut cfg = DeviceConfig::tesla_c2075();
    cfg.global_mem_bytes = 1024;
    let small_device = Device::new(cfg).unwrap();
    let (dataset, _) = dense_world();
    let err = SearchEngine::build(
        &dataset,
        Method::GpuTemporal(TemporalIndexConfig { bins: 4 }),
        small_device,
    )
    .err()
    .expect("must fail");
    assert!(matches!(err, TdtsError::Search(SearchError::OutOfDeviceMemory(_))));
}

#[test]
fn impossible_buffers_error_instead_of_looping() {
    let (dataset, queries) = dense_world();
    let engine = SearchEngine::build(
        &dataset,
        Method::GpuTemporal(TemporalIndexConfig { bins: 16 }),
        device(),
    )
    .unwrap();
    let err = engine.search(&queries, 30.0, 0).unwrap_err();
    assert!(matches!(err, TdtsError::Search(SearchError::ResultCapacityTooSmall { .. })));
}
