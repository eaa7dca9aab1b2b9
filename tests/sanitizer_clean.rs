//! Tier-1: the device sanitizer must be *silent* on correct code and free
//! when off.
//!
//! Every search method, under both kernel shapes, on the two scenario
//! geometries that survive down-scaling (Merger, Random-dense), runs the
//! full tier-1 workload under [`SanitizerMode::Full`] with **zero**
//! findings — and returns results and deterministic counters byte-identical
//! to a run with the sanitizer off. `Full` is the only mode with detectors,
//! so a plain `cargo test` runs the whole matrix.

use std::sync::Arc;
use std::time::Instant;
use tdts::prelude::*;

mod common;

fn methods() -> Vec<Method> {
    common::methods(50, 2_000_000)
}

const SCALE: f64 = 1.0 / 256.0;

/// One resident index serves both kernel shapes; each search names its own.
fn device_with(mode: SanitizerMode) -> Arc<Device> {
    Device::new(DeviceConfig { sanitizer: mode, ..DeviceConfig::tesla_c2075() }).unwrap()
}

const SHAPES: [KernelShape; 2] = [KernelShape::ThreadPerQuery, KernelShape::WarpPerTile];

fn run_clean_matrix(kind: ScenarioKind, result_capacity: usize) {
    let scenario = Scenario::new(kind, SCALE);
    let dataset = PreparedDataset::new(scenario.dataset());
    let queries = scenario.queries();

    for method in methods() {
        let dev_san = device_with(SanitizerMode::Full);
        let off = SearchEngine::build(&dataset, method, device_with(SanitizerMode::Off)).unwrap();
        let san = SearchEngine::build(&dataset, method, Arc::clone(&dev_san)).unwrap();
        for shape in SHAPES {
            let search = |engine: &SearchEngine| {
                engine.search_shaped(&queries, 1.5, result_capacity, Some(shape)).unwrap()
            };
            let ((m_off, r_off), (m_san, r_san)) = (search(&off), search(&san));

            let label = format!("{} / {shape:?} / {kind:?}", method.name());
            assert_eq!(m_off, m_san, "{label}: results differ under sanitizer");
            assert_eq!(r_san.sanitizer_findings, 0, "{label}: findings on clean code");
            assert_eq!(
                r_off.deterministic(),
                r_san.deterministic(),
                "{label}: deterministic report differs between the sanitizer-off and -on runs"
            );
            let report = dev_san.sanitizer_report();
            assert!(report.is_clean(), "{label}: sanitizer found defects:\n{report}");
            dev_san.assert_sanitizer_clean();
        }
    }
}

#[test]
fn merger_matrix_is_clean_and_identical() {
    run_clean_matrix(ScenarioKind::S2Merger, 2_000_000);
}

#[test]
fn random_dense_matrix_is_clean_and_identical() {
    run_clean_matrix(ScenarioKind::S3RandomDense, 2_000_000);
}

/// Four threads searching one engine on one sanitized device: the device
/// admits their searches one at a time (the sanitizer tracks one current
/// launch), so each still reports the solo costs — zero findings among them —
/// and the device-wide report stays clean.
#[test]
fn concurrent_searches_on_one_sanitized_device_are_clean() {
    let scenario = Scenario::new(ScenarioKind::S2Merger, SCALE);
    let dataset = PreparedDataset::new(scenario.dataset());
    let queries = scenario.queries();
    for method in methods() {
        let dev = device_with(SanitizerMode::Full);
        let engine = SearchEngine::build(&dataset, method, Arc::clone(&dev)).unwrap();
        for shape in SHAPES {
            let label = format!("{} / {shape:?}", method.name());
            let solo = common::assert_concurrent_searches_match_solo(
                &engine,
                &queries,
                1.5,
                2_000_000,
                Some(shape),
                &label,
            );
            assert_eq!(solo.sanitizer_findings, 0, "{label}: findings on clean code");
            let report = dev.sanitizer_report();
            assert!(report.is_clean(), "{label}: sanitizer found defects:\n{report}");
        }
    }
}

/// The redo protocol under buffer pressure must stay clean: lost records
/// are acknowledged by the redo rounds, not reported as leaks.
#[test]
fn redo_rounds_under_pressure_are_clean() {
    let scenario = Scenario::new(ScenarioKind::S2Merger, SCALE);
    let dataset = PreparedDataset::new(scenario.dataset());
    let queries = scenario.queries();
    let dev = device_with(SanitizerMode::Full);
    let engine = SearchEngine::build(
        &dataset,
        Method::GpuTemporal(TemporalIndexConfig { bins: 50 }),
        Arc::clone(&dev),
    )
    .unwrap();
    for shape in SHAPES {
        // A capacity small enough to force overflow redo rounds but large
        // enough for one query alone.
        let (matches, report) = engine.search_shaped(&queries, 2.0, 600, Some(shape)).unwrap();
        assert!(report.redo_rounds > 0, "{shape:?}: expected buffer pressure");
        assert!(!matches.is_empty());
        assert_eq!(report.sanitizer_findings, 0, "{shape:?}: redo flagged");
        dev.assert_sanitizer_clean();
    }
}

/// Full-mode overhead stays within the 3× budget the sanitizer promises
/// (EXPERIMENTS.md records measured ratios; this is the guard rail).
#[test]
fn full_mode_overhead_within_budget() {
    let scenario = Scenario::new(ScenarioKind::S2Merger, 1.0 / 64.0);
    let dataset = PreparedDataset::new(scenario.dataset());
    let queries = scenario.queries();

    let time_mode = |mode: SanitizerMode| -> f64 {
        let dev = device_with(mode);
        let engine = SearchEngine::build(
            &dataset,
            Method::GpuTemporal(TemporalIndexConfig { bins: 50 }),
            dev,
        )
        .unwrap();
        // Warm-up, then the timed pass over several searches to smooth
        // scheduler noise.
        engine.search(&queries, 1.5, 2_000_000).unwrap();
        let start = Instant::now();
        for _ in 0..3 {
            engine.search(&queries, 1.5, 2_000_000).unwrap();
        }
        start.elapsed().as_secs_f64()
    };

    let off = time_mode(SanitizerMode::Off);
    let full = time_mode(SanitizerMode::Full);
    // Guard against division noise on very fast runs: only enforce the
    // ratio once the baseline is measurable.
    let ratio = full / off.max(1e-3);
    assert!(
        ratio <= 3.0,
        "sanitizer overhead {ratio:.2}x exceeds 3x (off {off:.4}s, full {full:.4}s)"
    );
}
