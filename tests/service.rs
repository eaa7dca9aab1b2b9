//! End-to-end tests of the concurrent batched query service: coalesced
//! results must be byte-identical to sequential engine calls, failure paths
//! must be typed errors rather than hangs, and degradation must re-run
//! batches on the same resident index under the fallback kernel shape.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use tdts::prelude::*;

const D: f64 = 5.0;
// Two workers' result buffers fit test_tiny's 1 MiB beside the index.
const CAPACITY: usize = 10_000;

/// A small galaxy-merger dataset plus client requests drawn from it (each
/// request a handful of consecutive segments, so every request has matches).
fn merger_requests() -> (PreparedDataset, Vec<SegmentStore>) {
    let store = MergerConfig { particles: 24, timesteps: 10, ..Default::default() }.generate();
    let requests: Vec<SegmentStore> =
        store.segments().chunks(4).take(12).map(|chunk| chunk.iter().copied().collect()).collect();
    (PreparedDataset::new(store), requests)
}

fn temporal() -> Method {
    Method::GpuTemporal(TemporalIndexConfig { bins: 8 })
}

#[test]
fn concurrent_clients_match_sequential_engine() {
    let (dataset, requests) = merger_requests();
    let config = ServiceConfig::builder(temporal())
        .device(DeviceConfig::test_tiny())
        .workers(2)
        .max_batch(16)
        .max_delay(Duration::from_millis(1))
        .result_capacity(CAPACITY)
        .build()
        .unwrap();
    let service = QueryService::start(&dataset, config).unwrap();

    // N concurrent clients, one request each.
    let mut concurrent: Vec<Vec<MatchRecord>> = Vec::new();
    thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .map(|request| {
                let service = &service;
                scope.spawn(move || service.submit(request, D).unwrap().matches)
            })
            .collect();
        concurrent = handles.into_iter().map(|h| h.join().unwrap()).collect();
    });
    service.shutdown();

    // The same requests, one sequential engine call each.
    let device = Device::new(DeviceConfig::test_tiny()).unwrap();
    let engine = SearchEngine::build(&dataset, temporal(), device).unwrap();
    for (i, request) in requests.iter().enumerate() {
        let (expected, _) = engine.search(request, D, CAPACITY).unwrap();
        assert!(!expected.is_empty(), "request {i} should match itself");
        assert_eq!(concurrent[i], expected, "request {i}: coalesced != sequential");
    }

    let stats = service.stats();
    assert_eq!(stats.requests_served, requests.len() as u64);
    // Both workers' batches fit the one shared device: none fell back.
    assert_eq!(stats.fallback_batches, 0);
    // Coalescing must actually have happened: fewer batches than requests.
    assert!(stats.batches_executed < requests.len() as u64);
}

#[test]
fn timeout_and_queue_full_are_typed_errors() {
    let (dataset, requests) = merger_requests();
    // Nothing ever flushes on its own, so admitted requests stay in flight.
    let config = ServiceConfig::builder(temporal())
        .device(DeviceConfig::test_tiny())
        .workers(1)
        .max_batch(1_000_000)
        .max_delay(Duration::from_secs(3600))
        .queue_capacity(2)
        .result_capacity(CAPACITY)
        .build()
        .unwrap();
    let service = QueryService::start(&dataset, config).unwrap();

    // An already-expired deadline resolves as Timeout, not a hang.
    let deadline = Some(Instant::now());
    let err = service.submit_nowait(&requests[0], D, deadline).unwrap().wait().unwrap_err();
    assert!(matches!(err, TdtsError::Timeout), "got {err:?}");

    // The timed-out request still occupies its admission slot until a worker
    // visits it, so one more request fills the queue and the next bounces.
    let ticket = service.submit_nowait(&requests[1], D, None).unwrap();
    let err = service.submit_nowait(&requests[2], D, None).unwrap_err();
    assert!(matches!(err, TdtsError::Overloaded), "got {err:?}");

    // Shutdown drains the queue; the admitted ticket resolves with results.
    service.shutdown();
    assert!(!ticket.wait().unwrap().matches.is_empty());
    let stats = service.stats();
    assert_eq!(stats.requests_timed_out, 1);
    assert_eq!(stats.requests_rejected, 1);
}

#[test]
fn hostile_d_is_refused_before_admission() {
    let (dataset, requests) = merger_requests();
    // One admission slot: a refused request that leaked its slot would
    // bounce the valid request below as Overloaded.
    let config = ServiceConfig::builder(temporal())
        .device(DeviceConfig::test_tiny())
        .workers(1)
        .max_batch(16)
        .max_delay(Duration::from_millis(1))
        .queue_capacity(1)
        .result_capacity(CAPACITY)
        .build()
        .unwrap();
    let service = QueryService::start(&dataset, config).unwrap();

    // 1e155 is finite, but its square is not; twice the domain bound squares
    // to a finite value, but lies outside the numeric domain.
    for d in [f64::NAN, -1.0, f64::INFINITY, 1e155, 2.0 * DOMAIN_BOUND] {
        let err = service.submit_nowait(&requests[0], d, None).unwrap_err();
        assert!(matches!(err, TdtsError::InvalidConfig(_)), "d = {d}: got {err:?}");
    }
    // One hostile segment among valid ones refuses the whole request too.
    let mut poisoned: Vec<Segment> = requests[0].segments().to_vec();
    poisoned[1].start.x = f64::NAN;
    let err = service.submit_nowait(&poisoned.into_iter().collect(), D, None).unwrap_err();
    assert!(matches!(err, TdtsError::InvalidConfig(_)), "NaN start.x: got {err:?}");
    let stats = service.stats();
    assert_eq!(stats.requests_rejected, 0);
    assert_eq!(stats.requests_admitted, 0);
    assert_eq!(stats.max_queue_depth, 0);

    assert!(!service.submit(&requests[0], D).unwrap().matches.is_empty());
    service.shutdown();
    assert_eq!(service.stats().requests_served, 1);
}

/// The same refusal end to end: the CLI must exit non-zero with the typed
/// error's message instead of printing a match count.
#[test]
fn cli_search_refuses_hostile_d() {
    for d in ["nan", "-1", "inf"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_tdts-cli"))
            .args(["search", "--dataset", "merger", "--scale", "0.002", "--method", "temporal"])
            .args(["--d", d])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "--d {d} exited 0");
        assert!(stderr.contains("invalid configuration"), "--d {d}: {stderr}");
    }
}

/// Hostile duration and scale flags are usage errors (exit 2), not panics
/// in `Duration` conversion or a dataset generator that never finishes.
#[test]
fn cli_refuses_hostile_durations_and_scale() {
    let mut cases = Vec::new();
    for v in ["nan", "-1", "inf"] {
        cases.extend([("--max-delay-ms", v), ("--deadline-ms", v), ("--scale", v)]);
    }
    // Finite, but past any `Instant` the service could add it to.
    cases.extend([("--max-delay-ms", "1e22"), ("--deadline-ms", "1e22")]);
    for (flag, v) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_tdts-cli"))
            .args(["serve", "--dataset", "merger", "--scale", "0.002", "--queries", "2"])
            .args([flag, v])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {v}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {v}: {stderr}");
    }
}

/// `advance_window` refuses an invalid new segment before the store or the
/// index is touched, and keeps serving and advancing afterwards.
#[test]
fn advance_window_refuses_hostile_segments_without_mutating() {
    let (dataset, requests) = merger_requests();
    let frontier = dataset.store().stats().unwrap().time_span.end;
    let config = ServiceConfig::builder(temporal())
        .device(DeviceConfig::test_tiny())
        .workers(1)
        .max_delay(Duration::from_millis(1))
        .result_capacity(CAPACITY)
        .window(1_000.0)
        .build()
        .unwrap();
    let service = QueryService::start(&dataset, config).unwrap();
    let (len, generation) = (service.store_snapshot().len(), service.generation());

    let good = Segment::new(
        Point3::ZERO,
        Point3::splat(1.0),
        frontier,
        frontier + 1.0,
        SegId(9_000),
        TrajId(9_000),
    );
    let hostile = [
        Segment { end: Point3::new(f64::INFINITY, 0.0, 0.0), ..good },
        Segment { t_end: f64::NAN, ..good },
        Segment { t_end: frontier - 1.0, ..good },
    ];
    for bad in hostile {
        let err = service.advance_window(&[good, bad]).unwrap_err();
        assert!(matches!(err, TdtsError::InvalidConfig(_)), "{bad:?}: got {err:?}");
        assert_eq!(service.store_snapshot().len(), len, "{bad:?}");
        assert_eq!(service.generation(), generation, "{bad:?}");
    }
    assert_eq!(service.advance_window(&[good]).unwrap().ingested, 1);
    assert!(!service.submit(&requests[0], D).unwrap().matches.is_empty());
}

/// A window advance cuts the canonical store in place: with no snapshot
/// held it is the same allocation before and after an expiring advance,
/// and a snapshot pinned across one keeps its own generation and length.
#[test]
fn advance_window_cuts_an_unpinned_store_in_place() {
    let (dataset, requests) = merger_requests();
    let span = dataset.store().stats().unwrap().time_span;
    let config = ServiceConfig::builder(temporal())
        .device(DeviceConfig::test_tiny())
        .workers(1)
        .max_delay(Duration::from_millis(1))
        .result_capacity(CAPACITY)
        .window((span.end - span.start) * 0.6)
        .build()
        .unwrap();
    let service = QueryService::start(&dataset, config).unwrap();
    // The service now holds the only handle on the store.
    drop(dataset);
    let mut frontier = span.end;
    let mut tick = |id: u32| {
        let t0 = frontier;
        frontier += 1.0;
        let seg =
            Segment::new(Point3::ZERO, Point3::splat(1.0), t0, frontier, SegId(id), TrajId(id));
        service.advance_window(&[seg]).unwrap()
    };

    let before = Arc::as_ptr(&service.store_snapshot());
    let advance = tick(9_000);
    assert!(advance.expired > 0, "the advance must cut the store");
    assert_eq!(Arc::as_ptr(&service.store_snapshot()), before, "an unpinned store is not copied");

    let pinned = service.store_snapshot();
    let (generation, len) = (pinned.generation(), pinned.len());
    let advance = tick(9_001);
    assert!(advance.expired > 0, "the advance must cut the store");
    assert_eq!((pinned.generation(), pinned.len()), (generation, len), "the pin keeps its epoch");
    assert!(service.generation() > generation);
    assert_ne!(Arc::as_ptr(&service.store_snapshot()), Arc::as_ptr(&pinned));
    assert_eq!(service.store_snapshot().len(), len + 1 - advance.expired);
    assert!(service.submit(&requests[11], D).is_ok());
}

/// A real GPU index that refuses a window advance stops the service: the
/// device holds the index and one result buffer but not the appended rows,
/// so that advance, a later advance and a later request all get the same
/// `OutOfDeviceMemory`, and the refusal is not mistaken for a kernel
/// failure to degrade from.
#[test]
fn refused_gpu_advance_stops_the_service() {
    let (dataset, requests) = merger_requests();
    let frontier = dataset.store().stats().unwrap().time_span.end;
    // What the index keeps resident, read off a roomy device.
    let roomy = Device::new(DeviceConfig::test_tiny()).unwrap();
    let built = SearchEngine::build(&dataset, temporal(), Arc::clone(&roomy)).unwrap();
    let resident = roomy.mem_used();
    drop(built);
    let tight = DeviceConfig {
        global_mem_bytes: resident + CAPACITY * std::mem::size_of::<MatchRecord>() + 4 * 1024,
        ..DeviceConfig::test_tiny()
    };
    // One failed search would degrade: the stopped engine must answer
    // without one.
    let config = ServiceConfig::builder(temporal())
        .device(tight)
        .workers(1)
        .max_delay(Duration::from_millis(1))
        .max_consecutive_failures(1)
        .result_capacity(CAPACITY)
        .window(1_000.0)
        .build()
        .unwrap();
    let service = QueryService::start(&dataset, config).unwrap();
    assert!(!service.submit(&requests[0], D).unwrap().matches.is_empty());

    let tail = |from: f64, n: u32| -> Vec<Segment> {
        (0..n)
            .map(|i| {
                let t = from + f64::from(i) * 1e-3;
                let id = 10_000 + i;
                Segment::new(Point3::ZERO, Point3::splat(1.0), t, t + 1.0, SegId(id), TrajId(id))
            })
            .collect()
    };
    let err = service.advance_window(&tail(frontier, 20_000)).unwrap_err();
    assert!(matches!(err, TdtsError::Search(SearchError::OutOfDeviceMemory(_))), "{err:?}");
    assert_eq!(service.advance_window(&tail(frontier + 10.0, 1)).unwrap_err(), err);
    assert_eq!(service.submit(&requests[1], D).unwrap_err(), err);

    service.shutdown();
    let stats = service.stats();
    assert_eq!((stats.requests_served, stats.requests_failed), (1, 1));
    assert_eq!(stats.fallback_batches, 0);
    assert!(!stats.degraded, "a stopped engine is not a degraded one");
}

#[test]
fn degradation_reroutes_batches_to_fallback() {
    let (dataset, requests) = merger_requests();
    // One tile per candidate entry: the warp-per-tile launch uploads a tile
    // list far larger than the query batch itself.
    let warp_per_tile = DeviceConfig {
        kernel_shape: KernelShape::WarpPerTile,
        tile_size: 1,
        ..DeviceConfig::test_tiny()
    };
    // What the index keeps resident, read off a roomy device.
    let roomy = Device::new(warp_per_tile.clone()).unwrap();
    let built = SearchEngine::build(&dataset, temporal(), Arc::clone(&roomy)).unwrap();
    let resident = roomy.mem_used();
    drop(built);
    // Room for the worker's result buffer plus 1 KiB: enough for a request's
    // queries and per-query schedule, not for its tile list.
    let tight = DeviceConfig {
        global_mem_bytes: resident + CAPACITY * std::mem::size_of::<MatchRecord>() + 1024,
        ..warp_per_tile
    };
    let direct = Device::new(tight.clone()).unwrap();
    let direct = SearchEngine::build(&dataset, temporal(), direct).unwrap();
    let err = direct.search(&requests[0], D, CAPACITY).unwrap_err();
    assert!(
        matches!(err, TdtsError::Search(SearchError::OutOfDeviceMemory(_))),
        "the configured shape should not fit: got {err:?}"
    );

    let config = ServiceConfig::builder(temporal())
        .device(tight)
        .workers(1)
        .max_batch(16)
        .max_delay(Duration::from_millis(1))
        .max_consecutive_failures(1)
        .result_capacity(CAPACITY)
        .build()
        .unwrap();
    let service = QueryService::start(&dataset, config).unwrap();

    let response = service.submit(&requests[0], D).unwrap();
    let second = service.submit(&requests[1], D).unwrap();
    service.shutdown();

    // Results still come back correct, from the same index under the
    // fallback shape: byte-identical to an engine configured with it.
    let device = Device::new(DeviceConfig::test_tiny()).unwrap();
    let engine = SearchEngine::build(&dataset, temporal(), device).unwrap();
    for (got, request) in [(&response, &requests[0]), (&second, &requests[1])] {
        let (expected, _) = engine.search(request, D, CAPACITY).unwrap();
        assert!(!expected.is_empty());
        assert_eq!(got.matches, expected);
    }

    let stats = service.stats();
    assert!(stats.degraded, "service should be degraded after repeated failures");
    assert!(stats.fallback_batches >= 1);
    assert_eq!(stats.requests_failed, 0);
    assert_eq!(stats.requests_served, 2);
}

#[test]
fn coalescing_flushes_one_batch_at_max_batch_queries() {
    let (dataset, requests) = merger_requests();
    let n = 8;
    let total_queries: usize = requests.iter().take(n).map(|r| r.len()).sum();
    // The flush trigger counts queries: with max_batch equal to the total
    // query count and an effectively infinite delay, exactly one batch runs.
    let config = ServiceConfig::builder(temporal())
        .device(DeviceConfig::test_tiny())
        .workers(1)
        .max_batch(total_queries)
        .max_delay(Duration::from_secs(3600))
        .result_capacity(CAPACITY)
        .build()
        .unwrap();
    let service = QueryService::start(&dataset, config).unwrap();

    let tickets: Vec<SearchTicket> = requests
        .iter()
        .take(n)
        .map(|request| service.submit_nowait(request, D, None).unwrap())
        .collect();
    for ticket in tickets {
        let response = ticket.wait().unwrap();
        assert_eq!(response.batch_requests, n);
        assert_eq!(response.batch_queries, total_queries);
    }
    service.shutdown();
    let stats = service.stats();
    assert_eq!(stats.batches_executed, 1);
    assert!((stats.mean_batch_queries - total_queries as f64).abs() < 1e-9);
}
