//! Model-check harnesses for the query service's hot protocols.
//!
//! Each test spins up a *real* `QueryService` — real batcher, worker
//! pool, admission control, and shutdown protocol — inside
//! `tdts_sync::model::check`, with a cheap mock index wrapped in a
//! `SearchEngine` and injected through the `start_with_engine` seam so
//! every one of the checker's executions
//! starts in microseconds. The scheduler then explores thread
//! interleavings exhaustively at the configured preemption bound;
//! invariants are plain `assert!`s (a failure under any schedule becomes
//! a `thread-panic` finding carrying a replay token), and liveness is
//! implicit (a stuck protocol is classified as `deadlock`,
//! `lost-wakeup`, or `pending-waiter-leak`).
//!
//! Requires `--features model-check` (wired via `[[test]]
//! required-features`; run by the CI model-check step).

use std::sync::Arc;

use tdts_core::{
    Method, PreparedDataset, QueryBatch, SearchEngine, SearchOutcome, TdtsError, TrajectoryIndex,
};
use tdts_geom::{
    AppendDelta, ExpireDelta, MatchRecord, Point3, SegId, Segment, SegmentStore, TimeInterval,
    TrajId,
};
use tdts_gpu_sim::{DeviceConfig, KernelShape, SearchError, SearchReport};
use tdts_index_temporal::TemporalIndexConfig;
use tdts_service::service::QueryService;
use tdts_service::ServiceConfig;
use tdts_sync::model::{check, ModelConfig};
use tdts_sync::thread;
use tdts_sync::time::{Duration, Instant};

/// A trajectory index that answers instantly: one self-match per query,
/// in canonical order (ascending query id), so the service's demux works
/// exactly as it does over real engines. `fail_unshaped: true` makes every
/// search under the device's own kernel shape error and only
/// `Some(ThreadPerQuery)` succeed, driving the degradation path on the one
/// index; `fail_expire: true` makes a window advance error after its ingest
/// has applied.
#[derive(Default)]
struct MockIndex {
    fail_unshaped: bool,
    fail_expire: bool,
}

impl TrajectoryIndex for MockIndex {
    fn search_shaped(
        &self,
        batch: &QueryBatch<'_>,
        shape: Option<KernelShape>,
    ) -> Result<SearchOutcome, TdtsError> {
        if self.fail_unshaped && shape != Some(KernelShape::ThreadPerQuery) {
            return Err(TdtsError::Search(SearchError::EmptyDataset));
        }
        let matches = (0..batch.queries.len() as u32)
            .map(|q| MatchRecord::new(q, q, TimeInterval::new(0.0, 1.0)))
            .collect();
        Ok(SearchOutcome { matches, report: SearchReport::default() })
    }

    fn name(&self) -> &'static str {
        "mock"
    }

    fn supports_incremental(&self) -> bool {
        true
    }

    fn ingest(
        &mut self,
        _store: &Arc<SegmentStore>,
        _delta: &AppendDelta,
    ) -> Result<(), TdtsError> {
        Ok(())
    }

    fn expire_before(
        &mut self,
        _store: &Arc<SegmentStore>,
        _delta: &ExpireDelta,
    ) -> Result<(), TdtsError> {
        if self.fail_expire {
            return Err(TdtsError::IncrementalUnsupported("mock"));
        }
        Ok(())
    }
}

/// `n` unit segments, one per time step from `t = 0`: a query set, and the
/// mock engine's store.
fn queries(n: usize) -> SegmentStore {
    (0..n)
        .map(|i| {
            let t = i as f64;
            Segment::new(Point3::ZERO, Point3::splat(1.0), t, t + 1.0, SegId(i as u32), TrajId(0))
        })
        .collect()
}

fn method() -> Method {
    Method::GpuTemporal(TemporalIndexConfig { bins: 8 })
}

fn base_config() -> tdts_service::config::ServiceConfigBuilder {
    ServiceConfig::builder(method())
        .device(DeviceConfig::test_tiny())
        .workers(1)
        .max_batch(1)
        .max_delay(Duration::from_millis(1))
        .queue_capacity(4)
}

fn service(config: ServiceConfig) -> QueryService {
    service_with(config, MockIndex::default())
}

fn service_with(config: ServiceConfig, index: MockIndex) -> QueryService {
    let dataset = PreparedDataset::new(queries(2));
    let engine = SearchEngine::with_index(&dataset, method(), Box::new(index));
    QueryService::start_with_engine(config, engine).expect("mock service start")
}

/// The bound for the service harnesses. One preemption already reaches
/// the notify-between-check-and-wait and shutdown-vs-flush races (the
/// tdts-sync defect fixtures confirm detection at this bound); two blows
/// the schedule space up by orders of magnitude on a pipeline this size.
fn cfg() -> ModelConfig {
    ModelConfig::default().preemptions(1)
}

fn assert_exhaustive(report: &tdts_sync::model::ModelReport) {
    report.assert_clean();
    assert!(
        report.complete,
        "{}: expected the schedule tree exhausted within bounds, got {report}",
        report.name
    );
}

/// Submit → flush at the `max_batch` boundary → demux → shutdown. The
/// batch flushes because the query count reaches `max_batch`, never via
/// the delay path.
#[test]
fn submit_flushes_at_max_batch_boundary() {
    let report = check("service/max-batch-flush", cfg(), || {
        let svc = service(base_config().max_batch(1).build().unwrap());
        let response = svc.submit(&queries(1), 0.5).expect("single submit");
        assert_eq!(response.matches.len(), 1);
        assert_eq!(response.batch_requests, 1);
        svc.shutdown();
    });
    assert_exhaustive(&report);
}

/// Submit → flush at the `max_delay` boundary. `max_batch` is far above
/// the submitted query count, so the only way this batch ever flushes is
/// the batcher's timed wait expiring — which in the model is a scheduler
/// choice that advances the virtual clock, explored alongside the
/// shutdown-triggered flush.
#[test]
fn submit_flushes_at_max_delay_boundary() {
    let report = check("service/max-delay-flush", cfg(), || {
        let svc = service(base_config().max_batch(8).build().unwrap());
        let response = svc.submit(&queries(1), 0.5).expect("single submit");
        assert_eq!(response.matches.len(), 1);
        svc.shutdown();
    });
    assert_exhaustive(&report);
}

/// Two clients racing: a spawned client and the root both submit; both
/// must get their own demuxed answer whether or not the batcher
/// coalesces them into one batch. Five threads give this harness the
/// largest schedule tree of the suite — it does not exhaust within a
/// practical execution budget even at one preemption, so this test
/// asserts cleanliness over a fixed 20k-execution DFS prefix
/// (deterministic: the same schedules replay on every run) instead of
/// exhaustion.
#[test]
fn concurrent_clients_each_get_their_answer() {
    let report = check("service/two-clients", cfg().max_executions(20_000), || {
        let svc = Arc::new(service(base_config().max_batch(2).build().unwrap()));
        let peer = Arc::clone(&svc);
        let client = thread::spawn(move || {
            let response = peer.submit(&queries(1), 0.5).expect("peer submit");
            assert_eq!(response.matches.len(), 1);
        });
        let response = svc.submit(&queries(1), 0.5).expect("root submit");
        assert_eq!(response.matches.len(), 1);
        client.join().unwrap();
        svc.shutdown();
    });
    report.assert_clean();
    assert_eq!(report.executions, 20_000, "expected the full bounded prefix to run");
}

/// Worker failure → fallback degradation: the index fails every batch
/// under its device's own shape, `max_consecutive_failures: 1` trips
/// permanent degradation on the first one. Both requests must still be
/// answered (by the same index under `ThreadPerQuery`), and the degraded
/// flag must be visible after shutdown.
#[test]
fn worker_failure_degrades_to_fallback() {
    let report = check("service/degradation", cfg(), || {
        let config = base_config().max_consecutive_failures(1).build().unwrap();
        let svc = service_with(config, MockIndex { fail_unshaped: true, ..Default::default() });
        let first = svc.submit(&queries(1), 0.5).expect("first submit rides the fallback");
        assert_eq!(first.matches.len(), 1);
        let second = svc.submit(&queries(1), 0.5).expect("degraded submit");
        assert_eq!(second.matches.len(), 1);
        svc.shutdown();
        let stats = svc.stats();
        assert!(stats.degraded, "one failure at threshold 1 must degrade permanently");
        assert_eq!(stats.fallback_batches, 2);
    });
    assert_exhaustive(&report);
}

fn new_segment() -> [Segment; 1] {
    [Segment::new(Point3::ZERO, Point3::splat(1.0), 2.0, 3.0, SegId(9), TrajId(1))]
}

/// `advance_window` racing in-flight queries: a client keeps one request
/// per worker in flight while the root advances the sliding window. The
/// advance takes the engine gate exclusively against the workers' per-batch
/// pins; every query must be answered and the advance must complete, under
/// every interleaving. At preemption bound 1 the one-worker run is
/// exhaustive. The two-worker run — two pins that can be live at once —
/// does not exhaust within the default execution budget (100k executions,
/// bounded out), so like `service/two-clients` it asserts cleanliness over
/// a fixed 20k-execution DFS prefix.
#[test]
fn advance_window_races_inflight_query() {
    for workers in [1, 2] {
        let name = format!("service/advance-vs-query/w{workers}");
        let model = if workers == 1 { cfg() } else { cfg().max_executions(20_000) };
        let report = check(&name, model, move || {
            let config =
                base_config().workers(workers).window(10.0).advance_every(1).build().unwrap();
            let svc = Arc::new(service(config));
            let peer = Arc::clone(&svc);
            let client = thread::spawn(move || {
                let tickets: Vec<_> = (0..workers)
                    .map(|_| peer.submit_nowait(&queries(1), 0.5, None).expect("admission"))
                    .collect();
                for ticket in tickets {
                    let response = ticket.wait().expect("query racing advance");
                    assert_eq!(response.matches.len(), 1);
                }
            });
            let advance = svc.advance_window(&new_segment()).expect("window advance");
            assert_eq!(advance.ingested, 1);
            client.join().unwrap();
            svc.shutdown();
        });
        if workers == 1 {
            assert_exhaustive(&report);
        } else {
            report.assert_clean();
            assert_eq!(report.executions, 20_000, "expected the full bounded prefix to run");
        }
    }
}

/// A window advance that fails half-way: the index takes the tick's ingest
/// and refuses its expire, so it reflects no generation the store ever had.
/// The service must stop serving rather than answer from that mix: the
/// racing request resolves with a pre-advance answer or the advance's typed
/// error, and the failed advance, a later advance and a later request all
/// get that same error. No hang, no panic.
#[test]
fn failed_advance_stops_the_service() {
    fn is_advance_error(error: &TdtsError) -> bool {
        matches!(error, TdtsError::IncrementalUnsupported("mock"))
    }
    let report = check("service/advance-error", cfg(), || {
        let config = base_config().window(10.0).advance_every(1).build().unwrap();
        let engine = MockIndex { fail_expire: true, ..Default::default() };
        let svc = Arc::new(service_with(config, engine));
        let ticket = svc.submit_nowait(&queries(1), 0.5, None).expect("admission");
        let peer = Arc::clone(&svc);
        let advancer = thread::spawn(move || {
            let error = peer.advance_window(&new_segment()).expect_err("expire refuses");
            assert!(is_advance_error(&error), "advance: {error:?}");
        });
        match ticket.wait() {
            Ok(response) => assert_eq!(response.matches.len(), 1),
            Err(error) => assert!(is_advance_error(&error), "racing request: {error:?}"),
        }
        advancer.join().unwrap();
        let error = svc.advance_window(&new_segment()).expect_err("service has stopped");
        assert!(is_advance_error(&error), "later advance: {error:?}");
        let error = svc.submit(&queries(1), 0.5).expect_err("service has stopped");
        assert!(is_advance_error(&error), "later request: {error:?}");
        svc.shutdown();
    });
    assert_exhaustive(&report);
}

/// Shutdown racing a partially filled batch: `max_batch` is never
/// reached, and `shutdown()` runs concurrently with the request sitting
/// in the pending queue. Exactly-once resolution: the ticket must yield
/// either a real response (the batcher's final drain flushed it) or
/// `ShuttingDown` (the post-join drain rejected it) — never hang, never
/// resolve twice (the oneshot's SendOnce tracker turns a double store
/// into a `double-send` finding).
#[test]
fn shutdown_races_partially_filled_batch() {
    let report = check("service/shutdown-vs-partial-batch", cfg(), || {
        let svc = Arc::new(service(base_config().max_batch(8).build().unwrap()));
        let ticket = svc.submit_nowait(&queries(1), 0.5, None).expect("admission");
        let stopper = Arc::clone(&svc);
        let stop = thread::spawn(move || stopper.shutdown());
        match ticket.wait() {
            Ok(response) => assert_eq!(response.matches.len(), 1),
            Err(TdtsError::ShuttingDown) => {}
            Err(other) => panic!("unexpected ticket resolution: {other:?}"),
        }
        stop.join().unwrap();
    });
    assert_exhaustive(&report);
}

/// A submit racing shutdown at the admission boundary: the request is
/// either rejected up front (`ShuttingDown`), rejected by the post-drain
/// (`ShuttingDown`), or fully served — and the in-flight budget always
/// returns to zero so shutdown's accounting stays exact.
#[test]
fn submit_racing_shutdown_never_hangs() {
    let report = check("service/submit-vs-shutdown", cfg(), || {
        let svc = Arc::new(service(base_config().build().unwrap()));
        let peer = Arc::clone(&svc);
        let client = thread::spawn(move || match peer.submit(&queries(1), 0.5) {
            Ok(response) => assert_eq!(response.matches.len(), 1),
            Err(TdtsError::ShuttingDown) => {}
            Err(other) => panic!("unexpected submit resolution: {other:?}"),
        });
        svc.shutdown();
        client.join().unwrap();
    });
    assert_exhaustive(&report);
}

/// Model-scheduling twin of `tests/prop_flush.rs`: for random arrival
/// patterns (client count × queries-per-client × `max_batch` crossing
/// the total in both directions), every submitted query is answered
/// exactly once or rejected with a typed error — explored under the
/// virtual scheduler instead of the OS one. Each case is a bounded DFS
/// prefix (the per-case execution cap keeps the whole sweep inside CI
/// budget); the dedicated harnesses above provide the exhaustive runs.
#[test]
fn prop_arrival_patterns_answer_exactly_once() {
    use proptest::prelude::*;

    proptest::run_cases(
        ProptestConfig::with_cases(6),
        "prop_arrival_patterns_answer_exactly_once",
        |rng| {
            let clients = 1 + rng.below(2) as usize;
            let per_client = 1 + rng.below(2) as usize;
            let max_batch = 1 + rng.below(3) as usize;
            let name = format!("service/prop-arrivals/c{clients}-q{per_client}-b{max_batch}");
            let config = cfg().max_executions(2_000);
            let report = check(&name, config, move || {
                let svc = Arc::new(service(base_config().max_batch(max_batch).build().unwrap()));
                let ticket =
                    svc.submit_nowait(&queries(per_client), 0.5, None).expect("root admission");
                let mut peers = Vec::new();
                for _ in 1..clients {
                    let svc = Arc::clone(&svc);
                    peers.push(thread::spawn(move || {
                        match svc.submit(&queries(per_client), 0.5) {
                            Ok(response) => assert_eq!(response.matches.len(), per_client),
                            Err(TdtsError::ShuttingDown) | Err(TdtsError::Overloaded) => {}
                            Err(other) => panic!("unexpected submit resolution: {other:?}"),
                        }
                    }));
                }
                match ticket.wait() {
                    Ok(response) => assert_eq!(response.matches.len(), per_client),
                    Err(TdtsError::ShuttingDown) => {}
                    Err(other) => panic!("unexpected ticket resolution: {other:?}"),
                }
                for peer in peers {
                    peer.join().unwrap();
                }
                svc.shutdown();
            });
            report.assert_clean();
        },
    );
}

/// Deadline expiry racing fulfilment: the client's deadline can fire
/// (poisoning the slot) at the same time the worker fulfils it. First
/// write wins — the client sees exactly one of `Ok` / `Timeout`, and a
/// worker's late write is silently discarded rather than double-sent.
#[test]
fn deadline_timeout_races_fulfilment() {
    let report = check("service/deadline-vs-fulfil", cfg(), || {
        let svc = service(base_config().build().unwrap());
        let deadline = Some(Instant::now() + Duration::from_millis(5));
        let ticket = svc.submit_nowait(&queries(1), 0.5, deadline).expect("admission");
        match ticket.wait() {
            Ok(response) => assert_eq!(response.matches.len(), 1),
            Err(TdtsError::Timeout) => {}
            Err(other) => panic!("unexpected ticket resolution: {other:?}"),
        }
        svc.shutdown();
    });
    assert_exhaustive(&report);
}
