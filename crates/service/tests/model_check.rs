//! Model-check harnesses for the query service's hot protocols.
//!
//! Each test spins up a *real* `QueryService` — real worker pool and
//! batch cut, admission control, and shutdown protocol — inside
//! `tdts_sync::model::check`, with a cheap mock index wrapped in a
//! `SearchEngine` and injected through the `start_with_engine` seam so
//! every one of the checker's executions
//! starts in microseconds. The scheduler then explores thread
//! interleavings at the configured preemption bound, and every harness
//! asserts that it exhausted the schedule tree;
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
use tdts_gpu_sim::{DeviceConfig, KernelShape, OutOfDeviceMemory, SearchError, SearchReport};
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

    fn generation(&self) -> u64 {
        0
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
            return Err(expire_refusal());
        }
        Ok(())
    }
}

/// What `fail_expire` refuses an expiry with: an index refusal after the
/// store has changed, as a device out of memory for the update would give.
fn expire_refusal() -> TdtsError {
    TdtsError::Search(SearchError::OutOfDeviceMemory(OutOfDeviceMemory {
        requested: 1,
        available: 0,
    }))
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

/// Two preemptions, the bound every tdts-sync defect fixture is caught at.
/// Every harness runs at it except `service/advance-vs-query/w2`.
fn cfg() -> ModelConfig {
    ModelConfig::default().preemptions(2)
}

fn assert_exhaustive(report: &tdts_sync::model::ModelReport) {
    eprintln!("{report}");
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
/// a worker's timed wait expiring — which in the model is a scheduler
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
/// must get their own demuxed answer whether or not the worker coalesces
/// them into one batch.
#[test]
fn concurrent_clients_each_get_their_answer() {
    let report = check("service/two-clients", cfg(), || {
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
    assert_exhaustive(&report);
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
/// every interleaving. The two-worker run — two pins that can be live at
/// once — has the largest tree of the suite even at one preemption (93,130
/// executions), so it stays at that bound, with room above the default
/// execution cap.
#[test]
fn advance_window_races_inflight_query() {
    for workers in [1, 2] {
        let name = format!("service/advance-vs-query/w{workers}");
        let model = if workers == 1 {
            cfg()
        } else {
            ModelConfig::default().preemptions(1).max_executions(250_000)
        };
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
        assert_exhaustive(&report);
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
    let report = check("service/advance-error", cfg(), || {
        let config = base_config().window(10.0).advance_every(1).build().unwrap();
        let engine = MockIndex { fail_expire: true, ..Default::default() };
        let svc = Arc::new(service_with(config, engine));
        let ticket = svc.submit_nowait(&queries(1), 0.5, None).expect("admission");
        let peer = Arc::clone(&svc);
        let advancer = thread::spawn(move || {
            let error = peer.advance_window(&new_segment()).expect_err("expire refuses");
            assert_eq!(error, expire_refusal(), "advance");
        });
        match ticket.wait() {
            Ok(response) => assert_eq!(response.matches.len(), 1),
            Err(error) => assert_eq!(error, expire_refusal(), "racing request"),
        }
        advancer.join().unwrap();
        let error = svc.advance_window(&new_segment()).expect_err("service has stopped");
        assert_eq!(error, expire_refusal(), "later advance");
        let error = svc.submit(&queries(1), 0.5).expect_err("service has stopped");
        assert_eq!(error, expire_refusal(), "later request");
        svc.shutdown();
    });
    assert_exhaustive(&report);
}

/// Shutdown racing a partially filled batch: `max_batch` is never
/// reached, and `shutdown()` runs concurrently with the request sitting
/// in the pending queue. Shutdown finishes everything already admitted, so
/// the ticket must yield a real response — whether the delay or the
/// shutdown flushed it — never hang, never resolve twice (the oneshot's
/// SendOnce tracker turns a double store into a `double-send` finding).
#[test]
fn shutdown_races_partially_filled_batch() {
    let report = check("service/shutdown-vs-partial-batch", cfg(), || {
        let svc = Arc::new(service(base_config().max_batch(8).build().unwrap()));
        let ticket = svc.submit_nowait(&queries(1), 0.5, None).expect("admission");
        let stopper = Arc::clone(&svc);
        let stop = thread::spawn(move || stopper.shutdown());
        let response = ticket.wait().expect("an admitted request is answered");
        assert_eq!(response.matches.len(), 1);
        stop.join().unwrap();
    });
    assert_exhaustive(&report);
}

/// A submit racing shutdown at the admission boundary: the request is
/// either rejected at admission (`ShuttingDown`) or fully served — and
/// the in-flight budget always returns to zero so shutdown's accounting
/// stays exact.
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
/// exactly once or rejected at admission with a typed error — explored
/// under the virtual scheduler instead of the OS one, every case to
/// exhaustion. The root's ticket was admitted before any shutdown, so it
/// is always answered.
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
            let report = check(&name, cfg(), move || {
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
                let response = ticket.wait().expect("an admitted request is answered");
                assert_eq!(response.matches.len(), per_client);
                for peer in peers {
                    peer.join().unwrap();
                }
                svc.shutdown();
            });
            assert_exhaustive(&report);
        },
    );
}

/// A closed-loop client at the admission bound: with `queue_capacity(1)`,
/// a request submitted as soon as the previous one's answer arrived must be
/// admitted. A worker releases a batch's admission slots before it resolves
/// any of its tickets, so an answered request never still holds its slot.
#[test]
fn resubmit_after_response_is_admitted() {
    let report = check("service/resubmit-after-response", cfg(), || {
        let svc = service(base_config().queue_capacity(1).build().unwrap());
        for _ in 0..2 {
            let response = svc.submit(&queries(1), 0.5).expect("closed-loop submit");
            assert_eq!(response.matches.len(), 1);
        }
        svc.shutdown();
    });
    assert_exhaustive(&report);
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
