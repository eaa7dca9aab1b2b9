//! Property-based tests for the service's flush boundaries — where a
//! worker cuts a batch from the pending queue — under normal (OS)
//! scheduling: across arrival patterns, batch-size and delay
//! limits, and a shutdown racing a partially filled batch, every
//! submitted query is answered exactly once — a demuxed response
//! covering all of the request's queries, or a typed error — and the
//! service's accounting stays consistent.
//!
//! The model-check twin of these properties lives in
//! `tests/model_check.rs`, where the same protocols run under the
//! virtual scheduler, every harness to exhaustion; this file covers the
//! real-thread, real-clock path that stays active in normal builds.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use proptest::prelude::*;
use tdts_core::{Method, PreparedDataset, TdtsError};
use tdts_geom::{Point3, SegId, Segment, SegmentStore, TrajId};
use tdts_gpu_sim::DeviceConfig;
use tdts_index_temporal::TemporalIndexConfig;
use tdts_service::service::QueryService;
use tdts_service::ServiceConfig;

fn dataset(segments: usize) -> PreparedDataset {
    let mut store = SegmentStore::new();
    for i in 0..segments {
        let t = i as f64;
        store.push(Segment::new(
            Point3::splat(i as f64),
            Point3::splat(i as f64 + 1.0),
            t,
            t + 1.0,
            SegId(i as u32),
            TrajId((i % 4) as u32),
        ));
    }
    PreparedDataset::new(store)
}

/// Queries copied verbatim from the dataset: each one matches at least
/// itself at distance ~0, so a correct demux yields every query id in
/// the response.
fn queries_from(dataset: &PreparedDataset, start: usize, n: usize) -> SegmentStore {
    let mut store = SegmentStore::new();
    for (offset, segment) in dataset.store().iter().skip(start).take(n).enumerate() {
        let mut q = *segment;
        q.seg_id = SegId(offset as u32);
        store.push(q);
    }
    store
}

fn config(max_batch: usize, max_delay_micros: u64, capacity: usize) -> ServiceConfig {
    ServiceConfig::builder(Method::GpuTemporal(TemporalIndexConfig { bins: 8 }))
        .device(DeviceConfig::test_tiny())
        .workers(1)
        .max_batch(max_batch)
        .max_delay(Duration::from_micros(max_delay_micros))
        .queue_capacity(capacity)
        // test_tiny's device memory cannot hold the default result
        // buffer; a few thousand records is plenty for these stores.
        .result_capacity(4096)
        .build()
        .expect("valid config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Across arrival patterns (client count × queries-per-client) and
    /// flush limits (`max_batch` crossing the total query count in both
    /// directions, `max_delay` from instant to never-within-test), every
    /// client gets exactly one response demuxing all of its own queries.
    #[test]
    fn every_query_answered_exactly_once(
        clients in 1usize..=3,
        per_client in 1usize..=2,
        max_batch in 1usize..=6,
        delay_micros in 0u64..=2000,
    ) {
        let data = dataset(12);
        let svc = Arc::new(
            QueryService::start(&data, config(max_batch, delay_micros, 8)).expect("start"),
        );
        let data = Arc::new(data);
        let mut handles = Vec::new();
        for c in 0..clients {
            let svc = Arc::clone(&svc);
            let data = Arc::clone(&data);
            handles.push(thread::spawn(move || {
                let queries = queries_from(&data, c * per_client, per_client);
                svc.submit(&queries, 0.25)
            }));
        }
        for handle in handles {
            let response = handle.join().expect("client thread").expect("submit");
            // Exactly-once demux: all of this client's query ids answered,
            // none from anyone else's request.
            let answered: BTreeSet<u32> = response.matches.iter().map(|m| m.query).collect();
            let expected: BTreeSet<u32> = (0..per_client as u32).collect();
            prop_assert_eq!(answered, expected);
        }
        svc.shutdown();
        let stats = svc.stats();
        prop_assert_eq!(stats.requests_admitted, clients as u64);
        prop_assert_eq!(stats.requests_served, clients as u64);
        prop_assert_eq!(stats.requests_failed, 0);
        prop_assert_eq!(stats.requests_timed_out, 0);
    }

    /// Shutdown racing a partially filled batch: `max_batch` stays above
    /// the query count and `max_delay` is effectively infinite, so the
    /// pending batch can only flush through the shutdown drain. The
    /// ticket must resolve exactly once and the admission ledger must
    /// balance. This test also accepts `ShuttingDown`; the model check
    /// proves the stronger contract, `Ok` under every schedule, since
    /// shutdown answers every admitted request.
    #[test]
    fn shutdown_races_partially_filled_batch(
        queries in 1usize..=3,
        stagger_micros in 0u64..=200,
    ) {
        let data = dataset(12);
        let svc = Arc::new(
            QueryService::start(&data, config(16, 5_000_000, 8)).expect("start"),
        );
        let ticket =
            svc.submit_nowait(&queries_from(&data, 0, queries), 0.25, None).expect("admission");
        let stopper = Arc::clone(&svc);
        let stop = thread::spawn(move || {
            if stagger_micros > 0 {
                thread::sleep(Duration::from_micros(stagger_micros));
            }
            stopper.shutdown();
        });
        let outcome = ticket.wait();
        stop.join().expect("shutdown thread");
        match outcome {
            Ok(response) => {
                let answered: BTreeSet<u32> = response.matches.iter().map(|m| m.query).collect();
                let expected: BTreeSet<u32> = (0..queries as u32).collect();
                prop_assert_eq!(answered, expected);
                prop_assert_eq!(svc.stats().requests_served, 1);
            }
            Err(TdtsError::ShuttingDown) => {
                prop_assert_eq!(svc.stats().requests_served, 0);
            }
            Err(other) => prop_assert!(false, "unexpected ticket resolution: {other:?}"),
        }
        let stats = svc.stats();
        prop_assert_eq!(stats.requests_admitted, 1);
        prop_assert_eq!(stats.requests_timed_out, 0);
        prop_assert_eq!(stats.requests_failed, 0);
    }
}
