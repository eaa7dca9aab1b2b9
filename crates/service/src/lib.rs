//! A concurrent batched query service over the distance threshold search
//! engines.
//!
//! The paper's evaluation runs one large query set through one engine at a
//! time. A deployment looks different: many clients, each holding a few
//! query segments, arriving concurrently, all wanting answers against the
//! same immutable trajectory database. Running each client's handful of
//! queries as its own kernel invocation squanders exactly the batch
//! parallelism the GPU methods are built around (the paper's response times
//! assume the query set is large enough to saturate the device).
//!
//! [`QueryService`] closes that gap. It owns one long-lived
//! [`SearchEngine`](tdts_core::SearchEngine) — store, index and devices —
//! built once per [`PreparedDataset`](tdts_core::PreparedDataset), admits
//! concurrent requests behind a bounded queue, *coalesces* them into batches (flushed
//! on [`ServiceConfig::max_batch`] pending queries or
//! [`ServiceConfig::max_delay`] elapsed), runs each batch on a worker as
//! one kernel invocation, and demultiplexes the per-query result
//! slices back to the waiting clients. Coalescing changes nothing about the
//! results: the canonical result order is sorted by query id, so each
//! request's records form a contiguous slice that is renumbered back to the
//! request's own query positions — byte-identical to running that request
//! alone.
//!
//! Robustness: per-request deadlines ([`TdtsError::Timeout`]), bounded
//! admission ([`TdtsError::Overloaded`]), graceful engine degradation
//! (a failed batch re-runs on the same resident index under the simpler
//! `ThreadPerQuery` kernel shape, and after
//! [`ServiceConfig::max_consecutive_failures`] failed batches every
//! subsequent batch goes straight there), and a drain-then-join shutdown
//! that resolves every admitted request.
//!
//! [`TdtsError::Timeout`]: tdts_core::TdtsError::Timeout
//! [`TdtsError::Overloaded`]: tdts_core::TdtsError::Overloaded

#![forbid(unsafe_code)]

pub mod config;
mod oneshot;
pub mod service;
pub mod stats;

pub use config::{ServiceConfig, ServiceConfigBuilder};
pub use service::{QueryService, SearchResponse, SearchTicket, WindowAdvance};
pub use stats::ServiceStats;

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tdts_core::{Method, PreparedDataset, ShardedIndexConfig};
    use tdts_data::RandomWalkConfig;
    use tdts_gpu_sim::DeviceConfig;
    use tdts_index_temporal::TemporalIndexConfig;

    fn dataset(trajectories: usize) -> PreparedDataset {
        PreparedDataset::new(
            RandomWalkConfig { trajectories, timesteps: 20, ..Default::default() }.generate(),
        )
    }

    fn queries(seed: u64) -> tdts_geom::SegmentStore {
        RandomWalkConfig { trajectories: 3, timesteps: 10, seed, ..Default::default() }.generate()
    }

    fn base_config() -> ServiceConfig {
        ServiceConfig::builder(Method::GpuTemporal(TemporalIndexConfig { bins: 8 }))
            .device(DeviceConfig::test_tiny())
            .workers(2)
            .max_batch(16)
            .max_delay(Duration::from_millis(1))
            .result_capacity(4_096)
            .build()
            .unwrap()
    }

    #[test]
    fn single_request_round_trip() {
        let data = dataset(20);
        // Queries drawn from the database itself always match themselves.
        let probe: tdts_geom::SegmentStore = data.store().iter().take(5).copied().collect();
        let service = QueryService::start(&data, base_config()).unwrap();
        let response = service.submit(&probe, 5.0).unwrap();
        assert!(!response.matches.is_empty());
        assert!(response.matches.iter().all(|m| (m.query as usize) < probe.len()));
        // Join the workers so their post-fulfil counter updates are visible.
        service.shutdown();
        let stats = service.stats();
        assert_eq!(stats.requests_admitted, 1);
        assert_eq!(stats.requests_served, 1);
        assert!(stats.batches_executed >= 1);
        assert!(stats.cumulative.comparisons > 0);
    }

    #[test]
    fn zero_capacity_config_rejected() {
        let err = ServiceConfig::builder(Method::GpuTemporal(TemporalIndexConfig { bins: 8 }))
            .queue_capacity(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, tdts_core::TdtsError::InvalidConfig(_)));
    }

    #[test]
    fn result_buffers_of_all_workers_must_fit_the_device() {
        // test_tiny has 1 MiB: one 30_000-record buffer (720 kB) fits beside
        // the index, two do not — and both workers search the same device.
        let config = |workers| {
            ServiceConfig::builder(Method::GpuTemporal(TemporalIndexConfig { bins: 8 }))
                .device(DeviceConfig::test_tiny())
                .workers(workers)
                .result_capacity(30_000)
                .build()
                .unwrap()
        };
        QueryService::start(&dataset(20), config(1)).unwrap().shutdown();
        let err = QueryService::start(&dataset(20), config(2)).map(|_| ()).unwrap_err();
        assert!(matches!(err, tdts_core::TdtsError::InvalidConfig(_)), "got {err:?}");
    }

    #[test]
    fn overload_is_typed_and_deterministic() {
        // Nothing ever flushes (huge batch + delay), so admitted requests
        // pin the in-flight count at the capacity.
        let config = ServiceConfig::builder(Method::GpuTemporal(TemporalIndexConfig { bins: 8 }))
            .device(DeviceConfig::test_tiny())
            .workers(1)
            .max_batch(1_000_000)
            .max_delay(Duration::from_secs(3600))
            .queue_capacity(2)
            .result_capacity(4_096)
            .build()
            .unwrap();
        let service = QueryService::start(&dataset(20), config).unwrap();
        let t1 = service.submit_nowait(&queries(1), 5.0, None).unwrap();
        let t2 = service.submit_nowait(&queries(2), 5.0, None).unwrap();
        let err = service.submit_nowait(&queries(3), 5.0, None).unwrap_err();
        assert!(matches!(err, tdts_core::TdtsError::Overloaded));
        assert_eq!(service.stats().requests_rejected, 1);
        // Shutdown flushes the two admitted requests; their tickets resolve.
        service.shutdown();
        assert!(t1.wait().is_ok());
        assert!(t2.wait().is_ok());
    }

    #[test]
    fn expired_deadline_returns_timeout() {
        let config = ServiceConfig::builder(Method::GpuTemporal(TemporalIndexConfig { bins: 8 }))
            .device(DeviceConfig::test_tiny())
            .workers(1)
            .max_batch(1_000_000)
            .max_delay(Duration::from_secs(3600))
            .result_capacity(4_096)
            .build()
            .unwrap();
        let service = QueryService::start(&dataset(20), config).unwrap();
        let err = service.submit_with_deadline(&queries(1), 5.0, Duration::ZERO).unwrap_err();
        assert!(matches!(err, tdts_core::TdtsError::Timeout));
        assert_eq!(service.stats().requests_timed_out, 1);
    }

    #[test]
    fn sharded_service_matches_unsharded_and_reports_per_shard() {
        let data = dataset(30);
        let probe: tdts_geom::SegmentStore = data.store().iter().take(6).copied().collect();

        let plain = QueryService::start(&data, base_config()).unwrap();
        let expect = plain.submit(&probe, 5.0).unwrap().matches;
        plain.shutdown();

        let config = ServiceConfig::builder(Method::GpuTemporal(TemporalIndexConfig { bins: 8 }))
            .device(DeviceConfig::test_tiny())
            .workers(2)
            .sharding(ShardedIndexConfig::builder().shards(4).build().unwrap())
            .max_batch(16)
            .max_delay(Duration::from_millis(1))
            .result_capacity(4_096)
            .build()
            .unwrap();
        let sharded = QueryService::start(&data, config).unwrap();
        let got = sharded.submit(&probe, 5.0).unwrap().matches;
        assert_eq!(got, expect, "sharding must not change results");
        sharded.shutdown();

        let stats = sharded.stats();
        assert_eq!(stats.shards, 4);
        assert!(!stats.per_shard.is_empty());
        assert!(stats.per_shard.iter().any(|s| s.searches > 0));
        assert!(stats.per_shard.windows(2).all(|w| w[0].shard < w[1].shard));
    }

    #[test]
    fn advance_without_window_config_is_rejected() {
        let service = QueryService::start(&dataset(20), base_config()).unwrap();
        let err = service.advance_window(&[]).unwrap_err();
        assert!(matches!(err, tdts_core::TdtsError::InvalidConfig(_)));
    }

    #[test]
    fn window_config_rejects_sharding() {
        let err = ServiceConfig::builder(Method::GpuTemporal(TemporalIndexConfig { bins: 8 }))
            .window(5.0)
            .sharding(ShardedIndexConfig::builder().shards(2).build().unwrap())
            .build()
            .unwrap_err();
        assert!(matches!(err, tdts_core::TdtsError::InvalidConfig(_)));
    }

    #[test]
    fn sliding_window_streams_and_matches_cold_rebuild() {
        use tdts_core::{PreparedDataset, SearchEngine};
        use tdts_geom::{Point3, SegId, Segment, TrajId};

        let data = dataset(20);
        let t_max = data.store().iter().map(|s| s.t_end).fold(f64::MIN, f64::max);
        let method = Method::GpuTemporal(TemporalIndexConfig { bins: 8 });
        let config = ServiceConfig::builder(method)
            .device(DeviceConfig::test_tiny())
            // Four workers share the one engine pair the advances update.
            .workers(4)
            .max_batch(16)
            .max_delay(Duration::from_millis(1))
            .result_capacity(4_096)
            .window(4.0)
            .advance_every(2)
            .build()
            .unwrap();
        let service = QueryService::start(&data, config).unwrap();
        let initial_len = data.store().len();

        let tick = |k: u32, t0: f64| -> Vec<Segment> {
            (0..3)
                .map(|i| {
                    let t = t0 + i as f64 * 0.1;
                    Segment::new(
                        Point3::new(i as f64, 0.0, 0.0),
                        Point3::new(i as f64 + 1.0, 1.0, 1.0),
                        t,
                        t + 1.0,
                        SegId(1_000 + k * 10 + i),
                        TrajId(k),
                    )
                })
                .collect()
        };

        // Tick 1: ingest only (advance_every = 2 defers the expiry cut).
        let adv1 = service.advance_window(&tick(1, t_max + 1.0)).unwrap();
        assert_eq!((adv1.ingested, adv1.expired, adv1.cut), (3, 0, None));
        // Tick 2: ingest further ahead; now the cut applies and the old
        // dataset (ending more than `window` before the frontier) expires.
        let adv2 = service.advance_window(&tick(2, t_max + 3.0)).unwrap();
        assert_eq!(adv2.ingested, 3);
        assert!(adv2.cut.is_some());
        assert!(adv2.expired > 0, "window should have expired old segments");
        assert!(adv2.generation > adv1.generation);

        // The service's answers must be byte-identical to a cold engine
        // built from the post-advance store snapshot.
        let snapshot = service.store_snapshot();
        assert!(snapshot.len() < initial_len + 6, "expiry must have shrunk the store");
        let probe: tdts_geom::SegmentStore = tick(3, t_max + 2.0).into_iter().collect();
        let got = service.submit(&probe, 5.0).unwrap().matches;
        let cold_set = PreparedDataset::new(snapshot.as_ref().clone());
        let cold = SearchEngine::build(
            &cold_set,
            method,
            tdts_gpu_sim::Device::new(DeviceConfig::test_tiny()).unwrap(),
        )
        .unwrap();
        let (want, _) = cold.search(&probe, 5.0, 4_096).unwrap();
        assert_eq!(got, want, "streamed service must match cold rebuild");
        assert!(!got.is_empty());

        service.shutdown();
        let stats = service.stats();
        assert_eq!(stats.window_advances, 2);
        assert_eq!(stats.fallback_batches, 0);
        assert_eq!(stats.segments_ingested, 6);
        assert_eq!(stats.segments_expired, adv2.expired as u64);
    }

    #[test]
    fn out_of_order_advance_is_rejected() {
        let config = ServiceConfig::builder(Method::GpuTemporal(TemporalIndexConfig { bins: 8 }))
            .device(DeviceConfig::test_tiny())
            .workers(1)
            .result_capacity(4_096)
            .window(100.0)
            .build()
            .unwrap();
        let service = QueryService::start(&dataset(10), config).unwrap();
        let gen_before = service.generation();
        // A segment starting before the stored frontier violates the
        // time-ordered streaming contract.
        let stale: Vec<tdts_geom::Segment> = queries(9).iter().take(1).copied().collect();
        let mut stale = stale;
        stale[0].t_start = -1.0;
        stale[0].t_end = 0.0;
        let err = service.advance_window(&stale).unwrap_err();
        assert!(matches!(err, tdts_core::TdtsError::InvalidConfig(_)));
        assert_eq!(service.generation(), gen_before, "failed advance must not mutate the store");
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let service = QueryService::start(&dataset(20), base_config()).unwrap();
        service.shutdown();
        let err = service.submit(&queries(1), 5.0).unwrap_err();
        assert!(matches!(err, tdts_core::TdtsError::ShuttingDown));
    }
}
