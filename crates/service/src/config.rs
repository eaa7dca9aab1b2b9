//! Service configuration.

use std::time::Duration;
use tdts_core::{Method, ShardedIndexConfig, TdtsError};
use tdts_geom::MatchRecord;
use tdts_gpu_sim::DeviceConfig;

/// Parameters of a [`QueryService`](crate::QueryService).
///
/// Construct through [`ServiceConfig::builder`]; the struct is
/// `#[non_exhaustive]` so new knobs can be added without breaking callers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServiceConfig {
    /// The search method of the index.
    pub method: Method,
    /// The simulated device the index is resident on (one per shard when
    /// sharded). Every worker searches it; each search charges a
    /// response-time ledger of its own. Its `kernel_shape` is the shape
    /// batches run under until the service degrades to
    /// [`KernelShape::ThreadPerQuery`](tdts_gpu_sim::KernelShape) on the same
    /// index.
    pub device: DeviceConfig,
    /// Worker threads. They share the one index; more workers run more
    /// batches at once, not more index copies. Each running
    /// batch holds a result buffer on the shared device, so
    /// [`QueryService::start`](crate::QueryService::start) refuses a
    /// configuration where `workers * result_capacity` records do not fit
    /// beside the resident index.
    pub workers: usize,
    /// Flush a batch once this many query segments are pending.
    pub max_batch: usize,
    /// Flush a batch once its oldest request has waited this long.
    pub max_delay: Duration,
    /// Admitted-but-unfinished request bound; submissions beyond it are
    /// rejected with [`TdtsError::Overloaded`].
    pub queue_capacity: usize,
    /// Device result-buffer bound per batch search, allocated up front by
    /// every running batch (see [`ServiceConfig::workers`] for the memory
    /// bound this implies).
    pub result_capacity: usize,
    /// Deadline applied to [`submit`](crate::QueryService::submit) calls;
    /// `None` waits indefinitely.
    pub default_deadline: Option<Duration>,
    /// Consecutive failed batches before the service degrades to the
    /// fallback kernel shape permanently.
    pub max_consecutive_failures: u32,
    /// How the entry database is partitioned across simulated devices. With
    /// `sharding.shards > 1` the index is a
    /// [`ShardedIndex`](tdts_core::ShardedIndex) built from exactly this
    /// value; with 1 (the default) it is one unsharded index and the other
    /// fields are ignored.
    pub sharding: ShardedIndexConfig,
    /// Sliding time-window retention, enabling streaming mode. With
    /// `Some(w)`, [`advance_window`](crate::QueryService::advance_window)
    /// ingests new segments into the index and (every
    /// [`ServiceConfig::advance_every`] advances) expires segments ending
    /// before `frontier - w`, where the frontier is the latest `t_end`
    /// seen. Every index takes the deltas; a sharded one re-partitions the
    /// store on each.
    pub window: Option<f64>,
    /// Apply the expiry cut once every this many window advances (ingest
    /// still happens on every advance), letting the window overshoot by up
    /// to `advance_every - 1` ticks. A cut costs time in proportion to the
    /// rows it removes and the survivors among them, not to the window, so
    /// batching cuts saves little beyond the per-cut constant.
    pub advance_every: usize,
}

impl ServiceConfig {
    /// A builder with service defaults, searching with `method`.
    pub fn builder(method: Method) -> ServiceConfigBuilder {
        ServiceConfigBuilder {
            config: ServiceConfig {
                method,
                device: DeviceConfig::tesla_c2075(),
                workers: 2,
                max_batch: 64,
                max_delay: Duration::from_millis(2),
                queue_capacity: 1024,
                result_capacity: 2_000_000,
                default_deadline: None,
                max_consecutive_failures: 3,
                sharding: ShardedIndexConfig::default(),
                window: None,
                advance_every: 1,
            },
        }
    }

    pub(crate) fn validate(&self) -> Result<(), TdtsError> {
        if self.workers < 1 {
            return Err(TdtsError::InvalidConfig("service needs at least one worker".into()));
        }
        if self.max_batch < 1 {
            return Err(TdtsError::InvalidConfig("max_batch must be at least one query".into()));
        }
        if self.queue_capacity < 1 {
            return Err(TdtsError::InvalidConfig(
                "queue_capacity must admit at least one request".into(),
            ));
        }
        if self.window.is_some_and(|w| !(w > 0.0 && w.is_finite())) {
            return Err(TdtsError::InvalidConfig(
                "window must be a positive finite duration".into(),
            ));
        }
        if self.advance_every < 1 {
            return Err(TdtsError::InvalidConfig("advance_every must be at least 1".into()));
        }
        Ok(())
    }

    /// Refuse a configuration whose workers cannot all hold a result buffer
    /// at once on the device, which has `free` bytes left beside its
    /// resident index. Unchecked, the shortfall only shows under load, as
    /// `OutOfDeviceMemory` batches that degrade the service.
    pub(crate) fn check_result_room(&self, free: usize) -> Result<(), TdtsError> {
        let need = self
            .workers
            .saturating_mul(self.result_capacity)
            .saturating_mul(std::mem::size_of::<MatchRecord>());
        if need > free {
            return Err(TdtsError::InvalidConfig(format!(
                "{} workers x result_capacity {} need {need} bytes of result buffers, but the \
                 device has {free} bytes free beside its index",
                self.workers, self.result_capacity
            )));
        }
        Ok(())
    }
}

/// Builder for [`ServiceConfig`]; see [`ServiceConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServiceConfigBuilder {
    config: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// The simulated device the index is resident on.
    pub fn device(mut self, device: DeviceConfig) -> Self {
        self.config.device = device;
        self
    }

    /// Worker threads.
    pub fn workers(mut self, n: usize) -> Self {
        self.config.workers = n;
        self
    }

    /// Query-segment count that triggers a flush.
    pub fn max_batch(mut self, n: usize) -> Self {
        self.config.max_batch = n;
        self
    }

    /// Oldest-request age that triggers a flush.
    pub fn max_delay(mut self, delay: Duration) -> Self {
        self.config.max_delay = delay;
        self
    }

    /// Admission bound before `Overloaded` rejections.
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.config.queue_capacity = n;
        self
    }

    /// Device result-buffer bound per batch search.
    pub fn result_capacity(mut self, n: usize) -> Self {
        self.config.result_capacity = n;
        self
    }

    /// Deadline applied to blocking submissions.
    pub fn default_deadline(mut self, deadline: Duration) -> Self {
        self.config.default_deadline = Some(deadline);
        self
    }

    /// Consecutive failed batches before permanent degradation.
    pub fn max_consecutive_failures(mut self, n: u32) -> Self {
        self.config.max_consecutive_failures = n;
        self
    }

    /// How to partition the entry database across devices (1 shard =
    /// unsharded).
    pub fn sharding(mut self, sharding: ShardedIndexConfig) -> Self {
        self.config.sharding = sharding;
        self
    }

    /// Sliding time-window retention (enables streaming mode).
    pub fn window(mut self, window: f64) -> Self {
        self.config.window = Some(window);
        self
    }

    /// Window advances between expiry cuts.
    pub fn advance_every(mut self, n: usize) -> Self {
        self.config.advance_every = n;
        self
    }

    /// Finish, validating the combination.
    pub fn build(self) -> Result<ServiceConfig, TdtsError> {
        self.config.validate()?;
        Ok(self.config)
    }
}
