//! Service configuration.

use std::time::Duration;
use tdts_core::{Method, RoutingMode, TdtsError};
use tdts_geom::{MatchRecord, PartitionStrategy, SlabMode};
use tdts_gpu_sim::{DeviceConfig, KernelShape};

/// Parameters of a [`QueryService`](crate::QueryService).
///
/// Construct through [`ServiceConfig::builder`]; the struct is
/// `#[non_exhaustive]` so new knobs can be added without breaking callers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServiceConfig {
    /// The search method of the primary index.
    pub method: Method,
    /// The simulated device the primary index is resident on (one per shard
    /// when sharded). Every worker searches it; each search charges a
    /// response-time ledger of its own.
    pub device: DeviceConfig,
    /// Method for the degraded path. `None` keeps [`ServiceConfig::method`]
    /// and only changes the kernel shape (see
    /// [`ServiceConfig::effective_fallback`]).
    pub fallback_method: Option<Method>,
    /// Worker threads. They share one primary and one fallback index; more
    /// workers run more batches at once, not more index copies. Each running
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
    /// fallback engine permanently.
    pub max_consecutive_failures: u32,
    /// Simulated devices the entry database is partitioned across. With
    /// `shards > 1` the primary engine becomes a
    /// [`ShardedIndex`](tdts_core::ShardedIndex): the store is split into
    /// slabs (boundary segments replicated), each slab is pinned to its own
    /// device, and batches fan out to every shard concurrently. The
    /// fallback path stays unsharded — a deliberately simple degraded mode.
    pub shards: usize,
    /// Slab orientation for the sharded primary (temporal by default).
    pub partition: PartitionStrategy,
    /// Query dispatch policy for the sharded primary: slab-aware routing
    /// (the default) probes only the shards each query's reach interval
    /// touches; broadcast probes all of them. Ignored with `shards == 1`.
    pub routing: RoutingMode,
    /// Slab edge placement for the sharded primary (equal-width by
    /// default; `Balanced` equalises per-shard entry counts).
    pub slab_mode: SlabMode,
    /// Sliding time-window retention, enabling streaming mode. With
    /// `Some(w)`, [`advance_window`](crate::QueryService::advance_window)
    /// ingests new segments into the primary and the fallback index and (every
    /// [`ServiceConfig::advance_every`] advances) expires segments ending
    /// before `frontier - w`, where the frontier is the latest `t_end`
    /// seen. Requires `shards == 1`: sharded indexes partition the store
    /// by slab edges fixed at build time and cannot absorb deltas.
    pub window: Option<f64>,
    /// Apply the expiry cut once every this many window advances (ingest
    /// still happens on every advance). Batching expiry amortises the
    /// position-remap cost across ticks.
    pub advance_every: usize,
}

impl ServiceConfig {
    /// A builder with service defaults, searching with `method`.
    pub fn builder(method: Method) -> ServiceConfigBuilder {
        ServiceConfigBuilder {
            config: ServiceConfig {
                method,
                device: DeviceConfig::tesla_c2075(),
                fallback_method: None,
                workers: 2,
                max_batch: 64,
                max_delay: Duration::from_millis(2),
                queue_capacity: 1024,
                result_capacity: 2_000_000,
                default_deadline: None,
                max_consecutive_failures: 3,
                shards: 1,
                partition: PartitionStrategy::default(),
                routing: RoutingMode::default(),
                slab_mode: SlabMode::default(),
                window: None,
                advance_every: 1,
            },
        }
    }

    /// What the degraded path runs: the configured fallback method, or the
    /// primary method, on [`ServiceConfig::device`] with
    /// [`KernelShape::ThreadPerQuery`] — the simplest kernel shape, with no
    /// work queue or warp aggregation to go wrong.
    pub fn effective_fallback(&self) -> (Method, DeviceConfig) {
        let method = self.fallback_method.unwrap_or(self.method);
        let mut device = self.device.clone();
        device.kernel_shape = KernelShape::ThreadPerQuery;
        (method, device)
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
        if self.shards < 1 {
            return Err(TdtsError::InvalidConfig("shards must be at least 1".into()));
        }
        if let Some(window) = self.window {
            if !(window > 0.0 && window.is_finite()) {
                return Err(TdtsError::InvalidConfig(
                    "window must be a positive finite duration".into(),
                ));
            }
            if self.shards > 1 {
                return Err(TdtsError::InvalidConfig(
                    "sliding-window mode requires shards == 1 (sharded indexes cannot \
                     absorb append/expire deltas)"
                        .into(),
                ));
            }
        }
        if self.advance_every < 1 {
            return Err(TdtsError::InvalidConfig("advance_every must be at least 1".into()));
        }
        Ok(())
    }

    /// Refuse a configuration whose workers cannot all hold a result buffer
    /// at once on the `role` device, which has `free` bytes left beside its
    /// resident index. Unchecked, the shortfall only shows under load, as
    /// `OutOfDeviceMemory` batches that degrade the service.
    pub(crate) fn check_result_room(&self, role: &str, free: usize) -> Result<(), TdtsError> {
        let need = self
            .workers
            .saturating_mul(self.result_capacity)
            .saturating_mul(std::mem::size_of::<MatchRecord>());
        if need > free {
            return Err(TdtsError::InvalidConfig(format!(
                "{} workers x result_capacity {} need {need} bytes of result buffers, but the \
                 {role} device has {free} bytes free beside its index",
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
    /// The simulated device the indexes are resident on.
    pub fn device(mut self, device: DeviceConfig) -> Self {
        self.config.device = device;
        self
    }

    /// Method for the degraded path.
    pub fn fallback_method(mut self, method: Method) -> Self {
        self.config.fallback_method = Some(method);
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

    /// Devices to partition the entry database across (1 = unsharded).
    pub fn shards(mut self, n: usize) -> Self {
        self.config.shards = n;
        self
    }

    /// Slab orientation for the sharded primary.
    pub fn partition(mut self, strategy: PartitionStrategy) -> Self {
        self.config.partition = strategy;
        self
    }

    /// Query dispatch policy for the sharded primary.
    pub fn routing(mut self, routing: RoutingMode) -> Self {
        self.config.routing = routing;
        self
    }

    /// Slab edge placement for the sharded primary.
    pub fn slab_mode(mut self, mode: SlabMode) -> Self {
        self.config.slab_mode = mode;
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
