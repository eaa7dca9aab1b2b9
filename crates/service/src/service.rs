//! The query service: admission control → worker pool → demux.
//!
//! ```text
//!  clients ──submit──▶ [admission: bounded in-flight count]
//!                          │ PendingSearch (owned queries + oneshot slot)
//!                          ▼
//!                      [pending queue, in arrival order]
//!                          │ a worker cuts one Batch: the oldest request
//!                          │ + later same-d requests, up to max_batch,
//!                          │ once max_batch queries wait or the oldest
//!                          │ has waited max_delay
//!                          ▼
//!                      [worker pool: one shared resident index,
//!                       configured shape → ThreadPerQuery degradation]
//!                          │ per-request MatchRecord slices
//!                          ▼
//!                      [demux: release admission slots, then fulfil
//!                       oneshots]
//! ```
//!
//! The service holds exactly one [`SearchEngine`] — one store, the index
//! over it and the devices under that index — whatever the worker count: a
//! search charges a ledger of its own
//! ([`Device::for_search`](tdts_gpu_sim::Device::for_search)) and names its
//! kernel shape per call, so every worker searches the same resident index
//! concurrently and the degraded path is that index under
//! [`KernelShape::ThreadPerQuery`]. Workers pin the engine per batch through
//! the `EngineGate`; a window advance takes the gate exclusively and runs
//! the engine's own ingest and expiry, so store, index and the fail-stop
//! ([`SearchEngine::failed`]) have one owner.
//!
//! Every piece of protocol state lives under one of the two locks the
//! service waits on. The pending-queue lock holds the queue, the admission
//! count, the stop flag, the failure streak and the degraded flag; the
//! engine gate's lock holds the engine, its pins and the window's position.
//! A flag its waiters check under a lock is only ever written under that
//! lock, so no notify can fall between a waiter's check and its wait.

// All synchronisation goes through the tdts-sync shim: in normal builds
// these are plain `std` re-exports (zero cost, byte-identical behavior);
// under the `model-check` feature every lock/wait/notify/spawn below
// becomes a schedule point the virtual scheduler can interleave.
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use tdts_sync::sync::{Condvar, Mutex};
use tdts_sync::thread::{self, JoinHandle};
use tdts_sync::time::{Duration, Instant};

use tdts_core::{PreparedDataset, QueryBatch, SearchEngine, TdtsError};
use tdts_geom::{MatchRecord, Segment, SegmentStore};
use tdts_gpu_sim::{Device, KernelShape, SearchReport};

use crate::config::ServiceConfig;
use crate::oneshot::ResponseSlot;
use crate::stats::{ServiceStats, StatsInner};

/// What a client gets back for one request.
#[derive(Debug, Clone)]
pub struct SearchResponse {
    /// This request's result records, in canonical order, with `query`
    /// renumbered to the request's own query positions.
    pub matches: Vec<MatchRecord>,
    /// The report of the whole coalesced batch this request rode in.
    pub report: SearchReport,
    /// Query segments in that batch (across all coalesced requests).
    pub batch_queries: usize,
    /// Requests coalesced into that batch.
    pub batch_requests: usize,
    /// Enqueue-to-response latency of this request.
    pub waited: Duration,
}

/// A submitted-but-unresolved request; redeem with [`SearchTicket::wait`].
pub struct SearchTicket {
    slot: Arc<ResponseSlot>,
    deadline: Option<Instant>,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for SearchTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchTicket").field("deadline", &self.deadline).finish_non_exhaustive()
    }
}

impl SearchTicket {
    /// Block until the service answers or the request's deadline passes.
    pub fn wait(self) -> Result<SearchResponse, TdtsError> {
        let result = self.slot.wait(self.deadline);
        if matches!(result, Err(TdtsError::Timeout)) {
            self.shared.stats.timed_out.fetch_add(1, Ordering::Relaxed);
        }
        result
    }
}

struct PendingSearch {
    queries: SegmentStore,
    d: f64,
    deadline: Option<Instant>,
    enqueued_at: Instant,
    slot: Arc<ResponseSlot>,
}

/// The pending queue and the protocol state its waiters check: every field
/// is read and written under the one `Shared::pending` lock.
#[derive(Default)]
struct PendingQueue {
    items: VecDeque<PendingSearch>,
    /// Total query segments across `items` (the flush trigger counts
    /// queries, not requests).
    queries: usize,
    /// Admitted requests whose tickets are not yet resolved: queued, cut or
    /// being searched. Bounded by `queue_capacity`.
    in_flight: usize,
    /// Raised by shutdown; workers exit once it is set and the queue is
    /// empty, so no admitted request is dropped.
    stopping: bool,
    /// Batches in a row that failed under the configured kernel shape.
    consecutive_failures: u32,
    /// Permanently degraded: every batch goes straight to the fallback
    /// shape.
    degraded: bool,
}

impl PendingQueue {
    /// Cut one batch: the oldest request, then later requests with the same
    /// `d` in arrival order while the batch holds fewer than `max_batch`
    /// queries (best-effort: one oversized request can still exceed it).
    /// Requests whose deadline passed by `now` are split off and their
    /// admission slots released; the caller answers them with
    /// [`TdtsError::Timeout`] once the lock is dropped.
    fn cut(&mut self, max_batch: usize, now: Instant) -> (Batch, Vec<PendingSearch>) {
        let first = self.items.pop_front().expect("a batch is cut from a non-empty queue");
        let (d, oldest) = (first.d, first.enqueued_at);
        let mut queries = first.queries.len();
        let mut requests = vec![first];
        let mut i = 0;
        while i < self.items.len() && queries < max_batch {
            if self.items[i].d.to_bits() == d.to_bits() {
                let request = self.items.remove(i).expect("index in bounds");
                queries += request.queries.len();
                requests.push(request);
            } else {
                i += 1;
            }
        }
        self.queries -= queries;
        let (expired, requests): (Vec<_>, Vec<_>) =
            requests.into_iter().partition(|r| r.deadline.is_some_and(|at| at <= now));
        self.in_flight -= expired.len();
        (Batch { requests, d, oldest, degraded: self.degraded }, expired)
    }
}

struct Batch {
    requests: Vec<PendingSearch>,
    d: f64,
    /// Enqueue time of the oldest request, for end-to-end batch latency.
    oldest: Instant,
    /// The service was degraded when the batch was cut.
    degraded: bool,
}

/// Writer-preferring reader/writer gate over the service's one
/// [`SearchEngine`]. Any number of workers pin the engine for the length of
/// a batch; a window advance keeps new pins out, waits for the live ones to
/// drop, and then holds the state lock — and with it the engine — for the
/// whole update. A batch therefore searches the pre- or the post-advance
/// generation, never a half-applied one.
struct EngineGate {
    state: Mutex<GateState>,
    /// Signalled when the last pin drops and when an update ends.
    changed_cv: Condvar,
}

struct GateState {
    engine: Arc<SearchEngine>,
    /// The window's position; only an update reads or moves it.
    window: Window,
    /// Batches currently searching a clone of `engine`.
    pins: usize,
    /// An update is waiting for `pins` to reach zero.
    updating: bool,
}

/// A worker's hold on the engine for one batch; dropping it lets a
/// waiting update through.
struct PinnedEngine<'a> {
    /// `Some` until drop, which releases the clone *before* the pin count
    /// says it is gone — the update relies on being the only owner.
    engine: Option<Arc<SearchEngine>>,
    gate: &'a EngineGate,
}

impl EngineGate {
    fn new(engine: SearchEngine) -> EngineGate {
        let frontier = engine.store().stats().map_or(0.0, |s| s.time_span.end);
        EngineGate {
            state: Mutex::new(GateState {
                engine: Arc::new(engine),
                window: Window { frontier, advances: 0 },
                pins: 0,
                updating: false,
            }),
            changed_cv: Condvar::new(),
        }
    }

    /// Pin the engine for one batch, or report the index refusal that
    /// stopped it ([`SearchEngine::failed`]): the index may then hold one
    /// delta of a tick and not the other, so nothing is served from it
    /// again.
    fn pin(&self) -> Result<PinnedEngine<'_>, TdtsError> {
        let mut state = self.state.lock().unwrap();
        while state.updating {
            state = self.changed_cv.wait(state).unwrap();
        }
        if let Some(error) = state.engine.failed() {
            return Err(error.clone());
        }
        state.pins += 1;
        Ok(PinnedEngine { engine: Some(Arc::clone(&state.engine)), gate: self })
    }

    /// Read the engine between updates.
    fn read<R>(&self, with: impl FnOnce(&SearchEngine) -> R) -> R {
        with(&self.state.lock().unwrap().engine)
    }

    /// Run `apply` with the engine and the window to itself.
    fn update<R>(&self, apply: impl FnOnce(&mut SearchEngine, &mut Window) -> R) -> R {
        let mut state = self.state.lock().unwrap();
        state.updating = true;
        while state.pins > 0 {
            state = self.changed_cv.wait(state).unwrap();
        }
        state.updating = false;
        let GateState { engine, window, .. } = &mut *state;
        let result = apply(Arc::get_mut(engine).expect("no pin outlives its count"), window);
        drop(state);
        self.changed_cv.notify_all();
        result
    }
}

impl std::ops::Deref for PinnedEngine<'_> {
    type Target = SearchEngine;

    fn deref(&self) -> &SearchEngine {
        self.engine.as_deref().expect("the engine is held until drop")
    }
}

impl Drop for PinnedEngine<'_> {
    fn drop(&mut self) {
        self.engine = None;
        // Poison-tolerant: a drop during unwinding must not panic again.
        let mut state = self.gate.state.lock().unwrap_or_else(|e| e.into_inner());
        state.pins -= 1;
        if state.pins == 0 {
            drop(state);
            self.gate.changed_cv.notify_all();
        }
    }
}

/// The sliding window's position; the store it cuts is the engine's.
struct Window {
    /// Latest `t_end` ever stored — the window's leading edge. Tracked
    /// explicitly (not re-derived from the store) because expiry never
    /// moves the frontier backwards.
    frontier: f64,
    /// Window advances so far, for the `advance_every` expiry cadence.
    advances: u64,
}

/// What one [`QueryService::advance_window`] call did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowAdvance {
    /// Segments appended this advance.
    pub ingested: usize,
    /// Segments expired this advance (0 on non-expiry ticks).
    pub expired: usize,
    /// The expiry cut applied, if this tick expired.
    pub cut: Option<f64>,
    /// Store generation after the advance.
    pub generation: u64,
}

struct Shared {
    config: ServiceConfig,
    engine: EngineGate,
    pending: Mutex<PendingQueue>,
    /// Wakes workers: on a submit, when a worker leaves requests behind
    /// after its cut, and on shutdown.
    pending_cv: Condvar,
    stats: StatsInner,
}

/// A long-lived query service over one [`PreparedDataset`].
///
/// The engine is built once at [`QueryService::start`] and shared by every
/// worker; after that, any number of client threads can [`submit`]
/// concurrently. Each worker cuts a batch of coalesced requests from the one
/// pending queue and runs it as a single kernel invocation, and the batch's
/// results are demultiplexed back to the individual clients.
///
/// [`submit`]: QueryService::submit
pub struct QueryService {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl QueryService {
    /// Build the engine over `dataset` and start the worker threads.
    pub fn start(
        dataset: &PreparedDataset,
        config: ServiceConfig,
    ) -> Result<QueryService, TdtsError> {
        config.validate()?;
        // With shards > 1 the index is a ShardedIndex: the store partitioned
        // across `shards` devices, fanned out per batch.
        let engine = if config.sharding.shards > 1 {
            SearchEngine::build_sharded(dataset, config.method, &config.device, &config.sharding)?
        } else {
            let device = Device::new(config.device.clone()).map_err(TdtsError::InvalidConfig)?;
            SearchEngine::build(dataset, config.method, device)?
        };
        let free = match engine.sharded() {
            Some(sharded) => sharded.free_device_bytes(),
            None => engine.device().map_or(0, Device::mem_available),
        };
        config.check_result_room(free)?;
        Ok(Self::launch(config, engine))
    }

    /// Start the service over a pre-built engine, skipping the build. This
    /// is the model-check seam: harnesses wrap a cheap mock index in
    /// [`SearchEngine::with_index`] so each of the checker's thousands of
    /// executions starts a real service (real workers, batch cut,
    /// admission, shutdown protocol) in microseconds.
    #[cfg(feature = "model-check")]
    pub fn start_with_engine(
        config: ServiceConfig,
        engine: SearchEngine,
    ) -> Result<QueryService, TdtsError> {
        config.validate()?;
        Ok(Self::launch(config, engine))
    }

    fn launch(config: ServiceConfig, engine: SearchEngine) -> QueryService {
        let workers = config.workers;
        let shared = Arc::new(Shared {
            config,
            engine: EngineGate::new(engine),
            pending: Mutex::new(PendingQueue::default()),
            pending_cv: Condvar::new(),
            stats: StatsInner::default(),
        });

        let workers = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        QueryService { shared, workers: Mutex::new(workers) }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.shared.config
    }

    /// A point-in-time snapshot of the service counters. Under sharded
    /// execution (`config.sharding.shards > 1`) the snapshot carries the
    /// sharded index's per-shard work counters.
    pub fn stats(&self) -> ServiceStats {
        let mut stats = self.shared.stats.snapshot();
        stats.degraded = self.shared.pending.lock().unwrap().degraded;
        stats.shards = self.shared.config.sharding.shards;
        self.shared.engine.read(|engine| {
            if let Some(sharded) = engine.sharded() {
                stats.duplicates_dropped = sharded.duplicates_dropped();
                stats.per_shard = sharded.shard_stats();
            }
        });
        stats
    }

    /// Advance the sliding time window: append `new_segments` to the
    /// engine's store and index, and — every
    /// [`ServiceConfig::advance_every`] advances — expire segments ending
    /// before `frontier - window`.
    ///
    /// Both deltas run inside one exclusive hold of the engine gate, which
    /// waits for the batches already searching to finish and holds later
    /// ones back until the engine is at the new generation:
    /// [`SearchEngine::ingest`], then [`SearchEngine::expire_before`], each
    /// changing store and index together. Only a reader holding the store (a
    /// [`store_snapshot`](QueryService::store_snapshot), or CPU-RTree's own
    /// handle) makes a delta copy it first, and that reader keeps its own
    /// generation. A query racing an advance is answered from the pre- or
    /// the post-advance generation, never a mix.
    ///
    /// Fail-stop: if the index refuses a delta the engine stops
    /// ([`SearchEngine::failed`]), so this call, every later one, and every
    /// request admitted afterwards get that error.
    ///
    /// `new_segments` must be valid, sorted by `t_start` and start no
    /// earlier than the newest stored segment (the streaming model: updates
    /// arrive time-ordered; [`SegmentStore::check_append`]); a refused
    /// batch leaves store and index untouched. Fails with
    /// [`TdtsError::InvalidConfig`] when the service was not configured with
    /// [`ServiceConfig::window`].
    pub fn advance_window(&self, new_segments: &[Segment]) -> Result<WindowAdvance, TdtsError> {
        let Some(window) = self.shared.config.window else {
            return Err(TdtsError::InvalidConfig(
                "advance_window requires a sliding window (ServiceConfig::window)".into(),
            ));
        };
        if self.shared.pending.lock().unwrap().stopping {
            return Err(TdtsError::ShuttingDown);
        }
        let every = self.shared.config.advance_every as u64;
        let (expired, cut, generation) = self.shared.engine.update(|engine, position| {
            let frontier = new_segments.iter().fold(position.frontier, |f, seg| f.max(seg.t_end));
            let advances = position.advances + 1;
            let cut = advances.is_multiple_of(every).then_some(frontier - window);
            engine.ingest(new_segments)?;
            let len = engine.store().len();
            if let Some(cut) = cut {
                engine.expire_before(cut)?;
            }
            *position = Window { frontier, advances };
            Ok::<_, TdtsError>((len - engine.store().len(), cut, engine.store().generation()))
        })?;

        let ingested = new_segments.len();
        self.shared.stats.window_advances.fetch_add(1, Ordering::Relaxed);
        self.shared.stats.segments_ingested.fetch_add(ingested as u64, Ordering::Relaxed);
        self.shared.stats.segments_expired.fetch_add(expired as u64, Ordering::Relaxed);
        Ok(WindowAdvance { ingested, expired, cut, generation })
    }

    /// The engine store's current generation (0 until the first mutation;
    /// the build generation of a freshly started service).
    pub fn generation(&self) -> u64 {
        self.shared.engine.read(|engine| engine.store().generation())
    }

    /// A snapshot handle of the engine store's current epoch.
    pub fn store_snapshot(&self) -> Arc<SegmentStore> {
        self.shared.engine.read(SearchEngine::store_arc)
    }

    /// Submit one request and block for its response, applying
    /// [`ServiceConfig::default_deadline`] if set.
    pub fn submit(&self, queries: &SegmentStore, d: f64) -> Result<SearchResponse, TdtsError> {
        let deadline = self.shared.config.default_deadline.map(|t| Instant::now() + t);
        self.submit_nowait(queries, d, deadline)?.wait()
    }

    /// Submit without blocking; redeem the ticket with
    /// [`SearchTicket::wait`]. Admission control applies here: beyond
    /// [`ServiceConfig::queue_capacity`] unfinished requests this returns
    /// [`TdtsError::Overloaded`] instead of queueing. A `d` that is NaN,
    /// negative or infinite, or a query segment that is not
    /// [valid](Segment::is_valid), is [`TdtsError::InvalidConfig`] and is
    /// never admitted.
    pub fn submit_nowait(
        &self,
        queries: &SegmentStore,
        d: f64,
        deadline: Option<Instant>,
    ) -> Result<SearchTicket, TdtsError> {
        let shared = &self.shared;
        // Before admission: a hostile threshold or segment takes no queue
        // slot and can never join a coalesced batch, where it would fail (or
        // silently change the answers of) every request batched with it.
        QueryBatch { queries, d, result_capacity: shared.config.result_capacity }.validate()?;
        let slot = Arc::new(ResponseSlot::new());
        let request = PendingSearch {
            queries: queries.iter().copied().collect(),
            d,
            deadline,
            enqueued_at: Instant::now(),
            slot: Arc::clone(&slot),
        };
        // Stop check, admission and push in one hold: workers exit once the
        // flag is up and the queue is empty, so a request admitted after
        // that would never resolve.
        let depth = {
            let mut pending = shared.pending.lock().unwrap();
            if pending.stopping {
                return Err(TdtsError::ShuttingDown);
            }
            if pending.in_flight >= shared.config.queue_capacity {
                shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(TdtsError::Overloaded);
            }
            pending.in_flight += 1;
            pending.queries += request.queries.len();
            pending.items.push_back(request);
            pending.in_flight
        };
        shared.stats.admitted.fetch_add(1, Ordering::Relaxed);
        shared.stats.max_queue_depth.fetch_max(depth as u64, Ordering::Relaxed);
        // Workers are interchangeable: whichever wakes re-checks the flush
        // triggers against the queue as it now stands.
        shared.pending_cv.notify_one();
        Ok(SearchTicket { slot, deadline, shared: Arc::clone(shared) })
    }

    /// Stop accepting requests, finish everything already admitted, and
    /// join all threads. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.shared.pending.lock().unwrap().stopping = true;
        self.shared.pending_cv.notify_all();
        for handle in self.workers.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Wait for a flush trigger — `max_batch` queries pending, the oldest
/// request `max_delay` old, or shutdown — then cut one batch and run it.
/// Exit once shutdown is raised and the queue is empty.
fn worker_loop(shared: &Shared) {
    let max_batch = shared.config.max_batch;
    let max_delay = shared.config.max_delay;
    loop {
        let (batch, expired, more) = {
            let mut pending = shared.pending.lock().unwrap();
            loop {
                match pending.items.front() {
                    None if pending.stopping => return,
                    None => pending = shared.pending_cv.wait(pending).unwrap(),
                    Some(_) if pending.stopping || pending.queries >= max_batch => break,
                    Some(oldest) => {
                        let flush_at = oldest.enqueued_at + max_delay;
                        let now = Instant::now();
                        if now >= flush_at {
                            break;
                        }
                        let (guard, _) =
                            shared.pending_cv.wait_timeout(pending, flush_at - now).unwrap();
                        pending = guard;
                    }
                }
            }
            let (batch, expired) = pending.cut(max_batch, Instant::now());
            (batch, expired, !pending.items.is_empty())
        };
        if more {
            // What this cut left behind may already be due.
            shared.pending_cv.notify_one();
        }
        // Expired requests are answered without costing kernel time; the cut
        // already released their slots.
        for request in expired {
            request.slot.fulfill(Err(TdtsError::Timeout));
        }
        if !batch.requests.is_empty() {
            run_batch(shared, batch);
        }
    }
}

fn run_batch(shared: &Shared, batch: Batch) {
    // Coalesce every request's queries into one store, remembering each
    // request's query-id range for the demux.
    let mut merged = SegmentStore::new();
    let mut ranges = Vec::with_capacity(batch.requests.len());
    for request in &batch.requests {
        let lo = merged.len() as u32;
        for seg in request.queries.iter() {
            merged.push(*seg);
        }
        ranges.push((lo, merged.len() as u32));
    }

    // Pin the engine for the whole batch: a window advance must not mutate
    // it under the search (other workers pin the same engine and search
    // alongside). The degraded path is the same resident index under the
    // simplest kernel shape: no work queue or tile list to go wrong.
    let fallback = Some(KernelShape::ThreadPerQuery);
    let capacity = shared.config.result_capacity;
    // Whether the configured shape succeeded, when this batch tried it.
    let mut configured_ok = None;
    // The engines price their work and read no clock; the batch's wall is
    // timed here, where its requests wait for it.
    let started = Instant::now();
    let result = shared.engine.pin().and_then(|engine| {
        if batch.degraded {
            return engine.search_shaped(&merged, batch.d, capacity, fallback);
        }
        let outcome = engine.search(&merged, batch.d, capacity);
        configured_ok = Some(outcome.is_ok());
        outcome.or_else(|_| engine.search_shaped(&merged, batch.d, capacity, fallback))
    });
    let searched = started.elapsed();

    // Record the outcome and release the batch's admission slots in one
    // hold, before any ticket resolves: a client answered here may submit
    // again at once and must find its slot free.
    {
        let mut pending = shared.pending.lock().unwrap();
        match configured_ok {
            Some(true) => pending.consecutive_failures = 0,
            Some(false) => {
                pending.consecutive_failures += 1;
                if pending.consecutive_failures >= shared.config.max_consecutive_failures {
                    // Degrade permanently: every later batch goes straight
                    // to the fallback shape.
                    pending.degraded = true;
                }
            }
            None => {}
        }
        pending.in_flight -= batch.requests.len();
    }

    match result {
        Ok((found, mut report)) => {
            report.wall_seconds = searched.as_secs_f64();
            if batch.degraded || configured_ok == Some(false) {
                shared.stats.fallback_batches.fetch_add(1, Ordering::Relaxed);
            }
            let done = Instant::now();
            shared.stats.record_batch(merged.len(), done - batch.oldest, &report);
            // Demux: matches are in canonical order (sorted by query id
            // first), so each request's slice is contiguous.
            for (request, &(lo, hi)) in batch.requests.iter().zip(&ranges) {
                let start = found.partition_point(|m| m.query < lo);
                let end = found.partition_point(|m| m.query < hi);
                let mut matches = found[start..end].to_vec();
                for m in &mut matches {
                    m.query -= lo;
                }
                let served = request.slot.fulfill(Ok(SearchResponse {
                    matches,
                    report,
                    batch_queries: merged.len(),
                    batch_requests: batch.requests.len(),
                    waited: done - request.enqueued_at,
                }));
                if served {
                    shared.stats.served.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Err(error) => {
            // Both shapes failed, or a failed window advance stopped the
            // service: every rider gets the typed error.
            for request in &batch.requests {
                if request.slot.fulfill(Err(error.clone())) {
                    shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}
