//! The query service: admission control → batcher → worker pool → demux.
//!
//! ```text
//!  clients ──submit──▶ [admission: bounded in-flight count]
//!                          │ PendingSearch (owned queries + oneshot slot)
//!                          ▼
//!                      [batcher thread: coalesce by d,
//!                       flush on max_batch queries or max_delay]
//!                          │ Batch
//!                          ▼
//!                      [worker pool: one shared resident index,
//!                       configured shape → ThreadPerQuery degradation]
//!                          │ per-request MatchRecord slices
//!                          ▼
//!                      [demux: remap query ids, fulfil oneshots]
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

// All synchronisation goes through the tdts-sync shim: in normal builds
// these are plain `std` re-exports (zero cost, byte-identical behavior);
// under the `model-check` feature every lock/wait/notify/spawn/atomic-op
// below becomes a schedule point the virtual scheduler can interleave.
use std::collections::VecDeque;
use std::sync::Arc;

use tdts_sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
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

#[derive(Default)]
struct PendingQueue {
    items: VecDeque<PendingSearch>,
    /// Total query segments across `items` (the flush trigger counts
    /// queries, not requests).
    queries: usize,
}

struct Batch {
    requests: Vec<PendingSearch>,
    d: f64,
    queries: usize,
    /// Enqueue time of the oldest request, for end-to-end batch latency.
    oldest: Instant,
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
        EngineGate {
            state: Mutex::new(GateState { engine: Arc::new(engine), pins: 0, updating: false }),
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

    /// Run `apply` with the engine to itself.
    fn update<R>(&self, apply: impl FnOnce(&mut SearchEngine) -> R) -> R {
        let mut state = self.state.lock().unwrap();
        state.updating = true;
        while state.pins > 0 {
            state = self.changed_cv.wait(state).unwrap();
        }
        state.updating = false;
        let result = apply(Arc::get_mut(&mut state.engine).expect("no pin outlives its count"));
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
struct StreamState {
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
    pending_cv: Condvar,
    batches: Mutex<VecDeque<Batch>>,
    batches_cv: Condvar,
    shutdown: AtomicBool,
    /// Set by the batcher after its final flush; workers only exit once the
    /// batch queue is empty *and* this is set, so no admitted request is
    /// dropped on shutdown.
    batcher_done: AtomicBool,
    in_flight: AtomicUsize,
    consecutive_failures: AtomicU32,
    stats: StatsInner,
}

/// A long-lived query service over one [`PreparedDataset`].
///
/// The engine is built once at [`QueryService::start`] and shared by every
/// worker; after that, any number of client threads can [`submit`]
/// concurrently. Requests are coalesced into batches,
/// each batch runs as a single kernel invocation on a worker, and the
/// batch's results are demultiplexed back to the individual clients.
///
/// [`submit`]: QueryService::submit
pub struct QueryService {
    shared: Arc<Shared>,
    batcher: Mutex<Option<JoinHandle<()>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Serialises window advances.
    stream: Mutex<StreamState>,
}

impl QueryService {
    /// Build the engine over `dataset` and start the batcher and worker
    /// threads.
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
    /// executions starts a real service (real batcher, workers, admission,
    /// shutdown protocol) in microseconds.
    #[cfg(feature = "model-check")]
    pub fn start_with_engine(
        config: ServiceConfig,
        engine: SearchEngine,
    ) -> Result<QueryService, TdtsError> {
        config.validate()?;
        Ok(Self::launch(config, engine))
    }

    fn launch(config: ServiceConfig, engine: SearchEngine) -> QueryService {
        let frontier = engine.store().stats().map_or(0.0, |s| s.time_span.end);
        let workers = config.workers;
        let shared = Arc::new(Shared {
            config,
            engine: EngineGate::new(engine),
            pending: Mutex::new(PendingQueue::default()),
            pending_cv: Condvar::new(),
            batches: Mutex::new(VecDeque::new()),
            batches_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            batcher_done: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            consecutive_failures: AtomicU32::new(0),
            stats: StatsInner::default(),
        });

        let batcher = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || batcher_loop(&shared))
        };
        let workers = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        QueryService {
            shared,
            batcher: Mutex::new(Some(batcher)),
            workers: Mutex::new(workers),
            stream: Mutex::new(StreamState { frontier, advances: 0 }),
        }
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
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(TdtsError::ShuttingDown);
        }
        let mut stream = self.stream.lock().unwrap();
        let frontier = new_segments.iter().fold(stream.frontier, |f, seg| f.max(seg.t_end));
        let advances = stream.advances + 1;
        let every = self.shared.config.advance_every as u64;
        let cut = advances.is_multiple_of(every).then_some(frontier - window);
        let (expired, generation) = self.shared.engine.update(|engine| {
            engine.ingest(new_segments)?;
            let len = engine.store().len();
            if let Some(cut) = cut {
                engine.expire_before(cut)?;
            }
            Ok::<_, TdtsError>((len - engine.store().len(), engine.store().generation()))
        })?;
        *stream = StreamState { frontier, advances };

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

    /// Submit one request and block for its response, failing with
    /// [`TdtsError::Timeout`] after `deadline`.
    pub fn submit_with_deadline(
        &self,
        queries: &SegmentStore,
        d: f64,
        deadline: Duration,
    ) -> Result<SearchResponse, TdtsError> {
        self.submit_nowait(queries, d, Some(Instant::now() + deadline))?.wait()
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
        if shared.shutdown.load(Ordering::SeqCst) {
            return Err(TdtsError::ShuttingDown);
        }
        let capacity = shared.config.queue_capacity;
        if shared
            .in_flight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| (n < capacity).then_some(n + 1))
            .is_err()
        {
            shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(TdtsError::Overloaded);
        }
        shared.stats.admitted.fetch_add(1, Ordering::Relaxed);
        shared
            .stats
            .max_queue_depth
            .fetch_max(shared.in_flight.load(Ordering::SeqCst) as u64, Ordering::Relaxed);

        let slot = Arc::new(ResponseSlot::new());
        let request = PendingSearch {
            queries: queries.iter().copied().collect(),
            d,
            deadline,
            enqueued_at: Instant::now(),
            slot: Arc::clone(&slot),
        };
        {
            let mut pending = shared.pending.lock().unwrap();
            // Re-check under the lock: shutdown() drains this queue, and a
            // request slipped in after the drain would never resolve.
            if shared.shutdown.load(Ordering::SeqCst) {
                drop(pending);
                shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                return Err(TdtsError::ShuttingDown);
            }
            pending.queries += request.queries.len();
            pending.items.push_back(request);
        }
        shared.pending_cv.notify_all();
        Ok(SearchTicket { slot, deadline, shared: Arc::clone(shared) })
    }

    /// Stop accepting requests, finish everything already admitted, and
    /// join all threads. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        // The stop flag must be raised while holding the pending lock:
        // the batcher checks it under that lock before parking, so an
        // unlocked store could land (with its notify wasted) in the gap
        // between the batcher's check and its wait, leaving the batcher
        // asleep forever. Found by the model checker
        // (`service/max-batch-flush`, lost-wakeup); same class as the
        // `fixture/unlocked-done-store` defect.
        {
            let _pending = self.shared.pending.lock().unwrap();
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.pending_cv.notify_all();
        if let Some(handle) = self.batcher.lock().unwrap().take() {
            let _ = handle.join();
        }
        self.shared.batches_cv.notify_all();
        for handle in self.workers.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
        // Requests that raced past the admission check after the batcher's
        // final flush: reject them rather than leave their clients hanging.
        let leftovers: Vec<PendingSearch> = {
            let mut pending = self.shared.pending.lock().unwrap();
            pending.queries = 0;
            pending.items.drain(..).collect()
        };
        for request in leftovers {
            request.slot.fulfill(Err(TdtsError::ShuttingDown));
            self.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn batcher_loop(shared: &Shared) {
    let max_batch = shared.config.max_batch;
    let max_delay = shared.config.max_delay;
    loop {
        let flush: Vec<PendingSearch> = {
            let mut pending = shared.pending.lock().unwrap();
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                if pending.queries >= max_batch {
                    break;
                }
                match pending.items.front() {
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
                    None => pending = shared.pending_cv.wait(pending).unwrap(),
                }
            }
            pending.queries = 0;
            pending.items.drain(..).collect()
        };

        let stopping = shared.shutdown.load(Ordering::SeqCst);
        if !flush.is_empty() {
            // Coalesce into per-d groups, preserving arrival order. A group
            // stops accepting once it holds max_batch queries (best-effort:
            // one oversized request can still exceed it).
            let mut groups: Vec<Batch> = Vec::new();
            for request in flush {
                let n = request.queries.len();
                match groups
                    .iter_mut()
                    .find(|b| b.d.to_bits() == request.d.to_bits() && b.queries < max_batch)
                {
                    Some(batch) => {
                        batch.queries += n;
                        batch.requests.push(request);
                    }
                    None => groups.push(Batch {
                        d: request.d,
                        queries: n,
                        oldest: request.enqueued_at,
                        requests: vec![request],
                    }),
                }
            }
            shared.batches.lock().unwrap().extend(groups);
            shared.batches_cv.notify_all();
        }
        if stopping {
            // The completion flag must be set while holding the batch-queue
            // lock. Workers check it under that lock before waiting; a bare
            // store can land in the gap between a worker's check and its
            // wait registration, and the notify below then wakes nobody —
            // the worker blocks forever. (Previously masked by shutdown()'s
            // backstop notify after joining this thread; the model
            // checker's `fixture/unlocked-done-store` reproduces the
            // unmasked defect.)
            {
                let _batches = shared.batches.lock().unwrap();
                shared.batcher_done.store(true, Ordering::SeqCst);
            }
            shared.batches_cv.notify_all();
            return;
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let batch = {
            let mut batches = shared.batches.lock().unwrap();
            loop {
                if let Some(batch) = batches.pop_front() {
                    break Some(batch);
                }
                if shared.batcher_done.load(Ordering::SeqCst) {
                    break None;
                }
                batches = shared.batches_cv.wait(batches).unwrap();
            }
        };
        match batch {
            Some(batch) => run_batch(shared, batch),
            None => return,
        }
    }
}

fn run_batch(shared: &Shared, batch: Batch) {
    // Expired requests are answered (and released from the in-flight
    // budget) without costing kernel time.
    let now = Instant::now();
    let mut live = Vec::with_capacity(batch.requests.len());
    for request in batch.requests {
        if request.deadline.is_some_and(|at| at <= now) {
            request.slot.fulfill(Err(TdtsError::Timeout));
            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        } else {
            live.push(request);
        }
    }
    if live.is_empty() {
        return;
    }

    // Coalesce every request's queries into one store, remembering each
    // request's query-id range for the demux.
    let mut merged = SegmentStore::new();
    let mut ranges = Vec::with_capacity(live.len());
    for request in &live {
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
    let mut used_fallback = shared.stats.degraded.load(Ordering::SeqCst);
    let result = shared.engine.pin().and_then(|engine| {
        if used_fallback {
            return engine.search_shaped(&merged, batch.d, capacity, fallback);
        }
        match engine.search(&merged, batch.d, capacity) {
            Ok(outcome) => {
                shared.consecutive_failures.store(0, Ordering::SeqCst);
                Ok(outcome)
            }
            Err(_) => {
                let failures = shared.consecutive_failures.fetch_add(1, Ordering::SeqCst) + 1;
                if failures >= shared.config.max_consecutive_failures {
                    // Degrade permanently: every later batch goes straight
                    // to the fallback shape.
                    shared.stats.degraded.store(true, Ordering::SeqCst);
                }
                used_fallback = true;
                engine.search_shaped(&merged, batch.d, capacity, fallback)
            }
        }
    });

    match result {
        Ok((found, report)) => {
            if used_fallback {
                shared.stats.fallback_batches.fetch_add(1, Ordering::Relaxed);
            }
            let done = Instant::now();
            shared.stats.record_batch(merged.len(), done - batch.oldest, &report);
            // Demux: matches are in canonical order (sorted by query id
            // first), so each request's slice is contiguous.
            for (request, &(lo, hi)) in live.iter().zip(&ranges) {
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
                    batch_requests: live.len(),
                    waited: done - request.enqueued_at,
                }));
                if served {
                    shared.stats.served.fetch_add(1, Ordering::Relaxed);
                }
                shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            }
        }
        Err(error) => {
            // Both shapes failed, or a failed window advance stopped the
            // service: every rider gets the typed error.
            for request in &live {
                if request.slot.fulfill(Err(error.clone())) {
                    shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                }
                shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}
