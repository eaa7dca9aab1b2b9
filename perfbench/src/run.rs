//! One benchmark run: generate inputs, set up, measure, verify, report.
//!
//! Two clocks are kept apart throughout. Host wall time (latency,
//! throughput, set-up) comes from `Instant` around the benchmark's own
//! calls. Simulated device seconds come from the `SearchReport`s the
//! program returns and never include `Phase::HostCompute`, which is
//! measured wall time the simulator folds into its ledger.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use tdts_core::{brute_force_search, Method, PreparedDataset, SearchEngine, ShardedIndexConfig};
use tdts_geom::{MatchRecord, SegmentStore};
use tdts_gpu_sim::{Device, Phase, SearchReport};
use tdts_rtree::RTreeConfig;
use tdts_service::{QueryService, SearchResponse, ServiceConfig, ServiceStats};

use crate::inputs::{
    merged, Inputs, Sizes, Workload, D, QUERY_SETS, RESULT_CAPACITY, SHARDS, WINDOW_STEPS,
};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::rig::Rig;
use crate::stats::{mean, median, percentile};
use crate::trace::{self, Tracer};

/// Slices of the measured phase; see `run`.
const SLICES: usize = 5;

/// Per-layer quantities read off a `SearchReport`, in `WORK_NAMES` order,
/// held as `f64` so reports add, scale and divide uniformly (every count
/// here stays far below 2^53).
#[derive(Debug, Clone, Copy, Default)]
pub struct Work([f64; WORK_NAMES.len()]);

const WORK_NAMES: [&str; 19] = [
    "gpu-sim.h2d_sim_s",
    "gpu-sim.launch_sim_s",
    "gpu-sim.kernel_exec_sim_s",
    "gpu-sim.d2h_sim_s",
    "gpu-sim.host_compute_s",
    "kernels.comparisons",
    "kernels.raw_matches",
    "kernels.matches",
    "gpu-sim.kernel_invocations",
    "gpu-sim.redo_rounds",
    "gpu-sim.instructions",
    "gpu-sim.gmem_read_bytes",
    "gpu-sim.gmem_write_bytes",
    "gpu-sim.atomics",
    "gpu-sim.h2d_bytes",
    "gpu-sim.d2h_bytes",
    "gpu-sim.divergent_warps",
    "gpu-sim.tiles_dispatched",
    "gpu-sim.load_spread",
];

impl Work {
    pub fn of(r: &SearchReport) -> Work {
        Work([
            r.response.get(Phase::HostToDevice),
            r.response.get(Phase::KernelLaunch),
            r.response.get(Phase::KernelExec),
            r.response.get(Phase::DeviceToHost),
            r.response.get(Phase::HostCompute),
            r.comparisons as f64,
            r.raw_matches as f64,
            r.matches as f64,
            r.response.kernel_invocations as f64,
            r.redo_rounds as f64,
            r.totals.instructions as f64,
            r.totals.gmem_read_bytes as f64,
            r.totals.gmem_write_bytes as f64,
            r.totals.atomics as f64,
            r.response.h2d_bytes as f64,
            r.response.d2h_bytes as f64,
            r.divergent_warps as f64,
            r.load.tiles_dispatched as f64,
            r.load.spread(),
        ])
    }

    /// `self += other * share`.
    fn add_scaled(&mut self, other: &Work, share: f64) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b * share;
        }
    }

    /// Simulated device seconds: H2D + launch + kernel + D2H, never
    /// `HostCompute`.
    pub fn simulated(&self) -> f64 {
        self.0[..4].iter().sum()
    }

    fn host_compute(&self) -> f64 {
        self.0[4]
    }

    fn comparisons(&self) -> f64 {
        self.0[5]
    }
}

/// Largest relative difference in simulated seconds between passes over
/// the same input — 0 when the cost model is deterministic.
#[derive(Debug, Default)]
pub struct Repeat(BTreeMap<usize, (f64, f64)>);

impl Repeat {
    /// Key offset of the rig's passes, apart from the timed calls'.
    pub const RIG: usize = 1 << 32;

    pub fn note(&mut self, key: usize, simulated: f64) {
        let e = self.0.entry(key).or_insert((simulated, simulated));
        *e = (e.0.min(simulated), e.1.max(simulated));
    }

    pub fn spread(&self) -> f64 {
        self.0
            .values()
            .map(|(lo, hi)| if *lo > 0.0 { (hi - lo) / lo } else { 0.0 })
            .fold(0.0, f64::max)
    }
}

enum System {
    Engine(SearchEngine),
    Service(QueryService),
}

/// A service burst kept for verification: the requests and what came back.
struct Kept {
    requests: Vec<SegmentStore>,
    responses: Vec<Vec<MatchRecord>>,
}

struct OpResult {
    latency: f64,
    failed: bool,
    work: Work,
}

#[derive(Default)]
struct PhaseResult {
    latencies_ms: Vec<f64>,
    wall: f64,
    failed: usize,
    work: Work,
    /// Simulated device time in whole picoseconds. An integer sum does not
    /// depend on how many cycles fitted into the phase, so `sim_device_s`
    /// repeats bit for bit whenever the cost model does.
    simulated_ps: u64,
}

impl PhaseResult {
    fn ops(&self) -> usize {
        self.latencies_ms.len()
    }
}

struct Runner<'a> {
    workload: Workload,
    inputs: &'a Inputs,
    system: System,
    /// Next op; a stream op `i` is tick (timestep) `WINDOW_STEPS + i`.
    op: usize,
    /// Direct workloads: the first result of each query set. Every later
    /// pass must equal it; verification checks it against the references.
    reference: Vec<Vec<MatchRecord>>,
    kept: Vec<Kept>,
    repeat: Repeat,
    submit_us: Vec<f64>,
    waited_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
    advance_ms: Vec<f64>,
    rig: Option<Rig>,
}

impl<'a> Runner<'a> {
    /// One cold set-up: canonicalise the database, build the engine or
    /// start the service, and run the warm-up ops (lazy transposes, first
    /// page touches). Returns the runner and the set-up's wall seconds.
    fn setup(workload: Workload, inputs: &'a Inputs, tr: &mut Tracer) -> (Runner<'a>, f64) {
        let store = inputs.base.clone(); // input, cloned outside the clock
        let root = tr.begin("setup");
        let (dataset, _) = tr.time("geom.prepare_sort_s", || PreparedDataset::new(store));
        tr.time("geom.stats_s", || dataset.store().stats());
        let system = match workload {
            Workload::BatchTemporal => {
                let (device, _) = tr.time("gpu-sim.device_new_s", || {
                    Device::new(workload.device()).expect("valid device config")
                });
                let (engine, _) = tr.time("core.engine_build_s", || {
                    SearchEngine::build(&dataset, workload.method(), device)
                });
                System::Engine(engine.expect("engine build"))
            }
            Workload::ShardedSpatioTemporal => {
                let sharding = ShardedIndexConfig::builder().shards(SHARDS).build();
                let (engine, _) = tr.time("core.sharded_build_s", || {
                    SearchEngine::build_sharded(
                        &dataset,
                        workload.method(),
                        &workload.device(),
                        &sharding.expect("valid shard config"),
                    )
                });
                System::Engine(engine.expect("sharded engine build"))
            }
            Workload::ServiceBurst | Workload::ServiceStream => {
                let mut config = ServiceConfig::builder(workload.method())
                    .device(workload.device())
                    .workers(2)
                    .max_batch(128)
                    .max_delay(Duration::from_millis(2))
                    .result_capacity(RESULT_CAPACITY);
                if workload == Workload::ServiceStream {
                    config = config.window(WINDOW_STEPS as f64).advance_every(1);
                }
                let config = config.build().expect("valid service config");
                let (service, _) =
                    tr.time("service.start_s", || QueryService::start(&dataset, config));
                System::Service(service.expect("service start"))
            }
        };
        let mut runner = Runner {
            workload,
            inputs,
            system,
            op: 0,
            reference: Vec::new(),
            kept: Vec::new(),
            repeat: Repeat::default(),
            submit_us: Vec::new(),
            waited_ms: Vec::new(),
            overhead_ms: Vec::new(),
            advance_ms: Vec::new(),
            rig: None,
        };
        let warm = tr.begin("warmup");
        let warm_ops = match workload {
            Workload::BatchTemporal | Workload::ShardedSpatioTemporal => QUERY_SETS,
            Workload::ServiceBurst => 4,
            Workload::ServiceStream => 2,
        };
        for _ in 0..warm_ops {
            let warmed = runner.run_op(tr);
            assert!(!warmed.failed, "warm-up op failed");
        }
        tr.end(warm);
        let seconds = tr.end(root);
        if workload != Workload::ServiceStream {
            runner.op = 0; // cycled inputs start over; stream ticks go on
        }
        // Drop what the warm-up recorded, so samples are the measured ops'.
        runner.kept.clear();
        runner.submit_us.clear();
        runner.waited_ms.clear();
        runner.overhead_ms.clear();
        runner.advance_ms.clear();
        (runner, seconds)
    }

    fn service(&self) -> &QueryService {
        match &self.system {
            System::Service(service) => service,
            System::Engine(_) => unreachable!("service workload holds a service"),
        }
    }

    fn exhausted(&self) -> bool {
        self.workload == Workload::ServiceStream
            && WINDOW_STEPS + self.op >= self.inputs.steps.len()
    }

    /// Ops after which the inputs repeat; phases end on such a boundary
    /// so every pass sees every query set equally often.
    fn cycle(&self) -> usize {
        if self.workload.is_service() {
            1
        } else {
            QUERY_SETS
        }
    }

    /// Run ops for `seconds` (or exactly `fixed_ops`), closed loop, one
    /// generator thread.
    fn phase(&mut self, tr: &mut Tracer, seconds: f64, fixed_ops: Option<usize>) -> PhaseResult {
        let mut phase = PhaseResult::default();
        let start = Instant::now();
        loop {
            let done = phase.ops();
            let finished = match fixed_ops {
                Some(n) => done >= n,
                None => {
                    done > 0
                        && done.is_multiple_of(self.cycle())
                        && start.elapsed().as_secs_f64() >= seconds
                }
            };
            if finished || self.exhausted() {
                break;
            }
            let result = self.run_op(tr);
            phase.latencies_ms.push(result.latency * 1e3);
            phase.failed += usize::from(result.failed);
            phase.work.add_scaled(&result.work, 1.0);
            phase.simulated_ps += (result.work.simulated() * 1e12).round() as u64;
        }
        phase.wall = start.elapsed().as_secs_f64();
        phase
    }

    /// One op: inputs prepared first, then the timed call under the
    /// `timed` span, then checks and (traced run) the rig's probes.
    fn run_op(&mut self, tr: &mut Tracer) -> OpResult {
        let op = self.op;
        self.op += 1;
        let inputs = self.inputs;
        tr.set_op(op as i64);
        let root = tr.begin("op");
        let result = match self.workload {
            Workload::BatchTemporal | Workload::ShardedSpatioTemporal => self.direct_op(tr, op),
            Workload::ServiceBurst => {
                let index = op % inputs.bursts.len();
                let requests = &inputs.bursts[index];
                let timed = tr.begin("timed");
                let (responses, failed) = self.burst(tr, requests);
                let latency = tr.end(timed);
                if op.is_multiple_of(10) && self.kept.len() < 32 {
                    self.keep(requests, &responses);
                }
                if tr.enabled {
                    self.probe(tr, &merged(requests), index);
                }
                OpResult { latency, failed, work: self.burst_work(&responses) }
            }
            Workload::ServiceStream => {
                let tick = WINDOW_STEPS + op;
                let new = &inputs.steps[tick];
                let requests = inputs.stream_burst(tick);
                let timed = tr.begin("timed");
                let (advance, seconds) =
                    tr.time("service.advance_window", || self.service().advance_window(new));
                self.advance_ms.push(seconds * 1e3);
                let (responses, mut failed) = self.burst(tr, &requests);
                let latency = tr.end(timed);
                let cut = match advance {
                    Ok(advance) => advance.cut,
                    Err(error) => {
                        eprintln!("perf: tick {tick}: advance_window failed: {error}");
                        failed = true;
                        None
                    }
                };
                // Only the latest tick is kept: verification rebuilds cold
                // from the final store, which only it was answered from.
                self.kept.clear();
                self.keep(&requests, &responses);
                if let Some(rig) = &mut self.rig {
                    rig.advance(tr, new, cut);
                }
                if tr.enabled {
                    self.probe(tr, &merged(&requests), tick);
                }
                OpResult { latency, failed, work: self.burst_work(&responses) }
            }
        };
        tr.end(root);
        tr.set_op(-1);
        result
    }

    fn direct_op(&mut self, tr: &mut Tracer, op: usize) -> OpResult {
        let inputs = self.inputs;
        let set = op % inputs.query_sets.len();
        let queries = &inputs.query_sets[set];
        let System::Engine(engine) = &self.system else {
            unreachable!("direct workload holds an engine")
        };
        let (result, latency) = tr.time("timed", || engine.search(queries, D, RESULT_CAPACITY));
        let (failed, work) = match result {
            Ok((matches, report)) => {
                let work = Work::of(&report);
                self.repeat.note(set, work.simulated());
                let consistent = report.matches as usize == matches.len();
                let same = match self.reference.get(set) {
                    Some(reference) => *reference == matches,
                    None => {
                        self.reference.push(matches);
                        true
                    }
                };
                (!(consistent && same), work)
            }
            Err(error) => {
                eprintln!("perf: op {op}: search failed: {error}");
                (true, Work::default())
            }
        };
        self.probe(tr, queries, set);
        OpResult { latency, failed, work }
    }

    /// Submit every request of a burst without waiting, then wait for all.
    /// An error, `Overloaded` or `Timeout` fails the op.
    fn burst(&mut self, tr: &mut Tracer, requests: &[SegmentStore]) -> (Vec<SearchResponse>, bool) {
        let root = tr.begin("service.burst");
        let mut failed = false;
        let mut tickets = Vec::with_capacity(requests.len());
        for request in requests {
            let (ticket, seconds) =
                tr.time("service.submit", || self.service().submit_nowait(request, D, None));
            self.submit_us.push(seconds * 1e6);
            match ticket {
                Ok(ticket) => tickets.push(ticket),
                Err(error) => {
                    eprintln!("perf: submit failed: {error}");
                    failed = true;
                }
            }
        }
        let mut responses = Vec::with_capacity(tickets.len());
        for ticket in tickets {
            match tr.time("service.wait", || ticket.wait()).0 {
                Ok(response) => {
                    let waited_ms = response.waited.as_secs_f64() * 1e3;
                    self.waited_ms.push(waited_ms);
                    // Queueing + batching + demux: what this request waited
                    // beyond its own batch's search.
                    self.overhead_ms.push(waited_ms - response.report.wall_seconds * 1e3);
                    responses.push(response);
                }
                Err(error) => {
                    eprintln!("perf: request failed: {error}");
                    failed = true;
                }
            }
        }
        tr.end(root);
        (responses, failed)
    }

    /// The work of one burst: each response carries its whole batch's
    /// report, so a batch of `n` requests counts `1/n` per response.
    fn burst_work(&self, responses: &[SearchResponse]) -> Work {
        let mut work = Work::default();
        for response in responses {
            work.add_scaled(&Work::of(&response.report), 1.0 / response.batch_requests as f64);
        }
        work
    }

    fn keep(&mut self, requests: &[SegmentStore], responses: &[SearchResponse]) {
        if responses.len() == requests.len() {
            self.kept.push(Kept {
                requests: requests.to_vec(),
                responses: responses.iter().map(|r| r.matches.clone()).collect(),
            });
        }
    }

    fn probe(&mut self, tr: &mut Tracer, queries: &SegmentStore, key: usize) {
        if let (true, Some(rig)) = (tr.enabled, &mut self.rig) {
            rig.probe(tr, queries, key, &mut self.repeat);
        }
    }

    /// The store the system answers from right now (sorted by `t_start`).
    fn current_store(&self) -> SegmentStore {
        match &self.system {
            System::Engine(engine) => engine.store().clone(),
            System::Service(service) => service.store_snapshot().as_ref().clone(),
        }
    }

    /// Check results against independent references; returns the number
    /// of mismatches (each counts as a failed op).
    fn verify(&self) -> usize {
        match self.workload {
            Workload::BatchTemporal | Workload::ShardedSpatioTemporal => {
                verify_direct(self.inputs, &self.reference)
            }
            // Every kept burst's requests alone through a direct engine:
            // cold-built on the final store for the stream workload.
            Workload::ServiceBurst | Workload::ServiceStream => {
                let dataset = PreparedDataset::new(self.current_store());
                let device = Device::new(self.workload.device()).expect("valid device config");
                let engine = SearchEngine::build(&dataset, self.workload.method(), device)
                    .expect("reference engine");
                let mut mismatches = 0;
                for kept in &self.kept {
                    for (request, got) in kept.requests.iter().zip(&kept.responses) {
                        let (want, _) =
                            engine.search(request, D, RESULT_CAPACITY).expect("reference search");
                        mismatches += usize::from(*got != want);
                    }
                }
                mismatches + usize::from(self.kept.is_empty())
            }
        }
    }
}

/// Direct workloads: every query set's records byte for byte against
/// `CpuRTree` on the same prepared dataset, and a 32-query sample of the
/// first set against the exhaustive `brute_force_search`.
pub fn verify_direct(inputs: &Inputs, reference: &[Vec<MatchRecord>]) -> usize {
    let dataset = PreparedDataset::new(inputs.base.clone());
    let device = Device::new(Workload::BatchTemporal.device()).expect("valid device config");
    let rtree = SearchEngine::build(&dataset, Method::CpuRTree(RTreeConfig::default()), device)
        .expect("r-tree build");
    let mut mismatches = usize::from(reference.len() != inputs.query_sets.len());
    for (queries, got) in inputs.query_sets.iter().zip(reference) {
        let (want, _) = rtree.search(queries, D, RESULT_CAPACITY).expect("r-tree search");
        mismatches += usize::from(*got != want);
    }
    if let (Some(queries), Some(got)) = (inputs.query_sets.first(), reference.first()) {
        let stride = (queries.len() / 32).max(1);
        let picks: Vec<usize> = (0..queries.len()).step_by(stride).take(32).collect();
        let sample: SegmentStore = picks.iter().map(|&q| *queries.get(q)).collect();
        let want = brute_force_search(dataset.store(), &sample, D);
        let got: Vec<MatchRecord> = picks
            .iter()
            .enumerate()
            .flat_map(|(i, &q)| {
                let lo = got.partition_point(|m| (m.query as usize) < q);
                let hi = got.partition_point(|m| (m.query as usize) <= q);
                got[lo..hi].iter().map(move |m| MatchRecord { query: i as u32, ..*m })
            })
            .collect();
        mismatches += usize::from(got != want);
    }
    mismatches
}

/// `VmHWM` of this process in MiB (0 where `/proc` is absent).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

pub struct Outcome {
    pub workload: Workload,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// `(name, unit, value)` — the end-to-end metrics, or with tracing on
    /// the per-layer ones.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Sample counts and findings, for the human-readable report.
    pub notes: Vec<String>,
}

/// Run one workload. With `trace` the process also builds the probe rig,
/// repeats the ops under spans, writes the span file and reports per-layer
/// metrics; the end-to-end metrics always come from the untraced ops.
pub fn run(workload: Workload, seed: u64, sizes: &Sizes, trace: bool) -> Outcome {
    let inputs = Inputs::generate(workload, seed, sizes);
    let mut tr = Tracer::new(trace);
    let mut notes = Vec::new();

    // Cold set-ups, each dropped before the next; the last one is measured.
    // The traced run reports its single set-up layer by layer instead.
    let setups = if trace { 1 } else { sizes.setups };
    let mut setup_seconds = Vec::with_capacity(setups);
    let mut runner = None;
    for _ in 0..setups {
        drop(runner.take());
        let (built, seconds) = Runner::setup(workload, &inputs, &mut tr);
        setup_seconds.push(seconds);
        runner = Some(built);
    }
    let mut runner = runner.expect("at least one set-up");
    if trace {
        runner.rig = Some(Rig::build(&mut tr, workload, runner.current_store()));
    }

    // Measured phase, tracing off, cut into `SLICES` equal slices. This
    // host's speed swings by a fifth for seconds at a time (README, "Noise
    // findings"); interference only ever slows an op down, so the
    // least-disturbed slice is the steadiest estimate of the system's own
    // cost. The traced run spends a quarter of its time here, for the
    // overhead ratio, and the rest under spans.
    tr.enabled = false;
    let untraced_seconds = if trace { sizes.seconds / 4.0 } else { sizes.seconds };
    let slice_count = if trace || sizes.fixed_ops.is_some() { 1 } else { SLICES };
    let slices: Vec<PhaseResult> = (0..slice_count)
        .map(|_| runner.phase(&mut tr, untraced_seconds / slice_count as f64, sizes.fixed_ops))
        .collect();
    let peak_rss = peak_rss_mb(); // before verification builds its references
    let mut untraced = PhaseResult::default();
    for slice in &slices {
        untraced.latencies_ms.extend(&slice.latencies_ms);
        untraced.failed += slice.failed;
        untraced.work.add_scaled(&slice.work, 1.0);
        untraced.simulated_ps += slice.simulated_ps;
    }
    tr.enabled = trace;
    let traced = if trace {
        runner.phase(&mut tr, sizes.seconds - untraced_seconds, sizes.fixed_ops)
    } else {
        PhaseResult::default()
    };

    let service_stats: Option<ServiceStats> = match &runner.system {
        System::Service(service) => {
            tr.time("service.shutdown_s", || service.shutdown());
            Some(service.stats())
        }
        System::Engine(_) => None,
    };
    let (mismatches, verify_seconds) = tr.time("core.verify_s", || runner.verify());

    let attempted = untraced.ops() + traced.ops();
    let failed = untraced.failed + traced.failed + mismatches;
    let ops = untraced.ops() as f64;
    notes.push(format!(
        "ops: {} measured in {} slices ({} beyond p90 per slice), {} traced; set-ups: {}; \
         verification mismatches: {}",
        untraced.ops(),
        slices.len(),
        untraced.ops() / slices.len() / 10,
        traced.ops(),
        setup_seconds.len(),
        mismatches
    ));
    let repeat_spread = runner.repeat.spread();
    notes.push(format!(
        "sizes: {} database segments, comparisons/op {:.0}, sim_repeat_spread {repeat_spread}",
        inputs.base.len(),
        untraced.work.comparisons() / ops,
    ));

    let metrics = if trace {
        let mut set: BTreeMap<&str, f64> = BTreeMap::new();
        let traced_ops = traced.ops().max(1) as f64;
        for (name, total) in WORK_NAMES.iter().zip(traced.work.0) {
            set.insert(name, total / traced_ops);
        }
        let traced_wall: f64 = traced.latencies_ms.iter().sum::<f64>() / 1e3;
        set.insert("kernels.comparisons_per_wall_s", traced.work.comparisons() / traced_wall);
        set.insert("gpu-sim.sim_repeat_spread", repeat_spread);
        set.insert(
            "trace.overhead_ratio",
            median(&traced.latencies_ms) / median(&untraced.latencies_ms),
        );
        set.insert("gen.dataset_s", inputs.gen_seconds);
        set.insert("core.verify_s", verify_seconds);
        set.insert(
            "core.shard_overhead_s",
            tr.median_duration("core.sharded_search_s")
                - tr.median_duration("core.engine_search_s"),
        );
        if let Some(rig) = &runner.rig {
            let probes = rig.probes.max(1) as f64;
            set.insert("geom.replication_factor", rig.replication_factor);
            set.insert(
                "index-spatiotemporal.fallback_queries",
                rig.fallback_queries as f64 / probes,
            );
            set.insert("core.shard_queries_routed", rig.shard_queries_routed as f64 / probes);
            set.insert("core.shard_queries_skipped", rig.shard_queries_skipped as f64 / probes);
            set.insert("core.budget_redos", rig.budget_redos as f64 / probes);
            set.insert("core.duplicates_dropped", rig.duplicates_dropped as f64 / probes);
        }
        if let Some(stats) = &service_stats {
            let batches = stats.batches_executed.max(1) as f64;
            set.insert("service.submit_p50_us", median(&runner.submit_us));
            set.insert("service.request_waited_p50_ms", median(&runner.waited_ms));
            set.insert("service.request_waited_p99_ms", percentile(&runner.waited_ms, 0.99));
            set.insert("service.overhead_ms", median(&runner.overhead_ms));
            set.insert("service.batches_executed", stats.batches_executed as f64);
            set.insert("service.mean_batch_queries", stats.mean_batch_queries);
            set.insert("service.mean_batch_requests", stats.requests_served as f64 / batches);
            set.insert("service.max_queue_depth", stats.max_queue_depth as f64);
            set.insert("service.fallback_batches", stats.fallback_batches as f64);
            set.insert("service.requests_rejected", stats.requests_rejected as f64);
            set.insert("service.requests_timed_out", stats.requests_timed_out as f64);
            set.insert("service.requests_failed", stats.requests_failed as f64);
            set.insert("service.advance_window_p50_ms", median(&runner.advance_ms));
            set.insert("service.advance_window_p90_ms", percentile(&runner.advance_ms, 0.9));
            set.insert("service.segments_ingested", stats.segments_ingested as f64);
            set.insert("service.segments_expired", stats.segments_expired as f64);
        }
        notes.extend(dominant_layers(&tr, &traced, &runner));
        match write_spans(workload, &tr) {
            Ok(path) => {
                notes.push(format!("spans: {} written to {}", tr.spans().len(), path.display()))
            }
            Err(error) => notes.push(format!("spans: not written ({error})")),
        }
        // Anything not set explicitly is a time: the median of its spans,
        // or 0 for a layer this workload never entered.
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| {
                let value = set.get(name).copied().unwrap_or_else(|| tr.median_duration(name));
                (*name, *unit, value)
            })
            .collect()
    } else {
        let best =
            |of: fn(&PhaseResult) -> f64| slices.iter().map(of).fold(f64::INFINITY, f64::min);
        let values = [
            median(&setup_seconds),
            best(|s| median(&s.latencies_ms)),
            best(|s| percentile(&s.latencies_ms, 0.9)),
            1.0 / best(|s| s.wall / s.ops() as f64),
            untraced.simulated_ps as f64 / ops / 1e12,
            peak_rss,
        ];
        END_TO_END.iter().zip(values).map(|(g, v)| (g.name, g.unit, v)).collect()
    };

    Outcome { workload, correct: failed == 0, attempted, failed, metrics, notes }
}

/// Where each workload's time goes, from the traced ops: the share its
/// "why" in `BENCHMARK.json` names, and the top self times.
fn dominant_layers(tr: &Tracer, traced: &PhaseResult, runner: &Runner<'_>) -> Vec<String> {
    let op_ms = mean(&traced.latencies_ms);
    let mut notes = Vec::new();
    match runner.workload {
        Workload::BatchTemporal => {
            let host_ms = traced.work.host_compute() / traced.ops().max(1) as f64 * 1e3;
            notes.push(format!(
                "dominant: kernel simulation {:.1}% of op wall (HostCompute {host_ms:.2} ms of {op_ms:.2} ms)",
                (1.0 - host_ms / op_ms) * 100.0
            ));
        }
        Workload::ShardedSpatioTemporal => {
            let sharded = tr.median_duration("core.sharded_search_s");
            let unsharded = tr.median_duration("core.engine_search_s");
            notes.push(format!(
                "dominant: shard overhead {:.1}% of a sharded search ({:.2} ms sharded, {:.2} ms unsharded)",
                (sharded - unsharded) / sharded * 100.0,
                sharded * 1e3,
                unsharded * 1e3
            ));
        }
        Workload::ServiceBurst => {
            let waited = median(&runner.waited_ms);
            notes.push(format!(
                "dominant: a request waits {waited:.2} ms (p50) of a {op_ms:.2} ms burst; {} requests sampled",
                runner.waited_ms.len()
            ));
        }
        Workload::ServiceStream => {
            let advance = mean(&runner.advance_ms);
            notes.push(format!(
                "dominant: ingest/expire {:.1}% of a tick ({advance:.2} ms of {op_ms:.2} ms)",
                advance / op_ms * 100.0
            ));
        }
    }
    let top: Vec<String> = trace::self_time_by_name(tr.spans())
        .iter()
        .take(6)
        .map(|(name, seconds)| format!("{name} {seconds:.3}s"))
        .collect();
    notes.push(format!("self time, top spans: {}", top.join(", ")));
    notes
}

/// The span file goes beside the executable — inside the build directory,
/// which is ignored by git and lies inside the checkout.
fn write_spans(workload: Workload, tr: &Tracer) -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let path = exe.with_file_name(format!("perf-trace-{}.json", workload.name()));
    std::fs::write(&path, trace::render_json(tr.spans()))?;
    Ok(path)
}
