//! Kernel launch machinery and the SIMT cost model.
//!
//! # Execution
//!
//! A launch of `n` threads is partitioned into warps of
//! [`DeviceConfig::warp_size`] consecutive global ids. Warps execute in
//! parallel on the host's cores through [`tdts_geom::par::par_ordered`],
//! the workspace's one host-parallel loop (a scoped thread per core for
//! the launch); within a warp, lanes run sequentially (their *results* are
//! identical to lock-step execution because lanes only communicate through
//! device atomics).
//!
//! # Cost model
//!
//! For each warp, with `k` = number of distinct control-path tags among its
//! lanes (see [`Lane::set_path`]):
//!
//! ```text
//! alu_cycles   = k * max_over_lanes(instructions) * cycles_per_instr
//! mem_cycles   = ceil(sum_bytes / gmem_transaction_bytes)
//!                  * cycles_per_gmem_transaction
//!                  * (uncoalesced_factor if k > 1 else 1)
//! atom_cycles  = sum_over_lanes(atomics) * cycles_per_atomic
//! warp_cycles  = alu_cycles + mem_cycles + atom_cycles
//! ```
//!
//! The `k` multiplier models serialisation of divergent paths; atomics use
//! the *sum* because contended atomics to shared cursors serialise across
//! lanes. Warps are assigned round-robin to SMs; an SM's cycles are the sum
//! of its warps' cycles divided by the occupancy (latency-hiding) factor, and
//! the kernel's execution time is the maximum over SMs divided by the clock.
//! Every quantity is a deterministic function of the recorded counters.
//!
//! # Warp-scoped launches
//!
//! [`crate::Device::launch_warps`] hands the kernel a whole [`Warp`] instead
//! of individual lanes, so kernels can run a *per-warp epilogue* after the
//! lane loop — the simulated analogue of warp-level primitives
//! (`__ballot_sync`/`__shfl_sync` + a leader `atomicAdd`). Costs recorded on
//! the warp itself (via [`Warp::instr`] etc.) are charged *converged*: no
//! divergence multiplier on instructions and no uncoalesced factor on memory
//! traffic, because all lanes execute the epilogue together and commit
//! writes are contiguous.
//!
//! Lane work runs on host threads in whatever order they get to it. An
//! epilogue that commits to a buffer that can fill is therefore passed
//! separately ([`crate::Device::launch_warps_ordered`],
//! [`crate::Device::launch_persistent_ordered`]) and run one warp at a
//! time, in warp order: which commit crosses the capacity, which queries
//! are redone, and every counter of every later round are then a function
//! of the launch alone.
//!
//! # Host bookkeeping
//!
//! What the host does per warp (for a persistent launch, per tile) besides
//! the kernel's own work is kept to a few words, so host time follows the
//! counted work:
//!
//! * Each host worker keeps one [`Warp`] for the whole launch. Its lanes are
//!   reset, not rebuilt, between warps: `Warp::retire` reduces the lanes'
//!   counters and path tags to the warp's lane cost (`max_over_lanes`, the
//!   sums and `k`) and clears them in the same pass.
//! * The body hands its epilogue only that lane cost, the warp-scoped
//!   counters and what the kernel staged. A kernel's per-worker scratch (a
//!   persistent launch's `U`) holds what should outlive a tile, such as the
//!   one [`crate::WarpStash`] a worker stages every tile's records in.
//! * The ordered pass that runs the epilogues also prices each warp and,
//!   for a persistent launch, replays the work-queue cursor
//!   (`EarliestFree`) tile by tile: no per-tile cost list is kept and no
//!   second serial pass runs after the launch.

use crate::config::DeviceConfig;
use crate::counters::{Counters, Lane};
use crate::sanitizer::Sanitizer;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Kernel-shape label of static-grid launches in sanitizer findings.
pub(crate) const SHAPE_STATIC: &str = "static-grid";
/// Kernel-shape label of persistent work-queue launches.
pub(crate) const SHAPE_PERSISTENT: &str = "persistent-warp-per-tile";

/// Maximum lanes per warp supported by the simulator: warp-aggregated
/// commits track per-lane drop bits in a `u64` mask
/// (see [`crate::memory::WarpStash`]).
pub const MAX_WARP_LANES: usize = 64;

/// Execution context for one warp, handed to kernels launched via
/// [`crate::Device::launch_warps`].
///
/// Lane work happens inside [`Warp::for_each_lane`]; anything recorded on
/// the warp afterwards (the epilogue) is charged at converged-execution
/// rates — see the module docs.
#[derive(Debug)]
pub struct Warp {
    index: usize,
    lanes: Vec<Lane>,
    lane_count: usize,
    counters: Counters,
}

impl Warp {
    pub(crate) fn with_lanes(index: usize, lanes: Vec<Lane>) -> Self {
        debug_assert!(lanes.len() <= MAX_WARP_LANES);
        Warp { index, lane_count: lanes.len(), lanes, counters: Counters::default() }
    }

    /// A detached warp of `lane_count` fresh lanes (global ids `0..count`).
    /// Kernels receive warps from the launch machinery; this constructor
    /// exists so warp-scoped helpers can be unit tested without a launch.
    pub fn standalone(lane_count: usize) -> Self {
        assert!((1..=MAX_WARP_LANES).contains(&lane_count));
        Warp::with_lanes(0, (0..lane_count).map(|gid| Lane::at(gid, gid)).collect())
    }

    /// Make this warp warp `index` of a launch, its lanes carrying the
    /// global ids `gids` (at most [`MAX_WARP_LANES`]). The lanes come in
    /// clean from the previous warp's [`Warp::retire`], so only their ids are
    /// rewritten; a launch worker keeps one `Warp` for all its warps.
    fn reset(&mut self, index: usize, gids: Range<usize>) {
        debug_assert!(gids.len() <= MAX_WARP_LANES);
        self.index = index;
        self.counters = Counters::default();
        self.lane_count = gids.len();
        if self.lanes.len() == gids.len() {
            for (lane, gid) in self.lanes.iter_mut().zip(gids) {
                lane.global_id = gid;
            }
        } else {
            let first = gids.start;
            self.lanes.clear();
            self.lanes.extend(gids.map(|gid| Lane::at(gid, gid - first)));
        }
    }

    /// Retire the lanes: reduce their counters and path tags to the warp's
    /// [`LaneCost`] and clear them for the next [`Warp::reset`], in one pass.
    fn retire(&mut self) -> LaneCost {
        let mut max_instructions = 0;
        let mut totals = Counters::default();
        let first = self.lanes.first().map_or(0, |lane| lane.path);
        let mut uniform = true;
        for lane in &mut self.lanes {
            let counters = std::mem::take(&mut lane.counters);
            max_instructions = max_instructions.max(counters.instructions);
            totals.add(&counters);
            uniform &= lane.path == first;
        }
        let paths = if uniform { 1 } else { distinct_paths(&self.lanes) };
        if first != 0 || !uniform {
            self.lanes.iter_mut().for_each(|lane| lane.path = 0);
        }
        LaneCost { max_instructions, paths, totals }
    }

    /// The warp an ordered epilogue runs on: its lanes have retired, its
    /// warp-scoped counters are those its body recorded.
    fn retired(index: usize, lane_count: usize, counters: Counters) -> Warp {
        Warp { index, lanes: Vec::new(), lane_count, counters }
    }

    /// Index of this warp within the launch.
    #[inline]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Number of lanes in this warp (the trailing warp of a launch may be
    /// partial).
    #[inline]
    pub fn lane_count(&self) -> usize {
        self.lane_count
    }

    /// Run `f` once per lane, in lane order. May be called repeatedly; the
    /// lanes keep accumulating onto the same counters. By the time an
    /// ordered epilogue runs the lanes have retired and `f` is not called.
    pub fn for_each_lane(&mut self, f: impl FnMut(&mut Lane)) {
        self.lanes_mut().iter_mut().for_each(f);
    }

    /// The warp's lanes, in lane order, for warp-cooperative work that
    /// deals items to lanes itself (a tile scan hands candidate `j` to lane
    /// `j % lane_count`). Empty once the lanes have retired, as in an
    /// ordered epilogue.
    #[inline]
    pub fn lanes_mut(&mut self) -> &mut [Lane] {
        &mut self.lanes
    }

    /// Record `n` converged ALU instructions (executed by the warp as one).
    #[inline]
    pub fn instr(&mut self, n: u64) {
        self.counters.instructions += n;
    }

    /// Record a coalesced global-memory read of `bytes` by the warp.
    #[inline]
    pub fn gmem_read(&mut self, bytes: u64) {
        self.counters.gmem_read_bytes += bytes;
    }

    /// Record a coalesced global-memory write of `bytes` by the warp.
    #[inline]
    pub fn gmem_write(&mut self, bytes: u64) {
        self.counters.gmem_write_bytes += bytes;
    }

    /// Record `n` global atomic operations issued by the warp leader.
    #[inline]
    pub fn atomics(&mut self, n: u64) {
        self.counters.atomics += n;
    }

    /// Warp-scoped counters recorded so far (for tests).
    #[inline]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }
}

/// The number of distinct path tags among `lanes` (`k` in the module docs),
/// counted on the stack: warp sizes are small, O(k²) is fine, and only
/// divergent warps get here.
#[cold]
fn distinct_paths(lanes: &[Lane]) -> usize {
    let mut distinct = [0u64; MAX_WARP_LANES];
    let mut paths = 0;
    for lane in lanes {
        if !distinct[..paths].contains(&lane.path) {
            distinct[paths] = lane.path;
            paths += 1;
        }
    }
    paths
}

/// Cost summary of one warp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WarpCost {
    pub cycles: f64,
    pub divergent: bool,
    pub totals: Counters,
}

/// Report returned by [`crate::Device::launch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchReport {
    /// Number of GPU threads launched.
    pub threads: usize,
    /// Number of warps executed.
    pub warps: usize,
    /// Warps whose lanes took more than one control path.
    pub divergent_warps: usize,
    /// Counters summed over all lanes.
    pub totals: Counters,
    /// Simulated kernel execution time in seconds.
    pub sim_exec_seconds: f64,
    /// Fixed launch overhead in seconds.
    pub launch_overhead_seconds: f64,
    /// Cycles of the most expensive warp (for persistent launches, a warp's
    /// cycles are summed over every tile it processed).
    pub max_warp_cycles: f64,
    /// Mean cycles per warp. `max / mean` is the load-imbalance spread: 1.0
    /// is perfectly balanced, and under the one-thread-per-query mapping it
    /// grows with the skew of per-query candidate-range lengths.
    pub mean_warp_cycles: f64,
    /// Fraction of SMs still busy in the launch's final round-robin wave
    /// (1.0 when the warp count divides the SM count evenly — persistent
    /// grids are sized so this always holds).
    pub last_wave_occupancy: f64,
    /// Tiles dispatched from the work queue (0 for static launches).
    pub tiles_dispatched: u64,
    /// Work-queue cursor atomics: one per dispatched tile plus one failed
    /// probe per persistent warp (0 for static launches).
    pub queue_atomics: u64,
}

/// What a warp's lanes contribute to its cost, reduced as soon as the lane
/// work is done so the lanes can be cleared for the next warp.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneCost {
    max_instructions: u64,
    /// Distinct control-path tags among the lanes (`k` in the module docs).
    paths: usize,
    totals: Counters,
}

impl LaneCost {
    /// The warp's simulated cost: the lanes' share plus warp-scoped
    /// `warp_extra` charges recorded by a per-warp epilogue. The extra
    /// charges are converged: no `k` multiplier on instructions, no
    /// uncoalesced factor on memory bytes.
    pub(crate) fn with_epilogue(self, config: &DeviceConfig, warp_extra: &Counters) -> WarpCost {
        let k = self.paths as f64;
        let divergent = self.paths > 1;
        let mut totals = self.totals;

        let alu = (k * self.max_instructions as f64 + warp_extra.instructions as f64)
            * config.cycles_per_instr;
        let bytes = (totals.gmem_read_bytes + totals.gmem_write_bytes) as f64;
        let transactions = (bytes / config.gmem_transaction_bytes).ceil();
        let mem_penalty = if divergent { config.uncoalesced_factor } else { 1.0 };
        let extra_bytes = (warp_extra.gmem_read_bytes + warp_extra.gmem_write_bytes) as f64;
        let extra_transactions = (extra_bytes / config.gmem_transaction_bytes).ceil();
        let mem =
            (transactions * mem_penalty + extra_transactions) * config.cycles_per_gmem_transaction;
        let atom = (totals.atomics + warp_extra.atomics) as f64 * config.cycles_per_atomic;

        totals.add(warp_extra);
        WarpCost { cycles: alu + mem + atom, divergent, totals }
    }
}

/// A launch worker: the one [`Warp`] it runs every warp of the launch on,
/// reset between them, and the kernel's own per-worker scratch.
struct Worker<U> {
    warp: Warp,
    kernel: U,
}

impl<U: Default> Default for Worker<U> {
    fn default() -> Self {
        Worker { warp: Warp::with_lanes(0, Vec::new()), kernel: U::default() }
    }
}

/// What a warp's body leaves for its epilogue: a few words of cost and
/// whatever the kernel staged.
struct Retired<S> {
    index: usize,
    lane_count: usize,
    lanes: LaneCost,
    counters: Counters,
    staged: S,
}

/// Run `n` warps on [`tdts_geom::par::par_ordered`]: warp `i` runs on its
/// worker's warp, reset to the lanes `gids(i)`, through `body`; its lanes
/// retire into a [`LaneCost`] and `epilogue` then runs once per warp **in
/// warp order**, so which commit overflows a full buffer, and every later
/// redo round, is a function of the launch alone. Each warp's cost goes to
/// `sink`, in warp order, from the same ordered pass.
fn run_ordered<U, S, G, B, E, K>(
    config: &DeviceConfig,
    n: usize,
    gids: &G,
    body: &B,
    mut epilogue: E,
    mut sink: K,
) where
    U: Default,
    G: Fn(usize) -> Range<usize> + Sync,
    B: Fn(&mut Warp, &mut U) -> S + Sync,
    E: FnMut(&mut Warp, &mut U, S) + Send,
    K: FnMut(WarpCost) + Send,
{
    tdts_geom::par::par_ordered(
        n,
        |worker: &mut Worker<U>, i| {
            let warp = &mut worker.warp;
            warp.reset(i, gids(i));
            let staged = body(warp, &mut worker.kernel);
            let lanes = warp.retire();
            Retired {
                index: i,
                lane_count: warp.lane_count,
                lanes,
                counters: warp.counters,
                staged,
            }
        },
        |worker: &mut Worker<U>, retired: Retired<S>| {
            let mut warp = Warp::retired(retired.index, retired.lane_count, retired.counters);
            epilogue(&mut warp, &mut worker.kernel, retired.staged);
            sink(retired.lanes.with_epilogue(config, &warp.counters));
        },
    );
}

/// Execute a warp-scoped kernel over `threads` threads and compute the
/// launch report: `body` per warp in parallel, then `epilogue` per warp in
/// warp order (see [`run_ordered`]).
pub(crate) fn run_launch_warps<S, B, E>(
    config: &DeviceConfig,
    san: Option<&Sanitizer>,
    threads: usize,
    body: &B,
    mut epilogue: E,
) -> LaunchReport
where
    B: Fn(&mut Warp) -> S + Sync,
    E: FnMut(&mut Warp, S) + Send,
{
    let warp_size = config.warp_size;
    let warps = threads.div_ceil(warp_size);
    if let Some(san) = san {
        san.begin_launch(SHAPE_STATIC);
    }

    let mut cycles = Vec::with_capacity(warps);
    let mut totals = Counters::default();
    let mut divergent = 0;
    run_ordered(
        config,
        warps,
        &|w| w * warp_size..((w + 1) * warp_size).min(threads),
        &|warp: &mut Warp, _: &mut ()| body(warp),
        |warp: &mut Warp, _: &mut (), staged| epilogue(warp, staged),
        |cost: WarpCost| {
            cycles.push(cost.cycles);
            totals.add(&cost.totals);
            divergent += usize::from(cost.divergent);
        },
    );

    if let Some(san) = san {
        san.end_launch();
    }
    finish_report(config, threads, &cycles, totals, divergent, (0, 0))
}

/// Fraction of SMs that still receive a warp in the launch's final
/// round-robin wave.
fn last_wave_occupancy(num_sms: usize, warps: usize) -> f64 {
    if warps == 0 {
        return 0.0;
    }
    let rem = warps % num_sms;
    if rem == 0 {
        1.0
    } else {
        rem as f64 / num_sms as f64
    }
}

/// Shared tail of static and persistent launches: round-robin the per-warp
/// `cycles` onto SMs and derive the imbalance metrics. `totals` and
/// `divergent_warps` are summed over every warp (for a persistent launch,
/// over every tile).
fn finish_report(
    config: &DeviceConfig,
    threads: usize,
    cycles: &[f64],
    totals: Counters,
    divergent_warps: usize,
    queue: (u64, u64),
) -> LaunchReport {
    // Round-robin warp → SM assignment; SM time = sum of its warps' cycles
    // divided by the occupancy factor.
    let warps = cycles.len();
    let mut sm_cycles = vec![0.0f64; config.num_sms];
    let mut max_warp_cycles = 0.0f64;
    let mut sum_warp_cycles = 0.0f64;
    for (w, &c) in cycles.iter().enumerate() {
        sm_cycles[w % config.num_sms] += c;
        max_warp_cycles = max_warp_cycles.max(c);
        sum_warp_cycles += c;
    }
    let max_sm = sm_cycles.iter().cloned().fold(0.0, f64::max);
    let sim_exec_seconds = max_sm / config.occupancy_factor / config.clock_hz;
    let (tiles_dispatched, queue_atomics) = queue;

    LaunchReport {
        threads,
        warps,
        divergent_warps,
        totals,
        sim_exec_seconds,
        launch_overhead_seconds: config.kernel_launch_overhead,
        max_warp_cycles,
        mean_warp_cycles: if warps == 0 { 0.0 } else { sum_warp_cycles / warps as f64 },
        last_wave_occupancy: last_wave_occupancy(config.num_sms, warps),
        tiles_dispatched,
        queue_atomics,
    }
}

/// Execute a warp-cooperative kernel with a persistent grid: the fixed
/// grid of [`DeviceConfig::persistent_warps`] warps (capped by the tile
/// count) loops pulling tiles from `queue` until it drains. Every grab is
/// charged one global atomic plus a converged read of the 16-byte tile
/// descriptor; each warp pays one further atomic for the failed probe that
/// tells it the queue is empty. A warp's lanes start every tile clean, so
/// the divergence multiplier and the max-over-lanes rule apply *within*
/// each tile, and the warp's cycles are the sum over the tiles it
/// processed — exactly the cost shape of a device-side `while
/// (atomicAdd(&cursor, 1) < n)` loop.
///
/// Host execution and simulated dispatch are decoupled to keep the
/// determinism guarantee: tile bodies run on host workers in any order
/// and their epilogues in queue order (see [`run_ordered`]), so a tile's
/// cost is a function of the launch alone — warp-cooperative kernels
/// address only [`Lane::lane_index`] and the tile, never which persistent
/// warp happened to grab it. The same ordered pass then replays the atomic
/// cursor ([`EarliestFree`]), handing each tile in queue order to the warp
/// that becomes free earliest (ties to the lowest warp index) — which is
/// exactly the assignment lock-step SIMT timing produces for a device-side
/// cursor, and never the host thread scheduler's racing order.
pub(crate) fn run_launch_persistent<U, S, B, E>(
    config: &DeviceConfig,
    san: Option<&Sanitizer>,
    queue: &crate::workqueue::WorkQueue,
    body: &B,
    epilogue: E,
) -> LaunchReport
where
    U: Default,
    B: Fn(&mut Warp, &mut U, crate::workqueue::Tile) -> S + Sync,
    E: FnMut(&mut Warp, &mut U, S) + Send,
{
    let warp_size = config.warp_size;
    let n = queue.len();
    let grid = config.persistent_warps().min(n);
    if let Some(san) = san {
        san.begin_launch(SHAPE_PERSISTENT);
    }

    // Every tile runs exactly once, in parallel on the host; per-tile
    // divergence and the max-over-lanes rule are resolved as its lanes
    // retire, and its cost is dispatched in queue order.
    let mut dispatch = EarliestFree::new(grid);
    let mut totals = Counters::default();
    let mut divergent_tiles = 0;
    run_ordered(
        config,
        n,
        &|_| 0..warp_size,
        &|warp: &mut Warp, kernel: &mut U| {
            // The grab itself: leader's cursor atomicAdd + one converged
            // read of the tile descriptor.
            warp.atomics(1);
            warp.gmem_read(std::mem::size_of::<crate::workqueue::Tile>() as u64);
            let i = warp.index();
            body(warp, kernel, queue.tile_at(i))
        },
        epilogue,
        |cost: WarpCost| {
            dispatch.assign(cost.cycles);
            totals.add(&cost.totals);
            divergent_tiles += usize::from(cost.divergent);
        },
    );
    queue.mark_drained(grid);
    if let Some(san) = san {
        san.end_launch();
    }

    // The failed probe that terminates each warp's persistent loop.
    let cycles: Vec<f64> =
        dispatch.into_busy().into_iter().map(|busy| busy + config.cycles_per_atomic).collect();
    totals.atomics += grid as u64;
    finish_report(
        config,
        grid * warp_size,
        &cycles,
        totals,
        divergent_tiles,
        (queue.dispatched() as u64, queue.probes() as u64),
    )
}

/// Earliest-free dispatch: each job, in order, goes to the worker that
/// becomes free earliest (ties to the lowest index), and adds its cost to
/// that worker's busy time.
///
/// Costs must be non-negative: their IEEE bit patterns then order like the
/// values and keep the heap key `Ord`.
pub(crate) struct EarliestFree {
    busy: Vec<f64>,
    free: BinaryHeap<Reverse<(u64, usize)>>,
}

impl EarliestFree {
    pub(crate) fn new(workers: usize) -> EarliestFree {
        EarliestFree {
            busy: vec![0.0; workers],
            free: (0..workers).map(|w| Reverse((0u64, w))).collect(),
        }
    }

    /// Hand a job costing `cost` to the earliest-free worker; returns it.
    pub(crate) fn assign(&mut self, cost: f64) -> usize {
        debug_assert!(cost >= 0.0, "negative cost {cost}");
        let mut next = self.free.peek_mut().expect("jobs need at least one worker");
        let w = next.0 .1;
        self.busy[w] += cost;
        *next = Reverse((self.busy[w].to_bits(), w));
        w
    }

    /// Every worker's busy time; the largest is the makespan.
    pub(crate) fn into_busy(self) -> Vec<f64> {
        self.busy
    }
}

/// Hand the jobs whose costs `costs` lists, in order, each to the one of
/// `workers` that becomes free earliest (ties to the lowest index), calling
/// `assign(job, worker)` for each, and return every worker's busy time —
/// the largest is the makespan. A persistent launch dispatches its tiles
/// this way, and the CPU baseline its one-query tasks.
///
/// Costs must be non-negative: their IEEE bit patterns then order like the
/// values and keep the heap key `Ord`.
pub fn replay_earliest_free(
    workers: usize,
    costs: impl IntoIterator<Item = f64>,
    mut assign: impl FnMut(usize, usize),
) -> Vec<f64> {
    let mut dispatch = EarliestFree::new(workers);
    for (job, cost) in costs.into_iter().enumerate() {
        assign(job, dispatch.assign(cost));
    }
    dispatch.into_busy()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Device, DeviceConfig};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tiny() -> std::sync::Arc<Device> {
        Device::new(DeviceConfig::test_tiny()).unwrap()
    }

    #[test]
    fn every_thread_runs_exactly_once() {
        let dev = tiny();
        let n = 1003; // not a multiple of the warp size
        let sum = AtomicU64::new(0);
        let report = dev.launch(n, |lane| {
            sum.fetch_add(lane.global_id as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(report.threads, n);
        assert_eq!(report.warps, n.div_ceil(4));
        let expect: u64 = (1..=n as u64).sum();
        assert_eq!(sum.load(Ordering::Relaxed), expect);
    }

    #[test]
    fn zero_thread_launch() {
        let dev = tiny();
        let report = dev.launch(0, |_| panic!("must not run"));
        assert_eq!(report.threads, 0);
        assert_eq!(report.warps, 0);
        assert_eq!(report.sim_exec_seconds, 0.0);
        assert!(report.launch_overhead_seconds > 0.0);
    }

    #[test]
    fn exec_time_scales_with_work() {
        let dev = tiny();
        let light = dev.launch(64, |lane| lane.instr(10));
        let heavy = dev.launch(64, |lane| lane.instr(10_000));
        assert!(heavy.sim_exec_seconds > light.sim_exec_seconds * 100.0);
    }

    #[test]
    fn divergence_costs_more() {
        let dev = tiny();
        let uniform = dev.launch(64, |lane| {
            lane.set_path(0);
            lane.instr(1000);
        });
        let divergent = dev.launch(64, |lane| {
            lane.set_path((lane.global_id % 4) as u64);
            lane.instr(1000);
        });
        assert_eq!(uniform.divergent_warps, 0);
        assert_eq!(divergent.divergent_warps, 16);
        // 4 distinct paths per warp => ~4x the ALU cycles.
        assert!(divergent.sim_exec_seconds > uniform.sim_exec_seconds * 3.0);
    }

    #[test]
    fn imbalance_costs_like_the_slowest_lane() {
        // SIMT max-over-lanes: one busy lane in a warp costs as much as all
        // lanes busy.
        let dev = tiny();
        let one_busy = dev.launch(4, |lane| {
            if lane.global_id == 0 {
                lane.instr(10_000);
            }
        });
        let all_busy = dev.launch(4, |lane| {
            let _ = lane.global_id;
            lane.instr(10_000);
        });
        assert!((one_busy.sim_exec_seconds - all_busy.sim_exec_seconds).abs() < 1e-12);
    }

    #[test]
    fn totals_aggregate_all_lanes() {
        let dev = tiny();
        let report = dev.launch(10, |lane| {
            lane.instr(2);
            lane.gmem_read(8);
        });
        assert_eq!(report.totals.instructions, 20);
        assert_eq!(report.totals.gmem_read_bytes, 80);
    }

    #[test]
    fn determinism_across_runs() {
        let dev = tiny();
        let r1 = dev.launch(1000, |lane| {
            lane.instr((lane.global_id % 17) as u64);
            lane.gmem_read((lane.global_id % 5) as u64 * 8);
            lane.set_path((lane.global_id % 3) as u64);
        });
        let r2 = dev.launch(1000, |lane| {
            lane.instr((lane.global_id % 17) as u64);
            lane.gmem_read((lane.global_id % 5) as u64 * 8);
            lane.set_path((lane.global_id % 3) as u64);
        });
        assert_eq!(r1.sim_exec_seconds, r2.sim_exec_seconds);
        assert_eq!(r1.totals, r2.totals);
        assert_eq!(r1.divergent_warps, r2.divergent_warps);
    }

    /// The cost of the lanes carrying the given counters and path tags, as
    /// their warp retires them.
    fn retire(specs: &[(Counters, u64)]) -> LaneCost {
        let lanes = specs.iter().enumerate();
        let lanes = lanes
            .map(|(i, &(counters, path))| Lane { global_id: i, lane_index: i, counters, path })
            .collect();
        let mut warp = Warp::with_lanes(0, lanes);
        let cost = warp.retire();
        // Retired lanes are clean for the next warp.
        assert!(warp.lanes.iter().all(|lane| lane.counters.is_zero() && lane.path == 0));
        cost
    }

    #[test]
    fn warp_cost_formula() {
        let c = DeviceConfig::test_tiny();
        // Uniform warp: 2 lanes, 10 instr each, 16 bytes read total, 1 atomic.
        let lanes = [
            (
                Counters { instructions: 10, gmem_read_bytes: 8, gmem_write_bytes: 0, atomics: 1 },
                0u64,
            ),
            (
                Counters { instructions: 10, gmem_read_bytes: 8, gmem_write_bytes: 0, atomics: 0 },
                0u64,
            ),
        ];
        let cost = retire(&lanes).with_epilogue(&c, &Counters::default());
        // alu = 1 * 10 * 1 = 10; mem = ceil(16/16)=1 txn * 10 = 10; atomics = 1*20.
        assert_eq!(cost.cycles, 40.0);
        assert!(!cost.divergent);

        // Divergent version: distinct paths double ALU and apply the
        // uncoalesced factor.
        let lanes_div = [(lanes[0].0, 1u64), (lanes[1].0, 2u64)];
        let cost_div = retire(&lanes_div).with_epilogue(&c, &Counters::default());
        // alu = 2 * 10 = 20; mem = 1 * 10 * 2 = 20; atomics = 20.
        assert_eq!(cost_div.cycles, 60.0);
        assert!(cost_div.divergent);
    }

    #[test]
    fn warp_extra_charges_are_converged() {
        let c = DeviceConfig::test_tiny();
        let lanes = [
            (
                Counters { instructions: 10, gmem_read_bytes: 8, gmem_write_bytes: 0, atomics: 0 },
                1u64,
            ),
            (
                Counters { instructions: 10, gmem_read_bytes: 8, gmem_write_bytes: 0, atomics: 0 },
                2u64,
            ),
        ];
        let extra =
            Counters { instructions: 5, gmem_read_bytes: 0, gmem_write_bytes: 32, atomics: 1 };
        let cost = retire(&lanes).with_epilogue(&c, &extra);
        // Divergent lanes: alu = 2*10 + 5 (no k multiplier on extra) = 25;
        // mem = ceil(16/16)*10*2 (uncoalesced) + ceil(32/16)*10 (coalesced
        // commit) = 20 + 20 = 40; atomics = 1 * 20 = 20.
        assert_eq!(cost.cycles, 85.0);
        assert!(cost.divergent);
        // Extra charges appear in the totals.
        assert_eq!(cost.totals.instructions, 25);
        assert_eq!(cost.totals.gmem_write_bytes, 32);
        assert_eq!(cost.totals.atomics, 1);
    }

    #[test]
    fn warp_launch_runs_epilogue_once_per_warp() {
        let dev = tiny();
        let epilogues = AtomicU64::new(0);
        let lanes_run = AtomicU64::new(0);
        let report = dev.launch_warps(10, |warp| {
            warp.for_each_lane(|lane| {
                lane.instr(1);
                lanes_run.fetch_add(1, Ordering::Relaxed);
            });
            warp.atomics(1);
            epilogues.fetch_add(1, Ordering::Relaxed);
        });
        // 10 threads on 4-lane warps: 3 warps, the last partial (2 lanes).
        assert_eq!(report.warps, 3);
        assert_eq!(epilogues.load(Ordering::Relaxed), 3);
        assert_eq!(lanes_run.load(Ordering::Relaxed), 10);
        assert_eq!(report.totals.instructions, 10);
        assert_eq!(report.totals.atomics, 3);
    }

    #[test]
    fn ordered_epilogues_run_in_warp_order_and_are_charged() {
        let dev = tiny();
        let order = std::sync::Mutex::new(Vec::new());
        // Many blocks, so the hand-overs between workers are covered.
        let threads = (20 * tdts_geom::par::MAX_BLOCK + 3) * 4;
        let report = dev.launch_warps_ordered(
            threads,
            |warp| warp.index() as u64,
            |warp, staged| {
                warp.atomics(1);
                order.lock().unwrap().push(staged);
            },
        );
        let order = order.into_inner().unwrap();
        assert_eq!(order, (0..report.warps as u64).collect::<Vec<_>>());
        assert_eq!(report.totals.atomics, report.warps as u64);
    }

    #[test]
    fn a_panicking_body_fails_the_launch_instead_of_hanging() {
        let dev = tiny();
        for bad in [0, 37, 99] {
            let launch = std::panic::AssertUnwindSafe(|| {
                dev.launch_warps_ordered(100 * 4, |warp| assert_ne!(warp.index(), bad), |_, ()| {})
            });
            assert!(std::panic::catch_unwind(launch).is_err(), "body of warp {bad}");
            let launch = std::panic::AssertUnwindSafe(|| {
                dev.launch_warps_ordered(100 * 4, |_| {}, |warp, ()| assert_ne!(warp.index(), bad))
            });
            assert!(std::panic::catch_unwind(launch).is_err(), "epilogue of warp {bad}");
        }
    }

    #[test]
    fn persistent_launch_processes_every_tile_once() {
        use crate::workqueue::Tile;
        use std::sync::Mutex;
        let dev = tiny();
        let mut tiles = Vec::new();
        for q in 0..7u32 {
            Tile::split_into(&mut tiles, q, 0, 10, 0, dev.config().tile_size);
        }
        let queue = dev.work_queue(tiles.clone()).unwrap();
        let seen = Mutex::new(Vec::new());
        let report = dev.launch_persistent(&queue, |warp, tile| {
            warp.for_each_lane(|lane| lane.instr(1));
            seen.lock().unwrap().push(tile);
        });
        let mut got = seen.into_inner().unwrap();
        got.sort_by_key(|t| (t.query, t.lo));
        assert_eq!(got, tiles);
        // Grid capped at persistent_warps (test_tiny: 2 SMs * 1.0 = 2).
        assert_eq!(report.warps, 2);
        assert_eq!(report.threads, 2 * dev.config().warp_size);
        assert_eq!(report.tiles_dispatched, tiles.len() as u64);
        // One atomic per tile + one failed probe per persistent warp.
        assert_eq!(report.queue_atomics, tiles.len() as u64 + 2);
        assert_eq!(report.totals.atomics, report.queue_atomics);
        assert_eq!(report.last_wave_occupancy, 1.0);
        assert!(report.sim_exec_seconds > 0.0);
    }

    #[test]
    fn persistent_launch_with_empty_queue_is_a_noop() {
        let dev = tiny();
        let queue = dev.work_queue(Vec::new()).unwrap();
        let report = dev.launch_persistent(&queue, |_, _| panic!("must not run"));
        assert_eq!(report.warps, 0);
        assert_eq!(report.tiles_dispatched, 0);
        assert_eq!(report.queue_atomics, 0);
        assert_eq!(report.sim_exec_seconds, 0.0);
        assert!(report.launch_overhead_seconds > 0.0);
    }

    #[test]
    fn work_queue_balances_skewed_work() {
        use crate::workqueue::Tile;
        // One heavy range (1024 entries) and 63 light ones (4 entries each):
        // the static per-thread mapping puts the heavy range on one lane of
        // one warp, while tiles of 8 spread it over every persistent warp.
        let lens: Vec<u32> = std::iter::once(1024).chain(std::iter::repeat_n(4, 63)).collect();
        let dev = tiny();

        let static_report = dev.launch(lens.len(), |lane| {
            for _ in 0..lens[lane.global_id] {
                lane.instr(10);
                lane.gmem_read(16);
            }
        });

        let mut tiles = Vec::new();
        for (q, &len) in lens.iter().enumerate() {
            Tile::split_into(&mut tiles, q as u32, 0, len, 0, dev.config().tile_size);
        }
        let queue = dev.work_queue(tiles).unwrap();
        let ws = dev.config().warp_size;
        let wpt_report = dev.launch_persistent(&queue, |warp, tile| {
            warp.for_each_lane(|lane| {
                let mut i = tile.lo as usize + lane.lane_index();
                while i < tile.hi as usize {
                    lane.instr(10);
                    lane.gmem_read(16);
                    i += ws;
                }
            });
        });

        let spread = |r: &LaunchReport| r.max_warp_cycles / r.mean_warp_cycles;
        assert!(
            spread(&wpt_report) * 2.0 < spread(&static_report),
            "expected >=2x spread cut: static {:.2}, wpt {:.2}",
            spread(&static_report),
            spread(&wpt_report)
        );
        assert!(
            wpt_report.sim_exec_seconds < static_report.sim_exec_seconds,
            "wpt {} !< static {}",
            wpt_report.sim_exec_seconds,
            static_report.sim_exec_seconds
        );
    }

    #[test]
    fn replay_is_a_sum_on_one_worker_and_the_heaviest_job_on_many() {
        let costs = [1.0, 2.0, 0.5, 40.0, 1.0, 1.5, 0.25, 1.0];
        let busy = replay_earliest_free(1, costs, |_, w| assert_eq!(w, 0));
        assert_eq!(busy, vec![costs.iter().sum::<f64>()]);
        // One heavy job among light ones: with enough workers the light
        // jobs share the others, and the makespan is the heavy job's cost.
        let busy = replay_earliest_free(6, costs, |_, _| {});
        assert_eq!(busy.iter().cloned().fold(0.0, f64::max), 40.0);
        assert_eq!(busy.iter().sum::<f64>(), costs.iter().sum::<f64>());
        // Earliest free first, ties to the lowest index.
        let mut order = Vec::new();
        replay_earliest_free(2, [3.0, 1.0, 1.0, 1.0], |job, w| order.push((job, w)));
        assert_eq!(order, vec![(0, 0), (1, 1), (2, 1), (3, 1)]);
        assert!(replay_earliest_free(3, [], |_, _| unreachable!()).iter().all(|&b| b == 0.0));
    }

    #[test]
    fn lane_indices_match_position_in_warp() {
        let dev = tiny();
        dev.launch_warps(13, |warp| {
            let mut expect = 0usize;
            let base = warp.index() * 4;
            warp.for_each_lane(|lane| {
                assert_eq!(lane.lane_index(), expect);
                assert_eq!(lane.global_id, base + expect);
                expect += 1;
            });
        });
    }
}
