//! The experiment table and its runner.
//!
//! The paper's evaluation is one experiment shape — dataset × method arms ×
//! a `d` sweep → response time and counted quantities — so every table of
//! every figure, in-text study and extension study is one [`Target`]
//! literal in [`TARGETS`], and [`run`] is the only code that builds
//! indexes, runs searches, cross-checks result sets and prints. Adding a
//! study is adding a literal.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use tdts_core::{
    Method, PreparedDataset, SearchEngine, ShardedIndex, ShardedIndexConfig, TdtsError,
};
use tdts_data::scenario::ScenarioParams;
use tdts_data::{GaussianClusterConfig, MergerConfig, Scenario, ScenarioKind};
use tdts_geom::{MatchRecord, SegmentStore};
use tdts_gpu_sim::{Device, DeviceConfig, KernelShape, SearchReport};
use tdts_index_spatial::{FsgConfig, GpuSpatialConfig};
use tdts_index_spatiotemporal::SpatioTemporalIndexConfig;
use tdts_index_temporal::TemporalIndexConfig;
use tdts_rtree::RTreeConfig;
use ScenarioKind::{S1Random as S1, S2Merger as S2, S3RandomDense as S3};

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Dataset scale relative to paper sizes (1.0 = full paper scale).
    pub scale: f64,
    /// Cross-check that every arm of a table returns the same result set.
    pub verify: bool,
    /// Simulated device.
    pub device: DeviceConfig,
    /// How the entry database is partitioned across simulated devices. With
    /// `shards > 1` every arm that does not set its own sharding becomes a
    /// [`ShardedIndex`] fanning batches out to one device per temporal
    /// slab.
    pub sharding: ShardedIndexConfig,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            scale: 1.0 / 16.0,
            verify: true,
            device: DeviceConfig::tesla_c2075(),
            sharding: ShardedIndexConfig::default(),
        }
    }
}

/// One printed table. Rows of [`TARGETS`] that share a name are one target:
/// `figures <name>` runs them together, and consecutive ones that also
/// share a title print under one heading (Fig. 7 is one table over three
/// datasets).
pub struct Target {
    pub name: &'static str,
    /// `{tile}` and `{n}` stand for the run's tile size and the dataset's
    /// |D|.
    title: &'static str,
    data: Data,
    arms: fn(&Prepared, &RunConfig) -> Vec<Arm>,
    ds: Ds,
    layout: Layout,
    cols: &'static [Col],
    close: Option<Close>,
}

/// From a table's measured cells (`[d][arm]`): its closing line (none when
/// empty), or why its scale-calibrated shape check failed.
type Close = fn(&[Vec<Cell>]) -> Result<String, String>;

/// The target names, in `all` order.
pub fn names() -> Vec<&'static str> {
    let mut names: Vec<_> = TARGETS.iter().map(|t| t.name).collect();
    names.dedup();
    names
}

/// The targets a `figures` argument selects: the one it names, or every one
/// for `all`.
pub fn select(arg: &str) -> Option<Vec<&'static str>> {
    let names = names();
    if arg == "all" {
        return Some(names);
    }
    names.into_iter().find(|name| *name == arg).map(|name| vec![name])
}

/// The dataset and query set a table (or one arm) runs on.
#[derive(Debug, Clone, Copy)]
enum Data {
    /// One of the paper's scenarios with its query set, index parameters
    /// and `d` sweep.
    Paper(ScenarioKind),
    /// Centrally concentrated Gaussian cluster: the density gradient a
    /// uniform generator lacks (DESIGN.md §4c).
    Cluster,
    /// Merger at `n/16` of the run's scale, queried by a fixed 16-particle
    /// set — enough query warps to keep every simulated SM busy at 8
    /// shards, few enough that `--scale 1` stays tractable on one core.
    Merger16ths(usize),
}

/// Which query distances a table measures.
enum Ds {
    /// The dataset's whole sweep.
    Sweep,
    /// The low, middle and high end of the sweep.
    FirstMidLast,
    Fixed(&'static [f64]),
}

enum Layout {
    /// One row per `d`; columns pick arms by index.
    PerD,
    /// One row per (arm, `d`). Arms are taken this many at a time and
    /// within such a block rows go by `d` first: 1 prints arm-major.
    PerArm(usize),
}

/// Header, width (negative = left-aligned) and cell text of one column.
struct Col(&'static str, i32, fn(&Row) -> String);

/// What a column sees: every arm's cell at one `d`, and the arm the row is
/// for (0 under [`Layout::PerD`]).
struct Row<'a> {
    cfg: &'a RunConfig,
    data: &'static str,
    queries: usize,
    cells: &'a [Cell],
    arm: usize,
}

impl Row<'_> {
    fn cell(&self) -> &Cell {
        &self.cells[self.arm]
    }

    fn report(&self) -> &SearchReport {
        &self.cell().report
    }

    /// The cell of the arm this row's arm is compared against.
    fn base(&self) -> Option<&Cell> {
        self.cell().base.map(|b| &self.cells[b])
    }

    fn response(&self, arm: usize) -> f64 {
        self.cells[arm].report.response_seconds()
    }
}

/// One measured configuration: a column of a per-`d` table, a block of
/// rows of a per-arm one.
struct Arm {
    label: String,
    method: Method,
    /// Device override (default: the run's device).
    device: Option<DeviceConfig>,
    /// Kernel shape the arm searches under (default: its device's).
    shape: Option<KernelShape>,
    /// Sharding override (default: the run's `--shards`, if above 1).
    sharding: Option<ShardedIndexConfig>,
    /// The arm's own dataset (weak scaling). Such an arm is not
    /// cross-checked against the others.
    data: Option<Data>,
    /// The arm this one is compared against. It is measured first; ratio
    /// columns, derived capacities and shape checks read its cell.
    base: Option<usize>,
    /// Result capacity derived from the dataset's default and the base
    /// arm's cell at the same `d`.
    capacity: Option<fn(usize, &Cell) -> usize>,
}

impl Arm {
    fn new(label: impl ToString, method: Method) -> Arm {
        Arm {
            label: label.to_string(),
            method,
            device: None,
            shape: None,
            sharding: None,
            data: None,
            base: None,
            capacity: None,
        }
    }

    fn vs(self, base: usize) -> Arm {
        Arm { base: Some(base), ..self }
    }

    fn sharded(self, shards: usize) -> Arm {
        let mut sharding = ShardedIndexConfig::default();
        sharding.shards = shards;
        Arm { sharding: Some(sharding), ..self }
    }

    /// Whether `build` would give this arm and `other` the same index, so
    /// that they differ only in how they search it (kernel shape, capacity).
    fn same_index(&self, other: &Arm) -> bool {
        self.data.is_none()
            && other.data.is_none()
            && (self.method, &self.device, self.sharding)
                == (other.method, &other.device, other.sharding)
    }
}

/// One measured (arm, `d`) cell. Every second in it is priced from counted
/// work, so two runs measure the same cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// The arm's label within its table.
    pub label: String,
    /// The paper's name of the arm's method.
    pub method: &'static str,
    pub d: f64,
    pub report: SearchReport,
    /// Result-buffer capacity the search ran with.
    pub capacity: usize,
    /// |D| of the dataset the arm searched.
    pub entries: usize,
    /// Simulated devices the arm's index spans.
    pub shards: usize,
    /// Storage blow-up from boundary replication (1.0 when unsharded).
    pub replication: f64,
    /// Cross-shard duplicate records the merge dropped in one search.
    pub duplicates_dropped: u64,
    base: Option<usize>,
}

impl Cell {
    /// Simulated device time: transfers, launches and kernel execution,
    /// without the host steps.
    fn device_seconds(&self) -> f64 {
        self.report.response.device_seconds()
    }
}

/// What running a target produced.
pub struct Ran {
    /// Every measured cell in table, `d`, arm order.
    pub cells: Vec<Cell>,
    /// The first failed shape check. These are calibrated for
    /// `--scale 0.02` and above; result sets were identical either way.
    pub shape: Result<(), String>,
}

/// A generated dataset, canonicalised (sorted by `t_start`) for every index.
struct Prepared {
    name: &'static str,
    dataset: PreparedDataset,
    queries: SegmentStore,
    params: ScenarioParams,
    sweep: Vec<f64>,
}

/// Generate, build, measure, cross-check and print every table of the target
/// called `name`. `Err` is a failure no table survives: an unknown name, an
/// invalid configuration, a search error, a sanitizer finding, or two arms
/// returning different result sets.
pub fn run(cfg: &RunConfig, name: &str) -> Result<Ran, String> {
    let mut ran = Ran { cells: Vec::new(), shape: Ok(()) };
    let mut title = String::new();
    for table in TARGETS.iter().filter(|t| t.name == name) {
        let p = prepare(cfg, table.data)?;
        let cells = measure(cfg, table, &p)?;
        ran.shape = ran.shape.and(print(cfg, table, &p, &cells, &mut title));
        ran.cells.extend(cells.into_iter().flatten());
    }
    if ran.cells.is_empty() {
        return Err(format!("unknown target {name}"));
    }
    Ok(ran)
}

fn prepare(cfg: &RunConfig, data: Data) -> Result<Prepared, String> {
    let scale = cfg.scale;
    eprintln!("[harness] generating {data:?} at scale {scale:.5} ...");
    let (name, store, queries, params, sweep) = match data {
        Data::Paper(kind) => {
            let s = Scenario::new(kind, scale);
            (s.name(), s.dataset(), s.queries(), s.params(), s.query_distances())
        }
        Data::Cluster => {
            let cluster = GaussianClusterConfig::default().scaled(scale * 16.0);
            let particles = (cluster.particles / 32).max(1);
            let seed = cluster.seed ^ 0x51;
            let queries = GaussianClusterConfig { particles, seed, ..cluster }.generate();
            let params = ScenarioParams {
                fsg_cells_per_dim: 50,
                temporal_bins: (cluster.timesteps - 1).max(1),
                subbins: 4,
                result_buffer_capacity: 8_000_000,
            };
            let sweep = vec![0.1, 0.5, 1.0, 2.0, 5.0, 10.0];
            ("gaussian-cluster", cluster.generate(), queries, params, sweep)
        }
        Data::Merger16ths(n) => {
            let full = MergerConfig::default().scaled(scale);
            let queries = MergerConfig { particles: 16, seed: full.seed ^ 0x51, ..full }.generate();
            let store = MergerConfig::default().scaled(scale * n as f64 / 16.0).generate();
            let params = Scenario::new(S2, scale).params();
            let params = ScenarioParams { result_buffer_capacity: 8_000_000, ..params };
            ("merger", store, queries, params, vec![0.5])
        }
    };
    let dataset = PreparedDataset::new(store);
    eprintln!("[harness] {name}: |D| = {}, |Q| = {}", dataset.store().len(), queries.len());
    Ok(Prepared { name, dataset, queries, params, sweep })
}

fn build(cfg: &RunConfig, p: &Prepared, arm: &Arm) -> Result<SearchEngine, TdtsError> {
    let device_config = arm.device.as_ref().unwrap_or(&cfg.device);
    let run_wide = (cfg.sharding.shards > 1).then_some(cfg.sharding);
    if let Some(sharding) = arm.sharding.or(run_wide) {
        eprintln!("[harness] building {} across {} shard(s) ...", arm.label, sharding.shards);
        return SearchEngine::build_sharded(&p.dataset, arm.method, device_config, &sharding);
    }
    eprintln!("[harness] building {} ...", arm.label);
    let device = Device::new(device_config.clone()).map_err(TdtsError::InvalidConfig)?;
    SearchEngine::build(&p.dataset, arm.method, device)
}

/// Measure every (arm, `d`) cell — an arm that differs from its base only in
/// how it searches reuses the base's index, every other index is dropped
/// before the next is built — and require each result set to equal the first
/// one measured at that `d` (kept as length + digest, so a sweep does not hold
/// a result set per distance).
fn measure(cfg: &RunConfig, table: &Target, p: &Prepared) -> Result<Vec<Vec<Cell>>, String> {
    let (first, last) = (p.sweep[0], p.sweep[p.sweep.len() - 1]);
    let ds = match table.ds {
        Ds::Sweep => p.sweep.clone(),
        Ds::FirstMidLast => vec![first, p.sweep[p.sweep.len() / 2], last],
        Ds::Fixed(ds) => ds.to_vec(),
    };
    let arms = (table.arms)(p, cfg);
    let mut cells: Vec<Vec<Option<Cell>>> =
        ds.iter().map(|_| arms.iter().map(|_| None).collect()).collect();
    let mut reference: Vec<Option<(usize, u64)>> = vec![None; ds.len()];
    let mut order: Vec<usize> = (0..arms.len()).collect();
    order.sort_by_key(|&a| arms[a].base.is_some());
    let shared = |a: usize| arms[a].base.filter(|&base| arms[a].same_index(&arms[base]));
    let mut kept: Vec<Option<Rc<SearchEngine>>> = arms.iter().map(|_| None).collect();
    for a in order {
        let arm = &arms[a];
        let own = arm.data.map(|data| prepare(cfg, data)).transpose()?;
        let p = own.as_ref().unwrap_or(p);
        let built = match shared(a) {
            Some(base) => Rc::clone(kept[base].as_ref().expect("base arms are measured first")),
            None => {
                let built = build(cfg, p, arm);
                Rc::new(built.map_err(|e| format!("building {}: {e}", arm.label))?)
            }
        };
        if (0..arms.len()).any(|later| shared(later) == Some(a)) {
            kept[a] = Some(Rc::clone(&built));
        }
        let dropped = || built.sharded().map_or(0, ShardedIndex::duplicates_dropped);
        for (di, &d) in ds.iter().enumerate() {
            let who = format!("{} at d = {d}", arm.label);
            let mut capacity = p.params.result_buffer_capacity;
            if let (Some(derive), Some(base)) = (arm.capacity, arm.base) {
                let base = cells[di][base].as_ref().expect("base arms are measured first");
                capacity = derive(capacity, base);
            }
            let dropped_before = dropped();
            let found = built.search_shaped(&p.queries, d, capacity, arm.shape);
            let (matches, report) = found.map_err(|e| format!("{who}: {e}"))?;
            if report.sanitizer_findings > 0 {
                let detail = built.device().map(|dev| dev.sanitizer_report().to_string());
                let detail = detail.unwrap_or_default();
                return Err(format!("{who}: sanitizer found defects\n{detail}"));
            }
            if cfg.verify && own.is_none() {
                let got = (matches.len(), digest(&matches));
                let first = *reference[di].get_or_insert(got);
                if first != got {
                    let (n, first) = (got.0, first.0);
                    let first = format!("the {first} the table's first arm found");
                    return Err(format!("{who}: {n} records differ from {first}"));
                }
            }
            let duplicates_dropped = dropped() - dropped_before;
            cells[di][a] = Some(Cell {
                label: arm.label.clone(),
                method: arm.method.name(),
                d,
                report,
                capacity,
                entries: p.dataset.store().len(),
                shards: built.sharded().map_or(1, ShardedIndex::requested_shards),
                replication: built.sharded().map_or(1.0, ShardedIndex::replication_factor),
                duplicates_dropped,
                base: arm.base,
            });
        }
    }
    let filled = |row: Vec<Option<Cell>>| row.into_iter().map(|c| c.expect("every arm ran"));
    Ok(cells.into_iter().map(|row| filled(row).collect()).collect())
}

/// The harness's one table printer. Returns the table's failed shape check.
fn print(
    cfg: &RunConfig,
    table: &Target,
    p: &Prepared,
    cells: &[Vec<Cell>],
    last_title: &mut String,
) -> Result<(), String> {
    let line = |texts: Vec<String>| {
        let pad = |(col, text): (&Col, String)| match col.1.unsigned_abs() as usize {
            width if col.1 < 0 => format!("{text:<width$}"),
            width => format!("{text:>width$}"),
        };
        table.cols.iter().zip(texts).map(pad).collect::<Vec<_>>().join(" ")
    };
    let title = table
        .title
        .replace("{tile}", &cfg.device.tile_size.to_string())
        .replace("{n}", &p.dataset.store().len().to_string());
    if *last_title != title {
        println!("\n## {title}");
        if table.cols.iter().any(|col| !col.0.is_empty()) {
            println!("{}", line(table.cols.iter().map(|col| col.0.to_string()).collect()));
        }
        *last_title = title;
    }
    let arms: Vec<usize> = (0..cells[0].len()).collect();
    let by_d = |block: &[usize]| -> Vec<(usize, usize)> {
        (0..cells.len()).flat_map(|di| block.iter().map(move |&a| (di, a))).collect()
    };
    let order = match table.layout {
        Layout::PerD => by_d(&[0]),
        Layout::PerArm(block) => arms.chunks(block.min(arms.len())).flat_map(by_d).collect(),
    };
    for (di, arm) in order {
        let row = Row { cfg, data: p.name, queries: p.queries.len(), cells: &cells[di], arm };
        println!("{}", line(table.cols.iter().map(|col| (col.2)(&row)).collect()));
    }
    let foot = table.close.map_or(Ok(String::new()), |close| close(cells))?;
    if !foot.is_empty() {
        println!("{foot}");
    }
    Ok(())
}

fn digest(matches: &[MatchRecord]) -> u64 {
    let mut hasher = DefaultHasher::new();
    matches.iter().for_each(|m| m.dedup_key().hash(&mut hasher));
    hasher.finish()
}

/// Every cell that has a base arm, paired with the base's cell at its `d`.
fn versus(cells: &[Vec<Cell>]) -> impl Iterator<Item = (&Cell, &Cell)> {
    cells.iter().flat_map(|row| row.iter().filter_map(move |c| Some((c, &row[c.base?]))))
}

fn secs(seconds: f64) -> String {
    format!("{seconds:.6}")
}

fn times(ratio: f64) -> String {
    format!("{ratio:.2}x")
}

// The columns. Per-arm tables read the row's own cell; per-`d` tables name
// an arm by index.
const D: Col = Col("d", 10, |r| format!("{:.3}", r.cell().d));
const METHOD: Col = Col("method", 22, |r| r.cell().method.to_string());
const SHARDS: Col = Col("shards", 8, |r| r.cell().shards.to_string());
const REPLICATION: Col = Col("repl", 8, |r| format!("{:.3}", r.cell().replication));
const ENTRIES: Col = Col("|D|", 12, |r| r.cell().entries.to_string());
const CAPACITY: Col = Col("capacity", 14, |r| r.cell().capacity.to_string());
const DUP_DROPPED: Col = Col("dup-drop", 10, |r| r.cell().duplicates_dropped.to_string());
const RESPONSE: Col = Col("response (s)", 16, |r| secs(r.response(r.arm)));
const COMPARISONS: Col = Col("comparisons", 14, |r| r.report().comparisons.to_string());
const FALLBACK: Col = Col("fallback", 14, |r| r.report().fallback_queries.to_string());
const REDO: Col = Col("redo", 12, |r| r.report().redo_rounds.to_string());
const RAW: Col = Col("raw", 12, |r| r.report().raw_matches.to_string());
const DEDUP: Col = Col("dedup", 14, |r| r.report().matches.to_string());
const DIVERGENT: Col = Col("divergent warps", 16, |r| r.report().divergent_warps.to_string());
const SPREAD: Col = Col("spread", 8, |r| format!("{:.2}", r.report().load.spread()));
const TILES: Col = Col("tiles", 10, |r| r.report().load.tiles_dispatched.to_string());
const QUEUE_ATOMICS: Col = Col("q-atomics", 12, |r| r.report().load.queue_atomics.to_string());
const ROUTED: Col = Col("routed", 10, |r| r.report().routing.shard_queries_routed.to_string());
const SKIPPED: Col = Col("skipped", 10, |r| r.report().routing.shard_queries_skipped.to_string());
const INVOCATIONS: Col =
    Col("invocations", 12, |r| r.report().response.kernel_invocations.to_string());
const fn label(head: &'static str) -> Col {
    Col(head, 16, |r| r.cell().label.clone())
}
const fn response_of(head: &'static str, arm: usize) -> Col {
    const RESPONSE_OF: [fn(&Row) -> String; 4] = [
        |r| secs(r.response(0)),
        |r| secs(r.response(1)),
        |r| secs(r.response(2)),
        |r| secs(r.response(3)),
    ];
    Col(head, 16, RESPONSE_OF[arm])
}
/// Best GPU arm over the CPU arm of [`three_way`].
const fn gpu_over_cpu(head: &'static str) -> Col {
    Col(head, 14, |r| format!("{:.3}", r.response(1).min(r.response(2)) / r.response(0)))
}

fn spatial(cells_per_dim: usize) -> Method {
    let fsg = FsgConfig { cells_per_dim };
    Method::GpuSpatial(GpuSpatialConfig { fsg, total_scratch: 4_000_000 })
}

fn temporal(bins: usize) -> Method {
    Method::GpuTemporal(TemporalIndexConfig { bins })
}

fn spatiotemporal(bins: usize, subbins: usize) -> Method {
    Method::GpuSpatioTemporal(SpatioTemporalIndexConfig { bins, subbins, sort_by_selector: true })
}

/// The paper's own GPUSpatioTemporal configuration for the dataset.
fn paper_spatiotemporal(p: &Prepared) -> Method {
    spatiotemporal(p.params.temporal_bins, p.params.subbins)
}

/// Figs. 5–7: the CPU baseline against the two temporal GPU schemes.
fn three_way(p: &Prepared, _: &RunConfig) -> Vec<Arm> {
    vec![
        Arm::new("CPU-RTree", Method::CpuRTree(RTreeConfig::default())),
        Arm::new("GPUTemporal", temporal(p.params.temporal_bins)),
        Arm::new("GPUSpatioTemporal", paper_spatiotemporal(p)),
    ]
}

/// One GPUSpatioTemporal arm per subbin count `v`.
fn per_subbins(p: &Prepared, vs: &[usize]) -> Vec<Arm> {
    vs.iter().map(|&v| Arm::new(v, spatiotemporal(p.params.temporal_bins, v))).collect()
}

/// GPUTemporal and GPUSpatioTemporal, each on 1/2/4/8 devices; every arm is
/// compared against its method's single-device arm.
fn sharding_arms(p: &Prepared, _: &RunConfig) -> Vec<Arm> {
    let mut arms = Vec::new();
    for method in [temporal(p.params.temporal_bins), paper_spatiotemporal(p)] {
        let single = arms.len();
        for shards in [1, 2, 4, 8] {
            let label = format!("{} on {shards}", method.name());
            let arm = Arm::new(label, method).sharded(shards);
            arms.push(if shards == 1 { arm } else { arm.vs(single) });
        }
    }
    arms
}

fn scaling_arms(shard_counts: &[usize], weak: bool, cfg: &RunConfig) -> Vec<Arm> {
    let bins = Scenario::new(S2, cfg.scale).params().temporal_bins;
    let arm = |&shards: &usize| Arm {
        data: weak.then_some(Data::Merger16ths(shards)),
        ..Arm::new(format!("{shards} shard(s)"), temporal(bins)).sharded(shards)
    };
    shard_counts.iter().map(arm).collect()
}

/// Defaults the rows below override.
const ROW: Target = Target {
    name: "",
    title: "",
    data: Data::Paper(S2),
    arms: three_way,
    ds: Ds::Sweep,
    layout: Layout::PerArm(1),
    cols: &[],
    close: None,
};

/// Figs. 5 and 6 minus name, title and dataset.
const FIG56: Target = Target {
    layout: Layout::PerD,
    cols: &[
        D,
        response_of("CPU-RTree", 0),
        response_of("GPUTemporal", 1),
        response_of("GPUSpTemporal", 2),
        gpu_over_cpu("best-GPU/CPU"),
    ],
    ..ROW
};

/// Fig. 7: best-GPU / CPU ratio at the low, middle and high `d` of a sweep.
const FIG7: Target = Target {
    name: "fig7",
    title: "Figure 7 — GPU/CPU response-time ratio (best GPU method)",
    ds: Ds::FirstMidLast,
    layout: Layout::PerD,
    cols: &[
        Col("dataset", 18, |r| r.data.to_string()),
        D,
        response_of("CPU (s)", 0),
        Col("GPU (s)", 14, |r| secs(r.response(1).min(r.response(2)))),
        gpu_over_cpu("ratio"),
    ],
    ..ROW
};

/// T-C (§V-C/D); the paper finds v = 4 good on Random, v = 16 on Merger.
const SWEEP_SUBBINS: Target = Target {
    name: "sweep-subbins",
    arms: |p, _| per_subbins(p, &[1, 2, 4, 8, 16]),
    cols: &[label("v"), D, RESPONSE, COMPARISONS, FALLBACK],
    ..ROW
};

/// T-F (§V-E). On Random-dense the subbin-width constraint caps the
/// effective v at reduced scales (the cube shrinks with the particle count,
/// segment extents do not); Merger's geometry is scale-free.
const FALLBACK_RATE: Target = Target {
    name: "fallback-rate",
    arms: |p, _| per_subbins(p, &[2, 4, 8]),
    cols: &[
        label("v"),
        D,
        FALLBACK,
        Col("of |Q|", 13, |r| {
            format!("{:.1}%", 100.0 * r.report().fallback_queries as f64 / r.queries as f64)
        }),
    ],
    ..ROW
};

/// Every table `figures` can regenerate, in `all` order. Rows that share a
/// name are one target and run together.
pub const TARGETS: &[Target] = &[
    // Fig. 4, with the "optimistic" GPUSpatial curve that discounts every
    // kernel re-launch but one.
    Target {
        name: "fig4",
        title: "Figure 4 — S1 Random: response time (s) vs d",
        data: Data::Paper(S1),
        arms: |p, cfg| {
            let mut arms = three_way(p, cfg);
            arms.insert(1, Arm::new("GPUSpatial", spatial(p.params.fsg_cells_per_dim)));
            arms
        },
        layout: Layout::PerD,
        cols: &[
            D,
            response_of("CPU-RTree", 0),
            response_of("GPUSpatial", 1),
            Col("GPUSpatial-opt", 16, |r| {
                let one_launch = r.cfg.device.kernel_launch_overhead;
                secs(r.cells[1].report.response.total_discounting_launches() + one_launch)
            }),
            response_of("GPUTemporal", 2),
            response_of("GPUSpTemporal", 3),
        ],
        ..ROW
    },
    Target { name: "fig5", title: "Figure 5 — S2 Merger: response time (s) vs d", ..FIG56 },
    // Fig. 6 runs with the enlarged result buffer of §V-E.
    Target {
        name: "fig6",
        title: "Figure 6 — S3 Random-dense: response time (s) vs d",
        data: Data::Paper(S3),
        ..FIG56
    },
    Target { data: Data::Paper(S1), ..FIG7 },
    Target { data: Data::Paper(S2), ..FIG7 },
    Target { data: Data::Paper(S3), ..FIG7 },
    // T-A (§V-C).
    Target {
        name: "sweep-fsg",
        title: "T-A — GPUSpatial FSG resolution sweep (S1 Random)",
        data: Data::Paper(S1),
        arms: |_, _| [10, 25, 50, 100].map(|cells| Arm::new(cells, spatial(cells))).into(),
        ds: Ds::Fixed(&[1.0, 10.0]),
        cols: &[label("cells/dim"), D, RESPONSE, REDO, RAW, DEDUP],
        ..ROW
    },
    // T-B (§V-C/D).
    Target {
        name: "sweep-bins",
        title: "T-B — GPUTemporal bin-count sweep (S1 Random, d = 10)",
        data: Data::Paper(S1),
        arms: |_, _| {
            [10, 100, 1_000, 10_000, 100_000].map(|bins| Arm::new(bins, temporal(bins))).into()
        },
        ds: Ds::Fixed(&[10.0]),
        cols: &[label("bins"), RESPONSE, COMPARISONS],
        ..ROW
    },
    Target {
        title: "T-C — GPUSpatioTemporal subbin sweep (S1-random)",
        data: Data::Paper(S1),
        ds: Ds::Fixed(&[1.0, 10.0, 50.0]),
        ..SWEEP_SUBBINS
    },
    Target {
        title: "T-C — GPUSpatioTemporal subbin sweep (S2-merger)",
        ds: Ds::Fixed(&[0.1, 1.0, 5.0]),
        ..SWEEP_SUBBINS
    },
    // T-D (§V-C): the cost of the extra indirection. With v = 1 every
    // GPUSpatioTemporal query falls back to the temporal scheme.
    Target {
        name: "ablation-indirection",
        title: "T-D — indirection ablation (S1 Random, d = 50)",
        data: Data::Paper(S1),
        arms: |p, _| {
            let bins = p.params.temporal_bins;
            let (direct, indirect) = (temporal(bins), spatiotemporal(bins, 1));
            vec![Arm::new("GPUTemporal", direct), Arm::new("GPUSpTemporal v=1", indirect)]
        },
        ds: Ds::Fixed(&[50.0]),
        cols: &[
            Col("", -17, |r| r.cell().label.clone()),
            Col("", 0, |r| format!("{} s", secs(r.response(r.arm)))),
        ],
        close: Some(|cells| {
            let response = |arm: usize| cells[0][arm].report.response_seconds();
            let overhead = (response(1) / response(0) - 1.0) * 100.0;
            Ok(format!("overhead          {overhead:.1}% (paper: 12.4%)"))
        }),
        ..ROW
    },
    // T-E (§V-E), at the most overflow-prone d. The paper compares 5.0e7 vs
    // 9.2e7 elements; here the small buffer is a quarter of the result set,
    // so the larger one's effect shows at any scale.
    Target {
        name: "ablation-buffer",
        title: "T-E — result-buffer ablation (S3 Random-dense, d = 0.09)",
        data: Data::Paper(S3),
        arms: |p, _| {
            let quarter =
                |large: usize, base: &Cell| (base.report.matches as usize / 4).max(2).min(large);
            let small = Arm::new("small", paper_spatiotemporal(p)).vs(1);
            let large = Arm::new("large", paper_spatiotemporal(p));
            vec![Arm { capacity: Some(quarter), ..small }, large]
        },
        ds: Ds::Fixed(&[0.09]),
        cols: &[CAPACITY, RESPONSE, INVOCATIONS],
        close: Some(|cells| {
            let response = |arm: usize| cells[0][arm].report.response_seconds();
            let cut = (1.0 - response(1) / response(0)) * 100.0;
            Ok(format!("larger buffer cuts response time by {cut:.1}% (paper: 65.8% at its scale)"))
        }),
        ..ROW
    },
    Target {
        title: "T-F — GPUSpatioTemporal fallback rate (S3-random-dense)",
        data: Data::Paper(S3),
        ..FALLBACK_RATE
    },
    Target { title: "T-F — GPUSpatioTemporal fallback rate (S2-merger)", ..FALLBACK_RATE },
    // §VI closes by arguing that faster host-GPU bandwidth and bigger
    // memories will further favour the GPU.
    Target {
        name: "future-trends",
        title: "Future trends (§VI) — Tesla C2075 vs modern GPU (S2 Merger)",
        arms: |p, _| {
            let modern = Arm::new("modern GPU", paper_spatiotemporal(p));
            let modern = Arm { device: Some(DeviceConfig::modern_gpu()), ..modern };
            vec![Arm::new("C2075", paper_spatiotemporal(p)), modern]
        },
        layout: Layout::PerD,
        cols: &[
            D,
            response_of("C2075 (s)", 0),
            response_of("modern (s)", 1),
            Col("speedup", 10, |r| times(r.response(0) / r.response(1))),
        ],
        ..ROW
    },
    // §IV-C2 sorts the schedule by array selector so warps run uniform
    // control paths; unsorted shows the penalty through the divergence model.
    Target {
        name: "ablation-sort",
        title: "Divergence ablation — selector-sorted vs unsorted schedule (S2 Merger)",
        arms: |p, _| {
            let ScenarioParams { temporal_bins: bins, subbins, .. } = p.params;
            let arm = |sort_by_selector: bool| {
                let config = SpatioTemporalIndexConfig { bins, subbins, sort_by_selector };
                Arm::new(sort_by_selector, Method::GpuSpatioTemporal(config))
            };
            vec![arm(true), arm(false)]
        },
        ds: Ds::Fixed(&[1.0, 2.0, 5.0]),
        cols: &[D, label("sorted"), RESPONSE, DIVERGENT],
        ..ROW
    },
    // A density gradient produces the d-dependent CPU/GPU crossover the paper
    // reports and a uniform-density generator cannot (DESIGN.md §4c).
    Target {
        name: "crossover",
        title: "Crossover study — Gaussian cluster: CPU vs GPU vs d",
        data: Data::Cluster,
        arms: |p, cfg| {
            let mut arms = three_way(p, cfg);
            arms.remove(1);
            arms
        },
        layout: Layout::PerD,
        cols: &[
            D,
            response_of("CPU-RTree (s)", 0),
            response_of("GPUSpTemp (s)", 1),
            Col("ratio", 10, |r| format!("{:.3}", r.response(1) / r.response(0))),
        ],
        close: Some(|_| {
            Ok("(ratio < 1: GPU faster — the crossover moves left as concentration rises)".into())
        }),
        ..ROW
    },
    // Merger at small-to-mid d: candidate ranges are most skewed there, and a
    // static warp costs as much as its heaviest lane. The headline is some
    // GPUSpatioTemporal point that cuts the max/mean warp-cost spread at
    // least 2x and wins on simulated time.
    Target {
        name: "ablation-workqueue",
        title: "Work-queue ablation — thread-per-query vs warp-per-tile \
                (S2 Merger, {tile} entries/tile)",
        arms: |p, _| {
            let ScenarioParams { fsg_cells_per_dim: cells, temporal_bins: bins, .. } = p.params;
            let mut arms = Vec::new();
            for method in [spatial(cells), temporal(bins), paper_spatiotemporal(p)] {
                let shaped =
                    |label: &str, shape| Arm { shape: Some(shape), ..Arm::new(label, method) };
                let per_query = arms.len();
                arms.push(shaped("thread-per-query", KernelShape::ThreadPerQuery));
                arms.push(shaped("warp-per-tile", KernelShape::WarpPerTile).vs(per_query));
            }
            arms
        },
        ds: Ds::Fixed(&[0.1, 0.5, 1.0, 2.0]),
        layout: Layout::PerArm(2),
        cols: &[METHOD, D, label("shape"), RESPONSE, SPREAD, TILES, QUEUE_ATOMICS],
        close: Some(|cells| {
            let headline = |(tile, query): (&Cell, &Cell)| {
                tile.method == "GPUSpatioTemporal"
                    && tile.report.load.spread() * 2.0 <= query.report.load.spread()
                    && tile.device_seconds() < query.device_seconds()
            };
            let missing = "work-queue ablation: no GPUSpatioTemporal point achieved a >= 2x \
                           spread cut together with a response-time win";
            versus(cells).any(headline).then(String::new).ok_or(missing.to_string())
        }),
        ..ROW
    },
    // Boundary segments are replicated and the merge dedups them, so result
    // sets stay identical at every shard count; the simulated response takes
    // the *slowest* shard plus the host merge. The 2x floor at 8 shards is
    // deliberately conservative: at harness scales the unsplittable costs
    // (query upload, launch overhead) weigh more than at paper scale. Each
    // query goes only to the slabs its own [t0, t1] touches, with no
    // distance slack, so every 8-shard cell must skip some shard-queries.
    Target {
        name: "ablation-sharding",
        title: "Sharding ablation — 1..8 simulated devices, temporal partition (S2 Merger)",
        arms: sharding_arms,
        ds: Ds::FirstMidLast,
        cols: &[
            METHOD,
            D,
            SHARDS,
            REPLICATION,
            ROUTED,
            SKIPPED,
            RESPONSE,
            Col("speedup", 10, |r| {
                let speedup = |single: &Cell| single.report.response_seconds() / r.response(r.arm);
                r.base().map_or("-".into(), |single| times(speedup(single)))
            }),
            DUP_DROPPED,
        ],
        close: Some(|cells| {
            let eight = || versus(cells).filter(|(c, _)| c.shards == 8);
            if let Some((c, _)) = eight().find(|(c, _)| c.report.routing.shard_queries_skipped == 0)
            {
                return Err(format!(
                    "sharding ablation: {} at d = {} skipped no shard-query",
                    c.label, c.d
                ));
            }
            let best = eight()
                .map(|(c, single)| single.device_seconds() / c.device_seconds())
                .fold(0.0, f64::max);
            let found = format!("best 8-shard speedup: {best:.2}x");
            let ok = format!("{found} (results byte-identical throughout)");
            (best >= 2.0).then_some(ok).ok_or(format!("sharding ablation: {found} < 2x"))
        }),
        ..ROW
    },
    // Strong scaling: fixed |D|, 1..32 devices.
    Target {
        name: "scaling-sharding",
        title: "Sharding scaling study — strong (fixed |D| = {n}, d = 0.5, temporal partition)",
        data: Data::Merger16ths(16),
        arms: |_, cfg| scaling_arms(&[1, 2, 4, 8, 16, 32], false, cfg),
        cols: &[
            SHARDS,
            REPLICATION,
            RESPONSE,
            Col("speedup", 10, |r| times(r.response(0) / r.response(r.arm))),
            Col("efficiency", 12, |r| {
                let speedup = r.response(0) / r.response(r.arm);
                format!("{:.1}%", 100.0 * speedup / r.cell().shards as f64)
            }),
        ],
        ..ROW
    },
    // Weak scaling: |D| grows with the device count (the 16-shard row holds
    // the configured scale), so per-device work is constant.
    Target {
        name: "scaling-sharding",
        title: "Sharding scaling study — weak (|D| grows with devices, d = 0.5, \
                temporal partition)",
        data: Data::Merger16ths(1),
        arms: |_, cfg| scaling_arms(&[1, 2, 4, 8, 16], true, cfg),
        cols: &[
            SHARDS,
            ENTRIES,
            REPLICATION,
            RESPONSE,
            Col("vs 1-shard", 12, |r| times(r.response(r.arm) / r.response(0))),
        ],
        close: Some(|_| {
            Ok("(weak ideal: flat at 1.00x — rises measure replication + merge overheads)".into())
        }),
        ..ROW
    },
];
