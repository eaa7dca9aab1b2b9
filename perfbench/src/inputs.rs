//! Workload definitions and the inputs each one draws from `--seed`.
//!
//! The program under test only ever receives generated inputs: the seed
//! feeds `MergerConfig::seed` for the database and `seed ^ k` for every
//! query source, so the same seed gives the same inputs bit for bit.

use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tdts_core::Method;
use tdts_data::MergerConfig;
use tdts_geom::{Segment, SegmentStore};
use tdts_gpu_sim::{DeviceConfig, KernelShape};
use tdts_index_spatiotemporal::SpatioTemporalIndexConfig;
use tdts_index_temporal::TemporalIndexConfig;

/// Query distance. Pinned at 1.0: at `d = 2` the sharded workload's
/// simulated seconds differed between passes over one query set (the
/// redo-order leak of ROADMAP item 1), at 1.0 they repeat bit for bit.
pub const D: f64 = 1.0;
/// Device result-buffer bound per search (the service's default).
pub const RESULT_CAPACITY: usize = 2_000_000;
pub const BINS: usize = 1_000;
pub const SUBBINS: usize = 16;
pub const SHARDS: usize = 4;
/// Direct workloads cycle this many query sets, each `QUERY_TRAJECTORIES`
/// runs of `QUERY_RUN` consecutive segments, one run per Merger trajectory
/// (768 segments a set). Many short runs rather than a few whole
/// trajectories: spatial selectivity depends on where a trajectory lies,
/// and with 4 whole trajectories a set the simulated cost of the sharded
/// workload spread 12 % from seed to seed. Run `t` covers slot
/// `t % QUERY_SLOTS` of the time span, so every set covers all of it evenly
/// and every temporal shard sees the same share of every set.
pub const QUERY_SETS: usize = 4;
pub const QUERY_TRAJECTORIES: usize = 192;
pub const QUERY_RUN: usize = 4;
const QUERY_SLOTS: usize = SEGMENTS_PER_TRAJECTORY / QUERY_RUN;
/// Segments of one default (193-timestep) Merger query trajectory.
const SEGMENTS_PER_TRAJECTORY: usize = 192;
/// `service-burst` draws its requests from this many query trajectories.
pub const BURST_TRAJECTORIES: usize = 512;
pub const BURST_REQUESTS: usize = 16;
pub const REQUEST_SEGMENTS: usize = 16;
/// `service-burst` cycles this many distinct bursts.
pub const BURST_CYCLE: usize = 32;
/// `service-stream`: timesteps in the base store, and the window width.
pub const WINDOW_STEPS: usize = 64;
/// `service-stream`: timesteps generated; ticks past the end stop the run.
pub const STREAM_TIMESTEPS: usize = 512;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BatchTemporal,
    ShardedSpatioTemporal,
    ServiceBurst,
    ServiceStream,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BatchTemporal,
        Workload::ShardedSpatioTemporal,
        Workload::ServiceBurst,
        Workload::ServiceStream,
    ];

    pub fn name(self) -> &'static str {
        crate::metrics::WORKLOADS[self as usize].0
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_service(self) -> bool {
        matches!(self, Workload::ServiceBurst | Workload::ServiceStream)
    }

    pub fn method(self) -> Method {
        match self {
            Workload::BatchTemporal => Method::GpuTemporal(TemporalIndexConfig { bins: BINS }),
            _ => Method::GpuSpatioTemporal(spatiotemporal_config()),
        }
    }

    pub fn device(self) -> DeviceConfig {
        device_config(match self {
            Workload::BatchTemporal => KernelShape::ThreadPerQuery,
            _ => KernelShape::WarpPerTile,
        })
    }
}

pub fn spatiotemporal_config() -> SpatioTemporalIndexConfig {
    SpatioTemporalIndexConfig { bins: BINS, subbins: SUBBINS, sort_by_selector: true }
}

pub fn device_config(shape: KernelShape) -> DeviceConfig {
    let mut config = DeviceConfig::tesla_c2075();
    config.kernel_shape = shape;
    config
}

/// What a run is sized by. Op *size* never changes between the two; the
/// smoke run only shrinks the database and the op count.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `MergerConfig::scaled` factor of the database.
    pub scale: f64,
    /// Cold set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Measure for this long (whole cycles) ...
    pub seconds: f64,
    /// ... or, for `--smoke`, exactly this many ops.
    pub fixed_ops: Option<usize>,
}

impl Sizes {
    pub fn full(seconds: f64) -> Sizes {
        Sizes { scale: 0.02, setups: 5, seconds, fixed_ops: None }
    }

    pub fn smoke() -> Sizes {
        Sizes { scale: 0.002, setups: 1, seconds: 0.0, fixed_ops: Some(5) }
    }
}

pub struct Inputs {
    /// The database as generated (`PreparedDataset::new` sorts a clone).
    pub base: SegmentStore,
    /// Direct workloads: the query sets, cycled.
    pub query_sets: Vec<SegmentStore>,
    /// `service-burst`: the bursts, cycled; each is `BURST_REQUESTS` requests.
    pub bursts: Vec<Vec<SegmentStore>>,
    /// `service-stream`: every timestep's segments in particle order
    /// (`steps[t][p]` starts at time `t`); `base` is steps `0..WINDOW_STEPS`.
    pub steps: Vec<Vec<Segment>>,
    /// `service-stream`: the particles each tick's burst follows.
    pub stream_particles: Vec<usize>,
    /// Input generation wall seconds — outside every metric.
    pub gen_seconds: f64,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, sizes: &Sizes) -> Inputs {
        let start = Instant::now();
        let merger = MergerConfig { seed, ..MergerConfig::default().scaled(sizes.scale) };
        let mut inputs = Inputs {
            base: SegmentStore::new(),
            query_sets: Vec::new(),
            bursts: Vec::new(),
            steps: Vec::new(),
            stream_particles: Vec::new(),
            gen_seconds: 0.0,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7065_7266); // "perf"
        match workload {
            Workload::BatchTemporal | Workload::ShardedSpatioTemporal => {
                inputs.base = merger.generate();
                inputs.query_sets = (1..=QUERY_SETS as u64)
                    .map(|k| {
                        let source = query_trajectories(seed ^ k, QUERY_TRAJECTORIES);
                        (0..QUERY_TRAJECTORIES)
                            .flat_map(|t| {
                                run_of(&source, t, t % QUERY_SLOTS * QUERY_RUN, QUERY_RUN)
                            })
                            .collect()
                    })
                    .collect();
            }
            Workload::ServiceBurst => {
                inputs.base = merger.generate();
                // Requests are 16 consecutive segments of a random query
                // trajectory at a random offset.
                let source = query_trajectories(seed ^ 5, BURST_TRAJECTORIES);
                inputs.bursts = (0..BURST_CYCLE)
                    .map(|_| {
                        (0..BURST_REQUESTS)
                            .map(|_| {
                                let t = rng.gen_range(0..BURST_TRAJECTORIES);
                                let from =
                                    rng.gen_range(0..=SEGMENTS_PER_TRAJECTORY - REQUEST_SEGMENTS);
                                run_of(&source, t, from, REQUEST_SEGMENTS).collect()
                            })
                            .collect()
                    })
                    .collect();
            }
            Workload::ServiceStream => {
                let merger = MergerConfig { timesteps: STREAM_TIMESTEPS, ..merger };
                let all = merger.generate();
                // The generator emits particle-major; regroup by timestep.
                let per_particle = STREAM_TIMESTEPS - 1;
                inputs.steps = (0..per_particle)
                    .map(|t| {
                        (0..merger.particles).map(|p| *all.get(p * per_particle + t)).collect()
                    })
                    .collect();
                inputs.base = inputs.steps[..WINDOW_STEPS].iter().flatten().copied().collect();
                inputs.stream_particles = (0..per_particle * BURST_REQUESTS)
                    .map(|_| rng.gen_range(0..merger.particles))
                    .collect();
            }
        }
        inputs.gen_seconds = start.elapsed().as_secs_f64();
        inputs
    }

    /// The burst of stream tick `t` (the timestep just appended): each
    /// request follows one particle over the `REQUEST_SEGMENTS` timesteps
    /// ending at the new frontier.
    pub fn stream_burst(&self, t: usize) -> Vec<SegmentStore> {
        let picks = &self.stream_particles[t * BURST_REQUESTS..(t + 1) * BURST_REQUESTS];
        picks
            .iter()
            .map(|&p| (t + 1 - REQUEST_SEGMENTS..=t).map(|step| self.steps[step][p]).collect())
            .collect()
    }
}

/// `n` Merger trajectories over the default 193 timesteps: queries move
/// through the same volume as the database, as in the paper's S2.
fn query_trajectories(seed: u64, n: usize) -> SegmentStore {
    MergerConfig { particles: n, seed, ..MergerConfig::default() }.generate()
}

/// Segments `from..from + len` of trajectory `t` of `source` (whole default
/// Merger trajectories, particle-major).
fn run_of(
    source: &SegmentStore,
    t: usize,
    from: usize,
    len: usize,
) -> impl Iterator<Item = Segment> + '_ {
    let start = t * SEGMENTS_PER_TRAJECTORY + from;
    source.segments()[start..start + len].iter().copied()
}

/// One request store holding every request of a burst back to back — the
/// batch a direct search of the same queries would see.
pub fn merged(requests: &[SegmentStore]) -> SegmentStore {
    requests.iter().flat_map(|r| r.iter().copied()).collect()
}
