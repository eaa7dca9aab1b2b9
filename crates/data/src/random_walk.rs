//! The *Random* dataset: sparse random-walk trajectories (paper §V-A).

use crate::builder::TrajectoryBuilder;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tdts_geom::{Point3, SegmentStore};

/// Configuration of the random-walk generator.
///
/// Defaults reproduce the paper's *Random* dataset: 2,500 trajectories, 400
/// timesteps each (997,500 entry segments), start times uniform in
/// `[0, 100]`. The paper does not state the spatial parameters; the defaults
/// (a 1,000-unit cube with ~5-unit steps) are calibrated so that the paper's
/// query distance sweep (d up to 50) spans the same selectivity regimes —
/// see EXPERIMENTS.md.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomWalkConfig {
    /// Number of trajectories.
    pub trajectories: usize,
    /// Timestamps sampled per trajectory (segments = timesteps - 1).
    pub timesteps: usize,
    /// Side length of the cubic volume walks are confined to (reflecting).
    pub box_side: f64,
    /// Standard deviation of one step's displacement per axis.
    pub step_sigma: f64,
    /// Trajectory start times are uniform in `[start_time_min, start_time_max]`.
    pub start_time_min: f64,
    pub start_time_max: f64,
    /// Time between consecutive samples.
    pub dt: f64,
    /// RNG seed; equal seeds give identical datasets.
    pub seed: u64,
}

impl Default for RandomWalkConfig {
    fn default() -> Self {
        RandomWalkConfig {
            trajectories: 2_500,
            timesteps: 400,
            box_side: 1_000.0,
            step_sigma: 5.0,
            start_time_min: 0.0,
            start_time_max: 100.0,
            dt: 1.0,
            seed: 0x7261_6e64, // "rand"
        }
    }
}

impl RandomWalkConfig {
    /// Expected number of entry segments.
    pub fn segment_count(&self) -> usize {
        self.trajectories * self.timesteps.saturating_sub(1)
    }

    /// A copy scaled to `scale` of the trajectories (≥1 kept), same volume.
    pub fn scaled(&self, scale: f64) -> Self {
        let mut c = self.clone();
        c.trajectories = ((self.trajectories as f64 * scale).round() as usize).max(1);
        c
    }

    /// Generate the dataset.
    pub fn generate(&self) -> SegmentStore {
        assert!(self.timesteps >= 2, "need at least 2 timesteps");
        assert!(self.box_side > 0.0 && self.step_sigma >= 0.0);
        assert!(self.start_time_max >= self.start_time_min);
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut builder = TrajectoryBuilder::new();
        let mut positions = Vec::with_capacity(self.timesteps);
        for _ in 0..self.trajectories {
            positions.clear();
            let mut p = Point3::new(
                rng.gen_range(0.0..self.box_side),
                rng.gen_range(0.0..self.box_side),
                rng.gen_range(0.0..self.box_side),
            );
            positions.push(p);
            for _ in 1..self.timesteps {
                p = step(&mut rng, p, self.step_sigma, self.box_side);
                positions.push(p);
            }
            let t0 = rng.gen_range(self.start_time_min..=self.start_time_max);
            builder.push_trajectory(&positions, t0, self.dt);
        }
        builder.finish()
    }
}

/// One random-walk step with reflecting boundaries, shared with the dense
/// generator. The step is an isotropic Gaussian approximated by the sum of
/// two uniforms per axis (cheap, deterministic, and close enough for a
/// synthetic workload).
pub(crate) fn step<R: Rng>(rng: &mut R, p: Point3, sigma: f64, side: f64) -> Point3 {
    let mut draw = || {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        (u + v) * sigma * 1.2247 // var(U+V) = 2/3, scale to sigma^2
    };
    let mut q = p + Point3::new(draw(), draw(), draw());
    // Reflect back into [0, side] on each axis.
    let reflect = |x: f64| -> f64 {
        let mut x = x;
        loop {
            if x < 0.0 {
                x = -x;
            } else if x > side {
                x = 2.0 * side - x;
            } else {
                return x;
            }
        }
    };
    q.x = reflect(q.x);
    q.y = reflect(q.y);
    q.z = reflect(q.z);
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_counts() {
        let cfg = RandomWalkConfig::default();
        assert_eq!(cfg.segment_count(), 997_500);
    }

    #[test]
    fn generated_counts_and_bounds() {
        let cfg = RandomWalkConfig { trajectories: 20, timesteps: 50, ..Default::default() };
        let store = cfg.generate();
        assert_eq!(store.len(), 20 * 49);
        assert_eq!(store.trajectory_count(), 20);
        let stats = store.stats().unwrap();
        assert!(stats.bounds.lo.x >= 0.0 && stats.bounds.hi.x <= cfg.box_side);
        assert!(stats.bounds.lo.y >= 0.0 && stats.bounds.hi.y <= cfg.box_side);
        assert!(stats.bounds.lo.z >= 0.0 && stats.bounds.hi.z <= cfg.box_side);
        // Start times within [0, 100], so time span within [0, 100 + 49].
        assert!(stats.time_span.start >= 0.0);
        assert!(stats.time_span.end <= 100.0 + 49.0);
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let cfg = RandomWalkConfig { trajectories: 5, timesteps: 10, ..Default::default() };
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a.segments(), b.segments());
        let c = RandomWalkConfig { seed: 1, ..cfg }.generate();
        assert_ne!(a.segments(), c.segments());
    }

    #[test]
    fn scaling_preserves_structure() {
        let cfg = RandomWalkConfig::default().scaled(0.01);
        assert_eq!(cfg.trajectories, 25);
        assert_eq!(cfg.box_side, RandomWalkConfig::default().box_side);
        let tiny = RandomWalkConfig::default().scaled(1e-9);
        assert_eq!(tiny.trajectories, 1);
    }

    #[test]
    fn steps_have_roughly_requested_scale() {
        let cfg = RandomWalkConfig {
            trajectories: 10,
            timesteps: 200,
            step_sigma: 5.0,
            ..Default::default()
        };
        let store = cfg.generate();
        let mean_sq: f64 =
            store.iter().map(|s| (s.end - s.start).norm2()).sum::<f64>() / store.len() as f64;
        // 3 axes * sigma^2 = 75; allow generous tolerance.
        assert!((40.0..120.0).contains(&mean_sq), "mean square step {mean_sq}");
    }

    #[test]
    fn reflection_keeps_walks_inside() {
        // Huge steps stress the reflection loop.
        let cfg = RandomWalkConfig {
            trajectories: 3,
            timesteps: 100,
            box_side: 1.0,
            step_sigma: 5.0,
            ..Default::default()
        };
        let store = cfg.generate();
        for s in store.iter() {
            for dim in 0..3 {
                assert!(s.min_coord(dim) >= 0.0 && s.max_coord(dim) <= 1.0);
            }
        }
    }
}
