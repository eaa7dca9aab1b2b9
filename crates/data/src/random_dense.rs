//! The *Random-dense* dataset: random walks at the solar-neighbourhood
//! stellar density (paper §V-A).

use crate::builder::TrajectoryBuilder;
use crate::random_walk::step;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tdts_geom::{Point3, SegmentStore};

/// Configuration of the dense random-walk generator.
///
/// Defaults reproduce the paper's *Random-dense* dataset: 65,536 particles
/// over 193 timesteps (12,582,912 segments) at the Reid et al. solar
/// neighbourhood number density of 0.112 stars/pc³, which fixes a cubic
/// volume of 65,536 / 0.112 ≈ 585,142 pc³ (side ≈ 83.6 pc). All particles
/// span the full time range, as in a simulation snapshot series.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomDenseConfig {
    /// Number of particles (trajectories).
    pub particles: usize,
    /// Timestamps per particle (segments = timesteps - 1).
    pub timesteps: usize,
    /// Stellar number density in particles per cubic parsec; determines the
    /// cube side so density stays fixed when `particles` is scaled.
    pub density: f64,
    /// Standard deviation of one step's displacement per axis, in parsecs.
    pub step_sigma: f64,
    /// Time between consecutive samples.
    pub dt: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomDenseConfig {
    fn default() -> Self {
        RandomDenseConfig {
            particles: 65_536,
            timesteps: 193,
            density: 0.112,
            // The paper generates these walks "as for Random", i.e. with the
            // same step distribution. Relative to the ~83.6 pc cube this
            // density implies, a 5-unit step makes each segment sweep a few
            // percent of the volume — which is what erodes the spatial
            // selectivity of MBB-based indexes on this dataset and drives
            // the paper's §V-E observations (growing result sets, queries
            // overlapping multiple subbins, CPU R-tree losing at larger d).
            step_sigma: 5.0,
            dt: 1.0,
            seed: 0x6465_6e73, // "dens"
        }
    }
}

impl RandomDenseConfig {
    /// Expected number of entry segments.
    pub fn segment_count(&self) -> usize {
        self.particles * self.timesteps.saturating_sub(1)
    }

    /// Cube side implied by the particle count and density.
    pub fn box_side(&self) -> f64 {
        (self.particles as f64 / self.density).cbrt()
    }

    /// A copy with `scale` of the particles; density (and therefore all
    /// query-distance selectivities) is preserved by shrinking the volume.
    pub fn scaled(&self, scale: f64) -> Self {
        let mut c = self.clone();
        c.particles = ((self.particles as f64 * scale).round() as usize).max(1);
        c
    }

    /// Generate the dataset.
    pub fn generate(&self) -> SegmentStore {
        assert!(self.timesteps >= 2, "need at least 2 timesteps");
        assert!(self.density > 0.0 && self.step_sigma >= 0.0);
        let side = self.box_side();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut builder = TrajectoryBuilder::new();
        let mut positions = Vec::with_capacity(self.timesteps);
        for _ in 0..self.particles {
            positions.clear();
            let mut p = Point3::new(
                rng.gen_range(0.0..side),
                rng.gen_range(0.0..side),
                rng.gen_range(0.0..side),
            );
            positions.push(p);
            for _ in 1..self.timesteps {
                p = step(&mut rng, p, self.step_sigma, side);
                positions.push(p);
            }
            builder.push_trajectory(&positions, 0.0, self.dt);
        }
        builder.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_counts() {
        let cfg = RandomDenseConfig::default();
        assert_eq!(cfg.segment_count(), 12_582_912);
        // Volume 65,536 / 0.112 ≈ 585,142 pc³ as stated in the paper.
        let vol = cfg.box_side().powi(3);
        assert!((vol - 585_142.0).abs() / 585_142.0 < 1e-3, "volume {vol}");
    }

    #[test]
    fn scaling_preserves_density() {
        let full = RandomDenseConfig::default();
        let scaled = full.scaled(1.0 / 16.0);
        assert_eq!(scaled.particles, 4_096);
        let d_full = full.particles as f64 / full.box_side().powi(3);
        let d_scaled = scaled.particles as f64 / scaled.box_side().powi(3);
        assert!((d_full - d_scaled).abs() < 1e-9);
    }

    #[test]
    fn all_particles_synchronised() {
        let cfg = RandomDenseConfig { particles: 10, timesteps: 5, ..Default::default() };
        let store = cfg.generate();
        assert_eq!(store.len(), 10 * 4);
        let stats = store.stats().unwrap();
        assert_eq!(stats.time_span.start, 0.0);
        assert_eq!(stats.time_span.end, 4.0);
        // Every trajectory spans the full range.
        for s in store.iter() {
            assert!(s.t_start >= 0.0 && s.t_end <= 4.0);
        }
    }

    #[test]
    fn deterministic() {
        let cfg = RandomDenseConfig { particles: 8, timesteps: 6, ..Default::default() };
        assert_eq!(cfg.generate().segments(), cfg.generate().segments());
    }

    #[test]
    fn positions_within_volume() {
        let cfg = RandomDenseConfig { particles: 16, timesteps: 20, ..Default::default() };
        let side = cfg.box_side();
        let store = cfg.generate();
        let b = store.stats().unwrap().bounds;
        assert!(b.lo.x >= 0.0 && b.hi.x <= side);
        assert!(b.lo.z >= 0.0 && b.hi.z <= side);
    }
}
