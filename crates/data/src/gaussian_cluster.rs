//! A centrally-concentrated cluster dataset.
//!
//! The paper's *Random-dense* generator is under-specified (DESIGN.md §4c);
//! this generator provides the missing regime explicitly: particles drawn
//! from an isotropic Gaussian ball (a star-cluster-like density gradient)
//! instead of a uniform cube. Local density near the core is orders of
//! magnitude above the mean, which is what erodes R-tree selectivity in a
//! *d-dependent* way — queries through the core sweep many neighbours even
//! at small `d`. Useful for studying how the CPU/GPU crossover moves with
//! concentration.

use crate::builder::TrajectoryBuilder;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tdts_geom::{Point3, SegmentStore};

/// Configuration of the Gaussian-cluster generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianClusterConfig {
    /// Number of particles (trajectories).
    pub particles: usize,
    /// Timestamps per particle (segments = timesteps - 1).
    pub timesteps: usize,
    /// Standard deviation of the cluster's radial density profile.
    pub core_sigma: f64,
    /// Standard deviation of one step's displacement per axis.
    pub step_sigma: f64,
    /// Time between consecutive samples.
    pub dt: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GaussianClusterConfig {
    fn default() -> Self {
        GaussianClusterConfig {
            particles: 8_192,
            timesteps: 97,
            core_sigma: 10.0,
            step_sigma: 0.2,
            dt: 1.0,
            seed: 0x636c_7573, // "clus"
        }
    }
}

impl GaussianClusterConfig {
    /// Expected number of entry segments.
    pub fn segment_count(&self) -> usize {
        self.particles * self.timesteps.saturating_sub(1)
    }

    /// A copy with `scale` of the particles; the cluster geometry is
    /// unchanged, so the *central density* scales linearly (that is the
    /// point: concentration, not mean density, drives the behaviour).
    pub fn scaled(&self, scale: f64) -> Self {
        let mut c = self.clone();
        c.particles = ((self.particles as f64 * scale).round() as usize).max(1);
        c
    }

    /// Generate the dataset. Particles start at Gaussian-ball positions and
    /// random-walk freely (no boundary: the cluster is self-defining).
    pub fn generate(&self) -> SegmentStore {
        assert!(self.timesteps >= 2, "need at least 2 timesteps");
        assert!(self.core_sigma > 0.0 && self.step_sigma >= 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut builder = TrajectoryBuilder::new();
        let mut positions = Vec::with_capacity(self.timesteps);
        // Sum of 4 uniforms ≈ Gaussian; matches the walk-step idiom used by
        // the other generators (deterministic, cheap).
        let gauss = |rng: &mut ChaCha8Rng, sigma: f64| -> f64 {
            let s: f64 = (0..4).map(|_| rng.gen_range(-1.0f64..1.0)).sum();
            s * sigma * 0.8660 // var(sum of 4 U(-1,1)) = 4/3
        };
        for _ in 0..self.particles {
            positions.clear();
            let mut p = Point3::new(
                gauss(&mut rng, self.core_sigma),
                gauss(&mut rng, self.core_sigma),
                gauss(&mut rng, self.core_sigma),
            );
            positions.push(p);
            for _ in 1..self.timesteps {
                p += Point3::new(
                    gauss(&mut rng, self.step_sigma),
                    gauss(&mut rng, self.step_sigma),
                    gauss(&mut rng, self.step_sigma),
                );
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

    fn small() -> GaussianClusterConfig {
        GaussianClusterConfig { particles: 400, timesteps: 5, ..Default::default() }
    }

    #[test]
    fn counts() {
        let cfg = small();
        assert_eq!(cfg.segment_count(), 400 * 4);
        assert_eq!(cfg.generate().len(), 400 * 4);
    }

    #[test]
    fn centrally_concentrated() {
        let cfg = small();
        let store = cfg.generate();
        // Far more starting points within 1 sigma of the origin than a
        // uniform distribution over the occupied volume would give:
        // P(|X| < sigma per axis-joint Gaussian ball) ≈ 0.2; the occupied
        // bounding box is ~6 sigma wide, so uniform would give ~0.5%.
        let within: usize = store
            .iter()
            .filter(|s| s.seg_id.0 % 4 == 0) // first segment per trajectory
            .filter(|s| s.start.norm() < cfg.core_sigma)
            .count();
        let first_segments = store.iter().filter(|s| s.seg_id.0 % 4 == 0).count();
        let frac = within as f64 / first_segments as f64;
        assert!(frac > 0.05, "core fraction {frac}");
        let bounds = store.stats().unwrap().bounds;
        assert!(bounds.extent().norm() > 4.0 * cfg.core_sigma);
    }

    #[test]
    fn deterministic_and_scalable() {
        let cfg = small();
        assert_eq!(cfg.generate().segments(), cfg.generate().segments());
        let half = cfg.scaled(0.5);
        assert_eq!(half.particles, 200);
        assert_eq!(half.core_sigma, cfg.core_sigma);
    }

    #[test]
    fn density_gradient_degrades_rtree_selectivity_near_core() {
        // Queries through the core meet far more close neighbours than
        // queries through the halo at the same d — the d-dependent
        // selectivity gradient uniform datasets lack.
        let cfg = GaussianClusterConfig { particles: 2_000, timesteps: 3, ..Default::default() };
        let store = cfg.generate();
        let d = 2.0;
        let near_core = store
            .iter()
            .filter(|s| s.start.norm() < 0.5 * cfg.core_sigma)
            .take(50)
            .map(|q| store.iter().filter(|e| tdts_geom::within_distance(q, e, d).is_some()).count())
            .sum::<usize>() as f64;
        let in_halo = store
            .iter()
            .filter(|s| s.start.norm() > 2.5 * cfg.core_sigma)
            .take(50)
            .map(|q| store.iter().filter(|e| tdts_geom::within_distance(q, e, d).is_some()).count())
            .sum::<usize>() as f64;
        assert!(near_core > in_halo * 3.0, "core {near_core} vs halo {in_halo}");
    }
}
