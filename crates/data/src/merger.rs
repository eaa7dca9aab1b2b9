//! The *Merger* dataset: a synthetic two-disk galaxy merger (paper §V-A).
//!
//! The paper uses particle trajectories from an N-body simulation of two
//! merging galactic disks (obtained from Josh Barnes), which is not publicly
//! archived. This module substitutes a kinematic model that reproduces the
//! statistics the search algorithms are sensitive to:
//!
//! * two rotating disks with exponential radial profiles (strong central
//!   clustering ⇒ highly non-uniform spatial density);
//! * coherent bulk motion: the disk centres approach on a decaying orbit and
//!   coalesce near the end of the simulated time span;
//! * all particles synchronised over the full 193-step time range, exactly
//!   as snapshot outputs of an N-body code.
//!
//! It deliberately does not integrate gravity — two-body relaxation is
//! irrelevant to index selectivity, which only sees segment geometry.

use crate::builder::TrajectoryBuilder;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tdts_geom::{Point3, SegmentStore};

/// Configuration of the synthetic galaxy-merger generator.
///
/// Defaults match the paper's dataset shape: 131,072 particles over 193
/// timesteps = 25,165,824 entry segments. Length units are arbitrary
/// "kpc-like" units; the paper's Merger query distances (d up to 5) probe
/// the same selectivity range relative to the ~15-unit disk radius.
#[derive(Debug, Clone, PartialEq)]
pub struct MergerConfig {
    /// Total particles across both disks.
    pub particles: usize,
    /// Timestamps per particle (segments = timesteps - 1).
    pub timesteps: usize,
    /// Exponential scale radius of each disk.
    pub disk_scale_radius: f64,
    /// Maximum particle radius (profile truncation).
    pub disk_max_radius: f64,
    /// Gaussian thickness of the disks.
    pub disk_thickness: f64,
    /// Initial separation of the two disk centres.
    pub initial_separation: f64,
    /// Circular velocity of the (flat) rotation curve.
    pub circular_velocity: f64,
    /// Random velocity dispersion added to each particle step.
    pub velocity_dispersion: f64,
    /// Time between consecutive samples.
    pub dt: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MergerConfig {
    fn default() -> Self {
        MergerConfig {
            particles: 131_072,
            timesteps: 193,
            disk_scale_radius: 5.0,
            disk_max_radius: 20.0,
            disk_thickness: 1.0,
            initial_separation: 60.0,
            circular_velocity: 0.5,
            velocity_dispersion: 0.05,
            dt: 1.0,
            seed: 0x6d65_7267, // "merg"
        }
    }
}

impl MergerConfig {
    /// Expected number of entry segments.
    pub fn segment_count(&self) -> usize {
        self.particles * self.timesteps.saturating_sub(1)
    }

    /// A copy with `scale` of the particles (≥2 so both disks are
    /// populated); the geometry is unchanged, so densities scale linearly —
    /// the Merger dataset's defining feature is its clustering, not an
    /// absolute density, and clustering is scale-invariant here.
    pub fn scaled(&self, scale: f64) -> Self {
        let mut c = self.clone();
        c.particles = ((self.particles as f64 * scale).round() as usize).max(2);
        c
    }

    /// Position of disk `disk`'s centre at step `step`.
    ///
    /// The centres spiral together: separation decays from
    /// `initial_separation` to ~0 over the simulated span while the pair
    /// rotates about the common barycentre.
    fn disk_center(&self, disk: usize, step: usize) -> Point3 {
        let f = step as f64 / (self.timesteps - 1) as f64; // 0 → 1
        let sep = self.initial_separation * (1.0 - f).powf(0.7);
        let angle = 2.0 * std::f64::consts::PI * 0.4 * f;
        let sign = if disk == 0 { 1.0 } else { -1.0 };
        Point3::new(
            sign * 0.5 * sep * angle.cos(),
            sign * 0.5 * sep * angle.sin(),
            sign * 0.1 * sep, // slight inclination between the disks
        )
    }

    /// Generate the dataset. Particles alternate between the two disks so
    /// any contiguous id range covers both.
    pub fn generate(&self) -> SegmentStore {
        assert!(self.timesteps >= 2, "need at least 2 timesteps");
        assert!(self.particles >= 2, "need at least one particle per disk");
        assert!(self.disk_scale_radius > 0.0 && self.disk_max_radius > self.disk_scale_radius);
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut builder = TrajectoryBuilder::new();
        let mut positions = Vec::with_capacity(self.timesteps);

        for pid in 0..self.particles {
            let disk = pid % 2;
            // Exponential radial profile truncated at disk_max_radius, via
            // inverse-CDF sampling of r ~ Exp(scale) restricted to the disc.
            let u: f64 = rng.gen_range(0.0..1.0);
            let cdf_max = 1.0 - (-self.disk_max_radius / self.disk_scale_radius).exp();
            let r = -self.disk_scale_radius * (1.0 - u * cdf_max).ln();
            let phi0: f64 = rng.gen_range(0.0..2.0 * std::f64::consts::PI);
            let z0: f64 = {
                let a: f64 = rng.gen_range(-1.0..1.0);
                let b: f64 = rng.gen_range(-1.0..1.0);
                (a + b) * self.disk_thickness * 1.2247
            };
            // Flat rotation curve: omega = v_c / r (capped for tiny r).
            let omega = self.circular_velocity / r.max(0.2 * self.disk_scale_radius);

            positions.clear();
            let mut jitter = Point3::ZERO;
            for stepi in 0..self.timesteps {
                let t = stepi as f64 * self.dt;
                let phi = phi0 + omega * t;
                // Random-velocity jitter accumulates like a slow walk.
                jitter += Point3::new(
                    rng.gen_range(-1.0..1.0) * self.velocity_dispersion,
                    rng.gen_range(-1.0..1.0) * self.velocity_dispersion,
                    rng.gen_range(-1.0..1.0) * self.velocity_dispersion,
                );
                let local = Point3::new(r * phi.cos(), r * phi.sin(), z0);
                positions.push(self.disk_center(disk, stepi) + local + jitter);
            }
            builder.push_trajectory(&positions, 0.0, self.dt);
        }
        builder.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MergerConfig {
        MergerConfig { particles: 64, timesteps: 20, ..Default::default() }
    }

    #[test]
    fn paper_scale_counts() {
        let cfg = MergerConfig::default();
        assert_eq!(cfg.segment_count(), 25_165_824);
    }

    #[test]
    fn counts_and_sync() {
        let store = small().generate();
        assert_eq!(store.len(), 64 * 19);
        assert_eq!(store.trajectory_count(), 64);
        let stats = store.stats().unwrap();
        assert_eq!(stats.time_span.start, 0.0);
        assert_eq!(stats.time_span.end, 19.0);
    }

    #[test]
    fn disks_approach_and_merge() {
        let cfg = small();
        let start = cfg.disk_center(0, 0).dist(&cfg.disk_center(1, 0));
        let end =
            cfg.disk_center(0, cfg.timesteps - 1).dist(&cfg.disk_center(1, cfg.timesteps - 1));
        assert!(start > 50.0, "initial separation {start}");
        assert!(end < 1.0, "final separation {end}");
        // Monotone-ish decay.
        let mid =
            cfg.disk_center(0, cfg.timesteps / 2).dist(&cfg.disk_center(1, cfg.timesteps / 2));
        assert!(mid < start && mid > end);
    }

    #[test]
    fn central_clustering() {
        // More particles inside the scale radius (relative to its area
        // fraction) than a uniform distribution would give.
        let cfg = MergerConfig { particles: 2_000, timesteps: 2, ..Default::default() };
        let store = cfg.generate();
        let c0 = cfg.disk_center(0, 0);
        let within: usize = store
            .iter()
            .filter(|s| s.traj_id.0 % 2 == 0)
            .filter(|s| {
                let p = s.start - c0;
                (p.x * p.x + p.y * p.y).sqrt() < cfg.disk_scale_radius
            })
            .count();
        let total = store.iter().filter(|s| s.traj_id.0 % 2 == 0).count();
        let frac = within as f64 / total as f64;
        // Exponential profile: P(r < scale) = 1 - 2/e ≈ 0.26 for the radial
        // surface density ∝ r e^{-r/s}... empirically ~0.25; uniform disc
        // would give (1/4)² = 0.0625 of the truncation area.
        assert!(frac > 0.15, "central fraction {frac}");
    }

    #[test]
    fn deterministic() {
        let cfg = small();
        assert_eq!(cfg.generate().segments(), cfg.generate().segments());
    }

    #[test]
    fn scaled_keeps_even_particle_split() {
        let cfg = MergerConfig::default().scaled(1.0 / 1024.0);
        assert_eq!(cfg.particles, 128);
        let tiny = MergerConfig::default().scaled(0.0);
        assert_eq!(tiny.particles, 2);
    }
}
