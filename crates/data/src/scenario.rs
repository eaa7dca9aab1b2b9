//! The paper's experimental scenarios S1–S3: dataset + query set + the
//! parameter values used for each figure.

use crate::{MergerConfig, RandomDenseConfig, RandomWalkConfig};
use tdts_geom::SegmentStore;

/// Which of the paper's three scenarios (§V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// S1: *Random* dataset, query set of 100 trajectories × 400 steps
    /// (39,900 query segments). Figure 4.
    S1Random,
    /// S2: *Merger* dataset, query set of 265 trajectories × 193 steps
    /// (50,880 query segments). Figure 5.
    S2Merger,
    /// S3: *Random-dense* dataset, query set of 265 trajectories × 193 steps
    /// (50,880 query segments). Figure 6.
    S3RandomDense,
}

/// Index parameters the paper selected per scenario (§V-C–E).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioParams {
    /// FSG resolution in grid cells per dimension (GPUSpatial).
    pub fsg_cells_per_dim: usize,
    /// Temporal bin count (GPUTemporal / GPUSpatioTemporal).
    pub temporal_bins: usize,
    /// Spatial subbins per dimension (GPUSpatioTemporal).
    pub subbins: usize,
    /// Result buffer capacity in elements, already scaled to this scenario's
    /// `scale` (paper: 5.0e7, enlarged to 9.2e7 for Random-dense in §V-E).
    pub result_buffer_capacity: usize,
}

/// One experimental scenario at a given scale.
///
/// `scale = 1.0` reproduces paper sizes; smaller scales shrink the particle
/// and query-trajectory counts proportionally (densities preserved where the
/// dataset has a meaningful density; see the per-generator `scaled` docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    pub kind: ScenarioKind,
    pub scale: f64,
}

impl Scenario {
    /// Create a scenario; `scale` must be in `(0, 1]`.
    pub fn new(kind: ScenarioKind, scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale {scale} out of (0, 1]");
        Scenario { kind, scale }
    }

    /// Short name used in harness output (matches the paper's figures).
    pub fn name(&self) -> &'static str {
        match self.kind {
            ScenarioKind::S1Random => "S1-random",
            ScenarioKind::S2Merger => "S2-merger",
            ScenarioKind::S3RandomDense => "S3-random-dense",
        }
    }

    /// Generate the entry segment database `D`.
    pub fn dataset(&self) -> SegmentStore {
        match self.kind {
            ScenarioKind::S1Random => RandomWalkConfig::default().scaled(self.scale).generate(),
            ScenarioKind::S2Merger => MergerConfig::default().scaled(self.scale).generate(),
            ScenarioKind::S3RandomDense => {
                RandomDenseConfig::default().scaled(self.scale).generate()
            }
        }
    }

    /// Number of query trajectories at this scale (paper: 100 for S1,
    /// 265 for S2/S3).
    pub fn query_trajectories(&self) -> usize {
        let full = match self.kind {
            ScenarioKind::S1Random => 100.0,
            ScenarioKind::S2Merger | ScenarioKind::S3RandomDense => 265.0,
        };
        ((full * self.scale).round() as usize).max(1)
    }

    /// Generate the query set `Q`. Queries are drawn from the same
    /// distribution as the dataset (different seed), as the paper's
    /// application does: stellar query trajectories move through the same
    /// volume as the database trajectories.
    pub fn queries(&self) -> SegmentStore {
        let n = self.query_trajectories();
        match self.kind {
            ScenarioKind::S1Random => {
                let base = RandomWalkConfig::default();
                RandomWalkConfig { trajectories: n, seed: base.seed ^ 0x5151, ..base }.generate()
            }
            ScenarioKind::S2Merger => {
                let base = MergerConfig::default();
                MergerConfig { particles: n.max(2), seed: base.seed ^ 0x5151, ..base }.generate()
            }
            ScenarioKind::S3RandomDense => {
                // Queries live in the *dataset's* volume: use the walk
                // generator with the dense cube's side and synchronised
                // start times.
                let dense = RandomDenseConfig::default().scaled(self.scale);
                RandomWalkConfig {
                    trajectories: n,
                    timesteps: dense.timesteps,
                    box_side: dense.box_side(),
                    step_sigma: dense.step_sigma,
                    start_time_min: 0.0,
                    start_time_max: 0.0,
                    dt: dense.dt,
                    seed: dense.seed ^ 0x5151,
                }
                .generate()
            }
        }
    }

    /// The query-distance sweep of this scenario's figure.
    pub fn query_distances(&self) -> Vec<f64> {
        match self.kind {
            ScenarioKind::S1Random => vec![1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 30.0, 40.0, 50.0],
            ScenarioKind::S2Merger => {
                vec![0.001, 0.01, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0]
            }
            ScenarioKind::S3RandomDense => vec![0.01, 0.02, 0.03, 0.05, 0.07, 0.09],
        }
    }

    /// Paper-selected index parameters for this scenario.
    pub fn params(&self) -> ScenarioParams {
        let (cells, bins, subbins, buffer) = match self.kind {
            // §V-C: 50 cells/dim, 10,000 bins, v = 4.
            ScenarioKind::S1Random => (50, 10_000, 4, 5.0e7),
            // §V-D: 1,000 bins, v = 16.
            ScenarioKind::S2Merger => (50, 1_000, 16, 5.0e7),
            // §V-E: 1,000 bins, v = 4, enlarged 9.2e7 result buffer.
            ScenarioKind::S3RandomDense => (50, 1_000, 4, 9.2e7),
        };
        ScenarioParams {
            fsg_cells_per_dim: cells,
            temporal_bins: bins,
            subbins,
            result_buffer_capacity: ((buffer * self.scale) as usize).max(10_000),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_matches_paper_counts() {
        let s1 = Scenario::new(ScenarioKind::S1Random, 1.0);
        assert_eq!(s1.query_trajectories(), 100);
        let s2 = Scenario::new(ScenarioKind::S2Merger, 1.0);
        assert_eq!(s2.query_trajectories(), 265);
        // Query segment counts: 100 × 399 = 39,900 and 265 × 192 = 50,880.
        // (Checked arithmetically; generating full-scale sets here would be
        // slow for a unit test.)
        assert_eq!(100 * 399, 39_900);
        assert_eq!(265 * 192, 50_880);
    }

    #[test]
    fn small_scale_generates_consistent_sets() {
        for kind in [ScenarioKind::S1Random, ScenarioKind::S2Merger, ScenarioKind::S3RandomDense] {
            let sc = Scenario::new(kind, 0.01);
            let d = sc.dataset();
            let q = sc.queries();
            assert!(!d.is_empty(), "{:?} dataset empty", kind);
            assert!(!q.is_empty(), "{:?} queries empty", kind);
            // Queries overlap the dataset temporally (else searches are trivial).
            let ds = d.stats().unwrap();
            let qs = q.stats().unwrap();
            assert!(ds.time_span.overlaps(&qs.time_span), "{:?}: no temporal overlap", kind);
            // And spatially.
            assert!(ds.bounds.overlaps(&qs.bounds.inflate(1.0)), "{:?}: no spatial overlap", kind);
            assert!(!sc.query_distances().is_empty());
            assert!(sc.params().result_buffer_capacity >= 10_000);
        }
    }

    #[test]
    #[should_panic(expected = "out of (0, 1]")]
    fn zero_scale_rejected() {
        let _ = Scenario::new(ScenarioKind::S1Random, 0.0);
    }

    #[test]
    fn params_match_paper() {
        let p1 = Scenario::new(ScenarioKind::S1Random, 1.0).params();
        assert_eq!(p1.fsg_cells_per_dim, 50);
        assert_eq!(p1.temporal_bins, 10_000);
        assert_eq!(p1.subbins, 4);
        assert_eq!(p1.result_buffer_capacity, 5_0000_0000 / 10); // 5.0e7
        let p2 = Scenario::new(ScenarioKind::S2Merger, 1.0).params();
        assert_eq!(p2.temporal_bins, 1_000);
        assert_eq!(p2.subbins, 16);
        let p3 = Scenario::new(ScenarioKind::S3RandomDense, 1.0).params();
        assert_eq!(p3.subbins, 4);
        assert_eq!(p3.result_buffer_capacity, 92_000_000);
    }
}
