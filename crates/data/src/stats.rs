//! Workload selectivity profiling.
//!
//! The paper's comparative results are driven by *selectivity*: how many
//! candidate entry segments each indexing scheme hands to the refinement
//! step for a given query distance. This module measures those quantities
//! directly from a dataset + query sample, which is how the crossovers in
//! Figures 4–6 are explained (and how new datasets can be assessed before
//! choosing a method).

use tdts_geom::{Segment, SegmentStore};

/// Average candidate counts per query for each selection strategy, plus the
/// true match rate, at one query distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectivityPoint {
    pub d: f64,
    /// Entries that overlap the query temporally (GPUTemporal's candidates,
    /// with a perfect temporal index).
    pub temporal_candidates: f64,
    /// Entries within the inflated spatial MBB (a perfect spatial filter,
    /// the lower bound for GPUSpatial's candidates).
    pub spatial_candidates: f64,
    /// Entries passing both filters (GPUSpatioTemporal's ideal).
    pub spatiotemporal_candidates: f64,
    /// Entries actually within distance `d` during the overlap.
    pub matches: f64,
}

impl SelectivityPoint {
    /// Fraction of temporal candidates the spatial dimension eliminates —
    /// the gain GPUSpatioTemporal's subbins can capture at this `d`.
    pub fn spatial_gain(&self) -> f64 {
        if self.temporal_candidates > 0.0 {
            1.0 - self.spatiotemporal_candidates / self.temporal_candidates
        } else {
            0.0
        }
    }
}

/// Measure selectivity by exhaustive counting over a query sample.
///
/// `sample` bounds the number of query segments examined (uniform stride);
/// counting is O(|sample| · |D|), so keep it modest for big stores.
pub fn selectivity(
    store: &SegmentStore,
    queries: &SegmentStore,
    d: f64,
    sample: usize,
) -> SelectivityPoint {
    assert!(sample >= 1, "need at least one sampled query");
    let stride = (queries.len() / sample).max(1);
    let sampled: Vec<&Segment> = queries.iter().step_by(stride).collect();
    let mut temporal = 0u64;
    let mut spatial = 0u64;
    let mut both = 0u64;
    let mut matched = 0u64;
    for q in &sampled {
        let qbox = q.mbb().inflate(d);
        let qspan = q.time_span();
        for e in store.iter() {
            let t = qspan.overlaps(&e.time_span());
            let s = qbox.overlaps(&e.mbb());
            temporal += t as u64;
            spatial += s as u64;
            both += (t && s) as u64;
            if t && s && tdts_geom::within_distance(q, e, d).is_some() {
                matched += 1;
            }
        }
    }
    let n = sampled.len().max(1) as f64;
    SelectivityPoint {
        d,
        temporal_candidates: temporal as f64 / n,
        spatial_candidates: spatial as f64 / n,
        spatiotemporal_candidates: both as f64 / n,
        matches: matched as f64 / n,
    }
}

/// Sweep selectivity across query distances.
pub fn selectivity_sweep(
    store: &SegmentStore,
    queries: &SegmentStore,
    distances: &[f64],
    sample: usize,
) -> Vec<SelectivityPoint> {
    distances.iter().map(|&d| selectivity(store, queries, d, sample)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RandomWalkConfig;

    fn world() -> (SegmentStore, SegmentStore) {
        let cfg = RandomWalkConfig { trajectories: 30, timesteps: 20, ..Default::default() };
        let q = RandomWalkConfig { trajectories: 5, seed: 9, ..cfg.clone() }.generate();
        (cfg.generate(), q)
    }

    #[test]
    fn candidate_hierarchies_hold() {
        let (store, queries) = world();
        for d in [1.0, 50.0, 500.0] {
            let p = selectivity(&store, &queries, d, 20);
            // Both filters together are at least as selective as each alone.
            assert!(p.spatiotemporal_candidates <= p.temporal_candidates + 1e-9);
            assert!(p.spatiotemporal_candidates <= p.spatial_candidates + 1e-9);
            // True matches pass every filter.
            assert!(p.matches <= p.spatiotemporal_candidates + 1e-9);
            assert!((0.0..=1.0).contains(&p.spatial_gain()));
        }
    }

    #[test]
    fn spatial_selectivity_degrades_with_d() {
        let (store, queries) = world();
        let sweep = selectivity_sweep(&store, &queries, &[1.0, 100.0, 2_000.0], 20);
        assert!(sweep[0].spatial_candidates <= sweep[1].spatial_candidates);
        assert!(sweep[1].spatial_candidates <= sweep[2].spatial_candidates);
        // At d much larger than the volume, the spatial filter passes
        // everything the temporal filter passes.
        let last = sweep.last().unwrap();
        assert!(last.spatial_gain() < 0.05, "gain {}", last.spatial_gain());
        // Temporal candidates do not depend on d.
        assert_eq!(sweep[0].temporal_candidates, sweep[2].temporal_candidates);
    }

    #[test]
    fn sampling_stride() {
        let (store, queries) = world();
        // Full sample vs sparse sample should be within the same ballpark.
        let full = selectivity(&store, &queries, 50.0, queries.len());
        let sparse = selectivity(&store, &queries, 50.0, 5);
        assert!(full.temporal_candidates > 0.0);
        assert!(sparse.temporal_candidates > 0.0);
    }
}
