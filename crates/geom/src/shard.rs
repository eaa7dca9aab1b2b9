//! Partitioning a segment database across multiple simulated devices.
//!
//! [`ShardPlan`] splits the extent of a store into `shards` equal-width
//! slabs — temporal slabs by default ([`PartitionStrategy::Temporal`]), or
//! slabs along the longest spatial axis ([`PartitionStrategy::SpatialGrid`])
//! — and [`ShardedStore::partition`] materialises one shard-local
//! [`SegmentStore`] per non-empty slab.
//!
//! A segment whose extent straddles a slab boundary is **replicated** into
//! every slab it touches, so each shard can answer any query exactly from
//! local data alone; the resulting cross-shard duplicate matches carry
//! byte-identical intervals and are collapsed by
//! [`dedup_matches`](crate::dedup_matches) at the merge point.
//!
//! Replication also makes *routing* sound: [`ShardPlan::reach_span`]
//! computes the inclusive slab range a query can possibly find matches in
//! (its own temporal extent for temporal slabs — no `d` slack, because a
//! match requires temporal overlap; its axis extent widened by `±d` for
//! spatial slabs). Any entry within distance `d` of the query at some
//! shared instant is resident in at least one slab of that range, so a
//! dispatcher may skip every other shard without losing a single record.
//!
//! Each shard-local store is a position-ascending subsequence of the
//! global store, so a store sorted by `t_start` yields shard stores sorted
//! by `t_start` — the ordering the temporal indexes require. The
//! [`ShardSlice::to_global`] map translates shard-local result positions
//! back to positions in the global store.

use crate::{Segment, SegmentStore, StoreStats};
use std::fmt;
use std::sync::Arc;

/// How a [`ShardPlan`] slices the store's extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// Slabs of the temporal extent (`[min t_start, max t_end]`). The
    /// default: trajectory workloads advance in lock-step timesteps, so
    /// temporal slabs balance well and replicate only the segments that
    /// straddle a slab boundary in time.
    #[default]
    Temporal,
    /// Slabs along the *longest* spatial axis of the store bounds. Useful
    /// when trajectories are short-lived but spatially spread; can
    /// replicate heavily when motion spans the chosen axis.
    SpatialGrid,
}

impl PartitionStrategy {
    /// Parse a CLI spelling; `None` for anything unrecognised.
    pub fn parse(s: &str) -> Option<PartitionStrategy> {
        match s {
            "temporal" | "time" => Some(PartitionStrategy::Temporal),
            "spatial" | "spatial-grid" | "grid" => Some(PartitionStrategy::SpatialGrid),
            _ => None,
        }
    }
}

impl fmt::Display for PartitionStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PartitionStrategy::Temporal => "temporal",
            PartitionStrategy::SpatialGrid => "spatial-grid",
        })
    }
}

/// Slab axis and extent of a plan under `strategy`.
fn plan_extent(stats: &StoreStats, strategy: PartitionStrategy) -> (usize, f64, f64) {
    match strategy {
        PartitionStrategy::Temporal => (0, stats.time_span.start, stats.time_span.end),
        PartitionStrategy::SpatialGrid => {
            let ext = stats.bounds.extent();
            let mut axis = 0;
            for dim in 1..3 {
                if ext.coord(dim) > ext.coord(axis) {
                    axis = dim;
                }
            }
            (axis, stats.bounds.lo.coord(axis), stats.bounds.hi.coord(axis))
        }
    }
}

/// A segment's interval along the slab axis under `strategy`.
fn axis_interval(seg: &Segment, strategy: PartitionStrategy, axis: usize) -> (f64, f64) {
    match strategy {
        PartitionStrategy::Temporal => (seg.t_start, seg.t_end),
        PartitionStrategy::SpatialGrid => (seg.min_coord(axis), seg.max_coord(axis)),
    }
}

/// The slab geometry of a partition: which axis is sliced and where every
/// slab edge sits. All membership and routing questions reduce to
/// [`ShardPlan::slab_of`], so partitioning and dispatch can never disagree
/// about which slab a coordinate belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// The partitioning strategy the slabs follow.
    pub strategy: PartitionStrategy,
    /// Number of slabs (≥ 1). Slabs can end up empty; only non-empty ones
    /// become [`ShardSlice`]s.
    pub shards: usize,
    /// Spatial axis being sliced (0 = x, 1 = y, 2 = z). Meaningful for
    /// [`PartitionStrategy::SpatialGrid`] only.
    pub axis: usize,
    /// Non-decreasing slab edges, `shards + 1` of them: slab `s` spans
    /// `[edges[s], edges[s + 1])` (the last slab is closed at the top by
    /// clamping in [`ShardPlan::slab_of`]).
    pub edges: Vec<f64>,
}

impl ShardPlan {
    /// Slice the extent described by `stats` into `shards` equal-width
    /// slabs.
    pub fn new(stats: &StoreStats, shards: usize, strategy: PartitionStrategy) -> ShardPlan {
        let shards = shards.max(1);
        let (axis, lo, hi) = plan_extent(stats, strategy);
        let span = hi - lo;
        let mut edges: Vec<f64> =
            (0..shards).map(|i| lo + span * i as f64 / shards as f64).collect();
        edges.push(hi);
        ShardPlan { strategy, shards, axis, edges }
    }

    /// Lower edge of slab 0.
    pub fn lo(&self) -> f64 {
        self.edges[0]
    }

    /// Upper edge of the last slab.
    pub fn hi(&self) -> f64 {
        self.edges[self.shards]
    }

    /// Full extent covered by the slabs.
    pub fn span(&self) -> f64 {
        self.hi() - self.lo()
    }

    /// True when the extent is empty or non-finite: every coordinate then
    /// maps to slab 0.
    pub fn is_degenerate(&self) -> bool {
        // `!is_finite()` first so a NaN span (empty extent) is degenerate
        // without relying on NaN comparison semantics.
        !self.span().is_finite() || self.span() <= 0.0
    }

    /// Inclusive range of slabs `seg` touches. A segment entirely inside
    /// one slab yields `(s, s)`; a boundary straddler spans several and is
    /// replicated into each by [`ShardedStore::partition`].
    pub fn slab_span(&self, seg: &Segment) -> (usize, usize) {
        let (lo_v, hi_v) = axis_interval(seg, self.strategy, self.axis);
        (self.slab_of(lo_v), self.slab_of(hi_v))
    }

    /// The slab a coordinate falls in, clamped to `[0, shards - 1]` so
    /// values at (or marginally past) the extent edges stay in range.
    /// Non-decreasing in `v`, which is what makes routing sound: any
    /// coordinate between two others maps to a slab between theirs.
    pub fn slab_of(&self, v: f64) -> usize {
        if self.is_degenerate() {
            return 0;
        }
        // Count the interior edges at or below v: slabs are closed on the
        // left, and a value past the top edge clamps into the last slab.
        self.edges[1..self.shards].partition_point(|e| *e <= v)
    }

    /// `[lo, hi)` extent of one slab (the last slab is closed at the top
    /// by the clamping in [`ShardPlan::slab_of`]).
    pub fn slab_bounds(&self, slab: usize) -> (f64, f64) {
        (self.edges[slab], self.edges[slab + 1])
    }

    /// The axis interval a query at threshold `d` must be checked against.
    ///
    /// * Temporal slabs: the query's own `[t_start, t_end]`, with **no**
    ///   `d` slack. A match requires a shared instant `t`: the entry's
    ///   time span contains `t`, so the entry is resident in `slab_of(t)`,
    ///   and `t` lies inside the query's own extent.
    /// * Spatial slabs: `[min − d, max + d]` along the sliced axis. At the
    ///   shared instant the two positions are within Euclidean distance
    ///   `d`, hence within `d` on every axis; the entry's axis extent
    ///   therefore intersects the widened query interval.
    pub fn reach_interval(&self, query: &Segment, d: f64) -> (f64, f64) {
        let (lo_v, hi_v) = axis_interval(query, self.strategy, self.axis);
        match self.strategy {
            PartitionStrategy::Temporal => (lo_v, hi_v),
            PartitionStrategy::SpatialGrid => (lo_v - d, hi_v + d),
        }
    }

    /// Inclusive range of slabs a query can possibly find matches in, or
    /// `None` when its reach interval misses the plan extent entirely (no
    /// entry can match; the dispatcher skips every shard). Because each
    /// entry is replicated into *every* slab its interval touches, probing
    /// exactly the slabs of this range returns the same result set as
    /// broadcasting to all of them — see the module docs.
    pub fn reach_span(&self, query: &Segment, d: f64) -> Option<(usize, usize)> {
        let (lo_v, hi_v) = self.reach_interval(query, d);
        if hi_v < self.lo() || lo_v > self.hi() || hi_v < lo_v {
            return None;
        }
        Some((self.slab_of(lo_v), self.slab_of(hi_v)))
    }
}

/// One shard: a shard-local store plus the map from its positions back to
/// positions in the global store.
#[derive(Debug, Clone)]
pub struct ShardSlice {
    /// Which slab of the [`ShardPlan`] this slice holds.
    pub slab: usize,
    /// The shard-local segment database, in ascending global-position
    /// order (hence still sorted by `t_start` when the source was).
    pub store: Arc<SegmentStore>,
    /// `to_global[local]` = position of that segment in the global store.
    pub to_global: Arc<Vec<u32>>,
    /// How many of this slice's segments are boundary replicas (also
    /// present in at least one other slice).
    pub replicated: usize,
}

/// A store partitioned into shard-local slices per a [`ShardPlan`].
#[derive(Debug, Clone)]
pub struct ShardedStore {
    /// The slab geometry the slices follow.
    pub plan: ShardPlan,
    /// Non-empty slices, in ascending slab order.
    pub slices: Vec<ShardSlice>,
    /// Segment count of the source store (for replication accounting).
    pub source_len: usize,
}

impl ShardedStore {
    /// Partition `store` into at most `shards` equal-width shard-local
    /// stores.
    ///
    /// Every segment lands in every slab its extent touches, so the union
    /// of the slices covers the store exactly and each shard is
    /// self-sufficient for any query. Empty slabs produce no slice; the
    /// result always has at least one slice when the store is non-empty.
    pub fn partition(
        store: &SegmentStore,
        stats: &StoreStats,
        shards: usize,
        strategy: PartitionStrategy,
    ) -> ShardedStore {
        let plan = ShardPlan::new(stats, shards, strategy);
        let mut segs: Vec<Vec<Segment>> = vec![Vec::new(); plan.shards];
        let mut maps: Vec<Vec<u32>> = vec![Vec::new(); plan.shards];
        let mut replicated = vec![0usize; plan.shards];
        for (pos, seg) in store.iter().enumerate() {
            let (lo, hi) = plan.slab_span(seg);
            for slab in lo..=hi {
                segs[slab].push(*seg);
                maps[slab].push(pos as u32);
                if hi > lo {
                    replicated[slab] += 1;
                }
            }
        }
        let slices = segs
            .into_iter()
            .zip(maps)
            .zip(replicated)
            .enumerate()
            .filter(|(_, ((segs, _), _))| !segs.is_empty())
            .map(|(slab, ((segs, map), replicated))| ShardSlice {
                slab,
                store: Arc::new(SegmentStore::from_segments(segs)),
                to_global: Arc::new(map),
                replicated,
            })
            .collect();
        ShardedStore { plan, slices, source_len: store.len() }
    }

    /// Total segments across all slices (≥ [`ShardedStore::source_len`];
    /// the excess is boundary replication).
    pub fn total_segments(&self) -> usize {
        self.slices.iter().map(|s| s.store.len()).sum()
    }

    /// Extra segment copies introduced by boundary replication.
    pub fn replicated_segments(&self) -> usize {
        self.total_segments() - self.source_len
    }

    /// Storage blow-up from replication: `total / source` (1.0 = none).
    pub fn replication_factor(&self) -> f64 {
        if self.source_len == 0 {
            1.0
        } else {
            self.total_segments() as f64 / self.source_len as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{within_distance, Point3, SegId, TrajId};

    fn seg(t0: f64, t1: f64, x0: f64, x1: f64, id: u32) -> Segment {
        Segment::new(
            Point3::new(x0, 0.0, 0.0),
            Point3::new(x1, 0.5, 0.25),
            t0,
            t1,
            SegId(id),
            TrajId(id),
        )
    }

    fn store() -> SegmentStore {
        // Temporal extent [0, 4]; x extent [0, 8]; y, z much smaller so x
        // is the longest axis.
        vec![
            seg(0.0, 0.5, 0.0, 1.0, 0),
            seg(0.5, 1.5, 2.0, 3.0, 1),
            seg(1.8, 2.2, 4.0, 4.5, 2), // straddles the t=2 boundary at 2 shards
            seg(2.5, 3.0, 6.0, 6.5, 3),
            seg(3.5, 4.0, 7.0, 8.0, 4),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn one_shard_is_identity() {
        let s = store();
        let stats = s.stats().unwrap();
        let sharded = ShardedStore::partition(&s, &stats, 1, PartitionStrategy::Temporal);
        assert_eq!(sharded.slices.len(), 1);
        assert_eq!(sharded.slices[0].store.len(), s.len());
        assert_eq!(sharded.replicated_segments(), 0);
        assert_eq!(*sharded.slices[0].to_global, (0..s.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn temporal_partition_covers_and_replicates_straddlers() {
        let s = store();
        let stats = s.stats().unwrap();
        let sharded = ShardedStore::partition(&s, &stats, 2, PartitionStrategy::Temporal);
        assert_eq!(sharded.slices.len(), 2);
        // Segment 2 spans [1.8, 2.2] across the t=2 boundary: replicated.
        assert_eq!(sharded.replicated_segments(), 1);
        assert_eq!(sharded.total_segments(), s.len() + 1);
        assert!((sharded.replication_factor() - 6.0 / 5.0).abs() < 1e-12);
        // Every global position appears in at least one slice.
        let mut seen = vec![false; s.len()];
        for slice in &sharded.slices {
            for &g in slice.to_global.iter() {
                seen[g as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
        // The straddler is in both slices and counted as replicated there.
        for slice in &sharded.slices {
            assert!(slice.to_global.contains(&2));
            assert_eq!(slice.replicated, 1);
        }
    }

    #[test]
    fn slices_preserve_sorted_order() {
        let mut s = store();
        s.sort_by_t_start();
        let stats = s.stats().unwrap();
        for shards in [2, 3, 8] {
            let sharded = ShardedStore::partition(&s, &stats, shards, PartitionStrategy::Temporal);
            for slice in &sharded.slices {
                assert!(slice.store.is_sorted_by_t_start());
                assert!(slice.to_global.windows(2).all(|w| w[0] < w[1]));
                for (local, &global) in slice.to_global.iter().enumerate() {
                    assert_eq!(slice.store.get(local), s.get(global as usize));
                }
            }
        }
    }

    #[test]
    fn spatial_partition_slices_longest_axis() {
        let s = store();
        let stats = s.stats().unwrap();
        let sharded = ShardedStore::partition(&s, &stats, 4, PartitionStrategy::SpatialGrid);
        assert_eq!(sharded.plan.axis, 0, "x has the largest extent");
        let mut seen = vec![false; s.len()];
        for slice in &sharded.slices {
            for &g in slice.to_global.iter() {
                seen[g as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
        assert!(sharded.slices.len() > 1);
    }

    #[test]
    fn degenerate_extent_collapses_to_one_slab() {
        let s: SegmentStore =
            vec![seg(1.0, 1.0, 0.0, 0.0, 0), seg(1.0, 1.0, 0.0, 0.0, 1)].into_iter().collect();
        let stats = s.stats().unwrap();
        let sharded = ShardedStore::partition(&s, &stats, 4, PartitionStrategy::Temporal);
        assert_eq!(sharded.slices.len(), 1);
        assert_eq!(sharded.slices[0].store.len(), 2);
        assert_eq!(sharded.replicated_segments(), 0);
    }

    #[test]
    fn edge_values_stay_in_range() {
        let s = store();
        let stats = s.stats().unwrap();
        let plan = ShardPlan::new(&stats, 8, PartitionStrategy::Temporal);
        // The extent's top edge belongs to the last slab (clamped).
        assert_eq!(plan.slab_of(stats.time_span.end), 7);
        assert_eq!(plan.slab_of(stats.time_span.start), 0);
        assert_eq!(plan.slab_of(stats.time_span.start - 100.0), 0);
        assert_eq!(plan.slab_of(stats.time_span.end + 100.0), 7);
        let (lo, hi) = plan.slab_bounds(0);
        assert_eq!(lo, stats.time_span.start);
        assert!(hi > lo);
    }

    #[test]
    fn strategy_parsing_round_trips() {
        for s in [PartitionStrategy::Temporal, PartitionStrategy::SpatialGrid] {
            assert_eq!(PartitionStrategy::parse(&s.to_string()), Some(s));
        }
        assert_eq!(PartitionStrategy::parse("time"), Some(PartitionStrategy::Temporal));
        assert_eq!(PartitionStrategy::parse("grid"), Some(PartitionStrategy::SpatialGrid));
        assert_eq!(PartitionStrategy::parse("bogus"), None);
    }

    #[test]
    fn reach_span_temporal_needs_no_slack() {
        let s = store();
        let stats = s.stats().unwrap();
        let plan = ShardPlan::new(&stats, 4, PartitionStrategy::Temporal);
        // Extent [0, 4], slab width 1. A query over [1.2, 1.8] reaches
        // slab 1 only, regardless of d.
        let q = seg(1.2, 1.8, 0.0, 1.0, 9);
        assert_eq!(plan.reach_span(&q, 1000.0), Some((1, 1)));
        // Touching the extent edge still routes (closed comparison).
        let edge = seg(-5.0, 0.0, 0.0, 1.0, 9);
        assert_eq!(plan.reach_span(&edge, 1.0), Some((0, 0)));
        // Entirely before/after the extent: no shard can match.
        assert_eq!(plan.reach_span(&seg(-5.0, -0.1, 0.0, 1.0, 9), 1000.0), None);
        assert_eq!(plan.reach_span(&seg(4.5, 9.0, 0.0, 1.0, 9), 1000.0), None);
    }

    #[test]
    fn reach_span_spatial_expands_by_d() {
        let s = store();
        let stats = s.stats().unwrap();
        let plan = ShardPlan::new(&stats, 4, PartitionStrategy::SpatialGrid);
        // x extent [0, 8], slab width 2. A point-like query at x = 3
        // reaches slab 1 at d = 0.5 but slabs 0..=2 at d = 1.5.
        let q = seg(0.0, 1.0, 3.0, 3.0, 9);
        assert_eq!(plan.reach_span(&q, 0.5), Some((1, 1)));
        assert_eq!(plan.reach_span(&q, 1.5), Some((0, 2)));
        // Far off-extent but within d of the edge: clamps into slab 0.
        let far = seg(0.0, 1.0, -3.0, -3.0, 9);
        assert_eq!(plan.reach_span(&far, 4.0), Some((0, 0)));
        // Beyond d of the whole extent: unreachable.
        assert_eq!(plan.reach_span(&far, 2.0), None);
    }

    /// The routing soundness lemma, checked directly against the
    /// continuous predicate: whenever two segments are within `d`, the
    /// entry's slab span intersects the query's reach span.
    #[test]
    fn reach_span_covers_every_continuous_match() {
        let s = store();
        let stats = s.stats().unwrap();
        let queries = [
            seg(0.2, 0.6, 0.5, 1.2, 50),
            seg(1.9, 2.1, 4.2, 4.4, 51),
            seg(0.0, 4.0, 0.0, 8.0, 52),
            seg(3.0, 3.6, 6.4, 7.1, 53),
        ];
        for strategy in [PartitionStrategy::Temporal, PartitionStrategy::SpatialGrid] {
            for shards in [1usize, 2, 3, 8] {
                let plan = ShardPlan::new(&stats, shards, strategy);
                for q in &queries {
                    for d in [0.25, 1.0, 3.0] {
                        for e in s.iter() {
                            if within_distance(q, e, d).is_none() {
                                continue;
                            }
                            let (rl, rh) = plan
                                .reach_span(q, d)
                                .expect("a matching query must reach some slab");
                            let (el, eh) = plan.slab_span(e);
                            assert!(
                                rl <= eh && el <= rh,
                                "{strategy} shards={shards} d={d}: entry \
                                 slabs [{el},{eh}] outside reach [{rl},{rh}]"
                            );
                        }
                    }
                }
            }
        }
    }
}
