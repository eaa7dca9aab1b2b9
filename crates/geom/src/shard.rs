//! Partitioning a segment database across multiple simulated devices.
//!
//! [`ShardPlan`] splits the store's temporal extent into `shards`
//! equal-width slabs, and [`ShardedStore::partition`] materialises one
//! shard-local [`SegmentStore`] per non-empty slab.
//!
//! A segment whose time span straddles a slab boundary is **replicated**
//! into every slab it touches, so each shard can answer any query exactly
//! from local data alone; the resulting cross-shard duplicate matches carry
//! byte-identical intervals and are collapsed by
//! [`dedup_matches`](crate::dedup_matches) at the merge point.
//!
//! Replication also makes *routing* sound: [`ShardPlan::reach_span`]
//! computes the inclusive slab range a query can possibly find matches in —
//! the slabs of its own time span, with no `d` slack, because a match
//! requires temporal overlap. Any entry within distance `d` of the query at
//! some shared instant is resident in at least one slab of that range, so a
//! dispatcher may skip every other shard without losing a single record.
//!
//! Each shard-local store is a position-ascending subsequence of the
//! global store, so a store sorted by `t_start` yields shard stores sorted
//! by `t_start` — the ordering the temporal indexes require. The
//! [`ShardSlice::to_global`] map translates shard-local result positions
//! back to positions in the global store.

use crate::{Segment, SegmentStore, StoreStats};
use std::sync::Arc;

/// How a [`ShardPlan`] slices the store: temporal slabs, the one
/// partition.
///
/// The type and the argument of [`ShardPlan::new`] and
/// [`ShardedStore::partition`] that takes it select nothing. They stay
/// because the benchmark package (`perfbench/`), which builds unedited
/// against this API, passes `PartitionStrategy::Temporal` to
/// [`ShardedStore::partition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// Slabs of the temporal extent (`[min t_start, max t_end]`):
    /// trajectory workloads advance in lock-step timesteps, so temporal
    /// slabs balance well and replicate only the segments that straddle a
    /// slab boundary in time.
    #[default]
    Temporal,
}

/// The slab geometry of a partition: where every slab edge sits in time.
/// All membership and routing questions reduce to [`ShardPlan::slab_of`],
/// so partitioning and dispatch can never disagree about which slab an
/// instant belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// Number of slabs (≥ 1). Slabs can end up empty; only non-empty ones
    /// become [`ShardSlice`]s.
    pub shards: usize,
    /// Non-decreasing slab edges, `shards + 1` of them: slab `s` spans
    /// `[edges[s], edges[s + 1])` (the last slab is closed at the top by
    /// clamping in [`ShardPlan::slab_of`]).
    pub edges: Vec<f64>,
}

impl ShardPlan {
    /// Slice `stats.time_span` into `shards` equal-width slabs. The
    /// strategy is always [`PartitionStrategy::Temporal`].
    pub fn new(stats: &StoreStats, shards: usize, _strategy: PartitionStrategy) -> ShardPlan {
        let shards = shards.max(1);
        let (lo, hi) = (stats.time_span.start, stats.time_span.end);
        let span = hi - lo;
        let mut edges: Vec<f64> =
            (0..shards).map(|i| lo + span * i as f64 / shards as f64).collect();
        edges.push(hi);
        ShardPlan { shards, edges }
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

    /// True when the extent is empty or non-finite: every instant then
    /// maps to slab 0.
    pub fn is_degenerate(&self) -> bool {
        // `!is_finite()` first so a NaN span (empty extent) is degenerate
        // without relying on NaN comparison semantics.
        !self.span().is_finite() || self.span() <= 0.0
    }

    /// Inclusive range of slabs `seg`'s `[t_start, t_end]` touches. A
    /// segment entirely inside one slab yields `(s, s)`; a boundary
    /// straddler spans several and is replicated into each by
    /// [`ShardedStore::partition`].
    pub fn slab_span(&self, seg: &Segment) -> (usize, usize) {
        (self.slab_of(seg.t_start), self.slab_of(seg.t_end))
    }

    /// The slab an instant falls in, clamped to `[0, shards - 1]` so
    /// values at (or marginally past) the extent edges stay in range.
    /// Non-decreasing in `t`, which is what makes routing sound: any
    /// instant between two others maps to a slab between theirs.
    pub fn slab_of(&self, t: f64) -> usize {
        if self.is_degenerate() {
            return 0;
        }
        // Count the interior edges at or below t: slabs are closed on the
        // left, and a value past the top edge clamps into the last slab.
        self.edges[1..self.shards].partition_point(|e| *e <= t)
    }

    /// `[lo, hi)` extent of one slab (the last slab is closed at the top
    /// by the clamping in [`ShardPlan::slab_of`]).
    pub fn slab_bounds(&self, slab: usize) -> (f64, f64) {
        (self.edges[slab], self.edges[slab + 1])
    }

    /// Inclusive range of slabs a query can possibly find matches in at
    /// any threshold, or `None` when its time span misses the plan extent
    /// entirely (no entry can match; the dispatcher skips every shard).
    ///
    /// The reach is the query's own `[t_start, t_end]`, with **no** `d`
    /// slack: a match requires a shared instant `t`, the entry's time span
    /// contains `t`, so the entry is resident in `slab_of(t)`, and `t`
    /// lies inside the query's own span. Because each entry is replicated
    /// into *every* slab its span touches, probing exactly the slabs of
    /// this range returns the same result set as broadcasting to all of
    /// them.
    pub fn reach_span(&self, query: &Segment) -> Option<(usize, usize)> {
        let (lo, hi) = (query.t_start, query.t_end);
        if hi < self.lo() || lo > self.hi() || hi < lo {
            return None;
        }
        Some((self.slab_of(lo), self.slab_of(hi)))
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
    /// Partition `store` into at most `shards` equal-width temporal
    /// slabs, one shard-local store each.
    ///
    /// Every segment lands in every slab its time span touches, so the union
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
        // One pass over the store takes every segment's slab span and sizes
        // every slab; the position maps are then filled at their final
        // length, and the slabs copy their segments side by side.
        let mut spans = Vec::with_capacity(store.len());
        let mut counts = vec![0usize; plan.shards];
        let mut replicated = vec![0usize; plan.shards];
        for seg in store.iter() {
            let (lo, hi) = plan.slab_span(seg);
            for slab in lo..=hi {
                counts[slab] += 1;
                if hi > lo {
                    replicated[slab] += 1;
                }
            }
            spans.push((lo as u32, hi as u32));
        }
        let mut maps: Vec<Vec<u32>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for (pos, (lo, hi)) in spans.into_iter().enumerate() {
            for map in maps.iter_mut().take(hi as usize + 1).skip(lo as usize) {
                map.push(pos as u32);
            }
        }
        let all = store.segments();
        let segs: Vec<Vec<Segment>> = crate::par::par_map(plan.shards, |slab| {
            maps[slab].iter().map(|&pos| all[pos as usize]).collect()
        });
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
        // Temporal extent [0, 4].
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
    fn reach_span_temporal_needs_no_slack() {
        let s = store();
        let stats = s.stats().unwrap();
        let plan = ShardPlan::new(&stats, 4, PartitionStrategy::Temporal);
        // Extent [0, 4], slab width 1. A query over [1.2, 1.8] reaches
        // slab 1 only, however far apart in space.
        let q = seg(1.2, 1.8, 0.0, 1.0, 9);
        assert_eq!(plan.reach_span(&q), Some((1, 1)));
        // Touching the extent edge still routes (closed comparison).
        let edge = seg(-5.0, 0.0, 0.0, 1.0, 9);
        assert_eq!(plan.reach_span(&edge), Some((0, 0)));
        // Entirely before/after the extent: no shard can match.
        assert_eq!(plan.reach_span(&seg(-5.0, -0.1, 0.0, 1.0, 9)), None);
        assert_eq!(plan.reach_span(&seg(4.5, 9.0, 0.0, 1.0, 9)), None);
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
        for shards in [1usize, 2, 3, 8] {
            let plan = ShardPlan::new(&stats, shards, PartitionStrategy::Temporal);
            for q in &queries {
                for d in [0.25, 1.0, 3.0] {
                    for e in s.iter() {
                        if within_distance(q, e, d).is_none() {
                            continue;
                        }
                        let (rl, rh) =
                            plan.reach_span(q).expect("a matching query must reach some slab");
                        let (el, eh) = plan.slab_span(e);
                        assert!(
                            rl <= eh && el <= rh,
                            "shards={shards} d={d}: entry slabs [{el},{eh}] outside reach \
                             [{rl},{rh}]"
                        );
                    }
                }
            }
        }
    }
}
