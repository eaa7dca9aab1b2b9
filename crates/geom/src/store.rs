//! In-memory segment databases with a generational mutation lifecycle.
//!
//! A [`SegmentStore`] is no longer build-once: [`append`] and
//! [`expire_before`] mutate it in place, bumping a monotonically increasing
//! *generation* number. Derived state — the [`StoreStats`] scan — is
//! generation-tagged, so consumers can never observe values computed
//! against a different segment set, and appends extend it incrementally
//! instead of rescanning.
//!
//! Searches pin an *epoch*: index builders snapshot the store behind an
//! `Arc` and record [`generation`] at build time, so a store mutated for the
//! next generation never changes results of searches already in flight (the
//! old `Arc` keeps the old segment vector alive).
//!
//! [`append`]: SegmentStore::append
//! [`expire_before`]: SegmentStore::expire_before
//! [`generation`]: SegmentStore::generation

use crate::{first_invalid, FrontVec, Mbb, Segment, TimeInterval};
use std::sync::Mutex;

/// Global statistics of a segment database.
///
/// Every indexing scheme is parameterised by some of these: the temporal
/// index needs the temporal extent, the spatial grid needs the spatial
/// bounds, and the spatiotemporal subbins are constrained by the maximum
/// per-dimension spatial extent of any single segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreStats {
    /// Spatial bounds over all segment endpoints.
    pub bounds: Mbb,
    /// `[min t_start, max t_end]` over all segments.
    pub time_span: TimeInterval,
    /// Maximum spatial extent of any single segment, per dimension.
    pub max_segment_extent: [f64; 3],
    /// Mean temporal extent of a segment.
    pub mean_duration: f64,
}

/// Description of one [`SegmentStore::append`]: the appended segments
/// occupy positions `from..from + count` of the store at `generation`.
///
/// Indexes consume this to ingest exactly the new tail without rediscovering
/// what changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendDelta {
    /// Position of the first appended segment.
    pub from: usize,
    /// Number of appended segments.
    pub count: usize,
    /// Store generation *after* the append.
    pub generation: u64,
}

/// Description of one [`SegmentStore::expire_before`]: `removed` holds the
/// *old* positions (ascending) that were deleted from a store of `old_len`
/// segments. Survivors keep their relative order.
///
/// The cut only rewrites the store's *prefix* `0..prefix()`, which ends
/// one past the last removed position: every old position from there on
/// survives and moves down by `removed.len()`. Inside the prefix a rank
/// table, `prefix() + 1` entries filled in by the one pass that removes the
/// segments, answers where each survivor goes. So [`remap`] (a position)
/// and [`rank`] (a boundary between positions: a bin start, a range end)
/// are one lookup or one subtraction each.
///
/// [`remap`]: ExpireDelta::remap
/// [`rank`]: ExpireDelta::rank
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpireDelta {
    /// Old positions removed, in ascending order.
    pub removed: Vec<u32>,
    /// `rank[p]` = survivors at old positions `0..p`, for `p` in
    /// `0..=prefix`.
    rank: Vec<u32>,
    /// Store length before the expire.
    pub old_len: usize,
    /// Store generation *after* the expire.
    pub generation: u64,
}

impl ExpireDelta {
    /// One past the last removed old position (0 when nothing was
    /// removed): the prefix of the store the cut rewrote.
    #[inline]
    pub fn prefix(&self) -> usize {
        self.rank.len() - 1
    }

    /// Survivors at old positions `0..b`: where a boundary `b` between old
    /// positions moves, for `b` in `0..=old_len`.
    #[inline]
    pub fn rank(&self, b: usize) -> usize {
        match self.rank.get(b) {
            Some(&r) => r as usize,
            None => b - self.removed.len(),
        }
    }

    /// New position of surviving old position `p` (`None` if `p` was
    /// removed or out of range).
    #[inline]
    pub fn remap(&self, p: usize) -> Option<usize> {
        if p >= self.old_len {
            return None;
        }
        match self.rank.get(p + 1) {
            Some(&next) => {
                let before = self.rank[p];
                (next > before).then_some(before as usize)
            }
            None => Some(p - self.removed.len()),
        }
    }
}

/// Generation-tagged stats entry. `dur_sum` is the exact left-to-right
/// running duration sum behind `mean_duration`, kept so an append can
/// *continue* the same sum — bitwise identical to a cold rescan, which also
/// adds durations in store order.
#[derive(Debug, Clone, Copy)]
struct StatsEntry {
    generation: u64,
    stats: Option<StoreStats>,
    dur_sum: f64,
}

/// An in-memory spatiotemporal segment database (the paper's `D`, and also
/// the representation of a query set `Q`).
///
/// The store owns its segments in one [`FrontVec`]; indexes reference
/// entries by their *position* among them, so reordering methods
/// ([`sort_by_t_start`]) and [`expire_before`] change those positions but
/// never the segments' own ids. A cut drops its rows behind the vector's
/// front offset, so the rows past the cut's prefix do not move.
///
/// [`sort_by_t_start`]: SegmentStore::sort_by_t_start
/// [`expire_before`]: SegmentStore::expire_before
#[derive(Debug, Default)]
pub struct SegmentStore {
    segments: FrontVec<Segment>,
    /// Every segment has `t_start <= t_end` and `t_start` is non-decreasing
    /// in position order, so a row that ends before a cut starts before it:
    /// [`expire_before`](SegmentStore::expire_before) scans only the rows
    /// that start before the cut. Kept exactly through appends; a cut or an
    /// unordered store leaves it `false` until the next sort.
    time_ordered: bool,
    /// Monotonically increasing mutation counter. Every mutating method
    /// bumps it; the stats cache carries the generation it was computed at.
    generation: u64,
    /// The lazily computed, generation-tagged stats scan.
    stats: Mutex<Option<StatsEntry>>,
}

impl Clone for SegmentStore {
    fn clone(&self) -> Self {
        // Carry the stats cache over (cheap: it is `Copy`) so a
        // copy-on-write snapshot does not rescan an unchanged store.
        let stats = *self.stats.lock().expect("store cache poisoned");
        SegmentStore {
            segments: self.segments.clone(),
            time_ordered: self.time_ordered,
            generation: self.generation,
            stats: Mutex::new(stats),
        }
    }
}

impl SegmentStore {
    /// Empty store.
    pub fn new() -> Self {
        SegmentStore::default()
    }

    /// Build from a vector of segments (generation 0).
    pub fn from_segments(segments: Vec<Segment>) -> Self {
        let time_ordered = continues_time_order(None, &segments);
        SegmentStore {
            segments: segments.into(),
            time_ordered,
            generation: 0,
            stats: Mutex::new(None),
        }
    }

    /// Number of segments.
    #[inline]
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True if the store holds no segments.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The store's current generation. Starts at 0; every mutation
    /// ([`push`], [`append`], [`expire_before`], [`sort_by_t_start`]) bumps
    /// it by one. Indexes record the generation they were built or last
    /// ingested at, pinning their search results to that epoch.
    ///
    /// [`push`]: SegmentStore::push
    /// [`append`]: SegmentStore::append
    /// [`expire_before`]: SegmentStore::expire_before
    /// [`sort_by_t_start`]: SegmentStore::sort_by_t_start
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Append a segment. The stats cache goes stale by generation tag;
    /// prefer [`append`](SegmentStore::append) for bulk ingestion, which
    /// extends it incrementally.
    #[inline]
    pub fn push(&mut self, seg: Segment) {
        self.time_ordered &= continues_time_order(self.segments.last(), &[seg]);
        self.segments.push(seg);
        self.generation += 1;
    }

    /// Whether `new` may be streamed onto this store: every segment
    /// [valid](Segment::is_valid), and `t_start` non-decreasing from the
    /// last stored segment on (the temporal indexes keep the store sorted).
    /// `Err` carries the reason; callers run this before
    /// [`append`](SegmentStore::append), which itself accepts anything.
    pub fn check_append(&self, new: &[Segment]) -> Result<(), String> {
        if let Some(bad) = first_invalid(new) {
            return Err(format!("appended {bad}"));
        }
        let tail = self.segments.last().into_iter().chain(new);
        if !tail.clone().zip(tail.skip(1)).all(|(a, b)| a.t_start <= b.t_start) {
            return Err("appended segments must continue the store's t_start order".into());
        }
        Ok(())
    }

    /// Append a batch of segments at the tail, extending the stats scan
    /// incrementally when it is fresh.
    ///
    /// Returns the [`AppendDelta`] describing the new tail. Streaming
    /// ingestion keeps the store sorted by feeding segments whose `t_start`
    /// is ≥ the current maximum; the store itself does not enforce that
    /// (the temporal indexes validate it on ingest).
    pub fn append(&mut self, new: &[Segment]) -> AppendDelta {
        let from = self.segments.len();
        let prev_generation = self.generation;
        self.time_ordered &= continues_time_order(self.segments.last(), new);
        self.segments.extend_from_slice(new);
        self.generation += 1;
        if let Some(entry) = self.stats.get_mut().expect("store cache poisoned") {
            if entry.generation == prev_generation && !new.is_empty() {
                // Continue the cold scan over the appended tail: max/min
                // merges are exact, and `dur_sum` extends the same
                // left-to-right addition order a full rescan would use.
                let mut bounds = entry.stats.map_or_else(Mbb::empty, |s| s.bounds);
                let mut t_min = entry.stats.map_or(f64::INFINITY, |s| s.time_span.start);
                let mut t_max = entry.stats.map_or(f64::NEG_INFINITY, |s| s.time_span.end);
                let mut max_ext = entry.stats.map_or([0.0f64; 3], |s| s.max_segment_extent);
                let mut dur_sum = entry.dur_sum;
                for s in new {
                    bounds.expand_to_point(&s.start);
                    bounds.expand_to_point(&s.end);
                    t_min = t_min.min(s.t_start);
                    t_max = t_max.max(s.t_end);
                    for (dim, ext) in max_ext.iter_mut().enumerate() {
                        *ext = ext.max(s.spatial_extent(dim));
                    }
                    dur_sum += s.duration();
                }
                *entry = StatsEntry {
                    generation: self.generation,
                    stats: Some(StoreStats {
                        bounds,
                        time_span: TimeInterval { start: t_min, end: t_max },
                        max_segment_extent: max_ext,
                        mean_duration: dur_sum / self.segments.len() as f64,
                    }),
                    dur_sum,
                };
            }
        }
        AppendDelta { from, count: new.len(), generation: self.generation }
    }

    /// Remove every segment that ends strictly before `t` (`t_end < t`),
    /// preserving the relative order of survivors.
    ///
    /// Returns the [`ExpireDelta`] mapping old positions to new ones. On a
    /// time-ordered store (every `t_start <= t_end`, `t_start` sorted) only
    /// the rows that start before `t` are scanned, and only the survivors
    /// among the rows up to the last removed one move; the rest stay where
    /// they are behind the store's front offset. An unordered store is
    /// scanned whole by the same loop. The stats cache is invalidated
    /// (extents can shrink), so the next [`stats`](SegmentStore::stats)
    /// call rescans.
    pub fn expire_before(&mut self, t: f64) -> ExpireDelta {
        let old_len = self.segments.len();
        let scan = if self.time_ordered && !t.is_nan() {
            self.segments.partition_point(|s| s.t_start < t)
        } else {
            old_len
        };
        let keep = |s: &Segment| s.t_end >= t;
        let mut removed = Vec::new();
        let mut rank = vec![0];
        let mut kept: u32 = 0;
        for (p, s) in self.segments[..scan].iter().enumerate() {
            if keep(s) {
                kept += 1;
            } else {
                removed.push(p as u32);
            }
            rank.push(kept);
        }
        let prefix = removed.last().map_or(0, |&r| r as usize + 1);
        rank.truncate(prefix + 1);
        self.segments.cut_front(prefix, |_, s| keep(s).then_some(*s));
        self.generation += 1;
        *self.stats.get_mut().expect("store cache poisoned") = None;
        ExpireDelta { removed, rank, old_len, generation: self.generation }
    }

    /// Rows cut from the front but not yet compacted away: host memory the
    /// store holds beyond its segments, bounded by a quarter of them plus
    /// the last cut (see [`FrontVec`]).
    pub fn slack(&self) -> usize {
        self.segments.slack()
    }

    /// Immutable view of the segments.
    #[inline]
    pub fn segments(&self) -> &[Segment] {
        self.segments.as_slice()
    }

    /// Segment at position `i`. Panics out of range; prefer [`try_get`] when
    /// `i` originates outside the store (e.g. positions read back from a
    /// kernel result buffer).
    ///
    /// [`try_get`]: SegmentStore::try_get
    #[inline]
    pub fn get(&self, i: usize) -> &Segment {
        &self.segments[i]
    }

    /// Checked variant of [`get`](SegmentStore::get): `None` out of range.
    #[inline]
    pub fn try_get(&self, i: usize) -> Option<&Segment> {
        self.segments.get(i)
    }

    /// Sort segments by ascending `t_start`, stably: segments with equal
    /// keys keep their relative order. The temporal and spatiotemporal
    /// indexes require this ordering. A NaN `t_start` sorts last, so a
    /// hostile store is left for the build's validity check to refuse;
    /// `-0.0` and `0.0` are equal keys. The order is exactly that of a
    /// stable comparison sort under `partial_cmp` with every NaN greater
    /// than every number.
    ///
    /// Each `t_start` maps to an order-preserving `u64` key. Stores of at
    /// least 4,096 rows sort (key, position) pairs with a least-significant
    /// digit first radix sort, 16 bits a pass, skipping every pass whose
    /// digit is the same for all keys (times that are small integers leave
    /// the low 32 bits alike); the segments then move to their slots in
    /// place, one permutation cycle at a time, so no second copy of the
    /// store is made. Smaller stores compare the keys directly. A
    /// [time-ordered](SegmentStore::is_time_ordered) store is already in
    /// this order and is left as it is.
    ///
    /// The stats cache is re-tagged rather than invalidated — the segment
    /// *set* is unchanged, so the scan (including its exact duration sum)
    /// still holds.
    pub fn sort_by_t_start(&mut self) {
        let prev_generation = self.generation;
        if !self.time_ordered {
            let segs = self.segments.as_mut_slice();
            crate::sort::sort_by_t_start(segs);
            self.time_ordered = continues_time_order(None, segs);
        }
        self.generation += 1;
        if let Some(entry) = self.stats.get_mut().expect("store cache poisoned") {
            if entry.generation == prev_generation {
                entry.generation = self.generation;
            }
        }
    }

    /// True if every segment has `t_start <= t_end` and `t_start` does not
    /// decrease in position order: the flag that lets
    /// [`expire_before`](SegmentStore::expire_before) scan only the rows
    /// that start before its cut. Set by a sort or construction that finds
    /// it so, kept through appends, cleared by a cut.
    pub fn is_time_ordered(&self) -> bool {
        self.time_ordered
    }

    /// True if segments are sorted by non-decreasing `t_start`.
    pub fn is_sorted_by_t_start(&self) -> bool {
        self.segments.windows(2).all(|w| w[0].t_start <= w[1].t_start)
    }

    /// Global statistics of the store. Returns `None` for an empty store.
    /// They are computed whatever the store holds: a store with a segment
    /// outside the numeric domain gets a time span that may be inverted or
    /// NaN, and is refused by the build it is scanned for.
    ///
    /// Computed on first call per generation and cached: every index built
    /// on the same store generation shares one O(n) scan. A stale tag (any
    /// mutation since the scan) forces a recompute, so callers — balanced
    /// slab-edge placement, routing reach intervals — never see extents
    /// from a previous generation.
    pub fn stats(&self) -> Option<StoreStats> {
        let mut cache = self.stats.lock().expect("store cache poisoned");
        if let Some(entry) = *cache {
            if entry.generation == self.generation {
                return entry.stats;
            }
        }
        let (stats, dur_sum) = self.compute_stats();
        *cache = Some(StatsEntry { generation: self.generation, stats, dur_sum });
        stats
    }

    fn compute_stats(&self) -> (Option<StoreStats>, f64) {
        if self.segments.is_empty() {
            return (None, 0.0);
        }
        let mut bounds = Mbb::empty();
        let mut t_min = f64::INFINITY;
        let mut t_max = f64::NEG_INFINITY;
        let mut max_ext = [0.0f64; 3];
        let mut dur_sum = 0.0;
        for s in self.segments.iter() {
            bounds.expand_to_point(&s.start);
            bounds.expand_to_point(&s.end);
            t_min = t_min.min(s.t_start);
            t_max = t_max.max(s.t_end);
            for (dim, ext) in max_ext.iter_mut().enumerate() {
                *ext = ext.max(s.spatial_extent(dim));
            }
            dur_sum += s.duration();
        }
        let stats = StoreStats {
            bounds,
            time_span: TimeInterval { start: t_min, end: t_max },
            max_segment_extent: max_ext,
            mean_duration: dur_sum / self.segments.len() as f64,
        };
        (Some(stats), dur_sum)
    }

    /// Number of distinct trajectory ids (O(n log n)).
    pub fn trajectory_count(&self) -> usize {
        let mut ids: Vec<u32> = self.segments.iter().map(|s| s.traj_id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Iterate over the segments.
    pub fn iter(&self) -> std::slice::Iter<'_, Segment> {
        self.segments.iter()
    }
}

/// Whether `new`, placed after `last`, keeps a store time-ordered: every
/// segment has `t_start <= t_end` (false for a NaN) and `t_start` does not
/// decrease.
fn continues_time_order(last: Option<&Segment>, new: &[Segment]) -> bool {
    let mut prev = last.map_or(f64::NEG_INFINITY, |s| s.t_start);
    new.iter().all(|s| {
        let ordered = prev <= s.t_start && s.t_start <= s.t_end;
        prev = s.t_start;
        ordered
    })
}

impl FromIterator<Segment> for SegmentStore {
    fn from_iter<I: IntoIterator<Item = Segment>>(iter: I) -> Self {
        SegmentStore::from_segments(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a SegmentStore {
    type Item = &'a Segment;
    type IntoIter = std::slice::Iter<'a, Segment>;
    fn into_iter(self) -> Self::IntoIter {
        self.segments.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Point3, SegId, TrajId};

    fn seg(t0: f64, t1: f64, lo: f64, hi: f64, traj: u32) -> Segment {
        Segment::new(Point3::splat(lo), Point3::splat(hi), t0, t1, SegId(0), TrajId(traj))
    }

    #[test]
    fn empty_store() {
        let s = SegmentStore::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.generation(), 0);
        assert!(s.stats().is_none());
        assert_eq!(s.trajectory_count(), 0);
        assert!(s.is_sorted_by_t_start());
    }

    #[test]
    fn stats_cover_all_segments() {
        let store: SegmentStore = vec![
            seg(0.0, 1.0, 0.0, 2.0, 0),
            seg(0.5, 2.0, -1.0, 1.0, 1),
            seg(1.5, 3.0, 4.0, 5.0, 1),
        ]
        .into_iter()
        .collect();
        let st = store.stats().unwrap();
        assert_eq!(st.time_span, TimeInterval::new(0.0, 3.0));
        assert_eq!(st.bounds.lo, Point3::splat(-1.0));
        assert_eq!(st.bounds.hi, Point3::splat(5.0));
        assert_eq!(st.max_segment_extent, [2.0, 2.0, 2.0]);
        assert!((st.mean_duration - (1.0 + 1.5 + 1.5) / 3.0).abs() < 1e-12);
        assert_eq!(store.trajectory_count(), 2);
    }

    #[test]
    fn sorting() {
        let mut store: SegmentStore = vec![
            seg(2.0, 3.0, 0.0, 0.0, 0),
            seg(0.0, 1.0, 0.0, 0.0, 0),
            seg(1.0, 2.0, 0.0, 0.0, 0),
        ]
        .into_iter()
        .collect();
        assert!(!store.is_sorted_by_t_start());
        store.sort_by_t_start();
        assert!(store.is_sorted_by_t_start());
        assert_eq!(store.get(0).t_start, 0.0);
        assert_eq!(store.get(2).t_start, 2.0);
    }

    #[test]
    fn nan_t_start_sorts_last_and_signed_zeros_stay_equal() {
        let mut hostile = seg(0.0, 1.0, 0.0, 0.0, 0);
        hostile.t_start = f64::NAN;
        let mut store: SegmentStore = vec![
            hostile,
            seg(0.0, 1.0, 0.0, 0.0, 1),
            seg(-0.0, 1.0, 0.0, 0.0, 2),
            seg(-1.0, 1.0, 0.0, 0.0, 3),
        ]
        .into_iter()
        .collect();
        store.sort_by_t_start();
        let order: Vec<u32> = store.iter().map(|s| s.traj_id.0).collect();
        assert_eq!(order, [3, 1, 2, 0], "stable among equal keys, NaN last");
    }

    /// Stats are computed whatever the store holds: a store of one
    /// inverted segment, which the builds refuse, used to trip the time
    /// span's ordering assertion while being scanned for them.
    #[test]
    fn stats_of_a_hostile_store_do_not_panic() {
        let mut inverted = seg(0.0, 1.0, 0.0, 0.0, 0);
        inverted.t_end = -1.0;
        let mut store: SegmentStore = vec![inverted].into_iter().collect();
        let span = store.stats().unwrap().time_span;
        assert_eq!((span.start, span.end), (0.0, -1.0));
        let delta = store.append(&[inverted]);
        assert_eq!(delta.count, 1);
        assert_eq!(store.stats().unwrap().time_span.end, -1.0);
        let bad = store.check_append(&[inverted]).unwrap_err();
        assert_eq!(bad, "appended segment 0 has t_start > t_end");
    }

    #[test]
    fn try_get_is_checked() {
        let store: SegmentStore = vec![seg(0.0, 1.0, 0.0, 1.0, 0)].into_iter().collect();
        assert_eq!(store.try_get(0), Some(store.get(0)));
        assert!(store.try_get(1).is_none());
        assert!(store.try_get(usize::MAX).is_none());
    }

    #[test]
    fn stats_cache_invalidated_on_mutation() {
        let mut store: SegmentStore =
            vec![seg(0.0, 1.0, 0.0, 1.0, 0), seg(2.0, 3.0, 5.0, 6.0, 1)].into_iter().collect();
        let before = store.stats().unwrap();
        // Cached: a second call agrees exactly.
        assert_eq!(store.stats().unwrap(), before);
        store.push(seg(4.0, 9.0, -8.0, -7.0, 2));
        let after = store.stats().unwrap();
        assert_eq!(after.time_span, TimeInterval::new(0.0, 9.0));
        assert_eq!(after.bounds.lo, Point3::splat(-8.0));
        store.sort_by_t_start();
        assert_eq!(store.stats().unwrap(), after);
    }

    #[test]
    fn generation_bumps_on_every_mutation() {
        let mut store: SegmentStore = vec![seg(0.0, 1.0, 0.0, 1.0, 0)].into_iter().collect();
        assert_eq!(store.generation(), 0);
        store.push(seg(1.0, 2.0, 0.0, 1.0, 1));
        assert_eq!(store.generation(), 1);
        store.append(&[seg(2.0, 3.0, 0.0, 1.0, 2)]);
        assert_eq!(store.generation(), 2);
        store.expire_before(1.5);
        assert_eq!(store.generation(), 3);
        store.sort_by_t_start();
        assert_eq!(store.generation(), 4);
    }

    #[test]
    fn append_merges_stats_exactly() {
        let base = vec![seg(0.0, 1.0, 0.0, 2.0, 0), seg(0.5, 2.0, -1.0, 1.0, 1)];
        let tail = vec![seg(1.5, 3.0, 4.0, 5.0, 1), seg(2.5, 4.0, -3.0, 0.0, 2)];

        let mut streaming: SegmentStore = base.clone().into_iter().collect();
        let _ = streaming.stats(); // warm the cache so append merges into it
        let delta = streaming.append(&tail);
        assert_eq!(delta.from, 2);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.generation, streaming.generation());

        let cold: SegmentStore = base.into_iter().chain(tail).collect();
        // Bitwise-identical to a cold scan, including the duration mean.
        assert_eq!(streaming.stats(), cold.stats());
    }

    #[test]
    fn append_on_stale_cache_recomputes() {
        let mut store: SegmentStore = vec![seg(0.0, 1.0, 0.0, 1.0, 0)].into_iter().collect();
        // No stats() call before append: the cache is cold, so append
        // leaves it cold and the next stats() call scans everything.
        store.append(&[seg(5.0, 9.0, -4.0, 4.0, 1)]);
        let st = store.stats().unwrap();
        assert_eq!(st.time_span, TimeInterval::new(0.0, 9.0));
        assert_eq!(st.bounds.hi, Point3::splat(4.0));
    }

    #[test]
    fn expire_before_removes_and_remaps() {
        let mut store: SegmentStore = vec![
            seg(0.0, 0.5, 0.0, 1.0, 0),
            seg(0.2, 2.0, 0.0, 1.0, 1),
            seg(0.4, 0.9, 0.0, 1.0, 2),
            seg(1.0, 3.0, 0.0, 1.0, 3),
        ]
        .into_iter()
        .collect();
        let delta = store.expire_before(1.0);
        assert_eq!(store.len(), 2);
        assert_eq!(delta.old_len, 4);
        assert_eq!(delta.removed, vec![0, 2]);
        assert_eq!(delta.prefix(), 3);
        assert_eq!((0..=4).map(|b| delta.rank(b)).collect::<Vec<_>>(), vec![0, 0, 1, 1, 2]);
        assert_eq!(delta.remap(0), None);
        assert_eq!(delta.remap(1), Some(0));
        assert_eq!(delta.remap(2), None);
        assert_eq!(delta.remap(3), Some(1));
        assert_eq!(delta.remap(4), None);
        assert_eq!(store.get(0).traj_id, TrajId(1));
        assert_eq!(store.get(1).traj_id, TrajId(3));
        // Stats reflect the shrunk store.
        let st = store.stats().unwrap();
        assert_eq!(st.time_span, TimeInterval::new(0.2, 3.0));
    }

    #[test]
    fn clone_preserves_generation_and_caches() {
        let mut store: SegmentStore = vec![seg(0.0, 1.0, 0.0, 1.0, 0)].into_iter().collect();
        store.append(&[seg(1.0, 2.0, 0.0, 1.0, 1)]);
        let _ = store.stats();
        let copy = store.clone();
        assert_eq!(copy.generation(), store.generation());
        assert_eq!(copy.stats(), store.stats());
    }
}
