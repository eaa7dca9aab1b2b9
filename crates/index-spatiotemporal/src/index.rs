//! The spatiotemporal (bins × subbins) index.

use tdts_geom::{ExpireDelta, Segment, SegmentStore, StoreStats};
use tdts_gpu_sim::SearchError;
use tdts_index_temporal::{check_bins, TemporalIndex, TemporalIndexConfig};

/// Index parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpatioTemporalIndexConfig {
    /// Temporal bin count `m` (as in `GPUTemporal`).
    pub bins: usize,
    /// Requested spatial subbins per dimension `v`; the effective value is
    /// capped by the constraint that subbins must be wider than the largest
    /// single-segment extent (§IV-C1).
    pub subbins: usize,
    /// Order query execution by array selector so warps see uniform control
    /// paths ("we sort S based on the lookup array specification so as to
    /// reduce thread divergence", §IV-C2). Disable only for the divergence
    /// ablation.
    pub sort_by_selector: bool,
}

impl Default for SpatioTemporalIndexConfig {
    fn default() -> Self {
        SpatioTemporalIndexConfig { bins: 1_000, subbins: 4, sort_by_selector: true }
    }
}

/// Which lookup the kernel uses for a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selector {
    /// Use the id array of the given dimension (0 = X, 1 = Y, 2 = Z).
    Dim(u8),
    /// Query spans multiple subbins in every dimension: fall back to the
    /// purely temporal scheme (`S[gid].arrayXYZ = -1` in Algorithm 3).
    Temporal,
    /// No temporally overlapping entries at all.
    Empty,
}

/// One schedule entry: the lookup selector plus a half-open index range
/// (into the selected dimension array, or directly into the entry database
/// for the temporal fallback). Encoded in 4 integers on the device, exactly
/// the paper's fixed-size, alignment-preserving encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleEntry {
    pub selector: Selector,
    pub lo: u32,
    pub hi: u32,
}

impl ScheduleEntry {
    /// Number of candidates this entry scans.
    pub fn len(&self) -> u32 {
        self.hi - self.lo
    }

    /// True if nothing will be scanned.
    pub fn is_empty(&self) -> bool {
        self.hi == self.lo
    }

    /// Device encoding: `[selector, lo, hi, 0]` with selectors 0–2 = X/Y/Z,
    /// 3 = temporal fallback, 4 = empty.
    pub fn encode(&self) -> [u32; 4] {
        let sel = match self.selector {
            Selector::Dim(d) => d as u32,
            Selector::Temporal => 3,
            Selector::Empty => 4,
        };
        [sel, self.lo, self.hi, 0]
    }
}

/// The spatiotemporal index: a [`TemporalIndex`] plus per-dimension id
/// arrays in `(subbin, bin)` lexicographic layout.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatioTemporalIndex {
    temporal: TemporalIndex,
    /// Effective subbin count (requested `v` capped by the extent
    /// constraint).
    v: usize,
    /// Temporal bins in the directory, `m` (`temporal.bins()`).
    m: usize,
    /// Per-dimension minimum coordinate of the database volume.
    lo: [f64; 3],
    /// Per-dimension subbin width.
    width: [f64; 3],
    /// The `X`, `Y`, `Z` id arrays.
    pub arrays: [Vec<u32>; 3],
    /// Per dimension: half-open ranges into the array, indexed `j * m + i`
    /// for subbin `j`, temporal bin `i`.
    pub ranges: [Vec<[u32; 2]>; 3],
}

impl SpatioTemporalIndex {
    /// Build over a `t_start`-sorted, non-empty store. Violations surface
    /// as the same [`SearchError`] variants [`TemporalIndex::build`] uses.
    pub fn build(
        store: &SegmentStore,
        config: SpatioTemporalIndexConfig,
    ) -> Result<SpatioTemporalIndex, SearchError> {
        let stats = store.stats().ok_or(SearchError::EmptyDataset)?;
        SpatioTemporalIndex::build_with_stats(store, &stats, config)
    }

    /// [`build`](SpatioTemporalIndex::build) with the store's [`StoreStats`]
    /// supplied by the caller, so one stats scan can be shared across every
    /// index built on the same store.
    pub fn build_with_stats(
        store: &SegmentStore,
        stats: &StoreStats,
        config: SpatioTemporalIndexConfig,
    ) -> Result<SpatioTemporalIndex, SearchError> {
        if config.subbins < 1 {
            return Err(SearchError::InvalidConfig("need at least one subbin".into()));
        }
        let temporal = TemporalIndex::build_with_stats(
            store,
            stats,
            TemporalIndexConfig { bins: config.bins },
        )?;
        let m = config.bins;

        // Cap v by the constraint v <= extent / max_segment_extent in every
        // dimension (zero-extent dimensions allow any v: every segment is a
        // point there).
        let mut v = config.subbins;
        let mut lo = [0.0f64; 3];
        let mut extent = [0.0f64; 3];
        for d in 0..3 {
            lo[d] = stats.bounds.lo.coord(d);
            extent[d] = stats.bounds.hi.coord(d) - lo[d];
            let max_ext = stats.max_segment_extent[d];
            if max_ext > 0.0 {
                v = v.min(((extent[d] / max_ext).floor() as usize).max(1));
            }
        }
        let mut width = [0.0f64; 3];
        for d in 0..3 {
            width[d] = if extent[d] > 0.0 { extent[d] / v as f64 } else { 1.0 };
        }

        // Populate the per-dimension arrays in (subbin, bin) order.
        let rows = check_bins(v.checked_mul(m))?;
        let mut arrays: [Vec<u32>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let mut ranges: [Vec<[u32; 2]>; 3] =
            [Vec::with_capacity(rows), Vec::with_capacity(rows), Vec::with_capacity(rows)];
        let segs = store.segments();
        for d in 0..3 {
            for j in 0..v {
                let sub_lo = lo[d] + j as f64 * width[d];
                let sub_hi = sub_lo + width[d];
                for i in 0..m {
                    let (b_lo, b_hi) = temporal.bin_range(i);
                    let start = arrays[d].len() as u32;
                    for pos in b_lo..b_hi {
                        let s = &segs[pos as usize];
                        // Closed-interval overlap so boundary segments are
                        // never lost (they may appear in two subbins).
                        if s.min_coord(d) <= sub_hi && s.max_coord(d) >= sub_lo {
                            arrays[d].push(pos);
                        }
                    }
                    ranges[d].push([start, arrays[d].len() as u32]);
                }
            }
        }

        Ok(SpatioTemporalIndex { temporal, v, m, lo, width, arrays, ranges })
    }

    /// The underlying temporal index.
    pub fn temporal(&self) -> &TemporalIndex {
        &self.temporal
    }

    /// The index extended over store entries `from..` (time-ordered
    /// appends), built beside `self`, which is left as it was.
    ///
    /// The temporal directory may grow new bins past the old extent, which
    /// changes the `(subbin, bin)` layout stride: every per-dimension row is
    /// re-spliced, copying old chunks and appending the tail entries of each
    /// bin. Tail entries are placed by their clamped subbin index span —
    /// the same clamp [`schedule_for`](Self::schedule_for) applies to query
    /// intervals, so an entry overlapping a query's inflated interval always
    /// shares its subbin, even for entries outside the build-time volume.
    /// Each tail entry's span is computed once per dimension.
    pub fn append(&self, store: &SegmentStore, from: usize) -> Result<Self, SearchError> {
        let old_m = self.temporal.bins();
        let mut next = self.emptied();
        next.temporal.append(store, from)?;
        let new_m = next.temporal.bins();
        let rows = check_bins(self.v.checked_mul(new_m))?;
        next.m = new_m;
        let tail = &store.segments()[from..];
        for d in 0..3 {
            let spans: Vec<(usize, usize)> =
                tail.iter().map(|s| self.subbin_span(d, s.min_coord(d), s.max_coord(d))).collect();
            let mut arrays = Vec::with_capacity(self.arrays[d].len() + tail.len());
            let mut ranges = Vec::with_capacity(rows);
            for j in 0..self.v {
                for i in 0..new_m {
                    let start = arrays.len() as u32;
                    if i < old_m {
                        let [a, b] = self.ranges[d][j * old_m + i];
                        arrays.extend_from_slice(&self.arrays[d][a as usize..b as usize]);
                    }
                    let (b_lo, b_hi) = next.temporal.bin_range(i);
                    let lo = (b_lo as usize).max(from);
                    for pos in lo..b_hi as usize {
                        let (s_lo, s_hi) = spans[pos - from];
                        if (s_lo..=s_hi).contains(&j) {
                            arrays.push(pos as u32);
                        }
                    }
                    ranges.push([start, arrays.len() as u32]);
                }
            }
            next.arrays[d] = arrays;
            next.ranges[d] = ranges;
        }
        Ok(next)
    }

    /// The index without the expired entries, built beside `self`: the
    /// temporal directory and every per-dimension id array drop them and
    /// renumber survivors to their post-expiry store positions, one rank
    /// lookup each. The bins the temporal directory drops from its front
    /// lose their `(subbin, bin)` ranges too (every entry in them expired);
    /// the subbin geometry is unchanged.
    pub fn expire(&self, store: &SegmentStore, delta: &ExpireDelta) -> Result<Self, SearchError> {
        let mut next = self.emptied();
        next.temporal.expire(store, delta)?;
        next.m = next.temporal.bins();
        let dropped = self.m - next.m;
        for d in 0..3 {
            let mut arrays = Vec::with_capacity(self.arrays[d].len());
            let mut ranges = Vec::with_capacity(self.v * next.m);
            for row in self.ranges[d].chunks_exact(self.m) {
                debug_assert!(row[..dropped].iter().all(|r| {
                    let ids = &self.arrays[d][r[0] as usize..r[1] as usize];
                    ids.iter().all(|&pos| delta.remap(pos as usize).is_none())
                }));
                for r in &row[dropped..] {
                    let start = arrays.len() as u32;
                    for &pos in &self.arrays[d][r[0] as usize..r[1] as usize] {
                        if let Some(np) = delta.remap(pos as usize) {
                            arrays.push(np as u32);
                        }
                    }
                    ranges.push([start, arrays.len() as u32]);
                }
            }
            next.arrays[d] = arrays;
            next.ranges[d] = ranges;
        }
        Ok(next)
    }

    /// This index's geometry and temporal directory with no id arrays.
    fn emptied(&self) -> SpatioTemporalIndex {
        let (arrays, ranges) = Default::default();
        SpatioTemporalIndex { temporal: self.temporal.clone(), arrays, ranges, ..*self }
    }

    /// Effective subbins per dimension (after the extent-constraint cap).
    pub fn effective_subbins(&self) -> usize {
        self.v
    }

    /// Subbin index range `(s_lo, s_hi)` (inclusive, clamped) overlapped by
    /// `[lo, hi]` in dimension `d`.
    fn subbin_span(&self, d: usize, lo: f64, hi: f64) -> (usize, usize) {
        let to_idx = |x: f64| -> usize {
            let i = ((x - self.lo[d]) / self.width[d]).floor();
            (i.max(0.0) as usize).min(self.v - 1)
        };
        (to_idx(lo), to_idx(hi))
    }

    /// Compute the schedule entry for one query at distance `d`
    /// (host side, §IV-C2).
    pub fn schedule_for(&self, q: &Segment, d: f64) -> ScheduleEntry {
        let Some((i_lo, i_hi)) = self.temporal.candidate_bins(q) else {
            return ScheduleEntry { selector: Selector::Empty, lo: 0, hi: 0 };
        };

        // Per dimension: usable iff the inflated query interval stays within
        // one subbin; among usable dimensions pick the fewest candidates.
        let mut best: Option<(u32, u8, u32, u32)> = None; // (count, dim, lo, hi)
        for dim in 0..3usize {
            let q_lo = q.min_coord(dim) - d;
            let q_hi = q.max_coord(dim) + d;
            let (s_lo, s_hi) = self.subbin_span(dim, q_lo, q_hi);
            if s_lo != s_hi {
                continue; // spans multiple subbins in this dimension
            }
            let first = self.ranges[dim][s_lo * self.m + i_lo][0];
            let last = self.ranges[dim][s_lo * self.m + i_hi][1];
            let count = last.saturating_sub(first);
            if best.is_none_or(|(c, ..)| count < c) {
                best = Some((count, dim as u8, first, last.max(first)));
            }
        }

        match best {
            Some((_, dim, lo, hi)) => ScheduleEntry { selector: Selector::Dim(dim), lo, hi },
            None => {
                // Fallback to the temporal scheme: contiguous entry range.
                match self.temporal.candidate_range(q) {
                    Some((lo, hi)) => ScheduleEntry { selector: Selector::Temporal, lo, hi },
                    None => ScheduleEntry { selector: Selector::Empty, lo: 0, hi: 0 },
                }
            }
        }
    }

    /// Check structural invariants against the store the index was built
    /// from; returns a description of the first violation.
    pub fn validate(&self, store: &SegmentStore) -> Result<(), String> {
        self.temporal.validate(store)?;
        for d in 0..3 {
            if self.ranges[d].len() != self.v * self.m {
                return Err(format!("dim {d}: expected {} ranges", self.v * self.m));
            }
            // Ranges tile the array contiguously in (subbin, bin) order.
            let mut cursor = 0u32;
            for (k, r) in self.ranges[d].iter().enumerate() {
                if r[0] != cursor || r[1] < r[0] {
                    return Err(format!("dim {d}: range {k} not contiguous"));
                }
                cursor = r[1];
            }
            if cursor as usize != self.arrays[d].len() {
                return Err(format!("dim {d}: ranges do not cover the array"));
            }
            // Every entry appears in at least one subbin of its bin and at
            // most two (the subbin-width constraint).
            let mut count = vec![0u32; store.len()];
            for &pos in &self.arrays[d] {
                count[pos as usize] += 1;
            }
            if let Some(pos) = count.iter().position(|&c| c == 0) {
                return Err(format!("dim {d}: entry {pos} missing from array"));
            }
            // The width constraint bounds overlap at two subbins; exact
            // boundary alignment can touch a third (closed intervals).
            if let Some(pos) = count.iter().position(|&c| c > 3) {
                return Err(format!("dim {d}: entry {pos} appears {} times", count[pos]));
            }
        }
        Ok(())
    }

    /// Extra index memory relative to `GPUTemporal`, in bytes — the paper
    /// states `>= 3|D| * 4` bytes for the three id arrays.
    pub fn extra_bytes(&self) -> usize {
        self.arrays.iter().map(|a| a.len() * 4).sum::<usize>()
            + self.ranges.iter().map(|r| r.len() * 8).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdts_geom::{Point3, SegId, TrajId};

    fn seg(x: f64, t0: f64, id: u32) -> Segment {
        // Spread in all three dimensions so the subbin constraint does not
        // collapse v to 1.
        Segment::new(
            Point3::new(x, x * 0.5, x * 0.3),
            Point3::new(x + 1.0, x * 0.5 + 1.0, x * 0.3 + 1.0),
            t0,
            t0 + 1.0,
            SegId(id),
            TrajId(id),
        )
    }

    fn store(n: usize) -> SegmentStore {
        (0..n).map(|i| seg(i as f64 * 2.0, i as f64 * 0.25, i as u32)).collect()
    }

    #[test]
    fn arrays_contain_every_entry_per_dim() {
        let s = store(40);
        let idx = SpatioTemporalIndex::build(
            &s,
            SpatioTemporalIndexConfig { bins: 8, subbins: 4, sort_by_selector: true },
        )
        .unwrap();
        for d in 0..3 {
            let mut seen = vec![false; s.len()];
            for &pos in &idx.arrays[d] {
                seen[pos as usize] = true;
            }
            assert!(seen.iter().all(|&x| x), "dim {d} missing entries");
            // At most doubled (entries overlap <= 2 subbins).
            assert!(idx.arrays[d].len() <= 2 * s.len());
        }
        assert!(idx.extra_bytes() >= 3 * s.len() * 4);
    }

    #[test]
    fn subbin_constraint_caps_v() {
        // Segments nearly as long as the whole extent force v = 1.
        let s: SegmentStore = (0..10)
            .map(|i| {
                Segment::new(
                    Point3::new(0.0, 0.0, 0.0),
                    Point3::new(10.0, 10.0, 10.0),
                    i as f64,
                    i as f64 + 1.0,
                    SegId(i),
                    TrajId(i),
                )
            })
            .collect();
        let idx = SpatioTemporalIndex::build(
            &s,
            SpatioTemporalIndexConfig { bins: 4, subbins: 16, sort_by_selector: true },
        )
        .unwrap();
        assert_eq!(idx.effective_subbins(), 1);
    }

    #[test]
    fn oversized_directory_rejected() {
        // Point segments leave `v` uncapped, so `v * m` overflows.
        let s: SegmentStore = (0..10)
            .map(|i| {
                let p = Point3::new(i as f64, i as f64, i as f64);
                Segment::new(p, p, i as f64, i as f64 + 1.0, SegId(i), TrajId(i))
            })
            .collect();
        let config =
            SpatioTemporalIndexConfig { bins: 4, subbins: usize::MAX, sort_by_selector: true };
        let err = SpatioTemporalIndex::build(&s, config).unwrap_err();
        assert!(matches!(err, SearchError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn schedule_covers_all_temporal_overlaps() {
        let s = store(60);
        let idx = SpatioTemporalIndex::build(
            &s,
            SpatioTemporalIndexConfig { bins: 10, subbins: 4, sort_by_selector: true },
        )
        .unwrap();
        for qi in 0..30 {
            let q = seg(qi as f64 * 1.7, qi as f64 * 0.3, 1000);
            let d = 0.8;
            let entry = idx.schedule_for(&q, d);
            // Collect the candidate entry positions the schedule yields.
            let candidates: Vec<u32> = match entry.selector {
                Selector::Dim(dim) => {
                    idx.arrays[dim as usize][entry.lo as usize..entry.hi as usize].to_vec()
                }
                Selector::Temporal => (entry.lo..entry.hi).collect(),
                Selector::Empty => Vec::new(),
            };
            // Every true match must be among the candidates.
            for (pos, e) in s.iter().enumerate() {
                if tdts_geom::within_distance(&q, e, d).is_some() {
                    assert!(
                        candidates.contains(&(pos as u32)),
                        "query {qi}: match {pos} not in candidates ({:?})",
                        entry.selector
                    );
                }
            }
        }
    }

    #[test]
    fn validate_passes_for_fresh_index() {
        let s = store(50);
        let idx = SpatioTemporalIndex::build(
            &s,
            SpatioTemporalIndexConfig { bins: 6, subbins: 4, sort_by_selector: true },
        )
        .unwrap();
        assert!(idx.validate(&s).is_ok());
        let other = store(3);
        assert!(idx.validate(&other).is_err());
    }

    #[test]
    fn large_d_falls_back_to_temporal() {
        let s = store(30);
        let idx = SpatioTemporalIndex::build(
            &s,
            SpatioTemporalIndexConfig { bins: 4, subbins: 4, sort_by_selector: true },
        )
        .unwrap();
        let q = seg(10.0, 2.0, 99);
        // d much larger than a subbin: spans multiple subbins in all dims.
        let entry = idx.schedule_for(&q, 1_000.0);
        assert_eq!(entry.selector, Selector::Temporal);
        // Temporally disjoint query: empty.
        let far = seg(0.0, 1_000.0, 98);
        assert_eq!(idx.schedule_for(&far, 1.0).selector, Selector::Empty);
    }

    #[test]
    fn selector_encoding() {
        assert_eq!(
            ScheduleEntry { selector: Selector::Dim(2), lo: 5, hi: 9 }.encode(),
            [2, 5, 9, 0]
        );
        assert_eq!(
            ScheduleEntry { selector: Selector::Temporal, lo: 1, hi: 2 }.encode(),
            [3, 1, 2, 0]
        );
        let e = ScheduleEntry { selector: Selector::Empty, lo: 0, hi: 0 };
        assert_eq!(e.encode(), [4, 0, 0, 0]);
        assert!(e.is_empty());
        assert_eq!(ScheduleEntry { selector: Selector::Dim(0), lo: 3, hi: 10 }.len(), 7);
    }

    #[test]
    fn picks_most_selective_dimension() {
        // Entries spread widely along x but only mildly in y/z: the x array
        // is the most selective for a small query.
        let s: SegmentStore = (0..64)
            .map(|i| {
                let y = (i % 4) as f64 * 1.5;
                Segment::new(
                    Point3::new(i as f64, y, y),
                    Point3::new(i as f64 + 0.5, y + 0.5, y + 0.5),
                    (i / 8) as f64 * 0.125,
                    (i / 8) as f64 * 0.125 + 1.0,
                    SegId(i as u32),
                    TrajId(i as u32),
                )
            })
            .collect();
        let idx = SpatioTemporalIndex::build(
            &s,
            SpatioTemporalIndexConfig { bins: 2, subbins: 8, sort_by_selector: true },
        )
        .unwrap();
        assert!(idx.effective_subbins() > 1);
        let q = Segment::new(
            Point3::new(5.0, 0.0, 0.0),
            Point3::new(5.5, 0.5, 0.5),
            0.5,
            1.0,
            SegId(0),
            TrajId(999),
        );
        let entry = idx.schedule_for(&q, 0.1);
        assert_eq!(entry.selector, Selector::Dim(0), "x should be most selective");
    }
}
