//! The temporal bin index.

use tdts_geom::{ExpireDelta, Segment, SegmentStore, StoreStats};
use tdts_gpu_sim::SearchError;

/// The most bins a directory may hold. Far above any configured count (the
/// largest sweep uses 100,000), it turns a hostile `bins` or an append far
/// past the indexed time span into a typed error instead of an allocation
/// that aborts the process.
pub const MAX_BINS: usize = 1 << 22;

/// `n` (`None` when computing it overflowed) if a directory of `n` bins
/// stays within [`MAX_BINS`], [`SearchError::InvalidConfig`] otherwise.
pub fn check_bins(n: Option<usize>) -> Result<usize, SearchError> {
    n.filter(|&n| n <= MAX_BINS).ok_or_else(|| {
        SearchError::InvalidConfig(format!("the bin directory would exceed {MAX_BINS} bins"))
    })
}

/// Temporal index parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemporalIndexConfig {
    /// Number of logical bins `m` the temporal extent is partitioned into.
    pub bins: usize,
}

impl Default for TemporalIndexConfig {
    fn default() -> Self {
        // §V-D: 1,000 bins gives the lowest response time on the large
        // datasets; the Random experiments use 10,000.
        TemporalIndexConfig { bins: 1_000 }
    }
}

/// The temporal bin index over a `t_start`-sorted segment database.
///
/// Bin `j` covers start times `[t_min + j·b, t_min + (j+1)·b)` where
/// `b = (t_max − t_min)/m`. Because entries are assigned by *start* time,
/// an entry can extend past its bin: each bin's *reach* (the latest `t_end`
/// of any entry in it or any earlier bin) is precomputed so that the lower
/// bound of a candidate range can be found with one binary search.
///
/// Under a sliding window the directory stays bounded: appends add bins of
/// the same width past the old extent, and expiry drops the bins it has
/// emptied from the front. The dropped bins are remembered as a count, so
/// local bin `j` is logical bin `first_bin + j` and every boundary is still
/// computed as `t_min + (first_bin + j)·b`, bit for bit as before the drop.
///
/// ```
/// use tdts_geom::{Point3, SegId, Segment, SegmentStore, TrajId};
/// use tdts_index_temporal::{TemporalIndex, TemporalIndexConfig};
///
/// // Ten unit-length segments starting at t = 0, 1, ..., 9.
/// let store: SegmentStore = (0..10)
///     .map(|i| Segment::new(Point3::ZERO, Point3::ZERO, i as f64, i as f64 + 1.0,
///                           SegId(i), TrajId(i)))
///     .collect();
/// let index = TemporalIndex::build(&store, TemporalIndexConfig { bins: 5 }).unwrap();
///
/// // A query over [4.5, 5.5] gets a tight contiguous candidate range.
/// let q = Segment::new(Point3::ZERO, Point3::ZERO, 4.5, 5.5, SegId(0), TrajId(99));
/// let (lo, hi) = index.candidate_range(&q).unwrap();
/// assert!(lo <= 4 && 6 <= hi, "range [{lo}, {hi}) must cover entries 4 and 5");
/// assert!(index.validate(&store).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalIndex {
    /// `bin_start_pos[j]` = position of the first entry whose start time
    /// falls in bin `j` or later; length `m + 1` (last element = n).
    bin_start_pos: Vec<u32>,
    /// `bin_max[j]` = max `t_end` over the entries of bin `j` alone, or
    /// `-inf` while empty: what `reach` is the prefix max of, kept so an
    /// expiry rescans only the bins it cut.
    bin_max: Vec<f64>,
    /// `reach[j]` = max `t_end` over all entries in bins `0..=j` (monotone
    /// non-decreasing), or `-inf` while empty.
    reach: Vec<f64>,
    t_min: f64,
    t_max: f64,
    bin_width: f64,
    entries: usize,
    /// Logical bins dropped from the front of the directory: local bin `j`
    /// starts at `t_min + (first_bin + j)·bin_width`.
    first_bin: usize,
}

impl TemporalIndex {
    /// Build the index. `store` must be sorted by non-decreasing `t_start`
    /// (checked) and non-empty; `1 <= bins <= MAX_BINS`. Violations are reported as
    /// [`SearchError::UnsortedDataset`], [`SearchError::EmptyDataset`], and
    /// [`SearchError::InvalidConfig`] respectively.
    pub fn build(
        store: &SegmentStore,
        config: TemporalIndexConfig,
    ) -> Result<TemporalIndex, SearchError> {
        let stats = store.stats().ok_or(SearchError::EmptyDataset)?;
        TemporalIndex::build_with_stats(store, &stats, config)
    }

    /// [`build`](TemporalIndex::build) with the store's [`StoreStats`]
    /// supplied by the caller, so one stats scan can be shared across every
    /// index built on the same store.
    pub fn build_with_stats(
        store: &SegmentStore,
        stats: &StoreStats,
        config: TemporalIndexConfig,
    ) -> Result<TemporalIndex, SearchError> {
        if config.bins < 1 {
            return Err(SearchError::InvalidConfig("need at least one temporal bin".into()));
        }
        let m = check_bins(Some(config.bins))?;
        if store.is_empty() {
            return Err(SearchError::EmptyDataset);
        }
        if !store.is_sorted_by_t_start() {
            return Err(SearchError::UnsortedDataset);
        }
        let t_min = stats.time_span.start;
        let t_max = stats.time_span.end;
        // Degenerate span: all entries in one bin of nominal width 1.
        let bin_width = if t_max > t_min { (t_max - t_min) / m as f64 } else { 1.0 };

        let segs = store.segments();
        let mut bin_start_pos = Vec::with_capacity(m + 1);
        let mut pos = 0usize;
        for j in 0..m {
            let bin_start = t_min + j as f64 * bin_width;
            // First entry with t_start >= bin_start; entries before `pos`
            // are already assigned, and t_start is sorted.
            while pos < segs.len() && segs[pos].t_start < bin_start {
                pos += 1;
            }
            bin_start_pos.push(pos as u32);
        }
        bin_start_pos[0] = 0; // bin 0 always starts at the first entry
        bin_start_pos.push(segs.len() as u32);

        let bin_max: Vec<f64> = (0..m)
            .map(|j| {
                let (lo, hi) = (bin_start_pos[j] as usize, bin_start_pos[j + 1] as usize);
                segs[lo..hi].iter().fold(f64::NEG_INFINITY, |r, s| r.max(s.t_end))
            })
            .collect();
        let mut index = TemporalIndex {
            bin_start_pos,
            reach: vec![f64::NEG_INFINITY; m],
            bin_max,
            t_min,
            t_max,
            bin_width,
            entries: segs.len(),
            first_bin: 0,
        };
        index.fold_reach(0);
        Ok(index)
    }

    /// Recompute the prefix-max `reach` from bin `j0` on out of the per-bin
    /// maxima (the bins before `j0` are unchanged).
    fn fold_reach(&mut self, j0: usize) {
        let mut current = j0.checked_sub(1).map_or(f64::NEG_INFINITY, |j| self.reach[j]);
        for (r, &bin_max) in self.reach[j0..].iter_mut().zip(&self.bin_max[j0..]) {
            current = current.max(bin_max);
            *r = current;
        }
    }

    /// Number of bins in the directory (the bins expiry has emptied and
    /// dropped from the front are not counted).
    pub fn bins(&self) -> usize {
        self.reach.len()
    }

    /// Start time of logical bin `j`: the one boundary formula, shared by
    /// build, append and search.
    #[inline]
    fn boundary(&self, j: usize) -> f64 {
        self.t_min + j as f64 * self.bin_width
    }

    /// Number of indexed entries.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Temporal extent `[t_min, t_max]` of the database.
    pub fn time_span(&self) -> (f64, f64) {
        (self.t_min, self.t_max)
    }

    /// Every bin's first entry position, then the entry count: bin `j`
    /// spans `bin_starts()[j]..bin_starts()[j + 1]`.
    pub fn bin_starts(&self) -> &[u32] {
        &self.bin_start_pos
    }

    /// Entry position range (half-open) of bin `j`.
    pub fn bin_range(&self, j: usize) -> (u32, u32) {
        (self.bin_start_pos[j], self.bin_start_pos[j + 1])
    }

    /// Bin index containing time `t`, clamped to `[0, m-1]`.
    ///
    /// Consistent with entry placement: entries are assigned to bins by
    /// comparing `t_start` against the boundary values `t_min + j·width`,
    /// and float division can land one bin off for `t` exactly on such a
    /// boundary, so the divided estimate is nudged until the boundary
    /// comparisons themselves hold.
    #[inline]
    pub fn bin_of(&self, t: f64) -> usize {
        self.logical_bin_of(t).saturating_sub(self.first_bin)
    }

    /// [`bin_of`](TemporalIndex::bin_of) over the logical directory,
    /// dropped bins included: a result below `first_bin` is a time before
    /// the first kept bin.
    #[inline]
    fn logical_bin_of(&self, t: f64) -> usize {
        if t <= self.t_min {
            return 0;
        }
        let m = self.first_bin + self.bins();
        let mut j = (((t - self.t_min) / self.bin_width) as usize).min(m - 1);
        while j + 1 < m && t >= self.boundary(j + 1) {
            j += 1;
        }
        while j > 0 && t < self.boundary(j) {
            j -= 1;
        }
        j
    }

    /// The candidate entry range `E_k` (half-open positions) for a query
    /// segment: a superset of all entries that temporally overlap it,
    /// `None` when provably empty.
    ///
    /// Also returns the contiguous bin range `[j_lo, j_hi]` used, which the
    /// spatiotemporal index needs for its subbin lookup.
    pub fn candidate_bins(&self, q: &Segment) -> Option<(usize, usize)> {
        if q.t_end < self.t_min || q.t_start > self.t_max {
            return None;
        }
        // Last bin whose start-time interval begins no later than q.t_end.
        // Before the first kept bin there are only dropped, empty ones.
        let j_hi = self.logical_bin_of(q.t_end).checked_sub(self.first_bin)?;
        // First bin that reaches q.t_start (reach is monotone).
        let j_lo = self.reach.partition_point(|&r| r < q.t_start);
        if j_lo >= self.bins() || j_lo > j_hi {
            return None;
        }
        Some((j_lo, j_hi))
    }

    /// Check structural invariants against the store the index was built
    /// from; returns a description of the first violation.
    pub fn validate(&self, store: &SegmentStore) -> Result<(), String> {
        if store.len() != self.entries {
            return Err(format!(
                "store has {} entries, index was built over {}",
                store.len(),
                self.entries
            ));
        }
        if self.bin_start_pos.len() != self.bins() + 1 {
            return Err("bin_start_pos length mismatch".into());
        }
        if self.bin_start_pos[0] != 0
            || *self.bin_start_pos.last().unwrap() as usize != self.entries
        {
            return Err("bin_start_pos does not span the store".into());
        }
        if self.bin_start_pos.windows(2).any(|w| w[0] > w[1]) {
            return Err("bin_start_pos not monotone".into());
        }
        if self.reach.windows(2).any(|w| w[0] > w[1]) {
            return Err("reach not monotone".into());
        }
        let m = self.bins();
        if self.bin_max.len() != m {
            return Err("bin_max length mismatch".into());
        }
        for j in 0..m {
            let (lo, hi) = self.bin_range(j);
            let bin_max =
                (lo..hi).fold(f64::NEG_INFINITY, |r, p| r.max(store.get(p as usize).t_end));
            if bin_max.to_bits() != self.bin_max[j].to_bits() {
                return Err(format!("bin {j}: max t_end {bin_max}, recorded {}", self.bin_max[j]));
            }
            for pos in lo..hi {
                let s = store.get(pos as usize);
                if s.t_end > self.reach[j] {
                    return Err(format!("entry {pos} exceeds reach of bin {j}"));
                }
                // Logical bin 0 is open below and the last bin above: the
                // bin search clamps times beyond either end into them.
                let logical = self.first_bin + j;
                if (logical > 0 && s.t_start < self.boundary(logical))
                    || (j + 1 < m && s.t_start >= self.boundary(logical + 1))
                {
                    return Err(format!("entry {pos} starts outside bin {j}"));
                }
            }
        }
        Ok(())
    }

    /// Extend the index in place over the tail `store[from..]` appended
    /// since the last build/append — the streaming ingest path. New
    /// segments arrive time-ordered, so bins extend naturally: boundaries
    /// that sat at the old end move into the tail, and bins of the same
    /// fixed width are appended past the old temporal extent as needed.
    ///
    /// Requires the store to remain sorted by `t_start`
    /// ([`SearchError::UnsortedDataset`] otherwise), `from` to equal the
    /// currently indexed entry count, and the grown directory to stay
    /// within [`MAX_BINS`] ([`SearchError::InvalidConfig`]). A refused
    /// append leaves the index as it was.
    ///
    /// The resulting *structure* differs from a cold rebuild (more,
    /// narrower bins), but every candidate range stays a superset of the
    /// true temporal overlaps, so search results are byte-identical.
    pub fn append(&mut self, store: &SegmentStore, from: usize) -> Result<(), SearchError> {
        if from != self.entries {
            return Err(SearchError::InvalidConfig(format!(
                "append tail starts at {from} but the index covers {} entries",
                self.entries
            )));
        }
        let segs = store.segments();
        let tail = &segs[from..];
        if tail.is_empty() {
            return Ok(());
        }
        let mut last = if from > 0 { segs[from - 1].t_start } else { f64::NEG_INFINITY };
        for s in tail {
            if s.t_start < last {
                return Err(SearchError::UnsortedDataset);
            }
            last = s.t_start;
        }

        // An index that expiry emptied can take a tail that starts before
        // `t_min`, below every boundary. No entry is left to stay
        // consistent with, so the directory restarts at the tail, as a
        // build over it would: same bin width, one empty bin to grow from.
        let restart = tail[0].t_start < self.t_min;
        let t_min = if restart { tail[0].t_start } else { self.t_min };

        // The grown directory spans logical bins `first..end`; size it
        // before touching anything (the float-to-int cast saturates).
        let last_t = tail.last().expect("non-empty tail").t_start;
        let need = if last_t <= t_min { 0 } else { ((last_t - t_min) / self.bin_width) as usize };
        let (first, end) = if restart {
            (0, need.saturating_add(1))
        } else {
            let first = self.logical_bin_of(tail[0].t_start).min(self.first_bin);
            (first, (self.first_bin + self.bins()).max(need.saturating_add(1)))
        };
        let new_m = check_bins(Some(end - first))?;
        if restart {
            debug_assert_eq!(self.entries, 0, "a tail before t_min needs an empty index");
            self.bin_start_pos = vec![0, 0];
            self.bin_max = vec![f64::NEG_INFINITY];
            self.reach = vec![f64::NEG_INFINITY];
            (self.t_min, self.t_max, self.first_bin) = (t_min, t_min, 0);
        }

        // Only an empty index can take a tail that starts before its first
        // kept bin: give back the dropped bins down to the tail's.
        if first < self.first_bin {
            let regrow = self.first_bin - first;
            self.bin_start_pos.splice(0..0, std::iter::repeat_n(0, regrow));
            self.bin_max.splice(0..0, std::iter::repeat_n(f64::NEG_INFINITY, regrow));
            self.reach.splice(0..0, std::iter::repeat_n(f64::NEG_INFINITY, regrow));
            self.first_bin = first;
        }

        let m = self.bins();
        let n_old = from;

        // Re-derive every boundary that sat at (or belongs past) the old
        // end by binary search in the sorted tail. Boundaries pointing
        // before the old end are untouched: the tail starts at or after
        // every existing `t_start`, so closed bins stay closed.
        self.bin_start_pos.pop();
        for j in 0..new_m {
            if j < m && (self.bin_start_pos[j] as usize) < n_old {
                continue;
            }
            let bin_start = self.boundary(self.first_bin + j);
            let off = tail.partition_point(|s| s.t_start < bin_start);
            let boundary = (n_old + off) as u32;
            if j < m {
                self.bin_start_pos[j] = boundary;
            } else {
                self.bin_start_pos.push(boundary);
            }
        }
        self.bin_start_pos.push(segs.len() as u32);

        // Fold the tail into the per-bin maxima, extending them for the
        // new bins, and the reach after them. Only bins at or after the
        // first tail entry's bin can have gained entries.
        let j0 = self.bin_of(tail[0].t_start).min(new_m - 1);
        self.bin_max.resize(new_m, f64::NEG_INFINITY);
        self.reach.resize(new_m, f64::NEG_INFINITY);
        for j in j0..new_m {
            let lo = (self.bin_start_pos[j] as usize).max(n_old);
            let hi = self.bin_start_pos[j + 1] as usize;
            let bin_max = &mut self.bin_max[j];
            *bin_max = segs[lo..hi].iter().fold(*bin_max, |r, s| r.max(s.t_end));
        }
        self.fold_reach(j0);

        for s in tail {
            self.t_max = self.t_max.max(s.t_end);
        }
        self.entries = segs.len();
        Ok(())
    }

    /// Remove expired entries from the index in place: `store` is the
    /// post-expire store and `delta` the removal description from
    /// [`SegmentStore::expire_before`]. Each bin boundary `b` moves to
    /// `delta.rank(b)` (entries never change bins — relative order is
    /// preserved). Only the bins that start inside the cut's prefix lost
    /// or moved entries, so only they rescan theirs for a new maximum; the
    /// reach prefix-max is refolded from the per-bin maxima (a removed long
    /// entry can shrink it). The bins left empty at the front are dropped,
    /// the last bin always kept. A dropped bin has reach `-inf` and starts
    /// before every survivor, so no candidate range changes: a query that
    /// ends before the first kept bin finds nothing, as it would have in
    /// the dropped ones.
    pub fn expire(&mut self, store: &SegmentStore, delta: &ExpireDelta) -> Result<(), SearchError> {
        if delta.old_len != self.entries {
            return Err(SearchError::InvalidConfig(format!(
                "expire delta describes {} entries but the index covers {}",
                delta.old_len, self.entries
            )));
        }
        let m = self.bins();
        let cut = self.bin_start_pos[..m].partition_point(|&b| (b as usize) < delta.prefix());
        for b in &mut self.bin_start_pos {
            *b = delta.rank(*b as usize) as u32;
        }
        self.entries = store.len();
        let segs = store.segments();
        for j in 0..cut {
            let (lo, hi) = self.bin_range(j);
            self.bin_max[j] = segs[lo as usize..hi as usize]
                .iter()
                .fold(f64::NEG_INFINITY, |r, s| r.max(s.t_end));
        }
        self.fold_reach(0);
        // Bin `j` is empty, as are all before it, iff bin `j + 1` starts at
        // 0; the slice stops short of the last bin's end.
        let emptied = self.bin_start_pos[1..m].partition_point(|&p| p == 0);
        self.bin_start_pos.drain(..emptied);
        self.bin_max.drain(..emptied);
        self.reach.drain(..emptied);
        self.first_bin += emptied;
        Ok(())
    }

    /// The candidate entry position range `E_k` (half-open) for a query.
    pub fn candidate_range(&self, q: &Segment) -> Option<(u32, u32)> {
        let (j_lo, j_hi) = self.candidate_bins(q)?;
        let lo = self.bin_start_pos[j_lo];
        let hi = self.bin_start_pos[j_hi + 1];
        if lo < hi {
            Some((lo, hi))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdts_geom::{Point3, SegId, TrajId};

    fn seg(t0: f64, t1: f64) -> Segment {
        Segment::new(Point3::ZERO, Point3::ZERO, t0, t1, SegId(0), TrajId(0))
    }

    fn store(times: &[(f64, f64)]) -> SegmentStore {
        times.iter().map(|&(a, b)| seg(a, b)).collect()
    }

    #[test]
    fn build_and_bin_ranges() {
        // 10 unit segments starting at t = 0..9, 5 bins of width 2.
        let s = store(&(0..10).map(|i| (i as f64, i as f64 + 1.0)).collect::<Vec<_>>());
        let idx = TemporalIndex::build(&s, TemporalIndexConfig { bins: 5 }).unwrap();
        assert_eq!(idx.bins(), 5);
        assert_eq!(idx.entries(), 10);
        assert_eq!(idx.time_span(), (0.0, 10.0));
        assert_eq!(idx.bin_range(0), (0, 2));
        assert_eq!(idx.bin_range(4), (8, 10));
    }

    #[test]
    fn candidate_range_is_superset_of_overlaps() {
        let s =
            store(&(0..100).map(|i| (i as f64 * 0.5, i as f64 * 0.5 + 1.0)).collect::<Vec<_>>());
        let idx = TemporalIndex::build(&s, TemporalIndexConfig { bins: 16 }).unwrap();
        for qi in 0..40 {
            let q = seg(qi as f64, qi as f64 + 2.0);
            let (lo, hi) = idx.candidate_range(&q).expect("queries overlap the span");
            for (pos, e) in s.iter().enumerate() {
                let overlaps = e.t_start <= q.t_end && e.t_end >= q.t_start;
                if overlaps {
                    assert!(
                        (lo as usize..hi as usize).contains(&pos),
                        "entry {pos} ({},{}) missed for query [{},{}] range [{lo},{hi})",
                        e.t_start,
                        e.t_end,
                        q.t_start,
                        q.t_end
                    );
                }
            }
        }
    }

    #[test]
    fn disjoint_queries_yield_none() {
        let s = store(&[(0.0, 1.0), (1.0, 2.0)]);
        let idx = TemporalIndex::build(&s, TemporalIndexConfig { bins: 4 }).unwrap();
        assert_eq!(idx.candidate_range(&seg(5.0, 6.0)), None);
        assert_eq!(idx.candidate_range(&seg(-3.0, -2.0)), None);
        // Touching is not disjoint.
        assert!(idx.candidate_range(&seg(2.0, 3.0)).is_some());
    }

    #[test]
    fn long_entries_extend_bin_reach() {
        // One early entry spans the whole time axis; it must appear in the
        // candidate range of a late query.
        let s = store(&[(0.0, 100.0), (1.0, 2.0), (50.0, 51.0), (98.0, 99.0)]);
        let idx = TemporalIndex::build(&s, TemporalIndexConfig { bins: 10 }).unwrap();
        let (lo, hi) = idx.candidate_range(&seg(97.0, 98.5)).unwrap();
        assert_eq!(lo, 0, "long first entry must be included");
        assert_eq!(hi, 4);
    }

    #[test]
    fn single_bin_and_degenerate_span() {
        let s = store(&[(1.0, 1.0), (1.0, 1.0)]);
        let idx = TemporalIndex::build(&s, TemporalIndexConfig { bins: 3 }).unwrap();
        assert_eq!(idx.candidate_range(&seg(1.0, 1.0)), Some((0, 2)));
        assert_eq!(idx.candidate_range(&seg(2.0, 3.0)), None);
    }

    #[test]
    fn more_bins_tighter_ranges() {
        let times: Vec<(f64, f64)> =
            (0..1000).map(|i| (i as f64 * 0.1, i as f64 * 0.1 + 1.0)).collect();
        let s = store(&times);
        let coarse = TemporalIndex::build(&s, TemporalIndexConfig { bins: 4 }).unwrap();
        let fine = TemporalIndex::build(&s, TemporalIndexConfig { bins: 256 }).unwrap();
        let q = seg(50.0, 51.0);
        let (cl, ch) = coarse.candidate_range(&q).unwrap();
        let (fl, fh) = fine.candidate_range(&q).unwrap();
        assert!((fh - fl) < (ch - cl), "fine {fl}..{fh} vs coarse {cl}..{ch}");
    }

    #[test]
    fn validate_accepts_own_store_and_rejects_others() {
        let s = store(&(0..50).map(|i| (i as f64 * 0.3, i as f64 * 0.3 + 1.0)).collect::<Vec<_>>());
        let idx = TemporalIndex::build(&s, TemporalIndexConfig { bins: 7 }).unwrap();
        assert!(idx.validate(&s).is_ok());
        let other = store(&[(0.0, 1.0)]);
        assert!(idx.validate(&other).is_err());
    }

    #[test]
    fn unsorted_store_rejected() {
        let s = store(&[(5.0, 6.0), (0.0, 1.0)]);
        let err = TemporalIndex::build(&s, TemporalIndexConfig { bins: 2 }).unwrap_err();
        assert_eq!(err, SearchError::UnsortedDataset);
    }

    #[test]
    fn empty_store_rejected() {
        let err = TemporalIndex::build(&SegmentStore::new(), TemporalIndexConfig { bins: 2 })
            .unwrap_err();
        assert_eq!(err, SearchError::EmptyDataset);
    }

    #[test]
    fn zero_bins_rejected() {
        let s = store(&[(0.0, 1.0)]);
        let err = TemporalIndex::build(&s, TemporalIndexConfig { bins: 0 }).unwrap_err();
        assert!(matches!(err, SearchError::InvalidConfig(_)));
    }

    #[test]
    fn oversized_directory_rejected() {
        let s = store(&[(0.0, 1.0)]);
        for bins in [MAX_BINS + 1, usize::MAX] {
            let err = TemporalIndex::build(&s, TemporalIndexConfig { bins }).unwrap_err();
            assert!(matches!(err, SearchError::InvalidConfig(_)), "{bins}: {err}");
        }
    }

    /// One valid segment far past the indexed span would grow the
    /// directory past `MAX_BINS`: the append is refused and changes nothing.
    #[test]
    fn far_future_append_rejected_without_mutating() {
        let mut s = store(&(0..10).map(|i| (i as f64, i as f64 + 2.0)).collect::<Vec<_>>());
        let mut idx = TemporalIndex::build(&s, TemporalIndexConfig { bins: 10 }).unwrap();
        assert_eq!(idx.time_span(), (0.0, 11.0));
        let before = idx.clone();
        let delta = s.append(&[seg(1e12, 1e12 + 1.0)]);
        let err = idx.append(&s, delta.from).unwrap_err();
        assert!(matches!(err, SearchError::InvalidConfig(_)), "{err}");
        assert_eq!(idx, before);
    }

    fn assert_superset(idx: &TemporalIndex, s: &SegmentStore, q: &Segment) {
        let range = idx.candidate_range(q);
        for (pos, e) in s.iter().enumerate() {
            let overlaps = e.t_start <= q.t_end && e.t_end >= q.t_start;
            if overlaps {
                let (lo, hi) = range.expect("overlapping entry demands a range");
                assert!(
                    (lo as usize..hi as usize).contains(&pos),
                    "entry {pos} missed for query [{}, {}]",
                    q.t_start,
                    q.t_end
                );
            }
        }
    }

    #[test]
    fn append_extends_bins_and_stays_a_superset() {
        let base: Vec<(f64, f64)> =
            (0..40).map(|i| (i as f64 * 0.5, i as f64 * 0.5 + 1.3)).collect();
        let mut s = store(&base);
        let mut idx = TemporalIndex::build(&s, TemporalIndexConfig { bins: 8 }).unwrap();
        // Three ticks of time-ordered arrivals, far past the built extent.
        for tick in 0..3 {
            let tail: Vec<Segment> = (0..15)
                .map(|i| {
                    let t = 20.0 + tick as f64 * 9.0 + i as f64 * 0.6;
                    seg(t, t + 1.1)
                })
                .collect();
            let delta = s.append(&tail);
            idx.append(&s, delta.from).unwrap();
            assert!(idx.validate(&s).is_ok(), "tick {tick}");
        }
        assert!(idx.bins() > 8, "bins must have been appended");
        for qi in 0..50 {
            assert_superset(&idx, &s, &seg(qi as f64, qi as f64 + 2.0));
        }
    }

    #[test]
    fn append_into_existing_last_bin() {
        let mut s = store(&[(0.0, 1.0), (4.0, 5.0)]);
        let mut idx = TemporalIndex::build(&s, TemporalIndexConfig { bins: 4 }).unwrap();
        // t = 4.5 lands inside the existing last bin.
        let delta = s.append(&[seg(4.5, 6.0)]);
        idx.append(&s, delta.from).unwrap();
        assert!(idx.validate(&s).is_ok());
        assert_superset(&idx, &s, &seg(5.5, 5.9));
    }

    #[test]
    fn append_out_of_order_rejected() {
        let mut s = store(&[(0.0, 1.0), (4.0, 5.0)]);
        let mut idx = TemporalIndex::build(&s, TemporalIndexConfig { bins: 2 }).unwrap();
        let delta = s.append(&[seg(1.0, 2.0)]); // before the previous last t_start
        assert_eq!(idx.append(&s, delta.from), Err(SearchError::UnsortedDataset));
        // A mismatched tail offset is rejected too.
        assert!(matches!(idx.append(&s, 99), Err(SearchError::InvalidConfig(_))));
    }

    #[test]
    fn expire_remaps_boundaries_and_recomputes_reach() {
        let times: Vec<(f64, f64)> =
            (0..30).map(|i| (i as f64, i as f64 + if i == 0 { 50.0 } else { 1.5 })).collect();
        let mut s = store(&times);
        let mut idx = TemporalIndex::build(&s, TemporalIndexConfig { bins: 6 }).unwrap();
        // Entry 0 reaches t = 50; expiring it must shrink every bin's reach.
        let delta = s.expire_before(20.0);
        assert!(delta.removed.contains(&1), "short early entries expire");
        assert!(!delta.removed.contains(&0), "the long entry survives");
        idx.expire(&s, &delta).unwrap();
        assert!(idx.validate(&s).is_ok());
        for qi in 0..35 {
            assert_superset(&idx, &s, &seg(qi as f64, qi as f64 + 1.0));
        }
        // And interleaving with a subsequent append keeps invariants.
        let delta = s.append(&[seg(40.0, 41.0), seg(41.0, 42.5)]);
        idx.append(&s, delta.from).unwrap();
        assert!(idx.validate(&s).is_ok());
        assert_superset(&idx, &s, &seg(41.5, 41.9));
    }

    #[test]
    fn expire_drops_drained_front_bins_and_keeps_every_range() {
        // Twenty unit segments starting at t = 0..19; ten bins of width 2.
        let mut s = store(&(0..20).map(|i| (i as f64, i as f64 + 1.0)).collect::<Vec<_>>());
        let mut idx = TemporalIndex::build(&s, TemporalIndexConfig { bins: 10 }).unwrap();
        // Entries 0..=6 end before 8: bins 0–2 drain, bin 3 keeps entry 7.
        let delta = s.expire_before(8.0);
        assert_eq!(delta.removed, (0..7).collect::<Vec<u32>>());
        idx.expire(&s, &delta).unwrap();
        assert!(idx.validate(&s).is_ok());
        assert_eq!(idx.bins(), 7, "the three drained bins are dropped");
        assert_eq!(idx.bin_range(0), (0, 1), "bin 3 (entry 7) is the first kept bin");
        assert_eq!(idx.time_span(), (0.0, 20.0));
        // Every range is the one the untrimmed directory gives: bins
        // `bin_of(t_end)` back to the first bin reaching `t_start`, in
        // post-expiry positions (old entry `i` is now `i - 7`).
        let pinned = [
            ((8.5, 9.5), Some((1, 3))),     // bin 4
            ((0.0, 7.2), Some((0, 1))),     // bin 3
            ((6.0, 6.0), Some((0, 1))),     // on bin 3's start
            ((3.0, 12.5), Some((0, 7))),    // bins 3–6
            ((19.5, 25.0), Some((11, 13))), // bin 9
            ((0.0, 5.0), None),             // ends before the first kept bin
            ((1.0, 2.0), None),
            ((5.9, 5.99), None),
            ((-5.0, -1.0), None), // before `t_min`
            ((30.0, 31.0), None), // after `t_max`
        ];
        for ((t0, t1), want) in pinned {
            assert_eq!(idx.candidate_range(&seg(t0, t1)), want, "query [{t0}, {t1}]");
            assert_superset(&idx, &s, &seg(t0, t1));
        }
    }

    #[test]
    fn a_drained_index_keeps_one_bin_and_regrows_for_an_earlier_tail() {
        let mut s = store(&(0..20).map(|i| (i as f64, i as f64 + 1.0)).collect::<Vec<_>>());
        let mut idx = TemporalIndex::build(&s, TemporalIndexConfig { bins: 10 }).unwrap();
        let delta = s.expire_before(100.0);
        idx.expire(&s, &delta).unwrap();
        assert!(idx.validate(&s).is_ok());
        assert_eq!((idx.bins(), idx.entries()), (1, 0), "the last bin is kept");
        assert_eq!(idx.candidate_range(&seg(18.0, 19.0)), None);
        // The tail starts at t = 10, eight bins before the kept one.
        let delta =
            s.append(&(0..6).map(|i| seg(10.0 + i as f64, 11.5 + i as f64)).collect::<Vec<_>>());
        idx.append(&s, delta.from).unwrap();
        assert!(idx.validate(&s).is_ok());
        assert_eq!(idx.bins(), 5, "bins 5–9 from the tail's bin on");
        for qi in 0..25 {
            assert_superset(&idx, &s, &seg(qi as f64 * 0.9, qi as f64 * 0.9 + 0.7));
        }
        assert_eq!(idx.candidate_range(&seg(8.0, 9.5)), None);
    }

    /// A drained index can take a tail that starts before the build's
    /// `t_min`: it used to place those entries before bin 0, outside every
    /// candidate range, and to refuse queries that end before `t_min`.
    #[test]
    fn a_drained_index_restarts_for_a_tail_before_t_min() {
        let mut s = store(&(0..20).map(|i| (i as f64, i as f64 + 1.0)).collect::<Vec<_>>());
        let mut idx = TemporalIndex::build(&s, TemporalIndexConfig { bins: 10 }).unwrap();
        let delta = s.expire_before(100.0);
        idx.expire(&s, &delta).unwrap();
        let delta = s.append(&[seg(-50.0, 3.0), seg(-50.0, -50.0), seg(-7.0, -6.0)]);
        idx.append(&s, delta.from).unwrap();
        assert!(idx.validate(&s).is_ok());
        assert_eq!(idx.time_span().0, -50.0);
        for qi in 0..40 {
            assert_superset(&idx, &s, &seg(qi as f64 * 1.5 - 55.0, qi as f64 * 1.5 - 54.0));
        }
    }
}
