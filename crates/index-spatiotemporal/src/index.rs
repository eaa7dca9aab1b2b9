//! The spatiotemporal (bins × subbins) index.

use std::sync::Arc;
use tdts_geom::{ExpireDelta, FrontVec, Segment, SegmentStore, StoreStats};
use tdts_gpu_sim::{Device, DeviceBuffer, Reserved, SearchError};
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
/// (into the selected dimension's run for `subbin`, or directly into the
/// entry database for the temporal fallback). Encoded in 4 integers on the
/// device, exactly the paper's fixed-size, alignment-preserving encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleEntry {
    pub selector: Selector,
    pub lo: u32,
    pub hi: u32,
    /// The subbin whose run a [`Selector::Dim`] entry reads (0 otherwise).
    pub subbin: u32,
}

impl ScheduleEntry {
    /// An entry that scans nothing.
    pub const EMPTY: ScheduleEntry =
        ScheduleEntry { selector: Selector::Empty, lo: 0, hi: 0, subbin: 0 };

    /// Number of candidates this entry scans.
    pub fn len(&self) -> u32 {
        self.hi - self.lo
    }

    /// True if nothing will be scanned.
    pub fn is_empty(&self) -> bool {
        self.hi == self.lo
    }

    /// Device encoding: `[selector, lo, hi, subbin]` with selectors 0–2 =
    /// X/Y/Z, 3 = temporal fallback, 4 = empty.
    pub fn encode(&self) -> [u32; 4] {
        let sel = match self.selector {
            Selector::Dim(d) => d as u32,
            Selector::Temporal => 3,
            Selector::Empty => 4,
        };
        [sel, self.lo, self.hi, self.subbin]
    }
}

/// One `(dimension, subbin)` run of the paper's `X`/`Y`/`Z` id arrays: the
/// stable slots of the entries whose extent in that dimension overlaps the
/// subbin, temporal bin by temporal bin, in position order within a bin.
/// The run is therefore sorted by position, so an append only extends its
/// tail and a cut only rewrites its head.
///
/// Offsets into the run are kept as counters of ids ever pushed (wrapping
/// `u32`); `head` counts the ids ever cut from the front, so a counter `c`
/// is offset `c - head`, and a cut that pops the head changes no counter
/// past it.
///
/// `R` holds the slots: a host vector as built, a [`DeviceBuffer`] once
/// placed — the one copy a search reads, cuts and extends in place.
#[derive(Debug)]
pub struct Run<R = Vec<u32>> {
    ids: R,
    /// `bounds[i]` = ids pushed before temporal bin `i`, for `i` in
    /// `0..=m` (the last is the run's end).
    bounds: FrontVec<u32>,
    head: u32,
}

impl<R: AsRef<[u32]>> Run<R> {
    /// The run's slots, oldest first.
    pub fn ids(&self) -> &R {
        &self.ids
    }

    /// Offset of temporal bin `i`'s first id (`i == m`: the run's length).
    fn offset(&self, i: usize) -> u32 {
        self.bounds[i].wrapping_sub(self.head)
    }

    /// The counter `offset` ids past the head.
    fn counter(&self, offset: usize) -> u32 {
        self.head.wrapping_add(offset as u32)
    }
}

/// An append checked against the index and ready to apply: the grown
/// temporal directory and, per run, the slots it gains.
#[derive(Debug)]
pub struct Append {
    temporal: TemporalIndex,
    from: usize,
    /// Per run, the slots to push, in position order.
    tails: Vec<Vec<u32>>,
}

impl Append {
    /// Ids the append adds over all runs.
    pub fn ids(&self) -> usize {
        self.tails.iter().map(Vec::len).sum()
    }
}

/// The spatiotemporal index: a [`TemporalIndex`] plus one run of stable
/// slots per `(dimension, subbin)`.
///
/// An entry's *slot* is its store position plus `origin`, the rows ever
/// cut from the store (wrapping `u32`). A cut that leaves an entry's
/// position shifted by exactly the rows it removed leaves its slot as it
/// was; that is every entry past the cut's prefix. So a window advance
/// re-keys only the surviving entries inside the prefix (long segments that
/// started before removed ones), and the runs hold slots that mostly never
/// change. A search maps slot to position (`slot - origin`) per candidate.
///
/// [`build`](SpatioTemporalIndex::build) keeps the runs in host vectors;
/// [`place`](SpatioTemporalIndex::place) moves them into device memory,
/// where a search streams them in place.
#[derive(Debug)]
pub struct SpatioTemporalIndex<R = Vec<u32>> {
    temporal: TemporalIndex,
    /// Effective subbin count (requested `v` capped by the extent
    /// constraint).
    v: usize,
    /// Per-dimension minimum coordinate of the database volume.
    lo: [f64; 3],
    /// Per-dimension subbin width.
    width: [f64; 3],
    /// Slot of store position 0.
    origin: u32,
    /// Run `d * v + j` for dimension `d`, subbin `j`.
    runs: Vec<Run<R>>,
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

        // One run per (dimension, subbin): its entries in (bin, position)
        // order, each bin's ids ending at `bounds[i + 1]`. Each entry is
        // pushed straight into the subbins `stored_subbins` gives it.
        check_bins(v.checked_mul(m))?;
        let segs = store.segments();
        let mut runs = Vec::with_capacity(3 * v);
        for d in 0..3 {
            let mut ids: Vec<Vec<u32>> = vec![Vec::new(); v];
            let mut bounds: Vec<Vec<u32>> = vec![vec![0]; v];
            for i in 0..m {
                let (b_lo, b_hi) = temporal.bin_range(i);
                for pos in b_lo..b_hi {
                    let s = &segs[pos as usize];
                    let (first, last) =
                        stored_subbins(s.min_coord(d), s.max_coord(d), lo[d], width[d], v);
                    for run in &mut ids[first..=last] {
                        run.push(pos);
                    }
                }
                for (run, bounds) in ids.iter().zip(&mut bounds) {
                    bounds.push(run.len() as u32);
                }
            }
            for (ids, bounds) in ids.into_iter().zip(bounds) {
                runs.push(Run { ids, bounds: bounds.into(), head: 0 });
            }
        }

        Ok(SpatioTemporalIndex { temporal, v, lo, width, origin: 0, runs })
    }

    /// Move the runs into `device` memory (offline), one buffer per run.
    pub fn place(
        self,
        device: &Arc<Device>,
    ) -> Result<SpatioTemporalIndex<DeviceBuffer<u32>>, SearchError> {
        let place = |run: Run| -> Result<_, SearchError> {
            let Run { ids, bounds, head } = run;
            Ok(Run { ids: device.alloc_from_host(ids)?, bounds, head })
        };
        let runs = self.runs.into_iter().map(place).collect::<Result<_, _>>()?;
        let SpatioTemporalIndex { temporal, v, lo, width, origin, .. } = self;
        Ok(SpatioTemporalIndex { temporal, v, lo, width, origin, runs })
    }
}

impl<R: AsRef<[u32]>> SpatioTemporalIndex<R> {
    /// The underlying temporal index.
    pub fn temporal(&self) -> &TemporalIndex {
        &self.temporal
    }

    /// Run `d * v + j` for dimension `d`, subbin `j` (`v` =
    /// [`effective_subbins`](Self::effective_subbins)).
    pub fn runs(&self) -> &[Run<R>] {
        &self.runs
    }

    /// Slot of store position 0: subtract it from a run's id to get the
    /// entry's position.
    pub fn origin(&self) -> u32 {
        self.origin
    }

    /// Effective subbins per dimension (after the extent-constraint cap).
    pub fn effective_subbins(&self) -> usize {
        self.v
    }

    /// Subbin index range `(s_lo, s_hi)` (inclusive, clamped) overlapped by
    /// `[lo, hi]` in dimension `d`.
    fn subbin_span(&self, d: usize, lo: f64, hi: f64) -> (usize, usize) {
        let to_idx = |x| subbin_of(x, self.lo[d], self.width[d], self.v);
        (to_idx(lo), to_idx(hi))
    }

    /// Compute the schedule entry for one query at distance `d`
    /// (host side, §IV-C2).
    pub fn schedule_for(&self, q: &Segment, d: f64) -> ScheduleEntry {
        let Some((i_lo, i_hi)) = self.temporal.candidate_bins(q) else {
            return ScheduleEntry::EMPTY;
        };

        // Per dimension: usable iff the inflated query interval stays within
        // one subbin; among usable dimensions pick the fewest candidates.
        let mut best: Option<(u32, ScheduleEntry)> = None;
        for dim in 0..3usize {
            let q_lo = q.min_coord(dim) - d;
            let q_hi = q.max_coord(dim) + d;
            let (s_lo, s_hi) = self.subbin_span(dim, q_lo, q_hi);
            if s_lo != s_hi {
                continue; // spans multiple subbins in this dimension
            }
            let run = &self.runs[dim * self.v + s_lo];
            let first = run.offset(i_lo);
            let last = run.offset(i_hi + 1);
            let count = last.saturating_sub(first);
            if best.is_none_or(|(c, _)| count < c) {
                let selector = Selector::Dim(dim as u8);
                let entry =
                    ScheduleEntry { selector, lo: first, hi: last.max(first), subbin: s_lo as u32 };
                best = Some((count, entry));
            }
        }

        match best {
            Some((_, entry)) => entry,
            None => {
                // Fallback to the temporal scheme: contiguous entry range.
                match self.temporal.candidate_range(q) {
                    Some((lo, hi)) => {
                        ScheduleEntry { selector: Selector::Temporal, lo, hi, subbin: 0 }
                    }
                    None => ScheduleEntry::EMPTY,
                }
            }
        }
    }

    /// The entry positions a schedule entry scans, in scan order.
    pub fn candidates(&self, entry: &ScheduleEntry) -> Vec<u32> {
        match entry.selector {
            Selector::Dim(d) => {
                let run = &self.runs[d as usize * self.v + entry.subbin as usize];
                let ids = &run.ids.as_ref()[entry.lo as usize..entry.hi as usize];
                ids.iter().map(|id| id.wrapping_sub(self.origin)).collect()
            }
            Selector::Temporal => (entry.lo..entry.hi).collect(),
            Selector::Empty => Vec::new(),
        }
    }

    /// Check structural invariants against the store the index was built
    /// from; returns a description of the first violation.
    pub fn validate(&self, store: &SegmentStore) -> Result<(), String> {
        self.temporal.validate(store)?;
        let m = self.temporal.bins();
        let starts = self.temporal.bin_starts();
        if self.runs.len() != 3 * self.v {
            return Err(format!("expected {} runs, found {}", 3 * self.v, self.runs.len()));
        }
        let mut count = vec![[0u32; 3]; store.len()];
        for (r, run) in self.runs.iter().enumerate() {
            // Bin bounds tile the run in order, from its head to its end.
            if run.bounds.len() != m + 1 {
                return Err(format!("run {r}: {} bounds for {m} bins", run.bounds.len()));
            }
            let offsets: Vec<usize> = (0..=m).map(|i| run.offset(i) as usize).collect();
            if offsets[0] != 0 || offsets[m] != run.ids.as_ref().len() {
                return Err(format!("run {r}: bounds do not span the run"));
            }
            if offsets.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("run {r}: bounds not monotone"));
            }
            // Every id is a live slot, in its bin, in position order.
            for i in 0..m {
                let mut prev = None;
                for &id in &run.ids.as_ref()[offsets[i]..offsets[i + 1]] {
                    let pos = id.wrapping_sub(self.origin);
                    if pos < starts[i] || pos >= starts[i + 1] {
                        return Err(format!("run {r}: slot {id} (entry {pos}) outside bin {i}"));
                    }
                    if prev.is_some_and(|p| p >= pos) {
                        return Err(format!("run {r}: entry {pos} out of position order"));
                    }
                    prev = Some(pos);
                    count[pos as usize][r / self.v] += 1;
                }
            }
        }
        // Every entry appears in at least one subbin per dimension; the
        // width constraint bounds overlap at two subbins, and exact
        // boundary alignment can touch a third (closed intervals).
        for (pos, per_dim) in count.iter().enumerate() {
            for (d, &c) in per_dim.iter().enumerate() {
                if c == 0 {
                    return Err(format!("dim {d}: entry {pos} missing from every run"));
                }
                if c > 3 {
                    return Err(format!("dim {d}: entry {pos} appears {c} times"));
                }
            }
        }
        Ok(())
    }

    /// Extra index memory relative to `GPUTemporal`, in bytes — the paper
    /// states `>= 3|D| * 4` bytes for the three id arrays, plus a `(lo, hi)`
    /// pair per `(dimension, subbin, bin)`.
    pub fn extra_bytes(&self) -> usize {
        self.runs.iter().map(|r| r.ids.as_ref().len() * 4).sum::<usize>()
            + 3 * self.v * self.temporal.bins() * 8
    }
}

/// The subbin of coordinate `x` in a dimension whose `v` subbins start at
/// `lo` and are `width` wide, clamped to `0..v` (the float-to-int cast
/// saturates, so any finite or infinite quotient lands in range).
fn subbin_of(x: f64, lo: f64, width: f64, v: usize) -> usize {
    let i = ((x - lo) / width).floor();
    (i.max(0.0) as usize).min(v - 1)
}

/// The subbins an entry spanning `[min, max]` is stored in, in a dimension
/// whose `v` subbins start at `lo` and are `width` wide: every subbin whose
/// closed interval `[lo + j·width, lo + (j+1)·width]` it overlaps (so a
/// segment on a boundary appears in both neighbours), widened to its
/// clamped span ([`subbin_of`]), which is where a query looks it up. The
/// two differ only where `lo + j·width` rounds away from the quotient the
/// span takes, as at an extent that absorbs the smaller coordinates.
fn stored_subbins(min: f64, max: f64, lo: f64, width: f64, v: usize) -> (usize, usize) {
    let sub_lo = |j: usize| lo + j as f64 * width;
    let (span_lo, span_hi) = (subbin_of(min, lo, width, v), subbin_of(max, lo, width, v));
    // Both interval ends grow with `j`, so the overlapped subbins run from
    // the first whose interval ends at or after `min` to the last whose
    // interval starts at or before `max`; walk there from the span.
    let mut first = span_lo;
    while first > 0 && sub_lo(first - 1) + width >= min {
        first -= 1;
    }
    while first < v && sub_lo(first) + width < min {
        first += 1;
    }
    let mut last = span_hi;
    while last + 1 < v && sub_lo(last + 1) <= max {
        last += 1;
    }
    while last > 0 && sub_lo(last) > max {
        last -= 1;
    }
    if first > last || sub_lo(last) > max {
        (span_lo, span_hi)
    } else {
        (first.min(span_lo), last.max(span_hi))
    }
}

/// The streaming side: a placed index grows and cuts its runs in device
/// memory, in place.
impl SpatioTemporalIndex<DeviceBuffer<u32>> {
    /// Check an append of store entries `from..` (time-ordered) against the
    /// index without changing it: the grown temporal directory, and each
    /// tail entry's slot for every run its clamped subbin span covers — the
    /// same clamp [`schedule_for`](Self::schedule_for) applies to query
    /// intervals, so an entry overlapping a query's inflated interval
    /// always shares its subbin, even for entries outside the build-time
    /// volume. Apply it with [`apply_append`](Self::apply_append).
    pub fn prepare_append(&self, store: &SegmentStore, from: usize) -> Result<Append, SearchError> {
        let mut temporal = self.temporal.clone();
        temporal.append(store, from)?;
        check_bins(self.v.checked_mul(temporal.bins()))?;
        let mut tails = vec![Vec::new(); self.runs.len()];
        for (k, s) in store.segments()[from..].iter().enumerate() {
            let slot = ((from + k) as u32).wrapping_add(self.origin);
            for d in 0..3 {
                let (s_lo, s_hi) = self.subbin_span(d, s.min_coord(d), s.max_coord(d));
                for tail in &mut tails[d * self.v + s_lo..=d * self.v + s_hi] {
                    tail.push(slot);
                }
            }
        }
        Ok(Append { temporal, from, tails })
    }

    /// Apply a [`prepare_append`](Self::prepare_append)ed append, with the
    /// device bytes of [`Append::ids`] ids taken from `reserved`, so it
    /// cannot fail: every run's tail grows, and only the bin bounds from
    /// the first bin that starts at or after the old end move; the
    /// directory's new bins get theirs.
    pub fn apply_append(&mut self, append: Append, reserved: &mut Reserved) {
        let Append { temporal, from, tails } = append;
        let starts = temporal.bin_starts();
        let first = starts.partition_point(|&b| (b as usize) < from);
        let origin = self.origin;
        for (run, tail) in self.runs.iter_mut().zip(&tails) {
            let end = run.counter(run.ids.len());
            run.bounds.truncate(first);
            let mut k = 0;
            for &start in &starts[first..] {
                while k < tail.len() && tail[k].wrapping_sub(origin) < start {
                    k += 1;
                }
                run.bounds.push(end.wrapping_add(k as u32));
            }
            run.ids.extend(tail, reserved);
        }
        self.temporal = temporal;
    }

    /// Drop the expired entries in place. Each run loses the ids of the
    /// entries `delta` removed, all at its head, and re-keys the survivors
    /// among them (the cut moved their positions); every other id keeps
    /// its slot. Only the temporal bins that start inside the cut's prefix
    /// get new bounds, and the bins the temporal directory drops from its
    /// front (every entry in them expired) lose theirs. A cut only frees
    /// device memory. The subbin geometry is unchanged.
    pub fn expire(&mut self, store: &SegmentStore, delta: &ExpireDelta) -> Result<(), SearchError> {
        let m = self.temporal.bins();
        let cut_bins =
            self.temporal.bin_starts()[..m].partition_point(|&b| (b as usize) < delta.prefix());
        self.temporal.expire(store, delta)?;
        let dropped_bins = m - self.temporal.bins();
        let (old, origin) = (self.origin, self.origin.wrapping_add(delta.removed.len() as u32));
        let rekey = |slot: u32| {
            let p = delta.remap(slot.wrapping_sub(old) as usize)?;
            Some((p as u32).wrapping_add(origin))
        };
        let starts = self.temporal.bin_starts();
        let prefix = delta.prefix() as u32;
        for run in &mut self.runs {
            // Host-side maintenance between searches, not a kernel read:
            // lint: allow(uncharged-column-read)
            let ids = run.ids.as_slice();
            let n = ids.iter().take_while(|&&id| id.wrapping_sub(old) < prefix).count();
            let dropped = run.ids.cut_front(n, |_, &slot| rekey(slot));
            run.head = run.head.wrapping_add(dropped as u32);
            // The survivors of the cut head, by new position (host-side):
            // lint: allow(uncharged-column-read)
            let kept = &run.ids.as_slice()[..n - dropped];
            let mut k = 0;
            for i in dropped_bins.min(cut_bins)..cut_bins {
                let start = starts[i - dropped_bins];
                while k < kept.len() && kept[k].wrapping_sub(origin) < start {
                    k += 1;
                }
                run.bounds.as_mut_slice()[i] = run.counter(k);
            }
            run.bounds.cut_front(dropped_bins, |_, _| None);
        }
        self.origin = origin;
        Ok(())
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
        let v = idx.effective_subbins();
        for d in 0..3 {
            let mut seen = vec![false; s.len()];
            let runs = &idx.runs()[d * v..(d + 1) * v];
            for &pos in runs.iter().flat_map(|run| run.ids()) {
                seen[pos as usize] = true;
            }
            assert!(seen.iter().all(|&x| x), "dim {d} missing entries");
            // At most doubled (entries overlap <= 2 subbins).
            assert!(runs.iter().map(|r| r.ids().len()).sum::<usize>() <= 2 * s.len());
        }
        assert!(idx.extra_bytes() >= 3 * s.len() * 4);
    }

    /// An extent that absorbs the smaller coordinates (a point at -2^160
    /// beside unit-scale ones) makes `lo + v·width` round below the data's
    /// maximum. Entries above it used to fall into no subbin, while a query
    /// there clamps to the last one and missed them.
    #[test]
    fn an_absorbing_extent_keeps_every_entry_in_a_subbin() {
        let far = -tdts_geom::DOMAIN_BOUND;
        let mut segs: Vec<Segment> = store(20).segments().to_vec();
        segs.push(Segment::new(
            Point3::splat(far),
            Point3::splat(far),
            5.0,
            6.0,
            SegId(20),
            TrajId(20),
        ));
        let s: SegmentStore = segs.into_iter().collect();
        let mut sorted = s.clone();
        sorted.sort_by_t_start();
        let idx = SpatioTemporalIndex::build(
            &sorted,
            SpatioTemporalIndexConfig { bins: 4, subbins: 3, sort_by_selector: true },
        )
        .unwrap();
        assert!(idx.validate(&sorted).is_ok(), "{:?}", idx.validate(&sorted));
        for (i, q) in sorted.iter().enumerate() {
            let entry = idx.schedule_for(q, 0.5);
            assert!(idx.candidates(&entry).contains(&(i as u32)), "entry {i} missed by itself");
        }
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
            let candidates = idx.candidates(&entry);
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
            ScheduleEntry { selector: Selector::Dim(2), lo: 5, hi: 9, subbin: 1 }.encode(),
            [2, 5, 9, 1]
        );
        assert_eq!(
            ScheduleEntry { selector: Selector::Temporal, lo: 1, hi: 2, subbin: 0 }.encode(),
            [3, 1, 2, 0]
        );
        let e = ScheduleEntry::EMPTY;
        assert_eq!(e.encode(), [4, 0, 0, 0]);
        assert!(e.is_empty());
        assert_eq!(ScheduleEntry { selector: Selector::Dim(0), lo: 3, hi: 10, subbin: 0 }.len(), 7);
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
