//! The flatly structured grid (FSG).

use tdts_geom::{ExpireDelta, Mbb, Point3, SegmentStore, StoreStats};
use tdts_gpu_sim::SearchError;

/// FSG resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsgConfig {
    /// Grid cells per dimension (the paper found 50 best for the Random
    /// dataset, §V-C).
    pub cells_per_dim: usize,
}

impl Default for FsgConfig {
    fn default() -> Self {
        FsgConfig { cells_per_dim: 50 }
    }
}

/// Inclusive cell-coordinate ranges per dimension, produced by rasterising
/// a box to the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellRange {
    pub lo: [usize; 3],
    pub hi: [usize; 3],
}

impl CellRange {
    /// Number of cells covered.
    pub fn cell_count(&self) -> usize {
        (0..3).map(|d| self.hi[d] - self.lo[d] + 1).product()
    }

    /// Iterate all (ix, iy, iz) triples in the range, row-major.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let (lo, hi) = (self.lo, self.hi);
        (lo[0]..=hi[0]).flat_map(move |x| {
            (lo[1]..=hi[1]).flat_map(move |y| (lo[2]..=hi[2]).map(move |z| (x, y, z)))
        })
    }
}

/// The host-side FSG: sparse sorted cell array `G` plus lookup array `A`.
///
/// Cell spatial coordinates are never stored — they are recomputed from the
/// linearised coordinate whenever needed, the paper's memory-footprint
/// optimisation.
///
/// ```
/// use tdts_geom::{Point3, SegId, Segment, SegmentStore, TrajId};
/// use tdts_index_spatial::{Fsg, FsgConfig};
///
/// let store: SegmentStore = (0..8)
///     .map(|i| Segment::new(
///         Point3::splat(i as f64), Point3::splat(i as f64 + 0.5),
///         0.0, 1.0, SegId(i), TrajId(i)))
///     .collect();
/// let fsg = Fsg::build(&store, FsgConfig { cells_per_dim: 4 }).unwrap();
///
/// // Only occupied cells are stored, and each segment is reachable through
/// // the cells its MBB rasterises to.
/// assert!(fsg.non_empty_cells() <= 4 * 4 * 4);
/// let range = fsg.rasterise(&store.get(0).mbb());
/// let (x, y, z) = range.iter().next().unwrap();
/// let cell = fsg.find_cell(fsg.linear(x, y, z)).unwrap();
/// let [a_min, a_max] = fsg.cell_ranges[cell];
/// assert!(fsg.lookup[a_min as usize..a_max as usize].contains(&0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Fsg {
    bounds: Mbb,
    /// Union of the build-time bounds and every appended segment's MBB.
    /// [`outside`](Fsg::outside) tests against this, not `bounds`: appended
    /// segments falling outside the build-time volume are clamped into edge
    /// cells, and a query near them must not be rejected early.
    data_bounds: Mbb,
    cells_per_dim: usize,
    cell_size: Point3,
    /// Sorted linearised coordinates of non-empty cells (the array `G`).
    pub cell_ids: Vec<u64>,
    /// `cell_ranges[i]` = half-open range into `lookup` for `cell_ids[i]`
    /// (the `[A_min, A_max]` pair, stored half-open).
    pub cell_ranges: Vec<[u32; 2]>,
    /// The lookup array `A`: entry positions, grouped by cell, duplicates
    /// allowed (an entry MBB can overlap many cells).
    pub lookup: Vec<u32>,
}

/// Sort `(cell, entry)` pairs and group them into the sparse triple
/// `(cell_ids, cell_ranges, lookup)`.
fn regroup(mut pairs: Vec<(u64, u32)>) -> (Vec<u64>, Vec<[u32; 2]>, Vec<u32>) {
    pairs.sort_unstable();
    let mut cell_ids = Vec::new();
    let mut cell_ranges = Vec::new();
    let mut lookup = Vec::with_capacity(pairs.len());
    let mut i = 0usize;
    while i < pairs.len() {
        let h = pairs[i].0;
        let start = lookup.len() as u32;
        while i < pairs.len() && pairs[i].0 == h {
            lookup.push(pairs[i].1);
            i += 1;
        }
        cell_ids.push(h);
        cell_ranges.push([start, lookup.len() as u32]);
    }
    (cell_ids, cell_ranges, lookup)
}

/// Flatten a sparse triple back into `(cell, entry)` pairs.
fn pairs_of(cell_ids: &[u64], cell_ranges: &[[u32; 2]], lookup: &[u32]) -> Vec<(u64, u32)> {
    let mut out = Vec::with_capacity(lookup.len());
    for (ci, &h) in cell_ids.iter().enumerate() {
        let [a, b] = cell_ranges[ci];
        for &p in &lookup[a as usize..b as usize] {
            out.push((h, p));
        }
    }
    out
}

impl Fsg {
    /// Rasterise every entry's MBB to the grid and build the sparse arrays.
    ///
    /// Fails with [`SearchError::InvalidConfig`] on a zero-cell grid and
    /// [`SearchError::EmptyDataset`] on an empty store.
    pub fn build(store: &SegmentStore, config: FsgConfig) -> Result<Fsg, SearchError> {
        let stats = store.stats().ok_or(SearchError::EmptyDataset)?;
        Fsg::build_with_stats(store, &stats, config)
    }

    /// [`build`](Fsg::build) with the store's [`StoreStats`] supplied by the
    /// caller, so one stats scan can be shared across every index built on
    /// the same store.
    pub fn build_with_stats(
        store: &SegmentStore,
        stats: &StoreStats,
        config: FsgConfig,
    ) -> Result<Fsg, SearchError> {
        if config.cells_per_dim < 1 {
            return Err(SearchError::InvalidConfig(
                "FSG needs at least one cell per dimension".into(),
            ));
        }
        if store.is_empty() {
            return Err(SearchError::EmptyDataset);
        }
        let bounds = stats.bounds;
        let n = config.cells_per_dim;
        let extent = bounds.extent();
        let cell_size = Point3::new(
            positive(extent.x / n as f64),
            positive(extent.y / n as f64),
            positive(extent.z / n as f64),
        );

        let mut grid = Fsg {
            bounds,
            data_bounds: bounds,
            cells_per_dim: n,
            cell_size,
            cell_ids: Vec::new(),
            cell_ranges: Vec::new(),
            lookup: Vec::new(),
        };

        // (cell, entry) pairs; entries can map to several cells.
        let mut pairs: Vec<(u64, u32)> = Vec::with_capacity(store.len());
        for (pos, seg) in store.iter().enumerate() {
            let range = grid.rasterise(&seg.mbb());
            for (x, y, z) in range.iter() {
                pairs.push((grid.linear(x, y, z), pos as u32));
            }
        }
        (grid.cell_ids, grid.cell_ranges, grid.lookup) = regroup(pairs);
        Ok(grid)
    }

    /// The grid with store entries `from..` rasterised and folded in,
    /// built beside `self`, which is left as it was.
    ///
    /// The new `(cell, entry)` pairs join the existing ones and the triple
    /// is regrouped, so the result is the triple a cold build would give
    /// whenever the appended entries lie inside the build-time bounds.
    /// The grid geometry (`bounds`, `cell_size`) stays fixed: out-of-bounds
    /// segments clamp into edge cells, exactly as out-of-bounds query boxes
    /// do, so any overlapping query/entry pair still shares at least one
    /// cell (clamping is monotone per dimension). `data_bounds` grows to
    /// keep the [`outside`](Fsg::outside) early-reject correct.
    pub fn append(&self, store: &SegmentStore, from: usize) -> Result<Fsg, SearchError> {
        if from > store.len() {
            return Err(SearchError::InvalidConfig(format!(
                "FSG append offset {from} past store length {}",
                store.len()
            )));
        }
        let mut pairs = pairs_of(&self.cell_ids, &self.cell_ranges, &self.lookup);
        let mut data_bounds = self.data_bounds;
        for (off, seg) in store.segments()[from..].iter().enumerate() {
            let mbb = seg.mbb();
            data_bounds = data_bounds.merge(&mbb);
            for (x, y, z) in self.rasterise(&mbb).iter() {
                pairs.push((self.linear(x, y, z), (from + off) as u32));
            }
        }
        Ok(self.regrouped(pairs, data_bounds))
    }

    /// The grid without the expired entry positions, survivors renumbered
    /// to their post-expiry store positions, built beside `self`.
    ///
    /// `data_bounds` is kept as-is — a conservative over-estimate only ever
    /// costs candidate work, never correctness.
    pub fn expire(&self, delta: &ExpireDelta) -> Result<Fsg, SearchError> {
        let pairs = pairs_of(&self.cell_ids, &self.cell_ranges, &self.lookup)
            .into_iter()
            .filter_map(|(h, p)| delta.remap(p as usize).map(|np| (h, np as u32)))
            .collect();
        Ok(self.regrouped(pairs, self.data_bounds))
    }

    /// This grid's geometry over the triple grouped from `pairs`.
    fn regrouped(&self, pairs: Vec<(u64, u32)>, data_bounds: Mbb) -> Fsg {
        let (cell_ids, cell_ranges, lookup) = regroup(pairs);
        Fsg { data_bounds, cell_ids, cell_ranges, lookup, ..*self }
    }

    fn clamp_cell(&self, v: f64, dim: usize) -> usize {
        let lo = self.bounds.lo.coord(dim);
        let size = self.cell_size.coord(dim);
        let c = ((v - lo) / size).floor();
        (c.max(0.0) as usize).min(self.cells_per_dim - 1)
    }

    /// Cell-coordinate ranges overlapped by `mbb` (clamped to the grid).
    pub fn rasterise(&self, mbb: &Mbb) -> CellRange {
        let mut lo = [0usize; 3];
        let mut hi = [0usize; 3];
        for d in 0..3 {
            lo[d] = self.clamp_cell(mbb.lo.coord(d), d);
            hi[d] = self.clamp_cell(mbb.hi.coord(d), d);
        }
        CellRange { lo, hi }
    }

    /// True if `mbb` lies entirely outside the indexed data volume (the
    /// build-time bounds unioned with every appended segment's MBB).
    pub fn outside(&self, mbb: &Mbb) -> bool {
        !self.data_bounds.overlaps(mbb)
    }

    /// Row-major linearised cell coordinate (the `h` of the paper).
    #[inline]
    pub fn linear(&self, x: usize, y: usize, z: usize) -> u64 {
        let n = self.cells_per_dim as u64;
        (x as u64 * n + y as u64) * n + z as u64
    }

    /// Host-side binary search for cell `h` in `G`; returns the index into
    /// `cell_ids` / `cell_ranges`.
    pub fn find_cell(&self, h: u64) -> Option<usize> {
        self.cell_ids.binary_search(&h).ok()
    }

    /// Number of non-empty cells.
    pub fn non_empty_cells(&self) -> usize {
        self.cell_ids.len()
    }

    /// Grid resolution per dimension.
    pub fn cells_per_dim(&self) -> usize {
        self.cells_per_dim
    }

    /// Total `A` entries (≥ store length; the excess measures duplication).
    pub fn lookup_len(&self) -> usize {
        self.lookup.len()
    }

    /// Grid bounds.
    pub fn bounds(&self) -> &Mbb {
        &self.bounds
    }
}

/// Guard against degenerate (zero-extent) dimensions.
fn positive(v: f64) -> f64 {
    if v > 0.0 {
        v
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdts_geom::{Point3, SegId, Segment, TrajId};

    fn seg(lo: (f64, f64, f64), hi: (f64, f64, f64), id: u32) -> Segment {
        Segment::new(
            Point3::new(lo.0, lo.1, lo.2),
            Point3::new(hi.0, hi.1, hi.2),
            0.0,
            1.0,
            SegId(id),
            TrajId(id),
        )
    }

    fn store() -> SegmentStore {
        // A 10×10×10 world with segments in two corners.
        vec![
            seg((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0),
            seg((0.5, 0.5, 0.5), (1.5, 1.5, 1.5), 1),
            seg((9.0, 9.0, 9.0), (10.0, 10.0, 10.0), 2),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn build_sparse_arrays() {
        let fsg = Fsg::build(&store(), FsgConfig { cells_per_dim: 5 }).unwrap();
        assert!(fsg.non_empty_cells() > 0);
        // Sorted cell ids.
        assert!(fsg.cell_ids.windows(2).all(|w| w[0] < w[1]));
        // Ranges partition the lookup array.
        assert_eq!(fsg.cell_ranges.first().unwrap()[0], 0);
        assert_eq!(fsg.cell_ranges.last().unwrap()[1] as usize, fsg.lookup_len());
        for w in fsg.cell_ranges.windows(2) {
            assert_eq!(w[0][1], w[1][0]);
        }
        // Every entry appears at least once.
        let mut seen = [false; 3];
        for &e in &fsg.lookup {
            seen[e as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn rasterise_covers_cells() {
        let fsg = Fsg::build(&store(), FsgConfig { cells_per_dim: 5 }).unwrap();
        // Cell size = 2 per dim. A box spanning (0..3) covers cells 0..1.
        let r = fsg.rasterise(&Mbb::new(Point3::splat(0.0), Point3::splat(3.0)));
        assert_eq!(r.lo, [0, 0, 0]);
        assert_eq!(r.hi, [1, 1, 1]);
        assert_eq!(r.cell_count(), 8);
        assert_eq!(r.iter().count(), 8);
        // Clamped outside.
        let r = fsg.rasterise(&Mbb::new(Point3::splat(-100.0), Point3::splat(-50.0)));
        assert_eq!(r.lo, [0, 0, 0]);
        assert_eq!(r.hi, [0, 0, 0]);
        assert!(fsg.outside(&Mbb::new(Point3::splat(-100.0), Point3::splat(-50.0))));
    }

    #[test]
    fn finer_grid_more_duplication() {
        let mut segs = Vec::new();
        for i in 0..50u32 {
            let x = i as f64 * 0.2;
            segs.push(seg((x, 0.0, 0.0), (x + 3.0, 3.0, 3.0), i));
        }
        let s: SegmentStore = segs.into_iter().collect();
        let coarse = Fsg::build(&s, FsgConfig { cells_per_dim: 2 }).unwrap();
        let fine = Fsg::build(&s, FsgConfig { cells_per_dim: 20 }).unwrap();
        assert!(fine.lookup_len() > coarse.lookup_len());
        assert!(fine.lookup_len() >= s.len());
    }

    #[test]
    fn find_cell_binary_search() {
        let fsg = Fsg::build(&store(), FsgConfig { cells_per_dim: 5 }).unwrap();
        let h = fsg.cell_ids[0];
        assert_eq!(fsg.find_cell(h), Some(0));
        // A cell id that cannot exist.
        assert_eq!(fsg.find_cell(u64::MAX), None);
    }

    #[test]
    fn degenerate_flat_store() {
        // All segments on a plane: z extent is zero.
        let s: SegmentStore = vec![
            seg((0.0, 0.0, 0.0), (1.0, 1.0, 0.0), 0),
            seg((5.0, 5.0, 0.0), (6.0, 6.0, 0.0), 1),
        ]
        .into_iter()
        .collect();
        let fsg = Fsg::build(&s, FsgConfig { cells_per_dim: 4 }).unwrap();
        assert!(fsg.non_empty_cells() >= 2);
    }

    #[test]
    fn build_rejects_bad_inputs() {
        let err = Fsg::build(&SegmentStore::new(), FsgConfig::default()).unwrap_err();
        assert_eq!(err, SearchError::EmptyDataset);
        let err = Fsg::build(&store(), FsgConfig { cells_per_dim: 0 }).unwrap_err();
        assert!(matches!(err, SearchError::InvalidConfig(_)));
    }

    /// Entry positions reachable through the grid for a box.
    fn reachable(fsg: &Fsg, mbb: &Mbb) -> std::collections::BTreeSet<u32> {
        let mut out = std::collections::BTreeSet::new();
        if fsg.outside(mbb) {
            return out;
        }
        for (x, y, z) in fsg.rasterise(mbb).iter() {
            if let Some(ci) = fsg.find_cell(fsg.linear(x, y, z)) {
                let [a, b] = fsg.cell_ranges[ci];
                out.extend(fsg.lookup[a as usize..b as usize].iter().copied());
            }
        }
        out
    }

    #[test]
    fn append_folds_into_grid_and_is_reachable() {
        let mut s = store();
        let mut fsg = Fsg::build(&s, FsgConfig { cells_per_dim: 5 }).unwrap();
        s.append(&[seg((4.0, 4.0, 4.0), (5.0, 5.0, 5.0), 3)]);
        fsg = fsg.append(&s, 3).unwrap();
        let r = reachable(&fsg, &s.get(3).mbb());
        assert!(r.contains(&3), "appended entry must be reachable, got {r:?}");
        // Appending an already-covered offset range is rejected past the end.
        assert!(matches!(fsg.append(&s, 99), Err(SearchError::InvalidConfig(_))));
    }

    #[test]
    fn append_out_of_bounds_expands_data_bounds() {
        let mut s = store();
        let mut fsg = Fsg::build(&s, FsgConfig { cells_per_dim: 5 }).unwrap();
        let far = Mbb::new(Point3::splat(50.0), Point3::splat(51.0));
        assert!(fsg.outside(&far), "before append, far box is outside");
        s.append(&[seg((50.0, 50.0, 50.0), (51.0, 51.0, 51.0), 3)]);
        fsg = fsg.append(&s, 3).unwrap();
        assert!(!fsg.outside(&far), "data_bounds must have grown");
        // The clamped entry sits in the hi edge cell, where a clamped
        // far-away query box also rasterises.
        let r = reachable(&fsg, &far);
        assert!(r.contains(&3));
    }

    #[test]
    fn in_bounds_append_equals_cold_build() {
        let mut s = store();
        let mut fsg = Fsg::build(&s, FsgConfig { cells_per_dim: 5 }).unwrap();
        s.append(&[seg((2.0, 2.0, 2.0), (3.0, 3.0, 3.0), 3)]);
        fsg = fsg.append(&s, 3).unwrap();
        // The appended entry is in-bounds, so the geometry matches a cold
        // build over the same store and so must the triple.
        let cold = Fsg::build(&s, FsgConfig { cells_per_dim: 5 }).unwrap();
        assert_eq!(fsg.cell_ids, cold.cell_ids);
        assert_eq!(fsg.cell_ranges, cold.cell_ranges);
        assert_eq!(fsg.lookup, cold.lookup);
    }

    #[test]
    fn expire_remaps_appended_survivors() {
        // Entries 0..3 at t=0..1; append one at t=5..6, then expire t<2.
        let mut s = store();
        let mut fsg = Fsg::build(&s, FsgConfig { cells_per_dim: 5 }).unwrap();
        s.append(&[Segment::new(
            Point3::splat(2.0),
            Point3::splat(3.0),
            5.0,
            6.0,
            SegId(3),
            TrajId(3),
        )]);
        fsg = fsg.append(&s, 3).unwrap();
        let d = s.expire_before(2.0);
        assert_eq!(d.removed, vec![0, 1, 2]);
        fsg = fsg.expire(&d).unwrap();
        assert!(fsg.lookup.iter().all(|&p| p == 0), "only the survivor is left");
        let r = reachable(&fsg, &s.get(0).mbb());
        assert_eq!(r.into_iter().collect::<Vec<_>>(), vec![0], "survivor renumbered to 0");
    }

    #[test]
    fn linear_is_row_major_and_injective() {
        let fsg = Fsg::build(&store(), FsgConfig { cells_per_dim: 5 }).unwrap();
        let mut ids = std::collections::BTreeSet::new();
        for x in 0..5 {
            for y in 0..5 {
                for z in 0..5 {
                    assert!(ids.insert(fsg.linear(x, y, z)));
                }
            }
        }
        assert_eq!(fsg.linear(0, 0, 1), 1);
        assert_eq!(fsg.linear(0, 1, 0), 5);
        assert_eq!(fsg.linear(1, 0, 0), 25);
    }
}
