//! R-tree construction and the parallel distance threshold search.

use crate::stmbb::StMbb;
use tdts_geom::{within_distance, MatchRecord, SegmentStore};

/// R-tree build parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RTreeConfig {
    /// Segments packed per leaf-entry MBB (the paper's `r`). Consecutive
    /// same-trajectory segments are grouped, so an entry's MBB stays tight.
    pub segments_per_mbb: usize,
    /// Maximum children per node (fanout).
    pub node_capacity: usize,
}

impl Default for RTreeConfig {
    fn default() -> Self {
        RTreeConfig { segments_per_mbb: 4, node_capacity: 16 }
    }
}

impl RTreeConfig {
    /// Why [`RTree::build`] would refuse this configuration, if it would.
    pub fn validate(&self) -> Result<(), String> {
        if self.segments_per_mbb == 0 {
            return Err("segments_per_mbb (r) must be at least 1".into());
        }
        if self.node_capacity < 2 {
            return Err("node_capacity must be at least 2".into());
        }
        Ok(())
    }
}

/// Aggregate counters of one batch search, for the `r`-trade-off analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Tree nodes visited across all queries.
    pub nodes_visited: u64,
    /// Segments compared with the continuous distance test (refinement).
    pub candidates: u64,
    /// Final result records produced.
    pub matches: u64,
}

impl SearchStats {
    fn add(&mut self, other: &SearchStats) {
        self.nodes_visited += other.nodes_visited;
        self.candidates += other.candidates;
        self.matches += other.matches;
    }
}

/// A leaf entry: up to `r` consecutive same-trajectory segments.
#[derive(Debug, Clone, Copy)]
struct LeafEntry {
    mbb: StMbb,
    /// First segment position in the entry database.
    first: u32,
    /// Number of packed segments.
    count: u32,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    mbb: StMbb,
    /// Index of the first child (into `nodes` for internal nodes, into
    /// `entries` for leaves).
    first: u32,
    count: u32,
    leaf: bool,
}

/// A bulk-loaded, immutable R-tree over a segment database.
///
/// The tree stores *positions* into the database it was built from; pass the
/// same store (unchanged) to [`RTree::search`].
///
/// ```
/// use tdts_geom::{Point3, SegId, Segment, SegmentStore, TrajId};
/// use tdts_rtree::{RTree, RTreeConfig};
///
/// let store: SegmentStore = (0..100)
///     .map(|i| Segment::new(
///         Point3::new(i as f64 * 10.0, 0.0, 0.0),
///         Point3::new(i as f64 * 10.0 + 1.0, 0.0, 0.0),
///         0.0, 1.0, SegId(i), TrajId(i)))
///     .collect();
/// let tree = RTree::build(&store, RTreeConfig::default());
///
/// // One query sitting on entry 5: only its direct neighbours match at d = 10.
/// let queries: SegmentStore = std::iter::once(*store.get(5)).collect();
/// let (matches, stats) = tree.search(&store, &queries, 10.0);
/// let found: Vec<u32> = matches.iter().map(|m| m.entry).collect();
/// assert_eq!(found, vec![4, 5, 6]);
/// assert!(stats.candidates < 100, "the tree must prune most of the store");
/// ```
#[derive(Debug)]
pub struct RTree {
    nodes: Vec<Node>,
    entries: Vec<LeafEntry>,
    /// Flattened child-index lists of internal nodes (children are created
    /// depth-first, so their indices are not contiguous in `nodes`).
    child_lists: Vec<u32>,
    root: u32,
    built_from_len: usize,
    config: RTreeConfig,
}

impl RTree {
    /// Bulk-load a tree over `store` with the given configuration.
    ///
    /// Panics on a configuration [`RTreeConfig::validate`] refuses.
    pub fn build(store: &SegmentStore, config: RTreeConfig) -> RTree {
        if let Err(why) = config.validate() {
            panic!("invalid R-tree configuration: {why}");
        }

        // 1. Pack consecutive same-trajectory segments into leaf entries.
        let mut entries: Vec<LeafEntry> = Vec::new();
        let segs = store.segments();
        let mut i = 0usize;
        while i < segs.len() {
            let traj = segs[i].traj_id;
            let mut mbb = StMbb::of_segment(&segs[i]);
            let first = i;
            let mut count = 1usize;
            while count < config.segments_per_mbb
                && i + count < segs.len()
                && segs[i + count].traj_id == traj
            {
                mbb = mbb.merge(&StMbb::of_segment(&segs[i + count]));
                count += 1;
            }
            entries.push(LeafEntry { mbb, first: first as u32, count: count as u32 });
            i += count;
        }

        // 2. Recursive sort-tile pack over the entries.
        let mut tree = RTree {
            nodes: Vec::new(),
            entries: Vec::new(),
            child_lists: Vec::new(),
            root: 0,
            built_from_len: store.len(),
            config,
        };
        if entries.is_empty() {
            tree.nodes.push(Node { mbb: StMbb::empty(), first: 0, count: 0, leaf: true });
            tree.root = 0;
            return tree;
        }
        tree.root = tree.build_rec(&mut entries, 0);
        tree
    }

    fn build_rec(&mut self, items: &mut [LeafEntry], depth: usize) -> u32 {
        let cap = self.config.node_capacity;
        if items.len() <= cap {
            let first = self.entries.len() as u32;
            let mut mbb = StMbb::empty();
            for e in items.iter() {
                mbb = mbb.merge(&e.mbb);
                self.entries.push(*e);
            }
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node { mbb, first, count: items.len() as u32, leaf: true });
            return idx;
        }
        // Sort by the centre along the cycled dimension and split into
        // `cap` roughly equal contiguous runs.
        let dim = depth % 4;
        items.sort_unstable_by(|a, b| {
            a.mbb.center(dim).partial_cmp(&b.mbb.center(dim)).expect("NaN center")
        });
        let n = items.len();
        let chunk = n.div_ceil(cap);
        let mut children: Vec<u32> = Vec::with_capacity(cap);
        let mut mbb = StMbb::empty();
        let mut start = 0usize;
        while start < n {
            let end = (start + chunk).min(n);
            let child = self.build_rec(&mut items[start..end], depth + 1);
            mbb = mbb.merge(&self.nodes[child as usize].mbb);
            children.push(child);
            start = end;
        }
        let idx = self.nodes.len() as u32;
        let first = self.child_list_push(&children);
        self.nodes.push(Node { mbb, first, count: children.len() as u32, leaf: false });
        idx
    }

    fn child_list_push(&mut self, children: &[u32]) -> u32 {
        let first = self.child_lists.len() as u32;
        self.child_lists.extend_from_slice(children);
        first
    }

    /// Height of the tree (1 for a single leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = &self.nodes[self.root as usize];
        while !node.leaf {
            let child = self.child_lists[node.first as usize];
            node = &self.nodes[child as usize];
            h += 1;
        }
        h
    }

    /// Number of leaf entries (packed MBBs).
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Search for all entry segments within `d` of query segment at
    /// position `query_pos` in `queries`. Appends to `out`; returns the
    /// per-query stats.
    pub fn search_one(
        &self,
        store: &SegmentStore,
        queries: &SegmentStore,
        query_pos: usize,
        d: f64,
        out: &mut Vec<MatchRecord>,
    ) -> SearchStats {
        assert_eq!(store.len(), self.built_from_len, "store changed since the tree was built");
        let q = queries.get(query_pos);
        let qbox = StMbb::of_segment(q);
        let mut stats = SearchStats::default();
        let mut stack: Vec<u32> = vec![self.root];
        while let Some(ni) = stack.pop() {
            let node = &self.nodes[ni as usize];
            stats.nodes_visited += 1;
            if node.leaf {
                for e in &self.entries[node.first as usize..(node.first + node.count) as usize] {
                    if !qbox.may_match(&e.mbb, d) {
                        continue;
                    }
                    for pos in e.first..(e.first + e.count) {
                        stats.candidates += 1;
                        let entry = store.get(pos as usize);
                        if let Some(interval) = within_distance(q, entry, d) {
                            stats.matches += 1;
                            out.push(MatchRecord::new(query_pos as u32, pos, interval));
                        }
                    }
                }
            } else {
                for ci in node.first as usize..(node.first + node.count) as usize {
                    let child = self.child_lists[ci];
                    if qbox.may_match(&self.nodes[child as usize].mbb, d) {
                        stack.push(child);
                    }
                }
            }
        }
        stats
    }

    /// Batch search: all queries in parallel (one query segment per task,
    /// matching the paper's OpenMP scheme). Returns the canonically-ordered
    /// result set and the aggregated stats.
    pub fn search(
        &self,
        store: &SegmentStore,
        queries: &SegmentStore,
        d: f64,
    ) -> (Vec<MatchRecord>, SearchStats) {
        let per_query = tdts_geom::par::par_map(queries.len(), |qi| {
            let mut out = Vec::new();
            let stats = self.search_one(store, queries, qi, d, &mut out);
            (out, stats)
        });
        let mut matches = Vec::new();
        let mut stats = SearchStats::default();
        for (m, s) in per_query {
            matches.extend(m);
            stats.add(&s);
        }
        tdts_geom::dedup_matches(&mut matches);
        (matches, stats)
    }
}

impl RTree {
    /// Total nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdts_geom::{Point3, SegId, Segment, TrajId};

    fn line_store(n: usize) -> SegmentStore {
        // n unit segments along the x axis, each its own trajectory,
        // all on t in [0, 1].
        (0..n)
            .map(|i| {
                Segment::new(
                    Point3::new(i as f64 * 10.0, 0.0, 0.0),
                    Point3::new(i as f64 * 10.0 + 1.0, 0.0, 0.0),
                    0.0,
                    1.0,
                    SegId(i as u32),
                    TrajId(i as u32),
                )
            })
            .collect()
    }

    #[test]
    fn empty_tree() {
        let store = SegmentStore::new();
        let tree = RTree::build(&store, RTreeConfig::default());
        let (m, stats) = tree.search(&store, &line_store(3), 1.0);
        assert!(m.is_empty());
        assert_eq!(stats.matches, 0);
    }

    #[test]
    fn finds_nearby_segments_only() {
        let store = line_store(100);
        let tree = RTree::build(&store, RTreeConfig::default());
        // Query sitting on segment 5.
        let queries = line_store(100);
        let mut out = Vec::new();
        tree.search_one(&store, &queries, 5, 0.5, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].entry, 5);
        // Distance 10 reaches the neighbours.
        out.clear();
        tree.search_one(&store, &queries, 5, 10.0, &mut out);
        let mut entries: Vec<u32> = out.iter().map(|m| m.entry).collect();
        entries.sort_unstable();
        assert_eq!(entries, vec![4, 5, 6]);
    }

    #[test]
    fn batch_matches_single() {
        let store = line_store(50);
        let queries = line_store(50);
        let tree = RTree::build(&store, RTreeConfig::default());
        let (batch, stats) = tree.search(&store, &queries, 10.0);
        let mut single = Vec::new();
        for qi in 0..queries.len() {
            tree.search_one(&store, &queries, qi, 10.0, &mut single);
        }
        tdts_geom::dedup_matches(&mut single);
        assert_eq!(batch, single);
        assert_eq!(stats.matches as usize, batch.len());
    }

    fn multi_traj_store(trajs: usize, segs_per: usize) -> SegmentStore {
        // Each trajectory walks along x at a distinct y offset.
        let mut store = SegmentStore::new();
        let mut id = 0u32;
        for t in 0..trajs {
            for i in 0..segs_per {
                store.push(Segment::new(
                    Point3::new(i as f64, t as f64 * 5.0, 0.0),
                    Point3::new(i as f64 + 1.0, t as f64 * 5.0, 0.0),
                    i as f64,
                    i as f64 + 1.0,
                    SegId(id),
                    TrajId(t as u32),
                ));
                id += 1;
            }
        }
        store
    }

    #[test]
    fn r_affects_entry_count_not_results() {
        let store = multi_traj_store(8, 8);
        let queries = line_store(64);
        let t1 = RTree::build(&store, RTreeConfig { segments_per_mbb: 1, node_capacity: 8 });
        let t8 = RTree::build(&store, RTreeConfig { segments_per_mbb: 8, node_capacity: 8 });
        assert!(t1.entry_count() > t8.entry_count());
        let (m1, s1) = t1.search(&store, &queries, 10.0);
        let (m8, s8) = t8.search(&store, &queries, 10.0);
        assert_eq!(m1, m8);
        // Bigger r => fewer nodes visited but at least as many candidates.
        assert!(s8.nodes_visited <= s1.nodes_visited);
        assert!(s8.candidates >= s1.candidates);
    }

    #[test]
    fn r_packs_only_same_trajectory() {
        // Two trajectories of 3 segments each; r = 4 must not merge across.
        let mut store = SegmentStore::new();
        for t in 0..2u32 {
            for i in 0..3u32 {
                store.push(Segment::new(
                    Point3::new(i as f64, t as f64 * 100.0, 0.0),
                    Point3::new(i as f64 + 1.0, t as f64 * 100.0, 0.0),
                    i as f64,
                    i as f64 + 1.0,
                    SegId(t * 3 + i),
                    TrajId(t),
                ));
            }
        }
        let tree = RTree::build(&store, RTreeConfig { segments_per_mbb: 4, node_capacity: 8 });
        assert_eq!(tree.entry_count(), 2);
    }

    #[test]
    fn temporal_pruning_works() {
        // Same place, different times.
        let mut store = SegmentStore::new();
        for i in 0..10u32 {
            store.push(Segment::new(
                Point3::ZERO,
                Point3::new(1.0, 0.0, 0.0),
                i as f64 * 10.0,
                i as f64 * 10.0 + 1.0,
                SegId(i),
                TrajId(i),
            ));
        }
        let mut queries = SegmentStore::new();
        queries.push(Segment::new(
            Point3::ZERO,
            Point3::new(1.0, 0.0, 0.0),
            50.0,
            51.0,
            SegId(0),
            TrajId(100),
        ));
        let tree = RTree::build(&store, RTreeConfig::default());
        let (m, _) = tree.search(&store, &queries, 100.0);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].entry, 5);
    }

    #[test]
    #[should_panic(expected = "store changed")]
    fn detects_store_change() {
        let store = line_store(10);
        let tree = RTree::build(&store, RTreeConfig::default());
        let bigger = line_store(11);
        let mut out = Vec::new();
        tree.search_one(&bigger, &line_store(1), 0, 1.0, &mut out);
    }

    #[test]
    fn tree_shape_is_reasonable() {
        let store = line_store(1000);
        let tree = RTree::build(&store, RTreeConfig { segments_per_mbb: 1, node_capacity: 16 });
        assert_eq!(tree.entry_count(), 1000);
        assert!(tree.height() >= 2);
        assert!(tree.node_count() > 1000 / 16);
    }
}
