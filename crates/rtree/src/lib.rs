//! `CPU-RTree`: the paper's CPU-only baseline (§V-B).
//!
//! An in-memory R-tree over *spatiotemporal* minimum bounding boxes (3
//! spatial dimensions + time), bulk-loaded with a sort-tile-recursive pack.
//! Leaf entries pack `r >= 1` consecutive same-trajectory segments per MBB:
//! larger `r` shrinks the tree (faster traversal) but produces more candidate
//! segments per hit (more refinement work) — the trade-off the paper sweeps
//! to pick the best `r` per experiment.
//!
//! The batch search parallelises over query segments with a work-stealing
//! thread pool, mirroring the paper's OpenMP parallelisation (one query
//! segment per thread, ~80% parallel efficiency on 6 cores).

#![forbid(unsafe_code)]

pub mod stmbb;
pub mod tree;

pub use stmbb::StMbb;
pub use tree::{RTree, RTreeConfig, SearchStats};
