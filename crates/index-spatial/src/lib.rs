//! `GPUSpatial`: a flatly structured grid (FSG) index and its search kernel
//! (paper §IV-A, Algorithm 1).
//!
//! The 3-D bounding volume of the database is partitioned into
//! `cells_per_dim³` cells. Each entry segment's MBB is rasterised to the
//! cells it overlaps. Only *non-empty* cells are stored: a sorted array `G`
//! of linearised cell coordinates, each with an index range into a lookup
//! array `A` holding the entry positions (an entry can appear under several
//! cells, so `A` contains duplicates that are filtered on the host after the
//! search).
//!
//! The kernel (one thread per query segment) rasterises the query's MBB —
//! inflated by the query distance `d` — to cells, binary-searches each cell
//! in `G`, and collects candidate entries into a per-thread buffer `U_k`
//! whose capacity is `s / |Q|` (the total buffer space split evenly). A
//! thread that overflows its buffer abandons the query and appends its id to
//! a `redo` list; the host re-invokes the kernel with just the redo queries,
//! giving each a proportionally larger buffer — exactly the re-invocation
//! protocol of Algorithm 1.

#![forbid(unsafe_code)]

pub mod fsg;
pub mod search;

pub use fsg::{Fsg, FsgConfig};
pub use search::{GpuSpatialConfig, GpuSpatialSearch};
