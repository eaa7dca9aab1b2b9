//! Spatiotemporal geometry primitives for trajectory distance threshold searches.
//!
//! This crate provides the data model shared by every index implementation in
//! the workspace:
//!
//! * [`Point3`] — a 3-D spatial point with the usual vector operations.
//! * [`TimeInterval`] — a closed interval on the temporal axis.
//! * [`Segment`] — a 4-D (three spatial + one temporal dimension) trajectory
//!   line segment: the position of a moving object between two timestamps,
//!   interpolated linearly.
//! * [`Mbb`] — a spatial minimum bounding box.
//! * [`continuous::within_distance`] — the *continuous* distance threshold
//!   test: the exact sub-interval of the temporal overlap of two segments
//!   during which the two moving points are within a Euclidean distance `d`
//!   of each other. This is the `compare()` primitive of Algorithms 1–3 in
//!   the paper. [`PreparedQuery`] and [`PreparedEntry`] are the same test
//!   with each side's half of the arithmetic done once: the query's per
//!   search, the entry's when it is placed on the device, as a row of the
//!   [`PreparedColumns`]. [`PreparedQuery::pretest`] rejects whole chunks
//!   of those columns ahead of the solver, only where the solver would, and
//!   returns its verdict on a chunk of up to 64 rows as one [`Ballot`]: two
//!   mask words, a bit per row. Its loop is compiled three times — the
//!   portable baseline, AVX2 and AVX-512 — and the widest copy the CPU has
//!   runs ([`scan_isa`]); all three cast the same ballot, bit for bit.
//! * [`DOMAIN_BOUND`] — the numeric domain every segment and threshold
//!   lies in (magnitudes up to 2¹⁶⁰), inside which the test stays finite;
//!   [`first_invalid`] and [`check_threshold`] are its one check.
//! * [`SegmentStore`] — an in-memory segment database with the global
//!   statistics (spatial bounds, temporal extent, maximum segment spatial
//!   extent) that the indexing schemes are built from.
//! * [`SegmentColumns`] — the same database transposed to columnar
//!   (struct-of-arrays) layout, the layout the simulated device charges its
//!   reads by.
//! * [`par`] — the host-parallel loop every crate runs its per-query
//!   host work and the simulated GPU its warps on.
//! * [`ShardedStore`] — the database partitioned into shard-local stores
//!   (temporal slabs, boundary segments replicated) for multi-device
//!   execution.

#![deny(unsafe_code)]

pub mod columns;
pub mod continuous;
pub mod domain;
pub mod front;
pub mod interval;
pub mod mbb;
pub mod par;
pub mod point;
pub mod result;
pub mod segment;
pub mod shard;
mod sort;
pub mod store;

pub use columns::SegmentColumns;
pub use continuous::{
    scan_isa, within_distance, Ballot, PreparedColumns, PreparedEntry, PreparedQuery,
};
pub use domain::{check_threshold, first_invalid, InvalidSegment, DOMAIN_BOUND};
pub use front::FrontVec;
pub use interval::TimeInterval;
pub use mbb::Mbb;
pub use point::Point3;
pub use result::{dedup_matches, diff_matches, MatchRecord};
pub use segment::{SegId, Segment, TrajId};
pub use shard::{PartitionStrategy, ShardPlan, ShardSlice, ShardedStore};
pub use sort::t_start_order;
pub use store::{AppendDelta, ExpireDelta, SegmentStore, StoreStats};
