//! Shared GPU search driver and kernel pipeline for the distance threshold
//! searches.
//!
//! The paper's three GPU search methods (GPUSpatial, GPUTemporal,
//! GPUSpatioTemporal) share one driver — place the database and index on
//! the device, plan each query batch on the host, run a kernel, drain and
//! dedup — and one kernel skeleton — iterate the candidates of a query (or
//! a tile of them), run the continuous interaction test, commit hits
//! through the warp-aggregated result stash, and redo overflowing queries.
//! They differ only in their index and how candidates are generated. This
//! crate holds the shared parts once:
//!
//! * [`search`] — [`GpuSearch`], the one driver: device residency, store
//!   generations with all-or-nothing ingest/expire, the timed plan step,
//!   the kernel-shape choice and the search epilogue, parameterised by a
//!   per-method [`Scheme`] (index with its device arrays, plan, generators).
//! * [`segments`] — [`DeviceSegments`], the device-resident segment database
//!   (eight prepared `f64` columns, on the host exactly as the device is
//!   charged for them), and the refinement itself: a lane's candidates — a
//!   contiguous range, or ids gathered through an index array — or a warp's
//!   whole tile are refined as one chunked scan with one charge per lane:
//!   a vectorised pre-test per chunk, the exact solver on the rows it
//!   passes. The compare touches only
//!   the timestamp columns (16 B) when the temporal prefilter rejects, the
//!   full 64-byte row otherwise. [`DeviceQueries`] holds the query set.
//! * [`queries`] — [`SortedQueries`], the `t_start`-sorted query permutation.
//! * [`pipeline`] — the host-side redo-round loop, once for both kernel shapes,
//!   parameterised by per-method [`CandidateGenerator`]/[`TileGenerator`]
//!   implementations.

#![forbid(unsafe_code)]

pub mod pipeline;
pub mod queries;
pub mod search;
pub mod segments;

pub use pipeline::{CandidateGenerator, LaneWork, TileGenerator, SCHEDULE_INSTR};
pub use queries::SortedQueries;
pub use search::{Batch, GpuSearch, Scheme};
pub use segments::{
    lane_share, DeviceQueries, DeviceSegments, COLUMNAR_ROW_BYTES, COMPARE_INSTR, SCAN_CHUNK,
};
