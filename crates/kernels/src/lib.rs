//! Shared GPU kernel pipeline for the distance threshold searches.
//!
//! The paper's three GPU search methods (GPUSpatial, GPUTemporal,
//! GPUSpatioTemporal) share one kernel skeleton — iterate the
//! candidates of a query (or a tile of them), run the continuous interaction
//! test, commit hits through the warp-aggregated result stash, and redo
//! overflowing queries — and differ only in how candidates are generated.
//! This crate holds that skeleton once:
//!
//! * [`segments`] — [`DeviceSegments`], the device-resident segment database
//!   as eight `f64` columns, with per-column memory-traffic accounting: the
//!   compare touches only the timestamp columns (16 B) when the temporal
//!   prefilter rejects, the full 64-byte row otherwise.
//! * [`mod@compare`] — the refinement comparison and its fixed cost model,
//!   one element at a time (indirect candidates) or a contiguous range as
//!   one scan with one charge.
//! * [`queries`] — [`SortedQueries`], the `t_start`-sorted query permutation.
//! * [`pipeline`] — the host-side round protocol for both kernel shapes,
//!   parameterised by per-method [`CandidateGenerator`]/[`TileGenerator`]
//!   implementations.

#![forbid(unsafe_code)]

pub mod compare;
pub mod pipeline;
pub mod queries;
pub mod segments;

pub use compare::{
    compare_and_stage, load_query, refine_range_and_stage, COMPARE_INSTR, SCHEDULE_INSTR,
};
pub use pipeline::{
    finish_search, run_thread_per_query, run_warp_per_tile, CandidateGenerator, KernelContext,
    LaneWork, TileGenerator,
};
pub use queries::SortedQueries;
pub use segments::{DeviceSegments, COLUMNAR_ROW_BYTES};
