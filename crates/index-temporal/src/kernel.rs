//! Device-side kernel helpers, re-exported from [`tdts_kernels`].
//!
//! The compare/stage primitives started life in this module and moved to
//! the shared `tdts-kernels` crate when all four search methods were
//! rebuilt on one kernel pipeline; this shim keeps the historical paths
//! (`tdts_index_temporal::kernel::*`) working.

pub use tdts_kernels::{compare, compare_and_stage, load_query, COMPARE_INSTR, SCHEDULE_INSTR};
