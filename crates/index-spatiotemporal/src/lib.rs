//! `GPUSpatioTemporal`: temporal bins subdivided into spatial subbins
//! (paper §IV-C, Algorithm 3).
//!
//! Entries are assigned to `m` temporal bins exactly as in `GPUTemporal`;
//! additionally each bin is subdivided into `v` *spatial subbins per
//! dimension*, with the constraint that a subbin is wider than the largest
//! spatial extent of any single entry segment (so an entry overlaps at most
//! two adjacent subbins per dimension). Three id arrays `X`, `Y`, `Z` store,
//! per dimension, the entry positions grouped by subbin and — within a
//! subbin — by temporal bin, in `(subbin, bin)` lexicographic order. That
//! layout makes the entries of *one* subbin across a contiguous run of
//! temporal bins a single contiguous array range, encodable in two integers.
//!
//! For each query the host picks the dimension in which the (inflated)
//! query interval stays inside a single subbin and overlaps the fewest
//! entries, and ships `(array selector, index range)`. A query that spans
//! multiple subbins in **all three** dimensions would produce duplicate
//! results, so it falls back to the purely temporal scheme — the paper
//! reports this fallback dominating on dense data at large `d` (§V-E).
//! The schedule is sorted by array selector to reduce warp divergence.

#![forbid(unsafe_code)]

pub mod index;
pub mod search;

pub use index::{Run, ScheduleEntry, Selector, SpatioTemporalIndex, SpatioTemporalIndexConfig};
pub use search::GpuSpatioTemporalSearch;
