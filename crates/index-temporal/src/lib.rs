//! `GPUTemporal`: purely temporal partitioning (paper §IV-B).
//!
//! The entry database is sorted by ascending `t_start` and partitioned into
//! `m` fixed-width logical bins. Each bin records the index range of its
//! entries and its temporal extent (which can reach past the bin boundary,
//! because entries are assigned by start time but may end later). For each
//! query segment the host computes — in near-constant time over the sorted
//! query set — the contiguous range `E_k` of candidate entry positions, and
//! ships the resulting *schedule* to the GPU. The kernel is then a pure
//! brute-force refinement over `E_k` with no indirection at all.
//!
//! Response time is independent of the query distance `d` (candidates are
//! selected purely by temporal overlap), the defining behaviour of this
//! scheme in Figures 4–6.

#![forbid(unsafe_code)]

pub mod index;
pub mod search;

pub use index::{check_bins, TemporalIndex, TemporalIndexConfig, MAX_BINS};
pub use search::{GpuTemporalSearch, TemporalSchedule};
