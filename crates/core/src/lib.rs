//! The unified distance threshold search engine.
//!
//! This crate ties the paper's four implementations behind one interface:
//!
//! * [`Method::CpuRTree`] — the multithreaded CPU baseline (`tdts-rtree`);
//! * [`Method::GpuSpatial`] — the flatly structured grid (`tdts-index-spatial`);
//! * [`Method::GpuTemporal`] — temporal bins (`tdts-index-temporal`);
//! * [`Method::GpuSpatioTemporal`] — bins × subbins
//!   (`tdts-index-spatiotemporal`).
//!
//! A [`PreparedDataset`] canonicalises the entry database (sorted by
//! `t_start`, the order the temporal indexes require), so result records
//! from every method refer to the same entry positions and can be compared
//! directly — which [`oracle`] and [`verify_against_oracle`] do against an
//! exhaustive parallel reference search.

#![forbid(unsafe_code)]

pub mod engine;
pub mod error;
pub mod oracle;
pub mod resolve;
pub mod sharding;
pub mod traits;

pub use engine::{Method, PreparedDataset, SearchEngine};
pub use error::TdtsError;
pub use oracle::{brute_force_search, verify_against_oracle};
pub use resolve::{resolve_matches, ResolvedMatch};
pub use sharding::{ShardStats, ShardedIndex, ShardedIndexConfig, ShardedIndexConfigBuilder};
pub use traits::{CpuRTreeIndex, QueryBatch, SearchOutcome, TrajectoryIndex};
