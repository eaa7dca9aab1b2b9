//! # tdts — Trajectory Distance Threshold Search
//!
//! A reproduction of *"Indexing of Spatiotemporal Trajectories for Efficient
//! Distance Threshold Similarity Searches on the GPU"* (Gowanlock &
//! Casanova, IPDPS Workshops 2015) as a Rust workspace.
//!
//! The **distance threshold search** takes a database `D` of 4-D trajectory
//! line segments (3 spatial + 1 temporal dimension) and a query set `Q`, and
//! returns every (query, entry) pair that comes within Euclidean distance
//! `d`, annotated with the exact time interval during which the condition
//! holds.
//!
//! Four implementations are provided behind one engine interface:
//!
//! | Method | Index | Crate |
//! |---|---|---|
//! | `CPU-RTree` | multithreaded in-memory R-tree | [`rtree`] |
//! | `GPUSpatial` | flatly structured grid | [`index_spatial`] |
//! | `GPUTemporal` | temporal bins | [`index_temporal`] |
//! | `GPUSpatioTemporal` | bins × spatial subbins | [`index_spatiotemporal`] |
//!
//! The GPU methods run on a deterministic *software GPU* ([`gpu_sim`]): real
//! parallel execution on the host with SIMT cost accounting calibrated to
//! the paper's Tesla C2075, preserving the buffer-overflow / kernel
//! re-invocation behaviour the paper's evaluation hinges on.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use tdts::prelude::*;
//!
//! // A toy database of two trajectories and one query segment.
//! let mut store = SegmentStore::new();
//! store.push(Segment::new(
//!     Point3::new(0.0, 0.0, 0.0), Point3::new(1.0, 0.0, 0.0),
//!     0.0, 1.0, SegId(0), TrajId(0),
//! ));
//! store.push(Segment::new(
//!     Point3::new(50.0, 0.0, 0.0), Point3::new(51.0, 0.0, 0.0),
//!     0.0, 1.0, SegId(1), TrajId(1),
//! ));
//! let mut queries = SegmentStore::new();
//! queries.push(Segment::new(
//!     Point3::new(0.5, 0.5, 0.0), Point3::new(1.5, 0.5, 0.0),
//!     0.0, 1.0, SegId(0), TrajId(99),
//! ));
//!
//! let device = Device::new(DeviceConfig::tesla_c2075()).unwrap();
//! let dataset = PreparedDataset::new(store);
//! let engine = SearchEngine::build(
//!     &dataset,
//!     Method::GpuTemporal(TemporalIndexConfig { bins: 4 }),
//!     device,
//! ).unwrap();
//!
//! let (matches, report) = engine.search(&queries, 2.0, 10_000).unwrap();
//! assert_eq!(matches.len(), 1); // only the nearby trajectory matches
//! assert!(report.response_seconds() > 0.0);
//! ```

pub use tdts_core as core;
pub use tdts_data as data;
pub use tdts_geom as geom;
pub use tdts_gpu_sim as gpu_sim;
pub use tdts_index_spatial as index_spatial;
pub use tdts_index_spatiotemporal as index_spatiotemporal;
pub use tdts_index_temporal as index_temporal;
pub use tdts_rtree as rtree;
pub use tdts_service as service;

/// The commonly used types in one import.
pub mod prelude {
    pub use tdts_core::{
        brute_force_search, resolve_matches, verify_against_oracle, Method, PreparedDataset,
        QueryBatch, ResolvedMatch, SearchEngine, SearchOutcome, ShardStats, ShardedIndex,
        ShardedIndexConfig, ShardedIndexConfigBuilder, TdtsError, TrajectoryIndex,
    };
    pub use tdts_data::{read_csv, selectivity, selectivity_sweep, write_csv, SelectivityPoint};
    pub use tdts_data::{
        MergerConfig, RandomDenseConfig, RandomWalkConfig, Scenario, ScenarioKind,
    };
    pub use tdts_geom::{
        within_distance, MatchRecord, Mbb, Point3, SegId, Segment, SegmentStore, ShardPlan,
        ShardedStore, TimeInterval, TrajId, DOMAIN_BOUND,
    };
    pub use tdts_gpu_sim::{
        Device, DeviceConfig, Finding, FindingKind, KernelShape, LoadBalance, Phase,
        RoutingSummary, SanitizerMode, SanitizerReport, SearchError, SearchReport,
    };
    pub use tdts_index_spatial::{FsgConfig, GpuSpatialConfig};
    pub use tdts_index_spatiotemporal::SpatioTemporalIndexConfig;
    pub use tdts_index_temporal::TemporalIndexConfig;
    pub use tdts_rtree::RTreeConfig;
    pub use tdts_service::{
        QueryService, SearchResponse, SearchTicket, ServiceConfig, ServiceStats,
    };
}
