//! A deterministic software GPU.
//!
//! The paper this workspace reproduces runs its search kernels in OpenCL on
//! an NVIDIA Tesla C2075. No GPU is available (and Rust GPU compute crates
//! remain immature), so this crate substitutes a *software model* of that
//! device that preserves every behaviour the paper's evaluation depends on:
//!
//! * **Real parallel execution** — kernels are plain Rust closures executed
//!   on every host core ([`tdts_geom::par`]), one closure invocation per GPU
//!   thread, grouped into 32-wide warps. Results are therefore real, not
//!   modelled.
//! * **SIMT cost accounting** — every lane records instruction, global
//!   memory, and atomic counters; a warp's cost is the *maximum* over its
//!   lanes multiplied by a divergence factor (the number of distinct control
//!   paths taken inside the warp), which models lock-step execution.
//! * **Global memory with explicit capacity** — buffers are allocated from a
//!   fixed-size simulated device memory; allocation fails with
//!   [`OutOfDeviceMemory`] when the device is full,
//!   exactly the constraint that forces the paper's fixed result buffers.
//! * **Device atomics and fixed-capacity result buffers** — kernels append
//!   to result buffers through an atomic cursor; appends past capacity set an
//!   overflow flag instead of growing the buffer, which is what drives the
//!   paper's `redo`-queue kernel re-invocation and incremental query
//!   processing.
//! * **A calibrated response-time model** — kernel launch overhead, PCIe
//!   transfer latency/bandwidth, and per-operation cycle costs default to
//!   Tesla C2075-era figures ([`DeviceConfig::tesla_c2075`]); simulated times
//!   are deterministic functions of the recorded counters, independent of
//!   host scheduling.
//!
//! What the model deliberately ignores: caches, memory-level parallelism
//! beyond a flat occupancy factor, shared memory, and instruction mix. The
//! paper's comparative results are driven by candidate-set sizes, buffer
//! overflows, and transfer volumes — all of which are captured exactly.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod config;
pub mod counters;
pub mod device;
pub mod host;
pub mod launch;
pub mod ledger;
pub mod memory;
pub mod redo;
pub mod report;
pub mod sanitizer;
pub mod workqueue;

pub use config::{DeviceConfig, KernelShape};
pub use counters::{Counters, Lane};
pub use device::Device;
pub use host::HostWork;
pub use launch::{replay_earliest_free, LaunchReport, Warp, MAX_WARP_LANES};
pub use ledger::{Phase, ResponseTime};
pub use memory::{
    DeviceBuffer, OutOfDeviceMemory, PartitionedScratch, Reserved, ResultBuffer, ScratchPartition,
    WarpStash,
};
pub use redo::{NextBatch, RedoSchedule};
pub use report::{LoadBalance, RoutingSummary, SearchError, SearchReport};
pub use sanitizer::{Finding, FindingKind, Sanitizer, SanitizerMode, SanitizerReport};
pub use workqueue::{Tile, WorkQueue};
