//! Drop-in `std::sync` shim with a deterministic concurrency model checker.
//!
//! The query service in `tdts-service` is a hand-rolled std-threads
//! pipeline: bounded admission → one pending queue from which each worker
//! cuts its own coalesced batch → first-write-wins oneshot. Its
//! correctness depends on interleavings the
//! OS scheduler almost never produces — a notify fired between a predicate
//! check and the wait that follows it, a shutdown racing a half-filled
//! batch, a spurious wakeup hitting an `if` that should have been a
//! `while`. This crate is the host-side twin of the device sanitizer in
//! `tdts-gpu-sim`: it makes those interleavings *reachable, deterministic,
//! and replayable*.
//!
//! ## Two build modes
//!
//! * **Normal builds** (the default): every type in [`sync`], [`thread`]
//!   and [`time`] is a plain re-export of its `std` counterpart. Zero
//!   cost, byte-identical behavior — code written against the shim
//!   compiles to exactly what it compiled to before.
//! * **`model-check` builds**: the same names resolve to shim types that
//!   route every lock, wait, notify, spawn and join through a virtual
//!   scheduler (`model::check`) which explores thread
//!   interleavings exhaustively up to a preemption bound. Outside a model
//!   execution the shim types fall back to real `std` behavior, so
//!   ordinary tests keep working even with the feature enabled.
//!
//! There are no protocol atomics. A flag that a condvar's waiters check
//! under a lock belongs under that lock, as a plain field; both lost
//! wakeups this checker ever found in the service were such flags stored
//! outside it. Pure-observability counters stay on `std::sync::atomic`,
//! invisible to the scheduler.
//!
//! ## What the checker detects
//!
//! Structured `model::Finding`s in the device-sanitizer style, each with
//! a kebab-case `model::FindingKind` and a replayable schedule token:
//! deadlock, lost Condvar wakeups, waiters leaked past exit, double-send
//! on a oneshot (via [`SendOnce`]), lock-order inversion, and panics that
//! only occur under specific schedules. The `model` module (enabled by the
//! `model-check` feature) documents the scheduler design and what an
//! exhaustive pass does and does not prove.

#![forbid(unsafe_code)]

#[cfg(feature = "model-check")]
pub mod model;
#[cfg(feature = "model-check")]
mod shim;

/// `Mutex`/`Condvar` as used by the service layer. Normal builds re-export
/// `std::sync`; `model-check` builds substitute scheduler-aware types with
/// the same API surface.
pub mod sync {
    #[cfg(feature = "model-check")]
    pub use crate::shim::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
    #[cfg(not(feature = "model-check"))]
    pub use std::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
}

/// `spawn`/`JoinHandle`. Model builds register spawned threads with the
/// active execution so the scheduler controls when they run.
pub mod thread {
    #[cfg(feature = "model-check")]
    pub use crate::shim::{spawn, JoinHandle};
    #[cfg(not(feature = "model-check"))]
    pub use std::thread::{spawn, JoinHandle};
}

/// `Instant` (and `Duration`, always std). Model builds substitute a
/// virtual clock: `now()` reads the execution's logical time, and a timed
/// wait that the scheduler chooses to expire advances it — so `max_delay`
/// flush boundaries are explored without wall-clock sleeps.
pub mod time {
    pub use std::time::Duration;

    #[cfg(feature = "model-check")]
    pub use crate::shim::Instant;
    #[cfg(not(feature = "model-check"))]
    pub use std::time::Instant;
}

/// A first-write-wins send tracker for oneshot-style slots.
///
/// The real oneshot's state machine already makes a second store
/// impossible; this tracker is how the model checker *proves* it. Call
/// [`SendOnce::record_send`] exactly where a value is actually stored into
/// the slot (not on the discarded-duplicate path). Normal builds compile
/// it to a zero-sized no-op; under `model-check`, a second recorded send
/// on the same tracker raises a `double-send` finding
/// (`model::FindingKind::DoubleSend`).
#[cfg(not(feature = "model-check"))]
#[derive(Debug, Default)]
pub struct SendOnce;

#[cfg(not(feature = "model-check"))]
impl SendOnce {
    /// A fresh tracker (no send recorded).
    pub fn new() -> SendOnce {
        SendOnce
    }

    /// Record that a value was stored. No-op in normal builds.
    #[inline]
    pub fn record_send(&self) {}
}

#[cfg(feature = "model-check")]
pub use shim::SendOnce;
