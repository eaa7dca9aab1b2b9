//! Scheduler-aware twins of `std::sync::{Mutex, Condvar}`,
//! `std::thread::spawn` and `std::time::Instant`.
//!
//! Only compiled under the `model-check` feature. Every type here behaves
//! exactly like its `std` counterpart when no model execution is active on
//! the calling thread (so ordinary unit tests keep working with the
//! feature enabled); inside [`crate::model::check`] executions, every
//! operation becomes a schedule point routed through the virtual
//! scheduler.

use std::fmt;
use std::ops::{Add, Deref, DerefMut, Sub};
use std::sync::{
    Condvar as StdCondvar, LockResult, Mutex as StdMutex, MutexGuard as StdMutexGuard, OnceLock,
    PoisonError,
};
use std::time::Duration;

use crate::model::{self, ObjKind, Registration, WakeReason};

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// Model-aware `std::sync::Mutex` twin.
pub struct Mutex<T: ?Sized> {
    reg: Registration,
    data: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// See `std::sync::Mutex::new`.
    pub fn new(value: T) -> Mutex<T> {
        Mutex { reg: Registration::new(), data: StdMutex::new(value) }
    }

    /// See `std::sync::Mutex::into_inner`.
    pub fn into_inner(self) -> LockResult<T> {
        self.data.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// See `std::sync::Mutex::lock`. Inside a model execution this is a
    /// schedule point and may block (virtually) on the model owner.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        if let Some(ctx) = model::current_op() {
            let id = ctx.register(&self.reg, ObjKind::Mutex);
            ctx.lock(id);
            // Model ownership granted: the std lock below is uncontended
            // by construction (only the active thread runs).
            let inner = match self.data.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            Ok(MutexGuard { lock: self, inner: Some(inner), model: Some(id) })
        } else {
            match self.data.lock() {
                Ok(inner) => Ok(MutexGuard { lock: self, inner: Some(inner), model: None }),
                Err(poisoned) if std::thread::panicking() => {
                    // Drop-path locking while an execution aborts: a model
                    // thread's unwind poisoned the std mutex. Recover —
                    // the caller's `.unwrap()` would otherwise panic
                    // inside a destructor during cleanup and abort the
                    // whole process.
                    Ok(MutexGuard { lock: self, inner: Some(poisoned.into_inner()), model: None })
                }
                Err(poisoned) => Err(PoisonError::new(MutexGuard {
                    lock: self,
                    inner: Some(poisoned.into_inner()),
                    model: None,
                })),
            }
        }
    }

    /// See `std::sync::Mutex::get_mut`.
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.data.get_mut()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.data.fmt(f)
    }
}

/// Guard returned by [`Mutex::lock`]; releasing it is a schedule point in
/// model executions.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<StdMutexGuard<'a, T>>,
    /// `Some(model mutex id)` when acquired inside a model execution.
    model: Option<usize>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard accessed after release")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard accessed after release")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the std lock first so the next model owner cannot
        // contend on it.
        self.inner = None;
        if let Some(id) = self.model.take() {
            if let Some(ctx) = model::current() {
                if std::thread::panicking() {
                    // Unwinding (user panic or ModelAbort): release
                    // without a schedule point — injecting another abort
                    // panic here would double-panic.
                    ctx.unlock_quiet(id);
                } else {
                    ctx.unlock(id);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// Result of [`Condvar::wait_timeout`], mirroring
/// `std::sync::WaitTimeoutResult`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// Whether the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Model-aware `std::sync::Condvar` twin.
#[derive(Default)]
pub struct Condvar {
    reg: Registration,
    std: StdCondvar,
}

impl Condvar {
    /// See `std::sync::Condvar::new`.
    pub fn new() -> Condvar {
        Condvar::default()
    }

    /// See `std::sync::Condvar::wait`. In model executions the wait
    /// registers with the scheduler; wakeups (notified or injected
    /// spurious) are scheduling choices.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        match self.wait_inner(guard, None) {
            Ok((guard, _)) => Ok(guard),
            Err(poisoned) => {
                let (guard, _) = poisoned.into_inner();
                Err(PoisonError::new(guard))
            }
        }
    }

    /// See `std::sync::Condvar::wait_timeout`. In model executions the
    /// timeout never sleeps: expiring it is a scheduling choice that
    /// advances the virtual clock to the deadline.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        self.wait_inner(guard, Some(timeout))
    }

    fn wait_inner<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        timeout: Option<Duration>,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        match (guard.model, model::current_op()) {
            (Some(mutex_id), Some(ctx)) => {
                let cv_id = ctx.register(&self.reg, ObjKind::Condvar);
                let lock = guard.lock;
                // Defuse the guard: drop the std lock here; model
                // ownership is released atomically with waiter
                // registration inside `cv_wait`.
                guard.inner = None;
                guard.model = None;
                drop(guard);
                let reason = ctx.cv_wait(cv_id, mutex_id, timeout);
                let reacquired = match lock.lock() {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
                Ok((reacquired, WaitTimeoutResult(reason == WakeReason::TimedOut)))
            }
            (Some(_), None) => {
                // A model-acquired guard waited on while the thread is
                // unwinding: the execution is aborting, so never park.
                // Report a timeout so deadline-style loops exit.
                Ok((guard, WaitTimeoutResult(true)))
            }
            (None, _) => {
                let lock = guard.lock;
                let inner = guard.inner.take().expect("guard accessed after release");
                guard.model = None;
                drop(guard);
                let rebuild = |inner: StdMutexGuard<'a, T>| MutexGuard {
                    lock,
                    inner: Some(inner),
                    model: None,
                };
                match timeout {
                    None => match self.std.wait(inner) {
                        Ok(inner) => Ok((rebuild(inner), WaitTimeoutResult(false))),
                        Err(poisoned) => Err(PoisonError::new((
                            rebuild(poisoned.into_inner()),
                            WaitTimeoutResult(false),
                        ))),
                    },
                    Some(timeout) => match self.std.wait_timeout(inner, timeout) {
                        Ok((inner, timed_out)) => {
                            Ok((rebuild(inner), WaitTimeoutResult(timed_out.timed_out())))
                        }
                        Err(poisoned) => {
                            let (inner, timed_out) = poisoned.into_inner();
                            Err(PoisonError::new((
                                rebuild(inner),
                                WaitTimeoutResult(timed_out.timed_out()),
                            )))
                        }
                    },
                }
            }
        }
    }

    /// See `std::sync::Condvar::notify_one`.
    pub fn notify_one(&self) {
        if let Some(ctx) = model::current_op() {
            let cv_id = ctx.register(&self.reg, ObjKind::Condvar);
            ctx.notify(cv_id, false);
        } else {
            self.std.notify_one();
        }
    }

    /// See `std::sync::Condvar::notify_all`.
    pub fn notify_all(&self) {
        if let Some(ctx) = model::current_op() {
            let cv_id = ctx.register(&self.reg, ObjKind::Condvar);
            ctx.notify(cv_id, true);
        } else {
            self.std.notify_all();
        }
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// thread::spawn / JoinHandle
// ---------------------------------------------------------------------------

enum HandleInner<T> {
    Std(std::thread::JoinHandle<T>),
    Model { id: usize, slot: std::sync::Arc<StdMutex<Option<T>>> },
}

/// Model-aware `std::thread::JoinHandle` twin.
pub struct JoinHandle<T>(HandleInner<T>);

impl<T> JoinHandle<T> {
    /// See `std::thread::JoinHandle::join`. In model executions this is a
    /// schedule point that blocks (virtually) until the target finishes.
    pub fn join(self) -> std::thread::Result<T> {
        match self.0 {
            HandleInner::Std(handle) => handle.join(),
            HandleInner::Model { id, slot } => {
                // Unwinding (drop-path join while the execution aborts):
                // skip the schedule point; the target thread is already
                // unwinding too and the driver waits for it to exit.
                if let Some(ctx) = model::current_op() {
                    ctx.join(id);
                }
                let value = match slot.lock() {
                    Ok(mut guard) => guard.take(),
                    Err(poisoned) => poisoned.into_inner().take(),
                };
                // A joined thread that finished without storing a value
                // panicked (aborting the execution) or the join was
                // bypassed mid-abort; report it like a panicked join.
                match value {
                    Some(value) => Ok(value),
                    None => Err(Box::new("model thread produced no result (execution aborted)")
                        as Box<dyn std::any::Any + Send>),
                }
            }
        }
    }
}

impl<T> fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JoinHandle").finish_non_exhaustive()
    }
}

/// Model-aware `std::thread::spawn` twin. Inside a model execution the
/// thread is registered with the scheduler and only runs when scheduled.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    if let Some(ctx) = model::current_op() {
        let slot = std::sync::Arc::new(StdMutex::new(None));
        let sink = std::sync::Arc::clone(&slot);
        let id = ctx.spawn(Box::new(move || {
            let value = f();
            match sink.lock() {
                Ok(mut guard) => *guard = Some(value),
                Err(poisoned) => *poisoned.into_inner() = Some(value),
            }
        }));
        JoinHandle(HandleInner::Model { id, slot })
    } else {
        JoinHandle(HandleInner::Std(std::thread::spawn(f)))
    }
}

// ---------------------------------------------------------------------------
// Instant (virtual clock)
// ---------------------------------------------------------------------------

/// Model-aware `std::time::Instant` twin backed by nanoseconds.
///
/// Inside a model execution, `now()` reads the execution's logical clock —
/// which only advances when the scheduler expires a timed wait. Outside,
/// it reads real monotonic time against a process-wide anchor. Unlike
/// `std`, subtracting a later instant saturates to zero instead of
/// panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Instant {
    nanos: u64,
}

impl Instant {
    /// Current logical (in-model) or monotonic (outside) time.
    pub fn now() -> Instant {
        if let Some(ctx) = model::current() {
            return Instant { nanos: ctx.now_nanos() };
        }
        static ANCHOR: OnceLock<std::time::Instant> = OnceLock::new();
        let anchor = *ANCHOR.get_or_init(std::time::Instant::now);
        let elapsed = std::time::Instant::now().duration_since(anchor);
        Instant { nanos: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX) }
    }

    /// See `std::time::Instant::elapsed`.
    pub fn elapsed(&self) -> Duration {
        Instant::now() - *self
    }

    /// See `std::time::Instant::duration_since` (saturating, not
    /// panicking).
    pub fn duration_since(&self, earlier: Instant) -> Duration {
        Duration::from_nanos(self.nanos.saturating_sub(earlier.nanos))
    }

    /// See `std::time::Instant::saturating_duration_since`.
    pub fn saturating_duration_since(&self, earlier: Instant) -> Duration {
        self.duration_since(earlier)
    }

    /// See `std::time::Instant::checked_duration_since`.
    pub fn checked_duration_since(&self, earlier: Instant) -> Option<Duration> {
        self.nanos.checked_sub(earlier.nanos).map(Duration::from_nanos)
    }

    /// See `std::time::Instant::checked_add`.
    pub fn checked_add(&self, duration: Duration) -> Option<Instant> {
        let nanos = u64::try_from(duration.as_nanos()).ok()?;
        self.nanos.checked_add(nanos).map(|nanos| Instant { nanos })
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;

    fn add(self, rhs: Duration) -> Instant {
        let nanos = u64::try_from(rhs.as_nanos()).unwrap_or(u64::MAX);
        Instant { nanos: self.nanos.saturating_add(nanos) }
    }
}

impl Sub<Duration> for Instant {
    type Output = Instant;

    fn sub(self, rhs: Duration) -> Instant {
        let nanos = u64::try_from(rhs.as_nanos()).unwrap_or(u64::MAX);
        Instant { nanos: self.nanos.saturating_sub(nanos) }
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;

    fn sub(self, rhs: Instant) -> Duration {
        self.duration_since(rhs)
    }
}

// ---------------------------------------------------------------------------
// SendOnce
// ---------------------------------------------------------------------------

/// Model-check build of the first-write-wins tracker: a second
/// [`SendOnce::record_send`] inside a model execution raises a
/// [`crate::model::FindingKind::DoubleSend`] finding. Outside an
/// execution it is a no-op, like the normal build.
#[derive(Debug, Default)]
pub struct SendOnce {
    reg: Registration,
}

impl SendOnce {
    /// A fresh tracker (no send recorded).
    pub fn new() -> SendOnce {
        SendOnce::default()
    }

    /// Record that a value was stored into the tracked slot.
    pub fn record_send(&self) {
        if let Some(ctx) = model::current_op() {
            let cell = ctx.register(&self.reg, ObjKind::SendCell);
            ctx.send_event(cell);
        }
    }
}
