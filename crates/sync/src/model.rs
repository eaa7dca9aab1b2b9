//! A deterministic concurrency model checker, loom-style but hand-rolled
//! on `std` only.
//!
//! [`check`] runs a closure (the "root thread") under a virtual scheduler.
//! Every shim operation — lock, unlock, Condvar wait/notify, spawn, join —
//! is a *schedule point*: the scheduler decides which thread runs next,
//! and only one thread ever runs at a time. The set of decisions taken is
//! a path in a tree; the checker explores that tree depth-first,
//! backtracking over the last decision with an untried alternative, until
//! the tree is exhausted or a bound is hit.
//!
//! ## What bounds the search
//!
//! * **Preemption bound** ([`ModelConfig::preemptions`]): switching away
//!   from a thread that could have kept running costs one preemption;
//!   schedules above the bound are pruned. Switches at blocking points
//!   (the running thread cannot continue) are free and always fully
//!   explored. Empirically almost all concurrency bugs manifest within
//!   two preemptions (the CHESS observation), which is what makes the
//!   search tractable.
//! * **Spurious-wakeup budget** ([`ModelConfig::spurious_wakeups`]): a
//!   Condvar waiter may be woken with no notify, at most this many times
//!   per execution. One spurious wakeup is enough to distinguish
//!   `while`-guarded waits from `if`-guarded ones. Spurious wakeups never
//!   count as *progress*: a thread whose only wake source is a spurious
//!   wakeup is classified as stuck, because `std` permits spurious
//!   wakeups but does not guarantee them.
//! * **Timed waits** never deadlock: expiring the timeout is always an
//!   available choice, and taking it advances the virtual clock to the
//!   wait's deadline — `max_delay`-style flush boundaries are explored
//!   without wall-clock sleeps.
//!
//! ## What a clean pass proves
//!
//! Within the preemption bound and the modelled semantics (threads
//! serialised, FIFO notify order), every explored schedule is free
//! of the finding kinds below. It is a *bounded* proof: schedules needing
//! more preemptions, weak-memory reorderings, or OS-level wake reordering
//! are out of model. See DESIGN.md §5 "Host concurrency model".
//!
//! ## Findings
//!
//! Failures are structured [`Finding`]s in the device-sanitizer style:
//! a kebab-case [`FindingKind`], a human-readable detail, and a schedule
//! token that replays the exact failing interleaving via
//! [`ModelConfig::replay`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::time::Duration;

/// What the checker can detect. Rendered kebab-case, like the device
/// sanitizer's finding kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// No thread can make progress and at least one is blocked on a lock
    /// or a join.
    Deadlock,
    /// A thread is blocked forever in a Condvar wait although the condvar
    /// was notified during the execution — the notify fired when the
    /// waiter was not yet (or no longer) waiting.
    LostWakeup,
    /// A thread is blocked forever in a Condvar wait and the condvar was
    /// never notified at all: the execution exited with a pending waiter
    /// no one will ever wake.
    PendingWaiterLeak,
    /// A [`SendOnce`](crate::SendOnce) tracker recorded two value stores:
    /// the oneshot's first-write-wins contract was violated.
    DoubleSend,
    /// Two locks were taken in opposite orders somewhere in the
    /// execution — a potential deadlock even on schedules where it does
    /// not manifest.
    LockOrderInversion,
    /// A thread panicked under this schedule (failed assertion, unwrap on
    /// protocol state, arithmetic overflow, ...).
    ThreadPanic,
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FindingKind::Deadlock => "deadlock",
            FindingKind::LostWakeup => "lost-wakeup",
            FindingKind::PendingWaiterLeak => "pending-waiter-leak",
            FindingKind::DoubleSend => "double-send",
            FindingKind::LockOrderInversion => "lock-order-inversion",
            FindingKind::ThreadPanic => "thread-panic",
        })
    }
}

/// One detected defect, with the schedule token that reproduces it.
#[derive(Debug, Clone)]
pub struct Finding {
    /// What went wrong.
    pub kind: FindingKind,
    /// Human-readable context: which threads, which objects.
    pub detail: String,
    /// Replay token (the scheduler's choices, `.`-separated); feed to
    /// [`ModelConfig::replay`] to re-run exactly this interleaving.
    pub schedule: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} (replay `{}`)", self.kind, self.detail, self.schedule)
    }
}

/// The outcome of a [`check`] run.
#[derive(Debug, Clone)]
pub struct ModelReport {
    /// The name passed to [`check`].
    pub name: String,
    /// Executions (distinct schedules) run.
    pub executions: usize,
    /// Schedule points taken across all executions.
    pub schedule_points: u64,
    /// Whether the schedule tree was exhausted within the bounds. `false`
    /// when a finding stopped the search, a replay ran a single schedule,
    /// or [`ModelConfig::max_executions`] was hit.
    pub complete: bool,
    /// The first finding encountered, if any.
    pub finding: Option<Finding>,
}

impl ModelReport {
    /// Panic (failing the enclosing test) if the search found anything.
    pub fn assert_clean(&self) {
        if let Some(finding) = &self.finding {
            panic!(
                "model check `{}` found {finding} after {} execution(s)",
                self.name, self.executions
            );
        }
    }

    /// Assert the search found exactly `kind`; returns the finding.
    pub fn expect_finding(&self, kind: FindingKind) -> &Finding {
        match &self.finding {
            Some(finding) if finding.kind == kind => finding,
            Some(finding) => {
                panic!("model check `{}`: expected a {kind} finding, got {finding}", self.name)
            }
            None => panic!(
                "model check `{}`: expected a {kind} finding, but {} execution(s) ran clean",
                self.name, self.executions
            ),
        }
    }
}

impl fmt::Display for ModelReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "model check `{}`: {} execution(s), {} schedule point(s), {}",
            self.name,
            self.executions,
            self.schedule_points,
            match &self.finding {
                Some(finding) => format!("FAILED {finding}"),
                None if self.complete => "exhaustive within bounds, clean".to_string(),
                None => "bounded out, clean so far".to_string(),
            }
        )
    }
}

/// Search bounds and replay control for [`check`].
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Maximum preemptive context switches per execution (switches at
    /// blocking points are free).
    pub preemptions: usize,
    /// Maximum spurious Condvar wakeups injected per execution.
    pub spurious_wakeups: usize,
    /// Hard cap on explored executions; the report comes back
    /// `complete: false` when hit.
    pub max_executions: usize,
    /// Hard cap on schedule points in one execution; exceeding it fails
    /// the check loudly (it means a livelock under the model).
    pub max_steps: usize,
    /// A schedule token from a [`Finding`]; when set, runs exactly that
    /// interleaving once instead of searching.
    pub replay: Option<String>,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            preemptions: 2,
            spurious_wakeups: 1,
            max_executions: 100_000,
            max_steps: 20_000,
            replay: None,
        }
    }
}

impl ModelConfig {
    /// Set the preemption bound.
    pub fn preemptions(mut self, n: usize) -> Self {
        self.preemptions = n;
        self
    }

    /// Set the per-execution spurious-wakeup budget.
    pub fn spurious_wakeups(mut self, n: usize) -> Self {
        self.spurious_wakeups = n;
        self
    }

    /// Set the execution cap.
    pub fn max_executions(mut self, n: usize) -> Self {
        self.max_executions = n;
        self
    }

    /// Replay one exact schedule from a finding's token.
    pub fn replay(mut self, token: &str) -> Self {
        self.replay = Some(token.to_string());
        self
    }
}

// ---------------------------------------------------------------------------
// Execution state
// ---------------------------------------------------------------------------

/// Why a Condvar wait returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WakeReason {
    /// A notify selected this waiter.
    Notified,
    /// The scheduler injected a spurious wakeup.
    Spurious,
    /// The wait's timeout expired (virtual clock advanced to it).
    TimedOut,
}

#[derive(Debug, Clone, Copy)]
enum TState {
    Runnable,
    BlockedMutex(usize),
    BlockedCv { cv: usize, deadline: Option<u64>, wake: Option<WakeReason> },
    BlockedJoin(usize),
    Finished,
}

#[derive(Debug, Default)]
struct MutexState {
    owner: Option<usize>,
}

#[derive(Debug, Default)]
struct CvState {
    waiters: VecDeque<usize>,
    notifies: u64,
    wasted_notifies: u64,
}

#[derive(Debug, Clone, Copy)]
struct Step {
    chosen: usize,
    alternatives: usize,
}

struct ExecState {
    threads: Vec<TState>,
    active: Option<usize>,
    mutexes: Vec<MutexState>,
    condvars: Vec<CvState>,
    send_cells: Vec<bool>,
    /// Per-thread stack of held mutex ids.
    held: Vec<Vec<usize>>,
    /// Observed acquisition-order edges `held -> acquiring`.
    lock_edges: BTreeMap<usize, BTreeSet<usize>>,
    /// Forced decision prefix (DFS backtracking / replay).
    path: Vec<usize>,
    steps: Vec<Step>,
    preemptions_used: usize,
    spurious_used: usize,
    clock_nanos: u64,
    finding: Option<Finding>,
    aborted: bool,
    step_limit_hit: bool,
    /// OS threads that have not yet exited their wrapper.
    os_live: usize,
}

struct Exec {
    epoch: u64,
    config: ModelConfig,
    state: StdMutex<ExecState>,
    cv: StdCondvar,
}

/// Sentinel panic payload used to unwind model threads when an execution
/// aborts; swallowed by the thread wrapper, never user-visible.
struct ModelAbort;

fn abort_panic() -> ! {
    panic::panic_any(ModelAbort)
}

/// Per-thread handle into the active execution.
#[derive(Clone)]
pub(crate) struct Ctx {
    exec: Arc<Exec>,
    id: usize,
}

thread_local! {
    static CURRENT: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// The calling thread's model context, if it is a model thread.
pub(crate) fn current() -> Option<Ctx> {
    CURRENT.with(|c| c.borrow().clone())
}

/// [`current`], but `None` while the thread is unwinding. Shim operations
/// gate on this: drop-path code running during a panic (e.g. a service's
/// `Drop` calling `shutdown()`) must not hit schedule points — the
/// execution is already aborting (the panic hook aborted it at panic
/// initiation), and injecting the abort unwind into an active unwind
/// would double-panic. Bypassed operations fall back to plain `std`
/// behavior, which is safe precisely because the abort has already woken
/// every parked thread to release its locks.
pub(crate) fn current_op() -> Option<Ctx> {
    if std::thread::panicking() {
        None
    } else {
        current()
    }
}

static EPOCH: AtomicU64 = AtomicU64::new(1);

/// The object kinds a [`Registration`] can resolve to.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ObjKind {
    Mutex,
    Condvar,
    SendCell,
}

/// Lazy per-execution identity for a shim object. Objects are usually
/// created fresh inside the checked closure; ones that outlive an
/// execution re-register on first touch in the next.
#[derive(Debug, Default)]
pub(crate) struct Registration {
    slot: StdMutex<Option<(u64, usize)>>,
}

impl Registration {
    pub(crate) fn new() -> Registration {
        Registration::default()
    }
}

// ---------------------------------------------------------------------------
// Scheduler core
// ---------------------------------------------------------------------------

fn lock_state(exec: &Exec) -> StdMutexGuard<'_, ExecState> {
    // The state lock is internal to the checker; a poisoning panic can
    // only be the controlled ModelAbort unwind, so the state is sound.
    match exec.state.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Exec {
    fn new(config: ModelConfig, path: Vec<usize>) -> Exec {
        Exec {
            epoch: EPOCH.fetch_add(1, Ordering::Relaxed),
            config,
            state: StdMutex::new(ExecState {
                threads: vec![TState::Runnable],
                active: Some(0),
                mutexes: Vec::new(),
                condvars: Vec::new(),
                send_cells: Vec::new(),
                held: vec![Vec::new()],
                lock_edges: BTreeMap::new(),
                path,
                steps: Vec::new(),
                preemptions_used: 0,
                spurious_used: 0,
                clock_nanos: 0,
                finding: None,
                aborted: false,
                step_limit_hit: false,
                os_live: 1,
            }),
            cv: StdCondvar::new(),
        }
    }

    /// Can `t` make progress on its own — without relying on a spurious
    /// wakeup? Spurious wakeups are *permitted* by `std::sync::Condvar`
    /// but never guaranteed, so a protocol that needs one to advance is
    /// broken; only hard-schedulable threads count against termination.
    fn hard_schedulable(&self, st: &ExecState, t: usize) -> bool {
        match st.threads[t] {
            TState::Runnable => true,
            TState::BlockedMutex(m) => st.mutexes[m].owner.is_none(),
            TState::BlockedCv { wake: Some(_), .. } => true,
            TState::BlockedCv { wake: None, deadline: Some(_), .. } => true,
            TState::BlockedCv { wake: None, deadline: None, .. } => false,
            TState::BlockedJoin(target) => matches!(st.threads[target], TState::Finished),
            TState::Finished => false,
        }
    }

    /// Hard-schedulable, or wakeable by an in-budget spurious wakeup.
    fn soft_schedulable(&self, st: &ExecState, t: usize) -> bool {
        if self.hard_schedulable(st, t) {
            return true;
        }
        matches!(st.threads[t], TState::BlockedCv { wake: None, deadline: None, .. })
            && st.spurious_used < self.config.spurious_wakeups
    }

    /// The scheduling decision: pick the next thread to run, recording the
    /// step for DFS backtracking. `me` is the calling thread; whether it
    /// is itself schedulable decides preemption accounting.
    fn pick(&self, st: &mut ExecState, me: usize) {
        if st.aborted {
            return;
        }
        if st.steps.len() >= self.config.max_steps {
            st.step_limit_hit = true;
            self.abort(st);
            return;
        }
        if !(0..st.threads.len()).any(|t| self.hard_schedulable(st, t)) {
            if st.threads.iter().all(|t| matches!(t, TState::Finished)) {
                st.active = None;
                self.cv.notify_all();
            } else {
                self.classify_stuck(st);
            }
            return;
        }
        let me_hard = self.hard_schedulable(st, me);
        let mut candidates: Vec<usize> = Vec::new();
        if self.soft_schedulable(st, me) {
            candidates.push(me);
        }
        if !me_hard || st.preemptions_used < self.config.preemptions {
            for t in 0..st.threads.len() {
                if t != me && self.soft_schedulable(st, t) {
                    candidates.push(t);
                }
            }
        }
        let step_index = st.steps.len();
        let chosen = if step_index < st.path.len() {
            st.path[step_index].min(candidates.len() - 1)
        } else {
            0
        };
        st.steps.push(Step { chosen, alternatives: candidates.len() });
        let next = candidates[chosen];
        if me_hard && next != me {
            st.preemptions_used += 1;
        }
        // Selection side effects for condvar waiters chosen without a
        // pending notify: this selection *is* the timeout or the spurious
        // wakeup.
        if let TState::BlockedCv { cv, deadline, wake: wake @ None } = &mut st.threads[next] {
            if let Some(at) = *deadline {
                *wake = Some(WakeReason::TimedOut);
                st.clock_nanos = st.clock_nanos.max(at);
            } else {
                *wake = Some(WakeReason::Spurious);
                st.spurious_used += 1;
            }
            let cv = *cv;
            st.condvars[cv].waiters.retain(|&w| w != next);
        }
        st.active = Some(next);
        self.cv.notify_all();
    }

    /// Terminal state with live-but-blocked threads: classify and abort.
    fn classify_stuck(&self, st: &mut ExecState) {
        let mut finding = None;
        for (t, state) in st.threads.iter().enumerate() {
            if let TState::BlockedCv { cv, .. } = state {
                let cv_state = &st.condvars[*cv];
                finding = Some(if cv_state.notifies > 0 {
                    (
                        FindingKind::LostWakeup,
                        format!(
                            "thread {t} is blocked forever on condvar #{cv} although it was \
                             notified {} time(s) ({} wasted with no waiter present)",
                            cv_state.notifies, cv_state.wasted_notifies
                        ),
                    )
                } else {
                    (
                        FindingKind::PendingWaiterLeak,
                        format!(
                            "thread {t} is blocked forever on condvar #{cv}, which was never \
                             notified: the execution exited with a pending waiter"
                        ),
                    )
                });
                break;
            }
        }
        let (kind, detail) = finding.unwrap_or_else(|| {
            let blocked: Vec<String> = st
                .threads
                .iter()
                .enumerate()
                .filter_map(|(t, state)| match state {
                    TState::BlockedMutex(m) => Some(format!("thread {t} wants mutex #{m}")),
                    TState::BlockedJoin(j) => Some(format!("thread {t} joins thread {j}")),
                    _ => None,
                })
                .collect();
            (FindingKind::Deadlock, format!("no runnable threads: {}", blocked.join(", ")))
        });
        self.report(st, kind, detail);
    }

    fn report(&self, st: &mut ExecState, kind: FindingKind, detail: String) {
        if st.finding.is_none() {
            st.finding = Some(Finding { kind, detail, schedule: String::new() });
        }
        self.abort(st);
    }

    fn abort(&self, st: &mut ExecState) {
        st.aborted = true;
        st.active = None;
        self.cv.notify_all();
    }

    /// Run one scheduling decision, then block until this thread is the
    /// active one again (or the execution aborted).
    fn reschedule<'a>(
        &'a self,
        mut st: StdMutexGuard<'a, ExecState>,
        me: usize,
    ) -> StdMutexGuard<'a, ExecState> {
        self.pick(&mut st, me);
        while !st.aborted && st.active != Some(me) {
            st = match self.cv.wait(st) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        if st.aborted {
            drop(st);
            abort_panic();
        }
        st
    }

    /// A plain pre-operation schedule point for thread `me`.
    fn point(&self, me: usize) {
        let st = lock_state(self);
        drop(self.reschedule(st, me));
    }

    fn wait_until_active(&self, me: usize) {
        let mut st = lock_state(self);
        while !st.aborted && st.active != Some(me) {
            st = match self.cv.wait(st) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        if st.aborted {
            drop(st);
            abort_panic();
        }
    }

    // -- operations (called by the shim through Ctx) --

    fn register(&self, reg: &Registration, kind: ObjKind) -> usize {
        let mut slot = match reg.slot.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some((epoch, id)) = *slot {
            if epoch == self.epoch {
                return id;
            }
        }
        let mut st = lock_state(self);
        let id = match kind {
            ObjKind::Mutex => {
                st.mutexes.push(MutexState::default());
                st.mutexes.len() - 1
            }
            ObjKind::Condvar => {
                st.condvars.push(CvState::default());
                st.condvars.len() - 1
            }
            ObjKind::SendCell => {
                st.send_cells.push(false);
                st.send_cells.len() - 1
            }
        };
        drop(st);
        *slot = Some((self.epoch, id));
        id
    }

    fn lock(&self, me: usize, m: usize) {
        self.point(me);
        let mut st = lock_state(self);
        // Record the acquisition-order edge and look for an inversion
        // before blocking: the hazard is real even on schedules where the
        // deadlock never manifests.
        if !st.held[me].is_empty() && !st.held[me].contains(&m) {
            for h in st.held[me].clone() {
                st.lock_edges.entry(h).or_default().insert(m);
            }
            if let Some(path) = edge_path(&st.lock_edges, m, *st.held[me].last().unwrap()) {
                let held = *st.held[me].last().unwrap();
                let detail = format!(
                    "thread {me} acquires mutex #{m} while holding mutex #{held}, but the \
                     opposite order #{path} was also observed this execution",
                    path = path.iter().map(usize::to_string).collect::<Vec<_>>().join(" -> #")
                );
                self.report(&mut st, FindingKind::LockOrderInversion, detail);
                drop(st);
                abort_panic();
            }
        }
        loop {
            if st.mutexes[m].owner.is_none() {
                st.mutexes[m].owner = Some(me);
                st.threads[me] = TState::Runnable;
                st.held[me].push(m);
                return;
            }
            st.threads[me] = TState::BlockedMutex(m);
            st = self.reschedule(st, me);
            st.threads[me] = TState::Runnable;
        }
    }

    fn unlock(&self, me: usize, m: usize) {
        self.point(me);
        let mut st = lock_state(self);
        self.release_mutex(&mut st, me, m);
    }

    /// Release without a schedule point — used from guard drops during an
    /// unwind, where injecting a panic would double-panic.
    fn unlock_quiet(&self, me: usize, m: usize) {
        let mut st = lock_state(self);
        self.release_mutex(&mut st, me, m);
        self.cv.notify_all();
    }

    fn release_mutex(&self, st: &mut ExecState, me: usize, m: usize) {
        if st.mutexes[m].owner == Some(me) {
            st.mutexes[m].owner = None;
        }
        if let Some(pos) = st.held[me].iter().rposition(|&h| h == m) {
            st.held[me].remove(pos);
        }
    }

    /// The atomic release-and-wait half of a Condvar wait. The caller has
    /// already dropped the inner `std` guard; model ownership of `m` is
    /// released here, atomically with waiter registration. The caller
    /// re-acquires the mutex through the ordinary [`Exec::lock`] path
    /// (the shim calls `Mutex::lock` on return), which mirrors the real
    /// Condvar contract of contending for the lock after a wakeup.
    fn cv_wait(&self, me: usize, cv: usize, m: usize, timeout: Option<Duration>) -> WakeReason {
        self.point(me);
        let mut st = lock_state(self);
        let deadline = timeout.map(|t| {
            st.clock_nanos.saturating_add(u64::try_from(t.as_nanos()).unwrap_or(u64::MAX))
        });
        st.condvars[cv].waiters.push_back(me);
        st.threads[me] = TState::BlockedCv { cv, deadline, wake: None };
        self.release_mutex(&mut st, me, m);
        st = self.reschedule(st, me);
        let reason = match st.threads[me] {
            TState::BlockedCv { wake: Some(reason), .. } => reason,
            ref other => unreachable!("woken condvar waiter in state {other:?}"),
        };
        st.threads[me] = TState::Runnable;
        reason
    }

    fn notify(&self, me: usize, cv: usize, all: bool) {
        self.point(me);
        let mut st = lock_state(self);
        st.condvars[cv].notifies += 1;
        if st.condvars[cv].waiters.is_empty() {
            st.condvars[cv].wasted_notifies += 1;
            return;
        }
        let woken: Vec<usize> = if all {
            st.condvars[cv].waiters.drain(..).collect()
        } else {
            st.condvars[cv].waiters.pop_front().into_iter().collect()
        };
        for t in woken {
            if let TState::BlockedCv { wake: wake @ None, .. } = &mut st.threads[t] {
                *wake = Some(WakeReason::Notified);
            }
        }
    }

    fn spawn(&self, me: usize, body: Box<dyn FnOnce() + Send>) -> usize {
        self.point(me);
        let mut st = lock_state(self);
        let id = st.threads.len();
        st.threads.push(TState::Runnable);
        st.held.push(Vec::new());
        st.os_live += 1;
        drop(st);
        let exec = self.arc_self();
        std::thread::spawn(move || run_thread(exec, id, body));
        id
    }

    fn join(&self, me: usize, target: usize) {
        self.point(me);
        let mut st = lock_state(self);
        loop {
            if matches!(st.threads[target], TState::Finished) {
                return;
            }
            st.threads[me] = TState::BlockedJoin(target);
            st = self.reschedule(st, me);
            st.threads[me] = TState::Runnable;
        }
    }

    fn send_event(&self, me: usize, cell: usize) {
        let mut st = lock_state(self);
        if st.send_cells[cell] {
            let detail = format!(
                "thread {me} stored a second value into oneshot cell #{cell}: first-write-wins \
                 was violated"
            );
            self.report(&mut st, FindingKind::DoubleSend, detail);
            drop(st);
            abort_panic();
        }
        st.send_cells[cell] = true;
    }

    fn now_nanos(&self) -> u64 {
        lock_state(self).clock_nanos
    }

    /// Called from the panic hook the moment a model thread panics with a
    /// user (non-ModelAbort) payload: record the finding and abort so all
    /// other threads wake and unwind while this one's drop code runs.
    fn panic_abort(&self, me: usize, message: &str) {
        let mut st = lock_state(self);
        let detail = format!("thread {me} panicked under this schedule: {message}");
        self.report(&mut st, FindingKind::ThreadPanic, detail);
    }

    fn finish(&self, me: usize) {
        let mut st = lock_state(self);
        st.threads[me] = TState::Finished;
        if !st.aborted {
            self.pick(&mut st, me);
        }
    }

    fn os_exit(&self) {
        let mut st = lock_state(self);
        st.os_live -= 1;
        self.cv.notify_all();
    }

    fn arc_self(&self) -> Arc<Exec> {
        CURRENT
            .with(|c| c.borrow().as_ref().map(|ctx| Arc::clone(&ctx.exec)))
            .expect("spawn called outside a model thread")
    }
}

/// Shortest-path existence check over the acquisition-order edge graph.
fn edge_path(
    edges: &BTreeMap<usize, BTreeSet<usize>>,
    from: usize,
    to: usize,
) -> Option<Vec<usize>> {
    let mut frontier = VecDeque::from([vec![from]]);
    let mut seen = BTreeSet::from([from]);
    while let Some(path) = frontier.pop_front() {
        let last = *path.last().unwrap();
        if last == to {
            return Some(path);
        }
        if let Some(next) = edges.get(&last) {
            for &n in next {
                if seen.insert(n) {
                    let mut p = path.clone();
                    p.push(n);
                    frontier.push_back(p);
                }
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Ctx: the shim-facing API
// ---------------------------------------------------------------------------

impl Ctx {
    pub(crate) fn register(&self, reg: &Registration, kind: ObjKind) -> usize {
        self.exec.register(reg, kind)
    }

    pub(crate) fn lock(&self, m: usize) {
        self.exec.lock(self.id, m);
    }

    pub(crate) fn unlock(&self, m: usize) {
        self.exec.unlock(self.id, m);
    }

    pub(crate) fn unlock_quiet(&self, m: usize) {
        self.exec.unlock_quiet(self.id, m);
    }

    pub(crate) fn cv_wait(&self, cv: usize, m: usize, timeout: Option<Duration>) -> WakeReason {
        self.exec.cv_wait(self.id, cv, m, timeout)
    }

    pub(crate) fn notify(&self, cv: usize, all: bool) {
        self.exec.notify(self.id, cv, all);
    }

    pub(crate) fn spawn(&self, body: Box<dyn FnOnce() + Send>) -> usize {
        self.exec.spawn(self.id, body)
    }

    pub(crate) fn join(&self, target: usize) {
        self.exec.join(self.id, target);
    }

    pub(crate) fn send_event(&self, cell: usize) {
        self.exec.send_event(self.id, cell);
    }

    pub(crate) fn now_nanos(&self) -> u64 {
        self.exec.now_nanos()
    }
}

// ---------------------------------------------------------------------------
// Thread wrapper and the exploration driver
// ---------------------------------------------------------------------------

fn run_thread(exec: Arc<Exec>, id: usize, body: Box<dyn FnOnce() + Send>) {
    CURRENT.with(|c| *c.borrow_mut() = Some(Ctx { exec: Arc::clone(&exec), id }));
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        exec.wait_until_active(id);
        body();
    }));
    match result {
        Ok(()) => exec.finish(id),
        Err(payload) if payload.is::<ModelAbort>() => {
            let mut st = lock_state(&exec);
            st.threads[id] = TState::Finished;
        }
        Err(payload) => {
            // The panic hook already recorded the finding and aborted at
            // panic initiation; this is the backup for payloads that
            // bypassed the hook (e.g. a hook replaced mid-run).
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            let mut st = lock_state(&exec);
            st.threads[id] = TState::Finished;
            let detail = format!("thread {id} panicked under this schedule: {message}");
            exec.report(&mut st, FindingKind::ThreadPanic, detail);
        }
    }
    CURRENT.with(|c| *c.borrow_mut() = None);
    exec.os_exit();
}

/// Install (once) a panic hook that silences panics on model threads and
/// aborts the execution at panic *initiation*: a user panic becomes a
/// [`FindingKind::ThreadPanic`] finding with the message attached, and
/// aborting before the unwind starts means every other parked thread
/// wakes and releases its locks while the panicking thread's drop code
/// (gated through [`current_op`]) falls back to plain `std` behavior.
/// The ModelAbort unwind is internal control flow and stays silent.
fn install_panic_filter() {
    static INSTALLED: std::sync::Once = std::sync::Once::new();
    INSTALLED.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if let Some(ctx) = current() {
                if info.payload().downcast_ref::<ModelAbort>().is_none() {
                    let message = info
                        .payload()
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| info.payload().downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    ctx.exec.panic_abort(ctx.id, &message);
                }
                return;
            }
            previous(info);
        }));
    });
}

struct ExecResult {
    steps: Vec<Step>,
    finding: Option<Finding>,
    step_limit_hit: bool,
}

fn run_one<F>(config: &ModelConfig, f: Arc<F>, path: Vec<usize>) -> ExecResult
where
    F: Fn() + Send + Sync + 'static,
{
    let exec = Arc::new(Exec::new(config.clone(), path));
    let root = Arc::clone(&exec);
    let body = Arc::clone(&f);
    std::thread::spawn(move || run_thread(root, 0, Box::new(move || body())));
    let mut st = lock_state(&exec);
    while st.os_live > 0 {
        st = match exec.cv.wait(st) {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
    }
    ExecResult {
        steps: std::mem::take(&mut st.steps),
        finding: st.finding.take(),
        step_limit_hit: st.step_limit_hit,
    }
}

/// The next DFS path: backtrack to the deepest step with an untried
/// alternative.
fn next_path(steps: &[Step]) -> Option<Vec<usize>> {
    for k in (0..steps.len()).rev() {
        if steps[k].chosen + 1 < steps[k].alternatives {
            let mut path: Vec<usize> = steps[..k].iter().map(|s| s.chosen).collect();
            path.push(steps[k].chosen + 1);
            return Some(path);
        }
    }
    None
}

/// Schedule token: the chosen alternative at each step, `.`-separated,
/// with zero-runs compressed as `zN`.
fn format_token(steps: &[Step]) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut zeros = 0usize;
    for step in steps {
        if step.chosen == 0 {
            zeros += 1;
        } else {
            if zeros > 0 {
                parts.push(format!("z{zeros}"));
                zeros = 0;
            }
            parts.push(step.chosen.to_string());
        }
    }
    if zeros > 0 {
        parts.push(format!("z{zeros}"));
    }
    parts.join(".")
}

fn parse_token(token: &str) -> Result<Vec<usize>, String> {
    let mut path = Vec::new();
    if !token.is_empty() {
        for part in token.split('.') {
            if let Some(count) = part.strip_prefix('z') {
                let count: usize =
                    count.parse().map_err(|_| format!("bad zero-run in token `{token}`"))?;
                path.extend(std::iter::repeat(0usize).take(count));
            } else {
                path.push(part.parse().map_err(|_| format!("bad choice in token `{token}`"))?);
            }
        }
    }
    Ok(path)
}

/// Explore the schedules of `f` and return what was found.
///
/// `f` is the root thread; it may spawn further threads through
/// [`crate::thread::spawn`] and must create every shim object it uses
/// (services, slots, queues) inside the closure, so each execution starts
/// from identical state. The search stops at the first finding; the
/// report carries a schedule token that reproduces it exactly via
/// [`ModelConfig::replay`].
pub fn check<F>(name: &str, config: ModelConfig, f: F) -> ModelReport
where
    F: Fn() + Send + Sync + 'static,
{
    install_panic_filter();
    let f = Arc::new(f);
    let (mut path, replay_only) = match &config.replay {
        Some(token) => match parse_token(token) {
            Ok(path) => (path, true),
            Err(error) => panic!("model check `{name}`: {error}"),
        },
        None => (Vec::new(), false),
    };
    let mut executions = 0usize;
    let mut schedule_points = 0u64;
    loop {
        executions += 1;
        let result = run_one(&config, Arc::clone(&f), path.clone());
        schedule_points += result.steps.len() as u64;
        if result.step_limit_hit {
            panic!(
                "model check `{name}`: an execution exceeded max_steps={} — livelock under the \
                 model, or raise the bound",
                config.max_steps
            );
        }
        if let Some(mut finding) = result.finding {
            finding.schedule = format_token(&result.steps);
            return ModelReport {
                name: name.to_string(),
                executions,
                schedule_points,
                complete: false,
                finding: Some(finding),
            };
        }
        if replay_only {
            return ModelReport {
                name: name.to_string(),
                executions,
                schedule_points,
                complete: false,
                finding: None,
            };
        }
        match next_path(&result.steps) {
            Some(next) => path = next,
            None => {
                return ModelReport {
                    name: name.to_string(),
                    executions,
                    schedule_points,
                    complete: true,
                    finding: None,
                }
            }
        }
        if executions >= config.max_executions {
            return ModelReport {
                name: name.to_string(),
                executions,
                schedule_points,
                complete: false,
                finding: None,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{Condvar, Mutex};
    use crate::thread;

    #[test]
    fn sequential_closure_is_clean_and_exhaustive() {
        let report = check("sequential", ModelConfig::default(), || {
            let m = Mutex::new(0u32);
            *m.lock().unwrap() += 1;
            assert_eq!(*m.lock().unwrap(), 1);
        });
        report.assert_clean();
        assert!(report.complete);
        assert_eq!(report.executions, 1, "no concurrency, no branching");
    }

    #[test]
    fn two_threads_explore_multiple_schedules() {
        let report = check("counter", ModelConfig::default(), || {
            let m = std::sync::Arc::new(Mutex::new(0u32));
            let m2 = std::sync::Arc::clone(&m);
            let t = thread::spawn(move || *m2.lock().unwrap() += 1);
            *m.lock().unwrap() += 10;
            t.join().unwrap();
            assert_eq!(*m.lock().unwrap(), 11);
        });
        report.assert_clean();
        assert!(report.complete);
        assert!(report.executions > 1, "lock contention must branch the schedule tree");
    }

    #[test]
    fn condvar_handshake_is_clean() {
        let report = check("handshake", ModelConfig::default(), || {
            let pair = std::sync::Arc::new((Mutex::new(false), Condvar::new()));
            let pair2 = std::sync::Arc::clone(&pair);
            let t = thread::spawn(move || {
                let (flag, cv) = &*pair2;
                *flag.lock().unwrap() = true;
                cv.notify_all();
            });
            let (flag, cv) = &*pair;
            let mut ready = flag.lock().unwrap();
            while !*ready {
                ready = cv.wait(ready).unwrap();
            }
            drop(ready);
            t.join().unwrap();
        });
        report.assert_clean();
        assert!(report.complete);
    }

    #[test]
    fn self_deadlock_is_detected() {
        let report = check("self-deadlock", ModelConfig::default(), || {
            let m = Mutex::new(());
            let first = m.lock().unwrap();
            let second = m.lock().unwrap();
            drop(second);
            drop(first);
        });
        report.expect_finding(FindingKind::Deadlock);
    }

    #[test]
    fn replay_token_round_trips() {
        let steps = [
            Step { chosen: 0, alternatives: 2 },
            Step { chosen: 0, alternatives: 3 },
            Step { chosen: 2, alternatives: 3 },
            Step { chosen: 0, alternatives: 1 },
        ];
        let token = format_token(&steps);
        assert_eq!(token, "z2.2.z1");
        assert_eq!(parse_token(&token).unwrap(), vec![0, 0, 2, 0]);
    }

    #[test]
    fn failing_schedule_replays_to_the_same_finding() {
        let failing = || {
            let m = Mutex::new(());
            let a = m.lock().unwrap();
            let b = m.lock().unwrap();
            drop(b);
            drop(a);
        };
        let report = check("replay-src", ModelConfig::default(), failing);
        let token = report.expect_finding(FindingKind::Deadlock).schedule.clone();
        let replay = check("replay-dst", ModelConfig::default().replay(&token), failing);
        let again = replay.expect_finding(FindingKind::Deadlock);
        assert_eq!(again.schedule, token);
        assert_eq!(replay.executions, 1);
    }
}
