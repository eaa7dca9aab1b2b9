//! Seeded-defect fixtures: each deliberately broken protocol below must be
//! flagged by the model checker with an exact finding kind. These are the
//! checker's regression suite — if a refactor of the scheduler stops
//! detecting one of these, this file fails.
//!
//! Requires `--features model-check` (wired via `[[test]]
//! required-features` in Cargo.toml, and run by the CI model-check step).

use std::sync::Arc;

use tdts_sync::model::{check, FindingKind, ModelConfig};
use tdts_sync::sync::{Condvar, Mutex};
use tdts_sync::thread;
use tdts_sync::SendOnce;

fn cfg() -> ModelConfig {
    ModelConfig::default().preemptions(2)
}

/// Fixture 1: `if` instead of `while` around a Condvar wait. A spurious
/// wakeup (a scheduler choice) returns with the predicate still false and
/// the consumer unwraps `None` — the checker reports the panic, pinned to
/// the schedule that triggers it.
#[test]
fn if_instead_of_while_wait() {
    let report = check("fixture/if-instead-of-while", cfg(), || {
        let state: Arc<(Mutex<Option<u32>>, Condvar)> =
            Arc::new((Mutex::new(None), Condvar::new()));
        let producer_state = Arc::clone(&state);
        let producer = thread::spawn(move || {
            let (slot, cv) = &*producer_state;
            *slot.lock().unwrap() = Some(7);
            cv.notify_all();
        });
        let (slot, cv) = &*state;
        let mut value = slot.lock().unwrap();
        // BUG: `if`, not `while` — a spurious wakeup falls through.
        if value.is_none() {
            value = cv.wait(value).unwrap();
        }
        let got = value.expect("woke with no value: spurious wakeup fell through the `if`");
        drop(value);
        assert_eq!(got, 7);
        producer.join().unwrap();
    });
    report.expect_finding(FindingKind::ThreadPanic);
}

/// Fixture 2: check-then-wait with the notify fired between the predicate
/// check and the wait registration. The waiter re-checks the predicate
/// *outside* the lock, then takes the lock and waits — classic missed
/// notify, reported as a lost wakeup because the condvar *was* notified.
#[test]
fn check_then_rewait_misses_notify() {
    let report = check("fixture/check-then-rewait", cfg(), || {
        let state: Arc<(Mutex<bool>, Condvar)> = Arc::new((Mutex::new(false), Condvar::new()));
        let setter_state = Arc::clone(&state);
        let setter = thread::spawn(move || {
            let (done, cv) = &*setter_state;
            *done.lock().unwrap() = true;
            cv.notify_one();
        });
        let (done, cv) = &*state;
        // BUG: predicate sampled under the lock, then the lock released
        // and re-acquired for the wait — the notify can land in the gap,
        // and the wait trusts the stale sample without re-checking.
        let sampled = *done.lock().unwrap();
        if !sampled {
            let guard = done.lock().unwrap();
            let _woken = cv.wait(guard).unwrap();
        }
        setter.join().unwrap();
    });
    report.expect_finding(FindingKind::LostWakeup);
}

/// Fixture 3: a waiter on a condvar nobody ever notifies — the producer
/// writes the value but forgets the notify entirely. Classified as a
/// pending-waiter leak (never notified), not a lost wakeup.
#[test]
fn forgotten_notify_leaks_waiter() {
    let report = check("fixture/forgotten-notify", cfg(), || {
        let state: Arc<(Mutex<bool>, Condvar)> = Arc::new((Mutex::new(false), Condvar::new()));
        let setter_state = Arc::clone(&state);
        let setter = thread::spawn(move || {
            let (done, _cv) = &*setter_state;
            // BUG: flag set, notify forgotten.
            *done.lock().unwrap() = true;
        });
        let (done, cv) = &*state;
        let mut guard = done.lock().unwrap();
        while !*guard {
            guard = cv.wait(guard).unwrap();
        }
        drop(guard);
        setter.join().unwrap();
    });
    report.expect_finding(FindingKind::PendingWaiterLeak);
}

/// Fixture 4: a completion flag stored without the queue lock. The
/// producer sets a flag that lives under a lock of its own, not the queue
/// lock the condvar waits with, then notifies. The store+notify can land
/// between the consumer's flag check (made while holding the queue lock)
/// and its wait registration — the consumer then waits forever on a
/// condvar that was notified. This is the shape of both lost wakeups the
/// checker found in `tdts-service`: the batcher thread's exit flag and
/// `shutdown()`'s stop flag. The service now keeps every such flag as a
/// plain field under the lock its waiters check it under (DESIGN.md §5d).
#[test]
fn unlocked_done_flag_store_misses_wakeup() {
    let report = check("fixture/unlocked-done-store", cfg(), || {
        struct State {
            queue: Mutex<Vec<u32>>,
            cv: Condvar,
            done: Mutex<bool>,
        }
        let state = Arc::new(State {
            queue: Mutex::new(vec![1]),
            cv: Condvar::new(),
            done: Mutex::new(false),
        });
        let producer_state = Arc::clone(&state);
        let producer = thread::spawn(move || {
            // BUG: completion flag stored and notified without holding
            // the queue lock — it can fire between the consumer's check
            // and its wait registration.
            *producer_state.done.lock().unwrap() = true;
            producer_state.cv.notify_all();
        });
        let mut guard = state.queue.lock().unwrap();
        loop {
            if let Some(item) = guard.pop() {
                assert_eq!(item, 1);
                continue;
            }
            if *state.done.lock().unwrap() {
                break;
            }
            guard = state.cv.wait(guard).unwrap();
        }
        drop(guard);
        producer.join().unwrap();
    });
    // The consumer can drain the queue, see `done == false`, and start
    // waiting just as the producer's only notify has already fired.
    report.expect_finding(FindingKind::LostWakeup);
}

/// Fixture 5: a oneshot that overwrites instead of first-write-wins. Two
/// producers race to fulfil the same slot; the `SendOnce` tracker records
/// both stores and the checker reports a double-send.
#[test]
fn overwriting_oneshot_double_sends() {
    let report = check("fixture/overwriting-oneshot", cfg(), || {
        let slot: Arc<(Mutex<Option<u32>>, SendOnce)> =
            Arc::new((Mutex::new(None), SendOnce::new()));
        let a_slot = Arc::clone(&slot);
        let a = thread::spawn(move || {
            let (value, tracker) = &*a_slot;
            // BUG: unconditional overwrite — no Empty-state check.
            *value.lock().unwrap() = Some(1);
            tracker.record_send();
        });
        let (value, tracker) = &*slot;
        *value.lock().unwrap() = Some(2);
        tracker.record_send();
        a.join().unwrap();
    });
    report.expect_finding(FindingKind::DoubleSend);
}

/// Fixture 6: AB–BA lock ordering across two threads. Reported at the
/// moment the second-order acquisition is attempted, even on schedules
/// where the deadlock itself never manifests.
#[test]
fn ab_ba_lock_order_inversion() {
    let report = check("fixture/ab-ba", cfg(), || {
        let locks: Arc<(Mutex<u32>, Mutex<u32>)> = Arc::new((Mutex::new(0), Mutex::new(0)));
        let other = Arc::clone(&locks);
        let t = thread::spawn(move || {
            let (a, b) = &*other;
            let got_b = b.lock().unwrap();
            let got_a = a.lock().unwrap(); // BUG: B then A
            drop(got_a);
            drop(got_b);
        });
        let (a, b) = &*locks;
        let got_a = a.lock().unwrap();
        let got_b = b.lock().unwrap(); // A then B
        drop(got_b);
        drop(got_a);
        t.join().unwrap();
    });
    report.expect_finding(FindingKind::LockOrderInversion);
}

/// Fixture 7: recursive self-lock — a thread re-acquires a mutex it
/// already holds. `std::sync::Mutex` makes no reentrancy promise; the
/// model reports it as a deadlock (no thread can make progress).
#[test]
fn recursive_self_lock_deadlocks() {
    let report = check("fixture/self-lock", cfg(), || {
        let m = Mutex::new(0u32);
        let outer = m.lock().unwrap();
        let inner = m.lock().unwrap(); // BUG: self-deadlock
        drop(inner);
        drop(outer);
    });
    report.expect_finding(FindingKind::Deadlock);
}

/// Fixture 8: worker exits without draining — a consumer thread quits on
/// shutdown while a client still waits on its response slot, and nobody
/// fulfils or notifies it. The execution exits with a pending waiter.
#[test]
fn exit_without_drain_leaks_waiter() {
    let report = check("fixture/exit-without-drain", cfg(), || {
        let slot: Arc<(Mutex<Option<u32>>, Condvar)> = Arc::new((Mutex::new(None), Condvar::new()));
        let worker_slot = Arc::clone(&slot);
        let worker = thread::spawn(move || {
            // BUG: shutdown path returns without fulfilling the slot.
            let _abandoned = worker_slot;
        });
        let (value, cv) = &*slot;
        let mut guard = value.lock().unwrap();
        while guard.is_none() {
            guard = cv.wait(guard).unwrap();
        }
        drop(guard);
        worker.join().unwrap();
    });
    report.expect_finding(FindingKind::PendingWaiterLeak);
}

/// Fixture 9: a timed wait whose deadline handling drops the result — the
/// waiter treats a timeout as success and unwraps an empty slot. The
/// scheduler's expire-the-timeout choice exposes it deterministically.
#[test]
fn timeout_treated_as_success_panics() {
    let report = check("fixture/timeout-as-success", cfg(), || {
        use tdts_sync::time::Duration;

        let slot: Arc<(Mutex<Option<u32>>, Condvar)> = Arc::new((Mutex::new(None), Condvar::new()));
        let producer_slot = Arc::clone(&slot);
        let producer = thread::spawn(move || {
            let (value, cv) = &*producer_slot;
            *value.lock().unwrap() = Some(3);
            cv.notify_all();
        });
        let (value, cv) = &*slot;
        let guard = value.lock().unwrap();
        let (guard, _timed_out) = cv.wait_timeout(guard, Duration::from_millis(1)).unwrap();
        // BUG: no re-check of the predicate after a timed wait.
        let got = guard.expect("timed out and unwrapped an unfilled slot");
        drop(guard);
        assert_eq!(got, 3);
        producer.join().unwrap();
    });
    report.expect_finding(FindingKind::ThreadPanic);
}

/// Clean-protocol control: the corrected done-flag protocol (flag set
/// under the lock, notify after) verifies clean and exhaustively at the
/// same bound that fails fixture 4.
#[test]
fn locked_done_flag_protocol_is_clean() {
    let report = check("fixture/locked-done-store-control", cfg(), || {
        type QueueAndDone = (Mutex<(Vec<u32>, bool)>, Condvar);
        let state: Arc<QueueAndDone> = Arc::new((Mutex::new((Vec::new(), false)), Condvar::new()));
        let producer_state = Arc::clone(&state);
        let producer = thread::spawn(move || {
            let (queue, cv) = &*producer_state;
            queue.lock().unwrap().0.push(1);
            cv.notify_all();
            // FIX: set the done flag while holding the lock.
            queue.lock().unwrap().1 = true;
            cv.notify_all();
        });
        let (queue, cv) = &*state;
        let mut guard = queue.lock().unwrap();
        loop {
            if let Some(item) = guard.0.pop() {
                assert_eq!(item, 1);
                continue;
            }
            if guard.1 {
                break;
            }
            guard = cv.wait(guard).unwrap();
        }
        drop(guard);
        producer.join().unwrap();
    });
    report.assert_clean();
    assert!(report.complete, "control protocol should be exhaustively verified");
}
