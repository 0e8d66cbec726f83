//! `crn_sync` — the workspace's single concurrency facade.
//!
//! Every crate that spawns threads or touches atomics imports them from here
//! instead of `std` (enforced by the atomics-hygiene lint in
//! `tests/hygiene.rs`).  The facade has two personalities:
//!
//! * **Normal builds** re-export `std::sync` and `std::thread` verbatim —
//!   [`Arc`], [`Mutex`], [`atomic::AtomicU64`], [`thread::scope`] *are* the
//!   std types, so the facade is zero-cost by construction (the E20/E21
//!   harness additionally asserts byte-identical `--profile` output).
//!
//! * Under `RUSTFLAGS='--cfg crn_model_check'` the atomics, `Mutex` and
//!   `thread::scope` swap for shim types backed by a deterministic
//!   cooperative scheduler (the `model` module, which only exists under
//!   that cfg): a `model::Checker` re-runs a test
//!   closure once per schedule, exploring thread interleavings exhaustively
//!   up to a preemption bound (or by seeded random walk), modelling
//!   `Relaxed`/`Acquire`/`Release`/`AcqRel` effects with per-location store
//!   histories, and reporting any assertion failure together with a
//!   replayable schedule trace.  This is the harness every lock-free
//!   structure in the workspace must pass before merging; the invariant
//!   suites live in `tests/model.rs` and run in CI as
//!   `RUSTFLAGS='--cfg crn_model_check' cargo test -p crn-sync`.
//!
//! # Mutex poisoning policy
//!
//! The workspace-wide recovery policy for poisoned mutexes is
//! [`lock_recover`]: take the guard out of the [`PoisonError`] and continue.
//! Every `Mutex` behind the facade guards *monotone* state (append-only
//! logs, metric maps) whose invariants hold after any prefix of a critical
//! section, so observing a poisoned lock can at worst lose the panicking
//! thread's last update — it can never corrupt what a reader sees.  Code
//! that cannot make that argument must call [`Mutex::lock`] and handle the
//! `Err` explicitly instead.
//!
//! ```
//! use crn_sync::{lock_recover, Mutex};
//!
//! let m = Mutex::new(vec![1u64, 2]);
//! lock_recover(&m).push(3);
//! assert_eq!(lock_recover(&m).as_slice(), &[1, 2, 3]);
//! ```

#![forbid(unsafe_code)]

#[cfg(crn_model_check)]
mod shim;

#[cfg(crn_model_check)]
pub mod model {
    //! The deterministic model-checking scheduler (only built under
    //! `--cfg crn_model_check`).
    pub use crate::shim::checker::{Checker, Report, Strategy, ViolationReport};
}

// ---------------------------------------------------------------------------
// Normal builds: transparent std re-exports.
// ---------------------------------------------------------------------------

#[cfg(not(crn_model_check))]
pub use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, OnceLock, PoisonError};

#[cfg(not(crn_model_check))]
pub mod atomic {
    //! Atomic types (std re-exports in normal builds).
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

#[cfg(not(crn_model_check))]
pub mod thread {
    //! Thread primitives (std re-exports in normal builds).
    pub use std::thread::{available_parallelism, scope, Scope, ScopedJoinHandle};
}

// ---------------------------------------------------------------------------
// Model-check builds: scheduler-backed shims.  `Arc` and `OnceLock` stay the
// std types — the checker models the synchronization primitives the
// workspace's invariants rest on (atomics, mutexes, spawn/join edges), not
// reference counting or one-time initialization.
// ---------------------------------------------------------------------------

#[cfg(crn_model_check)]
pub use std::sync::{Arc, Condvar, LockResult, OnceLock, PoisonError};

#[cfg(crn_model_check)]
pub use shim::mutex::{Mutex, MutexGuard};

#[cfg(crn_model_check)]
pub mod atomic {
    //! Atomic types (scheduler-backed shims under `--cfg crn_model_check`).
    pub use crate::shim::atomic::{AtomicBool, AtomicU64, AtomicUsize};
    pub use std::sync::atomic::Ordering;
}

#[cfg(crn_model_check)]
pub mod thread {
    //! Thread primitives (scheduler-backed shims under
    //! `--cfg crn_model_check`).
    pub use crate::shim::thread::{available_parallelism, scope, Scope, ScopedJoinHandle};
}

/// Locks `mutex`, recovering the guard if a panicking thread poisoned it.
///
/// This is the facade's documented poisoning policy (see the crate docs):
/// metrics and logs must never turn one panic into a second one, and
/// every facade-guarded structure tolerates a torn critical section.  Under
/// `--cfg crn_model_check` the same recovery runs against the shim mutex, so
/// model-checked protocols exercise the identical policy.
pub fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(all(test, not(crn_model_check)))]
mod tests {
    use super::*;

    #[test]
    fn lock_recover_passes_through_unpoisoned() {
        let m = Mutex::new(1u32);
        *lock_recover(&m) += 1;
        assert_eq!(*lock_recover(&m), 2);
    }

    #[test]
    fn lock_recover_recovers_a_poisoned_mutex() {
        let m = Mutex::new(vec![1u64]);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("poison the lock");
        }));
        assert!(caught.is_err());
        assert!(m.is_poisoned());
        // The policy: recover the guard, keep the data.
        lock_recover(&m).push(2);
        assert_eq!(lock_recover(&m).as_slice(), &[1, 2]);
    }

    #[test]
    fn facade_types_are_std_types() {
        // The normal-build facade is a pure re-export: taking a std mutex by
        // reference through the facade type proves they are the same type.
        let m: std::sync::Mutex<u8> = std::sync::Mutex::new(7);
        let via_facade: &Mutex<u8> = &m;
        assert_eq!(*lock_recover(via_facade), 7);
        let a: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(3);
        let via_facade: &atomic::AtomicU64 = &a;
        assert_eq!(via_facade.load(atomic::Ordering::Relaxed), 3);
    }

    #[test]
    fn facade_scope_spawns_and_joins() {
        let total = atomic::AtomicU64::new(0);
        thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| total.fetch_add(1, atomic::Ordering::Relaxed));
            }
        });
        assert_eq!(total.load(atomic::Ordering::Relaxed), 4);
        assert!(thread::available_parallelism().is_ok());
    }
}
