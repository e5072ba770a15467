//! # scalesim-sync
//!
//! Simulated Java monitor (lock) subsystem with a DTrace-style profiler.
//!
//! The paper profiles application-level lock usage with DTrace and reports
//! two per-application curves as the thread count grows: total lock
//! **acquisitions** (Figure 1a) and **instances of contention** (Figure
//! 1b) — an acquisition attempt that finds the lock already held. This
//! crate reproduces those observables exactly: every [`LockTable::acquire`]
//! either takes the monitor on the fast path or enqueues the thread (one
//! recorded contention), and every release hands the monitor to a waiter.
//! [`LockTable::report`] yields the per-class and global counts the
//! figures plot.
//!
//! *Which* waiter a release hands the monitor to — and at what modeled
//! cost — is chosen per run by a [`LockAlg`]: the paper-calibrated FIFO
//! baseline, an MCS/CLH-style queue lock, or a Malthusian
//! concurrency-restricting lock (see the [`alg`] module docs).
//!
//! ```
//! use scalesim_sync::{AcquireOutcome, LockTable};
//! use scalesim_sched::ThreadId;
//! use scalesim_simkit::SimTime;
//!
//! let mut locks = LockTable::new();
//! let queue = locks.create("workqueue");
//! let (a, b) = (ThreadId::new(0), ThreadId::new(1));
//! locks.acquire(queue, a, SimTime::ZERO).unwrap();
//! assert_eq!(
//!     locks.acquire(queue, b, SimTime::from_nanos(5)),
//!     Ok(AcquireOutcome::Contended)
//! );
//! let grant = locks.release(queue, a, SimTime::from_nanos(9)).unwrap().unwrap();
//! assert_eq!(grant.next, b);
//! assert_eq!(locks.report().total.contentions, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alg;
mod monitor;
mod table;

pub use alg::{LockAlg, LockMisuse};
pub use monitor::{AcquireOutcome, Grant, MonitorId, MonitorStats};
pub use table::{LockReport, LockTable};
