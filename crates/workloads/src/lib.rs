//! # scalesim-workloads
//!
//! Synthetic multithreaded application models standing in for the paper's
//! six DaCapo-9.12 benchmarks (§II-C): sunflow, lusearch, xalan (scalable)
//! and h2, eclipse, jython (non-scalable).
//!
//! Each model is a parameter set over one generator — see [`AppSpec`] —
//! capturing the properties the paper's analysis actually depends on:
//!
//! * **work distribution**: uniform via a guided self-scheduling queue
//!   (scalable apps) vs. concentrated in 3–4 threads or serialized on a
//!   coarse lock (non-scalable apps);
//! * **lock discipline**: which lock classes are taken per item and for
//!   how long — the source of Figures 1a/1b;
//! * **object demography**: temporaries with short alloc-to-use gaps,
//!   per-item state, carried results and permanent data — the source of
//!   Figures 1c/1d once the runtime's scheduling stretches those gaps.
//!
//! Models produce [`WorkItem`] step streams; the `scalesim-core` runtime
//! interprets them. Nothing here hard-codes the paper's curves.
//!
//! ```
//! use scalesim_workloads::{xalan, AppModel};
//! use rand::SeedableRng;
//!
//! let app = xalan();
//! assert_eq!(app.effective_workers(48), 48); // scalable: all threads work
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let item = app.make_item(&mut rng);
//! assert!(item.alloc_count() > 10);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod apps;
mod item;
mod server;
mod spec;

use rand::rngs::StdRng;

pub use apps::{
    all_apps, app_by_name, eclipse, h2, jython, lusearch, non_scalable_apps, scalable_apps,
    sunflow, xalan, SyntheticApp,
};
pub use item::{DeathPoint, LockClass, LockClassId, Step, WorkItem};
pub use server::{
    keyed_range, open_poisson_times, poisson_gap_ns, think_ns, ArrivalProcess, Backoff,
    ClientPolicy, LockProfile, RequestClass, ServerPolicy, ServerSpec, SALT_CLASS, SALT_HOLD,
    SALT_JITTER, SALT_SERVICE, SALT_THINK,
};
pub use spec::{
    AppSpec, BatchMerge, CarrySpec, CriticalSpec, Distribution, ItemStateSpec, PermanentSpec,
    ScalabilityClass, TempClass,
};

/// A multithreaded application model the runtime can execute.
///
/// Implemented by [`SyntheticApp`] for the six paper benchmarks; downstream
/// users can implement it to study their own workload shapes.
pub trait AppModel: std::fmt::Debug {
    /// Benchmark name.
    fn name(&self) -> &str;
    /// Scalable or non-scalable, per the paper's classification.
    fn class(&self) -> ScalabilityClass;
    /// Minimum heap requirement; harnesses size the heap at 3× this
    /// (§II-C).
    fn min_heap_bytes(&self) -> u64;
    /// Total work items, independent of thread count.
    fn total_items(&self) -> u64;
    /// How many of `requested` threads actually receive work.
    fn effective_workers(&self, requested: usize) -> usize;
    /// Work-distribution policy.
    fn distribution(&self) -> &Distribution;
    /// Lock classes used by this app's critical sections and queue.
    fn lock_classes(&self) -> &[LockClass];
    /// Generates the next work item from the caller's RNG stream.
    fn make_item(&self, rng: &mut StdRng) -> WorkItem;
    /// Generates the next work item like [`AppModel::make_item`], free to
    /// reuse `old`'s step buffer (a finished item the caller no longer
    /// needs). Must return the item `make_item` would. The default
    /// drops `old` and calls `make_item`.
    fn make_item_reusing(&self, rng: &mut StdRng, old: WorkItem) -> WorkItem {
        drop(old);
        self.make_item(rng)
    }
}
