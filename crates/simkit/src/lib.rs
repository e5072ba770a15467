//! # scalesim-simkit
//!
//! The deterministic discrete-event foundation of the `scalesim` workspace.
//!
//! Everything in the simulated JVM — mutator threads, the OS scheduler,
//! monitors, the garbage collector — is driven by one [`EventQueue`] whose
//! clock is a [`SimTime`] in nanoseconds. Determinism is load-bearing:
//! a whole experiment is a pure function of its configuration and a master
//! seed, with per-entity random streams provided by [`RngFactory`] so that
//! changing one parameter does not perturb unrelated entities.
//!
//! ## Example
//!
//! ```
//! use scalesim_simkit::{EventQueue, RngFactory, SimDuration};
//! use rand::Rng;
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Tick(u32) }
//!
//! let rngs = RngFactory::new(1);
//! let mut rng = rngs.stream("ticker", 0);
//! let mut q = EventQueue::new();
//! for i in 0..3 {
//!     q.schedule_after(SimDuration::from_nanos(rng.gen_range(1..100)), Ev::Tick(i));
//! }
//! let mut fired = 0;
//! while let Some((_t, Ev::Tick(_))) = q.pop() {
//!     fired += 1;
//! }
//! assert_eq!(fired, 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
mod queue;
mod rng;
mod time;

pub use chaos::{AbortReason, ChaosConfig, ChaosPlan, FaultClass, RunBudget};
pub use queue::{EventId, EventQueue};
pub use rng::{splitmix64, RngFactory};
pub use time::{SimDuration, SimTime};
