//! # ni-engine — simulation kernel for the rackni simulator
//!
//! Cycle-level simulation primitives shared by every subsystem of the
//! manycore-NI simulator: the [`Cycle`] clock domain, ready-at delay heaps
//! ([`DelayLine`]), online statistics ([`mod@stats`], declared once with
//! [`stats!`] and folded through [`Stat`]), and windowed convergence
//! monitoring ([`stats::ConvergenceMonitor`]) used by the bandwidth
//! experiments.
//!
//! The simulator is *synchronous*: a top-level driver advances a shared clock
//! and ticks each component once per cycle, moving messages between explicitly
//! owned queues. This keeps the whole chip deterministic (identical cycle
//! counts on every run) without interior mutability webs.
//!
//! ```
//! use ni_engine::{Cycle, DelayLine};
//!
//! let mut dram: DelayLine<u32> = DelayLine::new();
//! dram.push_at(Cycle(100), 7);
//! assert_eq!(dram.pop_ready(Cycle(99)), None);
//! assert_eq!(dram.pop_ready(Cycle(100)), Some(7));
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod parallel;
pub mod queue;
pub mod stats;

pub use clock::{Cycle, Frequency, NANOS_PER_CYCLE_2GHZ};
pub use queue::DelayLine;
pub use stats::{
    ConvergenceMonitor, Counter, Histogram, LinkLoad, RunningMean, Stat, WindowStatus,
};
