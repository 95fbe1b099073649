#![deny(missing_docs)]

//! Deterministic discrete-event simulation kernel for the Venice
//! reproduction.
//!
//! The Venice paper evaluates its architecture on an 8-node FPGA prototype.
//! We do not have that hardware, so every experiment in this repository runs
//! on top of this crate: a small, deterministic discrete-event simulator
//! (DES) with explicit simulated time, a stable event queue, seeded
//! randomness, and the measurement utilities (counters, histograms,
//! throughput meters, rate limiters) the evaluation harness needs.
//!
//! Events come in two flavors sharing one loop: **typed events** — a
//! plain enum implementing [`SimEvent`], scheduled by value with zero
//! heap allocation (the hot path; see [`kernel`]) — and the original
//! **boxed closures**, kept as a thin compatibility layer (the default
//! `Kernel<S>` below). The pre-rewrite closure core survives unchanged
//! in [`boxed`] as the measured perf baseline and differential-testing
//! oracle.
//!
//! # Example
//!
//! ```
//! use venice_sim::{Kernel, Time};
//!
//! // State threaded through every event.
//! struct World { pings: u32 }
//!
//! let mut kernel = Kernel::new(World { pings: 0 });
//! kernel.schedule(Time::from_us(5), |w: &mut World, s| {
//!     w.pings += 1;
//!     // Events may schedule further events.
//!     s.schedule_in(Time::from_us(5), |w: &mut World, _| w.pings += 1);
//! });
//! kernel.run();
//! assert_eq!(kernel.state().pings, 2);
//! assert_eq!(kernel.now(), Time::from_us(10));
//! ```

pub mod boxed;
pub mod kernel;
pub mod queue;
pub mod rate;
pub mod rng;
pub mod stats;
pub mod time;
pub mod timeline;

pub use kernel::{ClosureEvent, Kernel, Scheduler, SimEvent};
pub use queue::{EventQueue, QueueStats};
pub use rate::TokenBucket;
pub use rng::SimRng;
pub use stats::{Counter, Histogram, LogHistogram, ThroughputMeter};
pub use time::Time;
pub use timeline::Timeline;
