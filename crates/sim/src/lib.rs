#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! Deterministic discrete-event simulation kernel for the Venice
//! reproduction.
//!
//! The Venice paper evaluates its architecture on an 8-node FPGA prototype.
//! We do not have that hardware, so every experiment in this repository runs
//! on top of this crate: a small, deterministic discrete-event simulator
//! (DES) with explicit simulated time, a stable event queue, seeded
//! randomness, and the measurement utilities (a log-bucketed latency
//! histogram, a token-bucket rate limiter) the evaluation harness needs.
//!
//! Events are **typed**: a plain enum implementing [`SimEvent`],
//! scheduled by value with zero heap allocation (see [`kernel`]).
//!
//! # Example
//!
//! ```
//! use venice_sim::{Kernel, Scheduler, SimEvent, Time};
//!
//! // State threaded through every event.
//! struct World { pings: u32 }
//!
//! enum Ev { Ping }
//!
//! impl SimEvent<World> for Ev {
//!     fn fire(self, w: &mut World, s: &mut Scheduler<World, Ev>) {
//!         w.pings += 1;
//!         // Events may schedule further events.
//!         if w.pings < 2 {
//!             s.schedule_event_in(Time::from_us(5), Ev::Ping);
//!         }
//!     }
//! }
//!
//! let mut kernel = Kernel::new(World { pings: 0 });
//! kernel.schedule_event(Time::from_us(5), Ev::Ping);
//! kernel.run();
//! assert_eq!(kernel.state().pings, 2);
//! assert_eq!(kernel.now(), Time::from_us(10));
//! ```

pub mod kernel;
pub mod queue;
pub mod rate;
pub mod rng;
pub mod stats;
pub mod time;
pub mod timeline;

pub use kernel::{Kernel, Scheduler, SimEvent};
pub use queue::{EventQueue, QueueStats};
pub use rate::TokenBucket;
pub use rng::SimRng;
pub use stats::LogHistogram;
pub use time::Time;
pub use timeline::Timeline;
