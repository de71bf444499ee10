//! Discrete-event simulation kernel for `cellsim`.
//!
//! This crate provides the machinery every other `cellsim` crate builds on:
//!
//! * [`Cycle`] — simulated time, counted in *bus* cycles (the EIB runs at
//!   half the CPU clock on the Cell Broadband Engine, and every shared
//!   resource in the machine is clocked off the bus).
//! * [`MachineClock`] — converts between cycles, seconds, and bandwidth.
//! * [`EventQueue`] / [`Simulation`] / [`Model`] — a minimal, deterministic
//!   event engine. Events scheduled for the same cycle are delivered in
//!   FIFO order, which makes every simulation reproducible bit-for-bit.
//! * [`stats`] — bandwidth meters and the min/max/median/mean summaries the
//!   ISPASS 2007 paper reports for its multi-placement runs.
//!
//! # Example
//!
//! ```
//! use cellsim_kernel::{Cycle, Model, Scheduler, Simulation};
//!
//! struct Counter { fired: u32 }
//! enum Ev { Tick }
//!
//! impl Model for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, now: Cycle, _ev: Ev, sched: &mut Scheduler<Ev>) {
//!         self.fired += 1;
//!         if self.fired < 3 {
//!             sched.schedule(now + 10, Ev::Tick);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Counter { fired: 0 });
//! sim.schedule(Cycle::ZERO, Ev::Tick);
//! sim.run();
//! assert_eq!(sim.model().fired, 3);
//! assert_eq!(sim.now(), Cycle::new(20));
//! ```

mod engine;
mod queue;
mod time;

pub mod fnv;
pub mod json;
pub mod rng;
pub mod stats;
pub mod varint;

pub use engine::{Model, RunOutcome, Scheduler, Simulation};
pub use queue::EventQueue;
pub use time::{Cycle, MachineClock};
