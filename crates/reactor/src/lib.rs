//! A vendored mini-reactor for the async collection plane.
//!
//! The collection front end (ARCHITECTURE.md §8) multiplexes thousands of
//! client connections onto a handful of worker threads. Each worker owns a
//! disjoint set of connections and drives them with the three primitives
//! this crate provides — nothing here knows about sockets, frames or the
//! protocol:
//!
//! * [`Poller`] — readiness polling over registered [`Source`]s with fair
//!   rotation, so a chatty connection cannot starve its neighbours. A
//!   `Source` is anything that can cheaply answer "do you have work right
//!   now?": a non-blocking socket, an in-memory transport, a queue.
//! * [`TimerWheel`] — a hashed timer wheel for retry and stall deadlines.
//!   Deadlines are scheduled in coarse ticks (the collection plane uses
//!   milliseconds) and cancelled lazily through per-token stamps, the
//!   classic trick that makes `O(1)` cancellation free of bookkeeping.
//! * [`IdleStrategy`] — a spin → park backoff for workers with nothing
//!   to do: an idle worker costs no CPU, and whoever hands it work wakes
//!   it with `Thread::unpark`, so wakeup latency is not a polling period.
//!
//! The crate is dependency-free and deliberately sans-IO: it never blocks
//! on a file descriptor and owns no threads. That keeps the study driver's
//! determinism contract intact — the reactor decides *when* a worker looks
//! at a connection, and the data plane stays a pure function of the
//! configuration and seed regardless (see ARCHITECTURE.md §8 for the
//! argument).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod idle;
mod poll;
mod timer;

pub use idle::IdleStrategy;
pub use poll::{Poller, Source, Token};
pub use timer::TimerWheel;
