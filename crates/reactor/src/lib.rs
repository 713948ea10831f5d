//! The idle strategy of the async collection plane's workers.
//!
//! Each worker of the collection front end (ARCHITECTURE.md §8) owns a
//! disjoint set of client connections and runs rounds over them; a round
//! that finds nothing to do hands control to [`IdleStrategy`], which spins
//! briefly and then parks the thread, so an idle worker costs no CPU and
//! whoever hands it work wakes it with `Thread::unpark`. Nothing here knows
//! about sockets, frames or the protocol.
//!
//! The crate is dependency-free and sans-IO: it never blocks on a file
//! descriptor and owns no threads. That keeps the study driver's
//! determinism contract intact — the idle strategy decides *when* a worker
//! looks at its connections, and the data plane stays a pure function of
//! the configuration and seed regardless (see ARCHITECTURE.md §8 for the
//! argument).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod idle;

pub use idle::IdleStrategy;
