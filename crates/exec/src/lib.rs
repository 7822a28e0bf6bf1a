//! A real threaded mini-runtime driving the paper's schedulers.
//!
//! The paper evaluates its strategies purely in simulation. This crate goes
//! one step further — in the spirit of the runtime systems the paper models
//! (StarPU, PaRSEC, StarSs) — and *executes* the kernels: a master thread
//! runs any [`Scheduler`](hetsched_sim::Scheduler) verbatim, ships actual
//! `f64` blocks over crossbeam channels to demand-driven worker threads,
//! and assembles the numerical result, which tests verify against a
//! sequential reference.
//!
//! Heterogeneity on a homogeneous test machine is emulated by a per-worker
//! *work factor*: a worker of speed `s` computes each block kernel once for
//! real and then sleeps `(round(max_speed/s) − 1)` additional kernel
//! durations, so slow workers request less often exactly as in the
//! simulation — including on machines with fewer cores than workers, where
//! re-running the kernel would merely contend for CPU instead of slowing
//! the worker's wall-clock.
//!
//! What this adds over the simulator:
//!
//! * the schedulers' task ids flow through a real allocation protocol
//!   (exactly-once execution is checked by summing real numbers, not
//!   counters);
//! * communication is real data motion — the report counts the blocks
//!   actually shipped, which tests compare against the simulator's
//!   accounting;
//! * scheduling decisions interleave with genuinely concurrent workers.
//!
//! The entry points are [`run_outer`] and [`run_matmul`].

pub mod block;
mod master;
pub mod matmul_run;
pub mod outer_run;
pub mod protocol;

pub use block::BlockedMatrix;
pub use matmul_run::run_matmul;
pub use outer_run::run_outer;
pub use protocol::{ExecConfig, ExecFault, ExecReport};
