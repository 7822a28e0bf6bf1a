//! The outer-product kernel `M = a·bᵗ` and its dynamic scheduling
//! strategies (paper §3).
//!
//! Vectors `a` and `b` are split into `n = N/l` blocks; task `T(i,j)`
//! computes the block outer product `a_i·b_jᵗ`. There are `n²` independent
//! tasks, but each `a_i` is an input to `n` of them — the whole game is to
//! allocate tasks so that the blocks already cached on a worker are reused,
//! keeping the master→worker communication volume close to the lower bound
//! `2n·Σ√rs_k`.
//!
//! This crate supplies the task grid ([`Outer`], a
//! [`TaskKernel`](hetsched_sim::TaskKernel)), a worker's view of the two
//! vectors ([`WorkerData`]) and the kernel's data-aware step. The
//! strategies themselves are the generic family of `hetsched-sim`; the
//! paper's four names are aliases of it, in increasing order of data
//! awareness:
//!
//! * [`RandomOuter`] — uniformly random unprocessed task per request; ship
//!   whatever inputs are missing.
//! * [`SortedOuter`] — tasks in lexicographic order; ship missing inputs.
//! * [`DynamicOuter`] — per request the master ships one *new* `a` block
//!   and one *new* `b` block chosen uniformly at random, and allocates
//!   every still-unprocessed task the worker can now form (the new
//!   row/column of its known sub-grid).
//! * [`DynamicOuter2Phases`] — `DynamicOuter` until fewer than
//!   `e^{−β}·n²` tasks remain, then `RandomOuter` for the end game.

pub mod kernel;
pub mod ownership;
pub mod strategies;

pub use kernel::Outer;
pub use ownership::{VectorOwnership, WorkerData};
pub use strategies::{DynamicOuter, DynamicOuter2Phases, RandomOuter, SortedOuter};
