//! The matrix-multiplication kernel `C = A·B` and its dynamic scheduling
//! strategies (paper §4).
//!
//! All three matrices are split into `n × n` blocks of size `l × l`; the
//! elementary task `T(i,j,k)` performs the block update
//! `C[i,j] += A[i,k]·B[k,j]`. There are `n³` tasks; each block of `A`/`B` is
//! an input to `n` of them and each block of `C` is updated by `n`, so the
//! communication-avoiding structure is three-dimensional: a worker that
//! knows the index sets `I`, `J`, `K` holds the sub-bricks
//! `A[I,K]`, `B[K,J]`, `C[I,J]` and can run every task in `I × J × K`.
//!
//! This crate supplies the task cube ([`Matmul`], a
//! [`TaskKernel`](hetsched_sim::TaskKernel)), a worker's view of the three
//! matrices ([`WorkerCube`]) and the kernel's data-aware step. The
//! strategies are the generic family of `hetsched-sim`, under the paper's
//! names: [`RandomMatrix`], [`SortedMatrix`], [`DynamicMatrix`] (grow `I`,
//! `J`, `K` by one random index each per request, shipping the `3(2y+1)`
//! new boundary blocks), and [`DynamicMatrix2Phases`] (switch to random
//! when fewer than `e^{−β}·n³` tasks remain).
//!
//! Block accounting counts `C` traffic like the paper does: result blocks
//! travel worker→master instead of master→worker, but only the total volume
//! matters.

pub mod cube;
pub mod kernel;
pub mod strategies;

pub use cube::WorkerCube;
pub use kernel::Matmul;
pub use strategies::{DynamicMatrix, DynamicMatrix2Phases, RandomMatrix, SortedMatrix};
