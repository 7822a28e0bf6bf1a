//! Event-driven, demand-driven master/worker simulation engine.
//!
//! This is the from-scratch equivalent of the paper's *"ad-hoc event based
//! simulation tool, where processors request new tasks as soon as they are
//! available, and tasks are allocated based on the given runtime dynamic
//! strategy"* (§3.4). Its semantics, in order of importance:
//!
//! 1. **Demand driven.** Each worker holds exactly one outstanding batch of
//!    allocated tasks; when the batch finishes, the worker *requests* and the
//!    strategy (a [`Scheduler`]) immediately allocates the next batch and
//!    reports how many blocks the master had to ship.
//! 2. **Communication is free in time, counted in volume.** The paper
//!    assumes communication fully overlaps computation (blocks are uploaded
//!    slightly in advance), so shipping blocks never delays a worker; the
//!    engine only accumulates the per-worker block counters in a
//!    [`CommLedger`].
//! 3. **Allocation wins the race.** A task allocated to a worker is globally
//!    marked processed at allocation time — the worker that learns the
//!    inputs first is the one that computes the task.
//! 4. **Heterogeneous, possibly drifting speeds.** Batch durations come from
//!    [`SpeedState`](hetsched_platform::SpeedState), which implements both
//!    fixed speeds and the `dyn.*` per-task jitter scenarios.
//!
//! The engine is generic over the [`Scheduler`] trait. The paper's four
//! strategies — [`Random`], [`Sorted`], [`Dynamic`] and [`TwoPhase`] — are
//! written once here, generic over a [`TaskKernel`] (a task space with its
//! coordinate map, per-worker knowledge and data-aware step) and sharing
//! one [`TaskPool`]; the `hetsched-outer` and `hetsched-matmul` crates
//! supply the two kernels and name the eight instances after the paper.
//!
//! On top of the paper's model the engine supports **fault injection**
//! ([`FailureModel`](hetsched_platform::FailureModel)): a worker may
//! permanently fail at a given time (its in-flight batch returns to the
//! scheduler via [`Scheduler::on_tasks_lost`] and is re-allocated to
//! survivors) or run as a straggler at a fraction of its nominal speed. The
//! ledger tracks the lost tasks and the recovery re-shipping volume.
//!
//! Rule 2 above — communication free in time — can be relaxed with a
//! [`NetworkModel`] (`Engine::with_network`): the master's outbound link
//! then has finite bandwidth, transfers become timed events overlapping
//! computation (depth-1 prefetch), and the report additionally carries
//! per-worker transfer-wait time, link utilization, the maximum send-queue
//! depth, and the bandwidth wasted on workers that die with a batch in
//! flight. Both models run through one event loop, generic over the link
//! (see [`engine`]): [`NetworkModel::Infinite`] (the default) selects its
//! free instance, where a batch starts the moment it is requested and no
//! link state exists.
//!
//! **Observability** is opt-in via a [`Recorder`]
//! (`Engine::run_recorded`): every engine event is emitted as a typed
//! [`TraceEvent`] and the run state the paper's ODE model evolves (residual
//! tasks, per-worker blocks/tasks, strategy knowledge fractions, link
//! state) is sampled on a [`ProbeConfig`] cadence. The [`sink`] module
//! renders both as JSONL or Chrome trace-event JSON. Without a recorder the
//! engine pays one `None` check per event and allocates nothing.

pub mod engine;
mod event;
pub mod family;
pub mod metrics;
pub mod pool;
pub mod probe;
pub mod scheduler;
pub mod sink;
#[cfg(test)]
mod testkit;
pub mod topology;
pub mod trace;
pub mod tree;

pub use engine::{Engine, SimReport};
pub use family::{Dynamic, Problem, Random, Sorted, StrategyNames, TaskKernel, TwoPhase};
pub use hetsched_net::NetworkModel;
pub use metrics::CommLedger;
pub use pool::TaskPool;
pub use probe::{ProbeConfig, ProbeIter, ProbeSample, ProbeSeries, Recorder};
pub use scheduler::{Allocation, Scheduler};
pub use sink::{ChromeStream, JsonlStream, NullSink, StreamingSink};
pub use topology::Topology;
pub use trace::{EventKind, Trace, TraceEvent};
pub use tree::{run_tree_with, ShardSpec, TreeOpts, TreeOutcome};
