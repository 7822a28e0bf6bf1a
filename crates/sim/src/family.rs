//! The paper's strategy family, written once over any task space.
//!
//! The paper defines four strategies — Random, Sorted, Dynamic and
//! Dynamic-2-Phases — and applies them to two task spaces: the outer
//! product's `n²` grid (§3) and matmul's `n³` cube (§4). Here each strategy
//! is one generic type over a [`TaskKernel`], which supplies the
//! coordinate map, the per-worker knowledge and the kernel's data-aware
//! step; the [`TaskPool`] bookkeeping, the sorted cursor, the phase switch
//! and the fault recovery are shared. The `hetsched-outer` and
//! `hetsched-matmul` crates name the eight instances after the paper
//! (`pub type DynamicOuter = Dynamic<Outer>;` …).

use crate::pool::TaskPool;
use crate::scheduler::{Allocation, Scheduler};
use hetsched_platform::ProcId;
use rand::rngs::StdRng;
use std::fmt::Debug;

/// Display names of the four strategies over one kernel, as they appear in
/// figure legends, CSV headers, store rows and manifests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StrategyNames {
    /// Name of [`Random`] over the kernel.
    pub random: &'static str,
    /// Name of [`Sorted`] over the kernel.
    pub sorted: &'static str,
    /// Name of [`Dynamic`] over the kernel.
    pub dynamic: &'static str,
    /// Name of [`TwoPhase`] over the kernel.
    pub two_phase: &'static str,
}

/// A task space the strategy family can schedule: the map between linear
/// task ids (`0..tasks()`, lexicographic — the order [`Sorted`] walks) and
/// coordinates, what a worker knows, and the kernel's data-aware step.
///
/// Named apart from the experiment-level `Kernel` enum of `hetsched-core`,
/// which picks one of these at run time.
pub trait TaskKernel: Clone + Debug + Send {
    /// Extents of the task space, e.g. `(rows, cols)` for a grid.
    type Dims: Copy + Debug;
    /// What one worker holds.
    type Worker: Clone + Debug + Send;
    /// The strategies' display names over this kernel.
    const NAMES: StrategyNames;

    /// The paper's square problem: `n` blocks along every dimension.
    fn square(n: usize) -> Self::Dims;

    /// The coordinate map of a task space with extents `dims`. Zero
    /// extents are allowed (an empty hierarchy shard).
    fn new(dims: Self::Dims) -> Self;

    /// Number of tasks (the product of the extents).
    fn tasks(&self) -> usize;

    /// A worker holding nothing yet.
    fn worker(&self) -> Self::Worker;

    /// Ships the blocks of task `id` that `w` is missing; returns how many
    /// that took.
    fn acquire(&self, w: &mut Self::Worker, id: u32) -> u64;

    /// Fraction of all input blocks `w` holds — the knowledge state the
    /// paper's analysis evolves per worker. Probes report it per sample.
    fn knowledge_fraction(w: &Self::Worker) -> f64;

    /// One step of the data-aware strategy: grow what `w` knows by one
    /// random new index per dimension, ship the new blocks, and allocate
    /// every unprocessed task they enable, repeating until at least one
    /// task is allocated or the problem is finished. Allocated task ids are
    /// appended to `out`.
    fn dynamic_step(
        &self,
        pool: &mut TaskPool,
        w: &mut Self::Worker,
        rng: &mut StdRng,
        out: &mut Vec<u32>,
    ) -> Allocation;

    /// One step of the basic randomized strategy: allocate a uniformly
    /// random unprocessed task and ship the blocks of it that `w` is
    /// missing. The allocated id is appended to `out`.
    fn random_step(
        &self,
        pool: &mut TaskPool,
        w: &mut Self::Worker,
        rng: &mut StdRng,
        out: &mut Vec<u32>,
    ) -> Allocation {
        match pool.random_unprocessed(rng) {
            Some(id) => allocate(self, pool, w, id, out),
            None => Allocation::DONE,
        }
    }
}

/// Allocates the unprocessed task `id` to `w`, shipping its missing blocks.
#[inline]
fn allocate<K: TaskKernel>(
    kernel: &K,
    pool: &mut TaskPool,
    w: &mut K::Worker,
    id: u32,
    out: &mut Vec<u32>,
) -> Allocation {
    let fresh = pool.mark(id);
    debug_assert!(fresh);
    out.push(id);
    Allocation {
        tasks: 1,
        blocks: kernel.acquire(w, id),
    }
}

/// The state every strategy of the family owns: the kernel's coordinate
/// map, the task pool and one knowledge record per worker.
#[derive(Clone, Debug)]
pub struct Problem<K: TaskKernel> {
    kernel: K,
    pool: TaskPool,
    workers: Vec<K::Worker>,
}

impl<K: TaskKernel> Problem<K> {
    fn new(dims: K::Dims, p: usize) -> Self {
        let kernel = K::new(dims);
        Problem {
            pool: TaskPool::new(kernel.tasks()),
            workers: (0..p).map(|_| kernel.worker()).collect(),
            kernel,
        }
    }

    fn square(n: usize, p: usize) -> Self {
        assert!(n >= 1, "need at least one block per dimension");
        Self::new(K::square(n), p)
    }

    /// The coordinate map.
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// The task pool.
    pub fn pool(&self) -> &TaskPool {
        &self.pool
    }

    /// What worker `k` holds.
    pub fn worker(&self, k: ProcId) -> &K::Worker {
        &self.workers[k.idx()]
    }

    fn useful_fraction(&self, k: ProcId) -> Option<f64> {
        Some(K::knowledge_fraction(&self.workers[k.idx()]))
    }
}

/// Allocates a uniformly random unprocessed task per request and ships the
/// missing inputs — the MapReduce-style baseline the paper argues against.
#[derive(Clone, Debug)]
pub struct Random<K: TaskKernel> {
    problem: Problem<K>,
}

impl<K: TaskKernel> Random<K> {
    /// `n` blocks per dimension, `p` workers.
    pub fn new(n: usize, p: usize) -> Self {
        Random {
            problem: Problem::square(n, p),
        }
    }

    /// A task space of extents `dims` (a hierarchy shard), `p` workers.
    pub fn shard(dims: K::Dims, p: usize) -> Self {
        Random {
            problem: Problem::new(dims, p),
        }
    }

    /// Read-only view of the problem state (for audits).
    pub fn problem(&self) -> &Problem<K> {
        &self.problem
    }
}

impl<K: TaskKernel> Scheduler for Random<K> {
    fn on_request(&mut self, k: ProcId, rng: &mut StdRng, out: &mut Vec<u32>) -> Allocation {
        let p = &mut self.problem;
        p.kernel
            .random_step(&mut p.pool, &mut p.workers[k.idx()], rng, out)
    }

    fn on_tasks_lost(&mut self, ids: &[u32]) {
        // Back into the uniform pool; a future random draw re-allocates
        // them, shipping only the blocks the new owner is missing.
        for &id in ids {
            self.problem.pool.reinsert(id);
        }
    }

    fn useful_fraction(&self, k: ProcId) -> Option<f64> {
        self.problem.useful_fraction(k)
    }

    fn remaining(&self) -> usize {
        self.problem.pool.remaining()
    }

    fn total_tasks(&self) -> usize {
        self.problem.pool.total()
    }

    fn name(&self) -> &'static str {
        K::NAMES.random
    }
}

/// Allocates tasks in lexicographic id order and ships the missing inputs.
/// As oblivious to data locality as [`Random`], but consecutive tasks share
/// inputs (a row of the grid, a `C` block of the cube), so a worker gets
/// some reuse — which is why it tracks slightly below `Random` in the
/// paper's figures.
#[derive(Clone, Debug)]
pub struct Sorted<K: TaskKernel> {
    problem: Problem<K>,
    cursor: u32,
}

impl<K: TaskKernel> Sorted<K> {
    /// `n` blocks per dimension, `p` workers.
    pub fn new(n: usize, p: usize) -> Self {
        Sorted {
            problem: Problem::square(n, p),
            cursor: 0,
        }
    }

    /// A task space of extents `dims` (a hierarchy shard), `p` workers.
    pub fn shard(dims: K::Dims, p: usize) -> Self {
        Sorted {
            problem: Problem::new(dims, p),
            cursor: 0,
        }
    }

    /// Read-only view of the problem state (for audits).
    pub fn problem(&self) -> &Problem<K> {
        &self.problem
    }
}

impl<K: TaskKernel> Scheduler for Sorted<K> {
    fn on_request(&mut self, k: ProcId, _rng: &mut StdRng, out: &mut Vec<u32>) -> Allocation {
        let p = &mut self.problem;
        let total = p.pool.total() as u32;
        // Skip tasks already processed (re-walked after a failure rewound
        // the cursor).
        while self.cursor < total && p.pool.is_processed(self.cursor) {
            self.cursor += 1;
        }
        if self.cursor >= total {
            return Allocation::DONE;
        }
        let id = self.cursor;
        self.cursor += 1;
        allocate(&p.kernel, &mut p.pool, &mut p.workers[k.idx()], id, out)
    }

    fn on_tasks_lost(&mut self, ids: &[u32]) {
        // Rewind the cursor to the earliest reinserted task; the skip loop
        // in `on_request` re-walks the (processed) gap and re-allocates the
        // lost tasks in lexicographic order.
        for &id in ids {
            if self.problem.pool.reinsert(id) {
                self.cursor = self.cursor.min(id);
            }
        }
    }

    fn useful_fraction(&self, k: ProcId) -> Option<f64> {
        self.problem.useful_fraction(k)
    }

    fn remaining(&self) -> usize {
        self.problem.pool.remaining()
    }

    fn total_tasks(&self) -> usize {
        self.problem.pool.total()
    }

    fn name(&self) -> &'static str {
        K::NAMES.sorted
    }
}

/// Per request, grows what the worker knows by one random new index per
/// dimension and allocates every still-unprocessed task that enables
/// (Algorithms 1 and 3).
///
/// Efficient in steady state but pathological in the end game: when few
/// tasks remain, extensions keep enabling nothing and the worker buys
/// blocks without work — the motivation for [`TwoPhase`].
#[derive(Clone, Debug)]
pub struct Dynamic<K: TaskKernel> {
    problem: Problem<K>,
}

impl<K: TaskKernel> Dynamic<K> {
    /// `n` blocks per dimension, `p` workers.
    pub fn new(n: usize, p: usize) -> Self {
        Dynamic {
            problem: Problem::square(n, p),
        }
    }

    /// A task space of extents `dims` (a hierarchy shard), `p` workers.
    pub fn shard(dims: K::Dims, p: usize) -> Self {
        Dynamic {
            problem: Problem::new(dims, p),
        }
    }

    /// A `rows × cols` shard of a two-dimensional task space.
    pub fn rect(rows: usize, cols: usize, p: usize) -> Self
    where
        K: TaskKernel<Dims = (usize, usize)>,
    {
        Self::shard((rows, cols), p)
    }

    /// Read-only view of the problem state (for audits).
    pub fn problem(&self) -> &Problem<K> {
        &self.problem
    }
}

impl<K: TaskKernel> Scheduler for Dynamic<K> {
    fn on_request(&mut self, k: ProcId, rng: &mut StdRng, out: &mut Vec<u32>) -> Allocation {
        let p = &mut self.problem;
        p.kernel
            .dynamic_step(&mut p.pool, &mut p.workers[k.idx()], rng, out)
    }

    fn on_tasks_lost(&mut self, ids: &[u32]) {
        // Reinserted tasks become orphans: `dynamic_step` hands each one to
        // the first requester that already holds its blocks (zero new
        // blocks), or sweeps them up once a worker reaches full knowledge.
        for &id in ids {
            self.problem.pool.reinsert(id);
        }
    }

    fn useful_fraction(&self, k: ProcId) -> Option<f64> {
        self.problem.useful_fraction(k)
    }

    fn remaining(&self) -> usize {
        self.problem.pool.remaining()
    }

    fn total_tasks(&self) -> usize {
        self.problem.pool.total()
    }

    fn name(&self) -> &'static str {
        K::NAMES.dynamic
    }
}

/// Runs [`Dynamic`] while more than `threshold` tasks remain, then switches
/// every worker to the [`Random`] behaviour (Algorithm 2).
///
/// The paper sets `threshold = e^{−β}·tasks` with `β` minimizing the
/// analytic communication ratio (Theorem 6); [`with_beta`](Self::with_beta)
/// wires that in directly, and `hetsched-analysis` computes the optimal
/// `β`.
#[derive(Clone, Debug)]
pub struct TwoPhase<K: TaskKernel> {
    problem: Problem<K>,
    threshold: usize,
    // Per-phase accounting, used to validate Lemma 4 / Lemma 5 separately.
    phase1_blocks: u64,
    phase2_blocks: u64,
    phase1_tasks: usize,
    phase2_tasks: usize,
}

impl<K: TaskKernel> TwoPhase<K> {
    /// A task space of extents `dims` (a hierarchy shard), `p` workers;
    /// switch to the random phase when at most `threshold` tasks remain.
    pub fn shard(dims: K::Dims, p: usize, threshold: usize) -> Self {
        Self::from_problem(Problem::new(dims, p), threshold)
    }

    /// `n` blocks per dimension, `p` workers; switch when at most
    /// `threshold` tasks remain.
    pub fn new(n: usize, p: usize, threshold: usize) -> Self {
        Self::from_problem(Problem::square(n, p), threshold)
    }

    fn from_problem(problem: Problem<K>, threshold: usize) -> Self {
        TwoPhase {
            problem,
            threshold,
            phase1_blocks: 0,
            phase2_blocks: 0,
            phase1_tasks: 0,
            phase2_tasks: 0,
        }
    }

    /// Paper parameterization: switch when `e^{−β}·n^d` tasks remain (see
    /// [`switch_at_beta`](Self::switch_at_beta)).
    pub fn with_beta(n: usize, p: usize, beta: f64) -> Self {
        Self::new(n, p, 0).switch_at_beta(beta)
    }

    /// Fig. 2 parameterization: process `fraction ∈ [0, 1]` of the tasks in
    /// phase 1 (see [`switch_after`](Self::switch_after)).
    pub fn with_phase1_fraction(n: usize, p: usize, fraction: f64) -> Self {
        Self::new(n, p, 0).switch_after(fraction)
    }

    /// Sets the threshold to `e^{−β}` of this problem's tasks, rounded to
    /// the nearest task like [`switch_after`](Self::switch_after) — the two
    /// agree for `fraction = 1 − e^{−β}` — so that `β = 0` degenerates
    /// exactly to the pure random strategy.
    pub fn switch_at_beta(mut self, beta: f64) -> Self {
        assert!(beta >= 0.0, "β must be non-negative");
        self.threshold = ((-beta).exp() * self.problem.pool.total() as f64).round() as usize;
        self
    }

    /// Sets the threshold so that `fraction ∈ [0, 1]` of this problem's
    /// tasks are processed in phase 1 (the switch comes when `1 − fraction`
    /// of them remain).
    pub fn switch_after(mut self, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction));
        self.threshold = ((1.0 - fraction) * self.problem.pool.total() as f64).round() as usize;
        self
    }

    /// The switch-over threshold in remaining tasks.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// True once the end game (random phase) has begun.
    pub fn in_phase2(&self) -> bool {
        self.problem.pool.remaining() <= self.threshold
    }

    /// `(phase1_blocks, phase2_blocks, phase1_tasks, phase2_tasks)`: blocks
    /// shipped and tasks allocated in each phase (Lemma 4's `V_Phase1`
    /// and Lemma 5's `V_Phase2`). The counters count (re-)allocations, so
    /// under failures the task sum exceeds the task count by the number of
    /// lost tasks.
    pub fn phase_split(&self) -> (u64, u64, usize, usize) {
        (
            self.phase1_blocks,
            self.phase2_blocks,
            self.phase1_tasks,
            self.phase2_tasks,
        )
    }

    /// Read-only view of the problem state (for audits).
    pub fn problem(&self) -> &Problem<K> {
        &self.problem
    }
}

impl<K: TaskKernel> Scheduler for TwoPhase<K> {
    fn on_request(&mut self, k: ProcId, rng: &mut StdRng, out: &mut Vec<u32>) -> Allocation {
        let p = &mut self.problem;
        let worker = &mut p.workers[k.idx()];
        if p.pool.remaining() > self.threshold {
            let a = p.kernel.dynamic_step(&mut p.pool, worker, rng, out);
            self.phase1_blocks += a.blocks;
            self.phase1_tasks += a.tasks;
            a
        } else {
            let a = p.kernel.random_step(&mut p.pool, worker, rng, out);
            self.phase2_blocks += a.blocks;
            self.phase2_tasks += a.tasks;
            a
        }
    }

    fn on_tasks_lost(&mut self, ids: &[u32]) {
        // Reinsertion can push `remaining` back above the threshold, in
        // which case the scheduler legitimately drops back to phase 1.
        for &id in ids {
            self.problem.pool.reinsert(id);
        }
    }

    fn phase(&self) -> Option<u8> {
        Some(if self.in_phase2() { 2 } else { 1 })
    }

    fn useful_fraction(&self, k: ProcId) -> Option<f64> {
        self.problem.useful_fraction(k)
    }

    fn remaining(&self) -> usize {
        self.problem.pool.remaining()
    }

    fn total_tasks(&self) -> usize {
        self.problem.pool.total()
    }

    fn name(&self) -> &'static str {
        K::NAMES.two_phase
    }
}
