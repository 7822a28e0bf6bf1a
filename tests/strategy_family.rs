//! The strategy family's behaviour, checked once per task kernel.
//!
//! Each test body is written once, generic over the kernel (or over the
//! scheduler), and instantiated for the outer product and for matmul with
//! the sizes and seeds each kernel's own tests used before the strategies
//! became one family. Kernel-specific tests (closed forms of the dynamic
//! step, worker index-set shapes) live with the kernels.

use hetsched::matmul::{DynamicMatrix, DynamicMatrix2Phases, Matmul, RandomMatrix, SortedMatrix};
use hetsched::outer::{DynamicOuter, DynamicOuter2Phases, Outer, RandomOuter, SortedOuter};
use hetsched::platform::{
    matmul_lower_bound, outer_lower_bound, Platform, ProcId, SpeedDistribution, SpeedModel,
};
use hetsched::sim::{
    Dynamic, Engine, Random, Scheduler, Sorted, StrategyNames, TaskKernel, TaskPool, TwoPhase,
};
use hetsched::util::rng::rng_for;

/// What the generic tests need to know about a kernel beyond
/// [`TaskKernel`].
trait Case: TaskKernel {
    /// Blocks one task needs (2 for the outer product, 3 for matmul).
    const BLOCKS_PER_TASK: u64;
    /// Every distinct input block of the square problem (`2n`, `3n²`).
    fn all_blocks(n: usize) -> u64;
    /// The communication lower bound of the square problem.
    fn lower_bound(n: usize, pf: &Platform) -> f64;
    /// Tasks of the square problem (`n²`, `n³`).
    fn tasks_of(n: usize) -> usize {
        Self::new(Self::square(n)).tasks()
    }
}

impl Case for Outer {
    const BLOCKS_PER_TASK: u64 = 2;
    fn all_blocks(n: usize) -> u64 {
        2 * n as u64
    }
    fn lower_bound(n: usize, pf: &Platform) -> f64 {
        outer_lower_bound(n, pf)
    }
}

impl Case for Matmul {
    const BLOCKS_PER_TASK: u64 = 3;
    fn all_blocks(n: usize) -> u64 {
        3 * (n * n) as u64
    }
    fn lower_bound(n: usize, pf: &Platform) -> f64 {
        matmul_lower_bound(n, pf)
    }
}

fn fresh<K: TaskKernel>(n: usize) -> (K, TaskPool) {
    let kernel = K::new(K::square(n));
    let pool = TaskPool::new(kernel.tasks());
    (kernel, pool)
}

// ---- names -------------------------------------------------------------

fn names<K: TaskKernel>(expected: StrategyNames) {
    assert_eq!(K::NAMES, expected);
    assert_eq!(Random::<K>::new(2, 1).name(), expected.random);
    assert_eq!(Sorted::<K>::new(2, 1).name(), expected.sorted);
    assert_eq!(Dynamic::<K>::new(2, 1).name(), expected.dynamic);
    assert_eq!(TwoPhase::<K>::new(2, 1, 0).name(), expected.two_phase);
}

#[test]
fn names_are_the_papers() {
    names::<Outer>(StrategyNames {
        random: "RandomOuter",
        sorted: "SortedOuter",
        dynamic: "DynamicOuter",
        two_phase: "DynamicOuter2Phases",
    });
    names::<Matmul>(StrategyNames {
        random: "RandomMatrix",
        sorted: "SortedMatrix",
        dynamic: "DynamicMatrix",
        two_phase: "DynamicMatrix2Phases",
    });
}

#[test]
fn every_paper_strategy_can_run_a_tree_shard() {
    // Tree shards run on their own threads: each instance must be Send.
    fn shardable<S: Scheduler + Send>(_: S) {}
    shardable(RandomOuter::new(2, 1));
    shardable(SortedOuter::new(2, 1));
    shardable(DynamicOuter::rect(2, 3, 1));
    shardable(DynamicOuter2Phases::with_beta(2, 1, 1.0));
    shardable(RandomMatrix::new(2, 1));
    shardable(SortedMatrix::new(2, 1));
    shardable(DynamicMatrix::new(2, 1));
    shardable(DynamicMatrix2Phases::with_beta(2, 1, 1.0));
}

// ---- the two steps -----------------------------------------------------

fn random_step_ships_at_most_one_task_worth<K: Case>(n: usize) {
    let (kernel, mut pool) = fresh::<K>(n);
    let mut w = kernel.worker();
    let mut rng = rng_for(0, 0);
    let mut out = Vec::new();
    let a = kernel.random_step(&mut pool, &mut w, &mut rng, &mut out);
    assert_eq!(a.tasks, 1);
    assert_eq!(a.blocks, K::BLOCKS_PER_TASK, "first task ships every block");
    while pool.remaining() > 0 {
        let a = kernel.random_step(&mut pool, &mut w, &mut rng, &mut out);
        assert_eq!(a.tasks, 1);
        assert!(a.blocks <= K::BLOCKS_PER_TASK);
    }
    assert!(kernel
        .random_step(&mut pool, &mut w, &mut rng, &mut out)
        .is_done());
}

#[test]
fn random_step_ships_at_most_one_task_worth_of_blocks() {
    random_step_ships_at_most_one_task_worth::<Outer>(8);
    random_step_ships_at_most_one_task_worth::<Matmul>(5);
}

fn single_worker_random_steps_ship_each_block_once<K: Case>(n: usize) {
    let (kernel, mut pool) = fresh::<K>(n);
    let mut w = kernel.worker();
    let mut rng = rng_for(1, 0);
    let mut total = 0;
    while pool.remaining() > 0 {
        total += kernel
            .random_step(&mut pool, &mut w, &mut rng, &mut Vec::new())
            .blocks;
    }
    // A single worker eventually owns every block exactly once.
    assert_eq!(total, K::all_blocks(n));
}

#[test]
fn single_worker_random_steps_ship_each_block_once_per_kernel() {
    single_worker_random_steps_ship_each_block_once::<Outer>(6);
    single_worker_random_steps_ship_each_block_once::<Matmul>(4);
}

fn steps_never_allocate_processed_tasks<K: Case>(n: usize, seed: u64) {
    let (kernel, mut pool) = fresh::<K>(n);
    let mut workers = vec![kernel.worker(); 3];
    let mut rng = rng_for(seed, 0);
    let mut out = Vec::new();
    let mut allocated = 0usize;
    let mut turn = 0usize;
    while pool.remaining() > 0 {
        let w = turn % 3;
        let a = if w == 0 {
            kernel.random_step(&mut pool, &mut workers[w], &mut rng, &mut out)
        } else {
            kernel.dynamic_step(&mut pool, &mut workers[w], &mut rng, &mut out)
        };
        allocated += a.tasks;
        turn += 1;
    }
    // Exactly-once: totals line up with the task space.
    assert_eq!(allocated, K::tasks_of(n));
}

#[test]
fn interleaved_steps_never_allocate_processed_tasks() {
    steps_never_allocate_processed_tasks::<Outer>(12, 5);
    steps_never_allocate_processed_tasks::<Matmul>(6, 4);
}

fn dynamic_step_is_done_and_free_once_nothing_remains<K: Case>(n: usize, seed: u64) {
    let (kernel, mut pool) = fresh::<K>(n);
    let (mut w1, mut w2) = (kernel.worker(), kernel.worker());
    let mut rng = rng_for(seed, 0);
    let mut out = Vec::new();
    // w2 learns one index per dimension first.
    let first = kernel.dynamic_step(&mut pool, &mut w2, &mut rng, &mut out);
    assert_eq!(first.tasks, 1);
    // w1 hoovers up the rest.
    while pool.remaining() > 0 {
        kernel.dynamic_step(&mut pool, &mut w1, &mut rng, &mut out);
    }
    // Nothing remains: w2's next request ends without buying anything.
    let done = kernel.dynamic_step(&mut pool, &mut w2, &mut rng, &mut out);
    assert!(done.is_done());
    assert_eq!(done.blocks, 0);
}

#[test]
fn dynamic_step_returns_immediately_when_no_tasks_remain() {
    dynamic_step_is_done_and_free_once_nothing_remains::<Outer>(5, 4);
    dynamic_step_is_done_and_free_once_nothing_remains::<Matmul>(4, 5);
}

// ---- the strategies under the engine ----------------------------------

fn completes_under_engine<S: Scheduler>(speeds: &[f64], sched: S, seed: u64, tasks: usize) {
    let pf = Platform::from_speeds(speeds.to_vec());
    let (report, sched) = Engine::new(&pf, SpeedModel::Fixed, sched).run(&mut rng_for(seed, 0));
    assert_eq!(sched.remaining(), 0, "{}", sched.name());
    assert_eq!(
        report.ledger.total_tasks(),
        tasks as u64,
        "{}",
        sched.name()
    );
    // The fastest worker (listed last) gets the lion's share.
    let last = ProcId(speeds.len() as u32 - 1);
    assert!(
        report.ledger.tasks(last) > report.ledger.tasks(ProcId(0)),
        "{}",
        sched.name()
    );
}

#[test]
fn completes_all_tasks() {
    completes_under_engine(&[10.0, 30.0, 60.0], RandomOuter::new(20, 3), 0, 400);
    completes_under_engine(&[10.0, 100.0], SortedOuter::new(25, 2), 2, 625);
    completes_under_engine(&[15.0, 85.0], DynamicOuter::new(30, 2), 0, 900);
    completes_under_engine(&[10.0, 90.0], RandomMatrix::new(8, 2), 0, 512);
    completes_under_engine(&[10.0, 50.0, 100.0], SortedMatrix::new(7, 3), 2, 343);
    completes_under_engine(&[25.0, 75.0], DynamicMatrix::new(10, 2), 0, 1000);
}

fn single_worker_ships_each_block_once<S: Scheduler>(sched: S, seed: u64, blocks: u64) {
    let pf = Platform::from_speeds(vec![3.0]);
    let name = sched.name();
    let (report, _) = Engine::new(&pf, SpeedModel::Fixed, sched).run(&mut rng_for(seed, 0));
    assert_eq!(report.total_blocks, blocks, "{name}");
}

#[test]
fn single_worker_is_optimal() {
    // Alone, the sorted and dynamic strategies ship each block exactly
    // once: the lower bound.
    single_worker_ships_each_block_once(SortedOuter::new(12, 1), 1, Outer::all_blocks(12));
    single_worker_ships_each_block_once(DynamicOuter::new(40, 1), 4, Outer::all_blocks(40));
    single_worker_ships_each_block_once(SortedMatrix::new(5, 1), 1, Matmul::all_blocks(5));
    single_worker_ships_each_block_once(DynamicMatrix::new(9, 1), 2, Matmul::all_blocks(9));
}

fn allocates_in_lexicographic_order<K: Case>(n: usize) {
    let mut s = Sorted::<K>::new(n, 1);
    let mut rng = rng_for(0, 0);
    let mut out = Vec::new();
    let mut expect = 0u32;
    while s.remaining() > 0 {
        out.clear();
        let a = s.on_request(ProcId(0), &mut rng, &mut out);
        assert_eq!(a.tasks, 1);
        assert_eq!(out.as_slice(), &[expect]);
        expect += 1;
    }
    assert_eq!(expect as usize, K::tasks_of(n));
}

#[test]
fn sorted_allocates_in_lexicographic_order() {
    allocates_in_lexicographic_order::<Outer>(3);
    allocates_in_lexicographic_order::<Matmul>(3);
}

fn random_comm_far_above_lower_bound<K: Case>(n: usize, p: usize) {
    // Random allocation replicates massively.
    let pf = Platform::homogeneous(p);
    let (report, _) =
        Engine::new(&pf, SpeedModel::Fixed, Random::<K>::new(n, p)).run(&mut rng_for(1, 0));
    let normalized = report.normalized(K::lower_bound(n, &pf));
    assert!(
        normalized > 2.0,
        "random should be far from the bound, got {normalized}"
    );
}

#[test]
fn communication_far_above_lower_bound() {
    random_comm_far_above_lower_bound::<Outer>(30, 16);
    random_comm_far_above_lower_bound::<Matmul>(12, 8);
}

fn random_comm_bounded_per_task<K: Case>(n: usize, p: usize) {
    let pf = Platform::homogeneous(p);
    let (report, _) =
        Engine::new(&pf, SpeedModel::Fixed, Random::<K>::new(n, p)).run(&mut rng_for(2, 0));
    assert!(report.total_blocks <= K::BLOCKS_PER_TASK * K::tasks_of(n) as u64);
}

#[test]
fn comm_never_exceeds_one_task_worth_of_blocks_per_task() {
    random_comm_bounded_per_task::<Outer>(15, 4);
    random_comm_bounded_per_task::<Matmul>(6, 3);
}

/// Normalized communication of Dynamic and Random on one paper-default
/// platform draw of 20 workers, same run seed.
fn dynamic_vs_random<K: Case>(n: usize) -> (f64, f64) {
    let pf = Platform::sample(20, &SpeedDistribution::paper_default(), &mut rng_for(1, 0));
    let lb = K::lower_bound(n, &pf);
    let (d, _) =
        Engine::new(&pf, SpeedModel::Fixed, Dynamic::<K>::new(n, 20)).run(&mut rng_for(1, 1));
    let (r, _) =
        Engine::new(&pf, SpeedModel::Fixed, Random::<K>::new(n, 20)).run(&mut rng_for(1, 1));
    let (d, r) = (d.normalized(lb), r.normalized(lb));
    assert!(d < r, "dynamic {d} should beat random {r}");
    (d, r)
}

#[test]
fn dynamic_beats_random_on_communication() {
    let (d, r) = dynamic_vs_random::<Outer>(100);
    // Paper Fig. 2 territory: dynamic around 2.5–3, random around 4.5.
    assert!(d < 3.5, "dynamic too costly: {d}");
    assert!(r > 3.5, "random unexpectedly cheap: {r}");
    dynamic_vs_random::<Matmul>(20);
}

// ---- the two-phase switch ----------------------------------------------

#[test]
fn threshold_from_beta() {
    // e^{-4}·10000 ≈ 183.16 → 183.
    assert_eq!(DynamicOuter2Phases::with_beta(100, 4, 4.0).threshold(), 183);
    // e^{-3}·64000 ≈ 3186.3 → 3186.
    assert_eq!(
        DynamicMatrix2Phases::with_beta(40, 4, 3.0).threshold(),
        3186
    );
}

fn beta_and_fraction_round_identically<K: Case>(ns: [usize; 3]) {
    // Both parameterizations round to nearest: the same switch point
    // expressed either way yields the same threshold.
    for n in ns {
        for beta in [0.5f64, 1.0, 3.3, 6.0] {
            let a = TwoPhase::<K>::with_beta(n, 2, beta);
            let b = TwoPhase::<K>::with_phase1_fraction(n, 2, 1.0 - (-beta).exp());
            assert_eq!(a.threshold(), b.threshold(), "n={n} β={beta}");
        }
    }
}

#[test]
fn beta_and_fraction_thresholds_round_identically() {
    beta_and_fraction_round_identically::<Outer>([10, 33, 100]);
    beta_and_fraction_round_identically::<Matmul>([6, 15, 40]);
}

/// Total blocks of a two-phase run and of `pure` on the same platform and
/// run seed.
fn blocks_of<K: Case, S: Scheduler>(
    pf: &Platform,
    two: TwoPhase<K>,
    pure: S,
    seed: u64,
) -> (u64, u64, TwoPhase<K>) {
    let (a, two) = Engine::new(pf, SpeedModel::Fixed, two).run(&mut rng_for(seed, 7));
    let (b, _) = Engine::new(pf, SpeedModel::Fixed, pure).run(&mut rng_for(seed, 7));
    (a.total_blocks, b.total_blocks, two)
}

fn zero_threshold_is_pure_dynamic<K: Case>(n: usize, p: usize) {
    let pf = Platform::homogeneous(p);
    let (two, pure, _) = blocks_of(&pf, TwoPhase::<K>::new(n, p, 0), Dynamic::<K>::new(n, p), 0);
    assert_eq!(two, pure);
}

#[test]
fn zero_threshold_degenerates_to_pure_dynamic() {
    zero_threshold_is_pure_dynamic::<Outer>(30, 5);
    zero_threshold_is_pure_dynamic::<Matmul>(8, 4);
}

fn full_threshold_is_pure_random<K: Case>(n: usize, p: usize) {
    let pf = Platform::homogeneous(p);
    let (two, pure, _) = blocks_of(
        &pf,
        TwoPhase::<K>::new(n, p, K::tasks_of(n)),
        Random::<K>::new(n, p),
        1,
    );
    assert_eq!(two, pure);
}

#[test]
fn full_threshold_degenerates_to_pure_random() {
    full_threshold_is_pure_random::<Outer>(30, 5);
    full_threshold_is_pure_random::<Matmul>(8, 4);
}

fn beta_zero_is_random<K: Case>(pf: &Platform, n: usize, seed: u64) {
    // β = 0 ⇒ threshold = every task ⇒ every request is a phase-2 random
    // step.
    let p = pf.len();
    let two = TwoPhase::<K>::with_beta(n, p, 0.0);
    assert_eq!(two.threshold(), K::tasks_of(n));
    let (two, pure, sched) = blocks_of(pf, two, Random::<K>::new(n, p), seed);
    assert_eq!(two, pure);
    let (_, _, phase1_tasks, phase2_tasks) = sched.phase_split();
    assert_eq!(phase1_tasks, 0);
    assert_eq!(phase2_tasks, K::tasks_of(n));
}

#[test]
fn beta_zero_is_pure_random() {
    beta_zero_is_random::<Outer>(&Platform::from_speeds(vec![10.0, 40.0]), 20, 5);
    beta_zero_is_random::<Matmul>(&Platform::homogeneous(4), 8, 21);
}

fn fraction_one_is_dynamic<K: Case>(pf: &Platform, n: usize, seed: u64) {
    // fraction = 1 ⇒ threshold = 0 ⇒ every request is a phase-1 dynamic
    // step.
    let p = pf.len();
    let two = TwoPhase::<K>::with_phase1_fraction(n, p, 1.0);
    assert_eq!(two.threshold(), 0);
    let (two, pure, sched) = blocks_of(pf, two, Dynamic::<K>::new(n, p), seed);
    assert_eq!(two, pure);
    let (_, _, phase1_tasks, phase2_tasks) = sched.phase_split();
    assert_eq!(phase2_tasks, 0);
    assert_eq!(phase1_tasks, K::tasks_of(n));
}

#[test]
fn fraction_one_is_pure_dynamic() {
    fraction_one_is_dynamic::<Outer>(&Platform::from_speeds(vec![10.0, 40.0]), 20, 6);
    fraction_one_is_dynamic::<Matmul>(&Platform::homogeneous(4), 8, 22);
}

fn phase_accounting<K: Case>(n: usize, beta: f64) {
    let pf = Platform::from_speeds(vec![20.0, 30.0, 50.0]);
    let (report, sched) = Engine::new(&pf, SpeedModel::Fixed, TwoPhase::<K>::with_beta(n, 3, beta))
        .run(&mut rng_for(2, 0));
    let (phase1_blocks, phase2_blocks, phase1_tasks, phase2_tasks) = sched.phase_split();
    assert_eq!(phase1_tasks + phase2_tasks, K::tasks_of(n));
    assert_eq!(phase1_blocks + phase2_blocks, report.total_blocks);
    assert!(phase2_tasks > 0, "β={beta} on n={n} leaves an end game");
    assert!(
        phase2_tasks <= sched.threshold(),
        "phase 2 handles at most the threshold"
    );
}

#[test]
fn phase_accounting_is_exhaustive() {
    phase_accounting::<Outer>(40, 4.0);
    phase_accounting::<Matmul>(12, 3.0);
}

fn improves_on_dynamic<K: Case>(n: usize, beta: f64, trials: u64, seed_base: u64) {
    // Paper Fig. 2/6: a well-chosen threshold strictly reduces comm.
    let pf = Platform::sample(20, &SpeedDistribution::paper_default(), &mut rng_for(3, 0));
    let lb = K::lower_bound(n, &pf);
    let mut dyn_sum = 0.0;
    let mut two_sum = 0.0;
    for t in 0..trials {
        let (d, _) = Engine::new(&pf, SpeedModel::Fixed, Dynamic::<K>::new(n, 20))
            .run(&mut rng_for(seed_base + t, 0));
        let (w, _) = Engine::new(
            &pf,
            SpeedModel::Fixed,
            TwoPhase::<K>::with_beta(n, 20, beta),
        )
        .run(&mut rng_for(seed_base + t, 0));
        dyn_sum += d.normalized(lb);
        two_sum += w.normalized(lb);
    }
    assert!(
        two_sum < dyn_sum,
        "two-phase {two_sum} should beat pure dynamic {dyn_sum}"
    );
}

#[test]
fn improves_on_pure_dynamic_with_good_beta() {
    improves_on_dynamic::<Outer>(100, 4.17, 5, 100);
    improves_on_dynamic::<Matmul>(20, 3.0, 4, 50);
}

fn single_task_problem<K: Case>(p: usize, beta: f64, seed: u64) {
    // Degenerate problem: a single task.
    let pf = Platform::homogeneous(p);
    let (report, sched) = Engine::new(&pf, SpeedModel::Fixed, TwoPhase::<K>::with_beta(1, p, beta))
        .run(&mut rng_for(seed, 0));
    let (_, _, phase1_tasks, phase2_tasks) = sched.phase_split();
    assert_eq!(phase1_tasks + phase2_tasks, 1);
    assert_eq!(report.ledger.total_tasks(), 1);
    assert_eq!(report.total_blocks, K::BLOCKS_PER_TASK);
}

#[test]
fn n_equals_one_works() {
    single_task_problem::<Outer>(3, 4.0, 9);
    single_task_problem::<Matmul>(2, 2.0, 11);
}

fn introspection<K: Case>(n: usize, threshold: usize) {
    let mut s = TwoPhase::<K>::new(n, 2, threshold);
    assert_eq!(s.phase(), Some(1));
    assert_eq!(s.useful_fraction(ProcId(0)), Some(0.0));
    let mut rng = rng_for(7, 0);
    let mut out = Vec::new();
    while s.remaining() > threshold {
        out.clear();
        s.on_request(ProcId(0), &mut rng, &mut out);
    }
    assert_eq!(s.phase(), Some(2));
    let f = s.useful_fraction(ProcId(0)).unwrap();
    assert!(f > 0.0 && f <= 1.0, "{f}");
    // The idle worker acquired nothing.
    assert_eq!(s.useful_fraction(ProcId(1)), Some(0.0));
}

#[test]
fn introspection_reports_phase_and_knowledge() {
    introspection::<Outer>(10, 50);
    introspection::<Matmul>(6, 100);
}
