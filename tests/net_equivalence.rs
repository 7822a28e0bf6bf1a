//! The network subsystem must be invisible until asked for.
//!
//! Two layers of protection:
//!
//! 1. **Golden values.** The numbers below were captured from the engine
//!    *before* `hetsched-net` existed (seed `0x5EED`, 6 workers, default
//!    `U[10,100]` speed draw). Every strategy must still reproduce them bit
//!    for bit under the default (`Infinite`) network — any drift means the
//!    refactor touched the free-communication path.
//! 2. **Explicit-vs-implicit.** `Engine::with_network(Infinite)` must be
//!    indistinguishable from never calling `with_network` at all: identical
//!    report *and* identical request trace, for all eight strategies.
//! 3. **Fault and tree golden values.** [`PATH_GOLDEN`] pins what
//!    [`GOLDEN`] cannot reach: failure re-allocation, a straggler and
//!    speed jitter on the flat engine, and rectangular tree shards with
//!    per-shard two-phase thresholds.
//!
//! A third test exercises the acceptance criterion of the subsystem itself:
//! under a tight one-port master link, `DynamicOuter`'s lower communication
//! volume must translate into a strictly better makespan than
//! `RandomOuter`'s, and the advantage must vanish once bandwidth is ample.

use hetsched::core::{run_once, BetaChoice, ExperimentConfig, Kernel, Strategy};
use hetsched::matmul::{DynamicMatrix, DynamicMatrix2Phases, RandomMatrix, SortedMatrix};
use hetsched::net::NetworkModel;
use hetsched::outer::{DynamicOuter, DynamicOuter2Phases, RandomOuter, SortedOuter};
use hetsched::platform::{FailureModel, Platform, ProcId, SpeedModel};
use hetsched::sim::{Engine, Scheduler, SimReport, Topology, Trace};
use hetsched::util::rng::rng_for;

const SEED: u64 = 0x5EED;

struct Golden {
    kernel: Kernel,
    strategy: Strategy,
    blocks: u64,
    makespan_bits: u64,
    tasks: [u64; 6],
}

/// Captured from the pre-network engine (commit `4fe48f8`) with the exact
/// program in the module docs. Do not regenerate casually: a change here is
/// a behavior change in the default simulation path.
const GOLDEN: [Golden; 8] = [
    Golden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::Random,
        blocks: 262,
        makespan_bits: 0x3fff211bdd45ee88,
        tasks: [77, 39, 131, 32, 160, 137],
    },
    Golden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::Sorted,
        blocks: 280,
        makespan_bits: 0x3fff211bdd45ee88,
        tasks: [77, 39, 131, 32, 160, 137],
    },
    Golden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::Dynamic,
        blocks: 196,
        makespan_bits: 0x400028e484839820,
        tasks: [79, 41, 129, 31, 156, 140],
    },
    Golden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::TwoPhase(BetaChoice::Analytic),
        blocks: 194,
        makespan_bits: 0x400028e484839820,
        tasks: [79, 41, 130, 32, 158, 136],
    },
    Golden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::Random,
        blocks: 1353,
        makespan_bits: 0x400ace767397cdec,
        tasks: [134, 68, 228, 55, 277, 238],
    },
    Golden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::Sorted,
        blocks: 1444,
        makespan_bits: 0x400ace767397cdec,
        tasks: [134, 68, 228, 55, 277, 238],
    },
    Golden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::Dynamic,
        blocks: 1278,
        makespan_bits: 0x400e7fb21ae2e702,
        tasks: [128, 63, 260, 56, 264, 229],
    },
    Golden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::TwoPhase(BetaChoice::Analytic),
        blocks: 877,
        makespan_bits: 0x400e7fb21ae2e702,
        tasks: [128, 65, 260, 53, 266, 228],
    },
];

#[test]
fn default_path_matches_pre_network_golden_values() {
    for g in GOLDEN {
        let cfg = ExperimentConfig {
            kernel: g.kernel,
            strategy: g.strategy,
            processors: 6,
            ..Default::default()
        };
        let label = g.strategy.label(g.kernel);
        let r = run_once(&cfg, SEED);
        assert_eq!(r.total_blocks, g.blocks, "{label}: blocks drifted");
        assert_eq!(
            r.makespan.to_bits(),
            g.makespan_bits,
            "{label}: makespan drifted ({} vs bits {:#018x})",
            r.makespan,
            g.makespan_bits
        );
        assert_eq!(r.tasks_per_proc, g.tasks, "{label}: task split drifted");
        assert_eq!(
            r.link_utilization, 0.0,
            "{label}: infinite model priced a link"
        );
        assert_eq!(r.max_queue_depth, 0, "{label}");
        assert_eq!(r.wasted_blocks, 0, "{label}");
        assert!(
            r.transfer_wait_per_proc.iter().all(|&w| w == 0.0),
            "{label}"
        );
    }
}

fn run_pair<S: Scheduler>(
    platform: &Platform,
    make: impl Fn() -> S,
) -> ((SimReport, Trace), (SimReport, Trace)) {
    let (ra, _, ta) =
        Engine::new(platform, SpeedModel::Fixed, make()).run_traced(&mut rng_for(SEED, 7));
    let (rb, _, tb) = Engine::new(platform, SpeedModel::Fixed, make())
        .with_network(NetworkModel::Infinite)
        .run_traced(&mut rng_for(SEED, 7));
    ((ra, ta), (rb, tb))
}

fn assert_identical(name: &str, a: (SimReport, Trace), b: (SimReport, Trace)) {
    let ((ra, ta), (rb, tb)) = (a, b);
    assert_eq!(
        ra.makespan.to_bits(),
        rb.makespan.to_bits(),
        "{name}: makespan"
    );
    assert_eq!(ra.total_blocks, rb.total_blocks, "{name}: blocks");
    assert_eq!(ra.lost_tasks, rb.lost_tasks, "{name}");
    assert_eq!(ra.reshipped_blocks, rb.reshipped_blocks, "{name}");
    assert_eq!(
        ra.ledger.tasks_per_proc(),
        rb.ledger.tasks_per_proc(),
        "{name}"
    );
    assert_eq!(
        ra.ledger.blocks_per_proc(),
        rb.ledger.blocks_per_proc(),
        "{name}"
    );
    assert_eq!(ta.events(), tb.events(), "{name}: traces diverge");
}

#[test]
fn explicit_infinite_network_is_bit_for_bit_identical() {
    let platform = Platform::from_speeds(vec![14.0, 95.0, 37.0, 61.0, 28.0, 80.0]);
    let (n, p, thresh) = (24, 6, 24 * 24 / 4);
    let (a, b) = run_pair(&platform, || RandomOuter::new(n, p));
    assert_identical("RandomOuter", a, b);
    let (a, b) = run_pair(&platform, || SortedOuter::new(n, p));
    assert_identical("SortedOuter", a, b);
    let (a, b) = run_pair(&platform, || DynamicOuter::new(n, p));
    assert_identical("DynamicOuter", a, b);
    let (a, b) = run_pair(&platform, || DynamicOuter2Phases::new(n, p, thresh));
    assert_identical("DynamicOuter2Phases", a, b);

    let (m, mthresh) = (10, 10 * 10 * 10 / 4);
    let (a, b) = run_pair(&platform, || RandomMatrix::new(m, p));
    assert_identical("RandomMatrix", a, b);
    let (a, b) = run_pair(&platform, || SortedMatrix::new(m, p));
    assert_identical("SortedMatrix", a, b);
    let (a, b) = run_pair(&platform, || DynamicMatrix::new(m, p));
    assert_identical("DynamicMatrix", a, b);
    let (a, b) = run_pair(&platform, || DynamicMatrix2Phases::new(m, p, mthresh));
    assert_identical("DynamicMatrix2Phases", a, b);
}

#[test]
fn one_port_sweep_has_a_crossover_where_dynamic_wins() {
    // Same seed → same platform draw for both strategies, so the makespans
    // are directly comparable at every bandwidth.
    let makespan = |strategy, bw: Option<f64>| {
        let cfg = ExperimentConfig {
            kernel: Kernel::Outer { n: 40 },
            strategy,
            processors: 8,
            network: match bw {
                Some(master_bw) => NetworkModel::OnePort { master_bw },
                None => NetworkModel::Infinite,
            },
            ..Default::default()
        };
        run_once(&cfg, SEED).makespan
    };

    // Sweep from starved to saturated and find the crossover.
    let sweep = [2.0, 5.0, 10.0, 25.0, 60.0, 150.0, 400.0, 1000.0];
    let mut crossover = None;
    for bw in sweep {
        let (rand, dynamic) = (
            makespan(Strategy::Random, Some(bw)),
            makespan(Strategy::Dynamic, Some(bw)),
        );
        if dynamic < rand * 0.98 && crossover.is_none() {
            crossover = Some(bw);
        }
    }
    let crossover = crossover.expect(
        "some bandwidth in the sweep must be tight enough for DynamicOuter's \
         lower communication volume to win on makespan",
    );

    // Below the crossover the link is the bottleneck: the win must be there
    // and must be a real margin, not noise.
    let (rand, dynamic) = (
        makespan(Strategy::Random, Some(crossover)),
        makespan(Strategy::Dynamic, Some(crossover)),
    );
    assert!(
        dynamic < rand * 0.98,
        "at bw={crossover}: dynamic {dynamic} vs random {rand}"
    );

    // With ample bandwidth both are compute-bound and work-conserving: the
    // advantage disappears (and neither is slower than its starved self).
    let (rand_hi, dyn_hi) = (
        makespan(Strategy::Random, Some(1e7)),
        makespan(Strategy::Dynamic, Some(1e7)),
    );
    assert!(
        (rand_hi - dyn_hi).abs() / rand_hi < 0.10,
        "ample bandwidth: {rand_hi} vs {dyn_hi} should be near-equal \
         (both are work-conserving; only end-game batch granularity differs)"
    );
    assert!(rand_hi < rand, "random must speed up when the link relaxes");

    // And the priced-but-ample run sits within a whisker of the free model.
    // (Not exactly equal: the networked loop draws allocations in a
    // different order, so the batches differ even when transfers are free.)
    let rand_free = makespan(Strategy::Random, None);
    assert!(
        (rand_hi - rand_free).abs() / rand_free < 0.05,
        "free {rand_free} vs ample one-port {rand_hi}"
    );
}

/// One pinned run of the fault-injected flat scenario or the two-sub-master
/// tree scenario below.
struct PathGolden {
    kernel: Kernel,
    strategy: Strategy,
    tree: bool,
    blocks: u64,
    makespan_bits: u64,
    lost: u64,
    reshipped: u64,
    tasks: &'static [u64],
    phase_split: Option<(u64, u64, usize, usize)>,
}

/// The paths [`GOLDEN`] does not reach: worker failure (the orphan
/// re-allocation branches of every strategy), a straggler and `dyn5`
/// speed jitter on a flat run, and a two-sub-master tree run (rectangular
/// shards, per-shard two-phase thresholds from β and from a phase-1
/// fraction).
fn path_cfg(kernel: Kernel, strategy: Strategy, tree: bool) -> ExperimentConfig {
    if tree {
        return ExperimentConfig {
            kernel,
            strategy,
            processors: 8,
            topology: Topology::Tree { submasters: 2 },
            ..Default::default()
        };
    }
    let fail_time = match kernel {
        Kernel::Outer { .. } => 0.93,
        Kernel::Matmul { .. } => 1.63,
    };
    ExperimentConfig {
        kernel,
        strategy,
        processors: 6,
        speed_model: SpeedModel::dyn5(),
        failures: FailureModel::none()
            .fail_at(ProcId(1), fail_time)
            .slow_down(ProcId(3), 2.5),
        ..Default::default()
    }
}

/// Captured before the strategies became one generic family, with the
/// configurations of [`path_cfg`] and seed [`SEED`]. Like [`GOLDEN`], a
/// change here is a behavior change.
const PATH_GOLDEN: [PathGolden; 18] = [
    PathGolden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::Random,
        tree: false,
        blocks: 242,
        makespan_bits: 0x4000e280b0de3f67,
        lost: 1,
        reshipped: 0,
        tasks: &[83, 18, 142, 14, 172, 147],
        phase_split: None,
    },
    PathGolden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::Sorted,
        tree: false,
        blocks: 246,
        makespan_bits: 0x40011d44b1355353,
        lost: 1,
        reshipped: 0,
        tasks: &[83, 18, 142, 14, 172, 147],
        phase_split: None,
    },
    PathGolden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::Dynamic,
        tree: false,
        blocks: 184,
        makespan_bits: 0x400be40255098634,
        lost: 8,
        reshipped: 12,
        tasks: &[85, 12, 136, 23, 178, 142],
        phase_split: None,
    },
    PathGolden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::TwoPhase(BetaChoice::Analytic),
        tree: false,
        blocks: 185,
        makespan_bits: 0x400be40255098634,
        lost: 8,
        reshipped: 12,
        tasks: &[83, 12, 140, 23, 171, 147],
        phase_split: Some((172, 13, 564, 20)),
    },
    PathGolden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::Random,
        tree: false,
        blocks: 1245,
        makespan_bits: 0x400d2244d6ecc69b,
        lost: 1,
        reshipped: 1,
        tasks: &[144, 32, 245, 24, 299, 256],
        phase_split: None,
    },
    PathGolden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::Sorted,
        tree: false,
        blocks: 1310,
        makespan_bits: 0x400d324b62771991,
        lost: 1,
        reshipped: 2,
        tasks: &[144, 32, 245, 24, 299, 256],
        phase_split: None,
    },
    PathGolden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::Dynamic,
        tree: false,
        blocks: 1089,
        makespan_bits: 0x4010f0d0cf794e02,
        lost: 27,
        reshipped: 384,
        tasks: &[140, 21, 259, 28, 298, 254],
        phase_split: None,
    },
    PathGolden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::TwoPhase(BetaChoice::Analytic),
        tree: false,
        blocks: 866,
        makespan_bits: 0x400e42e6dfb7d996,
        lost: 27,
        reshipped: 207,
        tasks: &[145, 21, 249, 25, 301, 259],
        phase_split: Some((759, 107, 963, 64)),
    },
    PathGolden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::Random,
        tree: true,
        blocks: 345,
        makespan_bits: 0x3ff56751596adfbb,
        lost: 0,
        reshipped: 0,
        tasks: &[53, 27, 90, 22, 111, 95, 77, 101],
        phase_split: None,
    },
    PathGolden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::Sorted,
        tree: true,
        blocks: 342,
        makespan_bits: 0x3ff56751596adfbb,
        lost: 0,
        reshipped: 0,
        tasks: &[53, 27, 90, 22, 111, 95, 77, 101],
        phase_split: None,
    },
    PathGolden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::Dynamic,
        tree: true,
        blocks: 292,
        makespan_bits: 0x3ffa03635eae5f08,
        lost: 0,
        reshipped: 0,
        tasks: &[53, 33, 85, 21, 108, 91, 87, 98],
        phase_split: None,
    },
    PathGolden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::TwoPhase(BetaChoice::Analytic),
        tree: true,
        blocks: 272,
        makespan_bits: 0x3ff81c12821b7ff7,
        lost: 0,
        reshipped: 0,
        tasks: &[53, 27, 90, 22, 107, 92, 87, 98],
        phase_split: Some((186, 14, 557, 19)),
    },
    PathGolden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::TwoPhase(BetaChoice::Phase1Fraction(0.7)),
        tree: true,
        blocks: 298,
        makespan_bits: 0x3ff56751596adfb4,
        lost: 0,
        reshipped: 0,
        tasks: &[53, 27, 90, 22, 111, 95, 77, 101],
        phase_split: Some((132, 94, 408, 168)),
    },
    PathGolden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::Random,
        tree: true,
        blocks: 1675,
        makespan_bits: 0x40038981c1b52e41,
        lost: 0,
        reshipped: 0,
        tasks: &[83, 42, 141, 34, 202, 173, 141, 184],
        phase_split: None,
    },
    PathGolden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::Sorted,
        tree: true,
        blocks: 1672,
        makespan_bits: 0x40038981c1b52e41,
        lost: 0,
        reshipped: 0,
        tasks: &[83, 42, 141, 34, 202, 173, 141, 184],
        phase_split: None,
    },
    PathGolden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::Dynamic,
        tree: true,
        blocks: 1617,
        makespan_bits: 0x4003d07341bb61d1,
        lost: 0,
        reshipped: 0,
        tasks: &[85, 41, 135, 39, 203, 175, 143, 179],
        phase_split: None,
    },
    PathGolden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::TwoPhase(BetaChoice::Analytic),
        tree: true,
        blocks: 1370,
        makespan_bits: 0x40038981c1b52e4e,
        lost: 0,
        reshipped: 0,
        tasks: &[85, 41, 135, 39, 202, 173, 141, 184],
        phase_split: Some((847, 123, 910, 90)),
    },
    PathGolden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::TwoPhase(BetaChoice::Phase1Fraction(0.7)),
        tree: true,
        blocks: 1419,
        makespan_bits: 0x40038981c1b52e49,
        lost: 0,
        reshipped: 0,
        tasks: &[83, 42, 141, 34, 202, 173, 141, 184],
        phase_split: Some((596, 423, 705, 295)),
    },
];

#[test]
fn fault_and_tree_paths_match_golden_values() {
    for g in &PATH_GOLDEN {
        let cfg = path_cfg(g.kernel, g.strategy, g.tree);
        let label = format!(
            "{:?}/{}/tree={}",
            g.strategy,
            g.strategy.label(g.kernel),
            g.tree
        );
        let r = run_once(&cfg, SEED);
        assert_eq!(r.total_blocks, g.blocks, "{label}: blocks drifted");
        assert_eq!(
            r.makespan.to_bits(),
            g.makespan_bits,
            "{label}: makespan drifted ({} vs bits {:#018x})",
            r.makespan,
            g.makespan_bits
        );
        assert_eq!(r.lost_tasks, g.lost, "{label}: lost tasks drifted");
        assert_eq!(
            r.reshipped_blocks, g.reshipped,
            "{label}: re-shipping drifted"
        );
        assert_eq!(r.tasks_per_proc, g.tasks, "{label}: task split drifted");
        assert_eq!(r.phase_split, g.phase_split, "{label}: phase split drifted");
        // The scenario must reach what it claims to: every flat run loses
        // work to the failure.
        if !g.tree {
            assert!(g.lost > 0, "{label}: the failure struck an idle worker");
        }
    }
}
