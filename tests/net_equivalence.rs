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
//! 4. **Priced golden values.** [`PRICED_GOLDEN`] pins the priced network
//!    path for all eight strategies: a one-port link with latency and
//!    result write-back pricing, a bounded multiport master with per-worker
//!    caps, and a one-port link with a failure that strands transfers.
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

/// The three priced-network scenarios [`PRICED_GOLDEN`] pins.
#[derive(Clone, Copy, Debug)]
enum Priced {
    /// One-port master link with per-worker latency and result write-back
    /// pricing.
    Returns,
    /// Bounded multiport master with per-worker inbound caps.
    Multiport,
    /// One-port master link with a worker failing while transfers toward
    /// it are still pending.
    Failure,
}

/// One pinned run of a [`Priced`] scenario.
struct PricedGolden {
    kernel: Kernel,
    strategy: Strategy,
    scenario: Priced,
    blocks: u64,
    makespan_bits: u64,
    tasks: [u64; 6],
    wasted: u64,
    returned: u64,
    max_queue_depth: usize,
    utilization_bits: u64,
    lost: u64,
    reshipped: u64,
    /// Bits of the transfer wait summed over workers, pinned only without
    /// failures: after a failure the next task changes what a parked
    /// worker's wait is charged from.
    wait_bits: Option<u64>,
}

fn priced_cfg(kernel: Kernel, strategy: Strategy, scenario: Priced) -> ExperimentConfig {
    let base = ExperimentConfig {
        kernel,
        strategy,
        processors: 6,
        ..Default::default()
    };
    match scenario {
        Priced::Returns => ExperimentConfig {
            network: NetworkModel::OnePort { master_bw: 150.0 },
            link_latency: 0.01,
            price_returns: true,
            ..base
        },
        Priced::Multiport => ExperimentConfig {
            network: NetworkModel::BoundedMultiport {
                master_bw: 200.0,
                worker_bw: 50.0,
            },
            link_bandwidths: Some(vec![40.0, 60.0, 25.0, 80.0, 50.0, 35.0]),
            ..base
        },
        Priced::Failure => {
            let fail_time = match kernel {
                Kernel::Outer { .. } => 1.1,
                Kernel::Matmul { .. } => 2.3,
            };
            ExperimentConfig {
                network: NetworkModel::OnePort { master_bw: 60.0 },
                failures: FailureModel::none().fail_at(ProcId(1), fail_time),
                ..base
            }
        }
    }
}

/// Captured from the priced engine before the free and priced event loops
/// were merged, with the configurations of [`priced_cfg`] and seed
/// [`SEED`]. Like [`GOLDEN`], a change here is a behavior change of the
/// priced path.
const PRICED_GOLDEN: [PricedGolden; 24] = [
    PricedGolden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::Random,
        scenario: Priced::Returns,
        blocks: 280,
        makespan_bits: 0x4016ddddddddde34,
        tasks: [80, 68, 133, 64, 124, 107],
        wasted: 0,
        returned: 576,
        max_queue_depth: 57,
        utilization_bits: 0x3feff1ab8335969e,
        lost: 0,
        reshipped: 0,
        wait_bits: Some(0x4031cd826666e50b),
    },
    PricedGolden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::Sorted,
        scenario: Priced::Returns,
        blocks: 279,
        makespan_bits: 0x4016d70a3d70a42f,
        tasks: [78, 61, 114, 57, 140, 126],
        wasted: 0,
        returned: 576,
        max_queue_depth: 26,
        utilization_bits: 0x3feff1a73abb6791,
        lost: 0,
        reshipped: 0,
        wait_bits: Some(0x4033d1e9849a9ee2),
    },
    PricedGolden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::Dynamic,
        scenario: Priced::Returns,
        blocks: 248,
        makespan_bits: 0x4018b878c297eee1,
        tasks: [91, 88, 99, 75, 114, 109],
        wasted: 0,
        returned: 576,
        max_queue_depth: 14,
        utilization_bits: 0x3fec719a6b91df0c,
        lost: 0,
        reshipped: 0,
        wait_bits: Some(0x4030436f91315088),
    },
    PricedGolden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::TwoPhase(BetaChoice::Analytic),
        scenario: Priced::Returns,
        blocks: 216,
        makespan_bits: 0x401528f5c28f5c35,
        tasks: [96, 72, 102, 77, 115, 114],
        wasted: 0,
        returned: 576,
        max_queue_depth: 18,
        utilization_bits: 0x3feff083a1263b0b,
        lost: 0,
        reshipped: 0,
        wait_bits: Some(0x403005fda6e830a1),
    },
    PricedGolden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::Random,
        scenario: Priced::Returns,
        blocks: 1532,
        makespan_bits: 0x4030e84fb37a94db,
        tasks: [163, 158, 174, 156, 173, 176],
        wasted: 0,
        returned: 1000,
        max_queue_depth: 17,
        utilization_bits: 0x3feff2b12e5dec15,
        lost: 0,
        reshipped: 0,
        wait_bits: Some(0x4052142797fa6a6f),
    },
    PricedGolden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::Sorted,
        scenario: Priced::Returns,
        blocks: 1586,
        makespan_bits: 0x40313fffffffffaf,
        tasks: [165, 158, 167, 156, 177, 177],
        wasted: 0,
        returned: 1000,
        max_queue_depth: 15,
        utilization_bits: 0x3feffb40427c5d32,
        lost: 0,
        reshipped: 0,
        wait_bits: Some(0x4052a3245023bdc0),
    },
    PricedGolden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::Dynamic,
        scenario: Priced::Returns,
        blocks: 1362,
        makespan_bits: 0x402f8369d0369d05,
        tasks: [144, 97, 172, 160, 206, 221],
        wasted: 0,
        returned: 1000,
        max_queue_depth: 14,
        utilization_bits: 0x3feffacd09cd6ada,
        lost: 0,
        reshipped: 0,
        wait_bits: Some(0x404cc6cff44f650e),
    },
    PricedGolden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::TwoPhase(BetaChoice::Analytic),
        scenario: Priced::Returns,
        blocks: 1038,
        makespan_bits: 0x402b317e4b17e48b,
        tasks: [153, 107, 178, 161, 183, 218],
        wasted: 0,
        returned: 1000,
        max_queue_depth: 14,
        utilization_bits: 0x3feff9f99932c5f2,
        lost: 0,
        reshipped: 0,
        wait_bits: Some(0x404b3037823d0426),
    },
    PricedGolden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::Random,
        scenario: Priced::Multiport,
        blocks: 276,
        makespan_bits: 0x400692ff3a3d76a3,
        tasks: [94, 56, 87, 46, 166, 127],
        wasted: 0,
        returned: 0,
        max_queue_depth: 2,
        utilization_bits: 0x3fe2e2c2409181c0,
        lost: 0,
        reshipped: 0,
        wait_bits: Some(0x400e05f82e2c91a0),
    },
    PricedGolden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::Sorted,
        scenario: Priced::Multiport,
        blocks: 282,
        makespan_bits: 0x400599f65b53472f,
        tasks: [94, 53, 86, 44, 172, 127],
        wasted: 0,
        returned: 0,
        max_queue_depth: 2,
        utilization_bits: 0x3fe3ebe3e1d4b7d2,
        lost: 0,
        reshipped: 0,
        wait_bits: Some(0x40095c23062c9043),
    },
    PricedGolden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::Dynamic,
        scenario: Priced::Multiport,
        blocks: 190,
        makespan_bits: 0x400372c96c51655d,
        tasks: [69, 48, 133, 34, 163, 129],
        wasted: 0,
        returned: 0,
        max_queue_depth: 2,
        utilization_bits: 0x3fdee0725ea7b7af,
        lost: 0,
        reshipped: 0,
        wait_bits: Some(0x3ff2b431a93246a6),
    },
    PricedGolden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::TwoPhase(BetaChoice::Analytic),
        scenario: Priced::Multiport,
        blocks: 193,
        makespan_bits: 0x400372c96c51655d,
        tasks: [71, 48, 134, 35, 157, 131],
        wasted: 0,
        returned: 0,
        max_queue_depth: 2,
        utilization_bits: 0x3fdf8854fe67a7a7,
        lost: 0,
        reshipped: 0,
        wait_bits: Some(0x3ff1c8ab780fa9e3),
    },
    PricedGolden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::Random,
        scenario: Priced::Multiport,
        blocks: 1463,
        makespan_bits: 0x40220afed684225d,
        tasks: [178, 154, 96, 141, 270, 161],
        wasted: 0,
        returned: 0,
        max_queue_depth: 2,
        utilization_bits: 0x3fee48cb2d0860ed,
        lost: 0,
        reshipped: 0,
        wait_bits: Some(0x403a2e13c353aa2c),
    },
    PricedGolden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::Sorted,
        scenario: Priced::Multiport,
        blocks: 1540,
        makespan_bits: 0x4022300ebf8ea27c,
        tasks: [184, 169, 91, 148, 257, 151],
        wasted: 0,
        returned: 0,
        max_queue_depth: 2,
        utilization_bits: 0x3fef4a56cad88151,
        lost: 0,
        reshipped: 0,
        wait_bits: Some(0x4039cb012aa86f0e),
    },
    PricedGolden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::Dynamic,
        scenario: Priced::Multiport,
        blocks: 1170,
        makespan_bits: 0x401f5c25d90959f5,
        tasks: [129, 141, 111, 107, 271, 241],
        wasted: 0,
        returned: 0,
        max_queue_depth: 2,
        utilization_bits: 0x3fec9e252c23a8d6,
        lost: 0,
        reshipped: 0,
        wait_bits: Some(0x403184553c26934f),
    },
    PricedGolden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::TwoPhase(BetaChoice::Analytic),
        scenario: Priced::Multiport,
        blocks: 997,
        makespan_bits: 0x401aeebaa3b00e4a,
        tasks: [130, 130, 121, 104, 279, 236],
        wasted: 0,
        returned: 0,
        max_queue_depth: 2,
        utilization_bits: 0x3fec9d701e372334,
        lost: 0,
        reshipped: 0,
        wait_bits: Some(0x402ca77b0b64b760),
    },
    PricedGolden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::Random,
        scenario: Priced::Failure,
        blocks: 248,
        makespan_bits: 0x4013ca312069abe6,
        tasks: [93, 6, 130, 55, 149, 143],
        wasted: 2,
        returned: 0,
        max_queue_depth: 5,
        utilization_bits: 0x3feabbfababf2995,
        lost: 1,
        reshipped: 0,
        wait_bits: None,
    },
    PricedGolden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::Sorted,
        scenario: Priced::Failure,
        blocks: 250,
        makespan_bits: 0x401266a619cca165,
        tasks: [87, 8, 126, 61, 157, 137],
        wasted: 1,
        returned: 0,
        max_queue_depth: 5,
        utilization_bits: 0x3fecfbe5dc439dff,
        lost: 2,
        reshipped: 1,
        wait_bits: None,
    },
    PricedGolden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::Dynamic,
        scenario: Priced::Failure,
        blocks: 194,
        makespan_bits: 0x400d9033b139a167,
        tasks: [86, 9, 136, 55, 154, 136],
        wasted: 2,
        returned: 0,
        max_queue_depth: 5,
        utilization_bits: 0x3febffaa182db0db,
        lost: 12,
        reshipped: 16,
        wait_bits: None,
    },
    PricedGolden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::TwoPhase(BetaChoice::Analytic),
        scenario: Priced::Failure,
        blocks: 186,
        makespan_bits: 0x400d9033b139a167,
        tasks: [89, 9, 129, 55, 155, 139],
        wasted: 2,
        returned: 0,
        max_queue_depth: 5,
        utilization_bits: 0x3fead81734365d03,
        lost: 12,
        reshipped: 14,
        wait_bits: None,
    },
    PricedGolden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::Random,
        scenario: Priced::Failure,
        blocks: 1373,
        makespan_bits: 0x4036f87d7053d988,
        tasks: [196, 7, 223, 170, 197, 207],
        wasted: 3,
        returned: 0,
        max_queue_depth: 5,
        utilization_bits: 0x3fefe0daf888e31a,
        lost: 2,
        reshipped: 1,
        wait_bits: None,
    },
    PricedGolden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::Sorted,
        scenario: Priced::Failure,
        blocks: 1419,
        makespan_bits: 0x4037b1b2b010c53d,
        tasks: [191, 10, 202, 181, 214, 202],
        wasted: 2,
        returned: 0,
        max_queue_depth: 5,
        utilization_bits: 0x3feff0bdd596911d,
        lost: 2,
        reshipped: 4,
        wait_bits: None,
    },
    PricedGolden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::Dynamic,
        scenario: Priced::Failure,
        blocks: 1140,
        makespan_bits: 0x40330730fd7c0668,
        tasks: [158, 8, 223, 136, 297, 178],
        wasted: 15,
        returned: 0,
        max_queue_depth: 5,
        utilization_bits: 0x3feff3e7f661938c,
        lost: 16,
        reshipped: 345,
        wait_bits: None,
    },
    PricedGolden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::TwoPhase(BetaChoice::Analytic),
        scenario: Priced::Failure,
        blocks: 939,
        makespan_bits: 0x402f6bede8aa12ca,
        tasks: [171, 8, 213, 123, 292, 193],
        wasted: 15,
        returned: 0,
        max_queue_depth: 5,
        utilization_bits: 0x3fefe04c32a09f0f,
        lost: 16,
        reshipped: 260,
        wait_bits: None,
    },
];

#[test]
fn priced_paths_match_golden_values() {
    for g in &PRICED_GOLDEN {
        let cfg = priced_cfg(g.kernel, g.strategy, g.scenario);
        let label = format!("{:?}/{}", g.scenario, g.strategy.label(g.kernel));
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
        assert_eq!(r.wasted_blocks, g.wasted, "{label}: waste drifted");
        assert_eq!(r.returned_blocks, g.returned, "{label}: returns drifted");
        assert_eq!(r.max_queue_depth, g.max_queue_depth, "{label}: queue depth");
        assert_eq!(
            r.link_utilization.to_bits(),
            g.utilization_bits,
            "{label}: utilization drifted ({})",
            r.link_utilization
        );
        assert_eq!(r.lost_tasks, g.lost, "{label}: lost tasks drifted");
        assert_eq!(
            r.reshipped_blocks, g.reshipped,
            "{label}: re-shipping drifted"
        );
        if let Some(bits) = g.wait_bits {
            let wait: f64 = r.transfer_wait_per_proc.iter().sum();
            assert_eq!(wait.to_bits(), bits, "{label}: transfer wait ({wait})");
        }
        // Each scenario must reach what it claims to.
        match g.scenario {
            Priced::Returns => assert!(g.returned > 0, "{label}: nothing written back"),
            Priced::Multiport => assert!(g.max_queue_depth > 0, "{label}: no contention"),
            Priced::Failure => assert!(
                g.lost > 0 && g.wasted > 0,
                "{label}: the failure stranded no transfer"
            ),
        }
    }
}
