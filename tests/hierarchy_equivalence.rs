//! The tree topology must be invisible at `submasters = 1`.
//!
//! A single-sub-master tree takes the real tree code path — shard
//! planning, rectangular shard schedulers, `run_tree_with` — but must reproduce
//! the flat engine bit for bit: same platform borrow, same RNG stream, no
//! tier transfers. This pins the identity for all eight strategies, with
//! and without a priced network, and with and without fault injection —
//! so every flat golden in `net_equivalence.rs` transitively keeps holding
//! under `Topology::Tree { submasters: 1 }`.
//!
//! A second battery checks that real hierarchies (`submasters ≥ 2`) stay
//! *correct*: every task computed exactly once, tier volume accounted, and
//! shard-local failures recovered.

use hetsched::core::{run_once, BetaChoice, ExperimentConfig, Kernel, Strategy, Topology};
use hetsched::net::NetworkModel;
use hetsched::platform::{FailureModel, ProcId};

const SEED: u64 = 0xC0FFEE;

fn eight_arms() -> Vec<(Kernel, Strategy)> {
    let strategies = [
        Strategy::Random,
        Strategy::Sorted,
        Strategy::Dynamic,
        Strategy::TwoPhase(BetaChoice::Analytic),
    ];
    let mut arms = Vec::new();
    for kernel in [Kernel::Outer { n: 24 }, Kernel::Matmul { n: 10 }] {
        for strategy in strategies {
            arms.push((kernel, strategy));
        }
    }
    arms
}

fn base_config(kernel: Kernel, strategy: Strategy) -> ExperimentConfig {
    ExperimentConfig {
        kernel,
        strategy,
        processors: 6,
        ..Default::default()
    }
}

/// Asserts two runs are bit-for-bit identical in every observable field.
fn assert_identical(
    label: &str,
    flat: &hetsched::core::RunResult,
    tree: &hetsched::core::RunResult,
) {
    assert_eq!(flat.total_blocks, tree.total_blocks, "{label}: blocks");
    assert_eq!(
        flat.makespan.to_bits(),
        tree.makespan.to_bits(),
        "{label}: makespan"
    );
    assert_eq!(flat.tasks_per_proc, tree.tasks_per_proc, "{label}: tasks");
    assert_eq!(
        flat.blocks_per_proc, tree.blocks_per_proc,
        "{label}: blocks/proc"
    );
    assert_eq!(flat.lost_tasks, tree.lost_tasks, "{label}: lost");
    assert_eq!(
        flat.reshipped_blocks, tree.reshipped_blocks,
        "{label}: reshipped"
    );
    assert_eq!(
        flat.transfer_wait_per_proc, tree.transfer_wait_per_proc,
        "{label}: waits"
    );
    assert_eq!(
        flat.link_utilization.to_bits(),
        tree.link_utilization.to_bits(),
        "{label}: utilization"
    );
    assert_eq!(
        flat.max_queue_depth, tree.max_queue_depth,
        "{label}: queue depth"
    );
    assert_eq!(flat.wasted_blocks, tree.wasted_blocks, "{label}: wasted");
    assert_eq!(flat.phase_split, tree.phase_split, "{label}: phase split");
    assert_eq!(flat.beta_used, tree.beta_used, "{label}: β");
    assert_eq!(
        tree.tier_blocks, 0,
        "{label}: single-sub-master tree is free"
    );
}

#[test]
fn k1_tree_is_bit_identical_to_flat_all_strategies() {
    for (kernel, strategy) in eight_arms() {
        let flat_cfg = base_config(kernel, strategy);
        let tree_cfg = ExperimentConfig {
            topology: Topology::Tree { submasters: 1 },
            ..flat_cfg.clone()
        };
        let flat = run_once(&flat_cfg, SEED);
        let tree = run_once(&tree_cfg, SEED);
        assert_identical(&format!("{kernel:?}/{strategy:?}"), &flat, &tree);
    }
}

#[test]
fn k1_tree_is_bit_identical_under_one_port_network() {
    for (kernel, strategy) in eight_arms() {
        let flat_cfg = ExperimentConfig {
            network: NetworkModel::OnePort { master_bw: 40.0 },
            link_latency: 0.02,
            ..base_config(kernel, strategy)
        };
        let tree_cfg = ExperimentConfig {
            topology: Topology::Tree { submasters: 1 },
            ..flat_cfg.clone()
        };
        let flat = run_once(&flat_cfg, SEED);
        let tree = run_once(&tree_cfg, SEED);
        assert_identical(&format!("{kernel:?}/{strategy:?}/one-port"), &flat, &tree);
    }
}

#[test]
fn k1_tree_is_bit_identical_under_fault_injection() {
    for (kernel, strategy) in eight_arms() {
        let flat_cfg = ExperimentConfig {
            failures: FailureModel::none()
                .fail_at(ProcId(1), 0.4)
                .slow_down(ProcId(0), 2.0),
            ..base_config(kernel, strategy)
        };
        let tree_cfg = ExperimentConfig {
            topology: Topology::Tree { submasters: 1 },
            ..flat_cfg.clone()
        };
        let flat = run_once(&flat_cfg, SEED);
        let tree = run_once(&tree_cfg, SEED);
        assert_identical(&format!("{kernel:?}/{strategy:?}/faults"), &flat, &tree);
        assert!(
            tree.lost_tasks > 0,
            "{kernel:?}/{strategy:?}: failure landed"
        );
    }
}

#[test]
fn real_hierarchy_completes_every_task_exactly_once() {
    for (kernel, strategy) in eight_arms() {
        for submasters in [2usize, 3] {
            let cfg = ExperimentConfig {
                topology: Topology::Tree { submasters },
                ..base_config(kernel, strategy)
            };
            let r = run_once(&cfg, SEED);
            let total: u64 = r.tasks_per_proc.iter().sum();
            assert_eq!(
                total as usize,
                kernel.total_tasks(),
                "{kernel:?}/{strategy:?}/k={submasters}"
            );
            assert!(
                r.tier_blocks > 0,
                "{kernel:?}/{strategy:?}/k={submasters}: root shipped shard inputs"
            );
            assert_eq!(
                r.total_blocks,
                r.blocks_per_proc.iter().sum::<u64>() + r.tier_blocks,
                "{kernel:?}/{strategy:?}/k={submasters}: tier volume accounted"
            );
        }
    }
}

#[test]
fn real_hierarchy_recovers_shard_local_failures() {
    let cfg = ExperimentConfig {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::Dynamic,
        processors: 6,
        topology: Topology::Tree { submasters: 2 },
        failures: FailureModel::none().fail_at(ProcId(4), 0.3),
        ..Default::default()
    };
    let r = run_once(&cfg, SEED);
    let total: u64 = r.tasks_per_proc.iter().sum();
    assert_eq!(total as usize, 24 * 24, "all tasks despite the failure");
    assert!(r.lost_tasks > 0, "the death landed mid-batch");
    // The dead worker belongs to shard 1 (workers 3..6); its lost tasks
    // must be finished by that shard's survivors.
    assert!(
        r.tasks_per_proc[3] + r.tasks_per_proc[5] > 0,
        "shard 1 survivors picked up the slack"
    );
}

#[test]
fn tree_runs_are_deterministic_and_seed_sensitive() {
    let cfg = ExperimentConfig {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::TwoPhase(BetaChoice::Analytic),
        processors: 6,
        topology: Topology::Tree { submasters: 3 },
        network: NetworkModel::OnePort { master_bw: 60.0 },
        link_latency: 0.01,
        ..Default::default()
    };
    let a = run_once(&cfg, SEED);
    let b = run_once(&cfg, SEED);
    assert_eq!(a.total_blocks, b.total_blocks);
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    assert_eq!(a.tasks_per_proc, b.tasks_per_proc);
    let c = run_once(&cfg, SEED + 1);
    assert!(
        c.total_blocks != a.total_blocks || c.makespan != a.makespan,
        "different seed should move the run"
    );
}

#[test]
fn priced_tier_delays_shard_starts() {
    // Tree under a tight one-port root: the run cannot finish before the
    // root has pushed every shard's inputs through its single channel.
    let cfg = ExperimentConfig {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::Dynamic,
        processors: 6,
        topology: Topology::Tree { submasters: 2 },
        network: NetworkModel::OnePort { master_bw: 5.0 },
        ..Default::default()
    };
    let r = run_once(&cfg, SEED);
    assert!(
        r.makespan >= r.tier_blocks as f64 / 5.0 - 1e-9,
        "makespan {} must cover the tier volume {} at bw 5",
        r.makespan,
        r.tier_blocks
    );
}
