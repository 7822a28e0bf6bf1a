//! Declarative experiment configuration.

use hetsched_net::NetworkModel;
use hetsched_platform::{FailureModel, Platform, SpeedDistribution, SpeedModel};
use hetsched_sim::{TaskKernel, Topology};

/// Which kernel to schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Outer product of two vectors of `n` blocks (`n²` tasks).
    Outer { n: usize },
    /// Multiplication of two `n × n`-block matrices (`n³` tasks).
    Matmul { n: usize },
}

impl Kernel {
    /// Blocks per dimension.
    pub fn n(&self) -> usize {
        match *self {
            Kernel::Outer { n } | Kernel::Matmul { n } => n,
        }
    }

    /// Total number of elementary tasks.
    pub fn total_tasks(&self) -> usize {
        match *self {
            Kernel::Outer { n } => n * n,
            Kernel::Matmul { n } => n * n * n,
        }
    }

    /// Communication lower bound on `platform`, in blocks.
    pub fn lower_bound(&self, platform: &Platform) -> f64 {
        match *self {
            Kernel::Outer { n } => hetsched_platform::outer_lower_bound(n, platform),
            Kernel::Matmul { n } => hetsched_platform::matmul_lower_bound(n, platform),
        }
    }
}

/// How the two-phase strategies pick their switch-over threshold.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BetaChoice {
    /// Minimize the analytic ratio for the *actual* platform draw.
    Analytic,
    /// Minimize the analytic ratio for a homogeneous platform with the same
    /// `p` and `n` (§3.6 — the speed-agnostic choice a runtime would make).
    Homogeneous,
    /// Use this β directly (`threshold = e^{−β}·task-count`).
    Fixed(f64),
    /// Process this fraction of the tasks in phase 1 (Fig. 2's x-axis).
    Phase1Fraction(f64),
}

/// Scheduling strategy, orthogonal to the kernel (except `Static`, which
/// only exists for the outer product).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Strategy {
    /// `RandomOuter` / `RandomMatrix`.
    Random,
    /// `SortedOuter` / `SortedMatrix`.
    Sorted,
    /// `DynamicOuter` / `DynamicMatrix`.
    Dynamic,
    /// `DynamicOuter2Phases` / `DynamicMatrix2Phases`.
    TwoPhase(BetaChoice),
    /// `StaticOuter`: the speed-aware 7/4-approximation square partition
    /// (the paper's reference \[2\], used here as a measured comparison
    /// basis). Outer product only; the partition is computed from the
    /// run's platform speeds — i.e. it assumes *perfect* speed knowledge.
    Static,
}

impl Strategy {
    /// Display label matching the paper's figure legends: the
    /// [`Scheduler::name`](hetsched_sim::Scheduler::name) of the strategy
    /// the runner builds for `kernel`.
    pub fn label(&self, kernel: Kernel) -> &'static str {
        let names = match kernel {
            Kernel::Outer { .. } => hetsched_outer::Outer::NAMES,
            Kernel::Matmul { .. } => hetsched_matmul::Matmul::NAMES,
        };
        match (self, kernel) {
            (Strategy::Random, _) => names.random,
            (Strategy::Sorted, _) => names.sorted,
            (Strategy::Dynamic, _) => names.dynamic,
            (Strategy::TwoPhase(_), _) => names.two_phase,
            (Strategy::Static, Kernel::Outer { .. }) => "StaticOuter",
            (Strategy::Static, Kernel::Matmul { .. }) => "StaticOuter(unsupported)",
        }
    }
}

/// A complete, seedable experiment description.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Kernel and problem size.
    pub kernel: Kernel,
    /// Scheduling strategy.
    pub strategy: Strategy,
    /// Number of workers.
    pub processors: usize,
    /// How base speeds are drawn (ignored when `platform` is set).
    pub distribution: SpeedDistribution,
    /// Run-time speed behaviour (fixed or `dyn.*` jitter).
    pub speed_model: SpeedModel,
    /// Optional fixed platform, for sweeps that must hold the speed draw
    /// constant across configurations (Figs. 2, 6, 11). When `None`, each
    /// trial draws a fresh platform from `distribution`.
    pub platform: Option<Platform>,
    /// Injected worker failures and stragglers. [`FailureModel::none`]
    /// (the default) leaves every run bit-for-bit identical to the
    /// fault-unaware engine.
    pub failures: FailureModel,
    /// How the master's outbound link prices transfers.
    /// [`NetworkModel::Infinite`] (the default) keeps the paper's
    /// free-communication model bit for bit.
    pub network: NetworkModel,
    /// Uniform per-worker link latency, applied to the run's platform under
    /// priced network models (ignored under [`NetworkModel::Infinite`]).
    pub link_latency: f64,
    /// Optional per-worker outbound bandwidth caps (blocks per unit time),
    /// one per processor. Only meaningful under
    /// [`NetworkModel::BoundedMultiport`], where worker `k`'s transfers are
    /// priced at `min(link_bandwidths[k], master_bw)` instead of the
    /// model's uniform `worker_bw`. `None` (the default) keeps the uniform
    /// cap bit for bit.
    pub link_bandwidths: Option<Vec<f64>>,
    /// Master/worker wiring. [`Topology::Flat`] (the default) is the
    /// paper's single-master star; [`Topology::Tree`] routes the run
    /// through the hierarchical multi-master engine
    /// ([`hetsched_sim::run_tree_with`]), with a single sub-master being
    /// bit-for-bit identical to flat.
    pub topology: Topology,
    /// Charge each batch's result write-back (one C block per task) on the
    /// master link, contending with input transfers. Requires a priced
    /// network model; `false` (the default) keeps the return path free and
    /// every existing run bit for bit.
    pub price_returns: bool,
    /// Worker threads for the tree shard engines (ignored under
    /// [`Topology::Flat`]). `None` (the default) runs shards serially —
    /// the right choice inside an already-parallel trial sweep. Results
    /// are bit-identical for every value; see
    /// [`hetsched_sim::TreeOpts::threads`].
    pub tree_threads: Option<usize>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            kernel: Kernel::Outer { n: 100 },
            strategy: Strategy::TwoPhase(BetaChoice::Analytic),
            processors: 20,
            distribution: SpeedDistribution::paper_default(),
            speed_model: SpeedModel::Fixed,
            platform: None,
            failures: FailureModel::none(),
            network: NetworkModel::Infinite,
            link_latency: 0.0,
            link_bandwidths: None,
            topology: Topology::Flat,
            price_returns: false,
            tree_threads: None,
        }
    }
}

impl ExperimentConfig {
    /// Validates internal consistency; called by the runner.
    pub fn validate(&self) -> Result<(), String> {
        if self.processors == 0 {
            return Err("experiment needs at least one processor".into());
        }
        if self.kernel.n() == 0 {
            return Err("kernel needs at least one block".into());
        }
        if let Some(pf) = &self.platform {
            if pf.len() != self.processors {
                return Err(format!(
                    "fixed platform has {} processors, config says {}",
                    pf.len(),
                    self.processors
                ));
            }
        }
        if let Strategy::TwoPhase(BetaChoice::Fixed(b)) = self.strategy {
            if !b.is_finite() || b < 0.0 {
                return Err(format!("invalid fixed β: {b}"));
            }
        }
        if let Strategy::TwoPhase(BetaChoice::Phase1Fraction(f)) = self.strategy {
            if !(0.0..=1.0).contains(&f) {
                return Err(format!("phase-1 fraction {f} outside [0, 1]"));
            }
        }
        if matches!(
            (self.strategy, self.kernel),
            (Strategy::Static, Kernel::Matmul { .. })
        ) {
            return Err("Static partitioning is implemented for the outer product only".into());
        }
        self.failures.validate(self.processors)?;
        self.network.validate()?;
        if !self.link_latency.is_finite() || self.link_latency < 0.0 {
            return Err(format!(
                "link latency {} must be non-negative and finite",
                self.link_latency
            ));
        }
        if let Some(bws) = &self.link_bandwidths {
            if !matches!(self.network, NetworkModel::BoundedMultiport { .. }) {
                return Err("per-worker link bandwidths require the bounded-multiport \
                     network model"
                    .into());
            }
            if bws.len() != self.processors {
                return Err(format!(
                    "got {} per-worker link bandwidths for {} processors",
                    bws.len(),
                    self.processors
                ));
            }
            if bws.iter().any(|b| !b.is_finite() || *b <= 0.0) {
                return Err("per-worker link bandwidths must be positive and finite".into());
            }
        }
        if (!self.failures.failures().is_empty() || self.failures.has_stochastic())
            && self.strategy == Strategy::Static
        {
            return Err(
                "Static partitioning fixes the allocation up front and cannot \
                 re-allocate tasks lost to a worker failure"
                    .into(),
            );
        }
        if self.price_returns {
            if self.network.is_infinite() {
                return Err(
                    "return-path pricing needs a priced network model (transfers \
                     are free under the infinite network)"
                        .into(),
                );
            }
            if !self.topology.is_flat() {
                return Err("return-path pricing is flat-only for now: the tree engine \
                     does not route write-backs over the root link yet"
                    .into());
            }
        }
        self.topology.validate(self.processors)?;
        if let Some(0) = self.tree_threads {
            return Err("tree shard threads must be at least 1 (or unset for serial)".into());
        }
        // Each tree shard runs its own flat engine, and a flat engine needs
        // a survivor: a scenario that kills every worker of one shard would
        // trip the engine's own assert deep inside the run. The shard
        // slices depend only on p and the sub-master count, so we can check
        // here, before any engine spins up.
        let submasters = self.topology.submasters();
        if submasters > 1 {
            let p = self.processors;
            let base = p / submasters;
            let extra = p % submasters;
            let mut start = 0usize;
            for j in 0..submasters {
                let len = base + usize::from(j < extra);
                let range = start..start + len;
                let doomed = |k: usize| {
                    self.failures.failures().iter().any(|&(w, _)| w.idx() == k)
                        || self
                            .failures
                            .exp_failures()
                            .iter()
                            .any(|&(w, _)| w.idx() == k)
                };
                if range.clone().all(doomed) {
                    return Err(format!(
                        "failure scenario kills every worker of tree shard {j} \
                         (workers {}..{}): each shard needs a survivor",
                        range.start, range.end
                    ));
                }
                start += len;
            }
        }
        if !self.topology.is_flat() && self.strategy == Strategy::Static {
            return Err(
                "Static partitioning is flat-only: the tree topology already \
                 partitions the grid statically at its root, and the shards \
                 run the dynamic strategies"
                    .into(),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_task_counts() {
        assert_eq!(Kernel::Outer { n: 100 }.total_tasks(), 10_000);
        assert_eq!(Kernel::Matmul { n: 40 }.total_tasks(), 64_000);
        assert_eq!(Kernel::Matmul { n: 100 }.total_tasks(), 1_000_000);
    }

    #[test]
    fn labels_match_paper() {
        let o = Kernel::Outer { n: 1 };
        let m = Kernel::Matmul { n: 1 };
        let two = Strategy::TwoPhase(BetaChoice::Analytic);
        let labels = [
            (Strategy::Random, o, "RandomOuter"),
            (Strategy::Sorted, o, "SortedOuter"),
            (Strategy::Dynamic, o, "DynamicOuter"),
            (two, o, "DynamicOuter2Phases"),
            (Strategy::Static, o, "StaticOuter"),
            (Strategy::Random, m, "RandomMatrix"),
            (Strategy::Sorted, m, "SortedMatrix"),
            (Strategy::Dynamic, m, "DynamicMatrix"),
            (two, m, "DynamicMatrix2Phases"),
            (Strategy::Static, m, "StaticOuter(unsupported)"),
        ];
        for (strategy, kernel, label) in labels {
            assert_eq!(strategy.label(kernel), label);
        }
    }

    #[test]
    fn default_is_valid() {
        assert!(ExperimentConfig::default().validate().is_ok());
    }

    #[test]
    fn static_matmul_rejected() {
        let cfg = ExperimentConfig {
            kernel: Kernel::Matmul { n: 4 },
            strategy: Strategy::Static,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let ok = ExperimentConfig {
            strategy: Strategy::Static,
            ..Default::default()
        };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let cfg = ExperimentConfig {
            processors: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());

        let cfg = ExperimentConfig {
            strategy: Strategy::TwoPhase(BetaChoice::Fixed(-1.0)),
            ..Default::default()
        };
        assert!(cfg.validate().is_err());

        let cfg = ExperimentConfig {
            strategy: Strategy::TwoPhase(BetaChoice::Phase1Fraction(1.5)),
            ..Default::default()
        };
        assert!(cfg.validate().is_err());

        let mut cfg = ExperimentConfig {
            platform: Some(Platform::homogeneous(3)),
            ..Default::default()
        };
        assert!(cfg.validate().is_err(), "platform size mismatch");
        cfg.processors = 3;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn failure_scenarios_validated() {
        use hetsched_platform::ProcId;
        let cfg = ExperimentConfig {
            failures: FailureModel::none().fail_at(ProcId(25), 1.0),
            ..Default::default()
        };
        assert!(cfg.validate().is_err(), "worker index out of range (p=20)");

        let cfg = ExperimentConfig {
            failures: FailureModel::none().fail_at(ProcId(3), 2.0),
            ..Default::default()
        };
        assert!(cfg.validate().is_ok());

        // Static cannot reassign lost tasks...
        let cfg = ExperimentConfig {
            strategy: Strategy::Static,
            failures: FailureModel::none().fail_at(ProcId(3), 2.0),
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        // ...but stragglers only change speeds, which it tolerates.
        let cfg = ExperimentConfig {
            strategy: Strategy::Static,
            failures: FailureModel::none().slow_down(ProcId(3), 4.0),
            ..Default::default()
        };
        assert!(cfg.validate().is_ok());

        // Stochastic fail-stops validate like fixed ones.
        let cfg = ExperimentConfig {
            failures: FailureModel::none().fail_exponential(ProcId(3), 10.0),
            ..Default::default()
        };
        assert!(cfg.validate().is_ok());
        let cfg = ExperimentConfig {
            failures: FailureModel::none().fail_exponential(ProcId(25), 10.0),
            ..Default::default()
        };
        assert!(cfg.validate().is_err(), "exp worker index out of range");
        let cfg = ExperimentConfig {
            strategy: Strategy::Static,
            failures: FailureModel::none().fail_exponential(ProcId(3), 10.0),
            ..Default::default()
        };
        assert!(cfg.validate().is_err(), "static cannot absorb exp failures");
    }

    #[test]
    fn return_pricing_validated() {
        let cfg = ExperimentConfig {
            price_returns: true,
            ..Default::default()
        };
        assert!(cfg.validate().is_err(), "needs a priced network");

        let cfg = ExperimentConfig {
            price_returns: true,
            network: NetworkModel::OnePort { master_bw: 50.0 },
            ..Default::default()
        };
        assert!(cfg.validate().is_ok());

        let cfg = ExperimentConfig {
            price_returns: true,
            network: NetworkModel::OnePort { master_bw: 50.0 },
            topology: Topology::Tree { submasters: 2 },
            ..Default::default()
        };
        assert!(cfg.validate().is_err(), "flat-only for now");
    }

    #[test]
    fn topology_configs_validated() {
        let cfg = ExperimentConfig {
            topology: Topology::Tree { submasters: 4 },
            ..Default::default()
        };
        assert!(cfg.validate().is_ok());

        let cfg = ExperimentConfig {
            topology: Topology::Tree { submasters: 25 },
            ..Default::default()
        };
        assert!(cfg.validate().is_err(), "more sub-masters than workers");

        let cfg = ExperimentConfig {
            topology: Topology::Tree { submasters: 0 },
            ..Default::default()
        };
        assert!(cfg.validate().is_err());

        let cfg = ExperimentConfig {
            strategy: Strategy::Static,
            topology: Topology::Tree { submasters: 1 },
            ..Default::default()
        };
        assert!(cfg.validate().is_err(), "static is flat-only");
    }

    #[test]
    fn tree_threads_validated() {
        let cfg = ExperimentConfig {
            topology: Topology::Tree { submasters: 4 },
            tree_threads: Some(2),
            ..Default::default()
        };
        assert!(cfg.validate().is_ok());

        let cfg = ExperimentConfig {
            topology: Topology::Tree { submasters: 4 },
            tree_threads: Some(0),
            ..Default::default()
        };
        assert!(cfg.validate().is_err(), "zero threads rejected");
    }

    #[test]
    fn shard_killing_failure_scenarios_rejected() {
        use hetsched_platform::ProcId;
        // p = 4, 2 sub-masters → shards {0,1} and {2,3}. Killing both
        // workers of shard 0 must be rejected up front, not panic later.
        let cfg = ExperimentConfig {
            processors: 4,
            topology: Topology::Tree { submasters: 2 },
            failures: FailureModel::none()
                .fail_at(ProcId(0), 0.0)
                .fail_at(ProcId(1), 0.0),
            ..Default::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("shard 0"), "got: {err}");
        assert!(err.contains("survivor"), "got: {err}");

        // Same deaths spread across shards: each shard keeps a survivor.
        let cfg = ExperimentConfig {
            processors: 4,
            topology: Topology::Tree { submasters: 2 },
            failures: FailureModel::none()
                .fail_at(ProcId(0), 0.0)
                .fail_at(ProcId(2), 0.0),
            ..Default::default()
        };
        assert!(cfg.validate().is_ok());

        // Stochastic fail-stops count as potential deaths too.
        let cfg = ExperimentConfig {
            processors: 4,
            topology: Topology::Tree { submasters: 2 },
            failures: FailureModel::none()
                .fail_exponential(ProcId(2), 5.0)
                .fail_exponential(ProcId(3), 5.0),
            ..Default::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("shard 1"), "got: {err}");

        // The same scenario on a flat topology stays valid (flat-level
        // survivor checking already lives in FailureModel::validate).
        let cfg = ExperimentConfig {
            processors: 4,
            failures: FailureModel::none()
                .fail_at(ProcId(0), 0.0)
                .fail_at(ProcId(1), 0.0),
            ..Default::default()
        };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn network_configs_validated() {
        let cfg = ExperimentConfig {
            network: NetworkModel::OnePort { master_bw: 0.0 },
            ..Default::default()
        };
        assert!(cfg.validate().is_err(), "zero bandwidth rejected");

        let cfg = ExperimentConfig {
            network: NetworkModel::OnePort { master_bw: 50.0 },
            link_latency: 0.1,
            ..Default::default()
        };
        assert!(cfg.validate().is_ok());

        let cfg = ExperimentConfig {
            link_latency: -1.0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err(), "negative latency rejected");
    }

    #[test]
    fn per_worker_bandwidth_configs_validated() {
        let multiport = NetworkModel::BoundedMultiport {
            master_bw: 40.0,
            worker_bw: 10.0,
        };
        let cfg = ExperimentConfig {
            processors: 3,
            network: multiport,
            link_bandwidths: Some(vec![10.0, 5.0, 20.0]),
            ..Default::default()
        };
        assert!(cfg.validate().is_ok());

        let cfg = ExperimentConfig {
            processors: 3,
            link_bandwidths: Some(vec![10.0, 5.0, 20.0]),
            ..Default::default()
        };
        assert!(cfg.validate().is_err(), "needs the multiport model");

        let cfg = ExperimentConfig {
            processors: 4,
            network: multiport,
            link_bandwidths: Some(vec![10.0, 5.0]),
            ..Default::default()
        };
        assert!(cfg.validate().is_err(), "one bandwidth per processor");

        let cfg = ExperimentConfig {
            processors: 2,
            network: multiport,
            link_bandwidths: Some(vec![10.0, 0.0]),
            ..Default::default()
        };
        assert!(cfg.validate().is_err(), "bandwidths must be positive");
    }

    #[test]
    fn lower_bound_dispatch() {
        let pf = Platform::homogeneous(4);
        assert!((Kernel::Outer { n: 10 }.lower_bound(&pf) - 2.0 * 10.0 * 2.0).abs() < 1e-9);
        let expected = 3.0 * 100.0 * 4.0 * 0.25f64.powf(2.0 / 3.0);
        assert!((Kernel::Matmul { n: 10 }.lower_bound(&pf) - expected).abs() < 1e-9);
    }
}
