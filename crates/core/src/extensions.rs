//! Experiments beyond the paper's figures: measured versions of claims the
//! paper makes in passing, and ablations of our own design choices.
//!
//! * [`ext_static_tradeoff`] (`extA`) — §3.1 cites the 7/4-approximation
//!   static partition as the communication yardstick and argues dynamic
//!   schedulers are needed because speeds are unpredictable. We measure
//!   both halves: communication (static wins when its speed estimates are
//!   exact) and makespan under a mis-predicted worker (static collapses,
//!   demand-driven doesn't care).
//! * [`ext_dynamic_speed_models`] (`extB`) — the `dyn.*` scenarios are
//!   ambiguous between jitter around the base speed and a compounding
//!   random walk (see `SpeedModel`). This ablation runs both
//!   interpretations: the communication story is insensitive, which
//!   justifies either reading of the paper.
//! * [`ext_analysis_flavours`] (`extC`) — our exact-form analysis vs the
//!   paper's (corrected) first-order closed form vs simulation, across β:
//!   the flavours agree in the domain of interest, diverge for β ≲ 2.
//! * [`ext_bandwidth_crossover`] (`extF`) — the paper compares strategies
//!   on communication *volume*; with a priced one-port master link we
//!   measure where `DynamicOuter`'s lower volume becomes a *makespan*
//!   advantage over `RandomOuter` as bandwidth tightens.
//! * [`ext_ode_overlay`] (`extG`) — the §3.3 mean-field ODE, overlaid on a
//!   probed run: `DynamicOuter`'s sampled residual-task and shipped-block
//!   trajectories against the analytic `1 − τ` and `Σ_k 2n·x_k(τ)` curves
//!   on the same normalized-time grid. The observability layer makes the
//!   paper's central modelling claim directly checkable.
//! * [`ext_cholesky_policies`] (`extD`) — the paper's §5 future work,
//!   measured: data-aware allocation on the tiled Cholesky DAG cuts
//!   communication roughly in half at every worker count, while all
//!   policies tie on makespan (the Cholesky ready-pool is wide enough
//!   that affinity never starves the critical path); the critical-path
//!   tie-break additionally trims communication at large p.

use crate::config::{BetaChoice, ExperimentConfig, Kernel, Strategy};
use crate::figures::FigOpts;
use crate::runner::{parallel_map, run_once, run_trials_with_threads, summarize_runs, trial_seed};
use crate::series::{FigureData, Series};
use hetsched_analysis::OuterAnalysis;
use hetsched_outer::DynamicOuter2Phases;
use hetsched_partition::StaticOuter;
use hetsched_platform::{Platform, SpeedModel};
use hetsched_sim::Engine;
use hetsched_util::rng::rng_for;
use hetsched_util::OnlineStats;

/// `extA`: static (perfect-knowledge) partition vs the dynamic two-phase
/// strategy when one worker's real speed is `1/skew` of what the static
/// plan assumed. Series report communication (normalized to the lower
/// bound) and makespan (normalized to the work-conserving ideal on the
/// *actual* speeds).
pub fn ext_static_tradeoff(opts: &FigOpts) -> FigureData {
    let (n, p) = if opts.quick { (40, 8) } else { (100, 20) };
    let declared = Platform::sample(
        p,
        &hetsched_platform::SpeedDistribution::paper_default(),
        &mut rng_for(opts.seed, 0xEA),
    );
    let skews = [1.0, 2.0, 4.0, 8.0];

    let mut static_comm = Series::new("StaticOuter comm");
    let mut dynamic_comm = Series::new("DynamicOuter2Phases comm");
    let mut static_make = Series::new("StaticOuter makespan");
    let mut dynamic_make = Series::new("DynamicOuter2Phases makespan");

    for &skew in &skews {
        // The actual platform: worker 0 runs `skew`× slower than declared.
        let mut speeds = declared.speeds().to_vec();
        speeds[0] /= skew;
        let actual = Platform::from_speeds(speeds);
        let lb = hetsched_platform::outer_lower_bound(n, &actual);
        let ideal = (n * n) as f64 / actual.total_speed();

        let mut sc = OnlineStats::new();
        let mut sm = OnlineStats::new();
        let mut dc = OnlineStats::new();
        let mut dm = OnlineStats::new();
        for t in 0..opts.trials as u64 {
            // Static plans against the *declared* speeds but runs on the
            // actual ones.
            let (s_rep, _) =
                Engine::new(&actual, SpeedModel::Fixed, StaticOuter::new(n, &declared))
                    .run(&mut rng_for(opts.seed ^ 0xA0, t));
            sc.push(s_rep.normalized(lb));
            sm.push(s_rep.makespan / ideal);

            let beta = OuterAnalysis::new(&actual, n).optimal_beta().0;
            let (d_rep, _) = Engine::new(
                &actual,
                SpeedModel::Fixed,
                DynamicOuter2Phases::with_beta(n, p, beta),
            )
            .run(&mut rng_for(opts.seed ^ 0xA1, t));
            dc.push(d_rep.normalized(lb));
            dm.push(d_rep.makespan / ideal);
        }
        static_comm.push(skew, sc.mean(), sc.std_dev());
        dynamic_comm.push(skew, dc.mean(), dc.std_dev());
        static_make.push(skew, sm.mean(), sm.std_dev());
        dynamic_make.push(skew, dm.mean(), dm.std_dev());
    }

    FigureData {
        id: "extA",
        title: format!(
            "Static 7/4-partition vs dynamic two-phase, p={p}, n={n}: one worker \
             slower than declared by the x-factor"
        ),
        x_label: "speed mis-prediction factor".into(),
        y_label: "comm: ×lower-bound; makespan: ×work-conserving ideal".into(),
        series: vec![static_comm, dynamic_comm, static_make, dynamic_make],
    }
}

/// `extB`: jitter vs compounding interpretations of the `dyn.*` scenarios.
pub fn ext_dynamic_speed_models(opts: &FigOpts) -> FigureData {
    let (n, p) = if opts.quick { (40, 8) } else { (100, 20) };
    let pcts = [0.05, 0.20, 0.50];

    let mut series = vec![
        Series::new("jitter (paper default here)"),
        Series::new("compounding walk"),
    ];
    for (si, compound) in [false, true].into_iter().enumerate() {
        for &pct in &pcts {
            let cfg = ExperimentConfig {
                kernel: Kernel::Outer { n },
                strategy: Strategy::TwoPhase(BetaChoice::Homogeneous),
                processors: p,
                distribution: hetsched_platform::SpeedDistribution::uniform(80.0, 120.0),
                speed_model: SpeedModel::Perturbed { pct, compound },
                ..Default::default()
            };
            let sum = run_trials_with_threads(&cfg, opts.trials, opts.seed ^ 0xB0, opts.threads);
            series[si].push(
                pct * 100.0,
                sum.normalized_comm.mean(),
                sum.normalized_comm.std_dev(),
            );
        }
    }

    FigureData {
        id: "extB",
        title: format!("dyn.* ablation, p={p}, n={n}: per-task speed jitter vs compounding walk"),
        x_label: "perturbation % per task".into(),
        y_label: "normalized communication".into(),
        series,
    }
}

/// `extC`: exact vs first-order analysis vs simulation across β.
pub fn ext_analysis_flavours(opts: &FigOpts) -> FigureData {
    let (n, p) = if opts.quick { (40, 10) } else { (100, 20) };
    let platform = Platform::sample(
        p,
        &hetsched_platform::SpeedDistribution::paper_default(),
        &mut rng_for(opts.seed, 0xEC),
    );
    let model = OuterAnalysis::new(&platform, n);
    let betas: Vec<f64> = if opts.quick {
        vec![2.0, 4.0, 6.0]
    } else {
        (2..=16).map(|i| i as f64 * 0.5).collect()
    };

    let mut exact = Series::new("Analysis (exact)");
    let mut first = Series::new("Analysis (first-order)");
    let mut sim = Series::new("DynamicOuter2Phases");
    for &b in &betas {
        exact.push(b, model.ratio(b), 0.0);
        first.push(b, model.ratio_first_order(b), 0.0);
        let cfg = ExperimentConfig {
            kernel: Kernel::Outer { n },
            strategy: Strategy::TwoPhase(BetaChoice::Fixed(b)),
            processors: p,
            platform: Some(platform.clone()),
            ..Default::default()
        };
        let sum = run_trials_with_threads(&cfg, opts.trials, opts.seed ^ 0xC0, opts.threads);
        sim.push(b, sum.normalized_comm.mean(), sum.normalized_comm.std_dev());
    }

    FigureData {
        id: "extC",
        title: format!("Analysis flavours vs simulation, p={p}, n={n}"),
        x_label: "beta".into(),
        y_label: "normalized communication".into(),
        series: vec![exact, first, sim],
    }
}

/// `extD`: DAG scheduling policies on the tiled Cholesky factorization,
/// over the worker count. Two y-quantities per policy: blocks shipped per
/// task, and makespan normalized by the max(work, critical-path) bound.
pub fn ext_cholesky_policies(opts: &FigOpts) -> FigureData {
    use hetsched_dag::{cholesky_graph, simulate, Policy};
    let t = if opts.quick { 10 } else { 24 };
    let graph = cholesky_graph(t);
    let ps: &[usize] = if opts.quick {
        &[4, 16]
    } else {
        &[2, 4, 8, 16, 32, 64]
    };
    let policies = [Policy::Random, Policy::DataAware, Policy::DataAwareCp];

    let mut series: Vec<Series> = Vec::new();
    for pol in policies {
        series.push(Series::new(format!("{} comm/task", pol.label())));
    }
    for pol in policies {
        series.push(Series::new(format!("{} makespan", pol.label())));
    }

    for &p in ps {
        let platform = Platform::sample(
            p,
            &hetsched_platform::SpeedDistribution::paper_default(),
            &mut rng_for(opts.seed, 0xED ^ p as u64),
        );
        for (pi, pol) in policies.iter().enumerate() {
            let mut comm = OnlineStats::new();
            let mut mk = OnlineStats::new();
            for tr in 0..opts.trials as u64 {
                let r = simulate(&graph, &platform, *pol, &mut rng_for(opts.seed ^ 0xD0, tr));
                comm.push(r.comm_per_task());
                mk.push(r.makespan_ratio(&graph, &platform));
            }
            series[pi].push(p as f64, comm.mean(), comm.std_dev());
            series[3 + pi].push(p as f64, mk.mean(), mk.std_dev());
        }
    }

    FigureData {
        id: "extD",
        title: format!(
            "Tiled Cholesky ({t}×{t} tiles, {} tasks): DAG scheduling policies",
            graph.len()
        ),
        x_label: "processors".into(),
        y_label: "comm: blocks/task; makespan: ×max(work, CP) bound".into(),
        series,
    }
}

/// `extF`: bandwidth sweep under the one-port master link. The paper
/// compares strategies on communication *volume*, makespan being equal
/// because communication is free; pricing the link asks the follow-up
/// question — below which bandwidth does `DynamicOuter`'s lower volume
/// translate into lower *makespan* than `RandomOuter`'s? The x-axis is the
/// master bandwidth relative to the platform's aggregate compute rate
/// `Σ s_i` (blocks per unit time over tasks per unit time), the natural
/// compute-vs-communicate scale.
pub fn ext_bandwidth_crossover(opts: &FigOpts) -> FigureData {
    let (n, p) = if opts.quick { (30, 8) } else { (100, 20) };
    let platform = Platform::sample(
        p,
        &hetsched_platform::SpeedDistribution::paper_default(),
        &mut rng_for(opts.seed, 0xEF),
    );
    let total = platform.total_speed();
    let ideal = (n * n) as f64 / total;
    let rels: &[f64] = if opts.quick {
        &[0.5, 2.0, 16.0]
    } else {
        &[0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    };

    let strategies = [
        (Strategy::Random, "RandomOuter"),
        (Strategy::Dynamic, "DynamicOuter"),
    ];
    let mut series: Vec<Series> = Vec::new();
    for (_, label) in strategies {
        series.push(Series::new(format!("{label} makespan")));
    }
    for (_, label) in strategies {
        series.push(Series::new(format!("{label} link util")));
    }

    // The whole strategies × bandwidth × trial grid fans out at once; each
    // trial re-derives its RNG from (seed, trial index) as in `run_trials`,
    // so the figure is bit-for-bit independent of the thread count.
    let trials = opts.trials;
    let jobs: Vec<(usize, usize, usize)> = (0..strategies.len())
        .flat_map(|si| (0..rels.len()).flat_map(move |ci| (0..trials).map(move |i| (si, ci, i))))
        .collect();
    let runs = parallel_map(&jobs, opts.threads, |_, &(si, ci, i)| {
        let cfg = ExperimentConfig {
            kernel: Kernel::Outer { n },
            strategy: strategies[si].0,
            processors: p,
            platform: Some(platform.clone()),
            network: hetsched_net::NetworkModel::OnePort {
                master_bw: rels[ci] * total,
            },
            ..Default::default()
        };
        run_once(&cfg, trial_seed(opts.seed ^ 0xF0, i))
    });
    for si in 0..strategies.len() {
        for (ci, &c) in rels.iter().enumerate() {
            let base = (si * rels.len() + ci) * trials;
            let sum = summarize_runs(&runs[base..base + trials]);
            series[si].push(
                c,
                sum.makespan.mean() / ideal,
                sum.makespan.std_dev() / ideal,
            );
            series[2 + si].push(
                c,
                sum.link_utilization.mean(),
                sum.link_utilization.std_dev(),
            );
        }
    }

    FigureData {
        id: "extF",
        title: format!(
            "One-port bandwidth sweep, p={p}, n={n}: where lower volume buys \
             lower makespan"
        ),
        x_label: "master bandwidth / aggregate speed".into(),
        y_label: "makespan: ×work-conserving ideal; util: fraction".into(),
        series,
    }
}

/// `extG`: the mean-field ODE against a probed simulation. One
/// `DynamicOuter` run is observed with a sim-time probe cadence matching
/// the analytic grid; the sampled residual-task fraction and cumulative
/// shipped blocks are plotted in normalized time `τ = t·Σs/n²` next to the
/// model's `1 − τ` (work conservation) and `Σ_k 2n·x_k(τ)` (Lemma 2
/// inverted per worker) trajectories.
pub fn ext_ode_overlay(opts: &FigOpts) -> FigureData {
    use crate::observe::run_once_observed;
    use hetsched_sim::ProbeConfig;

    let (n, p) = if opts.quick { (40, 4) } else { (100, 10) };
    let platform = Platform::sample(
        p,
        &hetsched_platform::SpeedDistribution::paper_default(),
        &mut rng_for(opts.seed, 0xE6),
    );
    let model = OuterAnalysis::new(&platform, n);
    let total_speed = platform.total_speed();
    // The mean-field model describes the data-aware phase; stop short of
    // τ = 1 where the ragged finish (workers retiring at different times)
    // leaves the ODE's domain.
    let horizon = 0.9;
    let steps = if opts.quick { 18 } else { 45 };
    let traj = model.dynamic_trajectory(horizon, steps);
    let tasks = (n * n) as f64;
    let max_blocks = (2 * n * p) as f64;

    // Probe on the real-time image of the analytic grid: τ_i·n²/Σs.
    let dt = horizon * tasks / total_speed / steps as f64;
    let cfg = ExperimentConfig {
        kernel: Kernel::Outer { n },
        strategy: Strategy::Dynamic,
        processors: p,
        platform: Some(platform.clone()),
        ..Default::default()
    };
    let obs = run_once_observed(
        &cfg,
        trial_seed(opts.seed ^ 0xE7, 0),
        ProbeConfig::by_time(dt),
    );

    let mut sim_rem = Series::new("simulated remaining");
    let mut ana_rem = Series::new("analytic remaining");
    let mut sim_blocks = Series::new("simulated blocks");
    let mut ana_blocks = Series::new("analytic blocks");
    for s in obs.probes.iter() {
        let tau = model.normalized_time(s.time, total_speed);
        if tau > horizon {
            continue;
        }
        sim_rem.push(tau, s.remaining as f64 / tasks, 0.0);
        let shipped: u64 = s.blocks_per_proc.iter().sum();
        sim_blocks.push(tau, shipped as f64 / max_blocks, 0.0);
    }
    for i in 0..=steps {
        ana_rem.push(traj.tau[i], traj.remaining_fraction[i], 0.0);
        ana_blocks.push(traj.tau[i], traj.total_blocks(i) / max_blocks, 0.0);
    }

    FigureData {
        id: "extG",
        title: format!(
            "Probed DynamicOuter vs the §3.3 ODE, p={p}, n={n}: residual tasks \
             and shipped blocks over normalized time"
        ),
        x_label: "normalized time τ = t·Σs/n²".into(),
        y_label: "remaining: fraction of n²; blocks: fraction of 2np".into(),
        series: vec![sim_rem, ana_rem, sim_blocks, ana_blocks],
    }
}

/// Extension experiment ids.
pub const ALL_EXTENSIONS: [&str; 6] = ["extA", "extB", "extC", "extD", "extF", "extG"];

/// Dispatch by id.
pub fn by_id(id: &str, opts: &FigOpts) -> Option<FigureData> {
    match id {
        "extA" => Some(ext_static_tradeoff(opts)),
        "extB" => Some(ext_dynamic_speed_models(opts)),
        "extC" => Some(ext_analysis_flavours(opts)),
        "extD" => Some(ext_cholesky_policies(opts)),
        "extF" => Some(ext_bandwidth_crossover(opts)),
        "extG" => Some(ext_ode_overlay(opts)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext_a_static_wins_comm_loses_makespan() {
        let f = ext_static_tradeoff(&FigOpts::quick());
        let sc = f.series("StaticOuter comm").unwrap();
        let dc = f.series("DynamicOuter2Phases comm").unwrap();
        let sm = f.series("StaticOuter makespan").unwrap();
        let dm = f.series("DynamicOuter2Phases makespan").unwrap();

        // With exact speeds (skew 1): static under 7/4, dynamic ≈ 2+.
        assert!(sc.points[0].mean <= 1.80);
        assert!(dc.points[0].mean > sc.points[0].mean);
        // Static comm stays flat as the skew grows — the plan doesn't
        // change; its makespan explodes while dynamic stays near ideal.
        let last = sm.points.last().unwrap();
        assert!(
            last.mean > 2.0,
            "static makespan ratio at 8× skew: {}",
            last.mean
        );
        assert!(
            dm.points.last().unwrap().mean < 1.3,
            "dynamic makespan ratio at 8× skew: {}",
            dm.points.last().unwrap().mean
        );
        assert!(dm.points[0].mean < 1.3);
    }

    #[test]
    fn ext_b_both_models_tell_the_same_story() {
        let f = ext_dynamic_speed_models(&FigOpts::quick());
        let jitter = f.series("jitter (paper default here)").unwrap();
        let walk = f.series("compounding walk").unwrap();
        for (a, b) in jitter.points.iter().zip(&walk.points) {
            assert!(
                (a.mean - b.mean).abs() / a.mean < 0.15,
                "pct {}: jitter {} vs walk {}",
                a.x,
                a.mean,
                b.mean
            );
        }
    }

    #[test]
    fn ext_d_data_aware_cuts_dag_comm() {
        let f = ext_cholesky_policies(&FigOpts::quick());
        let random = f.series("RandomDag comm/task").unwrap();
        let aware = f.series("DataAwareDag comm/task").unwrap();
        for (r, a) in random.points.iter().zip(&aware.points) {
            assert!(
                a.mean < r.mean,
                "p={}: aware {} vs random {}",
                r.x,
                a.mean,
                r.mean
            );
        }
        // The critical-path tie-break costs no makespan on average
        // relative to pure data-affinity (point-wise noise allowed: quick
        // mode runs 3 trials).
        let cp = f.series("DataAwareCpDag makespan").unwrap();
        let da = f.series("DataAwareDag makespan").unwrap();
        assert!(
            cp.overall_mean() <= da.overall_mean() * 1.08,
            "cp {} vs data-aware {}",
            cp.overall_mean(),
            da.overall_mean()
        );
    }

    #[test]
    fn ext_f_tight_bandwidth_rewards_lower_volume() {
        let f = ext_bandwidth_crossover(&FigOpts::quick());
        let random = f.series("RandomOuter makespan").unwrap();
        let dynamic = f.series("DynamicOuter makespan").unwrap();
        // Comm-bound regime (lowest relative bandwidth): the data-aware
        // strategy's smaller volume is a real makespan win.
        assert!(
            dynamic.points[0].mean < random.points[0].mean * 0.95,
            "bw/Σs={}: dynamic {} vs random {}",
            dynamic.points[0].x,
            dynamic.points[0].mean,
            random.points[0].mean
        );
        // Compute-bound regime (highest relative bandwidth): both are near
        // the work-conserving ideal and the gap vanishes.
        let (dl, rl) = (
            dynamic.points.last().unwrap(),
            random.points.last().unwrap(),
        );
        assert!(dl.mean < 1.3 && rl.mean < 1.3, "{} / {}", dl.mean, rl.mean);
        assert!((dl.mean - rl.mean).abs() < 0.15);
    }

    #[test]
    fn ext_g_simulation_tracks_the_ode() {
        let f = ext_ode_overlay(&FigOpts::quick());
        let sim = f.series("simulated remaining").unwrap();
        let ana = f.series("analytic remaining").unwrap();
        assert!(sim.points.len() >= 10, "probe grid too sparse");
        // Work conservation: the probed residual fraction sits on 1 − τ up
        // to batch granularity and in-flight allocations.
        for pt in &sim.points {
            let predicted = (1.0 - pt.x).max(0.0);
            assert!(
                (pt.mean - predicted).abs() < 0.08,
                "τ={}: simulated {} vs analytic {}",
                pt.x,
                pt.mean,
                predicted
            );
        }
        // Both block trajectories are monotone and end in the same place
        // (every worker asymptotically learns the inputs it keeps using).
        let sb = f.series("simulated blocks").unwrap();
        let ab = f.series("analytic blocks").unwrap();
        for s in [sb, ab] {
            for w in s.points.windows(2) {
                assert!(w[1].mean >= w[0].mean - 1e-12);
            }
        }
        assert_eq!(ana.points.first().unwrap().mean, 1.0);
    }

    #[test]
    fn ext_c_flavours_agree_in_domain_of_interest() {
        let f = ext_analysis_flavours(&FigOpts::quick());
        let exact = f.series("Analysis (exact)").unwrap();
        let first = f.series("Analysis (first-order)").unwrap();
        for (e, fo) in exact.points.iter().zip(&first.points) {
            if e.x >= 3.0 && e.x <= 6.0 {
                assert!(
                    (e.mean - fo.mean).abs() / e.mean < 0.12,
                    "β={}: exact {} vs first-order {}",
                    e.x,
                    e.mean,
                    fo.mean
                );
            }
        }
    }
}
