//! The paper's central claim: the ODE-based analysis predicts the
//! communication of the two-phase dynamic strategies. These tests rerun
//! that comparison at (reduced) paper scale through the public API.

use hetsched::analysis::{MatmulAnalysis, OuterAnalysis};
use hetsched::core::{run_trials, BetaChoice, ExperimentConfig, Kernel, Strategy};
use hetsched::platform::{Platform, SpeedDistribution};
use hetsched::util::rng::rng_for;

/// Fig. 4 claim: analysis ≈ DynamicOuter2Phases, "indistinguishable".
#[test]
fn outer_analysis_matches_simulation_at_optimum() {
    let n = 100;
    for p in [20usize, 50] {
        let platform = Platform::sample(
            p,
            &SpeedDistribution::paper_default(),
            &mut rng_for(42, p as u64),
        );
        let model = OuterAnalysis::new(&platform, n);
        let (beta, predicted) = model.optimal_beta();
        let cfg = ExperimentConfig {
            kernel: Kernel::Outer { n },
            strategy: Strategy::TwoPhase(BetaChoice::Fixed(beta)),
            processors: p,
            platform: Some(platform),
            ..Default::default()
        };
        let sim = run_trials(&cfg, 5, 0x51);
        let measured = sim.normalized_comm.mean();
        assert!(
            (measured - predicted).abs() / measured < 0.08,
            "p={p}: predicted {predicted:.3} vs simulated {measured:.3}"
        );
    }
}

/// §4.3 claim: same for the matrix multiplication once p is large enough.
#[test]
fn matmul_analysis_matches_simulation_at_optimum() {
    let n = 40;
    let p = 100;
    let platform = Platform::sample(p, &SpeedDistribution::paper_default(), &mut rng_for(43, 0));
    let model = MatmulAnalysis::new(&platform, n);
    let (beta, predicted) = model.optimal_beta();
    let cfg = ExperimentConfig {
        kernel: Kernel::Matmul { n },
        strategy: Strategy::TwoPhase(BetaChoice::Fixed(beta)),
        processors: p,
        platform: Some(platform),
        ..Default::default()
    };
    let sim = run_trials(&cfg, 3, 0x52);
    let measured = sim.normalized_comm.mean();
    assert!(
        (measured - predicted).abs() / measured < 0.08,
        "predicted {predicted:.3} vs simulated {measured:.3}"
    );
}

/// The analysis tracks the simulation across the whole domain of interest
/// (3 ≤ β ≤ 6 for the outer product — the paper's Fig. 6 wording).
#[test]
fn outer_analysis_tracks_simulation_across_beta() {
    let n = 100;
    let p = 20;
    let platform = Platform::sample(p, &SpeedDistribution::paper_default(), &mut rng_for(44, 0));
    let model = OuterAnalysis::new(&platform, n);
    for beta in [3.0, 4.0, 5.0, 6.0] {
        let cfg = ExperimentConfig {
            kernel: Kernel::Outer { n },
            strategy: Strategy::TwoPhase(BetaChoice::Fixed(beta)),
            processors: p,
            platform: Some(platform.clone()),
            ..Default::default()
        };
        let sim = run_trials(&cfg, 5, 0x53).normalized_comm.mean();
        let ana = model.ratio(beta);
        assert!(
            (sim - ana).abs() / sim < 0.10,
            "β={beta}: sim {sim:.3} vs analysis {ana:.3}"
        );
    }
}

/// Lemma 4 / Lemma 5 individually: the predicted phase-1 and phase-2
/// communication volumes match the strategy's internal phase accounting.
#[test]
fn phase_volumes_match_lemma_4_and_5() {
    let n = 100;
    let p = 30;
    let platform = Platform::sample(p, &SpeedDistribution::paper_default(), &mut rng_for(45, 0));
    let model = OuterAnalysis::new(&platform, n);
    let beta = 4.0;
    let lb = hetsched::platform::outer_lower_bound(n, &platform);

    let cfg = ExperimentConfig {
        kernel: Kernel::Outer { n },
        strategy: Strategy::TwoPhase(BetaChoice::Fixed(beta)),
        processors: p,
        platform: Some(platform),
        ..Default::default()
    };
    let mut p1 = 0.0;
    let mut p2 = 0.0;
    let trials = 5;
    for t in 0..trials {
        let r = hetsched::core::run_once(&cfg, 0x54 + t);
        let (b1, b2, _, _) = r.phase_split.unwrap();
        p1 += b1 as f64 / lb / trials as f64;
        p2 += b2 as f64 / lb / trials as f64;
    }
    let pred1 = model.phase1_ratio(beta);
    let pred2 = model.phase2_ratio(beta);
    assert!(
        (p1 - pred1).abs() / p1 < 0.08,
        "phase 1: sim {p1:.3} vs Lemma 4 {pred1:.3}"
    );
    assert!(
        (p2 - pred2).abs() / p2 < 0.35,
        "phase 2: sim {p2:.3} vs Lemma 5 {pred2:.3}"
    );
}

/// The analytically-optimal β actually sits in the simulation's optimal
/// plateau: no fixed β beats it by more than a few percent.
#[test]
fn analytic_beta_is_near_empirically_optimal() {
    let n = 100;
    let p = 20;
    let platform = Platform::sample(p, &SpeedDistribution::paper_default(), &mut rng_for(46, 0));
    let model = OuterAnalysis::new(&platform, n);
    let (beta_star, _) = model.optimal_beta();

    let simulate = |beta: f64| {
        let cfg = ExperimentConfig {
            kernel: Kernel::Outer { n },
            strategy: Strategy::TwoPhase(BetaChoice::Fixed(beta)),
            processors: p,
            platform: Some(platform.clone()),
            ..Default::default()
        };
        run_trials(&cfg, 5, 0x55).normalized_comm.mean()
    };

    let at_star = simulate(beta_star);
    let mut best = f64::INFINITY;
    let mut sweep = 1.5;
    while sweep <= 8.0 {
        best = best.min(simulate(sweep));
        sweep += 0.5;
    }
    assert!(
        at_star <= best * 1.04,
        "β* = {beta_star:.2} gives {at_star:.3}, sweep best is {best:.3}"
    );
}

/// §3.6: running the two-phase strategy with the speed-agnostic
/// homogeneous β costs at most a whisker more than the exact analytic β.
#[test]
fn homogeneous_beta_costs_almost_nothing() {
    let n = 100;
    let p = 20;
    let run = |choice| {
        let cfg = ExperimentConfig {
            kernel: Kernel::Outer { n },
            strategy: Strategy::TwoPhase(choice),
            processors: p,
            ..Default::default()
        };
        run_trials(&cfg, 8, 0x56).normalized_comm.mean()
    };
    let exact = run(BetaChoice::Analytic);
    let agnostic = run(BetaChoice::Homogeneous);
    assert!(
        (agnostic - exact).abs() / exact < 0.02,
        "exact-β {exact:.4} vs homogeneous-β {agnostic:.4}"
    );
}

/// The mean-field g(x) from Lemma 1 describes the *measured* residual task
/// density: run pure DynamicOuter, sample one worker's knowledge fraction,
/// and compare the unprocessed share of its L-shape against (1−x²)^α.
#[test]
fn lemma1_residual_density_matches_measurement() {
    use hetsched::platform::ProcId;
    use hetsched::sim::Scheduler as _;
    use hetsched::util::rng::rng_for as rng;

    let n = 200;
    let p = 20;
    // Drive the scheduler manually for a fixed number of engine-less
    // rounds so we can stop mid-flight and inspect the state.
    let mut sched = hetsched::outer::DynamicOuter::new(n, p);
    let mut r = rng(0x57, 0);
    let mut out = Vec::new();
    // Round-robin requests approximate equal speeds; stop while x ≈ 0.15.
    'outer: loop {
        for k in 0..p {
            out.clear();
            sched.on_request(ProcId(k as u32), &mut r, &mut out);
            let w0 = sched.problem().worker(ProcId(0));
            if w0.a.count() >= 30 {
                break 'outer;
            }
            if sched.remaining() == 0 {
                break 'outer;
            }
        }
    }
    let problem = sched.problem();
    let w0 = problem.worker(ProcId(0));
    let x = w0.a.count() as f64 / n as f64;
    let alpha = (p - 1) as f64;
    // Count unprocessed tasks in worker 0's L-shape (everything outside
    // its known sub-grid).
    let mut unprocessed_l = 0usize;
    let mut total_l = 0usize;
    for i in 0..n {
        for j in 0..n {
            if w0.a.owns(i) && w0.b.owns(j) {
                continue;
            }
            total_l += 1;
            if !problem.pool().is_processed(problem.kernel().id(i, j)) {
                unprocessed_l += 1;
            }
        }
    }
    let g_measured = unprocessed_l as f64 / total_l as f64;
    let g_predicted = OuterAnalysis::g(x, alpha);
    assert!(
        (g_measured - g_predicted).abs() < 0.06,
        "x={x:.3}: measured g {g_measured:.3} vs (1−x²)^α = {g_predicted:.3}"
    );
}
