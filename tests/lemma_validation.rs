//! The paper's lemmas, validated against traced simulations.
//!
//! The analysis crate checks its formulas against their own ODEs and the
//! paper's reported constants; these tests close the remaining gap by
//! comparing the closed forms against the *discrete randomized process*
//! itself, using the simulator's execution traces.
//!
//! Key observable: in the data-aware phase every satisfied request ships
//! exactly 2 blocks (outer: one `a` + one `b`) or `3(2y+1)` blocks
//! (matmul), so a worker's cumulative shipped-block count in the trace
//! recovers its knowledge fraction `x` at every event time.

use hetsched::analysis::{MatmulAnalysis, OuterAnalysis};
use hetsched::matmul::DynamicMatrix;
use hetsched::outer::{DynamicOuter, DynamicOuter2Phases};
use hetsched::platform::{Platform, ProcId, SpeedModel};
use hetsched::sim::Engine;
use hetsched::util::rng::rng_for;

/// Lemma 2: the time at which a worker knows a fraction `x` of the
/// vectors is `t(x)·Σs = n²·(1 − (1−x²)^{α+1})` — measured from a traced
/// pure-`DynamicOuter` run on a homogeneous platform.
#[test]
fn lemma2_time_evolution_matches_trace() {
    let n = 300;
    let p = 20;
    let pf = Platform::homogeneous(p);
    let alpha = (p - 1) as f64;
    let (_, _, trace) = Engine::new(&pf, SpeedModel::Fixed, DynamicOuter::new(n, p))
        .run_traced(&mut rng_for(0x12, 0));

    // Reconstruct worker 0's (t, x) trajectory from its block counts.
    let mut cum_blocks = 0u64;
    let mut checked = 0;
    for ev in trace.events().iter().filter(|e| e.proc == ProcId(0)) {
        cum_blocks += ev.blocks;
        let x = (cum_blocks / 2) as f64 / n as f64;
        // Sample the mid-range where the mean-field approximation is
        // valid: not the very first events (discreteness) and not the
        // end game (competition depletes the pool).
        if !(0.08..=0.25).contains(&x) {
            continue;
        }
        let tau_measured = ev.time * pf.total_speed() / (n * n) as f64;
        let tau_predicted = OuterAnalysis::t_fraction(x, alpha);
        // The mean-field model carries an O(1/p) bias at p = 20 (the
        // paper's own caveat: "valid for a reasonably large number of
        // processors"); allow ~10 % of the predicted value.
        assert!(
            (tau_measured - tau_predicted).abs() < 0.07 + 0.02 * tau_predicted,
            "x = {x:.3}: measured τ {tau_measured:.4} vs Lemma 2 {tau_predicted:.4}"
        );
        checked += 1;
    }
    assert!(checked > 10, "trajectory sampled only {checked} times");
}

/// Lemma 3 / switch point: when `DynamicOuter2Phases` flips to phase 2,
/// each worker's knowledge fraction is `x_k = √(1 − e^{−β·rs_k})`.
#[test]
fn lemma3_switch_fractions_match_trace() {
    let n = 200;
    let p = 10;
    let pf = Platform::from_speeds(vec![
        15.0, 25.0, 35.0, 45.0, 55.0, 65.0, 75.0, 85.0, 95.0, 105.0,
    ]);
    let beta: f64 = 4.5;
    let model = OuterAnalysis::new(&pf, n);
    let threshold = ((-beta).exp() * (n * n) as f64).round() as usize;

    let (_, _, trace) = Engine::new(
        &pf,
        SpeedModel::Fixed,
        DynamicOuter2Phases::with_beta(n, p, beta),
    )
    .run_traced(&mut rng_for(0x13, 0));

    // Replay the trace until the remaining-task count crosses the
    // threshold; accumulate per-worker blocks up to that point.
    let mut blocks = vec![0u64; p];
    let mut allocated = 0usize;
    for ev in trace.events() {
        if (n * n) - allocated <= threshold {
            break;
        }
        allocated += ev.tasks;
        blocks[ev.proc.idx()] += ev.blocks;
    }

    for (k, &b) in blocks.iter().enumerate() {
        let x_measured = (b / 2) as f64 / n as f64;
        let x_predicted = model.switch_x(k, beta);
        assert!(
            (x_measured - x_predicted).abs() < 0.08,
            "worker {k}: measured x {x_measured:.3} vs predicted {x_predicted:.3}"
        );
    }
}

/// Lemma 8 (matmul time evolution): reconstruct `y` from the cumulative
/// block count (`Σ 3(2k+1) = 3y²`) and compare the event time against the
/// closed form.
#[test]
fn lemma8_matmul_time_evolution_matches_trace() {
    // The paper notes the matmul analysis is accurate "when the number of
    // processors is large enough (p ≥ 50)"; test in that regime.
    let n = 60;
    let p = 50;
    let pf = Platform::homogeneous(p);
    let alpha = (p - 1) as f64;
    let (_, _, trace) = Engine::new(&pf, SpeedModel::Fixed, DynamicMatrix::new(n, p))
        .run_traced(&mut rng_for(0x14, 0));

    let mut cum_blocks = 0u64;
    let mut checked = 0;
    for ev in trace.events().iter().filter(|e| e.proc == ProcId(0)) {
        cum_blocks += ev.blocks;
        let y = (cum_blocks as f64 / 3.0).sqrt();
        let x = y / n as f64;
        if !(0.1..=0.3).contains(&x) {
            continue;
        }
        let tau_measured = ev.time * pf.total_speed() / (n * n * n) as f64;
        let tau_predicted = MatmulAnalysis::t_fraction(x, alpha);
        // Event times are allocation times; tasks are marked processed at
        // allocation but complete one batch later, so the measured
        // trajectory runs systematically ahead of the mean-field t(x) by
        // roughly one in-flight batch per worker — the cube geometry makes
        // this ~20 % at these sizes. The aggregate communication
        // prediction (what the paper actually uses the model for) is
        // validated to a few percent in analysis_vs_simulation.rs.
        assert!(
            tau_measured <= tau_predicted + 0.05,
            "x = {x:.3}: measured τ {tau_measured:.4} far above Lemma 8 {tau_predicted:.4}"
        );
        assert!(
            tau_measured >= tau_predicted * 0.7 - 0.02,
            "x = {x:.3}: measured τ {tau_measured:.4} far below Lemma 8 {tau_predicted:.4}"
        );
        checked += 1;
    }
    assert!(checked > 5, "trajectory sampled only {checked} times");
}

/// The x_at_time inversion agrees with the trace directly: at normalized
/// time τ the worker knows x(τ) of the data.
#[test]
fn x_at_time_matches_trace() {
    let n = 300;
    let p = 20;
    let pf = Platform::homogeneous(p);
    let alpha = (p - 1) as f64;
    let (_, _, trace) = Engine::new(&pf, SpeedModel::Fixed, DynamicOuter::new(n, p))
        .run_traced(&mut rng_for(0x15, 0));
    let mut cum_blocks = 0u64;
    for ev in trace.events().iter().filter(|e| e.proc == ProcId(0)) {
        cum_blocks += ev.blocks;
        let x_measured = (cum_blocks / 2) as f64 / n as f64;
        if !(0.08..=0.25).contains(&x_measured) {
            continue;
        }
        let tau = (ev.time * pf.total_speed() / (n * n) as f64).clamp(0.0, 1.0);
        let x_predicted = OuterAnalysis::x_at_time(tau, alpha);
        assert!(
            (x_measured - x_predicted).abs() < 0.05,
            "τ = {tau:.4}: measured x {x_measured:.3} vs inverted {x_predicted:.3}"
        );
    }
}

/// The end-game pathology, observed in time: pure `DynamicOuter` ships a
/// large share of its total communication in the *last tenth* of the run
/// (extensions that enable almost nothing), which is precisely what the
/// two-phase variant eliminates.
#[test]
fn dynamic_end_game_is_back_loaded_and_two_phase_fixes_it() {
    let n = 120;
    let p = 12;
    let pf = Platform::homogeneous(p);
    let (_, _, dyn_trace) = Engine::new(&pf, SpeedModel::Fixed, DynamicOuter::new(n, p))
        .run_traced(&mut rng_for(0x16, 0));
    let (_, _, two_trace) = Engine::new(
        &pf,
        SpeedModel::Fixed,
        DynamicOuter2Phases::with_beta(n, p, 4.3),
    )
    .run_traced(&mut rng_for(0x16, 0));
    let dyn_tail = 1.0 - dyn_trace.comm_front_loading(0.9);
    let two_tail = 1.0 - two_trace.comm_front_loading(0.9);
    assert!(
        dyn_tail > 0.2,
        "expected an expensive end game for pure dynamic, tail share {dyn_tail:.2}"
    );
    assert!(
        two_tail < dyn_tail - 0.05,
        "two-phase tail {two_tail:.2} vs pure dynamic {dyn_tail:.2}"
    );
}
