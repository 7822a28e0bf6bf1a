//! Static perfect-knowledge partitioning vs demand-driven dynamic
//! scheduling, with utilization Gantt charts.
//!
//! ```text
//! cargo run --release --example static_vs_dynamic
//! ```
//!
//! The paper's §3.1 cites the 7/4-approximation static square partition
//! (Beaumont et al. 2002) as the communication yardstick, then argues that
//! real platforms are too unpredictable for static allocation. Both claims,
//! measured: the static plan moves ~half the data of the dynamic scheduler
//! — and falls apart the moment a worker is slower than it declared.

use hetsched::outer::DynamicOuter2Phases;
use hetsched::partition::StaticOuter;
use hetsched::platform::{outer_lower_bound, Platform, SpeedModel};
use hetsched::sim::Engine;
use hetsched::util::rng::rng_for;

fn main() {
    let n = 100;
    let p = 8;
    // What the workers *claim* to run at.
    let declared = Platform::from_speeds(vec![60.0, 60.0, 60.0, 60.0, 80.0, 80.0, 100.0, 100.0]);
    // Reality: worker 0 is 5× slower (thermal throttling, a noisy
    // neighbour, an old node — pick your favourite).
    let mut speeds = declared.speeds().to_vec();
    speeds[0] /= 5.0;
    let actual = Platform::from_speeds(speeds);
    let lb = outer_lower_bound(n, &actual);
    let ideal = (n * n) as f64 / actual.total_speed();

    println!("Outer product, n = {n}: worker 0 runs 5× slower than declared.\n");

    let (s_rep, _, s_trace) =
        Engine::new(&actual, SpeedModel::Fixed, StaticOuter::new(n, &declared))
            .run_traced(&mut rng_for(1, 0));
    println!("StaticOuter (plan from declared speeds):");
    println!(
        "  comm {:.2}× bound, makespan {:.2}× ideal",
        s_rep.normalized(lb),
        s_rep.makespan / ideal
    );
    println!("{}", s_trace.gantt(p, 60));

    let beta = hetsched::analysis::beta_homogeneous_outer(p, n);
    let (d_rep, _, d_trace) = Engine::new(
        &actual,
        SpeedModel::Fixed,
        DynamicOuter2Phases::with_beta(n, p, beta),
    )
    .run_traced(&mut rng_for(1, 0));
    println!("DynamicOuter2Phases (speed-agnostic, β_hom = {beta:.2}):");
    println!(
        "  comm {:.2}× bound, makespan {:.2}× ideal",
        d_rep.normalized(lb),
        d_rep.makespan / ideal
    );
    println!("{}", d_trace.gantt(p, 60));

    println!(
        "Static ships the least data but workers 1–7 idle (blank tails above)\n\
         while worker 0 grinds through its oversized rectangle. The dynamic\n\
         scheduler never knew any speeds and still keeps everyone busy to the\n\
         end — that is the paper's case for dynamic runtime scheduling."
    );
}
