//! Balanced data gathering in a wireless sensor network — the paper's
//! first motivating application (§1).
//!
//! Every cell of a toroidal grid hosts a sensor; each sensor can route
//! its data through itself or one of its four neighbours; every relay
//! has a unit energy budget. Maximising the minimum data gathered per
//! sensor is a max-min LP with ΔI = ΔK = 5, and the local algorithm
//! lets every sensor decide its routing split after a constant number
//! of communication rounds — no base station, no global view.
//!
//! Run with `cargo run --release --example sensor_network`.

use maxmin_lp::core::distributed::{rounds_needed, solve_special_flat};
use maxmin_lp::core::safe::safe_solution;
use maxmin_lp::core::transform::to_special_form;
use maxmin_lp::gen::apps::{sensor_grid, SensorGridConfig};
use maxmin_lp::prelude::*;

fn main() {
    println!("balanced data gathering on a torus (ΔI = ΔK = 5)\n");
    println!(
        "{:>6} {:>8} {:>10} {:>10} {:>10} {:>9}",
        "grid", "agents", "ω(local)", "ω(safe)", "ω*(LP)", "ratio"
    );

    let big_r = 3;
    for side in [4, 6, 8] {
        let cfg = SensorGridConfig {
            width: side,
            height: side,
            cost_range: (1.0, 2.0),
        };
        let inst = sensor_grid(&cfg, 7);
        let solver = LocalSolver::new(big_r);
        let local = solver.solve(&inst);
        let safe = safe_solution(&inst);
        let opt = solve_maxmin(&inst).expect("bounded");
        let lu = local.solution.utility(&inst);
        println!(
            "{:>4}x{:<1} {:>8} {:>10.5} {:>10.5} {:>10.5} {:>9.4}",
            side,
            side,
            inst.n_agents(),
            lu,
            safe.utility(&inst),
            opt.omega,
            opt.omega / lu
        );
        assert!(local.solution.is_feasible(&inst, 1e-9));
    }

    // Run the genuinely distributed protocol on the (transformed) grid
    // and show that the round count does not depend on the grid size —
    // the defining property of a local algorithm.
    println!("\ndistributed protocol (R = {big_r}) on the transformed grid:");
    println!(
        "{:>6} {:>8} {:>8} {:>12} {:>14}",
        "grid", "nodes", "rounds", "messages", "peak bytes/rnd"
    );
    for side in [4, 6, 8] {
        let inst = sensor_grid(
            &SensorGridConfig {
                width: side,
                height: side,
                cost_range: (1.0, 2.0),
            },
            7,
        );
        let transformed = to_special_form(&inst);
        let sf = maxmin_lp::core::SpecialForm::new(transformed.instance.clone()).unwrap();
        let (_, stats) = solve_special_flat(&sf, big_r);
        println!(
            "{:>4}x{:<1} {:>8} {:>8} {:>12} {:>14}",
            side,
            side,
            sf.instance().n_agents() + sf.instance().n_constraints() + sf.instance().n_objectives(),
            stats.rounds,
            stats.messages,
            stats.peak_round_bytes()
        );
    }
    println!(
        "\nround count is 3·(4r+2) = {} for R = {big_r}, independent of n.",
        rounds_needed(big_r)
    );
}
