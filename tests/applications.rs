//! Application-level integration: the intro's motivating workloads and
//! the packing/covering reduction, end to end.

use maxmin_lp::core::packing::{solve_mixed, MixedProblem, MixedVerdict};
use maxmin_lp::core::safe::safe_solution;
use maxmin_lp::core::solver::LocalSolver;
use maxmin_lp::gen::apps::{bandwidth_ladder, sensor_grid, BandwidthConfig, SensorGridConfig};
use maxmin_lp::lp::solve_maxmin;

#[test]
fn sensor_grid_end_to_end() {
    let inst = sensor_grid(
        &SensorGridConfig {
            width: 5,
            height: 5,
            cost_range: (1.0, 2.0),
        },
        3,
    );
    let opt = solve_maxmin(&inst).unwrap().omega;
    // On the torus with self-relay cost 1, routing everything through
    // yourself would give 1/cost; the optimum balances across relays.
    assert!(opt > 0.5 && opt <= 5.0);
    for big_r in [2, 3] {
        let out = LocalSolver::new(big_r).solve(&inst);
        assert!(out.solution.is_feasible(&inst, 1e-7));
        let ratio = opt / out.solution.utility(&inst);
        assert!(
            ratio <= LocalSolver::new(big_r).guarantee(5, 5) + 1e-6,
            "R {big_r}: ratio {ratio}"
        );
    }
}

#[test]
fn bandwidth_local_beats_safe_at_moderate_r() {
    // ΔI = 3, ΔK = 2: the guarantee beats the safe algorithm's ΔI = 3
    // already at R = 2 (2·1.5 = 3); measured utilities should confirm
    // at R = 4 across seeds.
    let mut local_wins = 0;
    let n = 4;
    for seed in 0..n {
        let inst = bandwidth_ladder(
            &BandwidthConfig {
                n_customers: 20,
                window: 3,
                coef_range: (0.8, 1.25),
            },
            seed,
        );
        let local = LocalSolver::new(4).solve(&inst).solution.utility(&inst);
        let safe = safe_solution(&inst).utility(&inst);
        if local >= safe - 1e-9 {
            local_wins += 1;
        }
    }
    assert!(
        local_wins >= n - 1,
        "local should match or beat safe on bandwidth ({local_wins}/{n})"
    );
}

#[test]
fn mixed_packing_covering_scales_with_r() {
    // A feasibility question right at the decision boundary: the
    // unresolved band must shrink as R grows.
    let mut p = MixedProblem::new(4);
    p.add_packing(vec![(0, 1.0), (1, 1.0)], 1.0);
    p.add_packing(vec![(2, 1.0), (3, 1.0)], 1.0);
    p.add_covering(vec![(0, 1.0), (2, 1.0)], 0.9);
    p.add_covering(vec![(1, 1.0), (3, 1.0)], 0.9);
    let mut coverages = Vec::new();
    for big_r in [2, 4, 8] {
        match solve_mixed(&p, big_r) {
            MixedVerdict::Feasible { x } => {
                assert!(p.max_violation(&x) < 1e-7);
                coverages.push(1.0);
            }
            MixedVerdict::Unresolved { coverage, .. } => coverages.push(coverage),
            MixedVerdict::Infeasible { omega_upper } => {
                panic!("feasible system misjudged (bound {omega_upper})")
            }
        }
    }
    assert!(
        coverages.last().unwrap() >= coverages.first().unwrap(),
        "coverage should not degrade with R: {coverages:?}"
    );
}

#[test]
fn solver_works_on_instances_loaded_from_text() {
    // Full persistence round trip: generate, serialise, parse, solve.
    let inst = bandwidth_ladder(
        &BandwidthConfig {
            n_customers: 12,
            window: 2,
            coef_range: (1.0, 1.0),
        },
        0,
    );
    let text = maxmin_lp::instance::textfmt::write_instance(&inst);
    let back = maxmin_lp::instance::textfmt::parse_instance(&text).unwrap();
    let a = LocalSolver::new(3).solve(&inst).solution;
    let b = LocalSolver::new(3).solve(&back).solution;
    for v in inst.agents() {
        assert_eq!(a.value(v).to_bits(), b.value(v).to_bits());
    }
}
