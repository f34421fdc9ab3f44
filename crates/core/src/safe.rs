//! The *safe algorithm* — the best previously known local algorithm for
//! general max-min LPs (factor `ΔI`; Papadimitriou–Yannakakis STOC'93,
//! Floréen et al. IPDPS'08) — used as the baseline in every comparison
//! experiment.
//!
//! Each agent plays it safe: `x_v = min_{i∈Iv} 1 / (a_iv · |Vi|)`. Every
//! constraint then carries at most `Σ_{v∈Vi} 1/|Vi| = 1`, and since any
//! feasible `y` has `y_v ≤ min_i 1/a_iv ≤ ΔI · x_v`, the utility is
//! within factor `ΔI` of the optimum. One communication round suffices:
//! each constraint tells its agents its degree.

use mmlp_instance::{Instance, Solution};

/// The safe solution in closed form.
///
/// The per-agent minimum runs through [`mmlp_net::lanes::min_lanes`]
/// (split accumulators over strictly positive finite values — order-
/// independent at the bit level, so bit-identical to the scalar fold
/// of `1 / (a_iv · |Vi|)`; asserted in
/// `closed_form_matches_scalar_fold_bitwise` and
/// `lanes::min_lanes_matches_scalar_fold_bitwise`).
pub fn safe_solution(inst: &Instance) -> Solution {
    let mut x = vec![0.0f64; inst.n_agents()];
    let mut recips = Vec::new();
    for v in inst.agents() {
        recips.clear();
        recips.extend(
            inst.agent_constraints(v)
                .iter()
                .map(|e| 1.0 / (e.coef * inst.constraint_row(e.cons).len() as f64)),
        );
        x[v.idx()] = mmlp_net::lanes::min_lanes(&recips);
        if x[v.idx()].is_infinite() {
            // Unconstrained agents (degenerate instances) contribute 0 in
            // the baseline rather than ∞.
            x[v.idx()] = 0.0;
        }
    }
    Solution::from_vec(x)
}

/// The a-priori guarantee of the safe algorithm.
pub fn safe_guarantee(delta_i: usize) -> f64 {
    delta_i as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmlp_gen::random::{random_general, RandomConfig};
    use mmlp_gen::special::cycle_special;
    use mmlp_instance::DegreeStats;

    #[test]
    fn safe_is_feasible_on_random_instances() {
        for seed in 0..10 {
            let inst = random_general(&RandomConfig::default(), seed);
            let x = safe_solution(&inst);
            assert!(x.is_feasible(&inst, 1e-9), "seed {seed}");
        }
    }

    #[test]
    fn safe_achieves_factor_delta_i() {
        for seed in 0..5 {
            let inst = random_general(
                &RandomConfig {
                    n_agents: 20,
                    n_constraints: 14,
                    n_objectives: 12,
                    ..RandomConfig::default()
                },
                seed,
            );
            let x = safe_solution(&inst);
            let opt = mmlp_lp::solve_maxmin(&inst).expect("bounded").omega;
            let delta_i = DegreeStats::of(&inst).delta_i as f64;
            assert!(
                x.utility(&inst) >= opt / delta_i - 1e-9,
                "seed {seed}: {} < {} / {delta_i}",
                x.utility(&inst),
                opt
            );
        }
    }

    #[test]
    fn safe_on_cycle_is_half() {
        let inst = cycle_special(6, 1.0);
        let x = safe_solution(&inst);
        // All constraints have degree 2 and unit coefficients: x = 1/2 —
        // on the cycle the safe algorithm happens to be optimal.
        for v in inst.agents() {
            assert_eq!(x.value(v), 0.5);
        }
    }

    #[test]
    fn closed_form_matches_scalar_fold_bitwise() {
        for seed in 0..5 {
            let inst = random_general(&RandomConfig::default(), seed);
            let x = safe_solution(&inst);
            for v in inst.agents() {
                let fold = inst
                    .agent_constraints(v)
                    .iter()
                    .map(|e| 1.0 / (e.coef * inst.constraint_row(e.cons).len() as f64))
                    .fold(f64::INFINITY, f64::min);
                let want = if fold.is_finite() { fold } else { 0.0 };
                assert_eq!(
                    x.value(v).to_bits(),
                    want.to_bits(),
                    "seed {seed} agent {v}"
                );
            }
        }
    }

    #[test]
    fn guarantee_value() {
        assert_eq!(safe_guarantee(3), 3.0);
    }
}
