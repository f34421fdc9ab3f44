//! The flat network simulation of §5 and the centralized solver that
//! serves every request must agree bit-for-bit — across the whole
//! generator catalogue for `LocalSolver` (which serves cold `SOLVE`
//! bodies), and through the §4 transformation pipeline on general
//! instances.

use maxmin_lp::core::distributed::{rounds_needed, solve_special_flat};
use maxmin_lp::core::smoothing::solve_special;
use maxmin_lp::core::transform::to_special_form;
use maxmin_lp::core::{LocalSolver, SpecialForm};
use maxmin_lp::gen::catalog;
use maxmin_lp::gen::random::{random_general, RandomConfig};

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn centralized_and_flat_solves_agree_catalog_wide() {
    let mut solves = 0;
    for fam in catalog() {
        for size in [16, 64] {
            for seed in 0..3 {
                let inst = fam.instance(size, seed);
                let transformed = to_special_form(&inst);
                let sf = SpecialForm::new(transformed.instance.clone()).unwrap();
                for big_r in [2, 3, 4] {
                    let central = LocalSolver::new(big_r).solve(&inst);
                    let (flat, _) = solve_special_flat(&sf, big_r);
                    let at = format!("{} n={size} seed={seed} R={big_r}", fam.name);
                    assert_eq!(
                        bits(central.solution.as_slice()),
                        bits(transformed.map_back(&flat.x).as_slice()),
                        "x: {at}"
                    );
                    assert_eq!(
                        bits(central.special_run.x.as_slice()),
                        bits(flat.x.as_slice()),
                        "special-form x: {at}"
                    );
                    assert_eq!(bits(&central.special_run.t), bits(&flat.t), "t: {at}");
                    // Every s_v, hence `optimum_upper_bound` (their min).
                    assert_eq!(bits(&central.special_run.s), bits(&flat.s), "s: {at}");
                    solves += 1;
                }
            }
        }
    }
    assert_eq!(solves, 8 * 2 * 3 * 3, "every catalog family is covered");
}

#[test]
fn general_instances_through_the_pipeline_agree() {
    for seed in 0..3 {
        let inst = random_general(
            &RandomConfig {
                n_agents: 16,
                n_constraints: 12,
                n_objectives: 9,
                ..RandomConfig::default()
            },
            seed,
        );
        let transformed = to_special_form(&inst);
        let sf = SpecialForm::new(transformed.instance.clone()).unwrap();
        for big_r in [2, 3] {
            let central = solve_special(&sf, big_r, 1);
            let (flat, stats) = solve_special_flat(&sf, big_r);
            assert_eq!(stats.rounds, rounds_needed(big_r));
            let at = format!("seed {seed} R {big_r}");
            assert_eq!(
                bits(flat.x.as_slice()),
                bits(central.x.as_slice()),
                "x: {at}"
            );
            assert_eq!(bits(&flat.t), bits(&central.t), "t: {at}");
            assert_eq!(bits(&flat.s), bits(&central.s), "s: {at}");
            // The back-mapped distributed output is feasible on the
            // original instance, like the centralized one.
            let mapped = transformed.map_back(&flat.x);
            assert!(mapped.is_feasible(&inst, 1e-7));
        }
    }
}
