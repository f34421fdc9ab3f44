//! The message-passing protocol and the centralized reference engine
//! must agree bit-for-bit — including through the §4 transformation
//! pipeline on general instances, and across the whole generator
//! catalogue for `LocalSolver` (which serves cold `SOLVE` bodies)
//! against the flat network path.

use maxmin_lp::core::distributed::{rounds_needed, solve_distributed, solve_special_flat};
use maxmin_lp::core::smoothing::solve_special;
use maxmin_lp::core::transform::to_special_form;
use maxmin_lp::core::{LocalSolver, SpecialForm};
use maxmin_lp::gen::catalog;
use maxmin_lp::gen::random::{random_general, RandomConfig};

#[test]
fn centralized_and_flat_solves_agree_catalog_wide() {
    let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut solves = 0;
    for fam in catalog() {
        for size in [16, 64] {
            for seed in 0..3 {
                let inst = fam.instance(size, seed);
                let transformed = to_special_form(&inst);
                let sf = SpecialForm::new(transformed.instance.clone()).unwrap();
                for big_r in [2, 3, 4] {
                    let central = LocalSolver::new(big_r).solve(&inst);
                    let (flat, _) = solve_special_flat(&sf, big_r, 1);
                    let at = format!("{} n={size} seed={seed} R={big_r}", fam.name);
                    assert_eq!(
                        bits(central.solution.as_slice()),
                        bits(transformed.map_back(&flat.x).as_slice()),
                        "x: {at}"
                    );
                    assert_eq!(bits(&central.special_run.t), bits(&flat.t), "t: {at}");
                    // `optimum_upper_bound` is min s over the special form.
                    let flat_min_s = flat.s.iter().copied().fold(f64::INFINITY, f64::min);
                    assert_eq!(
                        central.optimum_upper_bound().to_bits(),
                        flat_min_s.to_bits(),
                        "optimum_upper_bound: {at}"
                    );
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
            let dist = solve_distributed(&sf, big_r);
            assert_eq!(dist.stats.rounds, rounds_needed(big_r));
            for v in 0..sf.n_agents() {
                assert_eq!(
                    dist.solution.as_slice()[v].to_bits(),
                    central.x.as_slice()[v].to_bits(),
                    "seed {seed} R {big_r} agent {v}"
                );
            }
            // The back-mapped distributed output is feasible on the
            // original instance, like the centralized one.
            let mapped = transformed.map_back(&dist.solution);
            assert!(mapped.is_feasible(&inst, 1e-7));
        }
    }
}

#[test]
fn parallel_engine_matches_sequential_on_the_protocol() {
    use maxmin_lp::core::distributed::DistMaxMin;
    use maxmin_lp::gen::special::{random_special_form, SpecialFormConfig};
    use maxmin_lp::net::{engine, Network};

    let inst = random_special_form(
        &SpecialFormConfig {
            n_objectives: 60,
            extra_constraints: 30,
            ..SpecialFormConfig::default()
        },
        9,
    );
    let sf = SpecialForm::new(inst).unwrap();
    let net = Network::new(sf.instance());
    let protocol = DistMaxMin::new(3);
    let seq = engine::run(&net, &protocol);
    let par = engine::run_parallel(&net, &protocol, 4);
    assert_eq!(seq.stats, par.stats);
    for (a, b) in seq.states.iter().zip(&par.states) {
        match (a.x, b.x) {
            (Some(xa), Some(xb)) => assert_eq!(xa.to_bits(), xb.to_bits()),
            (None, None) => {}
            _ => panic!("output presence mismatch"),
        }
    }
}
