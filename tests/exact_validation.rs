//! Cross-validation of the entire numeric stack against the
//! tolerance-free rational simplex, on exactly-representable instances.

use maxmin_lp::core::solver::LocalSolver;
use maxmin_lp::core::tree_bound::{Scratch, TreeBound};
use maxmin_lp::core::SpecialForm;
use maxmin_lp::gen::lower_bound::{regular_gadget, tree_gadget};
use maxmin_lp::gen::special::cycle_special;
use maxmin_lp::instance::{AgentId, Instance};
use maxmin_lp::lp::exact::{exact_maxmin, ExactOutcome};
use maxmin_lp::lp::maxmin::certify_optimum;
use maxmin_lp::lp::{solve_maxmin, Rat, SimplexOptions};

fn exact_omega(inst: &maxmin_lp::instance::Instance) -> f64 {
    match exact_maxmin(inst, 1) {
        ExactOutcome::Optimal { objective, .. } => objective.to_f64(),
        other => panic!("expected optimal, got {other:?}"),
    }
}

#[test]
fn f64_simplex_matches_exact_on_gadgets() {
    for (d, di, n) in [(3, 2, 8), (4, 2, 6), (3, 3, 9)] {
        let (inst, _) = regular_gadget(n, d, di, 4, 1);
        let exact = exact_omega(&inst);
        let float = solve_maxmin(&inst).unwrap().omega;
        assert!(
            (exact - float).abs() < 1e-8,
            "d={d} ΔI={di}: exact {exact} vs f64 {float}"
        );
    }
}

#[test]
fn tree_bound_bisection_matches_exact_lp_of_materialized_tree() {
    // t_u (bisection over f±) vs the exact rational optimum of the
    // explicitly materialised A_u — a tolerance-free Lemma 3 check.
    let (inst, _) = regular_gadget(8, 3, 2, 4, 3);
    let sf = SpecialForm::new(inst).unwrap();
    let tb = TreeBound::new(&sf, 3);
    let mut sc = Scratch::default();
    for u in [0u32, 5, 11] {
        let u = AgentId::new(u);
        let (tree, _) = tb.materialize(u);
        let exact = exact_omega(&tree);
        let t = tb.t(u, &mut sc);
        assert!(
            (t - exact).abs() < 1e-9,
            "agent {u}: bisection {t} vs exact {exact}"
        );
    }
}

#[test]
fn dual_certificates_match_exact_optima() {
    let (inst, _) = regular_gadget(10, 3, 2, 4, 8);
    let exact = exact_omega(&inst);
    let (opt, cert) = certify_optimum(&inst, &SimplexOptions::default()).unwrap();
    assert!(cert.residual < 1e-7, "certificate re-verifies");
    assert!(
        (cert.bound - exact).abs() < 1e-8,
        "dual bound = exact optimum"
    );
    assert!((opt.omega - exact).abs() < 1e-8);
}

#[test]
fn tree_gadget_optima_are_certified_exactly() {
    // Depth-1 and depth-2 trees have small rational optima; record them
    // and pin the f64 path against them.
    for depth in [1usize, 2] {
        let (tree, witness) = tree_gadget(3, 2, depth);
        let exact = exact_omega(&tree);
        assert!(exact >= 2.0 - 1e-12, "tree optimum ≥ d−1");
        assert!(witness.utility(&tree) <= exact + 1e-12);
        let float = solve_maxmin(&tree).unwrap().omega;
        assert!((float - exact).abs() < 1e-8);
    }
}

/// `x` as an exact rational: a finite f64 is `m·2^e`.
fn exact_rat(x: f64) -> Rat {
    assert!(x.is_finite() && x > 0.0, "{x}");
    let bits = x.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let frac = (bits & ((1 << 52) - 1)) as i128;
    let (m, e) = if biased == 0 {
        (frac, -1074)
    } else {
        (frac | (1 << 52), biased - 1075)
    };
    if e >= 0 {
        Rat::from_int(m << e)
    } else {
        assert!(e > -127, "{x} is too small to hold exactly");
        Rat::new(m, 1i128 << -e)
    }
}

#[test]
fn lemma_2_certificate_bounds_the_exact_optimum() {
    // `optimum_upper_bound` (min_v s_v) against the rational optimum,
    // compared exactly: no slack.
    let fams = maxmin_lp::gen::catalog();
    let random01 = fams.iter().find(|f| f.name == "random-0/1").unwrap();
    let mut cells: Vec<(String, Instance, i128, Vec<usize>)> = Vec::new();
    for size in [8, 12, 16, 24] {
        for seed in 0..4 {
            let label = format!("random-0/1 size {size} seed {seed}");
            cells.push((label, random01.instance(size, seed), 1, vec![2, 3, 4]));
        }
    }
    for a in [0.5, 2.0] {
        cells.push((
            format!("cycle_special(8, {a})"),
            cycle_special(8, a),
            2,
            vec![2, 3],
        ));
    }
    for (label, inst, scale, rs) in &cells {
        let exact = match exact_maxmin(inst, *scale) {
            ExactOutcome::Optimal { objective, .. } => objective,
            other => panic!("{label}: expected optimal, got {other:?}"),
        };
        for &big_r in rs {
            let bound = LocalSolver::new(big_r).solve(inst).optimum_upper_bound();
            assert!(
                exact_rat(bound) >= exact,
                "{label} R={big_r}: bound {bound} below the optimum {exact:?}"
            );
        }
    }
}
