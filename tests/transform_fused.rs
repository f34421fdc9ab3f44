//! The one-pass §4 build (`to_special_form`) against the paper-level
//! reference: the five step functions of §4.2–4.6 applied in order, with
//! their back-steps composed here. The two must agree on the special
//! form's canonical text, on the stage trace, and on the bits of every
//! back-mapped value, catalog-wide and on hostile shapes (rows of degree
//! 1–4 on both sides, multi-objective agents, coefficient spreads of
//! twelve orders of magnitude).

use maxmin_lp::core::smoothing::solve_special;
use maxmin_lp::core::transform::{
    augment_singleton_constraints, augment_singleton_objectives, normalize_objective_coefficients,
    reduce_constraint_degree, split_multi_objective_agents, to_special_form, BackStep, StageInfo,
};
use maxmin_lp::core::SpecialForm;
use maxmin_lp::gen::catalog;
use maxmin_lp::instance::{textfmt, AgentId, Instance, InstanceBuilder, Solution};
use proptest::prelude::*;

/// One §4 step function.
type Step = fn(&Instance) -> (Instance, BackStep);

/// The step-wise pipeline: final instance, back-steps in forward order,
/// and the per-stage sizes.
fn stepwise(inst: &Instance) -> (Instance, Vec<BackStep>, Vec<StageInfo>) {
    let stage = |name, i: &Instance| StageInfo {
        name,
        n_agents: i.n_agents(),
        n_constraints: i.n_constraints(),
        n_objectives: i.n_objectives(),
    };
    let steps: [(&str, Step); 5] = [
        ("4.2 constraints>=2", augment_singleton_constraints),
        ("4.3 constraints=2", reduce_constraint_degree),
        ("4.4 |Kv|=1", split_multi_objective_agents),
        ("4.5 |Vk|>=2", augment_singleton_objectives),
        ("4.6 c=1", normalize_objective_coefficients),
    ];
    let mut cur = inst.clone();
    let mut back = Vec::new();
    let mut trace = vec![stage("input", inst)];
    for (name, step) in steps {
        let (next, b) = step(&cur);
        trace.push(stage(name, &next));
        back.push(b);
        cur = next;
    }
    (cur, back, trace)
}

fn bits(x: &Solution) -> Vec<u64> {
    x.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Asserts the fused build equals the step-wise chain on `inst`;
/// returns the number of back-mapped values compared.
fn assert_fused_matches_stepwise(inst: &Instance, at: &str) -> usize {
    let (want, back, want_trace) = stepwise(inst);
    let got = to_special_form(inst);
    assert_eq!(
        textfmt::write_instance(&got.instance),
        textfmt::write_instance(&want),
        "canonical text: {at}"
    );
    assert_eq!(got.trace, want_trace, "stage trace: {at}");

    let map_back = |x: &Solution| back.iter().rev().fold(x.clone(), |cur, s| s.apply(&cur));
    // A distinct value per final agent, permuted so that the maximum of
    // each agent's copies sits at varying positions.
    let n = got.instance.n_agents();
    let synthetic = Solution::from_vec(
        (0..n)
            .map(|j| ((j * 7919 + 13) % n.max(1)) as f64 / 3.0 + 0.125)
            .collect(),
    );
    let mut xs = vec![synthetic];
    let sf = SpecialForm::new(got.instance.clone()).expect("fused output is special");
    for big_r in [2, 3] {
        xs.push(solve_special(&sf, big_r, 1).x);
    }
    let mut compared = 0;
    for x in &xs {
        let fused = got.map_back(x);
        assert_eq!(bits(&fused), bits(&map_back(x)), "map_back: {at}");
        assert_eq!(fused.len(), inst.n_agents(), "{at}");
        compared += fused.len();
    }
    compared
}

#[test]
fn fused_build_matches_the_step_functions_catalog_wide() {
    let mut instances = 0;
    for fam in catalog() {
        for size in [16, 64] {
            for seed in 0..5 {
                let inst = fam.instance(size, seed);
                assert_fused_matches_stepwise(&inst, &format!("{} n={size} seed={seed}", fam.name));
                instances += 1;
            }
        }
    }
    assert_eq!(instances, 8 * 2 * 5, "every catalog family is covered");
}

/// splitmix64: the hostile-shape generator's randomness.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// 1 a third of the time, else `10^e` for `e` uniform in
    /// `[-spread, spread]`.
    fn coef(&mut self, spread: f64) -> f64 {
        if self.below(3) == 0 {
            1.0
        } else {
            let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
            10f64.powf(spread * (2.0 * u - 1.0))
        }
    }

    /// `d` distinct agents of `0..n`, in random port order.
    fn row(&mut self, n: usize, d: usize, spread: f64) -> Vec<(AgentId, f64)> {
        let mut pool: Vec<u32> = (0..n as u32).collect();
        (0..d.min(n))
            .map(|_| {
                let v = pool.swap_remove(self.below(pool.len()));
                (AgentId::new(v), self.coef(spread))
            })
            .collect()
    }
}

/// A random instance inside §4's domain: rows of degree 1–4 on both
/// sides, so singleton rows, multi-objective agents and rows of degree
/// above 2 all occur; an agent left out of every constraint or
/// objective gets a singleton row of its own.
fn hostile(seed: u64, n: usize, m: usize, k: usize, spread: f64) -> Instance {
    let mut rng = Mix(seed);
    let mut b = InstanceBuilder::with_agents(n);
    let mut in_cons = vec![false; n];
    let mut in_obj = vec![false; n];
    for _ in 0..m {
        let d = 1 + rng.below(4);
        let row = rng.row(n, d, spread);
        row.iter().for_each(|(v, _)| in_cons[v.idx()] = true);
        b.add_constraint(&row).unwrap();
    }
    for v in (0..n).filter(|&v| !in_cons[v]) {
        b.add_constraint(&[(AgentId::new(v as u32), rng.coef(spread))])
            .unwrap();
    }
    for _ in 0..k {
        let d = 1 + rng.below(4);
        let row = rng.row(n, d, spread);
        row.iter().for_each(|(v, _)| in_obj[v.idx()] = true);
        b.add_objective(&row).unwrap();
    }
    for v in (0..n).filter(|&v| !in_obj[v]) {
        b.add_objective(&[(AgentId::new(v as u32), rng.coef(spread))])
            .unwrap();
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hostile shapes: the same three equalities as the catalog test.
    #[test]
    fn fused_build_matches_the_step_functions_on_hostile_shapes(
        seed in 0u64..1_000_000,
        n in 2usize..10,
        m in 1usize..10,
        k in 1usize..10,
        spread in 0usize..7,
    ) {
        let inst = hostile(seed, n, m, k, spread as f64);
        let at = format!("seed={seed} n={n} m={m} k={k} spread=1e{spread}");
        prop_assert!(assert_fused_matches_stepwise(&inst, &at) > 0);
    }
}

/// The shapes the catalog rarely produces, pinned: a singleton
/// constraint, a singleton objective on an agent with two objectives,
/// and a degree-3 row.
#[test]
fn fused_build_matches_on_a_split_slot_of_a_multi_objective_agent() {
    let mut b = InstanceBuilder::new();
    let v: Vec<AgentId> = (0..4).map(|_| b.add_agent()).collect();
    b.add_constraint(&[(v[0], 2.0)]).unwrap();
    b.add_constraint(&[(v[0], 1.0), (v[1], 0.5), (v[2], 3.0)])
        .unwrap();
    b.add_constraint(&[(v[1], 1.5), (v[3], 1.0)]).unwrap();
    b.add_objective(&[(v[0], 1.0), (v[1], 3.0)]).unwrap();
    b.add_objective(&[(v[1], 0.25)]).unwrap();
    b.add_objective(&[(v[2], 2.0), (v[3], 1.0)]).unwrap();
    b.add_objective(&[(v[0], 4.0)]).unwrap();
    let inst = b.build().unwrap();
    assert_fused_matches_stepwise(&inst, "pinned");
}
