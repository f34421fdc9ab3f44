//! §5.3: smoothing `s_v`, the `g±` recursions (12)–(14), and the output
//! rule (18).
//!
//! `s_v = min { t_u : u an agent at distance ≤ 4r+2 from v in G }` makes
//! neighbouring agents agree approximately on the target utility — the
//! paper's fix for the impossibility of assigning globally consistent
//! layers locally. The `g±` recursions are the `f±` recursions with the
//! *smoothed* bound `s_v` in place of the global `ω`:
//!
//! ```text
//! g⁺_{v,0} = min_{i∈Iv} 1/a_iv                                     (12)
//! g⁻_{v,d} = max{0, s_v − Σ_{w∈N(v)} g⁺_{w,d}}                     (13)
//! g⁺_{v,d} = min_{i∈Iv} (1 − a_{i,n(v,i)} g⁻_{n(v,i),d−1}) / a_iv  (14)
//! ```
//!
//! and each agent outputs
//!
//! ```text
//! x_v = (1/2R) Σ_{d=0..r} (g⁺_{v,d} + g⁻_{v,d})                    (18)
//! ```
//!
//! which §6 proves feasible and within factor `2(1−1/ΔK)(1+1/(R−1))` of
//! the optimum on special-form instances.

use crate::special::SpecialForm;
use crate::tree_bound::TreeBound;
use mmlp_instance::{AgentId, Solution};
use std::time::Instant;

/// The `g±` tables: `g_plus[d][v]` and `g_minus[d][v]` for `d = 0..=r`.
#[derive(Clone, Debug)]
pub struct GTables {
    /// `g⁺_{v,d}`, indexed `[d][agent]`.
    pub g_plus: Vec<Vec<f64>>,
    /// `g⁻_{v,d}`, indexed `[d][agent]`.
    pub g_minus: Vec<Vec<f64>>,
}

/// Smooths the per-agent bounds: `s_v = min` of `t` over all agents at
/// distance ≤ `4r+2` from `v` in the communication graph.
///
/// `G` is bipartite between agents and rows, so two agents are two
/// edges apart exactly when they share a constraint (`v`'s partners in
/// [`SpecialForm::cons`]) or an objective ([`SpecialForm::others`]),
/// and the agents within `4r+2` of `v` are those within `2r+1` such
/// steps. The flood runs `2r+1` rounds of neighbour-min relaxation over
/// that adjacency, which the special form already holds: `min` is
/// exact, so this is bit-identical to `4r+2` rounds over every node of
/// `G` (the distributed flooding phase), and equal to the
/// universal-cover ball minimum because every walk in `G` lifts to the
/// unfolding and every unfolding path projects back to a walk.
pub fn smooth(sf: &SpecialForm, t: &[f64], r: usize) -> Vec<f64> {
    assert_eq!(t.len(), sf.n_agents());
    let mut cur = t.to_vec();
    let mut next = vec![0.0f64; t.len()];
    for _ in 0..2 * r + 1 {
        for v in sf.instance().agents() {
            let mut m = cur[v.idx()];
            for cv in sf.cons(v) {
                m = m.min(cur[cv.partner.idx()]);
            }
            for w in sf.others(v) {
                m = m.min(cur[w.idx()]);
            }
            next[v.idx()] = m;
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// Evaluates the `g±` recursions (12)–(14) level by level.
pub fn g_tables(sf: &SpecialForm, s: &[f64], r: usize) -> GTables {
    let n = sf.n_agents();
    assert_eq!(s.len(), n);
    let mut g_plus: Vec<Vec<f64>> = Vec::with_capacity(r + 1);
    let mut g_minus: Vec<Vec<f64>> = Vec::with_capacity(r + 1);

    for d in 0..=r {
        // (12) / (14)
        let gp: Vec<f64> = if d == 0 {
            (0..n as u32).map(|v| sf.cap(AgentId::new(v))).collect()
        } else {
            let prev_gm = &g_minus[d - 1];
            (0..n as u32)
                .map(|v| {
                    sf.cons(AgentId::new(v))
                        .iter()
                        .map(|cv| (1.0 - cv.a_partner * prev_gm[cv.partner.idx()]) / cv.a_own)
                        .fold(f64::INFINITY, f64::min)
                })
                .collect()
        };
        // (13): g⁻ at level d uses g⁺ at the same level.
        let gm: Vec<f64> = (0..n as u32)
            .map(|v| {
                let agent = AgentId::new(v);
                let sum: f64 = sf.others(agent).map(|w| gp[w.idx()]).sum();
                (s[v as usize] - sum).max(0.0)
            })
            .collect();
        g_plus.push(gp);
        g_minus.push(gm);
    }

    GTables { g_plus, g_minus }
}

/// The output rule (18): `x_v = (1/2R) Σ_{d=0..r} (g⁺_{v,d} + g⁻_{v,d})`.
pub fn output(sf: &SpecialForm, g: &GTables, big_r: usize) -> Solution {
    let n = sf.n_agents();
    let scale = 1.0 / (2.0 * big_r as f64);
    let mut x = vec![0.0f64; n];
    for d in 0..g.g_plus.len() {
        for (v, slot) in x.iter_mut().enumerate() {
            *slot += g.g_plus[d][v] + g.g_minus[d][v];
        }
    }
    for v in x.iter_mut() {
        *v *= scale;
    }
    Solution::from_vec(x)
}

/// Everything the special-form algorithm produces for one run.
#[derive(Clone, Debug)]
pub struct SpecialRun {
    /// The output assignment (18).
    pub x: Solution,
    /// Per-agent tree bounds `t_u` (§5.2).
    pub t: Vec<f64>,
    /// Smoothed bounds `s_v` (§5.3).
    pub s: Vec<f64>,
    /// The `g±` tables.
    pub g: GTables,
}

/// Runs the complete special-form algorithm (§5) with locality parameter
/// `R ≥ 2`.
///
/// `_threads`: ignored; the benchmark PR (ROADMAP item 9) removes it.
pub fn solve_special(sf: &SpecialForm, big_r: usize, _threads: usize) -> SpecialRun {
    solve_special_impl(sf, big_r, None)
}

/// [`solve_special`] plus its [`SpecialTrace`]: the same solve —
/// bit-identical outputs — with per-phase wall times filled in.
pub fn solve_special_traced(sf: &SpecialForm, big_r: usize) -> (SpecialRun, SpecialTrace) {
    let mut trace = SpecialTrace::default();
    let run = solve_special_impl(sf, big_r, Some(&mut trace));
    (run, trace)
}

/// Per-phase wall times of one centralized §5 solve.
///
/// Phases are measured with the monotonic clock and cover disjoint,
/// back-to-back intervals, so `t_eval_ns + flood_ns + g_ns ≤ total_ns`.
/// Tracing is opt-in per call: the untraced [`solve_special`] takes no
/// timestamps at all.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpecialTrace {
    /// Phase 1: the tree bounds `t_u` (§5.2).
    pub t_eval_ns: u64,
    /// Phase 2: the smoothing min-flood `s_v` (§5.3).
    pub flood_ns: u64,
    /// Phase 3: the `g±` tables and the output rule (18).
    pub g_ns: u64,
    /// Whole-solve wall time.
    pub total_ns: u64,
}

impl SpecialTrace {
    /// The phase breakdown as `(name, nanoseconds)` pairs in execution
    /// order, named like the flat path's matching phases.
    pub fn phase_spans(&self) -> [(&'static str, u64); 3] {
        [
            ("t_eval", self.t_eval_ns),
            ("flood", self.flood_ns),
            ("g", self.g_ns),
        ]
    }
}

fn solve_special_impl(
    sf: &SpecialForm,
    big_r: usize,
    mut trace: Option<&mut SpecialTrace>,
) -> SpecialRun {
    // One monotonic timestamp per phase boundary, taken only when the
    // caller asked for a trace.
    let mut last_tick = trace.as_ref().map(|_| Instant::now());
    let t0 = last_tick;
    let mut lap = move || -> u64 {
        let now = Instant::now();
        let ns = now.duration_since(last_tick.unwrap()).as_nanos() as u64;
        last_tick = Some(now);
        ns
    };
    let tb = TreeBound::new(sf, big_r);
    let t = tb.all();
    if let Some(tr) = trace.as_deref_mut() {
        tr.t_eval_ns = lap();
    }
    let r = big_r - 2;
    let s = smooth(sf, &t, r);
    if let Some(tr) = trace.as_deref_mut() {
        tr.flood_ns = lap();
    }
    let g = g_tables(sf, &s, r);
    let x = output(sf, &g, big_r);
    if let Some(tr) = trace {
        tr.g_ns = lap();
        tr.total_ns = t0.unwrap().elapsed().as_nanos() as u64;
    }
    SpecialRun { x, t, s, g }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special::SpecialForm;
    use mmlp_gen::special::{cycle_special, random_special_form, SpecialFormConfig};

    fn sf(seed: u64) -> SpecialForm {
        SpecialForm::new(random_special_form(&SpecialFormConfig::default(), seed)).unwrap()
    }

    #[test]
    fn smoothing_takes_neighborhood_minima() {
        let s = sf(0);
        let n = s.n_agents();
        // Distinct t values: agent j gets j+1; with r = 0 the radius is 2,
        // i.e. agents sharing a constraint or objective with v.
        let t: Vec<f64> = (0..n).map(|j| (j + 1) as f64).collect();
        let sm = smooth(&s, &t, 0);
        for v in s.instance().agents() {
            let mut expect = t[v.idx()];
            for w in s.others(v) {
                expect = expect.min(t[w.idx()]);
            }
            for cv in s.cons(v) {
                expect = expect.min(t[cv.partner.idx()]);
            }
            assert_eq!(sm[v.idx()], expect, "agent {v}");
        }
    }

    #[test]
    fn smoothing_is_bounded_by_own_t() {
        let s = sf(1);
        let run = solve_special(&s, 3, 1);
        for v in 0..s.n_agents() {
            assert!(run.s[v] <= run.t[v] + 1e-12, "s_v ≤ t_v by definition");
            assert!(run.s[v] >= 0.0);
        }
    }

    #[test]
    fn smoothing_radius_grows_with_r() {
        let s = sf(2);
        let n = s.n_agents();
        let t: Vec<f64> = (0..n).map(|j| (j + 1) as f64).collect();
        let s0 = smooth(&s, &t, 0);
        let s1 = smooth(&s, &t, 1);
        for v in 0..n {
            assert!(s1[v] <= s0[v] + 1e-15, "larger radius, smaller min");
        }
    }

    #[test]
    fn smoothing_is_the_min_over_the_g_ball_of_radius_4r_plus_2() {
        // The module's definition, with `CommGraph` BFS as the oracle.
        use mmlp_instance::CommGraph;
        for seed in 0..4 {
            let s = sf(seed);
            let n = s.n_agents();
            let g = CommGraph::new(s.instance());
            // Distinct values in a scrambled order, so every ball's
            // minimum sits at one agent.
            let t: Vec<f64> = (0..n).map(|j| ((j * 7919) % 1009) as f64 + 0.5).collect();
            for r in 0..3 {
                let sm = smooth(&s, &t, r);
                for v in s.instance().agents() {
                    let dist = g.bfs(g.agent_index(v), (4 * r + 2) as u32);
                    let expect = s
                        .instance()
                        .agents()
                        .filter(|&u| dist[g.agent_index(u) as usize] != u32::MAX)
                        .map(|u| t[u.idx()])
                        .fold(f64::INFINITY, f64::min);
                    assert_eq!(
                        sm[v.idx()].to_bits(),
                        expect.to_bits(),
                        "seed {seed} r {r} {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn lemma5_bounds_hold() {
        // g⁺_{v,r} ≥ 0 and g⁻_{v,r} ≤ cap(v).
        for seed in 0..5 {
            let s = sf(seed);
            for big_r in [2, 3, 4] {
                let run = solve_special(&s, big_r, 1);
                let r = big_r - 2;
                for v in 0..s.n_agents() {
                    assert!(run.g.g_plus[r][v] >= -1e-12, "Lemma 5: g⁺ ≥ 0");
                    assert!(
                        run.g.g_minus[r][v] <= s.cap(AgentId::new(v as u32)) + 1e-9,
                        "Lemma 5: g⁻ ≤ cap"
                    );
                }
            }
        }
    }

    #[test]
    fn lemma6_monotonicity_holds() {
        // g⁻_{v,d−1} ≤ g⁻_{v,d} and g⁺_{v,d} ≤ g⁺_{v,d−1}.
        let s = sf(3);
        let run = solve_special(&s, 5, 1);
        let r = 3;
        for d in 1..=r {
            for v in 0..s.n_agents() {
                assert!(
                    run.g.g_minus[d - 1][v] <= run.g.g_minus[d][v] + 1e-9,
                    "Lemma 6: g⁻ non-decreasing in d"
                );
                assert!(
                    run.g.g_plus[d][v] <= run.g.g_plus[d - 1][v] + 1e-9,
                    "Lemma 6: g⁺ non-increasing in d"
                );
            }
        }
    }

    #[test]
    fn lemma7_nonnegativity_holds() {
        let s = sf(4);
        let run = solve_special(&s, 4, 1);
        for d in 0..run.g.g_plus.len() {
            for v in 0..s.n_agents() {
                assert!(run.g.g_plus[d][v] >= -1e-12, "Lemma 7: g⁺_{{v,d}} ≥ 0");
                assert!(run.g.g_minus[d][v] >= 0.0, "g⁻ ≥ 0 by (13)");
            }
        }
    }

    #[test]
    fn output_is_feasible() {
        // Lemma 11.
        for seed in 0..8 {
            let s = sf(seed);
            for big_r in [2, 3, 4] {
                let run = solve_special(&s, big_r, 1);
                let rep = run.x.feasibility(s.instance());
                assert!(
                    rep.is_feasible(1e-9),
                    "seed {seed} R {big_r}: violation {}",
                    rep.max_constraint_violation
                );
            }
        }
    }

    #[test]
    fn output_meets_lemma12_utility_bound() {
        // ω_k(x) ≥ (1/2)(1 − 1/R)·|Vk|/(|Vk|−1)·min_{v∈Vk} s_v.
        for seed in 0..5 {
            let s = sf(seed);
            for big_r in [2, 3, 5] {
                let run = solve_special(&s, big_r, 1);
                for k in s.instance().objectives() {
                    let row = s.instance().objective_row(k);
                    let vk = row.len() as f64;
                    let min_s = row
                        .iter()
                        .map(|e| run.s[e.agent.idx()])
                        .fold(f64::INFINITY, f64::min);
                    let bound = 0.5 * (1.0 - 1.0 / big_r as f64) * (vk / (vk - 1.0)) * min_s;
                    let got = run.x.objective_value(s.instance(), k);
                    assert!(
                        got >= bound - 1e-9,
                        "seed {seed} R {big_r} {k}: ω_k = {got} < bound {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn cycle_output_matches_hand_computation() {
        // Unit cycle: t_u = 1 + 1/(R−1) everywhere, so s ≡ t; by symmetry
        // the g recursion gives a uniform solution; feasibility forces
        // x_v ≤ 1/2 and Lemma 12 with |Vk| = 2, min s = R/(R−1) gives
        // ω_k(x) ≥ (1−1/R)·R/(R−1) = 1, i.e. x_v = 1/2 exactly: the local
        // algorithm is optimal on the cycle.
        let s = SpecialForm::new(cycle_special(12, 1.0)).unwrap();
        for big_r in [3, 4, 6] {
            let run = solve_special(&s, big_r, 1);
            for v in 0..s.n_agents() {
                assert!(
                    (run.x.value(AgentId::new(v as u32)) - 0.5).abs() < 1e-9,
                    "R={big_r}: x = {}",
                    run.x.value(AgentId::new(v as u32))
                );
            }
            assert!((run.x.utility(s.instance()) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn utility_improves_or_holds_with_r_on_cycle() {
        let s = SpecialForm::new(cycle_special(16, 1.0)).unwrap();
        let mut last = 0.0;
        for big_r in 2..=6 {
            let run = solve_special(&s, big_r, 1);
            let u = run.x.utility(s.instance());
            assert!(
                u >= last - 1e-9,
                "R={big_r}: utility regressed {last} → {u}"
            );
            last = u;
        }
    }
}

/// Which ingredient of the §5.3 construction to disable — used by the
/// ablation experiment (T9) to show every ingredient is load-bearing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ablation {
    /// The full algorithm (baseline).
    None,
    /// Skip smoothing: run the `g±` recursions with each agent's own
    /// bound `t_v` instead of `s_v`. Breaks Lemma 4 (the `g` values are
    /// no longer dominated by any single tree's `f` values), and with it
    /// Lemma 5 — feasibility is lost on heterogeneous instances.
    NoSmoothing,
    /// Output only the up-role half `x_v = (1/R) Σ_d g⁻_{v,d}`. This is
    /// the solution `y` of (20) for one fixed global role assignment —
    /// feasible only when the roles happen to be globally consistent,
    /// which no local algorithm can arrange (§2); utility collapses on
    /// objectives whose agents all chose "up".
    UpOnly,
    /// Output only the down-role half `x_v = (1/R) Σ_d g⁺_{v,d}`.
    /// Symmetric failure: constraints whose two agents both chose
    /// "down" get overloaded — feasibility is lost.
    DownOnly,
    /// Skip the shifting average over `d`: output the deepest level only,
    /// `x_v = (g⁺_{v,r} + g⁻_{v,r}) / 2`. Without the `1/R` averaging
    /// there is no passive layer to absorb boundary effects (§6.1) and
    /// constraints can be violated by up to a factor R.
    NoShifting,
}

/// Runs the special-form algorithm with one ingredient disabled.
///
/// Returns the (possibly infeasible!) assignment — callers measure the
/// damage. With [`Ablation::None`] this is exactly [`solve_special`].
pub fn solve_special_ablated(sf: &SpecialForm, big_r: usize, ablation: Ablation) -> SpecialRun {
    let tb = TreeBound::new(sf, big_r);
    let t = tb.all();
    let r = big_r - 2;
    let s = match ablation {
        Ablation::NoSmoothing => t.clone(),
        _ => smooth(sf, &t, r),
    };
    let g = g_tables(sf, &s, r);
    let n = sf.n_agents();
    let x = match ablation {
        Ablation::None | Ablation::NoSmoothing => output(sf, &g, big_r),
        Ablation::UpOnly => Solution::from_vec(
            (0..n)
                .map(|v| (0..=r).map(|d| g.g_minus[d][v]).sum::<f64>() / big_r as f64)
                .collect(),
        ),
        Ablation::DownOnly => Solution::from_vec(
            (0..n)
                .map(|v| (0..=r).map(|d| g.g_plus[d][v]).sum::<f64>() / big_r as f64)
                .collect(),
        ),
        Ablation::NoShifting => Solution::from_vec(
            (0..n)
                .map(|v| 0.5 * (g.g_plus[r][v] + g.g_minus[r][v]))
                .collect(),
        ),
    };
    SpecialRun { x, t, s, g }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use crate::special::SpecialForm;
    use mmlp_gen::special::{random_special_form, SpecialFormConfig};

    fn sf(seed: u64) -> SpecialForm {
        SpecialForm::new(random_special_form(
            &SpecialFormConfig {
                n_objectives: 24,
                delta_k: 3,
                extra_constraints: 14,
                coef_range: (0.25, 4.0),
            },
            seed,
        ))
        .unwrap()
    }

    #[test]
    fn none_matches_solve_special() {
        let s = sf(0);
        let full = solve_special(&s, 3, 1);
        let ablated = solve_special_ablated(&s, 3, Ablation::None);
        for v in 0..s.n_agents() {
            assert_eq!(
                full.x.as_slice()[v].to_bits(),
                ablated.x.as_slice()[v].to_bits()
            );
        }
    }

    #[test]
    fn removing_smoothing_breaks_feasibility_somewhere() {
        // Not on every instance — but across a handful of seeds the
        // unsmoothed bounds must overshoot somewhere (that is exactly
        // why §5.3 introduces s_v).
        let mut worst = 0.0f64;
        for seed in 0..8 {
            let s = sf(seed);
            let run = solve_special_ablated(&s, 3, Ablation::NoSmoothing);
            worst = worst.max(run.x.feasibility(s.instance()).max_constraint_violation);
        }
        assert!(
            worst > 1e-6,
            "no-smoothing stayed feasible everywhere (violation {worst:.2e}) — \
             the ablation should break"
        );
    }

    #[test]
    fn single_role_outputs_lose_utility_or_feasibility() {
        let mut up_hurts = false;
        let mut down_breaks = 0.0f64;
        for seed in 0..8 {
            let s = sf(seed);
            let full = solve_special(&s, 3, 1);
            let up = solve_special_ablated(&s, 3, Ablation::UpOnly);
            let down = solve_special_ablated(&s, 3, Ablation::DownOnly);
            // Up-only keeps feasibility (g⁻ ≤ the feasible f⁻ pattern)
            // but can starve objectives.
            if up.x.utility(s.instance()) < 0.5 * full.x.utility(s.instance()) {
                up_hurts = true;
            }
            down_breaks =
                down_breaks.max(down.x.feasibility(s.instance()).max_constraint_violation);
        }
        assert!(up_hurts, "up-only should starve some objective");
        assert!(
            down_breaks > 1e-6,
            "down-only should overload some constraint"
        );
    }

    #[test]
    fn no_shifting_breaks_feasibility_somewhere() {
        let mut worst = 0.0f64;
        for seed in 0..8 {
            let s = sf(seed);
            let run = solve_special_ablated(&s, 4, Ablation::NoShifting);
            worst = worst.max(run.x.feasibility(s.instance()).max_constraint_violation);
        }
        assert!(worst > 1e-6, "deepest-level-only output should overload");
    }
}
