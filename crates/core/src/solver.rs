//! The end-to-end local solver: §4 transformations → §5 algorithm →
//! back-map, with the Theorem 1 guarantee.
//!
//! ```
//! use mmlp_core::solver::LocalSolver;
//! use mmlp_gen::random::{random_general, RandomConfig};
//!
//! let inst = random_general(&RandomConfig::default(), 0);
//! let out = LocalSolver::new(3).solve(&inst);
//! assert!(out.solution.is_feasible(&inst, 1e-9));
//! ```

use crate::ratio;
use crate::smoothing::{self, SpecialRun, SpecialTrace};
use crate::special::SpecialForm;
use crate::transform::{try_to_special_form, StageInfo, TransformError};
use mmlp_instance::{DegreeStats, Instance, Solution};

/// The paper's local algorithm, configured by the locality parameter
/// `R ≥ 2` (local horizon Θ(R); guarantee `ΔI(1−1/ΔK)(1+1/(R−1))`).
#[derive(Clone, Copy, Debug)]
pub struct LocalSolver {
    big_r: usize,
}

/// Everything one solve produces.
#[derive(Clone, Debug)]
pub struct LocalSolverOutput {
    /// The feasible assignment for the *original* instance.
    pub solution: Solution,
    /// The algorithm's own a-priori utility certificate:
    /// `min_v s_v` is an upper bound on the optimum of the transformed
    /// instance (Lemmas 2–3), so
    /// `opt ≤ ΔI/2 · min_v s_v` after the §4.3 accounting.
    pub special_run: SpecialRun,
    /// Stage-by-stage size trace of the §4 pipeline.
    pub trace: Vec<StageInfo>,
    /// The locality parameter used.
    pub big_r: usize,
}

impl LocalSolverOutput {
    /// An a-posteriori upper bound on the **original** optimum, computed
    /// from the algorithm's own `s` values.
    ///
    /// Validity: every `t_u` — hence every `s_v` — upper-bounds the
    /// optimum of the *special-form* instance (Lemmas 2–3), and the
    /// special-form optimum upper-bounds the original one because the
    /// original optimum survives every forward transformation with its
    /// utility intact (§4.2/4.4/4.5/4.6 preserve optima; §4.3 keeps the
    /// original solution feasible and can only raise the optimum). So
    /// `opt(original) ≤ opt(special) ≤ min_v s_v`. The certificate is
    /// exercised by the packing/covering verdicts and by experiment T1.
    pub fn optimum_upper_bound(&self) -> f64 {
        self.special_run
            .s
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }
}

impl LocalSolver {
    /// Creates a solver with locality parameter `R ≥ 2`.
    pub fn new(big_r: usize) -> Self {
        assert!(big_r >= 2, "the paper requires R ≥ 2");
        LocalSolver { big_r }
    }

    /// Chooses the smallest `R` achieving ratio `threshold + ε` for the
    /// instance's degree parameters (the constructive side of Theorem 1).
    pub fn for_epsilon(inst: &Instance, epsilon: f64) -> Self {
        let s = DegreeStats::of(inst);
        let (di, dk) = (s.delta_i.max(2), s.delta_k.max(2));
        Self::new(ratio::r_for_epsilon(di, dk, epsilon))
    }

    /// The locality parameter `R`.
    pub fn big_r(&self) -> usize {
        self.big_r
    }

    /// The proved approximation guarantee for an instance with the given
    /// degree bounds.
    pub fn guarantee(&self, delta_i: usize, delta_k: usize) -> f64 {
        ratio::guarantee(delta_i.max(2), delta_k.max(2), self.big_r)
    }

    /// Solves a general max-min LP: transform (§4), run the centralized
    /// special-form algorithm (§5), map back. The simulation of the same
    /// algorithm in the message-passing model,
    /// [`crate::distributed::solve_special_flat`], produces the same
    /// bits. Panics on an instance outside §4's domain, like
    /// [`crate::transform::to_special_form`]; [`LocalSolver::solve_traced`]
    /// returns that error instead.
    pub fn solve(&self, inst: &Instance) -> LocalSolverOutput {
        self.solve_with(inst, |sf| smoothing::solve_special(sf, self.big_r, 1))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`LocalSolver::solve`] plus the per-phase wall times of its §5
    /// solve ([`smoothing::solve_special_traced`]); bit-identical output.
    /// An instance outside §4's domain is an error, not a panic.
    pub fn solve_traced(
        &self,
        inst: &Instance,
    ) -> Result<(LocalSolverOutput, SpecialTrace), TransformError> {
        let mut trace = SpecialTrace::default();
        let out = self.solve_with(inst, |sf| {
            let (run, t) = smoothing::solve_special_traced(sf, self.big_r);
            trace = t;
            run
        })?;
        Ok((out, trace))
    }

    fn solve_with(
        &self,
        inst: &Instance,
        special: impl FnOnce(&SpecialForm) -> SpecialRun,
    ) -> Result<LocalSolverOutput, TransformError> {
        let mut transformed = try_to_special_form(inst)?;
        let sf = SpecialForm::new(std::mem::take(&mut transformed.instance))
            .expect("§4 pipeline produces special form");
        let run = special(&sf);
        let solution = transformed.map_back(&run.x);
        Ok(LocalSolverOutput {
            solution,
            special_run: run,
            trace: transformed.trace,
            big_r: self.big_r,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::to_special_form;
    use mmlp_gen::random::{random_general, RandomConfig};
    use mmlp_gen::special::cycle_special;
    use mmlp_lp::solve_maxmin;

    fn cfg() -> RandomConfig {
        RandomConfig {
            n_agents: 12,
            n_constraints: 9,
            n_objectives: 7,
            delta_i: 3,
            delta_k: 3,
            coef_range: (0.5, 2.0),
        }
    }

    #[test]
    fn output_is_feasible_on_general_instances() {
        for seed in 0..8 {
            let inst = random_general(&cfg(), seed);
            for big_r in [2, 3, 4] {
                let out = LocalSolver::new(big_r).solve(&inst);
                assert!(
                    out.solution.is_feasible(&inst, 1e-7),
                    "seed {seed} R {big_r}"
                );
                assert!(out.solution.utility(&inst) > 0.0, "non-trivial output");
            }
        }
    }

    #[test]
    fn theorem1_ratio_holds_empirically() {
        for seed in 0..8 {
            let inst = random_general(&cfg(), seed);
            let opt = solve_maxmin(&inst).expect("bounded").omega;
            let stats = DegreeStats::of(&inst);
            for big_r in [2, 3, 4] {
                let solver = LocalSolver::new(big_r);
                let out = solver.solve(&inst);
                let got = out.solution.utility(&inst);
                let bound = solver.guarantee(stats.delta_i, stats.delta_k);
                assert!(
                    got * bound >= opt - 1e-7,
                    "seed {seed} R {big_r}: ratio {} exceeds guarantee {bound}",
                    opt / got
                );
            }
        }
    }

    #[test]
    fn optimum_upper_bound_certificate_is_valid() {
        for seed in 0..5 {
            let inst = random_general(&cfg(), seed);
            let opt = solve_maxmin(&inst).expect("bounded").omega;
            let out = LocalSolver::new(3).solve(&inst);
            assert!(
                out.optimum_upper_bound() >= opt - 1e-7,
                "seed {seed}: certificate {} < optimum {opt}",
                out.optimum_upper_bound()
            );
        }
    }

    #[test]
    fn for_epsilon_matches_guarantee() {
        let inst = random_general(&cfg(), 0);
        let s = DegreeStats::of(&inst);
        let solver = LocalSolver::for_epsilon(&inst, 0.25);
        assert!(
            solver.guarantee(s.delta_i, s.delta_k)
                <= ratio::threshold(s.delta_i, s.delta_k) + 0.25 + 1e-12
        );
    }

    #[test]
    fn solver_is_optimal_on_cycles() {
        let inst = cycle_special(10, 1.0);
        let out = LocalSolver::new(4).solve(&inst);
        assert!((out.solution.utility(&inst) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn flat_network_path_is_bit_identical() {
        let inst = random_general(&cfg(), 7);
        let transformed = to_special_form(&inst);
        let sf = SpecialForm::new(transformed.instance.clone()).unwrap();
        for big_r in [2, 3] {
            let central = LocalSolver::new(big_r).solve(&inst);
            let (flat, _) = crate::distributed::solve_special_flat(&sf, big_r);
            let flat_x = transformed.map_back(&flat.x);
            for v in inst.agents() {
                assert_eq!(
                    central.solution.value(v).to_bits(),
                    flat_x.value(v).to_bits(),
                    "R {big_r} agent {v}"
                );
            }
            let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&central.special_run.t), bits(&flat.t), "R {big_r}");
            let flat_min_s = flat.s.iter().copied().fold(f64::INFINITY, f64::min);
            assert_eq!(
                central.optimum_upper_bound().to_bits(),
                flat_min_s.to_bits()
            );
        }
    }

    #[test]
    fn traced_centralized_solve_is_bit_identical_and_timed() {
        let inst = random_general(&cfg(), 3);
        let plain = LocalSolver::new(3).solve(&inst);
        let (traced, trace) = LocalSolver::new(3).solve_traced(&inst).unwrap();
        for v in inst.agents() {
            assert_eq!(
                plain.solution.value(v).to_bits(),
                traced.solution.value(v).to_bits()
            );
        }
        assert!(trace.total_ns > 0);
        assert!(trace.t_eval_ns + trace.flood_ns + trace.g_ns <= trace.total_ns);
    }

    #[test]
    fn traced_solve_returns_the_transform_error() {
        let mut b = mmlp_instance::InstanceBuilder::with_agents(3);
        let v = |i| mmlp_instance::AgentId::new(i);
        b.add_constraint(&[(v(0), 1.0), (v(1), 1.0)]).unwrap();
        b.add_objective(&[(v(0), 1.0), (v(1), 1.0)]).unwrap();
        b.add_objective(&[(v(2), 1.0)]).unwrap();
        let inst = b.build().unwrap();
        assert_eq!(
            LocalSolver::new(3).solve_traced(&inst).unwrap_err(),
            TransformError::NoConstraint(v(2))
        );
    }

    #[test]
    fn quality_improves_with_r_on_average() {
        // Not guaranteed per instance, but the guarantee tightens; check
        // the mean utility over seeds does not degrade from R=2 to R=5.
        let mut mean2 = 0.0;
        let mut mean5 = 0.0;
        let n = 6;
        for seed in 0..n {
            let inst = random_general(&cfg(), seed as u64);
            mean2 += LocalSolver::new(2).solve(&inst).solution.utility(&inst);
            mean5 += LocalSolver::new(5).solve(&inst).solution.utility(&inst);
        }
        assert!(
            mean5 >= mean2 * 0.99,
            "mean utility should not collapse with deeper horizons: {mean2} vs {mean5}"
        );
    }
}
