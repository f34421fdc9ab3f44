//! Executes one [`Job`]: generate the instance, run the chosen solver,
//! certify against the exact LP optimum, and package a [`JobRecord`].

use crate::job::{Job, SolverKind};
use crate::record::{JobRecord, JobStatus};
use mmlp_core::dynamic::DynamicSolver;
use mmlp_core::safe::safe_solution;
use mmlp_core::smoothing::solve_special;
use mmlp_core::solver::LocalSolver;
use mmlp_core::transform::to_special_form;
use mmlp_core::{distributed, ratio, SpecialForm};
use mmlp_gen::catalog;
use mmlp_instance::delta::{Delta, Edit, RowKind};
use mmlp_instance::{ConstraintId, DegreeStats, Instance};
use mmlp_lp::solve_maxmin;
use std::time::{Duration, Instant};

/// Generates the job's instance from the family catalogue.
pub fn generate_instance(job: &Job) -> Result<Instance, String> {
    let fams = catalog();
    let fam = fams
        .iter()
        .find(|f| f.name == job.family)
        .ok_or_else(|| format!("unknown family '{}'", job.family))?;
    Ok(fam.instance(job.size, job.seed))
}

/// Runs one job to completion on the calling thread. Never panics on
/// solver errors — they come back as [`JobStatus::Error`] records.
/// (Panics inside the solvers themselves are the scheduler's problem,
/// by design.)
pub fn execute_job(job: &Job) -> JobRecord {
    let inst = match generate_instance(job) {
        Ok(i) => i,
        Err(e) => return JobRecord::failed(job, JobStatus::Error, e),
    };
    if job.solver == SolverKind::Mutating {
        // The instance changes under the edit chain, so certification
        // runs against the *final* revision — a separate flow.
        return execute_mutating_job(job, inst);
    }
    let stats = DegreeStats::of(&inst);
    let (di, dk) = (stats.delta_i.max(2), stats.delta_k.max(2));

    // The certification baseline; timed separately so `wall_ms`
    // measures the variant under study, not the simplex — except for
    // the exact solver, whose cost *is* this solve.
    let optimum_start = Instant::now();
    let optimum = match solve_maxmin(&inst) {
        Ok(o) => o.omega,
        Err(e) => return JobRecord::failed(job, JobStatus::Error, format!("optimum: {e}")),
    };
    let optimum_ms = optimum_start.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    let (mut interned, mut arena_bytes) = (0u64, 0u64);
    let mut trace = distributed::FlatSolveTrace::default();
    let (utility, guarantee, rounds, messages, bytes) = match job.solver {
        SolverKind::Local => {
            let solver = LocalSolver::new(job.big_r);
            let out = solver.solve(&inst);
            (
                out.solution.utility(&inst),
                solver.guarantee(di, dk),
                0,
                0,
                0,
            )
        }
        SolverKind::Safe => {
            // The predecessor works' baseline achieves factor ΔI.
            (safe_solution(&inst).utility(&inst), di as f64, 0, 0, 0)
        }
        SolverKind::Exact => (optimum, 1.0, 0, 0, 0),
        SolverKind::Distributed => {
            let transformed = to_special_form(&inst);
            let sf = match SpecialForm::new(transformed.instance.clone()) {
                Ok(sf) => sf,
                Err(e) => {
                    return JobRecord::failed(job, JobStatus::Error, format!("special form: {e:?}"))
                }
            };
            // The flat (hash-consed) path through the traced entry
            // point (bit-identical to the untraced one): the record
            // carries the dedup counters plus the per-phase/probe
            // snapshot the reports and perf-trajectory pipeline use.
            let (run, stats, flat_trace) =
                distributed::solve_special_flat_traced(&sf, job.big_r, 1);
            let x = transformed.map_back(&run.x);
            interned = stats.interned_nodes;
            arena_bytes = stats.arena_bytes;
            trace = flat_trace;
            (
                x.utility(&inst),
                ratio::guarantee(di, dk, job.big_r),
                stats.rounds as u64,
                stats.messages,
                stats.bytes,
            )
        }
        SolverKind::Mutating => unreachable!("dispatched to execute_mutating_job above"),
    };
    let wall_ms = if job.solver == SolverKind::Exact {
        optimum_ms
    } else {
        start.elapsed().as_secs_f64() * 1e3
    };

    let ratio = if utility > 0.0 {
        optimum / utility
    } else {
        f64::INFINITY
    };
    JobRecord {
        job_id: job.id(),
        family: job.family.clone(),
        size: job.size,
        seed: job.seed,
        big_r: job.big_r,
        solver: job.solver,
        status: JobStatus::Ok,
        utility,
        optimum,
        ratio,
        guarantee,
        threshold: ratio::threshold(di, dk),
        delta_i: stats.delta_i,
        delta_k: stats.delta_k,
        agents: inst.n_agents(),
        wall_ms,
        rounds,
        messages,
        bytes,
        interned,
        arena_bytes,
        gather_ns: trace.gather_ns,
        t_eval_ns: trace.t_eval_ns,
        flood_ns: trace.flood_ns,
        g_ns: trace.g_ns,
        t_probes: trace.t_probes,
        edits: 0,
        recomputed_x: 0,
        error: String::new(),
    }
}

/// Edits streamed through each mutating job's [`DynamicSolver`].
const MUTATING_EDITS: usize = 8;

/// A tiny xorshift64* stream for the edit chain — deterministic per
/// job seed, no dependency.
struct EditRng(u64);

impl EditRng {
    fn new(seed: u64) -> EditRng {
        let mut s = seed.wrapping_add(0x9e37_79b9_7f4a_7c15) | 1;
        s ^= s >> 30;
        s = s.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        EditRng(s | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// A coefficient scale factor in `[0.6, 1.8]` — strictly positive
    /// and bounded, so a chain of edits keeps coefficients
    /// well-conditioned.
    fn factor(&mut self) -> f64 {
        0.6 + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 1.2
    }
}

/// Runs a [`SolverKind::Mutating`] job: boot a [`DynamicSolver`] on the
/// generated instance, stream [`MUTATING_EDITS`] random
/// single-coefficient edits through it, and after every edit certify
/// the repaired `(t, s, x)` state bit-identical to a from-scratch
/// solve of the mutated instance. Any divergence is an error record —
/// the campaign's zero-error gate catches it. `wall_ms` measures the
/// incremental repairs only (boot and certification excluded), so the
/// report's scaling table shows the dirty-ball cost of the §1.3
/// corollary, not the from-scratch cost it avoids.
fn execute_mutating_job(job: &Job, inst: Instance) -> JobRecord {
    let sf = match SpecialForm::new(inst) {
        Ok(sf) => sf,
        Err(e) => {
            return JobRecord::failed(
                job,
                JobStatus::Error,
                format!("mutating jobs need a special-form family: {e:?}"),
            )
        }
    };
    let mut dynamic = DynamicSolver::new(sf, job.big_r, 1);
    let mut rng = EditRng::new(job.seed);
    let (mut edits, mut recomputed_x) = (0u64, 0u64);
    let mut wall = Duration::ZERO;
    for step in 0..MUTATING_EDITS {
        let base = dynamic.revision();
        let cur = dynamic.special_form().instance();
        let row_id = rng.below(cur.n_constraints()) as u32;
        let row = cur.constraint_row(ConstraintId::new(row_id));
        let entry = row[rng.below(row.len())];
        let delta = Delta::single(
            base,
            Edit::SetCoef {
                row: RowKind::Constraint,
                row_id,
                agent: entry.agent,
                coef: entry.coef * rng.factor(),
            },
        );
        let started = Instant::now();
        let report = match dynamic.apply_delta(&delta) {
            Ok(r) => r,
            Err(e) => return JobRecord::failed(job, JobStatus::Error, format!("edit {step}: {e}")),
        };
        wall += started.elapsed();
        edits += 1;
        recomputed_x += report.recomputed_x as u64;
        // Certify: the §1.3 claim is that the dirty-ball repair lands
        // on the same bits as starting over.
        let reference = solve_special(dynamic.special_form(), job.big_r, 1);
        let repaired = dynamic.run().x.as_slice();
        if repaired
            .iter()
            .zip(reference.x.as_slice())
            .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            return JobRecord::failed(
                job,
                JobStatus::Error,
                format!("incremental state diverged from a scratch solve at edit {step}"),
            );
        }
    }

    let final_inst = dynamic.special_form().instance();
    let stats = DegreeStats::of(final_inst);
    let (di, dk) = (stats.delta_i.max(2), stats.delta_k.max(2));
    let optimum = match solve_maxmin(final_inst) {
        Ok(o) => o.omega,
        Err(e) => return JobRecord::failed(job, JobStatus::Error, format!("optimum: {e}")),
    };
    let utility = dynamic.run().x.utility(final_inst);
    let ratio = if utility > 0.0 {
        optimum / utility
    } else {
        f64::INFINITY
    };
    JobRecord {
        job_id: job.id(),
        family: job.family.clone(),
        size: job.size,
        seed: job.seed,
        big_r: job.big_r,
        solver: job.solver,
        status: JobStatus::Ok,
        utility,
        optimum,
        ratio,
        guarantee: ratio::guarantee(di, dk, job.big_r),
        threshold: ratio::threshold(di, dk),
        delta_i: stats.delta_i,
        delta_k: stats.delta_k,
        agents: final_inst.n_agents(),
        wall_ms: wall.as_secs_f64() * 1e3,
        rounds: 0,
        messages: 0,
        bytes: 0,
        interned: 0,
        arena_bytes: 0,
        gather_ns: 0,
        t_eval_ns: 0,
        flood_ns: 0,
        g_ns: 0,
        t_probes: 0,
        edits,
        recomputed_x,
        error: String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmlp_core::tree_bound::{Scratch, TreeBound};

    fn job(solver: SolverKind, big_r: usize) -> Job {
        Job {
            family: "random-3x3".into(),
            size: 16,
            seed: 1,
            big_r,
            solver,
        }
    }

    #[test]
    fn every_solver_variant_measures_within_its_guarantee() {
        for solver in SolverKind::all() {
            let mut j = job(solver, if solver.uses_r() { 3 } else { 0 });
            if solver == SolverKind::Mutating {
                // The dynamic solver repairs special-form instances.
                j.family = "special-form".into();
            }
            let r = execute_job(&j);
            assert_eq!(r.status, JobStatus::Ok, "{solver:?}: {}", r.error);
            assert!(r.utility > 0.0, "{solver:?}");
            assert!(
                r.ratio <= r.guarantee + 1e-6,
                "{solver:?}: ratio {} vs guarantee {}",
                r.ratio,
                r.guarantee
            );
            assert!(r.ratio >= 1.0 - 1e-9, "the optimum is an upper bound");
            assert!(r.agents > 0 && r.delta_i > 0 && r.delta_k > 0);
        }
    }

    #[test]
    fn distributed_is_bit_identical_to_local_and_accounts_messages() {
        let local = execute_job(&job(SolverKind::Local, 3));
        let dist = execute_job(&job(SolverKind::Distributed, 3));
        assert_eq!(local.utility.to_bits(), dist.utility.to_bits());
        assert!(dist.rounds > 0 && dist.messages > 0 && dist.bytes > 0);
        assert_eq!(local.rounds, 0, "centralized run has no protocol stats");
        // The flat path reports its arena accounting; the dedup ratio
        // exceeds 1 on the (non-tree) random family.
        assert!(dist.interned > 0 && dist.arena_bytes > 0);
        assert!(dist.bytes > dist.arena_bytes, "dedup ratio must exceed 1");
        assert_eq!(local.interned, 0);
        // The phase snapshot rides along: real wall times, coherent sum.
        let phase_sum = dist.gather_ns + dist.t_eval_ns + dist.flood_ns + dist.g_ns;
        assert!(phase_sum > 0, "distributed jobs carry the phase snapshot");
        assert_eq!(local.gather_ns, 0, "centralized runs are untraced");
        // The `t` batch made the centralized replay's probes.
        let j = job(SolverKind::Distributed, 3);
        let inst = generate_instance(&j).unwrap();
        let sf = SpecialForm::new(to_special_form(&inst).instance).unwrap();
        let tb = TreeBound::new(&sf, 3);
        let mut sc = Scratch::default();
        for u in sf.instance().agents() {
            tb.t(u, &mut sc);
        }
        assert_eq!(dist.t_probes, sc.probes());
        assert_eq!(local.t_probes, 0);
    }

    #[test]
    fn exact_solver_has_unit_ratio_and_real_wall_time() {
        let r = execute_job(&job(SolverKind::Exact, 0));
        assert!((r.ratio - 1.0).abs() < 1e-12);
        assert_eq!(r.utility.to_bits(), r.optimum.to_bits());
        assert!(
            r.wall_ms > 0.0,
            "exact jobs must report the simplex cost, not ~0"
        );
    }

    #[test]
    fn mutating_jobs_measure_the_edit_chain() {
        let mut j = job(SolverKind::Mutating, 2);
        j.family = "special-form".into();
        // Locality only shows on instances larger than the dirty ball.
        j.size = 96;
        let r = execute_job(&j);
        assert_eq!(r.status, JobStatus::Ok, "{}", r.error);
        assert_eq!(r.edits, MUTATING_EDITS as u64);
        assert!(r.recomputed_x > 0, "edits must dirty some agents");
        assert!(
            r.recomputed_x < r.edits * r.agents as u64,
            "repairs must stay local: {} recomputations over {} edits on {} agents",
            r.recomputed_x,
            r.edits,
            r.agents
        );
        assert_eq!(r.interned, 0, "the chain interns no views");
        // Determinism: the chain is a pure function of the job.
        let again = execute_job(&j);
        assert_eq!(again.utility.to_bits(), r.utility.to_bits());
        assert_eq!(again.recomputed_x, r.recomputed_x);
    }

    #[test]
    fn mutating_jobs_reject_non_special_form_families() {
        let r = execute_job(&job(SolverKind::Mutating, 3));
        assert_eq!(r.status, JobStatus::Error);
        assert!(r.error.contains("special-form family"), "{}", r.error);
    }

    #[test]
    fn unknown_family_is_an_error_record_not_a_panic() {
        let mut j = job(SolverKind::Local, 2);
        j.family = "no-such-family".into();
        let r = execute_job(&j);
        assert_eq!(r.status, JobStatus::Error);
        assert!(r.error.contains("unknown family"));
    }
}
