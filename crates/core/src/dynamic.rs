//! §1.3's dynamic-algorithm claim: *"in bounded-degree graphs, a local
//! algorithm is also a dynamic graph algorithm (with constant-time
//! updates)"* — because an agent's output depends only on its radius-Θ(R)
//! neighbourhood, an input change at one node invalidates only the
//! outputs inside that ball.
//!
//! [`DynamicSolver`] keeps the full `t`/`s`/`g`/`x` state of a
//! special-form run and, on a constraint-coefficient edit, recomputes
//! exactly the invalidated region:
//!
//! | state | dirty radius around the edited constraint | why |
//! |-------|-------------------------------------------|-----|
//! | `t_u` | `4r+3` | `t_u` reads the depth-`4r+2` view of `u` |
//! | `s_v` | `(4r+3) + (4r+2)` | `s_v` mins `t` over a `4r+2` ball (a local flood) |
//! | `g±`, `x_v` | `+ 2(r+1) + 2` more | the depth-`r` recursion reads `s` two hops per level |
//!
//! Everything is repaired **in place** — the instance CSR, the
//! special-form partner tables and the solution state all mutate
//! without O(n) rebuilds — so one update costs O(Δ^O(R)), *constant in
//! the network size*, which is what the `delta_solve` bench gates on.
//!
//! Dirty agents get `t_u` from the centralized [`TreeBound::t`] — the
//! function [`solve_special`] evaluates for every agent — with one
//! dense-memo [`Scratch`] reused across updates, so the recomputed
//! state is **bit-identical** to a from-scratch solve by construction
//! (and asserted across the generator catalogue in tests).
//!
//! The solver also maintains its revision's identity, the content
//! hash ([`mmlp_instance::instance_hash`], hash v2) of its instance.
//! Hash v2 finalizes a sum of one term per row entry, so a coefficient
//! edit updates the sum in O(row): the edited row's old term out, its
//! new term in ([`mmlp_instance::hash::constraint_term`]). Nothing is
//! rendered or re-hashed whole; [`DynamicSolver::revision`] and
//! [`DynamicSolver::apply_delta`]'s base check are O(1).
//!
//! Structural edits (edge/agent/row changes, from
//! [`mmlp_instance::delta`]) are handled by [`DynamicSolver::apply_delta`]
//! with a from-scratch re-solve — the paper's dynamic model covers
//! coefficient changes; structure changes re-validate the special form
//! and rebuild.

use crate::smoothing::{solve_special, SpecialRun};
use crate::special::{SpecialForm, SpecialFormError};
use crate::tree_bound::{Scratch, TreeBound};
use mmlp_instance::delta::{Delta, DeltaError, Edit, RowKind};
use mmlp_instance::hash::{constraint_term, hash_of_sum, instance_sum};
use mmlp_instance::{AgentId, CommGraph, ConstraintId};

/// Incremental maintainer of a special-form solution under edits.
pub struct DynamicSolver {
    sf: SpecialForm,
    graph: CommGraph,
    big_r: usize,
    run: SpecialRun,
    /// Hash-v2 sum of the maintained instance ([`instance_sum`]), kept
    /// current per edit; [`hash_of_sum`] of it names the revision.
    revision_sum: u64,
    /// Dense `f±` memo tables for the `t_u` repairs, laid out once.
    scratch: Scratch,
    /// Buffers reused across updates so an update allocates nothing
    /// O(n): BFS distances from the edit and its visit list, and the two
    /// rounds of the local smoothing flood (one value per graph node).
    dist: Vec<u32>,
    dist_queue: Vec<u32>,
    flood: Vec<f64>,
    flood_next: Vec<f64>,
}

/// What one update touched — the observable form of the §1.3 claim.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// Agents whose `t_u` was recomputed.
    pub recomputed_t: usize,
    /// Agents whose `s_v` was recomputed.
    pub recomputed_s: usize,
    /// Agents whose `g±`/output was recomputed.
    pub recomputed_x: usize,
}

/// Why a delta could not be applied to a [`DynamicSolver`].
#[derive(Clone, Debug, PartialEq)]
pub enum DynamicError {
    /// The delta itself was invalid (wrong base, unknown target, bad
    /// coefficient, …).
    Delta(DeltaError),
    /// The edited instance left the special form, so the incremental
    /// solver cannot represent it. Callers fall back to the general
    /// pipeline (`LocalSolver`).
    NotSpecialForm(SpecialFormError),
}

impl std::fmt::Display for DynamicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicError::Delta(e) => write!(f, "invalid delta: {e}"),
            DynamicError::NotSpecialForm(e) => {
                write!(f, "edited instance leaves the special form: {e}")
            }
        }
    }
}

impl std::error::Error for DynamicError {}

impl From<DeltaError> for DynamicError {
    fn from(e: DeltaError) -> Self {
        DynamicError::Delta(e)
    }
}

impl DynamicSolver {
    /// Solves from scratch and retains the state, plus the revision's
    /// content hash.
    ///
    /// `_threads`: ignored; the benchmark PR (ROADMAP item 9) removes it.
    pub fn new(sf: SpecialForm, big_r: usize, _threads: usize) -> Self {
        assert!(big_r >= 2);
        let run = solve_special(&sf, big_r, 1);
        let graph = CommGraph::new(sf.instance());
        let n_nodes = graph.n_nodes();
        DynamicSolver {
            revision_sum: instance_sum(sf.instance()),
            sf,
            graph,
            big_r,
            run,
            scratch: Scratch::default(),
            dist: vec![u32::MAX; n_nodes],
            dist_queue: Vec::new(),
            flood: vec![f64::INFINITY; n_nodes],
            flood_next: vec![f64::INFINITY; n_nodes],
        }
    }

    /// The current special form.
    pub fn special_form(&self) -> &SpecialForm {
        &self.sf
    }

    /// The current full state (t, s, g, x).
    pub fn run(&self) -> &SpecialRun {
        &self.run
    }

    /// The locality parameter `R`.
    pub fn big_r(&self) -> usize {
        self.big_r
    }

    /// Heap bytes the `t_u` repair memo holds: per agent and level, two
    /// 16-byte `f±` slots and two 8-byte slopes, laid out by the first
    /// coefficient repair (none before it).
    pub fn scratch_bytes(&self) -> usize {
        self.scratch.heap_bytes()
    }

    /// Content hash of the maintained revision — equal to
    /// [`mmlp_instance::instance_hash`] of the current instance, kept
    /// current by every edit.
    pub fn revision(&self) -> u64 {
        hash_of_sum(self.revision_sum)
    }

    /// Applies a content-addressed [`Delta`] to the maintained instance.
    ///
    /// Constraint-coefficient edits (`set c …`) repair the solution
    /// ball-locally; any structural edit falls back to a from-scratch
    /// re-solve of the edited instance (which must still be special
    /// form). Either way the maintained state is bit-identical to a
    /// from-scratch solve of the new revision, and the delta is
    /// all-or-nothing: on `Err` the solver state is unchanged.
    pub fn apply_delta(&mut self, delta: &Delta) -> Result<UpdateReport, DynamicError> {
        let actual = self.revision();
        if delta.base != actual {
            return Err(DeltaError::BaseMismatch {
                expected: delta.base,
                actual,
            }
            .into());
        }
        if !delta.is_constraint_coefs() {
            // Structural (or objective-side) edits: apply on a copy —
            // all-or-nothing by construction — and re-solve. The base
            // was checked above.
            let new_inst = delta
                .apply_unchecked(self.sf.instance())
                .map_err(DynamicError::Delta)?;
            let sf = SpecialForm::new(new_inst).map_err(DynamicError::NotSpecialForm)?;
            return Ok(self.rebuild(sf));
        }
        // Coefficient edits leave the structure alone, so validating the
        // whole batch against the current rows up front is exact — the
        // repairs below then cannot fail half-way.
        for e in &delta.edits {
            let Edit::SetCoef {
                row_id,
                agent,
                coef,
                ..
            } = e
            else {
                unreachable!("checked is_constraint_coefs");
            };
            if *row_id as usize >= self.sf.instance().n_constraints() {
                return Err(DeltaError::UnknownRow {
                    row: RowKind::Constraint,
                    row_id: *row_id,
                }
                .into());
            }
            let row = self
                .sf
                .instance()
                .constraint_row(ConstraintId::new(*row_id));
            if !row.iter().any(|en| en.agent == *agent) {
                return Err(DeltaError::NoSuchEdge {
                    row: RowKind::Constraint,
                    row_id: *row_id,
                    agent: agent.raw(),
                }
                .into());
            }
            if !(coef.is_finite() && *coef > 0.0) {
                return Err(DeltaError::BadCoefficient { value: *coef }.into());
            }
        }
        let mut total = UpdateReport::default();
        for e in &delta.edits {
            let Edit::SetCoef {
                row_id,
                agent,
                coef,
                ..
            } = e
            else {
                unreachable!("checked is_constraint_coefs");
            };
            let i = ConstraintId::new(*row_id);
            let row = self.sf.instance().constraint_row(i);
            let mut new_coefs = [row[0].coef, row[1].coef];
            let slot = row
                .iter()
                .position(|en| en.agent == *agent)
                .expect("validated above");
            new_coefs[slot] = *coef;
            let rep = self.repair_coef_edit(i, new_coefs);
            total.recomputed_t += rep.recomputed_t;
            total.recomputed_s += rep.recomputed_s;
            total.recomputed_x += rep.recomputed_x;
        }
        Ok(total)
    }

    /// Replaces the two coefficients of constraint `i` (the constraint
    /// keeps its agents — a capacity re-weighting, the most common form
    /// of dynamic change in the fair-allocation applications) and
    /// repairs the solution locally. Returns the work done.
    pub fn update_constraint_coefs(
        &mut self,
        i: ConstraintId,
        new_coefs: [f64; 2],
    ) -> UpdateReport {
        assert!(new_coefs.iter().all(|c| c.is_finite() && *c > 0.0));
        self.repair_coef_edit(i, new_coefs)
    }

    /// The ball-local repair for one constraint-coefficient edit. Inputs
    /// are pre-validated: `i` exists and the coefficients are positive
    /// and finite.
    fn repair_coef_edit(&mut self, i: ConstraintId, new_coefs: [f64; 2]) -> UpdateReport {
        let r = self.big_r - 2;
        // Invalidation radii around the edited constraint node (see the
        // module table).
        let r_t = (4 * r + 3) as u32;
        let r_flood = (4 * r + 2) as u32;
        let r_s = r_t + r_flood;
        let r_x = r_s + (2 * (r + 1) + 2) as u32;
        let n_agents = self.sf.n_agents();

        // Mark the dirty ball — far enough out for the smoothing flood
        // to be exact on the dirty-s ball (the topology is untouched by
        // a coefficient edit, so the retained graph and BFS buffers
        // apply). The BFS visit list is the ball, in order of distance:
        // every pass below walks it, never the whole instance. Agents
        // are flat indices below `n_agents`.
        let r_ball = r_x.max(r_s + r_flood);
        let src = self.graph.constraint_index(i);
        self.graph
            .bfs_into(src, r_ball, &mut self.dist, &mut self.dist_queue);
        let within = |dist: &[u32], x: u32, radius: u32| {
            (x as usize) < n_agents && dist[x as usize] <= radius
        };

        // Mutate the maintained inputs in place: instance CSR + partner
        // tables (special form), and the revision's hash sum by the
        // edited row's term.
        let old_term = constraint_term(self.sf.instance(), i);
        self.sf.set_constraint_coefs(i, new_coefs);
        self.revision_sum = self
            .revision_sum
            .wrapping_sub(old_term)
            .wrapping_add(constraint_term(self.sf.instance(), i));

        // t: re-evaluate each dirty agent's bound on the folded graph.
        let tb = TreeBound::new(&self.sf, self.big_r);
        let mut recomputed_t = 0;
        for &x in &self.dist_queue {
            if within(&self.dist, x, r_t) {
                self.run.t[x as usize] = tb.t(AgentId::new(x), &mut self.scratch);
                recomputed_t += 1;
            }
        }

        // s_v = min t over the radius-(4r+2) ball, for v near the edit:
        // `smoothing::smooth`'s neighbour-min flood, run over the ball
        // only. Round j updates the nodes within r_s + 4r+2 − j of the
        // edit, reading only nodes one hop further out that the previous
        // round (or the initial fill) left exact, so after 4r+2 rounds
        // every agent of the dirty-s ball holds the minimum over the same
        // set a whole-instance flood takes.
        for &x in &self.dist_queue {
            self.flood[x as usize] = if (x as usize) < n_agents {
                self.run.t[x as usize]
            } else {
                f64::INFINITY
            };
        }
        for round in 1..=r_flood {
            let reach = r_s + r_flood - round;
            let exact = self
                .dist_queue
                .partition_point(|&x| self.dist[x as usize] <= reach);
            for &x in &self.dist_queue[..exact] {
                let mut m = self.flood[x as usize];
                for adj in self.graph.neighbors(x) {
                    m = m.min(self.flood[adj.to as usize]);
                }
                self.flood_next[x as usize] = m;
            }
            std::mem::swap(&mut self.flood, &mut self.flood_next);
        }
        let mut recomputed_s = 0;
        for &v in &self.dist_queue {
            if within(&self.dist, v, r_s) {
                self.run.s[v as usize] = self.flood[v as usize];
                recomputed_s += 1;
            }
        }

        // g±/x: run the (12)–(14) recursion level by level **in place**
        // over the affected agents only. Reads that land outside the
        // write-set return retained values, which equal what a full
        // recomputation would produce there — any slot the edit can
        // influence at level d is within r_s + 2d < r_x — so the merged
        // tables equal a from-scratch `g_tables` bit for bit.
        let dirty: Vec<AgentId> = self
            .dist_queue
            .iter()
            .filter(|&&x| within(&self.dist, x, r_x))
            .map(|&x| AgentId::new(x))
            .collect();
        for d in 0..=r {
            if d == 0 {
                for &v in &dirty {
                    self.run.g.g_plus[0][v.idx()] = self.sf.cap(v);
                }
            } else {
                for &v in &dirty {
                    let val = self
                        .sf
                        .cons(v)
                        .iter()
                        .map(|cv| {
                            (1.0 - cv.a_partner * self.run.g.g_minus[d - 1][cv.partner.idx()])
                                / cv.a_own
                        })
                        .fold(f64::INFINITY, f64::min);
                    self.run.g.g_plus[d][v.idx()] = val;
                }
            }
            // (13) at level d reads g⁺ at the same level, so it runs
            // after every dirty g⁺ slot of this level is written.
            for &v in &dirty {
                let sum: f64 = self
                    .sf
                    .others(v)
                    .map(|w| self.run.g.g_plus[d][w.idx()])
                    .sum();
                self.run.g.g_minus[d][v.idx()] = (self.run.s[v.idx()] - sum).max(0.0);
            }
        }
        let scale = 1.0 / (2.0 * self.big_r as f64);
        for &v in &dirty {
            let mut acc = 0.0;
            for d in 0..=r {
                acc += self.run.g.g_plus[d][v.idx()] + self.run.g.g_minus[d][v.idx()];
            }
            *self.run.x.value_mut(v) = acc * scale;
        }

        UpdateReport {
            recomputed_t,
            recomputed_s,
            recomputed_x: dirty.len(),
        }
    }

    /// Structural fallback: adopt `sf` as the new revision, re-solve from
    /// scratch and hash it whole.
    fn rebuild(&mut self, sf: SpecialForm) -> UpdateReport {
        let n = sf.n_agents();
        *self = DynamicSolver {
            scratch: std::mem::take(&mut self.scratch),
            ..DynamicSolver::new(sf, self.big_r, 1)
        };
        UpdateReport {
            recomputed_t: n,
            recomputed_s: n,
            recomputed_x: n,
        }
    }

    /// The underlying communication graph (for distance queries in
    /// reports and tests).
    pub fn graph(&self) -> &CommGraph {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smoothing::solve_special;
    use mmlp_gen::special::{cycle_special, random_special_form, SpecialFormConfig};
    use mmlp_instance::{instance_hash, InstanceBuilder};

    fn fixture(n_obj: usize, seed: u64) -> SpecialForm {
        SpecialForm::new(random_special_form(
            &SpecialFormConfig {
                n_objectives: n_obj,
                delta_k: 3,
                extra_constraints: n_obj / 2,
                coef_range: (0.5, 2.0),
            },
            seed,
        ))
        .unwrap()
    }

    fn assert_bitwise_eq(dynamic: &DynamicSolver, reference: &SpecialRun, label: &str) {
        for v in 0..dynamic.special_form().n_agents() {
            assert_eq!(
                dynamic.run().x.as_slice()[v].to_bits(),
                reference.x.as_slice()[v].to_bits(),
                "{label}: x mismatch at agent {v}"
            );
            assert_eq!(
                dynamic.run().t[v].to_bits(),
                reference.t[v].to_bits(),
                "{label}: t mismatch at agent {v}"
            );
            assert_eq!(
                dynamic.run().s[v].to_bits(),
                reference.s[v].to_bits(),
                "{label}: s mismatch at agent {v}"
            );
        }
    }

    #[test]
    fn update_matches_full_recompute_bitwise() {
        for seed in 0..3 {
            let sf = fixture(30, seed);
            for big_r in [2, 3] {
                let mut dynamic = DynamicSolver::new(sf.clone(), big_r, 1);
                // Edit a few constraints in sequence.
                for (step, cons) in [0u32, 7, 13].into_iter().enumerate() {
                    let i = ConstraintId::new(cons);
                    let factor = 1.0 + 0.3 * (step as f64 + 1.0);
                    let row = dynamic.special_form().instance().constraint_row(i);
                    let new = [row[0].coef * factor, row[1].coef / factor];
                    dynamic.update_constraint_coefs(i, new);
                    let reference = solve_special(dynamic.special_form(), big_r, 1);
                    assert_bitwise_eq(
                        &dynamic,
                        &reference,
                        &format!("seed {seed} R {big_r} step {step}"),
                    );
                }
            }
        }
    }

    #[test]
    fn update_work_is_constant_in_network_size() {
        // On a cycle the horizon ball has constant size, so the work per
        // update must not grow with the cycle length.
        let mut reports = Vec::new();
        for n_obj in [32, 128] {
            let sf = SpecialForm::new(cycle_special(n_obj, 1.0)).unwrap();
            let mut dynamic = DynamicSolver::new(sf, 3, 1);
            let rep = dynamic.update_constraint_coefs(ConstraintId::new(0), [2.0, 2.0]);
            reports.push(rep);
        }
        assert_eq!(
            reports[0], reports[1],
            "update work must be independent of n on the cycle"
        );
        assert!(reports[0].recomputed_x < 64, "a constant-size ball");
    }

    #[test]
    fn revision_tracks_the_content_hash_through_every_kind_of_edit() {
        let sf = fixture(24, 4);
        let mut dynamic = DynamicSolver::new(sf, 3, 1);
        let inst_hash = |d: &DynamicSolver| instance_hash(d.special_form().instance());
        assert_eq!(dynamic.revision(), inst_hash(&dynamic));
        // The bare kernel keeps the hash current after every edit,
        // including a row edited twice in a row and an edit back to a
        // row's original coefficients.
        let row0 = dynamic
            .special_form()
            .instance()
            .constraint_row(ConstraintId::new(0));
        let original = [row0[0].coef, row0[1].coef];
        let start = dynamic.revision();
        for (cons, coefs) in [
            (3u32, [0.1 + 0.2, 1.75]),
            (3, [2.5, 0.5]),
            (0, [1.0, 1.0]),
            (11, [0.1 + 0.2, 1.75]),
            (11, [1.25, 1.5]),
            (0, original),
        ] {
            let before = dynamic.revision();
            dynamic.update_constraint_coefs(ConstraintId::new(cons), coefs);
            assert_eq!(dynamic.revision(), inst_hash(&dynamic), "row {cons}");
            assert_ne!(dynamic.revision(), before, "row {cons}");
        }
        assert_ne!(dynamic.revision(), start, "rows 3 and 11 stay edited");
        // A structural delta rebuilds and hashes the new instance whole.
        let base = dynamic.revision();
        let d = Delta::single(
            base,
            Edit::AddRow {
                row: RowKind::Constraint,
                entries: vec![(AgentId::new(0), 0.8), (AgentId::new(1), 1.2)],
            },
        );
        dynamic.apply_delta(&d).unwrap();
        assert_ne!(dynamic.revision(), base);
        assert_eq!(dynamic.revision(), inst_hash(&dynamic));
        // And a coefficient edit on top of the rebuild updates it again.
        let d = Delta::single(
            dynamic.revision(),
            Edit::SetCoef {
                row: RowKind::Constraint,
                row_id: 0,
                agent: dynamic
                    .special_form()
                    .instance()
                    .constraint_row(ConstraintId::new(0))[1]
                    .agent,
                coef: 0.625,
            },
        );
        dynamic.apply_delta(&d).unwrap();
        assert_eq!(dynamic.revision(), inst_hash(&dynamic));
    }

    #[test]
    fn update_keeps_feasibility() {
        let sf = fixture(24, 5);
        let mut dynamic = DynamicSolver::new(sf, 3, 1);
        for cons in 0..6u32 {
            dynamic.update_constraint_coefs(ConstraintId::new(cons), [1.7, 0.9]);
            assert!(dynamic
                .run()
                .x
                .is_feasible(dynamic.special_form().instance(), 1e-9));
        }
    }

    #[test]
    #[should_panic(expected = "> 0")]
    fn update_rejects_nonpositive_coefficients() {
        let sf = fixture(10, 0);
        let mut dynamic = DynamicSolver::new(sf, 2, 1);
        dynamic.update_constraint_coefs(ConstraintId::new(0), [0.0, 1.0]);
    }

    #[test]
    fn zeroing_edit_is_rejected_and_state_survives() {
        // "Zero this coefficient" is not a coefficient set — the edit
        // model spells it `rmedge` (which leaves the special form, since
        // |Vi| would drop to 1). Both spellings must fail cleanly and
        // leave the solver exactly where it was.
        let sf = fixture(20, 7);
        let mut dynamic = DynamicSolver::new(sf, 3, 1);
        let before: Vec<u64> = dynamic
            .run()
            .x
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let base = instance_hash(dynamic.special_form().instance());
        let i = ConstraintId::new(1);
        let agent = dynamic.special_form().instance().constraint_row(i)[0].agent;

        let zero_set = Delta::single(
            base,
            Edit::SetCoef {
                row: RowKind::Constraint,
                row_id: 1,
                agent,
                coef: 0.0,
            },
        );
        assert!(matches!(
            dynamic.apply_delta(&zero_set),
            Err(DynamicError::Delta(DeltaError::BadCoefficient { .. }))
        ));

        let remove = Delta::single(
            base,
            Edit::RemoveEdge {
                row: RowKind::Constraint,
                row_id: 1,
                agent,
            },
        );
        assert!(matches!(
            dynamic.apply_delta(&remove),
            Err(DynamicError::NotSpecialForm(
                SpecialFormError::ConstraintDegree { .. }
            ))
        ));

        let after: Vec<u64> = dynamic
            .run()
            .x
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(before, after, "failed deltas must not disturb the state");
        assert_eq!(base, instance_hash(dynamic.special_form().instance()));
    }

    #[test]
    fn structural_delta_rebuilds_bit_identically() {
        // Adding a fresh constraint between two existing agents keeps
        // the special form; apply_delta must take the rebuild path and
        // land exactly on the from-scratch solve of the new revision.
        let sf = fixture(16, 3);
        let mut dynamic = DynamicSolver::new(sf, 3, 1);
        let inst = dynamic.special_form().instance();
        let (va, vb) = (AgentId::new(0), AgentId::new(1));
        let d = Delta::single(
            instance_hash(inst),
            Edit::AddRow {
                row: RowKind::Constraint,
                entries: vec![(va, 0.8), (vb, 1.2)],
            },
        );
        let rep = dynamic.apply_delta(&d).expect("structurally valid");
        assert_eq!(rep.recomputed_x, dynamic.special_form().n_agents());
        let reference = solve_special(dynamic.special_form(), 3, 1);
        assert_bitwise_eq(&dynamic, &reference, "structural rebuild");
        assert!(dynamic.special_form().instance().n_constraints() > 0);
    }

    #[test]
    fn degree_one_frontier_agents_update_bitwise() {
        // A chain whose endpoint agents sit in exactly one constraint:
        //   objectives pair (v0,v1) (v2,v3) (v4,v5);
        //   constraints chain (v0,v1) (v1,v2) (v2,v3) (v3,v4) (v4,v5).
        // v0 and v5 have constraint-degree 1 and sit at the dirty-ball
        // frontier for edits near the middle.
        let mut b = InstanceBuilder::new();
        let v: Vec<AgentId> = (0..6).map(|_| b.add_agent()).collect();
        for pair in v.chunks(2) {
            b.add_objective(&[(pair[0], 1.0), (pair[1], 1.0)]).unwrap();
        }
        for w in v.windows(2) {
            b.add_constraint(&[(w[0], 1.0), (w[1], 1.3)]).unwrap();
        }
        let sf = SpecialForm::new(b.build().unwrap()).unwrap();
        for big_r in [2, 3] {
            let mut dynamic = DynamicSolver::new(sf.clone(), big_r, 1);
            // Edit the middle constraint (v2,v3), then the endpoint ones.
            for cons in [2u32, 0, 4] {
                let i = ConstraintId::new(cons);
                let row = dynamic.special_form().instance().constraint_row(i);
                let new = [row[0].coef * 0.7, row[1].coef * 1.9];
                dynamic.update_constraint_coefs(i, new);
                let reference = solve_special(dynamic.special_form(), big_r, 1);
                assert_bitwise_eq(&dynamic, &reference, &format!("R {big_r} cons {cons}"));
            }
        }
    }

    #[test]
    fn empty_delta_is_a_noop() {
        let sf = fixture(12, 1);
        let mut dynamic = DynamicSolver::new(sf, 3, 1);
        let base = instance_hash(dynamic.special_form().instance());
        let rep = dynamic
            .apply_delta(&Delta {
                base,
                edits: vec![],
            })
            .unwrap();
        assert_eq!(rep.recomputed_x, 0);
        assert_eq!(base, instance_hash(dynamic.special_form().instance()));
    }

    #[test]
    fn wrong_base_hash_is_rejected() {
        let sf = fixture(12, 1);
        let mut dynamic = DynamicSolver::new(sf, 3, 1);
        let d = Delta {
            base: 0xbad,
            edits: vec![],
        };
        assert!(matches!(
            dynamic.apply_delta(&d),
            Err(DynamicError::Delta(DeltaError::BaseMismatch { .. }))
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::smoothing::solve_special;
    use mmlp_gen::catalog::catalog;
    use mmlp_instance::instance_hash;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Catalogue-wide §1.3 soundness: for every family that yields a
        /// special-form instance, a random sequence of k coefficient
        /// edits applied incrementally is bit-identical to a
        /// from-scratch solve of the final revision, and the maintained
        /// revision hash stays the content
        /// hash of the edited instance after every edit, and every
        /// agent's `t_u` is the plain bisection's after every edit.
        #[test]
        fn k_incremental_edits_match_scratch_solve(
            size in 16usize..40,
            seed in 0u64..500,
            k in 1usize..6,
        ) {
            for fam in catalog() {
                let inst = fam.instance(size, seed);
                let Ok(sf) = SpecialForm::new(inst) else {
                    continue; // general families go through the §4 transform instead
                };
                if sf.instance().n_constraints() == 0 {
                    continue;
                }
                let mut dynamic = DynamicSolver::new(sf, 3, 1);
                let mut mix = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ size as u64;
                for step in 0..k {
                    mix = mix
                        .wrapping_add(0x2545_f491_4f6c_dd1d)
                        .wrapping_mul(0x5851_f42d_4c95_7f2d);
                    let n_cons = dynamic.special_form().instance().n_constraints() as u64;
                    let i = ConstraintId::new((mix % n_cons) as u32);
                    let factor = 0.5 + (mix >> 32) as f64 / u32::MAX as f64; // [0.5, 1.5)
                    let row = dynamic.special_form().instance().constraint_row(i);
                    let agent = row[(mix >> 16) as usize % 2].agent;
                    let coef = row[(mix >> 16) as usize % 2].coef * factor;
                    let base = instance_hash(dynamic.special_form().instance());
                    let d = Delta::single(base, Edit::SetCoef {
                        row: RowKind::Constraint,
                        row_id: i.raw(),
                        agent,
                        coef,
                    });
                    dynamic.apply_delta(&d).expect("validated edit");
                    let revision = dynamic.revision();
                    prop_assert_eq!(
                        revision,
                        instance_hash(dynamic.special_form().instance()),
                        "family {} step {}: revision() is the content hash",
                        fam.name, step
                    );
                    prop_assert_ne!(
                        base,
                        revision,
                        "family {} step {}: the edit must change the revision",
                        fam.name, step
                    );
                    // The repaired t_u are the plain bisection's bits.
                    let tb = TreeBound::new(dynamic.special_form(), 3);
                    let mut sc = Scratch::default();
                    for u in dynamic.special_form().instance().agents() {
                        prop_assert_eq!(
                            dynamic.run().t[u.idx()].to_bits(),
                            tb.t_bisect(u, &mut sc).to_bits(),
                            "family {} step {} agent {}: t differs from t_bisect",
                            fam.name, step, u
                        );
                    }
                }
                let reference = solve_special(dynamic.special_form(), 3, 1);
                for v in 0..dynamic.special_form().n_agents() {
                    prop_assert_eq!(
                        dynamic.run().x.as_slice()[v].to_bits(),
                        reference.x.as_slice()[v].to_bits(),
                        "family {} agent {}: x diverged from scratch solve",
                        fam.name, v
                    );
                }
            }
        }
    }
}
