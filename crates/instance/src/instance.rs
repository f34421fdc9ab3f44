//! Immutable CSR storage of a max-min LP and its builder.
//!
//! An [`Instance`] stores the packing matrix `A` (one sparse row per
//! constraint) and the covering matrix `C` (one sparse row per objective)
//! together with both transposes (agent → incident constraints/objectives).
//! Row order and within-row order are preserved from the builder and define
//! the *port numbering* of the communication graph: port `p` of a
//! constraint/objective is the `p`-th entry of its row; ports of an agent
//! enumerate first its constraints, then its objectives, in transpose order
//! (ascending row id — deterministic).

use crate::ids::{AgentId, ConstraintId, ObjectiveId};

/// One entry of a constraint or objective row: an incident agent and the
/// positive coefficient on the shared edge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Entry {
    /// The agent this row entry touches.
    pub agent: AgentId,
    /// The (strictly positive, finite) coefficient `a_iv` or `c_kv`.
    pub coef: f64,
}

/// Transpose entry: a constraint incident to an agent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AgentConstraint {
    /// The incident constraint `i ∈ I_v`.
    pub cons: ConstraintId,
    /// The coefficient `a_iv` of the shared edge.
    pub coef: f64,
}

/// Transpose entry: an objective incident to an agent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AgentObjective {
    /// The incident objective `k ∈ K_v`.
    pub obj: ObjectiveId,
    /// The coefficient `c_kv` of the shared edge.
    pub coef: f64,
}

/// An immutable max-min LP instance.
///
/// Construct via [`InstanceBuilder`]. All accessors are O(1) or return
/// slices; the structure is append-only CSR so cloning is a bulk memcpy.
#[derive(Clone, Debug, Default)]
pub struct Instance {
    n_agents: u32,

    // A: constraint rows.
    a_off: Vec<u32>,
    a_entries: Vec<Entry>,

    // C: objective rows.
    c_off: Vec<u32>,
    c_entries: Vec<Entry>,

    // Transpose: agent -> incident constraints.
    va_off: Vec<u32>,
    va_entries: Vec<AgentConstraint>,

    // Transpose: agent -> incident objectives.
    vc_off: Vec<u32>,
    vc_entries: Vec<AgentObjective>,
}

impl Instance {
    /// Number of agents `|V|` (variables).
    #[inline]
    pub fn n_agents(&self) -> usize {
        self.n_agents as usize
    }

    /// Number of constraints `|I|` (rows of `A`).
    #[inline]
    pub fn n_constraints(&self) -> usize {
        self.a_off.len() - 1
    }

    /// Number of objectives `|K|` (rows of `C`).
    #[inline]
    pub fn n_objectives(&self) -> usize {
        self.c_off.len() - 1
    }

    /// Number of agent–constraint edges (nonzeros of `A`).
    #[inline]
    pub fn n_constraint_edges(&self) -> usize {
        self.a_entries.len()
    }

    /// Number of agent–objective edges (nonzeros of `C`).
    #[inline]
    pub fn n_objective_edges(&self) -> usize {
        self.c_entries.len()
    }

    /// The row `V_i` of constraint `i`: incident agents with coefficients,
    /// in port order.
    #[inline]
    pub fn constraint_row(&self, i: ConstraintId) -> &[Entry] {
        &self.a_entries[self.a_off[i.idx()] as usize..self.a_off[i.idx() + 1] as usize]
    }

    /// The row `V_k` of objective `k`: incident agents with coefficients,
    /// in port order.
    #[inline]
    pub fn objective_row(&self, k: ObjectiveId) -> &[Entry] {
        &self.c_entries[self.c_off[k.idx()] as usize..self.c_off[k.idx() + 1] as usize]
    }

    /// The set `I_v`: constraints incident to agent `v`, in port order.
    #[inline]
    pub fn agent_constraints(&self, v: AgentId) -> &[AgentConstraint] {
        &self.va_entries[self.va_off[v.idx()] as usize..self.va_off[v.idx() + 1] as usize]
    }

    /// The set `K_v`: objectives incident to agent `v`, in port order.
    #[inline]
    pub fn agent_objectives(&self, v: AgentId) -> &[AgentObjective] {
        &self.vc_entries[self.vc_off[v.idx()] as usize..self.vc_off[v.idx() + 1] as usize]
    }

    /// Iterator over all agent ids.
    pub fn agents(&self) -> impl ExactSizeIterator<Item = AgentId> + Clone {
        (0..self.n_agents).map(AgentId::new)
    }

    /// Iterator over all constraint ids.
    pub fn constraints(&self) -> impl ExactSizeIterator<Item = ConstraintId> + Clone {
        (0..self.n_constraints() as u32).map(ConstraintId::new)
    }

    /// Iterator over all objective ids.
    pub fn objectives(&self) -> impl ExactSizeIterator<Item = ObjectiveId> + Clone {
        (0..self.n_objectives() as u32).map(ObjectiveId::new)
    }

    /// The coefficient `a_iv`, or `None` when `{v,i}` is not an edge.
    ///
    /// Linear in the row length (rows are tiny: `|V_i| ≤ ΔI`).
    pub fn a_coef(&self, i: ConstraintId, v: AgentId) -> Option<f64> {
        self.constraint_row(i)
            .iter()
            .find(|e| e.agent == v)
            .map(|e| e.coef)
    }

    /// The coefficient `c_kv`, or `None` when `{v,k}` is not an edge.
    pub fn c_coef(&self, k: ObjectiveId, v: AgentId) -> Option<f64> {
        self.objective_row(k)
            .iter()
            .find(|e| e.agent == v)
            .map(|e| e.coef)
    }

    /// `min_{i∈Iv} 1/a_iv` — the largest value of `x_v` that no single
    /// constraint forbids on its own (eq. (5)/(12) of the paper). Returns
    /// `f64::INFINITY` for an unconstrained agent.
    pub fn agent_cap(&self, v: AgentId) -> f64 {
        self.agent_constraints(v)
            .iter()
            .fold(f64::INFINITY, |m, e| m.min(1.0 / e.coef))
    }

    /// Heap bytes of the instance's arrays, by length: the row offsets
    /// and entries of both matrices and of both transposes. O(1), so
    /// the serve layer's instance store charges it per entry.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let offsets = self.a_off.len() + self.c_off.len() + self.va_off.len() + self.vc_off.len();
        offsets * size_of::<u32>()
            + (self.a_entries.len() + self.c_entries.len()) * size_of::<Entry>()
            + self.va_entries.len() * size_of::<AgentConstraint>()
            + self.vc_entries.len() * size_of::<AgentObjective>()
    }

    /// Replaces the coefficients of constraint `i`'s row **in place** —
    /// row and agent-side transpose together, in O(|V_i| · Δ) with no
    /// reallocation. `new` is in port order and must match the row
    /// length.
    ///
    /// This is the delta fast path (`mmlp-core`'s dynamic solver repairs
    /// a solution after a capacity re-weighting without rebuilding the
    /// CSR); the instance stays exactly what [`InstanceBuilder`] would
    /// have produced for the edited rows, so content hashing and port
    /// numbering are unaffected beyond the new values.
    pub fn set_constraint_coefs(&mut self, i: ConstraintId, new: &[f64]) -> Result<(), BuildError> {
        let (lo, hi) = (
            self.a_off[i.idx()] as usize,
            self.a_off[i.idx() + 1] as usize,
        );
        assert_eq!(new.len(), hi - lo, "one coefficient per row entry");
        for &c in new {
            if !(c.is_finite() && c > 0.0) {
                return Err(BuildError::BadCoefficient { value: c });
            }
        }
        for (slot, &coef) in new.iter().enumerate() {
            let agent = self.a_entries[lo + slot].agent;
            self.a_entries[lo + slot].coef = coef;
            let (alo, ahi) = (
                self.va_off[agent.idx()] as usize,
                self.va_off[agent.idx() + 1] as usize,
            );
            let t = self.va_entries[alo..ahi]
                .iter_mut()
                .find(|e| e.cons == i)
                .expect("transpose mirrors the row");
            t.coef = coef;
        }
        Ok(())
    }

    /// Bulk constructor from raw CSR rows, the fast path of the binary
    /// codec (`mmlp-store`): validates everything the incremental
    /// builder would — offset shape, agent range, strictly-positive
    /// finite coefficients, no duplicate agent within a row — in one
    /// pass, then computes both transposes. Semantically identical to
    /// replaying the rows through [`InstanceBuilder`], without the
    /// per-row call and copy overhead.
    pub fn from_csr(
        n_agents: u32,
        a_off: Vec<u32>,
        a_entries: Vec<Entry>,
        c_off: Vec<u32>,
        c_entries: Vec<Entry>,
    ) -> Result<Instance, BuildError> {
        check_csr(n_agents, &a_off, &a_entries)?;
        check_csr(n_agents, &c_off, &c_entries)?;
        let n = n_agents as usize;
        let (va_off, va_entries) = transpose_a(n, &a_off, &a_entries);
        let (vc_off, vc_entries) = transpose_c(n, &c_off, &c_entries);
        Ok(Instance {
            n_agents,
            a_off,
            a_entries,
            c_off,
            c_entries,
            va_off,
            va_entries,
            vc_off,
            vc_entries,
        })
    }
}

/// Validates one CSR half: offsets and entries.
fn check_csr(n_agents: u32, off: &[u32], entries: &[Entry]) -> Result<(), BuildError> {
    let total = u32::try_from(entries.len()).map_err(|_| BuildError::BadOffsets {
        detail: "more than u32::MAX entries",
    })?;
    if off.first() != Some(&0) {
        return Err(BuildError::BadOffsets {
            detail: "offsets must start at 0",
        });
    }
    if *off.last().expect("non-empty offsets") != total {
        return Err(BuildError::BadOffsets {
            detail: "last offset must equal the entry count",
        });
    }
    // One row-wise pass does everything: shape (monotone offsets, no
    // empty rows), agent range, coefficient positivity, and duplicate
    // detection via a serial-stamped scratch array.
    let mut stamp = vec![0u32; n_agents as usize];
    for (serial, w) in off.windows(2).enumerate() {
        let (lo, hi) = (w[0], w[1]);
        if lo > hi || hi > total {
            return Err(BuildError::BadOffsets {
                detail: "offsets must be non-decreasing and within the entry count",
            });
        }
        if lo == hi {
            return Err(BuildError::EmptyRow);
        }
        let serial = serial as u32 + 1;
        for e in &entries[lo as usize..hi as usize] {
            if e.agent.raw() >= n_agents {
                return Err(BuildError::UnknownAgent {
                    agent: e.agent.raw(),
                    n_agents,
                });
            }
            if !(e.coef.is_finite() && e.coef > 0.0) {
                return Err(BuildError::BadCoefficient { value: e.coef });
            }
            if std::mem::replace(&mut stamp[e.agent.idx()], serial) == serial {
                return Err(BuildError::DuplicateAgentInRow { agent: e.agent });
            }
        }
    }
    Ok(())
}

/// Counting-sort transpose shared by both matrix halves: agent →
/// incident rows, sorted by row id (ascending, since rows are visited
/// in order). `make` builds the typed transpose entry from a row id
/// and the shared-edge coefficient.
fn transpose<T: Clone>(
    n: usize,
    off: &[u32],
    entries: &[Entry],
    zero: T,
    make: impl Fn(u32, f64) -> T,
) -> (Vec<u32>, Vec<T>) {
    let mut t_off = vec![0u32; n + 1];
    for e in entries {
        t_off[e.agent.idx() + 1] += 1;
    }
    for a in 0..n {
        t_off[a + 1] += t_off[a];
    }
    let mut t_entries = vec![zero; entries.len()];
    let mut cursor = t_off.clone();
    for row in 0..off.len() - 1 {
        let (lo, hi) = (off[row] as usize, off[row + 1] as usize);
        for e in &entries[lo..hi] {
            let slot = cursor[e.agent.idx()] as usize;
            t_entries[slot] = make(row as u32, e.coef);
            cursor[e.agent.idx()] += 1;
        }
    }
    (t_off, t_entries)
}

/// Agent → incident constraints.
fn transpose_a(n: usize, a_off: &[u32], a_entries: &[Entry]) -> (Vec<u32>, Vec<AgentConstraint>) {
    transpose(
        n,
        a_off,
        a_entries,
        AgentConstraint {
            cons: ConstraintId::new(0),
            coef: 0.0,
        },
        |i, coef| AgentConstraint {
            cons: ConstraintId::new(i),
            coef,
        },
    )
}

/// Agent → incident objectives.
fn transpose_c(n: usize, c_off: &[u32], c_entries: &[Entry]) -> (Vec<u32>, Vec<AgentObjective>) {
    transpose(
        n,
        c_off,
        c_entries,
        AgentObjective {
            obj: ObjectiveId::new(0),
            coef: 0.0,
        },
        |k, coef| AgentObjective {
            obj: ObjectiveId::new(k),
            coef,
        },
    )
}

/// Errors surfaced while *building* an instance (shape/coefficient errors
/// that make a row meaningless, as opposed to the semantic degeneracies
/// reported by [`crate::validate`]).
#[derive(Clone, Debug, PartialEq)]
pub enum BuildError {
    /// A row referenced an agent id that has not been created.
    UnknownAgent {
        /// The offending raw agent index.
        agent: u32,
        /// Number of agents that exist.
        n_agents: u32,
    },
    /// A coefficient was zero, negative, NaN or infinite.
    BadCoefficient {
        /// The offending value.
        value: f64,
    },
    /// The same agent appeared twice in one row (the communication graph
    /// is simple: one edge per (row, agent) pair).
    DuplicateAgentInRow {
        /// The duplicated agent.
        agent: AgentId,
    },
    /// An empty row was supplied.
    EmptyRow,
    /// A bulk CSR offset array was malformed ([`Instance::from_csr`]).
    BadOffsets {
        /// What was wrong with the offsets.
        detail: &'static str,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::UnknownAgent { agent, n_agents } => {
                write!(
                    f,
                    "row references agent v{agent} but only {n_agents} agents exist"
                )
            }
            BuildError::BadCoefficient { value } => {
                write!(f, "coefficient {value} is not strictly positive and finite")
            }
            BuildError::DuplicateAgentInRow { agent } => {
                write!(f, "agent {agent} appears twice in one row")
            }
            BuildError::EmptyRow => write!(f, "rows must contain at least one agent"),
            BuildError::BadOffsets { detail } => {
                write!(f, "malformed CSR offsets: {detail}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Incremental builder for [`Instance`].
///
/// ```
/// use mmlp_instance::InstanceBuilder;
/// let mut b = InstanceBuilder::new();
/// let v = b.add_agent();
/// let w = b.add_agent();
/// b.add_constraint(&[(v, 1.0), (w, 2.0)]).unwrap();
/// b.add_objective(&[(v, 1.0)]).unwrap();
/// b.add_objective(&[(w, 1.0)]).unwrap();
/// let inst = b.build().unwrap();
/// assert_eq!(inst.n_agents(), 2);
/// assert_eq!(inst.n_constraints(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct InstanceBuilder {
    n_agents: u32,
    a_off: Vec<u32>,
    a_entries: Vec<Entry>,
    c_off: Vec<u32>,
    c_entries: Vec<Entry>,
    // Scratch used for duplicate detection; stamped with the row serial.
    seen_stamp: Vec<u32>,
    row_serial: u32,
}

impl InstanceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self {
            n_agents: 0,
            a_off: vec![0],
            a_entries: Vec::new(),
            c_off: vec![0],
            c_entries: Vec::new(),
            seen_stamp: Vec::new(),
            row_serial: 0,
        }
    }

    /// Creates a builder with `n` agents pre-registered.
    pub fn with_agents(n: usize) -> Self {
        let mut b = Self::new();
        b.n_agents = n as u32;
        b.seen_stamp = vec![0; n];
        b
    }

    /// Registers a fresh agent and returns its id.
    pub fn add_agent(&mut self) -> AgentId {
        let id = AgentId::new(self.n_agents);
        self.n_agents += 1;
        self.seen_stamp.push(0);
        id
    }

    /// Number of agents registered so far.
    pub fn n_agents(&self) -> usize {
        self.n_agents as usize
    }

    /// Number of constraints added so far.
    pub fn n_constraints(&self) -> usize {
        self.a_off.len() - 1
    }

    /// Number of objectives added so far.
    pub fn n_objectives(&self) -> usize {
        self.c_off.len() - 1
    }

    fn check_row(&mut self, row: &[(AgentId, f64)]) -> Result<(), BuildError> {
        if row.is_empty() {
            return Err(BuildError::EmptyRow);
        }
        self.row_serial += 1;
        for &(v, coef) in row {
            if v.raw() >= self.n_agents {
                return Err(BuildError::UnknownAgent {
                    agent: v.raw(),
                    n_agents: self.n_agents,
                });
            }
            if !(coef.is_finite() && coef > 0.0) {
                return Err(BuildError::BadCoefficient { value: coef });
            }
            if self.seen_stamp[v.idx()] == self.row_serial {
                return Err(BuildError::DuplicateAgentInRow { agent: v });
            }
            self.seen_stamp[v.idx()] = self.row_serial;
        }
        Ok(())
    }

    /// Adds the constraint `Σ a_iv x_v ≤ 1` with the given sparse row.
    ///
    /// Row order defines the constraint's port numbering.
    pub fn add_constraint(&mut self, row: &[(AgentId, f64)]) -> Result<ConstraintId, BuildError> {
        self.check_row(row)?;
        let id = ConstraintId::new((self.a_off.len() - 1) as u32);
        self.a_entries
            .extend(row.iter().map(|&(agent, coef)| Entry { agent, coef }));
        self.a_off.push(self.a_entries.len() as u32);
        Ok(id)
    }

    /// Adds the objective row `Σ c_kv x_v` (whose minimum over all
    /// objectives is maximised).
    pub fn add_objective(&mut self, row: &[(AgentId, f64)]) -> Result<ObjectiveId, BuildError> {
        self.check_row(row)?;
        let id = ObjectiveId::new((self.c_off.len() - 1) as u32);
        self.c_entries
            .extend(row.iter().map(|&(agent, coef)| Entry { agent, coef }));
        self.c_off.push(self.c_entries.len() as u32);
        Ok(id)
    }

    /// Finalises the instance, computing both transposes.
    ///
    /// Never fails for rows that passed the per-row checks; the `Result`
    /// is reserved for future cross-row invariants.
    pub fn build(self) -> Result<Instance, BuildError> {
        let n = self.n_agents as usize;
        let (va_off, va_entries) = transpose_a(n, &self.a_off, &self.a_entries);
        let (vc_off, vc_entries) = transpose_c(n, &self.c_off, &self.c_entries);
        Ok(Instance {
            n_agents: self.n_agents,
            a_off: self.a_off,
            a_entries: self.a_entries,
            c_off: self.c_off,
            c_entries: self.c_entries,
            va_off,
            va_entries,
            vc_off,
            vc_entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Instance {
        let mut b = InstanceBuilder::new();
        let v0 = b.add_agent();
        let v1 = b.add_agent();
        let v2 = b.add_agent();
        b.add_constraint(&[(v0, 1.0), (v1, 2.0)]).unwrap();
        b.add_constraint(&[(v1, 0.5), (v2, 1.0)]).unwrap();
        b.add_objective(&[(v0, 1.0), (v2, 3.0)]).unwrap();
        b.add_objective(&[(v1, 1.0)]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn dimensions() {
        let inst = tiny();
        assert_eq!(inst.n_agents(), 3);
        assert_eq!(inst.n_constraints(), 2);
        assert_eq!(inst.n_objectives(), 2);
        assert_eq!(inst.n_constraint_edges(), 4);
        assert_eq!(inst.n_objective_edges(), 3);
    }

    #[test]
    fn rows_preserve_port_order() {
        let inst = tiny();
        let row = inst.constraint_row(ConstraintId::new(0));
        assert_eq!(row.len(), 2);
        assert_eq!(row[0].agent, AgentId::new(0));
        assert_eq!(row[1].agent, AgentId::new(1));
        assert_eq!(row[1].coef, 2.0);
    }

    #[test]
    fn transpose_is_consistent_with_rows() {
        let inst = tiny();
        for i in inst.constraints() {
            for e in inst.constraint_row(i) {
                assert!(inst
                    .agent_constraints(e.agent)
                    .iter()
                    .any(|t| t.cons == i && t.coef == e.coef));
            }
        }
        for k in inst.objectives() {
            for e in inst.objective_row(k) {
                assert!(inst
                    .agent_objectives(e.agent)
                    .iter()
                    .any(|t| t.obj == k && t.coef == e.coef));
            }
        }
        // And the reverse direction: every transpose entry is in a row.
        for v in inst.agents() {
            for t in inst.agent_constraints(v) {
                assert_eq!(inst.a_coef(t.cons, v), Some(t.coef));
            }
            for t in inst.agent_objectives(v) {
                assert_eq!(inst.c_coef(t.obj, v), Some(t.coef));
            }
        }
    }

    #[test]
    fn transpose_rows_sorted_by_row_id() {
        let inst = tiny();
        for v in inst.agents() {
            let cs = inst.agent_constraints(v);
            assert!(cs.windows(2).all(|w| w[0].cons < w[1].cons));
            let os = inst.agent_objectives(v);
            assert!(os.windows(2).all(|w| w[0].obj < w[1].obj));
        }
    }

    #[test]
    fn agent_cap_is_min_inverse_coef() {
        let inst = tiny();
        // v1 appears in constraint 0 with coef 2.0 and constraint 1 with 0.5.
        assert_eq!(inst.agent_cap(AgentId::new(1)), 0.5);
        assert_eq!(inst.agent_cap(AgentId::new(0)), 1.0);
    }

    #[test]
    fn coef_lookup_misses_return_none() {
        let inst = tiny();
        assert_eq!(inst.a_coef(ConstraintId::new(0), AgentId::new(2)), None);
        assert_eq!(inst.c_coef(ObjectiveId::new(1), AgentId::new(0)), None);
    }

    #[test]
    fn builder_rejects_bad_coefficients() {
        let mut b = InstanceBuilder::new();
        let v = b.add_agent();
        assert!(matches!(
            b.add_constraint(&[(v, 0.0)]),
            Err(BuildError::BadCoefficient { .. })
        ));
        assert!(matches!(
            b.add_constraint(&[(v, -1.0)]),
            Err(BuildError::BadCoefficient { .. })
        ));
        assert!(matches!(
            b.add_constraint(&[(v, f64::NAN)]),
            Err(BuildError::BadCoefficient { .. })
        ));
        assert!(matches!(
            b.add_constraint(&[(v, f64::INFINITY)]),
            Err(BuildError::BadCoefficient { .. })
        ));
    }

    #[test]
    fn builder_rejects_duplicates_and_unknown_agents() {
        let mut b = InstanceBuilder::new();
        let v = b.add_agent();
        assert!(matches!(
            b.add_constraint(&[(v, 1.0), (v, 2.0)]),
            Err(BuildError::DuplicateAgentInRow { .. })
        ));
        assert!(matches!(
            b.add_objective(&[(AgentId::new(9), 1.0)]),
            Err(BuildError::UnknownAgent { .. })
        ));
        assert!(matches!(b.add_constraint(&[]), Err(BuildError::EmptyRow)));
    }

    #[test]
    fn failed_row_does_not_corrupt_builder() {
        let mut b = InstanceBuilder::new();
        let v = b.add_agent();
        let w = b.add_agent();
        let _ = b.add_constraint(&[(v, 1.0), (v, 1.0)]); // fails
        b.add_constraint(&[(v, 1.0), (w, 1.0)]).unwrap();
        b.add_objective(&[(v, 1.0)]).unwrap();
        b.add_objective(&[(w, 1.0)]).unwrap();
        let inst = b.build().unwrap();
        assert_eq!(inst.n_constraints(), 1);
        assert_eq!(inst.constraint_row(ConstraintId::new(0)).len(), 2);
    }

    #[test]
    fn with_agents_preallocates() {
        let mut b = InstanceBuilder::with_agents(4);
        assert_eq!(b.n_agents(), 4);
        b.add_constraint(&[(AgentId::new(3), 1.0)]).unwrap();
        b.add_objective(&[(AgentId::new(0), 1.0)]).unwrap();
        let inst = b.build().unwrap();
        assert_eq!(inst.n_agents(), 4);
    }

    #[test]
    fn from_csr_matches_the_incremental_builder() {
        let inst = tiny();
        let a_entries: Vec<Entry> = inst
            .constraints()
            .flat_map(|i| inst.constraint_row(i).iter().copied())
            .collect();
        let c_entries: Vec<Entry> = inst
            .objectives()
            .flat_map(|k| inst.objective_row(k).iter().copied())
            .collect();
        let bulk = Instance::from_csr(
            inst.n_agents() as u32,
            vec![0, 2, 4],
            a_entries,
            vec![0, 2, 3],
            c_entries,
        )
        .unwrap();
        for i in inst.constraints() {
            assert_eq!(bulk.constraint_row(i), inst.constraint_row(i));
        }
        for k in inst.objectives() {
            assert_eq!(bulk.objective_row(k), inst.objective_row(k));
        }
        for v in inst.agents() {
            assert_eq!(bulk.agent_constraints(v), inst.agent_constraints(v));
            assert_eq!(bulk.agent_objectives(v), inst.agent_objectives(v));
        }
    }

    #[test]
    fn from_csr_rejects_malformed_input() {
        let e = |agent: u32, coef: f64| Entry {
            agent: AgentId::new(agent),
            coef,
        };
        let ok_c = vec![0u32, 1];
        let ok_o = vec![0u32, 1];
        // Baseline accepts.
        assert!(Instance::from_csr(
            2,
            ok_c.clone(),
            vec![e(0, 1.0)],
            ok_o.clone(),
            vec![e(1, 1.0)]
        )
        .is_ok());
        // Offsets not starting at 0 / not covering the entries.
        assert!(matches!(
            Instance::from_csr(
                2,
                vec![1, 1],
                vec![e(0, 1.0)],
                ok_o.clone(),
                vec![e(1, 1.0)]
            ),
            Err(BuildError::BadOffsets { .. })
        ));
        assert!(matches!(
            Instance::from_csr(
                2,
                vec![0, 2],
                vec![e(0, 1.0)],
                ok_o.clone(),
                vec![e(1, 1.0)]
            ),
            Err(BuildError::BadOffsets { .. })
        ));
        // Decreasing offsets.
        assert!(matches!(
            Instance::from_csr(
                2,
                vec![0, 1, 0, 1],
                vec![e(0, 1.0)],
                ok_o.clone(),
                vec![e(1, 1.0)]
            ),
            Err(BuildError::BadOffsets { .. })
        ));
        // Empty row.
        assert!(matches!(
            Instance::from_csr(
                2,
                vec![0, 1, 1],
                vec![e(0, 1.0)],
                ok_o.clone(),
                vec![e(1, 1.0)]
            ),
            Err(BuildError::EmptyRow)
        ));
        // Unknown agent, bad coefficient, duplicate in one row.
        assert!(matches!(
            Instance::from_csr(
                2,
                ok_c.clone(),
                vec![e(7, 1.0)],
                ok_o.clone(),
                vec![e(1, 1.0)]
            ),
            Err(BuildError::UnknownAgent { .. })
        ));
        assert!(matches!(
            Instance::from_csr(
                2,
                ok_c.clone(),
                vec![e(0, -1.0)],
                ok_o.clone(),
                vec![e(1, 1.0)]
            ),
            Err(BuildError::BadCoefficient { .. })
        ));
        assert!(matches!(
            Instance::from_csr(
                2,
                vec![0, 2],
                vec![e(0, 1.0), e(0, 2.0)],
                ok_o,
                vec![e(1, 1.0)]
            ),
            Err(BuildError::DuplicateAgentInRow { .. })
        ));
    }

    #[test]
    fn empty_instance_builds() {
        let inst = InstanceBuilder::new().build().unwrap();
        assert_eq!(inst.n_agents(), 0);
        assert_eq!(inst.n_constraints(), 0);
        assert_eq!(inst.n_objectives(), 0);
    }

    #[test]
    fn in_place_coef_set_matches_rebuild() {
        let mut b = InstanceBuilder::new();
        let v0 = b.add_agent();
        let v1 = b.add_agent();
        let v2 = b.add_agent();
        b.add_constraint(&[(v0, 1.0), (v1, 2.0)]).unwrap();
        b.add_constraint(&[(v1, 0.5), (v2, 1.5)]).unwrap();
        b.add_objective(&[(v0, 1.0), (v2, 1.0)]).unwrap();
        let mut inst = b.build().unwrap();

        inst.set_constraint_coefs(ConstraintId::new(1), &[3.25, 0.75])
            .unwrap();
        // Row and transpose agree and port order is untouched.
        let e = |agent: u32, coef: f64| Entry {
            agent: AgentId::new(agent),
            coef,
        };
        let row = inst.constraint_row(ConstraintId::new(1));
        assert_eq!(row[0], e(1, 3.25));
        assert_eq!(row[1], e(2, 0.75));
        assert_eq!(inst.a_coef(ConstraintId::new(1), v1), Some(3.25));
        let t: Vec<f64> = inst.agent_constraints(v1).iter().map(|c| c.coef).collect();
        assert_eq!(t, vec![2.0, 3.25]);
        assert_eq!(inst.agent_cap(v1), 1.0 / 3.25);

        // Identical to what the builder would have produced.
        let mut b = InstanceBuilder::new();
        let v0 = b.add_agent();
        let v1 = b.add_agent();
        let v2 = b.add_agent();
        b.add_constraint(&[(v0, 1.0), (v1, 2.0)]).unwrap();
        b.add_constraint(&[(v1, 3.25), (v2, 0.75)]).unwrap();
        b.add_objective(&[(v0, 1.0), (v2, 1.0)]).unwrap();
        let rebuilt = b.build().unwrap();
        assert_eq!(
            crate::textfmt::write_instance(&inst),
            crate::textfmt::write_instance(&rebuilt)
        );

        // Invalid coefficients are refused without touching the row.
        assert!(matches!(
            inst.set_constraint_coefs(ConstraintId::new(0), &[0.0, 1.0]),
            Err(BuildError::BadCoefficient { .. })
        ));
        assert_eq!(inst.a_coef(ConstraintId::new(0), v0), Some(1.0));
    }

    #[test]
    fn heap_bytes_counts_every_array_by_length() {
        let mut b = InstanceBuilder::new();
        let v0 = b.add_agent();
        let v1 = b.add_agent();
        let v2 = b.add_agent();
        b.add_constraint(&[(v0, 1.0), (v1, 2.0)]).unwrap();
        b.add_constraint(&[(v1, 3.0), (v2, 0.5)]).unwrap();
        b.add_objective(&[(v0, 1.0), (v2, 1.0)]).unwrap();
        let inst = b.build().unwrap();
        // Offsets: 3 + 2 row offsets, 4 + 4 agent offsets, 4 bytes each;
        // entries: 4 + 2 row entries and 4 + 2 transposed, 16 bytes each.
        assert_eq!(inst.heap_bytes(), 13 * 4 + 12 * 16);
        // A coefficient edit moves no length, so no cost.
        let mut edited = inst.clone();
        edited
            .set_constraint_coefs(ConstraintId::new(0), &[7.0, 8.0])
            .unwrap();
        assert_eq!(edited.heap_bytes(), inst.heap_bytes());
    }
}
