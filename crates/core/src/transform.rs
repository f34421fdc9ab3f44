//! §4: the five local transformations to *special form*, with composable
//! back-maps and ratio accounting.
//!
//! Applied in the paper's order:
//!
//! | step | § | establishes | optimum | back-map |
//! |------|---|------------|---------|----------|
//! | [`augment_singleton_constraints`] | 4.2 | `|Vi| ≥ 2` | preserved | restrict to original agents |
//! | [`reduce_constraint_degree`] | 4.3 | `|Vi| = 2` | `ω(x) ≥ 2 ω'(x')/ΔI` | `x_v = 2 x'_v / max_{i∈Iv} |Vi|` |
//! | [`split_multi_objective_agents`] | 4.4 | `|Kv| = 1` | preserved | max over copies |
//! | [`augment_singleton_objectives`] | 4.5 | `|Vk| ≥ 2` | preserved | max over copies |
//! | [`normalize_objective_coefficients`] | 4.6 | `c_kv = 1` | preserved | `x_v = x'_v / c_{k(v)v}` |
//!
//! Only §4.3 costs approximation quality — the factor `ΔI/2` that turns
//! the special-form guarantee `2(1−1/ΔK)(1+1/(R−1))` into Theorem 1's
//! `ΔI(1−1/ΔK)(1+1/(R−1))`.
//!
//! Each transformation is *locally computable*: it only inspects a
//! constant-radius neighbourhood of each node (§4.1 sketches the
//! deterministic port-numbering details). This crate applies them as
//! whole-instance rewrites — the per-node determinism makes the global
//! rewrite and the local one coincide; the locality is asserted by a
//! perturbation test in the integration suite.
//!
//! # One build for the whole pipeline
//!
//! The five step functions above are the paper-level reference: each
//! builds a whole [`Instance`]. [`to_special_form`] does not run them.
//! Because every step is a local rewrite, their index maps compose, and
//! [`try_to_special_form`] computes the composed agent, constraint and
//! objective maps in one pass over the input, then builds the special
//! form once with [`Instance::from_csr`]. Its output equals the five
//! steps applied in order — the canonical text, the stage trace and the
//! bits of every [`Transformed::map_back`] — which
//! `tests/transform_fused.rs` checks catalog-wide and on hostile shapes.
//! The numbering contract that makes this hold:
//!
//! * **Agents.** The §4.2 agents come first: the input agents, then
//!   `s, t, u` for each singleton constraint, in constraint order. Each
//!   §4.2 agent gets one §4.4 *slot* per objective, in ascending
//!   objective id (`s` has two: `h`, then `ℓ`). Each slot gets one final
//!   agent, or two when its objective is a singleton row (§4.5).
//! * **Constraints.** The §4.3 pairs in order: the input rows (a
//!   singleton row becomes `(v, s)` with coefficient 1 on `s`, a row of
//!   degree > 2 its pairs `p < q` in port order), then the gadget rows
//!   `(t, u)`. Each pair expands as the §4.4 product over
//!   `(slot_a, slot_b)`, last index fastest, and inside it the §4.5
//!   product over copies. This nested order is not the flat product
//!   over final copies: the two differ once an agent has several slots
//!   and one of them splits.
//! * **Coefficients.** With `col` the slot's `c_kv` (`c_kv / 2.0` for a
//!   split copy), a constraint coefficient is `a / col`, and every
//!   objective coefficient is 1. The §4.2 padding is `2.0 · Σ c·cap`,
//!   summed exactly as [`augment_singleton_constraints`] sums it.
//! * **Back-map.** `Scale{1/col}`, then one `MaxOfCopies` over all final
//!   copies of each input agent (max is exact, so it equals the nested
//!   maxima of §4.4 and §4.5, and the gadget copies, numbered after
//!   every input agent's, drop out without a `Restrict`), then
//!   `Scale{2/maxdeg}`, where a singleton row counts as degree 2.
//!
//! There is deliberately no pass-through branch for inputs that are
//! already special: the single pass costs a few microseconds on them
//! (the special-form, cycle and gadget families), and a measured skip
//! did not separate from it end to end, so it would be a second code
//! path without a payoff (`specs/PERF.md` §2d).

use mmlp_instance::instance::BuildError;
use mmlp_instance::{AgentId, Entry, Instance, InstanceBuilder, Solution};

/// One back-mapping step (solution of the transformed instance →
/// solution of the input instance of that step).
#[derive(Clone, Debug)]
pub enum BackStep {
    /// Keep the first `n_original` agent values (§4.2 adds helper agents
    /// after all original ones).
    Restrict {
        /// Number of agents in the step's input instance.
        n_original: usize,
    },
    /// Pointwise rescale: `x_v = factor[v] · x'_v` (§4.3, §4.6).
    Scale {
        /// Per-agent multiplier.
        factor: Vec<f64>,
    },
    /// `x_v = max` over the copies of `v` (§4.4, §4.5); copies of old
    /// agent `v` occupy new ids `offsets[v] .. offsets[v+1]`.
    MaxOfCopies {
        /// Copy ranges, length `n_old + 1`.
        offsets: Vec<u32>,
    },
}

impl BackStep {
    /// Applies this step to a solution of the step's *output* instance.
    pub fn apply(&self, x: &Solution) -> Solution {
        match self {
            BackStep::Restrict { n_original } => {
                Solution::from_vec(x.as_slice()[..*n_original].to_vec())
            }
            BackStep::Scale { factor } => {
                assert_eq!(factor.len(), x.len());
                Solution::from_vec(
                    x.as_slice()
                        .iter()
                        .zip(factor)
                        .map(|(v, f)| v * f)
                        .collect(),
                )
            }
            BackStep::MaxOfCopies { offsets } => {
                let mut out = Vec::with_capacity(offsets.len() - 1);
                for w in offsets.windows(2) {
                    let (lo, hi) = (w[0] as usize, w[1] as usize);
                    out.push(
                        x.as_slice()[lo..hi]
                            .iter()
                            .copied()
                            .fold(f64::NEG_INFINITY, f64::max),
                    );
                }
                Solution::from_vec(out)
            }
        }
    }
}

/// Shape snapshot of one pipeline stage, for size-blowup reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageInfo {
    /// Which transformation produced this stage.
    pub name: &'static str,
    /// Agents after the stage.
    pub n_agents: usize,
    /// Constraints after the stage.
    pub n_constraints: usize,
    /// Objectives after the stage.
    pub n_objectives: usize,
}

impl StageInfo {
    fn of(name: &'static str, inst: &Instance) -> Self {
        StageInfo {
            name,
            n_agents: inst.n_agents(),
            n_constraints: inst.n_constraints(),
            n_objectives: inst.n_objectives(),
        }
    }
}

/// A transformed instance with its reverse mapping chain.
#[derive(Clone, Debug)]
pub struct Transformed {
    /// The final (special-form) instance.
    pub instance: Instance,
    steps: Vec<BackStep>,
    /// Sizes after each stage (first entry is the input).
    pub trace: Vec<StageInfo>,
}

impl Transformed {
    /// Maps a solution of the transformed instance back to the original.
    pub fn map_back(&self, x: &Solution) -> Solution {
        let mut cur = x.clone();
        for step in self.steps.iter().rev() {
            cur = step.apply(&cur);
        }
        cur
    }
}

/// §4.2 — augments every degree-1 constraint with the 6-node gadget
/// `{s, t, u} × {h, ℓ, j}` so that `|Vi| ≥ 2` everywhere. The gadget's
/// objectives are padded with the coefficient `2·Σ_{w∈Vk} c_kw·cap(w)`
/// (an upper bound on twice the optimum), so they never bind.
pub fn augment_singleton_constraints(inst: &Instance) -> (Instance, BackStep) {
    let n = inst.n_agents();
    let mut b = InstanceBuilder::with_agents(n);
    let mut gadget_rows_cons: Vec<Vec<(AgentId, f64)>> = Vec::new();
    let mut gadget_rows_obj: Vec<Vec<(AgentId, f64)>> = Vec::new();

    // Original constraints keep their indices (patched in place); the
    // gadget rows are appended after them.
    let mut patched: Vec<Vec<(AgentId, f64)>> = Vec::new();
    for i in inst.constraints() {
        let row = inst.constraint_row(i);
        let mut new_row: Vec<(AgentId, f64)> = row.iter().map(|e| (e.agent, e.coef)).collect();
        if row.len() == 1 {
            let v = row[0].agent;
            // The objective k ∈ Kv used to size the padding coefficient.
            let k = inst
                .agent_objectives(v)
                .first()
                .expect("standing assumption: |Kv| ≥ 1")
                .obj;
            let big: f64 = inst
                .objective_row(k)
                .iter()
                .map(|e| e.coef * inst.agent_cap(e.agent))
                .sum();
            assert!(
                big.is_finite(),
                "padding coefficient must be finite; run validate::check first"
            );
            let s = b.add_agent();
            let t = b.add_agent();
            let u = b.add_agent();
            // a_is = 1: s joins the singleton constraint (last port, as
            // the paper prescribes).
            new_row.push((s, 1.0));
            // j: a_jt = a_ju = 1.
            gadget_rows_cons.push(vec![(t, 1.0), (u, 1.0)]);
            // h: c_hs = 1, c_ht = 2·big;  ℓ: c_ℓs = 1, c_ℓu = 2·big.
            gadget_rows_obj.push(vec![(s, 1.0), (t, 2.0 * big)]);
            gadget_rows_obj.push(vec![(s, 1.0), (u, 2.0 * big)]);
        }
        patched.push(new_row);
    }
    for row in &patched {
        b.add_constraint(row).expect("patched row is valid");
    }
    for row in &gadget_rows_cons {
        b.add_constraint(row).expect("gadget constraint");
    }
    for k in inst.objectives() {
        let row: Vec<(AgentId, f64)> = inst
            .objective_row(k)
            .iter()
            .map(|e| (e.agent, e.coef))
            .collect();
        b.add_objective(&row).expect("copied objective");
    }
    for row in &gadget_rows_obj {
        b.add_objective(row).expect("gadget objective");
    }
    (
        b.build().expect("4.2 output builds"),
        BackStep::Restrict { n_original: n },
    )
}

/// §4.3 — replaces every constraint of degree `m > 2` with its
/// `m·(m−1)/2` pairwise restrictions. Back-map:
/// `x_v = 2 x'_v / max_{i∈Iv} |Vi|` — the step that costs the factor
/// `ΔI/2` in Theorem 1.
pub fn reduce_constraint_degree(inst: &Instance) -> (Instance, BackStep) {
    let n = inst.n_agents();
    let mut b = InstanceBuilder::with_agents(n);
    for i in inst.constraints() {
        let row = inst.constraint_row(i);
        if row.len() <= 2 {
            let r: Vec<(AgentId, f64)> = row.iter().map(|e| (e.agent, e.coef)).collect();
            b.add_constraint(&r).expect("copied constraint");
        } else {
            for p in 0..row.len() {
                for q in p + 1..row.len() {
                    b.add_constraint(&[(row[p].agent, row[p].coef), (row[q].agent, row[q].coef)])
                        .expect("pair constraint");
                }
            }
        }
    }
    for k in inst.objectives() {
        let row: Vec<(AgentId, f64)> = inst
            .objective_row(k)
            .iter()
            .map(|e| (e.agent, e.coef))
            .collect();
        b.add_objective(&row).expect("copied objective");
    }
    let factor: Vec<f64> = inst
        .agents()
        .map(|v| {
            let max_deg = inst
                .agent_constraints(v)
                .iter()
                .map(|e| inst.constraint_row(e.cons).len())
                .max()
                .unwrap_or(2)
                .max(2);
            2.0 / max_deg as f64
        })
        .collect();
    (
        b.build().expect("4.3 output builds"),
        BackStep::Scale { factor },
    )
}

/// Cartesian product of copy choices for a constraint row — §4.4/§4.5
/// replace a constraint by one copy per combination of its agents'
/// copies (applying the paper's per-agent replacement once per agent).
fn product_constraints(b: &mut InstanceBuilder, row: &[(Vec<AgentId>, f64)]) {
    // Iterative odometer over copy choices, lexicographic in port order.
    let mut idx = vec![0usize; row.len()];
    loop {
        let cons: Vec<(AgentId, f64)> = row
            .iter()
            .zip(&idx)
            .map(|((copies, coef), &c)| (copies[c], *coef))
            .collect();
        b.add_constraint(&cons).expect("product constraint");
        // Advance odometer.
        let mut pos = row.len();
        loop {
            if pos == 0 {
                return;
            }
            pos -= 1;
            idx[pos] += 1;
            if idx[pos] < row[pos].0.len() {
                break;
            }
            idx[pos] = 0;
        }
    }
}

/// §4.4 — gives every agent a unique objective: an agent `v` with
/// `|Kv| = m > 1` becomes `m` copies, one per objective; each constraint
/// through `v` is replicated once per copy (iterating over all its
/// agents yields the cartesian product of copy choices).
pub fn split_multi_objective_agents(inst: &Instance) -> (Instance, BackStep) {
    let n = inst.n_agents();
    let mut b = InstanceBuilder::new();
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u32);
    // copies[v][slot] = the copy of v dedicated to its slot-th objective.
    let mut copies: Vec<Vec<AgentId>> = Vec::with_capacity(n);
    for v in inst.agents() {
        let m = inst.agent_objectives(v).len().max(1);
        let c: Vec<AgentId> = (0..m).map(|_| b.add_agent()).collect();
        copies.push(c);
        offsets.push(b.n_agents() as u32);
    }
    for i in inst.constraints() {
        let row: Vec<(Vec<AgentId>, f64)> = inst
            .constraint_row(i)
            .iter()
            .map(|e| (copies[e.agent.idx()].clone(), e.coef))
            .collect();
        product_constraints(&mut b, &row);
    }
    for k in inst.objectives() {
        let row: Vec<(AgentId, f64)> = inst
            .objective_row(k)
            .iter()
            .map(|e| {
                let slot = inst
                    .agent_objectives(e.agent)
                    .iter()
                    .position(|ao| ao.obj == k)
                    .expect("transpose consistency");
                (copies[e.agent.idx()][slot], e.coef)
            })
            .collect();
        b.add_objective(&row).expect("objective with copies");
    }
    (
        b.build().expect("4.4 output builds"),
        BackStep::MaxOfCopies { offsets },
    )
}

/// §4.5 — splits the unique agent of every degree-1 objective into two
/// half-weight copies so that `|Vk| ≥ 2` everywhere.
///
/// Requires `|Kv| ≤ 1` (run §4.4 first).
pub fn augment_singleton_objectives(inst: &Instance) -> (Instance, BackStep) {
    let n = inst.n_agents();
    let mut b = InstanceBuilder::new();
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u32);
    let mut copies: Vec<Vec<AgentId>> = Vec::with_capacity(n);
    for v in inst.agents() {
        let objs = inst.agent_objectives(v);
        assert!(objs.len() <= 1, "run §4.4 before §4.5");
        let split = objs
            .first()
            .is_some_and(|ao| inst.objective_row(ao.obj).len() == 1);
        let m = if split { 2 } else { 1 };
        let c: Vec<AgentId> = (0..m).map(|_| b.add_agent()).collect();
        copies.push(c);
        offsets.push(b.n_agents() as u32);
    }
    for i in inst.constraints() {
        let row: Vec<(Vec<AgentId>, f64)> = inst
            .constraint_row(i)
            .iter()
            .map(|e| (copies[e.agent.idx()].clone(), e.coef))
            .collect();
        product_constraints(&mut b, &row);
    }
    for k in inst.objectives() {
        let row = inst.objective_row(k);
        let new_row: Vec<(AgentId, f64)> = if row.len() == 1 {
            let v = row[0].agent;
            let c = row[0].coef;
            vec![(copies[v.idx()][0], c / 2.0), (copies[v.idx()][1], c / 2.0)]
        } else {
            row.iter()
                .map(|e| (copies[e.agent.idx()][0], e.coef))
                .collect()
        };
        b.add_objective(&new_row).expect("objective row");
    }
    (
        b.build().expect("4.5 output builds"),
        BackStep::MaxOfCopies { offsets },
    )
}

/// §4.6 — normalises `c_kv = 1` by dividing agent `v`'s column (its
/// `a_iv` and its single `c_kv`) by `c_{k(v)v}`. Back-map divides by the
/// same factor. Requires `|Kv| ≤ 1`.
pub fn normalize_objective_coefficients(inst: &Instance) -> (Instance, BackStep) {
    let n = inst.n_agents();
    let mut col = vec![1.0f64; n];
    for v in inst.agents() {
        let objs = inst.agent_objectives(v);
        assert!(objs.len() <= 1, "run §4.4 before §4.6");
        if let Some(ao) = objs.first() {
            col[v.idx()] = ao.coef;
        }
    }
    let mut b = InstanceBuilder::with_agents(n);
    for i in inst.constraints() {
        let row: Vec<(AgentId, f64)> = inst
            .constraint_row(i)
            .iter()
            .map(|e| (e.agent, e.coef / col[e.agent.idx()]))
            .collect();
        b.add_constraint(&row).expect("scaled constraint");
    }
    for k in inst.objectives() {
        let row: Vec<(AgentId, f64)> = inst
            .objective_row(k)
            .iter()
            .map(|e| (e.agent, 1.0))
            .collect();
        b.add_objective(&row).expect("unit objective");
    }
    let factor: Vec<f64> = col.iter().map(|c| 1.0 / c).collect();
    (
        b.build().expect("4.6 output builds"),
        BackStep::Scale { factor },
    )
}

/// Why an instance lies outside §4's domain ([`try_to_special_form`]).
#[derive(Clone, Debug, PartialEq)]
pub enum TransformError {
    /// An agent in no objective (`|Kv| = 0`): §4.2 sizes a singleton
    /// constraint's padding from `K_v`, and the special form needs
    /// `|Kv| = 1`.
    NoObjective(AgentId),
    /// An agent in no constraint (`|Iv| = 0`): its value is unbounded,
    /// and the special form needs `|Iv| ≥ 1`.
    NoConstraint(AgentId),
    /// A coefficient the special form cannot hold: the §4.2 padding,
    /// the §4.5 halving or the §4.6 rescaling left the strictly
    /// positive finite floats.
    Coefficient(BuildError),
}

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformError::NoObjective(v) => {
                write!(f, "agent {v} is in no objective (§4 needs |Kv| ≥ 1)")
            }
            TransformError::NoConstraint(v) => {
                write!(f, "agent {v} is in no constraint (§4 needs |Iv| ≥ 1)")
            }
            TransformError::Coefficient(e) => write!(f, "special form: {e}"),
        }
    }
}

impl std::error::Error for TransformError {}

/// Runs the full §4 pipeline, producing a special-form instance and the
/// composed back-map. Panics with the [`TransformError`]'s message on
/// an instance outside §4's domain — call
/// `mmlp_instance::validate::check` first, or use
/// [`try_to_special_form`].
pub fn to_special_form(inst: &Instance) -> Transformed {
    try_to_special_form(inst).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs §4.2–4.6 as one build (see the module docs for the numbering
/// contract): the special form and back-map the five step functions
/// would produce in order, or the reason the input has none.
pub fn try_to_special_form(inst: &Instance) -> Result<Transformed, TransformError> {
    let n = inst.n_agents();
    for v in inst.agents() {
        if inst.agent_objectives(v).is_empty() {
            return Err(TransformError::NoObjective(v));
        }
        if inst.agent_constraints(v).is_empty() {
            return Err(TransformError::NoConstraint(v));
        }
    }

    // §4.2: one gadget {s, t, u} per singleton constraint, in constraint
    // order, padded with 2·big exactly as the step function sizes it.
    let mut pads = Vec::new();
    for i in inst.constraints() {
        if let [e] = inst.constraint_row(i) {
            let k = inst.agent_objectives(e.agent)[0].obj;
            let big: f64 = inst
                .objective_row(k)
                .iter()
                .map(|e| e.coef * inst.agent_cap(e.agent))
                .sum();
            let pad = 2.0 * big;
            if !(pad.is_finite() && pad > 0.0) {
                return Err(TransformError::Coefficient(BuildError::BadCoefficient {
                    value: pad,
                }));
            }
            pads.push(pad);
        }
    }
    let n2 = n + 3 * pads.len();

    // §4.4 slots and §4.5 copies: §4.2 agent `u` owns slots
    // `slot_off[u]..slot_off[u+1]`, one per objective in ascending id;
    // slot `g` owns final agents `fin_off[g]..fin_off[g+1]` (two when its
    // objective is a singleton row) and divides its column by `col[g]`.
    let n_slots = inst.n_objective_edges() + 4 * pads.len();
    let mut slot_off = Vec::with_capacity(n2 + 1);
    let mut col = Vec::with_capacity(n_slots);
    let mut fin_off = Vec::with_capacity(n_slots + 1);
    slot_off.push(0usize);
    fin_off.push(0u32);
    for v in inst.agents() {
        for ao in inst.agent_objectives(v) {
            let split = inst.objective_row(ao.obj).len() == 1;
            col.push(if split { ao.coef / 2.0 } else { ao.coef });
            fin_off.push(fin_off[fin_off.len() - 1] + 1 + u32::from(split));
        }
        slot_off.push(col.len());
    }
    for &pad in &pads {
        // s is in h and ℓ with coefficient 1; t in h and u in ℓ, padded.
        col.extend([1.0, 1.0, pad, pad]);
        slot_off.extend([col.len() - 2, col.len() - 1, col.len()]);
    }
    let gadget_base = fin_off[fin_off.len() - 1];
    fin_off.extend((1..=4 * pads.len() as u32).map(|d| gadget_base + d));
    let n6 = fin_off[n_slots] as usize;
    let slots = |u: u32| slot_off[u as usize]..slot_off[u as usize + 1];
    let copies = |g: usize| fin_off[g]..fin_off[g + 1];
    let n_copies =
        |u: u32| (fin_off[slot_off[u as usize + 1]] - fin_off[slot_off[u as usize]]) as usize;

    let (mut m3, mut m4, mut m6) = (0usize, 0usize, 0usize);
    for_each_pair(inst, pads.len(), |a, _, b, _| {
        m3 += 1;
        m4 += slots(a).len() * slots(b).len();
        m6 += n_copies(a) * n_copies(b);
    });
    let mut a_off = Vec::with_capacity(m6 + 1);
    let mut a_entries = Vec::with_capacity(2 * m6);
    a_off.push(0u32);
    for_each_pair(inst, pads.len(), |a, a_coef, b, b_coef| {
        for ga in slots(a) {
            let ca = a_coef / col[ga];
            for gb in slots(b) {
                let cb = b_coef / col[gb];
                for fa in copies(ga) {
                    for fb in copies(gb) {
                        a_entries.push(Entry {
                            agent: AgentId::new(fa),
                            coef: ca,
                        });
                        a_entries.push(Entry {
                            agent: AgentId::new(fb),
                            coef: cb,
                        });
                        a_off.push(a_entries.len() as u32);
                    }
                }
            }
        }
    });

    // Objectives keep their order; each §4.2 entry becomes its slot's
    // copies, all with coefficient 1. Every final agent is in exactly one.
    let n_obj = inst.n_objectives() + 2 * pads.len();
    let mut c_off = Vec::with_capacity(n_obj + 1);
    let mut c_entries = Vec::with_capacity(n6);
    c_off.push(0u32);
    let unit = |f: u32| Entry {
        agent: AgentId::new(f),
        coef: 1.0,
    };
    let mut next_slot = slot_off[..n].to_vec();
    for k in inst.objectives() {
        for e in inst.objective_row(k) {
            let g = next_slot[e.agent.idx()];
            next_slot[e.agent.idx()] += 1;
            c_entries.extend(copies(g).map(unit));
        }
        c_off.push(c_entries.len() as u32);
    }
    for j in 0..pads.len() {
        // Slots of s (h, ℓ), t (h) and u (ℓ); none of them splits.
        let g = slot_off[n + 3 * j];
        for (s_slot, partner) in [(g, g + 2), (g + 1, g + 3)] {
            c_entries.extend([unit(fin_off[s_slot]), unit(fin_off[partner])]);
            c_off.push(c_entries.len() as u32);
        }
    }

    let degree_scale = inst
        .agents()
        .map(|v| {
            let max_deg = inst
                .agent_constraints(v)
                .iter()
                .map(|e| inst.constraint_row(e.cons).len().max(2))
                .max()
                .unwrap_or(2);
            2.0 / max_deg as f64
        })
        .collect();
    let offsets = slot_off[..=n].iter().map(|&g| fin_off[g]).collect();
    let mut col_scale = Vec::with_capacity(n6);
    for (g, &c) in col.iter().enumerate() {
        col_scale.extend(copies(g).map(|_| 1.0 / c));
    }

    let stage = |name, n_agents, n_constraints| StageInfo {
        name,
        n_agents,
        n_constraints,
        n_objectives: n_obj,
    };
    let trace = vec![
        StageInfo::of("input", inst),
        stage("4.2 constraints>=2", n2, inst.n_constraints() + pads.len()),
        stage("4.3 constraints=2", n2, m3),
        stage("4.4 |Kv|=1", n_slots, m4),
        stage("4.5 |Vk|>=2", n6, m6),
        stage("4.6 c=1", n6, m6),
    ];
    let instance = Instance::from_csr(n6 as u32, a_off, a_entries, c_off, c_entries)
        .map_err(TransformError::Coefficient)?;
    Ok(Transformed {
        instance,
        steps: vec![
            BackStep::Scale {
                factor: degree_scale,
            },
            BackStep::MaxOfCopies { offsets },
            BackStep::Scale { factor: col_scale },
        ],
        trace,
    })
}

/// Calls `f(a, a_coef, b, b_coef)` for every §4.3 constraint, in order:
/// the input rows (a singleton row as `(v, s)` with coefficient 1 on its
/// gadget's `s`, a pair as it is, a longer row as its pairs `p < q` in
/// port order), then the `n_gadgets` gadget rows `(t, u)`.
fn for_each_pair(inst: &Instance, n_gadgets: usize, mut f: impl FnMut(u32, f64, u32, f64)) {
    let n = inst.n_agents() as u32;
    let mut s = n;
    for i in inst.constraints() {
        match inst.constraint_row(i) {
            [e] => {
                f(e.agent.raw(), e.coef, s, 1.0);
                s += 3;
            }
            row => {
                for (p, x) in row.iter().enumerate() {
                    for y in &row[p + 1..] {
                        f(x.agent.raw(), x.coef, y.agent.raw(), y.coef);
                    }
                }
            }
        }
    }
    for j in 0..n_gadgets as u32 {
        let s = n + 3 * j;
        f(s + 1, 1.0, s + 2, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmlp_gen::random::{random_general, RandomConfig};
    use mmlp_gen::special::is_special_form;
    use mmlp_instance::{DegreeStats, InstanceBuilder};
    use mmlp_lp::solve_maxmin;

    fn small_cfg() -> RandomConfig {
        RandomConfig {
            n_agents: 10,
            n_constraints: 7,
            n_objectives: 6,
            delta_i: 3,
            delta_k: 3,
            coef_range: (0.5, 2.0),
        }
    }

    /// An instance with a singleton constraint and a singleton objective.
    fn awkward() -> Instance {
        let mut b = InstanceBuilder::new();
        let v0 = b.add_agent();
        let v1 = b.add_agent();
        let v2 = b.add_agent();
        b.add_constraint(&[(v0, 2.0)]).unwrap(); // singleton
        b.add_constraint(&[(v0, 1.0), (v1, 1.0), (v2, 0.5)])
            .unwrap(); // degree 3
        b.add_objective(&[(v0, 1.0), (v1, 3.0)]).unwrap();
        b.add_objective(&[(v1, 1.0), (v2, 1.0)]).unwrap();
        b.add_objective(&[(v2, 2.0)]).unwrap(); // singleton objective
        b.build().unwrap()
    }

    #[test]
    fn step_42_establishes_vi_ge_2_and_preserves_optimum() {
        let inst = awkward();
        let (out, back) = augment_singleton_constraints(&inst);
        assert!(DegreeStats::of(&out).min_vi >= 2);
        let opt_in = solve_maxmin(&inst).unwrap().omega;
        let opt_out = solve_maxmin(&out).unwrap();
        assert!(
            (opt_in - opt_out.omega).abs() < 1e-6,
            "4.2 preserves the optimum: {opt_in} vs {}",
            opt_out.omega
        );
        let mapped = back.apply(&opt_out.solution);
        assert_eq!(mapped.len(), inst.n_agents());
        assert!(mapped.is_feasible(&inst, 1e-7));
        assert!((mapped.utility(&inst) - opt_in).abs() < 1e-6);
    }

    #[test]
    fn step_43_establishes_vi_eq_2_with_delta_i_accounting() {
        let inst = awkward();
        let (ge2, _) = augment_singleton_constraints(&inst);
        let (out, back) = reduce_constraint_degree(&ge2);
        let s = DegreeStats::of(&out);
        assert_eq!(s.delta_i, 2);
        assert_eq!(s.min_vi, 2);
        // The degree-3 constraint became 3 pairs.
        assert_eq!(
            out.n_constraints(),
            ge2.n_constraints() + 2,
            "C(3,2) - 1 extra rows"
        );
        // Back-mapped solutions are feasible and lose at most ΔI/2.
        let opt_out = solve_maxmin(&out).unwrap();
        let mapped = back.apply(&opt_out.solution);
        assert!(mapped.is_feasible(&ge2, 1e-7));
        let delta_i = DegreeStats::of(&ge2).delta_i as f64;
        assert!(
            mapped.utility(&ge2) >= 2.0 * opt_out.omega / delta_i - 1e-9,
            "omega(x) >= 2 omega'(x')/Delta_I"
        );
        // And the optimum cannot drop through 4.3.
        let opt_in = solve_maxmin(&ge2).unwrap().omega;
        assert!(
            opt_out.omega >= opt_in - 1e-7,
            "original opt stays feasible"
        );
    }

    #[test]
    fn step_44_gives_unique_objectives_and_preserves_optimum() {
        let inst = awkward();
        let (ge2, _) = augment_singleton_constraints(&inst);
        let (eq2, _) = reduce_constraint_degree(&ge2);
        let (out, back) = split_multi_objective_agents(&eq2);
        assert!(out.agents().all(|v| out.agent_objectives(v).len() == 1));
        let opt_in = solve_maxmin(&eq2).unwrap().omega;
        let opt_out = solve_maxmin(&out).unwrap();
        assert!(
            (opt_in - opt_out.omega).abs() < 1e-6,
            "4.4 preserves optimum"
        );
        let mapped = back.apply(&opt_out.solution);
        assert!(mapped.is_feasible(&eq2, 1e-7));
        assert!(mapped.utility(&eq2) >= opt_out.omega - 1e-6);
    }

    #[test]
    fn step_44_cartesian_product_of_copies() {
        // Constraint {v, w} where v has 2 objectives and w has 3: the
        // constraint must become 6 copies.
        let mut b = InstanceBuilder::new();
        let v = b.add_agent();
        let w = b.add_agent();
        b.add_constraint(&[(v, 1.0), (w, 1.0)]).unwrap();
        b.add_objective(&[(v, 1.0), (w, 1.0)]).unwrap();
        b.add_objective(&[(v, 1.0), (w, 2.0)]).unwrap();
        b.add_objective(&[(w, 3.0)]).unwrap();
        let inst = b.build().unwrap();
        let (out, _) = split_multi_objective_agents(&inst);
        assert_eq!(out.n_agents(), 5);
        assert_eq!(out.n_constraints(), 6);
        assert!(out.agents().all(|v| out.agent_objectives(v).len() == 1));
    }

    #[test]
    fn step_45_pads_singleton_objectives() {
        let inst = awkward();
        let (a, _) = augment_singleton_constraints(&inst);
        let (b2, _) = reduce_constraint_degree(&a);
        let (c, _) = split_multi_objective_agents(&b2);
        let (out, back) = augment_singleton_objectives(&c);
        assert!(DegreeStats::of(&out).min_vk >= 2);
        let opt_in = solve_maxmin(&c).unwrap().omega;
        let opt_out = solve_maxmin(&out).unwrap();
        assert!(
            (opt_in - opt_out.omega).abs() < 1e-6,
            "4.5 preserves optimum"
        );
        let mapped = back.apply(&opt_out.solution);
        assert!(mapped.is_feasible(&c, 1e-7));
        assert!(mapped.utility(&c) >= opt_out.omega - 1e-6);
    }

    #[test]
    fn step_46_normalises_and_preserves_optimum() {
        let inst = awkward();
        let (a, _) = augment_singleton_constraints(&inst);
        let (b2, _) = reduce_constraint_degree(&a);
        let (c, _) = split_multi_objective_agents(&b2);
        let (d, _) = augment_singleton_objectives(&c);
        let (out, back) = normalize_objective_coefficients(&d);
        for k in out.objectives() {
            assert!(out.objective_row(k).iter().all(|e| e.coef == 1.0));
        }
        let opt_in = solve_maxmin(&d).unwrap().omega;
        let opt_out = solve_maxmin(&out).unwrap();
        assert!(
            (opt_in - opt_out.omega).abs() < 1e-6,
            "4.6 preserves optimum"
        );
        let mapped = back.apply(&opt_out.solution);
        assert!(mapped.is_feasible(&d, 1e-7));
        assert!((mapped.utility(&d) - opt_in).abs() < 1e-6);
    }

    #[test]
    fn full_pipeline_reaches_special_form() {
        for seed in 0..6 {
            let inst = random_general(&small_cfg(), seed);
            let t = to_special_form(&inst);
            assert!(
                is_special_form(&t.instance),
                "seed {seed}: pipeline output must be special"
            );
            assert_eq!(t.trace.len(), 6);
        }
    }

    #[test]
    fn pipeline_backmap_preserves_feasibility_and_accounting() {
        for seed in 0..6 {
            let inst = random_general(&small_cfg(), seed);
            let t = to_special_form(&inst);
            let opt_special = solve_maxmin(&t.instance).unwrap();
            let mapped = t.map_back(&opt_special.solution);
            assert_eq!(mapped.len(), inst.n_agents());
            assert!(
                mapped.is_feasible(&inst, 1e-6),
                "seed {seed}: mapped solution feasible"
            );
            // End-to-end accounting: only §4.3 loses, by ΔI/2.
            let delta_i = DegreeStats::of(&inst).delta_i.max(2) as f64;
            assert!(
                mapped.utility(&inst) >= 2.0 * opt_special.omega / delta_i - 1e-6,
                "seed {seed}: omega = {} < 2*{}/{delta_i}",
                mapped.utility(&inst),
                opt_special.omega
            );
            // Total optimum relation: opt' ≥ opt (solutions of the input
            // survive 4.2–4.6 forwards).
            let opt_in = solve_maxmin(&inst).unwrap().omega;
            assert!(
                opt_special.omega >= opt_in - 1e-6,
                "seed {seed}: special opt {} < original {opt_in}",
                opt_special.omega
            );
        }
    }

    #[test]
    fn pipeline_is_identity_shaped_on_special_instances() {
        use mmlp_gen::special::{random_special_form, SpecialFormConfig};
        let inst = random_special_form(&SpecialFormConfig::default(), 0);
        let t = to_special_form(&inst);
        assert_eq!(t.instance.n_agents(), inst.n_agents());
        assert_eq!(t.instance.n_constraints(), inst.n_constraints());
        assert_eq!(t.instance.n_objectives(), inst.n_objectives());
        // And back-mapping is the identity on solutions.
        let x = Solution::from_vec((0..inst.n_agents()).map(|j| j as f64 * 0.01).collect());
        let back = t.map_back(&x);
        for v in inst.agents() {
            assert!((back.value(v) - x.value(v)).abs() < 1e-12);
        }
    }

    /// Builds an instance from `(agent, coef)` rows.
    fn rows(n: usize, cons: &[&[(u32, f64)]], objs: &[&[(u32, f64)]]) -> Instance {
        let mut b = InstanceBuilder::with_agents(n);
        let row = |r: &[(u32, f64)]| -> Vec<(AgentId, f64)> {
            r.iter().map(|&(v, c)| (AgentId::new(v), c)).collect()
        };
        for r in cons {
            b.add_constraint(&row(r)).unwrap();
        }
        for r in objs {
            b.add_objective(&row(r)).unwrap();
        }
        b.build().unwrap()
    }

    fn bad_coefficient(value: f64) -> TransformError {
        TransformError::Coefficient(BuildError::BadCoefficient { value })
    }

    #[test]
    fn an_agent_in_no_objective_is_an_error() {
        // Agent 2's singleton constraint has no objective to size its
        // §4.2 padding from.
        let inst = rows(
            3,
            &[&[(0, 1.0), (1, 1.0)], &[(2, 1.0)]],
            &[&[(0, 1.0), (1, 1.0)]],
        );
        let err = try_to_special_form(&inst).unwrap_err();
        assert_eq!(err, TransformError::NoObjective(AgentId::new(2)));
        assert!(
            err.to_string().contains("agent v2 is in no objective"),
            "{err}"
        );
        // Not only next to a singleton constraint: the special form has
        // no place for it anywhere.
        let inst = rows(
            3,
            &[&[(0, 1.0), (1, 1.0), (2, 1.0)]],
            &[&[(0, 1.0), (1, 1.0)]],
        );
        assert_eq!(
            try_to_special_form(&inst).unwrap_err(),
            TransformError::NoObjective(AgentId::new(2))
        );
    }

    #[test]
    fn an_agent_in_no_constraint_is_an_error() {
        let inst = rows(
            3,
            &[&[(0, 1.0), (1, 1.0)]],
            &[&[(0, 1.0), (1, 1.0)], &[(2, 1.0)]],
        );
        let err = try_to_special_form(&inst).unwrap_err();
        assert_eq!(err, TransformError::NoConstraint(AgentId::new(2)));
        assert!(
            err.to_string().contains("agent v2 is in no constraint"),
            "{err}"
        );
    }

    #[test]
    fn an_overflowing_padding_is_a_coefficient_error() {
        // cap(v1) = 1e300, so c·cap = 1e600 sizes v0's gadget.
        let inst = rows(
            2,
            &[&[(0, 1.0)], &[(1, 1e-300)]],
            &[&[(0, 1.0), (1, 1e300)]],
        );
        assert_eq!(
            try_to_special_form(&inst).unwrap_err(),
            bad_coefficient(f64::INFINITY)
        );
    }

    #[test]
    fn an_overflowing_rescale_is_a_coefficient_error() {
        // §4.6 divides a = 1e300 by c = 1e-10.
        let inst = rows(2, &[&[(0, 1e300), (1, 1.0)]], &[&[(0, 1e-10), (1, 1.0)]]);
        let err = try_to_special_form(&inst).unwrap_err();
        assert_eq!(err, bad_coefficient(f64::INFINITY));
        assert!(
            err.to_string().starts_with("special form: coefficient inf"),
            "{err}"
        );
    }

    #[test]
    fn an_underflowing_halving_is_a_coefficient_error() {
        // §4.5 halves the smallest subnormal to 0, so §4.6 divides by 0.
        let inst = rows(2, &[&[(0, 1.0), (1, 1.0)]], &[&[(0, 5e-324)], &[(1, 1.0)]]);
        assert_eq!(
            try_to_special_form(&inst).unwrap_err(),
            bad_coefficient(f64::INFINITY)
        );
    }

    #[test]
    #[should_panic(expected = "agent v2 is in no constraint")]
    fn to_special_form_panics_with_the_error_message() {
        let inst = rows(
            3,
            &[&[(0, 1.0), (1, 1.0)]],
            &[&[(0, 1.0), (1, 1.0)], &[(2, 1.0)]],
        );
        to_special_form(&inst);
    }

    #[test]
    fn backstep_primitives() {
        let x = Solution::from_vec(vec![1.0, 2.0, 3.0, 4.0]);
        let r = BackStep::Restrict { n_original: 2 }.apply(&x);
        assert_eq!(r.as_slice(), &[1.0, 2.0]);
        let s = BackStep::Scale {
            factor: vec![2.0, 0.5, 1.0, 0.0],
        }
        .apply(&x);
        assert_eq!(s.as_slice(), &[2.0, 1.0, 3.0, 0.0]);
        let m = BackStep::MaxOfCopies {
            offsets: vec![0, 3, 4],
        }
        .apply(&x);
        assert_eq!(m.as_slice(), &[3.0, 4.0]);
    }
}
