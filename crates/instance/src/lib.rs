//! # `mmlp-instance`
//!
//! Representation substrate for **max-min linear programs** in the
//! distributed setting of Floréen–Kaasinen–Kaski–Suomela (SPAA 2009).
//!
//! A max-min LP asks to
//!
//! ```text
//! maximise   ω(x) = min_{k∈K}  Σ_{v∈Vk} c_kv · x_v
//! subject to                    Σ_{v∈Vi} a_iv · x_v ≤ 1     for all i ∈ I,
//!            x ≥ 0,
//! ```
//!
//! where `A = (a_iv)` and `C = (c_kv)` are nonnegative sparse matrices. The
//! program lives on a bipartite *communication graph* `G = (V ∪ I ∪ K, E)`:
//! one node per **agent** (variable) `v ∈ V`, per **constraint** `i ∈ I` and
//! per **objective** `k ∈ K`, with an edge `{v,i}` whenever `a_iv > 0` and
//! `{v,k}` whenever `c_kv > 0`.
//!
//! This crate provides:
//!
//! * [`Instance`] — immutable CSR storage of both matrices plus their
//!   transposes, with *port numbering* (the paper's §1.2 communication
//!   model assigns each node an ordering of its incident edges; here the
//!   ordering is the position in the adjacency lists, which is
//!   deterministic for a given build order).
//! * [`InstanceBuilder`] — the only way to construct an [`Instance`];
//!   validates coefficients and shapes as rows are added.
//! * [`Solution`] — a dense assignment `x: V → ℝ≥0` with feasibility and
//!   utility evaluation.
//! * [`graph::CommGraph`] — a flat unified-index view of the communication
//!   graph with reciprocal port labels and global edge identifiers, used by
//!   the distributed runtime, the unfolding machinery and smoothing.
//! * [`validate`] — structural validation and the degeneracy report
//!   corresponding to the standing assumptions of §4 of the paper.
//! * [`textfmt`] — a small line-oriented serialisation format.
//! * [`delta`] — the versioned edit model: content-addressed [`Delta`]
//!   batches of [`Edit`]s with canonical text/binary encodings and the
//!   revision [`Lineage`] `(base_hash, delta_hash) → new_hash` consumed
//!   by the serve layer's `PUT_DELTA`/`SOLVE_DELTA` ops.
//! * [`hash`] — stable FNV-1a hashing of bytes, and [`instance_hash`],
//!   the canonical instance identity (hash v2, over the parsed
//!   structure) shared by the campaign log and the solver service's
//!   content-addressed cache.
//!
//! Everything downstream (`mmlp-lp`, `mmlp-net`, `mmlp-core`, `mmlp-gen`)
//! consumes these types.

pub mod delta;
pub mod graph;
pub mod hash;
pub mod ids;
pub mod instance;
pub mod solution;
pub mod stats;
pub mod textfmt;
pub mod validate;

pub use delta::{Delta, DeltaError, Edit, Lineage, RowKind};
pub use graph::{Adj, CommGraph, Node, NodeKind};
pub use hash::{fnv1a64, fnv1a64_words, hash_hex, instance_hash, parse_hash_hex, Fnv1a};
pub use ids::{AgentId, ConstraintId, ObjectiveId};
pub use instance::{AgentConstraint, AgentObjective, Entry, Instance, InstanceBuilder};
pub use solution::{FeasibilityReport, Solution};
pub use stats::DegreeStats;
pub use validate::{Degeneracy, ValidationError};

/// Default absolute/relative tolerance used by feasibility checks.
///
/// A constraint `Σ a_iv x_v ≤ 1` is considered satisfied when
/// `Σ a_iv x_v ≤ 1 + FEASIBILITY_TOL * max(1, |Σ a_iv x_v|)`.
pub const FEASIBILITY_TOL: f64 = 1e-7;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_smoke_build_and_evaluate() {
        let mut b = InstanceBuilder::new();
        let v = b.add_agent();
        let w = b.add_agent();
        b.add_constraint(&[(v, 1.0), (w, 1.0)]).unwrap();
        b.add_objective(&[(v, 1.0)]).unwrap();
        b.add_objective(&[(w, 1.0)]).unwrap();
        let inst = b.build().unwrap();
        let x = Solution::from_vec(vec![0.5, 0.5]);
        assert!(x.feasibility(&inst).is_feasible(FEASIBILITY_TOL));
        assert!((x.utility(&inst) - 0.5).abs() < 1e-12);
    }
}
