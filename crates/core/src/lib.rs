//! # `mmlp-core`
//!
//! The paper's primary contribution: a **local algorithm** (constant-time
//! distributed algorithm) for max-min linear programs whose approximation
//! ratio `ΔI (1 − 1/ΔK) + ε` matches the unconditional lower bound for
//! local algorithms (Floréen–Kaasinen–Kaski–Suomela, SPAA 2009).
//!
//! Module map, following the paper's structure:
//!
//! | paper | module | content |
//! |-------|--------|---------|
//! | §3 | [`unfold`] | unfolding / universal covers, view equality, the port-numbering indistinguishability the algorithm exploits |
//! | §4 | [`transform`] | the five local transformations to *special form* with composable back-maps and ratio accounting |
//! | §5 | [`special`] | the special-form wrapper (`|Vi| = 2`, `|Kv| = 1`, `c_kv = 1`) |
//! | §5.1–5.2 | [`tree_bound`] | alternating trees `A_u`, the `f±` recursions, the per-agent upper bound `t_u` (the bisection, replayed bit for bit in a few probes) |
//! | §5.3 | [`smoothing`] | smoothed bounds `s_v`, the `g±` recursions, the output (18) |
//! | §5 | [`solver`] | the end-to-end [`solver::LocalSolver`] |
//! | §5 | [`distributed`] | the same algorithm simulated in the message-passing model on `mmlp-net`, with round/byte accounting |
//! | §1.3 | [`dynamic`] | the dynamic-algorithm corollary: constant-work solution repair under local input changes |
//! | §6 | [`layers`] | layers, up/down partitions, shifting solutions `y(j)` — the analysis artefacts, machine-checked in tests |
//! | §1 | [`safe`] | the prior-work *safe algorithm* baseline (factor ΔI) |
//! | §1 | [`packing`] | mixed packing/covering LPs and nonnegative linear systems via max-min LPs |
//! | Thm 1 | [`ratio`] | the threshold `ΔI(1−1/ΔK)`, the guarantee `ΔI(1−1/ΔK)(1+1/(R−1))`, and `R(ε)` |

pub mod distributed;
pub mod dynamic;
pub mod layers;
pub mod packing;
pub mod ratio;
pub mod safe;
pub mod smoothing;
pub mod solver;
pub mod special;
pub mod transform;
pub mod tree_bound;
pub mod unfold;

pub use ratio::{guarantee, special_guarantee, threshold};
pub use solver::{LocalSolver, LocalSolverOutput};
pub use special::SpecialForm;
