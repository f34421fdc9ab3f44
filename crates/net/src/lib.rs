//! # `mmlp-net`
//!
//! The port-numbered, **anonymous** model of distributed computation of
//! §1.2 of the paper, and the one simulator that runs in it:
//!
//! * one computational node per agent / constraint / objective,
//! * synchronous rounds: one message per incident edge out, then one
//!   message per incident edge in,
//! * **no node identifiers** — a node can refer to its neighbours only by
//!   its own port numbers (port numbering model), and its local input is
//!   exactly the paper's: agents know their incident coefficients;
//!   constraints and objectives know only their degree,
//! * after a constant number `D` of rounds, agents produce output.
//!
//! §4.1 notes that any local algorithm with horizon `D` can be run as
//! "gather the radius-`D` view, then compute the output from it", so the
//! simulator is a view gather: [`view::gather_views_flat`].
//!
//! Contents:
//!
//! * [`topology::Network`] — the communication graph of an instance plus
//!   each node's (anonymous) local input.
//! * [`view`] — full-information *view gathering*: after `D` rounds
//!   every node holds its radius-`D` view of the **unfolding** (universal
//!   cover) of the network. [`view::gather_views_flat`] gathers on the
//!   flat view arena at a per-round cost of `O(Σ degree)` instead of the
//!   ball size, and accounts messages and bytes at their logical size,
//!   exposing the exponential cost of full-information gathering.
//! * [`arena`] — the hash-consed **flat view arena**: structurally equal
//!   subtrees interned once, subtree equality as an integer compare,
//!   payloads as arena ids, with both logical and deduped byte
//!   accounting.
//! * [`lanes`] — chunked-`f64`-lane fold helpers over the arena's
//!   struct-of-arrays coefficient slices, with the bit-identity /
//!   reassociation contract documented per helper (and in
//!   `specs/PERF.md`).
//! * [`stats::RunStats`] — rounds, message and byte accounting, plus the
//!   interned-node / deduped-byte counters of a gather.

#![deny(missing_docs)]

pub mod arena;
pub mod lanes;
pub mod stats;
pub mod topology;
pub mod view;

pub use arena::{ViewArena, ViewId, CHILD_BACK, CHILD_CUT};
pub use lanes::{min_lanes, min_recip_where, LANES};
pub use stats::RunStats;
pub use topology::{Network, NodeInfo, PortInfo};
pub use view::{gather_views_flat, FlatViews};
