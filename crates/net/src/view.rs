//! Full-information *view* gathering.
//!
//! The radius-`D` **view** of a node `x` is the ball of radius `D` around
//! (a copy of) `x` in the *unfolding* (universal cover) of the network —
//! equivalently, the tree of non-backtracking walks of length ≤ `D`
//! starting at `x`, labelled with node kinds, port numbers and the
//! agent-known coefficients. §4.1 of the paper notes that *any* local
//! algorithm with horizon `D` can be implemented as: gather the radius-`D`
//! view, then compute the output from it — so this module is the
//! foundation of the faithful distributed simulation in `mmlp-core`.
//!
//! In the port-numbering model two nodes with equal views are
//! indistinguishable to every deterministic local algorithm. Views live
//! in the hash-consed [`ViewArena`], where view equality is an id
//! compare.
//!
//! Gathering costs one round per unit of radius. A message logically
//! carries the sender's whole current view, so the byte accounting grows
//! with the ball size (exponentially in `D` for expander-ish networks) —
//! the price of the generic full-information approach — while the arena
//! stores each distinct subtree once.

use crate::arena::{ViewArena, ViewId};
use crate::stats::RunStats;
use crate::topology::Network;

/// Result of a flat (hash-consed) gather: one shared arena, the root id
/// per flat node index, and the run accounting.
pub struct FlatViews {
    /// The arena holding every view node of the run, deduplicated.
    pub arena: ViewArena,
    /// Radius-`depth` view id of each node (flat index, agents first).
    pub roots: Vec<ViewId>,
    /// Accounting: `messages`/`bytes` report the **logical** protocol
    /// cost, as if every message serialised the sender's whole view
    /// ([`ViewArena::tree_bytes`] plus a 4-byte port tag), while
    /// `interned_nodes`/`arena_bytes` report the deduped footprint
    /// actually materialised.
    pub stats: RunStats,
}

/// Gathers every node's radius-`depth` view: in round `t` every node
/// sends its depth-`t` view on every port, and absorbs what it receives
/// with the sender's port marked as the back edge. A message is an
/// interned [`ViewId`], and absorbing an inbox interns at most one new
/// node per delivered subtree, so per-round work is `O(Σ degree)`
/// rather than the ball size.
///
/// `roots[x]` is the id that `mmlp-core`'s `ViewInterner` gives node
/// `x`'s view when it builds it from the topology alone (asserted
/// catalog-wide in the integration tests).
pub fn gather_views_flat(net: &Network, depth: usize) -> FlatViews {
    let n = net.n_nodes();
    let graph = net.graph();
    let mut arena = ViewArena::new();
    let mut views: Vec<ViewId> = (0..n as u32)
        .map(|x| arena.depth_zero(net.info(x)))
        .collect();
    let mut stats = RunStats {
        rounds: depth,
        ..RunStats::default()
    };
    let mut inbox: Vec<Option<(u32, ViewId)>> = Vec::new();
    for _ in 0..depth {
        // Send + deliver: every port carries the sender's current view,
        // accounted at its logical serialized size (port tag + tree).
        let (mut msgs, mut bytes) = (0u64, 0u64);
        for (x, &v) in views.iter().enumerate() {
            let deg = graph.neighbors(x as u32).len() as u64;
            msgs += deg;
            bytes += deg * (4 + arena.tree_bytes(v));
        }
        stats.messages += msgs;
        stats.bytes += bytes;
        stats.messages_per_round.push(msgs);
        stats.bytes_per_round.push(bytes);
        // Absorb: each node's next view references the neighbours'
        // current views with the sender port marked as the back edge.
        let mut next = Vec::with_capacity(n);
        for x in 0..n as u32 {
            inbox.clear();
            inbox.extend(
                graph
                    .neighbors(x)
                    .iter()
                    .map(|adj| Some((adj.port_at_to, views[adj.to as usize]))),
            );
            next.push(arena.absorb(views[x as usize], &inbox));
        }
        views = next;
    }
    stats.interned_nodes = arena.len() as u64;
    stats.arena_bytes = arena.unique_bytes();
    stats.peak_arena_bytes = arena.unique_bytes();
    FlatViews {
        arena,
        roots: views,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{CHILD_BACK, CHILD_CUT};
    use mmlp_gen::special::cycle_special;
    use mmlp_instance::{InstanceBuilder, NodeKind};

    #[test]
    fn depth_zero_views_are_local_inputs() {
        let mut b = InstanceBuilder::new();
        let v = b.add_agent();
        let w = b.add_agent();
        b.add_constraint(&[(v, 2.0), (w, 1.0)]).unwrap();
        b.add_objective(&[(v, 3.0)]).unwrap();
        b.add_objective(&[(w, 1.0)]).unwrap();
        let net = Network::new(&b.build().unwrap());
        let FlatViews {
            arena,
            roots,
            stats,
        } = gather_views_flat(&net, 0);
        assert_eq!(stats.messages, 0);
        assert_eq!(arena.kind(roots[0]), NodeKind::Agent);
        assert_eq!(arena.coefs(roots[0]), &[2.0, 3.0]);
        assert_eq!(arena.children(roots[0]), &[CHILD_CUT, CHILD_CUT]);
        assert_eq!(arena.kind(roots[2]), NodeKind::Constraint);
        assert!(
            arena.coefs(roots[2]).is_empty(),
            "constraints know no coefficients"
        );
    }

    #[test]
    fn full_depth_view_of_a_tree_reconstructs_it() {
        // Star: one constraint with 3 agents, objectives on each agent.
        let mut b = InstanceBuilder::new();
        let agents: Vec<_> = (0..3).map(|_| b.add_agent()).collect();
        b.add_constraint(&[(agents[0], 1.0), (agents[1], 1.0), (agents[2], 1.0)])
            .unwrap();
        for &a in &agents {
            b.add_objective(&[(a, 1.0)]).unwrap();
        }
        let inst = b.build().unwrap();
        let net = Network::new(&inst);
        // Diameter = 4 (objective — agent — constraint — agent — objective).
        let flat = gather_views_flat(&net, 4);
        let total = inst.n_agents() + inst.n_constraints() + inst.n_objectives();
        for &root in &flat.roots {
            assert_eq!(
                flat.arena.size(root) as usize,
                total,
                "a tree's full-radius view contains every node exactly once"
            );
        }
    }

    #[test]
    fn view_depth_matches_request() {
        let inst = cycle_special(6, 1.0);
        let net = Network::new(&inst);
        for d in [0, 1, 3, 5] {
            let flat = gather_views_flat(&net, d);
            assert!(flat
                .roots
                .iter()
                .all(|&v| flat.arena.depth(v) as usize == d));
            assert_eq!(flat.stats.rounds, d);
        }
    }

    #[test]
    fn cycle_views_unfold_past_the_cycle_length() {
        // Views are balls in the unfolding: on a cycle of total length 8
        // (2 objectives), a depth-9 view is a path of 19 nodes even
        // though the graph has only 8 — the walk wraps around.
        let inst = cycle_special(2, 1.0);
        let net = Network::new(&inst);
        let flat = gather_views_flat(&net, 9);
        for &v in &flat.roots {
            assert_eq!(flat.arena.size(v), 19, "2·9 + 1 nodes in the unfolded path");
        }
    }

    #[test]
    fn message_bytes_grow_with_depth() {
        let inst = cycle_special(8, 1.0);
        let net = Network::new(&inst);
        let s1 = gather_views_flat(&net, 2).stats;
        let s2 = gather_views_flat(&net, 6).stats;
        assert!(s2.bytes > s1.bytes);
        assert!(s2.bytes_per_round.last().unwrap() > s2.bytes_per_round.first().unwrap());
    }

    #[test]
    fn views_expose_coefficients_along_the_walk() {
        let inst = cycle_special(3, 0.25);
        let net = Network::new(&inst);
        let FlatViews { arena, roots, .. } = gather_views_flat(&net, 2);
        // Agent view: port 0 leads to the constraint; its subtree leads
        // to the partner agent whose coefs include 0.25.
        let through_cons = arena.children(roots[0])[0];
        assert!(through_cons < CHILD_BACK, "within horizon");
        assert_eq!(arena.kind(through_cons), NodeKind::Constraint);
        let partner = arena
            .children(through_cons)
            .iter()
            .copied()
            .find(|&c| c < CHILD_BACK)
            .expect("partner agent in view");
        assert_eq!(arena.kind(partner), NodeKind::Agent);
        assert!(arena.coefs(partner).contains(&0.25));
    }

    #[test]
    fn tree_bytes_grow_with_depth() {
        let inst = cycle_special(4, 1.0);
        let net = Network::new(&inst);
        let v1 = gather_views_flat(&net, 1);
        let v3 = gather_views_flat(&net, 3);
        assert!(v3.arena.tree_bytes(v3.roots[0]) > v1.arena.tree_bytes(v1.roots[0]));
    }

    #[test]
    fn flat_gather_dedups_on_cycles() {
        // Non-tree topology: logical bytes grow with the unfolding while
        // the arena stays linear — the dedup ratio must exceed 1.
        let net = Network::new(&cycle_special(6, 1.0));
        let flat = gather_views_flat(&net, 8);
        assert!(flat.stats.interned_nodes > 0);
        assert!(
            flat.stats.dedup_ratio() > 1.0,
            "ratio {}",
            flat.stats.dedup_ratio()
        );
        assert_eq!(flat.stats.peak_arena_bytes, flat.stats.arena_bytes);
    }

    #[test]
    fn flat_roots_identify_indistinguishable_nodes() {
        // The §3 indistinguishability, now an integer compare: equal
        // views ⇔ equal interned roots.
        let net = Network::new(&cycle_special(8, 1.0));
        let flat = gather_views_flat(&net, 5);
        assert_eq!(flat.roots[0], flat.roots[2], "even-type agents agree");
        assert_ne!(flat.roots[0], flat.roots[1], "odd-type agents differ");
    }
}
