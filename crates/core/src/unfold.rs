//! §3: unfolding (universal covers) and port-numbering
//! indistinguishability.
//!
//! The unfolding of `G` rooted at `r` has the non-backtracking walks from
//! `r` as nodes. Two facts drive the paper:
//!
//! 1. A deterministic local algorithm in the port-numbering model must
//!    produce the same output at any two nodes whose radius-`D` views
//!    (balls in the unfolding, with port labels and coefficients) are
//!    equal — it *cannot distinguish them* ([`views_equal`]).
//! 2. Feasible solutions transfer both ways between `G` and its
//!    unfolding (remarks 6–8 of §3), so proving a guarantee on trees
//!    suffices.
//!
//! This module provides the direct (no message passing) view comparison
//! used by the lower-bound experiment T5 — views are interned into a
//! hash-consed [`ViewArena`] by the memoising [`ViewInterner`], so
//! equality is a root-id compare instead of a walk of the (exponential)
//! ball — plus helpers for building the explicit truncated unfolding of
//! an instance.

use mmlp_instance::{Adj, CommGraph, Instance, InstanceBuilder, Node};
use mmlp_net::{Network, ViewArena, ViewId, CHILD_BACK, CHILD_CUT};
use std::collections::HashMap;

/// Builds interned flat views of one instance's nodes directly from the
/// topology — no message passing, no per-call [`CommGraph`] rebuild.
///
/// The view of a node `(x, entered-through-port b, budget d)` in the
/// unfolding depends only on that triple, never on the walk history, so
/// the interner memoises on it: building the radius-`d` views of *all*
/// nodes costs `O(n · Δ · d)` interned nodes, where the recursive
/// comparison it replaces walked the (exponential) ball per query.
///
/// Views interned into the same [`ViewArena`] — from this instance or
/// any other — are equal **iff their ids are equal**, which is what
/// turns the lower-bound experiment's all-pairs view comparison into an
/// integer compare per pair.
pub struct ViewInterner {
    net: Network,
    /// (flat node, incoming port + 1 or 0, remaining depth) → id.
    memo: HashMap<(u32, u32, u32), ViewId>,
    /// Same key → **canonical** (port-order-independent) id, kept
    /// separate because the two forms intern different trees.
    canon_memo: HashMap<(u32, u32, u32), ViewId>,
    /// Token of the arena the memoised ids belong to — ids are
    /// meaningless in any other arena, so the memo is dropped when a
    /// different one is handed in.
    arena_token: Option<u64>,
}

impl ViewInterner {
    /// Prepares the interner for an instance.
    pub fn new(inst: &Instance) -> Self {
        ViewInterner {
            net: Network::new(inst),
            memo: HashMap::new(),
            canon_memo: HashMap::new(),
            arena_token: None,
        }
    }

    /// Interns the radius-`depth` view of `node` into `arena`.
    ///
    /// The memo is tied to one arena at a time: passing a different
    /// arena than the previous call re-interns from scratch (cached ids
    /// would index the old arena).
    pub fn intern(&mut self, arena: &mut ViewArena, node: Node, depth: usize) -> ViewId {
        self.bind(arena);
        let flat = self.net.graph().index(node);
        self.rec(arena, flat, u32::MAX, depth as u32)
    }

    /// Interns the **canonical, port-order-independent** form of the
    /// radius-`depth` view of `node`: at every level the ports are
    /// re-ordered by `(neighbour kind, coefficient bits, canonical child
    /// id)` before interning, so two nodes receive the same id **iff**
    /// their views are isomorphic as unordered coefficient-labelled
    /// trees.
    ///
    /// Canonicality is inductive: children are interned (canonically)
    /// first, so equal subtrees carry equal ids, and sorting a port
    /// multiset by any total order over `(kind, coef, id)` yields the
    /// same sequence for isomorphic multisets. Coefficients are compared
    /// by bit pattern, which equals value equality here (validated
    /// strictly positive — no `-0.0`/NaN aliases).
    ///
    /// Port-permutation-invariant local algorithms — this paper's is
    /// one, since it only takes sums and minima over port sets — must
    /// produce identical outputs on nodes with equal canonical ids. The
    /// lower-bound experiment T5 uses this to match interior agents of
    /// the tree gadget with agents of the regular gadget even though the
    /// two generators order their ports differently. (The impossibility
    /// argument itself uses the stronger port-exact [`views_equal`].)
    ///
    /// Canonical ids refine [`canonical_view_code`] equality: the ids
    /// keep each port's neighbour kind at `Cut`/`Back` markers, which
    /// the string code drops.
    pub fn intern_canonical(&mut self, arena: &mut ViewArena, node: Node, depth: usize) -> ViewId {
        self.bind(arena);
        let flat = self.net.graph().index(node);
        self.rec_canon(arena, flat, u32::MAX, depth as u32)
    }

    /// Ties both memos to `arena`, dropping them when it changed.
    fn bind(&mut self, arena: &ViewArena) {
        if self.arena_token != Some(arena.token()) {
            self.memo.clear();
            self.canon_memo.clear();
            self.arena_token = Some(arena.token());
        }
    }

    /// `back` is the port at `x` towards the parent (`u32::MAX` at the
    /// root).
    fn rec(&mut self, arena: &mut ViewArena, x: u32, back: u32, depth: u32) -> ViewId {
        let key = (x, back.wrapping_add(1), depth);
        if let Some(&id) = self.memo.get(&key) {
            return id;
        }
        let adjs: Vec<Adj> = self.net.graph().neighbors(x).to_vec();
        let children: Vec<u32> = adjs
            .iter()
            .enumerate()
            .map(|(port, adj)| {
                if port as u32 == back {
                    CHILD_BACK
                } else if depth == 0 {
                    CHILD_CUT
                } else {
                    self.rec(arena, adj.to, adj.port_at_to, depth - 1)
                }
            })
            .collect();
        let info = self.net.info(x);
        let port_kinds: Vec<_> = info.ports.iter().map(|p| p.neighbor_kind).collect();
        let coefs: Vec<f64> = info.ports.iter().filter_map(|p| p.coef).collect();
        let id = arena.intern(info.kind, &port_kinds, &coefs, &children);
        self.memo.insert(key, id);
        id
    }

    /// [`ViewInterner::rec`] with the ports in canonical order.
    fn rec_canon(&mut self, arena: &mut ViewArena, x: u32, back: u32, depth: u32) -> ViewId {
        let key = (x, back.wrapping_add(1), depth);
        if let Some(&id) = self.canon_memo.get(&key) {
            return id;
        }
        let adjs: Vec<Adj> = self.net.graph().neighbors(x).to_vec();
        let raw: Vec<u32> = adjs
            .iter()
            .enumerate()
            .map(|(port, adj)| {
                if port as u32 == back {
                    CHILD_BACK
                } else if depth == 0 {
                    CHILD_CUT
                } else {
                    self.rec_canon(arena, adj.to, adj.port_at_to, depth - 1)
                }
            })
            .collect();
        let info = self.net.info(x);
        // Canonical port order; the trailing original index only breaks
        // ties between ports whose (kind, coef, child) are identical —
        // interchangeable ports, so the result stays canonical.
        let mut order: Vec<(u8, u64, u32, usize)> = (0..adjs.len())
            .map(|p| {
                (
                    info.ports[p].neighbor_kind as u8,
                    info.ports[p].coef.map_or(0, f64::to_bits),
                    raw[p],
                    p,
                )
            })
            .collect();
        order.sort_unstable();
        let port_kinds: Vec<_> = order
            .iter()
            .map(|&(_, _, _, p)| info.ports[p].neighbor_kind)
            .collect();
        let coefs: Vec<f64> = order
            .iter()
            .filter_map(|&(_, _, _, p)| info.ports[p].coef)
            .collect();
        let children: Vec<u32> = order.iter().map(|&(_, _, c, _)| c).collect();
        let id = arena.intern(info.kind, &port_kinds, &coefs, &children);
        self.canon_memo.insert(key, id);
        id
    }
}

/// Are the radius-`depth` views of `a` in `inst_a` and `b` in `inst_b`
/// equal (same kinds, same port structure — own and per-port neighbour
/// classes — and same agent-known coefficients)?
///
/// Equal views make the two nodes indistinguishable to every
/// deterministic local algorithm with horizon ≤ `depth` in the
/// port-numbering model — the engine of the Theorem 1 lower bound.
///
/// Both views are interned into one shared [`ViewArena`] and compared
/// by root id. For bulk comparisons (the T5 experiment compares all
/// pairs), keep the [`ViewInterner`]s and the arena across calls — each
/// additional node costs amortised `O(Δ · depth)` instead of a ball
/// walk.
pub fn views_equal(inst_a: &Instance, a: Node, inst_b: &Instance, b: Node, depth: usize) -> bool {
    let mut arena = ViewArena::new();
    let ia = ViewInterner::new(inst_a).intern(&mut arena, a, depth);
    let ib = ViewInterner::new(inst_b).intern(&mut arena, b, depth);
    ia == ib
}

/// Builds the radius-`depth` chunk of the unfolding of `inst` rooted at
/// `root` as an explicit instance, together with the map *new node →
/// parent node of `G`* for agents.
///
/// Rows that are only partially inside the ball are kept with the agents
/// that made it into the ball (their other agents are beyond the
/// horizon), matching how local views truncate. The result is always a
/// forest-shaped instance (girth `None`).
pub fn unfolding_chunk(inst: &Instance, root: Node, depth: usize) -> (Instance, Vec<Node>) {
    let g = CommGraph::new(inst);

    // Walk states: (flat node, incoming port or none, remaining depth).
    // We materialise agents immediately; rows are materialised when
    // visited, collecting their member agent copies.
    struct Walker<'a> {
        inst: &'a Instance,
        g: &'a CommGraph,
        b: InstanceBuilder,
        parents: Vec<Node>,
        cons_rows: Vec<Vec<(mmlp_instance::AgentId, f64)>>,
        obj_rows: Vec<Vec<(mmlp_instance::AgentId, f64)>>,
    }

    impl Walker<'_> {
        /// Visits `flat` arriving through `back` (port at `flat`), with
        /// `depth` edges of budget left. For agents, returns the new id;
        /// the copy's rows are expanded recursively.
        fn visit_agent(
            &mut self,
            flat: u32,
            back: Option<u32>,
            depth: usize,
        ) -> mmlp_instance::AgentId {
            let id = self.b.add_agent();
            self.parents.push(self.g.node(flat));
            if depth == 0 {
                return id;
            }
            for (port, adj) in self.g.neighbors(flat).iter().enumerate() {
                if Some(port as u32) == back {
                    continue;
                }
                self.visit_row(adj, id, depth - 1);
            }
            id
        }

        /// Visits a row node reached from agent copy `from_id` (parent
        /// `from_flat`), creating the row with the traversing agent and
        /// all further agents within budget.
        fn visit_row(&mut self, adj: &Adj, from_id: mmlp_instance::AgentId, depth: usize) {
            let row_flat = adj.to;
            let back = adj.port_at_to;
            let mut members: Vec<(mmlp_instance::AgentId, f64)> = Vec::new();
            // Coefficient at a given port of this row.
            let coef_of = |port_at_row: u32| -> f64 {
                match self.g.node(row_flat) {
                    Node::Constraint(i) => self.inst.constraint_row(i)[port_at_row as usize].coef,
                    Node::Objective(k) => self.inst.objective_row(k)[port_at_row as usize].coef,
                    Node::Agent(_) => unreachable!("rows only"),
                }
            };
            members.push((from_id, coef_of(back)));
            if depth > 0 {
                for (port, nxt) in self.g.neighbors(row_flat).iter().enumerate() {
                    if port as u32 == back {
                        continue;
                    }
                    let agent_copy = self.visit_agent(nxt.to, Some(nxt.port_at_to), depth - 1);
                    members.push((agent_copy, coef_of(port as u32)));
                }
            }
            match self.g.node(row_flat) {
                Node::Constraint(_) => self.cons_rows.push(members),
                Node::Objective(_) => self.obj_rows.push(members),
                Node::Agent(_) => unreachable!(),
            }
        }
    }

    let mut w = Walker {
        inst,
        g: &g,
        b: InstanceBuilder::new(),
        parents: Vec::new(),
        cons_rows: Vec::new(),
        obj_rows: Vec::new(),
    };

    match root {
        Node::Agent(_) => {
            w.visit_agent(g.index(root), None, depth);
        }
        _ => {
            // Root at a row: materialise the row with all its agents.
            let row_flat = g.index(root);
            let mut members = Vec::new();
            if depth > 0 {
                for (port, nxt) in g.neighbors(row_flat).iter().enumerate() {
                    let agent_copy = w.visit_agent(nxt.to, Some(nxt.port_at_to), depth - 1);
                    let coef = match root {
                        Node::Constraint(i) => inst.constraint_row(i)[port].coef,
                        Node::Objective(k) => inst.objective_row(k)[port].coef,
                        Node::Agent(_) => unreachable!(),
                    };
                    members.push((agent_copy, coef));
                }
            }
            if !members.is_empty() {
                match root {
                    Node::Constraint(_) => w.cons_rows.push(members),
                    Node::Objective(_) => w.obj_rows.push(members),
                    Node::Agent(_) => unreachable!(),
                }
            }
        }
    }

    let mut b = w.b;
    let parents = w.parents;
    for row in &w.cons_rows {
        b.add_constraint(row).expect("chunk constraint");
    }
    for row in &w.obj_rows {
        b.add_objective(row).expect("chunk objective");
    }
    (b.build().expect("chunk builds"), parents)
}

/// A canonical, **port-order-independent** encoding of the radius-`depth`
/// view of a node: children are encoded recursively and sorted, so two
/// nodes get the same code iff their views are isomorphic as unordered
/// coefficient-labelled trees.
///
/// Port-permutation-invariant local algorithms — this paper's algorithm
/// is one, since it only takes sums and minima over port sets — must
/// produce (numerically) identical outputs on nodes with equal codes.
/// The lower-bound experiment T5 uses this to match interior agents of
/// the tree gadget with agents of the regular gadget even though the two
/// generators order their ports differently. (The paper's impossibility
/// argument uses the stronger port-exact [`views_equal`].)
pub fn canonical_view_code(inst: &Instance, node: Node, depth: usize) -> String {
    let g = CommGraph::new(inst);
    canonical_rec(inst, &g, g.index(node), None, depth)
}

fn canonical_rec(
    inst: &Instance,
    g: &CommGraph,
    x: u32,
    back_port: Option<u32>,
    depth: usize,
) -> String {
    let kind = match g.node(x) {
        Node::Agent(_) => 'a',
        Node::Constraint(_) => 'c',
        Node::Objective(_) => 'o',
    };
    // Edge coefficient towards each port, as known at this node (agents
    // know them; rows contribute the agent-side value via recursion, so
    // encoding only agent-side coefficients loses nothing).
    let coefs: Option<Vec<f64>> = match g.node(x) {
        Node::Agent(v) => {
            let mut c: Vec<f64> = inst.agent_constraints(v).iter().map(|e| e.coef).collect();
            c.extend(inst.agent_objectives(v).iter().map(|e| e.coef));
            Some(c)
        }
        _ => None,
    };
    let mut parts: Vec<String> = Vec::new();
    for (port, adj) in g.neighbors(x).iter().enumerate() {
        let coef = coefs.as_ref().map(|c| c[port]);
        let tag = |body: String| match coef {
            Some(c) => format!("{c:.17e}:{body}"),
            None => body,
        };
        if Some(port as u32) == back_port {
            parts.push(tag("^".to_string()));
        } else if depth == 0 {
            parts.push(tag("?".to_string()));
        } else {
            parts.push(tag(canonical_rec(
                inst,
                g,
                adj.to,
                Some(adj.port_at_to),
                depth - 1,
            )));
        }
    }
    parts.sort_unstable();
    let mut out = String::new();
    out.push(kind);
    out.push('(');
    out.push_str(&parts.join(","));
    out.push(')');
    out
}

/// Girth of the communication graph (`None` for forests) — re-exported
/// convenience for experiments that need to check the indistinguishability
/// radius.
pub fn girth(inst: &Instance) -> Option<u32> {
    CommGraph::new(inst).girth()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmlp_gen::special::{cycle_special, path_special};
    use mmlp_instance::AgentId;

    #[test]
    fn a_node_is_always_self_equal() {
        let inst = cycle_special(5, 1.0);
        for depth in [0, 2, 7] {
            assert!(views_equal(
                &inst,
                Node::Agent(AgentId::new(0)),
                &inst,
                Node::Agent(AgentId::new(0)),
                depth
            ));
        }
    }

    #[test]
    fn cycles_of_different_lengths_are_indistinguishable() {
        let a = cycle_special(6, 1.0);
        let b = cycle_special(11, 1.0);
        // Even-type agents match even-type agents at any depth.
        assert!(views_equal(
            &a,
            Node::Agent(AgentId::new(0)),
            &b,
            Node::Agent(AgentId::new(0)),
            9
        ));
        // Even-type vs odd-type differ (mirrored ports) already at the
        // constraint structure.
        assert!(!views_equal(
            &a,
            Node::Agent(AgentId::new(0)),
            &b,
            Node::Agent(AgentId::new(1)),
            2
        ));
    }

    #[test]
    fn path_interior_matches_cycle_but_ends_do_not() {
        let cycle = cycle_special(8, 1.0);
        let path = path_special(8, 1.0);
        // Interior agent far from both ends.
        assert!(views_equal(
            &path,
            Node::Agent(AgentId::new(8)),
            &cycle,
            Node::Agent(AgentId::new(0)),
            4
        ));
        // The tied end has a different radius-2 structure.
        assert!(!views_equal(
            &path,
            Node::Agent(AgentId::new(0)),
            &cycle,
            Node::Agent(AgentId::new(0)),
            4
        ));
    }

    #[test]
    fn coefficients_break_view_equality() {
        // The agent's local input includes its coefficients, so views
        // with different a_iv differ already at depth 0.
        let a = cycle_special(6, 1.0);
        let b = cycle_special(6, 0.5);
        assert!(!views_equal(
            &a,
            Node::Agent(AgentId::new(0)),
            &b,
            Node::Agent(AgentId::new(0)),
            0
        ));
        // But a row node's local input carries no coefficients: its
        // depth-0 views agree.
        assert!(views_equal(
            &a,
            Node::Constraint(mmlp_instance::ConstraintId::new(0)),
            &b,
            Node::Constraint(mmlp_instance::ConstraintId::new(0)),
            0
        ));
    }

    #[test]
    fn unfolding_chunk_of_cycle_is_a_path() {
        let inst = cycle_special(3, 1.0); // total cycle length 12
        let (chunk, parents) = unfolding_chunk(&inst, Node::Agent(AgentId::new(0)), 5);
        // Radius-5 ball in the unfolded line: 11 nodes.
        let g = CommGraph::new(&chunk);
        assert_eq!(g.girth(), None, "chunks are forests");
        assert_eq!(g.n_nodes(), 11);
        assert_eq!(parents.len(), chunk.n_agents());
        assert_eq!(parents[0], Node::Agent(AgentId::new(0)));
    }

    #[test]
    fn unfolding_chunk_from_row_roots() {
        let inst = cycle_special(4, 1.0);
        let (chunk, _) = unfolding_chunk(
            &inst,
            Node::Objective(mmlp_instance::ObjectiveId::new(0)),
            3,
        );
        assert!(chunk.n_objectives() >= 1);
        assert_eq!(CommGraph::new(&chunk).girth(), None);
    }

    #[test]
    fn canonical_codes_identify_mirrored_views() {
        // Even- and odd-type cycle agents have mirrored port orders:
        // views_equal says no, the unordered canonical code says yes.
        let inst = cycle_special(6, 1.0);
        let a = canonical_view_code(&inst, Node::Agent(AgentId::new(0)), 4);
        let b = canonical_view_code(&inst, Node::Agent(AgentId::new(1)), 4);
        assert_eq!(a, b, "mirrored agents are isomorphic");
        assert!(!views_equal(
            &inst,
            Node::Agent(AgentId::new(0)),
            &inst,
            Node::Agent(AgentId::new(1)),
            4
        ));
    }

    #[test]
    fn canonical_codes_distinguish_coefficients_and_depth() {
        let a = cycle_special(6, 1.0);
        let b = cycle_special(6, 0.5);
        assert_ne!(
            canonical_view_code(&a, Node::Agent(AgentId::new(0)), 1),
            canonical_view_code(&b, Node::Agent(AgentId::new(0)), 1)
        );
        assert_ne!(
            canonical_view_code(&a, Node::Agent(AgentId::new(0)), 1),
            canonical_view_code(&a, Node::Agent(AgentId::new(0)), 2),
            "horizon markers differ by depth"
        );
    }

    #[test]
    fn canonical_codes_match_across_cycle_lengths() {
        let a = cycle_special(6, 1.0);
        let b = cycle_special(9, 1.0);
        assert_eq!(
            canonical_view_code(&a, Node::Agent(AgentId::new(0)), 5),
            canonical_view_code(&b, Node::Agent(AgentId::new(3)), 5)
        );
    }

    #[test]
    fn canonical_ids_identify_mirrored_views() {
        // Same property as the string codes, now as an id compare.
        let inst = cycle_special(6, 1.0);
        let mut arena = ViewArena::new();
        let mut it = ViewInterner::new(&inst);
        let a = it.intern_canonical(&mut arena, Node::Agent(AgentId::new(0)), 4);
        let b = it.intern_canonical(&mut arena, Node::Agent(AgentId::new(1)), 4);
        assert_eq!(a, b, "mirrored agents are isomorphic");
        // The port-exact ids still tell them apart.
        let ea = it.intern(&mut arena, Node::Agent(AgentId::new(0)), 4);
        let eb = it.intern(&mut arena, Node::Agent(AgentId::new(1)), 4);
        assert_ne!(ea, eb);
    }

    #[test]
    fn canonical_ids_distinguish_coefficients_and_depth() {
        let a = cycle_special(6, 1.0);
        let b = cycle_special(6, 0.5);
        let mut arena = ViewArena::new();
        let mut ia = ViewInterner::new(&a);
        let mut ib = ViewInterner::new(&b);
        let v = Node::Agent(AgentId::new(0));
        assert_ne!(
            ia.intern_canonical(&mut arena, v, 1),
            ib.intern_canonical(&mut arena, v, 1)
        );
        assert_ne!(
            ia.intern_canonical(&mut arena, v, 1),
            ia.intern_canonical(&mut arena, v, 2),
            "horizon markers differ by depth"
        );
    }

    #[test]
    fn canonical_ids_match_across_cycle_lengths() {
        let a = cycle_special(6, 1.0);
        let b = cycle_special(9, 1.0);
        let mut arena = ViewArena::new();
        assert_eq!(
            ViewInterner::new(&a).intern_canonical(&mut arena, Node::Agent(AgentId::new(0)), 5),
            ViewInterner::new(&b).intern_canonical(&mut arena, Node::Agent(AgentId::new(3)), 5),
        );
    }

    #[test]
    fn canonical_ids_refine_canonical_codes() {
        // Equal canonical ids imply equal canonical string codes (the
        // ids additionally keep port kinds at the view frontier, so the
        // implication is one-way in general).
        let insts = [cycle_special(6, 1.0), path_special(9, 1.0)];
        let mut arena = ViewArena::new();
        for depth in [0usize, 2, 4] {
            let mut seen: Vec<(ViewId, String)> = Vec::new();
            for inst in &insts {
                let mut it = ViewInterner::new(inst);
                for v in inst.agents() {
                    let id = it.intern_canonical(&mut arena, Node::Agent(v), depth);
                    let code = canonical_view_code(inst, Node::Agent(v), depth);
                    for (oid, ocode) in &seen {
                        if id == *oid {
                            assert_eq!(&code, ocode, "id-equal views must be code-equal");
                        }
                    }
                    seen.push((id, code));
                }
            }
        }
    }

    #[test]
    fn girth_helper_matches_commgraph() {
        let inst = cycle_special(5, 1.0);
        assert_eq!(girth(&inst), Some(20));
    }

    #[test]
    fn interner_re_interns_when_handed_a_fresh_arena() {
        // Cached ids index the arena they were interned into; a new
        // arena must be populated from scratch, not fed stale ids.
        let inst = cycle_special(4, 1.0);
        let mut interner = ViewInterner::new(&inst);
        let mut arena_a = ViewArena::new();
        let ia = interner.intern(&mut arena_a, Node::Agent(AgentId::new(0)), 3);
        let mut arena_b = ViewArena::new();
        let ib = interner.intern(&mut arena_b, Node::Agent(AgentId::new(0)), 3);
        assert!(!arena_b.is_empty(), "second arena must be populated");
        assert_eq!(arena_b.len(), arena_a.len());
        assert_eq!(
            (arena_b.size(ib), arena_b.tree_bytes(ib)),
            (arena_a.size(ia), arena_a.tree_bytes(ia))
        );
    }

    #[test]
    fn bulk_comparison_shares_one_arena() {
        // The T5 pattern: intern every agent of two instances once,
        // compare all pairs by id — no ball is ever walked twice.
        let a = cycle_special(6, 1.0);
        let b = path_special(9, 1.0);
        let mut arena = ViewArena::new();
        let mut ia = ViewInterner::new(&a);
        let mut ib = ViewInterner::new(&b);
        let depth = 4;
        let ids_a: Vec<_> = a
            .agents()
            .map(|v| ia.intern(&mut arena, Node::Agent(v), depth))
            .collect();
        let mut matched = 0;
        for w in b.agents() {
            let id = ib.intern(&mut arena, Node::Agent(w), depth);
            for (v, &va) in ids_a.iter().enumerate() {
                let eq_by_id = id == va;
                let eq_by_walk = views_equal(
                    &b,
                    Node::Agent(w),
                    &a,
                    Node::Agent(AgentId::new(v as u32)),
                    depth,
                );
                assert_eq!(eq_by_id, eq_by_walk, "pair ({w}, {v})");
                matched += usize::from(eq_by_id);
            }
        }
        assert!(matched > 0, "interior path agents must match cycle agents");
    }
}
