//! Hash-consed **flat view arena**: the deduplicated representation of
//! view trees.
//!
//! The predecessor paper (Floréen–Kaski–Musto–Suomela, arXiv:0710.1499)
//! observes that balls in the unfolding share almost all of their
//! subtrees: two non-backtracking walks that end in the same node with
//! the same remaining budget see *identical* futures. A recursive tree
//! pays for that sharing with exponential duplication — every message
//! would copy the whole ball — whereas the natural representation is a
//! hash-consed DAG:
//!
//! * all view nodes of a run live in **one struct-of-arrays arena**
//!   (kind, CSR child ranges, per-port neighbour kinds, coefficient
//!   slices),
//! * structurally equal subtrees are **interned once** and addressed by
//!   a [`ViewId`]; two subtrees are equal **iff their ids are equal**,
//! * message payloads become ids (integers), and per-subtree
//!   computations can be memoised by id, so shared subtrees are
//!   evaluated once.
//!
//! The arena tracks both accountings: the **logical** tree metrics
//! (`size`, `depth`, `tree_bytes` — what the expanded tree would
//! measure, shared subtrees counted per occurrence, used for faithful
//! message-byte accounting) and the **deduped** footprint
//! (`unique_bytes`, the bytes the arena actually stores, each interned
//! node counted once). Their quotient is the dedup ratio surfaced in
//! [`crate::RunStats`].

use crate::topology::NodeInfo;
use mmlp_instance::NodeKind;
use std::collections::HashMap;

/// Index of an interned view node. Ids are dense, allocated in intern
/// order, so a node's children always have smaller ids than the node.
pub type ViewId = u32;

/// Child-slot encoding: beyond the gathering horizon.
pub const CHILD_CUT: u32 = u32::MAX;
/// Child-slot encoding: the edge towards the view root (non-backtracking
/// walks do not continue through it).
pub const CHILD_BACK: u32 = u32::MAX - 1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv_u64(h: u64, word: u64) -> u64 {
    let mut h = h;
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The hash-consed arena. One per run; ids are only meaningful within
/// the arena that produced them (or a clone of it — clones keep the
/// [`ViewArena::token`], since existing ids stay valid in them).
#[derive(Clone, Debug)]
pub struct ViewArena {
    /// Process-unique identity, so id caches can detect being handed a
    /// different arena (see `mmlp-core`'s view interner).
    token: u64,
    kinds: Vec<NodeKind>,
    /// CSR port ranges: node `id` owns ports
    /// `port_start[id]..port_start[id + 1]` of `children` / `port_kinds`.
    port_start: Vec<u32>,
    children: Vec<u32>,
    port_kinds: Vec<NodeKind>,
    /// CSR coefficient ranges (agents carry one coefficient per port;
    /// rows carry none).
    coef_start: Vec<u32>,
    coefs: Vec<f64>,
    /// Logical tree-node count of the subtree rooted at each id.
    sizes: Vec<u64>,
    /// Depth of the deepest chain of interned children below each id.
    depths: Vec<u32>,
    /// Logical serialized size of the subtree rooted at each id (see
    /// [`ViewArena::tree_bytes`]).
    tree_bytes: Vec<u64>,
    /// Deduped footprint: every interned node counted once.
    unique_bytes: u64,
    /// Content hash → candidate ids (collisions resolved by comparing).
    table: HashMap<u64, Vec<ViewId>>,
}

impl Default for ViewArena {
    fn default() -> Self {
        ViewArena::new()
    }
}

impl ViewArena {
    /// An empty arena.
    pub fn new() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);
        ViewArena {
            token: NEXT_TOKEN.fetch_add(1, Ordering::Relaxed),
            kinds: Vec::new(),
            port_start: vec![0],
            children: Vec::new(),
            port_kinds: Vec::new(),
            coef_start: vec![0],
            coefs: Vec::new(),
            sizes: Vec::new(),
            depths: Vec::new(),
            tree_bytes: Vec::new(),
            unique_bytes: 0,
            table: HashMap::new(),
        }
    }

    /// Process-unique arena identity; equal for clones (whose ids stay
    /// valid), distinct across independently created arenas.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Number of interned (unique) view nodes.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The node's own class.
    pub fn kind(&self, id: ViewId) -> NodeKind {
        self.kinds[id as usize]
    }

    /// Child slot per port ([`CHILD_CUT`], [`CHILD_BACK`] or a
    /// [`ViewId`]).
    pub fn children(&self, id: ViewId) -> &[u32] {
        let (a, b) = self.port_range(id);
        &self.children[a..b]
    }

    /// The class of the neighbour behind each port.
    pub fn port_kinds(&self, id: ViewId) -> &[NodeKind] {
        let (a, b) = self.port_range(id);
        &self.port_kinds[a..b]
    }

    /// Agent-known coefficients, parallel to the ports (empty for rows).
    pub fn coefs(&self, id: ViewId) -> &[f64] {
        let a = self.coef_start[id as usize] as usize;
        let b = self.coef_start[id as usize + 1] as usize;
        &self.coefs[a..b]
    }

    /// Logical tree size: this node plus every interned descendant,
    /// shared subtrees counted per occurrence.
    pub fn size(&self, id: ViewId) -> u64 {
        self.sizes[id as usize]
    }

    /// Depth of the deepest chain of interned children.
    pub fn depth(&self, id: ViewId) -> u32 {
        self.depths[id as usize]
    }

    /// Logical serialized size of the tree rooted here, shared subtrees
    /// counted per occurrence: `1 + 2·ports + 8·coefs` bytes for the
    /// node itself (a kind tag, two tag bytes per port, eight per
    /// coefficient), plus the `tree_bytes` of every child subtree.
    pub fn tree_bytes(&self, id: ViewId) -> u64 {
        self.tree_bytes[id as usize]
    }

    /// Deduped arena footprint in bytes: every interned node counted
    /// once (kind tag + per-port child reference and neighbour-kind tag
    /// + coefficients).
    pub fn unique_bytes(&self) -> u64 {
        self.unique_bytes
    }

    fn port_range(&self, id: ViewId) -> (usize, usize) {
        (
            self.port_start[id as usize] as usize,
            self.port_start[id as usize + 1] as usize,
        )
    }

    fn content_hash(
        kind: NodeKind,
        port_kinds: &[NodeKind],
        coefs: &[f64],
        children: &[u32],
    ) -> u64 {
        let mut h = fnv_u64(FNV_OFFSET, kind as u64);
        h = fnv_u64(h, port_kinds.len() as u64);
        for k in port_kinds {
            h = fnv_u64(h, *k as u64);
        }
        h = fnv_u64(h, coefs.len() as u64);
        for c in coefs {
            h = fnv_u64(h, c.to_bits());
        }
        for c in children {
            h = fnv_u64(h, *c as u64);
        }
        h
    }

    fn equals(
        &self,
        id: ViewId,
        kind: NodeKind,
        port_kinds: &[NodeKind],
        coefs: &[f64],
        children: &[u32],
    ) -> bool {
        self.kind(id) == kind
            && self.children(id) == children
            && self.port_kinds(id) == port_kinds
            && self.coefs(id).len() == coefs.len()
            && self
                .coefs(id)
                .iter()
                .zip(coefs)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Interns a view node, returning the id of the existing structurally
    /// equal node when there is one. `children` entries must be
    /// [`CHILD_CUT`], [`CHILD_BACK`] or ids already interned here;
    /// `port_kinds` is parallel to `children`; `coefs` is either empty
    /// (rows) or parallel to the ports (agents).
    pub fn intern(
        &mut self,
        kind: NodeKind,
        port_kinds: &[NodeKind],
        coefs: &[f64],
        children: &[u32],
    ) -> ViewId {
        debug_assert_eq!(port_kinds.len(), children.len());
        debug_assert!(coefs.is_empty() || coefs.len() == children.len());
        let h = Self::content_hash(kind, port_kinds, coefs, children);
        if let Some(candidates) = self.table.get(&h) {
            for &id in candidates {
                if self.equals(id, kind, port_kinds, coefs, children) {
                    return id;
                }
            }
        }
        let id = self.kinds.len() as ViewId;
        assert!(
            (id as u32) < CHILD_BACK,
            "view arena exhausted the id space"
        );
        self.kinds.push(kind);
        self.children.extend_from_slice(children);
        self.port_kinds.extend_from_slice(port_kinds);
        self.port_start.push(self.children.len() as u32);
        self.coefs.extend_from_slice(coefs);
        self.coef_start.push(self.coefs.len() as u32);
        self.seal_new_node(h, children, coefs.len());
        id
    }

    /// Pushes the derived metrics and the hash-table entry of the node
    /// whose columns were just extended (the shared tail of [`intern`]
    /// and [`intern_like`](Self::intern_like)).
    fn seal_new_node(&mut self, h: u64, children: &[u32], n_coefs: usize) {
        let id = (self.kinds.len() - 1) as ViewId;
        // Children are already interned (smaller ids), so the logical
        // metrics fold bottom-up in O(degree).
        let (mut size, mut depth, mut bytes) = (1u64, 0u32, 0u64);
        for &c in children {
            if c < CHILD_BACK {
                size += self.sizes[c as usize];
                depth = depth.max(1 + self.depths[c as usize]);
                bytes += self.tree_bytes[c as usize];
            }
        }
        bytes += 1 + 2 * children.len() as u64 + 8 * n_coefs as u64;
        self.sizes.push(size);
        self.depths.push(depth);
        self.tree_bytes.push(bytes);
        // Deduped cost of this node alone: kind tag, per-port child
        // reference (4) + neighbour-kind/slot tag (2), coefficients.
        self.unique_bytes += 1 + 6 * children.len() as u64 + 8 * n_coefs as u64;
        self.table.entry(h).or_default().push(id);
    }

    /// Interns a node sharing `proto`'s kind, port kinds and
    /// coefficients but carrying the given child slots — the shape of
    /// every [`absorb`](Self::absorb) / [`set_back`](Self::set_back) in
    /// the gather hot loop. The port-parallel columns are copied
    /// directly from `proto`'s CSR ranges (`extend_from_within`), never
    /// through temporaries.
    fn intern_like(&mut self, proto: ViewId, children: &[u32]) -> ViewId {
        debug_assert_eq!(self.children(proto).len(), children.len());
        let kind = self.kind(proto);
        let h = Self::content_hash(kind, self.port_kinds(proto), self.coefs(proto), children);
        if let Some(candidates) = self.table.get(&h) {
            for &id in candidates {
                if self.kind(id) == kind
                    && self.children(id) == children
                    && self.port_kinds(id) == self.port_kinds(proto)
                    && self.coefs(id).len() == self.coefs(proto).len()
                    && self
                        .coefs(id)
                        .iter()
                        .zip(self.coefs(proto))
                        .all(|(a, b)| a.to_bits() == b.to_bits())
                {
                    return id;
                }
            }
        }
        let id = self.kinds.len() as ViewId;
        assert!(
            (id as u32) < CHILD_BACK,
            "view arena exhausted the id space"
        );
        let (pa, pb) = self.port_range(proto);
        let ca = self.coef_start[proto as usize] as usize;
        let cb = self.coef_start[proto as usize + 1] as usize;
        self.kinds.push(kind);
        self.children.extend_from_slice(children);
        self.port_kinds.extend_from_within(pa..pb);
        self.port_start.push(self.children.len() as u32);
        self.coefs.extend_from_within(ca..cb);
        self.coef_start.push(self.coefs.len() as u32);
        self.seal_new_node(h, children, cb - ca);
        id
    }

    /// The depth-0 view of a node: exactly its local input.
    pub fn depth_zero(&mut self, node: &NodeInfo) -> ViewId {
        let port_kinds: Vec<NodeKind> = node.ports.iter().map(|p| p.neighbor_kind).collect();
        let coefs: Vec<f64> = node.ports.iter().filter_map(|p| p.coef).collect();
        let children = vec![CHILD_CUT; node.degree()];
        self.intern(node.kind, &port_kinds, &coefs, &children)
    }

    /// A copy of `id` with the child slot at `port` replaced by
    /// [`CHILD_BACK`] — what a receiver does to a just-delivered view
    /// (the sender's port becomes the back edge). Shared subtrees below
    /// stay shared; only one node is (at most) added.
    pub fn set_back(&mut self, id: ViewId, port: u32) -> ViewId {
        if self.children(id)[port as usize] == CHILD_BACK {
            return id;
        }
        let mut children = self.children(id).to_vec();
        children[port as usize] = CHILD_BACK;
        self.intern_like(id, &children)
    }

    /// Builds the depth-`t+1` view from the depth-`t` views received on
    /// each port: the sender-port slot of each delivered subtree becomes
    /// the back edge, silent ports become cuts; kind, port kinds and
    /// coefficients come from `own`.
    pub fn absorb(&mut self, own: ViewId, inbox: &[Option<(u32, ViewId)>]) -> ViewId {
        let children: Vec<u32> = inbox
            .iter()
            .map(|slot| match slot {
                Some((sender_port, sub)) => self.set_back(*sub, *sender_port),
                None => CHILD_CUT,
            })
            .collect();
        self.intern_like(own, &children)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_ids_are_equality() {
        let mut a = ViewArena::new();
        let leaf = a.intern(NodeKind::Constraint, &[NodeKind::Agent], &[], &[CHILD_CUT]);
        let leaf2 = a.intern(NodeKind::Constraint, &[NodeKind::Agent], &[], &[CHILD_CUT]);
        assert_eq!(leaf, leaf2);
        let agent = a.intern(NodeKind::Agent, &[NodeKind::Constraint], &[2.0], &[leaf]);
        let other = a.intern(NodeKind::Agent, &[NodeKind::Constraint], &[2.5], &[leaf]);
        assert_ne!(agent, other, "coefficients are part of the content");
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn set_back_is_cached_and_idempotent() {
        let mut a = ViewArena::new();
        let node = a.intern(
            NodeKind::Constraint,
            &[NodeKind::Agent, NodeKind::Agent],
            &[],
            &[CHILD_CUT, CHILD_CUT],
        );
        let b1 = a.set_back(node, 1);
        let b2 = a.set_back(node, 1);
        assert_eq!(b1, b2);
        assert_eq!(a.set_back(b1, 1), b1, "already a back edge");
        assert_eq!(a.children(b1), &[CHILD_CUT, CHILD_BACK]);
    }
}
