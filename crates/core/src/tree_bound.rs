//! §5.1–§5.2: alternating trees `A_u` and the per-agent optimum `t_u`.
//!
//! For an agent `u`, the alternating tree `A_u` is the subgraph of the
//! *unfolding* of `G` induced by alternating paths from `u` through
//! `k(u)` of length ≤ `4r + 3` (plus `u`'s own constraints as leaves at
//! level −2). Its levels alternate
//!
//! ```text
//! level:  -2        -1     0      1        2      3      4    …  4r+2
//! node:   leaf cons u      k(u)   agents   cons   agents obj  …  leaf cons
//! ```
//!
//! The optimum `t_u` of the max-min LP restricted to `A_u` is an upper
//! bound on the utility of *any* feasible solution of `G` (Lemma 2), and
//! is characterised by the monotone recursions (5)–(7):
//!
//! * `f⁺` values are the **largest** the down-agents can take without
//!   violating the constraints below them,
//! * `f⁻` values are the **smallest** the up-agents can take so the
//!   objectives below them still reach `ω`,
//!
//! and `t_u` is the largest `ω ≥ 0` keeping all `f⁺ ≥ 0` (8) and
//! `f⁻_{u,u,r}(ω) ≤ min_i 1/a_iu` (9). Every `f±` is monotone in `ω`, so
//! the feasible set is an interval `[0, t_u]` and — as §5.2 remarks — a
//! **binary search** suffices. [`TreeBound::t_bisect`] is that search:
//! it bisects to [`BISECT_REL_TOL`] and returns the certified feasible
//! lower end.
//!
//! [`TreeBound::t`] returns the same bits in a few probes. Every step of
//! the computed recursions is a monotone IEEE operation in a fixed
//! order: a sum of `f⁺` values left to right, `max(0, ω − Σ)`, and a
//! `min` over `(1 − a'·f⁻)/a` with positive coefficients. So the
//! *computed* predicate `feasible(u, ω)` is monotone in `ω` bit for bit,
//! and the bisection's output depends only on where it flips. `t` finds
//! the flip with Newton steps on the margin
//! `m(ω) = max(f⁻_{u,u,r}(ω) − cap(u), max −f⁺(ω))` — convex, increasing
//! and piecewise linear, so Newton from the infeasible end never
//! overshoots in exact arithmetic — and keeps a bracket: a point known
//! feasible and one known infeasible. It then replays the bisection
//! loop, answering every midpoint outside the bracket from it and
//! probing only the midpoints inside. The result equals the bisection's
//! because the predicate is monotone, not because of any tolerance. The
//! margin walk must compute the plain walk's values by the same
//! operations in the same order: a fused multiply-add or a reassociated
//! sum in one walk but not the other breaks the argument. The unit tests
//! check that both walks answer alike on either side of each agent's
//! flip, and the integration tests compare `t` with `t_bisect` bitwise
//! catalog-wide.
//!
//! Key implementation point: although `A_u` lives in the unfolding (an
//! infinite tree when `G` has cycles), the value `f±_{u,v,d}` depends
//! only on `(v, d)` and the recursion direction — a node's children in
//! `A_u` are determined by its agent and role, never by the walk history.
//! The evaluation therefore memoises on `(v, d)` in dense per-row,
//! per-level tables (see [`Scratch`]).
//!
//! The walks read a node only through [`AltTree`], so one evaluator
//! serves two node sets: the folded graph `G` itself ([`SpecialForm`],
//! whose nodes are agents; the solvers run this one), and a gathered
//! radius-`(4r+2)` view arena
//! ([`ArenaTree`](crate::distributed::ArenaTree), whose nodes are
//! interned view ids; the message-passing simulation runs that one).
//! Both present the same operands in the same order, so they return the
//! same bits in the same probes.

use crate::special::SpecialForm;
use mmlp_instance::{AgentId, Instance, InstanceBuilder};

/// Relative bisection tolerance for `t_u` (the returned value is the
/// feasible lower end, so `t_u` is never overestimated).
pub const BISECT_REL_TOL: f64 = 1e-12;

/// Most margin walks one [`TreeBound::t`] spends on Newton steps before
/// it falls back to replaying the bisection on its bracket so far.
const NEWTON_STEPS: u32 = 16;

/// What the recursions (5)–(7) read at a node of an alternating tree.
///
/// A node is an agent in a role: entered from its objective (a
/// down-agent, whose constraints lie below it) or from a constraint (an
/// up-agent, whose objective lies below it). Every iterator yields in
/// the order of the node's ports, which fixes the order of each sum and
/// minimum.
pub trait AltTree {
    /// A node of the tree.
    type Node: Copy;
    /// Memo rows [`Scratch`] lays out for this tree.
    fn n_rows(&self) -> usize;
    /// The memo row of `v`, below [`AltTree::n_rows`]; the walks memoise
    /// `f±_{u,v,d}` at `(row(v), d)`.
    fn row(&self, v: Self::Node) -> usize;
    /// `min_i 1/a_iv` over the constraints of `v`.
    fn cap(&self, v: Self::Node) -> f64;
    /// `N(v)`: the other agents of `v`'s objective, in objective-row
    /// order.
    fn others(&self, v: Self::Node) -> impl Iterator<Item = Self::Node> + '_;
    /// `(n(v,i), a_iv, a_{i,n(v,i)})` for each constraint `i` of `v`.
    fn cons(&self, v: Self::Node) -> impl Iterator<Item = (Self::Node, f64, f64)> + '_;
}

/// The folded graph: nodes are agents, one memo row each.
impl AltTree for SpecialForm {
    type Node = AgentId;

    fn n_rows(&self) -> usize {
        self.n_agents()
    }

    #[inline]
    fn row(&self, v: AgentId) -> usize {
        v.idx()
    }

    #[inline]
    fn cap(&self, v: AgentId) -> f64 {
        SpecialForm::cap(self, v)
    }

    #[inline]
    fn others(&self, v: AgentId) -> impl Iterator<Item = AgentId> + '_ {
        SpecialForm::others(self, v)
    }

    #[inline]
    fn cons(&self, v: AgentId) -> impl Iterator<Item = (AgentId, f64, f64)> + '_ {
        SpecialForm::cons(self, v)
            .iter()
            .map(|cv| (cv.partner, cv.a_own, cv.a_partner))
    }
}

/// Evaluator of the `f±` recursions and the bound `t_u` for a fixed
/// locality parameter `R` (the paper's `R ≥ 2`; `r = R − 2`), over any
/// [`AltTree`].
pub struct TreeBound<'a, T: AltTree = SpecialForm> {
    tree: &'a T,
    r: u32,
}

/// One generation-stamped memo slot: live iff `gen` is the owning
/// [`Scratch`]'s current generation.
#[derive(Clone, Copy, Default)]
struct Slot {
    gen: u32,
    val: f64,
}

/// Reusable memo tables for the `(u, ω)` evaluations of a [`TreeBound`].
///
/// `f±_{u,v,d}` depends only on `(v, d)`, so each table is **dense**:
/// one slot per memo row ([`AltTree::row`]) and level, at index
/// `row·(r+1) + d`. The tables are laid out once per `(rows, r)` and
/// reused across roots, ω probes and trees of the same shape; starting
/// a probe is a generation bump, so the hot loop does no hashing and no
/// table wipes. A margin walk also stores each slot's slope `d f±/dω`
/// at the same index, live under the slot's stamp.
#[derive(Default)]
pub struct Scratch {
    /// Rows the tables are laid out for.
    n: usize,
    /// Levels per row (`r + 1`); the slot stride.
    levels: usize,
    /// Current probe generation; slots are live iff stamped with it.
    gen: u32,
    /// ω probes started over this scratch's lifetime.
    probes: u64,
    fp: Vec<Slot>,
    fm: Vec<Slot>,
    dfp: Vec<f64>,
    dfm: Vec<f64>,
}

impl Scratch {
    /// Lays the tables out for `n` rows × `levels` levels (no-op when
    /// already laid out so). Fresh slots carry generation 0, which is
    /// stale by construction: [`Scratch::clear`] always bumps past it.
    fn prepare(&mut self, n: usize, levels: usize) {
        if self.n == n && self.levels == levels {
            return;
        }
        self.n = n;
        self.levels = levels;
        self.gen = 0;
        self.fp.clear();
        self.fp.resize(n * levels, Slot::default());
        self.fm.clear();
        self.fm.resize(n * levels, Slot::default());
        self.dfp.clear();
        self.dfp.resize(n * levels, 0.0);
        self.dfm.clear();
        self.dfm.resize(n * levels, 0.0);
    }

    /// Heap bytes the tables hold: `n·(r+1)` levels of two 16-byte
    /// slots and two 8-byte slopes once laid out.
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.fp.capacity() + self.fm.capacity()) * std::mem::size_of::<Slot>()
            + (self.dfp.capacity() + self.dfm.capacity()) * std::mem::size_of::<f64>()
    }

    /// Starts a new ω probe: previous entries become stale in O(1).
    fn clear(&mut self) {
        if self.gen == u32::MAX {
            // Generation wrap: re-zero the stamps so entries from 4
            // billion probes ago cannot alias the fresh generation.
            self.fp.fill(Slot::default());
            self.fm.fill(Slot::default());
            self.gen = 0;
        }
        self.gen += 1;
        self.probes += 1;
    }

    /// ω probes (walks of the recursions from a root) this scratch has
    /// started: plain and margin walks alike.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Memo slot of `(row, d)`.
    #[inline]
    fn slot(&self, row: usize, d: u32) -> usize {
        row * self.levels + d as usize
    }
}

impl<'a, T: AltTree> TreeBound<'a, T> {
    /// Creates the evaluator; `big_r` is the paper's `R ≥ 2`.
    pub fn new(tree: &'a T, big_r: usize) -> Self {
        assert!(big_r >= 2, "the paper requires R ≥ 2");
        TreeBound {
            tree,
            r: (big_r - 2) as u32,
        }
    }

    /// The depth parameter `r = R − 2`.
    pub fn r(&self) -> usize {
        self.r as usize
    }

    /// `f⁺_{u,v,d}(ω)` for a down-type agent `v` (level `4(r−d)+1`).
    /// `None` when a negative `f⁺` was encountered (condition (8) fails).
    fn f_plus(&self, v: T::Node, d: u32, omega: f64, sc: &mut Scratch) -> Option<f64> {
        if d == 0 {
            // (5): the deepest agents take the largest single-constraint-
            // feasible value — ω-independent, so it bypasses the memo.
            let val = self.tree.cap(v);
            return if val < 0.0 { None } else { Some(val) };
        }
        let slot = sc.slot(self.tree.row(v), d);
        let Slot { gen, val } = sc.fp[slot];
        if gen == sc.gen {
            return Some(val);
        }
        // (7): largest value not violating any constraint below, given
        // the partners' minimal needs.
        let mut m = f64::INFINITY;
        for (partner, a_own, a_partner) in self.tree.cons(v) {
            let fm = self.f_minus(partner, d - 1, omega, sc)?;
            m = m.min((1.0 - a_partner * fm) / a_own);
        }
        if m < 0.0 {
            return None;
        }
        sc.fp[slot] = Slot {
            gen: sc.gen,
            val: m,
        };
        Some(m)
    }

    /// `f⁻_{u,v,d}(ω)` for an up-type agent `v` (level `4(r−d)−1`).
    fn f_minus(&self, v: T::Node, d: u32, omega: f64, sc: &mut Scratch) -> Option<f64> {
        let slot = sc.slot(self.tree.row(v), d);
        let Slot { gen, val } = sc.fm[slot];
        if gen == sc.gen {
            return Some(val);
        }
        // (6): the smallest value for which the objective below still
        // reaches ω given the down-agents' maxima. The sum runs left to
        // right in objective-row order, never reassociated.
        let mut sum = 0.0;
        for w in self.tree.others(v) {
            sum += self.f_plus(w, d, omega, sc)?;
        }
        let val = (omega - sum).max(0.0);
        sc.fm[slot] = Slot { gen: sc.gen, val };
        Some(val)
    }

    /// `(f⁺, d f⁺/dω)` for the margin walk: [`TreeBound::f_plus`]'s
    /// value, computed by the same operations in the same order but
    /// without the early exit, so a negative `f⁺` propagates instead of
    /// ending the walk. `worst` keeps the largest `−f⁺` met and its
    /// slope (level 0 is skipped: a capacity is never negative).
    fn f_plus_slope(
        &self,
        v: T::Node,
        d: u32,
        omega: f64,
        sc: &mut Scratch,
        worst: &mut (f64, f64),
    ) -> (f64, f64) {
        if d == 0 {
            return (self.tree.cap(v), 0.0);
        }
        let slot = sc.slot(self.tree.row(v), d);
        let Slot { gen, val } = sc.fp[slot];
        if gen == sc.gen {
            return (val, sc.dfp[slot]);
        }
        let mut m = f64::INFINITY;
        let mut dm = 0.0;
        for (partner, a_own, a_partner) in self.tree.cons(v) {
            let (fm, dfm) = self.f_minus_slope(partner, d - 1, omega, sc, worst);
            let x = (1.0 - a_partner * fm) / a_own;
            if x < m {
                dm = -(a_partner * dfm) / a_own;
            }
            m = m.min(x);
        }
        if -m > worst.0 {
            *worst = (-m, -dm);
        }
        sc.fp[slot] = Slot {
            gen: sc.gen,
            val: m,
        };
        sc.dfp[slot] = dm;
        (m, dm)
    }

    /// `(f⁻, d f⁻/dω)` for the margin walk (see
    /// [`TreeBound::f_plus_slope`]).
    fn f_minus_slope(
        &self,
        v: T::Node,
        d: u32,
        omega: f64,
        sc: &mut Scratch,
        worst: &mut (f64, f64),
    ) -> (f64, f64) {
        let slot = sc.slot(self.tree.row(v), d);
        let Slot { gen, val } = sc.fm[slot];
        if gen == sc.gen {
            return (val, sc.dfm[slot]);
        }
        let mut sum = 0.0;
        let mut dsum = 0.0;
        for w in self.tree.others(v) {
            let (fp, dfp) = self.f_plus_slope(w, d, omega, sc, worst);
            sum += fp;
            dsum += dfp;
        }
        let gap = omega - sum;
        let val = gap.max(0.0);
        let dval = if gap > 0.0 { 1.0 - dsum } else { 0.0 };
        sc.fm[slot] = Slot { gen: sc.gen, val };
        sc.dfm[slot] = dval;
        (val, dval)
    }

    /// Conditions (8) and (9) at `ω` for root `u`.
    pub fn feasible(&self, u: T::Node, omega: f64, sc: &mut Scratch) -> bool {
        sc.prepare(self.tree.n_rows(), self.r as usize + 1);
        sc.clear();
        match self.f_minus(u, self.r, omega, sc) {
            None => false,
            Some(fm) => fm <= self.tree.cap(u),
        }
    }

    /// One margin walk at `ω`: whether [`TreeBound::feasible`] holds,
    /// plus the margin `m(ω) = max(f⁻_{u,u,r} − cap(u), max −f⁺)` and its
    /// slope, positive whenever `ω` is infeasible.
    ///
    /// Up to the first negative `f⁺` it computes, this walk computes the
    /// plain walk's values in the plain walk's order. So "no `f⁺` was
    /// negative and `f⁻_{u,u,r} ≤ cap(u)`" is exactly the plain answer,
    /// whatever the rounding of `m` itself.
    fn margin(&self, u: T::Node, omega: f64, sc: &mut Scratch) -> (bool, f64, f64) {
        sc.prepare(self.tree.n_rows(), self.r as usize + 1);
        sc.clear();
        let mut worst = (f64::NEG_INFINITY, 0.0);
        let (fm, dfm) = self.f_minus_slope(u, self.r, omega, sc, &mut worst);
        let cap = self.tree.cap(u);
        let feasible = worst.0 <= 0.0 && fm <= cap;
        let over = fm - cap;
        let (m, dm) = if over > worst.0 { (over, dfm) } else { worst };
        (feasible, m, dm)
    }

    /// A trivial upper bound on `t_u`: every agent of `k(u)` is capped by
    /// its own constraints, so `t_u ≤ Σ_{w∈Vk(u)} cap(w)`.
    pub fn upper_hint(&self, u: T::Node) -> f64 {
        self.tree.cap(u) + self.tree.others(u).map(|w| self.tree.cap(w)).sum::<f64>()
    }

    /// `t_u`, bit for bit [`TreeBound::t_bisect`]'s value, in a few
    /// probes: the bisection replayed on a bracket of the flip of
    /// `feasible(u, ·)` (see the module docs).
    pub fn t(&self, u: T::Node, sc: &mut Scratch) -> f64 {
        let hi0 = self.upper_hint(u);
        if hi0 == 0.0 || self.feasible(u, hi0, sc) {
            return hi0;
        }
        let tol = BISECT_REL_TOL * hi0.max(1.0);
        let (mut a, mut b) = self.bracket(u, hi0, tol, sc);
        bisect(hi0, tol, |mid| {
            if mid <= a {
                return true;
            }
            if mid >= b {
                return false;
            }
            let ok = self.feasible(u, mid, sc);
            if ok {
                a = mid;
            } else {
                b = mid;
            }
            ok
        })
    }

    /// `t_u` by plain bisection, the paper's suggested search. This is
    /// the reference [`TreeBound::t`] must equal bit for bit, kept for
    /// the tests and the `tree_bound` bench; no solver path calls it.
    pub fn t_bisect(&self, u: T::Node, sc: &mut Scratch) -> f64 {
        let hi0 = self.upper_hint(u);
        if hi0 == 0.0 || self.feasible(u, hi0, sc) {
            return hi0;
        }
        bisect(hi0, BISECT_REL_TOL * hi0.max(1.0), |mid| {
            self.feasible(u, mid, sc)
        })
    }

    /// A bracket `(a, b)` of the flip of `feasible(u, ·)` — `a` known
    /// feasible, `b` known infeasible — given that `hi0` is infeasible.
    ///
    /// Newton steps on the margin run down from `hi0`. Each walk's exact
    /// answer moves one end of the bracket; since the margin is convex,
    /// increasing and piecewise linear, the steps reach the root's
    /// linear piece in a few walks. One plain probe half a tolerance
    /// past the last walk then usually leaves a bracket narrower than
    /// the tolerance. A zero or non-finite slope, a step that makes no
    /// progress, or [`NEWTON_STEPS`] walks end the search with the
    /// bracket as it stands, so the replay costs at most the
    /// bisection's own probes.
    fn bracket(&self, u: T::Node, hi0: f64, tol: f64, sc: &mut Scratch) -> (f64, f64) {
        let half = 0.5 * tol;
        let (mut a, mut b) = (0.0, hi0);
        let mut omega = hi0;
        let mut walks = 0;
        let nudge = loop {
            let (ok, m, dm) = self.margin(u, omega, sc);
            walks += 1;
            if ok {
                a = omega;
                break omega + half;
            }
            b = omega;
            let step = m / dm;
            if !(step > 0.0 && step.is_finite()) || walks == NEWTON_STEPS {
                return (a, b);
            }
            if step <= half {
                break omega - half;
            }
            omega -= step;
            if omega <= a {
                return (a, b);
            }
        };
        if a < nudge && nudge < b {
            if self.feasible(u, nudge, sc) {
                a = nudge;
            } else {
                b = nudge;
            }
        }
        (a, b)
    }
}

impl TreeBound<'_> {
    /// `t_u` for every agent, sequentially.
    pub fn all(&self) -> Vec<f64> {
        let mut sc = Scratch::default();
        self.tree
            .instance()
            .agents()
            .map(|u| self.t(u, &mut sc))
            .collect()
    }

    /// Number of nodes of `A_u` (agents + constraints + objectives) —
    /// the per-node work the local algorithm performs.
    pub fn tree_size(&self, u: AgentId) -> usize {
        // Count via the same traversal as materialize, without building.
        let mut count = 1 + self.tree.cons(u).len() + 1; // u, leaf cons, k(u)
        for w in self.tree.others(u) {
            count += self.count_down(w, self.r);
        }
        count
    }

    fn count_down(&self, v: AgentId, d: u32) -> usize {
        let mut c = 1; // the agent itself
        for cv in self.tree.cons(v) {
            c += 1; // the constraint
            if d > 0 {
                c += self.count_up(cv.partner, d - 1);
            }
        }
        c
    }

    fn count_up(&self, v: AgentId, d: u32) -> usize {
        let mut c = 2; // the agent and its objective
        for w in self.tree.others(v) {
            c += self.count_down(w, d);
        }
        c
    }

    /// Materialises `A_u` as an explicit (tree) max-min LP instance,
    /// returning it together with the map *tree agent → original agent*.
    ///
    /// Leaf constraints (levels −2 and `4r+2`) keep only the one agent
    /// inside the tree — the "relaxed" constraints of Lemma 2. By
    /// Lemma 3, the LP optimum of the returned instance equals `t_u`;
    /// tests verify this against the independent simplex solver.
    pub fn materialize(&self, u: AgentId) -> (Instance, Vec<AgentId>) {
        let mut m = Materializer {
            tb: self,
            b: InstanceBuilder::new(),
            origin: Vec::new(),
        };
        let root = m.add_agent(u);
        for cv in self.tree.cons(u) {
            m.b.add_constraint(&[(root, cv.a_own)])
                .expect("leaf constraint");
        }
        let mut krow = vec![(root, 1.0)];
        for w in self.tree.others(u) {
            krow.push((m.down(w, self.r), 1.0));
        }
        m.b.add_objective(&krow).expect("root objective");
        (m.b.build().expect("materialized tree builds"), m.origin)
    }
}

/// The bisection loop: halves `[0, hi0]` until it is at most `tol` wide
/// and returns the lower end, the last midpoint `feasible` accepted (or
/// 0).
///
/// The midpoint halves each end before adding. In the loop both ends
/// are 0 or at least `tol / 2`, so the halving is exact and the result
/// is the correctly rounded `(lo + hi) / 2` — the same bits as
/// `0.5 * (lo + hi)`, except that it cannot overflow to +∞ (where
/// that form, infeasible at +∞, would never shrink `hi`).
fn bisect(hi0: f64, tol: f64, mut feasible: impl FnMut(f64) -> bool) -> f64 {
    let mut lo = 0.0f64;
    let mut hi = hi0;
    while hi - lo > tol {
        let mid = 0.5 * lo + 0.5 * hi;
        if feasible(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

struct Materializer<'a, 'b> {
    tb: &'b TreeBound<'a>,
    b: InstanceBuilder,
    origin: Vec<AgentId>,
}

impl Materializer<'_, '_> {
    fn add_agent(&mut self, original: AgentId) -> AgentId {
        let id = self.b.add_agent();
        self.origin.push(original);
        id
    }

    /// Expands a down-type agent at level `4(r−d)+1` and its subtree.
    fn down(&mut self, v: AgentId, d: u32) -> AgentId {
        let copy = self.add_agent(v);
        for cv in self.tb.tree.cons(v) {
            if d == 0 {
                self.b
                    .add_constraint(&[(copy, cv.a_own)])
                    .expect("leaf constraint");
            } else {
                let partner = self.up(cv.partner, d - 1);
                self.b
                    .add_constraint(&[(copy, cv.a_own), (partner, cv.a_partner)])
                    .expect("inner constraint");
            }
        }
        copy
    }

    /// Expands an up-type agent at level `4(r−d)−1`, its objective and
    /// the subtree below.
    fn up(&mut self, v: AgentId, d: u32) -> AgentId {
        let copy = self.add_agent(v);
        let mut krow = vec![(copy, 1.0)];
        for w in self.tb.tree.others(v) {
            krow.push((self.down(w, d), 1.0));
        }
        self.b.add_objective(&krow).expect("inner objective");
        copy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmlp_gen::special::{cycle_special, random_special_form, SpecialFormConfig};
    use mmlp_instance::CommGraph;

    fn sf(inst: mmlp_instance::Instance) -> SpecialForm {
        SpecialForm::new(inst).expect("special form")
    }

    /// Checks `t` against `t_bisect` bit for bit on every agent, and
    /// returns each agent's `(replay, bisection)` probe counts.
    fn replay_vs_bisect(s: &SpecialForm, big_r: usize, label: &str) -> Vec<(u64, u64)> {
        let tb = TreeBound::new(s, big_r);
        let mut sc = Scratch::default();
        s.instance()
            .agents()
            .map(|u| {
                let before = sc.probes();
                let t = tb.t(u, &mut sc);
                let replay = sc.probes() - before;
                let before = sc.probes();
                let want = tb.t_bisect(u, &mut sc);
                let bisect = sc.probes() - before;
                assert_eq!(
                    t.to_bits(),
                    want.to_bits(),
                    "{label} R={big_r} {u}: replay {t:e} vs bisection {want:e}"
                );
                (replay, bisect)
            })
            .collect()
    }

    /// The special form the §4 pipeline makes of `inst`.
    fn transformed(inst: &Instance) -> SpecialForm {
        sf(crate::transform::to_special_form(inst).instance)
    }

    #[test]
    fn cycle_t_values_match_closed_form() {
        // On the unit-coefficient cycle, A_u is a path and
        // t_u = 1 + 1/(R−1) (hand-computed from the recursions).
        let s = sf(cycle_special(20, 1.0));
        for big_r in 2..=5 {
            let tb = TreeBound::new(&s, big_r);
            let expect = 1.0 + 1.0 / (big_r as f64 - 1.0);
            let mut sc = Scratch::default();
            for u in s.instance().agents().take(4) {
                let t = tb.t(u, &mut sc);
                assert!(
                    (t - expect).abs() < 1e-9,
                    "R={big_r}: t = {t}, expected {expect}"
                );
            }
            replay_vs_bisect(&s, big_r, "cycle");
        }
    }

    /// The last ω at which `feasible(u, ·)` holds, by bisection over the
    /// bit patterns of `[0, hi]` (non-negative floats order like their
    /// bits); `None` when `hi` itself is feasible.
    fn last_feasible(tb: &TreeBound, u: AgentId, hi: f64, sc: &mut Scratch) -> Option<f64> {
        if tb.feasible(u, hi, sc) {
            return None;
        }
        let (mut lo, mut hi) = (0u64, hi.to_bits());
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if tb.feasible(u, f64::from_bits(mid), sc) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(f64::from_bits(lo))
    }

    #[test]
    fn margin_walks_answer_like_the_plain_walk_at_the_flip() {
        // The replay trusts every margin walk's feasibility answer, so it
        // must be the plain walk's. A rounding difference between the
        // walks (a fused multiply-add, a reordered sum) moves the flip of
        // one by a float or more for some agent, and shows on one side.
        for fam in mmlp_gen::catalog::catalog() {
            let s = transformed(&fam.instance(16, 1));
            for big_r in 2..=5 {
                let tb = TreeBound::new(&s, big_r);
                let mut sc = Scratch::default();
                for u in s.instance().agents() {
                    let Some(flip) = last_feasible(&tb, u, tb.upper_hint(u), &mut sc) else {
                        continue;
                    };
                    let above = f64::from_bits(flip.to_bits() + 1);
                    let at = format!("{} R={big_r} {u}", fam.name);
                    assert!(tb.margin(u, flip, &mut sc).0, "{at}: {flip:e} is feasible");
                    assert!(!tb.margin(u, above, &mut sc).0, "{at}: {above:e} is not");
                }
            }
        }
    }

    #[test]
    fn replay_takes_a_few_probes_catalog_wide() {
        // Size 64, R = 3: the bisection takes ~41 probes per agent.
        let mut probes = 0u64;
        let mut agents = 0u64;
        for fam in mmlp_gen::catalog::catalog() {
            for seed in 0..3 {
                let s = transformed(&fam.instance(64, seed));
                for (replay, bisect) in replay_vs_bisect(&s, 3, fam.name) {
                    assert!(
                        replay <= bisect + u64::from(NEWTON_STEPS) + 2,
                        "{}: {replay} probes vs bisection {bisect}",
                        fam.name
                    );
                    probes += replay;
                    agents += 1;
                }
            }
        }
        let mean = probes as f64 / agents as f64;
        assert!(mean <= 6.0, "{mean} probes per agent");
    }

    #[test]
    fn replay_is_exact_on_extreme_coefficients() {
        // Log-uniform coefficients over 1e-300..1e300, then a mix of
        // subnormal and ordinary ones: capacities overflow to +∞, slopes
        // overflow or vanish, and the replay must still land on the
        // bisection's bits.
        let spreads: [fn(f64) -> f64; 2] = [
            |x| 10f64.powf(600.0 * x - 300.0),
            |x| match (x * 4.0) as u32 {
                0 => 5e-324,
                1 => f64::MIN_POSITIVE * x,
                2 => 1e-310,
                _ => 0.5 + x,
            },
        ];
        for (which, spread) in spreads.iter().enumerate() {
            for seed in 0..4 {
                let mut s = sf(random_special_form(&SpecialFormConfig::default(), seed));
                let mut mix = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                let mut draw = || {
                    mix ^= mix << 13;
                    mix ^= mix >> 7;
                    mix ^= mix << 17;
                    spread((mix >> 11) as f64 / (1u64 << 53) as f64)
                };
                for i in s.instance().constraints() {
                    s.set_constraint_coefs(i, [draw(), draw()]);
                }
                for big_r in 2..=5 {
                    replay_vs_bisect(&s, big_r, &format!("spread {which} seed {seed}"));
                }
            }
        }
    }

    #[test]
    fn an_upper_hint_near_f64_max_does_not_overflow_the_midpoint() {
        // Capacities of 8e307: t_u ≈ 1.2e308 at R = 3, so after the
        // first feasible midpoint `lo + hi` exceeds f64::MAX.
        let coef = 1.25e-308;
        let s = sf(cycle_special(8, coef));
        for big_r in 2..=4 {
            replay_vs_bisect(&s, big_r, "near-max");
            let expect = (1.0 + 1.0 / (big_r as f64 - 1.0)) / coef;
            let flat = crate::distributed::solve_special_flat(&s, big_r).0.t;
            for (t, f) in TreeBound::new(&s, big_r).all().iter().zip(&flat) {
                assert!(
                    (t / expect - 1.0).abs() < 1e-9,
                    "R={big_r}: {t:e} vs {expect:e}"
                );
                assert_eq!(t.to_bits(), f.to_bits(), "flat path, R={big_r}");
            }
        }
    }

    #[test]
    fn replay_is_exact_on_the_lower_bound_gadgets() {
        use mmlp_gen::lower_bound::{regular_gadget, tree_gadget};
        let (regular, _) = regular_gadget(12, 3, 3, 3, 5);
        let (tree, _) = tree_gadget(3, 3, 3);
        for (name, inst) in [("regular_gadget", regular), ("tree_gadget", tree)] {
            let s = transformed(&inst);
            for big_r in 2..=5 {
                replay_vs_bisect(&s, big_r, name);
            }
        }
    }

    #[test]
    fn r2_equals_upper_hint() {
        // r = 0 makes conditions (8)/(9) trivial: t_u = Σ_{w∈Vk(u)} cap(w).
        let s = sf(random_special_form(&SpecialFormConfig::default(), 1));
        let tb = TreeBound::new(&s, 2);
        let mut sc = Scratch::default();
        for u in s.instance().agents() {
            assert!((tb.t(u, &mut sc) - tb.upper_hint(u)).abs() < 1e-9);
        }
    }

    #[test]
    fn t_is_monotone_decreasing_in_big_r() {
        // Larger R = deeper A_u = more (and stricter) constraints.
        let s = sf(random_special_form(&SpecialFormConfig::default(), 7));
        let mut prev: Option<Vec<f64>> = None;
        for big_r in 2..=5 {
            let t = TreeBound::new(&s, big_r).all();
            if let Some(p) = &prev {
                for (a, b) in t.iter().zip(p) {
                    assert!(a <= &(b + 1e-9), "t must not increase with R");
                }
            }
            prev = Some(t);
        }
    }

    #[test]
    fn t_upper_bounds_the_global_optimum() {
        // Lemma 2: every feasible solution of G has utility ≤ t_u.
        for seed in 0..4 {
            let s = sf(random_special_form(
                &SpecialFormConfig {
                    n_objectives: 8,
                    extra_constraints: 4,
                    ..SpecialFormConfig::default()
                },
                seed,
            ));
            let opt = mmlp_lp::solve_maxmin(s.instance()).expect("bounded").omega;
            for big_r in [2, 3, 4] {
                let t = TreeBound::new(&s, big_r).all();
                for (u, tu) in t.iter().enumerate() {
                    assert!(
                        *tu >= opt - 1e-7,
                        "seed {seed} R {big_r} agent {u}: t = {tu} < opt = {opt}"
                    );
                }
            }
        }
    }

    #[test]
    fn t_equals_lp_optimum_of_materialized_tree() {
        // Lemma 3: t_u is the optimum of the max-min LP of A_u.
        for seed in 0..3 {
            let s = sf(random_special_form(
                &SpecialFormConfig {
                    n_objectives: 6,
                    extra_constraints: 3,
                    ..SpecialFormConfig::default()
                },
                seed,
            ));
            let tb = TreeBound::new(&s, 3);
            let mut sc = Scratch::default();
            for u in s.instance().agents().step_by(3) {
                let (tree, _) = tb.materialize(u);
                let lp_opt = mmlp_lp::solve_maxmin(&tree).expect("tree LP bounded").omega;
                let t = tb.t(u, &mut sc);
                assert!(
                    (t - lp_opt).abs() < 1e-6,
                    "seed {seed} {u}: t = {t} vs LP = {lp_opt}"
                );
            }
        }
    }

    #[test]
    fn materialized_tree_is_a_tree_with_lemma1_structure() {
        let s = sf(random_special_form(&SpecialFormConfig::default(), 5));
        let tb = TreeBound::new(&s, 3);
        let u = AgentId::new(0);
        let (tree, origin) = tb.materialize(u);
        assert_eq!(origin.len(), tree.n_agents());
        assert_eq!(origin[0], u, "first tree agent is the root");
        let g = CommGraph::new(&tree);
        assert_eq!(g.girth(), None, "A_u is a tree (Lemma 1)");
        let (_, comps) = g.components();
        assert_eq!(comps, 1);
        // Lemma 1: leaves are constraints (degree-1 nodes are constraints).
        for i in tree.constraints() {
            let d = tree.constraint_row(i).len();
            assert!(d == 1 || d == 2);
        }
        for k in tree.objectives() {
            assert!(
                tree.objective_row(k).len() >= 2,
                "objectives keep all agents"
            );
        }
        assert_eq!(tb.tree_size(u), g.n_nodes(), "size counter matches");
    }

    #[test]
    fn feasibility_is_monotone_in_omega() {
        let s = sf(random_special_form(&SpecialFormConfig::default(), 11));
        let tb = TreeBound::new(&s, 4);
        let mut sc = Scratch::default();
        let u = AgentId::new(0);
        let t = tb.t(u, &mut sc);
        for frac in [0.0, 0.25, 0.5, 0.9, 0.999] {
            assert!(tb.feasible(u, frac * t, &mut sc), "below t is feasible");
        }
        assert!(!tb.feasible(u, t * 1.001 + 1e-6, &mut sc), "above t fails");
    }

    #[test]
    fn reused_scratch_matches_fresh_across_instances_and_r() {
        let cfg = SpecialFormConfig::default();
        let a = sf(random_special_form(&cfg, 21));
        // Same agent count as `a`: its tables keep `a`'s layout, so only
        // the generation stamps separate its entries from `a`'s.
        let b = (22..)
            .map(|seed| sf(random_special_form(&cfg, seed)))
            .find(|b| b.n_agents() == a.n_agents())
            .unwrap();
        let c = sf(random_special_form(
            &SpecialFormConfig {
                n_objectives: 31,
                ..cfg
            },
            3,
        ));
        assert_ne!(c.n_agents(), a.n_agents());
        let run = |s: &SpecialForm, big_r: usize, sc: &mut Scratch| -> Vec<u64> {
            let tb = TreeBound::new(s, big_r);
            s.instance()
                .agents()
                .map(|u| tb.t(u, sc).to_bits())
                .collect()
        };
        let mut sc = Scratch::default();
        // (instance, R, whether the previous step's layout is kept)
        for (s, big_r, kept) in [
            (&a, 3, false),
            (&b, 3, true),
            (&a, 3, true),
            (&a, 4, false), // r changed
            (&c, 4, false), // n changed
            (&b, 2, false),
            (&a, 2, true),
        ] {
            // A fresh scratch starts at generation 0 and bumps once per
            // ω probe, so its final generation counts the probes.
            let mut fresh = Scratch::default();
            let want = run(s, big_r, &mut fresh);
            let before = sc.gen;
            assert_eq!(run(s, big_r, &mut sc), want, "R={big_r} kept={kept}");
            assert_eq!((sc.n, sc.levels), (s.n_agents(), big_r - 1));
            let expect_gen = if kept { before + fresh.gen } else { fresh.gen };
            assert_eq!(sc.gen, expect_gen, "R={big_r}: layout kept = {kept}");
        }
        // A generation wrap mid-pass re-zeroes the stamps instead of
        // letting entries from before the wrap alias fresh ones.
        run(&a, 3, &mut sc);
        sc.gen = u32::MAX - 5;
        let mut fresh = Scratch::default();
        assert_eq!(run(&b, 3, &mut sc), run(&b, 3, &mut fresh));
        assert!(sc.gen < fresh.gen, "the pass wrapped");
    }

    #[test]
    fn zero_feasible_always() {
        let s = sf(random_special_form(&SpecialFormConfig::default(), 13));
        let tb = TreeBound::new(&s, 3);
        let mut sc = Scratch::default();
        for u in s.instance().agents() {
            assert!(tb.feasible(u, 0.0, &mut sc));
        }
    }
}
