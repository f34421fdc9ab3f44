//! The §5 algorithm as a simulation of the message-passing model on
//! `mmlp-net` — anonymous nodes, port numbering, Θ(R) synchronous
//! rounds.
//!
//! [`solve_special_flat`] runs the three phases of the distributed
//! algorithm, each `4r + 2` send rounds (`r = R − 2`), and charges every
//! message the protocol would send:
//!
//! 1. **View gathering** (§5.1/§4.1): every node assembles its
//!    radius-`(4r+2)` view of the unfolding ([`gather_views_flat`]);
//!    each agent then computes its tree bound `t_u` locally from the
//!    view ([`t_from_arena`]), by the same `f±` bisection as the
//!    centralized evaluator. (The paper's alternating tree `A_u` has
//!    radius `4r+3`, but its deepest leaf constraints carry only the
//!    coefficients `a_iv` of their level-`4r+1` agents — which those
//!    agents already know — so radius `4r+2` views suffice.)
//! 2. **Smoothing flood** (§5.3): `4r+2` rounds of min-flooding give
//!    every agent `s_v = min { t_u : dist(u, v) ≤ 4r+2 }`.
//! 3. **`g±` exchanges** (§5.3): per level `d`, two rounds via the
//!    objective (to sum the neighbours' `g⁺_{w,d}`) and two rounds via
//!    the constraints (to ship the partner products
//!    `a_{i,n} · g⁻_{n,d}`); the last level needs no constraint
//!    exchange. Each agent then outputs eq. (18).
//!
//! Views are messages of interned ids, so a phase-1 round costs
//! `O(Σ degree)`; phases 2 and 3 carry one `f64` per message and are
//! evaluated directly, with the per-round message schedule reproduced
//! for the accounting. The outputs are **bit-identical** to the
//! centralized engine's: every minimum, sum and bisection is evaluated
//! over the same operands in the same order (asserted catalog-wide in
//! the integration tests).

use crate::smoothing::{self, SpecialRun};
use crate::special::SpecialForm;
use mmlp_instance::NodeKind;
use mmlp_net::{gather_views_flat, FlatViews, Network, RunStats, ViewArena, ViewId, CHILD_BACK};

/// Total synchronous rounds used: `3·(4r+2) = 12R − 18`.
pub fn rounds_needed(big_r: usize) -> usize {
    3 * (4 * (big_r - 2) + 2)
}

// ---- local computation on flat (arena) views -------------------------
//
// The `f±` recursions of `tree_bound`, evaluated over the arena's CSR
// child ranges and **memoised per interned subtree**: hash-consing makes
// "same subtree" an id compare, so shared subtrees — which is most of a
// ball in the unfolding — are evaluated once per `(id, level)` instead
// of once per occurrence. Every arithmetic operation runs on the same
// operands in the same order as the centralized `TreeBound::t_bisect`
// — except the capacity folds `min_i 1/a_iv`, which run in chunked f64
// lanes (`mmlp_net::lanes`) and are order-independent at the bit level
// — so the results are bit-identical (asserted in tests). Sums are
// never reassociated; see `specs/PERF.md` for the boundary.

/// Logical subtree size below which the `f±` evaluators skip the memo
/// table and recompute directly.
///
/// A memo probe costs a (usually cold) load into a table that is far
/// bigger than L1; a tiny subtree costs a handful of arithmetic ops on
/// arena columns that are already streaming through cache. Measured on
/// the `view-eval-t` bench workload (120-objective special form,
/// R ∈ {3, 4}), cutoffs in 16–64 are within noise of each other and
/// all beat both "memoise everything" (the PR-5 regression) and "never
/// memoise"; see `specs/PERF.md` for the sweep.
pub const MEMO_MIN_SUBTREE: u64 = 32;

/// `memo_base` sentinel: this subtree is below [`MEMO_MIN_SUBTREE`] and
/// is never memoised.
const MEMO_SKIP: u32 = u32::MAX;

/// A NaN bit pattern no `f±` evaluation can produce (the evaluators
/// only ever yield non-negative values or `None`), used to encode
/// `None` in a memo slot without an `Option` discriminant.
const MEMO_NONE_BITS: u64 = 0x7ff8_dead_beef_0001;

/// One generation-stamped memo slot: 16 bytes instead of the 24-byte
/// `(u64, Option<f64>)` it replaces, so the same table holds 1.5× more
/// entries per cache line and the tables shrink accordingly.
#[derive(Clone, Copy, Default)]
struct MemoSlot {
    gen: u32,
    bits: u64,
}

#[inline]
fn memo_encode(v: Option<f64>) -> u64 {
    match v {
        Some(x) => x.to_bits(),
        None => MEMO_NONE_BITS,
    }
}

#[inline]
fn memo_decode(bits: u64) -> Option<f64> {
    (bits != MEMO_NONE_BITS).then(|| f64::from_bits(bits))
}

/// Memo tables for one `(root, ω)` flat evaluation. Reused across
/// agents; "clearing" per ω probe is a generation bump, so the hot loop
/// does no hashing and no table wipes.
///
/// The tables are **compact**: `FlatScratch::prepare` walks the arena
/// once per `(arena, levels)` pair and assigns memo slots only to
/// subtrees of logical size ≥ [`MEMO_MIN_SUBTREE`] (everything smaller
/// recomputes), and precomputes every agent node's capacity
/// `min_i 1/a_iv` — which is ω-independent — into a per-id table using
/// the lane fold [`mmlp_net::lanes::min_recip_where`]. On the dedup-
/// heavy arenas of deep gathers this shrinks the stamped region by an
/// order of magnitude versus a dense `ids × levels` layout.
#[derive(Default)]
pub struct FlatScratch {
    /// Identity of the arena the tables below are laid out for.
    arena_token: u64,
    /// Interned-node count at layout time (token + length pin the
    /// layout even across clones that grew).
    arena_len: usize,
    /// Levels per memoised id (`r + 1`); fixes the slot stride.
    levels: usize,
    /// Current probe generation; entries are live iff stamped with it.
    gen: u32,
    /// id → first slot of its `levels` memo slots, or [`MEMO_SKIP`].
    memo_base: Vec<u32>,
    /// id → `min_i 1/a_iv` for agent nodes (NaN filler for rows; never
    /// read — rows have no capacity).
    caps: Vec<f64>,
    fp: Vec<MemoSlot>,
    fm: Vec<MemoSlot>,
    /// Live memo probes answered from the table this layout's lifetime.
    memo_hits: u64,
    /// Probes that missed (stale or never-stamped slot) and recomputed.
    memo_misses: u64,
    /// Evaluations that bypassed the table — subtree below
    /// [`MEMO_MIN_SUBTREE`], or the level-0 precomputed-capacity path.
    memo_skips: u64,
}

impl FlatScratch {
    /// Lays the tables out for `arena` with `levels` memo levels per
    /// subtree (no-op when already laid out for exactly this arena and
    /// stride).
    ///
    /// When the **same** arena merely grew since the last layout — the
    /// dynamic solver's steady state, where each delta hash-conses a few
    /// ball-local subtrees into a persistent arena — the tables are
    /// *extended* for the new ids only, in O(new ids) instead of the
    /// O(arena) full re-layout. Interned nodes are immutable, so the
    /// existing caps, slot assignments and live memo generations all stay
    /// valid; fresh slots carry generation 0, which is stale by
    /// construction (probes only trust the current generation, which a
    /// [`FlatScratch::clear`] has always bumped past 0).
    fn prepare(&mut self, arena: &ViewArena, levels: usize) {
        if self.arena_token == arena.token() && self.levels == levels {
            if self.arena_len == arena.len() {
                return;
            }
            if self.arena_len > 0 && self.arena_len < arena.len() {
                self.extend(arena);
                return;
            }
        }
        let n = arena.len();
        self.arena_token = arena.token();
        self.arena_len = n;
        self.levels = levels;
        self.gen = 0;
        self.memo_base.clear();
        self.memo_base.reserve(n);
        self.caps.clear();
        self.caps.reserve(n);
        let mut slots = 0u32;
        for id in 0..n as ViewId {
            self.caps.push(if arena.kind(id) == NodeKind::Agent {
                mmlp_net::lanes::min_recip_where(
                    arena.port_kinds(id),
                    arena.coefs(id),
                    NodeKind::Constraint,
                )
            } else {
                f64::NAN
            });
            self.memo_base.push(if arena.size(id) >= MEMO_MIN_SUBTREE {
                let base = slots;
                slots += levels as u32;
                base
            } else {
                MEMO_SKIP
            });
        }
        self.fp = vec![MemoSlot::default(); slots as usize];
        self.fm = vec![MemoSlot::default(); slots as usize];
    }

    /// Appends layout for ids interned since the last
    /// [`FlatScratch::prepare`] of the same arena.
    fn extend(&mut self, arena: &ViewArena) {
        let mut slots = self.fp.len() as u32;
        for id in self.arena_len as ViewId..arena.len() as ViewId {
            self.caps.push(if arena.kind(id) == NodeKind::Agent {
                mmlp_net::lanes::min_recip_where(
                    arena.port_kinds(id),
                    arena.coefs(id),
                    NodeKind::Constraint,
                )
            } else {
                f64::NAN
            });
            self.memo_base.push(if arena.size(id) >= MEMO_MIN_SUBTREE {
                let base = slots;
                slots += self.levels as u32;
                base
            } else {
                MEMO_SKIP
            });
        }
        self.fp.resize(slots as usize, MemoSlot::default());
        self.fm.resize(slots as usize, MemoSlot::default());
        self.arena_len = arena.len();
    }

    /// Live memo probes answered from the tables over this layout's
    /// lifetime.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// Memo probes that missed (stale or never-stamped) and recomputed.
    pub fn memo_misses(&self) -> u64 {
        self.memo_misses
    }

    /// Evaluations that bypassed the memo (small subtree or the level-0
    /// precomputed-capacity path).
    pub fn memo_skips(&self) -> u64 {
        self.memo_skips
    }

    /// Starts a new ω probe: previous entries become stale in O(1).
    fn clear(&mut self) {
        if self.gen == u32::MAX {
            // Generation wrap: re-zero the stamps so stale entries from
            // 4 billion probes ago cannot alias the fresh generation.
            self.fp.fill(MemoSlot::default());
            self.fm.fill(MemoSlot::default());
            self.gen = 0;
        }
        self.gen += 1;
    }

    /// Memo slot of `(id, d)`, or `None` below the memo cutoff.
    #[inline]
    fn slot(&self, id: ViewId, d: u32) -> Option<usize> {
        let base = self.memo_base[id as usize];
        (base != MEMO_SKIP).then(|| base as usize + d as usize)
    }
}

/// The objective subtree of an agent's interned view node.
fn objective_child_flat(arena: &ViewArena, v: ViewId) -> ViewId {
    for (p, kind) in arena.port_kinds(v).iter().enumerate() {
        if *kind == NodeKind::Objective {
            let c = arena.children(v)[p];
            if c < CHILD_BACK {
                return c;
            }
        }
    }
    panic!("objective child missing — view gathered too shallow");
}

/// `f⁺` on an interned subtree: `w` is a down-type agent at level
/// `4(r−d)+1`, entered from its objective; `None` when condition (8)
/// fails. Memoised above the [`MEMO_MIN_SUBTREE`] cutoff.
fn f_plus_flat(
    arena: &ViewArena,
    w: ViewId,
    d: u32,
    omega: f64,
    sc: &mut FlatScratch,
) -> Option<f64> {
    if d == 0 {
        // The level-0 value is the precomputed (ω-independent) capacity;
        // no memo traffic at the recursion's widest level.
        sc.memo_skips += 1;
        return Some(sc.caps[w as usize]);
    }
    let slot = sc.slot(w, d);
    if let Some(s) = slot {
        let MemoSlot { gen, bits } = sc.fp[s];
        if gen == sc.gen {
            sc.memo_hits += 1;
            return memo_decode(bits);
        }
    }
    let val = {
        let mut m = f64::INFINITY;
        let mut ok = true;
        for (p, kind) in arena.port_kinds(w).iter().enumerate() {
            if *kind != NodeKind::Constraint {
                continue;
            }
            let a_own = arena.coefs(w)[p];
            let cons = arena.children(w)[p];
            assert!(
                cons < CHILD_BACK,
                "constraint child missing — view gathered too shallow"
            );
            // The constraint's unique other interned child is the partner;
            // its coefficient towards this constraint is on its Back
            // port.
            let partner = arena
                .children(cons)
                .iter()
                .copied()
                .find(|&c| c < CHILD_BACK)
                .expect("special form: constraints have a partner agent");
            let back = arena
                .children(partner)
                .iter()
                .position(|&c| c == CHILD_BACK)
                .expect("non-root subtree has a back edge");
            let a_partner = arena.coefs(partner)[back];
            match f_minus_flat(arena, partner, d - 1, omega, sc) {
                Some(fm) => m = m.min((1.0 - a_partner * fm) / a_own),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        ok.then_some(m)
    };
    let result = match val {
        Some(v) if v >= 0.0 => Some(v),
        _ => None,
    };
    if let Some(s) = slot {
        sc.memo_misses += 1;
        sc.fp[s] = MemoSlot {
            gen: sc.gen,
            bits: memo_encode(result),
        };
    } else {
        sc.memo_skips += 1;
    }
    result
}

/// `f⁻` on an interned subtree: `n` is an up-type agent at level
/// `4(r−d)−1`, entered from a constraint. Memoised above the
/// [`MEMO_MIN_SUBTREE`] cutoff.
fn f_minus_flat(
    arena: &ViewArena,
    n: ViewId,
    d: u32,
    omega: f64,
    sc: &mut FlatScratch,
) -> Option<f64> {
    let slot = sc.slot(n, d);
    if let Some(s) = slot {
        let MemoSlot { gen, bits } = sc.fm[s];
        if gen == sc.gen {
            sc.memo_hits += 1;
            return memo_decode(bits);
        }
    }
    let k = objective_child_flat(arena, n);
    // This sum feeds outputs asserted bit-identical to the centralized
    // solver, so it keeps its left-to-right order (see the
    // reassociation boundary in `mmlp_net::lanes`).
    let mut sum = 0.0;
    let mut ok = true;
    for &w in arena.children(k) {
        if w < CHILD_BACK {
            match f_plus_flat(arena, w, d, omega, sc) {
                Some(fp) => sum += fp,
                None => {
                    ok = false;
                    break;
                }
            }
        }
    }
    let result = ok.then(|| (omega - sum).max(0.0));
    if let Some(s) = slot {
        sc.memo_misses += 1;
        sc.fm[s] = MemoSlot {
            gen: sc.gen,
            bits: memo_encode(result),
        };
    } else {
        sc.memo_skips += 1;
    }
    result
}

/// Computes `t_u` from the agent's radius-`(4r+2)` view rooted at
/// `root` — the bisection of `tree_bound::TreeBound::t_bisect`,
/// evaluated on the view and memoised per shared subtree.
///
/// `sc` is laid out for `(arena, R)` on first use and reused across
/// roots and ω probes; capacities come from the precomputed per-id
/// table, and every sum keeps the centralized operand order, so the
/// result is bit-for-bit equal to `t_bisect` (asserted in tests).
pub fn t_from_arena(arena: &ViewArena, root: ViewId, big_r: usize, sc: &mut FlatScratch) -> f64 {
    let r = (big_r - 2) as u32;
    sc.prepare(arena, r as usize + 1);
    let cap_u = sc.caps[root as usize];
    let k = objective_child_flat(arena, root);
    let others: Vec<ViewId> = arena
        .children(k)
        .iter()
        .copied()
        .filter(|&c| c < CHILD_BACK)
        .collect();
    let hi0 = cap_u + others.iter().map(|&w| sc.caps[w as usize]).sum::<f64>();
    let mut feasible = |omega: f64| -> bool {
        sc.clear();
        let mut sum = 0.0;
        for &w in &others {
            match f_plus_flat(arena, w, r, omega, sc) {
                Some(fp) => sum += fp,
                None => return false,
            }
        }
        (omega - sum).max(0.0) <= cap_u
    };
    if hi0 == 0.0 || feasible(hi0) {
        return hi0;
    }
    let (mut lo, mut hi) = (0.0f64, hi0);
    let tol = crate::tree_bound::BISECT_REL_TOL * hi0.max(1.0);
    while hi - lo > tol {
        // Halving each end first keeps `lo + hi` from overflowing when
        // `hi0` nears f64::MAX; below that it is the same midpoint.
        let mid = 0.5 * lo + 0.5 * hi;
        if feasible(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Memo telemetry of one `t` batch (part of [`FlatSolveTrace`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchTelemetry {
    /// Memo probes answered from the scratch table.
    pub memo_hits: u64,
    /// Memo probes that recomputed and stamped a slot.
    pub memo_misses: u64,
    /// Evaluations that bypassed the table (tiny subtree or level 0).
    pub memo_skips: u64,
}

/// Evaluates `t_u` for every root in order, with one [`FlatScratch`]
/// laid out once and reused across the batch.
fn t_batch(arena: &ViewArena, roots: &[ViewId], big_r: usize) -> (Vec<f64>, BatchTelemetry) {
    let mut sc = FlatScratch::default();
    let t = roots
        .iter()
        .map(|&root| t_from_arena(arena, root, big_r, &mut sc))
        .collect();
    let tel = BatchTelemetry {
        memo_hits: sc.memo_hits,
        memo_misses: sc.memo_misses,
        memo_skips: sc.memo_skips,
    };
    (t, tel)
}

/// Runs the §5 algorithm in the message-passing model on the **flat
/// view arena**:
///
/// 1. **Phase 1** uses [`gather_views_flat`]: payloads are interned ids,
///    so per-round work is `O(Σ degree)` instead of the ball size, and
///    the per-agent bounds `t_u` are then evaluated over the arena roots
///    with the `f±` recursions memoised per shared subtree
///    ([`t_from_arena`]).
/// 2. **Phases 2–3** are scalar recursions; they are evaluated directly
///    (the same operations in the same order as the centralized solver)
///    while the protocol's exact per-round message/byte schedule is
///    reproduced for the accounting.
///
/// Outputs (`x`, `t`, `s`) are bit-identical to
/// [`smoothing::solve_special`]'s, and the logical `RunStats`
/// accounting charges each phase-1 message the sender's whole view;
/// on top of that the stats carry the arena's dedup counters
/// (`interned_nodes`, `arena_bytes`, `peak_arena_bytes`). Both are
/// asserted across the generator catalog in `tests/flat_views.rs`, the
/// accounting against a golden table.
pub fn solve_special_flat(sf: &SpecialForm, big_r: usize) -> (SpecialRun, RunStats) {
    solve_special_flat_impl(sf, big_r, None)
}

/// [`solve_special_flat`] plus its [`FlatSolveTrace`]: the same solve —
/// bit-identical outputs, asserted catalog-wide — with per-phase wall
/// times and the `t` batch's memo telemetry filled in.
///
/// `_threads`: ignored; the benchmark PR (ROADMAP item 9) removes it.
pub fn solve_special_flat_traced(
    sf: &SpecialForm,
    big_r: usize,
    _threads: usize,
) -> (SpecialRun, RunStats, FlatSolveTrace) {
    let mut trace = FlatSolveTrace::default();
    let (run, stats) = solve_special_flat_impl(sf, big_r, Some(&mut trace));
    (run, stats, trace)
}

/// Per-phase wall times and hot-path counters of one flat solve.
///
/// Phase durations are measured with the monotonic clock and cover
/// disjoint intervals, so `gather_ns + t_eval_ns + flood_ns + g_ns ≤
/// total_ns` (the remainder is glue: network construction, output
/// assembly). All fields are zero for untraced solves — tracing is
/// opt-in per call, and the untraced path takes no timestamps at all.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlatSolveTrace {
    /// Phase 1a: flat view gathering (`gather_views_flat`).
    pub gather_ns: u64,
    /// Phase 1b: the `t_u` batch over the arena roots.
    pub t_eval_ns: u64,
    /// Phase 2: the `s_v` min-flood.
    pub flood_ns: u64,
    /// Phase 3: `g±` tables and output assembly.
    pub g_ns: u64,
    /// Whole-solve wall time.
    pub total_ns: u64,
    /// Memo telemetry of the `t` batch.
    pub batch: BatchTelemetry,
}

impl FlatSolveTrace {
    /// The phase breakdown as `(name, nanoseconds)` pairs in execution
    /// order — the span hook the observability layer hangs child spans
    /// off (phases run back-to-back, so cumulative offsets position
    /// them inside the enclosing `execute` span).
    pub fn phase_spans(&self) -> [(&'static str, u64); 4] {
        [
            ("gather", self.gather_ns),
            ("t_eval", self.t_eval_ns),
            ("flood", self.flood_ns),
            ("g", self.g_ns),
        ]
    }
}

fn solve_special_flat_impl(
    sf: &SpecialForm,
    big_r: usize,
    mut trace: Option<&mut FlatSolveTrace>,
) -> (SpecialRun, RunStats) {
    assert!(big_r >= 2, "the paper requires R ≥ 2");
    // One monotonic timestamp per phase boundary, taken only when the
    // caller asked for a trace — the untraced hot path is unchanged.
    let mut last_tick = trace.as_ref().map(|_| std::time::Instant::now());
    let t0 = last_tick;
    let mut lap = move || -> u64 {
        let now = std::time::Instant::now();
        let ns = now.duration_since(last_tick.unwrap()).as_nanos() as u64;
        last_tick = Some(now);
        ns
    };
    let r = big_r - 2;
    let a_len = 4 * r + 2;
    let net = Network::new(sf.instance());
    let n = sf.n_agents();

    // ---- phase 1: flat gather + t over the arena roots ----
    let FlatViews {
        arena,
        roots,
        mut stats,
    } = gather_views_flat(&net, a_len);
    if let Some(tr) = trace.as_deref_mut() {
        tr.gather_ns = lap();
    }
    let (t, batch_tel) = t_batch(&arena, &roots[..n], big_r);
    if let Some(tr) = trace.as_deref_mut() {
        tr.t_eval_ns = lap();
        tr.batch = batch_tel;
    }

    // ---- phase 2: min-flood of t (same relaxation order as the
    // protocol; senders are exactly the nodes holding a finite value) --
    let graph = net.graph();
    let n_nodes = graph.n_nodes();
    let mut cur = vec![f64::INFINITY; n_nodes];
    cur[..n].copy_from_slice(&t);
    let mut next = vec![0.0f64; n_nodes];
    for _ in 0..a_len {
        let mut msgs = 0u64;
        for (x, v) in cur.iter().enumerate() {
            if v.is_finite() {
                msgs += graph.neighbors(x as u32).len() as u64;
            }
        }
        stats.messages += msgs;
        stats.bytes += 8 * msgs;
        stats.messages_per_round.push(msgs);
        stats.bytes_per_round.push(8 * msgs);
        for x in 0..n_nodes as u32 {
            let mut m = cur[x as usize];
            for adj in graph.neighbors(x) {
                m = m.min(cur[adj.to as usize]);
            }
            next[x as usize] = m;
        }
        std::mem::swap(&mut cur, &mut next);
    }
    let s: Vec<f64> = cur[..n].to_vec();
    if let Some(tr) = trace.as_deref_mut() {
        tr.flood_ns = lap();
    }

    // ---- phase 3: g± values via the centralized recursions (proven
    // bit-identical to the message protocol), counts per its schedule --
    let inst = sf.instance();
    let obj_ports: u64 = inst
        .objectives()
        .map(|k| inst.objective_row(k).len() as u64)
        .sum();
    let cons_ports = 2 * inst.n_constraints() as u64;
    for step in 0..a_len {
        let d = step / 4;
        let msgs = match step % 4 {
            0 => n as u64,            // each agent → its objective
            1 => obj_ports,           // each objective → every member
            _ if d < r => cons_ports, // agents → constraints, then relays
            _ => 0,
        };
        stats.messages += msgs;
        stats.bytes += 8 * msgs;
        stats.messages_per_round.push(msgs);
        stats.bytes_per_round.push(8 * msgs);
    }
    stats.rounds = rounds_needed(big_r);

    let g = smoothing::g_tables(sf, &s, r);
    let x = smoothing::output(sf, &g, big_r);
    if let Some(tr) = trace {
        tr.g_ns = lap();
        tr.total_ns = t0.unwrap().elapsed().as_nanos() as u64;
    }
    (SpecialRun { x, t, s, g }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smoothing::solve_special;
    use mmlp_gen::special::{cycle_special, random_special_form, SpecialFormConfig};

    fn sf(seed: u64) -> SpecialForm {
        SpecialForm::new(random_special_form(&SpecialFormConfig::default(), seed)).unwrap()
    }

    #[test]
    fn distributed_matches_centralized_bitwise() {
        for seed in 0..4 {
            let s = sf(seed);
            for big_r in [2, 3, 4] {
                let central = solve_special(&s, big_r, 1);
                let (flat, _) = solve_special_flat(&s, big_r);
                for v in 0..s.n_agents() {
                    let at = format!("seed {seed} R {big_r} agent {v}");
                    assert_eq!(flat.t[v].to_bits(), central.t[v].to_bits(), "t: {at}");
                    assert_eq!(flat.s[v].to_bits(), central.s[v].to_bits(), "s: {at}");
                    assert_eq!(
                        flat.x.as_slice()[v].to_bits(),
                        central.x.as_slice()[v].to_bits(),
                        "x: {at}"
                    );
                }
            }
        }
    }

    #[test]
    fn round_count_is_constant_in_network_size() {
        for big_r in [2, 3] {
            let mut rounds = Vec::new();
            for n_obj in [10, 40] {
                let s = SpecialForm::new(random_special_form(
                    &SpecialFormConfig {
                        n_objectives: n_obj,
                        ..SpecialFormConfig::default()
                    },
                    0,
                ))
                .unwrap();
                let (_, stats) = solve_special_flat(&s, big_r);
                rounds.push(stats.rounds);
            }
            assert_eq!(rounds[0], rounds[1], "locality: rounds independent of n");
            assert_eq!(rounds[0], rounds_needed(big_r));
        }
    }

    #[test]
    fn messages_scale_linearly_with_size() {
        let messages = |n_objectives: usize| {
            let s = SpecialForm::new(random_special_form(
                &SpecialFormConfig {
                    n_objectives,
                    extra_constraints: n_objectives / 2,
                    ..SpecialFormConfig::default()
                },
                1,
            ))
            .unwrap();
            solve_special_flat(&s, 3).1.messages
        };
        let ratio = messages(40) as f64 / messages(10) as f64;
        assert!(
            (2.0..8.0).contains(&ratio),
            "4x nodes → ~4x messages, got ratio {ratio}"
        );
    }

    #[test]
    fn cycle_distributed_is_optimal() {
        let s = SpecialForm::new(cycle_special(8, 1.0)).unwrap();
        let (run, _) = solve_special_flat(&s, 4);
        for v in run.x.as_slice() {
            assert!((v - 0.5).abs() < 1e-9);
        }
        assert!(run.x.is_feasible(s.instance(), 1e-9));
    }

    #[test]
    fn traced_solve_is_bit_identical_and_phases_are_coherent() {
        let s = sf(2);
        for big_r in [2, 3] {
            let (plain, stats) = solve_special_flat(&s, big_r);
            let (traced, tstats, tr) = solve_special_flat_traced(&s, big_r, 1);
            for v in 0..s.n_agents() {
                assert_eq!(traced.t[v].to_bits(), plain.t[v].to_bits());
                assert_eq!(traced.s[v].to_bits(), plain.s[v].to_bits());
                assert_eq!(
                    traced.x.as_slice()[v].to_bits(),
                    plain.x.as_slice()[v].to_bits(),
                    "R {big_r} agent {v}"
                );
            }
            assert_eq!(stats, tstats, "accounting must not depend on tracing");
            // Phases cover disjoint intervals of the span.
            assert!(tr.total_ns > 0);
            let phase_sum = tr.gather_ns + tr.t_eval_ns + tr.flood_ns + tr.g_ns;
            assert!(
                phase_sum <= tr.total_ns,
                "phases {phase_sum} > total {}",
                tr.total_ns
            );
            // The batch ran and its memo counters saw traffic.
            assert!(tr.batch.memo_hits + tr.batch.memo_misses + tr.batch.memo_skips > 0);
        }
    }

    #[test]
    fn t_from_arena_matches_tree_bound_bisection() {
        use crate::tree_bound::{Scratch, TreeBound};
        let s = sf(9);
        let net = Network::new(s.instance());
        for big_r in [2, 3] {
            let flat = gather_views_flat(&net, 4 * (big_r - 2) + 2);
            let tb = TreeBound::new(&s, big_r);
            let (mut sc, mut fsc) = (Scratch::default(), FlatScratch::default());
            for v in s.instance().agents() {
                let central = tb.t_bisect(v, &mut sc);
                let arena = t_from_arena(&flat.arena, flat.roots[v.idx()], big_r, &mut fsc);
                assert_eq!(central.to_bits(), arena.to_bits(), "agent {v} R {big_r}");
            }
        }
    }
}
