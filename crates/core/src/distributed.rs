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
//!    view ([`ArenaTree`]), by the centralized evaluator's own `f±`
//!    walks and replayed search ([`TreeBound::t`]). (The paper's
//!    alternating tree `A_u` has radius `4r+3`, but its deepest leaf
//!    constraints carry only the coefficients `a_iv` of their
//!    level-`4r+1` agents — which those agents already know — so
//!    radius `4r+2` views suffice.)
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
//! centralized engine's: every minimum, sum and search step is evaluated
//! over the same operands in the same order (asserted catalog-wide in
//! the integration tests).

use crate::smoothing::{self, SpecialRun};
use crate::special::SpecialForm;
use crate::tree_bound::{AltTree, Scratch, TreeBound};
use mmlp_instance::NodeKind;
use mmlp_net::{gather_views_flat, FlatViews, Network, RunStats, ViewArena, ViewId, CHILD_BACK};

/// Total synchronous rounds used: `3·(4r+2) = 12R − 18`.
pub fn rounds_needed(big_r: usize) -> usize {
    3 * (4 * (big_r - 2) + 2)
}

// ---- local computation on flat (arena) views -------------------------

/// A gathered view arena as an [`AltTree`]: nodes are interned view ids,
/// so [`TreeBound`] evaluates the `f±` recursions over the arena's CSR
/// child ranges, and a subtree shared by many balls — most of a ball in
/// the unfolding — is evaluated once per `(id, level)` and ω probe.
///
/// Every agent id gets a memo row; constraint and objective ids get
/// none, since the walks never enter them as nodes. The capacities
/// `min_i 1/a_iv` are ω-independent, so they are folded once per agent
/// id, in chunked f64 lanes ([`mmlp_net::lanes::min_recip_where`]; a
/// minimum is order-independent at the bit level). Every other
/// operation runs on the same operands in the same order as over the
/// [`SpecialForm`], so both return the same bits in the same probes.
pub struct ArenaTree<'a> {
    arena: &'a ViewArena,
    /// id → memo row (agent ids; `u32::MAX` for the others, never read).
    rows: Vec<u32>,
    n_rows: usize,
    /// id → `min_i 1/a_iv` (agent ids; NaN for the others, never read).
    caps: Vec<f64>,
}

impl<'a> ArenaTree<'a> {
    /// Lays the rows and capacities out for every id of `arena`.
    pub fn new(arena: &'a ViewArena) -> Self {
        let mut rows = Vec::with_capacity(arena.len());
        let mut caps = Vec::with_capacity(arena.len());
        let mut n_rows = 0;
        for id in 0..arena.len() as ViewId {
            if arena.kind(id) == NodeKind::Agent {
                rows.push(n_rows);
                n_rows += 1;
                caps.push(mmlp_net::lanes::min_recip_where(
                    arena.port_kinds(id),
                    arena.coefs(id),
                    NodeKind::Constraint,
                ));
            } else {
                rows.push(u32::MAX);
                caps.push(f64::NAN);
            }
        }
        ArenaTree {
            arena,
            rows,
            n_rows: n_rows as usize,
            caps,
        }
    }

    /// The objective subtree of an agent's interned view node.
    fn objective_child(&self, v: ViewId) -> ViewId {
        let arena = self.arena;
        arena
            .port_kinds(v)
            .iter()
            .zip(arena.children(v))
            .find(|&(kind, &c)| *kind == NodeKind::Objective && c < CHILD_BACK)
            .map(|(_, &c)| c)
            .expect("objective child missing — view gathered too shallow")
    }
}

impl AltTree for ArenaTree<'_> {
    type Node = ViewId;

    fn n_rows(&self) -> usize {
        self.n_rows
    }

    #[inline]
    fn row(&self, v: ViewId) -> usize {
        self.rows[v as usize] as usize
    }

    #[inline]
    fn cap(&self, v: ViewId) -> f64 {
        self.caps[v as usize]
    }

    /// The non-back children of `v`'s objective child.
    fn others(&self, v: ViewId) -> impl Iterator<Item = ViewId> + '_ {
        let k = self.objective_child(v);
        self.arena
            .children(k)
            .iter()
            .copied()
            .filter(|&c| c < CHILD_BACK)
    }

    /// Per Constraint port of `v`: the constraint's unique non-back
    /// child is the partner, whose coefficient towards the constraint
    /// sits on its Back port.
    fn cons(&self, v: ViewId) -> impl Iterator<Item = (ViewId, f64, f64)> + '_ {
        let arena = self.arena;
        arena
            .port_kinds(v)
            .iter()
            .zip(arena.children(v))
            .zip(arena.coefs(v))
            .filter(|((kind, _), _)| **kind == NodeKind::Constraint)
            .map(move |((_, &cons), &a_own)| {
                assert!(
                    cons < CHILD_BACK,
                    "constraint child missing — view gathered too shallow"
                );
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
                (partner, a_own, arena.coefs(partner)[back])
            })
    }
}

/// Runs the §5 algorithm in the message-passing model on the **flat
/// view arena**:
///
/// 1. **Phase 1** uses [`gather_views_flat`]: payloads are interned ids,
///    so per-round work is `O(Σ degree)` instead of the ball size, and
///    the per-agent bounds `t_u` are then evaluated over the arena roots
///    with the `f±` recursions memoised per shared subtree
///    ([`ArenaTree`]).
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
/// times and the `t` batch's ω probe count filled in.
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
    /// ω probes the `t` batch made (walks of the `f±` recursions from a
    /// root, counted by [`Scratch::probes`]); equal to the centralized
    /// [`TreeBound::t`]'s over the same agents.
    pub t_probes: u64,
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
    let tree = ArenaTree::new(&arena);
    let tb = TreeBound::new(&tree, big_r);
    let mut sc = Scratch::default();
    let t: Vec<f64> = roots[..n].iter().map(|&root| tb.t(root, &mut sc)).collect();
    if let Some(tr) = trace.as_deref_mut() {
        tr.t_eval_ns = lap();
        tr.t_probes = sc.probes();
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
            // The batch made exactly the centralized replay's probes.
            let tb = TreeBound::new(&s, big_r);
            let mut sc = Scratch::default();
            for u in s.instance().agents() {
                tb.t(u, &mut sc);
            }
            assert_eq!(tr.t_probes, sc.probes(), "R {big_r}");
        }
    }
}
