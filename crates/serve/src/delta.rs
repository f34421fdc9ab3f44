//! The delta-solve coordinator behind `PUT_DELTA`/`SOLVE_DELTA`: the
//! in-memory revision graph (content-hashed lineage `base → new` per
//! registered delta) plus a byte-budgeted LRU of live
//! [`DynamicSolver`]s, each parked at the revision it last solved
//! together with the rendered `x` lines of its reply body.
//!
//! `SOLVE_DELTA hash:<rev>` resolves in one of three ways, cheapest
//! first:
//!
//! 1. **warm** — a solver is already parked at `<rev>` (for this `R`):
//!    render the body straight from its state;
//! 2. **advanced** — a solver is parked at an *ancestor* revision:
//!    replay the lineage deltas between the two through
//!    [`DynamicSolver::apply_delta`], which repairs ball-locally for
//!    coefficient edits, then re-park it at `<rev>`;
//! 3. **booted** — no solver for this `R` anywhere on the chain: boot
//!    one from the nearest revision the instance store holds, in memory
//!    or as a record on disk (`<rev>` itself included), else from the
//!    chain's root (the revision with no lineage edge) and the instance
//!    the revision graph keeps for it, and replay forward. This is also
//!    how a restarted node recovers — lineage records are persisted
//!    through `mmlp-store`, so the chain replays from segments.
//!
//! Every replayed edge is checked against the revision it was recorded
//! under (the solver's maintained hash, updated per edited row); a
//! mismatch is `ERR INTERNAL` and parks nothing.
//!
//! `SOLVE_DELTA inline:` of a coefficient delta whose base has a parked
//! solver skips the revision graph walk: the server checks the solver
//! out ([`DeltaCoordinator::checkout`]), advances it in place on the
//! worker pool ([`DeltaCoordinator::advance`]) and, back on the event
//! loop, records the lineage edge and parks the solver at the new
//! revision (`Engine::commit_inline`). The revision's instance is not
//! copied anywhere: it lives in the parked solver and, as a delta off
//! its base, in the revision graph. A request that names it by hash
//! gets it from [`DeltaCoordinator::rebuild`].
//!
//! The graph is a forest, and it keeps each chain's root instance as
//! its codec record (the instance store's bytes, shared, while the
//! store holds them), so every revision it knows can be rebuilt however
//! the instance store's LRU churns. A revision keeps the first edge
//! that reached it, and a root never gets one: an edit that reverts to
//! an earlier revision adds no edge, so no walk can come round a cycle.
//! Stores written before that rule can hold one; a walk that comes
//! round stops there.
//!
//! In every case the rendered body is **bit-identical** to a `SOLVE` of
//! the same revision: the dynamic solver's state is bitwise equal to a
//! from-scratch solve (asserted catalogue-wide in `mmlp-core`), on
//! special-form instances the §4 pipeline is the exact identity, and
//! both paths format through the same renderer
//! ([`crate::engine::write_solve_header`], [`crate::engine::write_x_line`]).

use crate::cache::Lru;
use crate::engine::{decode_record, write_solve_header, write_x_line, Decoded, EngineError};
use crate::protocol::ErrorCode;
use crate::stats::StoreMetrics;
use mmlp_core::dynamic::{DynamicError, DynamicSolver, UpdateReport};
use mmlp_core::special::SpecialForm;
use mmlp_instance::delta::Delta;
use mmlp_instance::hash::{hash_hex, instance_hash};
use mmlp_instance::{DegreeStats, Instance};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

// Lock order: `resolve`, then `solvers`, then `lineage`. `resolve` is
// held across a whole lineage resolve (including a boot solve), which
// serialises concurrent resolves (`SOLVE_DELTA hash:`, and inline
// deltas off the in-place path). `solvers` and `lineage` are held only
// for map operations, renders and instance copies, one at a time, so
// the event loop can park a solver, and another worker rebuild a
// revision, while a resolve runs: a solver being advanced is checked
// *out* of the LRU, so it can never be observed mid-replay, copied or
// rendered for a revision it has already left. `record` asks for a new
// root's instance under `lineage`; that may take an instance-store
// shard lock, under which nothing takes these.

/// Solvers are keyed by the revision they are parked at **and** `R`:
/// a different `R` needs a different horizon.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct SolverKey {
    revision: u64,
    big_r: usize,
}

/// One registered delta edge of the revision graph.
#[derive(Clone, Debug)]
pub struct LineageEdge {
    /// The base revision the delta applies to.
    pub base: u64,
    /// Canonical delta text (replayable bit-exactly).
    pub delta_text: String,
}

/// How a `SOLVE_DELTA` request reached its revision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaMode {
    /// A solver was already parked at the requested revision.
    Warm,
    /// A parked solver was advanced: by replaying lineage deltas, or in
    /// place by an inline delta against its revision.
    Advanced,
    /// A fresh solver was booted from a stored instance (plus replay).
    Booted,
}

impl DeltaMode {
    /// Stable lowercase tag used in metric labels and stats keys.
    pub fn tag(&self) -> &'static str {
        match self {
            DeltaMode::Warm => "warm",
            DeltaMode::Advanced => "advanced",
            DeltaMode::Booted => "booted",
        }
    }
}

/// Work accounting for one `SOLVE_DELTA`, fed to the metrics layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaSolveInfo {
    /// Resolution path.
    pub mode: DeltaMode,
    /// Lineage deltas replayed during this request.
    pub replayed: u64,
    /// Agents whose output the replays recomputed (the dirty balls).
    pub recomputed_x: u64,
    /// Agents in the revision (denominator for the dirty fraction).
    pub n_agents: u64,
}

/// Bound on the edges one lineage walk takes: a longer chain is
/// `ERR INTERNAL` rather than minutes of replay.
const CHAIN_CAP: usize = 100_000;

/// The revision graph: one edge per derived revision, and the chain
/// roots — every revision an edge starts from but none leads to — with
/// the record of the instance each was recorded with, when one was at
/// hand.
#[derive(Default)]
struct Graph {
    edges: HashMap<u64, LineageEdge>,
    roots: HashMap<u64, Option<Arc<[u8]>>>,
}

/// Where a lineage walk stopped: what `stop` took there (`None` at the
/// chain's root, or where the walk came round a cycle), the revision it
/// stopped at, and the walked edges newest-first — each delta text
/// under the revision it must produce.
struct Walk<T> {
    found: Option<T>,
    at: u64,
    pending: Vec<(u64, String)>,
}

/// The instance a rebuild starts from.
enum Origin {
    /// Copied from a parked solver.
    Parked(Instance),
    /// The record of the revision: the instance store's entry, or a
    /// root's kept record.
    Stored(u64, Arc<[u8]>),
}

/// A solver parked (or checked out) at its current revision, with the
/// `x` lines of its reply body already rendered.
pub struct Parked {
    solver: DynamicSolver,
    xlines: XLines,
    /// The body's `guarantee` line: a function of the degrees and `R`,
    /// which coefficient edits leave alone.
    guarantee: f64,
    /// The record of the stored instance the solver was booted from,
    /// while it still sits there: its first inline edit makes that
    /// revision a chain's root, and the graph keeps this record for it
    /// even if the store has evicted it by then.
    origin: Option<Arc<[u8]>>,
}

/// The `x <agent> <value>` lines of a `SOLVE` body, one per agent, kept
/// in step with a solver's output: after a repair only the lines whose
/// value bits changed are re-formatted, the rest are copied.
struct XLines {
    text: String,
    /// `off[v]` is where agent `v`'s line starts; one trailing entry.
    off: Vec<usize>,
    /// The value bits each line was rendered from.
    bits: Vec<u64>,
    /// The previous text's buffer, reused by the next refresh so a
    /// steady stream of edits allocates nothing here.
    spare: String,
}

impl XLines {
    fn render(x: &[f64]) -> XLines {
        let mut text = String::new();
        let mut off = Vec::with_capacity(x.len() + 1);
        for (v, &val) in x.iter().enumerate() {
            off.push(text.len());
            write_x_line(&mut text, v as u32, val);
        }
        off.push(text.len());
        XLines {
            text,
            off,
            bits: x.iter().map(|v| v.to_bits()).collect(),
            spare: String::new(),
        }
    }

    /// Brings the lines up to date with `x` (same agents): unchanged
    /// runs are copied, changed lines re-formatted.
    fn refresh(&mut self, x: &[f64]) {
        let Some(first) = x
            .iter()
            .zip(&self.bits)
            .position(|(v, &bits)| v.to_bits() != bits)
        else {
            return;
        };
        let mut out = std::mem::take(&mut self.spare);
        out.clear();
        out.push_str(&self.text[..self.off[first]]);
        // Old-text start of the unchanged run not yet copied.
        let mut run = self.off[first];
        for (v, &val) in x.iter().enumerate().skip(first) {
            let (start, end) = (self.off[v], self.off[v + 1]);
            if val.to_bits() == self.bits[v] {
                // Lands where the pending run will put it.
                self.off[v] = out.len() + (start - run);
                continue;
            }
            out.push_str(&self.text[run..start]);
            self.off[v] = out.len();
            write_x_line(&mut out, v as u32, val);
            self.bits[v] = val.to_bits();
            run = end;
        }
        out.push_str(&self.text[run..]);
        self.off[x.len()] = out.len();
        self.spare = std::mem::replace(&mut self.text, out);
    }
}

impl Parked {
    fn new(solver: DynamicSolver) -> Parked {
        Parked {
            xlines: XLines::render(solver.run().x.as_slice()),
            guarantee: guarantee(&solver),
            solver,
            origin: None,
        }
    }

    /// The parked solver.
    pub fn solver(&self) -> &DynamicSolver {
        &self.solver
    }

    /// Takes the record of the instance the solver was booted from, if
    /// it has not moved since (see [`Parked`]'s `origin`).
    pub(crate) fn take_origin(&mut self) -> Option<Arc<[u8]>> {
        self.origin.take()
    }

    /// Applies `delta` and re-renders the changed `x` lines.
    fn apply(&mut self, delta: &Delta) -> Result<UpdateReport, DynamicError> {
        let rep = self.solver.apply_delta(delta)?;
        let x = self.solver.run().x.as_slice();
        if delta.is_constraint_coefs() {
            self.xlines.refresh(x);
        } else {
            // A structural edit rebuilt the solver: the agents and the
            // degrees may have changed.
            self.xlines = XLines::render(x);
            self.guarantee = guarantee(&self.solver);
        }
        Ok(rep)
    }

    /// The `SOLVE`-format reply body of the current revision: the
    /// summary lines computed from the solver's state, then the
    /// rendered `x` lines.
    fn body(&self) -> String {
        let inst = self.solver.special_form().instance();
        let run = self.solver.run();
        let mut out = String::with_capacity(self.xlines.text.len() + 128);
        write_solve_header(
            &mut out,
            run.x.utility(inst),
            self.guarantee,
            run.s.iter().copied().fold(f64::INFINITY, f64::min),
        );
        out.push_str(&self.xlines.text);
        out
    }

    /// Approximate resident bytes: per agent `t`/`s`/`x`, the `g±`
    /// tables (`2(R−1)` levels of 8 bytes) and the x-line offset and
    /// bits; per graph node the BFS distance and visit slot and two
    /// flood values; then both x-line buffers and the `t_u` repair memo
    /// as laid out (per agent and level, two 16-byte `f±` slots and two
    /// 8-byte slopes once the first repair has run).
    fn cost(&self) -> u64 {
        let n = self.solver.special_form().n_agents() as u64;
        let nodes = self.solver.graph().n_nodes() as u64;
        let levels = (self.solver.big_r() - 1) as u64;
        let xlines = (self.xlines.text.capacity() + self.xlines.spare.capacity()) as u64;
        let memo = self.solver.scratch_bytes() as u64;
        n * (24 + 16 * levels + 16) + nodes * 24 + xlines + memo
    }
}

/// A `SOLVE_DELTA inline:` coefficient delta and the solver checked out
/// at its base, on its way to a pool worker.
pub struct InlineDelta {
    pub(crate) parked: Parked,
    pub(crate) delta: Delta,
    pub(crate) big_r: usize,
}

/// An inline delta applied in place: the solver now sits at `new`, and
/// `body` is that revision's reply. The event loop records the
/// revision's lineage edge and parks the solver before replying
/// (`Engine::commit_inline`).
pub struct Advanced {
    pub(crate) parked: Parked,
    pub(crate) delta: Delta,
    pub(crate) new: u64,
    pub(crate) big_r: usize,
    pub(crate) body: String,
    pub(crate) info: DeltaSolveInfo,
}

/// The revision graph + parked-solver cache. All methods are `&self`;
/// only the `resolve` gate is held across a solve.
pub struct DeltaCoordinator {
    resolve: Mutex<()>,
    lineage: Mutex<Graph>,
    solvers: Mutex<Lru<SolverKey, Parked>>,
    /// Where the records it decodes are counted.
    metrics: StoreMetrics,
}

impl DeltaCoordinator {
    /// An empty coordinator whose parked solvers share `budget` bytes,
    /// counting the records it decodes in `metrics`.
    pub fn new(budget: u64, metrics: StoreMetrics) -> Self {
        DeltaCoordinator {
            resolve: Mutex::new(()),
            lineage: Mutex::new(Graph::default()),
            solvers: Mutex::new(Lru::new(budget)),
            metrics,
        }
    }

    /// Records the lineage edge `base → new` and returns whether it did.
    /// The graph stays a forest: the edge is refused when `new == base`,
    /// when `new` already has an edge (several deltas can produce one
    /// revision; it keeps the first), and when `new` is a chain's root
    /// (an edit that reverts to it). When `base` is new to the graph it
    /// becomes a root, and `root` is asked for its instance's record,
    /// which the graph keeps so the chain can be rebuilt after the store
    /// evicts it.
    pub fn record(
        &self,
        new: u64,
        base: u64,
        delta_text: String,
        root: impl FnOnce() -> Option<Arc<[u8]>>,
    ) -> bool {
        let mut graph = self.lineage.lock().expect("lineage lock");
        if new == base || graph.edges.contains_key(&new) || graph.roots.contains_key(&new) {
            return false;
        }
        if !graph.edges.contains_key(&base) && !graph.roots.contains_key(&base) {
            graph.roots.insert(base, root());
        }
        graph.edges.insert(new, LineageEdge { base, delta_text });
        true
    }

    /// Loads persisted edges, one per revision, into an empty graph. A
    /// store lists them by segment, not in the order they were
    /// recorded, so the roots are found once all are in: every base
    /// without an edge, with the record `root` gives for it and that
    /// record's instance, decoded. A chain whose root instance does not
    /// hash to the root's key (one recorded under another hash version)
    /// can never replay onto its recorded revisions, so every edge of
    /// it is dropped. Returns the edges kept and dropped; self-edges are
    /// dropped uncounted.
    pub fn restore(
        &self,
        edges: Vec<(u64, LineageEdge)>,
        root: impl Fn(u64) -> Option<Decoded>,
    ) -> (usize, usize) {
        let mut graph = self.lineage.lock().expect("lineage lock");
        graph.edges = edges
            .into_iter()
            .filter(|(new, e)| *new != e.base)
            .collect();
        let bases: HashSet<u64> = graph.edges.values().map(|e| e.base).collect();
        let mut stale = Vec::new();
        let mut roots = HashMap::new();
        for b in bases.into_iter().filter(|b| !graph.edges.contains_key(b)) {
            match root(b) {
                Some((_, inst)) if instance_hash(&inst) != b => stale.push(b),
                found => {
                    roots.insert(b, found.map(|(record, _)| record));
                }
            }
        }
        graph.roots = roots;
        let before = graph.edges.len();
        if !stale.is_empty() {
            let mut children: HashMap<u64, Vec<u64>> = HashMap::new();
            for (&new, e) in &graph.edges {
                children.entry(e.base).or_default().push(new);
            }
            while let Some(b) = stale.pop() {
                for new in children.remove(&b).unwrap_or_default() {
                    graph.edges.remove(&new);
                    stale.push(new);
                }
            }
        }
        (graph.edges.len(), before - graph.edges.len())
    }

    /// Number of lineage edges known.
    pub fn lineage_len(&self) -> usize {
        self.lineage.lock().expect("lineage lock").edges.len()
    }

    /// Whether [`DeltaCoordinator::rebuild`] can start on `revision`: it
    /// has an edge, is a root with a kept record, or has a solver parked
    /// at it.
    pub fn knows(&self, revision: u64) -> bool {
        let parked = self
            .solvers
            .lock()
            .expect("solver lock")
            .find(|k| k.revision == revision)
            .is_some();
        parked || {
            let graph = self.lineage.lock().expect("lineage lock");
            graph.edges.contains_key(&revision)
                || graph.roots.get(&revision).is_some_and(Option::is_some)
        }
    }

    /// The record the graph keeps for root `revision`, if any.
    fn root_record(&self, revision: u64) -> Option<Arc<[u8]>> {
        let graph = self.lineage.lock().expect("lineage lock");
        graph.roots.get(&revision).cloned().flatten()
    }

    /// `(parked solvers, approximate resident bytes)`.
    pub fn solver_stats(&self) -> (usize, u64) {
        let s = self.solvers.lock().expect("solver lock");
        (s.len(), s.used())
    }

    /// Takes the solver parked at `revision` for `R` out of the cache,
    /// if there is one.
    pub fn checkout(&self, revision: u64, big_r: usize) -> Option<Parked> {
        self.solvers
            .lock()
            .expect("solver lock")
            .remove(&SolverKey { revision, big_r })
    }

    /// Parks `parked` at its current revision.
    pub fn park(&self, parked: Parked, big_r: usize) {
        let key = SolverKey {
            revision: parked.solver.revision(),
            big_r,
        };
        let cost = parked.cost();
        self.solvers
            .lock()
            .expect("solver lock")
            .insert(key, parked, cost);
    }

    /// Worker half of an inline delta: applies it to the checked-out
    /// solver in place — one repair of the dirty ball, which also swaps
    /// the edited rows' hash terms — and renders the new revision's
    /// body. An invalid delta leaves the solver untouched and parks it
    /// back.
    pub fn advance(&self, job: InlineDelta) -> Result<Advanced, EngineError> {
        let InlineDelta {
            mut parked,
            delta,
            big_r,
        } = job;
        let rep = match parked.apply(&delta) {
            Ok(rep) => rep,
            Err(e) => {
                self.park(parked, big_r);
                return Err(match e {
                    DynamicError::Delta(e) => (ErrorCode::BadDelta, format!("delta apply: {e}")),
                    e => (ErrorCode::BadDelta, e.to_string()),
                });
            }
        };
        let new = parked.solver.revision();
        let info = DeltaSolveInfo {
            mode: DeltaMode::Advanced,
            replayed: 1,
            recomputed_x: rep.recomputed_x as u64,
            n_agents: parked.solver.special_form().n_agents() as u64,
        };
        Ok(Advanced {
            body: parked.body(),
            parked,
            delta,
            new,
            big_r,
            info,
        })
    }

    /// Resolves `revision` to a solver (warm / advanced / booted, see
    /// the module docs), renders the `SOLVE`-format body from its
    /// state, and re-parks it. `fetch` resolves a revision hash to its
    /// stored record (the engine's instance store, reading through to
    /// disk); it is asked once per walked revision until one is stored,
    /// and its error ends the walk. Only a record a boot starts from is
    /// decoded.
    pub fn solve<F>(
        &self,
        revision: u64,
        big_r: usize,
        fetch: F,
    ) -> Result<(String, DeltaSolveInfo), EngineError>
    where
        F: Fn(u64) -> Result<Option<Arc<[u8]>>, EngineError>,
    {
        let key = SolverKey { revision, big_r };
        // The gate guards no data, so a resolve that panicked leaves
        // nothing torn: ignore the poison.
        let _resolve = self.resolve.lock().unwrap_or_else(|e| e.into_inner());
        // Fast path: a solver parked at exactly this revision.
        if let Some(parked) = self.solvers.lock().expect("solver lock").get(&key) {
            let info = DeltaSolveInfo {
                mode: DeltaMode::Warm,
                replayed: 0,
                recomputed_x: 0,
                n_agents: parked.solver.special_form().n_agents() as u64,
            };
            return Ok((parked.body(), info));
        }

        // Stop at an ancestor with a solver parked for this `R`.
        // Taking it out (rather than cloning) keeps one canonical
        // solver per chain tip; a later request for the old revision
        // just re-boots. On the way, note the nearest revision the
        // store holds (`revision` itself included) and how many edges
        // below `revision` it sits: a boot starts there.
        let mut nearest_stored = None;
        let mut depth = 0;
        let walk = self.walk(revision, |at| {
            if nearest_stored.is_none() {
                nearest_stored = fetch(at)?.map(|record| (depth, at, record));
            }
            depth += 1;
            Ok(if at == revision {
                None
            } else {
                self.checkout(at, big_r)
            })
        })?;
        let mut pending = walk.pending;
        let (mut parked, mode) = match walk.found {
            Some(parked) => (parked, DeltaMode::Advanced),
            None => {
                // No parked solver on the chain: boot from the nearest
                // stored revision, else from the chain's root and the
                // record the graph keeps for it.
                let (at, record) = match nearest_stored {
                    Some((depth, at, record)) => {
                        pending.truncate(depth);
                        (at, Some(record))
                    }
                    None => (walk.at, self.root_record(walk.at)),
                };
                let record = record.ok_or_else(|| {
                    (
                        ErrorCode::NoBase,
                        format!(
                            "no stored revision {} to boot the delta chain from",
                            hash_hex(at)
                        ),
                    )
                })?;
                let inst = decode_record(&self.metrics, at, &record)?;
                let sf = SpecialForm::new(inst).map_err(|e| {
                    (
                        ErrorCode::BadDelta,
                        format!(
                            "revision {} is not in special form ({e}); \
                             SOLVE_DELTA serves special-form chains — use SOLVE",
                            hash_hex(at)
                        ),
                    )
                })?;
                let mut parked = Parked::new(DynamicSolver::new(sf, big_r, 1));
                if pending.is_empty() {
                    parked.origin = Some(record);
                }
                (parked, DeltaMode::Booted)
            }
        };

        // Replay oldest-first up to the requested revision, checking
        // each step lands on the revision its edge was recorded under.
        let mut recomputed_x = 0;
        let replayed = pending.len() as u64;
        if replayed > 0 {
            parked.origin = None;
        }
        while let Some((expect, text)) = pending.pop() {
            let delta = Delta::parse_text(&text).map_err(|e| {
                (
                    ErrorCode::Internal,
                    format!("recorded lineage delta fails to re-parse: {e}"),
                )
            })?;
            let rep = parked.apply(&delta).map_err(|e| {
                (
                    ErrorCode::BadDelta,
                    format!("lineage replay toward {}: {e}", hash_hex(revision)),
                )
            })?;
            recomputed_x += rep.recomputed_x as u64;
            let got = parked.solver.revision();
            if got != expect {
                return Err((
                    ErrorCode::Internal,
                    format!(
                        "lineage edge {} replays to revision {}",
                        hash_hex(expect),
                        hash_hex(got)
                    ),
                ));
            }
        }

        let body = parked.body();
        let info = DeltaSolveInfo {
            mode,
            replayed,
            recomputed_x,
            n_agents: parked.solver.special_form().n_agents() as u64,
        };
        self.park(parked, big_r);
        Ok((body, info))
    }

    /// Walks lineage back from `revision`, at most [`CHAIN_CAP`] edges,
    /// until `stop` takes something at the revision the walk is on (or
    /// fails, which ends the walk with its error).
    /// Each step tries `stop` first, then follows the revision's edge; a
    /// revision with no edge (the chain's root), or one the walk has
    /// already passed (a cycle in a store written before edges were kept
    /// first), ends it with nothing found. Takes the `solvers` lock
    /// (inside `stop`) and the `lineage` lock one at a time.
    fn walk<T>(
        &self,
        revision: u64,
        mut stop: impl FnMut(u64) -> Result<Option<T>, EngineError>,
    ) -> Result<Walk<T>, EngineError> {
        let mut pending = Vec::new();
        let mut seen = HashSet::new();
        let mut at = revision;
        loop {
            if pending.len() > CHAIN_CAP {
                return Err((
                    ErrorCode::Internal,
                    format!("lineage chain exceeds {CHAIN_CAP} edges"),
                ));
            }
            if let Some(found) = stop(at)? {
                return Ok(Walk {
                    found: Some(found),
                    at,
                    pending,
                });
            }
            let edge = if seen.insert(at) {
                let graph = self.lineage.lock().expect("lineage lock");
                graph.edges.get(&at).cloned()
            } else {
                None
            };
            let Some(edge) = edge else {
                return Ok(Walk {
                    found: None,
                    at,
                    pending,
                });
            };
            pending.push((at, edge.delta_text));
            at = edge.base;
        }
    }

    /// Rebuilds the instance of `revision` from the revision graph,
    /// for a request that names a revision the instance store does not
    /// hold. The walk stops at the first revision with a solver parked
    /// at it (for any `R`) or, below `revision`, a stored record
    /// (`stored`, whose error ends the walk), else at the chain's root
    /// and its kept record; the rebuild copies that solver's instance or
    /// decodes that record, and replays the walked deltas on it, oldest
    /// first, through [`Delta::apply_unchecked`]. A replayed result must
    /// hash to `revision`.
    ///
    /// Returns the instance, or `None` when the walk ends at a revision
    /// with no instance to start from. A replay failure or a hash
    /// mismatch is `ERR INTERNAL`.
    pub fn rebuild<F>(&self, revision: u64, stored: F) -> Result<Option<Instance>, EngineError>
    where
        F: Fn(u64) -> Result<Option<Arc<[u8]>>, EngineError>,
    {
        let walk = self.walk(revision, |at| {
            if let Some(inst) = self.copy_parked(at) {
                return Ok(Some(Origin::Parked(inst)));
            }
            if at == revision {
                return Ok(None);
            }
            Ok(stored(at)?.map(|record| Origin::Stored(at, record)))
        })?;
        let origin = walk.found.or_else(|| {
            self.root_record(walk.at)
                .map(|record| Origin::Stored(walk.at, record))
        });
        let mut inst = match origin {
            None => return Ok(None),
            // A solver's maintained revision is the key it is parked
            // under: nothing to check.
            Some(Origin::Parked(inst)) if walk.pending.is_empty() => return Ok(Some(inst)),
            Some(Origin::Parked(inst)) => inst,
            Some(Origin::Stored(at, record)) => decode_record(&self.metrics, at, &record)?,
        };
        for (expect, text) in walk.pending.iter().rev() {
            inst = Delta::parse_text(text)
                .map_err(|e| e.to_string())
                .and_then(|d| d.apply_unchecked(&inst).map_err(|e| e.to_string()))
                .map_err(|e| {
                    (
                        ErrorCode::Internal,
                        format!("lineage edge {} fails to replay: {e}", hash_hex(*expect)),
                    )
                })?;
        }
        let got = instance_hash(&inst);
        if got != revision {
            return Err((
                ErrorCode::Internal,
                format!(
                    "lineage of {} rebuilds revision {}",
                    hash_hex(revision),
                    hash_hex(got)
                ),
            ));
        }
        Ok(Some(inst))
    }

    /// A copy of the instance of a solver parked at `revision`, for any
    /// `R`. Leaves recency alone.
    fn copy_parked(&self, revision: u64) -> Option<Instance> {
        let solvers = self.solvers.lock().expect("solver lock");
        let parked = solvers.find(|k| k.revision == revision)?;
        Some(parked.solver.special_form().instance().clone())
    }
}

/// The guarantee `SOLVE` reports for the solver's instance and `R`.
fn guarantee(solver: &DynamicSolver) -> f64 {
    let stats = DegreeStats::of(solver.special_form().instance());
    mmlp_core::ratio::guarantee(stats.delta_i.max(2), stats.delta_k.max(2), solver.big_r())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::execute;
    use crate::protocol::Op;
    use mmlp_instance::delta::{Edit, RowKind};
    use mmlp_instance::hash::instance_hash;
    use mmlp_instance::textfmt;

    fn coordinator() -> DeltaCoordinator {
        DeltaCoordinator::new(1 << 20, StoreMetrics::detached())
    }

    /// The instance's record, as the instance store holds it.
    fn record(inst: &Instance) -> Arc<[u8]> {
        mmlp_store::codec::encode_instance(inst).into()
    }

    fn special_instance(size: usize, seed: u64) -> Instance {
        mmlp_gen::catalog()
            .iter()
            .find(|f| f.name == "special-form")
            .unwrap()
            .instance(size, seed)
    }

    fn coef_delta(inst: &Instance, cons: u32, factor: f64) -> Delta {
        let i = mmlp_instance::ConstraintId::new(cons);
        let row = inst.constraint_row(i);
        Delta::single(
            instance_hash(inst),
            Edit::SetCoef {
                row: RowKind::Constraint,
                row_id: cons,
                agent: row[0].agent,
                coef: row[0].coef * factor,
            },
        )
    }

    #[test]
    fn rendered_body_is_bit_identical_to_solve() {
        for (size, seed) in [(16, 0), (24, 7)] {
            let inst = special_instance(size, seed);
            let sf = SpecialForm::new(inst.clone()).unwrap();
            for big_r in [2, 3] {
                let solver = DynamicSolver::new(sf.clone(), big_r, 1);
                let via_delta = Parked::new(solver).body();
                let via_solve = execute(Op::Solve, &inst, big_r, 1).unwrap();
                assert_eq!(
                    via_delta, via_solve,
                    "size {size} seed {seed} R {big_r}: the delta path must \
                     render the same bytes as SOLVE"
                );
            }
        }
    }

    #[test]
    fn cost_counts_the_repair_memo_as_laid_out() {
        let inst = special_instance(40, 2);
        for big_r in [2, 3, 5] {
            let sf = SpecialForm::new(inst.clone()).unwrap();
            let mut parked = Parked::new(DynamicSolver::new(sf, big_r, 1));
            let before = parked.cost();
            parked.apply(&coef_delta(&inst, 0, 1.5)).unwrap();
            let memo = parked.solver().scratch_bytes() as u64;
            let n = inst.n_agents() as u64;
            assert!(
                memo >= 48 * n * (big_r as u64 - 1),
                "R {big_r}: the repair lays out slots and slopes"
            );
            assert!(
                parked.cost() >= before + memo,
                "R {big_r}: cost {} must cover the {memo} memo bytes on top of {before}",
                parked.cost()
            );
        }
    }

    #[test]
    fn warm_advanced_and_booted_all_agree_with_scratch() {
        let coordinator = coordinator();
        let v0 = special_instance(20, 3);
        let store: Mutex<HashMap<u64, Arc<[u8]>>> = Mutex::new(HashMap::new());
        store
            .lock()
            .unwrap()
            .insert(instance_hash(&v0), record(&v0));
        let fetch = |h: u64| Ok(store.lock().unwrap().get(&h).cloned());

        // Register a 3-edit chain v0 → v1 → v2 → v3.
        let mut cur = v0.clone();
        let mut tip = instance_hash(&v0);
        for (cons, factor) in [(0u32, 1.5), (2, 0.8), (1, 1.1)] {
            let d = coef_delta(&cur, cons, factor);
            let (next, lin) = d.apply_hashed(&cur).unwrap();
            coordinator.record(lin.new, lin.base, d.to_text(), || None);
            cur = next;
            tip = lin.new;
        }

        // Cold: boots at v0, replays 3 deltas.
        let (body, info) = coordinator.solve(tip, 3, fetch).unwrap();
        assert_eq!(info.mode, DeltaMode::Booted);
        assert_eq!(info.replayed, 3);
        assert!(info.recomputed_x > 0);
        assert_eq!(body, execute(Op::Solve, &cur, 3, 1).unwrap());

        // Warm: the solver is parked at the tip now.
        let (again, info) = coordinator.solve(tip, 3, fetch).unwrap();
        assert_eq!(info.mode, DeltaMode::Warm);
        assert_eq!(again, body);

        // Advanced: one more edit moves the parked solver forward.
        let d = coef_delta(&cur, 4, 2.0);
        let (v4, lin) = d.apply_hashed(&cur).unwrap();
        coordinator.record(lin.new, lin.base, d.to_text(), || None);
        let (body4, info) = coordinator.solve(lin.new, 3, fetch).unwrap();
        assert_eq!(info.mode, DeltaMode::Advanced);
        assert_eq!(info.replayed, 1);
        assert_eq!(body4, execute(Op::Solve, &v4, 3, 1).unwrap());
        assert_eq!(coordinator.solver_stats().0, 1, "one solver, re-parked");
    }

    #[test]
    fn structural_replays_re_render_the_whole_body() {
        // A new constraint raises some agents' degree (and can change
        // the guarantee line); the parked x lines must follow.
        let coordinator = coordinator();
        let v0 = special_instance(20, 3);
        let h0 = instance_hash(&v0);
        let rec = record(&v0);
        let fetch = |h: u64| Ok((h == h0).then(|| Arc::clone(&rec)));
        coordinator.solve(h0, 3, fetch).unwrap();
        let d = Delta::single(
            h0,
            Edit::AddRow {
                row: RowKind::Constraint,
                entries: vec![
                    (mmlp_instance::AgentId::new(0), 0.8),
                    (mmlp_instance::AgentId::new(5), 1.2),
                ],
            },
        );
        let (v1, lin) = d.apply_hashed(&v0).unwrap();
        coordinator.record(lin.new, h0, d.to_text(), || None);
        let (body, info) = coordinator.solve(lin.new, 3, fetch).unwrap();
        assert_eq!(info.mode, DeltaMode::Advanced);
        assert_eq!(body, execute(Op::Solve, &v1, 3, 1).unwrap());
        // And a coefficient edit on top refreshes from there.
        let d2 = coef_delta(&v1, 3, 1.3);
        let (v2, lin2) = d2.apply_hashed(&v1).unwrap();
        coordinator.record(lin2.new, lin.new, d2.to_text(), || None);
        let (body, _) = coordinator.solve(lin2.new, 3, fetch).unwrap();
        assert_eq!(body, execute(Op::Solve, &v2, 3, 1).unwrap());
    }

    #[test]
    fn unknown_root_is_nobase_and_non_special_is_baddelta() {
        let coordinator = coordinator();
        let err = coordinator.solve(0xdead, 3, |_| Ok(None)).unwrap_err();
        assert_eq!(err.0, ErrorCode::NoBase);

        // A general (non-special-form) instance at the chain root.
        let general = mmlp_gen::catalog()
            .iter()
            .find(|f| f.name == "random-3x3")
            .unwrap()
            .instance(12, 0);
        let h = instance_hash(&general);
        let rec = record(&general);
        let err = coordinator
            .solve(h, 3, |q| Ok((q == h).then(|| Arc::clone(&rec))))
            .unwrap_err();
        assert_eq!(err.0, ErrorCode::BadDelta);
    }

    #[test]
    fn a_replayed_edge_must_land_on_the_revision_it_was_recorded_under() {
        let coordinator = coordinator();
        let v0 = special_instance(20, 3);
        let h0 = instance_hash(&v0);
        let d = coef_delta(&v0, 0, 1.5);
        let rec = record(&v0);
        let fetch = |h: u64| Ok((h == h0).then(|| Arc::clone(&rec)));
        // An edge whose key is not the content hash its delta replays
        // to: serving it would cache the wrong revision's body under it.
        let bogus = 0x0123_4567_89ab_cdef;
        coordinator.record(bogus, h0, d.to_text(), || None);
        let err = coordinator.solve(bogus, 3, fetch).unwrap_err();
        assert_eq!(err.0, ErrorCode::Internal, "{err:?}");
        assert_eq!(coordinator.solver_stats().0, 0, "nothing parked");
        // The honest edge still resolves.
        let (_, lin) = d.apply_hashed(&v0).unwrap();
        coordinator.record(lin.new, h0, d.to_text(), || None);
        assert!(coordinator.solve(lin.new, 3, fetch).is_ok());
    }

    #[test]
    fn rebuild_replays_coefficient_and_structural_edges() {
        let coordinator = coordinator();
        let v0 = special_instance(20, 3);
        let h0 = instance_hash(&v0);
        let rec = record(&v0);
        let stored = |h: u64| Ok((h == h0).then(|| Arc::clone(&rec)));
        // v0 → v1 (coefficient) → v2 (new constraint) → v3
        // (coefficient), with only v0 stored and nothing parked.
        let mut revisions = Vec::new();
        let mut cur = v0.clone();
        for step in 0..3 {
            let d = if step == 1 {
                Delta::single(
                    instance_hash(&cur),
                    Edit::AddRow {
                        row: RowKind::Constraint,
                        entries: vec![
                            (mmlp_instance::AgentId::new(1), 0.9),
                            (mmlp_instance::AgentId::new(6), 1.1),
                        ],
                    },
                )
            } else {
                coef_delta(&cur, step, 1.75)
            };
            let (next, lin) = d.apply_hashed(&cur).unwrap();
            coordinator.record(lin.new, lin.base, d.to_text(), || None);
            revisions.push((lin.new, next.clone()));
            cur = next;
        }
        for (rev, inst) in &revisions {
            let got = coordinator.rebuild(*rev, stored).unwrap().unwrap();
            assert_eq!(textfmt::write_instance(&got), textfmt::write_instance(inst));
        }
        // The root and unknown hashes are not the graph's to rebuild.
        assert!(coordinator.rebuild(h0, stored).unwrap().is_none());
        assert!(coordinator.rebuild(0xdead, stored).unwrap().is_none());
        // A solver parked at the tip, for any `R`, is copied, and
        // revisions below it still replay from the stored root.
        let (tip, tip_inst) = &revisions[2];
        coordinator.solve(*tip, 2, stored).unwrap();
        let got = coordinator.rebuild(*tip, |_| Ok(None)).unwrap().unwrap();
        assert_eq!(
            textfmt::write_instance(&got),
            textfmt::write_instance(tip_inst)
        );
        let (mid, mid_inst) = &revisions[1];
        let got = coordinator.rebuild(*mid, stored).unwrap().unwrap();
        assert_eq!(
            textfmt::write_instance(&got),
            textfmt::write_instance(mid_inst)
        );
        assert!(coordinator.rebuild(*mid, |_| Ok(None)).unwrap().is_none());
    }

    #[test]
    fn the_graph_stays_a_forest_and_keeps_its_roots() {
        let coordinator = coordinator();
        let v0 = special_instance(20, 3);
        let h0 = instance_hash(&v0);
        let d = coef_delta(&v0, 0, 2.0);
        let (v1, lin) = d.apply_hashed(&v0).unwrap();
        let back = coef_delta(&v1, 0, 0.5);
        // v0 becomes the chain's root, and the graph keeps its record.
        assert!(coordinator.record(lin.new, h0, d.to_text(), || Some(record(&v0))));
        // A second edge into v1 is refused, and so is the revert into
        // the root, which would close a cycle.
        assert!(!coordinator.record(lin.new, 0xdead, back.to_text(), || None));
        assert!(!coordinator.record(h0, lin.new, back.to_text(), || None));
        assert_eq!(coordinator.lineage_len(), 1);
        // With nothing stored, v1 is rebuilt and booted from the root.
        assert!(coordinator.knows(lin.new) && coordinator.knows(h0));
        let got = coordinator.rebuild(lin.new, |_| Ok(None)).unwrap().unwrap();
        assert_eq!(textfmt::write_instance(&got), textfmt::write_instance(&v1));
        let (body, info) = coordinator.solve(lin.new, 3, |_| Ok(None)).unwrap();
        assert_eq!(info.mode, DeltaMode::Booted);
        assert_eq!(body, execute(Op::Solve, &v1, 3, 1).unwrap());
    }

    #[test]
    fn a_restored_cycle_ends_the_walk() {
        let v0 = special_instance(20, 3);
        let h0 = instance_hash(&v0);
        let d = coef_delta(&v0, 0, 2.0);
        let (v1, lin) = d.apply_hashed(&v0).unwrap();
        let back = coef_delta(&v1, 0, 0.5);
        // A store written before edges were kept first can hold a
        // revert's edge into the root: restored, the two edges cycle.
        let coordinator = coordinator();
        let edge = |base: u64, delta: &Delta| LineageEdge {
            base,
            delta_text: delta.to_text(),
        };
        let edges = vec![(lin.new, edge(h0, &d)), (h0, edge(lin.new, &back))];
        assert_eq!(coordinator.restore(edges, |_| None), (2, 0));
        // Walks end where they come round instead of running to
        // CHAIN_CAP: no root, so nothing to boot or rebuild from.
        let err = coordinator.solve(lin.new, 3, |_| Ok(None)).unwrap_err();
        assert_eq!(err.0, ErrorCode::NoBase, "{err:?}");
        assert!(coordinator
            .rebuild(lin.new, |_| Ok(None))
            .unwrap()
            .is_none());
        // A rebuild stops at the stored revision before it comes round.
        let rec = record(&v0);
        let stored = |h: u64| Ok((h == h0).then(|| Arc::clone(&rec)));
        let got = coordinator.rebuild(lin.new, stored).unwrap().unwrap();
        assert_eq!(textfmt::write_instance(&got), textfmt::write_instance(&v1));
    }

    #[test]
    fn restore_drops_chains_whose_root_does_not_hash_to_its_key() {
        let v0 = special_instance(20, 3);
        let h0 = instance_hash(&v0);
        let d = coef_delta(&v0, 0, 2.0);
        let (v1, lin) = d.apply_hashed(&v0).unwrap();
        let edge = |base: u64, text: String| LineageEdge {
            base,
            delta_text: text,
        };
        // A chain recorded under another hash version: its root key
        // names `v0`, but `v0` hashes to `h0` now, so replaying its
        // edges could never land on the keys they were recorded under.
        let (old_root, old_1, old_2) = (0x1111, 0x2222, 0x3333);
        let edges = vec![
            (lin.new, edge(h0, d.to_text())),
            (old_1, edge(old_root, d.to_text())),
            (old_2, edge(old_1, coef_delta(&v1, 1, 0.5).to_text())),
        ];
        let root = |h: u64| (h == h0 || h == old_root).then(|| (record(&v0), v0.clone()));
        let coordinator = coordinator();
        assert_eq!(coordinator.restore(edges, root), (1, 2));
        assert_eq!(coordinator.lineage_len(), 1);
        // The dropped revisions are unknown, not broken: a rebuild has
        // nothing to start from and a solve nothing to boot.
        assert!(!coordinator.knows(old_2) && !coordinator.knows(old_root));
        assert!(coordinator.rebuild(old_2, |_| Ok(None)).unwrap().is_none());
        let err = coordinator.solve(old_2, 3, |_| Ok(None)).unwrap_err();
        assert_eq!(err.0, ErrorCode::NoBase, "{err:?}");
        // The chain whose root hashes to its key replays as before.
        let (body, info) = coordinator.solve(lin.new, 3, |_| Ok(None)).unwrap();
        assert_eq!((info.mode, info.replayed), (DeltaMode::Booted, 1));
        assert_eq!(body, execute(Op::Solve, &v1, 3, 1).unwrap());
    }

    #[test]
    fn refreshed_x_lines_equal_a_fresh_render() {
        let mut x = vec![0.5, 1.0 / 3.0, 2.0, 0.0, 7.25];
        let mut lines = XLines::render(&x);
        for (v, val) in [
            (1, 0.25),
            (4, 1e-300),
            (0, 0.5),
            (1, 123456.0),
            (3, 0.1 + 0.2),
        ] {
            x[v] = val;
            lines.refresh(&x);
            let fresh = XLines::render(&x);
            assert_eq!(lines.text, fresh.text, "after x[{v}] = {val}");
            assert_eq!(lines.off, fresh.off);
        }
    }

    #[test]
    fn inline_advance_registers_nothing_until_committed() {
        let coordinator = coordinator();
        let v0 = special_instance(20, 3);
        let h0 = instance_hash(&v0);
        let rec = record(&v0);
        let (_, info) = coordinator
            .solve(h0, 3, |h| Ok((h == h0).then(|| Arc::clone(&rec))))
            .unwrap();
        assert_eq!(info.mode, DeltaMode::Booted);
        let d = coef_delta(&v0, 2, 0.75);
        let (v1, lin) = d.apply_hashed(&v0).unwrap();
        let parked = coordinator.checkout(h0, 3).expect("parked at the base");
        assert_eq!(coordinator.solver_stats().0, 0, "checked out");
        let adv = coordinator
            .advance(InlineDelta {
                parked,
                delta: d,
                big_r: 3,
            })
            .unwrap();
        assert_eq!(adv.new, lin.new);
        assert_eq!(adv.info.mode, DeltaMode::Advanced);
        assert_eq!(adv.body, execute(Op::Solve, &v1, 3, 1).unwrap());
        assert_eq!(coordinator.lineage_len(), 0, "registration is the loop's");
        // A bad delta leaves the solver as it was and parks it back.
        let bad = Delta::single(
            lin.new,
            Edit::SetCoef {
                row: RowKind::Constraint,
                row_id: 9999,
                agent: mmlp_instance::AgentId::new(0),
                coef: 1.0,
            },
        );
        coordinator.park(adv.parked, 3);
        let parked = coordinator.checkout(lin.new, 3).unwrap();
        let err = coordinator
            .advance(InlineDelta {
                parked,
                delta: bad,
                big_r: 3,
            })
            .err()
            .unwrap();
        assert_eq!(err.0, ErrorCode::BadDelta);
        assert!(coordinator.checkout(lin.new, 3).is_some(), "parked back");
    }

    #[test]
    fn lineage_survives_a_canonical_text_round_trip() {
        // What put_delta persists is what replay parses.
        let inst = special_instance(16, 1);
        let d = coef_delta(&inst, 1, 1.25);
        let text = d.to_text();
        let back = Delta::parse_text(&text).unwrap();
        assert_eq!(back, d);
        let _ = textfmt::write_instance(&d.apply(&inst).unwrap());
    }
}
