//! The sockets-free core of the service: resolve an instance source,
//! execute a solver op, and cache the reply body under its
//! content-addressed key.
//!
//! Splitting this from the TCP layer keeps the whole hot path — cache
//! probe, solve, insert — directly benchmarkable (see the `serve_cache`
//! criterion bench) and unit-testable without a listener.
//!
//! **Cache correctness.** Every solver in this workspace is
//! deterministic for a fixed `(instance, R)`: the local algorithm is a
//! constant-radius per-node computation, the simplex is sequential, and
//! a request runs start to finish on the one pool worker that picked it
//! up. Reply bodies render floats with Rust's
//! shortest-round-trip formatting, so a cache hit is **bit-identical**
//! to the cold solve it replaces; the e2e suite asserts exactly that
//! over real sockets.

use crate::cache::{ShardKey, ShardedLru, SHARDS};
use crate::delta::{Advanced, DeltaCoordinator, DeltaSolveInfo, InlineDelta, LineageEdge};
use crate::protocol::{ErrorCode, Op, LINEAGE_OP_CODE};
use crate::stats::StoreMetrics;
use mmlp_core::safe::safe_solution;
use mmlp_core::smoothing::SpecialTrace;
use mmlp_core::solver::LocalSolver;
use mmlp_instance::delta::{Delta, Lineage};
use mmlp_instance::hash::{fnv1a64, hash_hex, instance_hash};
use mmlp_instance::{textfmt, DegreeStats, Instance};
use mmlp_lp::solve_maxmin;
use mmlp_store::codec::{decode_instance, encode_instance};
use mmlp_store::{OpenReport, RecordRef, ResultKey, Store, StoreConfig};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The result-cache key: everything that determines a reply body.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Canonical instance content hash.
    pub instance: u64,
    /// The operation.
    pub op: Op,
    /// Locality parameter (0 for R-insensitive ops).
    pub big_r: usize,
}

impl ShardKey for CacheKey {
    /// Result-cache entries shard by the *instance* hash's low bits, so
    /// all ops on one instance colocate and a STATS aggregation over
    /// shards sees each instance's footprint in one place.
    fn shard(&self) -> usize {
        (self.instance & (SHARDS as u64 - 1)) as usize
    }
}

impl CacheKey {
    /// Builds the key, normalising R away for ops that ignore it so
    /// equivalent requests share one entry.
    ///
    /// `_threads`: ignored; the benchmark PR (ROADMAP item 9) removes it.
    pub fn new(instance: u64, op: Op, big_r: usize, _threads: usize) -> Self {
        let big_r = match op {
            Op::Solve | Op::SolveDelta => big_r,
            // OPTIMUM/SAFE/INFO ignore R.
            _ => 0,
        };
        CacheKey {
            instance,
            op,
            big_r,
        }
    }
}

/// A request failure, mapped onto a wire error code.
pub type EngineError = (ErrorCode, String);

/// An instance record and its instance, decoded.
pub(crate) type Decoded = (Arc<[u8]>, Instance);

/// How a `SOLVE_DELTA inline:` continues after [`Engine::start_inline`].
pub enum InlineStart {
    /// A solver was parked at the delta's base and is checked out:
    /// advance it on a worker ([`Engine::advance_inline`]).
    Parked(Box<InlineDelta>),
    /// The delta was registered like `PUT_DELTA`; serve its new revision
    /// from the cache or [`Engine::solve_delta`].
    Registered(Lineage),
    /// The delta's base must first be read from its record on disk or
    /// rebuilt from the revision graph: register it
    /// ([`Engine::register_delta`]) on a pool worker.
    Fetch(Delta),
}

/// Where the event loop finds a revision named by hash
/// ([`Engine::lookup`]).
pub enum Lookup {
    /// The instance store holds its codec record: decode it on a pool
    /// worker, never on the loop.
    Stored(Arc<[u8]>),
    /// Its record on disk or the revision graph has it: [`Engine::fetch`]
    /// it on a pool worker, where the read and decode, or the walk and
    /// replays, run under the request timeout rather than on the loop.
    Fetch,
    /// Memory, disk and the revision graph all miss it.
    Missing,
}

/// What a warm start loaded from the persistent store at boot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WarmStart {
    /// Instance records indexed. None is decoded at boot (chain roots
    /// aside): each is read from its record when a request names it.
    pub instances: u64,
    /// Result bodies loaded into the result cache.
    pub results: u64,
    /// Delta lineage edges replayed into the revision graph.
    pub lineage: u64,
    /// Lineage edges dropped because their chain's root instance does
    /// not hash to the key the chain was recorded under (chains a
    /// hash-v1 server wrote): replaying them could never land on their
    /// recorded revisions.
    pub lineage_dropped: u64,
}

/// The cache + store pair behind the server (and the bench), with an
/// optional persistent [`Store`] underneath: when mounted, `PUT`
/// instances and solved results are appended to disk as they arrive; a
/// fresh engine loads the result cache and the revision graph from the
/// store's open scan, so a restart turns previously-solved requests
/// back into bit-identical cache hits. The instance store is then a
/// read-through cache over the persistent one.
///
/// An instance at rest is its codec record ([`mmlp_store::codec`]), the
/// bytes an instance record carries on disk: the instance store holds
/// records, charged their length, and the revision graph's chain roots
/// and parked solvers' origins share them. A record is decoded on the
/// pool worker of a request that needs its instance.
pub struct Engine {
    results: ShardedLru<CacheKey, Arc<String>>,
    store: ShardedLru<u64, Arc<[u8]>>,
    delta: DeltaCoordinator,
    persist: Option<Store>,
    persist_errors: AtomicU64,
    warm: WarmStart,
    metrics: StoreMetrics,
}

/// What the warm start takes from the live records the store hands it:
/// result bodies into the result cache, lineage edges for the revision
/// graph, and a count of the instance records, none of which it
/// decodes.
#[derive(Default)]
struct WarmLoad {
    instances: u64,
    /// Body bytes loaded per result-cache shard.
    shard_used: [u64; SHARDS],
    edges: Vec<(u64, LineageEdge)>,
}

impl WarmLoad {
    fn load(&mut self, engine: &Engine, record: RecordRef<'_>) {
        let (rkey, body) = match record {
            RecordRef::Instance { .. } => {
                self.instances += 1;
                return;
            }
            RecordRef::Result { key, body } => (key, body),
        };
        let Ok(text) = std::str::from_utf8(body) else {
            return; // a damaged body is skipped, not served
        };
        // Lineage records (op namespace 5) rebuild the revision graph
        // in full: they are tiny (one delta text each) and not
        // LRU-budgeted, so a restarted node can replay any registered
        // chain on demand.
        if rkey.op == LINEAGE_OP_CODE {
            // A damaged record is tolerated: its chain re-boots.
            if let Ok(delta) = Delta::parse_text(text) {
                let edge = LineageEdge {
                    base: delta.base,
                    delta_text: text.to_owned(),
                };
                self.edges.push((rkey.instance, edge));
            }
            return;
        }
        let Some(op) = Op::from_code(rkey.op) else {
            return; // a foreign producer's namespace
        };
        // Every persisted `threads` value reads onto the one key: bodies
        // never depended on it, so a later record replaces an equal
        // body. A shard stops loading at its slice of the budget:
        // inserting a body only to evict an earlier one would cost boot
        // time for nothing, so what is loaded is exactly what is
        // resident.
        let key = CacheKey::new(rkey.instance, op, rkey.big_r as usize, 1);
        let cost = text.len() as u64;
        let used = &mut self.shard_used[key.shard()];
        if *used + cost <= engine.results.budget() / SHARDS as u64
            && engine.results.insert(key, Arc::new(text.to_owned()), cost)
        {
            *used += cost;
        }
    }
}

impl Engine {
    /// Creates a memory-only engine with the given result-cache and
    /// instance-store budgets, both in bytes.
    pub fn new(cache_bytes: u64, store_bytes: u64) -> Self {
        Engine::with_metrics(cache_bytes, store_bytes, StoreMetrics::detached())
    }

    /// [`Engine::new`], updating `metrics` as it decodes records.
    pub(crate) fn with_metrics(cache_bytes: u64, store_bytes: u64, metrics: StoreMetrics) -> Self {
        Engine {
            results: ShardedLru::new(cache_bytes),
            store: ShardedLru::new(store_bytes),
            // Parked delta solvers share the instance-store budget: both
            // hold O(instance) state, so one knob bounds both.
            delta: DeltaCoordinator::new(store_bytes, metrics.clone()),
            persist: None,
            persist_errors: AtomicU64::new(0),
            warm: WarmStart::default(),
            metrics,
        }
    }

    /// Opens the persistent store at `dir` and warm-starts from the
    /// same scan: each live record comes borrowed from the segment
    /// bytes `Store::open` has just read and verified, so result bodies
    /// and lineage texts load with no further read or checksum, and no
    /// instance record is decoded but a lineage chain's root. This is
    /// how a server boots; `metrics` receive the store's reads and
    /// appends. Result records in foreign `op` namespaces (e.g. lab
    /// spills sharing the store) are left on disk untouched.
    pub fn open_store(
        cache_bytes: u64,
        store_bytes: u64,
        dir: &Path,
        metrics: StoreMetrics,
    ) -> std::io::Result<(Self, OpenReport)> {
        let engine = Engine::with_metrics(cache_bytes, store_bytes, metrics);
        let mut warm = WarmLoad::default();
        let (persist, report) = Store::open_visit(dir, StoreConfig::default(), |record| {
            warm.load(&engine, record)
        })?;
        Ok((engine.mount(persist, warm), report))
    }

    /// Warm-starts an engine from a store opened elsewhere, like
    /// [`Engine::open_store`] but with one more sequential read and
    /// verification of each shard ([`Store::visit_live`]).
    pub fn with_store(cache_bytes: u64, store_bytes: u64, persist: Store) -> std::io::Result<Self> {
        let engine = Engine::new(cache_bytes, store_bytes);
        let mut warm = WarmLoad::default();
        persist.visit_live(|record| warm.load(&engine, record))?;
        Ok(engine.mount(persist, warm))
    }

    /// Mounts `persist` under a warm-loaded engine: times its appends,
    /// and restores the revision graph, reading each chain's root from
    /// its record and decoding it (the hash-v1 chain check needs it).
    fn mount(self, mut persist: Store, warm: WarmLoad) -> Engine {
        let append_us = self.metrics.append_us.clone();
        persist.observe_appends(move |d| append_us.record(d.as_micros() as u64));
        let mut engine = Engine {
            persist: Some(persist),
            ..self
        };
        // An undecodable root is restored without its instance: a
        // request that reaches it gets the read's error, and boot goes
        // on.
        let (kept, dropped) = engine
            .delta
            .restore(warm.edges, |h| engine.stored_decoded(h).ok().flatten());
        engine.warm = WarmStart {
            instances: warm.instances,
            results: engine.results.stats().0 as u64,
            lineage: kept as u64,
            lineage_dropped: dropped as u64,
        };
        engine
    }

    /// What the warm start loaded (zeros for a memory-only engine).
    pub fn warm_start(&self) -> WarmStart {
        self.warm
    }

    /// Whether a persistent store is mounted.
    pub fn is_persistent(&self) -> bool {
        self.persist.is_some()
    }

    /// Failed disk appends so far (serving continued from memory).
    pub fn persist_errors(&self) -> u64 {
        self.persist_errors.load(Ordering::Relaxed)
    }

    /// A persistence failure must not fail the request — the reply is
    /// already computed and correct; only its durability is degraded.
    fn note_persist<T>(&self, r: std::io::Result<T>) {
        if r.is_err() {
            self.persist_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Parses and stores an instance; returns its canonical content
    /// hash, taken over the parsed structure. Semantically identical
    /// uploads (modulo comments, whitespace, line endings) dedupe onto
    /// one entry. The store holds the instance's codec record, charged
    /// its length, and persists the same bytes.
    pub fn put(&self, text: &str) -> Result<u64, EngineError> {
        self.upload(text).map(|(h, _)| h)
    }

    /// [`Engine::put`], also returning the parsed instance: `SOLVE
    /// inline:` hands it to its worker, which then decodes nothing.
    pub(crate) fn upload(&self, text: &str) -> Result<(u64, Instance), EngineError> {
        let inst = textfmt::parse_instance(text)
            .map_err(|e| (ErrorCode::BadReq, format!("parse: {e}")))?;
        let h = instance_hash(&inst);
        self.keep(h, &inst, "instance")?;
        Ok((h, inst))
    }

    /// Stores `inst`, whose hash is `hash`, as its codec record unless
    /// the store already holds one, and persists the record when a
    /// store is mounted (the append dedupes on the hash). `what` names
    /// an instance too large for its shard in the `BADREQ` that refuses
    /// it.
    fn keep(&self, hash: u64, inst: &Instance, what: &str) -> Result<(), EngineError> {
        let record = match self.store.get(&hash) {
            Some(record) => record,
            None => {
                let record: Arc<[u8]> = encode_instance(inst).into();
                let cost = record.len() as u64;
                if !self.store.insert(hash, Arc::clone(&record), cost) {
                    return Err((
                        ErrorCode::BadReq,
                        format!("{what} ({cost} bytes) exceeds the store budget"),
                    ));
                }
                record
            }
        };
        // Persist outside the LRU lock.
        if let Some(p) = &self.persist {
            self.note_persist(p.put_instance_blob(hash, &record));
        }
        Ok(())
    }

    /// Decodes `record`, the instance record held under `hash`, counting
    /// and timing the decode. A record that does not decode is `ERR
    /// INTERNAL` naming the key.
    pub(crate) fn decode(&self, hash: u64, record: &[u8]) -> Result<Instance, EngineError> {
        decode_record(&self.metrics, hash, record)
    }

    /// Fetches an instance by content hash: the instance store's record,
    /// else its record on disk, else a delta revision rebuilt from the
    /// lineage graph ([`DeltaCoordinator::rebuild`]); either of the last
    /// two is then stored.
    pub fn fetch(&self, hash: u64) -> Result<Arc<Instance>, EngineError> {
        self.resolve(hash)?
            .map(Arc::new)
            .ok_or_else(|| not_found(hash))
    }

    /// Where the event loop finds revision `hash`: a store lookup plus,
    /// on a miss, whether the persistent store's index or the revision
    /// graph knows it. Nothing is read, decoded or replayed.
    pub fn lookup(&self, hash: u64) -> Lookup {
        match self.store.get(&hash) {
            Some(record) => Lookup::Stored(record),
            None if self.on_disk(hash) || self.delta.knows(hash) => Lookup::Fetch,
            None => Lookup::Missing,
        }
    }

    /// Whether the persistent store indexes an instance record under
    /// `hash`.
    fn on_disk(&self, hash: u64) -> bool {
        self.persist.as_ref().is_some_and(|p| p.has_instance(hash))
    }

    /// The record of `hash` from memory, else from disk
    /// ([`Engine::read_through`]).
    fn stored(&self, hash: u64) -> Result<Option<Arc<[u8]>>, EngineError> {
        match self.store.get(&hash) {
            Some(record) => Ok(Some(record)),
            None => Ok(self.read_through(hash)?.map(|(record, _)| record)),
        }
    }

    /// [`Engine::stored`] with the record decoded.
    fn stored_decoded(&self, hash: u64) -> Result<Option<Decoded>, EngineError> {
        match self.store.get(&hash) {
            Some(record) => {
                let inst = self.decode(hash, &record)?;
                Ok(Some((record, inst)))
            }
            None => self.read_through(hash),
        }
    }

    /// The record of `hash` on disk and its instance. The record is
    /// inserted as read once it has decoded (one too large for its
    /// shard is still served, unstored); one that fails to read, verify
    /// or decode is `ERR INTERNAL` naming the key, and stays out of
    /// memory.
    fn read_through(&self, hash: u64) -> Result<Option<Decoded>, EngineError> {
        let Some(persist) = &self.persist else {
            return Ok(None);
        };
        let decoded = match persist.get_instance_blob(hash) {
            Ok(None) => return Ok(None),
            Ok(Some(blob)) => self.decode(hash, &blob).map(|inst| (blob, inst)),
            Err(e) => Err((
                ErrorCode::Internal,
                format!("instance record {} is unreadable: {e}", hash_hex(hash)),
            )),
        };
        let (blob, inst) = decoded.inspect_err(|_| self.metrics.reads_failed.inc())?;
        self.metrics.reads_ok.inc();
        let record: Arc<[u8]> = blob.into();
        self.store
            .insert(hash, Arc::clone(&record), record.len() as u64);
        Ok(Some((record, inst)))
    }

    /// The instance of revision `hash`: memory or its record on disk
    /// ([`Engine::stored_decoded`]), else a rebuild from the lineage
    /// graph ([`DeltaCoordinator::rebuild`]), which is checked against
    /// the hash and then stored as its record, charged like a `PUT`, so
    /// a repeat is a store hit. A rebuilt revision is not persisted: its
    /// lineage record is. `None` when memory, disk and lineage all miss.
    fn resolve(&self, hash: u64) -> Result<Option<Instance>, EngineError> {
        if let Some((_, inst)) = self.stored_decoded(hash)? {
            return Ok(Some(inst));
        }
        let Some(inst) = self.delta.rebuild(hash, |h| self.stored(h))? else {
            return Ok(None);
        };
        let record: Arc<[u8]> = encode_instance(&inst).into();
        let cost = record.len() as u64;
        // A revision too large for its shard is still served, unstored.
        self.store.insert(hash, record, cost);
        Ok(Some(inst))
    }

    /// Probes the result cache.
    pub fn cached(&self, key: &CacheKey) -> Option<Arc<String>> {
        self.results.get(key)
    }

    /// Inserts a computed reply body (and appends it to the persistent
    /// store when one is mounted).
    pub fn insert(&self, key: CacheKey, body: Arc<String>) {
        let cost = body.len() as u64;
        self.results.insert(key, Arc::clone(&body), cost);
        if let Some(p) = &self.persist {
            let rkey = ResultKey {
                instance: key.instance,
                op: key.op.code(),
                big_r: key.big_r as u32,
                threads: 1,
            };
            self.note_persist(p.put_result(rkey, &body));
        }
    }

    /// `(entries, used bytes, evictions)` of the result cache,
    /// aggregated across all shards.
    pub fn cache_stats(&self) -> (usize, u64, u64) {
        self.results.stats()
    }

    /// Per-shard eviction counters of the result cache, indexed by
    /// shard (instance-hash low bits). Exposed as the
    /// `cache_shard_evictions` metric so a skewed workload that
    /// hammers one shard's budget slice is visible.
    pub fn cache_shard_evictions(&self) -> [u64; SHARDS] {
        self.results.shard_evictions()
    }

    /// `(entries, used bytes)` of the instance store, aggregated
    /// across all shards.
    pub fn store_stats(&self) -> (usize, u64) {
        let (len, used, _) = self.store.stats();
        (len, used)
    }

    /// Registers an edit delta (canonical or liberal text) against its
    /// base revision: validates and applies it, stores the new revision
    /// instance, records the lineage edge, and persists both when a
    /// store is mounted. Returns the content-hashed lineage triple.
    pub fn put_delta(&self, text: &str) -> Result<Lineage, EngineError> {
        self.register_delta(&parse_delta(text)?)
    }

    /// [`Engine::put_delta`] of a parsed delta. The base is resolved by
    /// hash, like [`Engine::fetch`] (decoded from its record, read from
    /// disk or rebuilt when memory misses it), so it is not re-hashed;
    /// the new revision is hashed once, and stored exactly like a `PUT`
    /// of its text would be.
    pub fn register_delta(&self, delta: &Delta) -> Result<Lineage, EngineError> {
        let base = self.resolve(delta.base)?.ok_or_else(|| {
            (
                ErrorCode::NoBase,
                format!(
                    "no base revision {} (PUT it or register its lineage first)",
                    hash_hex(delta.base)
                ),
            )
        })?;
        let new_inst = delta
            .apply_unchecked(&base)
            .map_err(|e| (ErrorCode::BadDelta, format!("delta apply: {e}")))?;
        let canonical_delta = delta.to_text();
        let lineage = Lineage {
            base: delta.base,
            delta: fnv1a64(canonical_delta.as_bytes()),
            new: instance_hash(&new_inst),
        };
        // A new root keeps the store's record, else one encoded here.
        self.record_lineage(lineage.base, lineage.new, canonical_delta, || {
            let stored = self.store.get(&delta.base);
            Some(stored.unwrap_or_else(|| encode_instance(&base).into()))
        });
        self.keep(lineage.new, &new_inst, "revision")?;
        Ok(lineage)
    }

    /// Records the lineage edge `base → new` ([`DeltaCoordinator::record`]:
    /// `root` gives `base`'s instance when `base` starts a chain) and
    /// persists it when it was recorded.
    fn record_lineage(
        &self,
        base: u64,
        new: u64,
        canonical_delta: String,
        root: impl FnOnce() -> Option<Arc<[u8]>>,
    ) {
        if !self.delta.record(new, base, canonical_delta.clone(), root) {
            return;
        }
        if let Some(p) = &self.persist {
            self.note_persist(p.put_result(
                ResultKey {
                    instance: new,
                    op: LINEAGE_OP_CODE,
                    big_r: 0,
                    threads: 0,
                },
                &canonical_delta,
            ));
        }
    }

    /// Loop side of `SOLVE_DELTA inline:`. A delta that only sets
    /// constraint coefficients, against a base with a parked solver for
    /// `R`, checks that solver out for
    /// [`Engine::advance_inline`]. Anything else is registered like
    /// `PUT_DELTA` — here when its base is in memory, else on a worker —
    /// and its revision is then served by the cache or
    /// [`Engine::solve_delta`].
    pub fn start_inline(&self, text: &str, big_r: usize) -> Result<InlineStart, EngineError> {
        let delta = parse_delta(text)?;
        if delta.is_constraint_coefs() {
            if let Some(parked) = self.delta.checkout(delta.base, big_r) {
                return Ok(InlineStart::Parked(Box::new(InlineDelta {
                    parked,
                    delta,
                    big_r,
                })));
            }
        }
        if let Lookup::Fetch = self.lookup(delta.base) {
            return Ok(InlineStart::Fetch(delta));
        }
        self.register_delta(&delta).map(InlineStart::Registered)
    }

    /// Worker side of an inline delta: advances the checked-out solver
    /// in place and renders the new revision's body (see
    /// [`DeltaCoordinator::advance`]).
    pub fn advance_inline(&self, job: InlineDelta) -> Result<Advanced, EngineError> {
        self.delta.advance(job)
    }

    /// Loop side, after [`Engine::advance_inline`]: records the new
    /// revision's lineage edge (and persists it) and parks the solver
    /// there. The revision's instance stays in the solver — nothing is
    /// copied into the instance store; [`Engine::fetch`] rebuilds it
    /// when a request names it. Returns the reply's cache key, the body
    /// and the work done.
    pub fn commit_inline(&self, adv: Advanced) -> (CacheKey, String, DeltaSolveInfo) {
        let Advanced {
            mut parked,
            delta,
            new,
            big_r,
            body,
            info,
        } = adv;
        self.record_lineage(delta.base, new, delta.to_text(), || {
            parked.take_origin().or_else(|| self.store.get(&delta.base))
        });
        self.delta.park(parked, big_r);
        (CacheKey::new(new, Op::SolveDelta, big_r, 1), body, info)
    }

    /// Parks a checked-out solver back, unchanged (its inline delta
    /// never reached a worker).
    pub fn abandon_inline(&self, job: InlineDelta) {
        self.delta.park(job.parked, job.big_r);
    }

    /// `SOLVE_DELTA inline:` in one call, the way the server runs it in
    /// three ([`Engine::start_inline`], [`Engine::advance_inline`],
    /// [`Engine::commit_inline`]) — or through the cache and
    /// [`Engine::solve_delta`] when no solver is parked at the base.
    /// The body is cached under the new revision, which is returned
    /// with it.
    pub fn solve_delta_inline(
        &self,
        text: &str,
        big_r: usize,
    ) -> Result<(u64, Arc<String>), EngineError> {
        let keep = |key: CacheKey, body: String| {
            let body = Arc::new(body);
            self.insert(key, Arc::clone(&body));
            (key.instance, body)
        };
        let lin = match self.start_inline(text, big_r)? {
            InlineStart::Parked(job) => {
                let (key, body, _) = self.commit_inline(self.advance_inline(*job)?);
                return Ok(keep(key, body));
            }
            InlineStart::Registered(lin) => lin,
            InlineStart::Fetch(delta) => self.register_delta(&delta)?,
        };
        let key = CacheKey::new(lin.new, Op::SolveDelta, big_r, 1);
        if let Some(body) = self.cached(&key) {
            return Ok((lin.new, body));
        }
        Ok(keep(key, self.solve_delta(lin.new, big_r, 1)?.0))
    }

    /// Incrementally solves a registered revision via the delta
    /// coordinator (warm / advanced / booted — see [`crate::delta`]).
    /// The body is bit-identical to `SOLVE` of the same revision.
    ///
    /// `_threads`: ignored; the benchmark PR (ROADMAP item 9) removes it.
    pub fn solve_delta(
        &self,
        revision: u64,
        big_r: usize,
        _threads: usize,
    ) -> Result<(String, DeltaSolveInfo), EngineError> {
        self.delta.solve(revision, big_r, |h| self.stored(h))
    }

    /// `(lineage edges, parked solvers, parked solver bytes)`.
    pub fn delta_stats(&self) -> (usize, usize, u64) {
        let (solvers, bytes) = self.delta.solver_stats();
        (self.delta.lineage_len(), solvers, bytes)
    }
}

/// [`execute`] plus the §5 phase timings of `SOLVE` requests (`None`
/// for ops that run no §5 solve). The reply body is unchanged — the
/// timings travel beside it so caching stays body-only. A `SOLVE` of
/// an instance outside §4's domain (an agent in no objective or no
/// constraint, a coefficient the special form cannot hold) is
/// `BADREQ`; any other failure is `INTERNAL`.
pub fn execute_traced(
    op: Op,
    inst: &Instance,
    big_r: usize,
) -> Result<(String, Option<SpecialTrace>), EngineError> {
    let mut out = String::new();
    let mut phases = None;
    match op {
        Op::Solve => {
            let stats = DegreeStats::of(inst);
            let solver = LocalSolver::new(big_r.max(2));
            let (run, trace) = solver
                .solve_traced(inst)
                .map_err(|e| (ErrorCode::BadReq, format!("solve: {e}")))?;
            write_solve_header(
                &mut out,
                run.solution.utility(inst),
                solver.guarantee(stats.delta_i.max(2), stats.delta_k.max(2)),
                run.optimum_upper_bound(),
            );
            for v in inst.agents() {
                write_x_line(&mut out, v.raw(), run.solution.value(v));
            }
            phases = Some(trace);
        }
        Op::Optimum => {
            let opt = solve_maxmin(inst).map_err(|e| (ErrorCode::Internal, e.to_string()))?;
            let _ = writeln!(out, "optimum {}", opt.omega);
            for v in inst.agents() {
                write_x_line(&mut out, v.raw(), opt.solution.value(v));
            }
        }
        Op::Safe => {
            let x = safe_solution(inst);
            let _ = writeln!(out, "utility {}", x.utility(inst));
            for v in inst.agents() {
                write_x_line(&mut out, v.raw(), x.value(v));
            }
        }
        // SOLVE_DELTA never reaches the stateless executor: the server
        // routes it to the delta coordinator, which owns the parked
        // solvers its bodies are rendered from.
        Op::SolveDelta => {
            return Err((
                ErrorCode::Internal,
                "SOLVE_DELTA is handled by the delta coordinator".into(),
            ));
        }
        Op::Info => {
            let s = DegreeStats::of(inst);
            let _ = writeln!(out, "agents {}", inst.n_agents());
            let _ = writeln!(out, "constraints {}", inst.n_constraints());
            let _ = writeln!(out, "objectives {}", inst.n_objectives());
            let _ = writeln!(out, "delta_i {}", s.delta_i);
            let _ = writeln!(out, "delta_k {}", s.delta_k);
            let (di, dk) = (s.delta_i.max(2), s.delta_k.max(2));
            let _ = writeln!(out, "paper_bound {}", mmlp_core::ratio::threshold(di, dk));
            let _ = writeln!(out, "hash {}", hash_hex(instance_hash(inst)));
            match mmlp_instance::validate::check(inst) {
                Ok(()) => {
                    let _ = writeln!(out, "valid true");
                }
                Err(e) => {
                    let _ = writeln!(out, "valid false  # {e}");
                }
            }
        }
    }
    Ok((out, phases))
}

/// The summary lines of a `SOLVE` body. Every `SOLVE`-shaped body —
/// [`execute`]'s and the delta coordinator's — is these three lines and
/// then one [`write_x_line`] per agent, so equal values give equal bytes.
pub fn write_solve_header(out: &mut String, utility: f64, guarantee: f64, upper_bound: f64) {
    let _ = writeln!(out, "utility {utility}");
    let _ = writeln!(out, "guarantee {guarantee}");
    let _ = writeln!(out, "optimum_upper_bound {upper_bound}");
}

/// One `x <agent> <value>` line of a reply body.
pub fn write_x_line(out: &mut String, agent: u32, value: f64) {
    let _ = writeln!(out, "x {agent} {value}");
}

/// Decodes an instance record held under `hash` ([`Engine::decode`]),
/// counting and timing the decode in `metrics`.
pub(crate) fn decode_record(
    metrics: &StoreMetrics,
    hash: u64,
    record: &[u8],
) -> Result<Instance, EngineError> {
    let start = Instant::now();
    let inst = decode_instance(record);
    metrics.decodes.inc();
    metrics.decode_us.record(start.elapsed().as_micros() as u64);
    inst.map_err(|e| {
        (
            ErrorCode::Internal,
            format!("instance record {} fails to decode: {e}", hash_hex(hash)),
        )
    })
}

/// Parses a delta text, mapping failures onto `BADDELTA`.
pub(crate) fn parse_delta(text: &str) -> Result<Delta, EngineError> {
    Delta::parse_text(text).map_err(|e| (ErrorCode::BadDelta, format!("delta parse: {e}")))
}

/// The `NOTFOUND` error for a hash neither the store nor the revision
/// graph knows.
pub(crate) fn not_found(hash: u64) -> EngineError {
    (
        ErrorCode::NotFound,
        format!("no instance {} (PUT it first)", hash_hex(hash)),
    )
}

/// Executes one solver op against an instance and renders the reply
/// body. Pure compute: no cache, no locks — this is what the server
/// submits to the worker pool, and what the bench calls "cold".
/// `Err` is [`execute_traced`]'s one-line reason without its wire code
/// (e.g. an unbounded instance under `OPTIMUM`); such replies are never
/// cached.
///
/// `_threads`: ignored; the benchmark PR (ROADMAP item 9) removes it.
pub fn execute(op: Op, inst: &Instance, big_r: usize, _threads: usize) -> Result<String, String> {
    execute_traced(op, inst, big_r)
        .map(|(body, _)| body)
        .map_err(|(_, msg)| msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaMode;
    use mmlp_gen::catalog;
    use mmlp_instance::delta::{Edit, RowKind};
    use proptest::prelude::*;

    fn inst() -> Instance {
        catalog()
            .iter()
            .find(|f| f.name == "bandwidth")
            .unwrap()
            .instance(16, 1)
    }

    #[test]
    fn put_then_fetch_round_trips_by_content_hash() {
        let e = Engine::new(1 << 20, 1 << 20);
        let text = textfmt::write_instance(&inst());
        let h = e.put(&text).unwrap();
        assert_eq!(h, instance_hash(&inst()));
        let got = e.fetch(h).unwrap();
        assert_eq!(textfmt::write_instance(&got), text);

        // A noisy but equivalent upload dedupes to the same hash.
        let noisy = text.replace('\n', "  # c\r\n");
        assert_eq!(e.put(&noisy).unwrap(), h);
        assert_eq!(e.store_stats().0, 1);
    }

    #[test]
    fn fetch_of_unknown_hash_is_notfound() {
        let e = Engine::new(1024, 1024);
        let err = e.fetch(0xdead_beef).unwrap_err();
        assert_eq!(err.0, ErrorCode::NotFound);
    }

    #[test]
    fn put_rejects_garbage_and_oversize() {
        let e = Engine::new(1024, 64);
        assert_eq!(e.put("not an instance").unwrap_err().0, ErrorCode::BadReq);
        let text = textfmt::write_instance(&inst());
        assert!(text.len() > 64);
        assert_eq!(e.put(&text).unwrap_err().0, ErrorCode::BadReq);
    }

    #[test]
    fn execute_is_deterministic_per_op() {
        let i = inst();
        for op in [Op::Solve, Op::Optimum, Op::Safe, Op::Info] {
            let a = execute(op, &i, 3, 1).unwrap();
            let b = execute(op, &i, 3, 1).unwrap();
            assert_eq!(a, b, "{op:?} must be deterministic");
            assert!(!a.is_empty());
        }
    }

    #[test]
    fn solve_reports_its_phase_timings() {
        let i = inst();
        let (body, phases) = execute_traced(Op::Solve, &i, 3).unwrap();
        let t = phases.expect("SOLVE times its §5 phases");
        assert!(t.total_ns > 0 && t.t_eval_ns > 0, "{t:?}");
        let names: Vec<&str> = t.phase_spans().iter().map(|&(name, _)| name).collect();
        assert_eq!(names, ["t_eval", "flood", "g"]);
        let sum: u64 = t.phase_spans().iter().map(|&(_, ns)| ns).sum();
        assert!(sum <= t.total_ns, "{t:?}");
        assert_eq!(body, execute(Op::Solve, &i, 3, 1).unwrap());
        // Ops that run no §5 solve report no phases.
        let (_, none) = execute_traced(Op::Info, &i, 3).unwrap();
        assert_eq!(none, None);
    }

    #[test]
    fn cache_key_normalises_r_for_insensitive_ops() {
        let k1 = CacheKey::new(7, Op::Optimum, 3, 4);
        let k2 = CacheKey::new(7, Op::Optimum, 9, 1);
        assert_eq!(k1, k2);
        let s1 = CacheKey::new(7, Op::Solve, 3, 1);
        let s2 = CacheKey::new(7, Op::Solve, 4, 1);
        assert_ne!(s1, s2);
        // A thread count selects nothing, so it keys nothing.
        assert_eq!(s1, CacheKey::new(7, Op::Solve, 3, 2));
    }

    #[test]
    fn persistent_engine_warm_starts_bit_identically() {
        let dir = std::env::temp_dir().join(format!(
            "mmlp-engine-warm-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let text = textfmt::write_instance(&inst());
        let cold;
        let key = CacheKey::new(instance_hash(&inst()), Op::Solve, 3, 1);
        {
            let (store, _) = Store::open(&dir).unwrap();
            let e = Engine::with_store(1 << 20, 1 << 20, store).unwrap();
            assert_eq!(e.warm_start(), WarmStart::default());
            let h = e.put(&text).unwrap();
            assert_eq!(h, key.instance);
            cold = Arc::new(execute(Op::Solve, &inst(), 3, 1).unwrap());
            e.insert(key, Arc::clone(&cold));
            assert_eq!(e.persist_errors(), 0);
        }
        // A brand-new engine on the same directory: the instance is
        // fetchable and the result is a warm hit, both bit-identical.
        let (store, report) = Store::open(&dir).unwrap();
        assert_eq!((report.instances, report.results), (1, 1));
        let e = Engine::with_store(1 << 20, 1 << 20, store).unwrap();
        assert_eq!(
            e.warm_start(),
            WarmStart {
                instances: 1,
                results: 1,
                ..WarmStart::default()
            }
        );
        let back = e.fetch(key.instance).unwrap();
        assert_eq!(textfmt::write_instance(&back), text);
        let warm = e.cached(&key).expect("warm hit after restart");
        assert_eq!(warm.as_bytes(), cold.as_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn results_persisted_under_any_thread_count_load_as_one_entry() {
        let dir = std::env::temp_dir().join(format!(
            "mmlp-engine-threads-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let body = execute(Op::Solve, &inst(), 3, 1).unwrap();
        let h;
        {
            let (store, _) = Store::open(&dir).unwrap();
            h = store.put_instance(&inst()).unwrap();
            // Stores written before the key lost its thread count hold
            // one record per count a client asked for.
            for threads in [1, 2] {
                let rkey = ResultKey {
                    instance: h,
                    op: Op::Solve.code(),
                    big_r: 3,
                    threads,
                };
                store.put_result(rkey, &body).unwrap();
            }
        }
        let (store, report) = Store::open(&dir).unwrap();
        assert_eq!(report.results, 2);
        let e = Engine::with_store(1 << 20, 1 << 20, store).unwrap();
        assert_eq!(
            e.warm_start(),
            WarmStart {
                instances: 1,
                results: 1,
                ..WarmStart::default()
            }
        );
        assert_eq!(e.cache_stats().0, 1);
        let warm = e.cached(&CacheKey::new(h, Op::Solve, 3, 1)).unwrap();
        assert_eq!(warm.as_str(), body);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_result_namespaces_are_skipped_at_warm_start() {
        let dir = std::env::temp_dir().join(format!(
            "mmlp-engine-foreign-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let h;
        {
            let (store, _) = Store::open(&dir).unwrap();
            h = store.put_instance(&inst()).unwrap();
            // A lab spill shares the store under op codes ≥ 16.
            store
                .put_result(
                    ResultKey {
                        instance: h,
                        op: 16,
                        big_r: 3,
                        threads: 0,
                    },
                    "{\"job\":\"x\"}",
                )
                .unwrap();
        }
        let (store, _) = Store::open(&dir).unwrap();
        let e = Engine::with_store(1 << 20, 1 << 20, store).unwrap();
        assert_eq!(
            e.warm_start(),
            WarmStart {
                instances: 1,
                ..WarmStart::default()
            }
        );
        assert_eq!(e.cache_stats().0, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn special_inst() -> Instance {
        catalog()
            .iter()
            .find(|f| f.name == "special-form")
            .unwrap()
            .instance(16, 1)
    }

    /// A one-edit delta text bumping constraint 0's first coefficient.
    fn bump_delta(inst: &Instance) -> String {
        let e = inst.constraint_row(mmlp_instance::ids::ConstraintId::new(0))[0];
        format!(
            "mmlpdelta 1\nbase {}\nset c 0 {}:{}\n",
            hash_hex(instance_hash(inst)),
            e.agent.raw(),
            e.coef * 1.5
        )
    }

    #[test]
    fn put_delta_registers_a_solvable_revision() {
        let e = Engine::new(1 << 20, 1 << 20);
        let base = special_inst();
        e.put(&textfmt::write_instance(&base)).unwrap();
        let delta_text = bump_delta(&base);
        let lin = e.put_delta(&delta_text).unwrap();
        assert_eq!(lin.base, instance_hash(&base));
        assert_ne!(lin.new, lin.base);
        // The new revision is fetchable and SOLVE_DELTA's body is
        // bit-identical to a from-scratch SOLVE of it. `PUT_DELTA`
        // stored the revision, so the solver boots there: nothing to
        // replay.
        let new_inst = e.fetch(lin.new).unwrap();
        let (body, info) = e.solve_delta(lin.new, 3, 1).unwrap();
        assert_eq!(body, execute(Op::Solve, &new_inst, 3, 1).unwrap());
        assert_eq!((info.mode, info.replayed), (DeltaMode::Booted, 0));
        let (edges, solvers, bytes) = e.delta_stats();
        assert_eq!((edges, solvers), (1, 1));
        assert!(bytes > 0);
        // Re-registering the same delta is idempotent.
        assert_eq!(e.put_delta(&delta_text).unwrap(), lin);
        assert_eq!(e.delta_stats().0, 1);
    }

    #[test]
    fn inline_deltas_advance_the_parked_solver_and_register_the_revision() {
        let e = Engine::new(1 << 20, 1 << 20);
        let mut cur = special_inst();
        let base = e.put(&textfmt::write_instance(&cur)).unwrap();
        // Park a solver at the base.
        e.solve_delta(base, 3, 1).unwrap();
        for step in 0..4 {
            let text = bump_delta(&cur);
            let delta = Delta::parse_text(&text).unwrap();
            let Ok(InlineStart::Parked(job)) = e.start_inline(&text, 3) else {
                panic!("step {step}: a solver is parked at the base");
            };
            let (key, body, info) = e.commit_inline(e.advance_inline(*job).unwrap());
            let (next, lin) = delta.apply_hashed(&cur).unwrap();
            assert_eq!(key, CacheKey::new(lin.new, Op::SolveDelta, 3, 1));
            assert_eq!(body, execute(Op::Solve, &next, 3, 1).unwrap());
            assert_eq!((info.mode, info.replayed), (DeltaMode::Advanced, 1));
            // Registered like PUT_DELTA: stored, with its lineage edge,
            // and a re-registration lands on the same revision.
            assert_eq!(
                textfmt::write_instance(&e.fetch(lin.new).unwrap()),
                textfmt::write_instance(&next)
            );
            assert_eq!(e.delta_stats().0, step + 1);
            assert_eq!(e.put_delta(&text).unwrap(), lin);
            assert_eq!(e.delta_stats().0, step + 1);
            cur = next;
        }
        // The one-call entry takes the same path and caches the body.
        let text = bump_delta(&cur);
        let (rev, body) = e.solve_delta_inline(&text, 3).unwrap();
        let (next, lin) = Delta::parse_text(&text)
            .unwrap()
            .apply_hashed(&cur)
            .unwrap();
        assert_eq!(rev, lin.new);
        assert_eq!(*body, execute(Op::Solve, &next, 3, 1).unwrap());
        let key = CacheKey::new(rev, Op::SolveDelta, 3, 1);
        assert_eq!(e.cached(&key).unwrap(), body);
        // Against a base with no parked solver it registers instead.
        let stale = bump_delta(&cur);
        assert!(matches!(
            e.start_inline(&stale, 3),
            Ok(InlineStart::Registered(_))
        ));
    }

    #[test]
    fn a_no_op_delta_records_no_lineage_edge() {
        let e = Engine::new(1 << 20, 1 << 20);
        let base = special_inst();
        let h = e.put(&textfmt::write_instance(&base)).unwrap();
        let empty = format!("mmlpdelta 1\nbase {}\n", hash_hex(h));
        assert_eq!(e.put_delta(&empty).unwrap().new, h);
        e.solve_delta(h, 3, 1).unwrap();
        let (rev, body) = e.solve_delta_inline(&empty, 3).unwrap();
        assert_eq!(rev, h);
        assert_eq!(*body, execute(Op::Solve, &base, 3, 1).unwrap());
        assert_eq!(e.delta_stats().0, 0, "no self-edge");
        // The base still resolves (a self-edge would walk in a circle).
        assert!(e.solve_delta(h, 2, 1).is_ok());
    }

    #[test]
    fn put_delta_maps_failures_to_typed_codes() {
        let e = Engine::new(1 << 20, 1 << 20);
        assert_eq!(e.put_delta("junk").unwrap_err().0, ErrorCode::BadDelta);
        // Well-formed delta against a base this node never saw.
        let orphan = "mmlpdelta 1\nbase 00000000deadbeef\nset c 0 0:1.5\n";
        assert_eq!(e.put_delta(orphan).unwrap_err().0, ErrorCode::NoBase);
        // Valid base, invalid edit target.
        let base = special_inst();
        let h = e.put(&textfmt::write_instance(&base)).unwrap();
        let bad = format!("mmlpdelta 1\nbase {}\nset c 9999 0:1.5\n", hash_hex(h));
        assert_eq!(e.put_delta(&bad).unwrap_err().0, ErrorCode::BadDelta);
        // Unregistered revision under SOLVE_DELTA.
        assert_eq!(e.solve_delta(0xbad, 3, 1).unwrap_err().0, ErrorCode::NoBase);
    }

    #[test]
    fn restart_replays_lineage_and_solves_bit_identically() {
        let dir = std::env::temp_dir().join(format!(
            "mmlp-engine-lineage-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let base = special_inst();
        let (lin, before);
        {
            let (store, _) = Store::open(&dir).unwrap();
            let e = Engine::with_store(1 << 20, 1 << 20, store).unwrap();
            e.put(&textfmt::write_instance(&base)).unwrap();
            lin = e.put_delta(&bump_delta(&base)).unwrap();
            before = e.solve_delta(lin.new, 3, 1).unwrap().0;
            assert_eq!(e.persist_errors(), 0);
        }
        // A fresh engine on the same segments: the lineage edge is
        // replayed at warm start, and the revision, whose instance
        // `PUT_DELTA` persisted, boots where it is stored and solves
        // bit-identically with nothing to replay.
        let (store, _) = Store::open(&dir).unwrap();
        let e = Engine::with_store(1 << 20, 1 << 20, store).unwrap();
        assert_eq!(e.warm_start().lineage, 1);
        assert_eq!(e.warm_start().lineage_dropped, 0);
        assert_eq!(e.warm_start().instances, 2, "base + revision persisted");
        let (after, info) = e.solve_delta(lin.new, 3, 1).unwrap();
        assert_eq!(after, before);
        assert_eq!((info.mode, info.replayed), (DeltaMode::Booted, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_root_that_does_not_warm_start_is_read_from_its_record() {
        let dir = std::env::temp_dir().join(format!(
            "mmlp-engine-root-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let base = special_inst();
        let chain = {
            let (store, _) = Store::open(&dir).unwrap();
            let e = Engine::with_store(1 << 20, 1 << 20, store).unwrap();
            e.put(&textfmt::write_instance(&base)).unwrap();
            inline_chain(&e, &base, 4)
        };
        // A store budget too small to hold the base: the chain's root
        // is read from its instance record, which the warm start
        // indexed, and kept by the revision graph.
        let (store, _) = Store::open(&dir).unwrap();
        let e = Engine::with_store(1 << 20, 64, store).unwrap();
        assert_eq!(e.warm_start().instances, 1);
        assert_eq!(e.warm_start().lineage, 4);
        assert_eq!(e.store_stats().0, 0, "too large for its shard");
        for (rev, inst, body) in &chain {
            assert_eq!(instance_hash(&e.fetch(*rev).unwrap()), *rev);
            assert_eq!(e.solve_delta(*rev, 3, 1).unwrap().0, *body);
            assert_eq!(execute(Op::Solve, inst, 3, 1).unwrap(), *body);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mmlp-engine-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// What the instance store charges for `inst`: its record's length.
    fn record_len(inst: &Instance) -> u64 {
        encode_instance(inst).len() as u64
    }

    fn family(name: &str, size: usize, seed: u64) -> Instance {
        catalog()
            .iter()
            .find(|f| f.name == name)
            .unwrap()
            .instance(size, seed)
    }

    #[test]
    fn an_evicted_instance_is_read_back_from_its_record() {
        let dir = temp_dir("evicted");
        let insts: Vec<Instance> = (0..300).map(|seed| family("bandwidth", 16, seed)).collect();
        let max = insts.iter().map(record_len).max().unwrap();
        let (store, _) = Store::open_with(&dir, StoreConfig { fsync: false }).unwrap();
        // Room for about one instance per shard, 16 in all, against 300
        // `PUT`s: most leave memory, none leaves the disk.
        let e = Engine::with_store(1 << 20, SHARDS as u64 * (max + max / 2), store).unwrap();
        let hashes: Vec<u64> = insts
            .iter()
            .map(|i| e.put(&textfmt::write_instance(i)).unwrap())
            .collect();
        let evicted: Vec<usize> = (0..hashes.len())
            .filter(|&k| !e.store.contains(&hashes[k]))
            .take(8)
            .collect();
        assert_eq!(evicted.len(), 8);
        for &k in &evicted {
            assert!(matches!(e.lookup(hashes[k]), Lookup::Fetch), "PUT {k}");
            let got = e.fetch(hashes[k]).unwrap();
            assert_eq!(
                execute(Op::Solve, &got, 3, 1).unwrap(),
                execute(Op::Solve, &insts[k], 3, 1).unwrap(),
                "PUT {k}"
            );
        }
        assert_eq!(e.metrics.reads_ok.get(), 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_restart_that_loads_no_instance_reads_each_from_its_record() {
        let dir = temp_dir("restart-small");
        let insts = [inst(), special_inst()];
        let hashes: Vec<u64> = {
            let (store, _) = Store::open(&dir).unwrap();
            let e = Engine::with_store(1 << 20, 1 << 20, store).unwrap();
            insts
                .iter()
                .map(|i| e.put(&textfmt::write_instance(i)).unwrap())
                .collect()
        };
        // A budget too small for either instance: the boot indexes both
        // records and decodes neither.
        let (e, report) = Engine::open_store(1 << 20, 64, &dir, StoreMetrics::detached()).unwrap();
        assert_eq!(report.instances, 2);
        assert_eq!(e.warm_start().instances, 2);
        assert_eq!(e.metrics.reads_ok.get(), 0);
        assert_eq!(e.store_stats().0, 0);
        for (h, i) in hashes.iter().zip(&insts) {
            assert!(matches!(e.lookup(*h), Lookup::Fetch));
            let got = e.fetch(*h).unwrap();
            assert_eq!(
                execute(Op::Solve, &got, 3, 1).unwrap(),
                execute(Op::Solve, i, 3, 1).unwrap()
            );
        }
        assert_eq!(e.metrics.reads_ok.get(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_evicted_put_delta_revision_boots_in_place_from_its_record() {
        let dir = temp_dir("evicted-revision");
        let base = special_inst();
        let len = record_len(&base);
        let (store, _) = Store::open_with(&dir, StoreConfig { fsync: false }).unwrap();
        // About three instances per store shard.
        let e = Engine::with_store(1 << 20, 3 * len * SHARDS as u64, store).unwrap();
        e.put(&textfmt::write_instance(&base)).unwrap();
        let text = bump_delta(&base);
        let lin = e.put_delta(&text).unwrap();
        let revision = Delta::parse_text(&text).unwrap().apply(&base).unwrap();
        for seed in 0..200 {
            let other = family("special-form", 16, 100 + seed);
            e.put(&textfmt::write_instance(&other)).unwrap();
        }
        assert!(!e.store.contains(&lin.new) && !e.store.contains(&lin.base));
        // `PUT_DELTA` persisted the revision: the boot reads it from its
        // record and starts there, with nothing to replay.
        let (body, info) = e.solve_delta(lin.new, 3, 1).unwrap();
        assert_eq!((info.mode, info.replayed), (DeltaMode::Booted, 0));
        assert_eq!(body, execute(Op::Solve, &revision, 3, 1).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_undecodable_instance_record_fails_its_requests_not_the_boot() {
        use std::io::Write as _;
        let dir = temp_dir("bad-record");
        let bad = 0x0123_4567_89ab_cdef_u64;
        drop(Store::open(&dir).unwrap());
        // A checksummed record whose codec blob does not decode.
        let record = mmlp_store::Record::Instance {
            hash: bad,
            blob: b"not a codec blob".to_vec(),
        };
        let shard = mmlp_store::store::shard_of(bad);
        std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(format!("shard-{shard:02}.seg")))
            .unwrap()
            .write_all(&record.encode().unwrap())
            .unwrap();

        let (e, report) =
            Engine::open_store(1 << 20, 1 << 20, &dir, StoreMetrics::detached()).unwrap();
        assert_eq!((report.instances, report.corrupt), (1, 0));
        assert_eq!(e.warm_start().instances, 1);
        assert!(matches!(e.lookup(bad), Lookup::Fetch));
        for _ in 0..2 {
            let (code, msg) = e.fetch(bad).unwrap_err();
            assert_eq!(code, ErrorCode::Internal);
            assert!(msg.contains(&hash_hex(bad)), "{msg}");
        }
        assert_eq!(e.solve_delta(bad, 3, 1).unwrap_err().0, ErrorCode::Internal);
        assert_eq!(e.metrics.reads_failed.get(), 3);
        assert_eq!(e.metrics.reads_ok.get(), 0);
        // The bytes that failed to decode stayed out of memory.
        assert_eq!(e.store_stats(), (0, 0));
        assert!(matches!(e.lookup(bad), Lookup::Fetch));
        // The node keeps serving.
        let h = e.put(&textfmt::write_instance(&inst())).unwrap();
        assert_eq!(instance_hash(&e.fetch(h).unwrap()), h);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hash_solves_from_memory_and_from_disk_equal_solves_of_the_text() {
        let dir = temp_dir("families");
        let texts: Vec<String> = catalog()
            .iter()
            .map(|f| textfmt::write_instance(&f.instance(64, 1)))
            .collect();
        let parsed: Vec<Instance> = texts
            .iter()
            .map(|t| textfmt::parse_instance(t).unwrap())
            .collect();
        let solves = |inst: &Instance| [2, 3].map(|big_r| execute(Op::Solve, inst, big_r, 1));
        let record_bytes: u64 = parsed.iter().map(record_len).sum();
        let hashes: Vec<u64> = {
            let (store, _) = Store::open_with(&dir, StoreConfig { fsync: false }).unwrap();
            let e = Engine::with_store(1 << 20, 1 << 24, store).unwrap();
            let hashes: Vec<u64> = texts.iter().map(|t| e.put(t).unwrap()).collect();
            // The store charges each instance its record's length.
            assert_eq!(e.store_stats(), (texts.len(), record_bytes));
            for ((h, inst), text) in hashes.iter().zip(&parsed).zip(&texts) {
                let Lookup::Stored(record) = e.lookup(*h) else {
                    panic!("{text:.40}: stored in memory");
                };
                let decoded = e.decode(*h, &record).unwrap();
                assert_eq!(solves(&decoded), solves(inst), "{text:.40}");
            }
            assert_eq!(e.metrics.decodes.get(), texts.len() as u64);
            hashes
        };
        // A restart holds no instance in memory: each is read through
        // from its record on disk.
        let (e, _) = Engine::open_store(1 << 20, 1 << 24, &dir, StoreMetrics::detached()).unwrap();
        for ((h, inst), text) in hashes.iter().zip(&parsed).zip(&texts) {
            assert!(matches!(e.lookup(*h), Lookup::Fetch), "{text:.40}");
            assert_eq!(solves(&e.fetch(*h).unwrap()), solves(inst), "{text:.40}");
        }
        assert_eq!(e.metrics.reads_ok.get(), texts.len() as u64);
        assert_eq!(e.store_stats(), (texts.len(), record_bytes));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A one-edit delta scaling the first coefficient of constraint
    /// `row` (mod the row count) by `factor`.
    fn scale_delta(inst: &Instance, row: usize, factor: f64) -> Delta {
        let row = (row % inst.n_constraints()) as u32;
        let e = inst.constraint_row(mmlp_instance::ids::ConstraintId::new(row))[0];
        Delta::single(
            instance_hash(inst),
            Edit::SetCoef {
                row: RowKind::Constraint,
                row_id: row,
                agent: e.agent,
                coef: e.coef * factor,
            },
        )
    }

    /// Boots a solver at `base` for `R` = 3 and makes `n` inline edits
    /// from it. Returns each revision's hash, instance and inline body.
    fn inline_chain(e: &Engine, base: &Instance, n: usize) -> Vec<(u64, Instance, String)> {
        e.solve_delta(instance_hash(base), 3, 1).unwrap();
        let mut cur = base.clone();
        let mut chain = Vec::new();
        for step in 0..n {
            let delta = scale_delta(&cur, step, [1.5, 0.7][step % 2]);
            let (rev, body) = e.solve_delta_inline(&delta.to_text(), 3).unwrap();
            let next = delta.apply(&cur).unwrap();
            assert_eq!(rev, instance_hash(&next), "step {step}");
            chain.push((rev, next.clone(), (*body).clone()));
            cur = next;
        }
        chain
    }

    #[test]
    fn inline_revisions_are_rebuilt_when_named_not_stored_per_edit() {
        let e = Engine::new(1 << 24, 1 << 24);
        let base = special_inst();
        let base_len = record_len(&base);
        e.put(&textfmt::write_instance(&base)).unwrap();
        let chain = inline_chain(&e, &base, 60);
        // Each edit's revision lives in the parked solver and the
        // lineage graph only: the store still holds just the base.
        assert_eq!(e.store_stats(), (1, base_len));
        let mut used = base_len;
        // The tip is copied from the solver parked there; the middle
        // and first revisions are replayed from the base.
        for (label, at) in [("tip", 59), ("middle", 30), ("first", 0)] {
            let (rev, inst, body) = &chain[at];
            let got = e.fetch(*rev).unwrap();
            assert_eq!(instance_hash(&got), *rev, "{label}");
            assert_eq!(execute(Op::Solve, &got, 3, 1).unwrap(), *body, "{label}");
            // Stored at what `PUT` of its text would charge.
            used += record_len(inst);
            assert_eq!(e.store_stats().1, used, "{label}");
        }
        assert_eq!(e.store_stats().0, 4, "one entry per rebuilt revision");
        // A repeat is a store hit.
        e.fetch(chain[30].0).unwrap();
        assert_eq!(e.store_stats(), (4, used));
    }

    #[test]
    fn solve_delta_boots_at_the_stored_tip_of_a_put_delta_chain() {
        let e = Engine::new(1 << 24, 1 << 24);
        let mut cur = special_inst();
        e.put(&textfmt::write_instance(&cur)).unwrap();
        let mut tip = 0;
        for step in 0..50 {
            let delta = scale_delta(&cur, step, [1.5, 0.7][step % 2]);
            tip = e.put_delta(&delta.to_text()).unwrap().new;
            cur = delta.apply(&cur).unwrap();
        }
        // `PUT_DELTA` stored every revision: the boot starts at the
        // requested one instead of replaying 50 edges from the root.
        let (body, info) = e.solve_delta(tip, 3, 1).unwrap();
        assert_eq!((info.mode, info.replayed), (DeltaMode::Booted, 0));
        assert_eq!(body, execute(Op::Solve, &cur, 3, 1).unwrap());
    }

    #[test]
    fn solve_delta_boots_at_the_nearest_stored_revision_and_a_parked_solver_still_wins() {
        let e = Engine::new(1 << 24, 1 << 24);
        let base = special_inst();
        e.put(&textfmt::write_instance(&base)).unwrap();
        // Twelve inline edits: revision j is `chain[j - 1]`, and none
        // is stored. `SOLVE hash:` of revision 5 rebuilds and stores it.
        let chain = inline_chain(&e, &base, 12);
        e.fetch(chain[4].0).unwrap();
        // No solver for R = 2 anywhere on the chain: the boot starts
        // at revision 5, the nearest stored one, not at the root.
        let (rev, inst, _) = &chain[11];
        let (body, info) = e.solve_delta(*rev, 2, 1).unwrap();
        assert_eq!((info.mode, info.replayed), (DeltaMode::Booted, 12 - 5));
        assert_eq!(body, execute(Op::Solve, inst, 2, 1).unwrap());
        // Three stored revisions on top: the R = 2 solver parked at
        // revision 12 is advanced rather than a boot at the stored
        // revision 15 itself.
        let mut cur = inst.clone();
        let mut tip = *rev;
        for step in 0..3 {
            let delta = scale_delta(&cur, step, 1.25);
            tip = e.put_delta(&delta.to_text()).unwrap().new;
            cur = delta.apply(&cur).unwrap();
        }
        let (body, info) = e.solve_delta(tip, 2, 1).unwrap();
        assert_eq!((info.mode, info.replayed), (DeltaMode::Advanced, 3));
        assert_eq!(body, execute(Op::Solve, &cur, 2, 1).unwrap());
    }

    #[test]
    fn a_small_store_keeps_the_chain_root_and_rebuilds_old_revisions() {
        let base = special_inst();
        let base_hash = instance_hash(&base);
        let len = record_len(&base);
        // About three revisions per store shard. Had every edit stored
        // its revision, 200 of them would evict the chain's root, and
        // with it every way back to the early revisions.
        let e = Engine::new(1 << 20, 3 * len * SHARDS as u64);
        e.put(&textfmt::write_instance(&base)).unwrap();
        let chain = inline_chain(&e, &base, 200);
        assert_eq!(e.delta_stats().0, 200);
        // Another `R` boots from the root and replays to the middle.
        let (rev, inst, _) = &chain[100];
        let (body, info) = e.solve_delta(*rev, 2, 1).unwrap();
        assert_eq!((info.mode, info.replayed), (DeltaMode::Booted, 101));
        assert_eq!(body, execute(Op::Solve, inst, 2, 1).unwrap());
        assert_eq!(instance_hash(&e.fetch(base_hash).unwrap()), base_hash);
        let (rev, inst, _) = &chain[5];
        assert_eq!(
            textfmt::write_instance(&e.fetch(*rev).unwrap()),
            textfmt::write_instance(inst)
        );
    }

    #[test]
    fn a_tampered_lineage_edge_is_internal_and_stores_nothing() {
        let e = Engine::new(1 << 20, 1 << 20);
        let base = special_inst();
        let h = e.put(&textfmt::write_instance(&base)).unwrap();
        let before = e.store_stats();
        // An edge whose key is not the hash its delta produces.
        let bogus = 0x0123_4567_89ab_cdef;
        let text = scale_delta(&base, 0, 1.5).to_text();
        e.delta.record(bogus, h, text, || None);
        assert_eq!(e.fetch(bogus).unwrap_err().0, ErrorCode::Internal);
        // An edge whose delta does not apply to its base.
        let broken = 0x0fed_cba9_8765_4321;
        let text = format!("mmlpdelta 1\nbase {}\nset c 9999 0:1.5\n", hash_hex(h));
        e.delta.record(broken, h, text, || None);
        assert_eq!(e.fetch(broken).unwrap_err().0, ErrorCode::Internal);
        // A delta against the tampered revision fails the same way.
        let on_bogus = format!("mmlpdelta 1\nbase {}\nset c 0 0:1.5\n", hash_hex(bogus));
        assert_eq!(e.put_delta(&on_bogus).unwrap_err().0, ErrorCode::Internal);
        assert_eq!(e.store_stats(), before);
    }

    #[test]
    fn store_churn_between_inline_edits_loses_no_revision() {
        let base = special_inst();
        let base_hash = instance_hash(&base);
        let len = record_len(&base);
        // About three instances per store shard.
        let e = Engine::new(1 << 20, 3 * len * SHARDS as u64);
        let churn = |seeds: std::ops::Range<u64>| {
            for seed in seeds {
                let other = catalog()
                    .iter()
                    .find(|f| f.name == "special-form")
                    .unwrap()
                    .instance(16, 100 + seed);
                e.put(&textfmt::write_instance(&other)).unwrap();
            }
        };
        e.put(&textfmt::write_instance(&base)).unwrap();
        e.solve_delta(base_hash, 3, 1).unwrap();
        // The base leaves the store while its solver waits for an edit.
        churn(0..200);
        assert!(!e.store.contains(&base_hash));
        let mut cur = base.clone();
        let mut chain = Vec::new();
        for step in 0..6 {
            let delta = scale_delta(&cur, step, 1.5);
            cur = delta.apply(&cur).unwrap();
            let (rev, _) = e.solve_delta_inline(&delta.to_text(), 3).unwrap();
            chain.push((rev, cur.clone()));
            churn(200 + 50 * step as u64..250 + 50 * step as u64);
        }
        // The solver moves on (dropped, as a timed-out request drops
        // it): every revision still resolves from the chain's root.
        assert!(e.delta.checkout(chain[5].0, 3).is_some());
        for (rev, inst) in &chain {
            assert_eq!(
                textfmt::write_instance(&e.fetch(*rev).unwrap()),
                textfmt::write_instance(inst)
            );
            churn(600..800);
            let (body, _) = e.solve_delta(*rev, 2, 1).unwrap();
            assert_eq!(body, execute(Op::Solve, inst, 2, 1).unwrap());
        }
        assert_eq!(instance_hash(&e.fetch(base_hash).unwrap()), base_hash);
        // An edit back to the evicted root adds no edge into it.
        let back = Delta::single(
            chain[0].0,
            scale_delta(&chain[0].1, 0, 1.0 / 1.5).edits[0].clone(),
        );
        assert_eq!(e.put_delta(&back.to_text()).unwrap().new, base_hash);
        assert_eq!(e.delta_stats().0, 6);
    }

    #[test]
    fn an_edit_that_reverts_to_an_earlier_revision_closes_no_cycle() {
        let e = Engine::new(1 << 20, 1 << 20);
        let a = special_inst();
        let ha = e.put(&textfmt::write_instance(&a)).unwrap();
        e.solve_delta(ha, 3, 1).unwrap();
        let b = scale_delta(&a, 0, 2.0).apply(&a).unwrap();
        let c = scale_delta(&b, 1, 2.0).apply(&b).unwrap();
        // a → b → c in place, then back to b and back to a.
        for (from, row, factor, to) in [
            (&a, 0, 2.0, &b),
            (&b, 1, 2.0, &c),
            (&c, 1, 0.5, &b),
            (&b, 0, 0.5, &a),
        ] {
            let text = scale_delta(from, row, factor).to_text();
            assert_eq!(e.solve_delta_inline(&text, 3).unwrap().0, instance_hash(to));
        }
        assert_eq!(e.delta_stats().0, 2, "the reverts add no edge");
        // Each revision still resolves, at another `R` and by hash.
        for inst in [&a, &b, &c] {
            let h = instance_hash(inst);
            let (body, _) = e.solve_delta(h, 2, 1).unwrap();
            assert_eq!(body, execute(Op::Solve, inst, 2, 1).unwrap());
            assert_eq!(instance_hash(&e.fetch(h).unwrap()), h);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Coordinator resolution against from-scratch solves: random
        /// inline edits of the latest revision, forks and structural
        /// edits off random known revisions, and `SOLVE hash:` and
        /// `SOLVE_DELTA hash:` of random known revisions go through the
        /// engine beside a reference map from revision to instance.
        /// Every body equals a from-scratch `SOLVE` of the reference.
        /// Edits share one `R`, so the latest revision's solver is
        /// usually parked for it and edits of it take the in-place path.
        #[test]
        fn delta_resolution_matches_from_scratch_solves(
            seed in 0u64..1_000,
            edit_r in 2usize..4,
            ops in proptest::collection::vec(
                (0u8..5, 0usize..1_000, 0usize..1_000, 0usize..4, 2usize..5),
                30..60,
            ),
        ) {
            let e = Engine::new(1 << 24, 1 << 24);
            let base = catalog()
                .iter()
                .find(|f| f.name == "special-form")
                .unwrap()
                .instance(12, seed);
            let h0 = e.put(&textfmt::write_instance(&base)).unwrap();
            let mut reference = std::collections::HashMap::from([(h0, base)]);
            let mut known = vec![h0];
            let mut latest = h0;
            for (kind, pick, row, factor, big_r) in ops {
                let at = known[pick % known.len()];
                let delta = match kind {
                    // An edit of the latest revision: the in-place path
                    // once a solver for this `R` is parked there.
                    0 | 1 => {
                        let from = if kind == 0 { latest } else { at };
                        scale_delta(&reference[&from], row, [0.5, 0.8, 1.25, 2.0][factor])
                    }
                    // A new constraint between two agents keeps special
                    // form and re-solves from scratch.
                    2 => {
                        let n = reference[&at].n_agents() as u32;
                        let a = row as u32 % n;
                        let b = (a + 1 + pick as u32 % (n - 1)) % n;
                        Delta::single(
                            at,
                            Edit::AddRow {
                                row: RowKind::Constraint,
                                entries: vec![
                                    (mmlp_instance::AgentId::new(a), 0.5 + factor as f64),
                                    (mmlp_instance::AgentId::new(b), 1.0),
                                ],
                            },
                        )
                    }
                    3 => {
                        let inst = e.fetch(at).unwrap();
                        prop_assert_eq!(instance_hash(&inst), at);
                        prop_assert_eq!(
                            execute(Op::Solve, &inst, big_r, 1).unwrap(),
                            execute(Op::Solve, &reference[&at], big_r, 1).unwrap()
                        );
                        continue;
                    }
                    _ => {
                        let (body, _) = e.solve_delta(at, big_r, 1).unwrap();
                        prop_assert_eq!(
                            body,
                            execute(Op::Solve, &reference[&at], big_r, 1).unwrap()
                        );
                        continue;
                    }
                };
                let next = delta.apply(&reference[&delta.base]).unwrap();
                let (rev, body) = e.solve_delta_inline(&delta.to_text(), edit_r).unwrap();
                prop_assert_eq!(rev, instance_hash(&next));
                prop_assert_eq!(body.as_str(), execute(Op::Solve, &next, edit_r, 1).unwrap());
                if reference.insert(rev, next).is_none() {
                    known.push(rev);
                }
                latest = rev;
            }
        }
    }

    #[test]
    fn cache_shard_evictions_start_at_zero_and_count_locally() {
        let e = Engine::new(16 * 8, 1 << 20); // 8 bytes per result shard
        assert_eq!(e.cache_shard_evictions(), [0u64; SHARDS]);
        // Two bodies on the same shard (same instance hash) overflow it.
        let k1 = CacheKey::new(0x20, Op::Solve, 2, 1);
        let k2 = CacheKey::new(0x20, Op::Solve, 3, 1);
        e.insert(k1, Arc::new("x".repeat(6)));
        e.insert(k2, Arc::new("y".repeat(6)));
        let ev = e.cache_shard_evictions();
        assert_eq!(ev[0], 1, "shard 0 evicted its LRU entry");
        assert_eq!(ev[1..].iter().sum::<u64>(), 0);
        assert_eq!(e.cache_stats().2, 1, "aggregate matches the shard sum");
    }

    #[test]
    fn cached_bodies_come_back_bit_identical() {
        let e = Engine::new(1 << 20, 1 << 20);
        let i = inst();
        let key = CacheKey::new(instance_hash(&i), Op::Solve, 3, 1);
        assert!(e.cached(&key).is_none());
        let cold = Arc::new(execute(Op::Solve, &i, 3, 1).unwrap());
        e.insert(key, Arc::clone(&cold));
        let warm = e.cached(&key).expect("hit");
        assert_eq!(warm.as_bytes(), cold.as_bytes());
        assert_eq!(e.cache_stats().0, 1);
    }
}
