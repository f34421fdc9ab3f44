//! The server's metric surface, built on the `mmlp-obs` registry.
//!
//! Earlier versions kept hand-rolled `AtomicU64` bundles here
//! (`Counters`, `ViewCounters`) plus a mutex-guarded latency histogram.
//! All of that now lives behind typed [`mmlp_obs`] handles registered
//! once at bind time: hot paths pay one relaxed atomic per update, and
//! the whole registry renders as Prometheus text for the `METRICS` wire
//! op while `STATS` keeps its historical key/value format on top of the
//! same cells.
//!
//! The [`Histogram`] the load generator aggregates client-side is the
//! same log-linear structure the registry's histograms snapshot into;
//! it is re-exported from `mmlp_obs` so `loadgen` and downstream users
//! keep their import path.

pub use mmlp_obs::Histogram;

use crate::cache::SHARDS;
use crate::delta::{DeltaMode, DeltaSolveInfo};
use crate::protocol::Op;
use mmlp_core::smoothing::SpecialTrace;
use mmlp_obs::{Counter, Gauge, HistogramHandle, Registry};
use std::sync::Arc;

/// Every instrument the server updates, registered on one shared
/// [`Registry`]. Cloning shares the cells (handles are `Arc`-backed),
/// so worker closures can carry the metrics without touching the
/// registry lock again.
#[derive(Clone)]
pub struct ServeMetrics {
    registry: Arc<Registry>,

    /// Commands accepted and parsed (including `STATS` itself).
    pub requests: Counter,
    /// Connections accepted over the server's lifetime.
    pub connections: Counter,
    /// Requests bounced with `BUSY`.
    pub busy: Counter,
    /// Requests ending in any `ERR` reply other than `BUSY`.
    pub errors: Counter,
    /// Requests killed by the per-request timeout.
    pub timeouts: Counter,

    /// Result-cache hits, one counter per cacheable [`Op`].
    cache_hits: [Counter; 5],
    /// Result-cache misses (cold solves), one counter per [`Op`].
    cache_misses: [Counter; 5],

    /// End-to-end request latency (parse → reply written), µs.
    pub latency: HistogramHandle,
    /// Per-op end-to-end latency, one histogram per command verb —
    /// including `stats` and `metrics`, so scrape cost is visible.
    op_latency: [HistogramHandle; 12],
    /// Time a pooled task waited in the queue before a worker picked it
    /// up, µs.
    pub queue_wait: HistogramHandle,
    /// Time a pooled task spent executing on a worker, µs.
    pub execute: HistogramHandle,

    /// Cumulative cold-solve phase wall time, one counter per §5 phase
    /// (`t_eval`, `flood`, `g`), nanoseconds.
    phase_ns: [Counter; 3],

    /// `PUT_DELTA` registrations accepted.
    pub delta_puts: Counter,
    /// `SOLVE_DELTA` solves by resolution mode (`warm`, `advanced`,
    /// `booted`).
    delta_solves: [Counter; 3],
    /// Lineage deltas replayed while advancing/booting solvers.
    pub delta_replayed: Counter,
    /// Agents whose x was recomputed across delta solves (the dirty
    /// balls — compare against `delta_agents` for the locality win).
    pub delta_recomputed_x: Counter,
    /// Agents in the instances those solves covered (the denominator).
    pub delta_agents: Counter,
    /// Dirty-ball size per delta solve (recomputed x per request).
    pub delta_dirty_x: HistogramHandle,

    /// Server uptime (set at scrape time), milliseconds.
    pub uptime_ms: Gauge,
    /// Tasks waiting in the pool queue (scrape-time).
    pub queue_depth: Gauge,
    /// Tasks executing on workers (scrape-time).
    pub in_flight: Gauge,
    /// Timed-out tasks still running in the background (scrape-time).
    pub pool_runaway: Gauge,
    /// Live client connections (scrape-time).
    pub connections_live: Gauge,
    /// Result-cache entries / bytes / evictions (scrape-time).
    pub cache_entries: Gauge,
    /// Result-cache resident bytes (scrape-time).
    pub cache_bytes: Gauge,
    /// Result-cache evictions so far (scrape-time).
    pub cache_evictions: Gauge,
    /// Per-shard result-cache evictions (scrape-time), one gauge per
    /// LRU shard — a skewed workload overflowing one shard's budget
    /// slice shows up here while the aggregate stays quiet.
    cache_shard_evictions: [Gauge; SHARDS],
    /// Instance-store entries (scrape-time).
    pub store_entries: Gauge,
    /// Instance-store resident bytes, the summed lengths of its records
    /// (scrape-time).
    pub store_bytes: Gauge,
    /// Lineage edges the warm start dropped: chains whose root
    /// instance does not hash to the key they were recorded under.
    pub warm_lineage_dropped: Gauge,
    /// Store open plus warm start at bind, microseconds (set once).
    pub warm_start_us: Gauge,
    /// The instance store's instruments, which the engine updates.
    pub store: StoreMetrics,
}

/// The instance store's instruments, held by the
/// [`Engine`](crate::engine::Engine): instance records decoded, and
/// their decode time; read-throughs of records on disk, by outcome; and
/// the latency of each append to the persistent store.
#[derive(Clone)]
pub struct StoreMetrics {
    /// Instance records decoded, wherever they were held.
    pub decodes: Counter,
    /// One instance record decode, microseconds.
    pub decode_us: HistogramHandle,
    /// Instance records a read-through decoded.
    pub reads_ok: Counter,
    /// Read-throughs whose record failed to read, verify or decode.
    pub reads_failed: Counter,
    /// One store append, its `fsync` included, microseconds.
    pub append_us: HistogramHandle,
}

impl StoreMetrics {
    /// Instruments that count but render nowhere: an engine outside a
    /// server.
    pub fn detached() -> Self {
        StoreMetrics {
            decodes: Counter::detached(),
            decode_us: HistogramHandle::detached(),
            reads_ok: Counter::detached(),
            reads_failed: Counter::detached(),
            append_us: HistogramHandle::detached(),
        }
    }

    fn register(reg: &Registry) -> Self {
        let reads = |outcome| {
            reg.counter_with(
                "mmlp_serve_store_reads_total",
                &[("outcome", outcome)],
                "Instance records decoded on a read-through, by outcome",
            )
        };
        StoreMetrics {
            decodes: reg.counter(
                "mmlp_serve_instance_decodes_total",
                "Instance records decoded from their codec bytes",
            ),
            decode_us: reg.histogram(
                "mmlp_serve_instance_decode_us",
                "One instance record decode, microseconds",
            ),
            reads_ok: reads("ok"),
            reads_failed: reads("error"),
            append_us: reg.histogram(
                "mmlp_serve_store_append_us",
                "One store append, fsync included, microseconds",
            ),
        }
    }
}

const OPS: [Op; 5] = [Op::Solve, Op::Optimum, Op::Safe, Op::Info, Op::SolveDelta];

/// Dense slot for the per-op counter arrays. Not `code() - 1`: op codes
/// skip 5 (the persisted-lineage namespace), so `SOLVE_DELTA` is 6.
fn op_slot(op: Op) -> usize {
    match op {
        Op::Solve => 0,
        Op::Optimum => 1,
        Op::Safe => 2,
        Op::Info => 3,
        Op::SolveDelta => 4,
    }
}

/// Per-op latency labels, in `ServeMetrics::op_latency` slot order:
/// every command verb the dispatcher replies to, as a lowercase tag.
pub const OP_LABELS: [&str; 12] = [
    "solve",
    "optimum",
    "safe",
    "info",
    "solve_delta",
    "put",
    "put_delta",
    "stats",
    "metrics",
    "sleep",
    "ping",
    "shutdown",
];

/// Slot of a command verb in [`OP_LABELS`] (`None` for unknown tags —
/// unparseable commands have no verb to attribute).
fn op_label_slot(label: &str) -> Option<usize> {
    OP_LABELS.iter().position(|&l| l == label)
}

/// Resolution-mode tags, in counter-slot order.
const DELTA_MODES: [DeltaMode; 3] = [DeltaMode::Warm, DeltaMode::Advanced, DeltaMode::Booted];

fn mode_slot(mode: DeltaMode) -> usize {
    match mode {
        DeltaMode::Warm => 0,
        DeltaMode::Advanced => 1,
        DeltaMode::Booted => 2,
    }
}

impl ServeMetrics {
    /// Registers the full instrument set on a fresh registry. Called
    /// once per server (`Server::bind`); everything after that is
    /// handle updates.
    pub fn new() -> Self {
        let reg = Arc::new(Registry::new());
        let cache_hits = OPS.map(|op| {
            reg.counter_with(
                "mmlp_serve_cache_hits_total",
                &[("op", op.tag())],
                "Cacheable requests answered from the result cache",
            )
        });
        let cache_misses = OPS.map(|op| {
            reg.counter_with(
                "mmlp_serve_cache_misses_total",
                &[("op", op.tag())],
                "Cacheable requests that had to run a solver",
            )
        });
        // Labelled from the trace's own phase list, so `observe_solve`
        // pairs each counter with its phase by construction.
        let phase_ns = SpecialTrace::default().phase_spans().map(|(p, _)| {
            reg.counter_with(
                "mmlp_solver_phase_ns_total",
                &[("phase", p)],
                "Cumulative cold-solve phase wall time in nanoseconds",
            )
        });
        let op_latency = OP_LABELS.map(|l| {
            reg.histogram_with(
                "mmlp_serve_op_latency_us",
                &[("op", l)],
                "End-to-end request latency by command verb, microseconds",
            )
        });
        let cache_shard_evictions = std::array::from_fn(|i| {
            reg.gauge_with(
                "mmlp_serve_cache_shard_evictions",
                &[("shard", &i.to_string())],
                "Result-cache evictions per LRU shard",
            )
        });
        let delta_solves = DELTA_MODES.map(|m| {
            reg.counter_with(
                "mmlp_serve_delta_solves_total",
                &[("mode", m.tag())],
                "SOLVE_DELTA requests by resolution mode",
            )
        });
        ServeMetrics {
            requests: reg.counter("mmlp_serve_requests_total", "Commands accepted and parsed"),
            connections: reg.counter("mmlp_serve_connections_total", "Connections accepted"),
            busy: reg.counter("mmlp_serve_busy_total", "Requests bounced with BUSY"),
            errors: reg.counter(
                "mmlp_serve_errors_total",
                "Requests ending in a non-BUSY ERR reply",
            ),
            timeouts: reg.counter(
                "mmlp_serve_timeouts_total",
                "Requests killed by the per-request timeout",
            ),
            cache_hits,
            cache_misses,
            latency: reg.histogram(
                "mmlp_serve_request_latency_us",
                "End-to-end request latency in microseconds",
            ),
            op_latency,
            queue_wait: reg.histogram(
                "mmlp_serve_queue_wait_us",
                "Queue wait before a worker picked the task up, microseconds",
            ),
            execute: reg.histogram(
                "mmlp_serve_execute_us",
                "Worker execution time per pooled task, microseconds",
            ),
            phase_ns,
            delta_puts: reg.counter(
                "mmlp_serve_delta_puts_total",
                "PUT_DELTA registrations accepted",
            ),
            delta_solves,
            delta_replayed: reg.counter(
                "mmlp_serve_delta_replayed_total",
                "Lineage deltas replayed while advancing or booting solvers",
            ),
            delta_recomputed_x: reg.counter(
                "mmlp_serve_delta_recomputed_x_total",
                "Agents whose x was recomputed across delta solves",
            ),
            delta_agents: reg.counter(
                "mmlp_serve_delta_agents_total",
                "Agents in the instances delta solves covered",
            ),
            delta_dirty_x: reg.histogram(
                "mmlp_serve_delta_dirty_x",
                "Recomputed x per SOLVE_DELTA request (dirty-ball size)",
            ),
            uptime_ms: reg.gauge("mmlp_serve_uptime_ms", "Server uptime in milliseconds"),
            queue_depth: reg.gauge("mmlp_serve_queue_depth", "Tasks waiting in the pool queue"),
            in_flight: reg.gauge("mmlp_serve_in_flight", "Tasks executing on workers"),
            pool_runaway: reg.gauge(
                "mmlp_serve_pool_runaway",
                "Timed-out tasks still running in the background",
            ),
            connections_live: reg.gauge("mmlp_serve_connections_live", "Live client connections"),
            cache_entries: reg.gauge("mmlp_serve_cache_entries", "Result-cache entries"),
            cache_bytes: reg.gauge("mmlp_serve_cache_bytes", "Result-cache resident bytes"),
            cache_evictions: reg.gauge("mmlp_serve_cache_evictions", "Result-cache evictions"),
            cache_shard_evictions,
            store_entries: reg.gauge("mmlp_serve_store_entries", "Instance-store entries"),
            store_bytes: reg.gauge(
                "mmlp_serve_store_bytes",
                "Instance-store resident bytes: the summed lengths of its records",
            ),
            warm_lineage_dropped: reg.gauge(
                "mmlp_serve_warm_lineage_dropped",
                "Lineage edges dropped at warm start: their chain's root does not hash to its key",
            ),
            warm_start_us: reg.gauge(
                "mmlp_serve_warm_start_us",
                "Store open plus warm start at bind, microseconds",
            ),
            store: StoreMetrics::register(&reg),
            registry: reg,
        }
    }

    /// The underlying registry (for `METRICS` rendering).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Renders every instrument as Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// Records one request's end-to-end latency under its command
    /// verb's label (see [`OP_LABELS`] — `stats` and `metrics` are
    /// first-class here, so scrape cost shows up in its own series).
    /// The trace id feeds the exemplar when nonzero. Unknown labels
    /// (unparseable commands) are dropped silently.
    pub fn observe_op_latency(&self, label: &str, us: u64, trace_id: u64) {
        if let Some(slot) = op_label_slot(label) {
            self.op_latency[slot].record_traced(us, trace_id);
        }
    }

    /// Snapshot of one verb's latency histogram (`None` for unknown
    /// labels). `STATS` derives the delta percentiles from this.
    pub fn op_latency_snapshot(&self, label: &str) -> Option<Histogram> {
        op_label_slot(label).map(|slot| self.op_latency[slot].snapshot())
    }

    /// Publishes the per-shard eviction counters (scrape-time, like the
    /// other cache gauges).
    pub fn set_cache_shard_evictions(&self, evictions: &[u64; SHARDS]) {
        for (g, &n) in self.cache_shard_evictions.iter().zip(evictions) {
            g.set(n);
        }
    }

    /// One result-cache hit for `op`.
    pub fn cache_hit(&self, op: Op) {
        self.cache_hits[op_slot(op)].inc();
    }

    /// One result-cache miss (a solve actually ran) for `op`.
    pub fn cache_miss(&self, op: Op) {
        self.cache_misses[op_slot(op)].inc();
    }

    /// Cache hits summed over ops (the historical `STATS` aggregate).
    pub fn cache_hits_total(&self) -> u64 {
        self.cache_hits.iter().map(Counter::get).sum()
    }

    /// Cache misses summed over ops.
    pub fn cache_misses_total(&self) -> u64 {
        self.cache_misses.iter().map(Counter::get).sum()
    }

    /// Folds one cold solve's phase wall times into the per-phase
    /// counters.
    pub fn observe_solve(&self, trace: &SpecialTrace) {
        for (c, (_, ns)) in self.phase_ns.iter().zip(trace.phase_spans()) {
            c.add(ns);
        }
    }

    /// Folds one delta solve's report into the per-mode counters and
    /// the dirty-ball histogram.
    pub fn observe_delta(&self, info: &DeltaSolveInfo) {
        self.delta_solves[mode_slot(info.mode)].inc();
        self.delta_replayed.add(info.replayed);
        self.delta_recomputed_x.add(info.recomputed_x);
        self.delta_agents.add(info.n_agents);
        self.delta_dirty_x.record(info.recomputed_x);
    }

    /// `SOLVE_DELTA` requests answered in the given mode.
    pub fn delta_solves(&self, mode: DeltaMode) -> u64 {
        self.delta_solves[mode_slot(mode)].get()
    }

    /// `SOLVE_DELTA` requests answered, all modes.
    pub fn delta_solves_total(&self) -> u64 {
        self.delta_solves.iter().map(Counter::get).sum()
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_counters_are_per_op_and_sum() {
        let m = ServeMetrics::new();
        m.cache_hit(Op::Solve);
        m.cache_hit(Op::Solve);
        m.cache_hit(Op::Info);
        m.cache_miss(Op::Optimum);
        assert_eq!(m.cache_hits_total(), 3);
        assert_eq!(m.cache_misses_total(), 1);
        let text = m.render_prometheus();
        assert!(
            text.contains("mmlp_serve_cache_hits_total{op=\"solve\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("mmlp_serve_cache_hits_total{op=\"info\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("mmlp_serve_cache_misses_total{op=\"optimum\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn observe_solve_feeds_the_phase_series() {
        let m = ServeMetrics::new();
        let trace = SpecialTrace {
            t_eval_ns: 7,
            flood_ns: 3,
            g_ns: 2,
            total_ns: 20,
        };
        m.observe_solve(&trace);
        m.observe_solve(&trace);
        let text = m.render_prometheus();
        for (phase, ns) in [("t_eval", 14), ("flood", 6), ("g", 4)] {
            assert!(
                text.contains(&format!(
                    "mmlp_solver_phase_ns_total{{phase=\"{phase}\"}} {ns}"
                )),
                "{text}"
            );
        }
        // The flat network path's accounting is not part of serve.
        for gone in [
            "phase=\"gather\"",
            "mmlp_solver_flat_solves_total",
            "mmlp_solver_view_",
            "mmlp_solver_memo_lookups_total",
        ] {
            assert!(!text.contains(gone), "{gone} in {text}");
        }
    }

    #[test]
    fn observe_delta_feeds_mode_and_dirty_series() {
        let m = ServeMetrics::new();
        m.observe_delta(&DeltaSolveInfo {
            mode: DeltaMode::Booted,
            replayed: 2,
            recomputed_x: 9,
            n_agents: 100,
        });
        m.observe_delta(&DeltaSolveInfo {
            mode: DeltaMode::Warm,
            replayed: 0,
            recomputed_x: 5,
            n_agents: 100,
        });
        assert_eq!(m.delta_solves_total(), 2);
        assert_eq!(m.delta_solves(DeltaMode::Warm), 1);
        assert_eq!(m.delta_solves(DeltaMode::Advanced), 0);
        assert_eq!(m.delta_replayed.get(), 2);
        assert_eq!(m.delta_recomputed_x.get(), 14);
        assert_eq!(m.delta_agents.get(), 200);
        let text = m.render_prometheus();
        assert!(
            text.contains("mmlp_serve_delta_solves_total{mode=\"booted\"} 1"),
            "{text}"
        );
        assert!(text.contains("mmlp_serve_delta_dirty_x"), "{text}");
        for gone in [
            "mmlp_serve_delta_arena_added_total",
            "mmlp_serve_delta_roots_reused_total",
        ] {
            assert!(!text.contains(gone), "{gone} in {text}");
        }
    }

    #[test]
    fn solve_delta_has_its_own_cache_series() {
        let m = ServeMetrics::new();
        m.cache_hit(Op::SolveDelta);
        m.cache_miss(Op::SolveDelta);
        m.cache_miss(Op::Solve);
        assert_eq!(m.cache_hits_total(), 1);
        assert_eq!(m.cache_misses_total(), 2);
        let text = m.render_prometheus();
        assert!(
            text.contains("mmlp_serve_cache_hits_total{op=\"solve_delta\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn op_latency_covers_every_verb_including_scrapes() {
        let m = ServeMetrics::new();
        m.observe_op_latency("solve", 100, 0);
        m.observe_op_latency("stats", 5, 0);
        m.observe_op_latency("metrics", 7, 0xfeed);
        m.observe_op_latency("not_a_verb", 1, 0);
        assert_eq!(m.op_latency_snapshot("solve").unwrap().total(), 1);
        assert_eq!(m.op_latency_snapshot("stats").unwrap().total(), 1);
        assert_eq!(m.op_latency_snapshot("solve_delta").unwrap().total(), 0);
        assert!(m.op_latency_snapshot("not_a_verb").is_none());
        let text = m.render_prometheus();
        assert!(
            text.contains("mmlp_serve_op_latency_us_count{op=\"stats\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("mmlp_serve_op_latency_us_count{op=\"metrics\"} 1"),
            "{text}"
        );
        // The traced metrics scrape left its exemplar behind.
        assert!(
            text.contains(
                "# EXEMPLAR mmlp_serve_op_latency_us{op=\"metrics\"} trace_id=\"000000000000feed\""
            ),
            "{text}"
        );
    }

    #[test]
    fn cache_shard_evictions_render_one_series_per_shard() {
        let m = ServeMetrics::new();
        let mut ev = [0u64; SHARDS];
        ev[3] = 7;
        ev[15] = 2;
        m.set_cache_shard_evictions(&ev);
        let text = m.render_prometheus();
        assert!(
            text.contains("mmlp_serve_cache_shard_evictions{shard=\"3\"} 7"),
            "{text}"
        );
        assert!(
            text.contains("mmlp_serve_cache_shard_evictions{shard=\"15\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("mmlp_serve_cache_shard_evictions{shard=\"0\"} 0"),
            "{text}"
        );
    }

    #[test]
    fn clones_share_the_cells() {
        let m = ServeMetrics::new();
        let m2 = m.clone();
        m.requests.inc();
        m2.requests.inc();
        assert_eq!(m.requests.get(), 2);
        assert!(m2
            .render_prometheus()
            .contains("mmlp_serve_requests_total 2"));
    }
}
