//! # `mmlp-serve` — the concurrent solver service
//!
//! The ROADMAP's north star is a system that serves heavy traffic, not
//! a one-shot CLI. This crate turns the workspace's solvers into a
//! **long-running multi-threaded TCP service** with a small
//! line-oriented protocol (`specs/PROTOCOL.md`) and a built-in load
//! generator.
//!
//! Why this is a natural fit for *this* paper: the local algorithm of
//! Floréen–Kaasinen–Kaski–Suomela is a deterministic constant-radius
//! computation, so for a fixed `(instance, R)` every solve is
//! bit-identical — which makes results **perfectly cacheable**. The
//! service exploits that with a content-addressed design:
//!
//! * [`protocol`] — the wire format: `PUT` / `SOLVE` / `OPTIMUM` /
//!   `SAFE` / `INFO` / `STATS` / `METRICS` / `SHUTDOWN` (plus `PING`
//!   and the `SLEEP` diagnostic), length-prefixed bodies, typed error
//!   codes.
//! * [`cache`] — a byte-budgeted O(1) LRU used for both the result
//!   cache (keyed by `(instance-hash, op, R)`) and the
//!   content-addressed instance store fed by `PUT`.
//! * [`engine`] — the sockets-free core: resolve source → probe cache
//!   → execute solver → insert; directly benchmarked by `serve_cache`.
//!   With `ServeConfig::store_dir` set it mounts a persistent
//!   `mmlp-store` underneath: `PUT` instances and solved results are
//!   appended to disk, and a restart **warm-starts** both LRUs, so
//!   previously-solved requests come back as bit-identical cache hits
//!   across process restarts (`specs/STORAGE.md`).
//! * [`server`] — accept loop, per-connection threads, dispatch onto a
//!   bounded `mmlp_lab::pool::TaskPool` (full queue ⇒ `ERR BUSY`
//!   backpressure, never unbounded growth), per-request timeouts with
//!   panic isolation, and graceful drain on `SHUTDOWN`. The pool is the
//!   service's only parallelism: a request runs start to finish on the
//!   one worker that picked it up, and `THREADS=` is accepted and
//!   ignored.
//! * [`stats`] — the server's metric surface on the `mmlp-obs`
//!   registry: sharded lock-free counters, HDR-style latency /
//!   queue-wait / execute histograms, per-op cache series and
//!   flat-solve phase timings. `STATS` keeps its historical key/value
//!   body; `METRICS` exposes the same cells as Prometheus text, and a
//!   bounded trace ring remembers the slowest recent solves
//!   (`specs/OBSERVABILITY.md`).
//! * [`delta`] — incremental re-solves as a first-class workload:
//!   `PUT_DELTA` registers a content-hashed edit against a base
//!   revision and `SOLVE_DELTA` answers from a pool of parked
//!   [`mmlp_core::dynamic::DynamicSolver`]s, repairing only the edit's
//!   dirty ball instead of re-solving the instance — bit-identical to
//!   `SOLVE` of the same revision (`specs/DELTA.md`). Lineage edges
//!   persist through `mmlp-store`, so a restarted node replays its
//!   revision graph from segments.
//! * [`client`] — a small blocking protocol client.
//! * [`loadgen`] — a closed-loop multi-client load generator
//!   (`maxmin-lp loadgen`) printing a latency histogram and verifying
//!   that all replies for one request shape are byte-identical.
//!
//! ## Quickstart
//!
//! ```
//! use mmlp_serve::prelude::*;
//! use mmlp_instance::textfmt;
//!
//! // Bind on an ephemeral port and serve in the background.
//! let server = Server::bind(ServeConfig {
//!     addr: "127.0.0.1:0".into(),
//!     workers: 2,
//!     ..ServeConfig::default()
//! })
//! .unwrap();
//! let addr = server.local_addr().to_string();
//! let handle = std::thread::spawn(move || server.run().unwrap());
//!
//! // Upload an instance by content, then solve it by hash — twice.
//! // The second reply is a cache hit, bit-identical to the first.
//! let inst = mmlp_gen::catalog()[0].instance(8, 0);
//! let mut c = Client::connect(&addr).unwrap();
//! let hash = c.put(&textfmt::write_instance(&inst)).unwrap().unwrap();
//! let cold = c.run_hash(Op::Solve, &hash, 3).unwrap().into_ok().unwrap();
//! let warm = c.run_hash(Op::Solve, &hash, 3).unwrap().into_ok().unwrap();
//! assert_eq!(cold, warm);
//!
//! c.shutdown().unwrap();
//! let summary = handle.join().unwrap();
//! assert!(summary.cache_hits >= 1);
//! ```

pub mod cache;
pub mod client;
pub mod delta;
pub mod engine;
pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod stats;

/// One-stop imports for the CLI, tests and downstream users.
pub mod prelude {
    pub use crate::client::{Client, ClientReply};
    pub use crate::delta::{DeltaCoordinator, DeltaMode, DeltaSolveInfo};
    pub use crate::engine::{execute, CacheKey, Engine, WarmStart};
    pub use crate::loadgen::{render_report, run_loadgen, LoadConfig, LoadReport};
    pub use crate::protocol::{Command, ErrorCode, Op, Reply};
    pub use crate::server::{ServeConfig, Server, ServerSummary};
    pub use crate::stats::{Histogram, ServeMetrics};
}
