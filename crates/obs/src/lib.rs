//! Unified observability for the max-min LP workspace.
//!
//! Three disconnected ad-hoc telemetry modules (serve counters, net run
//! stats, free-form `STATS` text) grew alongside the solver; this crate
//! replaces their shared machinery with one dependency-free layer:
//!
//! - [`registry`] — a lock-free metrics registry: named counters behind
//!   sharded cache-padded atomics, gauges, and log-bucketed histograms,
//!   handed out as typed handles so a hot path pays exactly one relaxed
//!   atomic add per event. Registration happens once at startup; the
//!   whole registry renders as Prometheus text exposition for the
//!   `METRICS` wire op.
//! - [`hist`] — the HDR-style log-linear [`Histogram`] (formerly in
//!   `mmlp-serve`), with well-defined empty/`q = 1.0` percentile edges,
//!   plus its lock-free [`AtomicHistogram`] twin.
//! - [`span`] — the one trace pipeline: request-scoped span trees. A
//!   process-unique `trace_id` minted by the client (or sampled
//!   server-side) is threaded queue → cache → execute (the solver's
//!   phases) → store, recorded through a [`SpanRecorder`] and kept in a
//!   bounded [`SpanRing`] plus the journal. The ring ranks its N
//!   slowest trees and [`render_span_tree`] draws one as an indented
//!   timeline (the server's shutdown summary, `maxmin-lp obs` and
//!   `obs trace`).
//! - [`journal`] — a crash-safe append-only event journal:
//!   length-framed, FNV-checksummed records written by a dedicated
//!   drainer thread (the hot path pays one bounded-queue push), with
//!   torn-tail truncation on recovery, rotation, and a byte budget.
//! - [`lint`] — Prometheus text-exposition parsing and linting
//!   (missing `HELP`/`TYPE`, unregistered-name drift, counters going
//!   backwards across scrapes); also the scrape reader for SLOs.
//! - [`slo`] — declarative service-level objectives (`p99(...)`,
//!   `ratio(...)`) evaluated against a scrape with burn-rate output.
//!
//! The overhead contract (enforced by `trajectory_gate` over
//! `BENCH_core.json` and by the catalog-wide bit-identity tests): a
//! traced — and now journaled — solve stays within 3% of the untraced
//! one and produces bit-identical outputs. See
//! `specs/OBSERVABILITY.md`.

#![deny(missing_docs)]

pub mod hist;
pub mod journal;
pub mod lint;
pub mod registry;
pub mod slo;
pub mod span;

pub use hist::{AtomicHistogram, Histogram};
pub use journal::{Journal, JournalConfig, JournalRecord};
pub use lint::{lint_pair, parse_exposition, Exposition};
pub use registry::{Counter, Gauge, HistogramHandle, Registry};
pub use slo::{evaluate_slos, parse_slo_specs, render_slo_report, SloSpec};
pub use span::{
    format_trace_id, mint_trace_ids_after, next_trace_id, parse_trace_id, render_span_tree,
    SpanRecorder, SpanRing, SpanTree,
};
