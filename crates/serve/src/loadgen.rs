//! A closed-loop load generator driving a running server over real
//! sockets: `--clients` persistent connections, each issuing its share
//! of `--requests` back-to-back, with per-request latency recorded
//! into a merged [`Histogram`].
//!
//! Closed-loop means each client waits for its reply before sending
//! the next request, so offered load adapts to server throughput — the
//! standard shape for latency benchmarking without coordinated
//! omission on saturated servers.
//!
//! `--pipeline D` (with `D > 1`) switches to an **open pipeline**:
//! each connection keeps a window of `D` requests outstanding,
//! exercising the server's incremental parser and in-order reply queue
//! and measuring throughput past the one-round-trip-per-request bound.
//!
//! The generator also doubles as a correctness probe: every `OK` body
//! for the same `(op, R)` must be byte-identical (cache hits included),
//! so a cache-corruption bug shows up as `distinct_bodies > 1` rather
//! than silently skewing an experiment.
//!
//! **Mutate mode** (`--mutate`) turns the probe incremental: each
//! client walks its own chain of random single-coefficient edits,
//! issuing `SOLVE_DELTA inline:` for every step and cross-checking the
//! body bit-for-bit against a from-scratch `SOLVE` of the same
//! revision — two independent server-side computations that must agree
//! exactly. Requires a special-form instance (that is what the
//! incremental solver repairs).
//!
//! In every mode each `OK` body that opens with the `SOLVE` header
//! (`utility`, `guarantee`, `optimum_upper_bound`) is also checked
//! against Lemma 2's certificate: `optimum_upper_bound` is at least the
//! optimum, so a reply with positive utility certifies its own
//! Theorem 1 ratio without an LP. A violation counts as an error.

use crate::client::{Client, ClientReply, PipelinedClient};
use crate::protocol::{ErrorCode, Op};
use crate::stats::Histogram;
use mmlp_instance::delta::{Delta, Edit, RowKind};
use mmlp_instance::hash::{hash_hex, instance_hash};
use mmlp_instance::ids::ConstraintId;
use mmlp_instance::{textfmt, Instance};
use std::collections::{BTreeSet, VecDeque};
use std::time::{Duration, Instant};

/// Load-generator configuration.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Server address.
    pub addr: String,
    /// Concurrent client connections.
    pub clients: usize,
    /// Total requests across all clients.
    pub requests: usize,
    /// Operation to issue.
    pub op: Op,
    /// Locality parameter for `SOLVE`.
    pub big_r: usize,
    /// `true`: `PUT` once per client, then request by hash (the cache
    /// amortisation path). `false`: ship the instance inline each time.
    pub by_hash: bool,
    /// The instance text to drive with.
    pub instance_text: String,
    /// Send `SHUTDOWN` after the run (CI smoke uses this).
    pub shutdown_after: bool,
    /// Mutate mode: stream random single edits as `SOLVE_DELTA`,
    /// probing bit-identity against from-scratch `SOLVE`s (ignores
    /// `op` and `by_hash`).
    pub mutate: bool,
    /// Seeds mutate mode's PRNG (each client derives its own stream)
    /// and the ids `trace` mints: two runs on one seed send the same
    /// trace ids.
    pub seed: u64,
    /// Mint a deterministic client-side trace id per request and send
    /// it ahead of the command as a `TRACE <hex>` line, making every
    /// request traced end-to-end (`specs/OBSERVABILITY.md`).
    pub trace: bool,
    /// Requests each connection keeps in flight. `1` is the classic
    /// closed loop (write, wait, repeat). `>1` switches to **open
    /// pipeline** mode: each connection keeps a window of this many
    /// requests outstanding, exercising the server's pipelined parsing
    /// and in-order reply queue — per-connection throughput is then no
    /// longer bounded by one round trip per request. Incompatible with
    /// `mutate` (whose probe is inherently request-then-check).
    pub pipeline: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:7979".into(),
            clients: 4,
            requests: 200,
            op: Op::Solve,
            big_r: 3,
            by_hash: true,
            instance_text: String::new(),
            shutdown_after: false,
            mutate: false,
            seed: 1,
            trace: false,
            pipeline: 1,
        }
    }
}

/// Aggregated result of one load run.
pub struct LoadReport {
    /// Requests attempted.
    pub sent: u64,
    /// `OK` replies.
    pub ok: u64,
    /// `BUSY` rejections (retried up to a small bound, then counted).
    pub busy: u64,
    /// Any other `ERR` reply or transport failure.
    pub errors: u64,
    /// Distinct `OK` body contents observed (must be 1 for a
    /// deterministic op against one instance).
    pub distinct_bodies: usize,
    /// FNV-1a hash of the one body all replies agreed on, when
    /// `distinct_bodies == 1` — lets two runs (e.g. before and after a
    /// server restart) assert byte-identity without keeping bodies.
    pub body_fnv: Option<u64>,
    /// Merged per-request latency histogram.
    pub histogram: Histogram,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
    /// First error message seen, for diagnostics.
    pub first_error: Option<String>,
    /// Mutate mode: incremental-vs-scratch bit-identity probes run.
    pub delta_checks: u64,
    /// Mutate mode: probes where the bytes differed (must be 0).
    pub delta_mismatches: u64,
    /// `OK` bodies whose Lemma 2 certificate was checked.
    pub certificate_checks: u64,
    /// Checked bodies whose ratio exceeded their guarantee (must be 0;
    /// each is also an error).
    pub certificate_violations: u64,
    /// Requests sent with a client-minted `TRACE` line.
    pub traced: u64,
    /// The last trace id minted, so smoke scripts can `obs trace` it.
    pub last_trace_id: Option<u64>,
    /// Mutate mode: server-side `SOLVE_DELTA` latency quantiles
    /// `(p50, p95, p99)` in µs, read from `STATS` after the run —
    /// closed-loop client timing hides server-side tail latency, these
    /// do not.
    pub server_delta_us: Option<(u64, u64, u64)>,
}

impl LoadReport {
    /// Closed-loop throughput in requests per second.
    pub fn throughput(&self) -> f64 {
        if self.wall.as_secs_f64() == 0.0 {
            return 0.0;
        }
        self.ok as f64 / self.wall.as_secs_f64()
    }
}

struct ClientTally {
    histogram: Histogram,
    ok: u64,
    busy: u64,
    errors: u64,
    sent: u64,
    bodies: BTreeSet<u64>,
    first_error: Option<String>,
    delta_checks: u64,
    delta_mismatches: u64,
    certificate_checks: u64,
    certificate_violations: u64,
    traced: u64,
    last_trace_id: Option<u64>,
}

impl ClientTally {
    fn new() -> ClientTally {
        ClientTally {
            histogram: Histogram::new(),
            ok: 0,
            busy: 0,
            errors: 0,
            sent: 0,
            bodies: BTreeSet::new(),
            first_error: None,
            delta_checks: 0,
            delta_mismatches: 0,
            certificate_checks: 0,
            certificate_violations: 0,
            traced: 0,
            last_trace_id: None,
        }
    }

    /// Notes a minted trace id about to be sent.
    fn note_trace(&mut self, id: u64) {
        self.traced += 1;
        self.last_trace_id = Some(id);
    }

    fn note_err(&mut self, msg: String) {
        self.errors += 1;
        if self.first_error.is_none() {
            self.first_error = Some(msg);
        }
    }

    /// Checks an `OK` body's Lemma 2 certificate, if it carries one; a
    /// violation is noted as an error. Returns whether the body passed.
    fn check_certificate(&mut self, body: &str) -> bool {
        match certificate_holds(body) {
            None => true,
            Some(holds) => {
                self.certificate_checks += 1;
                if !holds {
                    self.certificate_violations += 1;
                    let header: Vec<&str> = body.lines().take(3).collect();
                    self.note_err(format!("certificate violated: {}", header.join(", ")));
                }
                holds
            }
        }
    }
}

/// Relative slack of the certificate check. The bound is tight — cycle
/// and bandwidth meet it with equality — so the three rendered values
/// can overshoot by an ulp: on `bandwidth 48 7` at R = 3,
/// `optimum_upper_bound / utility` reads 2.2500000000000004 against a
/// guarantee of 2.25.
const CERTIFICATE_SLACK: f64 = 1e-9;

/// Lemma 2's certificate on a reply body: `None` unless the body opens
/// with the `utility`, `guarantee` and `optimum_upper_bound` lines of a
/// `SOLVE` body and `utility > 0`; otherwise whether
/// `optimum_upper_bound ≤ guarantee · utility · (1 + 1e-9)`.
fn certificate_holds(body: &str) -> Option<bool> {
    let mut lines = body.lines();
    let mut value = |key: &str| -> Option<f64> {
        lines
            .next()?
            .strip_prefix(key)?
            .strip_prefix(' ')?
            .parse()
            .ok()
    };
    let utility = value("utility")?;
    let guarantee = value("guarantee")?;
    let upper_bound = value("optimum_upper_bound")?;
    (utility > 0.0).then_some(upper_bound <= guarantee * utility * (1.0 + CERTIFICATE_SLACK))
}

/// How many times a `BUSY` reply is retried (with backoff) before the
/// request is abandoned and counted under `busy`.
const BUSY_RETRIES: usize = 20;

/// Deterministic nonzero trace id for `(seed, client, request)` — a
/// SplitMix64 fold, so reruns of the same config mint the same ids and
/// a failing request can be looked up again by trace.
fn mint_trace_id(seed: u64, client_id: usize, idx: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((client_id as u64) << 32)
        .wrapping_add(idx)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) | 1 // nonzero: zero is the untraced sentinel
}

fn drive_one(
    client: &mut Client,
    cfg: &LoadConfig,
    hash: Option<&str>,
    trace_id: Option<u64>,
) -> std::io::Result<ClientReply> {
    for attempt in 0..=BUSY_RETRIES {
        if let Some(id) = trace_id {
            client.trace_next(id);
        }
        let reply = match hash {
            Some(h) => client.run_hash(cfg.op, h, cfg.big_r)?,
            None => client.run_inline(cfg.op, &cfg.instance_text, cfg.big_r)?,
        };
        match &reply {
            ClientReply::Err(ErrorCode::Busy, _) if attempt < BUSY_RETRIES => {
                std::thread::sleep(Duration::from_millis(2 << attempt.min(5)));
            }
            _ => return Ok(reply),
        }
    }
    unreachable!("loop returns on the last attempt")
}

fn client_loop(cfg: &LoadConfig, n_requests: usize, client_id: usize) -> ClientTally {
    let mut tally = ClientTally::new();
    let mut client = match Client::connect(&cfg.addr) {
        Ok(c) => c,
        Err(e) => {
            tally.sent = n_requests as u64;
            tally.note_err(format!("connect {}: {e}", cfg.addr));
            tally.errors = n_requests as u64;
            return tally;
        }
    };
    let hash = if cfg.by_hash {
        match client.put(&cfg.instance_text) {
            Ok(Ok(h)) => Some(h),
            Ok(Err(e)) => {
                tally.note_err(format!("PUT: {e}"));
                return tally;
            }
            Err(e) => {
                tally.note_err(format!("PUT transport: {e}"));
                return tally;
            }
        }
    } else {
        None
    };
    for i in 0..n_requests {
        tally.sent += 1;
        let trace_id = cfg
            .trace
            .then(|| mint_trace_id(cfg.seed, client_id, i as u64));
        if let Some(id) = trace_id {
            tally.note_trace(id);
        }
        let started = Instant::now();
        match drive_one(&mut client, cfg, hash.as_deref(), trace_id) {
            Ok(ClientReply::Ok(body)) => {
                tally.histogram.record(started.elapsed().as_micros() as u64);
                if tally.check_certificate(&body) {
                    tally.ok += 1;
                }
                tally
                    .bodies
                    .insert(mmlp_instance::hash::fnv1a64(body.as_bytes()));
            }
            Ok(ClientReply::Err(ErrorCode::Busy, _)) => tally.busy += 1,
            Ok(ClientReply::Err(code, msg)) => {
                tally.note_err(format!("{}: {msg}", code.as_str()));
            }
            Err(e) => tally.note_err(format!("transport: {e}")),
        }
    }
    tally
}

/// One open-pipeline client: keeps up to `cfg.pipeline` requests in
/// flight on a single connection, collecting replies in FIFO order (the
/// server guarantees reply order matches request order). Per-request
/// latency is measured from enqueue to reply, so it includes the time a
/// request spends behind its window-mates — the honest number for an
/// open load model. `BUSY` replies are counted, not retried: an open
/// window has no natural point to park and back off, and the point of
/// this mode is measuring the server under sustained offered load.
fn pipeline_loop(cfg: &LoadConfig, n_requests: usize, client_id: usize) -> ClientTally {
    let mut tally = ClientTally::new();
    let fail_all = |tally: &mut ClientTally, n: usize, msg: String| {
        tally.sent = n as u64;
        tally.note_err(msg);
        tally.errors = n as u64;
    };
    let mut pc = match PipelinedClient::connect(&cfg.addr) {
        Ok(c) => c,
        Err(e) => {
            fail_all(&mut tally, n_requests, format!("connect {}: {e}", cfg.addr));
            return tally;
        }
    };
    // The instance rides the same connection: PUT is just the first
    // request through the pipeline.
    let put_line = format!("PUT {}", cfg.instance_text.len());
    let hash = match pc
        .send(&put_line, Some(cfg.instance_text.as_bytes()))
        .and_then(|()| pc.recv())
    {
        Ok(ClientReply::Ok(body)) => body
            .trim()
            .strip_prefix("hash ")
            .unwrap_or(body.trim())
            .to_string(),
        Ok(ClientReply::Err(code, msg)) => {
            fail_all(
                &mut tally,
                n_requests,
                format!("PUT {}: {msg}", code.as_str()),
            );
            return tally;
        }
        Err(e) => {
            fail_all(&mut tally, n_requests, format!("PUT transport: {e}"));
            return tally;
        }
    };
    let mut queued = 0usize;
    let mut starts: VecDeque<Instant> = VecDeque::with_capacity(cfg.pipeline);
    while tally.sent < n_requests as u64 || !starts.is_empty() {
        // Top the window up...
        while queued < n_requests && starts.len() < cfg.pipeline {
            let trace_id = cfg
                .trace
                .then(|| mint_trace_id(cfg.seed, client_id, queued as u64));
            let sent = (|| {
                if let Some(id) = trace_id {
                    pc.send_trace(id)?;
                }
                if cfg.by_hash {
                    pc.send_run_hash(cfg.op, &hash, cfg.big_r)
                } else {
                    let src = format!("inline:{}", cfg.instance_text.len());
                    pc.send(
                        &crate::client::run_line(cfg.op, &src, cfg.big_r),
                        Some(cfg.instance_text.as_bytes()),
                    )
                }
            })();
            queued += 1;
            tally.sent += 1;
            match sent {
                Ok(()) => {
                    if let Some(id) = trace_id {
                        tally.note_trace(id);
                    }
                    starts.push_back(Instant::now());
                }
                Err(e) => tally.note_err(format!("send: {e}")),
            }
        }
        // ...then drain the oldest reply.
        let Some(started) = starts.pop_front() else {
            break;
        };
        match pc.recv() {
            Ok(ClientReply::Ok(body)) => {
                tally.histogram.record(started.elapsed().as_micros() as u64);
                if tally.check_certificate(&body) {
                    tally.ok += 1;
                }
                tally
                    .bodies
                    .insert(mmlp_instance::hash::fnv1a64(body.as_bytes()));
            }
            Ok(ClientReply::Err(ErrorCode::Busy, _)) => tally.busy += 1,
            Ok(ClientReply::Err(code, msg)) => {
                tally.note_err(format!("{}: {msg}", code.as_str()));
            }
            Err(e) => {
                // The connection is gone; everything still in flight
                // (and everything unsent) is lost with it.
                tally.note_err(format!("transport: {e}"));
                tally.errors += starts.len() as u64 + (n_requests - queued) as u64;
                tally.sent += (n_requests - queued) as u64;
                break;
            }
        }
    }
    tally
}

/// A tiny xorshift64* stream — deterministic per `(seed, client)`, no
/// dependency, good enough to scatter edits across constraints.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, client_id: usize) -> Rng {
        // SplitMix-style fold so nearby seeds/clients diverge at once.
        let mut s =
            seed.wrapping_add(0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(client_id as u64 + 1)) | 1;
        s ^= s >> 30;
        s = s.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        Rng(s | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform-ish in `[0, n)`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// A coefficient scale factor in `[0.6, 1.8]` — strictly positive,
    /// bounded away from underflow so chains of hundreds of edits keep
    /// well-conditioned coefficients.
    fn factor(&mut self) -> f64 {
        0.6 + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 1.2
    }
}

/// One mutate-mode client: walk a private chain of random single
/// coefficient edits off the shared base, and for every step check the
/// incremental `SOLVE_DELTA` body against a from-scratch `SOLVE` of
/// the same revision, byte for byte. A step counts `ok` only when both
/// replies arrived and agreed.
fn mutate_loop(cfg: &LoadConfig, n_requests: usize, client_id: usize) -> ClientTally {
    let mut tally = ClientTally::new();
    let fail_all = |tally: &mut ClientTally, n: usize, msg: String| {
        tally.sent = n as u64;
        tally.note_err(msg);
        tally.errors = n as u64;
    };
    let mut cur: Instance = match textfmt::parse_instance(&cfg.instance_text) {
        Ok(i) => i,
        Err(e) => {
            fail_all(&mut tally, n_requests, format!("parse instance: {e}"));
            return tally;
        }
    };
    let mut client = match Client::connect(&cfg.addr) {
        Ok(c) => c,
        Err(e) => {
            fail_all(&mut tally, n_requests, format!("connect {}: {e}", cfg.addr));
            return tally;
        }
    };
    match client.put(&cfg.instance_text) {
        Ok(Ok(_)) => {}
        Ok(Err(e)) => {
            fail_all(&mut tally, n_requests, format!("PUT: {e}"));
            return tally;
        }
        Err(e) => {
            fail_all(&mut tally, n_requests, format!("PUT transport: {e}"));
            return tally;
        }
    }
    let mut rng = Rng::new(cfg.seed, client_id);
    for i in 0..n_requests {
        tally.sent += 1;
        let trace_id = cfg
            .trace
            .then(|| mint_trace_id(cfg.seed, client_id, i as u64));
        if let Some(id) = trace_id {
            tally.note_trace(id);
        }
        // A random single edit: scale one existing constraint
        // coefficient. This keeps the instance in special form, so the
        // server repairs it in place instead of rebuilding.
        let row_id = rng.below(cur.n_constraints()) as u32;
        let row = cur.constraint_row(ConstraintId::new(row_id));
        let entry = row[rng.below(row.len())];
        let delta = Delta::single(
            instance_hash(&cur),
            Edit::SetCoef {
                row: RowKind::Constraint,
                row_id,
                agent: entry.agent,
                coef: entry.coef * rng.factor(),
            },
        );
        let next = match delta.apply(&cur) {
            Ok(i) => i,
            Err(e) => {
                tally.note_err(format!("local apply: {e}"));
                continue;
            }
        };
        let revision = hash_hex(instance_hash(&next));
        let started = Instant::now();
        let incr = retry_busy(|| {
            if let Some(id) = trace_id {
                client.trace_next(id);
            }
            client.solve_delta_inline(&delta.to_text(), cfg.big_r)
        });
        let incr = match incr {
            Ok(ClientReply::Ok(body)) => {
                tally.histogram.record(started.elapsed().as_micros() as u64);
                body
            }
            Ok(ClientReply::Err(ErrorCode::Busy, _)) => {
                tally.busy += 1;
                continue;
            }
            Ok(ClientReply::Err(code, msg)) => {
                tally.note_err(format!("SOLVE_DELTA {}: {msg}", code.as_str()));
                continue;
            }
            Err(e) => {
                tally.note_err(format!("SOLVE_DELTA transport: {e}"));
                continue;
            }
        };
        // The oracle: an independent from-scratch solve of the same
        // revision, cached (and computed) under SOLVE's own namespace.
        let scratch = retry_busy(|| client.run_hash(Op::Solve, &revision, cfg.big_r));
        match scratch {
            Ok(ClientReply::Ok(body)) => {
                tally.delta_checks += 1;
                let incr_certified = tally.check_certificate(&incr);
                let scratch_certified = tally.check_certificate(&body);
                if body.as_bytes() == incr.as_bytes() {
                    if incr_certified && scratch_certified {
                        tally.ok += 1;
                    }
                } else {
                    tally.delta_mismatches += 1;
                    tally.note_err(format!(
                        "bit-identity violated at revision {revision} (edit chain step {})",
                        tally.sent
                    ));
                }
            }
            Ok(ClientReply::Err(ErrorCode::Busy, _)) => tally.busy += 1,
            Ok(ClientReply::Err(code, msg)) => {
                tally.note_err(format!("oracle SOLVE {}: {msg}", code.as_str()));
            }
            Err(e) => tally.note_err(format!("oracle transport: {e}")),
        }
        cur = next;
    }
    tally
}

/// Retries `f` on `BUSY` with the same backoff as [`drive_one`].
fn retry_busy(mut f: impl FnMut() -> std::io::Result<ClientReply>) -> std::io::Result<ClientReply> {
    for attempt in 0..=BUSY_RETRIES {
        let reply = f()?;
        match &reply {
            ClientReply::Err(ErrorCode::Busy, _) if attempt < BUSY_RETRIES => {
                std::thread::sleep(Duration::from_millis(2 << attempt.min(5)));
            }
            _ => return Ok(reply),
        }
    }
    unreachable!("loop returns on the last attempt")
}

/// Runs the load, one thread per client, and aggregates.
pub fn run_loadgen(cfg: &LoadConfig) -> Result<LoadReport, String> {
    if cfg.clients == 0 || cfg.requests == 0 {
        return Err("need at least one client and one request".into());
    }
    if cfg.instance_text.is_empty() {
        return Err("no instance text to drive with".into());
    }
    if cfg.pipeline == 0 {
        return Err("pipeline depth must be at least 1".into());
    }
    if cfg.mutate && cfg.pipeline > 1 {
        return Err("mutate mode is request-then-check; it cannot pipeline".into());
    }
    let started = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for c in 0..cfg.clients {
            // Spread the total evenly; early clients absorb the remainder.
            let share = cfg.requests / cfg.clients + usize::from(c < cfg.requests % cfg.clients);
            joins.push(scope.spawn(move || {
                if cfg.mutate {
                    mutate_loop(cfg, share, c)
                } else if cfg.pipeline > 1 {
                    pipeline_loop(cfg, share, c)
                } else {
                    client_loop(cfg, share, c)
                }
            }));
        }
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread"))
            .collect()
    });
    let wall = started.elapsed();

    let mut report = LoadReport {
        sent: 0,
        ok: 0,
        busy: 0,
        errors: 0,
        distinct_bodies: 0,
        body_fnv: None,
        histogram: Histogram::new(),
        wall,
        first_error: None,
        delta_checks: 0,
        delta_mismatches: 0,
        certificate_checks: 0,
        certificate_violations: 0,
        traced: 0,
        last_trace_id: None,
        server_delta_us: None,
    };
    let mut bodies = BTreeSet::new();
    for t in tallies {
        report.sent += t.sent;
        report.ok += t.ok;
        report.busy += t.busy;
        report.errors += t.errors;
        report.delta_checks += t.delta_checks;
        report.delta_mismatches += t.delta_mismatches;
        report.certificate_checks += t.certificate_checks;
        report.certificate_violations += t.certificate_violations;
        report.traced += t.traced;
        report.histogram.merge(&t.histogram);
        bodies.extend(t.bodies);
        if report.first_error.is_none() {
            report.first_error = t.first_error;
        }
        if t.last_trace_id.is_some() {
            report.last_trace_id = t.last_trace_id;
        }
    }
    report.distinct_bodies = bodies.len();
    if bodies.len() == 1 {
        report.body_fnv = bodies.first().copied();
    }

    // Mutate mode pulls the server's own SOLVE_DELTA quantiles before
    // any shutdown: the closed loop only times round trips it waited
    // for, while the server-side histogram sees every solve.
    if cfg.mutate {
        if let Ok(mut c) = Client::connect(&cfg.addr) {
            if let Ok(stats) = c.stats() {
                let get = |key: &str| stats.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
                if let (Some(p50), Some(p95), Some(p99)) = (
                    get("delta_latency_p50_us"),
                    get("delta_latency_p95_us"),
                    get("delta_latency_p99_us"),
                ) {
                    report.server_delta_us = Some((p50, p95, p99));
                }
            }
        }
    }

    if cfg.shutdown_after {
        let mut c = Client::connect(&cfg.addr).map_err(|e| format!("shutdown connect: {e}"))?;
        c.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    }
    Ok(report)
}

/// Renders the human-readable latency report the CLI prints (and CI
/// uploads as an artifact).
pub fn render_report(cfg: &LoadConfig, r: &LoadReport) -> String {
    let mut out = String::new();
    use std::fmt::Write as _;
    let verb = if cfg.mutate { "mutate" } else { cfg.op.tag() };
    let _ = writeln!(out, "# loadgen {verb} against {}", cfg.addr);
    let _ = writeln!(
        out,
        "clients {}  requests {}  mode {}",
        cfg.clients,
        cfg.requests,
        if cfg.mutate {
            "mutate"
        } else if cfg.by_hash {
            "hash"
        } else {
            "inline"
        }
    );
    if cfg.pipeline > 1 {
        let _ = writeln!(out, "pipeline_depth {}", cfg.pipeline);
    }
    let _ = writeln!(out, "sent {}", r.sent);
    let _ = writeln!(out, "ok {}", r.ok);
    let _ = writeln!(out, "busy {}", r.busy);
    let _ = writeln!(out, "errors {}", r.errors);
    if let Some(e) = &r.first_error {
        let _ = writeln!(out, "first_error {e}");
    }
    let _ = writeln!(out, "certificate_checks {}", r.certificate_checks);
    let _ = writeln!(out, "certificate_violations {}", r.certificate_violations);
    if cfg.mutate {
        let _ = writeln!(out, "delta_checks {}", r.delta_checks);
        let _ = writeln!(out, "delta_mismatches {}", r.delta_mismatches);
        if let Some((p50, p95, p99)) = r.server_delta_us {
            let _ = writeln!(out, "server_delta_p50_us {p50}");
            let _ = writeln!(out, "server_delta_p95_us {p95}");
            let _ = writeln!(out, "server_delta_p99_us {p99}");
        }
    }
    if cfg.trace {
        let _ = writeln!(out, "traced {}", r.traced);
        if let Some(id) = r.last_trace_id {
            let _ = writeln!(out, "last_trace_id {id:016x}");
        }
    }
    let _ = writeln!(out, "distinct_bodies {}", r.distinct_bodies);
    if let Some(h) = r.body_fnv {
        let _ = writeln!(out, "body_fnv {}", mmlp_instance::hash::hash_hex(h));
    }
    let _ = writeln!(out, "wall_ms {}", r.wall.as_millis());
    let _ = writeln!(out, "throughput_rps {:.1}", r.throughput());
    let _ = writeln!(out, "p50_us {}", r.histogram.percentile(0.50));
    let _ = writeln!(out, "p95_us {}", r.histogram.percentile(0.95));
    let _ = writeln!(out, "p99_us {}", r.histogram.percentile(0.99));
    let _ = writeln!(out, "max_us {}", r.histogram.max_us());
    let _ = writeln!(out, "mean_us {}", r.histogram.mean_us());
    out.push('\n');
    out.push_str(&r.histogram.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The header of the `SOLVE` reply for `generate bandwidth 48 7` at
    /// R = 3, where the bound holds with equality up to rounding.
    const BANDWIDTH_R3: &str = "utility 0.5412624394686472\n\
                                guarantee 2.25\n\
                                optimum_upper_bound 1.2178404888044563\n\
                                x 0 0.29175936402876623\n";

    #[test]
    fn the_certificate_check_allows_rounding_but_not_a_real_excess() {
        let (utility, guarantee) = (0.5412624394686472, 2.25);
        // Exact arithmetic rejects the tight bandwidth reply by an ulp;
        // the check's slack accepts it.
        assert!(1.2178404888044563 > guarantee * utility);
        assert_eq!(certificate_holds(BANDWIDTH_R3), Some(true));
        let over = format!(
            "utility {utility}\nguarantee {guarantee}\noptimum_upper_bound {}\n",
            guarantee * utility * (1.0 + 1e-6)
        );
        assert_eq!(certificate_holds(&over), Some(false));
        let mut tally = ClientTally::new();
        assert!(tally.check_certificate(BANDWIDTH_R3));
        assert!(!tally.check_certificate(&over));
        assert_eq!(
            (
                tally.certificate_checks,
                tally.certificate_violations,
                tally.errors
            ),
            (2, 1, 1)
        );
        // Bodies without the SOLVE header, or with nothing to certify,
        // are not checked: a SAFE body, an OPTIMUM body, zero utility.
        for body in [
            "utility 0.5\nx 0 0.5\n",
            "optimum 1.5\nx 0 0.5\n",
            "utility 0\nguarantee 2\noptimum_upper_bound 1\n",
        ] {
            assert_eq!(certificate_holds(body), None, "{body}");
        }
    }
}
