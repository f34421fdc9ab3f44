//! The long-running TCP service: an event-driven readiness front-end
//! over the vendored [`reactor`] crate, dispatch onto the bounded
//! worker pool, and graceful drain.
//!
//! Threading model:
//!
//! * a small fixed pool of **event loops** (`event_loops`, default 4;
//!   loop 0 runs on the thread that called [`Server::run`] and owns the
//!   nonblocking listener). Accepted connections are handed round-robin
//!   to a loop and stay there for life; each loop multiplexes its
//!   connections with `epoll` readiness, so ten thousand idle clients
//!   cost ten thousand fds, not ten thousand threads;
//! * `workers` **solver threads** behind a bounded queue
//!   (`mmlp_lab::pool::TaskPool`). A full queue surfaces as `ERR BUSY`
//!   on the wire — the 503 of this protocol — so load spikes degrade
//!   into fast rejections instead of unbounded memory growth.
//!
//! Each connection is an incremental state machine over the line
//! protocol: command lines (including the optional `TRACE` prefix) and
//! length-prefixed bodies are parsed from whatever bytes the last
//! readiness event delivered, so a request split at any byte boundary
//! parses identically to one arriving whole. Requests **pipeline**: a
//! client may write several commands back-to-back without waiting;
//! replies are queued per connection and written back strictly in
//! request order (`specs/PROTOCOL.md`). Cache hits and other cheap
//! commands complete inline on the event loop; only cold solves,
//! lineage rebuilds of a revision the store does not hold (and
//! `SLEEP`) consume a worker slot, completing back to their loop via a
//! completion inbox and an `eventfd` waker.
//!
//! **Shutdown.** `SHUTDOWN` flips a flag and wakes every loop. Loop 0
//! drops the listener; idle connections are closed; connections with
//! queued or in-flight requests are served until they drain; the pool
//! runs every accepted task; then [`Server::run`] returns a final
//! [`ServerSummary`]. In-flight work is never dropped.

use crate::delta::{Advanced, DeltaMode, DeltaSolveInfo, InlineDelta};
use crate::engine::{self, CacheKey, Engine, EngineError, InlineStart, Lookup};
use crate::protocol::{
    declared_body, parse_command, parse_trace_line, BodyDecl, Command, ErrorCode, Op, Reply, Source,
};
use crate::stats::ServeMetrics;
use mmlp_instance::delta::{Delta, Lineage};
use mmlp_instance::hash::hash_hex;
use mmlp_instance::Instance;
use mmlp_lab::pool::{Outcome, SubmitError, TaskPool, TaskPoolConfig};
use mmlp_obs::journal::{EV_BUSY, EV_CACHE, EV_DELTA, EV_SPAN, EV_STORE};
use mmlp_obs::span::ROOT_SPAN;
use mmlp_obs::{
    mint_trace_ids_after, next_trace_id, Journal, JournalConfig, JournalRecord, SpanRecorder,
    SpanRing, SpanTree,
};
use reactor::{Event, Events, Interest, Poll, Token, Waker};
use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Server configuration (see `maxmin-lp serve --help` for the CLI
/// surface over it).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (tests).
    pub addr: String,
    /// Solver worker threads.
    pub workers: usize,
    /// Bounded request-queue capacity (backpressure bound).
    pub queue_cap: usize,
    /// Result-cache budget in bytes.
    pub cache_bytes: u64,
    /// Instance-store budget in bytes.
    pub store_bytes: u64,
    /// Per-request solver timeout; `None` disables it.
    pub timeout: Option<Duration>,
    /// Maximum simultaneous client connections.
    pub max_connections: usize,
    /// Largest accepted `PUT`/`inline:` body, in bytes.
    pub max_body_bytes: usize,
    /// Event-loop threads multiplexing client connections (loop 0 runs
    /// on the caller of [`Server::run`]). Warm hits and protocol
    /// chatter are served here; more loops help only when those inline
    /// paths saturate a core (`specs/PERF.md`).
    pub event_loops: usize,
    /// When set, mount a persistent `mmlp-store` at this directory:
    /// `PUT` instances and solved results are appended to disk, and a
    /// restart warm-starts the caches from it (`specs/STORAGE.md`).
    pub store_dir: Option<std::path::PathBuf>,
    /// When set, mount the crash-safe event journal at this directory:
    /// span trees, cache evictions, BUSY rejections, delta resolutions
    /// and store reports are appended as checksummed records
    /// (`specs/OBSERVABILITY.md`), readable with `maxmin-lp obs
    /// journal` / `obs trace` even after a kill -9.
    pub journal_dir: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7979".into(),
            workers: 4,
            queue_cap: 256,
            cache_bytes: 64 << 20,
            store_bytes: 64 << 20,
            timeout: Some(Duration::from_secs(30)),
            max_connections: 256,
            max_body_bytes: 16 << 20,
            // One loop per core up to 4: on a single-core host extra
            // loop threads only add scheduler churn, and past a few
            // loops the worker pool is the bottleneck anyway.
            event_loops: std::thread::available_parallelism().map_or(1, |n| n.get().min(4)),
            store_dir: None,
            journal_dir: None,
        }
    }
}

/// Final counters returned by [`Server::run`] after the drain.
#[derive(Clone, Debug, Default)]
pub struct ServerSummary {
    /// Total commands served.
    pub requests: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses (cold solves).
    pub cache_misses: u64,
    /// `BUSY` rejections.
    pub busy: u64,
    /// Non-`BUSY` error replies.
    pub errors: u64,
    /// Requests killed by the per-request timeout.
    pub timeouts: u64,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// The slowest traced requests whose span trees the span ring
    /// still held at shutdown, slowest first (render with
    /// [`mmlp_obs::render_span_tree`]). Traced means the client sent a
    /// `TRACE` line or the 1-in-64 sampler picked the request, so an
    /// untraced cold solve is not here however slow it was.
    pub slowest: Vec<SpanTree>,
}

/// How many span trees the final [`ServerSummary`] carries.
const SUMMARY_SLOWEST: usize = 8;
/// Finished request span trees kept in memory ([`SpanRing`]).
const SPAN_RING_CAP: usize = 256;
/// Without a client-supplied `TRACE` line, one request in this many is
/// traced server-side (the first request always is).
const TRACE_SAMPLE_EVERY: u64 = 64;

/// The waker's registration token on every loop.
const TOK_WAKER: usize = 0;
/// The listener's registration token (loop 0 only).
const TOK_LISTENER: usize = 1;
/// First token handed to an accepted connection.
const TOK_FIRST_CONN: usize = 2;

/// Bytes read from one connection per readiness event before yielding
/// to its loop-mates (level-triggered registrations re-fire while input
/// remains, so nothing is lost).
const READ_BUDGET_PER_EVENT: usize = 256 * 1024;
/// Unwritten reply bytes beyond which a connection stops being read
/// until the client drains its side (per-connection backpressure).
const WRITE_BACKLOG_PAUSE: usize = 1 << 20;

/// A stalled client may sit mid-command or mid-body forever; after
/// this much wall time without completing the read, the connection is
/// dropped so it cannot pin a connection slot indefinitely.
const STALLED_READ_DEADLINE: Duration = Duration::from_secs(30);

/// Cross-thread mailbox of one event loop: freshly accepted
/// connections handed over by the acceptor, and completions of pooled
/// work owned by this loop's connections.
#[derive(Default)]
struct Inbox {
    conns: Vec<TcpStream>,
    completions: Vec<Completion>,
}

/// A finished pooled task, routed back to the loop that owns the
/// connection so the reply lands in its pipeline slot.
struct Completion {
    token: usize,
    seq: u64,
    outcome: Outcome<Result<Done, EngineError>>,
}

/// What a pooled task hands back to its event loop.
enum Done {
    /// A reply body.
    Body(String),
    /// An inline delta that advanced a parked solver in place: the loop
    /// registers the new revision before the body goes out.
    Advanced(Box<Advanced>),
    /// A body the worker solved for a revision it registered itself:
    /// cached under its key like any pooled miss.
    Solved(CacheKey, String),
}

/// The shareable half of an event loop: anyone holding it can hand the
/// loop work and wake it out of `epoll_wait`.
struct LoopHandle {
    waker: Waker,
    inbox: Mutex<Inbox>,
}

struct Shared {
    engine: Engine,
    pool: TaskPool,
    metrics: ServeMetrics,
    spans: SpanRing,
    journal: Option<Arc<Journal>>,
    trace_counter: AtomicU64,
    shutting_down: AtomicBool,
    live_connections: AtomicUsize,
    cfg: ServeConfig,
    started: Instant,
    /// Set once by [`Server::run`]; lets any connection (notably the
    /// one carrying `SHUTDOWN`) wake every loop.
    loops: OnceLock<Arc<Vec<Arc<LoopHandle>>>>,
}

/// A bound, not-yet-running server. Binding is separate from running
/// so callers (tests, the CLI) can learn the ephemeral port first.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and spawns the worker pool. With a
    /// `store_dir` configured, this is also where the persistent store
    /// is opened (recovering any crash damage) and the caches are
    /// warm-started from it.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let pool = TaskPool::new(TaskPoolConfig {
            workers: cfg.workers,
            queue_cap: cfg.queue_cap,
            timeout: cfg.timeout,
        });
        let metrics = ServeMetrics::new();
        let mut store_note = None;
        let engine = match &cfg.store_dir {
            None => Engine::with_metrics(cfg.cache_bytes, cfg.store_bytes, metrics.store.clone()),
            Some(dir) => {
                let t = Instant::now();
                let (engine, report) = Engine::open_store(
                    cfg.cache_bytes,
                    cfg.store_bytes,
                    dir,
                    metrics.store.clone(),
                )?;
                metrics.warm_start_us.set(t.elapsed().as_micros() as u64);
                store_note = Some(report.summary_line());
                engine
            }
        };
        let journal = match &cfg.journal_dir {
            None => None,
            Some(dir) => {
                let (j, report) = Journal::open(JournalConfig::new(dir))?;
                // Server-minted ids count from 1 in every process: start
                // past the earlier lives' ids so none is journaled twice.
                mint_trace_ids_after(report.max_trace_id);
                Some(Arc::new(j))
            }
        };
        // The store's recovery outcome is itself an event worth keeping
        // across restarts: journal it at bind time.
        if let (Some(j), Some(note)) = (&journal, store_note) {
            j.emit(JournalRecord {
                kind: EV_STORE,
                trace_id: 0,
                text: note,
            });
        }
        metrics
            .warm_lineage_dropped
            .set(engine.warm_start().lineage_dropped);
        let shared = Arc::new(Shared {
            engine,
            pool,
            metrics,
            spans: SpanRing::new(SPAN_RING_CAP),
            journal,
            trace_counter: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            live_connections: AtomicUsize::new(0),
            cfg,
            started: Instant::now(),
            loops: OnceLock::new(),
        });
        Ok(Server {
            listener,
            local_addr,
            shared,
        })
    }

    /// The actual bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serves until a `SHUTDOWN` command arrives, then drains and
    /// returns the lifetime counters.
    pub fn run(self) -> std::io::Result<ServerSummary> {
        let Server {
            listener,
            local_addr: _,
            shared,
        } = self;
        listener.set_nonblocking(true)?;
        let n_loops = shared.cfg.event_loops.max(1);
        let mut polls = Vec::with_capacity(n_loops);
        let mut handles = Vec::with_capacity(n_loops);
        for _ in 0..n_loops {
            let poll = Poll::new()?;
            let waker = Waker::new(&poll, Token(TOK_WAKER))?;
            handles.push(Arc::new(LoopHandle {
                waker,
                inbox: Mutex::new(Inbox::default()),
            }));
            polls.push(poll);
        }
        let handles = Arc::new(handles);
        let _ = shared.loops.set(Arc::clone(&handles));

        let mut polls = polls.into_iter();
        let poll0 = polls.next().expect("at least one event loop");
        poll0.register(&listener, Token(TOK_LISTENER), Interest::READABLE)?;

        let mut joins = Vec::new();
        for (i, poll) in polls.enumerate() {
            let shared = Arc::clone(&shared);
            let handles = Arc::clone(&handles);
            joins.push(std::thread::spawn(move || {
                EventLoop::new(i + 1, poll, None, shared, handles).run()
            }));
        }
        let result = EventLoop::new(
            0,
            poll0,
            Some(listener),
            Arc::clone(&shared),
            Arc::clone(&handles),
        )
        .run();
        // Belt and braces: if loop 0 died on an epoll error rather than
        // a drain, make sure the sibling loops can still exit.
        shared.shutting_down.store(true, Ordering::SeqCst);
        wake_all(&shared);
        for j in joins {
            let _ = j.join();
        }
        result?;
        match Arc::try_unwrap(shared) {
            Ok(s) => {
                s.pool.shutdown(); // blocks until accepted work ran
                Ok(summary_of(&s.metrics, &s.spans))
            }
            Err(shared) => {
                // A straggler still holds the Arc (a pooled task still
                // running: timed out, or its client gone); the pool
                // drains when the task drops it, on the task's thread.
                Ok(summary_of(&shared.metrics, &shared.spans))
            }
        }
    }
}

fn summary_of(m: &ServeMetrics, spans: &SpanRing) -> ServerSummary {
    ServerSummary {
        requests: m.requests.get(),
        cache_hits: m.cache_hits_total(),
        cache_misses: m.cache_misses_total(),
        busy: m.busy.get(),
        errors: m.errors.get(),
        timeouts: m.timeouts.get(),
        connections: m.connections.get(),
        slowest: spans.slowest(SUMMARY_SLOWEST),
    }
}

/// Wakes every event loop (shutdown broadcast).
fn wake_all(shared: &Shared) {
    if let Some(loops) = shared.loops.get() {
        for h in loops.iter() {
            let _ = h.waker.wake();
        }
    }
}

/// Longest accepted command line. Inline sources put the body *after*
/// the line, so lines are short; anything past this bound is a framing
/// error, not a slow sender.
fn line_limit(cfg: &ServeConfig) -> usize {
    cfg.max_body_bytes.max(64 * 1024)
}

/// Everything one request needs at finalisation time, captured when its
/// command line was parsed: the latency clock, trace identity, span
/// recorder, stats label and the raw line (for `EV_BUSY` journaling).
struct RequestCtx {
    started: Instant,
    trace_id: u64,
    span: Option<Arc<SpanRecorder>>,
    op_label: Option<&'static str>,
    line: String,
}

/// Where the connection's parser is between readiness events.
enum ParseState {
    /// Waiting for (the rest of) a command line.
    Line,
    /// A command line is waiting for its `need` body bytes. A rejected
    /// line that declares a body carries its `BADREQ` message: the body
    /// is read and dropped before the reply, keeping the stream
    /// request-aligned.
    Body {
        ctx: RequestCtx,
        cmd: Result<Command, String>,
        need: usize,
    },
}

/// One slot in a connection's in-order reply pipeline.
enum Slot {
    /// Framed wire bytes, ready to flush (once every slot ahead is).
    Ready(Vec<u8>),
    /// A pooled request still running; its completion is matched by
    /// `seq` and replaces the slot in place, preserving request order.
    Pending {
        seq: u64,
        ctx: RequestCtx,
        /// For `Run` requests: the result-cache key and op, so the
        /// completion can record hit/miss stats and insert the body.
        cache: Option<(CacheKey, Op)>,
    },
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Unparsed input; `rpos` is the parse cursor (compacted after each
    /// processing pass).
    rbuf: Vec<u8>,
    rpos: usize,
    /// Framed, unwritten output; `wpos` is the write cursor.
    wbuf: Vec<u8>,
    wpos: usize,
    parse: ParseState,
    /// A `TRACE <hex>` prefix line applies to the next command on this
    /// connection (specs/PROTOCOL.md); it gets no reply of its own.
    pending_trace: Option<u64>,
    replies: VecDeque<Slot>,
    next_seq: u64,
    /// The `seq` of an in-place `SOLVE_DELTA inline:` whose revision is
    /// registered only when it completes: later commands wait for that,
    /// so commands still take effect in order (specs/PROTOCOL.md).
    hold_for: Option<u64>,
    /// Stop reading; close once every queued reply is flushed.
    close_after_flush: bool,
    /// Drop the connection now, without a reply (unrecoverable input).
    hard_close: bool,
    peer_eof: bool,
    cur_interest: Interest,
    /// Set while a command is partially received; the loop closes the
    /// connection when it exceeds [`STALLED_READ_DEADLINE`].
    stall_since: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            parse: ParseState::Line,
            pending_trace: None,
            replies: VecDeque::new(),
            next_seq: 0,
            hold_for: None,
            close_after_flush: false,
            hard_close: false,
            peer_eof: false,
            cur_interest: Interest::READABLE,
            stall_since: None,
        }
    }

    /// No queued replies and nothing buffered for the wire.
    fn output_drained(&self) -> bool {
        self.replies.is_empty() && self.wpos == self.wbuf.len()
    }
}

/// One event loop: an `epoll` instance, the connections registered with
/// it, and (on loop 0) the listener.
struct EventLoop {
    id: usize,
    poll: Poll,
    listener: Option<TcpListener>,
    shared: Arc<Shared>,
    loops: Arc<Vec<Arc<LoopHandle>>>,
    me: Arc<LoopHandle>,
    conns: HashMap<usize, Conn>,
    next_token: usize,
    accept_rr: usize,
}

impl EventLoop {
    fn new(
        id: usize,
        poll: Poll,
        listener: Option<TcpListener>,
        shared: Arc<Shared>,
        loops: Arc<Vec<Arc<LoopHandle>>>,
    ) -> EventLoop {
        let me = Arc::clone(&loops[id]);
        EventLoop {
            id,
            poll,
            listener,
            shared,
            loops,
            me,
            conns: HashMap::new(),
            next_token: TOK_FIRST_CONN,
            accept_rr: id,
        }
    }

    fn run(mut self) -> io::Result<()> {
        let mut events = Events::with_capacity(256);
        loop {
            if self.shared.shutting_down.load(Ordering::SeqCst)
                && self.conns.is_empty()
                && self.listener.is_none()
            {
                return Ok(());
            }
            self.poll.poll(&mut events, self.poll_timeout())?;
            // The batch is collected first: handling one event can
            // close a connection another event in the batch names.
            let batch: Vec<Event> = events.iter().collect();
            for ev in batch {
                self.handle_event(ev);
            }
            self.drain_inbox();
            self.sweep();
        }
    }

    /// Sleep until readiness — or until the earliest mid-command stall
    /// deadline, so [`sweep`](Self::sweep) can drop the staller.
    fn poll_timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        self.conns
            .values()
            .filter_map(|c| c.stall_since)
            .map(|since| (since + STALLED_READ_DEADLINE).saturating_duration_since(now))
            .min()
    }

    fn handle_event(&mut self, ev: Event) {
        match ev.token().0 {
            TOK_WAKER => self.me.waker.drain(),
            TOK_LISTENER => self.accept_ready(),
            token => {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return; // closed earlier in this batch
                };
                let mut dead = false;
                if ev.is_readable() {
                    match read_into(conn) {
                        Ok(()) => process_input(&self.shared, &self.me, token, conn),
                        Err(_) => dead = true,
                    }
                }
                if dead {
                    self.close_conn(token);
                } else {
                    self.service(token);
                }
            }
        }
    }

    /// Accepts every pending connection, applies the connection limit,
    /// and deals new connections round-robin across the loops.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.shared.metrics.connections.inc();
                    if self.shared.live_connections.load(Ordering::SeqCst)
                        >= self.shared.cfg.max_connections
                    {
                        self.shared.metrics.busy.inc();
                        let mut stream = stream;
                        let _ = stream.write_all(
                            Reply::Err(ErrorCode::Busy, "connection limit reached".into())
                                .to_wire()
                                .as_bytes(),
                        );
                        continue;
                    }
                    self.shared.live_connections.fetch_add(1, Ordering::SeqCst);
                    if stream.set_nonblocking(true).is_err() {
                        self.shared.live_connections.fetch_sub(1, Ordering::SeqCst);
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let target = self.accept_rr % self.loops.len();
                    self.accept_rr = self.accept_rr.wrapping_add(1);
                    if target == self.id {
                        self.register_conn(stream);
                    } else {
                        let h = &self.loops[target];
                        h.inbox.lock().expect("loop inbox").conns.push(stream);
                        let _ = h.waker.wake();
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Transient (e.g. the peer aborted before accept); the
                // level-triggered listener re-fires if more are queued.
                Err(_) => return,
            }
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poll
            .register(&stream, Token(token), Interest::READABLE)
            .is_err()
        {
            self.shared.live_connections.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        self.conns.insert(token, Conn::new(stream));
    }

    /// Hands the loop its cross-thread work: connections dealt by the
    /// acceptor and completions of pooled requests.
    fn drain_inbox(&mut self) {
        let (new_conns, completions) = {
            let mut ib = self.me.inbox.lock().expect("loop inbox");
            (
                std::mem::take(&mut ib.conns),
                std::mem::take(&mut ib.completions),
            )
        };
        for stream in new_conns {
            self.register_conn(stream);
        }
        for Completion {
            token,
            seq,
            outcome,
        } in completions
        {
            if let Some(conn) = self.conns.get_mut(&token) {
                let held = conn.hold_for.is_some();
                apply_completion(&self.shared, conn, seq, outcome);
                if held && conn.hold_for.is_none() {
                    // Commands held behind an inline delta run now
                    // that its revision is registered.
                    process_input(&self.shared, &self.me, token, conn);
                }
                self.service(token);
            } else if let Outcome::Done(Ok(Done::Advanced(adv))) = outcome {
                // The client left while its inline delta ran: the
                // revision is still registered and the solver parked,
                // as if the delta had been `PUT_DELTA`ed first.
                self.shared.engine.commit_inline(*adv);
            }
            // else: the connection died while its request ran; the
            // result is dropped, exactly like a thread writing to a
            // closed socket would have been.
        }
    }

    /// Flushes what can be flushed, updates epoll interest, and closes
    /// the connection when it is finished (or broken).
    fn service(&mut self, token: usize) {
        let shutting_down = self.shared.shutting_down.load(Ordering::SeqCst);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let dead = conn.hard_close
            || flush_conn(conn).is_err()
            || update_interest(&self.poll, token, conn).is_err();
        let drained = conn.output_drained();
        let idle_parse = matches!(conn.parse, ParseState::Line);
        let finished = conn.close_after_flush && drained;
        // EOF: every buffered command has been processed (the parser
        // runs to exhaustion), so an empty buffer means the
        // conversation is over once the replies are out.
        let eof_done = conn.peer_eof && drained && idle_parse && conn.rbuf.len() == conn.rpos;
        // Drain: an idle connection (half-received commands included —
        // they are not in-flight work) does not hold up shutdown.
        let drain_done = shutting_down && drained && idle_parse;
        if dead || finished || eof_done || drain_done {
            self.close_conn(token);
        }
    }

    /// Periodic pass: stalled-read deadlines, shutdown housekeeping.
    fn sweep(&mut self) {
        let shutting_down = self.shared.shutting_down.load(Ordering::SeqCst);
        if shutting_down {
            if let Some(listener) = self.listener.take() {
                let _ = self.poll.deregister(&listener);
            }
        }
        let now = Instant::now();
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            let stalled = conn
                .stall_since
                .is_some_and(|since| now.duration_since(since) > STALLED_READ_DEADLINE);
            let mid_body = matches!(conn.parse, ParseState::Body { .. });
            if mid_body && (shutting_down || stalled) {
                // The command already exists; it gets an error reply
                // (matching the old blocking read_body behaviour).
                let msg = if shutting_down {
                    "server draining during body read"
                } else {
                    "body read stalled"
                };
                let ParseState::Body { ctx, .. } =
                    std::mem::replace(&mut conn.parse, ParseState::Line)
                else {
                    unreachable!("mid_body checked above")
                };
                conn.stall_since = None;
                finalize_inline(
                    &self.shared,
                    conn,
                    ctx,
                    Reply::Err(ErrorCode::BadReq, format!("body read: {msg}")),
                    true,
                );
            } else if stalled {
                // Half a command line, then silence: drop it.
                self.close_conn(token);
                continue;
            }
            self.service(token);
        }
    }

    fn close_conn(&mut self, token: usize) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poll.deregister(&conn.stream);
            self.shared.live_connections.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Pulls whatever the socket has (bounded per event) into the
/// connection's read buffer. `Err` means the connection is broken.
fn read_into(conn: &mut Conn) -> io::Result<()> {
    let mut budget = READ_BUDGET_PER_EVENT;
    let mut chunk = [0u8; 16 * 1024];
    while budget > 0 {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.peer_eof = true;
                return Ok(());
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                budget = budget.saturating_sub(n);
                // A short read almost always means the socket is drained;
                // skip the WouldBlock round trip. If bytes do remain, the
                // level-triggered registration re-fires immediately.
                if n < chunk.len() {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Runs the parser to exhaustion over the buffered input: every
/// complete command is dispatched (pipelining), a trailing partial
/// command is left buffered for the next readiness event, and the
/// stalled-read clock is armed exactly while such a partial exists.
fn process_input(shared: &Arc<Shared>, me: &Arc<LoopHandle>, token: usize, conn: &mut Conn) {
    loop {
        if conn.close_after_flush || conn.hard_close || conn.hold_for.is_some() {
            break;
        }
        match &conn.parse {
            ParseState::Line => {
                let rest = &conn.rbuf[conn.rpos..];
                let (line_end, consumed) = match rest.iter().position(|&b| b == b'\n') {
                    Some(i) => (i, i + 1),
                    // A final unterminated line before EOF still parses
                    // (BufRead::read_line behaved the same way).
                    None if conn.peer_eof && !rest.is_empty() => (rest.len(), rest.len()),
                    None => {
                        if rest.len() > line_limit(&shared.cfg) {
                            // No command line is this long; the stream
                            // cannot be re-synchronised.
                            shared.metrics.requests.inc();
                            shared.metrics.errors.inc();
                            push_ready(
                                conn,
                                &Reply::Err(
                                    ErrorCode::BadReq,
                                    format!(
                                        "command line exceeds {} bytes",
                                        line_limit(&shared.cfg)
                                    ),
                                ),
                            );
                            conn.close_after_flush = true;
                        }
                        break;
                    }
                };
                let Ok(text) = std::str::from_utf8(&rest[..line_end]) else {
                    conn.hard_close = true; // not even a BADREQ can be framed reliably
                    break;
                };
                let line = text.trim_end_matches(['\n', '\r']).to_string();
                conn.rpos += consumed;
                handle_line(shared, me, token, conn, line);
            }
            ParseState::Body { need, .. } => {
                let need = *need;
                if conn.rbuf.len() - conn.rpos < need {
                    if conn.peer_eof {
                        let ParseState::Body { ctx, .. } =
                            std::mem::replace(&mut conn.parse, ParseState::Line)
                        else {
                            unreachable!("matched Body above")
                        };
                        finalize_inline(
                            shared,
                            conn,
                            ctx,
                            Reply::Err(
                                ErrorCode::BadReq,
                                "body read: connection closed mid-body".into(),
                            ),
                            true,
                        );
                    }
                    break;
                }
                let raw = conn.rbuf[conn.rpos..conn.rpos + need].to_vec();
                conn.rpos += need;
                let ParseState::Body { ctx, cmd, .. } =
                    std::mem::replace(&mut conn.parse, ParseState::Line)
                else {
                    unreachable!("matched Body above")
                };
                match (cmd, String::from_utf8(raw)) {
                    (Ok(cmd), Ok(body)) => {
                        execute_command(shared, me, token, conn, ctx, cmd, Some(body))
                    }
                    (Err(msg), _) => finalize_inline(
                        shared,
                        conn,
                        ctx,
                        Reply::Err(ErrorCode::BadReq, msg),
                        false,
                    ),
                    (Ok(_), Err(_)) => finalize_inline(
                        shared,
                        conn,
                        ctx,
                        Reply::Err(ErrorCode::BadReq, "body is not UTF-8".into()),
                        false,
                    ),
                }
            }
        }
    }
    if conn.rpos > 0 {
        conn.rbuf.drain(..conn.rpos);
        conn.rpos = 0;
    }
    // Held commands are complete, not stalled.
    let mid_command = conn.hold_for.is_none()
        && (matches!(conn.parse, ParseState::Body { .. }) || !conn.rbuf.is_empty());
    if mid_command {
        conn.stall_since.get_or_insert_with(Instant::now);
    } else {
        conn.stall_since = None;
    }
}

/// One complete line: trace prefix, or command (inline, pooled, or
/// waiting on a body).
fn handle_line(
    shared: &Arc<Shared>,
    me: &Arc<LoopHandle>,
    token: usize,
    conn: &mut Conn,
    line: String,
) {
    if line.trim().is_empty() {
        return;
    }
    match parse_trace_line(&line) {
        Some(Ok(id)) => {
            conn.pending_trace = Some(id);
            return;
        }
        Some(Err(msg)) => {
            shared.metrics.requests.inc();
            shared.metrics.errors.inc();
            push_ready(conn, &Reply::Err(ErrorCode::BadReq, msg));
            return;
        }
        None => {}
    }
    let started = Instant::now();
    shared.metrics.requests.inc();
    let trace_id = conn
        .pending_trace
        .take()
        .unwrap_or_else(|| sample_trace_id(shared));
    let span = (trace_id != 0).then(|| Arc::new(SpanRecorder::new(trace_id, line.clone())));
    let parsed = parse_command(&line);
    let op_label = parsed.as_ref().ok().map(command_label);
    // Read off the line itself, so a rejected line's body is skipped
    // too and the stream stays request-aligned.
    let body = declared_body(&line);
    let ctx = RequestCtx {
        started,
        trace_id,
        span,
        op_label,
        line,
    };
    match body {
        BodyDecl::Unreadable => {
            // A body may follow, of unknown length: the stream cannot
            // be re-aligned, so close after the reply.
            let msg = parsed
                .err()
                .unwrap_or_else(|| "unreadable body length".into());
            finalize_inline(shared, conn, ctx, Reply::Err(ErrorCode::BadReq, msg), true);
        }
        BodyDecl::Len(nbytes) if nbytes > shared.cfg.max_body_bytes => {
            // Rejected without consuming the body: the stream is no
            // longer request-aligned, so close after the reply.
            let msg = parsed.err().unwrap_or_else(|| {
                format!(
                    "body of {nbytes} bytes exceeds the limit of {}",
                    shared.cfg.max_body_bytes
                )
            });
            finalize_inline(shared, conn, ctx, Reply::Err(ErrorCode::BadReq, msg), true);
        }
        BodyDecl::Len(nbytes) => {
            conn.parse = ParseState::Body {
                ctx,
                cmd: parsed,
                need: nbytes,
            };
        }
        BodyDecl::None => match parsed {
            Err(msg) => {
                finalize_inline(shared, conn, ctx, Reply::Err(ErrorCode::BadReq, msg), false)
            }
            Ok(cmd) => execute_command(shared, me, token, conn, ctx, cmd, None),
        },
    }
}

/// Executes one parsed command whose body (if any) has been read.
/// Cheap commands and cache hits finalise inline on the event loop;
/// solver work goes through the pool.
fn execute_command(
    shared: &Arc<Shared>,
    me: &Arc<LoopHandle>,
    token: usize,
    conn: &mut Conn,
    ctx: RequestCtx,
    cmd: Command,
    body: Option<String>,
) {
    match cmd {
        Command::Ping => finalize_inline(shared, conn, ctx, Reply::Ok("pong\n".into()), false),
        Command::Stats => {
            let body = render_stats(shared);
            finalize_inline(shared, conn, ctx, Reply::Ok(body), false)
        }
        Command::Metrics => {
            set_scrape_gauges(shared);
            let body = shared.metrics.render_prometheus();
            finalize_inline(shared, conn, ctx, Reply::Ok(body), false)
        }
        Command::Shutdown => {
            shared.shutting_down.store(true, Ordering::SeqCst);
            wake_all(shared);
            // One reply per SHUTDOWN, then stop reading from this
            // client; earlier pipelined replies still flush first.
            conn.close_after_flush = true;
            finalize_inline(shared, conn, ctx, Reply::Ok("bye\n".into()), false)
        }
        Command::Sleep { ms } => {
            submit_pooled(shared, me, token, conn, ctx, None, move || {
                std::thread::sleep(Duration::from_millis(ms));
                Ok(Done::Body(format!("slept {ms}\n")))
            });
        }
        Command::Put { .. } => {
            let body = body.expect("PUT body read by the state machine");
            let reply = match shared.engine.put(&body) {
                Ok(h) => Reply::Ok(format!("hash {}\n", hash_hex(h))),
                Err((code, msg)) => Reply::Err(code, msg),
            };
            finalize_inline(shared, conn, ctx, reply, false)
        }
        Command::PutDelta { .. } => {
            let body = body.expect("PUT_DELTA body read by the state machine");
            let delta = match engine::parse_delta(&body) {
                Ok(delta) => delta,
                Err((code, msg)) => {
                    return finalize_inline(shared, conn, ctx, Reply::Err(code, msg), false)
                }
            };
            if let Lookup::Fetch = shared.engine.lookup(delta.base) {
                // The base is read from disk or rebuilt from lineage
                // first: on a worker, with this connection's later
                // commands held until the new revision is registered,
                // as for an inline delta.
                let worker_shared = Arc::clone(shared);
                conn.hold_for = submit_pooled(shared, me, token, conn, ctx, None, move || {
                    let lin = worker_shared.engine.register_delta(&delta)?;
                    worker_shared.metrics.delta_puts.inc();
                    Ok(Done::Body(lineage_reply(&lin)))
                });
                return;
            }
            let reply = match shared.engine.register_delta(&delta) {
                Ok(lin) => {
                    shared.metrics.delta_puts.inc();
                    Reply::Ok(lineage_reply(&lin))
                }
                Err((code, msg)) => Reply::Err(code, msg),
            };
            finalize_inline(shared, conn, ctx, reply, false)
        }
        Command::Run { op, src, big_r } => {
            if op == Op::SolveDelta {
                return solve_delta(shared, me, token, conn, ctx, src, big_r, body);
            }
            let (hash, parsed) = match src {
                Source::Hash(h) => (h, None),
                Source::Inline(_) => {
                    // Inline uploads land in the store too, so the
                    // result cache is shared across inline and hash
                    // requests for the same content. The parsed
                    // instance goes to the worker as it is.
                    let body = body.expect("inline body read by the state machine");
                    match shared.engine.upload(&body) {
                        Ok((h, inst)) => (h, Some(inst)),
                        Err((code, msg)) => {
                            return finalize_inline(shared, conn, ctx, Reply::Err(code, msg), false)
                        }
                    }
                }
            };
            let key = CacheKey::new(hash, op, big_r, 1);
            let probe = Instant::now();
            if let Some(body) = shared.engine.cached(&key) {
                if let Some(rec) = &ctx.span {
                    rec.add(ROOT_SPAN, "cache:hit", probe, probe.elapsed());
                }
                shared.metrics.cache_hit(op);
                return finalize_inline(shared, conn, ctx, Reply::Ok(body.as_ref().clone()), false);
            }
            // A stored record is decoded on the worker; an instance
            // memory does not hold is read from its record or rebuilt
            // from lineage there, under the request timeout, before it
            // runs.
            let found = match parsed {
                Some(inst) => Found::Parsed(inst),
                None => match shared.engine.lookup(hash) {
                    Lookup::Stored(record) => Found::Record(record),
                    Lookup::Fetch => Found::Fetch,
                    Lookup::Missing => {
                        let (code, msg) = engine::not_found(hash);
                        return finalize_inline(shared, conn, ctx, Reply::Err(code, msg), false);
                    }
                },
            };
            if let Some(rec) = &ctx.span {
                rec.add(ROOT_SPAN, "cache:miss", probe, probe.elapsed());
            }
            let worker_shared = Arc::clone(shared);
            let span_rec = ctx.span.clone();
            submit_pooled(shared, me, token, conn, ctx, Some((key, op)), move || {
                let engine = &worker_shared.engine;
                let inst = match found {
                    Found::Parsed(inst) => Arc::new(inst),
                    Found::Record(record) => {
                        let start = Instant::now();
                        let decoded = engine.decode(hash, &record);
                        if let Some(rec) = &span_rec {
                            rec.add(rec.anchor(), "decode", start, start.elapsed());
                        }
                        Arc::new(decoded?)
                    }
                    Found::Fetch => engine.fetch(hash)?,
                };
                let metrics = &worker_shared.metrics;
                let (body, phases) = engine::execute_traced(op, &inst, big_r)?;
                if let Some(t) = phases {
                    metrics.observe_solve(&t);
                    if let Some(rec) = &span_rec {
                        record_phase_spans(rec, &t.phase_spans());
                    }
                }
                Ok(Done::Body(body))
            });
        }
    }
}

/// Where a `SOLVE`-family miss finds the instance it runs on.
enum Found {
    /// Parsed from the request's own inline body.
    Parsed(Instance),
    /// The instance store's record, decoded on the worker.
    Record(Arc<[u8]>),
    /// Read from disk or rebuilt from lineage on the worker
    /// ([`Engine::fetch`]).
    Fetch,
}

/// The `SOLVE_DELTA` half of the run path. `hash:` names a registered
/// revision; `inline:` carries a delta text body. An inline coefficient
/// delta against a base with a parked solver advances that solver in
/// place on the worker pool ([`advance_inline`]); any other inline
/// delta is registered exactly like `PUT_DELTA` first — one round trip
/// for the common edit-then-resolve loop either way. The incremental
/// solve runs on the worker pool and is cached under `SOLVE_DELTA`'s
/// own namespace, so a repeat of the same revision is a hit without
/// touching a solver.
#[allow(clippy::too_many_arguments)]
fn solve_delta(
    shared: &Arc<Shared>,
    me: &Arc<LoopHandle>,
    token: usize,
    conn: &mut Conn,
    ctx: RequestCtx,
    src: Source,
    big_r: usize,
    body: Option<String>,
) {
    let revision = match src {
        Source::Hash(h) => h,
        Source::Inline(_) => {
            let body = body.expect("inline delta body read by the state machine");
            match shared.engine.start_inline(&body, big_r) {
                Ok(InlineStart::Parked(job)) => {
                    return advance_inline(shared, me, token, conn, ctx, *job)
                }
                Ok(InlineStart::Registered(lin)) => {
                    shared.metrics.delta_puts.inc();
                    lin.new
                }
                Ok(InlineStart::Fetch(delta)) => {
                    return register_pooled(shared, me, token, conn, ctx, delta, big_r)
                }
                Err((code, msg)) => {
                    return finalize_inline(shared, conn, ctx, Reply::Err(code, msg), false)
                }
            }
        }
    };
    let key = CacheKey::new(revision, Op::SolveDelta, big_r, 1);
    let probe = Instant::now();
    if let Some(body) = shared.engine.cached(&key) {
        if let Some(rec) = &ctx.span {
            rec.add(ROOT_SPAN, "cache:hit", probe, probe.elapsed());
        }
        shared.metrics.cache_hit(Op::SolveDelta);
        return finalize_inline(shared, conn, ctx, Reply::Ok(body.as_ref().clone()), false);
    }
    if let Some(rec) = &ctx.span {
        rec.add(ROOT_SPAN, "cache:miss", probe, probe.elapsed());
    }
    let worker_shared = Arc::clone(shared);
    let span_rec = ctx.span.clone();
    submit_pooled(
        shared,
        me,
        token,
        conn,
        ctx,
        Some((key, Op::SolveDelta)),
        move || {
            let (body, info) = worker_shared.engine.solve_delta(revision, big_r, 1)?;
            observe_delta(&worker_shared, span_rec.as_ref(), revision, &info);
            Ok(Done::Body(body))
        },
    );
}

/// `SOLVE_DELTA inline:` of a delta whose base must be read from its
/// record or rebuilt from lineage: a pool worker registers it, as
/// `PUT_DELTA` would, then serves the new revision from the cache or an
/// incremental solve. The connection's later commands are held until
/// then: they may name the new revision.
fn register_pooled(
    shared: &Arc<Shared>,
    me: &Arc<LoopHandle>,
    token: usize,
    conn: &mut Conn,
    ctx: RequestCtx,
    delta: Delta,
    big_r: usize,
) {
    let worker_shared = Arc::clone(shared);
    let span_rec = ctx.span.clone();
    conn.hold_for = submit_pooled(shared, me, token, conn, ctx, None, move || {
        let engine = &worker_shared.engine;
        let lin = engine.register_delta(&delta)?;
        worker_shared.metrics.delta_puts.inc();
        let key = CacheKey::new(lin.new, Op::SolveDelta, big_r, 1);
        if let Some(body) = engine.cached(&key) {
            worker_shared.metrics.cache_hit(Op::SolveDelta);
            return Ok(Done::Body(body.as_ref().clone()));
        }
        let (body, info) = engine.solve_delta(lin.new, big_r, 1)?;
        observe_delta(&worker_shared, span_rec.as_ref(), lin.new, &info);
        Ok(Done::Solved(key, body))
    });
}

/// The `PUT_DELTA` reply body: the content-hashed lineage triple.
fn lineage_reply(lin: &Lineage) -> String {
    format!(
        "base {}\ndelta {}\nnew {}\n",
        hash_hex(lin.base),
        hash_hex(lin.delta),
        hash_hex(lin.new)
    )
}

/// The in-place path of `SOLVE_DELTA inline:`: a pool worker applies
/// the delta to the checked-out solver and renders the body; the
/// completion registers the new revision on this loop
/// ([`Engine::commit_inline`]) before the reply is framed. The new
/// revision is unknown until the worker has hashed it, so its cache
/// lookup — always a miss, the revision is new — is booked at
/// completion. Until then the connection's later commands are held
/// (`Conn::hold_for`): they may name the new revision. A request
/// refused at submission parks the solver back.
fn advance_inline(
    shared: &Arc<Shared>,
    me: &Arc<LoopHandle>,
    token: usize,
    conn: &mut Conn,
    ctx: RequestCtx,
    job: InlineDelta,
) {
    let job = Arc::new(Mutex::new(Some(job)));
    let task_job = Arc::clone(&job);
    let worker_shared = Arc::clone(shared);
    let span_rec = ctx.span.clone();
    let seq = submit_pooled(shared, me, token, conn, ctx, None, move || {
        let job = task_job
            .lock()
            .expect("inline job")
            .take()
            .expect("an accepted task runs once");
        let adv = worker_shared.engine.advance_inline(job)?;
        observe_delta(&worker_shared, span_rec.as_ref(), adv.new, &adv.info);
        Ok(Done::Advanced(Box::new(adv)))
    });
    match seq {
        Some(seq) => conn.hold_for = Some(seq),
        None => {
            if let Some(job) = job.lock().expect("inline job").take() {
                shared.engine.abandon_inline(job);
            }
        }
    }
}

/// Books one delta resolution: the metrics, a zero-length span marker
/// naming the path taken, and the journal record — the delta
/// workload's key event: which path ran, and how local the dirty ball
/// actually was.
fn observe_delta(
    shared: &Shared,
    span: Option<&Arc<SpanRecorder>>,
    revision: u64,
    info: &DeltaSolveInfo,
) {
    shared.metrics.observe_delta(info);
    if let Some(rec) = span {
        rec.open(rec.anchor(), info.mode.tag());
    }
    if let Some(j) = &shared.journal {
        j.emit(JournalRecord {
            kind: EV_DELTA,
            trace_id: span.map_or(0, |rec| rec.trace_id()),
            text: format!(
                "delta {} revision={} replayed={} recomputed_x={} agents={}",
                info.mode.tag(),
                hash_hex(revision),
                info.replayed,
                info.recomputed_x,
                info.n_agents,
            ),
        });
    }
}

/// Submits a closure to the worker pool and parks a [`Slot::Pending`]
/// in the connection's reply pipeline. This is where backpressure
/// (`BUSY`) and drain rejections become protocol-visible — and where
/// the queue-wait vs execute split is measured: the submit instant is
/// captured here, the pickup instant inside the task on its worker.
/// The closure returns typed [`EngineError`]s so pooled work can
/// surface precise codes (e.g. `NOBASE` from a delta solve), not just
/// `INTERNAL`. The completion is routed back to the owning loop's
/// inbox; timeouts and panics are mapped at that point. Returns the
/// pending slot's `seq`, or `None` when the pool refused the task (the
/// refusal has already been answered).
fn submit_pooled<F>(
    shared: &Arc<Shared>,
    me: &Arc<LoopHandle>,
    token: usize,
    conn: &mut Conn,
    ctx: RequestCtx,
    cache: Option<(CacheKey, Op)>,
    f: F,
) -> Option<u64>
where
    F: FnOnce() -> Result<Done, EngineError> + Send + 'static,
{
    if shared.shutting_down.load(Ordering::SeqCst) {
        finalize_inline(
            shared,
            conn,
            ctx,
            Reply::Err(ErrorCode::Shutdown, "server is draining".into()),
            false,
        );
        return None;
    }
    let queue_wait = shared.metrics.queue_wait.clone();
    let execute = shared.metrics.execute.clone();
    let submitted = Instant::now();
    let span = ctx.span.clone();
    let task = move || {
        let picked_up = Instant::now();
        queue_wait.record(picked_up.duration_since(submitted).as_micros() as u64);
        // Traced requests get the same split as spans: `queue` from
        // submit to pickup, `execute` around the closure, with the
        // execute id published as the anchor so the closure can nest
        // solver-phase spans underneath it.
        let exec_id = span.as_ref().map(|rec| {
            rec.add(
                ROOT_SPAN,
                "queue",
                submitted,
                picked_up.duration_since(submitted),
            );
            let id = rec.open(ROOT_SPAN, "execute");
            rec.set_anchor(id);
            id
        });
        let result = f();
        if let (Some(rec), Some(id)) = (span.as_ref(), exec_id) {
            rec.close(id);
            rec.set_anchor(ROOT_SPAN);
        }
        execute.record(picked_up.elapsed().as_micros() as u64);
        result
    };
    let seq = conn.next_seq;
    conn.next_seq += 1;
    let loop_handle = Arc::clone(me);
    let complete = move |outcome| {
        {
            let mut ib = loop_handle.inbox.lock().expect("loop inbox");
            ib.completions.push(Completion {
                token,
                seq,
                outcome,
            });
        }
        let _ = loop_handle.waker.wake();
    };
    let refusal = match shared.pool.submit_with(task, complete) {
        Ok(()) => {
            conn.replies.push_back(Slot::Pending { seq, ctx, cache });
            return Some(seq);
        }
        Err(SubmitError::Busy) => Reply::Err(
            ErrorCode::Busy,
            format!("queue full ({} deep); retry", shared.cfg.queue_cap),
        ),
        Err(SubmitError::Closed) => Reply::Err(ErrorCode::Shutdown, "server is draining".into()),
    };
    finalize_inline(shared, conn, ctx, refusal, false);
    None
}

/// Lands a pooled outcome in its pipeline slot: maps it onto the wire,
/// records hit/miss + cache-insert effects for `Run` requests, and
/// finalises metrics/spans, all while preserving reply order.
fn apply_completion(
    shared: &Shared,
    conn: &mut Conn,
    seq: u64,
    outcome: Outcome<Result<Done, EngineError>>,
) {
    let Some(idx) = conn
        .replies
        .iter()
        .position(|s| matches!(s, Slot::Pending { seq: got, .. } if *got == seq))
    else {
        return;
    };
    let Slot::Pending { ctx, mut cache, .. } =
        std::mem::replace(&mut conn.replies[idx], Slot::Ready(Vec::new()))
    else {
        unreachable!("position matched a Pending slot")
    };
    if conn.hold_for == Some(seq) {
        conn.hold_for = None;
    }
    let reply = match outcome {
        Outcome::Done(Ok(Done::Body(body))) => Reply::Ok(body),
        Outcome::Done(Ok(Done::Advanced(adv))) => {
            let (key, body, _) = shared.engine.commit_inline(*adv);
            shared.metrics.delta_puts.inc();
            cache = Some((key, Op::SolveDelta));
            Reply::Ok(body)
        }
        Outcome::Done(Ok(Done::Solved(key, body))) => {
            cache = Some((key, key.op));
            Reply::Ok(body)
        }
        Outcome::Done(Err((code, msg))) => Reply::Err(code, msg),
        Outcome::Panicked(msg) => Reply::Err(ErrorCode::Panic, msg),
        Outcome::TimedOut => Reply::Err(
            ErrorCode::Timeout,
            format!(
                "request exceeded {} ms",
                shared.cfg.timeout.map_or(0, |d| d.as_millis())
            ),
        ),
    };
    if let Some((key, op)) = cache {
        // A miss is a solve that actually ran (or tried to): BUSY and
        // drain rejections never reached a worker, so they are neither
        // hits nor misses (those finalise before submission).
        if !matches!(reply, Reply::Err(ErrorCode::Busy | ErrorCode::Shutdown, _)) {
            shared.metrics.cache_miss(op);
        }
        if let Reply::Ok(body) = &reply {
            insert_cached(shared, key, body, ctx.span.as_ref());
        }
    }
    let bytes = finalize_record(shared, &ctx, &reply);
    conn.replies[idx] = Slot::Ready(bytes);
}

/// Books a finished request: error/busy/timeout classification, the
/// latency histograms, and the span tree (journaled and ringed). The
/// returned bytes are the framed wire reply.
fn finalize_record(shared: &Shared, ctx: &RequestCtx, reply: &Reply) -> Vec<u8> {
    match reply {
        Reply::Err(ErrorCode::Busy, msg) => {
            shared.metrics.busy.inc();
            if let Some(j) = &shared.journal {
                j.emit(JournalRecord {
                    kind: EV_BUSY,
                    trace_id: ctx.trace_id,
                    text: format!("busy: {}: {msg}", ctx.line),
                });
            }
        }
        Reply::Err(ErrorCode::Timeout, _) => {
            shared.metrics.timeouts.inc();
            shared.metrics.errors.inc();
        }
        Reply::Err(..) => shared.metrics.errors.inc(),
        Reply::Ok(_) => {}
    }
    // The request span, parse → reply framed: one lock-free record.
    // Traced requests stamp the latency exemplar too, so a slow
    // scrape bucket names a findable trace.
    let us = ctx.started.elapsed().as_micros() as u64;
    shared.metrics.latency.record_traced(us, ctx.trace_id);
    if let Some(label) = ctx.op_label {
        shared.metrics.observe_op_latency(label, us, ctx.trace_id);
    }
    if let Some(rec) = &ctx.span {
        let tree = rec.finish();
        if let Some(j) = &shared.journal {
            j.emit(JournalRecord {
                kind: EV_SPAN,
                trace_id: ctx.trace_id,
                text: tree.to_text(),
            });
        }
        shared.spans.push(tree);
    }
    reply.to_wire().into_bytes()
}

/// Finalises a request that completed on the event loop and queues its
/// framed reply; `close` marks the stream unsynchronised (the
/// connection closes once everything queued has flushed).
fn finalize_inline(shared: &Shared, conn: &mut Conn, ctx: RequestCtx, reply: Reply, close: bool) {
    let bytes = finalize_record(shared, &ctx, &reply);
    conn.replies.push_back(Slot::Ready(bytes));
    if close {
        conn.close_after_flush = true;
    }
}

/// Queues a reply that belongs to no request context (malformed TRACE
/// lines, oversize command lines): framed bytes only, no latency or
/// span bookkeeping — matching the historical behaviour.
fn push_ready(conn: &mut Conn, reply: &Reply) {
    conn.replies
        .push_back(Slot::Ready(reply.to_wire().into_bytes()));
}

/// Moves contiguous ready replies into the write buffer and writes as
/// much as the socket accepts. `Err` means the connection is broken.
fn flush_conn(conn: &mut Conn) -> io::Result<()> {
    while matches!(conn.replies.front(), Some(Slot::Ready(_))) {
        let Some(Slot::Ready(bytes)) = conn.replies.pop_front() else {
            unreachable!("front matched Ready")
        };
        if conn.wbuf.is_empty() {
            conn.wbuf = bytes;
        } else {
            conn.wbuf.extend_from_slice(&bytes);
        }
    }
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    ErrorKind::WriteZero,
                    "peer stopped accepting",
                ))
            }
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if conn.wpos > 0 && conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    }
    Ok(())
}

/// Reconciles the connection's epoll interest with its state: read
/// while accepting input (and under the write-backlog pause), write
/// exactly while flushable bytes remain.
fn update_interest(poll: &Poll, token: usize, conn: &mut Conn) -> io::Result<()> {
    let backlog = conn.wbuf.len() - conn.wpos;
    let want_read = !conn.close_after_flush
        && !conn.peer_eof
        && conn.hold_for.is_none()
        && backlog < WRITE_BACKLOG_PAUSE;
    let want_write = backlog > 0;
    let desired = match (want_read, want_write) {
        (true, true) => Interest::READABLE | Interest::WRITABLE,
        (true, false) => Interest::READABLE,
        (false, true) => Interest::WRITABLE,
        (false, false) => Interest::NONE,
    };
    if desired != conn.cur_interest {
        poll.reregister(&conn.stream, Token(token), desired)?;
        conn.cur_interest = desired;
    }
    Ok(())
}

/// The `op` label a parsed command's latency is recorded under (see
/// [`crate::stats::OP_LABELS`]).
fn command_label(cmd: &Command) -> &'static str {
    match cmd {
        Command::Ping => "ping",
        Command::Stats => "stats",
        Command::Metrics => "metrics",
        Command::Shutdown => "shutdown",
        Command::Sleep { .. } => "sleep",
        Command::Put { .. } => "put",
        Command::PutDelta { .. } => "put_delta",
        Command::Run { op, .. } => op.tag(),
    }
}

/// Server-side sampling for requests that carried no `TRACE` line:
/// every [`TRACE_SAMPLE_EVERY`]-th request gets a fresh trace id, the
/// rest stay untraced (id 0).
fn sample_trace_id(shared: &Shared) -> u64 {
    let n = shared.trace_counter.fetch_add(1, Ordering::Relaxed);
    if n.is_multiple_of(TRACE_SAMPLE_EVERY) {
        next_trace_id()
    } else {
        0
    }
}

/// Nests the solver's sequential phase spans under the recorder's
/// published anchor (the `execute` span). The phases just finished, so
/// their shared timeline ends "now"; offsets are reconstructed
/// backwards from their summed lengths.
fn record_phase_spans(rec: &SpanRecorder, phases: &[(&'static str, u64)]) {
    let total: u64 = phases.iter().map(|(_, ns)| *ns).sum();
    let now = Instant::now();
    let base = now.checked_sub(Duration::from_nanos(total)).unwrap_or(now);
    let parent = rec.anchor();
    let mut off = Duration::ZERO;
    for &(name, ns) in phases {
        rec.add(parent, name, base + off, Duration::from_nanos(ns));
        off += Duration::from_nanos(ns);
    }
}

/// Inserts a reply body into the result cache under a `store` span and
/// journals any LRU evictions the insert caused.
fn insert_cached(shared: &Shared, key: CacheKey, body: &str, span: Option<&Arc<SpanRecorder>>) {
    let evictions_before = shared.engine.cache_stats().2;
    let t = Instant::now();
    shared.engine.insert(key, Arc::new(body.to_string()));
    if let Some(rec) = span {
        rec.add(ROOT_SPAN, "store", t, t.elapsed());
    }
    if let Some(j) = &shared.journal {
        let (entries, bytes, evictions_after) = shared.engine.cache_stats();
        if evictions_after > evictions_before {
            j.emit(JournalRecord {
                kind: EV_CACHE,
                trace_id: span.map_or(0, |rec| rec.trace_id()),
                text: format!(
                    "cache evicted {} result(s): entries={entries} bytes={bytes}",
                    evictions_after - evictions_before
                ),
            });
        }
    }
}

/// Refreshes the point-in-time gauges before a `METRICS` scrape.
/// Counters and histograms are live at all times; only these
/// snapshot-style values need a read at exposition.
fn set_scrape_gauges(shared: &Shared) {
    let m = &shared.metrics;
    m.uptime_ms.set(shared.started.elapsed().as_millis() as u64);
    m.queue_depth.set(shared.pool.queue_depth() as u64);
    m.in_flight.set(shared.pool.in_flight() as u64);
    m.pool_runaway.set(shared.pool.runaway() as u64);
    m.connections_live
        .set(shared.live_connections.load(Ordering::SeqCst) as u64);
    let (cache_entries, cache_bytes, cache_evictions) = shared.engine.cache_stats();
    m.cache_entries.set(cache_entries as u64);
    m.cache_bytes.set(cache_bytes);
    m.cache_evictions.set(cache_evictions);
    m.set_cache_shard_evictions(&shared.engine.cache_shard_evictions());
    let (store_entries, store_bytes) = shared.engine.store_stats();
    m.store_entries.set(store_entries as u64);
    m.store_bytes.set(store_bytes);
}

/// The historical `STATS` key/value body, now read off the same
/// registry cells `METRICS` exposes. Keys and their order are stable —
/// scripts parse this.
fn render_stats(shared: &Shared) -> String {
    let m = &shared.metrics;
    let lat = m.latency.snapshot();
    let (cache_entries, cache_bytes, cache_evictions) = shared.engine.cache_stats();
    let (store_entries, store_bytes) = shared.engine.store_stats();
    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(out, "uptime_ms {}", shared.started.elapsed().as_millis());
    let _ = writeln!(out, "workers {}", shared.cfg.workers);
    let _ = writeln!(out, "queue_cap {}", shared.cfg.queue_cap);
    let _ = writeln!(out, "queue_depth {}", shared.pool.queue_depth());
    let _ = writeln!(out, "in_flight {}", shared.pool.in_flight());
    let _ = writeln!(
        out,
        "connections_live {}",
        shared.live_connections.load(Ordering::SeqCst)
    );
    let _ = writeln!(out, "connections_total {}", m.connections.get());
    let _ = writeln!(out, "requests {}", m.requests.get());
    let _ = writeln!(out, "cache_hits {}", m.cache_hits_total());
    let _ = writeln!(out, "cache_misses {}", m.cache_misses_total());
    let _ = writeln!(out, "busy {}", m.busy.get());
    let _ = writeln!(out, "errors {}", m.errors.get());
    let _ = writeln!(out, "timeouts {}", m.timeouts.get());
    let _ = writeln!(out, "cache_entries {cache_entries}");
    let _ = writeln!(out, "cache_bytes {cache_bytes}");
    let _ = writeln!(out, "cache_evictions {cache_evictions}");
    let _ = writeln!(out, "store_entries {store_entries}");
    let _ = writeln!(out, "store_bytes {store_bytes}");
    let _ = writeln!(
        out,
        "persist_enabled {}",
        u8::from(shared.engine.is_persistent())
    );
    let warm = shared.engine.warm_start();
    let _ = writeln!(out, "warm_instances {}", warm.instances);
    let _ = writeln!(out, "warm_results {}", warm.results);
    let _ = writeln!(out, "persist_errors {}", shared.engine.persist_errors());
    let _ = writeln!(out, "latency_samples {}", lat.total());
    let _ = writeln!(out, "latency_mean_us {}", lat.mean_us());
    let _ = writeln!(out, "p50_us {}", lat.percentile(0.50));
    let _ = writeln!(out, "p95_us {}", lat.percentile(0.95));
    let _ = writeln!(out, "p99_us {}", lat.percentile(0.99));
    let _ = writeln!(out, "max_us {}", lat.max_us());
    // Span accounting over pooled tasks (new keys; appended so older
    // parsers keep working).
    let _ = writeln!(
        out,
        "queue_wait_p95_us {}",
        m.queue_wait.snapshot().percentile(0.95)
    );
    let _ = writeln!(
        out,
        "execute_p95_us {}",
        m.execute.snapshot().percentile(0.95)
    );
    // The delta workload surface (appended keys, older parsers keep
    // working).
    let (lineage_entries, delta_solvers, delta_solver_bytes) = shared.engine.delta_stats();
    let _ = writeln!(out, "delta_puts {}", m.delta_puts.get());
    let _ = writeln!(out, "delta_solves_warm {}", m.delta_solves(DeltaMode::Warm));
    let _ = writeln!(
        out,
        "delta_solves_advanced {}",
        m.delta_solves(DeltaMode::Advanced)
    );
    let _ = writeln!(
        out,
        "delta_solves_booted {}",
        m.delta_solves(DeltaMode::Booted)
    );
    let _ = writeln!(out, "delta_replayed {}", m.delta_replayed.get());
    let _ = writeln!(out, "delta_recomputed_x {}", m.delta_recomputed_x.get());
    let _ = writeln!(out, "delta_agents {}", m.delta_agents.get());
    let _ = writeln!(out, "lineage_entries {lineage_entries}");
    let _ = writeln!(out, "delta_solvers {delta_solvers}");
    let _ = writeln!(out, "delta_solver_bytes {delta_solver_bytes}");
    let _ = writeln!(out, "warm_lineage {}", warm.lineage);
    // Tracing + journal surface (appended keys, older parsers keep
    // working). STATS is rare enough to afford a journal flush, which
    // makes `journal_records` deterministic for scripts and tests.
    if let Some(j) = &shared.journal {
        j.flush();
    }
    let (journal_records, journal_dropped) = shared
        .journal
        .as_ref()
        .map_or((0, 0), |j| (j.appended(), j.dropped()));
    let _ = writeln!(out, "spans_recorded {}", shared.spans.recorded());
    let _ = writeln!(out, "journal_records {journal_records}");
    let _ = writeln!(out, "journal_dropped {journal_dropped}");
    // The mutating-loadgen SLO reads these: server-side SOLVE_DELTA
    // latency quantiles, end-to-end per op.
    let delta_lat = m
        .op_latency_snapshot("solve_delta")
        .expect("solve_delta is a registered op label");
    let _ = writeln!(out, "delta_latency_p50_us {}", delta_lat.percentile(0.50));
    let _ = writeln!(out, "delta_latency_p95_us {}", delta_lat.percentile(0.95));
    let _ = writeln!(out, "delta_latency_p99_us {}", delta_lat.percentile(0.99));
    let _ = writeln!(out, "warm_lineage_dropped {}", warm.lineage_dropped);
    out
}
