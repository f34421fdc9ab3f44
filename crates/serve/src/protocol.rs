//! The wire protocol: a small line-oriented request/response format
//! over TCP, documented normatively in `specs/PROTOCOL.md`.
//!
//! ```text
//! client → server   one command per line (LF; CRLF tolerated)
//!   TRACE <hex>                        optional prefix line: attaches a
//!                                      client-minted trace id (1–16 hex
//!                                      digits, nonzero) to the NEXT
//!                                      command; no reply of its own.
//!                                      Absent ⇒ the server samples by
//!                                      rate. Backward compatible: old
//!                                      clients never send it.
//!   PUT <nbytes>                       upload instance (body follows)
//!   PUT_DELTA <nbytes>                 register an edit delta (body:
//!                                      canonical delta text) against a
//!                                      stored base revision
//!   SOLVE <src> [R=<n>] [THREADS=<n>]  the paper's local algorithm
//!                                      (THREADS= is checked, then
//!                                      ignored)
//!   SOLVE_DELTA <src> [R=] [THREADS=]  incremental re-solve of a
//!                                      revision (hash:<new rev>, or
//!                                      inline:<n> with delta text —
//!                                      PUT_DELTA + solve in one trip)
//!   OPTIMUM <src>                      exact simplex optimum
//!   SAFE <src>                         factor-ΔI safe baseline
//!   INFO <src>                         sizes, degrees, paper bound
//!   STATS                              counters + latency percentiles
//!   METRICS                            Prometheus text exposition
//!   SLEEP <ms>                         diagnostic: occupy a worker
//!                                      (ms ≤ MAX_SLEEP_MS)
//!   PING                               liveness probe
//!   SHUTDOWN                           graceful drain, then exit
//!   <src> = hash:<16 hex> | inline:<nbytes> (body follows the line)
//!
//! server → client
//!   OK <nbytes>\n<body>                success (body: nbytes of UTF-8)
//!   ERR <CODE> <message>\n             failure, single line
//! ```
//!
//! Bodies are length-prefixed rather than sentinel-terminated so that
//! instance text (which is itself line-oriented) never needs escaping,
//! and a client can frame replies without lookahead.

use mmlp_instance::hash::parse_hash_hex;

/// The solver operation a cacheable request asks for. Part of the
/// result-cache key, so each variant must map to a distinct stable tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// `SOLVE` — the paper's local algorithm (`LocalSolver`).
    Solve,
    /// `OPTIMUM` — the exact LP optimum via the two-phase simplex.
    Optimum,
    /// `SAFE` — the factor-ΔI safe baseline.
    Safe,
    /// `INFO` — structural stats and the paper bound.
    Info,
    /// `SOLVE_DELTA` — incremental re-solve of a delta revision via the
    /// ball-local dynamic solver. Bodies are bit-identical to `SOLVE`
    /// of the same revision, but kept in a separate cache namespace so
    /// the two paths stay independently verifiable.
    SolveDelta,
}

impl Op {
    /// Stable lowercase tag used in cache keys and stats.
    pub fn tag(&self) -> &'static str {
        match self {
            Op::Solve => "solve",
            Op::Optimum => "optimum",
            Op::Safe => "safe",
            Op::Info => "info",
            Op::SolveDelta => "solve_delta",
        }
    }

    /// Stable byte used as the `op` namespace of persisted result
    /// records (`mmlp_store::ResultKey`). Codes 1–4 and 6 belong to the
    /// service's reply bodies, and [`LINEAGE_OP_CODE`] (5) to its delta
    /// lineage records; other producers (the lab spiller) use disjoint
    /// ranges.
    pub fn code(&self) -> u8 {
        match self {
            Op::Solve => 1,
            Op::Optimum => 2,
            Op::Safe => 3,
            Op::Info => 4,
            Op::SolveDelta => 6,
        }
    }

    /// Inverse of [`Op::code`]; `None` for foreign namespace bytes.
    pub fn from_code(code: u8) -> Option<Op> {
        Some(match code {
            1 => Op::Solve,
            2 => Op::Optimum,
            3 => Op::Safe,
            4 => Op::Info,
            6 => Op::SolveDelta,
            _ => return None,
        })
    }
}

/// The `op` namespace byte of persisted **lineage** records: one result
/// record per registered delta, keyed by the *new* revision hash with
/// the canonical delta text as body, so a restarted node can replay its
/// revision graph from segments.
pub const LINEAGE_OP_CODE: u8 = 5;

/// Where the request's instance comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// `hash:<16 hex>` — a previously `PUT` instance, by content hash.
    Hash(u64),
    /// `inline:<nbytes>` — the instance text follows the command line.
    Inline(usize),
}

/// One parsed client command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Command {
    /// Upload an instance; body of `nbytes` follows.
    Put { nbytes: usize },
    /// Register an edit delta (canonical delta text body of `nbytes`)
    /// against its base revision; replies with the lineage triple.
    PutDelta { nbytes: usize },
    /// Run a solver [`Op`] against a [`Source`].
    Run { op: Op, src: Source, big_r: usize },
    /// Server counters and latency percentiles.
    Stats,
    /// The full metrics registry in Prometheus text exposition format.
    Metrics,
    /// Diagnostic: occupy one worker for `ms` milliseconds.
    Sleep { ms: u64 },
    /// Liveness probe.
    Ping,
    /// Stop accepting, drain in-flight work, exit.
    Shutdown,
}

/// Default locality parameter when `R=` is omitted.
pub const DEFAULT_R: usize = 3;
/// Largest `R=` a request may ask for. A solve's work and memory grow
/// with `R`: the flat arena behind `SOLVE_DELTA` interns every agent's
/// view to depth `4(R−2)+2` and memoises `R−1` levels per interned
/// view, so its memory grows about as `R²` (specs/PROTOCOL.md gives
/// measured sizes). Unbounded, one request can exhaust the server; 16
/// is twice the deepest horizon any solver test runs.
pub const MAX_R: usize = 16;
/// Longest `SLEEP` a request may ask for, in ms. A timed-out task keeps
/// its thread until it ends, so an unbounded `SLEEP` would let any
/// client park threads for good.
pub const MAX_SLEEP_MS: u64 = 60_000;

/// Error codes on the wire. `BUSY` is the backpressure signal; clients
/// are expected to back off and retry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed command or body.
    BadReq,
    /// `hash:` source not present in the instance store.
    NotFound,
    /// Worker queue at capacity; retry later.
    Busy,
    /// The request exceeded the server's per-request timeout.
    Timeout,
    /// The request panicked inside the solver (isolated; server lives).
    Panic,
    /// The server is draining and accepts no new work.
    Shutdown,
    /// A delta names a base revision hash the server does not hold.
    NoBase,
    /// A delta is malformed or cannot be applied to its base (unknown
    /// row/agent, bad coefficient, would leave the special form, …).
    BadDelta,
    /// Anything else.
    Internal,
}

impl ErrorCode {
    /// The wire token.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::BadReq => "BADREQ",
            ErrorCode::NotFound => "NOTFOUND",
            ErrorCode::Busy => "BUSY",
            ErrorCode::Timeout => "TIMEOUT",
            ErrorCode::Panic => "PANIC",
            ErrorCode::Shutdown => "SHUTDOWN",
            ErrorCode::NoBase => "NOBASE",
            ErrorCode::BadDelta => "BADDELTA",
            ErrorCode::Internal => "INTERNAL",
        }
    }

    /// Inverse of [`ErrorCode::as_str`].
    pub fn from_token(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "BADREQ" => ErrorCode::BadReq,
            "NOTFOUND" => ErrorCode::NotFound,
            "BUSY" => ErrorCode::Busy,
            "TIMEOUT" => ErrorCode::Timeout,
            "PANIC" => ErrorCode::Panic,
            "SHUTDOWN" => ErrorCode::Shutdown,
            "NOBASE" => ErrorCode::NoBase,
            "BADDELTA" => ErrorCode::BadDelta,
            "INTERNAL" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// A server reply, before framing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Success with a UTF-8 body.
    Ok(String),
    /// Failure with a code and a one-line message.
    Err(ErrorCode, String),
}

impl Reply {
    /// Frames the reply for the wire.
    pub fn to_wire(&self) -> String {
        match self {
            Reply::Ok(body) => format!("OK {}\n{}", body.len(), body),
            Reply::Err(code, msg) => {
                // The message must stay on one line to keep framing sane.
                let msg = msg.replace(['\n', '\r'], " ");
                format!("ERR {} {}\n", code.as_str(), msg.trim())
            }
        }
    }
}

/// The verb of the optional trace-context prefix line.
pub const TRACE_PREFIX: &str = "TRACE";

/// Recognises a `TRACE <hex>` prefix line. Returns `None` when the
/// line is not a trace line at all (it should be parsed as a command),
/// `Some(Ok(id))` for a well-formed one, and `Some(Err(msg))` for a
/// malformed one (a `BADREQ` reply — the verb was clearly `TRACE`, so
/// falling through to command parsing would mask the mistake).
pub fn parse_trace_line(line: &str) -> Option<Result<u64, String>> {
    let mut tokens = line.split_ascii_whitespace();
    if tokens.next() != Some(TRACE_PREFIX) {
        return None;
    }
    let Some(hex) = tokens.next() else {
        return Some(Err("TRACE needs a hex trace id".into()));
    };
    if tokens.next().is_some() {
        return Some(Err("TRACE takes exactly one argument".into()));
    }
    match mmlp_obs::parse_trace_id(hex) {
        Some(id) => Some(Ok(id)),
        None => Some(Err(format!(
            "bad trace id '{hex}' (need 1–16 hex digits, nonzero)"
        ))),
    }
}

fn parse_source(tok: &str) -> Result<Source, String> {
    if let Some(hex) = tok.strip_prefix("hash:") {
        let h = parse_hash_hex(hex).ok_or_else(|| format!("bad hash '{hex}'"))?;
        Ok(Source::Hash(h))
    } else if let Some(n) = tok.strip_prefix("inline:") {
        let n: usize = n.parse().map_err(|_| format!("bad inline length '{n}'"))?;
        Ok(Source::Inline(n))
    } else {
        Err(format!(
            "expected hash:<hex> or inline:<nbytes>, got '{tok}'"
        ))
    }
}

/// What a command line declares about the raw body that follows it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BodyDecl {
    /// No body follows the line.
    None,
    /// `n` body bytes follow the line.
    Len(usize),
    /// A body-carrying command (`PUT`, `PUT_DELTA`, an `inline:` run
    /// source) whose length cannot be read (`PUT x`, `SOLVE inline:x`):
    /// where the next command starts is unknown.
    Unreadable,
}

/// The body a command line declares (`PUT <n>`, `PUT_DELTA <n>`, and
/// `inline:<n>` run sources). Commands pipeline: the body starts at the
/// byte after the line's `\n`, and the next command line starts at the
/// byte after the body — no separator, no padding.
///
/// The length is read off the first two tokens alone, so a line that
/// [`parse_command`] rejects for a later parameter
/// (`SOLVE inline:9 R=99`) still reports its body: the server reads and
/// drops it, and the next command starts where the client put it.
pub fn declared_body(line: &str) -> BodyDecl {
    let mut tokens = line.split_ascii_whitespace();
    let len = |n: &str| n.parse().map_or(BodyDecl::Unreadable, BodyDecl::Len);
    match (tokens.next(), tokens.next()) {
        (Some("PUT" | "PUT_DELTA"), None) => BodyDecl::Unreadable,
        (Some("PUT" | "PUT_DELTA"), Some(n)) => len(n),
        (Some("SOLVE" | "SOLVE_DELTA" | "OPTIMUM" | "SAFE" | "INFO"), Some(src)) => {
            src.strip_prefix("inline:").map_or(BodyDecl::None, len)
        }
        _ => BodyDecl::None,
    }
}

/// Parses one command line (without its body). Errors are the
/// human-readable part of a `BADREQ` reply.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let mut tokens = line.split_ascii_whitespace();
    let verb = tokens.next().ok_or("empty command")?;
    let cmd = match verb {
        "PUT" => {
            let n: usize = tokens
                .next()
                .ok_or("PUT needs a byte count")?
                .parse()
                .map_err(|_| "bad PUT byte count".to_string())?;
            Command::Put { nbytes: n }
        }
        "PUT_DELTA" => {
            let n: usize = tokens
                .next()
                .ok_or("PUT_DELTA needs a byte count")?
                .parse()
                .map_err(|_| "bad PUT_DELTA byte count".to_string())?;
            Command::PutDelta { nbytes: n }
        }
        "SOLVE" | "SOLVE_DELTA" | "OPTIMUM" | "SAFE" | "INFO" => {
            let op = match verb {
                "SOLVE" => Op::Solve,
                "SOLVE_DELTA" => Op::SolveDelta,
                "OPTIMUM" => Op::Optimum,
                "SAFE" => Op::Safe,
                _ => Op::Info,
            };
            let src = parse_source(tokens.next().ok_or(format!("{verb} needs a source"))?)?;
            let mut big_r = DEFAULT_R;
            // A request runs on the one pool worker that picked it up,
            // so THREADS= selects nothing. It stays valid on the wire
            // for old clients, with the range it always had.
            for tok in tokens.by_ref() {
                if let Some(v) = tok.strip_prefix("R=") {
                    big_r = v
                        .parse()
                        .ok()
                        .filter(|r| (2..=MAX_R).contains(r))
                        .ok_or_else(|| format!("bad R '{v}' (need an integer ≥ 2, ≤ {MAX_R})"))?;
                } else if let Some(v) = tok.strip_prefix("THREADS=") {
                    v.parse::<u32>()
                        .ok()
                        .filter(|t| *t >= 1)
                        .ok_or_else(|| format!("bad THREADS '{v}'"))?;
                } else {
                    return Err(format!("unknown parameter '{tok}'"));
                }
            }
            Command::Run { op, src, big_r }
        }
        "STATS" => Command::Stats,
        "METRICS" => Command::Metrics,
        "SLEEP" => {
            let ms: u64 = tokens
                .next()
                .ok_or("SLEEP needs a duration in ms")?
                .parse()
                .ok()
                .filter(|ms| *ms <= MAX_SLEEP_MS)
                .ok_or_else(|| format!("bad SLEEP duration (need ms ≤ {MAX_SLEEP_MS})"))?;
            Command::Sleep { ms }
        }
        "PING" => Command::Ping,
        "SHUTDOWN" => Command::Shutdown,
        other => return Err(format!("unknown command '{other}'")),
    };
    // Verbs above consume exactly their parameters; anything left over
    // is a framing mistake worth rejecting loudly.
    if let Some(extra) = tokens.next() {
        return Err(format!("unexpected trailing token '{extra}'"));
    }
    Ok(cmd)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_command_surface() {
        assert_eq!(parse_command("PUT 120"), Ok(Command::Put { nbytes: 120 }));
        assert_eq!(
            parse_command("PUT_DELTA 64"),
            Ok(Command::PutDelta { nbytes: 64 })
        );
        assert_eq!(
            parse_command("SOLVE_DELTA hash:00deadbeef001122 R=4 THREADS=2"),
            Ok(Command::Run {
                op: Op::SolveDelta,
                src: Source::Hash(0x00de_adbe_ef00_1122),
                big_r: 4,
            })
        );
        assert!(matches!(
            parse_command("SOLVE_DELTA inline:33"),
            Ok(Command::Run {
                op: Op::SolveDelta,
                src: Source::Inline(33),
                ..
            })
        ));
        assert_eq!(
            parse_command("SOLVE hash:00deadbeef001122 R=4 THREADS=2"),
            Ok(Command::Run {
                op: Op::Solve,
                src: Source::Hash(0x00de_adbe_ef00_1122),
                big_r: 4,
            })
        );
        assert!(matches!(
            parse_command("SOLVE_DELTA inline:8 R=16"),
            Ok(Command::Run { big_r: MAX_R, .. })
        ));
        assert_eq!(
            parse_command("OPTIMUM inline:64"),
            Ok(Command::Run {
                op: Op::Optimum,
                src: Source::Inline(64),
                big_r: DEFAULT_R,
            })
        );
        assert!(matches!(
            parse_command("SAFE hash:0000000000000000"),
            Ok(Command::Run { op: Op::Safe, .. })
        ));
        assert!(matches!(
            parse_command("INFO inline:10"),
            Ok(Command::Run { op: Op::Info, .. })
        ));
        assert_eq!(parse_command("STATS"), Ok(Command::Stats));
        assert_eq!(parse_command("METRICS"), Ok(Command::Metrics));
        assert_eq!(parse_command("SLEEP 250"), Ok(Command::Sleep { ms: 250 }));
        assert_eq!(parse_command("PING"), Ok(Command::Ping));
        assert_eq!(parse_command("SHUTDOWN"), Ok(Command::Shutdown));
    }

    #[test]
    fn rejects_malformed_commands() {
        for bad in [
            "",
            "FROBNICATE",
            "PUT",
            "PUT x",
            "PUT_DELTA",
            "PUT_DELTA x",
            "SOLVE_DELTA",
            "SOLVE_DELTA inline:3 R=1",
            "SOLVE",
            "SOLVE nope",
            "SOLVE hash:123",              // not 16 hex digits
            "SOLVE inline:3 R=1",          // R < 2
            "SOLVE inline:3 R=17",         // R > MAX_R
            "SOLVE inline:3 R=4294967296", // R > u32::MAX would truncate the persisted key
            "SOLVE inline:3 THREADS=4294967296",
            "SOLVE inline:3 BAD=1", // unknown param
            "STATS extra",          // trailing token
            "METRICS now",
            "SLEEP",
            "SLEEP soon",
        ] {
            assert!(parse_command(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn threads_is_validated_then_ignored() {
        for bad in ["THREADS=0", "THREADS=4294967296", "THREADS=x"] {
            let line = format!("SOLVE hash:00deadbeef001122 R=3 {bad}");
            assert!(parse_command(&line).is_err(), "accepted: {line:?}");
        }
        for verb in ["SOLVE", "SOLVE_DELTA"] {
            let plain = parse_command(&format!("{verb} hash:00deadbeef001122 R=3"));
            assert!(plain.is_ok());
            for n in ["1", "7", "4294967295"] {
                let line = format!("{verb} hash:00deadbeef001122 R=3 THREADS={n}");
                assert_eq!(parse_command(&line), plain, "{line}");
            }
        }
    }

    #[test]
    fn sleep_is_capped_at_one_minute() {
        assert_eq!(MAX_SLEEP_MS, 60_000);
        assert_eq!(
            parse_command("SLEEP 60000"),
            Ok(Command::Sleep { ms: MAX_SLEEP_MS })
        );
        for over in ["SLEEP 60001", "SLEEP 18446744073709551615"] {
            let err = parse_command(over).unwrap_err();
            assert!(err.contains("60000"), "{over}: {err}");
        }
    }

    #[test]
    fn declared_body_reads_through_rejected_parameters() {
        use BodyDecl::{Len, None as NoBody, Unreadable};
        for (line, want) in [
            // Accepted lines.
            ("PUT 12", Len(12)),
            ("PUT_DELTA 7", Len(7)),
            ("SOLVE inline:9 R=3", Len(9)),
            ("SOLVE_DELTA inline:33", Len(33)),
            ("INFO inline:10", Len(10)),
            ("SOLVE hash:0000000000000000", NoBody),
            ("PING", NoBody),
            // Rejected lines that still declare a body the server skips.
            ("SOLVE inline:9 R=17", Len(9)),
            ("SOLVE_DELTA inline:33 R=1000", Len(33)),
            ("OPTIMUM inline:5 BAD=1", Len(5)),
            ("PUT 4 extra", Len(4)),
            // A body-carrying command without a readable length: the
            // stream cannot be re-aligned.
            ("PUT", Unreadable),
            ("PUT x", Unreadable),
            ("PUT_DELTA -3", Unreadable),
            ("SOLVE inline:x", Unreadable),
            ("SOLVE_DELTA inline:", Unreadable),
            // No body declared at all.
            ("", NoBody),
            ("SOLVE", NoBody),
            ("SOLVE hash:zz", NoBody),
            ("SOLVE nonsense", NoBody),
            ("FROBNICATE inline:3", NoBody),
        ] {
            assert_eq!(declared_body(line), want, "{line:?}");
        }
    }

    #[test]
    fn trace_prefix_lines_parse_and_fail_loudly() {
        assert_eq!(
            parse_trace_line("TRACE 00deadbeef001122"),
            Some(Ok(0x00de_adbe_ef00_1122))
        );
        assert_eq!(parse_trace_line("TRACE f"), Some(Ok(0xf)));
        // Not a trace line at all: commands fall through untouched.
        assert_eq!(parse_trace_line("SOLVE hash:0"), None);
        assert_eq!(parse_trace_line("PING"), None);
        // Clearly TRACE, clearly wrong: a typed error, not fallthrough.
        for bad in [
            "TRACE",
            "TRACE 0",
            "TRACE zz",
            "TRACE 1 2",
            "TRACE 00000000000000000",
            "TRACE +1",
        ] {
            assert!(matches!(parse_trace_line(bad), Some(Err(_))), "{bad:?}");
        }
    }

    #[test]
    fn reply_framing_round_trips_by_eye() {
        assert_eq!(Reply::Ok("pong\n".into()).to_wire(), "OK 5\npong\n");
        assert_eq!(
            Reply::Err(ErrorCode::Busy, "queue full\nretry".into()).to_wire(),
            "ERR BUSY queue full retry\n"
        );
    }

    #[test]
    fn error_codes_round_trip() {
        for c in [
            ErrorCode::BadReq,
            ErrorCode::NotFound,
            ErrorCode::Busy,
            ErrorCode::Timeout,
            ErrorCode::Panic,
            ErrorCode::Shutdown,
            ErrorCode::NoBase,
            ErrorCode::BadDelta,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_token(c.as_str()), Some(c));
        }
        assert_eq!(ErrorCode::from_token("NOPE"), None);
    }

    #[test]
    fn op_codes_round_trip_and_avoid_the_lineage_namespace() {
        for op in [Op::Solve, Op::Optimum, Op::Safe, Op::Info, Op::SolveDelta] {
            assert_eq!(Op::from_code(op.code()), Some(op));
            assert_ne!(op.code(), LINEAGE_OP_CODE, "{op:?} collides with lineage");
        }
        assert_eq!(Op::from_code(LINEAGE_OP_CODE), None);
    }
}
