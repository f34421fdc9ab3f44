//! End-to-end tests of the solver service over real TCP sockets:
//! concurrent clients, cache-hit bit-identity against cold solves,
//! deterministic `BUSY` backpressure under a saturated queue, per-
//! request timeouts, and clean `SHUTDOWN` drain of in-flight work.

use maxmin_lp::instance::{textfmt, ConstraintId};
use maxmin_lp::serve::client::{stat, Client, ClientReply};
use maxmin_lp::serve::protocol::{ErrorCode, Op};
use maxmin_lp::serve::server::{ServeConfig, Server, ServerSummary};
use std::time::{Duration, Instant};

/// Binds on an ephemeral port and runs the server on a background
/// thread; returns the address and the join handle for the summary.
fn spawn_server(cfg: ServeConfig) -> (String, std::thread::JoinHandle<ServerSummary>) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..cfg
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn instance_text() -> String {
    let fam = maxmin_lp::gen::catalog();
    let fam = fam.iter().find(|f| f.name == "bandwidth").unwrap();
    textfmt::write_instance(&fam.instance(20, 3))
}

#[test]
fn cache_hits_are_bit_identical_to_cold_solves() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let mut c = Client::connect(&addr).unwrap();
    let text = instance_text();
    let hash = c.put(&text).unwrap().unwrap();

    for op in [Op::Solve, Op::Optimum, Op::Safe, Op::Info] {
        let cold = c.run_hash(op, &hash, 3).unwrap().into_ok().unwrap();
        let warm = c.run_hash(op, &hash, 3).unwrap().into_ok().unwrap();
        assert_eq!(
            cold.as_bytes(),
            warm.as_bytes(),
            "{op:?}: warm hit differs from cold solve"
        );
        // Inline requests for the same content share the cache entry
        // and the bytes.
        let inline = c.run_inline(op, &text, 3).unwrap().into_ok().unwrap();
        assert_eq!(cold.as_bytes(), inline.as_bytes(), "{op:?} inline");
    }

    let stats = c.stats().unwrap();
    assert!(stat(&stats, "cache_hits") >= 8, "{stats:?}");
    assert_eq!(stat(&stats, "cache_misses"), 4, "one cold solve per op");
    assert_eq!(stat(&stats, "store_entries"), 1, "content-addressed dedupe");

    c.shutdown().unwrap();
    let summary = handle.join().unwrap();
    assert_eq!(summary.errors, 0);
    assert!(summary.cache_hits >= 8);
}

#[test]
fn eight_concurrent_clients_get_identical_bytes() {
    let (addr, handle) = spawn_server(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    });
    let text = instance_text();

    let bodies: Vec<Vec<String>> = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for client_id in 0..8 {
            let addr = addr.clone();
            let text = text.clone();
            joins.push(scope.spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                // Half the clients upload first; the others solve
                // inline. All must converge on the same cache line.
                let hash = if client_id % 2 == 0 {
                    Some(c.put(&text).unwrap().unwrap())
                } else {
                    None
                };
                let mut out = Vec::new();
                for _ in 0..12 {
                    let reply = match &hash {
                        Some(h) => c.run_hash(Op::Solve, h, 3).unwrap(),
                        None => c.run_inline(Op::Solve, &text, 3).unwrap(),
                    };
                    out.push(reply.into_ok().expect("solve failed"));
                }
                out
            }));
        }
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });

    let first = &bodies[0][0];
    assert!(first.contains("utility "), "{first}");
    for (i, per_client) in bodies.iter().enumerate() {
        assert_eq!(per_client.len(), 12);
        for b in per_client {
            assert_eq!(b, first, "client {i} saw different bytes");
        }
    }

    let mut c = Client::connect(&addr).unwrap();
    c.shutdown().unwrap();
    let summary = handle.join().unwrap();
    assert_eq!(summary.errors, 0);
    assert_eq!(summary.busy, 0);
    // 96 solves total; at worst each of the 8 clients' *first* solve
    // races the others into a cold miss, so at least 88 must hit.
    assert!(summary.cache_hits >= 88, "{summary:?}");
}

#[test]
fn saturated_queue_replies_busy_and_recovers() {
    // One worker, queue of one: occupy both slots deterministically,
    // then the next request must bounce with BUSY.
    let (addr, handle) = spawn_server(ServeConfig {
        workers: 1,
        queue_cap: 1,
        ..ServeConfig::default()
    });

    let mut observer = Client::connect(&addr).unwrap();
    let sleeper = |addr: &str| {
        let addr = addr.to_string();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            c.request("SLEEP 600", None).unwrap()
        })
    };

    // Fill the worker, wait until it is actually executing.
    let s1 = sleeper(&addr);
    wait_until(&mut observer, |st| stat(st, "in_flight") == 1);
    // Fill the queue.
    let s2 = sleeper(&addr);
    wait_until(&mut observer, |st| stat(st, "queue_depth") == 1);

    // Saturated: a solve must bounce, not block or queue unboundedly.
    let mut c = Client::connect(&addr).unwrap();
    let text = instance_text();
    let reply = c.run_inline(Op::Solve, &text, 3).unwrap();
    match reply {
        ClientReply::Err(ErrorCode::Busy, _) => {}
        other => panic!("expected BUSY, got {other:?}"),
    }

    // Both sleepers still complete; the server recovers.
    assert!(s1.join().unwrap().is_ok());
    assert!(s2.join().unwrap().is_ok());
    let ok = c.run_inline(Op::Solve, &text, 3).unwrap();
    assert!(ok.is_ok(), "server must serve again after the spike");

    c.shutdown().unwrap();
    let summary = handle.join().unwrap();
    assert!(summary.busy >= 1, "{summary:?}");
    assert_eq!(summary.errors, 0, "BUSY is backpressure, not an error");
}

#[test]
fn per_request_timeout_kills_slow_work_not_the_server() {
    let (addr, handle) = spawn_server(ServeConfig {
        workers: 1,
        timeout: Some(Duration::from_millis(80)),
        ..ServeConfig::default()
    });
    let mut c = Client::connect(&addr).unwrap();
    let sent = Instant::now();
    match c.request("SLEEP 5000", None).unwrap() {
        ClientReply::Err(ErrorCode::Timeout, _) => {}
        other => panic!("expected TIMEOUT, got {other:?}"),
    }
    // The abandoned SLEEP still holds its thread, and the gauge says so.
    let metrics = c.metrics().unwrap();
    let runaway = metrics
        .lines()
        .find_map(|l| l.strip_prefix("mmlp_serve_pool_runaway "));
    assert_eq!(runaway, Some("1"), "{metrics}");
    // The same connection keeps working, and the one worker slot was
    // reclaimed: a cold INFO runs on the pool and is answered long
    // before the SLEEP ends.
    let text = instance_text();
    assert!(c.run_inline(Op::Info, &text, 3).unwrap().is_ok());
    assert!(
        sent.elapsed() < Duration::from_millis(2500),
        "INFO waited for the timed-out SLEEP: {:?}",
        sent.elapsed()
    );
    c.shutdown().unwrap();
    let summary = handle.join().unwrap();
    assert_eq!(summary.timeouts, 1);
}

#[test]
fn shutdown_drains_in_flight_work() {
    let (addr, handle) = spawn_server(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });

    // Park a request on the single worker...
    let slow = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            c.request("SLEEP 400", None).unwrap()
        })
    };
    let mut observer = Client::connect(&addr).unwrap();
    wait_until(&mut observer, |st| stat(st, "in_flight") == 1);

    // ...then shut down while it is still running.
    let mut c = Client::connect(&addr).unwrap();
    let bye = c.shutdown().unwrap();
    assert!(bye.is_ok(), "{bye:?}");

    // The in-flight request still completes (drain, not abort)...
    let slow_reply = slow.join().unwrap();
    assert_eq!(slow_reply.into_ok().unwrap(), "slept 400\n");

    // ...and the server then exits cleanly.
    let summary = handle.join().unwrap();
    assert_eq!(summary.errors, 0);

    // New connections are refused once it is gone.
    std::thread::sleep(Duration::from_millis(50));
    assert!(Client::connect(&addr).is_err());
}

#[test]
fn protocol_errors_are_typed_and_nonfatal() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let mut c = Client::connect(&addr).unwrap();

    // Unknown verb.
    match c.request("FROBNICATE", None).unwrap() {
        ClientReply::Err(ErrorCode::BadReq, _) => {}
        other => panic!("{other:?}"),
    }
    // Unknown hash.
    match c.run_hash(Op::Solve, "0123456789abcdef", 3).unwrap() {
        ClientReply::Err(ErrorCode::NotFound, _) => {}
        other => panic!("{other:?}"),
    }
    // Garbage body.
    match c.run_inline(Op::Solve, "not an instance", 3).unwrap() {
        ClientReply::Err(ErrorCode::BadReq, _) => {}
        other => panic!("{other:?}"),
    }
    // The connection survives all of it.
    assert_eq!(
        c.request("PING", None).unwrap().into_ok().unwrap(),
        "pong\n"
    );

    // THREADS= is accepted and ignored, however large: the reply
    // matches the bytes of a request without it.
    let text = instance_text();
    let hash = c.put(&text).unwrap().unwrap();
    let normal = c.run_hash(Op::Solve, &hash, 3).unwrap().into_ok().unwrap();
    let huge = c
        .request(&format!("SOLVE hash:{hash} R=3 THREADS=999999"), None)
        .unwrap()
        .into_ok()
        .unwrap();
    assert_eq!(normal, huge);

    // An oversize body declaration is refused without reading the
    // body, and the (now unsynchronised) connection is closed.
    let mut big = Client::connect(&addr).unwrap();
    match big.request("PUT 99999999999", None).unwrap() {
        ClientReply::Err(ErrorCode::BadReq, msg) => assert!(msg.contains("exceeds"), "{msg}"),
        other => panic!("{other:?}"),
    }
    assert!(
        big.request("PING", None).is_err(),
        "connection must be closed after an unsynchronising request"
    );

    c.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn solves_outside_section_4_are_badreq_and_the_connection_keeps_solving() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let mut c = Client::connect(&addr).unwrap();
    // Each used to panic a pool worker (an `ERR PANIC` reply and a
    // backtrace on the server's stderr).
    for (why, rows, needle) in [
        (
            "agent 2 is in no objective",
            "agents 3\nc 0:1 1:1\nc 2:1\no 0:1 1:1\n",
            "v2",
        ),
        (
            "agent 2 is in no constraint",
            "agents 3\nc 0:1 1:1\no 0:1 1:1\no 2:1\n",
            "v2",
        ),
        (
            "the §4.2 padding overflows",
            "agents 2\nc 0:1\nc 1:1e-300\no 0:1 1:1e300\n",
            "inf",
        ),
        (
            "the §4.6 rescale overflows",
            "agents 2\nc 0:1e300 1:1\no 0:1e-10 1:1\n",
            "inf",
        ),
        (
            "the §4.5 halving underflows",
            "agents 2\nc 0:1 1:1\no 0:5e-324\no 1:1\n",
            "inf",
        ),
    ] {
        let text = format!("maxminlp 1\n{rows}");
        match c.run_inline(Op::Solve, &text, 3).unwrap() {
            ClientReply::Err(ErrorCode::BadReq, msg) => {
                assert!(
                    msg.starts_with("solve: ") && msg.contains(needle),
                    "{why}: {msg}"
                )
            }
            other => panic!("{why}: {other:?}"),
        }
    }

    // The same connection then answers a valid SOLVE.
    c.run_inline(Op::Solve, &instance_text(), 3)
        .unwrap()
        .into_ok()
        .expect("a valid SOLVE after the refusals");
    let stats = c.stats().unwrap();
    assert_eq!(stat(&stats, "errors"), 5, "{stats:?}");

    c.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn oversized_r_is_badreq_and_the_connection_keeps_solving() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let mut c = Client::connect(&addr).unwrap();
    let fams = maxmin_lp::gen::catalog();
    let fam = fams.iter().find(|f| f.name == "special-form").unwrap();
    let base = fam.instance(16, 1);
    let hash = c.put(&textfmt::write_instance(&base)).unwrap().unwrap();
    let row = base.constraint_row(ConstraintId::new(0))[0];
    let delta = format!(
        "mmlpdelta 1\nbase {hash}\nset c 0 {}:{}\n",
        row.agent.raw(),
        row.coef * 1.5
    );
    let (_, _, revision) = c.put_delta(&delta).unwrap().unwrap();

    // Each would make the solver's work (and, for SOLVE_DELTA, its
    // arena) explode: refused at parse time, before any solver runs.
    // An inline body is read and dropped with the refusal, so the
    // instance text is never parsed as commands and the replies stay
    // one per request.
    let text = textfmt::write_instance(&base);
    for (line, body) in [
        (format!("SOLVE hash:{hash} R=1000"), None),
        (format!("SOLVE_DELTA hash:{revision} R=1000"), None),
        (format!("SOLVE inline:{} R=17", text.len()), Some(&text)),
        (
            format!("SOLVE_DELTA inline:{} R=1000", delta.len()),
            Some(&delta),
        ),
    ] {
        match c.request(&line, body.map(|b| b.as_bytes())).unwrap() {
            ClientReply::Err(ErrorCode::BadReq, msg) => assert!(msg.contains("bad R"), "{msg}"),
            other => panic!("{line}: {other:?}"),
        }
    }

    // The same connection then solves normally, and the delta solve is
    // still bit-identical to a SOLVE of its revision.
    let solved = c
        .run_hash(Op::Solve, &revision, 3)
        .unwrap()
        .into_ok()
        .unwrap();
    let delta_solved = c.solve_delta_hash(&revision, 3).unwrap().into_ok().unwrap();
    assert_eq!(solved, delta_solved);
    c.run_hash(Op::Solve, &hash, 16)
        .unwrap()
        .into_ok()
        .expect("R = MAX_R is accepted");
    let inline = c
        .run_inline(Op::Solve, &text, 3)
        .unwrap()
        .into_ok()
        .unwrap();
    assert_eq!(
        inline,
        c.run_hash(Op::Solve, &hash, 3).unwrap().into_ok().unwrap()
    );
    let stats = c.stats().unwrap();
    assert_eq!(stat(&stats, "errors"), 4, "{stats:?}");

    c.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn thread_counts_share_one_cache_entry() {
    // THREADS= is accepted and ignored, so it keys nothing: the second
    // and third solves are hits on the first one's entry.
    let (addr, handle) = spawn_server(ServeConfig::default());
    let mut c = Client::connect(&addr).unwrap();
    let hash = c.put(&instance_text()).unwrap().unwrap();
    let bodies: Vec<String> = [1, 2, 1]
        .iter()
        .map(|t| {
            c.request(&format!("SOLVE hash:{hash} R=3 THREADS={t}"), None)
                .unwrap()
                .into_ok()
                .unwrap()
        })
        .collect();
    assert_eq!(bodies[0], bodies[1]);
    assert_eq!(bodies[1], bodies[2]);
    let stats = c.stats().unwrap();
    assert_eq!(stat(&stats, "cache_misses"), 1, "{stats:?}");
    assert_eq!(stat(&stats, "cache_hits"), 2, "{stats:?}");

    c.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn agent_count_beyond_the_body_is_badreq_and_the_connection_keeps_solving() {
    // 29 bytes declaring three billion agents. Sized from the declared
    // count, the parser would ask for 12 GB, and a failed allocation
    // aborts the whole process.
    let body = "maxminlp 1\nagents 3000000000\n";
    assert_eq!(body.len(), 29);
    let (addr, handle) = spawn_server(ServeConfig::default());
    let mut c = Client::connect(&addr).unwrap();
    for line in ["SOLVE inline:29 R=2", "PUT 29"] {
        match c.request(line, Some(body.as_bytes())).unwrap() {
            ClientReply::Err(ErrorCode::BadReq, msg) => {
                assert!(msg.starts_with("parse: "), "{line}: {msg}");
                assert!(msg.contains("agent count"), "{line}: {msg}");
            }
            other => panic!("{line}: {other:?}"),
        }
    }
    // The same connection then solves a normal instance.
    let solved = c
        .run_inline(Op::Solve, &instance_text(), 3)
        .unwrap()
        .into_ok()
        .unwrap();
    assert!(solved.starts_with("utility "), "{solved}");

    c.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn unreadable_body_length_is_badreq_then_close() {
    use std::io::{Read, Write};
    let (addr, handle) = spawn_server(ServeConfig::default());
    let text = instance_text();
    for line in [
        "SOLVE inline:x R=3",
        "PUT x",
        "PUT_DELTA",
        "SOLVE_DELTA inline:",
    ] {
        // Whatever follows the line may be the body the client meant to
        // send: it must never be parsed as commands.
        let mut raw = std::net::TcpStream::connect(&addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // One write: the server may close before a later one lands.
        raw.write_all(format!("{line}\n{text}PING\n").as_bytes())
            .unwrap();
        // Read to the close: a FIN, or a reset when the server closed
        // with part of the body still unread in its socket buffer.
        let mut got = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match raw.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => got.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
                Err(e) => panic!("{line}: the server must close the connection: {e}"),
            }
        }
        let got = String::from_utf8(got).unwrap();
        assert!(got.starts_with("ERR BADREQ "), "{line}: {got:?}");
        assert_eq!(
            got.lines().count(),
            1,
            "{line}: one reply, then EOF: {got:?}"
        );
    }
    // A fresh connection solves normally.
    let mut c = Client::connect(&addr).unwrap();
    let solved = c
        .run_inline(Op::Solve, &text, 3)
        .unwrap()
        .into_ok()
        .unwrap();
    assert!(solved.starts_with("utility "), "{solved}");
    c.shutdown().unwrap();
    handle.join().unwrap();
}

/// Polls `STATS` until `pred` holds (5 s cap — the conditions are
/// server-local state transitions, not timing races).
fn wait_until(c: &mut Client, pred: impl Fn(&[(String, u64)]) -> bool) {
    for _ in 0..500 {
        let stats = c.stats().unwrap();
        if pred(&stats) {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("condition not reached within 5s");
}
