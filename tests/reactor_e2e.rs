//! End-to-end tests of the event-driven front-end's incremental
//! parsing and pipelining, over real TCP sockets:
//!
//! * a request script split at **every byte boundary** (mid-`TRACE`,
//!   mid-command-line, mid-body) must produce byte-identical replies to
//!   the unsplit script;
//! * a pipelined burst written in one shot — including a cold solve
//!   ahead of cheap commands — must be answered strictly in request
//!   order;
//! * a slow-loris connection holding half a command line must not
//!   starve other clients on the same event loop, and must not block
//!   shutdown;
//! * the load generator's open-pipeline mode must drive a clean run.

use maxmin_lp::instance::hash::{hash_hex, instance_hash};
use maxmin_lp::instance::textfmt;
use maxmin_lp::serve::client::{Client, ClientReply, PipelinedClient};
use maxmin_lp::serve::loadgen::{run_loadgen, LoadConfig};
use maxmin_lp::serve::protocol::Op;
use maxmin_lp::serve::server::{ServeConfig, Server, ServerSummary};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

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

/// A small instance, so the byte-boundary sweep stays fast.
fn small_instance_text() -> String {
    let fam = maxmin_lp::gen::catalog();
    let fam = fam.iter().find(|f| f.name == "bandwidth").unwrap();
    textfmt::write_instance(&fam.instance(8, 2))
}

/// Reads `n` framed replies (`OK {len}\n{body}` / `ERR ...\n`) off the
/// stream, returning the raw wire bytes — headers, bodies and all — so
/// callers can compare runs byte for byte.
fn read_frames(reader: &mut BufReader<TcpStream>, n: usize) -> Vec<u8> {
    let mut raw = Vec::new();
    for _ in 0..n {
        let mut header = String::new();
        let got = reader.read_line(&mut header).expect("reply header");
        assert!(got > 0, "connection closed before all replies arrived");
        raw.extend_from_slice(header.as_bytes());
        if let Some(rest) = header.trim_end().strip_prefix("OK ") {
            let nbytes: usize = rest.trim().parse().expect("OK length");
            let mut body = vec![0u8; nbytes];
            reader.read_exact(&mut body).expect("reply body");
            raw.extend_from_slice(&body);
        }
    }
    raw
}

#[test]
fn every_byte_boundary_split_parses_identically() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let text = small_instance_text();
    let hash = hash_hex(instance_hash(&textfmt::parse_instance(&text).unwrap()));

    // One script, three replies (the TRACE line gets none): a traced
    // PUT with its body, a SOLVE by hash, and a PING. Every later
    // run warm-hits the solve, so the sweep is cheap.
    let script = format!(
        "TRACE 00000000deadbeef\nPUT {}\n{text}SOLVE hash:{hash} R=3 THREADS=1\nPING\n",
        text.len()
    );
    let script = script.as_bytes();

    // Reference: the whole script in one write.
    let expected = {
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.write_all(script).unwrap();
        read_frames(&mut BufReader::new(stream), 3)
    };
    assert!(
        std::str::from_utf8(&expected).unwrap().contains("utility "),
        "reference run must contain a solve body"
    );

    // Every split point, including mid-TRACE (i < 20), mid-command and
    // mid-body. The pause between halves lets the event loop observe
    // the partial read; coalesced delivery would only make the case
    // easier, never wrong.
    for i in 1..script.len() {
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.write_all(&script[..i]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
        stream.write_all(&script[i..]).unwrap();
        let got = read_frames(&mut BufReader::new(stream), 3);
        assert_eq!(
            got,
            expected,
            "split at byte {i} changed the replies ({:?} | {:?})",
            String::from_utf8_lossy(&script[..i.min(40)]),
            String::from_utf8_lossy(&script[i..script.len().min(i + 40)]),
        );
    }

    let mut c = Client::connect(&addr).unwrap();
    c.shutdown().unwrap();
    let summary = handle.join().unwrap();
    assert_eq!(summary.errors, 0, "{summary:?}");
}

#[test]
fn pipelined_burst_is_answered_in_request_order() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let text = small_instance_text();
    let hash = hash_hex(instance_hash(&textfmt::parse_instance(&text).unwrap()));

    let mut pc = PipelinedClient::connect(&addr).unwrap();
    // The whole conversation queued before a single reply is read: the
    // PUT the solve depends on, a *cold* solve (which detours through
    // the worker pool), and a tail of inline PINGs that the server
    // could answer instantly — but must hold until the solve's slot
    // ahead of them is filled.
    pc.send(&format!("PUT {}", text.len()), Some(text.as_bytes()))
        .unwrap();
    pc.send_run_hash(Op::Solve, &hash, 3).unwrap();
    for _ in 0..10 {
        pc.send("PING", None).unwrap();
    }
    pc.flush().unwrap();
    assert_eq!(pc.in_flight(), 12);

    let put_reply = pc.recv().unwrap().into_ok().unwrap();
    assert_eq!(put_reply.trim(), format!("hash {hash}"), "reply 1 is PUT");
    let solve = pc.recv().unwrap().into_ok().unwrap();
    assert!(solve.contains("utility "), "reply 2 is the solve: {solve}");
    for i in 0..10 {
        let pong = pc.recv().unwrap().into_ok().unwrap();
        assert_eq!(pong, "pong\n", "reply {} is a pong", i + 3);
    }
    assert_eq!(pc.in_flight(), 0);

    let mut c = Client::connect(&addr).unwrap();
    let stats = c.stats().unwrap();
    let misses = maxmin_lp::serve::client::stat(&stats, "cache_misses");
    assert_eq!(misses, 1, "the burst's solve was cold");
    c.shutdown().unwrap();
    let summary = handle.join().unwrap();
    assert_eq!(summary.errors, 0, "{summary:?}");
}

#[test]
fn slow_loris_does_not_starve_the_event_loop_or_block_shutdown() {
    // One event loop: the loris and the working client share it, so
    // any starvation would be visible immediately.
    let (addr, handle) = spawn_server(ServeConfig {
        event_loops: 1,
        ..ServeConfig::default()
    });

    // The loris: half a command line, then silence (the socket stays
    // open, the server's parser stays mid-line).
    let mut loris = TcpStream::connect(&addr).unwrap();
    loris.write_all(b"SOLVE hash:0123").unwrap();
    loris.flush().unwrap();
    std::thread::sleep(Duration::from_millis(20));

    // A well-behaved client on the same loop keeps full service.
    let mut c = Client::connect(&addr).unwrap();
    let text = small_instance_text();
    let hash = c.put(&text).unwrap().unwrap();
    let started = Instant::now();
    for _ in 0..20 {
        let reply = c.run_hash(Op::Solve, &hash, 3).unwrap();
        assert!(matches!(reply, ClientReply::Ok(_)), "{reply:?}");
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "requests behind a slow-loris peer took {:?}",
        started.elapsed()
    );

    // Shutdown is not held up by the half-sent command either: a
    // partial line is not in-flight work.
    c.shutdown().unwrap();
    let summary = handle.join().unwrap();
    assert_eq!(summary.errors, 0, "{summary:?}");

    // And the loris learns about it: its connection is closed.
    loris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 16];
    assert_eq!(loris.read(&mut buf).unwrap_or(0), 0, "loris must see EOF");
}

#[test]
fn open_pipeline_loadgen_runs_clean() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let report = run_loadgen(&LoadConfig {
        addr: addr.clone(),
        clients: 4,
        requests: 200,
        pipeline: 8,
        instance_text: small_instance_text(),
        shutdown_after: true,
        ..LoadConfig::default()
    })
    .expect("loadgen");
    assert_eq!(report.ok, report.sent, "{:?}", report.first_error);
    assert_eq!(report.errors, 0);
    assert_eq!(
        report.distinct_bodies, 1,
        "pipelined replies must stay bit-identical"
    );
    assert!(report.throughput() > 0.0);
    let summary = handle.join().unwrap();
    assert_eq!(summary.errors, 0, "{summary:?}");
}
