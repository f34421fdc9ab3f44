//! End-to-end tests of request tracing and the crash-safe event
//! journal: a client-minted `TRACE` id rides the wire, shows up as a
//! full span tree (queue → cache → solve phases → store) in the
//! journal, malformed trace lines degrade to `BADREQ` without killing
//! the connection, and a torn/corrupted journal tail is truncated on
//! restart with every surviving record checksum-clean.

use maxmin_lp::instance::textfmt;
use maxmin_lp::obs::journal::{read_journal_dir, EV_DELTA, EV_SPAN};
use maxmin_lp::obs::{format_trace_id, parse_trace_id, SpanTree};
use maxmin_lp::serve::client::{stat, Client, ClientReply};
use maxmin_lp::serve::protocol::{ErrorCode, Op};
use maxmin_lp::serve::server::{ServeConfig, Server, ServerSummary};
use std::io::Write as _;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mmlp-trace-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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

/// All span trees journaled for `trace_id`, parsed back from their
/// `EV_SPAN` text payloads.
fn journaled_trees(dir: &std::path::Path, trace_id: u64) -> Vec<SpanTree> {
    let (records, report) = read_journal_dir(dir).expect("read journal");
    assert_eq!(report.corrupt, 0, "journal should be checksum-clean");
    records
        .iter()
        .filter(|r| r.kind == EV_SPAN && r.trace_id == trace_id)
        .map(|r| SpanTree::parse_text(&r.text).expect("EV_SPAN payload parses as a span tree"))
        .collect()
}

#[test]
fn client_minted_trace_id_round_trips_into_a_full_span_tree() {
    let journal = temp_dir("roundtrip");
    let (addr, handle) = spawn_server(ServeConfig {
        journal_dir: Some(journal.clone()),
        ..ServeConfig::default()
    });
    let mut c = Client::connect(&addr).unwrap();
    let hash = c.put(&instance_text()).unwrap().unwrap();

    let trace_id = 0xdead_beef_cafe_0001;
    c.trace_next(trace_id);
    let body = c.run_hash(Op::Solve, &hash, 3).unwrap().into_ok().unwrap();
    assert!(body.contains("x "), "solve body looks wrong: {body:?}");

    // A warm repeat under a second trace id: cache-hit span, no solve
    // phases.
    let warm_id = 0xdead_beef_cafe_0002;
    c.trace_next(warm_id);
    let warm = c.run_hash(Op::Solve, &hash, 3).unwrap().into_ok().unwrap();
    assert_eq!(body, warm, "traced solves stay bit-identical");

    // STATS flushes the journal, so everything emitted so far is
    // durable before we read the directory back.
    let stats = c.stats().unwrap();
    assert!(stat(&stats, "spans_recorded") >= 2, "{stats:?}");
    assert!(stat(&stats, "journal_records") >= 2, "{stats:?}");
    assert_eq!(stat(&stats, "journal_dropped"), 0, "{stats:?}");

    let trees = journaled_trees(&journal, trace_id);
    assert_eq!(trees.len(), 1, "one span tree for the cold solve");
    let tree = &trees[0];
    assert_eq!(tree.trace_id, trace_id);
    assert!(tree.label.starts_with("SOLVE "), "label: {:?}", tree.label);
    let names: Vec<&str> = tree.spans.iter().map(|s| s.name.as_str()).collect();
    for expect in [
        "queue",
        "execute",
        "cache:miss",
        "t_eval",
        "flood",
        "g",
        "store",
    ] {
        assert!(
            names.contains(&expect),
            "missing span {expect:?} in {names:?}"
        );
    }
    // Serve solves on the centralized path: no view gathering.
    assert!(!names.contains(&"gather"), "flat-path span in {names:?}");
    // Every phase span hangs off the execute span, not the root, and
    // the phases fit inside it.
    let exec = tree.spans.iter().find(|s| s.name == "execute").unwrap();
    let mut phase_ns = 0;
    for phase in ["t_eval", "flood", "g"] {
        let span = tree.spans.iter().find(|s| s.name == phase).unwrap();
        assert_eq!(span.parent, exec.id, "{phase} nests under execute");
        phase_ns += span.dur_ns;
    }
    assert!(
        phase_ns <= exec.dur_ns,
        "phases {phase_ns} > execute {}",
        exec.dur_ns
    );

    // The rendered tree is what `maxmin-lp obs trace <id>` prints.
    let rendered = maxmin_lp::obs::render_span_tree(tree);
    assert!(rendered.contains(&format_trace_id(trace_id)), "{rendered}");
    assert!(rendered.contains("flood"), "{rendered}");

    let warm_trees = journaled_trees(&journal, warm_id);
    assert_eq!(warm_trees.len(), 1);
    let warm_names: Vec<&str> = warm_trees[0]
        .spans
        .iter()
        .map(|s| s.name.as_str())
        .collect();
    assert!(warm_names.contains(&"cache:hit"), "{warm_names:?}");
    assert!(
        !warm_names.contains(&"flood"),
        "warm hit must not re-solve: {warm_names:?}"
    );

    c.shutdown().unwrap();
    let summary = handle.join().unwrap();
    // The shutdown summary and the journal hold the same trees, under
    // ids that `obs trace` accepts.
    let summary_ids: Vec<u64> = summary.slowest.iter().map(|t| t.trace_id).collect();
    for id in [trace_id, warm_id] {
        assert!(summary_ids.contains(&id), "{id:x} not in {summary_ids:x?}");
    }
    for tree in &summary.slowest {
        assert_eq!(
            journaled_trees(&journal, tree.trace_id),
            std::slice::from_ref(tree),
            "summary tree {:x} differs from its journal record",
            tree.trace_id
        );
        assert_eq!(
            parse_trace_id(&format_trace_id(tree.trace_id)),
            Some(tree.trace_id)
        );
    }
}

#[test]
fn malformed_trace_line_is_badreq_and_the_connection_survives() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let mut c = Client::connect(&addr).unwrap();

    // Speak the wire protocol directly: a bad TRACE line earns an ERR
    // reply of its own and the next command still works.
    let reply = c.request("TRACE zz", None).unwrap();
    match reply {
        ClientReply::Err(code, msg) => {
            assert_eq!(code, ErrorCode::BadReq);
            assert!(msg.contains("trace"), "unexpected message: {msg:?}");
        }
        other => panic!("expected ERR BADREQ, got {other:?}"),
    }
    let pong = c.request("PING", None).unwrap().into_ok().unwrap();
    assert_eq!(pong.trim(), "pong");

    // A zero id is also rejected (zero is the untraced sentinel).
    let reply = c.request("TRACE 0", None).unwrap();
    assert!(
        matches!(reply, ClientReply::Err(ErrorCode::BadReq, _)),
        "{reply:?}"
    );

    c.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn traced_solve_delta_journals_its_lineage_resolution() {
    use maxmin_lp::instance::delta::{Delta, Edit, RowKind};
    use maxmin_lp::instance::hash::instance_hash;
    use maxmin_lp::instance::ids::ConstraintId;

    let journal = temp_dir("delta");
    let (addr, handle) = spawn_server(ServeConfig {
        journal_dir: Some(journal.clone()),
        ..ServeConfig::default()
    });
    let mut c = Client::connect(&addr).unwrap();

    let fam = maxmin_lp::gen::catalog();
    let fam = fam.iter().find(|f| f.name == "special-form").unwrap();
    let base = fam.instance(18, 2);
    c.put(&textfmt::write_instance(&base)).unwrap().unwrap();

    let e = base.constraint_row(ConstraintId::new(0))[0];
    let delta = Delta::single(
        instance_hash(&base),
        Edit::SetCoef {
            row: RowKind::Constraint,
            row_id: 0,
            agent: e.agent,
            coef: e.coef * 1.5,
        },
    );

    let trace_id = 0xfeed_f00d_0000_0042;
    c.trace_next(trace_id);
    c.solve_delta_inline(&delta.to_text(), 3)
        .unwrap()
        .into_ok()
        .unwrap();
    c.stats().unwrap(); // flush the journal

    let (records, report) = read_journal_dir(&journal).unwrap();
    assert_eq!(report.corrupt, 0);
    let deltas: Vec<_> = records
        .iter()
        .filter(|r| r.kind == EV_DELTA && r.trace_id == trace_id)
        .collect();
    assert_eq!(deltas.len(), 1, "{records:?}");
    assert!(deltas[0].text.starts_with("delta "), "{:?}", deltas[0].text);
    assert!(
        deltas[0].text.contains("recomputed_x="),
        "{:?}",
        deltas[0].text
    );
    assert!(deltas[0].text.contains("agents="), "{:?}", deltas[0].text);

    let trees = journaled_trees(&journal, trace_id);
    assert_eq!(trees.len(), 1);
    assert!(
        trees[0].label.starts_with("SOLVE_DELTA "),
        "{:?}",
        trees[0].label
    );

    c.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn untraced_requests_are_sampled_into_the_span_ring() {
    let journal = temp_dir("sampled");
    let (addr, handle) = spawn_server(ServeConfig {
        journal_dir: Some(journal.clone()),
        ..ServeConfig::default()
    });
    let mut c = Client::connect(&addr).unwrap();
    // The very first request hits the sample-every-64 boundary, so at
    // least one untraced request gets a server-minted span tree.
    let hash = c.put(&instance_text()).unwrap().unwrap();
    c.run_hash(Op::Solve, &hash, 3).unwrap().into_ok().unwrap();
    let stats = c.stats().unwrap();
    assert!(stat(&stats, "spans_recorded") >= 1, "{stats:?}");
    for key in [
        "delta_latency_p50_us",
        "delta_latency_p95_us",
        "delta_latency_p99_us",
    ] {
        stat(&stats, key); // panics if the key is missing
    }
    c.shutdown().unwrap();
    handle.join().unwrap();
}

/// The crash-recovery contract, end to end: run a journaled server,
/// simulate a `kill -9` by leaving a torn half-written record plus a
/// checksum-corrupted record at the tail, restart on the same
/// directory, and check that (a) the reopened journal truncated the
/// torn tail, (b) every surviving record is checksum-clean, and
/// (c) new records append cleanly after the damage point.
#[test]
fn journal_recovers_from_a_torn_tail_across_server_restarts() {
    let journal = temp_dir("crash");

    // First life: journal a traced solve, then shut down.
    let first_id = 0xabad_1dea_0000_0001;
    {
        let (addr, handle) = spawn_server(ServeConfig {
            journal_dir: Some(journal.clone()),
            ..ServeConfig::default()
        });
        let mut c = Client::connect(&addr).unwrap();
        let hash = c.put(&instance_text()).unwrap().unwrap();
        c.trace_next(first_id);
        c.run_hash(Op::Solve, &hash, 3).unwrap().into_ok().unwrap();
        c.stats().unwrap();
        c.shutdown().unwrap();
        handle.join().unwrap();
    }
    let (records, report) = read_journal_dir(&journal).unwrap();
    assert_eq!(report.corrupt, 0);
    let before = records.len();
    assert!(
        before >= 2,
        "expected store-note + span records, got {records:?}"
    );

    // Simulate the kill -9: append half a record (header promises more
    // payload than exists) to the newest file — a torn tail.
    let mut files: Vec<_> = std::fs::read_dir(&journal)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "mmlpj"))
        .collect();
    files.sort();
    let newest = files.last().unwrap().clone();
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&newest)
            .unwrap();
        // kind=EV_SPAN, payload_len=64, checksum=0, then only 5 bytes
        // of the promised 64-byte payload.
        let mut torn = vec![EV_SPAN];
        torn.extend_from_slice(&64u32.to_le_bytes());
        torn.extend_from_slice(&0u64.to_le_bytes());
        torn.extend_from_slice(b"torn!");
        f.write_all(&torn).unwrap();
    }
    let damaged_len = std::fs::metadata(&newest).unwrap().len();

    // The reader already refuses the torn tail...
    let (recovered, report) = read_journal_dir(&journal).unwrap();
    assert_eq!(
        recovered.len(),
        before,
        "torn tail must not surface records"
    );
    assert_eq!(report.torn_files, 1, "{report:?}");

    // ...and the second life truncates it on open, then appends. Its
    // client id is not `first_id + 1`: the server's own sampled ids
    // start right past the largest id its journal holds, `first_id`.
    let second_id = 0xabad_1dea_0000_0020;
    {
        let (addr, handle) = spawn_server(ServeConfig {
            journal_dir: Some(journal.clone()),
            ..ServeConfig::default()
        });
        let mut c = Client::connect(&addr).unwrap();
        let hash = c.put(&instance_text()).unwrap().unwrap();
        c.trace_next(second_id);
        c.run_hash(Op::Solve, &hash, 3).unwrap().into_ok().unwrap();
        c.stats().unwrap();
        c.shutdown().unwrap();
        handle.join().unwrap();
    }
    assert!(
        std::fs::metadata(&newest).unwrap().len() != damaged_len,
        "restart should have truncated the torn tail before appending"
    );

    let (records, report) = read_journal_dir(&journal).unwrap();
    assert_eq!(report.corrupt, 0, "survivors must be checksum-clean");
    assert_eq!(report.torn_files, 0, "the torn tail was healed on open");
    assert!(records.len() > before, "second life appended new records");
    // Both lives' traces survive side by side.
    assert_eq!(journaled_trees(&journal, first_id).len(), 1);
    assert_eq!(journaled_trees(&journal, second_id).len(), 1);

    let _ = std::fs::remove_dir_all(&journal);
}

/// The `maxmin-lp obs trace` / `obs journal` commands read the same
/// directory the server wrote — exercised through the real binary so
/// the CLI surface is covered end to end.
#[test]
fn obs_trace_cli_renders_the_journaled_span_tree() {
    let journal = temp_dir("cli");
    let trace_id = 0xc11f_ace0_0000_0007;
    {
        let (addr, handle) = spawn_server(ServeConfig {
            journal_dir: Some(journal.clone()),
            ..ServeConfig::default()
        });
        let mut c = Client::connect(&addr).unwrap();
        let hash = c.put(&instance_text()).unwrap().unwrap();
        c.trace_next(trace_id);
        c.run_hash(Op::Solve, &hash, 3).unwrap().into_ok().unwrap();
        c.stats().unwrap();
        c.shutdown().unwrap();
        handle.join().unwrap();
    }

    let bin = env!("CARGO_BIN_EXE_maxmin-lp");
    let out = std::process::Command::new(bin)
        .args([
            "obs",
            "trace",
            &format_trace_id(trace_id),
            "--journal",
            journal.to_str().unwrap(),
        ])
        .output()
        .expect("run obs trace");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "obs trace failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains(&format_trace_id(trace_id)), "{stdout}");
    for name in ["queue", "execute", "flood", "store"] {
        assert!(stdout.contains(name), "missing {name:?} in:\n{stdout}");
    }

    let out = std::process::Command::new(bin)
        .args(["obs", "journal", "--journal", journal.to_str().unwrap()])
        .output()
        .expect("run obs journal");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("record(s)"), "{stdout}");

    // An unknown trace id is a typed error with a nonzero exit, not a
    // panic.
    let out = std::process::Command::new(bin)
        .args([
            "obs",
            "trace",
            "ffffffffffffffff",
            "--journal",
            journal.to_str().unwrap(),
        ])
        .output()
        .expect("run obs trace (missing id)");
    assert!(!out.status.success(), "missing trace id must exit nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "{stderr}");

    let _ = std::fs::remove_dir_all(&journal);
}

/// One `maxmin-lp serve` life on `journal`: a `PUT`, the first request
/// of the process and so sampled under a server-minted trace id, then
/// `SHUTDOWN`. Returns the ids of the span trees in the shutdown
/// summary.
fn one_serve_life(journal: &std::path::Path) -> Vec<u64> {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_maxmin-lp"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
        .arg("--journal-dir")
        .arg(journal)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let addr = loop {
        let line = lines.next().expect("serve printed no address").unwrap();
        if let Some(a) = line.strip_prefix("listening ") {
            break a.trim().to_string();
        }
    };
    let mut c = Client::connect(&addr).unwrap();
    c.put(&instance_text()).unwrap().unwrap();
    c.shutdown().unwrap();
    let ids = lines
        .map(|l| l.unwrap())
        .filter_map(|l| parse_trace_id(l.strip_prefix("trace ")?.split_whitespace().next()?))
        .collect();
    assert!(child.wait().unwrap().success());
    ids
}

#[test]
fn server_minted_trace_ids_do_not_repeat_across_lives() {
    // Two server processes on one journal directory: each counts its
    // own ids from 1, so the second must start past the first's.
    let journal = temp_dir("lives");
    let first = one_serve_life(&journal);
    let second = one_serve_life(&journal);
    assert_eq!((first.len(), second.len()), (1, 1), "{first:?} {second:?}");
    assert_ne!(first[0], second[0], "the second life reused an id");
    for id in [first[0], second[0]] {
        // One tree per id in the journal, and `obs trace` renders it.
        assert_eq!(journaled_trees(&journal, id).len(), 1, "{id:x}");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_maxmin-lp"))
            .args(["obs", "trace", &format_trace_id(id), "--journal"])
            .arg(&journal)
            .output()
            .expect("run obs trace");
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        let header = format!("trace {}  PUT", format_trace_id(id));
        assert_eq!(stdout.matches("trace ").count(), 1, "{stdout}");
        assert!(stdout.starts_with(&header), "{stdout}");
    }
    let _ = std::fs::remove_dir_all(&journal);
}
