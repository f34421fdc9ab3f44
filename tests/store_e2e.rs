//! End-to-end tests of the persistence layer behind `--store-dir`:
//! warm-started caches across clean restarts, and crash recovery —
//! `kill -9` mid-load, torn segment tails, byte-identical warm replies
//! after the restart.

use maxmin_lp::gen::catalog;
use maxmin_lp::instance::textfmt;
use maxmin_lp::serve::client::{stat, Client};
use maxmin_lp::serve::protocol::Op;
use maxmin_lp::serve::server::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mmlp-store-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn instance_text() -> String {
    let fams = catalog();
    let fam = fams.iter().find(|f| f.name == "bandwidth").unwrap();
    textfmt::write_instance(&fam.instance(32, 3))
}

#[test]
fn clean_restart_warm_starts_bit_identically() {
    let dir = temp_dir("clean");
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let text = instance_text();

    // First life: PUT + solve two ops, remember the replies.
    let server = Server::bind(cfg.clone()).expect("bind 1");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("run 1"));
    let mut c = Client::connect(&addr).unwrap();
    let hash = c.put(&text).unwrap().unwrap();
    let solve1 = c.run_hash(Op::Solve, &hash, 3).unwrap().into_ok().unwrap();
    let opt1 = c
        .run_hash(Op::Optimum, &hash, 3)
        .unwrap()
        .into_ok()
        .unwrap();
    c.shutdown().unwrap();
    handle.join().unwrap();

    // Second life on the same directory: no PUT — the instance must be
    // fetchable by hash from the warm-started store, and both replies
    // must be warm cache hits, byte-identical to the first life's.
    let server = Server::bind(cfg).expect("bind 2");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("run 2"));
    let mut c = Client::connect(&addr).unwrap();
    let solve2 = c.run_hash(Op::Solve, &hash, 3).unwrap().into_ok().unwrap();
    let opt2 = c
        .run_hash(Op::Optimum, &hash, 3)
        .unwrap()
        .into_ok()
        .unwrap();
    assert_eq!(solve1.as_bytes(), solve2.as_bytes());
    assert_eq!(opt1.as_bytes(), opt2.as_bytes());
    let stats = c.stats().unwrap();
    assert_eq!(stat(&stats, "persist_enabled"), 1);
    assert!(stat(&stats, "warm_instances") >= 1, "{stats:?}");
    assert!(stat(&stats, "warm_results") >= 2, "{stats:?}");
    assert_eq!(stat(&stats, "cache_misses"), 0, "everything was warm");
    assert_eq!(stat(&stats, "cache_hits"), 2);
    assert_eq!(stat(&stats, "persist_errors"), 0);
    c.shutdown().unwrap();
    let summary = handle.join().unwrap();
    assert_eq!(summary.cache_misses, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Spawns the real binary with `--store-dir` and waits for its
/// "listening" line; returns the child and the bound address.
fn spawn_server_process(dir: &Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_maxmin-lp"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--store-dir",
            dir.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn server");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        assert!(Instant::now() < deadline, "server never reported listening");
        let line = lines.next().expect("stdout open").expect("read line");
        if let Some(a) = line.strip_prefix("listening ") {
            break a.trim().to_string();
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

#[test]
fn kill_nine_mid_load_then_restart_serves_warm_bit_identical_replies() {
    let dir = temp_dir("kill9");

    // First life (real process): PUT, capture two cold replies, then
    // hammer it with writes and SIGKILL it mid-load.
    let (mut child, addr) = spawn_server_process(&dir);
    let text = instance_text();
    let mut c = Client::connect(&addr).unwrap();
    let hash = c.put(&text).unwrap().unwrap();
    let cold_solve = c.run_hash(Op::Solve, &hash, 3).unwrap().into_ok().unwrap();
    let cold_opt = c
        .run_hash(Op::Optimum, &hash, 3)
        .unwrap()
        .into_ok()
        .unwrap();

    // Load thread: a stream of distinct cold solves (fresh seeds sent
    // inline, never repeating), each of which appends an instance and a
    // result record — so the kill lands between, or inside, store
    // appends. The stream outlasts the 300 ms before the kill.
    let load_addr = addr.clone();
    let load = std::thread::spawn(move || {
        let Ok(mut c) = Client::connect(&load_addr) else {
            return;
        };
        let fams = catalog();
        let fam = fams.iter().find(|f| f.name == "bandwidth").unwrap();
        for seed in 100u64.. {
            let text = textfmt::write_instance(&fam.instance(32, seed));
            match c.run_inline(Op::Solve, &text, 3) {
                Ok(reply) => assert!(reply.is_ok(), "seed {seed}: {reply:?}"),
                Err(_) => return, // the kill landed
            }
        }
    });
    std::thread::sleep(Duration::from_millis(300));
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");
    load.join().unwrap();

    // Belt and braces: guarantee at least one torn tail, as a crash
    // mid-append would leave, on every non-empty shard.
    let mut torn = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "seg")
            && std::fs::metadata(&path).unwrap().len() > 16
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&[1u8, 0xff, 0xff, 0xff, 0x07]).unwrap();
            torn += 1;
        }
    }
    assert!(torn >= 1, "the load must have persisted something");

    // Second life on the same directory: the store opens cleanly
    // (tails repaired), the instance is fetchable by hash without a
    // PUT, and the two known replies are warm hits, byte-identical.
    let (mut child, addr) = spawn_server_process(&dir);
    let mut c = Client::connect(&addr).unwrap();
    let warm_solve = c.run_hash(Op::Solve, &hash, 3).unwrap().into_ok().unwrap();
    let warm_opt = c
        .run_hash(Op::Optimum, &hash, 3)
        .unwrap()
        .into_ok()
        .unwrap();
    assert_eq!(cold_solve.as_bytes(), warm_solve.as_bytes());
    assert_eq!(cold_opt.as_bytes(), warm_opt.as_bytes());
    let stats = c.stats().unwrap();
    assert!(stat(&stats, "warm_instances") >= 1, "{stats:?}");
    assert!(stat(&stats, "warm_results") >= 2, "{stats:?}");
    assert!(stat(&stats, "cache_hits") >= 2, "{stats:?}");
    assert_eq!(stat(&stats, "cache_misses"), 0, "{stats:?}");
    c.shutdown().unwrap();
    let status = child.wait().expect("clean exit");
    assert!(status.success());

    // After the restart repaired the tails, a full checksum sweep runs
    // clean — through the CLI, as CI does.
    let out = Command::new(env!("CARGO_BIN_EXE_maxmin-lp"))
        .args(["store", "verify", dir.to_str().unwrap()])
        .output()
        .expect("store verify");
    assert!(
        out.status.success(),
        "verify failed: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let report = String::from_utf8(out.stdout).unwrap();
    assert!(report.contains("clean true"), "{report}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The key a hash-v1 server wrote an instance's records under:
/// FNV-1a over its canonical text.
fn v1_key(inst: &maxmin_lp::instance::Instance) -> u64 {
    maxmin_lp::instance::fnv1a64(textfmt::write_instance(inst).as_bytes())
}

/// Appends `records`, framed, to their shards' segment files under
/// `dir` (`specs/STORAGE.md`), whatever key each carries: the records
/// a server of another hash version wrote.
fn append_records(dir: &Path, records: &[maxmin_lp::store::Record]) {
    use maxmin_lp::store::{store::shard_of, Record};
    drop(maxmin_lp::store::Store::open(dir).expect("create the shards"));
    for record in records {
        let hash = match record {
            Record::Instance { hash, .. } => *hash,
            Record::Result { key, .. } => key.instance,
        };
        let path = dir.join(format!("shard-{:02}.seg", shard_of(hash)));
        let mut f = std::fs::OpenOptions::new().append(true).open(path).unwrap();
        f.write_all(&record.encode().unwrap()).unwrap();
    }
}

#[test]
fn a_store_keyed_by_hash_v1_serves_its_keys_and_drops_its_chains() {
    use maxmin_lp::instance::delta::{Delta, Edit, RowKind};
    use maxmin_lp::instance::{hash_hex, ConstraintId};
    use maxmin_lp::serve::client::ClientReply;
    use maxmin_lp::serve::protocol::{ErrorCode, LINEAGE_OP_CODE};
    use maxmin_lp::store::codec::encode_instance;
    use maxmin_lp::store::{Record, ResultKey};

    let dir = temp_dir("v1keys");
    let fams = catalog();
    let family = |name: &str| fams.iter().find(|f| f.name == name).unwrap();
    let inst = family("bandwidth").instance(32, 3);
    let body = maxmin_lp::serve::engine::execute(Op::Solve, &inst, 3, 1).unwrap();
    // A two-edit chain off a special-form base, every key v1.
    let base = family("special-form").instance(18, 2);
    let mut chain = Vec::new();
    let mut cur = base.clone();
    for (row, factor) in [(0u32, 1.5), (1, 0.75)] {
        let e = cur.constraint_row(ConstraintId::new(row))[0];
        let delta = Delta::single(
            v1_key(&cur),
            Edit::SetCoef {
                row: RowKind::Constraint,
                row_id: row,
                agent: e.agent,
                coef: e.coef * factor,
            },
        );
        cur = delta.apply_unchecked(&cur).unwrap();
        chain.push((v1_key(&cur), delta.to_text()));
    }
    let instance_record = |i: &maxmin_lp::instance::Instance| Record::Instance {
        hash: v1_key(i),
        blob: encode_instance(i),
    };
    let result_record = |instance: u64, op: u8, big_r: u32, body: &str| Record::Result {
        key: ResultKey {
            instance,
            op,
            big_r,
            threads: u32::from(op != LINEAGE_OP_CODE),
        },
        body: body.as_bytes().to_vec(),
    };
    let mut records = vec![
        instance_record(&inst),
        result_record(v1_key(&inst), Op::Solve.code(), 3, &body),
        instance_record(&base),
    ];
    for (key, text) in &chain {
        records.push(result_record(*key, LINEAGE_OP_CODE, 0, text));
    }
    append_records(&dir, &records);

    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("run"));
    let mut c = Client::connect(&addr).unwrap();
    // The stored result answers under the key it was written with.
    let v1 = hash_hex(v1_key(&inst));
    let got = c.run_hash(Op::Solve, &v1, 3).unwrap().into_ok().unwrap();
    assert_eq!(got, body);
    let stats = c.stats().unwrap();
    assert_eq!(stat(&stats, "cache_misses"), 0, "{stats:?}");
    assert_eq!(stat(&stats, "cache_hits"), 1, "{stats:?}");
    assert_eq!(stat(&stats, "warm_instances"), 2, "{stats:?}");
    // The v1 chain cannot replay onto its v1 revisions: dropped at
    // boot and counted, so its revisions are unknown, not INTERNAL.
    assert_eq!(stat(&stats, "warm_lineage"), 0, "{stats:?}");
    assert_eq!(stat(&stats, "warm_lineage_dropped"), 2, "{stats:?}");
    assert!(c
        .metrics()
        .unwrap()
        .lines()
        .any(|l| l == "mmlp_serve_warm_lineage_dropped 2"));
    let tip = hash_hex(chain[1].0);
    let not_found = |r: ClientReply| match r {
        ClientReply::Err(code, _) => code,
        ClientReply::Ok(body) => panic!("expected an error, got {body}"),
    };
    assert_eq!(
        not_found(c.run_hash(Op::Solve, &tip, 3).unwrap()),
        ErrorCode::NotFound
    );
    assert_eq!(
        not_found(c.solve_delta_hash(&tip, 3).unwrap()),
        ErrorCode::NoBase
    );
    // The chain's root instance still answers under its v1 key.
    let root = c
        .run_hash(Op::Solve, &hash_hex(v1_key(&base)), 3)
        .unwrap()
        .into_ok()
        .unwrap();
    assert_eq!(
        root,
        maxmin_lp::serve::engine::execute(Op::Solve, &base, 3, 1).unwrap()
    );
    c.shutdown().unwrap();
    assert_eq!(handle.join().unwrap().errors, 2, "the two refusals");
    std::fs::remove_dir_all(&dir).ok();
}

/// The value of one unlabelled or labelled sample line of a `METRICS`
/// scrape, e.g. `mmlp_serve_store_reads_total{outcome="ok"}`.
fn metric(scrape: &str, series: &str) -> Option<u64> {
    scrape.lines().find_map(|l| {
        let v = l.strip_prefix(series)?.strip_prefix(' ')?;
        v.trim().parse().ok()
    })
}

#[test]
fn a_restart_reads_a_persisted_instance_when_a_new_r_names_it() {
    let dir = temp_dir("read-through");
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let text = instance_text();
    let inst = textfmt::parse_instance(&text).unwrap();
    let reads_ok = "mmlp_serve_store_reads_total{outcome=\"ok\"}";

    // First life: PUT and one solve, each appended to the store.
    let server = Server::bind(cfg.clone()).expect("bind 1");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("run 1"));
    let mut c = Client::connect(&addr).unwrap();
    let hash = c.put(&text).unwrap().unwrap();
    c.run_hash(Op::Solve, &hash, 3).unwrap().into_ok().unwrap();
    let scrape = c.metrics().unwrap();
    assert_eq!(metric(&scrape, "mmlp_serve_store_append_us_count"), Some(2));
    c.shutdown().unwrap();
    handle.join().unwrap();

    // Second life: the boot indexes the instance record and decodes
    // nothing. `SOLVE hash:` at an R never solved misses the result
    // cache; the instance is read from its record on a worker, once.
    let server = Server::bind(cfg).expect("bind 2");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("run 2"));
    let mut c = Client::connect(&addr).unwrap();
    let scrape = c.metrics().unwrap();
    assert_eq!(metric(&scrape, reads_ok), Some(0), "{scrape}");
    assert!(metric(&scrape, "mmlp_serve_warm_start_us").is_some());
    assert_eq!(stat(&c.stats().unwrap(), "warm_instances"), 1);
    assert_eq!(stat(&c.stats().unwrap(), "store_entries"), 0);
    for _ in 0..2 {
        let body = c.run_hash(Op::Solve, &hash, 4).unwrap().into_ok().unwrap();
        let scratch = maxmin_lp::serve::engine::execute(Op::Solve, &inst, 4, 1).unwrap();
        assert_eq!(body.as_bytes(), scratch.as_bytes());
    }
    let scrape = c.metrics().unwrap();
    assert_eq!(metric(&scrape, reads_ok), Some(1), "{scrape}");
    let stats = c.stats().unwrap();
    assert_eq!(stat(&stats, "cache_misses"), 1, "{stats:?}");
    assert_eq!(stat(&stats, "store_entries"), 1, "{stats:?}");
    c.shutdown().unwrap();
    assert_eq!(handle.join().unwrap().errors, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_store_whose_only_instance_record_is_undecodable_boots_and_serves() {
    use maxmin_lp::instance::hash_hex;
    use maxmin_lp::serve::client::ClientReply;
    use maxmin_lp::serve::protocol::ErrorCode;
    use maxmin_lp::store::Record;

    let dir = temp_dir("bad-record");
    let bad = 0x0bad_0bad_0bad_0bad_u64;
    // Checksummed, so the open keeps it; its codec blob does not decode.
    append_records(
        &dir,
        &[Record::Instance {
            hash: bad,
            blob: b"not a codec blob".to_vec(),
        }],
    );
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("a bad record does not stop the boot");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("run"));
    let mut c = Client::connect(&addr).unwrap();
    assert_eq!(stat(&c.stats().unwrap(), "warm_instances"), 1);
    match c.run_hash(Op::Solve, &hash_hex(bad), 3).unwrap() {
        ClientReply::Err(code, msg) => {
            assert_eq!(code, ErrorCode::Internal);
            assert!(msg.contains(&hash_hex(bad)), "{msg}");
        }
        ClientReply::Ok(body) => panic!("expected INTERNAL, got {body}"),
    }
    let scrape = c.metrics().unwrap();
    assert_eq!(
        metric(&scrape, "mmlp_serve_store_reads_total{outcome=\"error\"}"),
        Some(1),
        "{scrape}"
    );
    // The undecodable bytes stayed out of memory.
    assert_eq!(metric(&scrape, "mmlp_serve_store_entries"), Some(0));
    assert_eq!(stat(&c.stats().unwrap(), "store_entries"), 0);
    // The node keeps serving, and holds the upload as its record.
    let text = instance_text();
    let hash = c.put(&text).unwrap().unwrap();
    let body = c.run_hash(Op::Solve, &hash, 3).unwrap().into_ok().unwrap();
    let inst = textfmt::parse_instance(&text).unwrap();
    assert_eq!(
        body,
        maxmin_lp::serve::engine::execute(Op::Solve, &inst, 3, 1).unwrap()
    );
    let record_len = maxmin_lp::store::codec::encode_instance(&inst).len() as u64;
    let stats = c.stats().unwrap();
    assert_eq!(stat(&stats, "store_entries"), 1, "{stats:?}");
    assert_eq!(stat(&stats, "store_bytes"), record_len, "{stats:?}");
    let scrape = c.metrics().unwrap();
    assert_eq!(metric(&scrape, "mmlp_serve_store_bytes"), Some(record_len));
    c.shutdown().unwrap();
    assert_eq!(handle.join().unwrap().errors, 1);
    std::fs::remove_dir_all(&dir).ok();
}
