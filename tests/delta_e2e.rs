//! End-to-end tests of the delta workload over real TCP sockets:
//! `PUT_DELTA` lineage registration, `SOLVE_DELTA` bit-identity
//! against from-scratch `SOLVE`s of the same revision, typed error
//! codes, the `SOLVE_DELTA`-namespace cache, and lineage replay across
//! a server restart on the same persistent store.

use maxmin_lp::instance::delta::{Delta, Edit, RowKind};
use maxmin_lp::instance::hash::instance_hash;
use maxmin_lp::instance::ids::ConstraintId;
use maxmin_lp::instance::{textfmt, Instance};
use maxmin_lp::serve::client::{stat, Client, ClientReply, PipelinedClient};
use maxmin_lp::serve::loadgen::{self, LoadConfig};
use maxmin_lp::serve::protocol::{ErrorCode, Op};
use maxmin_lp::serve::server::{ServeConfig, Server, ServerSummary};

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

/// The delta path serves special-form instances (that is what the
/// incremental solver repairs); `SOLVE` of the same revision is the
/// bit-identity oracle.
fn base_instance() -> Instance {
    let fam = maxmin_lp::gen::catalog();
    let fam = fam.iter().find(|f| f.name == "special-form").unwrap();
    fam.instance(18, 2)
}

/// A one-edit delta bumping constraint `row`'s first coefficient by
/// `factor`, pinned to `inst`'s content hash.
fn bump(inst: &Instance, row: u32, factor: f64) -> Delta {
    let e = inst.constraint_row(ConstraintId::new(row))[0];
    Delta::single(
        instance_hash(inst),
        Edit::SetCoef {
            row: RowKind::Constraint,
            row_id: row,
            agent: e.agent,
            coef: e.coef * factor,
        },
    )
}

#[test]
fn solve_delta_is_bit_identical_to_solve_of_the_revision() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let mut c = Client::connect(&addr).unwrap();
    let base = base_instance();
    c.put(&textfmt::write_instance(&base)).unwrap().unwrap();

    let delta = bump(&base, 0, 1.5);
    let (base_hex, _delta_hex, new_hex) = c.put_delta(&delta.to_text()).unwrap().unwrap();
    assert_ne!(base_hex, new_hex);

    // The incremental body equals a from-scratch SOLVE of the new
    // revision, byte for byte — and a repeat is a cache hit with the
    // same bytes.
    let incr = c.solve_delta_hash(&new_hex, 3).unwrap().into_ok().unwrap();
    let scratch = c
        .run_hash(Op::Solve, &new_hex, 3)
        .unwrap()
        .into_ok()
        .unwrap();
    assert_eq!(incr.as_bytes(), scratch.as_bytes());
    let again = c.solve_delta_hash(&new_hex, 3).unwrap().into_ok().unwrap();
    assert_eq!(incr.as_bytes(), again.as_bytes());

    let stats = c.stats().unwrap();
    assert_eq!(stat(&stats, "delta_puts"), 1, "{stats:?}");
    assert_eq!(stat(&stats, "delta_solves_booted"), 1, "{stats:?}");
    // `PUT_DELTA` stored the revision, so the solver boots right there:
    // nothing is replayed, so no dirty ball is recomputed.
    assert_eq!(stat(&stats, "delta_replayed"), 0, "{stats:?}");
    assert_eq!(stat(&stats, "delta_recomputed_x"), 0, "{stats:?}");
    assert_eq!(stat(&stats, "lineage_entries"), 1, "{stats:?}");
    assert_eq!(stat(&stats, "delta_solvers"), 1, "{stats:?}");

    c.shutdown().unwrap();
    let summary = handle.join().unwrap();
    assert_eq!(summary.errors, 0);
    assert!(summary.cache_hits >= 1, "repeat SOLVE_DELTA must hit");
}

#[test]
fn inline_delta_registers_and_solves_in_one_round_trip() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let mut c = Client::connect(&addr).unwrap();
    let base = base_instance();
    c.put(&textfmt::write_instance(&base)).unwrap().unwrap();

    // inline: carries the delta text itself; the revision is registered
    // (PUT_DELTA semantics) and solved in one request. A later solve by
    // hash of the same revision reuses the now-warm solver.
    let delta = bump(&base, 1, 0.75);
    let inline = c
        .solve_delta_inline(&delta.to_text(), 3)
        .unwrap()
        .into_ok()
        .unwrap();
    let (_, _, new_hex) = c.put_delta(&delta.to_text()).unwrap().unwrap();
    let by_hash = c
        .run_hash(Op::Solve, &new_hex, 3)
        .unwrap()
        .into_ok()
        .unwrap();
    assert_eq!(inline.as_bytes(), by_hash.as_bytes());

    let stats = c.stats().unwrap();
    assert_eq!(stat(&stats, "delta_puts"), 2, "inline + explicit");
    assert_eq!(stat(&stats, "lineage_entries"), 1, "same revision, deduped");

    c.shutdown().unwrap();
    assert_eq!(handle.join().unwrap().errors, 0);
}

#[test]
fn chained_edits_advance_one_parked_solver() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let mut c = Client::connect(&addr).unwrap();
    let base = base_instance();
    c.put(&textfmt::write_instance(&base)).unwrap().unwrap();

    // v0 -> v1 -> v2 -> v3, solving after each edit: the first solve
    // boots a solver, the rest advance it in place.
    let mut cur = base.clone();
    let mut last_hex = String::new();
    for (i, factor) in [1.5, 2.0, 0.5].into_iter().enumerate() {
        let delta = bump(&cur, i as u32, factor);
        cur = delta.apply(&cur).unwrap();
        let (_, _, new_hex) = c.put_delta(&delta.to_text()).unwrap().unwrap();
        let incr = c.solve_delta_hash(&new_hex, 3).unwrap().into_ok().unwrap();
        let scratch = c
            .run_hash(Op::Solve, &new_hex, 3)
            .unwrap()
            .into_ok()
            .unwrap();
        assert_eq!(incr.as_bytes(), scratch.as_bytes(), "edit {i}");
        last_hex = new_hex;
    }
    assert_eq!(
        maxmin_lp::instance::hash::hash_hex(instance_hash(&cur)),
        last_hex,
        "client-side replay agrees with the server's lineage"
    );

    let stats = c.stats().unwrap();
    assert_eq!(stat(&stats, "delta_solves_booted"), 1, "{stats:?}");
    assert_eq!(stat(&stats, "delta_solves_advanced"), 2, "{stats:?}");
    assert_eq!(
        stat(&stats, "delta_solvers"),
        1,
        "one solver walks the chain"
    );
    assert_eq!(stat(&stats, "lineage_entries"), 3, "{stats:?}");

    c.shutdown().unwrap();
    assert_eq!(handle.join().unwrap().errors, 0);
}

#[test]
fn delta_errors_are_typed_and_nonfatal() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let mut c = Client::connect(&addr).unwrap();

    // Unregistered revision.
    match c.solve_delta_hash("0123456789abcdef", 3).unwrap() {
        ClientReply::Err(ErrorCode::NoBase, _) => {}
        other => panic!("expected NOBASE, got {other:?}"),
    }
    // Delta against a base this node never saw.
    let orphan = "mmlpdelta 1\nbase 00000000deadbeef\nset c 0 0:1.5\n";
    match c.put_delta(orphan).unwrap() {
        Err(msg) => assert!(msg.starts_with("NOBASE"), "{msg}"),
        other => panic!("expected NOBASE, got {other:?}"),
    }
    // Malformed delta text.
    match c.request("PUT_DELTA 4", Some(b"junk")).unwrap() {
        ClientReply::Err(ErrorCode::BadDelta, _) => {}
        other => panic!("expected BADDELTA, got {other:?}"),
    }
    // Valid base, edit that breaks special form: SOLVE_DELTA refuses
    // with BADDELTA (the delta subsystem serves special-form instances;
    // the revision itself stays solvable via plain SOLVE).
    let base = base_instance();
    c.put(&textfmt::write_instance(&base)).unwrap().unwrap();
    let row0 = base.constraint_row(ConstraintId::new(0));
    let outsider = base
        .agents()
        .find(|v| row0.iter().all(|e| e.agent != *v))
        .expect("an agent outside constraint 0");
    let breaking = Delta::single(
        instance_hash(&base),
        Edit::AddEdge {
            row: RowKind::Constraint,
            row_id: 0,
            agent: outsider,
            coef: 1.0,
        },
    );
    let (_, _, new_hex) = c.put_delta(&breaking.to_text()).unwrap().unwrap();
    match c.solve_delta_hash(&new_hex, 3).unwrap() {
        ClientReply::Err(ErrorCode::BadDelta, msg) => {
            assert!(msg.contains("special form"), "should name the cause: {msg}")
        }
        other => panic!("expected BADDELTA, got {other:?}"),
    }
    assert!(c.run_hash(Op::Solve, &new_hex, 3).unwrap().is_ok());

    // The connection survived every error.
    assert_eq!(
        c.request("PING", None).unwrap().into_ok().unwrap(),
        "pong\n"
    );
    c.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn loadgen_mutate_mode_probes_bit_identity() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let cfg = LoadConfig {
        addr,
        clients: 2,
        requests: 12,
        big_r: 3,
        instance_text: textfmt::write_instance(&base_instance()),
        shutdown_after: true,
        mutate: true,
        seed: 7,
        ..LoadConfig::default()
    };
    let report = loadgen::run_loadgen(&cfg).expect("loadgen run");
    assert_eq!(report.sent, 12);
    assert_eq!(report.ok, 12, "first error: {:?}", report.first_error);
    assert_eq!(report.errors, 0);
    assert_eq!(report.delta_checks, 12, "every step must be probed");
    assert_eq!(report.delta_mismatches, 0);
    let rendered = loadgen::render_report(&cfg, &report);
    assert!(rendered.contains("mode mutate"), "{rendered}");
    assert!(rendered.contains("delta_checks 12"), "{rendered}");
    assert_eq!(handle.join().unwrap().errors, 0);
}

#[test]
fn restart_replays_lineage_from_segments() {
    let dir = std::env::temp_dir().join(format!(
        "mmlp-delta-e2e-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let base = base_instance();
    let d1 = bump(&base, 0, 1.5);
    let v1 = d1.apply(&base).unwrap();
    let d2 = bump(&v1, 1, 2.0);
    let v2 = d2.apply(&v1).unwrap();
    let d3 = bump(&v2, 2, 0.5);
    let tip_hex = maxmin_lp::instance::hash::hash_hex(instance_hash(&d3.apply(&v2).unwrap()));

    let store_cfg = || ServeConfig {
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    // First life: register a two-edit chain and solve its head, then
    // edit the head inline. `PUT_DELTA` stores its revisions; the
    // inline edit advances the parked solver and persists only its
    // lineage record.
    let head_hex;
    let before;
    {
        let (addr, handle) = spawn_server(store_cfg());
        let mut c = Client::connect(&addr).unwrap();
        c.put(&textfmt::write_instance(&base)).unwrap().unwrap();
        c.put_delta(&d1.to_text()).unwrap().unwrap();
        let (_, _, new_hex) = c.put_delta(&d2.to_text()).unwrap().unwrap();
        head_hex = new_hex;
        before = c.solve_delta_hash(&head_hex, 3).unwrap().into_ok().unwrap();
        c.solve_delta_inline(&d3.to_text(), 3)
            .unwrap()
            .into_ok()
            .unwrap();
        c.shutdown().unwrap();
        assert_eq!(handle.join().unwrap().errors, 0);
    }

    // Second life on the same segments: the lineage graph is replayed
    // at warm start. R=4 keys past the persisted R=3 bodies. The head
    // boots where its persisted instance is, with nothing to replay;
    // the inline tip, which no instance record holds, boots at R=5
    // from the head and replays the edge read back from segments. Both
    // are bit-identical to a from-scratch SOLVE at their R.
    let (addr, handle) = spawn_server(store_cfg());
    let mut c = Client::connect(&addr).unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(stat(&stats, "warm_lineage"), 3, "{stats:?}");
    assert_eq!(stat(&stats, "lineage_entries"), 3, "{stats:?}");
    for (hex, big_r) in [(&head_hex, 4), (&tip_hex, 5)] {
        let after = c.solve_delta_hash(hex, big_r).unwrap().into_ok().unwrap();
        let scratch = c
            .run_hash(Op::Solve, hex, big_r)
            .unwrap()
            .into_ok()
            .unwrap();
        assert_eq!(after.as_bytes(), scratch.as_bytes(), "R {big_r}");
    }
    let stats = c.stats().unwrap();
    assert_eq!(stat(&stats, "delta_solves_booted"), 2, "{stats:?}");
    assert_eq!(stat(&stats, "delta_replayed"), 1, "the tip's edge only");
    // The first life's cached body also survives, as a warm hit under
    // SOLVE_DELTA's own namespace.
    let hit = c.solve_delta_hash(&head_hex, 3).unwrap().into_ok().unwrap();
    assert_eq!(hit.as_bytes(), before.as_bytes());
    let stats = c.stats().unwrap();
    assert!(
        stat(&stats, "cache_hits") >= 1,
        "restarted cache must hit: {stats:?}"
    );

    c.shutdown().unwrap();
    assert_eq!(handle.join().unwrap().errors, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inline_chain_advances_the_parked_solver_in_place() {
    let dir = std::env::temp_dir().join(format!(
        "mmlp-delta-inline-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store_cfg = || ServeConfig {
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let base = base_instance();
    let hex = |inst: &Instance| maxmin_lp::instance::hash::hash_hex(instance_hash(inst));

    let (addr, handle) = spawn_server(store_cfg());
    let mut c = Client::connect(&addr).unwrap();
    let base_hex = c.put(&textfmt::write_instance(&base)).unwrap().unwrap();
    // Park a solver at the base; every inline edit below finds one at
    // its base and advances it in place.
    c.solve_delta_hash(&base_hex, 3).unwrap().into_ok().unwrap();

    let mut cur = base.clone();
    let mut revisions = vec![cur.clone()];
    let mut tip_body = String::new();
    for (i, factor) in [1.5, 0.5, 2.0, 0.8, 1.25].into_iter().enumerate() {
        let delta = bump(&cur, i as u32, factor);
        let body = c
            .solve_delta_inline(&delta.to_text(), 3)
            .unwrap()
            .into_ok()
            .unwrap();
        cur = delta.apply(&cur).unwrap();
        revisions.push(cur.clone());
        // The revision is registered by the time its reply arrives, and
        // the incremental body is SOLVE's, byte for byte.
        let scratch = c
            .run_hash(Op::Solve, &hex(&cur), 3)
            .unwrap()
            .into_ok()
            .unwrap();
        assert_eq!(body.as_bytes(), scratch.as_bytes(), "edit {i}");
        // PUT_DELTA of the same text names the same revision and adds
        // no lineage entry.
        let (_, _, new_hex) = c.put_delta(&delta.to_text()).unwrap().unwrap();
        assert_eq!(new_hex, hex(&cur), "edit {i}");
        let stats = c.stats().unwrap();
        assert_eq!(stat(&stats, "lineage_entries"), i as u64 + 1, "{stats:?}");
        tip_body = body;
    }
    let stats = c.stats().unwrap();
    assert_eq!(stat(&stats, "delta_solves_booted"), 1, "{stats:?}");
    assert_eq!(stat(&stats, "delta_solves_advanced"), 5, "{stats:?}");
    assert_eq!(stat(&stats, "delta_solvers"), 1, "{stats:?}");
    assert_eq!(stat(&stats, "delta_puts"), 10, "5 inline + 5 explicit");

    // A branch off an older revision: its solver has moved on to the
    // tip, so the edit is registered and the chain re-derived — still
    // SOLVE's bytes.
    let fork = bump(&revisions[2], 7, 3.0);
    let forked = fork.apply(&revisions[2]).unwrap();
    let body = c
        .solve_delta_inline(&fork.to_text(), 3)
        .unwrap()
        .into_ok()
        .unwrap();
    let scratch = c
        .run_hash(Op::Solve, &hex(&forked), 3)
        .unwrap()
        .into_ok()
        .unwrap();
    assert_eq!(body.as_bytes(), scratch.as_bytes(), "fork");
    c.shutdown().unwrap();
    assert_eq!(handle.join().unwrap().errors, 0);

    // A restart on the same store restores the whole chain from disk.
    // R=4 keys past the tip's persisted R=3 body, so the solve is real
    // and is checked against a from-scratch SOLVE at that R. Each
    // explicit `PUT_DELTA` above persisted its revision's instance, the
    // tip's too, so the boot starts at the tip: nothing to replay.
    let (addr, handle) = spawn_server(store_cfg());
    let mut c = Client::connect(&addr).unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(stat(&stats, "warm_lineage"), 6, "{stats:?}");
    let replayed = c
        .solve_delta_hash(&hex(&cur), 4)
        .unwrap()
        .into_ok()
        .unwrap();
    let scratch = c
        .run_hash(Op::Solve, &hex(&cur), 4)
        .unwrap()
        .into_ok()
        .unwrap();
    assert_eq!(replayed.as_bytes(), scratch.as_bytes());
    let stats = c.stats().unwrap();
    assert_eq!(stat(&stats, "delta_solves_booted"), 1, "{stats:?}");
    assert_eq!(stat(&stats, "delta_replayed"), 0, "{stats:?}");
    // The tip's R=3 body from the first life comes back from disk.
    let warm = c
        .solve_delta_hash(&hex(&cur), 3)
        .unwrap()
        .into_ok()
        .unwrap();
    assert_eq!(warm.as_bytes(), tip_body.as_bytes());
    c.shutdown().unwrap();
    assert_eq!(handle.join().unwrap().errors, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn thread_counts_share_one_parked_solver() {
    // THREADS= keys nothing, so an edit sent with another count
    // advances the solver the first request booted.
    let (addr, handle) = spawn_server(ServeConfig::default());
    let mut c = Client::connect(&addr).unwrap();
    let base = base_instance();
    let base_hex = c.put(&textfmt::write_instance(&base)).unwrap().unwrap();
    c.request(&format!("SOLVE_DELTA hash:{base_hex} R=3 THREADS=1"), None)
        .unwrap()
        .into_ok()
        .unwrap();
    let delta = bump(&base, 0, 1.5);
    let text = delta.to_text();
    let body = c
        .request(
            &format!("SOLVE_DELTA inline:{} R=3 THREADS=2", text.len()),
            Some(text.as_bytes()),
        )
        .unwrap()
        .into_ok()
        .unwrap();
    let next = delta.apply(&base).unwrap();
    let next_hex = maxmin_lp::instance::hash::hash_hex(instance_hash(&next));
    let scratch = c
        .run_hash(Op::Solve, &next_hex, 3)
        .unwrap()
        .into_ok()
        .unwrap();
    assert_eq!(body.as_bytes(), scratch.as_bytes());
    let stats = c.stats().unwrap();
    assert_eq!(stat(&stats, "delta_solves_booted"), 1, "{stats:?}");
    assert_eq!(stat(&stats, "delta_solves_advanced"), 1, "{stats:?}");

    c.shutdown().unwrap();
    assert_eq!(handle.join().unwrap().errors, 0);
}

#[test]
fn pipelined_inline_deltas_take_effect_in_order() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let mut c = Client::connect(&addr).unwrap();
    let base = base_instance();
    let hex = |inst: &Instance| maxmin_lp::instance::hash::hash_hex(instance_hash(inst));
    let base_hex = c.put(&textfmt::write_instance(&base)).unwrap().unwrap();
    // Park a solver at the base, so the first inline edit advances it
    // in place on the worker pool.
    c.solve_delta_hash(&base_hex, 3).unwrap().into_ok().unwrap();

    let d1 = bump(&base, 2, 1.5);
    let new1 = d1.apply(&base).unwrap();
    let d2 = bump(&new1, 4, 0.5);
    let new2 = d2.apply(&new1).unwrap();
    // One write: the second command names the revision the first one
    // creates, and the third edits it. Effects are sequential, so all
    // three see their predecessors' revisions.
    let mut p = PipelinedClient::connect(&addr).unwrap();
    let inline = |d: &Delta| {
        let text = d.to_text();
        (
            format!("SOLVE_DELTA inline:{} R=3 THREADS=1", text.len()),
            text,
        )
    };
    let (line1, text1) = inline(&d1);
    let (line2, text2) = inline(&d2);
    p.send(&line1, Some(text1.as_bytes())).unwrap();
    p.send_run_hash(Op::Solve, &hex(&new1), 3).unwrap();
    p.send(&line2, Some(text2.as_bytes())).unwrap();
    p.flush().unwrap();
    let replies: Vec<String> = (0..3)
        .map(|i| {
            p.recv()
                .unwrap()
                .into_ok()
                .unwrap_or_else(|e| panic!("reply {i}: {e}"))
        })
        .collect();
    assert_eq!(replies[0].as_bytes(), replies[1].as_bytes());
    let scratch2 = c
        .run_hash(Op::Solve, &hex(&new2), 3)
        .unwrap()
        .into_ok()
        .unwrap();
    assert_eq!(replies[2].as_bytes(), scratch2.as_bytes());
    // A bad edit that reaches the parked solver fails on the worker;
    // the command held behind it runs all the same.
    let (line3, text3) = inline(&bump(&new2, 0, -1.0));
    p.send(&line3, Some(text3.as_bytes())).unwrap();
    p.send_run_hash(Op::Solve, &hex(&new2), 3).unwrap();
    match p.recv().unwrap() {
        ClientReply::Err(ErrorCode::BadDelta, _) => {}
        other => panic!("expected BADDELTA, got {other:?}"),
    }
    let again = p.recv().unwrap().into_ok().unwrap();
    assert_eq!(again.as_bytes(), scratch2.as_bytes());
    let stats = c.stats().unwrap();
    assert_eq!(stat(&stats, "delta_solves_advanced"), 2, "{stats:?}");
    assert_eq!(stat(&stats, "lineage_entries"), 2, "{stats:?}");

    c.shutdown().unwrap();
    assert_eq!(handle.join().unwrap().errors, 1, "the one bad edit");
}

#[test]
fn named_inline_revisions_are_rebuilt_from_lineage() {
    let dir = std::env::temp_dir().join(format!(
        "mmlp-delta-rebuild-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store_cfg = || ServeConfig {
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let hex = |inst: &Instance| maxmin_lp::instance::hash::hash_hex(instance_hash(inst));
    // `SOLVE inline:` of a revision's own text is the reference reply;
    // where that would be a cache hit on the reply under test, so is a
    // from-scratch solve in this process.
    let scratch =
        |inst: &Instance| maxmin_lp::serve::engine::execute(Op::Solve, inst, 3, 1).unwrap();
    let solve_text = |c: &mut Client, inst: &Instance| {
        c.run_inline(Op::Solve, &textfmt::write_instance(inst), 3)
            .unwrap()
            .into_ok()
            .unwrap()
    };
    let solve_hash = |c: &mut Client, inst: &Instance| {
        c.run_hash(Op::Solve, &hex(inst), 3)
            .unwrap()
            .into_ok()
            .unwrap()
    };
    let store_entries = |c: &mut Client| stat(&c.stats().unwrap(), "store_entries");

    let (addr, handle) = spawn_server(store_cfg());
    let mut c = Client::connect(&addr).unwrap();
    let base = base_instance();
    let base_hex = c.put(&textfmt::write_instance(&base)).unwrap().unwrap();
    c.solve_delta_hash(&base_hex, 3).unwrap().into_ok().unwrap();
    let mut revisions = vec![base.clone()];
    for (i, factor) in [1.5, 0.5, 2.0, 0.8, 1.25, 0.6].into_iter().enumerate() {
        let delta = bump(revisions.last().unwrap(), i as u32, factor);
        c.solve_delta_inline(&delta.to_text(), 3)
            .unwrap()
            .into_ok()
            .unwrap();
        revisions.push(delta.apply(revisions.last().unwrap()).unwrap());
    }
    // The revisions live in the parked solver and the lineage graph,
    // not in the instance store.
    assert_eq!(store_entries(&mut c), 1, "only the PUT base");

    // Revision 2, long after the solver moved on: rebuilt from the
    // base and stored once.
    let rev2 = solve_hash(&mut c, &revisions[2]);
    assert_eq!(store_entries(&mut c), 2, "one entry per rebuilt revision");
    // A fork off revision 2 with no PUT_DELTA of it first, and one off
    // revision 1, which neither the store nor a parked solver holds.
    let mut forks = Vec::new();
    for (from, row) in [(2, 7), (1, 5)] {
        let fork = bump(&revisions[from], row, 3.0);
        let body = c
            .solve_delta_inline(&fork.to_text(), 3)
            .unwrap()
            .into_ok()
            .unwrap();
        forks.push((fork.apply(&revisions[from]).unwrap(), body));
    }
    // Revision 2 again is a store hit; the fork off revision 1 rebuilt
    // that revision and stored the fork's own, as PUT_DELTA does.
    solve_hash(&mut c, &revisions[2]);
    assert_eq!(store_entries(&mut c), 5, "{:?}", c.stats().unwrap());
    assert_eq!(rev2, scratch(&revisions[2]));
    assert_eq!(
        rev2.as_bytes(),
        solve_text(&mut c, &revisions[2]).as_bytes()
    );
    for (i, (forked, body)) in forks.iter().enumerate() {
        assert_eq!(
            body.as_bytes(),
            solve_text(&mut c, forked).as_bytes(),
            "fork {i}"
        );
    }
    c.shutdown().unwrap();
    assert_eq!(handle.join().unwrap().errors, 0);

    // A restart on the same store: the boot decodes only the chain's
    // root. Revision 3 was never stored, so it is rebuilt from lineage
    // records, starting at revision 2, whose instance record the
    // `SOLVE inline:` of its text persisted: the read-through stores
    // revision 2, and the rebuild revision 3.
    let (addr, handle) = spawn_server(store_cfg());
    let mut c = Client::connect(&addr).unwrap();
    let before = store_entries(&mut c);
    assert_eq!(before, 1, "the chain's root");
    let rev3 = solve_hash(&mut c, &revisions[3]);
    assert_eq!(store_entries(&mut c), before + 2);
    assert_eq!(rev3, scratch(&revisions[3]));
    assert_eq!(
        rev3.as_bytes(),
        solve_text(&mut c, &revisions[3]).as_bytes()
    );
    c.shutdown().unwrap();
    assert_eq!(handle.join().unwrap().errors, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_churn_between_inline_edits_loses_no_revision() {
    let base = base_instance();
    // What the instance store charges: the record's length.
    let len = maxmin_lp::store::codec::encode_instance(&base).len() as u64;
    let shards = maxmin_lp::serve::cache::SHARDS as u64;
    // About three instances per store shard, so other clients' PUTs
    // evict the chain's base while its solver waits for edits.
    let (addr, handle) = spawn_server(ServeConfig {
        store_bytes: 3 * len * shards,
        ..ServeConfig::default()
    });
    let hex = |inst: &Instance| maxmin_lp::instance::hash::hash_hex(instance_hash(inst));
    let scratch = |inst: &Instance, big_r: usize| {
        maxmin_lp::serve::engine::execute(Op::Solve, inst, big_r, 1).unwrap()
    };
    let mut churner = Client::connect(&addr).unwrap();
    let mut next_seed = 100;
    let mut churn = |n: u64| {
        let fam = maxmin_lp::gen::catalog();
        let fam = fam.iter().find(|f| f.name == "special-form").unwrap();
        for _ in 0..n {
            let other = textfmt::write_instance(&fam.instance(18, next_seed));
            churner.put(&other).unwrap().unwrap();
            next_seed += 1;
        }
    };

    let mut c = Client::connect(&addr).unwrap();
    let base_hex = c.put(&textfmt::write_instance(&base)).unwrap().unwrap();
    c.solve_delta_hash(&base_hex, 3).unwrap().into_ok().unwrap();
    churn(120);
    let mut revisions = vec![base.clone()];
    for (i, factor) in [1.5, 0.5, 2.0, 0.8, 1.25, 0.6].into_iter().enumerate() {
        let delta = bump(revisions.last().unwrap(), i as u32, factor);
        c.solve_delta_inline(&delta.to_text(), 3)
            .unwrap()
            .into_ok()
            .unwrap();
        revisions.push(delta.apply(revisions.last().unwrap()).unwrap());
        churn(40);
    }
    // Revision 2 by hash, at R 3 and under SOLVE_DELTA at R 2; a fork
    // off revision 4; and the base itself: each is served from the
    // chain's root, which the revision graph keeps.
    let rev2 = c
        .run_hash(Op::Solve, &hex(&revisions[2]), 3)
        .unwrap()
        .into_ok()
        .unwrap();
    assert_eq!(rev2, scratch(&revisions[2], 3));
    churn(40);
    let rev3 = c
        .solve_delta_hash(&hex(&revisions[3]), 2)
        .unwrap()
        .into_ok()
        .unwrap();
    assert_eq!(rev3, scratch(&revisions[3], 2));
    let fork = bump(&revisions[4], 9, 3.0);
    let body = c
        .solve_delta_inline(&fork.to_text(), 3)
        .unwrap()
        .into_ok()
        .unwrap();
    assert_eq!(body, scratch(&fork.apply(&revisions[4]).unwrap(), 3));
    let again = c
        .run_hash(Op::Solve, &base_hex, 2)
        .unwrap()
        .into_ok()
        .unwrap();
    assert_eq!(again, scratch(&base, 2));
    // A PUT_DELTA off revision 5 rebuilds its base on a worker; the
    // SOLVE pipelined behind it waits for the new revision.
    let put = bump(&revisions[5], 3, 0.9);
    let forked = put.apply(&revisions[5]).unwrap();
    let text = put.to_text();
    let mut p = PipelinedClient::connect(&addr).unwrap();
    p.send(&format!("PUT_DELTA {}", text.len()), Some(text.as_bytes()))
        .unwrap();
    p.send_run_hash(Op::Solve, &hex(&forked), 3).unwrap();
    p.flush().unwrap();
    let lineage = p.recv().unwrap().into_ok().unwrap();
    assert!(
        lineage.contains(&format!("new {}", hex(&forked))),
        "{lineage}"
    );
    let body = p.recv().unwrap().into_ok().unwrap();
    assert_eq!(body, scratch(&forked, 3));
    c.shutdown().unwrap();
    assert_eq!(handle.join().unwrap().errors, 0);
}
