//! The serve request path, cold vs. warm: how much does the
//! content-addressed result cache actually buy per request?
//!
//! "Cold" is the pure compute the server runs on a pool worker
//! (`engine::execute`); "warm" is the full cached path the connection
//! thread takes on a hit (key build, LRU probe under the mutex, Arc
//! clone). The gap between the two is the amortisation the service
//! exists for; a regression in "warm" (e.g. an accidental O(n) scan in
//! the LRU) shows up here long before it shows up in p99.
//!
//! "hash_miss" (64 agents only) is a `SOLVE hash:` that misses the
//! result cache: `Engine::fetch` of a stored instance, which decodes its
//! codec record, then the same `execute`. `trajectory_gate` holds it to
//! 1.25× "cold", measured in the same run, so an instance store whose
//! entries cost a re-parse (or worse) to use fails.
//!
//! "Central" is the bare centralized solve of the same instance
//! (`LocalSolver::solve`, no body rendering): the same-run reference
//! `trajectory_gate` holds "cold" to, so a slower solver path on the
//! serve side fails on any host.
//!
//! "parse", "hash" and "special_form" are three layers of a cold
//! `SOLVE inline:` for every catalog family at 64 agents: the text
//! parse of the instance, its content hash (`instance_hash`, hash v2
//! over the parsed structure) and the §4 transform of the parsed
//! instance (`to_special_form`). `trajectory_gate` holds the hash to
//! 0.1× the parse and the §4 transform to 1.5× the parse, measured in
//! the same run.
//!
//! "pool_round_trip" is the hand-off of every pooled request: one empty
//! task through `TaskPool::submit_with` to its completion callback and
//! back to the submitter, on 4 workers, with serve's default 30 s
//! timeout and with none. `trajectory_gate` holds the first to 1.5× the
//! second, measured in the same run, so a thread per task cannot come
//! back unnoticed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmlp_core::transform::to_special_form;
use mmlp_core::LocalSolver;
use mmlp_gen::catalog;
use mmlp_instance::hash::instance_hash;
use mmlp_instance::textfmt;
use mmlp_lab::pool::{TaskPool, TaskPoolConfig};
use mmlp_serve::engine::{execute, CacheKey, Engine};
use mmlp_serve::protocol::Op;
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn bench_serve_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_cache");
    group.sample_size(10);

    let fams = catalog();
    let fam = fams.iter().find(|f| f.name == "bandwidth").unwrap();

    for &size in &[16usize, 64] {
        let inst = fam.instance(size, 1);
        let hash = instance_hash(&inst);

        group.bench_with_input(BenchmarkId::new("cold_solve", size), &size, |b, _| {
            b.iter(|| std::hint::black_box(execute(Op::Solve, &inst, 3, 1).unwrap()));
        });

        if size == 64 {
            group.bench_with_input(BenchmarkId::new("hash_miss", size), &size, |b, _| {
                let engine = Engine::new(64 << 20, 64 << 20);
                engine.put(&textfmt::write_instance(&inst)).unwrap();
                b.iter(|| {
                    let stored = engine.fetch(hash).unwrap();
                    std::hint::black_box(execute(Op::Solve, &stored, 3, 1).unwrap())
                });
            });
        }

        group.bench_with_input(BenchmarkId::new("central_solve", size), &size, |b, _| {
            b.iter(|| std::hint::black_box(LocalSolver::new(3).solve(&inst)));
        });

        group.bench_with_input(BenchmarkId::new("warm_hit", size), &size, |b, _| {
            let engine = Engine::new(64 << 20, 64 << 20);
            let key = CacheKey::new(hash, Op::Solve, 3, 1);
            engine.insert(key, Arc::new(execute(Op::Solve, &inst, 3, 1).unwrap()));
            b.iter(|| {
                let body = engine.cached(&key).expect("warm");
                std::hint::black_box(body.len())
            });
        });
    }

    for fam in &fams {
        let inst = fam.instance(64, 1);
        let text = textfmt::write_instance(&inst);
        let name = fam.name.replace('/', "-");
        group.bench_with_input(BenchmarkId::new("parse", &name), &text, |b, text| {
            b.iter(|| std::hint::black_box(textfmt::parse_instance(text).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("hash", &name), &inst, |b, inst| {
            b.iter(|| instance_hash(std::hint::black_box(inst)))
        });
        group.bench_with_input(BenchmarkId::new("special_form", &name), &inst, |b, inst| {
            b.iter(|| std::hint::black_box(to_special_form(inst)))
        });
    }

    group.sample_size(15);
    for (name, timeout) in [
        ("no_timeout", None),
        ("timeout", Some(Duration::from_secs(30))),
    ] {
        let pool = TaskPool::new(TaskPoolConfig {
            workers: 4,
            queue_cap: 256,
            timeout,
        });
        let (tx, rx) = mpsc::channel();
        group.bench_function(BenchmarkId::new("pool_round_trip", name), |b| {
            b.iter(|| {
                let tx = tx.clone();
                pool.submit_with(
                    || (),
                    move |_| {
                        let _ = tx.send(());
                    },
                )
                .unwrap();
                rx.recv().unwrap()
            });
        });
        pool.shutdown();
    }

    group.finish();
}

criterion_group!(benches, bench_serve_cache);
criterion_main!(benches);
