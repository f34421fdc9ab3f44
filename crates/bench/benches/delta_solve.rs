//! The §1.3 dynamic corollary as a measurement: a single-coefficient
//! edit must cost the dirty ball, not the instance.
//!
//! For each `(R, size)` the bench pairs an incremental repair
//! (`edit-rR/size` — [`DynamicSolver::update_constraint_coefs`]
//! toggling one constraint coefficient, memo tables warm, the revision
//! hash updated by the edited row's term) with a from-scratch solve of
//! the same special form (`scratch-rR/size`). `request-r2/size`
//! measures the whole `SOLVE_DELTA inline:` request the server runs
//! for such an edit against a parked solver
//! ([`Engine::solve_delta_inline`]: parse, repair, revision hash, body
//! render, lineage edge and cache insert), with a fresh revision every
//! iteration so nothing is a cache hit, timed once the engine's byte
//! budgets are full — the state a long-running server is in.
//! `warm-r2/size` is [`Engine::solve_delta`] of the revision a solver
//! is parked at: the reply body rendered from its state, which every
//! request renders too. The claims, gated by `trajectory_gate` on the
//! committed `BENCH_delta.json`:
//!
//! - the repair beats starting over at every grid point;
//! - repair cost grows with the edit ball (R) and stays near-flat in
//!   the instance size, while the from-scratch cost grows with it;
//! - from 256 agents up, the whole request costs at most its repair
//!   plus ten body renders (`request-r2 ≤ edit-r2 + 10 × warm-r2`):
//!   what a request does beyond the repair is O(n) copying and
//!   formatting of its reply plus fixed bookkeeping, and no other
//!   O(n) pass.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use mmlp_core::dynamic::DynamicSolver;
use mmlp_core::smoothing::solve_special;
use mmlp_core::SpecialForm;
use mmlp_gen::catalog;
use mmlp_instance::hash::hash_hex;
use mmlp_instance::{textfmt, ConstraintId};
use mmlp_serve::engine::Engine;

/// `scratch-rR/size` and `edit-rR/size` on one special form.
fn bench_scratch_and_edit(group: &mut BenchmarkGroup, sf: &SpecialForm, big_r: usize, size: usize) {
    group.bench_with_input(
        BenchmarkId::new(format!("scratch-r{big_r}"), size),
        &size,
        |b, _| {
            b.iter(|| std::hint::black_box(solve_special(sf, big_r, 1).x.as_slice()[0]));
        },
    );

    group.bench_with_input(
        BenchmarkId::new(format!("edit-r{big_r}"), size),
        &size,
        |b, _| {
            let mut dynamic = DynamicSolver::new(sf.clone(), big_r, 1);
            let i = ConstraintId::new(0);
            let row = dynamic.special_form().instance().constraint_row(i);
            let coefs = [row[0].coef, row[1].coef];
            let mut flip = false;
            b.iter(|| {
                // Alternate the coefficient so every iteration
                // is a real change with a non-empty dirty ball.
                flip = !flip;
                let scale = if flip { 1.5 } else { 1.0 };
                let rep = dynamic.update_constraint_coefs(i, [coefs[0] * scale, coefs[1]]);
                std::hint::black_box(rep.recomputed_x)
            });
        },
    );
}

fn bench_delta_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("delta-solve");
    group.sample_size(10);

    let fams = catalog();
    let fam = fams.iter().find(|f| f.name == "special-form").unwrap();

    for &big_r in &[2usize, 3] {
        for &size in &[64usize, 256] {
            let sf = SpecialForm::new(fam.instance(size, 1)).expect("special form");
            bench_scratch_and_edit(&mut group, &sf, big_r, size);
        }
    }

    // The request next to its repair kernel and its body render, up
    // to delta-edit's ~1000-agent bases, plus the from-scratch solve
    // at that size.
    let big_r = 2;
    for &size in &[64usize, 256, 1024] {
        let inst = fam.instance(size, 1);
        if size == 1024 {
            let sf = SpecialForm::new(inst.clone()).expect("special form");
            bench_scratch_and_edit(&mut group, &sf, big_r, size);
        }
        group.bench_with_input(
            BenchmarkId::new(format!("warm-r{big_r}"), size),
            &size,
            |b, _| {
                let engine = Engine::new(64 << 20, 64 << 20);
                let revision = engine.put(&textfmt::write_instance(&inst)).unwrap();
                engine.solve_delta(revision, big_r, 1).unwrap();
                b.iter(|| engine.solve_delta(revision, big_r, 1).unwrap().0.len());
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("request-r{big_r}"), size),
            &size,
            |b, _| {
                // The server's default budgets; one solver parked at the
                // base, as after a `SOLVE_DELTA hash:` of it.
                let engine = Engine::new(64 << 20, 64 << 20);
                let mut revision = engine.put(&textfmt::write_instance(&inst)).unwrap();
                engine.solve_delta(revision, big_r, 1).unwrap();
                let entry = inst.constraint_row(ConstraintId::new(0))[0];
                let mut k = 0u64;
                let mut request = || {
                    // A coefficient no earlier request used: every
                    // request lands on a new revision.
                    k += 1;
                    let coef = entry.coef * (1.0 + k as f64 * 1e-9);
                    let text = format!(
                        "mmlpdelta 1\nbase {}\nset c 0 {}:{coef}\n",
                        hash_hex(revision),
                        entry.agent.raw()
                    );
                    let (new, body) = engine.solve_delta_inline(&text, big_r).unwrap();
                    revision = new;
                    body.len()
                };
                // Time the steady state a sustained edit stream keeps a
                // server in: the result cache full and evicting, so each
                // cached body reuses memory an eviction freed. Until then
                // every request faults in fresh heap pages, a one-off
                // cost of filling the budget. The instance store does not
                // fill: a revision's instance stays in the parked solver,
                // and the request records only its lineage edge.
                while engine.cache_stats().2 == 0 {
                    request();
                }
                b.iter(|| std::hint::black_box(request()));
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_delta_solve);
criterion_main!(benches);
