//! The flat view arena against the centralized solver, on one
//! instance in one run:
//!
//! * **gather** — interned-id view gathering (`gather_views_flat`) at
//!   increasing horizons,
//! * **eval** — per-agent `t_u` by the replayed search `TreeBound::t`
//!   over the gathered arena (`ArenaTree`, memoised per interned
//!   subtree) against the same search over the special form, over
//!   every agent,
//! * **distributed-solve** — the end-to-end flat `solve_special_flat`
//!   against the centralized `smoothing::solve_special`.
//!
//! These medians land in `BENCH_core.json`; the trajectory gate bounds
//! the flat path by a multiple of the centralized reference measured in
//! the same run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmlp_core::distributed::{solve_special_flat, ArenaTree};
use mmlp_core::smoothing::solve_special;
use mmlp_core::tree_bound::{Scratch, TreeBound};
use mmlp_core::SpecialForm;
use mmlp_gen::special::{random_special_form, SpecialFormConfig};
use mmlp_net::{gather_views_flat, Network};

fn workload(n_objectives: usize) -> SpecialForm {
    SpecialForm::new(random_special_form(
        &SpecialFormConfig {
            n_objectives,
            extra_constraints: n_objectives / 2,
            ..SpecialFormConfig::default()
        },
        2,
    ))
    .unwrap()
}

fn bench_gather(c: &mut Criterion) {
    let sf = workload(120);
    let net = Network::new(sf.instance());
    let mut group = c.benchmark_group("view-gather");
    group.sample_size(10);
    for depth in [2usize, 6, 10] {
        group.bench_with_input(BenchmarkId::new("flat", depth), &depth, |b, &d| {
            b.iter(|| std::hint::black_box(gather_views_flat(&net, d)))
        });
    }
    group.finish();
}

fn bench_eval(c: &mut Criterion) {
    let sf = workload(120);
    let net = Network::new(sf.instance());
    let mut group = c.benchmark_group("view-eval-t");
    group.sample_size(10);
    for big_r in [3usize, 4] {
        let depth = 4 * (big_r - 2) + 2;
        let flat = gather_views_flat(&net, depth);
        let tb = TreeBound::new(&sf, big_r);
        let n = sf.n_agents();
        group.bench_with_input(BenchmarkId::new("central", big_r), &big_r, |b, _| {
            let mut sc = Scratch::default();
            b.iter(|| {
                for v in sf.instance().agents() {
                    std::hint::black_box(tb.t(v, &mut sc));
                }
            })
        });
        let tree = ArenaTree::new(&flat.arena);
        let tb = TreeBound::new(&tree, big_r);
        group.bench_with_input(BenchmarkId::new("memoized", big_r), &big_r, |b, _| {
            let mut sc = Scratch::default();
            b.iter(|| {
                for &root in &flat.roots[..n] {
                    std::hint::black_box(tb.t(root, &mut sc));
                }
            })
        });
    }
    group.finish();
}

fn bench_solve(c: &mut Criterion) {
    let sf = workload(120);
    let mut group = c.benchmark_group("distributed-solve");
    group.sample_size(10);
    for big_r in [3usize, 4] {
        group.bench_with_input(BenchmarkId::new("central", big_r), &big_r, |b, &r| {
            b.iter(|| std::hint::black_box(solve_special(&sf, r, 1)))
        });
        group.bench_with_input(BenchmarkId::new("flat", big_r), &big_r, |b, &r| {
            b.iter(|| std::hint::black_box(solve_special_flat(&sf, r)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gather, bench_eval, bench_solve);
criterion_main!(benches);
