//! Per-agent tree bound `t_u`: cost vs the locality parameter R
//! (the tree `A_u` — and so the per-node work — grows with R), and the
//! replayed search ([`TreeBound::t`]) against the plain bisection it
//! reproduces bit for bit ([`TreeBound::t_bisect`]) over every agent,
//! measured in the same run. `trajectory_gate` requires
//! `t_u-all-agents/replay/3 ≤ 0.5 × t_u-all-agents/bisect/3`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmlp_core::tree_bound::{Scratch, TreeBound};
use mmlp_core::SpecialForm;
use mmlp_gen::special::{random_special_form, SpecialFormConfig};
use mmlp_instance::AgentId;

fn bench_tree_bound(c: &mut Criterion) {
    let sf = SpecialForm::new(random_special_form(
        &SpecialFormConfig {
            n_objectives: 200,
            extra_constraints: 120,
            ..SpecialFormConfig::default()
        },
        7,
    ))
    .unwrap();
    let mut group = c.benchmark_group("t_u-single-agent");
    group.sample_size(20);
    for big_r in [2, 3, 4, 5] {
        let tb = TreeBound::new(&sf, big_r);
        group.bench_with_input(BenchmarkId::from_parameter(big_r), &big_r, |b, _| {
            let mut sc = Scratch::default();
            b.iter(|| std::hint::black_box(tb.t(AgentId::new(17), &mut sc)));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("t_u-all-agents");
    group.sample_size(10);
    for big_r in [2, 3, 4] {
        let tb = TreeBound::new(&sf, big_r);
        let agents = || sf.instance().agents();
        group.bench_with_input(BenchmarkId::new("bisect", big_r), &big_r, |b, _| {
            let mut sc = Scratch::default();
            b.iter(|| {
                agents()
                    .map(|u| tb.t_bisect(u, &mut sc))
                    .fold(0.0, f64::max)
            });
        });
        group.bench_with_input(BenchmarkId::new("replay", big_r), &big_r, |b, _| {
            let mut sc = Scratch::default();
            b.iter(|| agents().map(|u| tb.t(u, &mut sc)).fold(0.0, f64::max));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tree_bound);
criterion_main!(benches);
