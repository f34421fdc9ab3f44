//! Observability overhead: the traced flat solve against the untraced
//! one, on the same workload as the `distributed-solve` suite.
//!
//! The traced path takes four monotonic timestamps per solve and
//! copies the `t` batch's probe count; the overhead contract
//! (`specs/OBSERVABILITY.md`) says that costs ≤ 3% end to end, and the
//! `trajectory_gate` enforces both `obs-overhead/traced/R` and
//! `obs-overhead/journaled/R` ≤ 1.03 × `obs-overhead/plain/R` over
//! `BENCH_core.json`. The journaled variant does everything the server
//! does per traced request on top of the solve itself: build the span
//! tree from the phase timings, serialise it, and hand it to the
//! journal drainer. Outputs are bit-identical either way (asserted
//! catalog-wide in `tests/obs_e2e.rs`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmlp_core::distributed::{solve_special_flat, solve_special_flat_traced};
use mmlp_core::SpecialForm;
use mmlp_gen::special::{random_special_form, SpecialFormConfig};
use mmlp_obs::journal::EV_SPAN;
use mmlp_obs::span::ROOT_SPAN;
use mmlp_obs::{Journal, JournalConfig, JournalRecord, SpanRecorder};

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

fn bench_overhead(c: &mut Criterion) {
    let sf = workload(120);
    let mut group = c.benchmark_group("obs-overhead");
    // The contract gated over these entries is tight (≤ 3%), so this
    // suite samples harder than the other groups to keep the noise
    // band well under the margin it certifies.
    group.sample_size(40);
    for big_r in [3usize, 4] {
        group.bench_with_input(BenchmarkId::new("plain", big_r), &big_r, |b, &r| {
            b.iter(|| std::hint::black_box(solve_special_flat(&sf, r)))
        });
        group.bench_with_input(BenchmarkId::new("traced", big_r), &big_r, |b, &r| {
            b.iter(|| std::hint::black_box(solve_special_flat_traced(&sf, r, 1)))
        });
    }

    let dir = std::env::temp_dir().join(format!("mmlp-bench-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (journal, _) = Journal::open(JournalConfig::new(&dir)).expect("open bench journal");
    let mut trace_id: u64 = 0x0b5e_0b5e_0000_0000;
    for big_r in [3usize, 4] {
        group.bench_with_input(BenchmarkId::new("journaled", big_r), &big_r, |b, &r| {
            b.iter(|| {
                let out = solve_special_flat_traced(&sf, r, 1);
                trace_id += 1;
                let rec = SpanRecorder::new(trace_id, "bench SOLVE");
                let exec = rec.open(ROOT_SPAN, "execute");
                for (name, ns) in out.2.phase_spans() {
                    rec.add_ns(exec, name, 0, ns);
                }
                rec.close(exec);
                journal.emit(JournalRecord {
                    kind: EV_SPAN,
                    trace_id,
                    text: rec.finish().to_text(),
                });
                std::hint::black_box(out)
            })
        });
    }
    group.finish();
    journal.flush();
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
