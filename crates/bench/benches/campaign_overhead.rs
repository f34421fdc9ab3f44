//! Campaign-scheduler overhead: throughput of the `mmlp-lab` worker
//! pool on empty jobs, so a scheduling regression (lock contention, a
//! thread per job) is visible in the criterion suite even though real
//! jobs dwarf it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mmlp_lab::pool::{run_pool, Outcome, PoolConfig};
use std::time::Duration;

fn bench_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign_scheduler");
    group.sample_size(10);

    // No timeout: the pool's own cost (queue, channel, sink).
    for &jobs in &[256usize, 2048] {
        group.throughput(Throughput::Elements(jobs as u64));
        group.bench_with_input(
            BenchmarkId::new("empty_jobs_inline", jobs),
            &jobs,
            |b, &jobs| {
                let cfg = PoolConfig {
                    workers: 4,
                    timeout: None,
                };
                b.iter(|| {
                    let mut done = 0usize;
                    run_pool(
                        vec![0u64; jobs],
                        &cfg,
                        |x| x,
                        |_, o| {
                            if matches!(o, Outcome::Done(_)) {
                                done += 1;
                            }
                        },
                    );
                    std::hint::black_box(done)
                });
            },
        );
    }

    // With a timeout: the same inline runs plus a deadline per job,
    // enforced by the pool's one watchdog thread, not by a thread per
    // job — the price of per-job timeouts.
    group.throughput(Throughput::Elements(256));
    group.bench_function("empty_jobs_isolated/256", |b| {
        let cfg = PoolConfig {
            workers: 4,
            timeout: Some(Duration::from_secs(10)),
        };
        b.iter(|| {
            let mut done = 0usize;
            run_pool(
                vec![0u64; 256],
                &cfg,
                |x| x,
                |_, o| {
                    if matches!(o, Outcome::Done(_)) {
                        done += 1;
                    }
                },
            );
            std::hint::black_box(done)
        });
    });

    group.finish();
}

criterion_group!(benches, bench_scheduler);
criterion_main!(benches);
