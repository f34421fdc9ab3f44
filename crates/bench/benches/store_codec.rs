//! `store_codec`: the persistence layer's two hot paths.
//!
//! * **Codec** — binary instance decode vs. `textfmt::parse_instance`
//!   on small/medium/large catalog instances (plus encode, for the
//!   write path). The acceptance bar for the binary format is decode
//!   ≥ 5× faster than text parse on the large instance; both paths
//!   share the `InstanceBuilder` finalisation cost, so the delta is
//!   pure deserialisation.
//! * **Store open** — index rebuild time vs. record count
//!   (`store_open/open/n`), and a server's whole boot over the same
//!   store (`store_open/warm_start/n`: `Engine::open_store`, the store
//!   open plus the warm start in one scan). Each store holds n instance
//!   records and n result bodies. `trajectory_gate` rule 13 holds the
//!   boot to 2 × the open, measured in the same run: result bodies load
//!   from the open scan's bytes, and no instance record is decoded.
//!
//! Run with `MMLP_BENCH_JSON=BENCH_store.json cargo bench --bench
//! store_codec` to refresh the perf-trajectory file.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mmlp_gen::catalog;
use mmlp_instance::textfmt;
use mmlp_serve::engine::{execute, Engine};
use mmlp_serve::protocol::Op;
use mmlp_serve::server::ServeConfig;
use mmlp_serve::stats::StoreMetrics;
use mmlp_store::codec;
use mmlp_store::{ResultKey, Store, StoreConfig};

fn family(name: &str) -> mmlp_gen::Family {
    catalog()
        .into_iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("family {name}"))
}

/// (label, generator size): "large" is ~4k agents / ~19k nonzeros of
/// random-3x3 — the sensor-network scale the paper motivates.
const SIZES: [(&str, usize); 3] = [("small", 64), ("medium", 512), ("large", 4096)];

fn bench_codec(c: &mut Criterion) {
    let fam = family("random-3x3");
    let mut group = c.benchmark_group("store_codec");
    for (label, size) in SIZES {
        let inst = fam.instance(size, 7);
        let text = textfmt::write_instance(&inst);
        let blob = codec::encode_instance(&inst);
        group.throughput(Throughput::Bytes(text.len() as u64));
        group.bench_function(BenchmarkId::new("parse_text", label), |b| {
            b.iter(|| textfmt::parse_instance(black_box(&text)).expect("parses"))
        });
        group.throughput(Throughput::Bytes(blob.len() as u64));
        group.bench_function(BenchmarkId::new("decode_binary", label), |b| {
            b.iter(|| codec::decode_instance(black_box(&blob)).expect("decodes"))
        });
        group.bench_function(BenchmarkId::new("encode_binary", label), |b| {
            b.iter(|| codec::encode_instance(black_box(&inst)))
        });
    }
    group.finish();
}

fn bench_store_open(c: &mut Criterion) {
    let fam = family("random-3x3");
    let mut group = c.benchmark_group("store_open");
    // Rule 13 compares two of these medians: 30 samples steady them.
    group.sample_size(30);
    for records in [64usize, 256, 1024] {
        let dir = std::env::temp_dir().join(format!(
            "mmlp-bench-store-open-{records}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (store, _) =
                Store::open_with(&dir, StoreConfig { fsync: false }).expect("build store");
            for seed in 0..records as u64 {
                let inst = fam.instance(16, seed);
                let key = ResultKey {
                    instance: store.put_instance(&inst).expect("put instance"),
                    op: Op::Solve.code(),
                    big_r: 2,
                    threads: 1,
                };
                let body = execute(Op::Solve, &inst, 2, 1).expect("solve");
                store.put_result(key, &body).expect("put result");
            }
        }
        group.throughput(Throughput::Elements(records as u64));
        group.bench_function(BenchmarkId::new("open", records), |b| {
            b.iter(|| {
                let (store, report) = Store::open(black_box(&dir)).expect("open store");
                assert_eq!((report.instances, report.results), (records, records));
                store
            })
        });
        let cfg = ServeConfig::default();
        group.bench_function(BenchmarkId::new("warm_start", records), |b| {
            b.iter(|| {
                let (engine, _) = Engine::open_store(
                    cfg.cache_bytes,
                    cfg.store_bytes,
                    black_box(&dir),
                    StoreMetrics::detached(),
                )
                .expect("warm start");
                assert_eq!(engine.warm_start().results, records as u64);
                engine
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

criterion_group!(benches, bench_codec, bench_store_open);
criterion_main!(benches);
