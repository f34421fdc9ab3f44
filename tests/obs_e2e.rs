//! End-to-end tests of the observability layer (`mmlp-obs`):
//!
//! * the `METRICS` wire op returns well-formed Prometheus text whose
//!   counters are monotone across requests,
//! * a traced cold solve's span tree lands in the shutdown summary,
//!   the decode of its stored record and its three solver phases
//!   nested inside `execute` inside the total; an inline solve decodes
//!   nothing,
//! * the overhead guard: the traced flat and centralized solvers are
//!   **bit-identical** to the untraced ones across the whole generator
//!   catalogue (tracing may cost nanoseconds, never ULPs).

use maxmin_lp::core::distributed::{solve_special_flat, solve_special_flat_traced};
use maxmin_lp::core::smoothing::{solve_special, solve_special_traced};
use maxmin_lp::core::transform::to_special_form;
use maxmin_lp::core::tree_bound::{Scratch, TreeBound};
use maxmin_lp::core::SpecialForm;
use maxmin_lp::gen::catalog;
use maxmin_lp::instance::textfmt;
use maxmin_lp::serve::client::Client;
use maxmin_lp::serve::protocol::Op;
use maxmin_lp::serve::server::{ServeConfig, Server, ServerSummary};
use std::collections::BTreeMap;

fn spawn_server() -> (String, std::thread::JoinHandle<ServerSummary>) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn instance_text() -> String {
    let fams = catalog();
    let fam = fams.iter().find(|f| f.name == "bandwidth").unwrap();
    textfmt::write_instance(&fam.instance(20, 3))
}

/// Minimal Prometheus text-format parser/validator. Returns the sample
/// map `name{labels} -> value` and panics on any line that is neither a
/// `# HELP`/`# TYPE` comment nor a well-formed sample.
fn parse_prometheus(body: &str) -> BTreeMap<String, f64> {
    let mut samples = BTreeMap::new();
    let mut helped: Vec<&str> = Vec::new();
    let mut typed: Vec<&str> = Vec::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let kind = parts.next().unwrap();
            let name = parts.next().unwrap_or_default();
            assert!(!name.is_empty(), "comment without a metric name: {line:?}");
            match kind {
                "HELP" => {
                    assert!(
                        parts.next().is_some_and(|h| !h.is_empty()),
                        "HELP without text: {line:?}"
                    );
                    helped.push(name);
                }
                "TYPE" => {
                    let t = parts.next().unwrap_or_default();
                    assert!(
                        matches!(t, "counter" | "gauge" | "histogram"),
                        "unknown TYPE {t:?} in {line:?}"
                    );
                    typed.push(name);
                }
                // Latency exemplar: the trace id of the largest
                // observation since the last scrape.
                "EXEMPLAR" => {
                    let rest = parts.next().unwrap_or_default();
                    assert!(
                        rest.contains("trace_id=\"") && rest.contains("value="),
                        "malformed EXEMPLAR: {line:?}"
                    );
                }
                other => panic!("unknown comment kind {other:?} in {line:?}"),
            }
            continue;
        }
        // Sample: `name{labels} value` or `name value`.
        let (key, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without a value: {line:?}");
        });
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric value in {line:?}"));
        let name = key.split('{').next().unwrap();
        let mut base = name;
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(stripped) = name.strip_suffix(suffix) {
                if typed.contains(&stripped) {
                    base = stripped;
                }
            }
        }
        assert!(
            !base.is_empty()
                && base
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
                && !base.starts_with(|c: char| c.is_ascii_digit()),
            "invalid metric name in {line:?}"
        );
        assert!(
            helped.contains(&base) && typed.contains(&base),
            "sample {key:?} missing HELP/TYPE for {base:?}"
        );
        let prev = samples.insert(key.to_string(), value);
        assert!(prev.is_none(), "duplicate sample {key:?}");
    }
    samples
}

#[test]
fn metrics_op_is_valid_prometheus_and_monotone_across_requests() {
    let (addr, handle) = spawn_server();
    let mut c = Client::connect(&addr).unwrap();

    let before = parse_prometheus(&c.metrics().unwrap());
    assert!(
        before.contains_key("mmlp_serve_requests_total"),
        "request counter missing: {:?}",
        before.keys().take(8).collect::<Vec<_>>()
    );

    let text = instance_text();
    let hash = c.put(&text).unwrap().unwrap();
    // Traced explicitly: the sampler only traces every 64th request.
    let cold_id = 0x0b5e_0000_0000_0001;
    c.trace_next(cold_id);
    let cold = c.run_hash(Op::Solve, &hash, 3).unwrap().into_ok().unwrap();
    let warm = c.run_hash(Op::Solve, &hash, 3).unwrap().into_ok().unwrap();
    assert_eq!(cold.as_bytes(), warm.as_bytes());

    let after = parse_prometheus(&c.metrics().unwrap());

    // Every counter-ish sample present in the first scrape must be
    // monotone non-decreasing in the second.
    for (key, &v0) in &before {
        let counterish = key.split('{').next().unwrap().ends_with("_total")
            || key.contains("_bucket{")
            || key.split('{').next().unwrap().ends_with("_count")
            || key.split('{').next().unwrap().ends_with("_sum");
        if !counterish {
            continue;
        }
        let v1 = *after
            .get(key)
            .unwrap_or_else(|| panic!("{key:?} disappeared between scrapes"));
        assert!(v1 >= v0, "{key:?} went backwards: {v0} -> {v1}");
    }

    // The required coverage: request latency histogram, per-op cache
    // hit/miss, and the cold solve's §5 phase timings.
    assert!(after["mmlp_serve_requests_total"] >= 5.0, "{after:?}");
    assert!(after["mmlp_serve_request_latency_us_count"] >= 4.0);
    assert!(after["mmlp_serve_queue_wait_us_count"] >= 1.0);
    assert!(after["mmlp_serve_execute_us_count"] >= 1.0);
    assert_eq!(after["mmlp_serve_cache_misses_total{op=\"solve\"}"], 1.0);
    // The miss decoded the stored record once; the hit decoded nothing.
    assert_eq!(after["mmlp_serve_instance_decodes_total"], 1.0);
    assert_eq!(after["mmlp_serve_instance_decode_us_count"], 1.0);
    assert!(after["mmlp_serve_cache_hits_total{op=\"solve\"}"] >= 1.0);
    let phase = |p: &str| after[&format!("mmlp_solver_phase_ns_total{{phase=\"{p}\"}}")];
    let phase_sum: f64 = ["t_eval", "flood", "g"].iter().map(|p| phase(p)).sum();
    assert!(phase("t_eval") > 0.0, "solver phase timings missing");
    assert!(phase_sum > 0.0, "solver phase timings missing");
    // Serve solves on the centralized path: the flat network path's
    // gather phase, memo and view-arena series are not exported.
    for key in after.keys() {
        assert!(
            !key.contains("phase=\"gather\"")
                && !key.starts_with("mmlp_solver_flat_solves_total")
                && !key.starts_with("mmlp_solver_view_")
                && !key.starts_with("mmlp_solver_memo_lookups_total"),
            "flat-path series {key:?} is exported"
        );
    }
    assert!(after["mmlp_serve_uptime_ms"] >= before["mmlp_serve_uptime_ms"]);

    c.shutdown().unwrap();
    let summary = handle.join().unwrap();
    // The cold solve's span tree is in the summary. The decode of its
    // stored record and its phases are disjoint intervals inside
    // `execute`, which lies inside the request, so the sums nest.
    let tree = summary
        .slowest
        .iter()
        .find(|t| t.trace_id == cold_id)
        .unwrap_or_else(|| panic!("cold solve's tree missing: {:?}", summary.slowest));
    assert!(tree.label.starts_with("SOLVE "), "{:?}", tree.label);
    let exec = tree.spans.iter().find(|s| s.name == "execute").unwrap();
    let phases: Vec<_> = tree.spans.iter().filter(|s| s.parent == exec.id).collect();
    let names: Vec<&str> = phases.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["decode", "t_eval", "flood", "g"]);
    let phase_sum: u64 = phases.iter().map(|s| s.dur_ns).sum();
    assert!(
        phase_sum <= exec.dur_ns,
        "phase sum {phase_sum} exceeds execute {}",
        exec.dur_ns
    );
    assert!(
        exec.dur_ns <= tree.total_ns,
        "execute {} exceeds the request total {}",
        exec.dur_ns,
        tree.total_ns
    );
}

#[test]
fn an_inline_solve_hands_its_parsed_instance_to_the_worker() {
    let (addr, handle) = spawn_server();
    let mut c = Client::connect(&addr).unwrap();
    let text = instance_text();
    let cold_id = 0x0b5e_0000_0000_0002;
    c.trace_next(cold_id);
    let inline = c
        .run_inline(Op::Solve, &text, 3)
        .unwrap()
        .into_ok()
        .unwrap();
    let decodes = |c: &mut Client| {
        parse_prometheus(&c.metrics().unwrap())["mmlp_serve_instance_decodes_total"]
    };
    assert_eq!(
        decodes(&mut c),
        0.0,
        "the inline solve decoded its own upload"
    );
    // The upload was stored: a solve of it by hash at another `R`
    // decodes its record, and equals the inline solve at that `R`.
    let hash = c.put(&text).unwrap().unwrap();
    let by_hash = c.run_hash(Op::Solve, &hash, 2).unwrap().into_ok().unwrap();
    assert_eq!(decodes(&mut c), 1.0);
    let inline_r2 = c
        .run_inline(Op::Solve, &text, 2)
        .unwrap()
        .into_ok()
        .unwrap();
    assert_eq!(by_hash, inline_r2);
    assert_ne!(inline, inline_r2);
    c.shutdown().unwrap();
    let summary = handle.join().unwrap();
    let tree = summary
        .slowest
        .iter()
        .find(|t| t.trace_id == cold_id)
        .unwrap_or_else(|| panic!("inline solve's tree missing: {:?}", summary.slowest));
    assert!(
        tree.spans.iter().all(|s| s.name != "decode"),
        "{:?}",
        tree.spans
    );
}

/// The overhead contract's correctness half: turning tracing on must
/// not change a single output bit — catalogue-wide. (The ≤3%
/// wall-clock half lives in `benches/obs_overhead.rs` and is gated by
/// `trajectory_gate` on `BENCH_core.json`.)
#[test]
fn traced_flat_solve_is_bit_identical_to_untraced_catalog_wide() {
    for fam in catalog() {
        let inst = fam.instance(16, 7);
        let transformed = to_special_form(&inst);
        let sf = SpecialForm::new(transformed.instance.clone()).unwrap();
        let (plain, plain_stats) = solve_special_flat(&sf, 3);
        let (traced, traced_stats, trace) = solve_special_flat_traced(&sf, 3, 1);
        let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(plain.x.as_slice()),
            bits(traced.x.as_slice()),
            "{}: x diverged under tracing",
            fam.name
        );
        assert_eq!(bits(&plain.t), bits(&traced.t), "{}: t", fam.name);
        assert_eq!(bits(&plain.s), bits(&traced.s), "{}: s", fam.name);
        assert_eq!(plain_stats, traced_stats, "{}: accounting", fam.name);
        // And the trace itself is coherent: real wall times whose
        // per-phase sum stays inside the whole-solve span.
        assert!(trace.total_ns > 0, "{}", fam.name);
        let phases = trace.gather_ns + trace.t_eval_ns + trace.flood_ns + trace.g_ns;
        assert!(phases > 0 && phases <= trace.total_ns, "{}", fam.name);
        // The `t` batch made exactly the centralized replay's probes.
        let tb = TreeBound::new(&sf, 3);
        let mut sc = Scratch::default();
        for u in sf.instance().agents() {
            tb.t(u, &mut sc);
        }
        assert_eq!(trace.t_probes, sc.probes(), "{}: t probes", fam.name);

        // The centralized entry point serve runs, under the same
        // contract.
        let plain = solve_special(&sf, 3, 1);
        let (traced, trace) = solve_special_traced(&sf, 3);
        assert_eq!(
            bits(plain.x.as_slice()),
            bits(traced.x.as_slice()),
            "{}: centralized x diverged under tracing",
            fam.name
        );
        assert_eq!(bits(&plain.t), bits(&traced.t), "{}: central t", fam.name);
        assert_eq!(bits(&plain.s), bits(&traced.s), "{}: central s", fam.name);
        let phases = trace.t_eval_ns + trace.flood_ns + trace.g_ns;
        assert!(trace.t_eval_ns > 0, "{}", fam.name);
        assert!(phases <= trace.total_ns, "{}", fam.name);
    }
}
