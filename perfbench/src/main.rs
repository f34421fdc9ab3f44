//! `perfbench` — the end-to-end and per-layer benchmark of the
//! `maxmin-lp` solver service.
//!
//! ```text
//! perfbench --server <maxmin-lp binary> --workload <cold-solve|warm-hit|delta-edit>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run generates the workload's fixed request list from the seed,
//! boots the release server several times to time its set-up, replays
//! the list over one connection per core while checking every reply,
//! and prints a run record, every metric by name and unit, and as its
//! last line a JSON summary. `--trace 1` adds the per-layer run: the
//! server's `METRICS` across the timed phase plus an in-process replay
//! of the requests through each layer's public functions. See
//! `README.md` beside this file.

mod check;
mod drive;
mod procfs;
mod replay;
mod scrape;
mod server;
mod stats;
mod trace;
mod wire;
mod workload;

use scrape::Scrape;
use server::Server;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use wire::Conn;
use workload::{WarmInputs, Workload};

/// Server boots per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Cache hits each `warm-hit` set-up sends before the timed phase.
const WARMUP_HITS: usize = 16;
/// Bodies per run byte-compared with an in-process reference solve.
const REFERENCE_SAMPLE: usize = 16;
/// Requests the traced run replays in-process, per workload (per chain
/// for `delta-edit`).
fn replay_len(w: Workload) -> usize {
    match w {
        Workload::ColdSolve => 256,
        Workload::WarmHit => 4096,
        Workload::DeltaEdit => 128,
    }
}
/// Windows of equally many completions for the throughput median.
const RATE_WINDOWS: usize = 20;

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let (mut server, mut workload, mut seed, mut seconds, mut trace) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value)),
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds '{value}'"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// The generated inputs of one run.
enum Inputs {
    Cold(Vec<workload::Solve>),
    Warm(WarmInputs, PathBuf),
    Delta(Vec<workload::Chain>),
}

/// One metric line of the report.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let conns_n = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work = Path::new("perfbench").join(".work");
    let run_dir = work.join(format!("{}-{}-{}", w.name(), args.seed, std::process::id()));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("create {}: {e}", run_dir.display()))?;
    let result = measure(args, conns_n, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    let (record, metrics, spans) = result?;
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite: {}", m.name, m.value));
    }
    if let Some(tsv) = spans {
        let path = work.join(format!("spans-{}-{}.tsv", w.name(), args.seed));
        std::fs::write(&path, tsv).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("spans_file {}", path.display());
    }
    print!("{}", record.text);
    for m in &metrics {
        println!("metric {:<48} {:>16} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        json_line(record.correct, record.attempted, record.failed, &metrics)
    );
    Ok(record.correct)
}

/// The run record: diagnostics plus the correctness summary.
struct Record {
    text: String,
    correct: bool,
    attempted: u64,
    failed: u64,
}

type Measured = (Record, Vec<Metric>, Option<String>);

fn measure(args: &Args, conns_n: usize, run_dir: &Path) -> Result<Measured, String> {
    let w = args.workload;
    let n = w.requests(args.seconds);
    let t_gen = Instant::now();
    let inputs = match w {
        Workload::ColdSolve => Inputs::Cold(workload::cold(args.seed, n, conns_n)),
        Workload::WarmHit => {
            let dir = run_dir.join("store");
            Inputs::Warm(workload::warm(args.seed, n, conns_n, &dir)?, dir)
        }
        Workload::DeltaEdit => Inputs::Delta(workload::chains(
            args.seed,
            conns_n,
            n,
            REFERENCE_SAMPLE / conns_n.max(1),
        )),
    };
    let gen_s = t_gen.elapsed().as_secs_f64();

    // Set-up, timed SETUPS times; the last boot serves the timed phase.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut booted = None;
    for k in 0..SETUPS {
        let (server, conns, secs) = boot(&args.server, &inputs, conns_n)?;
        setups.push(secs);
        if k + 1 < SETUPS {
            drop(conns);
            server.shutdown().map_err(|e| e.to_string())?;
        } else {
            booted = Some((server, conns));
        }
    }
    let (server, mut conns) = booted.expect("SETUPS ≥ 1");
    let pid = server.pid();
    let mut control =
        Conn::connect(&server.addr).map_err(|e| format!("control connection: {e}"))?;
    let before = scrape_metrics(&mut control)?;

    let cpu0 = procfs::cpu_seconds(&pid).map_err(|e| e.to_string())?;
    let self0 = procfs::cpu_seconds("self").map_err(|e| e.to_string())?;
    let host0 = procfs::host_cpu().map_err(|e| e.to_string())?;
    let mut out = match &inputs {
        Inputs::Cold(c) => {
            let keep = workload::sample_indices(args.seed, c.len(), REFERENCE_SAMPLE);
            drive::cold(&mut conns, c, &keep)
        }
        Inputs::Warm(wi, _) => drive::warm(&mut conns, wi),
        Inputs::Delta(chains) => drive::delta(&mut conns, chains),
    };
    let cpu1 = procfs::cpu_seconds(&pid).map_err(|e| e.to_string())?;
    let self1 = procfs::cpu_seconds("self").map_err(|e| e.to_string())?;
    let host1 = procfs::host_cpu().map_err(|e| e.to_string())?;
    let rss_mb = procfs::peak_rss_mb(&pid).map_err(|e| e.to_string())?;
    let after = scrape_metrics(&mut control)?;
    let lineage_edges = control
        .call("STATS", None)
        .map_err(|e| format!("STATS: {e}"))?
        .map_err(|e| format!("STATS: {e}"))?
        .lines()
        .find_map(|l| {
            l.strip_prefix("lineage_entries ")?
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0);

    // Checks outside the timed phase.
    let mut reference_checked = 0;
    let mut reference_failures = Vec::new();
    let mut compare = |what: String, got: &str, want: Result<String, String>| {
        reference_checked += 1;
        match want {
            Ok(want) if want == got => {}
            Ok(_) => reference_failures.push(format!("{what}: body differs from the reference")),
            Err(e) => reference_failures.push(format!("{what}: reference failed: {e}")),
        }
    };
    match &inputs {
        Inputs::Cold(c) => {
            for (_, i, body) in &out.kept {
                let s = &c[*i];
                compare(
                    format!("request {i}"),
                    body,
                    reference_solve(&s.text, s.big_r),
                );
            }
        }
        Inputs::Warm(wi, _) => {
            for k in workload::sample_indices(args.seed, wi.keys.len(), REFERENCE_SAMPLE) {
                let s = &wi.keys[k].solve;
                let got = control
                    .call(&format!("SOLVE hash:{:016x} R={}", s.hash, s.big_r), None)
                    .map_err(|e| e.to_string())?
                    .unwrap_or_else(|e| e);
                compare(format!("key {k}"), &got, reference_solve(&s.text, s.big_r));
            }
            let misses = scrape::delta(&before, &after, "mmlp_serve_cache_misses_total");
            if misses != 0.0 {
                reference_failures.push(format!("{misses} cache misses during the timed phase"));
            }
        }
        Inputs::Delta(chains) => {
            for (c, i, body) in &out.kept {
                let (_, rev) = chains[*c]
                    .kept
                    .iter()
                    .find(|(at, _)| at == i)
                    .expect("kept bodies come from kept revisions");
                let want = mmlp_serve::engine::execute(
                    mmlp_serve::protocol::Op::Solve,
                    rev,
                    workload::DELTA_R,
                    1,
                );
                compare(format!("chain {c} edit {i}"), body, want);
            }
        }
    }
    drop(conns);
    drop(control);
    let shutdown = server.shutdown();
    if let Err(e) = shutdown {
        reference_failures.push(e.to_string());
    }

    // A reference mismatch, a cache miss in `warm-hit` or an unclean
    // shutdown each count as one more failed request.
    let failed = (out.failed() + reference_failures.len() as u64).min(out.attempted);
    out.failures.extend(reference_failures);
    let correct = failed == 0;
    let ok = out.attempted - failed;

    let mut lat = out.latency_ns.clone();
    lat.sort_unstable();
    let pct = |q: f64| stats::percentile(&lat, q);
    let p50 = pct(0.5).map_or(0.0, |p| p.value as f64);
    let p90 = pct(0.9).map_or(0.0, |p| p.value as f64);
    let phase_s = out.wall_ns as f64 / 1e9;
    let rates = stats::window_rates(&out.done_ns, RATE_WINDOWS);
    let windowed = stats::median(&rates);
    let overall = out.ok() as f64 / phase_s.max(1e-9);
    let server_cpu_s = cpu1 - cpu0;
    let steal = host1.steal_share_since(&host0);

    let mut text = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(
        text,
        "# perfbench {} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let _ = writeln!(text, "host nproc={conns_n} rustc=\"{}\"", rustc_version());
    let _ = writeln!(
        text,
        "inputs generated_s={gen_s:.3} requests={}",
        out.attempted
    );
    let _ = writeln!(text, "phase wall_s={phase_s:.3} replies={} verified={} failed={failed} reference_checked={reference_checked}", out.replies, out.ok());
    let _ = writeln!(
        text,
        "throughput overall_rps={overall:.1} windowed_median_rps={windowed:.1} windows={}",
        rates.len()
    );
    let _ = writeln!(
        text,
        "host steal_share={steal:.4} loadgen_cpu_s={:.3} server_cpu_s={server_cpu_s:.3}",
        self1 - self0
    );
    for (label, q) in [("p99", 0.99), ("max", 1.0)] {
        if let Some(p) = pct(q) {
            let _ = writeln!(
                text,
                "latency {label}_ms={} samples={} beyond={}",
                p.value as f64 / 1e6,
                p.n,
                p.beyond
            );
        }
    }
    let _ = writeln!(text, "setup_s each={setups:?}");
    for f in &out.failures {
        let _ = writeln!(text, "failure {f}");
    }

    let mut metrics = Vec::new();
    let mut spans = None;
    if !args.trace {
        metrics.push(metric("throughput_rps", windowed, "1/s"));
        metrics.push(metric("latency_p50_ms", p50 / 1e6, "ms"));
        metrics.push(metric("latency_p90_ms", p90 / 1e6, "ms"));
        metrics.push(metric(
            "success_rate",
            ok as f64 / out.attempted.max(1) as f64,
            "ratio",
        ));
        metrics.push(metric(
            "server_cpu_us_per_req",
            server_cpu_s * 1e6 / out.replies.max(1) as f64,
            "us",
        ));
        metrics.push(metric("peak_rss_mb", rss_mb, "MB"));
        metrics.push(metric("setup_s", stats::median(&setups), "s"));
    } else {
        let mut rec = trace::Recorder::new();
        let t = Instant::now();
        let replay = match &inputs {
            Inputs::Cold(c) => replay::cold(c, replay_len(w), &mut rec)?,
            Inputs::Warm(wi, dir) => replay::warm(wi, dir, replay_len(w), &mut rec)?,
            Inputs::Delta(chains) => replay::delta(chains, replay_len(w), &mut rec)?,
        };
        let _ = writeln!(
            text,
            "replay requests={} spans={} wall_s={:.3}",
            replay.requests,
            rec.spans.len(),
            t.elapsed().as_secs_f64()
        );
        metrics = layer_metrics(&before, &after, &replay, p50, windowed, lineage_edges);
        spans = Some(rec.to_tsv());
    }
    Ok((
        Record {
            text,
            correct,
            attempted: out.attempted,
            failed,
        },
        metrics,
        spans,
    ))
}

/// One boot: spawn the server, open one connection per core and run
/// the workload's warm-up. Returns the boot's set-up time in seconds.
fn boot(bin: &Path, inputs: &Inputs, conns_n: usize) -> Result<(Server, Vec<Conn>, f64), String> {
    let t0 = Instant::now();
    let store = match inputs {
        Inputs::Warm(_, dir) => Some(dir.as_path()),
        _ => None,
    };
    let server = Server::spawn(bin, store).map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let mut conns = (0..conns_n)
        .map(|_| Conn::connect(&server.addr))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect {}: {e}", server.addr))?;
    let expect_ok =
        |what: &str, r: std::io::Result<Result<String, String>>| -> Result<String, String> {
            r.map_err(|e| format!("set-up {what}: {e}"))?
                .map_err(|e| format!("set-up {what}: {e}"))
        };
    match inputs {
        // Cold solves need nothing warm: set-up ends once connected.
        Inputs::Cold(_) => {}
        Inputs::Warm(wi, _) => {
            for (i, k) in wi.keys.iter().take(WARMUP_HITS).enumerate() {
                let line = format!("SOLVE hash:{:016x} R={}", k.solve.hash, k.solve.big_r);
                let body = expect_ok("hit", conns[i % conns_n].call(&line, None))?;
                if body != k.body {
                    return Err(format!(
                        "set-up hit {i}: body differs from the stored solve"
                    ));
                }
            }
        }
        Inputs::Delta(chains) => {
            for (c, chain) in chains.iter().enumerate() {
                let put = format!("PUT {}", chain.base_text.len());
                expect_ok("put", conns[c].call(&put, Some(chain.base_text.as_bytes())))?;
                let boot = format!(
                    "SOLVE_DELTA hash:{:016x} R={}",
                    chain.base_hash,
                    workload::DELTA_R
                );
                let body = expect_ok("boot", conns[c].call(&boot, None))?;
                check::check_solve_body(&check::Rows::of(&chain.base), &body)
                    .map_err(|e| format!("set-up boot: {e}"))?;
            }
        }
    }
    Ok((server, conns, t0.elapsed().as_secs_f64()))
}

fn scrape_metrics(control: &mut Conn) -> Result<Scrape, String> {
    let body = control
        .call("METRICS", None)
        .map_err(|e| format!("METRICS: {e}"))?
        .map_err(|e| format!("METRICS: {e}"))?;
    Scrape::parse(&body).map_err(|e| format!("METRICS: {e}"))
}

/// A from-scratch in-process solve, as the server's engine runs it.
fn reference_solve(text: &str, big_r: usize) -> Result<String, String> {
    let inst = mmlp_instance::textfmt::parse_instance(text).map_err(|e| e.to_string())?;
    mmlp_serve::engine::execute(mmlp_serve::protocol::Op::Solve, &inst, big_r, 1)
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
fn layer_metrics(
    before: &Scrape,
    after: &Scrape,
    r: &replay::Replay,
    client_p50_ns: f64,
    throughput: f64,
    lineage_edges: f64,
) -> Vec<Metric> {
    let q = |hist: &str, p: f64| scrape::delta_quantile(before, after, hist, p).unwrap_or(0.0);
    let d = |name: &str| scrape::delta(before, after, name);
    let us = |name: &str| replay::per_request(r, name, 1e3, false);
    let ns = |name: &str| replay::per_request(r, name, 1.0, false);
    let inclusive_us = |name: &str| replay::per_request(r, name, 1e3, true);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let server_p50 = q("mmlp_serve_request_latency_us", 0.5);
    let wire_p50 = client_p50_ns / 1e3 - server_p50;
    let queue_p50 = q("mmlp_serve_queue_wait_us", 0.5);
    let inprocess_p50 = {
        let v: Vec<f64> = r.request_ns.iter().map(|&n| n as f64 / 1e3).collect();
        stats::median(&v)
    };
    let client_p50_us = client_p50_ns / 1e3;
    let unexplained = ratio(
        client_p50_us - wire_p50 - queue_p50 - inprocess_p50,
        client_p50_us,
    );
    let hits = d("mmlp_serve_cache_hits_total");
    let lookups = hits + d("mmlp_serve_cache_misses_total");
    let recomputed = d("mmlp_serve_delta_recomputed_x_total");
    let agents = d("mmlp_serve_delta_agents_total");
    let flat_total: u64 = r.solves.values().map(|v| v.0).sum();
    let central_total: u64 = r.solves.values().map(|v| v.1).sum();

    let mut m = vec![
        metric("server.latency_p50_us", server_p50, "us"),
        metric("server.wire_p50_us", wire_p50, "us"),
        metric(
            "protocol.parse_command_ns",
            ns("protocol.parse_command"),
            "ns",
        ),
        metric("protocol.to_wire_ns", ns("protocol.to_wire"), "ns"),
        metric("pool.queue_wait_p50_us", queue_p50, "us"),
        metric(
            "pool.queue_wait_p90_us",
            q("mmlp_serve_queue_wait_us", 0.9),
            "us",
        ),
        metric("pool.execute_p50_us", q("mmlp_serve_execute_us", 0.5), "us"),
        metric("pool.busy", d("mmlp_serve_busy_total"), "count"),
        metric("cache.probe_ns", ns("cache.probe"), "ns"),
        metric("cache.insert_ns", ns("cache.insert"), "ns"),
        metric("cache.hit_ratio", ratio(hits, lookups), "ratio"),
        metric("cache.lookups", lookups, "count"),
        metric("cache.bytes", after.sum("mmlp_serve_cache_bytes"), "bytes"),
        metric("cache.evictions", d("mmlp_serve_cache_evictions"), "count"),
        metric("textfmt.parse_us", us("textfmt.parse"), "us"),
        metric("textfmt.write_us", us("textfmt.write"), "us"),
        metric("hash.instance_us", us("hash.instance"), "us"),
        metric("engine.put_us", us("engine.put"), "us"),
        metric("engine.execute_us", inclusive_us("engine.execute"), "us"),
        metric("engine.render_us", us("engine.execute"), "us"),
        metric(
            "transform.special_form_us",
            us("transform.special_form"),
            "us",
        ),
        metric("transform.map_back_us", us("transform.map_back"), "us"),
        metric(
            "distributed.solve_us",
            inclusive_us("distributed.solve"),
            "us",
        ),
        metric("distributed.gather_us", us("distributed.gather"), "us"),
        metric("distributed.t_eval_us", us("distributed.t_eval"), "us"),
        metric("distributed.flood_us", us("distributed.flood"), "us"),
        metric("distributed.g_us", us("distributed.g"), "us"),
        metric("smoothing.solve_us", us("smoothing.solve"), "us"),
        metric(
            "distributed.flat_over_central",
            ratio(flat_total as f64, central_total as f64),
            "ratio",
        ),
    ];
    let families = workload::family_names();
    for (f, fam) in families.iter().enumerate() {
        for big_r in [2, 3] {
            let (flat, central, n) = r.solves.get(&(f, big_r)).copied().unwrap_or_default();
            let mean = |t: u64| ratio(t as f64 / 1e3, n as f64);
            m.push(metric(
                format!("distributed.flat_over_central.{fam}.r{big_r}"),
                ratio(flat as f64, central as f64),
                "ratio",
            ));
            m.push(metric(
                format!("distributed.flat_us.{fam}.r{big_r}"),
                mean(flat),
                "us",
            ));
            m.push(metric(
                format!("smoothing.solve_us.{fam}.r{big_r}"),
                mean(central),
                "us",
            ));
        }
    }
    let store = r.store.as_ref();
    m.extend([
        metric("delta.parse_us", us("delta.parse"), "us"),
        metric("delta.apply_hashed_us", us("delta.apply_hashed"), "us"),
        metric("dynamic.apply_delta_us", us("dynamic.apply_delta"), "us"),
        metric("dynamic.repair_us", us("dynamic.repair"), "us"),
        metric("dynamic.dirty_ratio", ratio(recomputed, agents), "ratio"),
        metric("dynamic.recomputed_x", recomputed, "count"),
        metric("dynamic.agents", agents, "count"),
        metric(
            "coordinator.put_delta_us",
            us("coordinator.put_delta"),
            "us",
        ),
        metric(
            "coordinator.solve_delta_us",
            us("coordinator.solve_delta"),
            "us",
        ),
        metric(
            "coordinator.warm",
            d("mmlp_serve_delta_solves_total{mode=\"warm\"}"),
            "count",
        ),
        metric(
            "coordinator.advanced",
            d("mmlp_serve_delta_solves_total{mode=\"advanced\"}"),
            "count",
        ),
        metric(
            "coordinator.booted",
            d("mmlp_serve_delta_solves_total{mode=\"booted\"}"),
            "count",
        ),
        metric("coordinator.lineage_edges", lineage_edges, "count"),
        metric(
            "store.open_ms",
            store.map_or(0.0, |s| s.open_ns as f64 / 1e6),
            "ms",
        ),
        metric(
            "store.warm_start_ms",
            store.map_or(0.0, |s| s.warm_start_ns as f64 / 1e6),
            "ms",
        ),
        metric(
            "store.records",
            store.map_or(0.0, |s| s.records as f64),
            "count",
        ),
        metric(
            "store.segment_mb",
            store.map_or(0.0, |s| s.segment_bytes as f64 / (1 << 20) as f64),
            "MB",
        ),
        metric("trace.inprocess_p50_us", inprocess_p50, "us"),
        metric("trace.unexplained_share", unexplained, "ratio"),
        metric("trace.throughput_rps", throughput, "1/s"),
        metric("trace.latency_p50_ms", client_p50_ns / 1e6, "ms"),
    ]);
    m
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value": …, "unit": …}`.
fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
