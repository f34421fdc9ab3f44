//! `maxmin-lp` — command-line interface to the local max-min LP solver.
//!
//! ```text
//! maxmin-lp solve <instance.mmlp> [-R <R>] [--certify]
//! maxmin-lp optimum <instance.mmlp>                      exact simplex
//! maxmin-lp safe <instance.mmlp>                         factor-ΔI baseline
//! maxmin-lp generate <family> <size> <seed> [--out <f>]  emit an instance
//! maxmin-lp info <instance.mmlp>                         sizes, degrees, paper bound
//! maxmin-lp obs [--file <f>] [--size <n>] [--seed <s>] [-R <R>]
//!               [--slowest <n>]                        slowest span trees
//! maxmin-lp obs --addr <a>                             scrape + lint METRICS
//! maxmin-lp obs trace <id> --journal <dir>             render a span tree
//! maxmin-lp obs journal --journal <dir> [--tail <n>]   dump the event journal
//! maxmin-lp obs lint <scrape> [<scrape2>]              lint exposition files
//! maxmin-lp obs slo <spec> (--scrape <f> | --addr <a>) evaluate SLOs
//! maxmin-lp campaign run <spec.lab> [--out <dir>] [--workers <n>] [--quiet]
//!                 [--journal-dir <dir>]
//! maxmin-lp campaign report <dir> [--csv]
//! maxmin-lp campaign status <dir>
//! maxmin-lp campaign spill <dir> --store <store-dir>     persist results
//! maxmin-lp serve [--addr <a>] [--workers <n>] [--cache-mb <m>]
//!                 [--queue <n>] [--timeout-ms <t>] [--event-loops <n>]
//!                 [--store-dir <dir>] [--journal-dir <dir>]  solver service
//! maxmin-lp loadgen --instance <f> [--addr <a>] [--clients <n>]
//!                 [--requests <n>] [-R <R>] [--op <op>] [--inline]
//!                 [--shutdown] [--mutate] [--seed <n>] [--trace]
//!                 [--connections <n>] [--pipeline <d>]   drive the service
//! maxmin-lp store import <dir> <file>... | --catalog <size> <seed>
//! maxmin-lp store export <dir> <hash> [--out <file>]
//! maxmin-lp store convert <in> <out>                     text ↔ binary
//! maxmin-lp store ls <dir>
//! maxmin-lp store gc <dir>
//! maxmin-lp store verify <dir>
//! ```
//!
//! Instances use the line-oriented text format of
//! `mmlp_instance::textfmt` (see `maxmin-lp generate`); campaign specs
//! use the `mmlp_lab::spec` format. All output goes to stdout; exit
//! code 0 on success, 1 on runtime errors, 2 on usage errors. When the
//! reader closes stdout early (`| head`), the rest of the output is
//! dropped and the exit code is still the command's own. `solve` and
//! `obs` still accept `--threads <n>` (`n ≥ 1`) and ignore it: a solve
//! runs on one thread.

use maxmin_lp::core::safe::safe_solution;
use maxmin_lp::core::solver::LocalSolver;
use maxmin_lp::gen::catalog;
use maxmin_lp::instance::{textfmt, DegreeStats, Instance};
use maxmin_lp::lab::campaign::{self, RunOptions};
use maxmin_lp::lab::{report, spec};
use maxmin_lp::lp::solve_maxmin;
use maxmin_lp::serve::loadgen::{self, LoadConfig};
use maxmin_lp::serve::protocol::Op;
use maxmin_lp::serve::server::{ServeConfig, Server};
use maxmin_lp::store::{codec, Store};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set once stdout's reader has gone (a write failed with `BrokenPipe`,
/// as under `| head`): later output is dropped, and the command still
/// runs on to its verdict.
static READER_GONE: AtomicBool = AtomicBool::new(false);

/// Writes to stdout, the one writer all output goes to. A reader that
/// has gone is not an error (see [`READER_GONE`]); any other write
/// failure ends the command.
fn emit(args: std::fmt::Arguments) -> Result<(), UsageError> {
    if READER_GONE.load(Ordering::Relaxed) {
        return Ok(());
    }
    match std::io::stdout().write_fmt(args) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            READER_GONE.store(true, Ordering::Relaxed);
            Ok(())
        }
        r => r.map_err(UsageError::Output),
    }
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))?
    };
}

/// `println!` through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))?
    };
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  maxmin-lp solve <file> [-R <R>] [--certify]\n  \
         maxmin-lp optimum <file>\n  maxmin-lp safe <file>\n  \
         maxmin-lp generate <family> <size> <seed> [--out <file>]\n  \
         maxmin-lp info <file>\n  \
         maxmin-lp obs [--file <f>] [--size <n>] [--seed <s>] [-R <R>] [--slowest <n>] \
         | --addr <a>\n  \
         maxmin-lp obs trace <id> --journal <dir>\n  \
         maxmin-lp obs journal --journal <dir> [--tail <n>]\n  \
         maxmin-lp obs lint <scrape> [<scrape2>]\n  \
         maxmin-lp obs slo <spec> (--scrape <file> | --addr <a>)\n  \
         maxmin-lp campaign run <spec.lab> [--out <dir>] [--workers <n>] [--quiet] \
         [--journal-dir <dir>]\n  \
         maxmin-lp campaign report <dir> [--csv]\n  \
         maxmin-lp campaign status <dir>\n  \
         maxmin-lp campaign spill <dir> --store <store-dir>\n  \
         maxmin-lp serve [--addr <a>] [--workers <n>] [--cache-mb <m>] \
         [--queue <n>] [--timeout-ms <t>] [--event-loops <n>] [--store-dir <dir>] \
         [--journal-dir <dir>]\n  \
         maxmin-lp loadgen --instance <file> [--addr <a>] [--clients <n>] \
         [--requests <n>] [-R <R>] [--op solve|optimum|safe|info] [--inline] [--shutdown] \
         [--mutate] [--seed <n>] [--trace] [--connections <n>] [--pipeline <d>]\n  \
         maxmin-lp store import <dir> <file>... | --catalog <size> <seed>\n  \
         maxmin-lp store export <dir> <hash> [--out <file>]\n  \
         maxmin-lp store convert <in> <out>\n  \
         maxmin-lp store ls|gc|verify <dir>\n\n\
         families: {}",
        catalog()
            .iter()
            .map(|f| f.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::from(2)
}

fn load(path: &str) -> Result<Instance, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    textfmt::parse_instance(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match run(cmd, &args[1..]) {
        // Also when the reader left early: the command itself succeeded.
        Ok(()) => ExitCode::SUCCESS,
        Err(UsageError::Usage) => usage(),
        Err(UsageError::Output(e)) => {
            eprintln!("error: stdout: {e}");
            ExitCode::FAILURE
        }
        Err(UsageError::Message(m)) => {
            eprintln!("error: {m}");
            ExitCode::FAILURE
        }
    }
}

enum UsageError {
    Usage,
    Message(String),
    /// Writing to stdout failed.
    Output(std::io::Error),
}

impl From<String> for UsageError {
    fn from(m: String) -> Self {
        UsageError::Message(m)
    }
}

fn run(cmd: &str, rest: &[String]) -> Result<(), UsageError> {
    match cmd {
        "solve" => {
            let path = rest.first().ok_or(UsageError::Usage)?;
            let mut big_r = 3usize;
            let mut certify = false;
            let mut it = rest[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "-R" => {
                        big_r = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .filter(|r| *r >= 2)
                            .ok_or(UsageError::Usage)?;
                    }
                    // Accepted and ignored: a solve runs on one thread.
                    "--threads" => {
                        it.next()
                            .and_then(|v| v.parse::<usize>().ok())
                            .filter(|t| *t >= 1)
                            .ok_or(UsageError::Usage)?;
                    }
                    "--certify" => certify = true,
                    _ => return Err(UsageError::Usage),
                }
            }
            let inst = load(path)?;
            let stats = DegreeStats::of(&inst);
            let solver = LocalSolver::new(big_r);
            let (out, _) = solver
                .solve_traced(&inst)
                .map_err(|e| format!("{path}: solve: {e}"))?;
            let utility = out.solution.utility(&inst);
            outln!("# local solve R={big_r}");
            outln!("utility {utility}");
            outln!(
                "guarantee {}",
                solver.guarantee(stats.delta_i.max(2), stats.delta_k.max(2))
            );
            outln!("optimum_upper_bound {}", out.optimum_upper_bound());
            for v in inst.agents() {
                outln!("x {} {}", v.raw(), out.solution.value(v));
            }
            if certify {
                let opt = solve_maxmin(&inst).map_err(|e| e.to_string())?;
                outln!("# certification");
                outln!("optimum {}", opt.omega);
                outln!("ratio {}", opt.omega / utility);
            }
            Ok(())
        }
        "optimum" => {
            let path = rest.first().ok_or(UsageError::Usage)?;
            let inst = load(path)?;
            let opt = solve_maxmin(&inst).map_err(|e| e.to_string())?;
            outln!("optimum {}", opt.omega);
            for v in inst.agents() {
                outln!("x {} {}", v.raw(), opt.solution.value(v));
            }
            Ok(())
        }
        "safe" => {
            let path = rest.first().ok_or(UsageError::Usage)?;
            let inst = load(path)?;
            let x = safe_solution(&inst);
            outln!("utility {}", x.utility(&inst));
            for v in inst.agents() {
                outln!("x {} {}", v.raw(), x.value(v));
            }
            Ok(())
        }
        "generate" => {
            let (name, size, seed, flags) = match rest {
                [n, s, d, flags @ ..] => (
                    n.as_str(),
                    s.parse::<usize>().map_err(|e| e.to_string())?,
                    d.parse::<u64>().map_err(|e| e.to_string())?,
                    flags,
                ),
                _ => return Err(UsageError::Usage),
            };
            let mut out_file: Option<PathBuf> = None;
            let mut it = flags.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--out" => out_file = Some(PathBuf::from(it.next().ok_or(UsageError::Usage)?)),
                    _ => return Err(UsageError::Usage),
                }
            }
            let fams = catalog();
            let fam = fams
                .iter()
                .find(|f| f.name == name)
                .ok_or_else(|| format!("unknown family '{name}'"))?;
            let text = textfmt::write_instance(&fam.instance(size, seed));
            match out_file {
                None => out!("{text}"),
                Some(path) => {
                    write_atomically(&path, text.as_bytes()).map_err(|e| e.to_string())?;
                    outln!("wrote {}", path.display());
                }
            }
            Ok(())
        }
        "info" => {
            let path = rest.first().ok_or(UsageError::Usage)?;
            let inst = load(path)?;
            let s = DegreeStats::of(&inst);
            outln!("agents {}", inst.n_agents());
            outln!("constraints {}", inst.n_constraints());
            outln!("objectives {}", inst.n_objectives());
            outln!("delta_i {}", s.delta_i);
            outln!("delta_k {}", s.delta_k);
            // The paper's optimal local approximation ratio for these
            // degree bounds: any ratio headroom reads directly off
            // `solve`'s ratio vs this line.
            let (di, dk) = (s.delta_i.max(2), s.delta_k.max(2));
            outln!(
                "paper_bound {}  # ΔI(1 − 1/ΔK) at ΔI={di}, ΔK={dk}",
                maxmin_lp::core::ratio::threshold(di, dk)
            );
            match maxmin_lp::instance::validate::check(&inst) {
                Ok(()) => outln!("valid true"),
                Err(e) => outln!("valid false  # {e}"),
            }
            Ok(())
        }
        "obs" => obs_cmd(rest),
        "campaign" => {
            let sub = rest.first().ok_or(UsageError::Usage)?;
            campaign_cmd(sub, &rest[1..])
        }
        "serve" => serve_cmd(rest),
        "loadgen" => loadgen_cmd(rest),
        "store" => {
            let sub = rest.first().ok_or(UsageError::Usage)?;
            store_cmd(sub, &rest[1..])
        }
        _ => Err(UsageError::Usage),
    }
}

/// Writes `bytes` to `path` atomically: temp file in the same
/// directory, then `rename`, so readers (and a crash mid-write) never
/// observe a half-written file.
fn write_atomically(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no file name"))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => PathBuf::from(&tmp_name),
    };
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// `maxmin-lp obs …` — the observability report.
///
/// With `--addr`, scrapes a running server's `METRICS` op and prints
/// the Prometheus text body. Otherwise runs **traced** flat distributed
/// solves locally — over one `--file`, or the whole generator catalogue
/// at `--size`/`--seed` — and renders the span trees of the slowest
/// solves plus the `t` batches' probe total.
fn obs_cmd(rest: &[String]) -> Result<(), UsageError> {
    use maxmin_lp::core::distributed::solve_special_flat_traced;
    use maxmin_lp::core::transform::try_to_special_form;
    use maxmin_lp::core::SpecialForm;
    use maxmin_lp::obs::span::{Span, ROOT_SPAN};
    use maxmin_lp::obs::{next_trace_id, render_span_tree, SpanRing, SpanTree};

    match rest.first().map(String::as_str) {
        Some("trace") => return obs_trace_cmd(&rest[1..]),
        Some("journal") => return obs_journal_cmd(&rest[1..]),
        Some("lint") => return obs_lint_cmd(&rest[1..]),
        Some("slo") => return obs_slo_cmd(&rest[1..]),
        _ => {}
    }

    let mut addr: Option<String> = None;
    let mut file: Option<String> = None;
    let mut size = 16usize;
    let mut seed = 0u64;
    let mut big_r = 3usize;
    let mut slowest = 8usize;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = Some(it.next().ok_or(UsageError::Usage)?.clone()),
            "--file" => file = Some(it.next().ok_or(UsageError::Usage)?.clone()),
            "--size" => {
                size = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|s| *s >= 1)
                    .ok_or(UsageError::Usage)?;
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or(UsageError::Usage)?;
            }
            "-R" => {
                big_r = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|r| *r >= 2)
                    .ok_or(UsageError::Usage)?;
            }
            // Accepted and ignored: a solve runs on one thread.
            "--threads" => {
                it.next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|t| *t >= 1)
                    .ok_or(UsageError::Usage)?;
            }
            "--slowest" => {
                slowest = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|n| *n >= 1)
                    .ok_or(UsageError::Usage)?;
            }
            _ => return Err(UsageError::Usage),
        }
    }

    if let Some(addr) = addr {
        // Scrape mode: print the server's registry verbatim — after
        // linting it, so a malformed exposition is a typed error (exit
        // 1), not something silently passed downstream.
        let body = fetch_metrics(&addr)?;
        if let Err(errors) = maxmin_lp::obs::parse_exposition(&body) {
            return Err(UsageError::Message(format!(
                "scrape from {addr} failed lint:\n  {}",
                errors.join("\n  ")
            )));
        }
        out!("{body}");
        return Ok(());
    }

    // Trace mode: one traced solve per workload as a span tree, its
    // phases laid end to end under the root, ring-buffered exactly like
    // the server's; then the slowest trees.
    let workloads: Vec<(String, Instance)> = match file {
        Some(path) => vec![(path.clone(), load(&path)?)],
        None => catalog()
            .iter()
            .map(|f| (f.name.to_string(), f.instance(size, seed)))
            .collect(),
    };
    let ring = SpanRing::new(workloads.len());
    let (mut probes, mut agents) = (0u64, 0usize);
    for (name, inst) in &workloads {
        let transformed = try_to_special_form(inst).map_err(|e| format!("{name}: {e}"))?;
        let sf = SpecialForm::new(transformed.instance.clone())
            .map_err(|e| format!("{name}: special form: {e:?}"))?;
        let (_, stats, trace) = solve_special_flat_traced(&sf, big_r, 1);
        probes += trace.t_probes;
        agents += sf.n_agents();
        let (mut spans, mut start_ns) = (Vec::new(), 0);
        for (id, (name, dur_ns)) in (1..).zip(trace.phase_spans()) {
            spans.push(Span {
                id,
                parent: ROOT_SPAN,
                name: name.into(),
                start_ns,
                dur_ns,
            });
            start_ns += dur_ns;
        }
        ring.push(SpanTree {
            trace_id: next_trace_id(),
            label: format!(
                "{name} n={} R={big_r} rounds={}",
                inst.n_agents(),
                stats.rounds
            ),
            total_ns: trace.total_ns,
            spans,
        });
    }
    outln!(
        "# obs timeline R={big_r} ({} solve(s), slowest {})",
        workloads.len(),
        slowest.min(workloads.len())
    );
    for tree in ring.slowest(slowest) {
        out!("{}", render_span_tree(&tree));
    }
    outln!(
        "# t: {probes} ω probes over {agents} agents ({:.2} per agent)",
        probes as f64 / agents.max(1) as f64
    );
    Ok(())
}

/// Scrapes `METRICS` from a running server, with connection and
/// protocol failures surfaced as typed errors (exit code 1), never a
/// panic.
fn fetch_metrics(addr: &str) -> Result<String, UsageError> {
    let mut client = maxmin_lp::serve::client::Client::connect(addr)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    client
        .metrics()
        .map_err(|e| UsageError::Message(format!("METRICS from {addr}: {e}")))
}

/// `maxmin-lp obs trace <id> --journal <dir>` — renders the span tree
/// of one traced request out of the crash-safe event journal, plus any
/// other journal events carrying the same trace id.
fn obs_trace_cmd(rest: &[String]) -> Result<(), UsageError> {
    use maxmin_lp::obs::journal::{kind_name, read_journal_dir, EV_SPAN};
    use maxmin_lp::obs::{format_trace_id, parse_trace_id, render_span_tree, SpanTree};

    let id_text = rest.first().ok_or(UsageError::Usage)?;
    let trace_id = parse_trace_id(id_text)
        .ok_or_else(|| format!("bad trace id '{id_text}' (1-16 hex digits, nonzero)"))?;
    let mut journal_dir: Option<PathBuf> = None;
    let mut it = rest[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--journal" => journal_dir = Some(PathBuf::from(it.next().ok_or(UsageError::Usage)?)),
            _ => return Err(UsageError::Usage),
        }
    }
    let dir = journal_dir.ok_or(UsageError::Usage)?;
    let (records, report) =
        read_journal_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let tree = records
        .iter()
        .rev()
        .filter(|r| r.kind == EV_SPAN && r.trace_id == trace_id)
        .find_map(|r| SpanTree::parse_text(&r.text).ok())
        .ok_or_else(|| {
            format!(
                "no span tree for trace {} in {} ({} journal record(s) scanned)",
                format_trace_id(trace_id),
                dir.display(),
                records.len()
            )
        })?;
    out!("{}", render_span_tree(&tree));
    for r in records
        .iter()
        .filter(|r| r.trace_id == trace_id && r.kind != EV_SPAN)
    {
        outln!("event {}: {}", kind_name(r.kind), r.text);
    }
    if report.corrupt > 0 || report.torn_files > 0 {
        eprintln!(
            "# journal damage skipped: {} corrupt record(s), {} torn file(s)",
            report.corrupt, report.torn_files
        );
    }
    Ok(())
}

/// `maxmin-lp obs journal --journal <dir> [--tail <n>]` — dumps the
/// event journal, one line per record (span trees are summarised).
fn obs_journal_cmd(rest: &[String]) -> Result<(), UsageError> {
    use maxmin_lp::obs::journal::{kind_name, read_journal_dir, EV_SPAN};
    use maxmin_lp::obs::{format_trace_id, SpanTree};

    let mut journal_dir: Option<PathBuf> = None;
    let mut tail: Option<usize> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--journal" => journal_dir = Some(PathBuf::from(it.next().ok_or(UsageError::Usage)?)),
            "--tail" => {
                tail = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|n| *n >= 1)
                        .ok_or(UsageError::Usage)?,
                );
            }
            _ => return Err(UsageError::Usage),
        }
    }
    let dir = journal_dir.ok_or(UsageError::Usage)?;
    let (records, report) =
        read_journal_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let skip = records.len().saturating_sub(tail.unwrap_or(records.len()));
    for r in &records[skip..] {
        let id = format_trace_id(r.trace_id);
        if r.kind == EV_SPAN {
            match SpanTree::parse_text(&r.text) {
                Ok(t) => outln!(
                    "span  {id}  {}  total {} ns  ({} span(s))",
                    t.label,
                    t.total_ns,
                    t.spans.len()
                ),
                Err(e) => outln!("span  {id}  <unparseable: {e}>"),
            }
        } else {
            outln!("{:<5} {id}  {}", kind_name(r.kind), r.text);
        }
    }
    outln!(
        "# {} record(s) in {} file(s), {} torn, {} corrupt",
        records.len(),
        report.files,
        report.torn_files,
        report.corrupt
    );
    Ok(())
}

/// `maxmin-lp obs lint <scrape> [<scrape2>]` — parses Prometheus text
/// exposition file(s) and fails on format damage; with two scrapes of
/// the same server it also fails on drift between them (series that
/// disappeared, counters or histograms that went backwards).
fn obs_lint_cmd(rest: &[String]) -> Result<(), UsageError> {
    use maxmin_lp::obs::{lint_pair, parse_exposition};

    let (first, second) = match rest {
        [f] => (f, None),
        [f, s] => (f, Some(s)),
        _ => return Err(UsageError::Usage),
    };
    let parse = |path: &str| -> Result<maxmin_lp::obs::Exposition, UsageError> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse_exposition(&text).map_err(|errors| {
            UsageError::Message(format!("{path} failed lint:\n  {}", errors.join("\n  ")))
        })
    };
    let prev = parse(first)?;
    let mut checked = format!("{first}: {} metric families ok", prev.families.len());
    if let Some(second) = second {
        let next = parse(second)?;
        let drift = lint_pair(&prev, &next);
        if !drift.is_empty() {
            return Err(UsageError::Message(format!(
                "drift between {first} and {second}:\n  {}",
                drift.join("\n  ")
            )));
        }
        checked.push_str(&format!(
            "\n{second}: {} metric families ok, no drift",
            next.families.len()
        ));
    }
    outln!("{checked}");
    Ok(())
}

/// `maxmin-lp obs slo <spec> (--scrape <file> | --addr <a>)` —
/// evaluates declarative SLOs against a scrape and exits nonzero on
/// any violated objective (CI's SLO gate).
fn obs_slo_cmd(rest: &[String]) -> Result<(), UsageError> {
    use maxmin_lp::obs::{evaluate_slos, parse_exposition, parse_slo_specs, render_slo_report};

    let spec_path = rest.first().ok_or(UsageError::Usage)?;
    let mut scrape_file: Option<String> = None;
    let mut addr: Option<String> = None;
    let mut it = rest[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scrape" => scrape_file = Some(it.next().ok_or(UsageError::Usage)?.clone()),
            "--addr" => addr = Some(it.next().ok_or(UsageError::Usage)?.clone()),
            _ => return Err(UsageError::Usage),
        }
    }
    let spec_text = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let specs = parse_slo_specs(&spec_text).map_err(|e| format!("{spec_path}: {e}"))?;
    let body = match (scrape_file, addr) {
        (Some(path), None) => std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?,
        (None, Some(addr)) => fetch_metrics(&addr)?,
        _ => return Err(UsageError::Usage),
    };
    let exp = parse_exposition(&body).map_err(|errors| {
        UsageError::Message(format!("scrape failed lint:\n  {}", errors.join("\n  ")))
    })?;
    let results = evaluate_slos(&specs, &exp);
    out!("{}", render_slo_report(&results));
    let violated = results.iter().filter(|r| !r.ok).count();
    if violated > 0 {
        return Err(UsageError::Message(format!(
            "{violated} of {} objective(s) violated",
            results.len()
        )));
    }
    Ok(())
}

/// `maxmin-lp serve [--addr <a>] [--workers <n>] [--cache-mb <m>]
/// [--queue <n>] [--timeout-ms <t>] [--event-loops <n>]
/// [--store-dir <dir>] [--journal-dir <dir>]`.
fn serve_cmd(rest: &[String]) -> Result<(), UsageError> {
    let mut cfg = ServeConfig::default();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => cfg.addr = it.next().ok_or(UsageError::Usage)?.clone(),
            "--store-dir" => {
                cfg.store_dir = Some(PathBuf::from(it.next().ok_or(UsageError::Usage)?))
            }
            "--journal-dir" => {
                cfg.journal_dir = Some(PathBuf::from(it.next().ok_or(UsageError::Usage)?))
            }
            "--workers" => {
                cfg.workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|w| *w >= 1)
                    .ok_or(UsageError::Usage)?;
            }
            "--cache-mb" => {
                let mb: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|m| *m >= 1)
                    .ok_or(UsageError::Usage)?;
                cfg.cache_bytes = mb << 20;
            }
            "--queue" => {
                cfg.queue_cap = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|q| *q >= 1)
                    .ok_or(UsageError::Usage)?;
            }
            "--timeout-ms" => {
                let ms: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or(UsageError::Usage)?;
                cfg.timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--event-loops" => {
                cfg.event_loops = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|n| *n >= 1)
                    .ok_or(UsageError::Usage)?;
            }
            _ => return Err(UsageError::Usage),
        }
    }
    let server = Server::bind(cfg.clone()).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    outln!("listening {}", server.local_addr());
    outln!(
        "workers {}  queue {}  cache_mb {}  timeout_ms {}",
        cfg.workers,
        cfg.queue_cap,
        cfg.cache_bytes >> 20,
        cfg.timeout.map_or(0, |d| d.as_millis())
    );
    if let Some(dir) = &cfg.store_dir {
        outln!("store_dir {}", dir.display());
    }
    if let Some(dir) = &cfg.journal_dir {
        outln!("journal_dir {}", dir.display());
    }
    outln!("event_loops {}", cfg.event_loops.max(1));
    // The CI smoke (and any supervisor) waits for the "listening" line.
    let _ = std::io::stdout().flush();
    let summary = server.run().map_err(|e| e.to_string())?;
    outln!("# shutdown");
    outln!("requests {}", summary.requests);
    outln!("cache_hits {}", summary.cache_hits);
    outln!("cache_misses {}", summary.cache_misses);
    outln!("busy {}", summary.busy);
    outln!("errors {}", summary.errors);
    outln!("timeouts {}", summary.timeouts);
    outln!("connections {}", summary.connections);
    if !summary.slowest.is_empty() {
        outln!("# slowest traced requests");
        for tree in &summary.slowest {
            out!("{}", maxmin_lp::obs::render_span_tree(tree));
        }
    }
    Ok(())
}

/// `maxmin-lp loadgen --instance <file> [--addr <a>] [--clients <n>]
/// [--requests <n>] [-R <R>] [--op <op>] [--inline] [--shutdown]
/// [--mutate] [--seed <n>] [--connections <n>] [--pipeline <d>]`.
///
/// `--mutate` streams random single-coefficient edits as `SOLVE_DELTA`
/// and byte-compares each incremental body against a from-scratch
/// `SOLVE` of the same revision; a mismatch counts as an error.
///
/// `--pipeline <d>` with `d > 1` switches to open-pipeline mode: each
/// connection (`--connections`, a synonym for `--clients`) keeps `d`
/// requests in flight, exercising the server's pipelined parsing.
///
/// Exit code 1 when any request failed (transport error, a non-BUSY
/// `ERR` reply, or a mutate-mode bit-identity mismatch), so CI can
/// assert a clean run.
fn loadgen_cmd(rest: &[String]) -> Result<(), UsageError> {
    let mut cfg = LoadConfig::default();
    let mut instance_path: Option<PathBuf> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--instance" => {
                instance_path = Some(PathBuf::from(it.next().ok_or(UsageError::Usage)?))
            }
            "--addr" => cfg.addr = it.next().ok_or(UsageError::Usage)?.clone(),
            "--clients" => {
                cfg.clients = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|c| *c >= 1)
                    .ok_or(UsageError::Usage)?;
            }
            "--requests" => {
                cfg.requests = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|r| *r >= 1)
                    .ok_or(UsageError::Usage)?;
            }
            "-R" => {
                cfg.big_r = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|r| *r >= 2)
                    .ok_or(UsageError::Usage)?;
            }
            "--op" => {
                cfg.op = match it.next().ok_or(UsageError::Usage)?.as_str() {
                    "solve" => Op::Solve,
                    "optimum" => Op::Optimum,
                    "safe" => Op::Safe,
                    "info" => Op::Info,
                    _ => return Err(UsageError::Usage),
                };
            }
            "--inline" => cfg.by_hash = false,
            "--shutdown" => cfg.shutdown_after = true,
            "--mutate" => cfg.mutate = true,
            "--trace" => cfg.trace = true,
            // --connections is the open-pipeline-mode spelling of
            // --clients (each connection is one pipelined stream).
            "--connections" => {
                cfg.clients = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|c| *c >= 1)
                    .ok_or(UsageError::Usage)?;
            }
            "--pipeline" => {
                cfg.pipeline = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|d| *d >= 1)
                    .ok_or(UsageError::Usage)?;
            }
            "--seed" => {
                cfg.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or(UsageError::Usage)?;
            }
            _ => return Err(UsageError::Usage),
        }
    }
    let path = instance_path.ok_or(UsageError::Usage)?;
    cfg.instance_text =
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let report = loadgen::run_loadgen(&cfg).map_err(UsageError::Message)?;
    out!("{}", loadgen::render_report(&cfg, &report));
    // Any unserved request fails the run: hard errors, but also
    // requests dropped after exhausting their BUSY retries — CI's
    // zero-error gate must not mistake a saturated run for a clean one.
    if report.ok < report.sent {
        return Err(UsageError::Message(format!(
            "{} of {} requests not served ({} errors, {} busy-dropped){}",
            report.sent - report.ok,
            report.sent,
            report.errors,
            report.busy,
            report
                .first_error
                .as_deref()
                .map(|e| format!(" (first error: {e})"))
                .unwrap_or_default()
        )));
    }
    Ok(())
}

/// `maxmin-lp campaign run|report|status …`.
fn campaign_cmd(sub: &str, rest: &[String]) -> Result<(), UsageError> {
    match sub {
        "run" => {
            let spec_path = rest.first().ok_or(UsageError::Usage)?;
            let mut out_dir: Option<PathBuf> = None;
            let mut workers: Option<usize> = None;
            let mut progress = true;
            let mut journal_dir: Option<PathBuf> = None;
            let mut it = rest[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--out" => out_dir = Some(PathBuf::from(it.next().ok_or(UsageError::Usage)?)),
                    "--workers" => {
                        workers = Some(
                            it.next()
                                .and_then(|v| v.parse().ok())
                                .filter(|w| *w >= 1)
                                .ok_or(UsageError::Usage)?,
                        );
                    }
                    "--quiet" => progress = false,
                    "--journal-dir" => {
                        journal_dir = Some(PathBuf::from(it.next().ok_or(UsageError::Usage)?))
                    }
                    _ => return Err(UsageError::Usage),
                }
            }
            let text =
                std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
            let spec = spec::parse_spec(&text).map_err(|e| format!("{spec_path}: {e}"))?;
            let fams = catalog();
            let known: Vec<&str> = fams.iter().map(|f| f.name).collect();
            spec.validate(&known).map_err(|e| e.to_string())?;
            let dir = out_dir
                .unwrap_or_else(|| PathBuf::from(format!("{}.campaign", spec_path.as_str())));
            let opts = RunOptions {
                workers,
                progress,
                journal_dir,
            };
            let summary = campaign::run_campaign(&spec, &dir, &opts).map_err(|e| e.to_string())?;
            outln!("# campaign run {}", dir.display());
            outln!("total {}", summary.total);
            outln!("skipped {}", summary.skipped);
            outln!("executed {}", summary.executed);
            outln!("ok {}", summary.ok);
            outln!("errors {}", summary.errors);
            outln!("panics {}", summary.panics);
            outln!("timeouts {}", summary.timeouts);
            if summary.errors + summary.panics + summary.timeouts > 0 {
                return Err(UsageError::Message(format!(
                    "{} of {} executed jobs failed (see {})",
                    summary.errors + summary.panics + summary.timeouts,
                    summary.executed,
                    dir.join(campaign::RESULTS_FILE).display()
                )));
            }
            Ok(())
        }
        "report" => {
            let dir = rest.first().ok_or(UsageError::Usage)?;
            let mut csv = false;
            for a in &rest[1..] {
                match a.as_str() {
                    "--csv" => csv = true,
                    _ => return Err(UsageError::Usage),
                }
            }
            let dir = Path::new(dir);
            let records = campaign::load_records(dir).map_err(|e| e.to_string())?;
            if records.is_empty() {
                return Err(UsageError::Message(format!(
                    "no records in {}",
                    dir.join(campaign::RESULTS_FILE).display()
                )));
            }
            out!("{}", report::render_report(&records));
            if csv {
                let written = report::write_csv_files(&records, dir).map_err(|e| e.to_string())?;
                for p in written {
                    outln!("csv {}", p.display());
                }
            }
            if !report::violations(&records).is_empty() {
                return Err(UsageError::Message("guarantee violations found".into()));
            }
            Ok(())
        }
        "spill" => {
            let dir = rest.first().ok_or(UsageError::Usage)?;
            let mut store_dir: Option<PathBuf> = None;
            let mut it = rest[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--store" => {
                        store_dir = Some(PathBuf::from(it.next().ok_or(UsageError::Usage)?))
                    }
                    _ => return Err(UsageError::Usage),
                }
            }
            let store_dir = store_dir.ok_or(UsageError::Usage)?;
            let records = campaign::load_records(Path::new(dir)).map_err(|e| e.to_string())?;
            if records.is_empty() {
                return Err(UsageError::Message(format!(
                    "no records in {}",
                    Path::new(dir).join(campaign::RESULTS_FILE).display()
                )));
            }
            let (store, open) = Store::open(&store_dir).map_err(|e| e.to_string())?;
            let summary = maxmin_lp::lab::spill::spill_records(&records, &store)
                .map_err(|e| e.to_string())?;
            outln!("# spill {} -> {}", dir, store_dir.display());
            outln!("records {}", records.len());
            outln!("instances_put {}", summary.instances);
            outln!("results_put {}", summary.results);
            outln!("skipped {}", summary.skipped);
            let (live_inst, live_res) = store.counts();
            outln!("store_instances {live_inst}");
            outln!("store_results {live_res}");
            if open.corrupt > 0 || open.torn_bytes > 0 {
                outln!(
                    "# store open repaired: corrupt {} torn_bytes {}",
                    open.corrupt,
                    open.torn_bytes
                );
            }
            Ok(())
        }
        "status" => {
            let dir = rest.first().ok_or(UsageError::Usage)?;
            let st = campaign::status(Path::new(dir)).map_err(|e| e.to_string())?;
            if !st.name.is_empty() {
                outln!("name {}", st.name);
            }
            outln!("total {}", st.total);
            outln!("completed {}", st.completed);
            outln!("failed {}", st.failed);
            outln!("pending {}", st.pending);
            if st.stale_records > 0 {
                outln!("stale_records {}", st.stale_records);
            }
            outln!("complete {}", st.is_complete());
            Ok(())
        }
        _ => Err(UsageError::Usage),
    }
}

/// Reads an instance file in either format: binary-codec blobs are
/// recognised by their magic, anything else parses as text.
fn load_any(path: &str) -> Result<Instance, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if bytes.starts_with(&codec::MAGIC) {
        return codec::decode_instance(&bytes).map_err(|e| format!("{path}: {e}"));
    }
    let text = String::from_utf8(bytes).map_err(|_| format!("{path}: neither binary nor UTF-8"))?;
    textfmt::parse_instance(&text).map_err(|e| format!("{path}: {e}"))
}

/// Human name of a result record's `op` namespace byte: the service
/// codes resolve through `Op::from_code` (the single owner of that
/// mapping), the lab codes through the spiller's `SolverKind` base.
fn op_name(code: u8) -> String {
    use maxmin_lp::lab::job::SolverKind;
    use maxmin_lp::lab::spill::{op_code, LAB_OP_BASE};
    if let Some(op) = Op::from_code(code) {
        return op.tag().into();
    }
    if code >= LAB_OP_BASE {
        if let Some(kind) = SolverKind::all().into_iter().find(|k| op_code(*k) == code) {
            return format!("lab-{}", kind.name());
        }
    }
    format!("op{code}")
}

/// `maxmin-lp store import|export|convert|ls|gc|verify …`.
fn store_cmd(sub: &str, rest: &[String]) -> Result<(), UsageError> {
    use maxmin_lp::instance::hash::{hash_hex, parse_hash_hex};
    match sub {
        // import <dir> <file>...  |  import <dir> --catalog <size> <seed>
        "import" => {
            let dir = rest.first().ok_or(UsageError::Usage)?;
            let (store, _) = Store::open(dir).map_err(|e| e.to_string())?;
            let mut imported = 0usize;
            match rest.get(1).map(String::as_str) {
                Some("--catalog") => {
                    let size: usize = rest
                        .get(2)
                        .and_then(|v| v.parse().ok())
                        .ok_or(UsageError::Usage)?;
                    let seed: u64 = rest
                        .get(3)
                        .and_then(|v| v.parse().ok())
                        .ok_or(UsageError::Usage)?;
                    if rest.len() > 4 {
                        return Err(UsageError::Usage);
                    }
                    for fam in catalog() {
                        let h = store
                            .put_instance(&fam.instance(size, seed))
                            .map_err(|e| e.to_string())?;
                        outln!("imported {} {}", hash_hex(h), fam.name);
                        imported += 1;
                    }
                }
                Some(_) => {
                    for path in &rest[1..] {
                        let inst = load_any(path)?;
                        let h = store.put_instance(&inst).map_err(|e| e.to_string())?;
                        outln!("imported {} {path}", hash_hex(h));
                        imported += 1;
                    }
                }
                None => return Err(UsageError::Usage),
            }
            let (instances, results) = store.counts();
            outln!("imported_total {imported}");
            outln!("store_instances {instances}");
            outln!("store_results {results}");
            Ok(())
        }
        // export <dir> <hash> [--out <file>] — text to stdout, or to a
        // file (binary when the file name ends in .mmlpb).
        "export" => {
            let dir = rest.first().ok_or(UsageError::Usage)?;
            let hash = rest
                .get(1)
                .and_then(|h| parse_hash_hex(h))
                .ok_or(UsageError::Usage)?;
            let mut out_file: Option<PathBuf> = None;
            let mut it = rest[2..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--out" => out_file = Some(PathBuf::from(it.next().ok_or(UsageError::Usage)?)),
                    _ => return Err(UsageError::Usage),
                }
            }
            let (store, _) = Store::open(dir).map_err(|e| e.to_string())?;
            let inst = store
                .get_instance(hash)
                .map_err(|e| e.to_string())?
                .ok_or_else(|| format!("no instance {} in {dir}", hash_hex(hash)))?;
            match out_file {
                None => out!("{}", textfmt::write_instance(&inst)),
                Some(path) => {
                    let bytes = if path.extension().is_some_and(|e| e == "mmlpb") {
                        codec::encode_instance(&inst)
                    } else {
                        textfmt::write_instance(&inst).into_bytes()
                    };
                    write_atomically(&path, &bytes).map_err(|e| e.to_string())?;
                    outln!("wrote {}", path.display());
                }
            }
            Ok(())
        }
        // convert <in> <out> — output format chosen by the output
        // extension (.mmlpb = binary, anything else = text).
        "convert" => {
            let (input, output) = match rest {
                [i, o] => (i.as_str(), Path::new(o.as_str())),
                _ => return Err(UsageError::Usage),
            };
            let inst = load_any(input)?;
            let bytes = if output.extension().is_some_and(|e| e == "mmlpb") {
                codec::encode_instance(&inst)
            } else {
                textfmt::write_instance(&inst).into_bytes()
            };
            write_atomically(output, &bytes).map_err(|e| e.to_string())?;
            outln!("wrote {} ({} bytes)", output.display(), bytes.len());
            Ok(())
        }
        "ls" => {
            let dir = rest.first().ok_or(UsageError::Usage)?;
            if rest.len() > 1 {
                return Err(UsageError::Usage);
            }
            let (store, _) = Store::open(dir).map_err(|e| e.to_string())?;
            for h in store.instance_hashes() {
                let inst = store
                    .get_instance(h)
                    .map_err(|e| e.to_string())?
                    .ok_or_else(|| format!("index lied about {}", hash_hex(h)))?;
                outln!(
                    "instance {} agents {} constraints {} objectives {}",
                    hash_hex(h),
                    inst.n_agents(),
                    inst.n_constraints(),
                    inst.n_objectives()
                );
            }
            // Lengths come off the in-memory index (framed on-disk
            // bytes): listing a large store does no record I/O.
            for (k, disk_len) in store.result_records() {
                outln!(
                    "result {} {} R={} threads={} bytes {}",
                    hash_hex(k.instance),
                    op_name(k.op),
                    k.big_r,
                    k.threads,
                    disk_len
                );
            }
            let (instances, results) = store.counts();
            outln!("total instances {instances} results {results}");
            Ok(())
        }
        "gc" => {
            let dir = rest.first().ok_or(UsageError::Usage)?;
            if rest.len() > 1 {
                return Err(UsageError::Usage);
            }
            let (store, _) = Store::open(dir).map_err(|e| e.to_string())?;
            let gc = store.gc().map_err(|e| e.to_string())?;
            outln!("records_kept {}", gc.records_kept);
            outln!("bytes_reclaimed {}", gc.bytes_reclaimed);
            Ok(())
        }
        // verify prints the sweep report and exits non-zero on any
        // damage, so CI can gate on it.
        "verify" => {
            let dir = rest.first().ok_or(UsageError::Usage)?;
            if rest.len() > 1 {
                return Err(UsageError::Usage);
            }
            let (store, _) = Store::open(dir).map_err(|e| e.to_string())?;
            let v = store.verify().map_err(|e| e.to_string())?;
            out!("{}", v.render());
            if !v.clean() {
                return Err(UsageError::Message(format!(
                    "store {dir} has damage: {} corrupt record(s), {} torn segment(s)",
                    v.corrupt, v.torn_segments
                )));
            }
            Ok(())
        }
        _ => Err(UsageError::Usage),
    }
}
