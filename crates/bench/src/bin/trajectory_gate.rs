//! Bench-trajectory sanity gate for the committed `BENCH_*.json` files.
//!
//! Reads one or more mmlp-bench-json-v1 files (paths as arguments,
//! default `BENCH_core.json`) and fails — non-zero exit, one line per
//! violated invariant — unless the committed medians keep the orderings
//! this repo's perf story rests on. The rule set is picked per file
//! from its name:
//!
//! `BENCH_core.json`:
//!
//! 2. `view-eval-t/memoized/R` ≤ 5 × `view-eval-t/central/R` at
//!    R ∈ {3, 4} — the `t_u` replay (`TreeBound::t`) over the gathered
//!    views, memoised per shared subtree, stays within a small factor
//!    of the centralized replay over the special form's same agents,
//!    measured in the same run;
//! 3. `distributed-solve/flat/R` ≤ 32 × `distributed-solve/central/R`
//!    at R ∈ {3, 4} — the whole flat network simulation (gather, `t`
//!    batch, flood, `g±`) stays within a fixed factor of the
//!    centralized solve it reproduces bit for bit, measured in the
//!    same run;
//! 4. `obs-overhead/traced/R` ≤ 1.03 × `obs-overhead/plain/R` and
//!    `obs-overhead/journaled/R` ≤ 1.03 × `obs-overhead/plain/R` at
//!    R ∈ {3, 4} — instrumenting the flat hot path, and additionally
//!    building + journaling the per-request span tree, must cost at
//!    most 3% end to end (the `specs/OBSERVABILITY.md` overhead
//!    contract). These two are compared on **min** per-iteration time
//!    rather than median: scheduler noise is one-sided (it only ever
//!    inflates a sample), and a 3% margin is far below the median
//!    jitter of a shared machine, so the minimum — the least-disturbed
//!    iteration of each variant — is the honest basis for a tight
//!    same-workload ratio.
//!
//! 4a. `t_u-all-agents/replay/3` ≤ 0.5 × `t_u-all-agents/bisect/3` — the
//!     replayed `t_u` search (`TreeBound::t`) must cost at most half the
//!     plain bisection whose bits it reproduces, both timed over every
//!     agent of the same instance in the same run.
//!
//! `BENCH_serve.json`:
//!
//! 5. `serve_cache/warm_hit/n` < `serve_cache/cold_solve/n` at every
//!    benchmarked size — the result cache must pay for itself;
//! 6. `serve_cache/warm_hit/64` ≤ 4 × `serve_cache/warm_hit/16` — the
//!    hit path is a key probe, O(1) in instance size;
//!
//! 6a. `serve_cache/cold_solve/n` ≤ 1.5 × `serve_cache/central_solve/n`
//! at every benchmarked size — a cold `SOLVE` costs the centralized
//! solve of its instance plus rendering, measured in the same run, so
//! the rule holds on any host and fails if serve ever runs a slower
//! solver path (the flat network path costs about 9× here);
//!
//! 11. `serve_cache/special_form/<f>` ≤ 1.5 × `serve_cache/parse/<f>`
//!     for every catalog family `f` at 64 agents (a `/` in a family
//!     name becomes `-`) — the §4 transform of a cold `SOLVE` costs at
//!     most half again the text parse of the same instance, measured in
//!     the same run. Building the five §4 steps' instances one after
//!     another cost 2.5–7× the parse; the one-pass build costs well
//!     under 1×.
//!
//! 11a. `serve_cache/hash/<f>` ≤ 0.1 × `serve_cache/parse/<f>` for
//!     every catalog family `f` at 64 agents — the content hash of a
//!     cold `SOLVE inline:` (hash v2, over the parsed structure) costs
//!     at most a tenth of the text parse it follows, measured in the
//!     same run. Hashing a re-rendered canonical text (hash v1: render
//!     plus FNV-1a) cost more than the parse on 7 of the 8 families.
//!
//! 12. `serve_cache/pool_round_trip/timeout` ≤ 1.5 ×
//!     `serve_cache/pool_round_trip/no_timeout` — one empty task through
//!     the worker pool to its completion callback costs about the same
//!     with serve's default 30 s timeout as with none, measured in the
//!     same run: the timeout is one watchdog thread per pool, not a
//!     thread per task.
//!
//! 14. `serve_cache/hash_miss/64` ≤ 1.25 × `serve_cache/cold_solve/64`
//!     — a `SOLVE hash:` that misses the result cache (`Engine::fetch`
//!     of the stored instance, then `execute`) costs at most a quarter
//!     more than the same solve of an instance in hand, measured in the
//!     same run: the instance store holds codec records, and decoding
//!     one costs a few µs against a 67–87 µs solve (about 1.05×). A
//!     store of canonical texts, re-parsed per miss, reads about 1.4×.
//!
//! `BENCH_delta.json` (the §1.3 dynamic corollary, measured):
//!
//! 7. `delta-solve/edit-rR/n` < `delta-solve/scratch-rR/n` at every
//!    grid point — an incremental repair must beat starting over;
//! 8. `delta-solve/edit-r2/n` ≤ `delta-solve/edit-r3/n` — repair cost
//!    grows with the edit ball;
//! 9. edit cost grows strictly slower than scratch cost across the
//!    size axis (`edit·256 / edit·64 < scratch·256 / scratch·64`,
//!    cross-multiplied) — delta cost tracks the ball, not the instance;
//!    and `delta-solve/edit-r2/1024` ≤ 2 × `delta-solve/edit-r2/256`
//!    (it reads about 0.7×), so an O(n) pass inside the repair kernel
//!    fails even where it leaves the 64 → 256 growth under 3.5× (one
//!    FNV-1a pass over the canonical text per edit reads 3.5×);
//! 10. `delta-solve/request-r2/n` ≤ `delta-solve/edit-r2/n` + 10 ×
//!     `delta-solve/warm-r2/n` at n ∈ {256, 1024} — the whole
//!     `SOLVE_DELTA inline:` request (delta parse, repair, revision
//!     hash, x-line refresh, body render, lineage record, cache insert)
//!     costs what it cannot avoid: its dirty ball (`edit-r2/n`, which
//!     also swaps the edited row's hash term) plus the O(n) copying and
//!     formatting of its reply and a few microseconds of fixed
//!     bookkeeping, together gated at ten body renders (`warm-r2/n`,
//!     the body of a parked revision) measured in the same run. The
//!     request reads 4.5–6 renders above its repair at 256 agents and
//!     2.4–2.9 at 1 024; with one FNV-1a pass over the revision's
//!     canonical text per edit (the v1 identity) put back, it read 17
//!     and 16, so that pass fails at both sizes. Size 64 is reported
//!     but not gated. Rule 9 is not applied to `request-*`: the reply
//!     keeps it linear in n, and a growth-ratio test on a linear cost
//!     flips on noise.
//!
//! `BENCH_store.json`:
//!
//! 13. `store_open/warm_start/n` ≤ 2 × `store_open/open/n` at
//!     n ∈ {256, 1024} — a server's boot over a store of n instance
//!     records and n result bodies (`Engine::open_store`) costs at most
//!     twice the bare `Store::open` of the same store, measured in the
//!     same run: the warm start copies result bodies out of the bytes
//!     the open scan has just read and verified, and decodes no
//!     instance record. Decoding every instance at boot, each read back
//!     with a seek and a second checksum, fails it.
//!
//! CI runs this against the **committed** files (not a fresh run), so
//! the gate is deterministic: it catches a PR committing numbers that
//! lose an ordering, not machine noise. The procedure for regenerating
//! a file honestly is the "how to claim a speedup" checklist in
//! `specs/PERF.md`.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Extracts `"name" → (median_ns, min_ns)` from an mmlp-bench-json-v1
/// document (the shim's line-per-entry layout; no JSON dependency
/// needed).
fn parse_entries(doc: &str) -> BTreeMap<String, (u64, u64)> {
    let field = |rest: &str, key: &str| -> Option<u64> {
        let at = rest.find(key)?;
        let digits: String = rest[at + key.len()..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        digits.parse().ok()
    };
    let mut out = BTreeMap::new();
    for line in doc.lines() {
        let t = line.trim();
        let Some(rest) = t.strip_prefix("{\"name\": \"") else {
            continue;
        };
        let Some(name_end) = rest.find('"') else {
            continue;
        };
        let name = &rest[..name_end];
        let Some(median) = field(rest, "\"median_ns\": ") else {
            continue;
        };
        let min = field(rest, "\"min_ns\": ").unwrap_or(median);
        out.insert(name.to_string(), (median, min));
    }
    out
}

/// Rule helpers over one file's medians (and minima, for the tight
/// ratio contracts), accumulating failures.
struct Gate<'a> {
    medians: &'a BTreeMap<String, u64>,
    mins: &'a BTreeMap<String, u64>,
    failures: &'a mut Vec<String>,
}

impl Gate<'_> {
    /// `fast` must be strictly faster than (or, with `strict` off, no
    /// slower than) `slow`; both entries must exist when `required`.
    fn check(&mut self, fast: &str, slow: &str, strict: bool, required: bool) {
        match (self.medians.get(fast), self.medians.get(slow)) {
            (Some(&f), Some(&s)) => {
                let ok = if strict { f < s } else { f <= s };
                if !ok {
                    self.failures.push(format!(
                        "{fast} ({f} ns) must be {} {slow} ({s} ns)",
                        if strict { "<" } else { "≤" }
                    ));
                }
            }
            _ if required => {
                self.failures
                    .push(format!("missing entries: need both {fast} and {slow}"));
            }
            _ => {}
        }
    }

    /// `name` ≤ (num/den) × `base`, in exact integer arithmetic; both
    /// entries required.
    fn check_ratio(&mut self, name: &str, base: &str, num: u64, den: u64) {
        match (self.medians.get(name), self.medians.get(base)) {
            (Some(&n), Some(&b)) => {
                if n * den > b * num {
                    self.failures.push(format!(
                        "{name} ({n} ns) must be ≤ {num}/{den} × {base} ({b} ns)"
                    ));
                }
            }
            _ => self
                .failures
                .push(format!("missing entries: need both {name} and {base}")),
        }
    }

    /// `name` ≤ `base` + k × `extra`; all three entries required.
    fn check_sum(&mut self, name: &str, base: &str, extra: &str, k: u64) {
        match (
            self.medians.get(name),
            self.medians.get(base),
            self.medians.get(extra),
        ) {
            (Some(&n), Some(&b), Some(&e)) => {
                if n > b + k * e {
                    self.failures.push(format!(
                        "{name} ({n} ns) must be ≤ {base} ({b} ns) + {k} × {extra} ({e} ns)"
                    ));
                }
            }
            _ => self
                .failures
                .push(format!("missing entries: need {name}, {base} and {extra}")),
        }
    }

    /// Like [`Gate::check_ratio`], but over **min** per-iteration time
    /// — the basis for margins tighter than median machine jitter.
    fn check_ratio_min(&mut self, name: &str, base: &str, num: u64, den: u64) {
        match (self.mins.get(name), self.mins.get(base)) {
            (Some(&n), Some(&b)) => {
                if n * den > b * num {
                    self.failures.push(format!(
                        "{name} (min {n} ns) must be ≤ {num}/{den} × {base} (min {b} ns)"
                    ));
                }
            }
            _ => self
                .failures
                .push(format!("missing entries: need both {name} and {base}")),
        }
    }
}

fn gate_core(g: &mut Gate) {
    // The flat path against the centralized solver, same run.
    for big_r in [3u32, 4] {
        g.check_ratio(
            &format!("view-eval-t/memoized/{big_r}"),
            &format!("view-eval-t/central/{big_r}"),
            5,
            1,
        );
        g.check_ratio(
            &format!("distributed-solve/flat/{big_r}"),
            &format!("distributed-solve/central/{big_r}"),
            32,
            1,
        );
    }
    // The 3% observability-overhead contract: traced·100 ≤ plain·103,
    // and the full per-request span-tree + journal-emit path stays
    // inside the same envelope.
    for big_r in [3u32, 4] {
        for variant in ["traced", "journaled"] {
            g.check_ratio_min(
                &format!("obs-overhead/{variant}/{big_r}"),
                &format!("obs-overhead/plain/{big_r}"),
                103,
                100,
            );
        }
    }
    // The replayed t_u search against the bisection it reproduces.
    g.check_ratio("t_u-all-agents/replay/3", "t_u-all-agents/bisect/3", 1, 2);
}

fn gate_serve(g: &mut Gate) {
    for size in [16u32, 64] {
        g.check(
            &format!("serve_cache/warm_hit/{size}"),
            &format!("serve_cache/cold_solve/{size}"),
            true,
            true,
        );
    }
    // The hit path is a key build + LRU probe: O(1) in instance size.
    g.check_ratio("serve_cache/warm_hit/64", "serve_cache/warm_hit/16", 4, 1);
    // A cold solve is the centralized solve plus rendering.
    for size in [16u32, 64] {
        g.check_ratio(
            &format!("serve_cache/cold_solve/{size}"),
            &format!("serve_cache/central_solve/{size}"),
            3,
            2,
        );
    }
    // A stored instance costs a decode, not a parse, to solve.
    g.check_ratio(
        "serve_cache/hash_miss/64",
        "serve_cache/cold_solve/64",
        5,
        4,
    );
    // §4 costs at most 1.5 × the text parse of the same instance, the
    // content hash at most 0.1 ×.
    for fam in mmlp_gen::catalog() {
        let name = fam.name.replace('/', "-");
        let parse = format!("serve_cache/parse/{name}");
        g.check_ratio(&format!("serve_cache/special_form/{name}"), &parse, 3, 2);
        g.check_ratio(&format!("serve_cache/hash/{name}"), &parse, 1, 10);
    }
    // A timeout costs the pool hand-off no thread per task.
    g.check_ratio(
        "serve_cache/pool_round_trip/timeout",
        "serve_cache/pool_round_trip/no_timeout",
        3,
        2,
    );
}

fn gate_delta(g: &mut Gate) {
    for big_r in [2u32, 3] {
        for size in [64u32, 256] {
            g.check(
                &format!("delta-solve/edit-r{big_r}/{size}"),
                &format!("delta-solve/scratch-r{big_r}/{size}"),
                true,
                true,
            );
        }
        // Flat in instance size: 4× the agents may cost the repair at
        // most 3.5× (BFS bookkeeping), while scratch grows ~linearly.
        g.check_ratio(
            &format!("delta-solve/edit-r{big_r}/256"),
            &format!("delta-solve/edit-r{big_r}/64"),
            7,
            2,
        );
        // And strictly slower growth than from-scratch, cross-multiplied:
        // edit256 · scratch64 < scratch256 · edit64.
        let name = |kind: &str, size: u32| format!("delta-solve/{kind}-r{big_r}/{size}");
        match (
            g.medians.get(&name("edit", 256)),
            g.medians.get(&name("scratch", 64)),
            g.medians.get(&name("scratch", 256)),
            g.medians.get(&name("edit", 64)),
        ) {
            (Some(&e256), Some(&s64), Some(&s256), Some(&e64)) => {
                if e256 * s64 >= s256 * e64 {
                    g.failures.push(format!(
                        "delta repair must scale slower than scratch at R={big_r}: \
                         edit 64→256 grew {e64}→{e256} ns vs scratch {s64}→{s256} ns"
                    ));
                }
            }
            _ => g
                .failures
                .push(format!("missing delta-solve entries at R={big_r}")),
        }
    }
    // The repair stays flat up to delta-edit's ~1000-agent bases.
    g.check_ratio("delta-solve/edit-r2/1024", "delta-solve/edit-r2/256", 2, 1);
    for size in [64u32, 256] {
        g.check(
            &format!("delta-solve/edit-r2/{size}"),
            &format!("delta-solve/edit-r3/{size}"),
            false,
            true,
        );
    }
    for size in [256u32, 1024] {
        g.check_sum(
            &format!("delta-solve/request-r2/{size}"),
            &format!("delta-solve/edit-r2/{size}"),
            &format!("delta-solve/warm-r2/{size}"),
            10,
        );
    }
}

fn gate_store(g: &mut Gate) {
    for size in [256u32, 1024] {
        g.check_ratio(
            &format!("store_open/warm_start/{size}"),
            &format!("store_open/open/{size}"),
            2,
            1,
        );
    }
}

fn main() -> ExitCode {
    let mut paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        paths.push("BENCH_core.json".into());
    }

    let mut failures = Vec::new();
    let mut entries = 0usize;
    for path in &paths {
        let doc = match std::fs::read_to_string(path) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("trajectory-gate: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let parsed = parse_entries(&doc);
        if parsed.is_empty() {
            eprintln!("trajectory-gate: no benchmark entries in {path}");
            return ExitCode::FAILURE;
        }
        entries += parsed.len();
        let medians: BTreeMap<String, u64> = parsed.iter().map(|(k, v)| (k.clone(), v.0)).collect();
        let mins: BTreeMap<String, u64> = parsed.iter().map(|(k, v)| (k.clone(), v.1)).collect();
        let mut g = Gate {
            medians: &medians,
            mins: &mins,
            failures: &mut failures,
        };
        let stem = path.rsplit('/').next().unwrap_or(path);
        match stem {
            s if s.contains("core") => gate_core(&mut g),
            s if s.contains("serve") => gate_serve(&mut g),
            s if s.contains("delta") => gate_delta(&mut g),
            s if s.contains("store") => gate_store(&mut g),
            _ => {}
        }
    }

    if failures.is_empty() {
        println!(
            "trajectory-gate: {} OK ({entries} entries)",
            paths.join(" ")
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("trajectory-gate: FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::parse_entries;

    #[test]
    fn a_host_stamped_document_parses_to_the_same_entries() {
        let entries = "  \"benchmarks\": [\n    \
             {\"name\": \"delta-solve/warm-r2/64\", \"median_ns\": 5000, \"min_ns\": 4900, \"max_ns\": 6000},\n    \
             {\"name\": \"delta-solve/edit-r2/64\", \"median_ns\": 800, \"min_ns\": 700, \"max_ns\": 900}\n  \
             ]\n}\n";
        let plain = format!("{{\n  \"schema\": \"mmlp-bench-json-v1\",\n{entries}");
        let stamped = format!(
            "{{\n  \"schema\": \"mmlp-bench-json-v1\",\n  \
             \"host\": {{\"nproc\": 2, \"rustc\": \"rustc 1.95.0 (59807616e 2026-04-14)\", \
             \"unix_s\": 1792298435}},\n{entries}"
        );
        let parsed = parse_entries(&stamped);
        assert_eq!(parsed, parse_entries(&plain));
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed["delta-solve/warm-r2/64"], (5000, 4900));
    }
}
