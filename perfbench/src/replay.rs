//! The in-process half of the traced run: a single-threaded replay of
//! the workload's requests through the public functions of each layer,
//! in the order the server calls them, with one span per call.

use crate::trace::Recorder;
use crate::workload::{Chain, Solve, WarmInputs, DELTA_R};
use mmlp_core::distributed::solve_special_flat_traced;
use mmlp_core::dynamic::DynamicSolver;
use mmlp_core::smoothing::solve_special;
use mmlp_core::transform::to_special_form;
use mmlp_core::SpecialForm;
use mmlp_instance::delta::Delta;
use mmlp_instance::{instance_hash, textfmt, ConstraintId};
use mmlp_serve::engine::{execute, CacheKey, Engine};
use mmlp_serve::protocol::{parse_command, Op, Reply};
use mmlp_serve::server::ServeConfig;
use mmlp_store::Store;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Calls per span for the nanosecond-scale entry points.
const BATCH: u32 = 64;

/// Name of every request's root span.
const REQUEST: &str = "request";

/// What a replay measured.
#[derive(Default)]
pub struct Replay {
    /// Requests replayed.
    pub requests: usize,
    /// Self time per layer span name, summed over the replayed
    /// requests, in ns (reference spans outside a request included).
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Per-call duration per span name, children included, summed the
    /// same way.
    pub total_ns: BTreeMap<&'static str, u64>,
    /// In-process cost of each replayed request: the summed per-call
    /// durations of its root's children, in ns.
    pub request_ns: Vec<u64>,
    /// Flat (served) and centralized §5 solve times per
    /// `(family, R)`: `(flat ns, central ns, solves)`.
    pub solves: BTreeMap<(usize, usize), (u64, u64, u64)>,
    /// Warm-hit store facts: open and warm-start times (ns), records,
    /// segment bytes.
    pub store: Option<StoreFacts>,
}

/// What opening the warm-hit store in-process cost.
pub struct StoreFacts {
    /// `Store::open`, in ns.
    pub open_ns: u64,
    /// `Engine::with_store`, in ns.
    pub warm_start_ns: u64,
    /// Live records indexed at open.
    pub records: usize,
    /// Segment bytes on disk.
    pub segment_bytes: u64,
}

impl Replay {
    fn from(rec: &Recorder, requests: usize) -> Replay {
        let selfs = rec.self_times();
        let mut self_ns = BTreeMap::new();
        let mut total_ns = BTreeMap::new();
        let mut request_ns = vec![0u64; rec.spans.len()];
        for (i, s) in rec.spans.iter().enumerate() {
            if s.name != REQUEST {
                *self_ns.entry(s.name).or_insert(0) += selfs[i];
                *total_ns.entry(s.name).or_insert(0) += s.duration_ns();
            }
            if let Some(p) = s.parent.filter(|&p| rec.spans[p].name == REQUEST) {
                request_ns[p] += s.duration_ns();
            }
        }
        let request_ns = rec
            .spans
            .iter()
            .zip(request_ns)
            .filter(|(s, _)| s.name == REQUEST)
            .map(|(_, ns)| ns)
            .collect();
        Replay {
            requests,
            self_ns,
            total_ns,
            request_ns,
            ..Replay::default()
        }
    }
}

fn engine() -> Engine {
    let cfg = ServeConfig::default();
    Engine::new(cfg.cache_bytes, cfg.store_bytes)
}

/// Replays the first `n` cold-solve requests: wire parse, `PUT` of the
/// inline text, cache probe, the solve and its parts, cache insert and
/// reply framing. The centralized solve of the same special form runs
/// beside each request, outside it, as the reference.
pub fn cold(requests: &[Solve], n: usize, rec: &mut Recorder) -> Result<Replay, String> {
    let engine = engine();
    let mut solves: BTreeMap<(usize, usize), (u64, u64, u64)> = BTreeMap::new();
    let requests = &requests[..n.min(requests.len())];
    for (i, s) in requests.iter().enumerate() {
        let req = i as u64;
        let root = rec.open(REQUEST, None, req);
        let line = format!("SOLVE inline:{} R={}", s.text.len(), s.big_r);
        rec.batch("protocol.parse_command", Some(root), req, BATCH, || {
            let _ = black_box(parse_command(black_box(&line)));
        });
        let (put, hash) = rec.time("engine.put", Some(root), req, || engine.put(&s.text));
        let hash = hash.map_err(|e| format!("replay put: {e:?}"))?;
        let (_, inst) = rec.time("textfmt.parse", Some(put), req, || {
            textfmt::parse_instance(&s.text)
        });
        let inst = inst.map_err(|e| format!("replay parse: {e}"))?;
        let (h, _) = rec.time("hash.instance", Some(put), req, || instance_hash(&inst));
        rec.time("textfmt.write", Some(h), req, || {
            textfmt::write_instance(&inst)
        });
        let key = CacheKey::new(hash, Op::Solve, s.big_r, 1);
        rec.batch("cache.probe", Some(root), req, BATCH, || {
            black_box(engine.cached(black_box(&key)));
        });
        let (exec, body) = rec.time("engine.execute", Some(root), req, || {
            execute(Op::Solve, &inst, s.big_r, 1)
        });
        let body = Arc::new(body?);
        let (_, tf) = rec.time("transform.special_form", Some(exec), req, || {
            to_special_form(&inst)
        });
        let sf = SpecialForm::new(tf.instance.clone()).map_err(|e| e.to_string())?;
        let (flat, (run, _, phases)) = rec.time("distributed.solve", Some(exec), req, || {
            solve_special_flat_traced(&sf, s.big_r, 1)
        });
        let mut at = rec.spans[flat].start_ns;
        for (name, ns) in [
            ("distributed.gather", phases.gather_ns),
            ("distributed.t_eval", phases.t_eval_ns),
            ("distributed.flood", phases.flood_ns),
            ("distributed.g", phases.g_ns),
        ] {
            rec.push(name, Some(flat), req, at, at + ns, 1);
            at += ns;
        }
        rec.time("transform.map_back", Some(exec), req, || {
            tf.map_back(&run.x)
        });
        rec.batch("cache.insert", Some(root), req, 8, || {
            engine.insert(key, Arc::clone(&body));
        });
        rec.batch("protocol.to_wire", Some(root), req, BATCH, || {
            black_box(Reply::Ok(body.as_ref().clone()).to_wire());
        });
        rec.close(root);
        let (central, _) = rec.time("smoothing.solve", None, req, || {
            solve_special(&sf, s.big_r, 1)
        });
        let e = solves.entry((s.family, s.big_r)).or_default();
        e.0 += rec.spans[flat].duration_ns();
        e.1 += rec.spans[central].duration_ns();
        e.2 += 1;
    }
    Ok(Replay {
        solves,
        ..Replay::from(rec, requests.len())
    })
}

/// Opens the warm-hit store in-process (timing the open and the warm
/// start), then replays the first `n` picks: wire parse, the two cache
/// probes of a hit (instance store, then result cache) and the framing
/// of a copy of the cached body.
pub fn warm(
    inputs: &WarmInputs,
    dir: &Path,
    n: usize,
    rec: &mut Recorder,
) -> Result<Replay, String> {
    let cfg = ServeConfig::default();
    let t = Instant::now();
    let (store, report) = Store::open(dir).map_err(|e| format!("open store: {e}"))?;
    let open_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let engine = Engine::with_store(cfg.cache_bytes, cfg.store_bytes, store)
        .map_err(|e| format!("warm start: {e}"))?;
    let warm_start_ns = t.elapsed().as_nanos() as u64;
    let segment_bytes = std::fs::read_dir(dir)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    let picks = &inputs.picks[..n.min(inputs.picks.len())];
    for (i, &k) in picks.iter().enumerate() {
        let req = i as u64;
        let key_in = &inputs.keys[k as usize].solve;
        let root = rec.open(REQUEST, None, req);
        let line = format!("SOLVE hash:{:016x} R={}", key_in.hash, key_in.big_r);
        rec.batch("protocol.parse_command", Some(root), req, BATCH, || {
            let _ = black_box(parse_command(black_box(&line)));
        });
        let key = CacheKey::new(key_in.hash, Op::Solve, key_in.big_r, 1);
        let body = engine
            .cached(&key)
            .ok_or_else(|| format!("replay: key {k} is not warm in-process"))?;
        rec.batch("cache.probe", Some(root), req, BATCH, || {
            let _ = black_box(engine.fetch(black_box(key.instance)));
            black_box(engine.cached(black_box(&key)));
        });
        rec.batch("protocol.to_wire", Some(root), req, BATCH, || {
            black_box(Reply::Ok(body.as_ref().clone()).to_wire());
        });
        rec.close(root);
    }
    Ok(Replay {
        store: Some(StoreFacts {
            open_ns,
            warm_start_ns,
            records: report.instances + report.results,
            segment_bytes,
        }),
        ..Replay::from(rec, picks.len())
    })
}

/// Replays the first `n` edits of every chain, starting from the same
/// set-up the server gets (bases stored, one solver booted per chain):
/// wire parse, `PUT_DELTA` and its parts, cache probe, `SOLVE_DELTA`
/// and its parts, cache insert and reply framing. The dynamic solver's
/// parts run on two shadow solvers that follow the same chain: one
/// through `apply_delta`, one through the hash-free repair alone.
pub fn delta(chains: &[Chain], n: usize, rec: &mut Recorder) -> Result<Replay, String> {
    let engine = engine();
    let mut replayed = 0;
    for (c, chain) in chains.iter().enumerate() {
        engine
            .put(&chain.base_text)
            .map_err(|e| format!("replay put base: {e:?}"))?;
        engine
            .solve_delta(chain.base_hash, DELTA_R, 1)
            .map_err(|e| format!("replay boot: {e:?}"))?;
        let shadow =
            || SpecialForm::new(chain.base.clone()).map(|sf| DynamicSolver::new(sf, DELTA_R, 1));
        let mut applied = shadow().map_err(|e| e.to_string())?;
        let mut repaired = shadow().map_err(|e| e.to_string())?;
        let mut cur = chain.base.clone();
        for (i, e) in chain.edits.iter().take(n).enumerate() {
            let req = (c * 1_000_000 + i) as u64;
            let root = rec.open(REQUEST, None, req);
            let line = format!("SOLVE_DELTA inline:{} R={DELTA_R}", e.text.len());
            rec.batch("protocol.parse_command", Some(root), req, BATCH, || {
                let _ = black_box(parse_command(black_box(&line)));
            });
            let (put, lineage) = rec.time("coordinator.put_delta", Some(root), req, || {
                engine.put_delta(&e.text)
            });
            let lineage = lineage.map_err(|e| format!("replay put_delta: {e:?}"))?;
            let (_, delta) = rec.time("delta.parse", Some(put), req, || Delta::parse_text(&e.text));
            let delta = delta.map_err(|e| e.to_string())?;
            let (apply, next) = rec.time("delta.apply_hashed", Some(put), req, || {
                delta.apply_hashed(&cur)
            });
            let (next, _) = next.map_err(|e| e.to_string())?;
            for inst in [&cur, &next] {
                let (h, _) = rec.time("hash.instance", Some(apply), req, || instance_hash(inst));
                rec.time("textfmt.write", Some(h), req, || {
                    textfmt::write_instance(inst)
                });
            }
            rec.time("textfmt.write", Some(put), req, || {
                textfmt::write_instance(&next)
            });
            let key = CacheKey::new(lineage.new, Op::SolveDelta, DELTA_R, 1);
            rec.batch("cache.probe", Some(root), req, BATCH, || {
                black_box(engine.cached(black_box(&key)));
            });
            let (solve, body) = rec.time("coordinator.solve_delta", Some(root), req, || {
                engine.solve_delta(lineage.new, DELTA_R, 1)
            });
            let (body, _) = body.map_err(|e| format!("replay solve_delta: {e:?}"))?;
            let _ = rec.time("delta.parse", Some(solve), req, || {
                Delta::parse_text(&e.text)
            });
            let (dyn_apply, report) = rec.time("dynamic.apply_delta", Some(solve), req, || {
                applied.apply_delta(&delta)
            });
            report.map_err(|e| e.to_string())?;
            let (h, _) = rec.time("hash.instance", Some(dyn_apply), req, || {
                instance_hash(&cur)
            });
            rec.time("textfmt.write", Some(h), req, || {
                textfmt::write_instance(&cur)
            });
            let row = ConstraintId::new(e.row);
            let coefs: [f64; 2] = next
                .constraint_row(row)
                .iter()
                .map(|entry| entry.coef)
                .collect::<Vec<_>>()
                .try_into()
                .map_err(|_| format!("constraint {} is not a special-form pair", e.row))?;
            rec.time("dynamic.repair", Some(dyn_apply), req, || {
                repaired.update_constraint_coefs(row, coefs)
            });
            let body = Arc::new(body);
            rec.batch("cache.insert", Some(root), req, 8, || {
                engine.insert(key, Arc::clone(&body));
            });
            rec.batch("protocol.to_wire", Some(root), req, BATCH, || {
                black_box(Reply::Ok(body.as_ref().clone()).to_wire());
            });
            rec.close(root);
            cur = next;
            replayed += 1;
        }
    }
    Ok(Replay::from(rec, replayed))
}

/// Mean time per replayed request of span `name`, in `unit_ns`: its
/// self time, or with `inclusive` its whole duration.
pub fn per_request(r: &Replay, name: &str, unit_ns: f64, inclusive: bool) -> f64 {
    let sums = if inclusive { &r.total_ns } else { &r.self_ns };
    let total = sums.get(name).copied().unwrap_or(0);
    if r.requests == 0 {
        return 0.0;
    }
    total as f64 / r.requests as f64 / unit_ns
}
