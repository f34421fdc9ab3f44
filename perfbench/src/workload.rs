//! Seeded inputs for each workload, generated before any server starts:
//! the same seed always yields the same request list, and the server
//! only ever sees these generated inputs.

use crate::check::Rows;
use mmlp_instance::delta::{Delta, Edit, RowKind};
use mmlp_instance::{hash_hex, instance_hash, textfmt, ConstraintId, Instance};
use mmlp_serve::engine::execute;
use mmlp_serve::protocol::Op;
use mmlp_store::{ResultKey, Store, StoreConfig};
use std::collections::HashSet;
use std::path::Path;

/// Agents per cold-solve and warm-hit instance (catalog size).
pub const SMALL_SIZE: usize = 64;
/// Catalog size of each delta-edit base (about 1 000 agents).
pub const DELTA_SIZE: usize = 1000;
/// Locality parameter of the delta-edit chains.
pub const DELTA_R: usize = 2;
/// Solved instances in the warm-hit store.
pub const WARM_KEYS: usize = 4096;
/// Requests in flight per connection in warm-hit.
pub const WARM_WINDOW: usize = 8;

/// Requests per second of timed phase that each workload's fixed list
/// is sized for on a 2-vCPU host, so a run's timed phase lasts about
/// `--seconds` there.
fn nominal_rps(w: Workload) -> u64 {
    match w {
        Workload::ColdSolve => 440,
        Workload::WarmHit => 110_000,
        Workload::DeltaEdit => 330,
    }
}

/// The three traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Inline solves of never-repeated instances: every request misses.
    ColdSolve,
    /// Pipelined solves by hash of instances a store warm-started.
    WarmHit,
    /// Per-connection chains of single-coefficient edits.
    DeltaEdit,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::ColdSolve, Workload::WarmHit, Workload::DeltaEdit];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSolve => "cold-solve",
            Workload::WarmHit => "warm-hit",
            Workload::DeltaEdit => "delta-edit",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Length of the fixed request list for a timed phase of about
    /// `seconds` on the reference host.
    pub fn requests(self, seconds: u64) -> usize {
        (seconds.max(1) * nominal_rps(self)) as usize
    }
}

/// SplitMix64: a seeded stream for every random choice the inputs make.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, purpose)`; distinct purposes never share
    /// draws.
    pub fn new(seed: u64, purpose: u64) -> Rng {
        let mut r = Rng(seed ^ purpose.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next();
        r
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }
}

const COLD_STREAM: u64 = 1;
const WARM_STREAM: u64 = 3;
const WARM_PICK_STREAM: u64 = 4;
const DELTA_STREAM: u64 = 5;
const SAMPLE_STREAM: u64 = 6;

/// One instance to solve: what a `SOLVE` request carries and what its
/// reply is checked against.
pub struct Solve {
    /// Catalog family index.
    pub family: usize,
    /// Locality parameter.
    pub big_r: usize,
    /// Canonical instance text.
    pub text: String,
    /// Content hash of `text`.
    pub hash: u64,
    /// Rows for the reply check.
    pub rows: Rows,
}

/// The family names, in catalog order, with `/` made metric-safe.
pub fn family_names() -> Vec<String> {
    mmlp_gen::catalog()
        .iter()
        .map(|f| f.name.replace('/', "-"))
        .collect()
}

/// Instance `i` of a round-robin walk over every catalog family, with R
/// alternating between 2 and 3 on each pass. `seen` holds content
/// hashes already used, and duplicates are redrawn, so no two requests
/// share a cache entry. The `cycle` family ignores its seed, so its
/// coefficient is drawn instead.
fn mixed_instance(
    families: &[mmlp_gen::Family],
    seed: u64,
    stream: u64,
    i: usize,
    seen: &mut HashSet<(u64, usize)>,
) -> Solve {
    let family = i % families.len();
    let big_r = 2 + (i / families.len()) % 2;
    let mut rng = Rng::new(seed ^ (i as u64).wrapping_mul(0x9e37_79b9), stream);
    for _ in 0..64 {
        let inst = match families[family].name {
            "cycle" => mmlp_gen::cycle_special(SMALL_SIZE / 2, rng.uniform(0.5, 2.0)),
            _ => families[family].instance(SMALL_SIZE, rng.next()),
        };
        let text = textfmt::write_instance(&inst);
        let hash = mmlp_instance::fnv1a64(text.as_bytes());
        if seen.insert((hash, big_r)) {
            return Solve {
                family,
                big_r,
                rows: Rows::of(&inst),
                text,
                hash,
            };
        }
    }
    panic!("family {} keeps repeating instances", families[family].name)
}

/// `n` mixed instances from `stream`, generated on `threads` threads.
fn mixed_list(seed: u64, stream: u64, n: usize, threads: usize) -> Vec<Solve> {
    let chunk = n.div_ceil(threads.max(1)).max(1);
    let parts: Vec<Vec<Solve>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|lo| {
                s.spawn(move || {
                    let families = mmlp_gen::catalog();
                    let mut seen = HashSet::new();
                    (lo..(lo + chunk).min(n))
                        .map(|i| mixed_instance(&families, seed, stream, i, &mut seen))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });
    let mut out: Vec<Solve> = parts.into_iter().flatten().collect();
    // Redraws above only see their own chunk; a cross-chunk duplicate
    // (vanishingly rare) is redrawn here, sequentially.
    let families = mmlp_gen::catalog();
    let mut seen = HashSet::new();
    for (i, slot) in out.iter_mut().enumerate() {
        if !seen.insert((slot.hash, slot.big_r)) {
            *slot = mixed_instance(&families, seed, stream, i, &mut seen);
        }
    }
    out
}

/// A seeded sample of `k` distinct indices below `n`, ascending.
pub fn sample_indices(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, SAMPLE_STREAM);
    let mut picked: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = i + rng.below(n - i);
        picked.swap(i, j);
    }
    picked.truncate(k);
    picked.sort_unstable();
    picked
}

/// The cold-solve request list: never-repeated instances, so every
/// request misses the cache.
pub fn cold(seed: u64, n: usize, threads: usize) -> Vec<Solve> {
    mixed_list(seed, COLD_STREAM, n, threads)
}

/// One solved key of the warm-hit store.
pub struct WarmKey {
    /// The instance and its R.
    pub solve: Solve,
    /// The reply body the server must return, byte for byte.
    pub body: String,
}

/// Inputs of the `warm-hit` workload.
pub struct WarmInputs {
    /// The store's keys.
    pub keys: Vec<WarmKey>,
    /// Key index of each timed request, in order.
    pub picks: Vec<u32>,
}

/// Generates and solves the warm-hit keys, checks every body against
/// its instance, and writes instances and bodies into a fresh store at
/// `dir` exactly as a server would have persisted them. Appends are
/// not synced: the store is rebuilt from the seed on every run.
pub fn warm(seed: u64, n: usize, threads: usize, dir: &Path) -> Result<WarmInputs, String> {
    let solves = mixed_list(seed, WARM_STREAM, WARM_KEYS, threads);
    let chunk = solves.len().div_ceil(threads.max(1)).max(1);
    let bodies: Vec<Result<String, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = solves
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|w| {
                            let inst =
                                textfmt::parse_instance(&w.text).map_err(|e| e.to_string())?;
                            let body = execute(Op::Solve, &inst, w.big_r, 1)?;
                            crate::check::check_solve_body(&w.rows, &body)
                                .map_err(|e| format!("warm key {}: {e}", hash_hex(w.hash)))?;
                            Ok(body)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("solver thread"))
            .collect()
    });
    let _ = std::fs::remove_dir_all(dir);
    let (store, _) = Store::open_with(dir, StoreConfig { fsync: false })
        .map_err(|e| format!("open store {}: {e}", dir.display()))?;
    let mut keys = Vec::with_capacity(solves.len());
    for (solve, body) in solves.into_iter().zip(bodies) {
        let body = body?;
        let inst = textfmt::parse_instance(&solve.text).map_err(|e| e.to_string())?;
        let write = store.put_instance(&inst).and_then(|_| {
            store.put_result(
                ResultKey {
                    instance: solve.hash,
                    op: Op::Solve.code(),
                    big_r: solve.big_r as u32,
                    threads: 1,
                },
                &body,
            )
        });
        write.map_err(|e| format!("store append: {e}"))?;
        keys.push(WarmKey { solve, body });
    }
    let mut rng = Rng::new(seed, WARM_PICK_STREAM);
    let picks = (0..n).map(|_| rng.below(keys.len()) as u32).collect();
    Ok(WarmInputs { keys, picks })
}

/// One edit of a delta chain.
pub struct EditStep {
    /// Edited constraint.
    pub row: u32,
    /// Agent whose coefficient changes.
    pub agent: u32,
    /// The new coefficient.
    pub coef: f64,
    /// Canonical delta text, pinned to the previous revision's hash.
    pub text: String,
}

/// One connection's chain of single-coefficient edits.
pub struct Chain {
    /// The special-form base revision.
    pub base: Instance,
    /// Its canonical text (what set-up `PUT`s).
    pub base_text: String,
    /// Its content hash.
    pub base_hash: u64,
    /// The edits, oldest first.
    pub edits: Vec<EditStep>,
    /// Seeded sample of revisions kept whole for the byte comparison
    /// with a from-scratch solve: `(edit index, revision)`.
    pub kept: Vec<(usize, Instance)>,
}

/// Builds chain `c` of `n` edits. Each edit scales one existing
/// constraint coefficient by a factor in `[0.6, 1.8]`, which keeps the
/// instance in special form, so the server repairs it ball-locally.
pub fn chain(seed: u64, c: usize, n: usize, keep: usize) -> Chain {
    let families = mmlp_gen::catalog();
    let special = families
        .iter()
        .find(|f| f.name == "special-form")
        .expect("catalog has special-form");
    let mut rng = Rng::new(
        seed ^ (c as u64 + 1).wrapping_mul(0x632b_e59b),
        DELTA_STREAM,
    );
    let base = special.instance(DELTA_SIZE, rng.next());
    let base_text = textfmt::write_instance(&base);
    let base_hash = instance_hash(&base);
    let kept_at = sample_indices(rng.next(), n, keep);
    let mut cur = base.clone();
    let mut prev = base_hash;
    let mut edits = Vec::with_capacity(n);
    let mut kept = Vec::with_capacity(kept_at.len());
    for i in 0..n {
        let row = ConstraintId::new(rng.below(cur.n_constraints()) as u32);
        let mut coefs: Vec<f64> = cur.constraint_row(row).iter().map(|e| e.coef).collect();
        let slot = rng.below(coefs.len());
        let agent = cur.constraint_row(row)[slot].agent;
        coefs[slot] *= rng.uniform(0.6, 1.8);
        cur.set_constraint_coefs(row, &coefs)
            .expect("scaled coefficients stay positive and finite");
        let revision = instance_hash(&cur);
        let text = Delta::single(
            prev,
            Edit::SetCoef {
                row: RowKind::Constraint,
                row_id: row.raw(),
                agent,
                coef: coefs[slot],
            },
        )
        .to_text();
        if kept_at.binary_search(&i).is_ok() {
            kept.push((i, cur.clone()));
        }
        edits.push(EditStep {
            row: row.raw(),
            agent: agent.raw(),
            coef: coefs[slot],
            text,
        });
        prev = revision;
    }
    Chain {
        base,
        base_text,
        base_hash,
        edits,
        kept,
    }
}

/// The `n_chains` chains of the delta-edit workload, `n_total` edits in
/// all, built on one thread each.
pub fn chains(seed: u64, n_chains: usize, n_total: usize, keep: usize) -> Vec<Chain> {
    let per_chain = n_total.div_ceil(n_chains.max(1));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_chains.max(1))
            .map(|c| s.spawn(move || chain(seed, c, per_chain, keep)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chain thread"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_never_repeat_a_key() {
        let a = mixed_list(7, COLD_STREAM, 40, 2);
        let b = mixed_list(7, COLD_STREAM, 40, 1);
        let c = mixed_list(8, COLD_STREAM, 40, 2);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.text == y.text && x.big_r == y.big_r));
        assert!(a.iter().zip(&c).any(|(x, y)| x.text != y.text));
        let keys: HashSet<_> = a.iter().map(|s| (s.hash, s.big_r)).collect();
        assert_eq!(keys.len(), a.len());
        // Round-robin over all 8 families, each at both R.
        let combos: HashSet<_> = a.iter().take(16).map(|s| (s.family, s.big_r)).collect();
        assert_eq!(combos.len(), 16);
    }

    #[test]
    fn delta_chains_name_the_revision_they_edit() {
        let ch = chain(3, 0, 3, 1);
        assert_eq!(ch.kept.len(), 1);
        let mut cur = ch.base.clone();
        let mut revisions = Vec::new();
        for e in &ch.edits {
            let delta = Delta::parse_text(&e.text).unwrap();
            assert_eq!(delta.base, instance_hash(&cur));
            let (next, lineage) = delta.apply_hashed(&cur).unwrap();
            revisions.push(lineage.new);
            cur = next;
        }
        let (i, kept) = &ch.kept[0];
        assert_eq!(instance_hash(kept), revisions[*i]);
    }

    #[test]
    fn samples_are_distinct_sorted_and_seeded() {
        let s = sample_indices(1, 100, 10);
        assert_eq!(s.len(), 10);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(s, sample_indices(1, 100, 10));
        assert_eq!(sample_indices(1, 3, 10), vec![0, 1, 2]);
    }
}
