//! The timed phase: one thread and one connection per core, each a
//! closed loop that waits for its replies, and a check of every reply.

use crate::check::{check_solve_body, Rows};
use crate::wire::{Conn, Reply};
use crate::workload::{Chain, Solve, WarmInputs, DELTA_R, WARM_WINDOW};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Failure messages kept per run; the rest are only counted.
const KEEP_FAILURES: usize = 8;

/// What one timed phase produced.
#[derive(Default)]
pub struct Outcome {
    /// Requests in the fixed list.
    pub attempted: u64,
    /// Replies received, verified or not.
    pub replies: u64,
    /// Client-observed latency of each verified reply, in ns.
    pub latency_ns: Vec<u64>,
    /// When each verified reply completed, in ns from the phase start.
    pub done_ns: Vec<u64>,
    /// First few failure messages.
    pub failures: Vec<String>,
    /// Bodies kept for the byte comparison with a reference:
    /// `(connection, request index, body)`.
    pub kept: Vec<(usize, usize, String)>,
    /// Phase wall time, in ns.
    pub wall_ns: u64,
}

impl Outcome {
    /// Verified `OK` replies.
    pub fn ok(&self) -> u64 {
        self.latency_ns.len() as u64
    }

    /// Requests that did not end in a verified `OK`.
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok()
    }

    fn fail(&mut self, msg: String) {
        if self.failures.len() < KEEP_FAILURES {
            self.failures.push(msg);
        }
    }

    fn merge(parts: Vec<Outcome>, attempted: usize, wall_ns: u64) -> Outcome {
        let mut out = Outcome {
            attempted: attempted as u64,
            wall_ns,
            ..Outcome::default()
        };
        for p in parts {
            out.replies += p.replies;
            out.latency_ns.extend(p.latency_ns);
            out.done_ns.extend(p.done_ns);
            for f in p.failures {
                out.fail(f);
            }
            out.kept.extend(p.kept);
        }
        out
    }

    /// Records one reply: verified by `check` when it is an `OK`.
    fn reply(
        &mut self,
        start: Instant,
        sent: Instant,
        reply: std::io::Result<Reply>,
        body: &[u8],
        check: impl FnOnce(&str) -> Result<(), String>,
    ) -> bool {
        let done = Instant::now();
        match reply {
            Ok(Reply::Ok) => {
                self.replies += 1;
                let verdict = std::str::from_utf8(body)
                    .map_err(|_| "non-UTF-8 body".to_string())
                    .and_then(check);
                match verdict {
                    Ok(()) => {
                        self.latency_ns.push((done - sent).as_nanos() as u64);
                        self.done_ns.push((done - start).as_nanos() as u64);
                    }
                    Err(e) => self.fail(e),
                }
                true
            }
            Ok(Reply::Err(line)) => {
                self.replies += 1;
                self.fail(line);
                true
            }
            Err(e) => {
                self.fail(format!("transport: {e}"));
                false
            }
        }
    }
}

/// `cold-solve`: every connection takes the next request off the shared
/// list, sends it inline and waits for the reply. Bodies of the
/// requests in `keep` (ascending) are kept.
pub fn cold(conns: &mut [Conn], requests: &[Solve], keep: &[usize]) -> Outcome {
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let cursor = &cursor;
                s.spawn(move || {
                    let mut out = Outcome::default();
                    let mut body = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = requests.get(i) else { break };
                        let line = format!("SOLVE inline:{} R={}", req.text.len(), req.big_r);
                        let sent = Instant::now();
                        let reply = conn
                            .send(&line, Some(req.text.as_bytes()))
                            .and_then(|()| conn.flush())
                            .and_then(|()| conn.recv(&mut body));
                        let alive = out.reply(start, sent, reply, &body, |b| {
                            check_solve_body(&req.rows, b).map_err(|e| format!("request {i}: {e}"))
                        });
                        if !alive {
                            break;
                        }
                        if keep.binary_search(&i).is_ok() {
                            out.kept
                                .push((c, i, String::from_utf8_lossy(&body).into_owned()));
                        }
                    }
                    (out, start.elapsed())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect::<Vec<_>>()
    });
    finish(parts, requests.len())
}

/// `warm-hit`: connection `c` sends every `conns.len()`-th pick by
/// hash, keeping `WARM_WINDOW` requests in flight, and compares each
/// reply with the key's body byte for byte (the bodies themselves were
/// checked against their instances when the store was filled).
pub fn warm(conns: &mut [Conn], inputs: &WarmInputs) -> Outcome {
    let lines: Vec<String> = inputs
        .keys
        .iter()
        .map(|k| format!("SOLVE hash:{:016x} R={}", k.solve.hash, k.solve.big_r))
        .collect();
    let n_conns = conns.len();
    let start = Instant::now();
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let lines = &lines;
                s.spawn(move || {
                    let mut out = Outcome::default();
                    let mut body = Vec::new();
                    let mut picks = inputs.picks.iter().skip(c).step_by(n_conns);
                    let mut in_flight: VecDeque<(Instant, usize)> = VecDeque::new();
                    let mut send = |conn: &mut Conn, in_flight: &mut VecDeque<_>| {
                        let Some(&k) = picks.next() else {
                            return Ok(false);
                        };
                        in_flight.push_back((Instant::now(), k as usize));
                        conn.send(&lines[k as usize], None).map(|()| true)
                    };
                    let mut alive = true;
                    for _ in 0..WARM_WINDOW {
                        match send(conn, &mut in_flight) {
                            Ok(true) => {}
                            Ok(false) => break,
                            Err(_) => alive = false,
                        }
                    }
                    alive &= conn.flush().is_ok();
                    while alive {
                        let Some((sent, k)) = in_flight.pop_front() else {
                            break;
                        };
                        let reply = conn.recv(&mut body);
                        let want = inputs.keys[k].body.as_bytes();
                        alive = out.reply(start, sent, reply, &body, |b| {
                            if b.as_bytes() == want {
                                Ok(())
                            } else {
                                Err(format!("key {k}: body differs from the stored solve"))
                            }
                        });
                        alive &= send(conn, &mut in_flight).is_ok() && conn.flush().is_ok();
                    }
                    (out, start.elapsed())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect::<Vec<_>>()
    });
    finish(parts, inputs.picks.len())
}

/// `delta-edit`: connection `c` walks chain `c`, sending each edit as
/// `SOLVE_DELTA inline:` and checking the reply against the revision
/// the edit produces. Bodies of each chain's kept revisions are kept.
pub fn delta(conns: &mut [Conn], chains: &[Chain]) -> Outcome {
    let start = Instant::now();
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(chains)
            .enumerate()
            .map(|(c, (conn, chain))| {
                s.spawn(move || {
                    let mut out = Outcome::default();
                    let mut body = Vec::new();
                    let mut rows = Rows::of(&chain.base);
                    let mut kept = chain.kept.iter().map(|(i, _)| *i).peekable();
                    for (i, e) in chain.edits.iter().enumerate() {
                        let line = format!("SOLVE_DELTA inline:{} R={DELTA_R}", e.text.len());
                        let sent = Instant::now();
                        let reply = conn
                            .send(&line, Some(e.text.as_bytes()))
                            .and_then(|()| conn.flush())
                            .and_then(|()| conn.recv(&mut body));
                        let edited = rows.set_constraint_coef(e.row, e.agent, e.coef);
                        let alive = out.reply(start, sent, reply, &body, |b| {
                            if !edited {
                                return Err(format!("chain {c} edit {i}: no entry to edit"));
                            }
                            check_solve_body(&rows, b)
                                .map_err(|err| format!("chain {c} edit {i}: {err}"))
                        });
                        if !alive {
                            break;
                        }
                        if kept.next_if_eq(&i).is_some() {
                            out.kept
                                .push((c, i, String::from_utf8_lossy(&body).into_owned()));
                        }
                    }
                    (out, start.elapsed())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect::<Vec<_>>()
    });
    let attempted = chains.iter().map(|c| c.edits.len()).sum();
    finish(parts, attempted)
}

fn finish(parts: Vec<(Outcome, std::time::Duration)>, attempted: usize) -> Outcome {
    let wall = parts.iter().map(|(_, d)| *d).max().unwrap_or_default();
    Outcome::merge(
        parts.into_iter().map(|(o, _)| o).collect(),
        attempted,
        wall.as_nanos() as u64,
    )
}
