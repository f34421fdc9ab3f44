//! Versioned instance edits: the `mmlp-delta` edit model.
//!
//! A [`Delta`] is an ordered batch of [`Edit`]s pinned to the content
//! hash of the instance it applies to. Applying it produces a fresh
//! [`Instance`] plus a [`Lineage`] record
//! `(base_hash, delta_hash) → new_hash`, the revision identity used by
//! the serve layer's `PUT_DELTA`/`SOLVE_DELTA` ops and persisted through
//! `mmlp-store` so a restarted node can replay its revision graph.
//!
//! Two canonical encodings are provided, mirroring the instance
//! formats:
//!
//! * a line-oriented **text** form (the wire/body format — liberal
//!   parser, canonical writer, `#` comments tolerated):
//!
//!   ```text
//!   mmlpdelta 1
//!   base 00112233aabbccdd
//!   set c 3 7:1.5          # coefficient set: row kind, row id, agent:coef
//!   addedge o 2 4:0.25     # new edge, appended as the row's last port
//!   rmedge c 1 0           # remove the edge {row, agent}
//!   addagent               # append one isolated agent
//!   rmagent 5              # remove an isolated agent (ids above shift)
//!   addrow c 0:1.0 2:2.0   # append a whole row
//!   rmrow o 3              # remove a row (ids above shift)
//!   ```
//!
//! * a length-framed **binary** form (the storage format), with a magic,
//!   a version byte and little-endian fields.
//!
//! The **delta hash** is FNV-1a over the canonical text, so a delta's
//! identity survives comment/whitespace noise but changes with any
//! semantic difference, including edit order. Revisions are named by
//! [`crate::hash::instance_hash`] of the edited instance.

use crate::hash::{fnv1a64, hash_hex, instance_hash, parse_hash_hex};
use crate::ids::AgentId;
use crate::instance::{BuildError, Instance, InstanceBuilder};
use std::fmt::Write as _;

/// Which half of the instance a row edit touches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RowKind {
    /// A packing row of `A` (`Σ a_iv x_v ≤ 1`).
    Constraint,
    /// A covering row of `C` (`Σ c_kv x_v`, min-folded into ω).
    Objective,
}

impl RowKind {
    /// The canonical text tag (matches the instance format's row tags).
    pub fn tag(&self) -> &'static str {
        match self {
            RowKind::Constraint => "c",
            RowKind::Objective => "o",
        }
    }

    fn from_tag(s: &str) -> Option<RowKind> {
        match s {
            "c" => Some(RowKind::Constraint),
            "o" => Some(RowKind::Objective),
            _ => None,
        }
    }
}

/// One atomic instance edit.
///
/// Port-numbering discipline: `SetCoef` keeps the edge's port position;
/// `AddEdge` appends the new edge as the row's **last** port; removals
/// close the gap preserving the order of the surviving entries. Ids are
/// dense, so removing an agent or a row shifts every higher id down by
/// one — encoded deltas always refer to ids *as of the preceding edit*.
#[derive(Clone, Debug, PartialEq)]
pub enum Edit {
    /// Replace the coefficient of an existing edge.
    SetCoef {
        /// Constraint or objective side.
        row: RowKind,
        /// Row id within that side.
        row_id: u32,
        /// The edge's agent endpoint.
        agent: AgentId,
        /// The new strictly-positive finite coefficient.
        coef: f64,
    },
    /// Add an edge to an existing row (appended as its last port).
    AddEdge {
        /// Constraint or objective side.
        row: RowKind,
        /// Row id within that side.
        row_id: u32,
        /// The new edge's agent endpoint.
        agent: AgentId,
        /// The edge coefficient.
        coef: f64,
    },
    /// Remove an existing edge; the row must keep ≥ 1 entry.
    RemoveEdge {
        /// Constraint or objective side.
        row: RowKind,
        /// Row id within that side.
        row_id: u32,
        /// The edge's agent endpoint.
        agent: AgentId,
    },
    /// Append one fresh agent (no incident edges).
    AddAgent,
    /// Remove an agent that appears in no row; ids above shift down.
    RemoveAgent {
        /// The isolated agent to drop.
        agent: AgentId,
    },
    /// Append a whole new row.
    AddRow {
        /// Constraint or objective side.
        row: RowKind,
        /// The row entries, in port order.
        entries: Vec<(AgentId, f64)>,
    },
    /// Remove a whole row; ids above shift down.
    RemoveRow {
        /// Constraint or objective side.
        row: RowKind,
        /// Row id within that side.
        row_id: u32,
    },
}

/// A content-addressed batch of edits against one base revision.
#[derive(Clone, Debug, PartialEq)]
pub struct Delta {
    /// Content hash of the instance this delta applies to.
    pub base: u64,
    /// The edits, applied in order.
    pub edits: Vec<Edit>,
}

/// One revision-lineage record: applying the delta with hash `delta` to
/// the instance with hash `base` produced the instance with hash `new`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Lineage {
    /// Content hash of the base instance.
    pub base: u64,
    /// Content hash ([`Delta::delta_hash`]) of the applied delta.
    pub delta: u64,
    /// Content hash of the resulting instance.
    pub new: u64,
}

/// Everything that can go wrong parsing or applying a delta.
#[derive(Clone, Debug, PartialEq)]
pub enum DeltaError {
    /// The delta's `base` hash does not match the instance it was
    /// applied to.
    BaseMismatch {
        /// Hash the delta was pinned to.
        expected: u64,
        /// Hash of the instance actually supplied.
        actual: u64,
    },
    /// An edit referenced a row id that does not exist.
    UnknownRow {
        /// Which side was indexed.
        row: RowKind,
        /// The out-of-range id.
        row_id: u32,
    },
    /// An edit referenced an agent id that does not exist.
    UnknownAgent {
        /// The out-of-range raw agent id.
        agent: u32,
    },
    /// `set`/`rmedge` named a `{row, agent}` pair that is not an edge.
    NoSuchEdge {
        /// Which side was indexed.
        row: RowKind,
        /// The row id.
        row_id: u32,
        /// The agent that is not in the row.
        agent: u32,
    },
    /// `addedge` would duplicate an existing edge.
    DuplicateEdge {
        /// Which side was indexed.
        row: RowKind,
        /// The row id.
        row_id: u32,
        /// The agent already present in the row.
        agent: u32,
    },
    /// A coefficient was zero, negative, NaN or infinite. Zeroing an
    /// edge is spelled `rmedge` — coefficients stay strictly positive,
    /// matching [`BuildError::BadCoefficient`].
    BadCoefficient {
        /// The offending value.
        value: f64,
    },
    /// `rmedge` would leave the row empty (use `rmrow` instead).
    WouldEmptyRow {
        /// Which side was indexed.
        row: RowKind,
        /// The row id.
        row_id: u32,
    },
    /// `rmagent` named an agent that still has incident edges.
    AgentNotIsolated {
        /// The still-connected agent.
        agent: u32,
    },
    /// Text/binary decoding failed.
    Parse {
        /// 1-based line (text) or byte offset (binary); 0 when global.
        at: usize,
        /// Human-readable description.
        message: String,
    },
    /// Rebuilding the edited instance failed (defence in depth — the
    /// per-edit checks above should catch everything first).
    Build(BuildError),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::BaseMismatch { expected, actual } => write!(
                f,
                "delta applies to base {} but got instance {}",
                hash_hex(*expected),
                hash_hex(*actual)
            ),
            DeltaError::UnknownRow { row, row_id } => {
                write!(f, "no {} row {row_id}", row.tag())
            }
            DeltaError::UnknownAgent { agent } => write!(f, "no agent {agent}"),
            DeltaError::NoSuchEdge { row, row_id, agent } => {
                write!(f, "no edge {{{} {row_id}, agent {agent}}}", row.tag())
            }
            DeltaError::DuplicateEdge { row, row_id, agent } => {
                write!(
                    f,
                    "edge {{{} {row_id}, agent {agent}}} already exists",
                    row.tag()
                )
            }
            DeltaError::BadCoefficient { value } => {
                write!(f, "coefficient {value} is not strictly positive and finite")
            }
            DeltaError::WouldEmptyRow { row, row_id } => {
                write!(
                    f,
                    "removing the edge would empty {} row {row_id}",
                    row.tag()
                )
            }
            DeltaError::AgentNotIsolated { agent } => {
                write!(f, "agent {agent} still has incident edges")
            }
            DeltaError::Parse { at, message } => write!(f, "at {at}: {message}"),
            DeltaError::Build(e) => write!(f, "rebuild failed: {e}"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<BuildError> for DeltaError {
    fn from(e: BuildError) -> Self {
        DeltaError::Build(e)
    }
}

/// Magic + version prefix of the binary encoding.
const BIN_MAGIC: &[u8; 8] = b"MMLPDELT";
const BIN_VERSION: u8 = 1;

impl Delta {
    /// A delta holding one edit.
    pub fn single(base: u64, edit: Edit) -> Delta {
        Delta {
            base,
            edits: vec![edit],
        }
    }

    /// Serialises to the canonical text form (always bare `\n`,
    /// shortest-round-trip floats — the hashed form).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("mmlpdelta 1\n");
        let _ = writeln!(out, "base {}", hash_hex(self.base));
        for e in &self.edits {
            match e {
                Edit::SetCoef {
                    row,
                    row_id,
                    agent,
                    coef,
                } => {
                    let _ = writeln!(out, "set {} {row_id} {}:{coef}", row.tag(), agent.raw());
                }
                Edit::AddEdge {
                    row,
                    row_id,
                    agent,
                    coef,
                } => {
                    let _ = writeln!(out, "addedge {} {row_id} {}:{coef}", row.tag(), agent.raw());
                }
                Edit::RemoveEdge { row, row_id, agent } => {
                    let _ = writeln!(out, "rmedge {} {row_id} {}", row.tag(), agent.raw());
                }
                Edit::AddAgent => out.push_str("addagent\n"),
                Edit::RemoveAgent { agent } => {
                    let _ = writeln!(out, "rmagent {}", agent.raw());
                }
                Edit::AddRow { row, entries } => {
                    let _ = write!(out, "addrow {}", row.tag());
                    for (a, c) in entries {
                        let _ = write!(out, " {}:{c}", a.raw());
                    }
                    out.push('\n');
                }
                Edit::RemoveRow { row, row_id } => {
                    let _ = writeln!(out, "rmrow {} {row_id}", row.tag());
                }
            }
        }
        out
    }

    /// Parses the text form. Like the instance parser it tolerates `#`
    /// comments, blank lines, CRLF/CR endings and stray whitespace; none
    /// of that survives into the canonical form ([`Delta::to_text`]).
    pub fn parse_text(text: &str) -> Result<Delta, DeltaError> {
        let normalized;
        let text = if text.contains('\r') && !text.contains('\n') {
            normalized = text.replace('\r', "\n");
            normalized.as_str()
        } else {
            text
        };
        let err = |line: usize, message: String| DeltaError::Parse { at: line, message };
        let mut saw_header = false;
        let mut base: Option<u64> = None;
        let mut edits = Vec::new();
        for (idx, raw_line) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw_line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut tokens = line.split_ascii_whitespace();
            let head = tokens.next().expect("non-empty line has a token");
            let kind = |tokens: &mut dyn Iterator<Item = &str>| -> Result<RowKind, DeltaError> {
                let t = tokens
                    .next()
                    .ok_or_else(|| err(lineno, format!("{head} needs a row kind (c|o)")))?;
                RowKind::from_tag(t).ok_or_else(|| err(lineno, format!("bad row kind '{t}'")))
            };
            let row_id = |tok: Option<&str>| -> Result<u32, DeltaError> {
                let t = tok.ok_or_else(|| err(lineno, format!("{head} needs a row id")))?;
                t.parse()
                    .map_err(|_| err(lineno, format!("bad row id '{t}'")))
            };
            let pair = |tok: Option<&str>| -> Result<(AgentId, f64), DeltaError> {
                let t = tok.ok_or_else(|| err(lineno, format!("{head} needs agent:coef")))?;
                let (a, c) = t
                    .split_once(':')
                    .ok_or_else(|| err(lineno, format!("expected agent:coef, got '{t}'")))?;
                let agent: u32 = a
                    .parse()
                    .map_err(|_| err(lineno, format!("bad agent '{a}'")))?;
                let coef: f64 = c
                    .parse()
                    .map_err(|_| err(lineno, format!("bad coefficient '{c}'")))?;
                Ok((AgentId::new(agent), coef))
            };
            let agent_tok = |tok: Option<&str>| -> Result<AgentId, DeltaError> {
                let t = tok.ok_or_else(|| err(lineno, format!("{head} needs an agent")))?;
                let a: u32 = t
                    .parse()
                    .map_err(|_| err(lineno, format!("bad agent '{t}'")))?;
                Ok(AgentId::new(a))
            };
            match head {
                "mmlpdelta" => {
                    let version = tokens
                        .next()
                        .ok_or_else(|| err(lineno, "missing format version".into()))?;
                    if version != "1" {
                        return Err(err(lineno, format!("unsupported version {version}")));
                    }
                    saw_header = true;
                }
                "base" => {
                    if !saw_header {
                        return Err(err(lineno, "missing 'mmlpdelta 1' header".into()));
                    }
                    let t = tokens
                        .next()
                        .ok_or_else(|| err(lineno, "missing base hash".into()))?;
                    base = Some(
                        parse_hash_hex(t)
                            .ok_or_else(|| err(lineno, format!("bad base hash '{t}'")))?,
                    );
                }
                "set" | "addedge" => {
                    let row = kind(&mut tokens)?;
                    let id = row_id(tokens.next())?;
                    let (agent, coef) = pair(tokens.next())?;
                    edits.push(if head == "set" {
                        Edit::SetCoef {
                            row,
                            row_id: id,
                            agent,
                            coef,
                        }
                    } else {
                        Edit::AddEdge {
                            row,
                            row_id: id,
                            agent,
                            coef,
                        }
                    });
                }
                "rmedge" => {
                    let row = kind(&mut tokens)?;
                    let id = row_id(tokens.next())?;
                    let agent = agent_tok(tokens.next())?;
                    edits.push(Edit::RemoveEdge {
                        row,
                        row_id: id,
                        agent,
                    });
                }
                "addagent" => edits.push(Edit::AddAgent),
                "rmagent" => {
                    let agent = agent_tok(tokens.next())?;
                    edits.push(Edit::RemoveAgent { agent });
                }
                "addrow" => {
                    let row = kind(&mut tokens)?;
                    let mut entries = Vec::new();
                    for t in tokens.by_ref() {
                        entries.push(pair(Some(t))?);
                    }
                    if entries.is_empty() {
                        return Err(err(lineno, "addrow needs at least one agent:coef".into()));
                    }
                    edits.push(Edit::AddRow { row, entries });
                }
                "rmrow" => {
                    let row = kind(&mut tokens)?;
                    let id = row_id(tokens.next())?;
                    edits.push(Edit::RemoveRow { row, row_id: id });
                }
                other => return Err(err(lineno, format!("unknown directive '{other}'"))),
            }
            if let Some(extra) = tokens.next() {
                return Err(err(lineno, format!("unexpected trailing token '{extra}'")));
            }
        }
        let base = base.ok_or_else(|| err(0, "no 'base' declaration found".into()))?;
        Ok(Delta { base, edits })
    }

    /// Serialises to the binary storage form.
    pub fn to_binary(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + 16 * self.edits.len());
        out.extend_from_slice(BIN_MAGIC);
        out.push(BIN_VERSION);
        out.extend_from_slice(&self.base.to_le_bytes());
        out.extend_from_slice(&(self.edits.len() as u32).to_le_bytes());
        let kind_byte = |r: &RowKind| match r {
            RowKind::Constraint => 0u8,
            RowKind::Objective => 1u8,
        };
        for e in &self.edits {
            match e {
                Edit::SetCoef {
                    row,
                    row_id,
                    agent,
                    coef,
                } => {
                    out.push(1);
                    out.push(kind_byte(row));
                    out.extend_from_slice(&row_id.to_le_bytes());
                    out.extend_from_slice(&agent.raw().to_le_bytes());
                    out.extend_from_slice(&coef.to_bits().to_le_bytes());
                }
                Edit::AddEdge {
                    row,
                    row_id,
                    agent,
                    coef,
                } => {
                    out.push(2);
                    out.push(kind_byte(row));
                    out.extend_from_slice(&row_id.to_le_bytes());
                    out.extend_from_slice(&agent.raw().to_le_bytes());
                    out.extend_from_slice(&coef.to_bits().to_le_bytes());
                }
                Edit::RemoveEdge { row, row_id, agent } => {
                    out.push(3);
                    out.push(kind_byte(row));
                    out.extend_from_slice(&row_id.to_le_bytes());
                    out.extend_from_slice(&agent.raw().to_le_bytes());
                }
                Edit::AddAgent => out.push(4),
                Edit::RemoveAgent { agent } => {
                    out.push(5);
                    out.extend_from_slice(&agent.raw().to_le_bytes());
                }
                Edit::AddRow { row, entries } => {
                    out.push(6);
                    out.push(kind_byte(row));
                    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                    for (a, c) in entries {
                        out.extend_from_slice(&a.raw().to_le_bytes());
                        out.extend_from_slice(&c.to_bits().to_le_bytes());
                    }
                }
                Edit::RemoveRow { row, row_id } => {
                    out.push(7);
                    out.push(kind_byte(row));
                    out.extend_from_slice(&row_id.to_le_bytes());
                }
            }
        }
        out
    }

    /// Parses the binary storage form.
    pub fn from_binary(bytes: &[u8]) -> Result<Delta, DeltaError> {
        let mut pos = 0usize;
        let err = |at: usize, message: String| DeltaError::Parse { at, message };
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], DeltaError> {
            let end = pos
                .checked_add(n)
                .filter(|&e| e <= bytes.len())
                .ok_or_else(|| err(*pos, "truncated delta".into()))?;
            let s = &bytes[*pos..end];
            *pos = end;
            Ok(s)
        };
        let magic = take(&mut pos, 8)?;
        if magic != BIN_MAGIC {
            return Err(err(0, "bad magic".into()));
        }
        let version = take(&mut pos, 1)?[0];
        if version != BIN_VERSION {
            return Err(err(8, format!("unsupported version {version}")));
        }
        let u32_at = |pos: &mut usize| -> Result<u32, DeltaError> {
            Ok(u32::from_le_bytes(take(pos, 4)?.try_into().expect("4")))
        };
        let u64_at = |pos: &mut usize| -> Result<u64, DeltaError> {
            Ok(u64::from_le_bytes(take(pos, 8)?.try_into().expect("8")))
        };
        let row_at = |pos: &mut usize| -> Result<RowKind, DeltaError> {
            match take(pos, 1)?[0] {
                0 => Ok(RowKind::Constraint),
                1 => Ok(RowKind::Objective),
                b => Err(err(*pos - 1, format!("bad row kind byte {b}"))),
            }
        };
        let base = u64_at(&mut pos)?;
        let n_edits = u32_at(&mut pos)?;
        let mut edits = Vec::with_capacity(n_edits.min(1 << 20) as usize);
        for _ in 0..n_edits {
            let at = pos;
            let op = take(&mut pos, 1)?[0];
            edits.push(match op {
                1 | 2 => {
                    let row = row_at(&mut pos)?;
                    let row_id = u32_at(&mut pos)?;
                    let agent = AgentId::new(u32_at(&mut pos)?);
                    let coef = f64::from_bits(u64_at(&mut pos)?);
                    if op == 1 {
                        Edit::SetCoef {
                            row,
                            row_id,
                            agent,
                            coef,
                        }
                    } else {
                        Edit::AddEdge {
                            row,
                            row_id,
                            agent,
                            coef,
                        }
                    }
                }
                3 => Edit::RemoveEdge {
                    row: row_at(&mut pos)?,
                    row_id: u32_at(&mut pos)?,
                    agent: AgentId::new(u32_at(&mut pos)?),
                },
                4 => Edit::AddAgent,
                5 => Edit::RemoveAgent {
                    agent: AgentId::new(u32_at(&mut pos)?),
                },
                6 => {
                    let row = row_at(&mut pos)?;
                    let n = u32_at(&mut pos)?;
                    let mut entries = Vec::with_capacity(n.min(1 << 20) as usize);
                    for _ in 0..n {
                        let a = AgentId::new(u32_at(&mut pos)?);
                        let c = f64::from_bits(u64_at(&mut pos)?);
                        entries.push((a, c));
                    }
                    Edit::AddRow { row, entries }
                }
                7 => Edit::RemoveRow {
                    row: row_at(&mut pos)?,
                    row_id: u32_at(&mut pos)?,
                },
                b => return Err(err(at, format!("bad edit opcode {b}"))),
            });
        }
        if pos != bytes.len() {
            return Err(err(pos, "trailing bytes after the last edit".into()));
        }
        Ok(Delta { base, edits })
    }

    /// The delta's content hash: FNV-1a over [`Delta::to_text`].
    pub fn delta_hash(&self) -> u64 {
        fnv1a64(self.to_text().as_bytes())
    }

    /// Applies the edits to `base`, which must hash to [`Delta::base`],
    /// returning the edited instance.
    pub fn apply(&self, base: &Instance) -> Result<Instance, DeltaError> {
        let actual = instance_hash(base);
        if actual != self.base {
            return Err(DeltaError::BaseMismatch {
                expected: self.base,
                actual,
            });
        }
        self.apply_unchecked(base)
    }

    /// Whether every edit is a constraint-coefficient `set` — the edits
    /// that keep the structure, which a dynamic solver repairs in place.
    pub fn is_constraint_coefs(&self) -> bool {
        self.edits.iter().all(|e| {
            matches!(
                e,
                Edit::SetCoef {
                    row: RowKind::Constraint,
                    ..
                }
            )
        })
    }

    /// [`Delta::apply`] without the base check, for callers that already
    /// know `base` hashes to [`Delta::base`] — it came out of a store
    /// addressed by that hash. Every edit is still validated.
    pub fn apply_unchecked(&self, base: &Instance) -> Result<Instance, DeltaError> {
        let mut n_agents = base.n_agents() as u32;
        let mut cons: Vec<Vec<(AgentId, f64)>> = base
            .constraints()
            .map(|i| {
                base.constraint_row(i)
                    .iter()
                    .map(|e| (e.agent, e.coef))
                    .collect()
            })
            .collect();
        let mut objs: Vec<Vec<(AgentId, f64)>> = base
            .objectives()
            .map(|k| {
                base.objective_row(k)
                    .iter()
                    .map(|e| (e.agent, e.coef))
                    .collect()
            })
            .collect();
        for e in &self.edits {
            apply_one(e, &mut n_agents, &mut cons, &mut objs)?;
        }
        let mut b = InstanceBuilder::with_agents(n_agents as usize);
        for row in &cons {
            b.add_constraint(row)?;
        }
        for row in &objs {
            b.add_objective(row)?;
        }
        Ok(b.build()?)
    }

    /// [`Delta::apply`] plus the revision [`Lineage`] record.
    pub fn apply_hashed(&self, base: &Instance) -> Result<(Instance, Lineage), DeltaError> {
        let new_inst = self.apply(base)?;
        let lineage = Lineage {
            base: self.base,
            delta: self.delta_hash(),
            new: instance_hash(&new_inst),
        };
        Ok((new_inst, lineage))
    }
}

/// Borrows the side of the decomposed representation a row edit targets.
fn rows_of<'a>(
    row: RowKind,
    cons: &'a mut Vec<Vec<(AgentId, f64)>>,
    objs: &'a mut Vec<Vec<(AgentId, f64)>>,
) -> &'a mut Vec<Vec<(AgentId, f64)>> {
    match row {
        RowKind::Constraint => cons,
        RowKind::Objective => objs,
    }
}

/// Applies one edit to the decomposed row representation.
fn apply_one(
    e: &Edit,
    n_agents: &mut u32,
    cons: &mut Vec<Vec<(AgentId, f64)>>,
    objs: &mut Vec<Vec<(AgentId, f64)>>,
) -> Result<(), DeltaError> {
    let check_coef = |coef: f64| -> Result<(), DeltaError> {
        if coef.is_finite() && coef > 0.0 {
            Ok(())
        } else {
            Err(DeltaError::BadCoefficient { value: coef })
        }
    };
    match e {
        Edit::SetCoef {
            row,
            row_id,
            agent,
            coef,
        } => {
            check_coef(*coef)?;
            let rows = rows_of(*row, cons, objs);
            let r = rows
                .get_mut(*row_id as usize)
                .ok_or(DeltaError::UnknownRow {
                    row: *row,
                    row_id: *row_id,
                })?;
            let slot = r.iter_mut().find(|(a, _)| a == agent).ok_or({
                DeltaError::NoSuchEdge {
                    row: *row,
                    row_id: *row_id,
                    agent: agent.raw(),
                }
            })?;
            slot.1 = *coef;
        }
        Edit::AddEdge {
            row,
            row_id,
            agent,
            coef,
        } => {
            check_coef(*coef)?;
            if agent.raw() >= *n_agents {
                return Err(DeltaError::UnknownAgent { agent: agent.raw() });
            }
            let rows = rows_of(*row, cons, objs);
            let r = rows
                .get_mut(*row_id as usize)
                .ok_or(DeltaError::UnknownRow {
                    row: *row,
                    row_id: *row_id,
                })?;
            if r.iter().any(|(a, _)| a == agent) {
                return Err(DeltaError::DuplicateEdge {
                    row: *row,
                    row_id: *row_id,
                    agent: agent.raw(),
                });
            }
            r.push((*agent, *coef));
        }
        Edit::RemoveEdge { row, row_id, agent } => {
            let rows = rows_of(*row, cons, objs);
            let r = rows
                .get_mut(*row_id as usize)
                .ok_or(DeltaError::UnknownRow {
                    row: *row,
                    row_id: *row_id,
                })?;
            let at = r.iter().position(|(a, _)| a == agent).ok_or({
                DeltaError::NoSuchEdge {
                    row: *row,
                    row_id: *row_id,
                    agent: agent.raw(),
                }
            })?;
            if r.len() == 1 {
                return Err(DeltaError::WouldEmptyRow {
                    row: *row,
                    row_id: *row_id,
                });
            }
            r.remove(at);
        }
        Edit::AddAgent => *n_agents += 1,
        Edit::RemoveAgent { agent } => {
            if agent.raw() >= *n_agents {
                return Err(DeltaError::UnknownAgent { agent: agent.raw() });
            }
            let touched = cons
                .iter()
                .chain(objs.iter())
                .any(|r| r.iter().any(|(a, _)| a == agent));
            if touched {
                return Err(DeltaError::AgentNotIsolated { agent: agent.raw() });
            }
            *n_agents -= 1;
            for r in cons.iter_mut().chain(objs.iter_mut()) {
                for (a, _) in r.iter_mut() {
                    if a.raw() > agent.raw() {
                        *a = AgentId::new(a.raw() - 1);
                    }
                }
            }
        }
        Edit::AddRow { row, entries } => {
            if entries.is_empty() {
                return Err(DeltaError::Build(BuildError::EmptyRow));
            }
            for (idx, (a, c)) in entries.iter().enumerate() {
                check_coef(*c)?;
                if a.raw() >= *n_agents {
                    return Err(DeltaError::UnknownAgent { agent: a.raw() });
                }
                if entries[..idx].iter().any(|(b, _)| b == a) {
                    return Err(DeltaError::Build(BuildError::DuplicateAgentInRow {
                        agent: *a,
                    }));
                }
            }
            let rows = rows_of(*row, cons, objs);
            rows.push(entries.clone());
        }
        Edit::RemoveRow { row, row_id } => {
            let rows = rows_of(*row, cons, objs);
            if *row_id as usize >= rows.len() {
                return Err(DeltaError::UnknownRow {
                    row: *row,
                    row_id: *row_id,
                });
            }
            rows.remove(*row_id as usize);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ConstraintId;

    /// 3 agents, 2 constraints, 2 objectives.
    fn sample() -> Instance {
        let mut b = InstanceBuilder::new();
        let v0 = b.add_agent();
        let v1 = b.add_agent();
        let v2 = b.add_agent();
        b.add_constraint(&[(v0, 1.0), (v1, 2.0)]).unwrap();
        b.add_constraint(&[(v1, 0.5), (v2, 1.0)]).unwrap();
        b.add_objective(&[(v0, 1.0), (v2, 3.0)]).unwrap();
        b.add_objective(&[(v1, 1.0)]).unwrap();
        b.build().unwrap()
    }

    fn set0(base: &Instance, coef: f64) -> Delta {
        Delta::single(
            instance_hash(base),
            Edit::SetCoef {
                row: RowKind::Constraint,
                row_id: 0,
                agent: AgentId::new(1),
                coef,
            },
        )
    }

    #[test]
    fn set_coef_keeps_port_order_and_changes_hash() {
        let base = sample();
        let (new_inst, lineage) = set0(&base, 7.5).apply_hashed(&base).unwrap();
        let row = new_inst.constraint_row(ConstraintId::new(0));
        assert_eq!(row[0].agent.raw(), 0);
        assert_eq!(row[1].agent.raw(), 1);
        assert_eq!(row[1].coef, 7.5);
        assert_eq!(lineage.base, instance_hash(&base));
        assert_eq!(lineage.new, instance_hash(&new_inst));
        assert_ne!(lineage.new, lineage.base);
    }

    #[test]
    fn apply_rejects_wrong_base() {
        let base = sample();
        let mut d = set0(&base, 7.5);
        d.base ^= 1;
        assert!(matches!(
            d.apply(&base),
            Err(DeltaError::BaseMismatch { .. })
        ));
    }

    #[test]
    fn structural_edits_round_trip_through_apply() {
        let base = sample();
        let d = Delta {
            base: instance_hash(&base),
            edits: vec![
                Edit::AddAgent,
                Edit::AddRow {
                    row: RowKind::Constraint,
                    entries: vec![(AgentId::new(3), 1.25)],
                },
                Edit::AddRow {
                    row: RowKind::Objective,
                    entries: vec![(AgentId::new(3), 1.0)],
                },
                Edit::AddEdge {
                    row: RowKind::Constraint,
                    row_id: 2,
                    agent: AgentId::new(0),
                    coef: 0.5,
                },
            ],
        };
        let out = d.apply(&base).unwrap();
        assert_eq!(out.n_agents(), 4);
        assert_eq!(out.n_constraints(), 3);
        assert_eq!(out.n_objectives(), 3);
        let row = out.constraint_row(ConstraintId::new(2));
        assert_eq!(row.len(), 2);
        assert_eq!(row[1].agent.raw(), 0, "addedge appends as the last port");
    }

    #[test]
    fn remove_edits_validate_and_shift_ids() {
        let base = sample();
        // rmedge on a 1-entry row is refused.
        let d = Delta::single(
            instance_hash(&base),
            Edit::RemoveEdge {
                row: RowKind::Objective,
                row_id: 1,
                agent: AgentId::new(1),
            },
        );
        assert!(matches!(
            d.apply(&base),
            Err(DeltaError::WouldEmptyRow { .. })
        ));
        // rmagent requires isolation.
        let d = Delta::single(
            instance_hash(&base),
            Edit::RemoveAgent {
                agent: AgentId::new(1),
            },
        );
        assert!(matches!(
            d.apply(&base),
            Err(DeltaError::AgentNotIsolated { .. })
        ));
        // Detach agent 1 everywhere, then remove it: ids above shift.
        let d = Delta {
            base: instance_hash(&base),
            edits: vec![
                Edit::RemoveEdge {
                    row: RowKind::Constraint,
                    row_id: 0,
                    agent: AgentId::new(1),
                },
                Edit::RemoveEdge {
                    row: RowKind::Constraint,
                    row_id: 1,
                    agent: AgentId::new(1),
                },
                Edit::RemoveRow {
                    row: RowKind::Objective,
                    row_id: 1,
                },
                Edit::RemoveAgent {
                    agent: AgentId::new(1),
                },
            ],
        };
        let out = d.apply(&base).unwrap();
        assert_eq!(out.n_agents(), 2);
        assert_eq!(out.n_objectives(), 1);
        // Old agent 2 is now agent 1.
        assert_eq!(
            out.objective_row(crate::ids::ObjectiveId::new(0))[1]
                .agent
                .raw(),
            1
        );
    }

    #[test]
    fn zeroing_a_coefficient_is_rejected_as_set() {
        // The positivity domain is part of the model: zeroing is spelled
        // rmedge, exactly like the builder's coefficient check.
        let base = sample();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                set0(&base, bad).apply(&base),
                Err(DeltaError::BadCoefficient { .. })
            ));
        }
    }

    type ErrorCheck = fn(&DeltaError) -> bool;

    #[test]
    fn unknown_targets_are_typed_errors() {
        let base = sample();
        let h = instance_hash(&base);
        let cases: Vec<(Edit, ErrorCheck)> = vec![
            (
                Edit::SetCoef {
                    row: RowKind::Constraint,
                    row_id: 9,
                    agent: AgentId::new(0),
                    coef: 1.0,
                },
                |e| matches!(e, DeltaError::UnknownRow { .. }),
            ),
            (
                Edit::SetCoef {
                    row: RowKind::Constraint,
                    row_id: 0,
                    agent: AgentId::new(2),
                    coef: 1.0,
                },
                |e| matches!(e, DeltaError::NoSuchEdge { .. }),
            ),
            (
                Edit::AddEdge {
                    row: RowKind::Constraint,
                    row_id: 0,
                    agent: AgentId::new(1),
                    coef: 1.0,
                },
                |e| matches!(e, DeltaError::DuplicateEdge { .. }),
            ),
            (
                Edit::AddEdge {
                    row: RowKind::Constraint,
                    row_id: 0,
                    agent: AgentId::new(7),
                    coef: 1.0,
                },
                |e| matches!(e, DeltaError::UnknownAgent { .. }),
            ),
            (
                Edit::RemoveAgent {
                    agent: AgentId::new(9),
                },
                |e| matches!(e, DeltaError::UnknownAgent { .. }),
            ),
        ];
        for (edit, check) in cases {
            let e = Delta::single(h, edit.clone()).apply(&base).unwrap_err();
            assert!(check(&e), "edit {edit:?} gave {e:?}");
        }
    }

    #[test]
    fn text_round_trips_bit_exactly() {
        let base = sample();
        let d = Delta {
            base: instance_hash(&base),
            edits: vec![
                Edit::SetCoef {
                    row: RowKind::Constraint,
                    row_id: 0,
                    agent: AgentId::new(1),
                    coef: 0.3333333333333333,
                },
                Edit::AddAgent,
                Edit::AddRow {
                    row: RowKind::Objective,
                    entries: vec![(AgentId::new(3), 1.0e-300)],
                },
                Edit::RemoveRow {
                    row: RowKind::Constraint,
                    row_id: 1,
                },
            ],
        };
        let text = d.to_text();
        let back = Delta::parse_text(&text).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.to_text(), text, "canonical writer is a fixpoint");
        assert_eq!(back.delta_hash(), d.delta_hash());
    }

    #[test]
    fn text_parser_is_liberal_but_canonicalizes() {
        let base = sample();
        let d = set0(&base, 2.5);
        let noisy = d.to_text().replace('\n', "  # noise\r\n");
        let back = Delta::parse_text(&noisy).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.delta_hash(), d.delta_hash());
    }

    #[test]
    fn text_parser_rejects_junk() {
        for bad in [
            "",
            "mmlpdelta 2\nbase 0000000000000000\n",
            "base 0000000000000000\n", // header missing
            "mmlpdelta 1\n",           // base missing
            "mmlpdelta 1\nbase xyz\n",
            "mmlpdelta 1\nbase 0000000000000000\nset q 0 0:1\n",
            "mmlpdelta 1\nbase 0000000000000000\nset c 0 0:bad\n",
            "mmlpdelta 1\nbase 0000000000000000\nset c 0 0:1 extra\n",
            "mmlpdelta 1\nbase 0000000000000000\naddrow c\n",
            "mmlpdelta 1\nbase 0000000000000000\nfrobnicate\n",
        ] {
            assert!(Delta::parse_text(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn binary_round_trips_every_edit_kind() {
        let d = Delta {
            base: 0xdead_beef_0011_2233,
            edits: vec![
                Edit::SetCoef {
                    row: RowKind::Constraint,
                    row_id: 3,
                    agent: AgentId::new(7),
                    coef: 1.5,
                },
                Edit::AddEdge {
                    row: RowKind::Objective,
                    row_id: 2,
                    agent: AgentId::new(4),
                    coef: 0.25,
                },
                Edit::RemoveEdge {
                    row: RowKind::Constraint,
                    row_id: 1,
                    agent: AgentId::new(0),
                },
                Edit::AddAgent,
                Edit::RemoveAgent {
                    agent: AgentId::new(5),
                },
                Edit::AddRow {
                    row: RowKind::Constraint,
                    entries: vec![(AgentId::new(0), 1.0), (AgentId::new(2), 2.0)],
                },
                Edit::RemoveRow {
                    row: RowKind::Objective,
                    row_id: 3,
                },
            ],
        };
        let bin = d.to_binary();
        assert_eq!(Delta::from_binary(&bin).unwrap(), d);
    }

    #[test]
    fn binary_rejects_corruption() {
        let d = Delta::single(7, Edit::AddAgent);
        let good = d.to_binary();
        assert!(Delta::from_binary(&good[..good.len() - 1]).is_err());
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        assert!(Delta::from_binary(&bad_magic).is_err());
        let mut bad_op = good.clone();
        *bad_op.last_mut().unwrap() = 99;
        assert!(Delta::from_binary(&bad_op).is_err());
        let mut trailing = good;
        trailing.push(0);
        assert!(Delta::from_binary(&trailing).is_err());
    }

    #[test]
    fn delta_hash_tracks_content_and_order() {
        let base = sample();
        let h = instance_hash(&base);
        let a = Delta {
            base: h,
            edits: vec![
                Edit::AddAgent,
                Edit::RemoveRow {
                    row: RowKind::Constraint,
                    row_id: 0,
                },
            ],
        };
        let mut b = a.clone();
        b.edits.reverse();
        assert_ne!(a.delta_hash(), b.delta_hash(), "order is semantic");
        assert_eq!(a.delta_hash(), a.clone().delta_hash());
        let mut c = a.clone();
        c.base ^= 1;
        assert_ne!(a.delta_hash(), c.delta_hash(), "base is part of identity");
    }

    #[test]
    fn lineage_composes_across_revisions() {
        // base --d1--> r1 --d2--> r2: each lineage's `new` is the next's
        // `base`, and replaying the chain reproduces r2 exactly.
        let base = sample();
        let d1 = set0(&base, 4.0);
        let (r1, l1) = d1.apply_hashed(&base).unwrap();
        let d2 = Delta::single(
            l1.new,
            Edit::AddEdge {
                row: RowKind::Objective,
                row_id: 1,
                agent: AgentId::new(2),
                coef: 2.0,
            },
        );
        let (r2, l2) = d2.apply_hashed(&r1).unwrap();
        assert_eq!(l1.new, l2.base);
        let replayed = d2.apply(&d1.apply(&base).unwrap()).unwrap();
        assert_eq!(instance_hash(&replayed), l2.new);
        assert_eq!(
            crate::textfmt::write_instance(&replayed),
            crate::textfmt::write_instance(&r2)
        );
    }
}
