//! A small line-oriented text format for instances.
//!
//! ```text
//! # optional comments
//! maxminlp 1
//! agents 3
//! c 0:1.0 1:2.0      # constraint row: agent:coef pairs
//! o 0:1.0 2:0.5      # objective row
//! ```
//!
//! The format preserves row order and within-row order, hence port
//! numbering, so a round trip is structurally exact. Floats are written
//! with full precision (Rust's shortest-round-trip formatting).
//!
//! The parser allocates per declared agent, so the `agents` count may
//! not exceed the input's length in bytes: a larger count is a
//! [`ParseError`] on its line, raised before anything is allocated.
//! Parsing thus allocates in proportion to its input. The one cost: an
//! instance whose isolated agents (in no row) outnumber the bytes of
//! its text cannot be written in this format.

use crate::ids::AgentId;
use crate::instance::{Entry, Instance, InstanceBuilder};
use std::fmt::Write as _;

/// Parse error with the 1-based line number and, when one exists, the
/// exact offending token — a multi-thousand-line instance file is
/// undebuggable from a line number alone when the line holds dozens of
/// `agent:coef` pairs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending input (0 for whole-file errors,
    /// e.g. a missing `agents` declaration).
    pub line: usize,
    /// The token that triggered the error, verbatim, when the error is
    /// attributable to one.
    pub token: Option<String>,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)?;
        if let Some(tok) = &self.token {
            write!(f, " (at token '{tok}')")?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseError {}

/// Serialises an instance to the text format.
pub fn write_instance(inst: &Instance) -> String {
    let mut text = String::new();
    text.push_str("maxminlp 1\n");
    let _ = writeln!(text, "agents {}", inst.n_agents());
    for i in inst.constraints() {
        write_row(&mut text, 'c', inst.constraint_row(i));
    }
    for k in inst.objectives() {
        write_row(&mut text, 'o', inst.objective_row(k));
    }
    text
}

/// One `c`/`o` line: the tag, then ` agent:coef` per entry in port order.
fn write_row(out: &mut String, tag: char, row: &[Entry]) {
    out.push(tag);
    for e in row {
        let _ = write!(out, " {}:{}", e.agent.raw(), e.coef);
    }
    out.push('\n');
}

/// Parses the text format back into an instance.
///
/// The parser is deliberately liberal about surface syntax so that
/// files which crossed a Windows toolchain or an editor survive: `\r\n`
/// and even lone-`\r` (classic Mac) line endings are accepted, and
/// leading/trailing whitespace on any line — including trailing tabs
/// after the last token — is ignored. None of this changes the
/// canonical form: [`write_instance`] always emits bare `\n`, and
/// content hashes (see `crate::hash`) are taken over the parsed
/// structure, so none of it reaches them.
pub fn parse_instance(text: &str) -> Result<Instance, ParseError> {
    // `str::lines` already strips a trailing `\r` (CRLF files); a file
    // using *lone* `\r` as its separator would otherwise arrive as one
    // giant line, so normalise that rare shape up front.
    let normalized;
    let text = if text.contains('\r') && !text.contains('\n') {
        normalized = text.replace('\r', "\n");
        normalized.as_str()
    } else {
        text
    };

    let mut builder: Option<InstanceBuilder> = None;
    let mut saw_header = false;
    let mut row: Vec<(AgentId, f64)> = Vec::new();

    let err = |line: usize, message: String| ParseError {
        line,
        token: None,
        message,
    };
    let err_tok = |line: usize, token: &str, message: String| ParseError {
        line,
        token: Some(token.to_string()),
        message,
    };

    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw_line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_ascii_whitespace();
        let head = tokens.next().expect("non-empty line has a token");
        match head {
            "maxminlp" => {
                let version = tokens
                    .next()
                    .ok_or_else(|| err(lineno, "missing format version".into()))?;
                if version != "1" {
                    return Err(err_tok(
                        lineno,
                        version,
                        format!("unsupported version {version}"),
                    ));
                }
                saw_header = true;
            }
            "agents" => {
                if !saw_header {
                    return Err(err_tok(lineno, head, "missing 'maxminlp 1' header".into()));
                }
                let count_tok = tokens
                    .next()
                    .ok_or_else(|| err(lineno, "missing agent count".into()))?;
                let n: usize = count_tok
                    .parse()
                    .map_err(|e| err_tok(lineno, count_tok, format!("bad agent count: {e}")))?;
                if n > text.len() {
                    return Err(err_tok(
                        lineno,
                        count_tok,
                        format!("agent count {n} exceeds the input's {} bytes", text.len()),
                    ));
                }
                builder = Some(InstanceBuilder::with_agents(n));
            }
            "c" | "o" => {
                let b = builder.as_mut().ok_or_else(|| {
                    err_tok(lineno, head, "row before 'agents' declaration".into())
                })?;
                row.clear();
                for tok in tokens {
                    let (a, c) = tok.split_once(':').ok_or_else(|| {
                        err_tok(lineno, tok, format!("expected agent:coef, got '{tok}'"))
                    })?;
                    let agent: u32 = a
                        .parse()
                        .map_err(|e| err_tok(lineno, tok, format!("bad agent index '{a}': {e}")))?;
                    let coef: f64 = c
                        .parse()
                        .map_err(|e| err_tok(lineno, tok, format!("bad coefficient '{c}': {e}")))?;
                    row.push((AgentId::new(agent), coef));
                }
                let result = if head == "c" {
                    b.add_constraint(&row).map(|_| ())
                } else {
                    b.add_objective(&row).map(|_| ())
                };
                result.map_err(|e| err_tok(lineno, line, e.to_string()))?;
            }
            other => {
                return Err(err_tok(
                    lineno,
                    other,
                    format!("unknown directive '{other}'"),
                ));
            }
        }
    }

    builder
        .ok_or_else(|| err(0, "no 'agents' declaration found".into()))?
        .build()
        .map_err(|e| err(0, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ConstraintId, ObjectiveId};

    fn sample() -> Instance {
        let mut b = InstanceBuilder::new();
        let v0 = b.add_agent();
        let v1 = b.add_agent();
        let v2 = b.add_agent();
        b.add_constraint(&[(v1, 0.125), (v0, 3.5)]).unwrap();
        b.add_constraint(&[(v2, 1.0)]).unwrap();
        b.add_objective(&[(v0, 1.0), (v2, 0.3333333333333333)])
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn round_trip_preserves_structure_and_ports() {
        let inst = sample();
        let text = write_instance(&inst);
        let back = parse_instance(&text).unwrap();
        assert_eq!(back.n_agents(), inst.n_agents());
        assert_eq!(back.n_constraints(), inst.n_constraints());
        assert_eq!(back.n_objectives(), inst.n_objectives());
        for i in inst.constraints() {
            assert_eq!(back.constraint_row(i), inst.constraint_row(i));
        }
        for k in inst.objectives() {
            assert_eq!(back.objective_row(k), inst.objective_row(k));
        }
        // Port order must survive: the first row lists v1 before v0.
        assert_eq!(back.constraint_row(ConstraintId::new(0))[0].agent.raw(), 1);
    }

    #[test]
    fn round_trip_preserves_float_bits() {
        let inst = sample();
        let back = parse_instance(&write_instance(&inst)).unwrap();
        let orig = inst.objective_row(ObjectiveId::new(0))[1].coef;
        let rt = back.objective_row(ObjectiveId::new(0))[1].coef;
        assert_eq!(orig.to_bits(), rt.to_bits());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header comment\nmaxminlp 1\n\nagents 1\nc 0:1.0 # trailing\no 0:2.0\n";
        let inst = parse_instance(text).unwrap();
        assert_eq!(inst.n_agents(), 1);
        assert_eq!(inst.n_constraints(), 1);
        assert_eq!(inst.n_objectives(), 1);
    }

    #[test]
    fn crlf_and_trailing_whitespace_are_tolerated() {
        let inst = sample();
        let canonical = write_instance(&inst);

        // CRLF line endings, as a Windows checkout would produce.
        let crlf = canonical.replace('\n', "\r\n");
        let back = parse_instance(&crlf).unwrap();
        assert_eq!(write_instance(&back), canonical);

        // Lone-CR (classic Mac) line endings.
        let cr = canonical.replace('\n', "\r");
        let back = parse_instance(&cr).unwrap();
        assert_eq!(write_instance(&back), canonical);

        // Trailing spaces and tabs on every line.
        let padded = canonical.replace('\n', " \t \n");
        let back = parse_instance(&padded).unwrap();
        assert_eq!(write_instance(&back), canonical);

        // All of it at once, plus trailing comments.
        let noisy = canonical.replace('\n', "\t # noise\r\n");
        let back = parse_instance(&noisy).unwrap();
        assert_eq!(write_instance(&back), canonical);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_instance("").is_err());
        assert!(parse_instance("maxminlp 2\nagents 0\n").is_err());
        assert!(
            parse_instance("maxminlp 1\nc 0:1\n").is_err(),
            "row before agents"
        );
        assert!(
            parse_instance("maxminlp 1\nagents 1\nc 5:1\n").is_err(),
            "unknown agent"
        );
        assert!(
            parse_instance("maxminlp 1\nagents 1\nc 0:0\n").is_err(),
            "zero coef"
        );
        assert!(
            parse_instance("maxminlp 1\nagents 1\nx 0:1\n").is_err(),
            "bad directive"
        );
        assert!(
            parse_instance("maxminlp 1\nagents 1\nc 0-1\n").is_err(),
            "bad pair"
        );
    }

    #[test]
    fn error_reports_line_numbers() {
        let e = parse_instance("maxminlp 1\nagents 1\nc 0:bad\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn error_carries_the_offending_token() {
        // A bad pair deep inside a long row: the token pins it down.
        let e = parse_instance("maxminlp 1\nagents 9\nc 0:1 1:1 2:1 3:oops 4:1\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert_eq!(e.token.as_deref(), Some("3:oops"));
        assert!(e.to_string().contains("(at token '3:oops')"), "{e}");

        let e = parse_instance("maxminlp 1\nagents 9\nc 0:1 17\n").unwrap_err();
        assert_eq!(e.token.as_deref(), Some("17"));

        let e = parse_instance("maxminlp 1\nagents 9\nc x:1\n").unwrap_err();
        assert_eq!(e.token.as_deref(), Some("x:1"));

        let e = parse_instance("maxminlp 2\n").unwrap_err();
        assert_eq!((e.line, e.token.as_deref()), (1, Some("2")));

        let e = parse_instance("maxminlp 1\nagents nine\n").unwrap_err();
        assert_eq!(e.token.as_deref(), Some("nine"));

        let e = parse_instance("maxminlp 1\nagents 1\nx 0:1\n").unwrap_err();
        assert_eq!(e.token.as_deref(), Some("x"));

        // Builder-level row errors point at the whole (comment-stripped)
        // row, since the failing check spans tokens.
        let e = parse_instance("maxminlp 1\nagents 2\nc 0:1 0:2  # dup\n").unwrap_err();
        assert_eq!(e.token.as_deref(), Some("c 0:1 0:2"));

        // Whole-file errors carry no token.
        let e = parse_instance("").unwrap_err();
        assert_eq!((e.line, e.token), (0, None));
    }

    #[test]
    fn agent_count_is_bounded_by_the_input_length() {
        // 29 bytes declaring three billion agents: refused on the
        // `agents` line, before the builder allocates 12 GB for them.
        let text = "maxminlp 1\nagents 3000000000\n";
        assert_eq!(text.len(), 29);
        let e = parse_instance(text).unwrap_err();
        assert_eq!((e.line, e.token.as_deref()), (2, Some("3000000000")));
        assert!(e.message.contains("exceeds the input's 29 bytes"), "{e}");
        // The bound is inclusive: 21 bytes may declare 21 agents.
        let text = "maxminlp 1\nagents 21\n";
        assert_eq!(parse_instance(text).unwrap().n_agents(), 21);
        assert!(parse_instance("maxminlp 1\nagents 22\n").is_err());
    }
}
