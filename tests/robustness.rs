//! Robustness properties: parsers never panic, generators are
//! deterministic and valid at every size, and the communication graph's
//! port structure is self-consistent on arbitrary instances.

use maxmin_lp::gen::catalog;
use maxmin_lp::gen::random::{random_general, RandomConfig};
use maxmin_lp::instance::{textfmt, CommGraph, Delta, DeltaError};
use proptest::prelude::*;

/// Valid tokens of the delta text's fields.
const DELTA_DIRECTIVES: [&str; 7] = [
    "set", "addedge", "rmedge", "addagent", "rmagent", "addrow", "rmrow",
];
const DELTA_KINDS: [&str; 2] = ["c", "o"];
const DELTA_NUMBERS: [&str; 3] = ["0", "3", "4294967295"];
const DELTA_HASHES: [&str; 2] = ["00112233aabbccdd", "ffffffffffffffff"];
const DELTA_PAIRS: [&str; 7] = [
    "0:1", "3:0.25", "2:1e-300", "1:-2", "0:NaN", "5:1e400", "4:-0",
];
/// Near misses a drawn line may carry in place of one token or after
/// its last one (the empty one drops a token).
const DELTA_NEAR_MISSES: [&str; 12] = [
    "",
    "q",
    "frobnicate",
    "mmlpdelta",
    "2",
    "4294967296",
    "-1",
    "0011",
    "+0112233aabbccdd",
    "x:1",
    "1:",
    "0:1:2",
];
const DELTA_EOLS: [&str; 3] = ["\n", "\r\n", "\r"];

/// How a drawn line is damaged and ended: the token a near miss
/// replaces (one past the last token appends it, further leaves the
/// line intact), which near miss, whether a `#` comment follows, and
/// which line ending.
type LineEnd = (usize, usize, usize, usize);

fn line_end() -> impl Strategy<Value = LineEnd> {
    (
        0usize..12,
        0usize..DELTA_NEAR_MISSES.len(),
        0usize..2,
        0usize..3,
    )
}

/// An edit line's tokens: a directive and the fields it takes.
fn edit_tokens(
    (directive, kind, id, agent): (usize, usize, usize, usize),
    pairs: &[usize],
) -> Vec<&'static str> {
    let d = DELTA_DIRECTIVES[directive];
    let (k, n, a) = (DELTA_KINDS[kind], DELTA_NUMBERS[id], DELTA_NUMBERS[agent]);
    let pairs = pairs.iter().map(|&p| DELTA_PAIRS[p]);
    match d {
        "set" | "addedge" => [d, k, n].into_iter().chain(pairs.take(1)).collect(),
        "rmedge" => vec![d, k, n, a],
        "rmagent" => vec![d, a],
        "addrow" => [d, k].into_iter().chain(pairs).collect(),
        "rmrow" => vec![d, k, n],
        _ => vec![d],
    }
}

/// Appends one line: `tokens` with the drawn damage, comment and
/// ending. Text ending 3 mixes the three, each line keeping its own.
fn push_line(
    text: &mut String,
    mut tokens: Vec<&str>,
    (at, miss, comment, eol): LineEnd,
    ending: usize,
) {
    let miss = DELTA_NEAR_MISSES[miss];
    if at < tokens.len() {
        tokens[at] = miss;
    } else if at == tokens.len() {
        tokens.push(miss);
    }
    text.push_str(&tokens.join(" "));
    if comment == 1 {
        text.push_str("  # note: 1:2");
    }
    text.push_str(DELTA_EOLS[if ending < 3 { ending } else { eol }]);
}

/// `Delta::parse_text` on `text`: a rejection is a parse error that
/// names a line of the input, and an accepted text's canonical form
/// re-parses to the same canonical form.
fn check_delta_text(text: &str) {
    match Delta::parse_text(text) {
        Ok(delta) => {
            let canonical = delta.to_text();
            let back = Delta::parse_text(&canonical)
                .unwrap_or_else(|e| panic!("canonical text rejected ({e}):\n{canonical}"));
            assert_eq!(back.to_text(), canonical, "input {text:?}");
        }
        Err(DeltaError::Parse { at, .. }) => {
            assert!(
                at <= text.split(['\n', '\r']).count(),
                "error at line {at} of {text:?}"
            );
        }
        Err(e) => panic!("parse_text gave a non-parse error {e:?} on {text:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The delta text parser, the one delta decoder, gives a typed error
    /// (never a panic) on arbitrary input. Texts built from a header, a
    /// base line and 0–4 edit lines of valid tokens and near misses,
    /// with LF, CRLF, CR or mixed endings and `#` comments, parse to a
    /// delta whose canonical text is a fixpoint of the parser.
    #[test]
    fn delta_parser_never_panics(
        noise in ".{0,200}",
        header in line_end(),
        base in (0usize..2, line_end()),
        edits in proptest::collection::vec(
            (
                (0usize..7, 0usize..2, 0usize..3, 0usize..3),
                proptest::collection::vec(0usize..7, 1..3),
                line_end(),
            ),
            0..5,
        ),
        ending in 0usize..4,
    ) {
        check_delta_text(&noise);
        let mut text = String::new();
        push_line(&mut text, vec!["mmlpdelta", "1"], header, ending);
        push_line(&mut text, vec!["base", DELTA_HASHES[base.0]], base.1, ending);
        for (fields, pairs, end) in &edits {
            push_line(&mut text, edit_tokens(*fields, pairs), *end, ending);
        }
        check_delta_text(&text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The text parser returns errors (never panics) on arbitrary input.
    #[test]
    fn parser_never_panics(input in ".{0,200}") {
        let _ = textfmt::parse_instance(&input);
    }

    /// Structured-but-corrupt input: random token streams after a valid
    /// header must error or parse — never panic, never build an invalid
    /// instance.
    #[test]
    fn parser_handles_corrupt_rows(
        n in 1usize..5,
        rows in proptest::collection::vec((0u32..8, -2.0f64..4.0), 0..6)
    ) {
        let mut text = format!("maxminlp 1\nagents {n}\n");
        for (a, c) in rows {
            text.push_str(&format!("c {a}:{c}\no {a}:{c}\n"));
        }
        if let Ok(inst) = textfmt::parse_instance(&text) {
            // Anything that parses satisfies the structural invariants.
            for i in inst.constraints() {
                for e in inst.constraint_row(i) {
                    prop_assert!(e.coef > 0.0 && e.coef.is_finite());
                    prop_assert!(e.agent.idx() < inst.n_agents());
                }
            }
        }
    }

    /// Reciprocal port labels are consistent on arbitrary random
    /// instances (walking any edge out and back returns to the start).
    #[test]
    fn comm_graph_ports_are_reciprocal(seed in 0u64..300) {
        let inst = random_general(&RandomConfig::default(), seed);
        let g = CommGraph::new(&inst);
        for x in 0..g.n_nodes() as u32 {
            for (port, adj) in g.neighbors(x).iter().enumerate() {
                let back = g.neighbors(adj.to)[adj.port_at_to as usize];
                prop_assert_eq!(back.to, x);
                prop_assert_eq!(back.port_at_to as usize, port);
                prop_assert_eq!(back.edge, adj.edge);
            }
        }
    }
}

#[test]
fn all_families_deterministic_at_all_sizes() {
    for fam in catalog() {
        for size in [20, 50, 90] {
            let a = textfmt::write_instance(&fam.instance(size, 3));
            let b = textfmt::write_instance(&fam.instance(size, 3));
            assert_eq!(
                a, b,
                "family {} size {size} must be deterministic",
                fam.name
            );
        }
    }
}

#[test]
fn round_trip_through_text_preserves_all_families() {
    for fam in catalog() {
        let inst = fam.instance(40, 9);
        let text = textfmt::write_instance(&inst);
        let back =
            textfmt::parse_instance(&text).unwrap_or_else(|e| panic!("family {}: {e}", fam.name));
        assert_eq!(textfmt::write_instance(&back), text, "family {}", fam.name);
    }
}
