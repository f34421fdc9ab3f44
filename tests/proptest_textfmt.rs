//! Property tests: the instance text format round-trips **exactly**
//! (structure, port order and float bits) for instances drawn from
//! every family in the generator catalogue — the invariant campaign
//! resumability leans on, since job identity assumes a family/size/seed
//! triple regenerates the identical instance a serialised copy would —
//! and the content hash (hash v2, over the parsed structure) ignores
//! every surface-syntax liberty of the parser while it sees every
//! change of structure, order or float bits.

use maxmin_lp::gen::catalog;
use maxmin_lp::instance::hash::{constraint_term, hash_of_sum, instance_hash, instance_sum};
use maxmin_lp::instance::textfmt::{parse_instance, write_instance};
use maxmin_lp::instance::{AgentId, ConstraintId, Instance, InstanceBuilder};
use proptest::prelude::*;

/// An instance's rows, constraints then objectives, as builder input.
type Rows = Vec<Vec<(AgentId, f64)>>;

fn rows_of(inst: &Instance) -> (Rows, Rows) {
    let pairs =
        |row: &[maxmin_lp::instance::Entry]| row.iter().map(|e| (e.agent, e.coef)).collect();
    (
        inst.constraints()
            .map(|i| pairs(inst.constraint_row(i)))
            .collect(),
        inst.objectives()
            .map(|k| pairs(inst.objective_row(k)))
            .collect(),
    )
}

fn build(n_agents: usize, cons: &Rows, objs: &Rows) -> Instance {
    let mut b = InstanceBuilder::with_agents(n_agents);
    for row in cons {
        b.add_constraint(row).unwrap();
    }
    for row in objs {
        b.add_objective(row).unwrap();
    }
    b.build().unwrap()
}

/// The text of `inst` with every liberty the parser allows at once: a
/// leading comment, blank lines, indentation, runs of spaces and tabs
/// between tokens, trailing comments, CRLF line ends, and each
/// coefficient spelled in exponent form (the same bits).
fn liberal_text(inst: &Instance) -> String {
    let mut out = String::from("# a liberal spelling\r\n\r\n  maxminlp   1 # header\r\n");
    out.push_str(&format!("\tagents\t{}\r\n\r\n", inst.n_agents()));
    let (cons, objs) = rows_of(inst);
    for (tag, rows) in [("c", &cons), ("o", &objs)] {
        for row in rows {
            out.push_str(&format!("   {tag}"));
            for (a, c) in row {
                out.push_str(&format!(" \t {}:{:e}", a.raw(), c));
            }
            out.push_str("  # row\r\n");
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For every catalogue family: `parse(write(i))` reproduces `i`
    /// exactly, and re-serialising is byte-identical (which pins the
    /// float bits, since Rust's shortest-round-trip formatting is
    /// injective on f64).
    #[test]
    fn every_catalog_family_round_trips_exactly(size in 8usize..48, seed in 0u64..1_000) {
        for fam in catalog() {
            let inst = fam.instance(size, seed);
            let text = write_instance(&inst);
            let back = parse_instance(&text)
                .unwrap_or_else(|e| panic!("family {}: {e}", fam.name));
            prop_assert_eq!(back.n_agents(), inst.n_agents());
            prop_assert_eq!(back.n_constraints(), inst.n_constraints());
            prop_assert_eq!(back.n_objectives(), inst.n_objectives());
            for i in inst.constraints() {
                prop_assert_eq!(back.constraint_row(i), inst.constraint_row(i));
            }
            for k in inst.objectives() {
                prop_assert_eq!(back.objective_row(k), inst.objective_row(k));
            }
            prop_assert_eq!(write_instance(&back), text.clone(), "family {}", fam.name);

            // Surface-syntax hardening: the same file with CRLF line
            // endings and trailing whitespace must parse to the same
            // canonical form (hence the same content hash).
            let crlf = text.replace('\n', "\r\n");
            let back = parse_instance(&crlf)
                .unwrap_or_else(|e| panic!("family {} (crlf): {e}", fam.name));
            prop_assert_eq!(write_instance(&back), text.clone(), "family {} crlf", fam.name);

            let padded = text.replace('\n', " \t\r\n");
            let back = parse_instance(&padded)
                .unwrap_or_else(|e| panic!("family {} (padded): {e}", fam.name));
            prop_assert_eq!(
                write_instance(&back),
                text.clone(),
                "family {} trailing-whitespace",
                fam.name
            );
        }
    }

    /// Hash v2 sees only the parsed structure: every surface-syntax
    /// variant of a catalogue instance hashes equal to it, while one
    /// flipped coefficient bit, two swapped rows, two swapped ports or
    /// an extra isolated agent each change the hash.
    #[test]
    fn hash_v2_ignores_surface_syntax_and_sees_every_structural_change(
        size in 8usize..40,
        seed in 0u64..1_000,
        pick in 0usize..1_000,
    ) {
        for fam in catalog() {
            let inst = fam.instance(size, seed);
            let h = instance_hash(&inst);
            let text = write_instance(&inst);
            for (label, variant) in [
                ("liberal", liberal_text(&inst)),
                ("lone-cr", text.replace('\n', "\r")),
                ("padded", text.replace('\n', " \t\r\n")),
            ] {
                let back = parse_instance(&variant)
                    .unwrap_or_else(|e| panic!("family {} ({label}): {e}", fam.name));
                prop_assert_eq!(instance_hash(&back), h, "family {} {}", fam.name, label);
            }

            let n = inst.n_agents();
            let (cons, objs) = rows_of(&inst);
            let mut changed = Vec::new();
            // One coefficient bit, in a row picked across both sides.
            let (mut c2, mut o2) = (cons.clone(), objs.clone());
            let all = c2.len() + o2.len();
            let row = if pick % all < c2.len() {
                &mut c2[pick % all]
            } else {
                &mut o2[pick % all - cons.len()]
            };
            let slot = pick % row.len();
            row[slot].1 = f64::from_bits(row[slot].1.to_bits() ^ 1);
            changed.push(("bit flip", build(n, &c2, &o2)));
            // Two distinct rows swapped, on whichever side has them.
            for (side, rows) in [("constraint", &cons), ("objective", &objs)] {
                let Some(j) = (1..rows.len()).find(|&j| rows[j] != rows[0]) else {
                    continue;
                };
                let mut swapped = rows.clone();
                swapped.swap(0, j);
                let (c, o) = if side == "constraint" {
                    (&swapped, &objs)
                } else {
                    (&cons, &swapped)
                };
                changed.push(("row swap", build(n, c, o)));
            }
            // Two ports of one row swapped.
            if let Some(r) = cons.iter().position(|row| row.len() >= 2) {
                let mut c2 = cons.clone();
                c2[r].swap(0, 1);
                changed.push(("port swap", build(n, &c2, &objs)));
            }
            // One more agent, in no row.
            changed.push(("isolated agent", build(n + 1, &cons, &objs)));
            for (label, other) in &changed {
                prop_assert_ne!(instance_hash(other), h, "family {} {}", fam.name, label);
            }
        }
    }

    /// The per-row update tracks the whole hash under edits: after every
    /// random coefficient edit, swapping the edited row's term in the
    /// hash sum names the edited instance, and its text round trip,
    /// whatever the new coefficient's magnitude.
    #[test]
    fn row_term_updates_track_instance_hash_under_coefficient_edits(
        size in 8usize..40,
        seed in 0u64..1_000,
        edits in 1usize..12,
    ) {
        for fam in catalog() {
            let mut inst = fam.instance(size, seed);
            if inst.n_constraints() == 0 {
                continue;
            }
            let mut sum = instance_sum(&inst);
            let mut mix = seed ^ ((size as u64) << 32);
            for step in 0..edits {
                mix = mix
                    .wrapping_add(0x2545_f491_4f6c_dd1d)
                    .wrapping_mul(0x5851_f42d_4c95_7f2d);
                let i = ConstraintId::new((mix % inst.n_constraints() as u64) as u32);
                // Factors from 1e-6 to 1e6.
                let mantissa = 1.0 + ((mix >> 20) % 1000) as f64 / 1000.0;
                let factor = 10f64.powi((mix >> 40) as i32 % 13 - 6) * mantissa;
                let coefs: Vec<f64> = inst
                    .constraint_row(i)
                    .iter()
                    .map(|e| e.coef * factor)
                    .collect();
                let old = constraint_term(&inst, i);
                inst.set_constraint_coefs(i, &coefs).unwrap();
                sum = sum.wrapping_sub(old).wrapping_add(constraint_term(&inst, i));
                prop_assert_eq!(sum, instance_sum(&inst), "family {} step {}", fam.name, step);
                let back = parse_instance(&write_instance(&inst)).unwrap();
                prop_assert_eq!(hash_of_sum(sum), instance_hash(&back), "family {} step {}", fam.name, step);
            }
        }
    }
}
