//! Property test: the instance text format round-trips **exactly**
//! (structure, port order and float bits) for instances drawn from
//! every family in the generator catalogue — the invariant campaign
//! resumability leans on, since job identity assumes a family/size/seed
//! triple regenerates the identical instance a serialised copy would.

use maxmin_lp::gen::catalog;
use maxmin_lp::instance::hash::instance_hash;
use maxmin_lp::instance::textfmt::{parse_instance, write_instance, CanonicalText};
use maxmin_lp::instance::ConstraintId;
use proptest::prelude::*;

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

    /// The row-offset text stays the canonical text under edits: after
    /// every random coefficient edit, re-rendering just the edited row
    /// equals a fresh `write_instance` byte for byte (and so hashes to
    /// `instance_hash`), whatever the new coefficient's spelling length.
    #[test]
    fn row_rerenders_track_write_instance_under_coefficient_edits(
        size in 8usize..40,
        seed in 0u64..1_000,
        edits in 1usize..12,
    ) {
        for fam in catalog() {
            let mut inst = fam.instance(size, seed);
            if inst.n_constraints() == 0 {
                continue;
            }
            let mut text = CanonicalText::render(&inst);
            let mut mix = seed ^ ((size as u64) << 32);
            for step in 0..edits {
                mix = mix
                    .wrapping_add(0x2545_f491_4f6c_dd1d)
                    .wrapping_mul(0x5851_f42d_4c95_7f2d);
                let i = ConstraintId::new((mix % inst.n_constraints() as u64) as u32);
                // Factors from 1e-6 to 1e6: spellings shrink and grow.
                let mantissa = 1.0 + ((mix >> 20) % 1000) as f64 / 1000.0;
                let factor = 10f64.powi((mix >> 40) as i32 % 13 - 6) * mantissa;
                let coefs: Vec<f64> = inst
                    .constraint_row(i)
                    .iter()
                    .map(|e| e.coef * factor)
                    .collect();
                inst.set_constraint_coefs(i, &coefs).unwrap();
                text.rerender_constraint(&inst, i);
                prop_assert_eq!(
                    text.as_str(),
                    write_instance(&inst).as_str(),
                    "family {} step {}",
                    fam.name,
                    step
                );
                prop_assert_eq!(text.hash(), instance_hash(&inst));
            }
        }
    }
}
