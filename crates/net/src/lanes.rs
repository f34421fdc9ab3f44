//! Chunked-lane folds over the arena's struct-of-arrays slices.
//!
//! The coefficient columns of [`crate::arena::ViewArena`] were laid out
//! as contiguous per-node `f64` slices precisely so the inner folds of
//! the evaluators (`min_i 1/a_iv` capacities, the safe baseline's
//! per-agent minima) can run over plain slices in fixed-width lanes
//! with **explicit accumulator splitting**: `LANES` independent partial
//! accumulators break the loop-carried `min` dependency chain, so the
//! out-of-order core overlaps the divides instead of serialising on one
//! accumulator.
//!
//! ## The reassociation boundary
//!
//! Splitting accumulators reorders the fold, which is only legal where
//! the result is **order-independent at the bit level**. The two fold
//! families in the hot path sit on opposite sides of that boundary:
//!
//! * **`min` folds reassociate freely.** Every value folded here is a
//!   reciprocal of a validated, strictly positive coefficient (or
//!   `+∞` for masked-out lanes), so there are no NaNs and no `±0.0`
//!   ties: the minimum of the multiset is a unique bit pattern no
//!   matter the association. These helpers are therefore used on paths
//!   whose outputs are asserted bit-identical to the scalar reference
//!   (`tests/flat_views.rs`, `safe::closed_form_matches_scalar_fold_bitwise`).
//! * **`+` folds do NOT reassociate.** Floating-point addition is not
//!   associative, and every sum in the `f±`/`t` evaluators feeds
//!   outputs that the test-suite pins bit-for-bit against the
//!   centralized solver — so those sums keep their original left-to-right
//!   order and are deliberately *not* given lane helpers. If a future
//!   PR wants vectorised sums it must either drop the bit-identity
//!   assertions or keep a scalar reference mode; see `specs/PERF.md`.

use mmlp_instance::NodeKind;

/// Number of independent `f64` accumulators used by the lane folds.
///
/// Four lanes cover one cache line of `f64`s and are enough to hide the
/// latency of the divide + `min` chain on current x86-64 and aarch64
/// cores; the `lane_width` bench (`crates/bench/benches/lanes.rs`)
/// records the measured sweep — widths 2–8 are within noise of each
/// other on long slices, while the hot callers here have short slices
/// (node degrees), where wider accumulators only add horizontal-combine
/// overhead.
pub const LANES: usize = 4;

/// Minimum of a slice with `W` split accumulators — the generic kernel
/// behind [`min_lanes`]; exposed so the lane-width bench can sweep `W`.
///
/// Returns `+∞` on an empty slice. Reassociation-safe only for inputs
/// without NaNs or `±0.0` ties (see the module docs); all callers fold
/// strictly positive finite values.
#[inline]
pub fn min_lanes_w<const W: usize>(values: &[f64]) -> f64 {
    let mut acc = [f64::INFINITY; W];
    let mut chunks = values.chunks_exact(W);
    for chunk in &mut chunks {
        for j in 0..W {
            acc[j] = acc[j].min(chunk[j]);
        }
    }
    for (j, &v) in chunks.remainder().iter().enumerate() {
        acc[j] = acc[j].min(v);
    }
    acc.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Minimum of a slice of strictly positive finite values, folded in
/// [`LANES`]-wide split accumulators. `+∞` on an empty slice.
#[inline]
pub fn min_lanes(values: &[f64]) -> f64 {
    min_lanes_w::<LANES>(values)
}

/// `min 1/coefs[p]` over the ports whose kind equals `want`, folded in
/// [`LANES`]-wide split accumulators with masked-out lanes contributing
/// `+∞` — the capacity fold `min_i 1/a_iv` of an agent's view node,
/// evaluated directly on the arena's parallel `port_kinds` / `coefs`
/// columns.
///
/// Bit-identical to the scalar filter-and-fold it replaces because the
/// reciprocals are strictly positive (coefficients are validated `> 0`)
/// and `min` over such a multiset is order-independent. Returns `+∞`
/// when no port matches.
#[inline]
pub fn min_recip_where(port_kinds: &[NodeKind], coefs: &[f64], want: NodeKind) -> f64 {
    debug_assert_eq!(port_kinds.len(), coefs.len());
    let n = coefs.len();
    let mut acc = [f64::INFINITY; LANES];
    let mut p = 0;
    while p + LANES <= n {
        for j in 0..LANES {
            let masked = if port_kinds[p + j] == want {
                1.0 / coefs[p + j]
            } else {
                f64::INFINITY
            };
            acc[j] = acc[j].min(masked);
        }
        p += LANES;
    }
    for j in 0..n - p {
        let masked = if port_kinds[p + j] == want {
            1.0 / coefs[p + j]
        } else {
            f64::INFINITY
        };
        acc[j] = acc[j].min(masked);
    }
    acc.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_min(values: &[f64]) -> f64 {
        values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn min_lanes_matches_scalar_fold_bitwise() {
        let mut values = Vec::new();
        let mut state = 0x243f_6a88_85a3_08d3u64;
        for len in 0..67usize {
            values.clear();
            for _ in 0..len {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Strictly positive, well away from subnormals.
                values.push(1.0 + (state >> 11) as f64 / (1u64 << 53) as f64);
            }
            assert_eq!(
                min_lanes(&values).to_bits(),
                scalar_min(&values).to_bits(),
                "len {len}"
            );
            let w = scalar_min(&values);
            assert_eq!(min_lanes_w::<2>(&values).to_bits(), w.to_bits());
            assert_eq!(min_lanes_w::<8>(&values).to_bits(), w.to_bits());
        }
    }

    #[test]
    fn empty_slices_fold_to_infinity() {
        assert_eq!(min_lanes(&[]), f64::INFINITY);
        assert_eq!(
            min_recip_where(&[], &[], NodeKind::Constraint),
            f64::INFINITY
        );
    }

    #[test]
    fn min_recip_where_matches_filtered_scalar_fold() {
        use NodeKind::{Agent, Constraint, Objective};
        let kinds = [
            Constraint, Objective, Constraint, Agent, Constraint, Objective, Constraint,
        ];
        let coefs = [2.0, 10.0, 0.5, 3.0, 4.0, 0.1, 8.0];
        for want in [Constraint, Objective, Agent] {
            let reference = kinds
                .iter()
                .zip(&coefs)
                .filter(|(k, _)| **k == want)
                .map(|(_, a)| 1.0 / a)
                .fold(f64::INFINITY, f64::min);
            let lanes = min_recip_where(&kinds, &coefs, want);
            assert_eq!(lanes.to_bits(), reference.to_bits(), "{want:?}");
        }
    }

    #[test]
    fn no_matching_port_is_infinite() {
        let kinds = [NodeKind::Objective; 5];
        let coefs = [1.0; 5];
        assert_eq!(
            min_recip_where(&kinds, &coefs, NodeKind::Constraint),
            f64::INFINITY
        );
    }
}
