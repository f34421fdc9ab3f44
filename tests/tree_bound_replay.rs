//! `TreeBound::t` replays the `t_u` bisection on a bracket of the point
//! where the computed feasibility predicate flips, so it must return the
//! plain bisection's (`TreeBound::t_bisect`) bits for every agent. That
//! holds while every step of the `f±` recursions is a monotone IEEE
//! operation in a fixed order and the bracket logic is right, which this
//! test checks. It also needs the margin walk to answer exactly like the
//! plain walk; a rounding difference between the two shows only when a
//! midpoint lands in the few floats where they disagree, so the unit
//! test `margin_walks_answer_like_the_plain_walk_at_the_flip` in
//! `tree_bound` checks that at each agent's flip directly.
//!
//! The message-passing simulation runs the same search over each
//! agent's gathered view (`distributed::ArenaTree`), so the test also
//! requires it to return the same bits in exactly as many ω probes as
//! over the special form.

use maxmin_lp::core::distributed::ArenaTree;
use maxmin_lp::core::transform::to_special_form;
use maxmin_lp::core::tree_bound::{Scratch, TreeBound};
use maxmin_lp::core::SpecialForm;
use maxmin_lp::gen::catalog;
use maxmin_lp::net::{gather_views_flat, Network};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Catalog family × size {16, 64} × seed × R 2–5: the replay equals
    /// the bisection bit for bit, over the whole `t` batch, and over
    /// the gathered views it takes the central replay's probes.
    #[test]
    fn replay_equals_bisection_bitwise_catalog_wide(
        family in 0usize..8,
        size in (0usize..2).prop_map(|i| [16, 64][i]),
        seed in 0u64..1_000,
        big_r in 2usize..6,
    ) {
        let fams = catalog();
        let fam = &fams[family];
        let sf = SpecialForm::new(to_special_form(&fam.instance(size, seed)).instance).unwrap();
        let tb = TreeBound::new(&sf, big_r);
        let mut sc = Scratch::default();
        let bisect: Vec<u64> = sf
            .instance()
            .agents()
            .map(|u| tb.t_bisect(u, &mut sc).to_bits())
            .collect();
        let at = format!("{} n={size} seed={seed} R={big_r}", fam.name);
        let replay: Vec<u64> = tb.all().iter().map(|t| t.to_bits()).collect();
        prop_assert_eq!(&replay, &bisect, "{}", at);

        let flat = gather_views_flat(&Network::new(sf.instance()), 4 * (big_r - 2) + 2);
        let tree = ArenaTree::new(&flat.arena);
        let arena_tb = TreeBound::new(&tree, big_r);
        let (mut central_sc, mut arena_sc) = (Scratch::default(), Scratch::default());
        for u in sf.instance().agents() {
            let before = central_sc.probes();
            tb.t(u, &mut central_sc);
            let central_probes = central_sc.probes() - before;
            let before = arena_sc.probes();
            let t = arena_tb.t(flat.roots[u.idx()], &mut arena_sc);
            let arena_probes = arena_sc.probes() - before;
            prop_assert_eq!(t.to_bits(), bisect[u.idx()], "{} {}: arena t", at, u);
            prop_assert_eq!(arena_probes, central_probes, "{} {}: probes", at, u);
        }
    }
}
