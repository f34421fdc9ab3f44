//! The flat-view-arena contract, catalog-wide:
//!
//! 1. The flat network simulation of §5 (`solve_special_flat`) is
//!    **bitwise identical** to the centralized solver for every
//!    generator family at R ∈ {2, 3, 4}, and its logical message/byte
//!    accounting matches a golden table round for round.
//! 2. The gathered views are exactly the views `ViewInterner` builds by
//!    walking the topology: the same interned ids, and no new node.
//! 3. The arena's incremental `size`, `depth` and `tree_bytes` equal a
//!    recursive recount.
//! 4. Non-tree topologies dedup: the arena footprint is strictly
//!    smaller than the logical payload volume.
//! 5. Outputs do not depend on the run.

use maxmin_lp::core::distributed::solve_special_flat;
use maxmin_lp::core::smoothing::solve_special;
use maxmin_lp::core::transform::to_special_form;
use maxmin_lp::core::unfold::ViewInterner;
use maxmin_lp::core::SpecialForm;
use maxmin_lp::gen::catalog;
use maxmin_lp::gen::special::{cycle_special, random_special_form, SpecialFormConfig};
use maxmin_lp::instance::fnv1a64;
use maxmin_lp::net::{gather_views_flat, Network, ViewArena, ViewId, CHILD_BACK};

/// Special-forms a catalogue instance the way `mmlp-lab`'s distributed
/// jobs do.
fn special(fam: &maxmin_lp::gen::Family, size: usize, seed: u64) -> SpecialForm {
    let inst = fam.instance(size, seed);
    SpecialForm::new(to_special_form(&inst).instance).expect("§4 pipeline produces special form")
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// FNV-1a over the little-endian bytes of a per-round counter vector.
fn fnv_rounds(xs: &[u64]) -> u64 {
    let bytes: Vec<u8> = xs.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

/// `(family, R, rounds, messages, bytes, fnv1a64(messages_per_round),
/// fnv1a64(bytes_per_round))` of the §5 protocol on each catalogue
/// family at size 12, seed 1, §4-transformed. Recorded from the
/// message-passing implementation that shipped a whole view tree per
/// phase-1 message and one `f64` per phase-2/3 message; the flat path
/// must charge exactly that.
#[rustfmt::skip]
const GOLDEN: [(&str, usize, usize, u64, u64, u64, u64); 24] = [
    ("random-3x3", 2, 6, 646, 25312, 0xff920953a44a5cdf, 0x9230fc51c81048ca),
    ("random-3x3", 3, 18, 2194, 723640, 0xa2676e033e563d1f, 0x2b0aeb8410a570d0),
    ("random-3x3", 4, 30, 3742, 12063918, 0x655b745212d2ae5f, 0x8036672fe94bfcec),
    ("random-0/1", 2, 6, 698, 29150, 0x5bad0b7e39125707, 0xaff9f8ec62e8222f),
    ("random-0/1", 3, 18, 2390, 1039056, 0xf1487ad6e119b0c7, 0x42c98b6ce2351bfb),
    ("random-0/1", 4, 30, 4082, 22507316, 0xca3743f64d71da87, 0xfb25b4557567f19a),
    ("bipartite-2x3", 2, 6, 192, 3996, 0xfe64ed160ed3554d, 0x7e47e05cefd5bc50),
    ("bipartite-2x3", 3, 18, 624, 37536, 0x23e7c72f7fa4a9cd, 0x94405974f6d4b533),
    ("bipartite-2x3", 4, 30, 1056, 131688, 0x8bae49a0308f3e4d, 0xcacba49ecd92f7fe),
    ("special-form", 2, 6, 239, 6470, 0xab006c1b5e5d36e4, 0x070a3a2316d9ab0f),
    ("special-form", 3, 18, 797, 101780, 0x244e5b5f2f107cc4, 0xa2e455b19b78d6c6),
    ("special-form", 4, 30, 1355, 709302, 0x1738ab418d1532a4, 0xa19cbc7e9af55ba9),
    ("cycle", 2, 6, 192, 3648, 0xfe64ed160ed3554d, 0x8a79d2bdbe748077),
    ("cycle", 3, 18, 624, 26304, 0x23e7c72f7fa4a9cd, 0xe0072465c6f9f3e7),
    ("cycle", 4, 30, 1056, 68928, 0x8bae49a0308f3e4d, 0xb66257bb13faa087),
    ("sensor-grid", 2, 6, 1665, 72270, 0x8ad1f44708b888a5, 0xbf7422b3fbcbd2d8),
    ("sensor-grid", 3, 18, 5715, 3773070, 0xab85b3f2a7bdb155, 0x4686345587bf2899),
    ("sensor-grid", 4, 30, 9765, 128513070, 0x0b334dcd9721d105, 0x8a7a17f0d04b18e8),
    ("bandwidth", 2, 6, 612, 31188, 0x58539dfee9626919, 0x8f751ddbea8bc3fe),
    ("bandwidth", 3, 18, 2124, 1677084, 0x97f3d02380473519, 0xa8322a16b4b1f5b6),
    ("bandwidth", 4, 30, 3636, 61432668, 0x57b225d952a10119, 0x7d8addb28d7452bd),
    ("gadget-d3", 2, 6, 192, 3996, 0xfe64ed160ed3554d, 0x7e47e05cefd5bc50),
    ("gadget-d3", 3, 18, 624, 37536, 0x23e7c72f7fa4a9cd, 0x94405974f6d4b533),
    ("gadget-d3", 4, 30, 1056, 131688, 0x8bae49a0308f3e4d, 0xcacba49ecd92f7fe),
];

#[test]
fn flat_path_is_bitwise_identical_across_the_catalog() {
    let mut rows = 0;
    for fam in catalog() {
        let sf = special(&fam, 12, 1);
        for big_r in [2usize, 3, 4] {
            let central = solve_special(&sf, big_r, 1);
            let (flat, stats) = solve_special_flat(&sf, big_r);
            let at = format!("family {} R {big_r}", fam.name);
            assert_eq!(
                bits(flat.x.as_slice()),
                bits(central.x.as_slice()),
                "x: {at}"
            );
            assert_eq!(bits(&flat.t), bits(&central.t), "t: {at}");
            assert_eq!(bits(&flat.s), bits(&central.s), "s: {at}");
            // The logical accounting is reproduced round for round.
            let golden = GOLDEN
                .iter()
                .find(|g| g.0 == fam.name && g.1 == big_r)
                .unwrap_or_else(|| panic!("no golden row for {at}"));
            assert_eq!(
                (
                    stats.rounds,
                    stats.messages,
                    stats.bytes,
                    fnv_rounds(&stats.messages_per_round),
                    fnv_rounds(&stats.bytes_per_round),
                ),
                (golden.2, golden.3, golden.4, golden.5, golden.6),
                "accounting: {at}"
            );
            // And the dedup counters exist on top of it.
            assert!(stats.interned_nodes > 0, "{at}");
            assert!(stats.arena_bytes > 0, "{at}");
            rows += 1;
        }
    }
    assert_eq!(rows, GOLDEN.len(), "every golden row is checked");
}

#[test]
fn gathered_views_are_the_interned_topology_views() {
    // `ViewInterner` builds each view by walking the topology, with no
    // messages; the gather must land on exactly its ids, so interning
    // every view into the gathered arena finds each one already there.
    for fam in catalog() {
        for size in [12, 20] {
            let raw = fam.instance(size, 1);
            let transformed = to_special_form(&raw).instance;
            for (form, inst) in [("raw", &raw), ("§4", &transformed)] {
                let net = Network::new(inst);
                let mut interner = ViewInterner::new(inst);
                for depth in [0usize, 1, 2, 4, 6, 10] {
                    let mut fv = gather_views_flat(&net, depth);
                    let gathered = fv.arena.len();
                    for x in 0..net.n_nodes() as u32 {
                        let node = net.graph().node(x);
                        assert_eq!(
                            interner.intern(&mut fv.arena, node, depth),
                            fv.roots[x as usize],
                            "family {} size {size} {form} depth {depth} node {x}",
                            fam.name
                        );
                    }
                    assert_eq!(
                        fv.arena.len(),
                        gathered,
                        "family {} size {size} {form} depth {depth}: interning added nodes",
                        fam.name
                    );
                }
            }
        }
    }
}

/// `(size, depth, tree_bytes)` of the tree rooted at `id`, recounted by
/// walking every `Sub` child (shared subtrees counted per occurrence).
fn recount(arena: &ViewArena, id: ViewId) -> (u64, u32, u64) {
    let ports = arena.children(id).len() as u64;
    let coefs = arena.coefs(id).len() as u64;
    let (mut size, mut depth, mut bytes) = (1, 0, 1 + 2 * ports + 8 * coefs);
    for &c in arena.children(id) {
        if c < CHILD_BACK {
            let (s, d, b) = recount(arena, c);
            size += s;
            depth = depth.max(1 + d);
            bytes += b;
        }
    }
    (size, depth, bytes)
}

#[test]
fn arena_metrics_match_a_recursive_recount() {
    let bandwidth = catalog()
        .into_iter()
        .find(|f| f.name == "bandwidth")
        .expect("bandwidth is in the catalogue");
    let gathers = [
        (cycle_special(5, 0.75), 9),
        (random_special_form(&SpecialFormConfig::default(), 3), 4),
        (special(&bandwidth, 12, 1).instance().clone(), 6),
    ];
    for (inst, depth) in &gathers {
        let fv = gather_views_flat(&Network::new(inst), *depth);
        for id in 0..fv.arena.len() as ViewId {
            assert_eq!(
                recount(&fv.arena, id),
                (
                    fv.arena.size(id),
                    fv.arena.depth(id),
                    fv.arena.tree_bytes(id)
                ),
                "depth {depth} id {id}"
            );
        }
    }
}

#[test]
fn every_special_form_family_dedups_at_depth() {
    // Every §4-transformed catalogue instance contains cycles (or at
    // minimum re-sent shared subtrees), so the logical payload volume
    // must exceed the deduped arena footprint.
    for fam in catalog() {
        let sf = special(&fam, 14, 3);
        let (_, stats) = solve_special_flat(&sf, 3);
        assert!(
            stats.dedup_ratio() > 1.0,
            "family {}: dedup ratio {}",
            fam.name,
            stats.dedup_ratio()
        );
    }
}

#[test]
fn distributed_solve_is_reproducible_across_runs() {
    // Same seed → bit-identical outcome, run to run.
    let sf = || {
        SpecialForm::new(random_special_form(
            &SpecialFormConfig {
                n_objectives: 64,
                delta_k: 3,
                extra_constraints: 32,
                coef_range: (0.5, 2.0),
            },
            4,
        ))
        .expect("generator produces special form")
    };
    let (a, a_stats) = solve_special_flat(&sf(), 3);
    let (b, b_stats) = solve_special_flat(&sf(), 3);
    assert_eq!(a_stats, b_stats);
    assert_eq!(bits(&a.t), bits(&b.t));
    assert_eq!(bits(&a.s), bits(&b.s));
    assert_eq!(bits(a.x.as_slice()), bits(b.x.as_slice()));
}
