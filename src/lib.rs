//! # `maxmin-lp`
//!
//! A local (constant-time distributed) approximation framework for
//! **max-min linear programs**, reproducing
//!
//! > P. Floréen, J. Kaasinen, P. Kaski, J. Suomela.
//! > *An Optimal Local Approximation Algorithm for Max-Min Linear
//! > Programs.* Proc. 21st ACM SPAA, 2009.
//!
//! A max-min LP maximises `min_k Σ_v c_kv x_v` subject to
//! `Σ_v a_iv x_v ≤ 1` and `x ≥ 0` on a network with one node per
//! variable/constraint/objective. The headline result is a local algorithm
//! whose approximation ratio `ΔI (1 − 1/ΔK) + ε` matches the unconditional
//! lower bound for local algorithms.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`instance`] — problem representation (`Instance`, `Solution`,
//!   `CommGraph`, validation, text format).
//! * [`lp`] — from-scratch LP substrate (two-phase simplex, max-min
//!   reduction, bisection, exact tree solver).
//! * [`net`] — synchronous port-numbered message-passing simulator.
//! * [`core`] — the paper's algorithm: unfolding (§3), local
//!   transformations (§4), alternating trees and smoothing (§5), the
//!   analysis artefacts (§6), the safe baseline and the packing/covering
//!   application.
//! * [`gen`] — seeded workload generators (random families, sensor grids,
//!   bandwidth allocation, regular graphs/lifts, lower-bound gadgets).
//! * [`lab`] — the experiment-campaign subsystem: declarative grid
//!   specs, a resumable parallel scheduler, structured JSONL results
//!   and ratio/scaling reports (`maxmin-lp campaign …`).
//! * [`obs`] — the observability layer: a lock-free metrics registry
//!   (counters, gauges, log-bucketed histograms) with Prometheus text
//!   exposition, request span trees with the solver phases nested
//!   inside, a bounded ring of them, the event journal and the
//!   span-tree renderer (`maxmin-lp obs`, the server's `METRICS` op;
//!   `specs/OBSERVABILITY.md`).
//! * [`serve`] — the concurrent solver service: a TCP line protocol
//!   with a content-addressed result cache, bounded-queue backpressure
//!   and a closed-loop load generator (`maxmin-lp serve` /
//!   `maxmin-lp loadgen`).
//! * [`store`] — the persistence layer: a checksummed binary codec for
//!   instances and solutions, and a sharded append-only
//!   content-addressed store with crash recovery, `gc` and `verify`
//!   (`maxmin-lp store …`; mounted by the server via `--store-dir`).
//!
//! ## Quickstart
//!
//! ```
//! use maxmin_lp::prelude::*;
//!
//! // Fair sharing: two customers (objectives) compete through two shared
//! // capacity constraints.
//! let mut b = InstanceBuilder::new();
//! let x0 = b.add_agent();
//! let x1 = b.add_agent();
//! let x2 = b.add_agent();
//! b.add_constraint(&[(x0, 1.0), (x1, 1.0)]).unwrap();
//! b.add_constraint(&[(x1, 1.0), (x2, 1.0)]).unwrap();
//! b.add_objective(&[(x0, 1.0), (x1, 1.0)]).unwrap();
//! b.add_objective(&[(x1, 1.0), (x2, 1.0)]).unwrap();
//! let inst = b.build().unwrap();
//!
//! // The paper's local algorithm with locality parameter R.
//! let solver = LocalSolver::new(3);
//! let out = solver.solve(&inst);
//! assert!(out.solution.is_feasible(&inst, 1e-9));
//!
//! // Certified a-posteriori quality versus the true LP optimum.
//! let opt = solve_maxmin(&inst).expect("bounded instance");
//! assert!(out.solution.utility(&inst) > 0.0);
//! assert!(opt.omega >= out.solution.utility(&inst) - 1e-9);
//! ```

pub use mmlp_core as core;
pub use mmlp_gen as gen;
pub use mmlp_instance as instance;
pub use mmlp_lab as lab;
pub use mmlp_lp as lp;
pub use mmlp_net as net;
pub use mmlp_obs as obs;
pub use mmlp_serve as serve;
pub use mmlp_store as store;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use mmlp_core::dynamic::DynamicSolver;
    pub use mmlp_core::safe::safe_solution;
    pub use mmlp_core::solver::{LocalSolver, LocalSolverOutput};
    pub use mmlp_core::SpecialForm;
    pub use mmlp_instance::{
        AgentId, CommGraph, ConstraintId, DegreeStats, Instance, InstanceBuilder, ObjectiveId,
        Solution,
    };
    pub use mmlp_lab::prelude::{
        expand, parse_spec, run_campaign, run_in_memory, write_spec, CampaignSpec, Job, JobRecord,
        SolverKind,
    };
    pub use mmlp_lp::maxmin::{certify_optimum, solve_maxmin};
    pub use mmlp_serve::prelude::{
        run_loadgen, Client, LoadConfig, Op, ServeConfig, Server, ServerSummary,
    };
    pub use mmlp_store::prelude::{ResultKey, Store, StoreConfig};
}
