//! A named catalogue of workload families, shared by the test-suite, the
//! criterion benches and the experiment harness so that every table in
//! `EXPERIMENTS.md` (the harness's committed output) draws from the same
//! distributions.

use crate::apps::{bandwidth_ladder, sensor_grid, BandwidthConfig, SensorGridConfig};
use crate::lower_bound::regular_gadget;
use crate::random::{random_bipartite, random_general, random_zero_one, RandomConfig};
use crate::special::{cycle_special, random_special_form, SpecialFormConfig};
use mmlp_instance::Instance;

/// A named instance family: `make(size, seed)` produces an instance whose
/// node count grows roughly linearly in `size`.
pub struct Family {
    /// Stable identifier used in tables (e.g. `random-3x3`).
    pub name: &'static str,
    /// One-line description for reports.
    pub description: &'static str,
    /// Generator.
    pub make: Box<dyn Fn(usize, u64) -> Instance + Send + Sync>,
}

impl Family {
    /// Generates an instance of roughly `size` agents with `seed`.
    pub fn instance(&self, size: usize, seed: u64) -> Instance {
        (self.make)(size, seed)
    }
}

/// The standard catalogue used across the experiment suite.
pub fn catalog() -> Vec<Family> {
    vec![
        Family {
            name: "random-3x3",
            description: "random general instances, ΔI = ΔK = 3, coefficients in [0.5, 2]",
            make: Box::new(|size, seed| {
                random_general(
                    &RandomConfig {
                        n_agents: size.max(4),
                        n_constraints: (size * 3 / 4).max(2),
                        n_objectives: (size * 5 / 8).max(2),
                        delta_i: 3,
                        delta_k: 3,
                        coef_range: (0.5, 2.0),
                    },
                    seed,
                )
            }),
        },
        Family {
            name: "random-0/1",
            description: "random {0,1}-coefficient instances, ΔI = ΔK = 3",
            make: Box::new(|size, seed| {
                random_zero_one(
                    &RandomConfig {
                        n_agents: size.max(4),
                        n_constraints: (size * 3 / 4).max(2),
                        n_objectives: (size * 5 / 8).max(2),
                        delta_i: 3,
                        delta_k: 3,
                        coef_range: (1.0, 1.0),
                    },
                    seed,
                )
            }),
        },
        Family {
            name: "bipartite-2x3",
            description: "bipartite instances (|Iv| = |Kv| = 1), ΔI = 2, ΔK = 3",
            make: Box::new(|size, seed| {
                random_bipartite((size / 2).max(4), 2, 3, (0.5, 2.0), seed)
            }),
        },
        Family {
            name: "special-form",
            description: "special-form instances (§5 shape), ΔI = 2, ΔK = 3",
            make: Box::new(|size, seed| {
                random_special_form(
                    &SpecialFormConfig {
                        n_objectives: (size * 2 / 5).max(2),
                        delta_k: 3,
                        extra_constraints: size / 4,
                        coef_range: (0.5, 2.0),
                    },
                    seed,
                )
            }),
        },
        Family {
            name: "cycle",
            description: "the 4-periodic agent/constraint/objective cycle (ΔI = ΔK = 2)",
            make: Box::new(|size, _seed| cycle_special((size / 2).max(2), 1.0)),
        },
        Family {
            name: "sensor-grid",
            description: "balanced data gathering on a torus (ΔI = ΔK = 5)",
            make: Box::new(|size, seed| {
                let side = ((size / 5) as f64).sqrt().ceil().max(3.0) as usize;
                sensor_grid(
                    &SensorGridConfig {
                        width: side,
                        height: side,
                        cost_range: (1.0, 2.0),
                    },
                    seed,
                )
            }),
        },
        Family {
            name: "bandwidth",
            description: "fair bandwidth allocation on a two-rail ring (ΔI = 3, ΔK = 2)",
            make: Box::new(|size, seed| {
                bandwidth_ladder(
                    &BandwidthConfig {
                        n_customers: (size / 2).max(4),
                        window: 3,
                        coef_range: (0.8, 1.25),
                    },
                    seed,
                )
            }),
        },
        Family {
            name: "gadget-d3",
            description: "lower-bound incidence gadget, d = 3, ΔI = 2 (optimum 3/2)",
            make: Box::new(|size, seed| {
                // n_objectives·d must divide ΔI = 2: round up to even.
                let n = ((size / 3).max(4) + 1) & !1;
                regular_gadget(n, 3, 2, 6, seed).0
            }),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmlp_instance::validate;

    #[test]
    fn every_family_generates_clean_instances() {
        for fam in catalog() {
            for seed in 0..3 {
                let inst = fam.instance(40, seed);
                validate::check(&inst)
                    .unwrap_or_else(|e| panic!("family {} seed {seed}: {e}", fam.name));
                assert!(inst.n_agents() > 0);
            }
        }
    }

    #[test]
    fn families_scale_with_size() {
        for fam in catalog() {
            let small = fam.instance(24, 0);
            let large = fam.instance(120, 0);
            assert!(
                large.n_agents() > small.n_agents(),
                "family {} does not scale",
                fam.name
            );
        }
    }

    #[test]
    fn catalog_names_are_unique() {
        let names: Vec<&str> = catalog().iter().map(|f| f.name).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }
}
