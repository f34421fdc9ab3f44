//! Independent checks of `SOLVE`-format reply bodies against the
//! instance they answer: the benchmark re-derives feasibility and the
//! utility from the rows it generated, without trusting solver code.

use mmlp_instance::Instance;

/// Slack allowed on each packing constraint, `Σ a·x ≤ 1 + FEAS_TOL`.
pub const FEAS_TOL: f64 = 1e-9;
/// Relative tolerance between the reported and recomputed utility.
pub const UTILITY_RTOL: f64 = 1e-9;

/// The rows of an instance as plain `(agent, coefficient)` lists.
#[derive(Clone, Debug, PartialEq)]
pub struct Rows {
    n_agents: usize,
    cons: Vec<Vec<(u32, f64)>>,
    objs: Vec<Vec<(u32, f64)>>,
}

impl Rows {
    /// Copies the rows of `inst`.
    pub fn of(inst: &Instance) -> Rows {
        let row = |entries: &[mmlp_instance::Entry]| -> Vec<(u32, f64)> {
            entries.iter().map(|e| (e.agent.raw(), e.coef)).collect()
        };
        Rows {
            n_agents: inst.n_agents(),
            cons: inst
                .constraints()
                .map(|i| row(inst.constraint_row(i)))
                .collect(),
            objs: inst
                .objectives()
                .map(|k| row(inst.objective_row(k)))
                .collect(),
        }
    }

    /// Sets the coefficient of `agent` in constraint `row`, mirroring a
    /// `set c` delta edit. Returns false if the entry does not exist.
    pub fn set_constraint_coef(&mut self, row: u32, agent: u32, coef: f64) -> bool {
        let Some(entries) = self.cons.get_mut(row as usize) else {
            return false;
        };
        match entries.iter_mut().find(|(a, _)| *a == agent) {
            Some(e) => {
                e.1 = coef;
                true
            }
            None => false,
        }
    }
}

/// Checks one `SOLVE` body (`utility`, `guarantee`,
/// `optimum_upper_bound`, then one `x <agent> <value>` line per agent
/// in order): every `x` finite and `≥ 0`, every constraint row within
/// `1 + FEAS_TOL`, and the reported utility equal to the recomputed
/// `min_k Σ c·x` within `UTILITY_RTOL`.
pub fn check_solve_body(rows: &Rows, body: &str) -> Result<(), String> {
    let mut lines = body.lines();
    let mut header = |key: &str| -> Result<f64, String> {
        let line = lines
            .next()
            .ok_or_else(|| format!("missing '{key}' line"))?;
        line.strip_prefix(key)
            .and_then(|v| v.strip_prefix(' '))
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("expected '{key} <number>', got '{line}'"))
    };
    let utility = header("utility")?;
    header("guarantee")?;
    header("optimum_upper_bound")?;
    let mut x = Vec::with_capacity(rows.n_agents);
    for line in lines {
        let mut tok = line.split(' ');
        let (Some("x"), Some(id), Some(v), None) = (tok.next(), tok.next(), tok.next(), tok.next())
        else {
            return Err(format!("unexpected line '{line}'"));
        };
        if id.parse::<usize>().ok() != Some(x.len()) {
            return Err(format!("x line for agent {id}, expected {}", x.len()));
        }
        let v: f64 = v.parse().map_err(|_| format!("bad x value '{v}'"))?;
        if !(v.is_finite() && v >= 0.0) {
            return Err(format!(
                "x[{}] = {v} is not finite and non-negative",
                x.len()
            ));
        }
        x.push(v);
    }
    if x.len() != rows.n_agents {
        return Err(format!("{} x values for {} agents", x.len(), rows.n_agents));
    }
    for (i, row) in rows.cons.iter().enumerate() {
        let load: f64 = row.iter().map(|&(a, c)| c * x[a as usize]).sum();
        if load > 1.0 + FEAS_TOL {
            return Err(format!("constraint {i} violated: load {load}"));
        }
    }
    let recomputed = rows
        .objs
        .iter()
        .map(|row| row.iter().map(|&(a, c)| c * x[a as usize]).sum::<f64>())
        .fold(f64::INFINITY, f64::min);
    if (utility - recomputed).abs() > UTILITY_RTOL * recomputed.abs() {
        return Err(format!(
            "reported utility {utility} but min_k Σ c·x = {recomputed}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmlp_instance::InstanceBuilder;

    /// Two agents sharing one constraint `x0 + 2·x1 ≤ 1`, each its own
    /// objective.
    fn rows() -> Rows {
        let mut b = InstanceBuilder::with_agents(2);
        let (a0, a1) = (
            mmlp_instance::AgentId::new(0),
            mmlp_instance::AgentId::new(1),
        );
        b.add_constraint(&[(a0, 1.0), (a1, 2.0)]).unwrap();
        b.add_objective(&[(a0, 1.0)]).unwrap();
        b.add_objective(&[(a1, 3.0)]).unwrap();
        Rows::of(&b.build().unwrap())
    }

    fn body(utility: f64, x0: f64, x1: f64) -> String {
        format!("utility {utility}\nguarantee 2\noptimum_upper_bound 1\nx 0 {x0}\nx 1 {x1}\n")
    }

    #[test]
    fn accepts_a_feasible_body_with_the_right_utility() {
        // x = (0.5, 0.25): load 1.0, objectives 0.5 and 0.75.
        assert_eq!(check_solve_body(&rows(), &body(0.5, 0.5, 0.25)), Ok(()));
    }

    #[test]
    fn rejects_a_perturbed_infeasible_x() {
        let perturbed = 0.25 * (1.0 + 1e-6);
        let err = check_solve_body(&rows(), &body(0.5, 0.5, perturbed)).unwrap_err();
        assert!(err.contains("constraint 0 violated"), "{err}");
        assert!(check_solve_body(&rows(), &body(0.0, -1e-12, 0.0)).is_err());
        assert!(check_solve_body(&rows(), &body(0.5, 0.5, f64::NAN)).is_err());
    }

    #[test]
    fn rejects_a_wrong_utility_or_shape() {
        assert!(check_solve_body(&rows(), &body(0.5 * (1.0 + 1e-6), 0.5, 0.25)).is_err());
        let short = "utility 0\nguarantee 2\noptimum_upper_bound 1\nx 0 0\n";
        assert!(check_solve_body(&rows(), short).is_err());
        let swapped = "utility 0\nguarantee 2\noptimum_upper_bound 1\nx 1 0\nx 0 0\n";
        assert!(check_solve_body(&rows(), swapped).is_err());
        assert!(check_solve_body(&rows(), "ERR BUSY").is_err());
    }

    #[test]
    fn coefficient_edits_change_what_is_feasible() {
        let mut r = rows();
        assert!(r.set_constraint_coef(0, 1, 4.0));
        assert!(check_solve_body(&r, &body(0.5, 0.5, 0.25)).is_err());
        assert!(!r.set_constraint_coef(0, 7, 1.0));
        assert!(!r.set_constraint_coef(3, 0, 1.0));
    }
}
