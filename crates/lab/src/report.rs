//! Aggregation of record logs into tables: ratio-vs-guarantee, solver
//! comparison, and scaling (wall time / protocol cost), rendered as
//! aligned text and CSV.

use crate::job::SolverKind;
use crate::record::{JobRecord, JobStatus};
use std::collections::BTreeMap;

/// A table rendered as aligned text or CSV.
#[derive(Clone, Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// The table without the column headed `header` (unchanged if there
    /// is none): e.g. a timing column, for output that must be the same
    /// on every run.
    pub fn without_column(mut self, header: &str) -> Table {
        if let Some(at) = self.headers.iter().position(|h| h == header) {
            self.headers.remove(at);
            for row in &mut self.rows {
                row.remove(at);
            }
        }
        self
    }

    /// Renders with right-aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = fmt_row(&self.headers);
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders as a GitHub-flavoured markdown table.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Renders as CSV (RFC-4180 quoting where needed).
    pub fn render_csv(&self) -> String {
        let quote = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        for line in std::iter::once(&self.headers).chain(&self.rows) {
            out.push_str(&line.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

fn ok_records(records: &[JobRecord]) -> impl Iterator<Item = &JobRecord> {
    records.iter().filter(|r| r.status == JobStatus::Ok)
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in xs {
        sum += x;
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// The ratio-vs-guarantee table: ok records of guarantee-carrying
/// solvers (local / distributed), grouped by family × solver × R.
pub fn ratio_vs_guarantee(records: &[JobRecord]) -> Table {
    let mut groups: BTreeMap<(String, &'static str, usize), Vec<&JobRecord>> = BTreeMap::new();
    for r in ok_records(records) {
        if r.solver.uses_r() {
            groups
                .entry((r.family.clone(), r.solver.name(), r.big_r))
                .or_default()
                .push(r);
        }
    }
    let mut table = Table::new(&[
        "family",
        "solver",
        "ΔI",
        "ΔK",
        "R",
        "jobs",
        "worst ratio",
        "mean ratio",
        "guarantee",
        "threshold",
    ]);
    for ((family, solver, big_r), rs) in &groups {
        let worst = rs.iter().map(|r| r.ratio).fold(0.0f64, f64::max);
        let mean_ratio = mean(rs.iter().map(|r| r.ratio));
        let guarantee = rs.iter().map(|r| r.guarantee).fold(0.0f64, f64::max);
        let threshold = rs.iter().map(|r| r.threshold).fold(0.0f64, f64::max);
        let delta_i = rs.iter().map(|r| r.delta_i).max().unwrap_or(0);
        let delta_k = rs.iter().map(|r| r.delta_k).max().unwrap_or(0);
        table.row(vec![
            family.clone(),
            solver.to_string(),
            delta_i.to_string(),
            delta_k.to_string(),
            big_r.to_string(),
            rs.len().to_string(),
            format!("{worst:.4}"),
            format!("{mean_ratio:.4}"),
            format!("{guarantee:.4}"),
            format!("{threshold:.4}"),
        ]);
    }
    table
}

/// The solver-comparison table, grouped by family: per solver present
/// in the log, mean utility and ratio-of-means — each solver's ratio is
/// computed against the mean optimum **of its own records**, so a
/// solver that failed on part of the grid is not judged against optima
/// of instances it never solved. The ω* column is the mean optimum over
/// distinct grid points (one record per size × seed × R). Solvers with
/// no ok record for a family render as `-`.
pub fn solver_comparison(records: &[JobRecord]) -> Table {
    let mut solvers: Vec<SolverKind> = Vec::new();
    for s in SolverKind::all() {
        if ok_records(records).any(|r| r.solver == s) {
            solvers.push(s);
        }
    }
    let mut headers: Vec<String> = vec!["family".into(), "ω* (mean)".into()];
    for s in &solvers {
        headers.push(format!("ω {}", s.name()));
        headers.push(format!("ratio {}", s.name()));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);

    let mut families: Vec<String> = ok_records(records).map(|r| r.family.clone()).collect();
    families.sort();
    families.dedup();
    for family in &families {
        let fam_records: Vec<&JobRecord> = ok_records(records)
            .filter(|r| &r.family == family)
            .collect();
        // One optimum per grid point, not per record: multi-solver logs
        // carry each instance's optimum once per solver.
        let mut seen = std::collections::HashSet::new();
        let opt = mean(
            fam_records
                .iter()
                .filter(|r| seen.insert((r.size, r.seed)))
                .map(|r| r.optimum),
        );
        let mut cells = vec![family.clone(), format!("{opt:.4}")];
        for s in &solvers {
            let solver_records: Vec<&&JobRecord> =
                fam_records.iter().filter(|r| r.solver == *s).collect();
            if solver_records.is_empty() {
                cells.push("-".into());
                cells.push("-".into());
                continue;
            }
            let util = mean(solver_records.iter().map(|r| r.utility));
            let solver_opt = mean(solver_records.iter().map(|r| r.optimum));
            cells.push(format!("{util:.4}"));
            cells.push(format!("{:.4}", solver_opt / util));
        }
        table.row(cells);
    }
    table
}

/// The scaling table: wall time and protocol cost per family × solver ×
/// R × size, sorted by size within each group.
pub fn scaling(records: &[JobRecord]) -> Table {
    let mut groups: BTreeMap<(String, &'static str, usize, usize), Vec<&JobRecord>> =
        BTreeMap::new();
    for r in ok_records(records) {
        groups
            .entry((r.family.clone(), r.solver.name(), r.big_r, r.size))
            .or_default()
            .push(r);
    }
    let mut table = Table::new(&[
        "family",
        "solver",
        "R",
        "size",
        "agents",
        "jobs",
        "mean wall ms",
        "mean rounds",
        "mean msgs",
        "mean KB",
        "mean interned",
        "mean dedup",
    ]);
    for ((family, solver, big_r, size), rs) in &groups {
        // View-arena dedup of the flat distributed path: logical bytes
        // per deduped arena byte (records without an arena show "-").
        let flat: Vec<&&JobRecord> = rs.iter().filter(|r| r.arena_bytes > 0).collect();
        let (interned, dedup) = if flat.is_empty() {
            ("-".to_string(), "-".to_string())
        } else {
            (
                format!("{:.0}", mean(flat.iter().map(|r| r.interned as f64))),
                format!(
                    "{:.2}",
                    mean(flat.iter().map(|r| r.bytes as f64 / r.arena_bytes as f64))
                ),
            )
        };
        table.row(vec![
            family.clone(),
            solver.to_string(),
            big_r.to_string(),
            size.to_string(),
            format!("{:.0}", mean(rs.iter().map(|r| r.agents as f64))),
            rs.len().to_string(),
            format!("{:.2}", mean(rs.iter().map(|r| r.wall_ms))),
            format!("{:.1}", mean(rs.iter().map(|r| r.rounds as f64))),
            format!("{:.0}", mean(rs.iter().map(|r| r.messages as f64))),
            format!("{:.2}", mean(rs.iter().map(|r| r.bytes as f64 / 1024.0))),
            interned,
            dedup,
        ]);
    }
    table
}

/// Checks every ok record against its proved bounds. Returns one
/// human-readable violation per offending record; an empty vector is
/// the empirical "Theorem 1 holds" verdict.
pub fn violations(records: &[JobRecord]) -> Vec<String> {
    let mut out = Vec::new();
    for r in ok_records(records) {
        if r.ratio > r.guarantee + 1e-6 {
            out.push(format!(
                "job {}: ratio {:.6} exceeds the {} guarantee {:.6} \
                 ({} size={} seed={} R={})",
                r.job_id,
                r.ratio,
                r.solver.name(),
                r.guarantee,
                r.family,
                r.size,
                r.seed,
                r.big_r
            ));
        }
        if r.utility > r.optimum + 1e-6 * r.optimum.abs().max(1.0) {
            out.push(format!(
                "job {}: utility {:.6} exceeds the LP optimum {:.6} — simplex bug?",
                r.job_id, r.utility, r.optimum
            ));
        }
    }
    out
}

/// Renders the full text report: a status header, the three tables and
/// the bound-violation verdict.
pub fn render_report(records: &[JobRecord]) -> String {
    let ok = ok_records(records).count();
    let failed = records.len() - ok;
    let mut out = String::new();
    out.push_str(&format!(
        "== campaign report: {} records ({ok} ok, {failed} failed) ==\n\n",
        records.len()
    ));
    let ratio = ratio_vs_guarantee(records);
    if ratio.n_rows() > 0 {
        out.push_str("--- approximation ratio vs the Theorem 1 guarantee ---\n");
        out.push_str(&ratio.render());
        out.push('\n');
    }
    let cmp = solver_comparison(records);
    if cmp.n_rows() > 0 {
        out.push_str("--- solver comparison (mean utility vs ω*) ---\n");
        out.push_str(&cmp.render());
        out.push('\n');
    }
    let sc = scaling(records);
    if sc.n_rows() > 0 {
        out.push_str("--- scaling (wall time, protocol cost) ---\n");
        out.push_str(&sc.render());
        out.push('\n');
    }
    let v = violations(records);
    if v.is_empty() {
        out.push_str("every measured ratio is within its proved guarantee. ✓\n");
    } else {
        out.push_str(&format!("!! {} bound violations:\n", v.len()));
        for line in &v {
            out.push_str(&format!("  {line}\n"));
        }
    }
    out
}

/// Writes `ratio.csv`, `comparison.csv` and `scaling.csv` into `dir`;
/// returns the paths written.
pub fn write_csv_files(
    records: &[JobRecord],
    dir: &std::path::Path,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    let files = [
        ("ratio.csv", ratio_vs_guarantee(records)),
        ("comparison.csv", solver_comparison(records)),
        ("scaling.csv", scaling(records)),
    ];
    let mut written = Vec::new();
    for (name, table) in files {
        let path = dir.join(name);
        std::fs::write(&path, table.render_csv())?;
        written.push(path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;

    fn record(family: &str, solver: SolverKind, big_r: usize, seed: u64, ratio: f64) -> JobRecord {
        let job = Job {
            family: family.into(),
            size: 20,
            seed,
            big_r,
            solver,
        };
        JobRecord {
            ratio,
            utility: 1.0,
            optimum: ratio,
            guarantee: 2.25,
            threshold: 2.0,
            delta_i: 3,
            delta_k: 3,
            agents: 20,
            wall_ms: 1.5,
            rounds: if solver == SolverKind::Distributed {
                18
            } else {
                0
            },
            messages: 100,
            bytes: 2048,
            interned: if solver == SolverKind::Distributed {
                64
            } else {
                0
            },
            arena_bytes: if solver == SolverKind::Distributed {
                1024
            } else {
                0
            },
            gather_ns: 0,
            t_eval_ns: 0,
            flood_ns: 0,
            g_ns: 0,
            t_probes: 0,
            edits: 0,
            recomputed_x: 0,
            status: JobStatus::Ok,
            error: String::new(),
            job_id: job.id(),
            family: job.family,
            size: job.size,
            seed: job.seed,
            big_r: job.big_r,
            solver: job.solver,
        }
    }

    #[test]
    fn ratio_table_groups_and_aggregates() {
        let records = vec![
            record("cycle", SolverKind::Local, 2, 0, 1.1),
            record("cycle", SolverKind::Local, 2, 1, 1.3),
            record("cycle", SolverKind::Local, 3, 0, 1.2),
            record("cycle", SolverKind::Safe, 0, 0, 1.9), // no R: excluded
        ];
        let t = ratio_vs_guarantee(&records);
        assert_eq!(t.n_rows(), 2, "grouped by (family, solver, R)");
        let text = t.render();
        assert!(text.contains("1.3000"), "worst of the R=2 group:\n{text}");
        assert!(text.contains("1.2000"), "mean of the R=2 group:\n{text}");
    }

    #[test]
    fn comparison_table_has_one_column_pair_per_solver() {
        let records = vec![
            record("cycle", SolverKind::Local, 2, 0, 1.1),
            record("cycle", SolverKind::Safe, 0, 0, 1.9),
        ];
        let t = solver_comparison(&records);
        assert_eq!(t.n_rows(), 1);
        let text = t.render();
        assert!(
            text.contains("ω local") && text.contains("ω safe"),
            "{text}"
        );
    }

    #[test]
    fn comparison_judges_each_solver_on_its_own_records() {
        // local covers seeds 0–1 (optima 1 and 3), distributed only
        // seed 0 (optimum 1): distributed's ratio must use its own
        // population (1.0), not the family-wide mean optimum (2.0);
        // and ω* dedupes the grid point both solvers share.
        let records = vec![
            record("cycle", SolverKind::Local, 2, 0, 1.0),
            record("cycle", SolverKind::Local, 2, 1, 3.0),
            record("cycle", SolverKind::Distributed, 2, 0, 1.0),
            record("other", SolverKind::Local, 2, 0, 1.0),
        ];
        let t = solver_comparison(&records);
        let text = t.render();
        let cycle_row = text.lines().find(|l| l.contains("cycle")).unwrap();
        assert!(cycle_row.contains("2.0000"), "deduped ω* mean: {cycle_row}");
        let cells: Vec<&str> = cycle_row.split_whitespace().collect();
        assert_eq!(
            *cells.last().unwrap(),
            "1.0000",
            "distributed ratio from its own records: {cycle_row}"
        );
        let other_row = text.lines().find(|l| l.contains("other")).unwrap();
        assert!(
            other_row.trim_end().ends_with('-'),
            "absent solver renders as '-': {other_row}"
        );
    }

    #[test]
    fn violations_catch_ratio_and_optimum_breaches() {
        let good = record("cycle", SolverKind::Local, 2, 0, 1.5);
        let mut bad_ratio = record("cycle", SolverKind::Local, 2, 1, 2.5);
        bad_ratio.ratio = 2.5; // > guarantee 2.25
        let mut bad_opt = record("cycle", SolverKind::Local, 2, 2, 1.0);
        bad_opt.utility = 2.0;
        bad_opt.optimum = 1.0;
        let v = violations(&[good, bad_ratio, bad_opt]);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("exceeds the local guarantee"));
        assert!(v[1].contains("simplex bug"));
    }

    #[test]
    fn failed_records_do_not_poison_tables() {
        let job = Job {
            family: "cycle".into(),
            size: 8,
            seed: 0,
            big_r: 2,
            solver: SolverKind::Local,
        };
        let records = vec![
            record("cycle", SolverKind::Local, 2, 0, 1.1),
            JobRecord::failed(&job, JobStatus::Panicked, "boom".into()),
        ];
        let report = render_report(&records);
        assert!(report.contains("1 ok, 1 failed"));
        assert!(!report.contains("NaN"), "{report}");
    }

    #[test]
    fn a_column_can_be_dropped_by_header() {
        let records = vec![record("cycle", SolverKind::Local, 2, 0, 1.1)];
        let full = scaling(&records).render();
        assert!(
            full.contains("mean wall ms") && full.contains("1.50"),
            "{full}"
        );
        let rest = scaling(&records).without_column("mean wall ms").render();
        assert!(
            !rest.contains("mean wall ms") && !rest.contains("1.50"),
            "{rest}"
        );
        assert!(rest.contains("mean rounds"), "{rest}");
    }

    #[test]
    fn csv_is_quoted_and_complete() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x,y".into(), "plain".into()]);
        t.row(vec!["with \"quote\"".into(), "z".into()]);
        let csv = t.render_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"with \"\"quote\"\"\""));
    }

    #[test]
    fn csv_files_are_written() {
        let dir = std::env::temp_dir().join(format!("mmlp-lab-csv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let records = vec![record("cycle", SolverKind::Local, 2, 0, 1.1)];
        let written = write_csv_files(&records, &dir).unwrap();
        assert_eq!(written.len(), 3);
        for p in &written {
            assert!(std::fs::read_to_string(p).unwrap().lines().count() >= 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
