//! End-to-end tests of `maxmin-lp campaign run|report|status`: a full
//! grid campaign through the real binary, the Theorem 1 sanity bound on
//! every record, and kill/resume semantics on the record log.

use maxmin_lp::lab::campaign::RESULTS_FILE;
use maxmin_lp::lab::record::{JobRecord, JobStatus};
use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_maxmin-lp"))
}

fn run_ok(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "command {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

fn field(output: &str, key: &str) -> usize {
    output
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{key} ")))
        .unwrap_or_else(|| panic!("missing '{key}' in output:\n{output}"))
        .trim()
        .parse()
        .unwrap()
}

/// 3 families × 2 sizes × 3 seeds × 2 R × {local, safe}:
/// 3·2·3·(2 + 1) = 54 jobs — the acceptance-criteria grid.
const SPEC: &str = "\
mmlplab 1
name cli-e2e
families cycle bandwidth random-3x3
sizes 10 16
seeds 0 1 2
R 2 3
solvers local safe
timeout_ms 0
workers 4
";
const TOTAL: usize = 54;

fn setup(tag: &str) -> (PathBuf, PathBuf) {
    let root = std::env::temp_dir().join(format!("mmlp-campaign-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let spec = root.join("grid.lab");
    std::fs::write(&spec, SPEC).unwrap();
    (root.clone(), spec)
}

fn load(dir: &Path) -> Vec<JobRecord> {
    std::fs::read_to_string(dir.join(RESULTS_FILE))
        .unwrap()
        .lines()
        .map(|l| JobRecord::from_json_line(l).unwrap())
        .collect()
}

#[test]
fn campaign_run_report_status_pipeline() {
    let (root, spec) = setup("pipeline");
    let out_dir = root.join("out");
    let out = run_ok(&[
        "campaign",
        "run",
        spec.to_str().unwrap(),
        "--out",
        out_dir.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(field(&out, "total"), TOTAL);
    assert_eq!(field(&out, "executed"), TOTAL);
    assert_eq!(field(&out, "ok"), TOTAL);

    // Every record satisfies the paper's sanity threshold: utility is
    // at least `optimum / (guarantee + ε-slack)`, i.e. ratio ≤ guarantee.
    let records = load(&out_dir);
    assert_eq!(records.len(), TOTAL);
    for r in &records {
        assert_eq!(r.status, JobStatus::Ok, "{}", r.error);
        assert!(r.utility > 0.0);
        assert!(
            r.ratio <= r.guarantee + 1e-6,
            "job {}: ratio {} above guarantee {}",
            r.job_id,
            r.ratio,
            r.guarantee
        );
        assert!(r.ratio >= 1.0 - 1e-9, "optimum is an upper bound");
    }

    // Report renders the tables and writes CSV artefacts.
    let report = run_ok(&["campaign", "report", out_dir.to_str().unwrap(), "--csv"]);
    assert!(report.contains("campaign report"), "{report}");
    assert!(report.contains("within its proved guarantee"), "{report}");
    for csv in ["ratio.csv", "comparison.csv", "scaling.csv"] {
        let text = std::fs::read_to_string(out_dir.join(csv)).unwrap();
        assert!(text.lines().count() > 1, "{csv} has data rows");
    }

    // Status sees a complete campaign.
    let status = run_ok(&["campaign", "status", out_dir.to_str().unwrap()]);
    assert_eq!(field(&status, "completed"), TOTAL);
    assert!(status.contains("complete true"), "{status}");

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn killed_campaign_resumes_without_redoing_completed_jobs() {
    let (root, spec) = setup("resume");
    let out_dir = root.join("out");
    run_ok(&[
        "campaign",
        "run",
        spec.to_str().unwrap(),
        "--out",
        out_dir.to_str().unwrap(),
        "--quiet",
    ]);

    // Simulate a mid-run kill: 30 intact records plus one torn line.
    let log_path = out_dir.join(RESULTS_FILE);
    let text = std::fs::read_to_string(&log_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let mut truncated = lines[..30].join("\n");
    truncated.push('\n');
    truncated.push_str(&lines[30][..lines[30].len() / 2]);
    std::fs::write(&log_path, &truncated).unwrap();

    let status = run_ok(&["campaign", "status", out_dir.to_str().unwrap()]);
    assert_eq!(field(&status, "completed"), 30);
    assert_eq!(field(&status, "pending"), TOTAL - 30);

    // Rerun: every completed job is skipped, only the lost ones run.
    let out = run_ok(&[
        "campaign",
        "run",
        spec.to_str().unwrap(),
        "--out",
        out_dir.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(field(&out, "skipped"), 30);
    assert_eq!(field(&out, "executed"), TOTAL - 30);

    // And a second rerun is a complete no-op.
    let out = run_ok(&[
        "campaign",
        "run",
        spec.to_str().unwrap(),
        "--out",
        out_dir.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(field(&out, "skipped"), TOTAL);
    assert_eq!(field(&out, "executed"), 0);

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn campaign_usage_and_error_paths() {
    // Unknown subcommand → usage (2).
    let out = bin().args(["campaign", "frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    // Spec naming an unknown family → error (1), before any work runs.
    let root = std::env::temp_dir().join(format!("mmlp-campaign-bad-{}", std::process::id()));
    std::fs::create_dir_all(&root).unwrap();
    let spec = root.join("bad.lab");
    std::fs::write(
        &spec,
        "mmlplab 1\nfamilies nope\nsizes 8\nseeds 0\nR 2\nsolvers local\n",
    )
    .unwrap();
    let out = bin()
        .args(["campaign", "run", spec.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown family"));

    // Report on an empty directory → error (1).
    let out = bin()
        .args(["campaign", "report", root.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn solve_accepts_threads_flag() {
    let root = std::env::temp_dir().join(format!("mmlp-threads-cli-{}", std::process::id()));
    std::fs::create_dir_all(&root).unwrap();
    let file = root.join("inst.mmlp");
    std::fs::write(&file, run_ok(&["generate", "bandwidth", "20", "3"])).unwrap();

    let one = run_ok(&["solve", file.to_str().unwrap(), "--threads", "1"]);
    let four = run_ok(&["solve", file.to_str().unwrap(), "--threads", "4"]);
    assert!(one.contains("utility "), "{one}");
    assert_eq!(one, four, "threads must not change the output");

    // Invalid thread counts are usage errors.
    let out = bin()
        .args(["solve", file.to_str().unwrap(), "--threads", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn info_prints_the_paper_bound() {
    let root = std::env::temp_dir().join(format!("mmlp-info-cli-{}", std::process::id()));
    std::fs::create_dir_all(&root).unwrap();
    let file = root.join("inst.mmlp");
    std::fs::write(&file, run_ok(&["generate", "random-3x3", "20", "0"])).unwrap();
    let info = run_ok(&["info", file.to_str().unwrap()]);
    let bound: f64 = info
        .lines()
        .find_map(|l| l.strip_prefix("paper_bound "))
        .expect("info prints the paper bound")
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap();
    // random-3x3 has ΔI = ΔK = 3: the paper bound is 3(1 − 1/3) = 2.
    assert!((bound - 2.0).abs() < 1e-12, "{info}");
    std::fs::remove_dir_all(&root).ok();
}
