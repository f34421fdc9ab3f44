//! Campaign orchestration: resumable runs and status inspection.
//!
//! A campaign directory holds two files:
//!
//! * `spec.lab` — a copy of the spec the campaign was last run with;
//! * `results.jsonl` — the append-only record log, one
//!   [`JobRecord`] per line, flushed after every job.
//!
//! Resumability is hash-based: before running, the grid is expanded and
//! every job whose content hash already appears in the log **with an
//! `ok` record** is skipped. Failed jobs (error / panic / timeout) are
//! retried. Killing the process mid-run loses at most the jobs in
//! flight; lines torn by the kill are ignored on reload.

use crate::exec::execute_job;
use crate::job::{expand, Job};
use crate::pool::{run_pool, Outcome, PoolConfig};
use crate::record::{JobRecord, JobStatus};
use crate::spec::{write_spec, CampaignSpec};
use std::collections::HashSet;
use std::io::Write as _;
use std::path::Path;
use std::time::Duration;

/// File name of the record log inside a campaign directory.
pub const RESULTS_FILE: &str = "results.jsonl";
/// File name of the spec copy inside a campaign directory.
pub const SPEC_FILE: &str = "spec.lab";

/// Options for one `run_campaign` invocation.
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Overrides the spec's worker count.
    pub workers: Option<usize>,
    /// Prints one progress line per job to stderr.
    pub progress: bool,
    /// When set, append one `lab` record per finished job to the
    /// crash-safe event journal at this directory (the same format the
    /// server writes; see `specs/OBSERVABILITY.md`), so campaign
    /// lifecycles land in the same audit stream as serve traffic.
    pub journal_dir: Option<std::path::PathBuf>,
}

/// What one run did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Jobs in the expanded grid.
    pub total: usize,
    /// Jobs skipped because an `ok` record already existed.
    pub skipped: usize,
    /// Jobs executed this run.
    pub executed: usize,
    /// Executed jobs that completed ok.
    pub ok: usize,
    /// Executed jobs that returned an error record.
    pub errors: usize,
    /// Executed jobs that panicked.
    pub panics: usize,
    /// Executed jobs that timed out.
    pub timeouts: usize,
}

/// Campaign progress as recorded on disk.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatusSummary {
    /// Campaign name from the stored spec.
    pub name: String,
    /// Jobs in the expanded grid.
    pub total: usize,
    /// Grid jobs with an `ok` record.
    pub completed: usize,
    /// Grid jobs whose latest record is a failure.
    pub failed: usize,
    /// Grid jobs with no record yet.
    pub pending: usize,
    /// Records in the log that are not part of the current grid (e.g.
    /// left over from an earlier, different spec).
    pub stale_records: usize,
}

impl StatusSummary {
    /// True when every grid job has an `ok` record.
    pub fn is_complete(&self) -> bool {
        self.completed == self.total
    }
}

/// Loads every parseable record from a campaign directory's log.
/// Unparseable lines (e.g. torn by a mid-write kill) are skipped.
pub fn load_records(dir: &Path) -> std::io::Result<Vec<JobRecord>> {
    let path = dir.join(RESULTS_FILE);
    if !path.exists() {
        return Ok(Vec::new());
    }
    let text = std::fs::read_to_string(&path)?;
    Ok(text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| JobRecord::from_json_line(l).ok())
        .collect())
}

/// Runs `jobs` on the scheduler, streaming one [`JobRecord`] per job to
/// `sink` in completion order. Pool-level failures (panic, timeout)
/// are converted to failure records so the log stays total.
pub fn run_jobs(
    jobs: &[Job],
    workers: usize,
    timeout: Option<Duration>,
    sink: impl FnMut(&Job, JobRecord),
) {
    run_jobs_with(jobs, workers, timeout, execute_job, sink);
}

/// [`run_jobs`] with the job executor as a parameter, so a test can
/// run a job whose duration it controls.
fn run_jobs_with(
    jobs: &[Job],
    workers: usize,
    timeout: Option<Duration>,
    exec: impl Fn(&Job) -> JobRecord + Send + Sync + 'static,
    mut sink: impl FnMut(&Job, JobRecord),
) {
    let cfg = PoolConfig { workers, timeout };
    let jobs_owned: Vec<Job> = jobs.to_vec();
    run_pool(
        jobs_owned,
        &cfg,
        move |job: Job| exec(&job),
        |idx, outcome| {
            let job = &jobs[idx];
            let record = match outcome {
                Outcome::Done(r) => r,
                Outcome::Panicked(msg) => JobRecord::failed(job, JobStatus::Panicked, msg),
                Outcome::TimedOut => {
                    JobRecord::failed(job, JobStatus::TimedOut, "per-job timeout exceeded".into())
                }
            };
            sink(job, record);
        },
    );
}

/// Runs a campaign without touching the filesystem; returns the records
/// in completion order. Used by the experiment harness and tests.
pub fn run_in_memory(spec: &CampaignSpec, workers: usize) -> Vec<JobRecord> {
    let jobs = expand(spec);
    let mut out = Vec::with_capacity(jobs.len());
    run_jobs(&jobs, workers, timeout_of(spec), |_, r| out.push(r));
    out
}

fn timeout_of(spec: &CampaignSpec) -> Option<Duration> {
    (spec.timeout_ms > 0).then(|| Duration::from_millis(spec.timeout_ms))
}

/// Runs (or resumes) a campaign in `dir`: expands the grid, skips jobs
/// already completed ok in the log, executes the rest on the scheduler,
/// and appends one log line per job as it finishes.
pub fn run_campaign(
    spec: &CampaignSpec,
    dir: &Path,
    opts: &RunOptions,
) -> std::io::Result<RunSummary> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(SPEC_FILE), write_spec(spec))?;

    // One read serves both the resume set and the torn-line check.
    let log_path = dir.join(RESULTS_FILE);
    let log_text = match std::fs::read_to_string(&log_path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    let completed: HashSet<String> = log_text
        .lines()
        .filter_map(|l| JobRecord::from_json_line(l).ok())
        .filter(|r| r.status == JobStatus::Ok)
        .map(|r| r.job_id)
        .collect();

    let jobs = expand(spec);
    let total = jobs.len();
    let to_run: Vec<Job> = jobs
        .into_iter()
        .filter(|j| !completed.contains(&j.id()))
        .collect();
    let mut summary = RunSummary {
        total,
        skipped: total - to_run.len(),
        ..RunSummary::default()
    };

    let mut log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log_path)?;
    // A mid-write kill can leave a torn final line with no trailing
    // newline; appending straight after it would corrupt the next
    // record too. Append a lone newline (never truncate-and-rewrite —
    // the log is the resumability state) so only the torn line is lost.
    if !log_text.is_empty() && !log_text.ends_with('\n') {
        log.write_all(b"\n")?;
        log.flush()?;
    }
    let workers = opts.workers.unwrap_or(spec.workers).max(1);
    let progress = opts.progress;
    let n_run = to_run.len();
    let mut io_error: Option<std::io::Error> = None;
    let journal = match &opts.journal_dir {
        None => None,
        Some(dir) => Some(mmlp_obs::Journal::open(mmlp_obs::JournalConfig::new(dir))?.0),
    };

    run_jobs(&to_run, workers, timeout_of(spec), |job, record| {
        match record.status {
            JobStatus::Ok => summary.ok += 1,
            JobStatus::Error => summary.errors += 1,
            JobStatus::Panicked => summary.panics += 1,
            JobStatus::TimedOut => summary.timeouts += 1,
        }
        summary.executed += 1;
        if progress {
            let r_col = if job.solver.uses_r() {
                format!(" R={}", job.big_r)
            } else {
                String::new()
            };
            eprintln!(
                "[{}/{}] {} {:>9.1}ms  {} size={} seed={}{} {}",
                summary.executed,
                n_run,
                record.status.name(),
                record.wall_ms,
                job.family,
                job.size,
                job.seed,
                r_col,
                job.solver.name(),
            );
        }
        if let Some(j) = &journal {
            j.emit(mmlp_obs::JournalRecord {
                kind: mmlp_obs::journal::EV_LAB,
                trace_id: 0,
                text: format!(
                    "lab job {}: family={} size={} seed={} solver={} R={} wall_ms={:.1}",
                    record.status.name(),
                    job.family,
                    job.size,
                    job.seed,
                    job.solver.name(),
                    job.big_r,
                    record.wall_ms
                ),
            });
        }
        let line = record.to_json_line();
        if let Err(e) = writeln!(log, "{line}").and_then(|()| log.flush()) {
            io_error.get_or_insert(e);
        }
    });

    match io_error {
        Some(e) => Err(e),
        None => Ok(summary),
    }
}

/// Reads a campaign directory's stored spec and log into a status view.
pub fn status(dir: &Path) -> std::io::Result<StatusSummary> {
    let spec_text = std::fs::read_to_string(dir.join(SPEC_FILE))?;
    let spec = crate::spec::parse_spec(&spec_text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let records = load_records(dir)?;
    let grid: Vec<String> = expand(&spec).iter().map(Job::id).collect();
    let grid_set: HashSet<&String> = grid.iter().collect();

    let mut ok_ids = HashSet::new();
    let mut failed_ids = HashSet::new();
    let mut stale = 0usize;
    for r in &records {
        if !grid_set.contains(&r.job_id) {
            stale += 1;
            continue;
        }
        // The latest record for a job wins (retries append).
        if r.status == JobStatus::Ok {
            ok_ids.insert(r.job_id.clone());
            failed_ids.remove(&r.job_id);
        } else if !ok_ids.contains(&r.job_id) {
            failed_ids.insert(r.job_id.clone());
        }
    }
    let completed = ok_ids.len();
    let failed = failed_ids.len();
    Ok(StatusSummary {
        name: spec.name,
        total: grid.len(),
        completed,
        failed,
        pending: grid.len() - completed - failed,
        stale_records: stale,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::SolverKind;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            name: "unit".into(),
            families: vec!["cycle".into(), "random-3x3".into()],
            sizes: vec![8, 12],
            seeds: vec![0, 1, 2],
            rs: vec![2, 3],
            solvers: vec![SolverKind::Local, SolverKind::Safe],
            timeout_ms: 0,
            workers: 4,
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mmlp-lab-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn in_memory_run_covers_the_grid() {
        let spec = tiny_spec();
        let records = run_in_memory(&spec, 4);
        // 2 fam × 2 sizes × 3 seeds × (local × 2R + safe) = 36.
        assert_eq!(records.len(), 36);
        assert!(records.iter().all(|r| r.status == JobStatus::Ok));
        assert!(records
            .iter()
            .all(|r| r.ratio <= r.guarantee + 1e-6 && r.ratio >= 1.0 - 1e-9));
    }

    #[test]
    fn rerun_skips_every_completed_job() {
        let spec = tiny_spec();
        let dir = temp_dir("rerun");
        let opts = RunOptions::default();
        let first = run_campaign(&spec, &dir, &opts).unwrap();
        assert_eq!(first.executed, 36);
        assert_eq!(first.ok, 36);
        assert_eq!(first.skipped, 0);

        let second = run_campaign(&spec, &dir, &opts).unwrap();
        assert_eq!(second.skipped, 36, "every job resumes as complete");
        assert_eq!(second.executed, 0);

        let st = status(&dir).unwrap();
        assert!(st.is_complete());
        assert_eq!(st.total, 36);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn killed_run_resumes_from_the_log() {
        let spec = tiny_spec();
        let dir = temp_dir("resume");
        run_campaign(&spec, &dir, &RunOptions::default()).unwrap();

        // Simulate a mid-run kill: keep 20 complete lines and one torn
        // line (a partial write at the moment of death).
        let log_path = dir.join(RESULTS_FILE);
        let text = std::fs::read_to_string(&log_path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let mut truncated: String = lines[..20].join("\n");
        truncated.push('\n');
        truncated.push_str(&lines[20][..lines[20].len() / 2]);
        std::fs::write(&log_path, &truncated).unwrap();

        let st = status(&dir).unwrap();
        assert_eq!(st.completed, 20);
        assert_eq!(st.pending, 16);

        let resumed = run_campaign(&spec, &dir, &RunOptions::default()).unwrap();
        assert_eq!(resumed.skipped, 20, "completed jobs are not redone");
        assert_eq!(resumed.executed, 16);
        assert!(status(&dir).unwrap().is_complete());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journaled_run_records_every_job_lifecycle() {
        let spec = tiny_spec();
        let dir = temp_dir("journal");
        let jdir = dir.join("journal");
        let opts = RunOptions {
            journal_dir: Some(jdir.clone()),
            ..RunOptions::default()
        };
        let run = run_campaign(&spec, &dir, &opts).unwrap();
        assert_eq!(run.executed, 36);
        let (records, report) = mmlp_obs::journal::read_journal_dir(&jdir).unwrap();
        assert_eq!(report.corrupt, 0);
        assert_eq!(records.len(), 36, "one lab record per executed job");
        assert!(records
            .iter()
            .all(|r| r.kind == mmlp_obs::journal::EV_LAB && r.text.starts_with("lab job ok:")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn growing_the_spec_only_runs_the_new_cells() {
        let mut spec = tiny_spec();
        let dir = temp_dir("grow");
        run_campaign(&spec, &dir, &RunOptions::default()).unwrap();
        spec.seeds.push(3);
        let run = run_campaign(&spec, &dir, &RunOptions::default()).unwrap();
        assert_eq!(run.skipped, 36);
        assert_eq!(
            run.executed, 12,
            "one new seed × 2 fam × 2 sizes × 3 variants"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_jobs_are_recorded_and_retried() {
        let spec = CampaignSpec {
            families: vec!["cycle".into(), "does-not-exist".into()],
            sizes: vec![8],
            seeds: vec![0],
            rs: vec![2],
            solvers: vec![SolverKind::Local],
            timeout_ms: 0,
            ..CampaignSpec::default()
        };
        let dir = temp_dir("fail");
        let run = run_campaign(&spec, &dir, &RunOptions::default()).unwrap();
        assert_eq!(run.ok, 1);
        assert_eq!(run.errors, 1);
        let st = status(&dir).unwrap();
        assert_eq!(st.failed, 1);
        assert_eq!(st.pending, 0);

        // A failure is not "completed": the rerun retries it.
        let rerun = run_campaign(&spec, &dir, &RunOptions::default()).unwrap();
        assert_eq!(rerun.skipped, 1);
        assert_eq!(rerun.executed, 1);
        assert_eq!(rerun.errors, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn timeouts_surface_as_records() {
        // A 1 ms budget on a job that cannot start its work before the
        // run has returned, so it outlasts the budget in every build
        // profile: it must come back TimedOut, not hang or crash.
        let spec = CampaignSpec {
            families: vec!["sensor-grid".into()],
            sizes: vec![180],
            seeds: vec![0],
            rs: vec![3],
            solvers: vec![SolverKind::Local],
            timeout_ms: 1,
            ..CampaignSpec::default()
        };
        let (hold, held) = std::sync::mpsc::channel::<()>();
        let held = std::sync::Mutex::new(held);
        let exec = move |job: &Job| {
            // Returns once `hold` is dropped, after the run.
            let _ = held.lock().expect("held lock").recv();
            execute_job(job)
        };
        let mut records = Vec::new();
        run_jobs_with(&expand(&spec), 1, timeout_of(&spec), exec, |_, r| {
            records.push(r)
        });
        drop(hold);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].status, JobStatus::TimedOut);
    }
}
