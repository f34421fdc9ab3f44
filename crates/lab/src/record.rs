//! The structured per-job result record and its JSONL encoding.

use crate::job::{Job, SolverKind};
use crate::jsonl::{parse_object, ObjWriter, Value};

/// Terminal status of one job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Solver ran and produced a certified measurement.
    Ok,
    /// Solver reported an error (e.g. an unbounded LP).
    Error,
    /// The job panicked; the panic was isolated to its thread.
    Panicked,
    /// The job exceeded the campaign's per-job timeout.
    TimedOut,
}

impl JobStatus {
    /// Stable name used in the record log.
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Ok => "ok",
            JobStatus::Error => "error",
            JobStatus::Panicked => "panic",
            JobStatus::TimedOut => "timeout",
        }
    }

    /// Inverse of [`JobStatus::name`].
    pub fn from_name(name: &str) -> Option<JobStatus> {
        match name {
            "ok" => Some(JobStatus::Ok),
            "error" => Some(JobStatus::Error),
            "panic" => Some(JobStatus::Panicked),
            "timeout" => Some(JobStatus::TimedOut),
            _ => None,
        }
    }
}

/// One line of the record log: everything a report needs, flat.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRecord {
    /// Content hash of the job ([`Job::id`]).
    pub job_id: String,
    /// Generator family name.
    pub family: String,
    /// Instance size.
    pub size: usize,
    /// Generator seed.
    pub seed: u64,
    /// Locality parameter (`0` for R-insensitive solvers).
    pub big_r: usize,
    /// Solver variant.
    pub solver: SolverKind,
    /// Terminal status.
    pub status: JobStatus,
    /// Utility of the solver's output on the original instance.
    pub utility: f64,
    /// Exact LP optimum `ω*` of the instance.
    pub optimum: f64,
    /// Approximation ratio `ω*/utility` (`NaN` when not measured).
    pub ratio: f64,
    /// The proved guarantee for this solver on this instance.
    pub guarantee: f64,
    /// The unconditional local-algorithm threshold `ΔI(1 − 1/ΔK)`.
    pub threshold: f64,
    /// Instance degree bound `ΔI` (as measured).
    pub delta_i: usize,
    /// Instance degree bound `ΔK` (as measured).
    pub delta_k: usize,
    /// Number of agents in the generated instance.
    pub agents: usize,
    /// Solver wall time in milliseconds (excludes the optimum solve).
    pub wall_ms: f64,
    /// Protocol rounds (distributed solver only; 0 otherwise).
    pub rounds: u64,
    /// Protocol messages (distributed solver only; 0 otherwise).
    pub messages: u64,
    /// Protocol payload bytes (distributed solver only; 0 otherwise).
    pub bytes: u64,
    /// Unique view nodes interned by the flat distributed path
    /// (0 for other solvers).
    pub interned: u64,
    /// Deduped view-arena bytes of the flat distributed path — `bytes /
    /// arena_bytes` is the dedup ratio (0 for other solvers).
    pub arena_bytes: u64,
    /// Wall time of the flat solve's view-gather phase, nanoseconds
    /// (distributed solver only; 0 otherwise — likewise the rest of the
    /// phase snapshot below).
    pub gather_ns: u64,
    /// Wall time of the per-agent `t_u` batch phase, nanoseconds.
    pub t_eval_ns: u64,
    /// Wall time of the `min t` flood phase, nanoseconds.
    pub flood_ns: u64,
    /// Wall time of the smoothing/output phase, nanoseconds.
    pub g_ns: u64,
    /// ω probes the flat solve's `t` batch made.
    pub t_probes: u64,
    /// Edits streamed through the dynamic solver (mutating jobs;
    /// 0 otherwise — likewise `recomputed_x` below).
    pub edits: u64,
    /// Agents whose output was recomputed across the whole edit chain —
    /// `recomputed_x / edits` against `agents` is the measured dirty-ball
    /// fraction of the §1.3 corollary.
    pub recomputed_x: u64,
    /// Error/panic description (empty when ok).
    pub error: String,
}

impl JobRecord {
    /// A record for a job that did not produce a measurement.
    pub fn failed(job: &Job, status: JobStatus, error: String) -> JobRecord {
        JobRecord {
            job_id: job.id(),
            family: job.family.clone(),
            size: job.size,
            seed: job.seed,
            big_r: job.big_r,
            solver: job.solver,
            status,
            utility: f64::NAN,
            optimum: f64::NAN,
            ratio: f64::NAN,
            guarantee: f64::NAN,
            threshold: f64::NAN,
            delta_i: 0,
            delta_k: 0,
            agents: 0,
            wall_ms: 0.0,
            rounds: 0,
            messages: 0,
            bytes: 0,
            interned: 0,
            arena_bytes: 0,
            gather_ns: 0,
            t_eval_ns: 0,
            flood_ns: 0,
            g_ns: 0,
            t_probes: 0,
            edits: 0,
            recomputed_x: 0,
            error,
        }
    }

    /// Encodes the record as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut w = ObjWriter::new();
        w.str("job", &self.job_id)
            .str("family", &self.family)
            .int("size", self.size as u64)
            .int("seed", self.seed)
            .int("R", self.big_r as u64)
            .str("solver", self.solver.name())
            .str("status", self.status.name())
            .num("utility", self.utility)
            .num("optimum", self.optimum)
            .num("ratio", self.ratio)
            .num("guarantee", self.guarantee)
            .num("threshold", self.threshold)
            .int("delta_i", self.delta_i as u64)
            .int("delta_k", self.delta_k as u64)
            .int("agents", self.agents as u64)
            .num("wall_ms", self.wall_ms)
            .int("rounds", self.rounds)
            .int("messages", self.messages)
            .int("bytes", self.bytes)
            .int("interned", self.interned)
            .int("arena_bytes", self.arena_bytes)
            .int("gather_ns", self.gather_ns)
            .int("t_eval_ns", self.t_eval_ns)
            .int("flood_ns", self.flood_ns)
            .int("g_ns", self.g_ns)
            .int("t_probes", self.t_probes)
            .int("edits", self.edits)
            .int("recomputed_x", self.recomputed_x);
        if !self.error.is_empty() {
            w.str("error", &self.error);
        }
        w.finish()
    }

    /// Decodes one JSONL line. Unknown keys are ignored (forward
    /// compatibility); missing required keys are an error.
    pub fn from_json_line(line: &str) -> Result<JobRecord, String> {
        let kv = parse_object(line)?;
        let get =
            |key: &str| -> Option<&Value> { kv.iter().find(|(k, _)| k == key).map(|(_, v)| v) };
        let req_str = |key: &str| -> Result<String, String> {
            get(key)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field '{key}'"))
        };
        let req_num = |key: &str| -> Result<f64, String> {
            get(key)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("missing numeric field '{key}'"))
        };
        // Integer fields demand exact integer literals: no `null`→0, no
        // silent f64 rounding of values ≥ 2⁵³.
        let req_int = |key: &str| -> Result<u64, String> {
            get(key)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("missing integer field '{key}'"))
        };
        let solver_name = req_str("solver")?;
        let status_name = req_str("status")?;
        Ok(JobRecord {
            job_id: req_str("job")?,
            family: req_str("family")?,
            size: req_int("size")? as usize,
            seed: req_int("seed")?,
            big_r: req_int("R")? as usize,
            solver: SolverKind::from_name(&solver_name)
                .ok_or_else(|| format!("unknown solver '{solver_name}'"))?,
            status: JobStatus::from_name(&status_name)
                .ok_or_else(|| format!("unknown status '{status_name}'"))?,
            utility: req_num("utility")?,
            optimum: req_num("optimum")?,
            ratio: req_num("ratio")?,
            guarantee: req_num("guarantee")?,
            threshold: req_num("threshold")?,
            delta_i: req_int("delta_i")? as usize,
            delta_k: req_int("delta_k")? as usize,
            agents: req_int("agents")? as usize,
            wall_ms: req_num("wall_ms")?,
            rounds: req_int("rounds")?,
            messages: req_int("messages")?,
            bytes: req_int("bytes")?,
            // Added after the first record-log format: default to 0 so
            // pre-arena logs keep resuming cleanly.
            interned: get("interned").and_then(|v| v.as_u64()).unwrap_or(0),
            arena_bytes: get("arena_bytes").and_then(|v| v.as_u64()).unwrap_or(0),
            // Added with the mmlp-obs phase snapshot: logs written
            // before it decode with an all-zero breakdown.
            gather_ns: get("gather_ns").and_then(|v| v.as_u64()).unwrap_or(0),
            t_eval_ns: get("t_eval_ns").and_then(|v| v.as_u64()).unwrap_or(0),
            flood_ns: get("flood_ns").and_then(|v| v.as_u64()).unwrap_or(0),
            g_ns: get("g_ns").and_then(|v| v.as_u64()).unwrap_or(0),
            t_probes: get("t_probes").and_then(|v| v.as_u64()).unwrap_or(0),
            // Added with the delta workload: logs written before the
            // mutating job kind decode with a zero edit chain.
            edits: get("edits").and_then(|v| v.as_u64()).unwrap_or(0),
            recomputed_x: get("recomputed_x").and_then(|v| v.as_u64()).unwrap_or(0),
            error: get("error")
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobRecord {
        JobRecord {
            job_id: "00ff00ff00ff00ff".into(),
            family: "random-3x3".into(),
            size: 40,
            seed: 3,
            big_r: 3,
            solver: SolverKind::Local,
            status: JobStatus::Ok,
            utility: 0.7311438372,
            optimum: 0.9000000001,
            ratio: 1.2309741,
            guarantee: 2.25,
            threshold: 2.0,
            delta_i: 3,
            delta_k: 3,
            agents: 40,
            wall_ms: 12.75,
            rounds: 18,
            messages: 1024,
            bytes: 65536,
            interned: 96,
            arena_bytes: 4096,
            gather_ns: 120_000,
            t_eval_ns: 80_000,
            flood_ns: 9_000,
            g_ns: 4_000,
            t_probes: 212,
            edits: 3,
            recomputed_x: 17,
            error: String::new(),
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let r = sample();
        let line = r.to_json_line();
        assert!(!line.contains('\n'), "one record per line");
        let back = JobRecord::from_json_line(&line).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.utility.to_bits(), r.utility.to_bits());
    }

    #[test]
    fn failed_records_round_trip_with_nan_measurements() {
        let job = Job {
            family: "cycle".into(),
            size: 8,
            seed: 0,
            big_r: 2,
            solver: SolverKind::Distributed,
        };
        let r = JobRecord::failed(&job, JobStatus::TimedOut, "exceeded 5ms".into());
        let back = JobRecord::from_json_line(&r.to_json_line()).unwrap();
        assert_eq!(back.status, JobStatus::TimedOut);
        assert_eq!(back.error, "exceeded 5ms");
        assert!(back.utility.is_nan());
        assert_eq!(back.job_id, job.id());
    }

    #[test]
    fn unknown_keys_are_ignored_missing_keys_rejected() {
        let line = sample().to_json_line();
        let extended = format!("{},\"future\":\"field\"}}", &line[..line.len() - 1]);
        assert!(JobRecord::from_json_line(&extended).is_ok());
        assert!(JobRecord::from_json_line("{\"job\":\"x\"}").is_err());
        assert!(JobRecord::from_json_line("not json").is_err());
        // Integer fields must be exact integer literals.
        assert!(
            JobRecord::from_json_line(&line.replace("\"seed\":3", "\"seed\":null")).is_err(),
            "null seed must not read as 0"
        );
        assert!(
            JobRecord::from_json_line(&line.replace("\"size\":40", "\"size\":40.5")).is_err(),
            "fractional size is rejected"
        );
    }

    #[test]
    fn pre_arena_lines_decode_with_zero_dedup_fields() {
        // Record logs written before the flat-view arena lack the
        // dedup fields; resuming such a campaign must still work.
        let line = sample().to_json_line();
        let stripped = line.replace(",\"interned\":96,\"arena_bytes\":4096", "");
        assert_ne!(line, stripped, "sample must carry the new fields");
        let back = JobRecord::from_json_line(&stripped).unwrap();
        assert_eq!(back.interned, 0);
        assert_eq!(back.arena_bytes, 0);
    }

    #[test]
    fn pre_obs_lines_decode_with_zero_phase_snapshot() {
        // Logs written before the mmlp-obs phase snapshot lack the
        // phase/probe fields; they decode with an all-zero breakdown.
        let line = sample().to_json_line();
        let stripped = line.replace(
            ",\"gather_ns\":120000,\"t_eval_ns\":80000,\"flood_ns\":9000,\
             \"g_ns\":4000,\"t_probes\":212",
            "",
        );
        assert_ne!(line, stripped, "sample must carry the phase fields");
        let back = JobRecord::from_json_line(&stripped).unwrap();
        assert_eq!(back.gather_ns, 0);
        assert_eq!(back.t_eval_ns, 0);
        assert_eq!(back.t_probes, 0);
        // Logs from before the probe count carry memo counters in its
        // place; those keys are unknown now, and the count reads 0.
        let memo = line.replace("\"t_probes\":212", "\"memo_hits\":512,\"memo_misses\":64");
        assert_ne!(line, memo);
        let back = JobRecord::from_json_line(&memo).unwrap();
        assert_eq!(back.t_probes, 0);
        assert_eq!(back.g_ns, 4000);
    }

    #[test]
    fn pre_delta_lines_decode_with_zero_edit_chain() {
        // Logs written before the mutating job kind lack the edit-chain
        // fields; they decode as an un-mutated measurement.
        let line = sample().to_json_line();
        let stripped = line.replace(",\"edits\":3,\"recomputed_x\":17", "");
        assert_ne!(line, stripped, "sample must carry the delta fields");
        let back = JobRecord::from_json_line(&stripped).unwrap();
        assert_eq!(back.edits, 0);
        assert_eq!(back.recomputed_x, 0);
    }

    #[test]
    fn huge_seeds_round_trip_exactly() {
        let mut r = sample();
        r.seed = (1u64 << 53) + 1; // not representable in f64
        r.bytes = u64::MAX;
        let back = JobRecord::from_json_line(&r.to_json_line()).unwrap();
        assert_eq!(back.seed, r.seed);
        assert_eq!(back.bytes, u64::MAX);
    }

    #[test]
    fn status_names_round_trip() {
        for s in [
            JobStatus::Ok,
            JobStatus::Error,
            JobStatus::Panicked,
            JobStatus::TimedOut,
        ] {
            assert_eq!(JobStatus::from_name(s.name()), Some(s));
        }
    }
}
