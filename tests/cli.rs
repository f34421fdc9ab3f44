//! End-to-end tests of the `maxmin-lp` CLI binary (spawned as a real
//! process via the path Cargo exports for integration tests).

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_maxmin-lp"))
}

fn run_ok(args: &[&str], stdin_file: Option<&std::path::Path>) -> String {
    let mut cmd = bin();
    cmd.args(args);
    if let Some(f) = stdin_file {
        cmd.current_dir(f.parent().unwrap());
    }
    let out = cmd.output().expect("binary runs");
    assert!(
        out.status.success(),
        "command {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn generate_out_writes_the_file_atomically() {
    let dir = std::env::temp_dir().join(format!("mmlp-gen-out-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("out.mmlp");

    // --out must produce exactly the bytes stdout would have carried.
    let stdout_text = run_ok(&["generate", "cycle", "12", "5"], None);
    let msg = run_ok(
        &[
            "generate",
            "cycle",
            "12",
            "5",
            "--out",
            file.to_str().unwrap(),
        ],
        None,
    );
    assert!(msg.contains("wrote "), "{msg}");
    assert_eq!(std::fs::read_to_string(&file).unwrap(), stdout_text);

    // Overwriting an existing file goes through the same rename path.
    // (Different size: the cycle family ignores the seed.)
    let other = run_ok(
        &[
            "generate",
            "cycle",
            "16",
            "5",
            "--out",
            file.to_str().unwrap(),
        ],
        None,
    );
    assert!(other.contains("wrote "), "{other}");
    assert_ne!(std::fs::read_to_string(&file).unwrap(), stdout_text);

    // No temp droppings left behind.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");

    // Unknown flag is a usage error.
    let out = bin()
        .args(["generate", "cycle", "12", "5", "--nope"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_info_solve_optimum_pipeline() {
    let dir = std::env::temp_dir().join(format!("mmlp-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("bandwidth.mmlp");

    // generate
    let text = run_ok(&["generate", "bandwidth", "24", "7"], None);
    assert!(text.starts_with("maxminlp 1"));
    std::fs::write(&file, &text).unwrap();

    // info
    let info = run_ok(&["info", file.to_str().unwrap()], None);
    assert!(info.contains("valid true"), "{info}");
    assert!(info.contains("delta_i 3"));
    assert!(info.contains("delta_k 2"));

    // solve with certification
    let solved = run_ok(
        &["solve", file.to_str().unwrap(), "-R", "4", "--certify"],
        None,
    );
    let get = |key: &str| -> f64 {
        solved
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .unwrap_or_else(|| panic!("missing '{key}' in output:\n{solved}"))
            .trim()
            .parse()
            .unwrap()
    };
    let utility = get("utility ");
    let ratio = get("ratio ");
    let guarantee = get("guarantee ");
    assert!(utility > 0.0);
    assert!(ratio >= 1.0 - 1e-9 && ratio <= guarantee + 1e-9);

    // optimum agrees with the certification block
    let opt_out = run_ok(&["optimum", file.to_str().unwrap()], None);
    let opt: f64 = opt_out
        .lines()
        .find_map(|l| l.strip_prefix("optimum "))
        .unwrap()
        .parse()
        .unwrap();
    assert!((opt - get("optimum ")).abs() < 1e-9);

    // safe baseline runs
    let safe = run_ok(&["safe", file.to_str().unwrap()], None);
    assert!(safe.contains("utility "));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_errors_exit_nonzero() {
    let out = bin().output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "no args → usage");
    let out = bin()
        .args(["generate", "no-such-family", "10", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "unknown family → error");
    let out = bin()
        .args(["solve", "/nonexistent/file.mmlp"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "missing file → error");
}

#[test]
fn solve_outside_section_4_is_an_error_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("mmlp-cli-s4-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, rows, needle) in [
        (
            "no-objective.mmlp",
            "agents 3\nc 0:1 1:1\nc 2:1\no 0:1 1:1\n",
            "agent v2 is in no objective",
        ),
        (
            "no-constraint.mmlp",
            "agents 3\nc 0:1 1:1\no 0:1 1:1\no 2:1\n",
            "agent v2 is in no constraint",
        ),
    ] {
        let file = dir.join(name);
        std::fs::write(&file, format!("maxminlp 1\n{rows}")).unwrap();
        let path = file.to_str().unwrap();
        let out = bin().args(["solve", path]).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {path}: solve: ")) && stderr.contains(needle),
            "{name}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn agent_count_beyond_the_file_is_an_error_not_an_abort() {
    // 29 bytes declaring three billion agents: sized from the declared
    // count, the parser would ask for 12 GB, and a failed allocation
    // aborts the process.
    let dir = std::env::temp_dir().join(format!("mmlp-cli-agents-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("bomb.mmlp");
    std::fs::write(&file, "maxminlp 1\nagents 3000000000\n").unwrap();
    assert_eq!(std::fs::metadata(&file).unwrap().len(), 29);
    let path = file.to_str().unwrap();
    let out = bin().args(["info", path]).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains("agent count"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_catalog_family_generates_via_cli() {
    for fam in maxmin_lp::gen::catalog() {
        let text = run_ok(&["generate", fam.name, "30", "1"], None);
        let inst = maxmin_lp::instance::textfmt::parse_instance(&text)
            .unwrap_or_else(|e| panic!("family {}: {e}", fam.name));
        assert!(inst.n_agents() > 0);
    }
}

#[test]
fn a_reader_closing_stdout_early_ends_the_command_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    // About 320 KB: more than a pipe holds, so the writer is still
    // writing when the reader goes away, as under `| head -1`.
    let mut child = bin()
        .args(["generate", "bandwidth", "4000", "7"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert_eq!(first, "maxminlp 1\n");
    // The reader is dropped here, closing the pipe.
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "exit {:?}", out.status.code());
    assert_eq!(String::from_utf8_lossy(&out.stderr), "");
}

#[test]
fn a_command_whose_reader_left_still_exits_with_its_verdict() {
    let dir = std::env::temp_dir().join(format!("mmlp-cli-verdict-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().unwrap();
    run_ok(&["store", "import", d, "--catalog", "8", "1"], None);
    // Damage the last record of the largest segment: `store verify`
    // prints its report, then fails on the checksum mismatch.
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .max_by_key(|p| std::fs::metadata(p).unwrap().len())
        .unwrap();
    let mut bytes = std::fs::read(&seg).unwrap();
    *bytes.last_mut().unwrap() ^= 0xff;
    std::fs::write(&seg, bytes).unwrap();
    // A pipe whose reader has already gone: every write to stdout
    // fails with `BrokenPipe`, as once `| grep -q` has matched.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = bin()
        .args(["store", "verify", d])
        .stdout(writer)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("has damage"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The offline `obs` report: one span tree per slowest solve, each a
/// 16-hex trace line followed by the flat solve's four phases, between
/// the header and the probe line.
#[test]
fn obs_report_renders_the_slowest_solves_as_span_trees() {
    let out = run_ok(&["obs", "--size", "12", "-R", "3", "--slowest", "2"], None);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(
        lines[0], "# obs timeline R=3 (8 solve(s), slowest 2)",
        "{out}"
    );
    let traces: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].starts_with("trace "))
        .collect();
    assert_eq!(traces.len(), 2, "{out}");
    for &i in &traces {
        let id = lines[i]["trace ".len()..]
            .split_once("  ")
            .map_or("", |(id, _)| id);
        assert!(
            id.len() == 16 && id.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')),
            "{out}"
        );
        let phases: Vec<&str> = lines[i + 1..i + 5]
            .iter()
            .map(|l| l.split_whitespace().next().unwrap_or(""))
            .collect();
        assert_eq!(phases, ["gather", "t_eval", "flood", "g"], "{out}");
    }
    assert!(
        lines.iter().any(|l| l.starts_with("# t: ")
            && l.contains(" ω probes over ")
            && l.ends_with(" per agent)")),
        "{out}"
    );

    let out = bin().args(["obs", "--slowest", "0"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "--slowest 0 → usage");
}
