//! Readers for the few `/proc` facts a run records: a process's CPU
//! time and peak resident set, and the host's steal time.

use std::io;

/// Kernel clock ticks per second for `/proc` CPU times (`USER_HZ`,
/// fixed at 100 in the Linux ABI on every mainstream architecture).
pub const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU ticks from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may hold spaces and parentheses, so fields
/// are counted after its closing `)`: utime and stime are fields 14
/// and 15 of the line.
pub fn parse_stat_cpu_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// CPU seconds used so far by process `pid` (`"self"` for this one).
pub fn cpu_seconds(pid: &str) -> io::Result<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    parse_stat_cpu_ticks(&text)
        .map(|t| t as f64 / TICKS_PER_SEC)
        .ok_or_else(|| bad(format!("unparseable /proc/{pid}/stat")))
}

/// A `kB` field (e.g. `VmHWM`) of `/proc/<pid>/status`.
pub fn parse_status_kb(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|l| {
        let v = l.strip_prefix(key)?.strip_prefix(':')?;
        v.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: &str) -> io::Result<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    parse_status_kb(&text, "VmHWM")
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| bad(format!("no VmHWM in /proc/{pid}/status")))
}

/// Host-wide CPU tick totals from the aggregate `cpu` line of
/// `/proc/stat`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostCpu {
    /// Ticks the hypervisor ran something else on our virtual CPUs.
    pub steal: u64,
    /// user + nice + system + idle + iowait + irq + softirq + steal.
    pub total: u64,
}

impl HostCpu {
    /// Steal ticks as a share of all ticks elapsed since `earlier`.
    pub fn steal_share_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Parses the aggregate `cpu` line of `/proc/stat`. Guest time is
/// already counted inside user time, so only the first eight fields
/// are summed.
pub fn parse_host_cpu(text: &str) -> Option<HostCpu> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_ascii_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if fields.len() < 8 {
        return None;
    }
    Some(HostCpu {
        steal: fields[7],
        total: fields.iter().sum(),
    })
}

/// The host's CPU tick totals now.
pub fn host_cpu() -> io::Result<HostCpu> {
    let text = std::fs::read_to_string("/proc/stat")?;
    parse_host_cpu(&text).ok_or_else(|| bad("unparseable /proc/stat".into()))
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_ticks_skip_a_command_name_with_spaces() {
        let line = "4242 (maxmin-lp (x) y) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    731 95 0 0 20 0 7 0 123456 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(line), Some(731 + 95));
        assert_eq!(parse_stat_cpu_ticks("12 (short) S 1"), None);
    }

    #[test]
    fn status_kb_fields_parse() {
        let text =
            "Name:\tmaxmin-lp\nVmPeak:\t  99000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_status_kb(text, "VmHWM"), Some(51234));
        assert_eq!(parse_status_kb(text, "VmRSS"), Some(40000));
        assert_eq!(parse_status_kb(text, "VmSwap"), None);
    }

    #[test]
    fn steal_share_is_a_delta_over_all_ticks() {
        let a = parse_host_cpu("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3\n").unwrap();
        assert_eq!(a.steal, 35);
        assert_eq!(a.total, 100 + 50 + 800 + 10 + 5 + 35);
        let b = parse_host_cpu("cpu  150 0 70 900 10 0 5 55 7 0\n").unwrap();
        // 20 steal ticks out of 190 elapsed; guest (7) is not double-counted.
        assert!((b.steal_share_since(&a) - 20.0 / 190.0).abs() < 1e-12);
        assert_eq!(a.steal_share_since(&a), 0.0);
        assert!(parse_host_cpu("cpu0 1 2 3\n").is_none());
    }
}
