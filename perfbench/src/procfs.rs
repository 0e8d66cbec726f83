//! Process accounting read from `/proc/self`: resident memory and CPU time.

/// A `/proc/self/status` memory field such as `VmHWM` (peak resident set) or
/// `VmRSS` (current resident set), in KiB.
pub fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().trim_end_matches("kB").trim().parse().ok()
    })
}

/// Kernel clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`,
/// which Linux fixes at 100 for its user-space interfaces).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of this process so far, in seconds, summed over
/// all its threads (`utime + stime` from `/proc/self/stat`).
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after its `)`.
    let fields: Vec<&str> = stat[stat.rfind(')')? + 1..].split_whitespace().collect();
    // `fields[0]` is field 3 (state), so utime (14) and stime (15) are 11, 12.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    #[allow(clippy::cast_precision_loss)]
    Some((utime + stime) as f64 / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let rss = status_kib("VmRSS").expect("VmRSS");
        let hwm = status_kib("VmHWM").expect("VmHWM");
        assert!(rss > 0 && hwm >= rss);
        assert!(status_kib("NoSuchField").is_none());
        assert!(cpu_seconds().expect("cpu time") >= 0.0);
    }
}
