//! What the kernel says about a process, read from outside it: CPU time
//! from `/proc/<pid>/stat`, peak resident set and thread count from
//! `/proc/<pid>/status`. Parsing is split from reading so it can be tested
//! on fixed text.

use std::time::Duration;

/// utime + stime (fields 14 and 15) of a `/proc/<pid>/stat` line, in clock
/// ticks. The command name (field 2) may itself hold spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime is field 14, stime field 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The number on a `Key:   123 kB`-style line of `/proc/<pid>/status`.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// A process to sample: `None` is this process.
#[derive(Debug, Clone, Copy)]
pub struct Proc {
    pid: Option<u32>,
    clk_tck: u64,
}

impl Proc {
    pub fn this(clk_tck: u64) -> Self {
        Self { pid: None, clk_tck }
    }

    pub fn child(pid: u32, clk_tck: u64) -> Self {
        Self {
            pid: Some(pid),
            clk_tck,
        }
    }

    fn read(&self, file: &str) -> Result<String, String> {
        let path = match self.pid {
            Some(pid) => format!("/proc/{pid}/{file}"),
            None => format!("/proc/self/{file}"),
        };
        std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))
    }

    /// CPU time (user + system, all threads) consumed so far.
    pub fn cpu(&self) -> Result<Duration, String> {
        let ticks = parse_stat_cpu_ticks(&self.read("stat")?)
            .ok_or("unparseable /proc stat line".to_string())?;
        Ok(Duration::from_secs_f64(ticks as f64 / self.clk_tck as f64))
    }

    /// Peak resident set size (VmHWM) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        parse_status_field(&self.read("status")?, "VmHWM")
            .map(|kb| kb as f64 / 1024.0)
            .ok_or("no VmHWM in /proc status".to_string())
    }

    /// Live thread count.
    pub fn threads(&self) -> Result<u64, String> {
        parse_status_field(&self.read("status")?, "Threads")
            .ok_or("no Threads in /proc status".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        let plain = "4242 (cocad) S 1 4242 4242 0 -1 4194304 1203 0 0 0 \
                     317 58 0 0 20 0 7 0 9061 1 2 3";
        assert_eq!(parse_stat_cpu_ticks(plain), Some(317 + 58));
        let hostile = "4242 (a) b (c d)) R 1 4242 4242 0 -1 4194304 1203 0 0 0 \
                       11 22 0 0 20 0 7 0 9061";
        assert_eq!(parse_stat_cpu_ticks(hostile), Some(33));
        assert_eq!(parse_stat_cpu_ticks("4242 (cocad) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no paren at all"), None);
    }

    #[test]
    fn status_fields_parse_by_exact_key() {
        let status = "Name:\tcocad\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\n\
                      VmRSS:\t   10240 kB\nThreads:\t7\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(20480));
        assert_eq!(parse_status_field(status, "Threads"), Some(7));
        // A key that is only a prefix of another line's key must not match.
        assert_eq!(parse_status_field(status, "Vm"), None);
        assert_eq!(parse_status_field(status, "VmSwap"), None);
    }

    #[test]
    fn this_process_is_readable() {
        let me = Proc::this(100);
        assert!(me.peak_rss_mb().unwrap() > 0.0);
        assert!(me.threads().unwrap() >= 1);
        me.cpu().unwrap();
    }
}
