//! Host health read from `/proc`: CPU steal, TCP listen-queue overflows
//! and SYN retransmits, and the process's peak resident set. Recorded
//! beside every run so a run the host distorted is recognised instead of
//! averaged in.

use std::fs;

use crate::stats::median;

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct CpuTimes {
    /// user + nice + system + idle + iowait + irq + softirq + steal
    /// (guest time is already inside user time).
    total: u64,
    /// Time the hypervisor ran something else while this guest wanted
    /// a CPU.
    steal: u64,
}

/// Parses the aggregate `cpu` line of `/proc/stat` text.
fn parse_cpu(stat: &str) -> Option<CpuTimes> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    if fields.len() < 8 {
        return None;
    }
    Some(CpuTimes {
        total: fields.iter().sum(),
        steal: fields[7],
    })
}

/// Steal as a percentage of all CPU time between two readings.
fn steal_pct(before: CpuTimes, after: CpuTimes) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    after.steal.saturating_sub(before.steal) as f64 / total as f64 * 100.0
}

/// Reads `/proc/stat`; `None` where it is unavailable.
fn cpu_now() -> Option<CpuTimes> {
    parse_cpu(&fs::read_to_string("/proc/stat").ok()?)
}

/// Steal over an interval, started by [`StealMeter::start`].
#[derive(Clone, Copy, Debug)]
pub struct StealMeter(Option<CpuTimes>);

impl StealMeter {
    /// Starts an interval now.
    pub fn start() -> StealMeter {
        StealMeter(cpu_now())
    }

    /// Steal percentage since the start (0 where `/proc/stat` is
    /// unreadable).
    pub fn pct(&self) -> f64 {
        match (self.0, cpu_now()) {
            (Some(a), Some(b)) => steal_pct(a, b),
            _ => 0.0,
        }
    }
}

/// The values of the `keep` units the host disturbed least: units sorted
/// by the steal measured over each, ties kept in run order. A unit run
/// while the hypervisor took the CPUs is recognised and left out instead
/// of averaged in.
fn least_stolen(values: &[f64], steal: &[f64], keep: usize) -> Vec<f64> {
    assert_eq!(values.len(), steal.len(), "one steal reading per unit");
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    order.truncate(keep.max(1));
    order.sort_unstable();
    order.into_iter().map(|i| values[i]).collect()
}

/// How every timed figure is reduced: the median over the three quarters
/// of the units (tables, steps, serving windows) with the least steal.
/// The quarter dropped absorbs a steal burst; dropping more did not make
/// runs repeat better, because most of this host's run-to-run spread
/// comes from drifts in CPU speed that steal does not show.
pub fn quiet_median(values: &[f64], steal: &[f64]) -> f64 {
    median(&least_stolen(values, steal, (3 * values.len()).div_ceil(4)))
}

/// TCP counters that reveal a harness stall: accepts the listen queue
/// dropped, and SYNs the kernel had to retransmit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// `TcpExt: ListenOverflows`.
    pub listen_overflows: u64,
    /// `TcpExt: TCPSynRetrans`.
    pub syn_retrans: u64,
}

impl NetCounters {
    /// Counter increase from `before` to `self`.
    pub fn since(self, before: NetCounters) -> NetCounters {
        NetCounters {
            listen_overflows: self
                .listen_overflows
                .saturating_sub(before.listen_overflows),
            syn_retrans: self.syn_retrans.saturating_sub(before.syn_retrans),
        }
    }
}

/// Looks up `field` in a `/proc/net/netstat`-style file, where each
/// section is a header line of names followed by a line of values, both
/// prefixed by `section:`.
fn parse_netstat(text: &str, section: &str, field: &str) -> Option<u64> {
    let prefix = format!("{section}:");
    let mut lines = text.lines().filter(|l| l.starts_with(&prefix));
    while let (Some(names), Some(values)) = (lines.next(), lines.next()) {
        let names = names[prefix.len()..].split_whitespace();
        let mut values = values[prefix.len()..].split_whitespace();
        for name in names {
            let value = values.next()?;
            if name == field {
                return value.parse().ok();
            }
        }
    }
    None
}

/// Parses the counters out of `/proc/net/netstat` text; absent fields read
/// as zero.
fn parse_net(netstat: &str) -> NetCounters {
    NetCounters {
        listen_overflows: parse_netstat(netstat, "TcpExt", "ListenOverflows").unwrap_or(0),
        syn_retrans: parse_netstat(netstat, "TcpExt", "TCPSynRetrans").unwrap_or(0),
    }
}

/// Reads `/proc/net/netstat` (zeros where it is unavailable).
pub fn net_now() -> NetCounters {
    parse_net(&fs::read_to_string("/proc/net/netstat").unwrap_or_default())
}

/// Parses `VmHWM` (peak resident set, kB) out of `/proc/self/status` text.
fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// This process's peak resident set in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let kb = parse_vm_hwm_kb(&fs::read_to_string("/proc/self/status").ok()?)?;
    Some(kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "cpu  100 5 50 800 10 1 2 32 7 0\n\
                        cpu0 50 2 25 400 5 0 1 16 3 0\n\
                        intr 12345\n";

    #[test]
    fn cpu_line_sums_eight_fields_and_reads_steal() {
        let t = parse_cpu(STAT).unwrap();
        assert_eq!(t.total, 100 + 5 + 50 + 800 + 10 + 1 + 2 + 32);
        assert_eq!(t.steal, 32);
        assert_eq!(parse_cpu("cpu0 1 2 3\n"), None);
        assert_eq!(parse_cpu("cpu  1 2 3\n"), None, "too few fields");
    }

    #[test]
    fn steal_pct_is_a_share_of_the_delta() {
        let a = CpuTimes {
            total: 1000,
            steal: 10,
        };
        let b = CpuTimes {
            total: 1200,
            steal: 20,
        };
        assert!((steal_pct(a, b) - 5.0).abs() < 1e-12);
        assert_eq!(steal_pct(a, a), 0.0);
    }

    #[test]
    fn least_stolen_keeps_the_quietest_units_in_run_order() {
        let values = [10.0, 20.0, 30.0, 40.0, 50.0];
        let steal = [5.0, 0.5, 30.0, 0.1, 0.5];
        assert_eq!(least_stolen(&values, &steal, 3), vec![20.0, 40.0, 50.0]);
        assert_eq!(least_stolen(&values, &steal, 0), vec![40.0]);
        assert_eq!(least_stolen(&values, &steal, 9), values.to_vec());
        // Four of five units kept: the 30%-steal one goes.
        assert_eq!(quiet_median(&values, &steal), 30.0);
    }

    #[test]
    fn netstat_pairs_names_with_values_per_section() {
        let text = "TcpExt: SyncookiesSent ListenOverflows ListenDrops TCPSynRetrans\n\
                    TcpExt: 0 8 9 3\n\
                    IpExt: InNoRoutes ListenOverflows\n\
                    IpExt: 1 99\n";
        assert_eq!(parse_netstat(text, "TcpExt", "ListenOverflows"), Some(8));
        assert_eq!(parse_netstat(text, "IpExt", "ListenOverflows"), Some(99));
        assert_eq!(parse_netstat(text, "TcpExt", "Missing"), None);
        let c = parse_net(text);
        assert_eq!(
            c,
            NetCounters {
                listen_overflows: 8,
                syn_retrans: 3
            }
        );
        let later = NetCounters {
            listen_overflows: 10,
            syn_retrans: 3,
        };
        assert_eq!(later.since(c).listen_overflows, 2);
        assert_eq!(parse_net(""), NetCounters::default());
    }

    #[test]
    fn vm_hwm_in_kilobytes() {
        let status = "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t   2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }
}
