//! Host context: process CPU time, peak RSS, runqueue wait, hypervisor
//! steal, the CPU model and the allowed CPUs, plus CPU pinning. The `/proc` parsers take
//! the file text so they can be tested on fixtures; the readers return 0
//! (or "unknown") when a file is missing, since host context is recorded,
//! never gated.

use std::fs;

/// Linux reports `/proc/stat` times in `USER_HZ` ticks, fixed at 100 by
/// the kernel ABI.
const USER_HZ: f64 = 100.0;

/// The CPUs of a `Cpus_allowed_list` line in `/proc/<pid>/status`,
/// such as `0-3,6`.
pub fn parse_cpus_allowed(status: &str) -> Option<Vec<usize>> {
    let list = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))?;
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        match part.split_once('-') {
            Some((lo, hi)) => cpus.extend(lo.parse::<usize>().ok()?..=hi.parse().ok()?),
            None => cpus.push(part.parse().ok()?),
        }
    }
    (!cpus.is_empty()).then_some(cpus)
}

/// A `kB` value such as `VmHWM` from `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// Time spent waiting on a runqueue, in ns: the second field of
/// `/proc/<pid>/task/<tid>/schedstat`.
pub fn parse_schedstat_wait_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().nth(1)?.parse().ok()
}

/// Ticks the hypervisor ran something else while a CPU of this machine
/// wanted to run (`steal`, the 8th value of the `cpu` line of
/// `/proc/stat`), summed over all CPUs.
pub fn parse_stat_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// The first `model name` in `/proc/cpuinfo`.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_string())
    })
}

/// User + system CPU seconds of this process, all threads, including
/// threads that have exited (`CLOCK_PROCESS_CPUTIME_ID`, ns resolution).
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the call to
    // fill; the clock id is a constant the kernel defines.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Runqueue wait of the calling thread so far, in seconds.
pub fn thread_runqueue_wait_s() -> f64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| parse_schedstat_wait_ns(&s))
        .map_or(0.0, |ns| ns as f64 * 1e-9)
}

/// Time stolen by the hypervisor so far, all CPUs, in seconds.
pub fn steal_s() -> f64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_stat_steal_ticks(&s))
        .map_or(0.0, |ticks| ticks as f64 / USER_HZ)
}

/// The CPU model name.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| parse_cpu_model(&s))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The CPUs this process may run on.
pub fn allowed_cpus() -> Vec<usize> {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_cpus_allowed(&s))
        .unwrap_or_else(|| (0..parallelism()).collect())
}

/// Bits of a glibc `cpu_set_t`.
const CPU_SET_BITS: usize = 1024;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and threads it spawns later, to `cpus`.
/// Returns whether the kernel accepted the mask.
pub fn pin(cpus: &[usize]) -> bool {
    let mut mask = [0u64; CPU_SET_BITS / 64];
    for &cpu in cpus.iter().filter(|&&c| c < CPU_SET_BITS) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is an initialised buffer of exactly the byte length
    // passed, which is all the call reads; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// `std::thread::available_parallelism`, or 1 when it cannot be read.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_time_advances_with_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        while process_cpu_s() - before < 0.01 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_s() > before);
    }

    #[test]
    fn cpus_allowed_list_expands_ranges() {
        let status = "Name:\tperfbench\nCpus_allowed:\t4f\nCpus_allowed_list:\t0-3,6\n";
        assert_eq!(parse_cpus_allowed(status), Some(vec![0, 1, 2, 3, 6]));
        assert_eq!(parse_cpus_allowed("Cpus_allowed_list:\t1\n"), Some(vec![1]));
        assert_eq!(parse_cpus_allowed("Cpus_allowed_list:\tx\n"), None);
        assert_eq!(parse_cpus_allowed("Name:\tperfbench\n"), None);
    }

    #[test]
    fn status_reads_kb_fields() {
        let status = "Name:\tperfbench\nVmPeak:\t  200000 kB\nVmHWM:\t   51200 kB\n\
                      VmRSS:\t   40000 kB\nThreads:\t1\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(51_200));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(40_000));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn proc_stat_steal_is_the_eighth_value_of_the_cpu_line() {
        let stat = "cpu  2233313 0 87791 2502489 1074 0 2506 69032 0 0\n\
                    cpu0 1116656 0 43895 1251244 537 0 1253 34516 0 0\n\
                    intr 12345\n";
        assert_eq!(parse_stat_steal_ticks(stat), Some(69_032));
        assert_eq!(parse_stat_steal_ticks("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_stat_steal_ticks("cpu  1 2 3\n"), None);
    }

    #[test]
    fn schedstat_wait_is_the_second_field() {
        assert_eq!(parse_schedstat_wait_ns("1234567 89012 345\n"), Some(89_012));
        assert_eq!(parse_schedstat_wait_ns("1234567\n"), None);
    }

    #[test]
    fn cpuinfo_model_is_the_first_model_name() {
        let cpuinfo = "processor\t: 0\nvendor_id\t: GenuineIntel\n\
                       model name\t: Intel(R) Xeon(R) CPU @ 2.20GHz\n\
                       processor\t: 1\nmodel name\t: other\n";
        assert_eq!(
            parse_cpu_model(cpuinfo).as_deref(),
            Some("Intel(R) Xeon(R) CPU @ 2.20GHz")
        );
        assert_eq!(parse_cpu_model("processor\t: 0\n"), None);
    }
}
