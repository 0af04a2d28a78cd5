//! The result line and the small statistics the workloads share.

use std::fmt::Write as _;
use std::time::Duration;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run reports: the correctness verdict, the request counts and
/// the metrics of the selected pass (end-to-end or traced).
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Looks a metric up by name.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result. Values print with every digit Rust's
    /// shortest round-trip formatting gives them.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Nearest-rank percentile of an ascending slice (0 for an empty one).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy and takes the nearest-rank percentile.
pub fn percentile_of(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

/// The median (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Splits `[0, span)` into `windows` equal sub-windows, takes the
/// `p`-th percentile of the values whose time falls in each, and returns
/// the median of those percentiles. Contention from outside the process
/// comes in bursts of a few seconds; a burst then moves one sub-window,
/// not the figure.
pub fn windowed_percentile(
    times: &[f64],
    values: &[f64],
    span: f64,
    windows: usize,
    p: f64,
) -> f64 {
    let mut buckets = vec![Vec::new(); windows];
    for (&t, &v) in times.iter().zip(values) {
        let k = ((t / span) * windows as f64) as usize;
        buckets[k.min(windows - 1)].push(v);
    }
    let per_window: Vec<f64> = buckets
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| percentile_of(b, p))
        .collect();
    median(&per_window)
}

/// Events per second over `[0, span)`: the median of the rates of
/// `windows` equal sub-windows.
pub fn windowed_rate(times: &[f64], span: f64, windows: usize) -> f64 {
    let mut counts = vec![0usize; windows];
    for &t in times {
        let k = ((t / span) * windows as f64) as usize;
        counts[k.min(windows - 1)] += 1;
    }
    let width = span / windows as f64;
    median(&counts.iter().map(|&c| c as f64 / width).collect::<Vec<_>>())
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `struct timespec` of Linux's C library.
#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Reads a CPU-time clock, in seconds (0 if the call fails).
fn cpu_clock_s(clock: i32) -> f64 {
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a writable `timespec` with the C layout.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time the process has used outside the calling thread, in seconds,
/// to the nanosecond: every server thread, live or exited, but not the
/// client or generator, which is the calling thread. The scheduler does
/// not charge a thread for time it waits for a CPU, nor for time the
/// hypervisor steals, so this cost holds still where wall-clock figures
/// swing with the host's other tenants.
pub fn server_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID) - cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// What one pass of [`Reference`] is scaled to, in CPU ms: the
/// workloads report server CPU per request as it would be on a host on
/// which one pass takes this long.
pub const REFERENCE_PASS_MS: f64 = 1.0;

/// A fixed integer kernel that shares no code with the program: dot
/// products of an `i8` vector with the rows of a 64 KiB `i8` matrix,
/// about 1 ms of CPU a pass on a 2-vCPU Xeon guest. The host's other
/// tenants slow this guest down by up to half for minutes at a time; run
/// between requests on the server's CPU, the kernel slows down with the
/// requests, and dividing by its CPU time takes most of that out of a
/// run's CPU per request. No change to the program moves it.
pub struct Reference {
    weights: Vec<i8>,
    input: Vec<i8>,
    cpu_s: f64,
    passes: u32,
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            weights: (0..64 * 1024).map(|i| (i * 37 % 255) as i8).collect(),
            input: (0..1024).map(|i| (i * 11 % 251) as i8).collect(),
            cpu_s: 0.0,
            passes: 0,
        }
    }

    /// Runs one pass on the calling thread, books its CPU time and
    /// returns it, in ms.
    pub fn pass(&mut self) -> f64 {
        let start = cpu_clock_s(CLOCK_THREAD_CPUTIME_ID);
        let mut acc = 0i64;
        for _ in 0..50 {
            for row in std::hint::black_box(&self.weights).chunks_exact(self.input.len()) {
                let dot: i32 = row
                    .iter()
                    .zip(&self.input)
                    .map(|(&w, &x)| i32::from(w) * i32::from(x))
                    .sum();
                acc = acc.wrapping_add(i64::from(dot));
            }
        }
        std::hint::black_box(acc);
        let cpu_s = cpu_clock_s(CLOCK_THREAD_CPUTIME_ID) - start;
        self.cpu_s += cpu_s;
        self.passes += 1;
        cpu_s * 1e3
    }

    /// Mean CPU time of a pass so far, in ms.
    pub fn pass_ms(&self) -> f64 {
        self.cpu_s * 1e3 / f64::from(self.passes.max(1))
    }
}

/// The CPUs a thread may run on, as glibc's 1024-bit `cpu_set_t`.
pub struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it starts from now on,
/// to the first CPU it may run on, and returns the CPUs it could run on
/// before. `None`, leaving the threads free, where the affinity calls
/// fail.
pub fn pin_to_one_cpu() -> Option<CpuSet> {
    let mut allowed = CpuSet([0; 16]);
    // SAFETY: the mask is writable for the `size` bytes passed, and pid 0
    // names the calling thread.
    let got = unsafe { sched_getaffinity(0, size_of_val(&allowed.0), allowed.0.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    let cpu = (0..16 * 64).find(|&c| allowed.0[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    set_cpus(&one).then_some(allowed)
}

/// Lets the calling thread, and every thread it starts from now on, run
/// on `cpus`; returns whether that took.
pub fn set_cpus(cpus: &CpuSet) -> bool {
    // SAFETY: the mask is readable for the `size` bytes passed, and pid 0
    // names the calling thread.
    unsafe { sched_setaffinity(0, size_of_val(&cpus.0), cpus.0.as_ptr()) == 0 }
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn windowed_figures_ignore_one_bad_window() {
        // Ten events a second for ten seconds, except a stalled fourth
        // second with one slow event.
        let mut times = Vec::new();
        let mut values = Vec::new();
        for s in 0..10 {
            let n = if s == 3 { 1 } else { 10 };
            for i in 0..n {
                times.push(s as f64 + i as f64 / 10.0);
                values.push(if s == 3 { 100.0 } else { 1.0 + i as f64 });
            }
        }
        assert_eq!(windowed_rate(&times, 10.0, 10), 10.0);
        assert_eq!(windowed_percentile(&times, &values, 10.0, 10, 50.0), 5.0);
        assert_eq!(windowed_percentile(&times, &values, 10.0, 10, 99.0), 10.0);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: Vec::new(),
        };
        o.push("latency_p50_ms", 1.25, "ms");
        o.push("setup_s", 0.5, "s");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
