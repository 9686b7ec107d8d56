//! Host facts recorded beside every result: a fixed reference workload,
//! peak memory, and the machine's identity.

use std::hint::black_box;
use std::time::Instant;

use crate::gen::Rng;

/// Milliseconds one fixed, seeded sort loop takes. Recorded before and
/// after each run to show how fast the host was; never used to rescale a
/// metric.
pub fn ref_ms() -> f64 {
    let mut rng = Rng::new(0x686f_7374);
    let input: Vec<u32> = (0..1 << 16).map(|_| rng.next_u64() as u32).collect();
    let started = Instant::now();
    for _ in 0..8 {
        let mut data = black_box(input.clone());
        data.sort_unstable();
        black_box(&data);
    }
    started.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line["VmHWM:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Logical CPUs of the machine, whatever this process may use.
pub fn host_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo").map_or(0, |info| {
        info.lines().filter(|l| l.starts_with("processor")).count()
    })
}

/// The CPU model string, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}
