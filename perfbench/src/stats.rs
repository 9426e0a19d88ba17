//! Medians, quantiles, host facts and the metric printer.

use std::fmt::Write as _;
use std::time::Instant;

use dmvcc_primitives::keccak256;

/// Nearest-rank quantile `q` of `values` (0 for none).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: impl Iterator<Item = f64>) -> f64 {
    quantile(&values.collect::<Vec<_>>(), 0.5)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Milliseconds a fixed keccak loop takes (best of five), so drift of the
/// host between runs shows next to the results.
pub fn cpu_ref_ms() -> f64 {
    let mut buffer = vec![0u8; 64 * 1024];
    (0..5)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..64 {
                let hash = keccak256(&buffer);
                buffer[..32].copy_from_slice(hash.as_bytes());
            }
            started.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Cumulative CPU time of the whole machine from `/proc/stat`, as
/// `(steal, total)` clock ticks.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of the machine's CPU time a hypervisor gave to other guests
/// since [`StealClock::start`]: the host noise this benchmark cannot
/// remove, recorded so a slow run can be told from a slow program.
pub struct StealClock((u64, u64));

impl StealClock {
    pub fn start() -> StealClock {
        StealClock(cpu_ticks())
    }

    pub fn frac(&self) -> f64 {
        let (steal, total) = cpu_ticks();
        let (steal0, total0) = self.0;
        (steal - steal0) as f64 / (total - total0).max(1) as f64
    }
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Named metrics in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        // JSON has no NaN or infinity; a ratio over an empty layer is 0.
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name, value, unit));
    }

    pub fn print_table(&self) {
        for (name, value, unit) in &self.0 {
            println!("{name:<32} {value:>14.4} {unit}");
        }
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}
