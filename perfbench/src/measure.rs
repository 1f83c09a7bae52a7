//! Small measurement helpers: a seeded generator, order statistics and the
//! `/proc` readers behind the CPU and memory metrics.

use std::time::Instant;

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_ba5e_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Median of a sample (mean of the two middle values for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// The tail latency: the highest percentile with at least ten samples
/// above it. Returns `(value, percentile, samples_beyond)`. With fewer than
/// eleven samples no percentile qualifies and the maximum is reported
/// (percentile 100, nothing beyond).
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    if n <= 10 {
        return (sorted[n - 1], 100.0, 0);
    }
    let rank = n - 10;
    (sorted[rank - 1], 100.0 * rank as f64 / n as f64, 10)
}

/// User plus system CPU seconds of a process, all threads, from
/// `/proc/<pid>/stat` (clock ticks at the kernel's USER_HZ of 100).
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Peak resident memory (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets this process's `VmHWM` to its current resident size (Linux
/// `clear_refs`), so a later reading covers only what ran since.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Seconds since `epoch`.
pub fn since(epoch: Instant) -> f64 {
    epoch.elapsed().as_secs_f64()
}

/// A panic payload as text.
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|text| text.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-text panic payload".to_string())
}
