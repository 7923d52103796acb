//! What one workload run hands back, and how it becomes metrics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::trace::Trace;

/// Why ops failed. Every failed op counts once, under its first cause.
#[derive(Debug, Default, Clone, Copy)]
pub struct Failures {
    /// Structured `ERR` frames (or `Err` results from an in-process call).
    pub err_frames: u64,
    /// Broken connections and undecodable responses.
    pub transport: u64,
    /// Panics caught around an op.
    pub panics: u64,
    /// Answers the oracle rejected.
    pub wrong: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.err_frames + self.transport + self.panics + self.wrong
    }

    pub fn add(&mut self, other: &Failures) {
        self.err_frames += other.err_frames;
        self.transport += other.transport;
        self.panics += other.panics;
        self.wrong += other.wrong;
    }
}

/// One workload run: set-up times, the timed phase, and (traced runs only)
/// the per-layer figures.
pub struct Outcome {
    /// Every set-up repetition, in seconds; the metric is their median.
    pub setup_s: Vec<f64>,
    /// Wall seconds of the timed phase, oracle checks excluded.
    pub wall_s: f64,
    /// When each completed op finished, in seconds into the timed phase
    /// (oracle checks excluded), ascending.
    pub done_s: Vec<f64>,
    /// Ops per throughput window (see [`windowed_rate`]).
    pub window: usize,
    /// Read-op latencies in ms. A failed op is `f64::INFINITY`: it misses
    /// every latency limit.
    pub reads_ms: Vec<f64>,
    /// Write-op latencies in ms (empty for read-only workloads).
    pub writes_ms: Vec<f64>,
    pub attempted: u64,
    pub failures: Failures,
    /// Peak RSS in MB once the timed phase finished its [`RssAt`] budget.
    pub peak_rss_mb: f64,
    /// Per-layer metrics, by their `BENCHMARK.json` name. Filled only when
    /// the run was traced.
    pub layers: Vec<(&'static str, f64)>,
    pub trace: Trace,
}

impl Outcome {
    pub fn completed(&self) -> u64 {
        self.attempted - self.failures.total()
    }

    /// The median window rate, or completed ops over the whole timed phase
    /// when the run was too short for three windows.
    pub fn ops_per_s(&self) -> f64 {
        windowed_rate(&self.done_s, self.window)
            .unwrap_or_else(|| self.completed() as f64 / self.wall_s)
    }
}

/// The timed phase cut into consecutive windows of `window` completed ops;
/// the median of the windows' rates. A few seconds in which the host ran
/// slow move this less than they move a whole-run mean. `None` with fewer
/// than three windows.
pub fn windowed_rate(done_s: &[f64], window: usize) -> Option<f64> {
    let windows = done_s.len() / window.max(1);
    if windows < 3 {
        return None;
    }
    let rates: Vec<f64> = (0..windows)
        .map(|k| {
            let begin = if k == 0 { 0.0 } else { done_s[k * window - 1] };
            window as f64 / (done_s[(k + 1) * window - 1] - begin)
        })
        .collect();
    Some(median(&rates))
}

/// Reads the peak RSS after a fixed number of timed ops. Some layers grow
/// with every op (an edit session's store keeps what it detached), so a
/// reading at the end of the run would rise whenever the program got
/// faster; a reading after a fixed amount of work does not.
pub struct RssAt {
    budget: u64,
    done: AtomicU64,
    mb: OnceLock<f64>,
}

impl RssAt {
    pub fn new(budget: u64) -> RssAt {
        RssAt {
            budget,
            done: AtomicU64::new(0),
            mb: OnceLock::new(),
        }
    }

    /// Counts one finished op; the op that reaches the budget takes the
    /// reading.
    pub fn op(&self) {
        if self.done.fetch_add(1, Ordering::Relaxed) + 1 == self.budget {
            let _ = self.mb.set(peak_rss_mb());
        }
    }

    /// The reading, or the peak so far if the run ended short of the budget.
    pub fn mb(&self) -> f64 {
        self.mb.get().copied().unwrap_or_else(peak_rss_mb)
    }
}

/// Nearest-rank percentile of an ascending-sorted sample set.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// Number of samples strictly above the `p`th percentile — the count the
/// report prints beside each tail figure.
pub fn beyond(sorted: &[f64], p: f64) -> usize {
    let cut = percentile(sorted, p);
    sorted.iter().filter(|&&x| x > cut).count()
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload never reached).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process in MB: `VmHWM` from
/// `/proc/self/status`, which starts afresh at `exec` (`ru_maxrss` would
/// carry over the launching process's peak). The benchmark runs one
/// workload per process, so this is the workload's peak so far.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// A finite number as JSON; anything else (a percentile over failed ops)
/// as `null`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal (the benchmark only emits ASCII names and
/// messages, but escape the two characters that would break a line).
pub fn string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(beyond(&v, 90.0), 1);
    }

    #[test]
    fn window_rates_take_the_median() {
        // Three windows of two ops: 2 ops/s, then 1 op/s, then 2 ops/s.
        let done = [0.5, 1.0, 2.0, 3.0, 3.5, 4.0];
        assert_eq!(windowed_rate(&done, 2), Some(2.0));
        assert_eq!(windowed_rate(&done, 3), None);
    }

    #[test]
    fn failed_ops_push_the_tail() {
        let v = sorted(&[1.0, f64::INFINITY, 2.0]);
        assert_eq!(percentile(&v, 100.0), f64::INFINITY);
        assert_eq!(num(percentile(&v, 100.0)), "null");
    }

    #[test]
    fn rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
