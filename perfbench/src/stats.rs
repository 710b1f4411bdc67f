//! Percentiles, windowed latency summaries, and process memory.

use tl_obs::HistSnapshot;

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64
}

pub fn median_f64(values: &[f64]) -> f64 {
    quantile_f64(values, 0.5)
}

/// Quantile `q` of `values`, interpolated between neighbours; 0 when empty.
pub fn quantile_f64(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The fast quartile of per-window figures: the lower quartile of a time,
/// the upper quartile of a rate. Interference from other work on the host
/// only ever slows a window down, so the fast quartile tracks the
/// program's own speed while the slowest windows track the neighbours'.
pub fn fast_quartile(values: &[f64], lower_is_better: bool) -> f64 {
    quantile_f64(values, if lower_is_better { 0.25 } else { 0.75 })
}

/// Latencies of one timed phase in constant memory: one log-linear
/// histogram per one-second window (128 sub-buckets per octave, so a
/// bucket is under 0.8% wide), so the benchmark's own bookkeeping does
/// not grow with throughput and show up in `peak_rss_mb`.
pub struct LatencyLog {
    windows: Vec<Vec<u32>>,
    samples: u64,
}

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;
const WINDOW_NS: u64 = 1_000_000_000;

/// Bucket of `v`: exact below 128, then 128 buckets per octave.
fn bucket(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros();
    let shift = octave - SUB_BITS;
    (SUB + u64::from(shift) * SUB + ((v >> shift) - SUB)) as usize
}

/// Lower bound and width of bucket `i`.
fn bucket_range(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < SUB {
        return (i as f64, 1.0);
    }
    let shift = (i - SUB) / SUB;
    let mantissa = SUB + (i - SUB) % SUB;
    ((mantissa << shift) as f64, (1u64 << shift) as f64)
}

impl LatencyLog {
    pub fn new() -> Self {
        Self {
            windows: Vec::new(),
            samples: 0,
        }
    }

    /// Records an operation that finished `done_ns` after the phase began.
    pub fn record(&mut self, done_ns: u64, latency_ns: u64) {
        let w = (done_ns / WINDOW_NS) as usize;
        if self.windows.len() <= w {
            self.windows.resize_with(w + 1, || vec![0; BUCKETS]);
        }
        self.windows[w][bucket(latency_ns)] += 1;
        self.samples += 1;
    }
}

/// Quantile `q` of a bucket histogram, interpolated by rank within the
/// bucket that holds it.
fn quantile(counts: &[u32], q: f64) -> f64 {
    let n: u64 = counts.iter().map(|&c| u64::from(c)).sum();
    if n == 0 {
        return 0.0;
    }
    let rank = q * (n - 1) as f64;
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        let c = u64::from(c);
        if c > 0 && (seen + c) as f64 > rank {
            let (lo, width) = bucket_range(i);
            return lo + width * (rank - seen as f64 + 0.5) / c as f64;
        }
        seen += c;
    }
    0.0
}

/// Latency and rate of one timed run.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    pub samples: u64,
    pub windows: usize,
    pub p50_us: f64,
    pub p99_us: f64,
    pub ops_per_s: f64,
    /// Each window's `(p50_us, p99_us, ops_per_s)`.
    pub per_window: Vec<(f64, f64, f64)>,
}

impl Summary {
    /// The per-window figures as report JSON.
    pub fn windows_json(&self) -> tl_obs::json::Json {
        use tl_obs::json::Json;
        let col = |f: fn(&(f64, f64, f64)) -> f64| {
            Json::Arr(self.per_window.iter().map(|w| Json::Num(f(w))).collect())
        };
        Json::Obj(vec![
            ("p50_us".into(), col(|w| w.0)),
            ("p99_us".into(), col(|w| w.1)),
            ("ops_per_s".into(), col(|w| w.2)),
        ])
    }
}

/// Summarizes the logs of one phase that ran for `wall_ns`.
///
/// The run is cut into windows of whole seconds, as short as gives each
/// window at least [`MIN_WINDOW_SAMPLES`] operations. With two windows or
/// more, each figure is the [`fast_quartile`] over the windows of that
/// window's figure, so a stall (a slow fsync, a neighbour's burst) moves
/// the result by one window's vote rather than by its whole tail.
/// Otherwise the run is one window.
pub fn summarize(logs: &[&LatencyLog], wall_ns: u64) -> Summary {
    let samples: u64 = logs.iter().map(|l| l.samples).sum();
    let secs = (wall_ns / WINDOW_NS) as usize;
    let per_sec = samples as f64 / (wall_ns as f64 / 1e9).max(1e-9);
    let span = (MIN_WINDOW_SAMPLES as f64 / per_sec.max(1e-9))
        .ceil()
        .max(1.0);
    let span = if span.is_finite() && span <= secs as f64 {
        span as usize
    } else {
        secs.max(1)
    };
    let n_windows = secs / span;
    // Seconds `range` of every log, or every second of every log.
    let merged = |range: Option<std::ops::Range<usize>>| {
        let mut counts = vec![0u32; BUCKETS];
        for log in logs {
            let picked = match &range {
                Some(r) => {
                    let end = r.end.min(log.windows.len());
                    &log.windows[r.start.min(end)..end]
                }
                None => &log.windows[..],
            };
            for w in picked {
                for (c, &x) in counts.iter_mut().zip(w) {
                    *c += x;
                }
            }
        }
        counts
    };
    let windows: Vec<(Vec<u32>, f64)> = if n_windows >= 2 {
        (0..n_windows)
            .map(|w| (merged(Some(w * span..(w + 1) * span)), span as f64))
            .collect()
    } else {
        vec![(merged(None), wall_ns as f64 / 1e9)]
    };
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut rate = Vec::new();
    for (counts, secs) in &windows {
        let n: u64 = counts.iter().map(|&c| u64::from(c)).sum();
        p50.push(quantile(counts, 0.50) / 1e3);
        p99.push(quantile(counts, 0.99) / 1e3);
        rate.push(n as f64 / secs.max(1e-9));
    }
    Summary {
        samples,
        windows: windows.len(),
        p50_us: fast_quartile(&p50, true),
        p99_us: fast_quartile(&p99, true),
        ops_per_s: fast_quartile(&rate, false),
        per_window: (0..p50.len()).map(|i| (p50[i], p99[i], rate[i])).collect(),
    }
}

/// A window needs this many samples for its p99 to have ten beyond it.
pub const MIN_WINDOW_SAMPLES: u64 = 1000;

/// Quantile of a base-2 exponential histogram, interpolated linearly
/// within the bucket that holds it (bucket `[lo, 2*lo)`). Resolution is
/// the bucket: a figure read from it is good to a factor of two.
pub fn hist_quantile(h: &HistSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = q * h.count as f64;
    let mut seen = 0u64;
    for &(lo, n) in &h.buckets {
        if (seen + n) as f64 >= rank {
            let frac = ((rank - seen as f64) / n as f64).clamp(0.0, 1.0);
            // Bucket 0 holds only the value 0; bucket `lo` spans `lo` values.
            return lo as f64 + frac * lo as f64;
        }
        seen += n;
    }
    h.max_bucket_lo() as f64
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_median_ignores_one_slow_window() {
        let mut log = LatencyLog::new();
        for w in 0..5u64 {
            let lat = if w == 2 { 50_000 } else { 1_000 };
            for i in 0..MIN_WINDOW_SAMPLES {
                log.record(w * 1_000_000_000 + i, lat);
            }
        }
        let s = summarize(&[&log], 5_000_000_000);
        assert_eq!(s.windows, 5);
        assert!((s.p99_us - 1.0).abs() < 0.01, "{}", s.p99_us);
        assert_eq!(s.ops_per_s, MIN_WINDOW_SAMPLES as f64);
    }

    #[test]
    fn slow_operations_get_multi_second_windows() {
        let mut log = LatencyLog::new();
        for sec in 0..10u64 {
            for i in 0..600 {
                log.record(sec * 1_000_000_000 + i, 2_000 + sec);
            }
        }
        let s = summarize(&[&log], 10_000_000_000);
        assert_eq!(s.windows, 5, "two-second windows reach 1000 samples");
        assert_eq!(s.ops_per_s, 600.0);
        assert_eq!(quantile_f64(&[4.0, 1.0, 3.0, 2.0], 0.25), 1.75);
    }

    #[test]
    fn buckets_are_narrow_and_ordered() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1_000,
            123_456_789,
            (1 << 40) + 12_345,
        ] {
            let (lo, width) = bucket_range(bucket(v));
            assert!(lo <= v as f64 && (v as f64) < lo + width, "{v}");
            assert!(width <= 1.0f64.max(lo / 127.0), "{v}");
        }
        assert!(bucket(u64::MAX) < BUCKETS);
    }

    #[test]
    fn hist_quantile_interpolates_in_bucket() {
        let h = HistSnapshot {
            count: 4,
            sum: 0,
            buckets: vec![(8, 2), (16, 2)],
        };
        assert_eq!(hist_quantile(&h, 0.5), 16.0);
        assert_eq!(hist_quantile(&h, 0.75), 24.0);
    }
}
