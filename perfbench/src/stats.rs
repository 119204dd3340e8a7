//! Timing statistics, process counters and the metric sink every workload
//! writes into.

use std::time::Instant;

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile `q ∈ (0, 1]` of an ascending sample.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail statistic of a latency sample: the highest of p99.9 / p99 /
/// p90 that still has at least ten samples above its rank, or the maximum
/// when the sample is too small for any of them (fewer than 100 samples).
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// `"p99.9"`, `"p99"`, `"p90"` or `"max"`.
    pub label: &'static str,
    pub secs: f64,
    /// Samples ranked above the reported value.
    pub beyond: usize,
}

/// p50 and the tail of a latency sample.
pub fn latency_summary(samples: &[f64]) -> (f64, Tail) {
    assert!(!samples.is_empty(), "latency of nothing");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let p50 = nearest_rank(&s, 0.5);
    for (label, q) in [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)] {
        let rank = (q * n as f64).ceil() as usize;
        if n - rank >= 10 {
            let tail = Tail {
                label,
                secs: nearest_rank(&s, q),
                beyond: n - rank,
            };
            return (p50, tail);
        }
    }
    let tail = Tail {
        label: "max",
        secs: s[n - 1],
        beyond: 0,
    };
    (p50, tail)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Run `setup` `reps` times and return the last result with the median
/// wall time of one repetition.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let v = setup();
        times.push(secs(t0));
        out = Some(v);
    }
    (out.expect("at least one repetition"), median(&times))
}

/// One named correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything a workload run reports.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// `(name, value)`; units come from the metric tables in `main.rs`.
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    /// Refused, failed-check or panicked operations.
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Free-form provenance, printed before the result line.
    pub notes: Vec<(String, String)>,
}

impl RunOutput {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// The value recorded under `name`, 0 when none is.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |m| m.1)
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 += value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.notes.push((key.into(), value.to_string()));
    }

    /// `ops_per_s`: the median over rounds (fixed units of work the run
    /// repeats) of `(operations, wall seconds)` rates.
    pub fn set_rate(&mut self, rounds: &[(usize, f64)]) {
        let rates: Vec<f64> = rounds.iter().map(|&(n, wall)| n as f64 / wall).collect();
        self.set("ops_per_s", median(&rates));
        self.note("rounds_timed", rounds.len());
    }

    /// `latency_p50_ms` over every sample, and `latency_tail_ms`: the
    /// median of the per-round tails where every round has at least 100
    /// samples, else the tail of all samples together.
    pub fn set_latencies(&mut self, rounds: &[Vec<f64>]) {
        let all: Vec<f64> = rounds.iter().flatten().copied().collect();
        let (p50, pooled_tail) = latency_summary(&all);
        let tail = if rounds.iter().all(|l| l.len() >= 100) {
            let tails: Vec<Tail> = rounds.iter().map(|l| latency_summary(l).1).collect();
            let secs: Vec<f64> = tails.iter().map(|t| t.secs).collect();
            Tail {
                secs: median(&secs),
                ..tails[0]
            }
        } else {
            pooled_tail
        };
        self.set("latency_p50_ms", p50 * 1e3);
        self.set("latency_tail_ms", tail.secs * 1e3);
        self.note("latency_samples", all.len());
        self.note("latency_tail_percentile", tail.label);
        self.note("latency_tail_samples_beyond", tail.beyond);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=192).map(f64::from).collect();
        let (p50, t) = latency_summary(&v);
        assert_eq!(p50, 96.0);
        assert_eq!((t.label, t.beyond), ("p90", 19));
        let v: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(latency_summary(&v).1.label, "p99.9");
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        let t = latency_summary(&v).1;
        assert_eq!((t.label, t.secs), ("max", 5.0));
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
    }
}
