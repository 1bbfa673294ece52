//! Exact quantiles over raw samples, and the metric record every workload
//! reports.

use std::time::Duration;

/// Raw latency samples in nanoseconds. Quantiles are exact (linear
/// interpolation between order statistics), never histogram buckets.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<u64>);

/// Samples needed before a p90 is reported: at least ten lie beyond it.
pub const MIN_P90_SAMPLES: usize = 100;

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn push_ns(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `q` quantile in microseconds (0 for an empty set).
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.sort_unstable();
        let pos = q.clamp(0.0, 1.0) * (self.0.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        let ns = self.0[lo] as f64 * (1.0 - frac) + self.0[hi] as f64 * frac;
        ns / 1000.0
    }
}

/// Median of a list of plain values (0 for an empty list).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One reported metric: its value, unit and how many samples it rests on.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

/// What a workload run reports: its metrics, the request counts, and every
/// correctness check that failed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Printed with the report but not part of the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Reports `p50` as `<prefix>p50_us`, resting on `samples`, and notes
    /// their p90 and the highest percentile with at least ten samples beyond
    /// it. A percentile resting on fewer samples is a failed check.
    pub fn latency(&mut self, prefix: &str, p50: f64, samples: &mut Samples) {
        let n = samples.len() as u64;
        self.check(samples.len() >= MIN_P90_SAMPLES, || {
            format!("{prefix}p90_us rests on {n} samples, fewer than {MIN_P90_SAMPLES}")
        });
        self.metric(&format!("{prefix}p50_us"), p50, "us", n);
        let mut note = format!("{prefix}p90_us {:.3} us", samples.quantile_us(0.9));
        for (q, label) in [(0.999, "p99.9"), (0.99, "p99")] {
            if (n as f64) * (1.0 - q) >= 10.0 {
                note += &format!(", {prefix}{label}_us {:.3} us", samples.quantile_us(q));
                break;
            }
        }
        self.notes.push(format!("{note} (n={n}; not gated)"));
    }

    /// Reports the process's peak resident set.
    pub fn report_peak_rss(&mut self) {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let mib = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kib| kib / 1024.0);
        self.metric("peak_rss_mib", mib, "MiB", 1);
    }

    /// The generator must run far ahead of the latencies it measures. A
    /// late generator does not make the program's outputs wrong, so this
    /// warns instead of failing the run.
    pub fn check_timing(&mut self, all: &mut Samples) {
        let lag = self.get("client.lag_p99_us").unwrap_or(0.0);
        let p50 = all.quantile_us(0.5);
        if lag >= 0.5 * p50 {
            self.notes.push(format!(
                "WARNING: invalid timing: generator lag p99 {lag:.1} us is not far below p50 {p50:.1} us"
            ));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact() {
        let mut s = Samples::default();
        for ns in 1..=1000u64 {
            s.push_ns(ns * 1000);
        }
        assert!((s.quantile_us(0.5) - 500.5).abs() < 1e-9);
        assert!((s.quantile_us(0.99) - 990.01).abs() < 1e-9);
        assert_eq!(s.quantile_us(1.0), 1000.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
