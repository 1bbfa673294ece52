//! Always-on metrics: counters, gauges and log₂ histograms with a
//! dependency-free Prometheus-style text exposition.
//!
//! The hot-path instruments ([`Counter`], [`Gauge`], [`AtomicHistogram`]) are
//! plain relaxed atomics reachable through `&'static` structs — no registry
//! lookup, no locking, no allocation on the update path. The WAL writer and
//! the durable KV store update [`wal()`] and [`kv()`]; anything else (e.g.
//! per-scenario transaction counters from the bench harness) can be
//! [`publish`]ed as dynamic gauges at exposition time.
//!
//! [`metrics_text()`] renders everything in the Prometheus text format;
//! [`parse_exposition`] is the matching minimal parser, used by tests and CI
//! to prove the exposition round-trips.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::histogram::{LatencyHistogram, LATENCY_BUCKETS};

/// A monotonically increasing counter.
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a zeroed counter.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// A last-write-wins gauge.
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a zeroed gauge.
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adds `n` (for gauges tracking a population across threads).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`, saturating at zero.
    #[inline]
    pub fn sub(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

/// A thread-safe log₂ histogram sharing [`LatencyHistogram`]'s bucketing.
/// Recording is a handful of relaxed atomic operations; [`snapshot`] folds
/// the live counters into an owned [`LatencyHistogram`] for querying.
///
/// [`snapshot`]: AtomicHistogram::snapshot
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl AtomicHistogram {
    /// Creates an empty histogram.
    pub const fn new() -> AtomicHistogram {
        AtomicHistogram {
            buckets: [const { AtomicU64::new(0) }; LATENCY_BUCKETS],
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one sample in nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        let bucket = if ns == 0 {
            0
        } else {
            63 - ns.leading_zeros() as usize
        };
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// An owned snapshot of the current contents. Concurrent recording may
    /// leave the fields off by in-flight samples relative to each other;
    /// `count` is recomputed from the bucket view so the snapshot's quantiles
    /// are always self-consistent.
    pub fn snapshot(&self) -> LatencyHistogram {
        let mut buckets = [0u64; LATENCY_BUCKETS];
        let mut count = 0u64;
        for (slot, out) in self.buckets.iter().zip(buckets.iter_mut()) {
            *out = slot.load(Ordering::Relaxed);
            count += *out;
        }
        LatencyHistogram::from_parts(
            buckets,
            count,
            self.total_ns.load(Ordering::Relaxed),
            self.max_ns.load(Ordering::Relaxed),
        )
    }
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram::new()
    }
}

/// Hot-path metrics of the two-stage WAL writer.
#[derive(Debug, Default)]
pub struct WalMetrics {
    /// Commit batches handed to the append stage.
    pub enqueued: Counter,
    /// Batches not yet acknowledged durable (enqueue minus watermark).
    pub queue_depth: Gauge,
    /// Physical write batches issued by the append stage.
    pub batches: Counter,
    /// Log records coalesced across all write batches.
    pub batch_records: Counter,
    /// Bytes written across all write batches.
    pub batch_bytes: Counter,
    /// Latency of each physical batch write.
    pub append_ns: AtomicHistogram,
    /// Fsyncs issued by the sync stage.
    pub fsyncs: Counter,
    /// Latency of each fsync.
    pub fsync_ns: AtomicHistogram,
    /// LSNs written but not yet durable (append watermark minus durable
    /// watermark).
    pub watermark_lag: Gauge,
    /// Transient write errors retried by the append stage.
    pub retries: Counter,
    /// Terminal WAL faults (the writer died).
    pub faults: Counter,
    /// Segment rotations.
    pub rotations: Counter,
}

/// Point-in-time copy of [`WalMetrics`], subtractable across a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WalSnapshot {
    /// See [`WalMetrics::enqueued`].
    pub enqueued: u64,
    /// See [`WalMetrics::batches`].
    pub batches: u64,
    /// See [`WalMetrics::batch_records`].
    pub batch_records: u64,
    /// See [`WalMetrics::batch_bytes`].
    pub batch_bytes: u64,
    /// See [`WalMetrics::fsyncs`].
    pub fsyncs: u64,
    /// See [`WalMetrics::retries`].
    pub retries: u64,
    /// See [`WalMetrics::faults`].
    pub faults: u64,
    /// See [`WalMetrics::rotations`].
    pub rotations: u64,
    /// See [`WalMetrics::append_ns`].
    pub append_ns: LatencyHistogram,
    /// See [`WalMetrics::fsync_ns`].
    pub fsync_ns: LatencyHistogram,
}

impl WalSnapshot {
    /// Mean records per physical write batch (0.0 before the first batch).
    pub fn mean_batch_records(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batch_records as f64 / self.batches as f64
        }
    }

    /// The activity since `earlier` (an older snapshot of the same process).
    pub fn delta_since(&self, earlier: &WalSnapshot) -> WalSnapshot {
        WalSnapshot {
            enqueued: self.enqueued.saturating_sub(earlier.enqueued),
            batches: self.batches.saturating_sub(earlier.batches),
            batch_records: self.batch_records.saturating_sub(earlier.batch_records),
            batch_bytes: self.batch_bytes.saturating_sub(earlier.batch_bytes),
            fsyncs: self.fsyncs.saturating_sub(earlier.fsyncs),
            retries: self.retries.saturating_sub(earlier.retries),
            faults: self.faults.saturating_sub(earlier.faults),
            rotations: self.rotations.saturating_sub(earlier.rotations),
            append_ns: self.append_ns.delta_since(&earlier.append_ns),
            fsync_ns: self.fsync_ns.delta_since(&earlier.fsync_ns),
        }
    }

    /// Folds another snapshot into this one (summing counters and merging
    /// histograms) — used when averaging bench repetitions.
    pub fn merge(&mut self, other: &WalSnapshot) {
        self.enqueued += other.enqueued;
        self.batches += other.batches;
        self.batch_records += other.batch_records;
        self.batch_bytes += other.batch_bytes;
        self.fsyncs += other.fsyncs;
        self.retries += other.retries;
        self.faults += other.faults;
        self.rotations += other.rotations;
        self.append_ns.merge(&other.append_ns);
        self.fsync_ns.merge(&other.fsync_ns);
    }
}

impl WalMetrics {
    /// Snapshots every counter and histogram.
    pub fn snapshot(&self) -> WalSnapshot {
        WalSnapshot {
            enqueued: self.enqueued.get(),
            batches: self.batches.get(),
            batch_records: self.batch_records.get(),
            batch_bytes: self.batch_bytes.get(),
            fsyncs: self.fsyncs.get(),
            retries: self.retries.get(),
            faults: self.faults.get(),
            rotations: self.rotations.get(),
            append_ns: self.append_ns.snapshot(),
            fsync_ns: self.fsync_ns.snapshot(),
        }
    }
}

/// Metrics of the durable KV store lifecycle.
#[derive(Debug, Default)]
pub struct KvMetrics {
    /// Current health (see [`crate::trace::health`]; 0 = no durable store
    /// booted yet).
    pub health: Gauge,
    /// Successful WAL re-arms after degradation.
    pub rearms: Counter,
}

/// Hot-path metrics of the network serving front-end.
#[derive(Debug, Default)]
pub struct NetMetrics {
    /// Request frames decoded across all serving threads.
    pub requests: Counter,
    /// Reply frames written back across all serving threads.
    pub replies: Counter,
    /// Request bytes read off all connections (frame headers included).
    pub bytes_in: Counter,
    /// Reply bytes written to all connections (frame headers included).
    pub bytes_out: Counter,
    /// Coalesced store batches executed (one per serving-thread drain that
    /// found at least one request).
    pub coalesced_batches: Counter,
    /// Requests folded into those coalesced batches; divided by
    /// `coalesced_batches` this is the server-side coalescing factor.
    pub coalesced_requests: Counter,
    /// Request frames rejected with a typed protocol error.
    pub protocol_errors: Counter,
    /// Currently connected clients.
    pub connections: Gauge,
    /// Bytes the serving threads hold for their connections: request bytes
    /// read but not yet decoded plus reply bytes not yet written.
    pub buffered_bytes: Gauge,
}

/// Point-in-time copy of the [`NetMetrics`] counters, subtractable across a
/// benchmark run (the `connections` and `buffered_bytes` gauges are
/// instantaneous and therefore not part of the snapshot).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetSnapshot {
    /// See [`NetMetrics::requests`].
    pub requests: u64,
    /// See [`NetMetrics::replies`].
    pub replies: u64,
    /// See [`NetMetrics::bytes_in`].
    pub bytes_in: u64,
    /// See [`NetMetrics::bytes_out`].
    pub bytes_out: u64,
    /// See [`NetMetrics::coalesced_batches`].
    pub coalesced_batches: u64,
    /// See [`NetMetrics::coalesced_requests`].
    pub coalesced_requests: u64,
    /// See [`NetMetrics::protocol_errors`].
    pub protocol_errors: u64,
}

impl NetSnapshot {
    /// Mean requests folded into one coalesced store batch — the server-side
    /// coalescing factor (0.0 before the first batch, never `NaN`).
    pub fn mean_coalesced_requests(&self) -> f64 {
        if self.coalesced_batches == 0 {
            0.0
        } else {
            self.coalesced_requests as f64 / self.coalesced_batches as f64
        }
    }

    /// The activity since `earlier` (an older snapshot of the same process).
    pub fn delta_since(&self, earlier: &NetSnapshot) -> NetSnapshot {
        NetSnapshot {
            requests: self.requests.saturating_sub(earlier.requests),
            replies: self.replies.saturating_sub(earlier.replies),
            bytes_in: self.bytes_in.saturating_sub(earlier.bytes_in),
            bytes_out: self.bytes_out.saturating_sub(earlier.bytes_out),
            coalesced_batches: self
                .coalesced_batches
                .saturating_sub(earlier.coalesced_batches),
            coalesced_requests: self
                .coalesced_requests
                .saturating_sub(earlier.coalesced_requests),
            protocol_errors: self.protocol_errors.saturating_sub(earlier.protocol_errors),
        }
    }

    /// Folds another snapshot into this one — used when averaging bench
    /// repetitions.
    pub fn merge(&mut self, other: &NetSnapshot) {
        self.requests += other.requests;
        self.replies += other.replies;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.coalesced_batches += other.coalesced_batches;
        self.coalesced_requests += other.coalesced_requests;
        self.protocol_errors += other.protocol_errors;
    }
}

impl NetMetrics {
    /// Snapshots every counter.
    pub fn snapshot(&self) -> NetSnapshot {
        NetSnapshot {
            requests: self.requests.get(),
            replies: self.replies.get(),
            bytes_in: self.bytes_in.get(),
            bytes_out: self.bytes_out.get(),
            coalesced_batches: self.coalesced_batches.get(),
            coalesced_requests: self.coalesced_requests.get(),
            protocol_errors: self.protocol_errors.get(),
        }
    }
}

static WAL: WalMetrics = WalMetrics {
    enqueued: Counter::new(),
    queue_depth: Gauge::new(),
    batches: Counter::new(),
    batch_records: Counter::new(),
    batch_bytes: Counter::new(),
    append_ns: AtomicHistogram::new(),
    fsyncs: Counter::new(),
    fsync_ns: AtomicHistogram::new(),
    watermark_lag: Gauge::new(),
    retries: Counter::new(),
    faults: Counter::new(),
    rotations: Counter::new(),
};

static KV: KvMetrics = KvMetrics {
    health: Gauge::new(),
    rearms: Counter::new(),
};

static NET: NetMetrics = NetMetrics {
    requests: Counter::new(),
    replies: Counter::new(),
    bytes_in: Counter::new(),
    bytes_out: Counter::new(),
    coalesced_batches: Counter::new(),
    coalesced_requests: Counter::new(),
    protocol_errors: Counter::new(),
    connections: Gauge::new(),
    buffered_bytes: Gauge::new(),
};

/// The process-wide WAL writer metrics.
pub fn wal() -> &'static WalMetrics {
    &WAL
}

/// The process-wide durable KV metrics.
pub fn kv() -> &'static KvMetrics {
    &KV
}

/// The process-wide network front-end metrics.
pub fn net() -> &'static NetMetrics {
    &NET
}

fn published() -> &'static Mutex<BTreeMap<String, f64>> {
    static PUBLISHED: OnceLock<Mutex<BTreeMap<String, f64>>> = OnceLock::new();
    PUBLISHED.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Publishes (or overwrites) a dynamic gauge sample rendered verbatim into
/// [`metrics_text`]. `labels` become the Prometheus label set. Not a hot
/// path: intended for end-of-run publication of snapshots (e.g. per-scenario
/// transaction counters).
pub fn publish(name: &str, labels: &[(&str, &str)], value: f64) {
    let mut key = String::from(name);
    if !labels.is_empty() {
        key.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                key.push(',');
            }
            let _ = write!(
                key,
                "{k}=\"{}\"",
                v.replace('\\', "\\\\").replace('"', "\\\"")
            );
        }
        key.push('}');
    }
    published()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(key, value);
}

/// Clears all [`publish`]ed dynamic samples (static hot-path metrics are
/// process-cumulative and are not reset).
pub fn clear_published() {
    published()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
}

fn render_histogram(out: &mut String, name: &str, hist: &LatencyHistogram) {
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    let mut last_nonzero = 0usize;
    for (i, &n) in hist.buckets().iter().enumerate() {
        if n > 0 {
            last_nonzero = i;
        }
    }
    for (i, &n) in hist.buckets().iter().enumerate().take(last_nonzero + 1) {
        cumulative += n;
        let upper = if i >= 63 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        };
        let _ = writeln!(out, "{name}_bucket{{le=\"{upper}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", hist.count());
    let _ = writeln!(out, "{name}_sum {}", hist.total_ns());
    let _ = writeln!(out, "{name}_count {}", hist.count());
}

/// Renders every metric — the static WAL and KV instruments plus all
/// [`publish`]ed samples — in the Prometheus text exposition format.
pub fn metrics_text() -> String {
    let mut out = String::new();
    let wal = wal();
    for (name, counter) in [
        ("txobs_wal_enqueued_total", &wal.enqueued),
        ("txobs_wal_batches_total", &wal.batches),
        ("txobs_wal_batch_records_total", &wal.batch_records),
        ("txobs_wal_batch_bytes_total", &wal.batch_bytes),
        ("txobs_wal_fsyncs_total", &wal.fsyncs),
        ("txobs_wal_retries_total", &wal.retries),
        ("txobs_wal_faults_total", &wal.faults),
        ("txobs_wal_rotations_total", &wal.rotations),
        ("txobs_kv_rearms_total", &kv().rearms),
        ("txobs_net_requests_total", &net().requests),
        ("txobs_net_replies_total", &net().replies),
        ("txobs_net_bytes_in_total", &net().bytes_in),
        ("txobs_net_bytes_out_total", &net().bytes_out),
        (
            "txobs_net_coalesced_batches_total",
            &net().coalesced_batches,
        ),
        (
            "txobs_net_coalesced_requests_total",
            &net().coalesced_requests,
        ),
        ("txobs_net_protocol_errors_total", &net().protocol_errors),
    ] {
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {}", counter.get());
    }
    for (name, gauge) in [
        ("txobs_wal_queue_depth", &wal.queue_depth),
        ("txobs_wal_watermark_lag", &wal.watermark_lag),
        ("txobs_kv_health", &kv().health),
        ("txobs_net_connections", &net().connections),
        ("txobs_net_buffered_bytes", &net().buffered_bytes),
    ] {
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", gauge.get());
    }
    render_histogram(&mut out, "txobs_wal_append_ns", &wal.append_ns.snapshot());
    render_histogram(&mut out, "txobs_wal_fsync_ns", &wal.fsync_ns.snapshot());
    let dynamic = published().lock().unwrap_or_else(|e| e.into_inner());
    if !dynamic.is_empty() {
        let _ = writeln!(out, "# published snapshots");
        for (key, value) in dynamic.iter() {
            let _ = writeln!(out, "{key} {value}");
        }
    }
    out
}

/// One parsed exposition sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (before any `{`).
    pub name: String,
    /// Label pairs, in source order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// Parses the Prometheus text exposition format produced by
/// [`metrics_text`]. Comments (`#`) and blank lines are skipped; every other
/// line must be `name[{labels}] value`. Returns the samples or the first
/// offending line.
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {raw:?}", lineno + 1);
        let (series, value_str) = line
            .rsplit_once(|c: char| c.is_ascii_whitespace())
            .ok_or_else(|| err("expected `name value`"))?;
        let value: f64 = value_str
            .parse()
            .map_err(|_| err("unparseable sample value"))?;
        let (name, labels) = match series.split_once('{') {
            None => (series.trim().to_owned(), Vec::new()),
            Some((name, rest)) => {
                let inner = rest
                    .strip_suffix('}')
                    .ok_or_else(|| err("unterminated label set"))?;
                let mut labels = Vec::new();
                for pair in inner.split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| err("label without `=`"))?;
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| err("unquoted label value"))?;
                    labels.push((
                        k.trim().to_owned(),
                        v.replace("\\\"", "\"").replace("\\\\", "\\"),
                    ));
                }
                (name.trim().to_owned(), labels)
            }
        };
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(err("invalid metric name"));
        }
        samples.push(Sample {
            name,
            labels,
            value,
        });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_histograms_update() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(42);
        g.set(17);
        assert_eq!(g.get(), 17);
        let h = AtomicHistogram::new();
        h.record_ns(0);
        h.record_ns(1000);
        h.record_ns(1_000_000);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 3);
        assert!(snap.quantile_ns(1.0) >= 512 * 1024);
    }

    #[test]
    fn atomic_histogram_snapshot_buckets_match_direct_recording() {
        let h = AtomicHistogram::new();
        let mut direct = LatencyHistogram::new();
        for ns in [1u64, 2, 3, 700, 700, 65_000] {
            h.record_ns(ns);
            direct.record_ns(ns);
        }
        // Bucket occupancy (the quantile resolution) is identical even
        // though within-bucket totals may differ.
        let snap = h.snapshot();
        for (a, b) in snap.buckets().iter().zip(direct.buckets().iter()) {
            assert_eq!(a, b);
        }
        assert_eq!(snap.quantile_ns(0.5), direct.quantile_ns(0.5));
    }

    #[test]
    fn wal_snapshot_delta_and_merge() {
        let a = WalSnapshot {
            enqueued: 10,
            batches: 4,
            batch_records: 10,
            batch_bytes: 4096,
            fsyncs: 4,
            ..WalSnapshot::default()
        };
        let mut later = a.clone();
        later.enqueued = 25;
        later.batches = 9;
        later.batch_records = 25;
        let d = later.delta_since(&a);
        assert_eq!(d.enqueued, 15);
        assert_eq!(d.batches, 5);
        assert!((d.mean_batch_records() - 3.0).abs() < 1e-9);
        let mut merged = d.clone();
        merged.merge(&d);
        assert_eq!(merged.enqueued, 30);
        assert!((merged.mean_batch_records() - 3.0).abs() < 1e-9);
        assert_eq!(WalSnapshot::default().mean_batch_records(), 0.0);
    }

    #[test]
    fn net_snapshot_delta_merge_and_zero_guard() {
        let a = NetSnapshot {
            requests: 10,
            replies: 10,
            bytes_in: 500,
            bytes_out: 400,
            coalesced_batches: 2,
            coalesced_requests: 10,
            protocol_errors: 1,
        };
        let mut later = a.clone();
        later.requests = 40;
        later.coalesced_batches = 5;
        later.coalesced_requests = 40;
        let d = later.delta_since(&a);
        assert_eq!(d.requests, 30);
        assert_eq!(d.coalesced_batches, 3);
        assert!((d.mean_coalesced_requests() - 10.0).abs() < 1e-9);
        let mut merged = d.clone();
        merged.merge(&d);
        assert_eq!(merged.requests, 60);
        // A window with no coalesced batches reports 0.0, never NaN.
        assert_eq!(NetSnapshot::default().mean_coalesced_requests(), 0.0);
    }

    #[test]
    fn exposition_round_trips_through_the_parser() {
        wal().fsync_ns.record_ns(123_456);
        kv().health.set(crate::trace::health::HEALTHY);
        publish(
            "tmbench_tx_commits",
            &[("scenario", "kv-a-c8"), ("runtime", "swisstm")],
            991.0,
        );
        let text = metrics_text();
        let samples = parse_exposition(&text).expect("own exposition must parse");
        let find = |name: &str| samples.iter().find(|s| s.name == name);
        assert!(find("txobs_wal_fsyncs_total").is_some());
        let health = find("txobs_kv_health").expect("health gauge present");
        assert_eq!(health.value, crate::trace::health::HEALTHY as f64);
        // The fsync histogram exposes buckets, sum and count.
        assert!(samples
            .iter()
            .any(|s| s.name == "txobs_wal_fsync_ns_bucket"
                && s.labels.iter().any(|(k, _)| k == "le")));
        assert!(find("txobs_wal_fsync_ns_sum").is_some());
        assert!(find("txobs_wal_fsync_ns_count").is_some());
        let dynamic = find("tmbench_tx_commits").expect("published sample present");
        assert_eq!(dynamic.value, 991.0);
        assert!(dynamic
            .labels
            .iter()
            .any(|(k, v)| k == "scenario" && v == "kv-a-c8"));
        clear_published();
        assert!(parse_exposition(&metrics_text())
            .unwrap()
            .iter()
            .all(|s| s.name != "tmbench_tx_commits"));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_exposition("just_a_name").is_err());
        assert!(parse_exposition("name not_a_number").is_err());
        assert!(parse_exposition("name{le=\"1\" 3").is_err());
        assert!(parse_exposition("name{le=1} 3").is_err());
        assert!(parse_exposition("bad-name 3").is_err());
        assert!(parse_exposition("# a comment\n\nok_name 3").is_ok());
    }
}
