//! The traced run: spans recorded in memory by the benchmark's own code,
//! around its calls into each layer, and written out as Chrome trace-event
//! JSON (loadable in Perfetto) when the run ends.
//!
//! * Request spans come from the load generator ([`crate::openloop`]).
//! * Exec spans come from [`Traced`], a [`TxRuntime`] that delegates to a
//!   real runtime and is passed as `R` to the store and the server.
//! * Storage spans come from [`TracedFs`], a [`WalFs`] around [`RealFs`]
//!   passed through `DurableKvConfig::fs`.
//!
//! Nothing is recorded while [`set_enabled`] is off, so the spans cover the
//! measured window only.

use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use txlog::{RealFs, WalFile, WalFs};
use txmem::{
    run_boxed_tasks, Abort, BoxedTaskBody, TaskBody, TxConfig, TxMem, TxRuntime, TxSession,
    TxSubstrate,
};

use crate::stats::{ratio, Outcome, Samples};

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One request, from its due time to its reply; `a` = request-id,
    /// `b` = connection.
    Request,
    /// One `run`/`run_tasks` call; `a` = body invocations, `b` = bodies.
    Exec,
    /// One `WalFile::write_all`; `a` = bytes.
    Write,
    /// One `sync_data`/`sync_all`.
    Sync,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Request => "request",
            Kind::Exec => "exec",
            Kind::Write => "wal-write",
            Kind::Sync => "fsync",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub tid: u32,
    pub start: u64,
    pub end: u64,
    pub a: u64,
    pub b: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds of `t` since the trace epoch.
pub fn ns(t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX)
}

pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

pub fn record(kind: Kind, start: Instant, end: Instant, a: u64, b: u64) {
    if !enabled() {
        return;
    }
    let span = Span {
        kind,
        tid: TID.with(|t| *t),
        start: ns(start),
        end: ns(end),
        a,
        b,
    };
    SPANS.lock().expect("span buffer poisoned").push(span);
}

/// Takes every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"))
}

// --- the runtime wrapper ----------------------------------------------------

/// A [`TxRuntime`] that records one exec span per transaction and counts
/// body invocations, delegating everything to `R`.
pub struct Traced<R: TxRuntime> {
    inner: Arc<R>,
}

impl<R: TxRuntime> fmt::Debug for Traced<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Traced")
            .field("inner", &self.inner)
            .finish()
    }
}

impl<R: TxRuntime> TxRuntime for Traced<R> {
    type Session = TracedSession<R::Session>;
    const LABEL: &'static str = R::LABEL;
    const SPECULATIVE: bool = R::SPECULATIVE;

    fn new(config: TxConfig) -> Arc<Self> {
        Arc::new(Traced {
            inner: R::new(config),
        })
    }

    fn with_substrate(substrate: Arc<TxSubstrate>) -> Arc<Self> {
        Arc::new(Traced {
            inner: R::with_substrate(substrate),
        })
    }

    fn substrate(&self) -> &Arc<TxSubstrate> {
        self.inner.substrate()
    }

    fn session(self: &Arc<Self>) -> Self::Session {
        TracedSession(self.inner.session())
    }
}

#[derive(Debug)]
pub struct TracedSession<S>(S);

impl<S: TxSession> TxSession for TracedSession<S> {
    type Mem<'t> = S::Mem<'t>;

    fn run<T, F>(&mut self, body: F) -> T
    where
        T: Send,
        F: for<'t> Fn(&mut Self::Mem<'t>) -> Result<T, Abort> + Send + Sync,
    {
        let calls = AtomicU64::new(0);
        let start = Instant::now();
        let out = self.0.run(|mem| {
            calls.fetch_add(1, Ordering::Relaxed);
            body(mem)
        });
        record(Kind::Exec, start, Instant::now(), calls.into_inner(), 1);
        out
    }

    fn run_tasks(&mut self, tasks: &mut [TaskBody<'_>]) {
        let calls = AtomicU64::new(0);
        let counter = &calls;
        let mut wrapped: Vec<BoxedTaskBody<'_>> = tasks
            .iter_mut()
            .map(|body| {
                Box::new(move |mem: &mut dyn TxMem| {
                    counter.fetch_add(1, Ordering::Relaxed);
                    body(mem)
                }) as BoxedTaskBody<'_>
            })
            .collect();
        let start = Instant::now();
        run_boxed_tasks(&mut self.0, &mut wrapped);
        let end = Instant::now();
        drop(wrapped);
        record(
            Kind::Exec,
            start,
            end,
            calls.into_inner(),
            tasks.len() as u64,
        );
    }
}

// --- the storage wrapper ----------------------------------------------------

/// A [`WalFs`] over [`RealFs`] whose files record write and sync spans.
#[derive(Debug, Default)]
pub struct TracedFs(RealFs);

impl TracedFs {
    pub fn shared() -> Arc<dyn WalFs> {
        Arc::new(TracedFs(RealFs))
    }
}

#[derive(Debug)]
struct TracedFile(Box<dyn WalFile>);

impl WalFile for TracedFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        let out = self.0.write_all(buf);
        record(Kind::Write, start, Instant::now(), buf.len() as u64, 0);
        out
    }
    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        self.0.seek_to(pos)
    }
    fn sync_data(&self) -> io::Result<()> {
        let start = Instant::now();
        let out = self.0.sync_data();
        record(Kind::Sync, start, Instant::now(), 0, 0);
        out
    }
    fn sync_all(&self) -> io::Result<()> {
        let start = Instant::now();
        let out = self.0.sync_all();
        record(Kind::Sync, start, Instant::now(), 0, 1);
        out
    }
    fn set_len(&self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
    fn try_clone(&self) -> io::Result<Box<dyn WalFile>> {
        Ok(Box::new(TracedFile(self.0.try_clone()?)))
    }
}

impl WalFs for TracedFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.0.create_dir_all(dir)
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
        Ok(Box::new(TracedFile(self.0.create(path)?)))
    }
    fn open_write(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
        Ok(Box::new(TracedFile(self.0.open_write(path)?)))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.0.read(path)
    }
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<(String, PathBuf)>> {
        self.0.list_dir(dir)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.0.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.0.remove_file(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.0.sync_dir(dir)
    }
}

// --- span analysis ----------------------------------------------------------

/// Span-derived numbers of one traced window.
#[derive(Debug, Default)]
pub struct SpanSummary {
    pub exec: Samples,
    pub exec_busy_ns: u64,
    pub exec_calls: u64,
    pub exec_bodies: u64,
    pub between_exec: Samples,
    pub fsync: Samples,
    pub fsync_busy_ns: u64,
    pub write_calls: u64,
    pub write_bytes: u64,
    /// Request time not covered by any overlapping exec or storage span.
    pub request_self: Samples,
}

/// Summarises `spans`. A request carries no id below the load generator,
/// so its children are the exec and storage spans that overlap it in time.
pub fn summarise(spans: &[Span]) -> SpanSummary {
    let mut out = SpanSummary::default();
    let mut children: Vec<(u64, u64)> = Vec::new();
    let mut exec: Vec<&Span> = Vec::new();
    for span in spans {
        match span.kind {
            Kind::Exec => {
                out.exec.push_ns(span.dur());
                out.exec_busy_ns += span.dur();
                out.exec_calls += span.a;
                out.exec_bodies += span.b;
                exec.push(span);
                children.push((span.start, span.end));
            }
            Kind::Sync => {
                out.fsync.push_ns(span.dur());
                out.fsync_busy_ns += span.dur();
                children.push((span.start, span.end));
            }
            Kind::Write => {
                out.write_calls += 1;
                out.write_bytes += span.a;
                children.push((span.start, span.end));
            }
            Kind::Request => {}
        }
    }
    // Gaps between consecutive exec spans of the same thread.
    exec.sort_by_key(|s| (s.tid, s.start));
    for pair in exec.windows(2) {
        if pair[0].tid == pair[1].tid {
            out.between_exec
                .push_ns(pair[1].start.saturating_sub(pair[0].end));
        }
    }
    // Union of the child intervals, with prefix sums of covered time.
    children.sort_unstable();
    let mut union: Vec<(u64, u64)> = Vec::new();
    for (start, end) in children {
        match union.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => union.push((start, end)),
        }
    }
    let mut before = Vec::with_capacity(union.len());
    let mut acc = 0u64;
    for &(start, end) in &union {
        before.push(acc);
        acc += end - start;
    }
    let covered_until = |t: u64| -> u64 {
        let idx = union.partition_point(|&(start, _)| start <= t);
        if idx == 0 {
            return 0;
        }
        let (start, end) = union[idx - 1];
        before[idx - 1] + t.min(end) - start
    };
    for span in spans.iter().filter(|s| s.kind == Kind::Request) {
        let covered = covered_until(span.end) - covered_until(span.start);
        out.request_self.push_ns(span.dur().saturating_sub(covered));
    }
    out
}

/// Per-layer counters of one window that do not come from spans.
#[derive(Debug, Default)]
pub struct Counters {
    pub window_s: f64,
    pub net: txobs::metrics::NetSnapshot,
    pub wal: txobs::metrics::WalSnapshot,
    pub stm: txmem::StatsSnapshot,
    pub ops: u64,
    pub user_bytes_written: u64,
}

/// Reports every per-layer metric into `out`. Layers a workload does not go
/// through report 0.
pub fn per_layer(
    out: &mut Outcome,
    runtime: &str,
    sum: &mut SpanSummary,
    c: &Counters,
    lag: &mut Samples,
    send: &mut Samples,
    overhead_frac: f64,
) {
    let net = &c.net;
    let kv = net.requests > 0;
    let on_kv = |v: f64| if kv { v } else { 0.0 };
    out.metric(
        "client.lag_p99_us",
        lag.quantile_us(0.99),
        "us",
        lag.len() as u64,
    );
    out.metric(
        "client.send_us_p50",
        send.quantile_us(0.5),
        "us",
        send.len() as u64,
    );
    let rounds = net.coalesced_batches;
    let per_round = ratio(net.coalesced_requests as f64, rounds as f64);
    out.metric("txnet.requests_per_round", per_round, "count", rounds);
    out.metric(
        "txnet.rounds_per_s",
        ratio(rounds as f64, c.window_s),
        "1/s",
        rounds,
    );
    let wire = ratio((net.bytes_in + net.bytes_out) as f64, net.requests as f64);
    out.metric("txnet.bytes_per_request", wire, "B", net.requests);
    let n_req = sum.request_self.len() as u64;
    out.metric(
        "txnet.self_us_p50",
        sum.request_self.quantile_us(0.5),
        "us",
        n_req,
    );
    let between = on_kv(sum.between_exec.quantile_us(0.5));
    out.metric(
        "txnet.between_exec_us_p50",
        between,
        "us",
        sum.between_exec.len() as u64,
    );
    let commits = c.stm.tx_commits;
    let ops_per_commit = on_kv(ratio(c.ops as f64, commits as f64));
    out.metric("txkv.ops_per_commit", ops_per_commit, "count", commits);
    let amplification = ratio(sum.write_bytes as f64, c.user_bytes_written as f64);
    out.metric(
        "txkv.log_bytes_per_user_byte",
        amplification,
        "B/B",
        sum.write_calls,
    );

    let n_exec = sum.exec.len() as u64;
    let runtime_metrics = [
        ("exec_us_p50", sum.exec.quantile_us(0.5), "us"),
        ("exec_us_p99", sum.exec.quantile_us(0.99), "us"),
        (
            "attempts_per_commit",
            ratio(sum.exec_calls as f64, sum.exec_bodies as f64),
            "count",
        ),
        (
            "busy_frac",
            ratio(sum.exec_busy_ns as f64 / 1e9, c.window_s),
            "frac",
        ),
        (
            "validations_per_commit",
            ratio(c.stm.validations as f64, commits as f64),
            "count",
        ),
    ];
    for rt in ["swisstm", "tlstm"] {
        let on = rt == runtime;
        for (name, value, unit) in runtime_metrics {
            let (value, n) = if on { (value, n_exec) } else { (0.0, 0) };
            out.metric(&format!("{rt}.{name}"), value, unit, n);
        }
    }
    let (task_aborts, reader_waits) = if runtime == "tlstm" {
        (
            ratio(c.stm.task_aborts as f64, c.stm.task_commits as f64),
            ratio(c.stm.reader_waits as f64, commits as f64),
        )
    } else {
        (0.0, 0.0)
    };
    out.metric(
        "tlstm.task_aborts_per_task",
        task_aborts,
        "count",
        c.stm.task_commits,
    );
    out.metric("tlstm.reader_waits_per_txn", reader_waits, "count", commits);
    out.metric(
        "txcollections.reads_per_op",
        ratio(c.stm.reads as f64, c.ops as f64),
        "count",
        c.ops,
    );

    let n_sync = sum.fsync.len() as u64;
    let wal = &c.wal;
    out.metric(
        "txlog.fsync_us_p50",
        sum.fsync.quantile_us(0.5),
        "us",
        n_sync,
    );
    out.metric(
        "txlog.fsync_us_p99",
        sum.fsync.quantile_us(0.99),
        "us",
        n_sync,
    );
    let fsync_busy = ratio(sum.fsync_busy_ns as f64 / 1e9, c.window_s);
    out.metric("txlog.fsync_busy_frac", fsync_busy, "frac", n_sync);
    let per_fsync = ratio(wal.batch_records as f64, wal.fsyncs as f64);
    out.metric("txlog.records_per_fsync", per_fsync, "count", wal.fsyncs);
    out.metric(
        "txlog.fsyncs_per_s",
        ratio(n_sync as f64, c.window_s),
        "1/s",
        n_sync,
    );
    let per_record = ratio(wal.batch_bytes as f64, wal.batch_records as f64);
    out.metric("txlog.bytes_per_record", per_record, "B", wal.batch_records);
    let writes = ratio(sum.write_calls as f64, n_sync as f64);
    out.metric(
        "txlog.write_calls_per_fsync",
        writes,
        "count",
        sum.write_calls,
    );
    out.metric(
        "txobs.trace_overhead_frac",
        overhead_frac,
        "frac",
        n_req.max(n_exec),
    );
}

/// Writes `spans` as Chrome trace-event JSON. Requests overlap on the
/// generator thread, so they become async events keyed by request-id;
/// exec and storage spans are complete events on their own threads.
pub fn write_chrome(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    let us = |ns: u64| ns as f64 / 1000.0;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        match s.kind {
            Kind::Request => {
                let id = (s.b << 40) | s.a;
                writeln!(
                    out,
                    "{{\"name\":\"request\",\"cat\":\"client\",\"ph\":\"b\",\"id\":{id},\"pid\":1,\"tid\":{},\"ts\":{:.3},\"args\":{{\"conn\":{},\"req_id\":{}}}}},",
                    s.tid,
                    us(s.start),
                    s.b,
                    s.a
                )?;
                writeln!(
                    out,
                    "{{\"name\":\"request\",\"cat\":\"client\",\"ph\":\"e\",\"id\":{id},\"pid\":1,\"tid\":{},\"ts\":{:.3}}}{sep}",
                    s.tid,
                    us(s.end)
                )?;
            }
            kind => {
                writeln!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"a\":{},\"b\":{}}}}}{sep}",
                    kind.label(),
                    s.tid,
                    us(s.start),
                    us(s.dur()),
                    s.a,
                    s.b
                )?;
            }
        }
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, tid: u32, start: u64, end: u64) -> Span {
        Span {
            kind,
            tid,
            start,
            end,
            a: 1,
            b: 1,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = vec![
            span(Kind::Request, 9, 0, 10_000),
            span(Kind::Exec, 1, 1_000, 3_000),
            span(Kind::Sync, 2, 2_000, 6_000),
            span(Kind::Exec, 1, 8_000, 12_000),
        ];
        let mut sum = summarise(&spans);
        // Covered: [1000, 6000) and [8000, 10000) = 7000 ns of 10000.
        assert_eq!(sum.request_self.quantile_us(0.5), 3.0);
        assert_eq!(sum.between_exec.quantile_us(0.5), 5.0);
    }
}
