//! The durable key-value workloads: `DurableKvStore<SwisstmRuntime>` served
//! by `NetServer::serve_durable` on one serving thread, driven open-loop by
//! one generator thread over two pipelined connections.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use swisstm::SwisstmRuntime;
use txkv::{DurableKvConfig, DurableKvStore, KvServerConfig, KvStoreParams};
use txlog::{FsyncPolicy, RealFs, WalFs};
use txmem::TxRuntime;
use txnet::{NetServer, NetServerConfig};

use crate::gen::{value_for, KvGen, KvMix};
use crate::openloop::{run_phase, Conn, Load, PhaseOut};
use crate::stats::{median, Outcome};
use crate::trace::{self, Traced, TracedFs};

/// One key-value workload: its request mix, the fixed open-loop rate its
/// latencies are measured at, and when the WAL fsyncs.
#[derive(Debug, Clone, Copy)]
pub struct KvSpec {
    pub name: &'static str,
    pub mix: KvMix,
    pub nominal_rps: f64,
    pub fsync: FsyncPolicy,
}

const CONNECTIONS: usize = 2;
const SETUP_REPS: usize = 3;
/// Requests each connection keeps in flight when measuring capacity: two
/// connections fill the server's 64-request coalescing window.
const CAPACITY_WINDOW: usize = 32;
const CAPACITY_PHASE_S: f64 = 0.5;

fn config(records: u64, fsync: FsyncPolicy, fs: Arc<dyn WalFs>) -> DurableKvConfig {
    DurableKvConfig {
        server: KvServerConfig {
            store: KvStoreParams {
                shards: 16,
                expected_keys: records,
            },
            ..KvServerConfig::default()
        },
        fsync,
        fs,
        ..DurableKvConfig::default()
    }
}

/// A booted store, its server and the generator's connections.
struct Rig<R: TxRuntime> {
    store: Arc<DurableKvStore<R>>,
    server: NetServer,
    conns: Vec<Conn>,
    dir: PathBuf,
}

fn boot<R: TxRuntime>(spec: &KvSpec, dir: &Path, fs: Arc<dyn WalFs>) -> io::Result<Rig<R>> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    let records = spec.mix.records;
    let store = DurableKvStore::<R>::boot(dir, &config(records, spec.fsync, fs))?;
    store.populate((0..records).map(|key| (key, value_for(key, 0))));
    // The population is not logged: a snapshot makes it the durable base.
    store.snapshot()?;
    let store = Arc::new(store);
    let server = NetServer::serve_durable(
        Arc::clone(&store),
        "127.0.0.1:0",
        &NetServerConfig {
            threads: 1,
            ..NetServerConfig::default()
        },
    )?;
    let conns = (0..CONNECTIONS)
        .map(|_| Conn::connect(server.addr()))
        .collect::<io::Result<Vec<_>>>()?;
    Ok(Rig {
        store,
        server,
        conns,
        dir: dir.to_path_buf(),
    })
}

/// Stops the server, then checks that a reboot from the same directory
/// recovers exactly the state that was served.
fn shutdown_and_verify<R: TxRuntime>(
    rig: Rig<R>,
    spec: &KvSpec,
    out: &mut Outcome,
) -> io::Result<()> {
    let Rig {
        store,
        server,
        conns,
        dir,
    } = rig;
    let records = spec.mix.records;
    drop(conns);
    server.shutdown();
    let store = Arc::try_unwrap(store)
        .map_err(|_| io::Error::other("store still shared after shutdown"))?;
    let kv = store.store();
    let before = kv
        .dump(&mut store.server().direct())
        .map_err(|_| io::Error::other("dump aborted"))?;
    drop(store);
    let rebooted = DurableKvStore::<SwisstmRuntime>::boot(
        &dir,
        &config(records, spec.fsync, RealFs::shared()),
    )?;
    let kv = rebooted.store();
    let mut mem = rebooted.server().direct();
    let after = kv
        .dump(&mut mem)
        .map_err(|_| io::Error::other("dump aborted"))?;
    out.check(before.len() as u64 == records, || {
        format!("the store holds {} records, not {records}", before.len())
    });
    out.check(before == after, || {
        "the rebooted store's dump differs from the served state".into()
    });
    let consistent = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        kv.check_consistency(&mut mem)
    }));
    out.check(matches!(consistent, Ok(Ok(n)) if n == records), || {
        "check_consistency failed on the rebooted store".into()
    });
    drop(rebooted);
    std::fs::remove_dir_all(&dir)
}

/// Checks the phase's replies and folds its counts into `out`.
fn account(out: &mut Outcome, phase: &PhaseOut, what: &str) {
    out.attempted += phase.attempted;
    out.failed += phase.failed();
    out.check(phase.failed() == 0, || {
        format!(
            "{what}: {} error replies, {} wrong replies, {} unanswered{}",
            phase.errors,
            phase.wrong,
            phase.unanswered,
            phase
                .transport
                .as_deref()
                .map(|t| format!(" ({t})"))
                .unwrap_or_default()
        )
    });
}

/// Runs one measured window at the nominal rate, checking that the server
/// counted exactly the requests the generator sent in it.
fn window<R: TxRuntime>(
    rig: &mut Rig<R>,
    spec: &KvSpec,
    gen: &mut KvGen,
    seconds: f64,
    out: &mut Outcome,
    counters: Option<&mut trace::Counters>,
) -> PhaseOut {
    let net0 = txobs::metrics::net().snapshot();
    let wal0 = txobs::metrics::wal().snapshot();
    let stm0 = rig.store.server().stats();
    let t0 = Instant::now();
    let phase = run_phase(
        &mut rig.conns,
        &mut || gen.next_request(),
        spec.mix.records,
        Load::Open {
            rate: spec.nominal_rps,
        },
        Duration::from_secs_f64(seconds),
        Duration::from_secs(2),
    );
    let window_s = t0.elapsed().as_secs_f64();
    let net = txobs::metrics::net().snapshot().delta_since(&net0);
    account(out, &phase, "nominal window");
    out.check(
        net.requests.abs_diff(phase.attempted) <= phase.unanswered,
        || {
            format!(
                "the server decoded {} requests in the window, the generator sent {}",
                net.requests, phase.attempted
            )
        },
    );
    if let Some(c) = counters {
        *c = trace::Counters {
            window_s,
            net,
            wal: txobs::metrics::wal().snapshot().delta_since(&wal0),
            stm: rig.store.server().stats().delta_since(&stm0),
            ops: phase.ops,
            // A put carries an 8-byte key and a 64-byte value.
            user_bytes_written: phase.puts * 72,
        };
    }
    phase
}

/// Closed-loop capacity: every connection keeps `CAPACITY_WINDOW`
/// requests in flight, so the server always has a full coalescing window
/// and the backlog cannot grow. Returns the replies per second over the
/// summed phase time, and how many replies that rests on.
fn capacity<R: TxRuntime>(
    rig: &mut Rig<R>,
    spec: &KvSpec,
    gen: &mut KvGen,
    budget: f64,
    out: &mut Outcome,
) -> (f64, u64) {
    let phases = ((budget / CAPACITY_PHASE_S) as usize).max(3);
    let mut rates = Vec::with_capacity(phases);
    let mut replies = 0;
    let mut busy = 0.0;
    for _ in 0..phases {
        let phase = run_phase(
            &mut rig.conns,
            &mut || gen.next_request(),
            spec.mix.records,
            Load::Closed {
                window: CAPACITY_WINDOW,
            },
            Duration::from_secs_f64(CAPACITY_PHASE_S),
            Duration::from_secs(2),
        );
        account(out, &phase, "capacity phase");
        rates.push(phase.completed_rps());
        replies += phase.answered;
        busy += phase.elapsed.as_secs_f64();
    }
    rates.sort_by(f64::total_cmp);
    out.notes.push(format!(
        "capacity phase rates min {:.0} median {:.0} max {:.0} 1/s over {phases} phases",
        rates[0],
        median(&rates),
        rates[phases - 1]
    ));
    (replies as f64 / busy, replies)
}

/// Lets caches fill and lazy set-up finish before anything is measured.
fn warm_up<R: TxRuntime>(
    rig: &mut Rig<R>,
    spec: &KvSpec,
    gen: &mut KvGen,
    seconds: f64,
    out: &mut Outcome,
) {
    let warm = run_phase(
        &mut rig.conns,
        &mut || gen.next_request(),
        spec.mix.records,
        Load::Open {
            rate: spec.nominal_rps,
        },
        Duration::from_secs_f64(seconds),
        Duration::from_secs(2),
    );
    account(out, &warm, "warm-up");
}

fn latencies(out: &mut Outcome, phase: &PhaseOut) {
    for (prefix, mut samples) in [
        ("", phase.all()),
        ("read_", phase.latency[0].clone()),
        ("write_", phase.latency[1].clone()),
    ] {
        out.latency(prefix, samples.quantile_us(0.5), &mut samples);
    }
}

/// The untraced run: every end-to-end metric.
pub fn run(spec: &KvSpec, seed: u64, seconds: f64, work: &Path) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let dir = work.join(spec.name);
    let mut setups = Vec::new();
    let mut rig = None;
    for _ in 0..SETUP_REPS {
        drop(rig.take());
        let t0 = Instant::now();
        let booted = boot::<SwisstmRuntime>(spec, &dir, RealFs::shared())?;
        setups.push(t0.elapsed().as_secs_f64());
        rig = Some(booted);
    }
    let mut rig = rig.expect("at least one setup");
    out.metric("setup_s", median(&setups), "s", setups.len() as u64);

    let mut gen = KvGen::new(spec.mix, seed);
    warm_up(
        &mut rig,
        spec,
        &mut gen,
        (0.05 * seconds).max(0.5),
        &mut out,
    );
    let nominal = window(&mut rig, spec, &mut gen, 0.6 * seconds, &mut out, None);
    latencies(&mut out, &nominal);
    let (sustained, n) = capacity(&mut rig, spec, &mut gen, 0.3 * seconds, &mut out);
    out.metric("sustained_rps", sustained, "1/s", n);
    shutdown_and_verify(rig, spec, &mut out)?;
    out.report_peak_rss();
    Ok(out)
}

/// The traced run: an untraced window for the overhead baseline, then the
/// same window on the traced runtime and file system, giving every
/// per-layer metric and a Chrome trace.
pub fn run_traced(
    spec: &KvSpec,
    seed: u64,
    seconds: f64,
    work: &Path,
    trace_path: &Path,
) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let dir = work.join(spec.name);
    let warm_s = (0.05 * seconds).max(0.5);
    let window_s = 0.4 * seconds;

    let mut plain = boot::<SwisstmRuntime>(spec, &dir, RealFs::shared())?;
    let mut gen = KvGen::new(spec.mix, seed);
    warm_up(&mut plain, spec, &mut gen, warm_s, &mut out);
    let untraced = window(&mut plain, spec, &mut gen, window_s, &mut out, None);
    shutdown_and_verify(plain, spec, &mut out)?;

    let mut rig = boot::<Traced<SwisstmRuntime>>(spec, &dir, TracedFs::shared())?;
    let mut gen = KvGen::new(spec.mix, seed);
    warm_up(&mut rig, spec, &mut gen, warm_s, &mut out);
    let mut counters = trace::Counters::default();
    trace::set_enabled(true);
    let mut traced = window(
        &mut rig,
        spec,
        &mut gen,
        window_s,
        &mut out,
        Some(&mut counters),
    );
    trace::set_enabled(false);
    let spans = trace::take();
    shutdown_and_verify(rig, spec, &mut out)?;

    let (p50_plain, p50_traced) = (
        untraced.all().quantile_us(0.5),
        traced.all().quantile_us(0.5),
    );
    let mut sum = trace::summarise(&spans);
    let overhead = p50_traced / p50_plain - 1.0;
    trace::per_layer(
        &mut out,
        SwisstmRuntime::LABEL,
        &mut sum,
        &counters,
        &mut traced.lag,
        &mut traced.send,
        overhead,
    );
    out.check_timing(&mut traced.all());
    trace::write_chrome(trace_path, &spans)?;
    Ok(out)
}
