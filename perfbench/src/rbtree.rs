//! The rb-tree long-transaction workloads: one user thread runs a fixed
//! seeded stream of 16-op transactions over a `txcollections::TxRbTree`, in
//! process, with no server and no log. On TLSTM each transaction is split
//! into two speculative tasks; SwissTM runs each as one transaction.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use swisstm::SwisstmRuntime;
use tlstm::TlstmRuntime;
use txcollections::TxRbTree;
use txmem::{
    run_boxed_tasks, Abort, BoxedTaskBody, SeqRefRuntime, StatsSnapshot, TxConfig, TxMem,
    TxRuntime, TxSession,
};

use crate::gen::{self, tree_stream, Class, TreeMix, TreeOp, TreeTxn};
use crate::stats::{median, Outcome, Samples};
use crate::trace::{self, Traced};

/// Which runtime a tree workload measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rt {
    Tlstm,
    Swisstm,
}

#[derive(Debug, Clone, Copy)]
pub struct TreeSpec {
    pub mix: TreeMix,
    pub runtime: Rt,
}

const SETUP_REPS: usize = 5;
/// Most spans a trace file keeps (every span still feeds the metrics).
const TRACE_FILE_SPANS: usize = 200_000;

fn tx_config(mix: &TreeMix) -> TxConfig {
    TxConfig {
        spec_depth: mix.tasks,
        ..TxConfig::default()
    }
}

fn apply<M: TxMem + ?Sized>(mem: &mut M, tree: TxRbTree, ops: &[TreeOp]) -> Result<u64, Abort> {
    let mut h = 0u64;
    for op in ops {
        let r = match *op {
            TreeOp::Lookup(key) => tree.get(mem, key)?.unwrap_or(u64::MAX),
            TreeOp::Remove(key) => u64::from(tree.remove(mem, key)?),
            TreeOp::Insert(key, value) => u64::from(tree.insert(mem, key, value)?),
        };
        h = gen::mix(h, r);
    }
    Ok(h)
}

/// Runs one transaction; returns the hash of every op's result. A
/// speculative runtime gets one task per chunk, a sequential one runs the
/// chunks in order in one transaction: the same plan either way.
fn exec_txn<R: TxRuntime>(
    session: &mut R::Session,
    tree: TxRbTree,
    ops: &[TreeOp],
    tasks: usize,
) -> u64 {
    let chunk = ops.len().div_ceil(tasks);
    if !R::SPECULATIVE || tasks <= 1 {
        return session.run(|mem| {
            let mut h = 0u64;
            for part in ops.chunks(chunk) {
                h = gen::mix(h, apply(mem, tree, part)?);
            }
            Ok(h)
        });
    }
    let mut hashes = vec![0u64; tasks];
    {
        let mut bodies: Vec<BoxedTaskBody<'_>> = hashes
            .iter_mut()
            .zip(ops.chunks(chunk))
            .map(|(slot, part)| {
                Box::new(move |mem: &mut dyn TxMem| {
                    *slot = apply(mem, tree, part)?;
                    Ok(())
                }) as BoxedTaskBody<'_>
            })
            .collect();
        run_boxed_tasks(session, &mut bodies);
    }
    hashes.iter().fold(0, |h, &part| gen::mix(h, part))
}

/// A fresh runtime, its user thread's session and the populated tree.
struct Rig<R: TxRuntime> {
    runtime: Arc<R>,
    session: R::Session,
    tree: TxRbTree,
}

fn prepare<R: TxRuntime>(mix: &TreeMix, initial: &[u64]) -> Rig<R> {
    let runtime = R::new(tx_config(mix));
    let session = runtime.session();
    let mut mem = runtime.direct();
    let tree = TxRbTree::create(&mut mem).expect("populating cannot abort");
    for &key in initial {
        tree.insert(&mut mem, key, key.wrapping_mul(3))
            .expect("populating cannot abort");
    }
    Rig {
        runtime,
        session,
        tree,
    }
}

/// What one pass over the stream produced.
#[derive(Debug, Default)]
struct Pass {
    hash: u64,
    /// `check_invariants` held on the final tree.
    valid: bool,
    contents: Vec<(u64, u64)>,
    elapsed: Duration,
    stats: StatsSnapshot,
}

impl Pass {
    fn same_as(&self, other: &Pass) -> bool {
        self.valid && other.valid && self.hash == other.hash && self.contents == other.contents
    }
}

/// Samples a pass records.
#[derive(Debug, Default)]
struct Record {
    latency: [Samples; 2],
    lag: Samples,
}

impl Record {
    fn all(&self) -> Samples {
        let mut all = self.latency[0].clone();
        all.extend(&self.latency[1]);
        all
    }
}

/// Runs the whole stream on a fresh runtime and tree, so every pass starts
/// from the same state and memory does not grow with the pass count.
fn pass<R: TxRuntime>(
    mix: &TreeMix,
    initial: &[u64],
    txns: &[TreeTxn],
    mut rec: Option<&mut Record>,
) -> Pass {
    let mut rig = prepare::<R>(mix, initial);
    let tree = rig.tree;
    let stats0 = rig.runtime.stats();
    let mut hash = 0u64;
    let start = Instant::now();
    let mut prev_end = start;
    for txn in txns {
        let t0 = Instant::now();
        hash = gen::mix(
            hash,
            exec_txn::<R>(&mut rig.session, tree, &txn.ops, mix.tasks),
        );
        let t1 = Instant::now();
        if let Some(rec) = rec.as_deref_mut() {
            let class = usize::from(txn.class == Class::Write);
            rec.latency[class].push(t1 - t0);
            rec.lag.push(t0 - prev_end);
        }
        prev_end = t1;
    }
    let elapsed = start.elapsed();
    let stats = rig.runtime.stats().delta_since(&stats0);
    let mut mem = rig.runtime.direct();
    let contents = tree.to_vec(&mut mem).expect("direct reads cannot abort");
    let valid = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        tree.check_invariants(&mut mem)
    }));
    let valid = matches!(valid, Ok(Ok(_))) && contents.len() == initial.len();
    Pass {
        hash,
        valid,
        contents,
        elapsed,
        stats,
    }
}

/// What a run of passes measured.
#[derive(Debug, Default)]
struct Passes {
    rec: Record,
    /// Each pass's median latency: all, read and write transactions.
    p50s: [Vec<f64>; 3],
    rates: Vec<f64>,
    stats: StatsSnapshot,
}

/// Passes until `budget` is spent: per-transaction samples, the rate of
/// each pass and the runtime's counters. Every pass must end like `first`.
fn measure<R: TxRuntime>(
    mix: &TreeMix,
    initial: &[u64],
    txns: &[TreeTxn],
    budget: Duration,
    first: &Pass,
    out: &mut Outcome,
) -> Passes {
    let mut done = Passes::default();
    let started = Instant::now();
    while done.rates.len() < 3 || started.elapsed() < budget {
        let mut rec = Record::default();
        let p = pass::<R>(mix, initial, txns, Some(&mut rec));
        for (p50s, mut samples) in
            done.p50s
                .iter_mut()
                .zip([rec.all(), rec.latency[0].clone(), rec.latency[1].clone()])
        {
            p50s.push(samples.quantile_us(0.5));
        }
        for class in 0..2 {
            done.rec.latency[class].extend(&rec.latency[class]);
        }
        done.rec.lag.extend(&rec.lag);
        done.rates.push(txns.len() as f64 / p.elapsed.as_secs_f64());
        done.stats = done.stats.merged(&p.stats);
        out.attempted += txns.len() as u64;
        let same = p.same_as(first);
        out.failed += if same { 0 } else { txns.len() as u64 };
        let n = done.rates.len();
        out.check(same, || {
            format!("{} pass {n} ended unlike the first pass", R::LABEL)
        });
    }
    done
}

/// The same stream on the sequential reference and on the other runtime
/// must end in the same tree with the same results.
fn check_against_references<R: TxRuntime>(
    spec: &TreeSpec,
    initial: &[u64],
    txns: &[TreeTxn],
    first: &Pass,
    out: &mut Outcome,
) {
    out.check(first.valid, || {
        format!("{}: check_invariants failed", R::LABEL)
    });
    let seq = pass::<SeqRefRuntime>(&spec.mix, initial, txns, None);
    let (other_label, other) = match spec.runtime {
        Rt::Tlstm => (
            "swisstm",
            pass::<SwisstmRuntime>(&spec.mix, initial, txns, None),
        ),
        Rt::Swisstm => (
            "tlstm",
            pass::<TlstmRuntime>(&spec.mix, initial, txns, None),
        ),
    };
    for (label, p) in [("seqref", &seq), (other_label, &other)] {
        out.check(p.same_as(first), || {
            format!(
                "{} and {label} end the same stream in different trees or results",
                R::LABEL
            )
        });
    }
    let other_rate = txns.len() as f64 / other.elapsed.as_secs_f64();
    let own = out.get("sustained_rps").unwrap_or(0.0);
    let (tlstm, swisstm) = match spec.runtime {
        Rt::Tlstm => (own, other_rate),
        Rt::Swisstm => (other_rate, own),
    };
    out.notes.push(format!(
        "tlstm/swisstm txn rate ratio {:.3} (the other runtime from one reference pass; not gated)",
        tlstm / swisstm
    ));
}

/// Set-up: generating the stream, creating the runtime and populating the
/// tree, timed `SETUP_REPS` times.
fn setup<R: TxRuntime>(spec: &TreeSpec, seed: u64) -> (Vec<f64>, Vec<u64>, Vec<TreeTxn>) {
    let mut times = Vec::new();
    let mut stream = None;
    for _ in 0..SETUP_REPS {
        drop(stream.take());
        let t0 = Instant::now();
        let (initial, txns) = tree_stream(&spec.mix, seed);
        let rig = prepare::<R>(&spec.mix, &initial);
        times.push(t0.elapsed().as_secs_f64());
        drop(rig);
        stream = Some((initial, txns));
    }
    let (initial, txns) = stream.expect("at least one setup");
    (times, initial, txns)
}

fn run_on<R: TxRuntime>(spec: &TreeSpec, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (setups, initial, txns) = setup::<R>(spec, seed);
    out.metric("setup_s", median(&setups), "s", setups.len() as u64);
    // The warm-up pass also fixes the state every later pass must reach.
    let first = pass::<R>(&spec.mix, &initial, &txns, None);
    let mut done = measure::<R>(
        &spec.mix,
        &initial,
        &txns,
        Duration::from_secs_f64(0.85 * seconds),
        &first,
        &mut out,
    );
    // Pass rates can fall in two speed modes that change from pass to pass,
    // so the rate is the stream over the summed pass time: a median would
    // flip between the modes.
    let total_s: f64 = done.rates.iter().map(|r| txns.len() as f64 / r).sum();
    let rate = (done.rates.len() * txns.len()) as f64 / total_s;
    out.metric("sustained_rps", rate, "1/s", done.rates.len() as u64);
    let mut sorted = done.rates.clone();
    sorted.sort_by(f64::total_cmp);
    out.notes.push(format!(
        "pass rates min {:.0} median {:.0} max {:.0} 1/s over {} passes",
        sorted[0],
        median(&sorted),
        sorted[sorted.len() - 1],
        sorted.len()
    ));
    // Per pass, like the rate: the mean of the passes' medians.
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    out.latency("", mean(&done.p50s[0]), &mut done.rec.all());
    out.latency("read_", mean(&done.p50s[1]), &mut done.rec.latency[0]);
    out.latency("write_", mean(&done.p50s[2]), &mut done.rec.latency[1]);
    check_against_references::<R>(spec, &initial, &txns, &first, &mut out);
    out.report_peak_rss();
    out
}

fn run_traced_on<R: TxRuntime>(
    spec: &TreeSpec,
    seed: u64,
    seconds: f64,
    trace_path: &Path,
) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let (_, initial, txns) = setup::<R>(spec, seed);
    let first = pass::<R>(&spec.mix, &initial, &txns, None);
    let budget = Duration::from_secs_f64(0.4 * seconds);
    let plain = measure::<R>(&spec.mix, &initial, &txns, budget, &first, &mut out);

    let warm = pass::<Traced<R>>(&spec.mix, &initial, &txns, None);
    out.check(warm.same_as(&first), || {
        "the traced runtime ends in a different tree".into()
    });
    let t0 = Instant::now();
    trace::set_enabled(true);
    let mut traced = measure::<Traced<R>>(&spec.mix, &initial, &txns, budget, &first, &mut out);
    trace::set_enabled(false);
    let counters = trace::Counters {
        window_s: t0.elapsed().as_secs_f64(),
        stm: traced.stats,
        ops: (traced.rates.len() * txns.len() * spec.mix.ops_per_txn) as u64,
        ..trace::Counters::default()
    };
    let spans = trace::take();
    let mut all = traced.rec.all();
    let overhead = all.quantile_us(0.5) / plain.rec.all().quantile_us(0.5) - 1.0;
    let mut sum = trace::summarise(&spans);
    let mut no_send = Samples::default();
    trace::per_layer(
        &mut out,
        R::LABEL,
        &mut sum,
        &counters,
        &mut traced.rec.lag,
        &mut no_send,
        overhead,
    );
    out.check_timing(&mut all);
    trace::write_chrome(trace_path, &spans[..spans.len().min(TRACE_FILE_SPANS)])?;
    Ok(out)
}

pub fn run(spec: &TreeSpec, seed: u64, seconds: f64) -> Outcome {
    match spec.runtime {
        Rt::Tlstm => run_on::<TlstmRuntime>(spec, seed, seconds),
        Rt::Swisstm => run_on::<SwisstmRuntime>(spec, seed, seconds),
    }
}

pub fn run_traced(
    spec: &TreeSpec,
    seed: u64,
    seconds: f64,
    trace_path: &Path,
) -> io::Result<Outcome> {
    match spec.runtime {
        Rt::Tlstm => run_traced_on::<TlstmRuntime>(spec, seed, seconds, trace_path),
        Rt::Swisstm => run_traced_on::<SwisstmRuntime>(spec, seed, seconds, trace_path),
    }
}
