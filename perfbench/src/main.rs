//! The repository benchmark. See `README.md` beside this package for the
//! workloads, the metrics and how to run it.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It prints every metric by name with its unit and sample count, then, as
//! the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. It exits non-zero when any
//! correctness check fails.

mod gen;
mod kv;
mod openloop;
mod rbtree;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use gen::{Keys, KvMix, TreeMix};
use kv::KvSpec;
use rbtree::{Rt, TreeSpec};
use stats::Outcome;
use txlog::FsyncPolicy;

/// Group commit (one fsync per 2 ms at most) puts every write on the disk's
/// fsync latency. The nominal rates and the fsync policies were chosen from
/// measurements; see README.md.
const KV_WRITE_HOT: KvSpec = KvSpec {
    name: "kv-write-hot",
    mix: KvMix {
        records: 16 * 1024,
        keys: Keys::Zipf(0.99),
        read_share: 0.25,
        scan_share: 0.0,
        batch_ops: 16,
        scan_limit: 0,
    },
    nominal_rps: 1000.0,
    fsync: FsyncPolicy::Group(txlog::DEFAULT_GROUP_INTERVAL),
};

/// No fsync: every write still goes through the WAL's append pipeline, but
/// not through the disk flush, whose latency drifts by several times over
/// minutes on a shared disk.
const KV_READ_LARGE: KvSpec = KvSpec {
    name: "kv-read-large",
    mix: KvMix {
        records: 256 * 1024,
        keys: Keys::Uniform,
        read_share: 0.9,
        scan_share: 0.5,
        batch_ops: 16,
        scan_limit: 32,
    },
    nominal_rps: 1000.0,
    fsync: FsyncPolicy::None,
};

const TREE_MIX: TreeMix = TreeMix {
    initial_keys: 4096,
    key_space: 8192,
    ops_per_txn: 16,
    tasks: 2,
    update_share: 0.5,
    txns: 8000,
};

const TLSTM_RBTREE: TreeSpec = TreeSpec {
    mix: TREE_MIX,
    runtime: Rt::Tlstm,
};

const SWISSTM_RBTREE: TreeSpec = TreeSpec {
    mix: TREE_MIX,
    runtime: Rt::Swisstm,
};

enum Workload {
    Kv(KvSpec),
    Tree(TreeSpec),
}

fn workload(name: &str) -> Option<Workload> {
    match name {
        "kv-write-hot" => Some(Workload::Kv(KV_WRITE_HOT)),
        "kv-read-large" => Some(Workload::Kv(KV_READ_LARGE)),
        "tlstm-rbtree" => Some(Workload::Tree(TLSTM_RBTREE)),
        "swisstm-rbtree" => Some(Workload::Tree(SWISSTM_RBTREE)),
        _ => None,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workload(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    openloop::tight_timers();
    // Working files (WAL directories, traces) stay inside the working
    // directory the benchmark runs from.
    let work = PathBuf::from(".bench_run");
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let trace_path = work.join(format!("trace-{}-{}.json", args.workload, args.seed));
    let result = match (&workload, args.trace) {
        (Workload::Kv(spec), false) => kv::run(spec, args.seed, args.seconds, &work),
        (Workload::Kv(spec), true) => {
            kv::run_traced(spec, args.seed, args.seconds, &work, &trace_path)
        }
        (Workload::Tree(spec), false) => Ok(rbtree::run(spec, args.seed, args.seconds)),
        (Workload::Tree(spec), true) => {
            rbtree::run_traced(spec, args.seed, args.seconds, &trace_path)
        }
    };
    let out: Outcome = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for m in &out.metrics {
        println!(
            "{:<34} {:>14.3} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    if args.trace {
        println!("# trace: {}", trace_path.display());
    }
    for note in &out.notes {
        println!("# {note}");
    }
    for failure in &out.failures {
        println!("# CHECK FAILED: {failure}");
    }
    let correct = out.failures.is_empty();
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
