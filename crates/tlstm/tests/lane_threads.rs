//! A user-thread of speculative depth `k` runs one lane itself, so
//! registering it spawns exactly `k − 1` worker threads, named
//! `tlstm-u<ptid>-w<index>`, and dropping it joins them.
//!
//! Threads are counted by name through `/proc/self/task`, so this file
//! deliberately contains a single `#[test]`: no concurrent test's workers are
//! counted.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use tlstm::TlstmRuntime;
use txmem::TxConfig;

/// Names of this process's threads that look like TLSTM workers.
fn worker_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(|entry| std::fs::read_to_string(entry.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .filter(|name| name.starts_with("tlstm-u") && name.contains("-w"))
        .collect();
    names.sort();
    names
}

/// The worker-thread names once they match `expected`, or the last
/// observation after a generous deadline: a spawned thread sets its own name
/// when it starts, and a joined one leaves the list asynchronously.
fn settled_worker_threads(expected: &[String]) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let names = worker_threads();
        if names == expected || Instant::now() >= deadline {
            return names;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn register_uthread_spawns_one_worker_per_lane_but_the_callers() {
    let rt = TlstmRuntime::new(TxConfig::small());
    assert!(worker_threads().is_empty());
    let mut held = Vec::new();
    let mut expected: Vec<String> = Vec::new();
    for k in 1..=4usize {
        let u = rt.register_uthread(k);
        expected.extend((0..k - 1).map(|w| format!("tlstm-u{}-w{w}", u.ptid())));
        expected.sort();
        held.push(u);
        assert_eq!(
            settled_worker_threads(&expected),
            expected,
            "after register_uthread({k})"
        );
    }
    // 0 + 1 + 2 + 3 workers for depths 1..=4.
    assert_eq!(expected.len(), 6);
    drop(held);
    assert!(
        settled_worker_threads(&[]).is_empty(),
        "dropping a user-thread joins its workers"
    );
}
