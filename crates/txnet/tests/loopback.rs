//! Loopback conformance: the network front-end against the `RefStore`
//! oracle, on every runtime.
//!
//! Three contracts:
//!
//! * concurrent clients' interleaved batches observe exactly the semantics
//!   of applying each batch atomically — every reply matches the oracle, on
//!   the in-memory and the durable serving path, and a rebooted durable
//!   store recovers exactly the served state;
//! * pipelined requests genuinely coalesce: N requests share fewer than N
//!   STM commits, and a client that half-closes its side still gets every
//!   pipelined reply;
//! * the durable path survives an injected WAL crash point with dense LSNs —
//!   every acknowledged write is recovered, degraded reads keep serving
//!   over the wire, and a recovered store serves the network again.

use std::io::{ErrorKind, Write};
use std::net::Shutdown;
use std::sync::Arc;
use std::time::Duration;

use swisstm::SwisstmRuntime;
use tlstm::TlstmRuntime;
use tlstm_testutil::{with_default_watchdog, TempDir, TestRng};
use txkv::{
    CrashPoints, DurableKvConfig, DurableKvStore, FsyncPolicy, KvOp, KvReply, KvServer,
    KvServerConfig, KvStoreParams, RefStore,
};
use txlog::crash_points;
use txmem::{SeqRefRuntime, TxConfig, TxRuntime};
use txnet::{
    encode_frame, encode_request, NetClient, NetError, NetServer, NetServerConfig, ERR_WAL,
};

const SHARDS: u64 = 8;
const GROUPS: usize = 4;
const CLIENTS: u64 = 4;
const BATCHES_PER_CLIENT: usize = 30;
const KEYS_PER_CLIENT: u64 = 64;
const READ_TIMEOUT: Duration = Duration::from_secs(10);

fn kv_config() -> KvServerConfig {
    KvServerConfig {
        store: KvStoreParams {
            shards: SHARDS,
            expected_keys: 512,
        },
        batch_tasks: GROUPS,
        tx: TxConfig::small(),
    }
}

fn net_config(threads: usize) -> NetServerConfig {
    NetServerConfig {
        threads,
        ..NetServerConfig::default()
    }
}

/// One random batch confined to `[base, base + KEYS_PER_CLIENT)` — client
/// key ranges are disjoint, so per-client replies are sequentially
/// consistent against a per-client oracle regardless of interleaving.
fn gen_batch(rng: &mut TestRng, base: u64, ops: usize) -> Vec<KvOp> {
    let mut batch = Vec::with_capacity(ops);
    for _ in 0..ops {
        let key = base + rng.below(KEYS_PER_CLIENT);
        let value = |rng: &mut TestRng| -> Vec<u64> { (0..2).map(|_| rng.next_u64()).collect() };
        let op = match rng.below(100) {
            0..=29 => KvOp::Get { key },
            30..=64 => KvOp::Put {
                key,
                value: value(rng),
            },
            65..=74 => KvOp::Delete { key },
            75..=89 => KvOp::Cas {
                key,
                expected: value(rng),
                new: value(rng),
            },
            _ => KvOp::Scan {
                lo: key,
                hi: (key + 9).min(base + KEYS_PER_CLIENT - 1),
                limit: 8,
            },
        };
        batch.push(op);
    }
    batch
}

fn durable_config() -> DurableKvConfig {
    DurableKvConfig {
        server: kv_config(),
        crash_points: CrashPoints::disabled(),
        ..DurableKvConfig::default()
    }
}

/// Runs the concurrent clients against `net` and checks every reply against
/// a per-client oracle; returns the merged oracle of the final state.
fn drive_conformance(label: &str, net: NetServer) -> RefStore {
    let addr = net.addr();

    // Concurrent clients on disjoint key ranges; each records its submitted
    // batches and the replies the server sent back.
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        handles.push(std::thread::spawn(move || {
            let mut client = NetClient::connect(addr).expect("client connect");
            client.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
            let mut rng = TestRng::new(0xC0FFEE ^ c);
            let base = c * 1_000;
            let mut log = Vec::with_capacity(BATCHES_PER_CLIENT);
            for _ in 0..BATCHES_PER_CLIENT {
                let ops = gen_batch(&mut rng, base, 8);
                let replies = client.batch(&ops).expect("batch over loopback");
                log.push((ops, replies));
            }
            log
        }));
    }
    let logs: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect();
    net.shutdown();

    // Per-client reply conformance, and a merged oracle for the final state
    // (disjoint ranges make the merge order irrelevant).
    let mut merged = RefStore::new(SHARDS);
    for (c, log) in logs.iter().enumerate() {
        let mut oracle = RefStore::new(SHARDS);
        for (batch_index, (ops, replies)) in log.iter().enumerate() {
            let want = oracle.batch(ops, GROUPS);
            assert_eq!(
                replies, &want,
                "{label}: client {c} batch {batch_index} diverges from the oracle"
            );
            merged.batch(ops, GROUPS);
        }
    }
    merged
}

/// Asserts that `server`'s store holds exactly the oracle's final state.
fn assert_state<R: TxRuntime>(label: &str, server: &KvServer<R>, oracle: &RefStore) {
    let mut got = server
        .store()
        .dump(&mut server.direct())
        .expect("direct dump cannot abort");
    let mut want = oracle.dump();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(
        got, want,
        "{label}: final store state diverges from the oracle"
    );
}

/// Conformance of both serving paths on runtime `R`: the in-memory server
/// under [`NetServer::serve`], then a durable store under
/// [`NetServer::serve_durable`], whose log must also replay the served
/// state after a reboot.
fn conformance_on<R: TxRuntime>() {
    let label = R::LABEL;
    let server = Arc::new(KvServer::<R>::new(&kv_config()));
    let net = NetServer::serve(Arc::clone(&server), ("127.0.0.1", 0), &net_config(2))
        .unwrap_or_else(|e| panic!("{label}: bind failed: {e}"));
    let oracle = drive_conformance(label, net);
    assert_state(label, &server, &oracle);

    let label = format!("{label}/durable");
    let dir = TempDir::new("txnet-conformance");
    let store =
        Arc::new(DurableKvStore::<R>::boot(dir.path(), &durable_config()).expect("boot failed"));
    let net = NetServer::serve_durable(Arc::clone(&store), ("127.0.0.1", 0), &net_config(2))
        .unwrap_or_else(|e| panic!("{label}: bind failed: {e}"));
    let oracle = drive_conformance(&label, net);
    assert_state(&label, store.server(), &oracle);
    drop(store);
    let rebooted = DurableKvStore::<R>::boot(dir.path(), &durable_config()).expect("reboot failed");
    assert_state(&format!("{label} after reboot"), rebooted.server(), &oracle);
}

#[test]
fn concurrent_clients_match_the_oracle_on_every_runtime() {
    with_default_watchdog(|| {
        conformance_on::<SwisstmRuntime>();
        conformance_on::<TlstmRuntime>();
        conformance_on::<SeqRefRuntime>();
    });
}

#[test]
fn a_half_closed_client_gets_every_pipelined_reply() {
    with_default_watchdog(|| {
        const PIPELINED: u64 = 200;
        // At window 1 every frame past the first waits in the connection's
        // read buffer when the EOF arrives; at the default window of 64 the
        // requests past the first round do.
        for window in [1, 64] {
            let server = Arc::new(KvServer::<SeqRefRuntime>::new(&kv_config()));
            let config = NetServerConfig {
                max_coalesced_requests: window,
                ..net_config(1)
            };
            let net =
                NetServer::serve(Arc::clone(&server), ("127.0.0.1", 0), &config).expect("bind");
            let mut client = NetClient::connect(net.addr()).expect("connect failed");
            client.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
            for key in 1..=PIPELINED {
                client.send(&[KvOp::Get { key }]).expect("pipelined send");
            }
            client
                .stream()
                .shutdown(Shutdown::Write)
                .expect("half-close");
            let mut answered = 0u64;
            let end = loop {
                match client.recv() {
                    Ok((req_id, result)) => {
                        answered += 1;
                        assert_eq!(req_id, answered, "window {window}: replies out of order");
                        assert_eq!(result.expect("get reply"), vec![KvReply::Value(None)]);
                    }
                    Err(end) => break end,
                }
            };
            assert_eq!(
                answered, PIPELINED,
                "window {window}: a half-closed client got {answered} of {PIPELINED} replies \
                 (then {end:?})"
            );
            assert!(
                matches!(&end, NetError::Io(e) if e.kind() == ErrorKind::UnexpectedEof),
                "window {window}: the server must close the drained connection, got {end:?}"
            );
            net.shutdown();
        }
    });
}

#[test]
fn pipelined_requests_coalesce_into_fewer_commits() {
    with_default_watchdog(|| {
        const PIPELINED: u64 = 64;
        let server = Arc::new(KvServer::<SeqRefRuntime>::new(&kv_config()));
        let net = NetServer::serve(Arc::clone(&server), ("127.0.0.1", 0), &net_config(1))
            .expect("bind failed");
        let mut client = NetClient::connect(net.addr()).expect("connect failed");
        client.set_read_timeout(Some(READ_TIMEOUT)).unwrap();

        // All frames in one write: they arrive together, so the single
        // serving thread decodes (most of) them in one poll iteration and
        // executes them as (nearly) one coalesced store batch.
        let commits_before = server.stats().tx_commits;
        let mut wire = Vec::new();
        for id in 1..=PIPELINED {
            wire.extend_from_slice(&encode_frame(
                id,
                &encode_request(&[KvOp::Put {
                    key: id,
                    value: vec![id * 7],
                }]),
            ));
        }
        client.stream().write_all(&wire).expect("pipelined write");
        for id in 1..=PIPELINED {
            let (got_id, result) = client.recv().expect("pipelined recv");
            assert_eq!(got_id, id, "replies must come back in execution order");
            assert_eq!(result.expect("put reply"), vec![KvReply::Inserted(true)]);
        }
        let commits = server.stats().tx_commits - commits_before;
        assert!(commits >= 1, "at least one batch must have committed");
        assert!(
            commits < PIPELINED,
            "{PIPELINED} pipelined requests took {commits} commits — no coalescing happened"
        );
        net.shutdown();
    });
}

#[test]
fn durable_loopback_survives_a_crash_point_with_dense_lsns() {
    with_default_watchdog(|| {
        let dir = TempDir::new("txnet-crash");
        let crash = CrashPoints::disabled();
        let config = DurableKvConfig {
            fsync: FsyncPolicy::Always,
            crash_points: crash.clone(),
            ..durable_config()
        };
        let store = Arc::new(
            DurableKvStore::<SwisstmRuntime>::boot(dir.path(), &config).expect("boot failed"),
        );
        let net = NetServer::serve_durable(Arc::clone(&store), ("127.0.0.1", 0), &net_config(1))
            .expect("bind failed");
        let mut client = NetClient::connect(net.addr()).expect("connect failed");
        client.set_read_timeout(Some(READ_TIMEOUT)).unwrap();

        // A healthy prefix of acknowledged write batches (the first op is
        // always a write, so each one is logged and carries one LSN — the
        // client is sequential, so no coalescing blurs the count).
        let mut rng = TestRng::new(0xBEEF);
        let mut batches = Vec::new();
        let mut acked = 0u64;
        for _ in 0..6 {
            let mut ops = vec![KvOp::Put {
                key: rng.below(KEYS_PER_CLIENT),
                value: vec![rng.next_u64()],
            }];
            ops.extend(gen_batch(&mut rng, 0, 5));
            batches.push(ops.clone());
            client.batch(&ops).expect("acked write batch");
            acked += 1;
        }
        assert_eq!(store.durable_lsn(), acked);

        // The armed crash point kills the WAL writer mid-frame: the client
        // gets the typed durability error, not a hang and not a close.
        crash.arm(crash_points::MID_FRAME);
        let doomed = vec![KvOp::Put {
            key: 1,
            value: vec![0xDEAD],
        }];
        match client.batch(&doomed) {
            Err(NetError::Remote(remote)) => {
                assert_eq!(remote.code, ERR_WAL, "{}", remote.message);
            }
            other => panic!("crashed WAL must yield an ERR_WAL reply, got {other:?}"),
        }
        assert!(store.is_dead());
        assert_eq!(crash.fired(), Some(crash_points::MID_FRAME.to_string()));

        // Degraded mode over the wire: reads keep serving on the same
        // connection, writes keep being refused with the typed error.
        let acked_key = match &batches[0][0] {
            KvOp::Put { key, .. } => *key,
            _ => unreachable!("first op is always a put"),
        };
        assert!(client.get(acked_key).expect("degraded read").is_some());
        match client.batch(&doomed) {
            Err(NetError::Remote(remote)) => assert_eq!(remote.code, ERR_WAL),
            other => panic!("degraded write must yield ERR_WAL, got {other:?}"),
        }

        drop(client);
        net.shutdown();
        drop(store);

        // Recovery: the torn tail is discarded, LSNs are dense — exactly
        // the acknowledged batches are replayed, nothing skipped.
        let config = DurableKvConfig {
            fsync: FsyncPolicy::Always,
            ..durable_config()
        };
        let recovered =
            DurableKvStore::<SwisstmRuntime>::boot(dir.path(), &config).expect("recovery failed");
        let report = recovered.recovery().clone();
        assert_eq!(
            report.next_lsn, acked,
            "acknowledged writes lost or duplicated"
        );
        assert_eq!(report.replayed_records, acked, "LSNs are not dense");
        assert!(
            report.diagnostics.iter().any(|d| d.contains("torn tail")),
            "expected a torn-tail diagnostic, got {:?}",
            report.diagnostics
        );
        let mut oracle = RefStore::new(SHARDS);
        for ops in &batches {
            oracle.batch(ops, GROUPS);
        }
        let mut got = recovered
            .store()
            .dump(&mut recovered.server().direct())
            .expect("direct dump cannot abort");
        let mut want = oracle.dump();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(
            got, want,
            "recovered state diverges from the acked oracle prefix"
        );

        // And the recovered store serves the network again.
        let recovered = Arc::new(recovered);
        let net =
            NetServer::serve_durable(Arc::clone(&recovered), ("127.0.0.1", 0), &net_config(1))
                .expect("re-serve failed");
        let mut client = NetClient::connect(net.addr()).expect("reconnect failed");
        client.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        client
            .put(9_999, vec![1, 2, 3])
            .expect("post-recovery write");
        assert_eq!(
            client.get(9_999).expect("post-recovery read"),
            Some(vec![1, 2, 3])
        );
        net.shutdown();
    });
}
