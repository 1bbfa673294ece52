//! An idle serving thread blocks instead of spinning, whatever its
//! connections are doing. The test sits in a file of its own so that no
//! other test shares the process whose CPU time it reads.
#![cfg(target_os = "linux")]

use std::io::{ErrorKind, Write};
use std::net::Shutdown;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tlstm_testutil::with_default_watchdog;
use txkv::{KvOp, KvServer, KvServerConfig, KvStoreParams, RefStore};
use txmem::{SeqRefRuntime, TxConfig};
use txnet::{encode_frame, encode_request, NetClient, NetError, NetServer, NetServerConfig};

const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Clock ticks per second of `/proc/self/stat` (`USER_HZ`, fixed by the
/// Linux ABI).
const TICKS_PER_SEC: f64 = 100.0;

/// User plus system CPU time of this process, in clock ticks.
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may hold spaces; fields resume after its `)`, at
    // field 3. utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat[stat.rfind(')').expect("comm") + 1..]
        .split_whitespace()
        .collect();
    let field = |n: usize| -> u64 { fields[n - 3].parse().expect("numeric stat field") };
    field(14) + field(15)
}

/// Pipelines `count` gets of `key` in one write, without reading replies.
fn pipeline_gets(client: &mut NetClient, key: u64, count: u64) {
    let mut wire = Vec::new();
    for id in 1..=count {
        wire.extend_from_slice(&encode_frame(id, &encode_request(&[KvOp::Get { key }])));
    }
    client.stream().write_all(&wire).expect("pipelined write");
}

#[test]
fn an_idle_server_does_not_spin() {
    with_default_watchdog(|| {
        // 8 KiB replies: a few hundred unread ones fill the socket buffers
        // and leave replies queued in the server.
        const BIG_KEY: u64 = 1;
        const VALUE_WORDS: usize = 1024;
        const MEASURE: Duration = Duration::from_secs(1);
        const MAX_CPU: f64 = 0.10;
        let config = KvServerConfig {
            store: KvStoreParams {
                shards: 4,
                expected_keys: 64,
            },
            batch_tasks: 1,
            tx: TxConfig::small(),
        };
        let server = Arc::new(KvServer::<SeqRefRuntime>::new(&config));
        let net_config = NetServerConfig {
            threads: 1,
            ..NetServerConfig::default()
        };
        let net = NetServer::serve(Arc::clone(&server), ("127.0.0.1", 0), &net_config)
            .expect("bind failed");
        let connect = || {
            let mut client = NetClient::connect(net.addr()).expect("connect failed");
            client.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
            client
        };

        // Idle: connected and served once, then silent.
        let mut idle = connect();
        idle.put(BIG_KEY, vec![3; VALUE_WORDS]).expect("preload");

        // Half-closed after its one reply was flushed and the server closed.
        let mut half_closed = connect();
        half_closed
            .send(&[KvOp::Get { key: BIG_KEY }])
            .expect("send");
        half_closed
            .stream()
            .shutdown(Shutdown::Write)
            .expect("half-close");
        half_closed
            .recv()
            .expect("reply before close")
            .1
            .expect("get");
        match half_closed.recv() {
            Err(NetError::Io(e)) if e.kind() == ErrorKind::UnexpectedEof => {}
            other => panic!("the server must close a drained half-closed peer, got {other:?}"),
        }

        // Open, with ~16 MiB of replies it does not read.
        let mut stalled = connect();
        pipeline_gets(&mut stalled, BIG_KEY, 2_000);

        // Half-closed with ~16 MiB of replies it does not read: the server
        // has seen its EOF, which stays readable.
        let mut stalled_half_closed = connect();
        pipeline_gets(&mut stalled_half_closed, BIG_KEY, 2_000);
        stalled_half_closed
            .stream()
            .shutdown(Shutdown::Write)
            .expect("half-close");

        // Wait until the server holds unread replies back, then let it
        // settle.
        let buffered = &txobs::metrics::net().buffered_bytes;
        let deadline = Instant::now() + READ_TIMEOUT;
        while buffered.get() < 1 << 20 {
            assert!(
                Instant::now() < deadline,
                "the server never queued the unread replies"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        std::thread::sleep(Duration::from_millis(300));

        let ticks = cpu_ticks();
        let start = Instant::now();
        std::thread::sleep(MEASURE);
        let cpu = (cpu_ticks() - ticks) as f64 / TICKS_PER_SEC / start.elapsed().as_secs_f64();
        assert!(
            cpu < MAX_CPU,
            "the idle server used {:.0}% of a core",
            cpu * 100.0
        );

        // And it still serves.
        let mut oracle = RefStore::new(4);
        oracle.batch(
            &[KvOp::Put {
                key: BIG_KEY,
                value: vec![3; VALUE_WORDS],
            }],
            1,
        );
        let ops = [KvOp::Get { key: BIG_KEY }];
        assert_eq!(idle.batch(&ops).expect("served"), oracle.batch(&ops, 1));
        drop((stalled, stalled_half_closed));
        net.shutdown();
    });
}
