//! The KV serving workload driven **over the wire**: a multi-connection
//! open-loop load generator against a loopback [`txnet::NetServer`].
//!
//! Where [`crate::kv`] measures in-process sessions (one thread = one
//! session, closed loop), this module measures the full serving pipeline:
//! frame encode → TCP → poll-loop decode → **server-side coalescing** into
//! one store batch → reply fan-out → TCP → frame decode. The client side is
//! open-loop: each connection keeps up to [`NetKvParams::max_in_flight`]
//! pipelined requests outstanding and, when [`NetKvParams::offered_load`] is
//! set, issues them on a fixed schedule *regardless of reply progress* — so
//! measured latency includes queueing delay and rises sharply past the
//! saturation point, which is the tail-latency-vs-offered-load curve the
//! report's sweep rows plot.
//!
//! Reported *operations* are the [`txkv::KvOp`]s of acknowledged replies
//! only.
//! When the window closes the generator stops issuing but keeps draining
//! replies to already-sent requests for a bounded grace period
//! (`TAIL_DRAIN_BUDGET`) — open-loop accounting counts work *issued* inside
//! the window once the server acknowledges it, and the harness measures
//! elapsed time after the drain, so throughput stays honest even when one
//! coalesced durable batch outlives a short measurement window.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use txkv::KvServer;
use txmem::TxRuntime;
use txnet::{NetClient, NetError, NetServer, NetServerConfig};

use crate::harness::{
    average_metrics, run_threads_metrics, DetRng, LatencyHistogram, RunMetrics, WorkloadConfig,
};
use crate::kv::{boot_durable, generate_batch, populate, KeyDist, KvParams};

/// How long a drained connection waits for a not-yet-ready reply before the
/// generator moves on to its other connections (the client-side poll
/// cadence).
const DRAIN_TIMEOUT: Duration = Duration::from_micros(200);

/// How long the generator keeps draining in-flight replies after the
/// measurement window closes. Bounds the tail at a few coalesced durable
/// batches; anything still unacknowledged afterwards is discarded.
const TAIL_DRAIN_BUDGET: Duration = Duration::from_secs(2);

/// Parameters of the networked KV serving workload.
#[derive(Debug, Clone)]
pub struct NetKvParams {
    /// The store-side parameters: mix, key space, batch size, shards, and
    /// (via [`KvParams::durable`]) whether the server front-ends a
    /// [`txkv::DurableKvStore`]. [`KvParams::threads`] is ignored — the network
    /// workload's concurrency axis is `connections`.
    pub kv: KvParams,
    /// Client connections to open (the offered-concurrency axis; pinned
    /// `-cN` scenario rows fix this the way `kv-a-durable-cN` pins
    /// committers).
    pub connections: usize,
    /// OS threads driving those connections (0 = one per connection, capped
    /// at 4 — the generator is I/O-bound, not CPU-bound).
    pub client_threads: usize,
    /// Open-loop window: pipelined requests outstanding per connection
    /// before the generator stops issuing on that connection.
    pub max_in_flight: usize,
    /// `Some(r)`: issue `r` requests/second in total across all connections
    /// (open loop — send times are scheduled, not reply-gated). `None`:
    /// keep every window full (peak-throughput mode).
    pub offered_load: Option<u64>,
    /// Serving threads of the loopback server. Coalescing happens *within*
    /// one serving thread, so 1 gives the widest coalescing domain.
    pub server_threads: usize,
}

impl NetKvParams {
    /// The standard parameterisation over a [`KvParams::mix`] store.
    pub fn new(kv: KvParams) -> Self {
        NetKvParams {
            kv,
            connections: 16,
            client_threads: 0,
            max_in_flight: 8,
            offered_load: None,
            server_threads: 1,
        }
    }

    /// Tiny configuration for unit tests.
    pub fn tiny(kv: KvParams) -> Self {
        NetKvParams {
            kv,
            connections: 4,
            client_threads: 2,
            max_in_flight: 4,
            offered_load: None,
            server_threads: 1,
        }
    }

    fn resolved_client_threads(&self) -> usize {
        match self.client_threads {
            0 => self.connections.clamp(1, 4),
            n => n.min(self.connections.max(1)),
        }
    }
}

/// One connection's generator state: the client plus its outstanding
/// requests (send time and op count, keyed by request-id).
struct OpenLoopConn {
    client: NetClient,
    rng: DetRng,
    in_flight: HashMap<u64, (Instant, u64)>,
}

impl OpenLoopConn {
    /// `true` if the transport says "no reply ready yet" rather than
    /// "something broke".
    fn is_drain_timeout(error: &NetError) -> bool {
        matches!(
            error,
            NetError::Io(e) if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock)
        )
    }

    /// Collects one ready reply, recording its latency and op count.
    /// Returns `false` when no reply arrived within [`DRAIN_TIMEOUT`].
    fn drain_one(&mut self, hist: &mut LatencyHistogram, ops: &AtomicU64) -> bool {
        match self.client.recv() {
            Ok((req_id, result)) => {
                let replies = result.expect("server answered the bench with a typed error");
                let (t0, n) = self
                    .in_flight
                    .remove(&req_id)
                    .expect("reply for an unknown request-id");
                debug_assert_eq!(replies.len() as u64, n);
                hist.record(t0.elapsed());
                ops.fetch_add(n, Ordering::Relaxed);
                true
            }
            Err(e) if Self::is_drain_timeout(&e) => false,
            Err(e) => panic!("load generator transport failed: {e:?}"),
        }
    }
}

fn drive_connections(
    params: &NetKvParams,
    addr: std::net::SocketAddr,
    config: &WorkloadConfig,
    rep: u32,
    dist: &KeyDist,
) -> (crate::harness::Throughput, crate::harness::LatencyHistogram) {
    let client_threads = params.resolved_client_threads();
    run_threads_metrics(
        client_threads,
        config.duration,
        |thread, stop, ops, hist| {
            // This thread owns every `client_threads`-th connection.
            let mut conns: Vec<OpenLoopConn> = (thread..params.connections)
                .step_by(client_threads)
                .map(|conn_index| {
                    let mut client =
                        NetClient::connect(addr).expect("load generator connect failed");
                    client
                        .set_read_timeout(Some(DRAIN_TIMEOUT))
                        .expect("setting the drain timeout failed");
                    OpenLoopConn {
                        client,
                        rng: DetRng::new(
                            config.seed ^ (conn_index as u64 + 1) ^ (u64::from(rep) << 32),
                        ),
                        in_flight: HashMap::new(),
                    }
                })
                .collect();
            if conns.is_empty() {
                return;
            }
            // Open-loop pacing: this thread's share of the offered load.
            let interarrival = params.offered_load.map(|rate| {
                let per_thread = (rate as f64 / client_threads as f64).max(1.0);
                Duration::from_secs_f64(1.0 / per_thread)
            });
            let mut next_send = Instant::now();
            let mut cursor = 0usize;
            while !stop.load(Ordering::Relaxed) {
                // 1. Issue: fill windows (peak mode) or follow the schedule
                // (paced mode). Paced sends round-robin across connections.
                loop {
                    if let Some(gap) = interarrival {
                        let now = Instant::now();
                        if now < next_send {
                            break;
                        }
                        // After a stall, re-anchor rather than bursting the
                        // entire backlog at once.
                        if now > next_send + Duration::from_millis(100) {
                            next_send = now;
                        }
                        next_send += gap;
                    }
                    let Some(conn) = (0..conns.len())
                        .map(|i| (cursor + i) % conns.len())
                        .find(|&i| conns[i].in_flight.len() < params.max_in_flight)
                    else {
                        // Every window is full: offered load exceeds service
                        // rate; the open loop sheds by skipping the slot.
                        break;
                    };
                    cursor = (conn + 1) % conns.len();
                    let conn = &mut conns[conn];
                    let batch = generate_batch(&mut conn.rng, dist, &params.kv);
                    let n = batch.len() as u64;
                    let req_id = conn.client.send(&batch).expect("request send failed");
                    conn.in_flight.insert(req_id, (Instant::now(), n));
                    if interarrival.is_none() {
                        // Peak mode: keep filling until every window is full.
                        if conns
                            .iter()
                            .all(|c| c.in_flight.len() >= params.max_in_flight)
                        {
                            break;
                        }
                    } else if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                // 2. Drain: collect whatever replies are ready on each
                // connection with outstanding requests.
                for conn in &mut conns {
                    while !conn.in_flight.is_empty() && conn.drain_one(hist, ops) {}
                }
            }
            // 3. Tail drain: the window closed, but requests issued inside it
            // are still being served (one coalesced durable batch can outlive a
            // short window). Keep collecting their replies for a bounded grace
            // period — the harness clocks elapsed time after this, so the tail
            // is inside the throughput denominator.
            let deadline = Instant::now() + TAIL_DRAIN_BUDGET;
            while conns.iter().any(|c| !c.in_flight.is_empty()) && Instant::now() < deadline {
                for conn in &mut conns {
                    while !conn.in_flight.is_empty() && conn.drain_one(hist, ops) {}
                }
            }
        },
    )
}

/// Measures the networked KV workload on runtime `R`: boots the store
/// (durable when [`KvParams::durable`] is set), serves it on an ephemeral
/// loopback port, and drives it with the open-loop generator. The returned
/// metrics carry the txobs network-front-end delta of the measured window
/// (and the WAL delta for durable runs).
pub fn measure<R: TxRuntime>(params: &NetKvParams, config: &WorkloadConfig) -> RunMetrics {
    let net_config = NetServerConfig {
        threads: params.server_threads.max(1),
        ..NetServerConfig::default()
    };
    average_metrics(config.repetitions, |rep| match params.kv.durable {
        Some(durability) => {
            let (_dir, store) = boot_durable::<R>(&params.kv, durability.fsync);
            let store = Arc::new(store);
            let net = NetServer::serve_durable(Arc::clone(&store), ("127.0.0.1", 0), &net_config)
                .expect("binding the loopback bench server failed");
            measure_served(store.server(), net, params, config, rep)
        }
        None => {
            let server = Arc::new(KvServer::<R>::new(&params.kv.server_config()));
            populate(&server, &params.kv);
            let net = NetServer::serve(Arc::clone(&server), ("127.0.0.1", 0), &net_config)
                .expect("binding the loopback bench server failed");
            measure_served(&server, net, params, config, rep)
        }
    })
}

/// Measures one repetition against `net`, which serves `server`'s store.
/// The STM, network (and, for a durable run, WAL) counters are windowed to
/// the measured phase; the txobs deltas are process-wide, so they are exact
/// while tmbench's scenario matrix runs sequentially.
fn measure_served<R: TxRuntime>(
    server: &KvServer<R>,
    net: NetServer,
    params: &NetKvParams,
    config: &WorkloadConfig,
    rep: u32,
) -> RunMetrics {
    let dist = KeyDist::new(&params.kv);
    let stats_before = server.stats();
    let wal_before = txobs::metrics::wal().snapshot();
    let net_before = txobs::metrics::net().snapshot();
    let (throughput, latency) = drive_connections(params, net.addr(), config, rep, &dist);
    let stats = server.stats().delta_since(&stats_before);
    let wal_delta = txobs::metrics::wal().snapshot().delta_since(&wal_before);
    let net_delta = txobs::metrics::net().snapshot().delta_since(&net_before);
    net.shutdown();
    let metrics = RunMetrics::new(throughput, latency, stats).with_net(net_delta);
    match params.kv.durable {
        Some(_) => metrics.with_wal(wal_delta),
        None => metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{FsyncPolicy, KvDurability, KvMix};
    use swisstm::SwisstmRuntime;
    use tlstm::TlstmRuntime;
    use txmem::SeqRefRuntime;

    #[test]
    fn open_loop_generator_makes_progress_on_every_runtime() {
        let config = WorkloadConfig::quick();
        let params = NetKvParams::tiny(KvParams::tiny(KvMix::A));
        let m = measure::<SwisstmRuntime>(&params, &config);
        assert!(m.throughput.ops > 0, "swisstm made no progress");
        let net = m.net.expect("net workloads carry the net delta");
        assert!(net.replies > 0);
        assert!(net.coalesced_batches > 0);
        assert!(net.mean_coalesced_requests() >= 1.0);
        let m = measure::<TlstmRuntime>(&params, &config);
        assert!(m.throughput.ops > 0, "tlstm made no progress");
        let m = measure::<SeqRefRuntime>(&params, &config);
        assert!(m.throughput.ops > 0, "seqref made no progress");
    }

    #[test]
    fn durable_net_path_logs_batches() {
        let config = WorkloadConfig::quick();
        let params = NetKvParams::tiny(KvParams {
            durable: Some(KvDurability {
                fsync: FsyncPolicy::None,
            }),
            ..KvParams::tiny(KvMix::A)
        });
        let m = measure::<SwisstmRuntime>(&params, &config);
        assert!(m.throughput.ops > 0, "durable net path made no progress");
        let wal = m.wal.expect("durable runs carry the WAL delta");
        assert!(wal.enqueued > 0, "writes over the wire must reach the WAL");
        assert!(m.net.expect("net delta").replies > 0);
    }

    #[test]
    fn offered_load_paces_the_generator() {
        // At a deliberately low offered load the generator must stay well
        // under peak: the completed request count tracks the schedule.
        let config = WorkloadConfig {
            duration: Duration::from_millis(200),
            ..WorkloadConfig::quick()
        };
        let rate = 200; // requests/s → ~40 requests in 200 ms
        let params = NetKvParams {
            offered_load: Some(rate),
            ..NetKvParams::tiny(KvParams::tiny(KvMix::C))
        };
        let m = measure::<SeqRefRuntime>(&params, &config);
        let requests = m.throughput.ops / params.kv.ops_per_txn as u64;
        // Generous upper bound: the schedule allows rate × duration requests
        // (plus one window); peak mode on loopback would complete orders of
        // magnitude more.
        let scheduled = rate * 200 / 1000;
        assert!(
            requests <= scheduled + (params.connections * params.max_in_flight) as u64 + 8,
            "paced run completed {requests} requests, schedule allows ~{scheduled}"
        );
        assert!(requests > 0, "paced run made no progress");
    }
}
