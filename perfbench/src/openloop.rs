//! The open-loop load generator: one thread, a fixed schedule, pipelined
//! connections.
//!
//! Request `i` of a phase is due at `start + i / rate`. The schedule is never
//! re-anchored: when the generator or the server stalls, later requests go
//! out late and their latency, measured from the due time, shows the stall.
//! Every scheduled request is sent; none is dropped for a full window. How
//! late the generator ran is reported as its own number (`lag`).

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::SocketAddr;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use txkv::{KvOp, KvReply};
use txnet::{NetClient, NetError};

use crate::gen::{value_ok, Class, Request};
use crate::stats::Samples;
use crate::trace;

mod sys {
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    pub const POLLIN: i16 = 1;
    pub const PR_SET_TIMERSLACK: i32 = 29;

    extern "C" {
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const u8,
        ) -> i32;
        pub fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
}

/// Waits until one of `fds` is readable or `timeout` passes.
fn wait_readable(fds: &[i32], timeout: Duration) {
    let mut polls: Vec<sys::PollFd> = fds
        .iter()
        .map(|&fd| sys::PollFd {
            fd,
            events: sys::POLLIN,
            revents: 0,
        })
        .collect();
    let ts = sys::Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `polls` is a live, correctly laid out `struct pollfd` array of
    // `polls.len()` entries, `ts` outlives the call, and a null signal mask
    // leaves the mask unchanged. The result only tells us to poll again.
    unsafe {
        sys::ppoll(
            polls.as_mut_ptr(),
            polls.len() as u64,
            &ts,
            std::ptr::null(),
        );
    }
}

/// Lowers the calling thread's timer slack to 1 ns so `ppoll` wakes on
/// time for the next due request.
pub fn tight_timers() {
    // SAFETY: PR_SET_TIMERSLACK takes a plain integer and touches no memory.
    unsafe {
        sys::prctl(sys::PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

#[derive(Debug)]
struct Pending {
    due: Instant,
    class: Class,
    ops: Vec<KvOp>,
}

/// One pipelined client connection.
#[derive(Debug)]
pub struct Conn {
    client: NetClient,
    fd: i32,
    nonblocking: bool,
    pending: HashMap<u64, Pending>,
    /// Requests given up at an earlier drain deadline; their late replies
    /// are ignored.
    abandoned: HashSet<u64>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let mut client = NetClient::connect(addr)?;
        let fd = client.stream().as_raw_fd();
        Ok(Conn {
            client,
            fd,
            nonblocking: false,
            pending: HashMap::new(),
            abandoned: HashSet::new(),
        })
    }

    fn set_nonblocking(&mut self, on: bool) -> io::Result<()> {
        if self.nonblocking != on {
            self.client.stream().set_nonblocking(on)?;
            self.nonblocking = on;
        }
        Ok(())
    }
}

/// Checks one reply against its request. Every key `0..records` exists and
/// every stored value verifies itself, so no model of the store is needed.
fn reply_ok(ops: &[KvOp], replies: &[KvReply], records: u64) -> bool {
    ops.len() == replies.len()
        && ops
            .iter()
            .zip(replies)
            .all(|(op, reply)| match (op, reply) {
                (KvOp::Get { key }, KvReply::Value(Some(v))) => value_ok(*key, v),
                (KvOp::Put { .. }, KvReply::Inserted(fresh)) => !fresh,
                (KvOp::Scan { lo, hi, limit }, KvReply::Scan(entries)) => {
                    let want = (*lo..(*hi).min(records)).take(*limit as usize);
                    entries.len() as u64 <= *limit && entries.iter().map(|e| e.0).eq(want)
                }
                _ => false,
            })
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct PhaseOut {
    pub attempted: u64,
    pub answered: u64,
    /// Typed error replies.
    pub errors: u64,
    /// Replies that did not match their request.
    pub wrong: u64,
    /// Requests with no reply by the drain deadline.
    pub unanswered: u64,
    pub latency: [Samples; 2],
    pub lag: Samples,
    pub send: Samples,
    pub ops: u64,
    pub puts: u64,
    /// From the phase start to the last reply.
    pub elapsed: Duration,
    last_reply: Option<Instant>,
    pub transport: Option<String>,
}

impl PhaseOut {
    pub fn failed(&self) -> u64 {
        self.errors + self.wrong + self.unanswered
    }

    pub fn all(&self) -> Samples {
        let mut all = self.latency[0].clone();
        all.extend(&self.latency[1]);
        all
    }

    /// Replies per second over the phase.
    pub fn completed_rps(&self) -> f64 {
        self.answered as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

fn class_index(class: Class) -> usize {
    match class {
        Class::Read => 0,
        Class::Write => 1,
    }
}

/// How a phase issues requests.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Open loop: request `i` is due at `start + i / rate`, whatever the
    /// replies do.
    Open { rate: f64 },
    /// Closed loop: every connection keeps `window` requests in flight, and
    /// each reply lets the next request go. A request is due when sent.
    Closed { window: usize },
}

/// Sends one generated request on `conn`, due at `due`.
fn send_one(
    conn: &mut Conn,
    next_request: &mut dyn FnMut() -> Request,
    due: Instant,
    out: &mut PhaseOut,
) -> Result<(), String> {
    let request = next_request();
    out.attempted += 1;
    out.ops += request.ops.len() as u64;
    out.puts += request
        .ops
        .iter()
        .filter(|op| matches!(op, KvOp::Put { .. }))
        .count() as u64;
    conn.set_nonblocking(false).map_err(|e| e.to_string())?;
    let sent_at = Instant::now();
    match conn.client.send(&request.ops) {
        Ok(id) => {
            out.lag.push(sent_at - due);
            out.send.push(sent_at.elapsed());
            conn.pending.insert(
                id,
                Pending {
                    due,
                    class: request.class,
                    ops: request.ops,
                },
            );
            Ok(())
        }
        Err(e) => {
            out.unanswered += 1;
            Err(e.to_string())
        }
    }
}

/// Takes every reply that has arrived on `conn` (connection `index`).
fn take_replies(
    conn: &mut Conn,
    index: usize,
    records: u64,
    out: &mut PhaseOut,
) -> Result<(), String> {
    if conn.pending.is_empty() && conn.abandoned.is_empty() {
        return Ok(());
    }
    conn.set_nonblocking(true).map_err(|e| e.to_string())?;
    loop {
        match conn.client.recv() {
            Ok((id, result)) => {
                let now = Instant::now();
                if conn.abandoned.remove(&id) {
                    continue;
                }
                let Some(p) = conn.pending.remove(&id) else {
                    out.wrong += 1;
                    continue;
                };
                out.last_reply = Some(now);
                trace::record(trace::Kind::Request, p.due, now, id, index as u64);
                match result {
                    Ok(replies) if reply_ok(&p.ops, &replies, records) => {
                        out.answered += 1;
                        out.latency[class_index(p.class)].push(now - p.due);
                    }
                    Ok(_) => out.wrong += 1,
                    Err(_) => out.errors += 1,
                }
            }
            Err(NetError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(())
            }
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// Sends requests from `next_request` over `conns` under `load` for
/// `duration`, then waits up to `drain` for outstanding replies. Open-loop
/// requests go round-robin over the connections.
pub fn run_phase(
    conns: &mut [Conn],
    next_request: &mut dyn FnMut() -> Request,
    records: u64,
    load: Load,
    duration: Duration,
    drain: Duration,
) -> PhaseOut {
    let mut out = PhaseOut::default();
    let fds: Vec<i32> = conns.iter().map(|c| c.fd).collect();
    let start = Instant::now();
    let end = start + duration;
    let deadline = end + drain;
    let (total, period_ns) = match load {
        Load::Open { rate } => ((duration.as_secs_f64() * rate).round() as u64, 1e9 / rate),
        Load::Closed { .. } => (0, 0.0),
    };
    let due_at = |i: u64| start + Duration::from_nanos((i as f64 * period_ns) as u64);
    let mut next = 0u64;
    'phase: loop {
        // 1. Send everything that is due.
        let sending = match load {
            Load::Open { .. } => {
                while next < total && due_at(next) <= Instant::now() {
                    let conn = &mut conns[(next % fds.len() as u64) as usize];
                    if let Err(e) = send_one(conn, next_request, due_at(next), &mut out) {
                        next += 1;
                        out.transport = Some(e);
                        break 'phase;
                    }
                    next += 1;
                }
                next < total
            }
            Load::Closed { window } => {
                let open = Instant::now() < end;
                for conn in conns.iter_mut().filter(|_| open) {
                    while conn.pending.len() < window {
                        if let Err(e) = send_one(conn, next_request, Instant::now(), &mut out) {
                            out.transport = Some(e);
                            break 'phase;
                        }
                    }
                }
                open
            }
        };
        // 2. Take every reply that has arrived.
        for (index, conn) in conns.iter_mut().enumerate() {
            if let Err(e) = take_replies(conn, index, records, &mut out) {
                out.transport = Some(e);
                break 'phase;
            }
        }
        // 3. Done, or wait for the next due time or reply.
        let now = Instant::now();
        let in_flight = conns.iter().any(|c| !c.pending.is_empty());
        if !sending && (!in_flight || now >= deadline) {
            break;
        }
        let wake = match load {
            Load::Open { .. } if sending => due_at(next),
            Load::Closed { .. } if sending => end,
            _ => deadline,
        };
        if wake > now {
            wait_readable(&fds, wake - now);
        }
    }
    for conn in conns.iter_mut() {
        out.unanswered += conn.pending.len() as u64;
        let ids: Vec<u64> = conn.pending.drain().map(|(id, _)| id).collect();
        conn.abandoned.extend(ids);
    }
    // Anything scheduled but never sent (transport failure) is a failure too.
    out.unanswered += total.saturating_sub(next);
    out.attempted += total.saturating_sub(next);
    out.elapsed = out
        .last_reply
        .map_or(Duration::ZERO, |t| t.saturating_duration_since(start));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{value_for, Keys, KvGen, KvMix};
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::sync::mpsc;

    /// A stub server: answers every request correctly, but holds every
    /// reply back while stalled (it keeps reading).
    fn stub(listener: TcpListener, conns: usize, stall_from: Duration, stall_for: Duration) {
        let mut streams: Vec<_> = (0..conns)
            .map(|_| {
                let (s, _) = listener.accept().expect("accept");
                s.set_nonblocking(true).expect("nonblocking");
                (s, Vec::<u8>::new(), Vec::<u8>::new(), true)
            })
            .collect();
        let t0 = Instant::now();
        let mut buf = vec![0u8; 64 * 1024];
        while streams.iter().any(|s| s.3) {
            let now = t0.elapsed();
            let stalled = now >= stall_from && now < stall_from + stall_for;
            for (stream, inbuf, outbuf, open) in streams.iter_mut().filter(|s| s.3) {
                loop {
                    match stream.read(&mut buf) {
                        Ok(0) => {
                            *open = false;
                            break;
                        }
                        Ok(n) => inbuf.extend_from_slice(&buf[..n]),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => {
                            *open = false;
                            break;
                        }
                    }
                }
                let mut used = 0;
                while let Ok(txnet::FrameDecode::Frame {
                    req_id,
                    payload,
                    consumed,
                }) = txnet::decode_frame(&inbuf[used..], txnet::DEFAULT_MAX_FRAME_LEN)
                {
                    used += consumed;
                    let ops = txnet::decode_request(&payload).expect("valid request");
                    let replies: Vec<KvReply> = ops
                        .iter()
                        .map(|op| match op {
                            KvOp::Get { key } => KvReply::Value(Some(value_for(*key, 0))),
                            KvOp::Put { .. } => KvReply::Inserted(false),
                            _ => unreachable!("the test mix has no scans"),
                        })
                        .collect();
                    outbuf.extend(txnet::encode_frame(
                        req_id,
                        &txnet::encode_ok_reply(&replies),
                    ));
                }
                inbuf.drain(..used);
                while !stalled && !outbuf.is_empty() {
                    match stream.write(outbuf) {
                        Ok(n) => {
                            outbuf.drain(..n);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => {
                            *open = false;
                            break;
                        }
                    }
                }
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// Drives 1200 requests at 2000 req/s for 600 ms against a stub that
    /// holds its replies back for `server_stall` from 200 ms on; the request
    /// source itself sleeps `generator_stall` before request 200 (due at
    /// 100 ms).
    fn drive(server_stall: Duration, generator_stall: Duration) -> PhaseOut {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                stub(listener, 2, Duration::from_millis(200), server_stall);
                done_tx.send(()).expect("signal");
            });
            let mut conns = vec![
                Conn::connect(addr).expect("connect"),
                Conn::connect(addr).expect("connect"),
            ];
            let mix = KvMix {
                records: 1024,
                keys: Keys::Uniform,
                read_share: 0.5,
                scan_share: 0.0,
                batch_ops: 4,
                scan_limit: 0,
            };
            let mut gen = KvGen::new(mix, 1);
            let mut made = 0;
            let out = run_phase(
                &mut conns,
                &mut || {
                    made += 1;
                    if made == 201 {
                        std::thread::sleep(generator_stall);
                    }
                    gen.next_request()
                },
                1024,
                Load::Open { rate: 2000.0 },
                Duration::from_millis(600),
                Duration::from_secs(2),
            );
            drop(conns);
            done_rx.recv().expect("stub ends");
            out
        })
    }

    /// Requests whose latency from due time reached `us`.
    fn waited(out: &PhaseOut, us: f64) -> usize {
        let mut all = out.all();
        let n = all.len();
        (0..n)
            .filter(|&i| all.quantile_us(i as f64 / (n - 1) as f64) >= us)
            .count()
    }

    #[test]
    fn a_server_stall_shows_as_latency_not_as_fewer_requests() {
        let calm = drive(Duration::ZERO, Duration::ZERO);
        let stalled = drive(Duration::from_millis(250), Duration::ZERO);
        for out in [&calm, &stalled] {
            assert_eq!(out.attempted, 1200, "every scheduled request is sent");
            assert_eq!(out.answered, 1200, "every request gets exactly one reply");
            assert_eq!(out.failed(), 0);
        }
        // The 300 requests due in the first 150 ms of the stall each wait at
        // least the 100 ms left of it.
        assert!(
            waited(&stalled, 100_000.0) >= 300,
            "{}",
            waited(&stalled, 100_000.0)
        );
        assert_eq!(waited(&calm, 100_000.0), 0);
        // The generator itself kept to its schedule.
        let mut lag = stalled.lag;
        assert!(
            lag.quantile_us(0.99) < 50_000.0,
            "lag p99 {}",
            lag.quantile_us(0.99)
        );
    }

    #[test]
    fn a_generator_stall_is_timed_from_due_time_and_never_re_anchored() {
        let out = drive(Duration::ZERO, Duration::from_millis(150));
        assert_eq!(out.attempted, 1200, "late requests are sent, not dropped");
        assert_eq!(out.answered, 1200);
        // Requests 200..=399 were due 100-200 ms in but went out at about
        // 250 ms: from their due time each waited at least 50 ms. A schedule
        // re-anchored after the stall, or latency timed from the actual send,
        // would hide this.
        assert!(waited(&out, 50_000.0) >= 190, "{}", waited(&out, 50_000.0));
        let mut lag = out.lag;
        assert!(
            lag.quantile_us(1.0) >= 140_000.0,
            "max lag {}",
            lag.quantile_us(1.0)
        );
    }

    #[test]
    fn wrong_replies_are_caught() {
        let ops = vec![
            KvOp::Get { key: 3 },
            KvOp::Scan {
                lo: 10,
                hi: 13,
                limit: 5,
            },
        ];
        let good = vec![
            KvReply::Value(Some(value_for(3, 1))),
            KvReply::Scan(vec![(10, 0), (11, 0), (12, 0)]),
        ];
        assert!(reply_ok(&ops, &good, 100));
        let short_scan = vec![good[0].clone(), KvReply::Scan(vec![(10, 0)])];
        assert!(!reply_ok(&ops, &short_scan, 100));
        let bad_value = vec![KvReply::Value(Some(value_for(4, 1))), good[1].clone()];
        assert!(!reply_ok(&ops, &bad_value, 100));
        assert!(!reply_ok(&ops, &good[..1], 100));
    }
}
