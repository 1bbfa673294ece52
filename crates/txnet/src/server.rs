//! The serving front-end: a hand-rolled thread-per-core nonblocking TCP
//! server with **server-side batch coalescing**.
//!
//! Each serving thread owns a nonblocking clone of the listener and a private
//! set of connections, and runs rounds of a small readiness loop:
//!
//! 1. accept any pending connections (the kernel hands each one to exactly
//!    one accepting thread);
//! 2. read each connection once and decode its complete request frames (a
//!    half-closed connection is no longer read, but the frames it sent
//!    before its EOF are still decoded and answered);
//! 3. **coalesce** all requests decoded this round — across all of the
//!    thread's connections — into one [`KvSession::batch`] call and split
//!    the replies back per request with [`split_replies`]. Served from a
//!    [`DurableKvStore`], the session is linked to its write-ahead log, so
//!    the coalesced batch carries one commit sequence number, one redo
//!    record and one group-commit ticket;
//! 4. fan the replies back out by request-id and flush writable connections.
//!
//! A round that finds no work blocks in `poll(2)` until the listener has a
//! pending connection, a connection has bytes to read, or a connection with
//! unflushed replies can take more. The thread never blocks while a
//! connection it may serve still buffers a complete frame.
//!
//! Step 3 is the point of the design: N clients' concurrent batches share a
//! single STM commit and a single WAL acknowledgement, which is the
//! group-commit WAL's design point — fsync cost amortises across every
//! request that arrived during the previous sync window.
//!
//! Every connection's buffers are bounded. A round reads at most one 64 KiB
//! chunk from a connection, and none while it already buffers that much
//! undecoded input (unless that input is the head of one larger frame). A
//! connection whose peer leaves 1 MiB of replies unread is neither read nor
//! decoded until the peer catches up. Excess input stays in the kernel's
//! socket buffers, so TCP backpressure holds back the sender. The bytes held
//! are the `buffered_bytes` gauge of [`txobs::metrics::NetMetrics`].
//!
//! Error containment follows [`ProtocolError::is_frame_level`]: a corrupt
//! frame closes the connection cleanly (after flushing queued replies); a
//! CRC-valid but undecodable request is answered on the live connection with
//! a typed error reply. A durability failure answers every coalesced request
//! with an [`crate::proto::ERR_WAL`] error reply; connections stay open and
//! later read-only batches keep serving (mirroring the degraded-mode
//! contract of [`KvSession::batch`]).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use txkv::{split_replies, DurableKvStore, KvOp, KvServer, KvSession};
use txmem::TxRuntime;

use crate::error::ProtocolError;
use crate::frame::{decode_frame, encode_frame_into, FrameDecode, DEFAULT_MAX_FRAME_LEN};
use crate::proto;

/// Bytes a round reads from one connection, and the undecoded input at which
/// a connection is no longer read until its frames are decoded.
const READ_CHUNK: usize = 64 * 1024;

/// Unflushed reply bytes at which a connection is neither read nor decoded
/// until its peer reads some of them.
const WRITE_BUF_CAP: usize = 1 << 20;

/// The longest an idle round blocks in `poll(2)`. Work wakes the thread at
/// once; the timeout only bounds how late [`NetServer::shutdown`] is seen.
const IDLE_WAIT_MS: i32 = 10;

/// Configuration of a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Serving threads. Defaults to one per core (`available_parallelism`) —
    /// coalescing happens *within* a thread, so fewer threads mean wider
    /// coalescing and more threads mean more parallel commits.
    pub threads: usize,
    /// Upper bound on a request frame's payload length.
    pub max_frame_len: u32,
    /// Upper bound on requests coalesced into one store batch. The batch
    /// executes as a single transaction (and a single WAL ticket), so this
    /// bounds commit latency when many connections are readable at once.
    /// Requests past the window wait for later rounds, scanned from a
    /// rotating start so no connection starves. While they wait, a
    /// connection takes at most one 64 KiB read per round and none while it
    /// buffers that much undecoded input, so the rest stays in the kernel's
    /// socket buffers and TCP backpressure slows the sender.
    pub max_coalesced_requests: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            threads: std::thread::available_parallelism().map_or(1, usize::from),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            max_coalesced_requests: 64,
        }
    }
}

/// A running network server: serving threads plus the bound address.
/// Dropping the handle shuts the server down and joins the threads.
#[derive(Debug)]
pub struct NetServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Serves the in-memory [`KvServer`] on `addr` (use port 0 for an
    /// ephemeral loopback port; the bound address is [`NetServer::addr`]).
    ///
    /// # Errors
    ///
    /// Propagates socket setup failures (bind, nonblocking mode, clone).
    pub fn serve<R: TxRuntime>(
        server: Arc<KvServer<R>>,
        addr: impl ToSocketAddrs,
        config: &NetServerConfig,
    ) -> io::Result<NetServer> {
        Self::start(move || server.session(), addr, config)
    }

    /// Serves the durable [`DurableKvStore`] on `addr`: every acknowledged
    /// write reply is durable per the store's fsync policy, and coalesced
    /// requests share one WAL ticket.
    ///
    /// # Errors
    ///
    /// See [`NetServer::serve`].
    pub fn serve_durable<R: TxRuntime>(
        store: Arc<DurableKvStore<R>>,
        addr: impl ToSocketAddrs,
        config: &NetServerConfig,
    ) -> io::Result<NetServer> {
        Self::start(move || store.session(), addr, config)
    }

    /// Binds `addr` and spawns the serving threads; each opens its own
    /// session from `sessions` (sessions are per-thread handles).
    fn start<R: TxRuntime>(
        sessions: impl Fn() -> KvSession<R> + Send + Sync + 'static,
        addr: impl ToSocketAddrs,
        config: &NetServerConfig,
    ) -> io::Result<NetServer> {
        let sessions = Arc::new(sessions);
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let n_threads = config.threads.max(1);
        let mut threads = Vec::with_capacity(n_threads);
        for worker in 0..n_threads {
            let listener = listener.try_clone()?;
            let sessions = Arc::clone(&sessions);
            let shutdown = Arc::clone(&shutdown);
            let config = config.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("txnet-serve-{worker}"))
                    .spawn(move || serve_loop(listener, sessions(), &shutdown, &config))
                    .expect("spawning a serving thread failed"),
            );
        }
        Ok(NetServer {
            addr,
            shutdown,
            threads,
        })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the serving threads to stop and joins them. Open connections
    /// are dropped; in-flight replies that were already queued are flushed
    /// by the final round before the flag is observed.
    pub fn shutdown(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// One connection's state inside a serving thread.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet decoded: at most one partial frame after a
    /// decode pass, unless the coalescing window filled first or the
    /// connection is held back by [`WRITE_BUF_CAP`].
    read_buf: Vec<u8>,
    /// Encoded reply frames not yet accepted by the socket.
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written.
    written: usize,
    /// `false` once the connection is condemned (EOF, I/O error, or a
    /// frame-level protocol violation): it is never read again, but its
    /// buffered complete frames are still executed and every queued reply
    /// is flushed before the connection is dropped.
    open: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            open: true,
        }
    }

    fn queue_reply(&mut self, req_id: u64, payload: &[u8]) {
        txobs::trace::trace(txobs::EventKind::NetWrite, payload.len() as u64);
        txobs::metrics::net().replies.inc();
        encode_frame_into(&mut self.write_buf, req_id, payload);
    }

    /// Writes as much of the queued reply bytes as the socket accepts.
    fn flush(&mut self) {
        while self.written < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.written..]) {
                Ok(0) => {
                    // The peer is gone: discard what it will never read.
                    self.open = false;
                    self.written = self.write_buf.len();
                    break;
                }
                Ok(n) => {
                    self.written += n;
                    txobs::metrics::net().bytes_out.add(n as u64);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.open = false;
                    self.written = self.write_buf.len();
                    break;
                }
            }
        }
        if self.flushed() {
            self.write_buf.clear();
            self.written = 0;
        } else if self.written >= WRITE_BUF_CAP {
            // A peer that reads slowly but never catches up must not grow
            // the buffer through its written prefix.
            self.write_buf.drain(..self.written);
            self.written = 0;
        }
    }

    fn flushed(&self) -> bool {
        self.written == self.write_buf.len()
    }

    fn unflushed(&self) -> usize {
        self.write_buf.len() - self.written
    }

    /// The peer has left [`WRITE_BUF_CAP`] reply bytes unread: the
    /// connection is neither read nor decoded until it reads some.
    fn held_back(&self) -> bool {
        self.unflushed() >= WRITE_BUF_CAP
    }

    /// Whether a read may add to `read_buf`: the connection is open and
    /// buffers less than one read chunk, or only the head of a larger frame.
    fn wants_bytes(&self, max_frame_len: u32) -> bool {
        self.open
            && (self.read_buf.len() < READ_CHUNK
                || matches!(
                    decode_frame(&self.read_buf, max_frame_len),
                    Ok(FrameDecode::Incomplete)
                ))
    }

    /// The `poll(2)` events that mean this connection has work.
    fn interest(&self, max_frame_len: u32) -> i16 {
        let mut events = 0;
        // Never POLLIN on a condemned connection: its EOF stays readable.
        if !self.held_back() && self.wants_bytes(max_frame_len) {
            events |= sys::POLLIN;
        }
        if !self.flushed() {
            events |= sys::POLLOUT;
        }
        events
    }
}

/// The readiness loop of one serving thread.
fn serve_loop<R: TxRuntime>(
    listener: TcpListener,
    mut session: KvSession<R>,
    shutdown: &AtomicBool,
    config: &NetServerConfig,
) {
    let net = txobs::metrics::net();
    let max_coalesced = config.max_coalesced_requests.max(1);
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    // Reused across rounds: the routes (connection, request-id) and the
    // decoded request batches of one coalesced drain, index-aligned.
    let mut routes: Vec<(usize, u64)> = Vec::new();
    let mut requests: Vec<Vec<KvOp>> = Vec::new();
    let mut interest: Vec<sys::PollFd> = Vec::new();
    // This thread's share of the `buffered_bytes` gauge.
    let mut buffered = 0usize;
    // Where the read/decode scan starts, advanced every round: when the
    // coalescing window fills before the scan completes, the connections
    // that were skipped go first next time.
    let mut scan_start = 0usize;
    while !shutdown.load(Ordering::Acquire) {
        let mut busy = false;

        // 1. Accept. After a hard error (e.g. EMFILE) the pending
        // connection stays readable, so the listener sits out one wait.
        let mut accept_failed = false;
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    busy = true;
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    net.connections.add(1);
                    conns.push(Conn::new(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    accept_failed = true;
                    break;
                }
            }
        }

        // 2. Read and decode, scanning from a rotating start.
        routes.clear();
        requests.clear();
        let n_conns = conns.len();
        scan_start = if n_conns == 0 {
            0
        } else {
            (scan_start + 1) % n_conns
        };
        for step in 0..n_conns {
            let index = (scan_start + step) % n_conns;
            let conn = &mut conns[index];
            // The coalescing window is full, or the peer is not reading its
            // replies: leave this connection's bytes in the kernel buffer
            // (backpressure) for a later round.
            if requests.len() >= max_coalesced || conn.held_back() {
                continue;
            }
            // A condemned connection is not read again, but the complete
            // frames it already buffered are still decoded (over as many
            // rounds as the window needs), executed and answered.
            if conn.wants_bytes(config.max_frame_len) {
                match conn.stream.read(&mut scratch) {
                    // EOF: a half-closed peer still reads its replies.
                    Ok(0) => conn.open = false,
                    Ok(n) => {
                        busy = true;
                        net.bytes_in.add(n as u64);
                        conn.read_buf.extend_from_slice(&scratch[..n]);
                    }
                    // Nothing to read, or interrupted: the next wait
                    // reports the socket once it has bytes.
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                        ) => {}
                    Err(_) => conn.open = false,
                }
            }
            let mut offset = 0usize;
            loop {
                if requests.len() >= max_coalesced {
                    // Window full mid-connection: the undecoded tail stays
                    // in `read_buf` for the next round.
                    break;
                }
                match decode_frame(&conn.read_buf[offset..], config.max_frame_len) {
                    Ok(FrameDecode::Frame {
                        req_id,
                        payload,
                        consumed,
                    }) => {
                        offset += consumed;
                        txobs::trace::trace(txobs::EventKind::NetRead, payload.len() as u64);
                        net.requests.inc();
                        match proto::decode_request(&payload) {
                            Ok(ops) => {
                                routes.push((index, req_id));
                                requests.push(ops);
                            }
                            Err(error) => {
                                // Payload-level: typed error reply, live
                                // connection.
                                debug_assert!(!error.is_frame_level());
                                net.protocol_errors.inc();
                                conn.queue_reply(
                                    req_id,
                                    &proto::encode_err_reply(error.wire_code(), &error.to_string()),
                                );
                            }
                        }
                    }
                    Ok(FrameDecode::Incomplete) => {
                        if !conn.open {
                            // A partial frame that can never complete.
                            conn.read_buf.clear();
                            offset = 0;
                        }
                        break;
                    }
                    Err(error) => {
                        // Frame-level: the stream is desynced; close after
                        // flushing whatever replies are already queued.
                        let _: ProtocolError = error;
                        net.protocol_errors.inc();
                        conn.open = false;
                        conn.read_buf.clear();
                        offset = 0;
                        break;
                    }
                }
            }
            if offset > 0 {
                conn.read_buf.drain(..offset);
            }
        }

        // 3. Coalesce: every request decoded this round — across all of
        // this thread's connections — executes as ONE store batch.
        if !requests.is_empty() {
            busy = true;
            txobs::trace::trace(txobs::EventKind::NetBatch, requests.len() as u64);
            net.coalesced_batches.inc();
            net.coalesced_requests.add(requests.len() as u64);
            let lens: Vec<usize> = requests.iter().map(Vec::len).collect();
            match session.batch(requests.drain(..).flatten().collect()) {
                Ok(replies) => {
                    let replies = split_replies(&lens, replies);
                    for (&(index, req_id), reply) in routes.iter().zip(&replies) {
                        conns[index].queue_reply(req_id, &proto::encode_ok_reply(reply));
                    }
                }
                Err(wal) => {
                    // The whole coalesced batch failed to (or was refused
                    // before) commit; answer every request with the typed
                    // durability error and keep serving.
                    let reply = proto::encode_err_reply(proto::ERR_WAL, &wal.to_string());
                    for &(index, req_id) in &routes {
                        conns[index].queue_reply(req_id, &reply);
                    }
                }
            }
        }

        // 4. Flush and reap. A connection released from backpressure may
        // buffer frames it was not allowed to decode: serve them at once.
        let before = conns.len();
        for conn in &mut conns {
            let held_back = conn.held_back();
            conn.flush();
            busy |= held_back && !conn.held_back();
        }
        conns.retain(|conn| conn.open || !conn.read_buf.is_empty() || !conn.flushed());
        net.connections.sub((before - conns.len()) as u64);
        let now_buffered: usize = conns
            .iter()
            .map(|conn| conn.read_buf.len() + conn.unflushed())
            .sum();
        if now_buffered > buffered {
            net.buffered_bytes.add((now_buffered - buffered) as u64);
        } else {
            net.buffered_bytes.sub((buffered - now_buffered) as u64);
        }
        buffered = now_buffered;

        if !busy {
            debug_assert!(
                conns.iter().all(|conn| conn.held_back()
                    || !matches!(
                        decode_frame(&conn.read_buf, config.max_frame_len),
                        Ok(FrameDecode::Frame { .. })
                    )),
                "an idle round left a servable complete frame buffered"
            );
            interest.clear();
            if !accept_failed {
                interest.push(sys::PollFd::new(&listener, sys::POLLIN));
            }
            for conn in &conns {
                interest.push(sys::PollFd::new(
                    &conn.stream,
                    conn.interest(config.max_frame_len),
                ));
            }
            sys::wait(&mut interest, IDLE_WAIT_MS);
        }
    }
    net.connections.sub(conns.len() as u64);
    net.buffered_bytes.sub(buffered as u64);
}

#[cfg(not(unix))]
compile_error!("the txnet serving loop waits in poll(2), which needs a unix target");

/// The `poll(2)` binding: the workspace has no `libc` crate.
#[cfg(unix)]
mod sys {
    use std::ffi::{c_int, c_short, c_ulong};
    use std::os::fd::AsRawFd;

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;

    /// `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    impl PollFd {
        pub fn new(socket: &impl AsRawFd, events: c_short) -> PollFd {
            PollFd {
                fd: socket.as_raw_fd(),
                events,
                revents: 0,
            }
        }
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Blocks until one of `fds` is ready for its events, or for
    /// `timeout_ms`. Errors and interruptions return early: the caller
    /// re-checks every socket in its next round either way.
    pub fn wait(fds: &mut [PollFd], timeout_ms: c_int) {
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` `struct pollfd` entries, and `nfds` is its length, so
        // the kernel reads and writes only memory the slice owns. The
        // descriptors stay open for the call: the caller holds their sockets.
        unsafe {
            poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms);
        }
    }
}
