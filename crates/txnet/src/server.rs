//! The serving front-end: a hand-rolled thread-per-core nonblocking TCP
//! server with **server-side batch coalescing**.
//!
//! Each serving thread owns a nonblocking clone of the listener and a private
//! set of connections, and runs a small readiness poll loop:
//!
//! 1. accept any pending connections (the kernel hands each one to exactly
//!    one accepting thread);
//! 2. drain every readable connection's bytes and decode complete request
//!    frames (a half-closed connection is no longer read, but the frames it
//!    sent before its EOF are still decoded and answered);
//! 3. **coalesce** all requests decoded this iteration — across all of the
//!    thread's connections — into one [`KvSession::batch`] call and split
//!    the replies back per request with [`split_replies`]. Served from a
//!    [`DurableKvStore`], the session is linked to its write-ahead log, so
//!    the coalesced batch carries one commit sequence number, one redo
//!    record and one group-commit ticket;
//! 4. fan the replies back out by request-id and flush writable connections.
//!
//! Step 3 is the point of the design: N clients' concurrent batches share a
//! single STM commit and a single WAL acknowledgement, which is the
//! group-commit WAL's design point — fsync cost amortises across every
//! request that arrived during the previous sync window.
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
use std::time::Duration;

use txkv::{split_replies, DurableKvStore, KvOp, KvServer, KvSession};
use txmem::TxRuntime;

use crate::error::ProtocolError;
use crate::frame::{decode_frame, encode_frame_into, FrameDecode, DEFAULT_MAX_FRAME_LEN};
use crate::proto;

/// Configuration of a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Serving threads. Defaults to one per core (`available_parallelism`) —
    /// coalescing happens *within* a thread, so fewer threads mean wider
    /// coalescing and more threads mean more parallel commits.
    pub threads: usize,
    /// Upper bound on a request frame's payload length.
    pub max_frame_len: u32,
    /// How long an idle serving thread sleeps between poll iterations.
    pub idle_sleep: Duration,
    /// Upper bound on requests coalesced into one store batch. The batch
    /// executes as a single transaction (and a single WAL ticket), so this
    /// bounds commit latency when many connections are readable at once;
    /// excess requests stay in the kernel's socket buffers — TCP
    /// backpressure — and execute in subsequent iterations, scanned from a
    /// rotating start so no connection starves.
    pub max_coalesced_requests: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            threads: std::thread::available_parallelism().map_or(1, usize::from),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            idle_sleep: Duration::from_micros(200),
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
    /// by the final poll iteration before the flag is observed.
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
    /// decode pass, unless the coalescing window filled first.
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
        if self.written == self.write_buf.len() && self.written > 0 {
            self.write_buf.clear();
            self.written = 0;
        }
    }

    fn flushed(&self) -> bool {
        self.written == self.write_buf.len()
    }
}

/// The poll loop of one serving thread.
fn serve_loop<R: TxRuntime>(
    listener: TcpListener,
    mut session: KvSession<R>,
    shutdown: &AtomicBool,
    config: &NetServerConfig,
) {
    let net = txobs::metrics::net();
    let max_coalesced = config.max_coalesced_requests.max(1);
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    // Reused across iterations: the routes (connection, request-id) and the
    // decoded request batches of one coalesced drain, index-aligned.
    let mut routes: Vec<(usize, u64)> = Vec::new();
    let mut requests: Vec<Vec<KvOp>> = Vec::new();
    // Where the read/decode scan starts, advanced every iteration: when the
    // coalescing window fills before the scan completes, the connections
    // that were skipped go first next time.
    let mut scan_start = 0usize;
    while !shutdown.load(Ordering::Acquire) {
        let mut busy = false;

        // 1. Accept.
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
                Err(_) => break,
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
            // The coalescing window is full: leave this connection's bytes
            // in the kernel buffer (backpressure) for a later iteration.
            if requests.len() >= max_coalesced {
                continue;
            }
            // A condemned connection is not read again, but the complete
            // frames it already buffered are still decoded (over as many
            // iterations as the window needs), executed and answered.
            while conn.open {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        // EOF: a half-closed peer still reads its replies.
                        conn.open = false;
                        break;
                    }
                    Ok(n) => {
                        busy = true;
                        net.bytes_in.add(n as u64);
                        conn.read_buf.extend_from_slice(&scratch[..n]);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.open = false;
                        break;
                    }
                }
            }
            let mut offset = 0usize;
            loop {
                if requests.len() >= max_coalesced {
                    // Window full mid-connection: the undecoded tail stays
                    // in `read_buf` for the next iteration.
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

        // 3. Coalesce: every request decoded this iteration — across all of
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

        // 4. Flush and reap.
        let before = conns.len();
        for conn in &mut conns {
            conn.flush();
        }
        conns.retain(|conn| conn.open || !conn.read_buf.is_empty() || !conn.flushed());
        net.connections.sub((before - conns.len()) as u64);

        if !busy {
            std::thread::sleep(config.idle_sleep);
        }
    }
    txobs::metrics::net().connections.sub(conns.len() as u64);
}
