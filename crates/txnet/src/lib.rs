//! # txnet — the network serving front-end
//!
//! Turns the in-process [`txkv`] store into a middleware something can call
//! over a wire: a pipelined, length-prefixed binary protocol served by a
//! hand-rolled thread-per-core nonblocking TCP server, generic over any
//! [`txmem::TxRuntime`].
//!
//! ```text
//!   clients ──TCP──▶ serving thread ──┐
//!   clients ──TCP──▶ serving thread ──┤   coalesced drain:
//!                      poll loop      │   one KvSession::batch
//!                      (accept/read/  ├─▶ (durable: one LSN, one
//!                       decode/flush) │    WAL ticket) per iteration
//!   clients ──TCP──▶ serving thread ──┘
//! ```
//!
//! Three pieces:
//!
//! * [`frame`] — the wire framing: `magic "TXNT" | len | request-id | crc |
//!   payload`, reusing [`txlog::frame`]'s CRC idiom (the CRC covers
//!   `len | request-id | payload` via the shared [`txlog::crc32_parts`]), so
//!   torn and bit-flipped frames are detected exactly like torn WAL tails.
//! * [`proto`] — request/reply payload codecs mirroring [`txkv::ops`]
//!   one-to-one; decoders never panic on arbitrary bytes and classify every
//!   violation as frame-level (close) or payload-level (typed error reply on
//!   the live connection) via [`ProtocolError::is_frame_level`].
//! * [`server`] / [`client`] — the nonblocking readiness-loop server whose
//!   serving threads **coalesce** every request decoded in one round
//!   (across all of the thread's connections) into a single
//!   [`txkv::KvSession::batch`] call — N clients share one STM commit and,
//!   on the durable path, one group-commit fsync ticket — and
//!   the blocking pipelined client the open-loop load generator drives.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod error;
pub mod frame;
pub mod proto;
pub mod server;

pub use client::NetClient;
pub use error::{NetError, ProtocolError, RemoteError};
pub use frame::{
    decode_frame, encode_frame, encode_frame_into, FrameDecode, DEFAULT_MAX_FRAME_LEN,
    FRAME_HEADER_LEN, FRAME_MAGIC,
};
pub use proto::{
    decode_reply, decode_request, encode_err_reply, encode_ok_reply, encode_request, ERR_WAL,
    PROTO_VERSION,
};
pub use server::{NetServer, NetServerConfig};
