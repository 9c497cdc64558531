//! # offloadnn-net — wire protocol and TCP frontend for the admission service
//!
//! [`offloadnn_serve::Service`] is an in-process runtime: nothing outside
//! its address space can submit a DOT admission request. This crate puts
//! it on the network — std-only, no external runtime — in three layers:
//!
//! * **Codec** ([`codec`]) — a versioned, length-prefixed binary frame
//!   format (`magic + version + type + length + payload + FNV-1a/32
//!   checksum`) carrying Submit / Depart / Snapshot / Drain requests and
//!   Outcome / Metrics / Error responses. Decoding is streaming and
//!   never panics on malformed input: truncation, bad magic, version
//!   skew, hostile length prefixes and corrupted checksums all surface
//!   as typed [`DecodeError`]s.
//! * **Server** — two interchangeable TCP frontends behind the
//!   [`Frontend`] switch (or directly), with identical wire behaviour:
//!   the threaded [`server::NetServer`] (one acceptor, a reader +
//!   writer thread per connection) and the epoll-based
//!   [`async_server::AsyncServer`] (a fixed pool of event loops built
//!   on `offloadnn-reactor`, multiplexing hundreds of connections onto
//!   a handful of threads). Both map request frames onto the backend
//!   through one shared dispatcher, and both serve any [`Backend`]: the
//!   unified [`offloadnn_serve::Admitter`] trait plus the server-side
//!   control plane (resharding, membership, federation, final drain).
//!   Both enforce a bounded per-connection in-flight window
//!   (backpressure propagates through the TCP receive buffer, not
//!   server memory), a connection-count limit, capped backoff on accept
//!   errors, and graceful drain that flushes every in-flight verdict to
//!   its client before closing.
//! * **Client** ([`client`]) — a pipelining client library with
//!   per-request deadline propagation (the client's budget travels in
//!   the frame; the server enforces the *tighter* of it and its own
//!   admission deadline) and reconnect with capped exponential backoff,
//!   plus the `net_loadgen` binary driving a loopback server.
//!
//! Hot paths record through [`offloadnn_telemetry`]: `net.encode` /
//! `net.decode` / `net.rtt` span histograms, per-frame-type `net.tx.*` /
//! `net.rx.*` counters, the `net.conns` gauge, reactor loop counters
//! (`net.epoll.wakeups`, `net.readiness.{read,write}`), and connection
//! lifecycle events.
//!
//! ```no_run
//! use offloadnn_core::scenario::small_scenario;
//! use offloadnn_net::{Client, ClientConfig, NetConfig, NetServer};
//! use offloadnn_serve::ServiceConfig;
//! use std::time::Duration;
//!
//! let scenario = small_scenario(5);
//! let server = NetServer::start(
//!     ("127.0.0.1", 0),
//!     NetConfig::default(),
//!     ServiceConfig::default(),
//!     &scenario.instance,
//! )
//! .unwrap();
//!
//! let client = Client::connect(server.local_addr(), ClientConfig::default()).unwrap();
//! let task = scenario.instance.tasks[0].clone();
//! let options = scenario.instance.options[0].clone();
//! let pending = client.submit(task, options, Some(Duration::from_millis(250))).unwrap();
//! let outcome = pending.wait().unwrap();
//! println!("verdict: {outcome:?}");
//! let report = server.shutdown();
//! assert!(report.metrics.is_conserved());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod async_server;
pub mod backend;
mod backoff;
pub mod client;
pub mod codec;
mod dispatch;
pub mod error;
pub mod frontend;
mod instruments;
pub mod server;
pub mod wire;

pub use async_server::{AsyncServer, ReactorConfig};
pub use backend::{Backend, ForwardInfo, MembershipAck, PeerDigest};
pub use client::{Client, ClientConfig, ClientConfigBuilder, PendingVerdict};
pub use codec::{
    decode, decode_capped, decode_exact, encode, ErrorCode, ForwardRequest, Frame, MemberInfo, MemberState,
    MembershipDecision, PeerHelloRequest, PeerLoadResponse, MAGIC, MAX_PAYLOAD, VERSION,
};
pub use error::{DecodeError, NetError};
pub use frontend::{AnyServer, Frontend};
pub use server::{NetConfig, NetServer};
