//! The multithreaded TCP frontend over [`offloadnn_serve::Service`].
//!
//! ## Threading model
//!
//! ```text
//! acceptor thread ──┬── conn-0 reader ── conn-0 writer
//!                   ├── conn-1 reader ── conn-1 writer
//!                   └── ...                 │
//!                        │                  └─ waits verdicts, encodes
//!                        └─ decodes frames,    responses, writes
//!                           dispatches them
//! ```
//!
//! One acceptor thread owns the listener. Each accepted connection gets a
//! *reader* thread (decodes frames and dispatches them to the backend)
//! and a *writer* thread (redeems pending verdicts and writes
//! responses). The channel between them is bounded by
//! [`NetConfig::inflight_window`]: a client that pipelines more submits
//! than the window simply stops being read — backpressure propagates
//! through the TCP receive buffer instead of growing server memory.
//!
//! ## Drain semantics
//!
//! A [`Frame::Drain`] request (or [`NetServer::shutdown`]) fences the
//! ingress via [`Service::begin_drain`]: subsequent submits are answered
//! [`ErrorCode::Draining`], while every request already inside the
//! service still resolves and its outcome is *flushed to the client*
//! before the connection closes — the writer thread drains its whole
//! queue before exiting, so drain never strands an in-flight verdict.

use crate::backend::Backend;
use crate::backoff::AcceptBackoff;
use crate::codec::{self, ErrorCode, Frame};
use crate::dispatch::{self, LeaveSlot, Reply, Step};
use crate::error::NetError;
use crate::instruments::NetInstruments;
use crossbeam::channel::{self, Receiver, Sender};
use offloadnn_core::instance::DotInstance;
use offloadnn_serve::{DrainReport, Service, ServiceConfig};
use offloadnn_telemetry::{event, Severity};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs of the TCP frontend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Maximum simultaneously served connections; further connects are
    /// answered [`ErrorCode::TooManyConnections`] and closed.
    pub max_connections: usize,
    /// Bound of each connection's submitted-but-unanswered window. A
    /// client pipelining past it stops being read until verdicts flush
    /// (backpressure through the socket, not server memory).
    pub inflight_window: usize,
    /// Socket read timeout — the cadence at which an idle reader rechecks
    /// the shutdown/drain flags.
    pub read_timeout: Duration,
    /// Socket write timeout; a connection that cannot absorb its
    /// responses this long is considered dead.
    pub write_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            max_connections: 256,
            inflight_window: 256,
            read_timeout: Duration::from_millis(50),
            write_timeout: Duration::from_secs(5),
        }
    }
}

impl NetConfig {
    /// Validates every field.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), NetError> {
        if self.max_connections == 0 {
            return Err(NetError::InvalidConfig("max_connections must be >= 1"));
        }
        if self.inflight_window == 0 {
            return Err(NetError::InvalidConfig("inflight_window must be >= 1"));
        }
        if self.read_timeout.is_zero() {
            return Err(NetError::InvalidConfig("read_timeout must be > 0"));
        }
        if self.write_timeout.is_zero() {
            return Err(NetError::InvalidConfig("write_timeout must be > 0"));
        }
        Ok(())
    }
}

/// State shared by the acceptor and every connection thread.
struct Shared<B: Backend> {
    service: B,
    net: NetConfig,
    shutdown: AtomicBool,
    active: AtomicUsize,
    conns: Mutex<Vec<JoinHandle<()>>>,
    instruments: Option<NetInstruments>,
    /// Armed by [`NetServer::announce_to`]; fired (once) when the node
    /// drains or shuts down, so the gateway deregisters it gracefully.
    leave_notice: LeaveSlot,
}

/// A running TCP frontend over any [`Backend`] (an in-process
/// [`Service`] fleet by default). Start with [`NetServer::start`] (or
/// [`NetServer::start_with_backend`]); stop with [`NetServer::shutdown`],
/// which drains the backend and returns its final [`DrainReport`].
pub struct NetServer<B: Backend = Service> {
    local_addr: SocketAddr,
    shared: Arc<Shared<B>>,
    acceptor: Option<JoinHandle<()>>,
}

impl<B: Backend> std::fmt::Debug for NetServer<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer").field("local_addr", &self.local_addr).finish_non_exhaustive()
    }
}

impl NetServer<Service> {
    /// Binds `addr` (use port 0 for an ephemeral port — see
    /// [`NetServer::local_addr`]), starts the shard fleet and the
    /// acceptor thread.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidConfig`] for bad configuration,
    /// [`NetError::Io`] if the bind fails.
    pub fn start(
        addr: impl ToSocketAddrs,
        net: NetConfig,
        service_config: ServiceConfig,
        template: &DotInstance,
    ) -> Result<Self, NetError> {
        let service = Service::start(service_config, template).map_err(|e| {
            NetError::InvalidConfig(match e {
                offloadnn_serve::ServeError::InvalidConfig(what) => what,
                // Unreachable at start, but keep the mapping total.
                offloadnn_serve::ServeError::Draining => "service is draining",
            })
        })?;
        Self::start_with_backend(addr, net, service)
    }
}

impl<B: Backend> NetServer<B> {
    /// Binds `addr` and serves an already-running backend (e.g. a
    /// cluster gateway) over the same wire protocol and threading model
    /// as [`NetServer::start`].
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidConfig`] for bad configuration,
    /// [`NetError::Io`] if the bind fails.
    pub fn start_with_backend(
        addr: impl ToSocketAddrs,
        net: NetConfig,
        backend: B,
    ) -> Result<Self, NetError> {
        net.validate()?;
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service: backend,
            net,
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            conns: Mutex::new(Vec::new()),
            instruments: NetInstruments::new(),
            leave_notice: LeaveSlot::default(),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("net-acceptor".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn acceptor")
        };
        event!(
            Severity::Info,
            "net.server",
            "listening on {local_addr}: {} conn(s) max, window {}",
            net.max_connections,
            net.inflight_window
        );
        Ok(Self { local_addr, shared, acceptor: Some(acceptor) })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Point-in-time metrics of the underlying backend (`None` when it
    /// cannot produce them right now).
    pub fn metrics(&self) -> Option<offloadnn_serve::MetricsSnapshot> {
        self.shared.service.metrics()
    }

    /// Whether a drain has begun (via [`Frame::Drain`] or
    /// [`NetServer::shutdown`]).
    pub fn is_draining(&self) -> bool {
        self.shared.service.is_draining()
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::Acquire)
    }

    /// Reshapes the underlying backend at runtime (the server-side twin
    /// of a client's [`Frame::Scale`]); traffic keeps flowing
    /// throughout. See [`Backend::scale_to`].
    ///
    /// # Errors
    ///
    /// Propagates [`Backend::scale_to`] errors.
    pub fn scale_to(
        &self,
        shards: usize,
    ) -> Result<offloadnn_serve::ReshardReport, offloadnn_serve::ServeError> {
        self.shared.service.scale_to(shards)
    }

    /// Registers this node with a gateway's membership engine (protocol
    /// v3): sends an [`Frame::Announce`] carrying [`NetServer::local_addr`]
    /// under a fresh wall-clock incarnation, and arms a graceful
    /// [`Frame::Leave`] to fire when the node drains or shuts down. The
    /// gateway health-probes the node before routing any traffic to it
    /// (join-through-probation).
    ///
    /// # Errors
    ///
    /// Transport errors when the gateway cannot be reached or does not
    /// answer; the announce can simply be retried.
    pub fn announce_to(&self, gateway: SocketAddr) -> Result<codec::MembershipResponse, NetError> {
        self.announce_to_as(gateway, dispatch::wall_clock_incarnation())
    }

    /// [`NetServer::announce_to`] with an explicit incarnation stamp
    /// (tests and restart simulations pick their own ordering).
    ///
    /// # Errors
    ///
    /// As [`NetServer::announce_to`].
    pub fn announce_to_as(
        &self,
        gateway: SocketAddr,
        incarnation: u64,
    ) -> Result<codec::MembershipResponse, NetError> {
        dispatch::announce(
            &self.shared.service,
            &self.shared.leave_notice,
            self.local_addr,
            gateway,
            incarnation,
        )
    }

    /// Gracefully stops the frontend: fences the ingress, wakes and joins
    /// the acceptor, lets every connection flush its in-flight outcomes
    /// to its client, joins the connection threads, then drains the
    /// underlying service and returns its final report.
    pub fn shutdown(mut self) -> DrainReport {
        self.shared.leave_notice.fire();
        self.shared.service.begin_drain();
        self.shared.shutdown.store(true, Ordering::Release);
        // Wake the acceptor out of its blocking accept().
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let handles = std::mem::take(&mut *self.shared.conns.lock().expect("conns lock"));
        for h in handles {
            let _ = h.join();
        }
        event!(Severity::Info, "net.server", "frontend stopped on {}", self.local_addr);
        let shared = Arc::try_unwrap(self.shared)
            .unwrap_or_else(|_| panic!("all connection threads joined, no Shared clones remain"));
        shared.service.drain()
    }
}

fn accept_loop<B: Backend>(listener: &TcpListener, shared: &Arc<Shared<B>>) {
    let mut next_conn_id: u64 = 0;
    let mut backoff = AcceptBackoff::new();
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let stream = match listener.accept() {
            Ok((s, _)) => {
                backoff.on_success();
                s
            }
            Err(e) => {
                // ECONNABORTED and friends retry immediately; fd/memory
                // exhaustion (EMFILE/ENFILE/...) pauses with capped
                // exponential backoff so the acceptor cannot spin on an
                // error the very next accept would re-hit.
                event!(Severity::Warn, "net.server", "accept failed: {e}");
                if let Some(pause) = backoff.on_error(&e) {
                    std::thread::sleep(pause);
                }
                continue;
            }
        };
        let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "?".into());
        if shared.active.load(Ordering::Acquire) >= shared.net.max_connections {
            event!(Severity::Warn, "net.server", "rejecting {peer}: connection limit reached");
            reject_over_limit(stream, shared.net.write_timeout);
            continue;
        }
        let conn_id = next_conn_id;
        next_conn_id += 1;
        shared.active.fetch_add(1, Ordering::AcqRel);
        if let Some(instruments) = &shared.instruments {
            instruments.conns.add(1);
        }
        event!(Severity::Info, "net.server", "conn {conn_id}: accepted from {peer}");
        let shared_conn = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name(format!("net-conn-{conn_id}"))
            .spawn(move || {
                serve_connection(conn_id, stream, &shared_conn);
                shared_conn.active.fetch_sub(1, Ordering::AcqRel);
                if let Some(instruments) = &shared_conn.instruments {
                    instruments.conns.sub(1);
                }
            })
            .expect("spawn connection thread");
        shared.conns.lock().expect("conns lock").push(handle);
    }
}

/// Best-effort "too many connections" notice before dropping the socket.
/// Shared by both frontends.
pub(crate) fn reject_over_limit(mut stream: TcpStream, write_timeout: Duration) {
    let _ = stream.set_write_timeout(Some(write_timeout));
    let frame = dispatch::error_frame(0, ErrorCode::TooManyConnections, "server is at its connection limit");
    let _ = stream.write_all(&codec::encode(&frame));
    let _ = stream.shutdown(Shutdown::Both);
}

/// The per-connection reader: decodes frames off the socket and
/// dispatches them; spawns and finally joins the connection's writer.
fn serve_connection<B: Backend>(conn_id: u64, stream: TcpStream, shared: &Arc<Shared<B>>) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(shared.net.read_timeout)).is_err() {
        return;
    }
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let _ = write_half.set_write_timeout(Some(shared.net.write_timeout));

    let (tx, rx) = channel::bounded::<Reply>(shared.net.inflight_window);
    let writer = {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("net-conn-{conn_id}-w"))
            .spawn(move || write_loop(&rx, write_half, &shared))
            .expect("spawn connection writer")
    };

    read_loop(stream, shared, &tx);

    // Dropping the sender lets the writer drain its queue — every queued
    // verdict is redeemed and flushed before the connection dies.
    drop(tx);
    let _ = writer.join();
    event!(Severity::Info, "net.server", "conn {conn_id}: closed");
}

fn read_loop<B: Backend>(mut stream: TcpStream, shared: &Arc<Shared<B>>, tx: &Sender<Reply>) {
    let mut buf: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    loop {
        // Parse every complete frame currently buffered.
        loop {
            match codec::decode(&buf) {
                Ok(Some((frame, consumed))) => {
                    buf.drain(..consumed);
                    if !handle_frame(frame, shared, tx) {
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    event!(Severity::Warn, "net.server", "protocol error, closing: {e}");
                    let _ =
                        tx.send(Reply::Frame(dispatch::error_frame(0, ErrorCode::Malformed, e.to_string())));
                    return;
                }
            }
        }
        // Stop reading once shutdown began (buffered frames above were
        // still served): a peer that keeps sending — e.g. a gateway
        // health prober snapshotting on an interval shorter than the
        // read timeout — must not be able to hold the drain open
        // forever. Owed verdicts still flush through the writer.
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Dispatches one decoded request. Returns `false` when the connection
/// must close.
fn handle_frame<B: Backend>(frame: Frame, shared: &Arc<Shared<B>>, tx: &Sender<Reply>) -> bool {
    match dispatch::dispatch(&shared.service, frame) {
        Step::Silent => true,
        // Reshard on the reader thread: this connection's pipelined
        // frames wait in the TCP buffer while the fleet reshapes
        // (milliseconds), other connections are untouched.
        Step::Reply(scale @ Reply::Scale { .. }) => {
            tx.send(Reply::Frame(scale.resolve(&shared.service, || {}))).is_ok()
        }
        // A full window blocks here: backpressure through the socket.
        Step::Reply(reply) => tx.send(reply).is_ok(),
        Step::Abort(frame) => {
            let _ = tx.send(Reply::Frame(frame));
            false
        }
    }
}

fn write_loop<B: Backend>(rx: &Receiver<Reply>, mut stream: TcpStream, shared: &Arc<Shared<B>>) {
    let mut out: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut alive = true;
    while let Ok(reply) = rx.recv() {
        let frame = reply.resolve(&shared.service, || {
            // About to block on a verdict: flush what earlier requests
            // are owed so the client is not starved by head-of-line
            // coalescing.
            if alive && !out.is_empty() {
                if stream.write_all(&out).is_err() {
                    alive = false;
                }
                out.clear();
            }
        });
        if !alive {
            // The socket died: keep redeeming verdicts (the service side
            // must still quiesce) but stop writing.
            continue;
        }
        out.extend_from_slice(&codec::encode(&frame));
        // Coalesce while more responses are queued; flush on a lull.
        if rx.is_empty() || out.len() >= 64 * 1024 {
            if stream.write_all(&out).is_err() {
                alive = false;
            }
            out.clear();
        }
    }
    if alive {
        if !out.is_empty() {
            let _ = stream.write_all(&out);
        }
        let _ = stream.flush();
    }
    let _ = stream.shutdown(Shutdown::Both);
}
