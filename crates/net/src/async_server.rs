//! The readiness-driven (epoll) TCP frontend over
//! [`offloadnn_serve::Service`].
//!
//! ## Why a second frontend
//!
//! [`crate::server::NetServer`] spends two OS threads per connection,
//! which serves hundreds of clients well but not the paper's "fleets of
//! intermittent mobile UEs" shape: at thousands of mostly-idle
//! connections, stacks and context switches dominate. `AsyncServer`
//! multiplexes every connection over a **fixed** pool — one acceptor plus
//! K event-loop threads (each with a paired completion thread), K chosen
//! independently of the connection count — on the epoll primitives of
//! `offloadnn-reactor`.
//!
//! ## Threading model
//!
//! ```text
//! acceptor ──round-robin──┬─ event loop 0 ⇄ completion 0
//!   (blocking accept,     ├─ event loop 1 ⇄ completion 1
//!    capped backoff)      └─ ...
//!
//! event loop: epoll_wait → read nonblocking sockets → decode frames →
//!             dispatch to the Backend → queue the Reply → write replies
//!             (partial-write resumption via EPOLLOUT)
//! completion: blocks resolving Replies (verdicts, reshards) in FIFO
//!             order, encodes response frames, hands them back to its
//!             loop via the done queue + waker
//! ```
//!
//! The completion thread exists because verdict redemption blocks and an
//! event loop must never block. Routing **every** reply of a
//! connection through its loop's FIFO completion channel reproduces the
//! threaded frontend's per-connection writer-queue ordering exactly:
//! verdicts flush in submit order, a drain's final metrics snapshot is
//! taken after the connection's earlier verdicts resolved, and the error
//! frame that closes a misbehaving connection trails everything the
//! client is still owed.
//!
//! ## Parity with the threaded frontend
//!
//! Backpressure: a connection with `inflight_window` replies outstanding
//! (or an unflushed write backlog past the soft cap) loses read interest
//! — level-triggered epoll re-reports the readiness when the window
//! frees, so backpressure propagates through the TCP receive buffer just
//! like the threaded server's bounded writer channel. Deadline
//! propagation, drain-flush, live `Scale` frames and the
//! incomplete-vs-malformed codec distinction are all inherited from the
//! same frame dispatcher and [`codec`] layers; the loopback suite runs
//! the same assertions against either frontend.

use crate::backend::Backend;
use crate::backoff::AcceptBackoff;
use crate::codec::{self, ErrorCode, Frame};
use crate::dispatch::{self, LeaveSlot, Reply, Step};
use crate::error::NetError;
use crate::instruments::NetInstruments;
use crate::server::{reject_over_limit, NetConfig};
use crossbeam::channel::{self, Receiver, Sender};
use offloadnn_core::instance::DotInstance;
use offloadnn_reactor::{Epoll, Event, Events, Interest, Waker};
use offloadnn_serve::{DrainReport, Service, ServiceConfig};
use offloadnn_telemetry::{event, Severity};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The epoll token reserved for each loop's waker pipe.
const WAKE_TOKEN: u64 = u64::MAX;
/// Socket read granularity.
const READ_CHUNK: usize = 16 * 1024;
/// Reads drained per readiness event before yielding to other
/// connections (level-triggered epoll re-reports leftover readiness).
const MAX_READS_PER_EVENT: usize = 8;
/// Unflushed write backlog past which a connection stops being read —
/// the bound on per-connection write-queue memory.
const WBUF_PAUSE: usize = 256 * 1024;

/// Tuning knobs of the reactor frontend (on top of [`NetConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReactorConfig {
    /// Number of event-loop threads (each with one completion thread).
    /// The whole point of the reactor: this stays small and fixed while
    /// connection counts grow into the thousands.
    pub event_loops: usize,
    /// Readiness events drained per `epoll_wait` call.
    pub max_events: usize,
    /// `epoll_wait` timeout — the cadence at which an otherwise idle
    /// loop rechecks the shutdown flag and write deadlines.
    pub wait_timeout: Duration,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self { event_loops: 2, max_events: 256, wait_timeout: Duration::from_millis(50) }
    }
}

impl ReactorConfig {
    /// Validates every field.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), NetError> {
        if self.event_loops == 0 {
            return Err(NetError::InvalidConfig("event_loops must be >= 1"));
        }
        if self.max_events == 0 {
            return Err(NetError::InvalidConfig("max_events must be >= 1"));
        }
        if self.wait_timeout.is_zero() {
            return Err(NetError::InvalidConfig("wait_timeout must be > 0"));
        }
        Ok(())
    }
}

/// What an event loop hands its completion thread: one connection's
/// reply, by token. FIFO per loop, which gives each connection the
/// threaded frontend's writer-queue ordering.
type Completion = (u64, Reply);

/// One encoded reply coming back from a completion thread.
struct Done {
    token: u64,
    bytes: Vec<u8>,
}

/// State shared by the acceptor, the event loops, the completion threads
/// and the [`AsyncServer`] handle.
struct AsyncShared<B: Backend> {
    service: B,
    net: NetConfig,
    reactor: ReactorConfig,
    shutdown: AtomicBool,
    active: AtomicUsize,
    instruments: Option<NetInstruments>,
    /// Armed by [`AsyncServer::announce_to`]; fired (once) when the
    /// node drains or shuts down, so the gateway deregisters it.
    leave_notice: LeaveSlot,
}

/// The acceptor's handle to one event loop.
struct LoopHandle {
    incoming: Sender<TcpStream>,
    waker: Arc<Waker>,
}

/// A running reactor frontend over any [`Backend`] (an in-process
/// [`Service`] fleet by default). Start with [`AsyncServer::start`] (or
/// [`AsyncServer::start_with_backend`]); stop with
/// [`AsyncServer::shutdown`], which drains the backend and returns its
/// final [`DrainReport`].
pub struct AsyncServer<B: Backend = Service> {
    local_addr: SocketAddr,
    shared: Arc<AsyncShared<B>>,
    wakers: Vec<Arc<Waker>>,
    acceptor: Option<JoinHandle<()>>,
    loops: Vec<JoinHandle<()>>,
    completions: Vec<JoinHandle<()>>,
}

impl<B: Backend> std::fmt::Debug for AsyncServer<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncServer")
            .field("local_addr", &self.local_addr)
            .field("event_loops", &self.loops.len())
            .finish_non_exhaustive()
    }
}

impl AsyncServer<Service> {
    /// Binds `addr` (use port 0 for an ephemeral port), starts the shard
    /// fleet, the event-loop pool and the acceptor thread.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidConfig`] for bad configuration,
    /// [`NetError::Io`] if the bind or reactor setup fails.
    pub fn start(
        addr: impl ToSocketAddrs,
        net: NetConfig,
        reactor: ReactorConfig,
        service_config: ServiceConfig,
        template: &DotInstance,
    ) -> Result<Self, NetError> {
        let service = Service::start(service_config, template).map_err(|e| {
            NetError::InvalidConfig(match e {
                offloadnn_serve::ServeError::InvalidConfig(what) => what,
                offloadnn_serve::ServeError::Draining => "service is draining",
            })
        })?;
        Self::start_with_backend(addr, net, reactor, service)
    }
}

impl<B: Backend> AsyncServer<B> {
    /// Binds `addr` and serves an already-running backend (e.g. a
    /// cluster gateway) over the same wire protocol and event-loop pool
    /// as [`AsyncServer::start`].
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidConfig`] for bad configuration,
    /// [`NetError::Io`] if the bind or reactor setup fails.
    pub fn start_with_backend(
        addr: impl ToSocketAddrs,
        net: NetConfig,
        reactor: ReactorConfig,
        backend: B,
    ) -> Result<Self, NetError> {
        net.validate()?;
        reactor.validate()?;
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(AsyncShared {
            service: backend,
            net,
            reactor,
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            instruments: NetInstruments::new(),
            leave_notice: LeaveSlot::default(),
        });

        let mut handles = Vec::with_capacity(reactor.event_loops);
        let mut wakers = Vec::with_capacity(reactor.event_loops);
        let mut loops = Vec::with_capacity(reactor.event_loops);
        let mut completions = Vec::with_capacity(reactor.event_loops);
        for loop_id in 0..reactor.event_loops {
            let epoll = Epoll::new()?;
            let waker = Arc::new(Waker::new()?);
            epoll.add(waker.fd(), WAKE_TOKEN, Interest::READABLE)?;
            let (incoming_tx, incoming_rx) = channel::unbounded::<TcpStream>();
            let (comp_tx, comp_rx) = channel::unbounded::<Completion>();
            let done = Arc::new(Mutex::new(Vec::<Done>::new()));

            completions.push({
                let shared = Arc::clone(&shared);
                let done = Arc::clone(&done);
                let waker = Arc::clone(&waker);
                std::thread::Builder::new()
                    .name(format!("net-rcomp-{loop_id}"))
                    .spawn(move || completion_loop(&comp_rx, &shared, &done, &waker))
                    .expect("spawn completion thread")
            });
            loops.push({
                let mut event_loop = EventLoop {
                    loop_id,
                    shared: Arc::clone(&shared),
                    epoll,
                    waker: Arc::clone(&waker),
                    incoming: incoming_rx,
                    comp_tx,
                    done,
                    slots: Vec::new(),
                    free: Vec::new(),
                    live: 0,
                };
                std::thread::Builder::new()
                    .name(format!("net-rloop-{loop_id}"))
                    .spawn(move || event_loop.run())
                    .expect("spawn event loop")
            });
            handles.push(LoopHandle { incoming: incoming_tx, waker: Arc::clone(&waker) });
            wakers.push(waker);
        }

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("net-racceptor".into())
                .spawn(move || accept_loop(&listener, &shared, &handles))
                .expect("spawn acceptor")
        };
        event!(
            Severity::Info,
            "net.async",
            "listening on {local_addr}: {} conn(s) max over {} event loop(s), window {}",
            net.max_connections,
            reactor.event_loops,
            net.inflight_window
        );
        Ok(Self { local_addr, shared, wakers, acceptor: Some(acceptor), loops, completions })
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
    /// [`AsyncServer::shutdown`]).
    pub fn is_draining(&self) -> bool {
        self.shared.service.is_draining()
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::Acquire)
    }

    /// Reshapes the underlying backend at runtime; traffic keeps flowing
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

    /// Registers this node with a gateway's membership engine, exactly
    /// as [`crate::server::NetServer::announce_to`] does for the
    /// threaded frontend: announce under a fresh wall-clock incarnation,
    /// arm a graceful leave for drain/shutdown.
    ///
    /// # Errors
    ///
    /// Transport errors when the gateway cannot be reached or does not
    /// answer; the announce can simply be retried.
    pub fn announce_to(&self, gateway: SocketAddr) -> Result<codec::MembershipResponse, NetError> {
        self.announce_to_as(gateway, dispatch::wall_clock_incarnation())
    }

    /// [`AsyncServer::announce_to`] with an explicit incarnation stamp.
    ///
    /// # Errors
    ///
    /// As [`AsyncServer::announce_to`].
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

    /// Gracefully stops the frontend: fences the ingress, stops the
    /// acceptor, lets every connection flush its in-flight outcomes to
    /// its client, joins the fixed thread pool, then drains the
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
        // The acceptor owned the incoming senders; with it joined, wake
        // the loops so they notice the shutdown flag, flush and exit.
        for waker in &self.wakers {
            waker.wake();
        }
        for h in self.loops.drain(..) {
            let _ = h.join();
        }
        // Each loop dropped its completion sender on exit.
        for h in self.completions.drain(..) {
            let _ = h.join();
        }
        event!(Severity::Info, "net.async", "frontend stopped on {}", self.local_addr);
        self.wakers.clear();
        let shared = Arc::try_unwrap(self.shared)
            .unwrap_or_else(|_| panic!("all reactor threads joined, no AsyncShared clones remain"));
        shared.service.drain()
    }
}

/// Blocking accept with capped backoff; dispatches connections to the
/// event loops round-robin.
fn accept_loop<B: Backend>(listener: &TcpListener, shared: &Arc<AsyncShared<B>>, handles: &[LoopHandle]) {
    let mut backoff = AcceptBackoff::new();
    let mut next_loop = 0usize;
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
                event!(Severity::Warn, "net.async", "accept failed: {e}");
                if let Some(pause) = backoff.on_error(&e) {
                    std::thread::sleep(pause);
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::Acquire) {
            break; // the shutdown self-connect
        }
        if shared.active.load(Ordering::Acquire) >= shared.net.max_connections {
            event!(Severity::Warn, "net.async", "rejecting connection: limit reached");
            reject_over_limit(stream, shared.net.write_timeout);
            continue;
        }
        shared.active.fetch_add(1, Ordering::AcqRel);
        if let Some(instruments) = &shared.instruments {
            instruments.conns.add(1);
        }
        let handle = &handles[next_loop % handles.len()];
        next_loop = next_loop.wrapping_add(1);
        if handle.incoming.send(stream).is_err() {
            // The loop is gone (fatal epoll error); undo the accounting.
            shared.active.fetch_sub(1, Ordering::AcqRel);
            if let Some(instruments) = &shared.instruments {
                instruments.conns.sub(1);
            }
            continue;
        }
        handle.waker.wake();
    }
}

/// Resolves replies (verdicts, reshards, final snapshots) and encodes
/// them off the event loop, FIFO.
fn completion_loop<B: Backend>(
    rx: &Receiver<Completion>,
    shared: &Arc<AsyncShared<B>>,
    done: &Mutex<Vec<Done>>,
    waker: &Waker,
) {
    while let Ok((token, reply)) = rx.recv() {
        let bytes = codec::encode(&reply.resolve(&shared.service, || {}));
        done.lock().expect("done lock").push(Done { token, bytes });
        waker.wake();
    }
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Bytes of `wbuf` already written to the socket.
    wpos: usize,
    /// Replies routed through the completion channel not yet applied —
    /// the reactor twin of the threaded writer-queue occupancy.
    pending: usize,
    /// The socket's read side is finished (EOF or server shutdown);
    /// frames already buffered still get parsed.
    eof: bool,
    /// Protocol violation: parsing stopped, the connection closes once
    /// its owed replies flush.
    aborted: bool,
    /// The socket is unusable; discard writes, redeem what's pending.
    dead: bool,
    /// Interest currently registered with epoll.
    interest: Interest,
    /// When the unflushed backlog last made progress (write-timeout
    /// enforcement, the threaded frontend's `set_write_timeout` twin).
    stalled_since: Option<Instant>,
}

impl Conn {
    fn backlog(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    fn done_for_good(&self) -> bool {
        self.pending == 0 && (self.eof || self.aborted) && (self.dead || self.backlog() == 0)
    }
}

/// A connection slot; `gen` survives reuse so stale tokens (epoll events
/// or completion replies for a closed connection) are recognised.
struct Slot {
    gen: u32,
    conn: Option<Conn>,
}

fn token_of(gen: u32, idx: usize) -> u64 {
    (u64::from(gen) << 32) | idx as u64
}

struct EventLoop<B: Backend> {
    loop_id: usize,
    shared: Arc<AsyncShared<B>>,
    epoll: Epoll,
    waker: Arc<Waker>,
    incoming: Receiver<TcpStream>,
    comp_tx: Sender<Completion>,
    done: Arc<Mutex<Vec<Done>>>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    live: usize,
}

impl<B: Backend> EventLoop<B> {
    fn run(&mut self) {
        let mut events = Events::with_capacity(self.shared.reactor.max_events);
        let mut ready: Vec<Event> = Vec::with_capacity(self.shared.reactor.max_events);
        let wait = Some(self.shared.reactor.wait_timeout);
        loop {
            match self.epoll.wait(&mut events, wait) {
                Ok(_) => {}
                Err(e) => {
                    event!(Severity::Warn, "net.async", "loop {}: epoll_wait failed: {e}", self.loop_id);
                    break;
                }
            }
            if let Some(instruments) = &self.shared.instruments {
                instruments.epoll_wakeups.inc();
            }
            let mut woken = events.is_empty();
            ready.clear();
            ready.extend(events.iter());
            for ev in ready.drain(..) {
                if ev.token == WAKE_TOKEN {
                    woken = true;
                } else {
                    self.conn_event(ev);
                }
            }
            if woken {
                // Drain (re-arming the waker) *before* reading the
                // queues: a wake racing with the drain re-fires instead
                // of being lost.
                self.waker.drain();
            }
            while let Ok(stream) = self.incoming.try_recv() {
                self.register(stream);
            }
            let batch = std::mem::take(&mut *self.done.lock().expect("done lock"));
            for done in batch {
                self.apply_done(done);
            }
            let shutting_down = self.shared.shutdown.load(Ordering::Acquire);
            self.sweep(shutting_down);
            if shutting_down && self.live == 0 {
                break;
            }
        }
    }

    /// Adopts a freshly accepted connection into a slot + epoll.
    fn register(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            self.discard_unregistered(stream);
            return;
        }
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(Slot { gen: 0, conn: None });
                self.slots.len() - 1
            }
        };
        let token = token_of(self.slots[idx].gen, idx);
        let interest = Interest::READABLE;
        if self.epoll.add(stream.as_raw_fd(), token, interest).is_err() {
            self.free.push(idx);
            self.discard_unregistered(stream);
            return;
        }
        self.slots[idx].conn = Some(Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            pending: 0,
            eof: false,
            aborted: false,
            dead: false,
            interest,
            stalled_since: None,
        });
        self.live += 1;
    }

    /// Drops a connection that never made it into epoll.
    fn discard_unregistered(&self, stream: TcpStream) {
        let _ = stream.shutdown(Shutdown::Both);
        drop(stream);
        self.shared.active.fetch_sub(1, Ordering::AcqRel);
        if let Some(instruments) = &self.shared.instruments {
            instruments.conns.sub(1);
        }
    }

    /// Resolves a token to its slot index, ignoring stale generations.
    fn resolve(&self, token: u64) -> Option<usize> {
        let idx = (token & u32::MAX as u64) as usize;
        let gen = (token >> 32) as u32;
        let slot = self.slots.get(idx)?;
        (slot.gen == gen && slot.conn.is_some()).then_some(idx)
    }

    /// Handles one readiness event for one connection.
    fn conn_event(&mut self, ev: Event) {
        let Some(idx) = self.resolve(ev.token) else { return };
        if let Some(instruments) = &self.shared.instruments {
            if ev.readable || ev.read_closed || ev.hangup || ev.error {
                instruments.readiness_read.inc();
            }
            if ev.writable {
                instruments.readiness_write.inc();
            }
        }
        if ev.readable || ev.read_closed || ev.hangup || ev.error {
            self.handle_readable(idx);
        }
        if ev.writable {
            self.try_flush(idx);
        }
        self.finish_conn_turn(idx);
    }

    /// Reads until `WouldBlock`/EOF (bounded per event), then parses.
    fn handle_readable(&mut self, idx: usize) {
        let conn = self.slots[idx].conn.as_mut().expect("resolved conn");
        if conn.eof || conn.aborted || conn.dead {
            // Still consume the readiness so a half-closed peer doesn't
            // spin the loop: read and discard until EOF/WouldBlock.
            let mut sink = [0u8; READ_CHUNK];
            loop {
                match conn.stream.read(&mut sink) {
                    Ok(0) | Err(_) => {
                        conn.eof = true;
                        break;
                    }
                    Ok(_) => {}
                }
            }
            return;
        }
        let mut chunk = [0u8; READ_CHUNK];
        for _ in 0..MAX_READS_PER_EVENT {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        self.parse_frames(idx);
    }

    /// Parses every complete buffered frame, stopping at the in-flight
    /// window (the bytes keep in `rbuf`; parsing resumes as replies
    /// apply) or on a protocol violation.
    fn parse_frames(&mut self, idx: usize) {
        loop {
            let conn = self.slots[idx].conn.as_mut().expect("resolved conn");
            if conn.aborted || conn.dead || conn.rbuf.is_empty() {
                return;
            }
            if conn.pending >= self.shared.net.inflight_window || conn.backlog() >= WBUF_PAUSE {
                return; // window backpressure: stop consuming
            }
            match codec::decode(&conn.rbuf) {
                Ok(Some((frame, consumed))) => {
                    conn.rbuf.drain(..consumed);
                    self.dispatch(idx, frame);
                }
                Ok(None) => return, // incomplete: wait for more bytes
                Err(e) => {
                    event!(Severity::Warn, "net.async", "protocol error, closing: {e}");
                    self.abort(idx, dispatch::error_frame(0, ErrorCode::Malformed, e.to_string()));
                    return;
                }
            }
        }
    }

    /// Queues a reply on the completion channel, bumping the
    /// connection's pending count.
    fn send_completion(&mut self, idx: usize, reply: Reply) {
        let token = token_of(self.slots[idx].gen, idx);
        let conn = self.slots[idx].conn.as_mut().expect("resolved conn");
        conn.pending += 1;
        if self.comp_tx.send((token, reply)).is_err() {
            // Unreachable while the completion thread lives (it outlives
            // the loop); keep accounting sane anyway.
            let conn = self.slots[idx].conn.as_mut().expect("resolved conn");
            conn.pending -= 1;
            conn.dead = true;
        }
    }

    /// Dispatches one decoded request. Every reply — a reshard
    /// included, which takes milliseconds and must not stall every
    /// connection this loop multiplexes — resolves on the completion
    /// thread.
    fn dispatch(&mut self, idx: usize, frame: Frame) {
        match dispatch::dispatch(&self.shared.service, frame) {
            Step::Silent => {}
            Step::Reply(reply) => self.send_completion(idx, reply),
            Step::Abort(frame) => self.abort(idx, frame),
        }
    }

    /// Queues a closing error frame and stops parsing: the connection
    /// closes once everything it is owed has flushed.
    fn abort(&mut self, idx: usize, frame: Frame) {
        self.send_completion(idx, Reply::Frame(frame));
        let conn = self.slots[idx].conn.as_mut().expect("resolved conn");
        conn.aborted = true;
        conn.rbuf.clear();
    }

    /// Applies one completed reply: append to the write buffer, flush
    /// opportunistically, resume parsing if the window freed.
    fn apply_done(&mut self, done: Done) {
        let Some(idx) = self.resolve(done.token) else { return };
        let conn = self.slots[idx].conn.as_mut().expect("resolved conn");
        conn.pending -= 1;
        if !conn.dead {
            conn.wbuf.extend_from_slice(&done.bytes);
        }
        self.try_flush(idx);
        // The window (or the write backlog) may have freed: frames still
        // buffered in rbuf become parseable again.
        self.parse_frames(idx);
        self.finish_conn_turn(idx);
    }

    /// Writes as much of the backlog as the socket absorbs; partial
    /// writes keep their position and resume on `EPOLLOUT`.
    fn try_flush(&mut self, idx: usize) {
        let conn = self.slots[idx].conn.as_mut().expect("resolved conn");
        if conn.dead {
            conn.wbuf.clear();
            conn.wpos = 0;
            conn.stalled_since = None;
            return;
        }
        while conn.wpos < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(n) => {
                    conn.wpos += n;
                    conn.stalled_since = None;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if conn.stalled_since.is_none() {
                        conn.stalled_since = Some(Instant::now());
                    }
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        if conn.dead || conn.wpos == conn.wbuf.len() {
            // Dead: discard everything. Fully flushed: reset for reuse.
            conn.wbuf.clear();
            conn.wpos = 0;
            conn.stalled_since = None;
        } else if conn.wpos >= 64 * 1024 {
            // Compact so the buffer doesn't grow monotonically under a
            // slow reader.
            conn.wbuf.drain(..conn.wpos);
            conn.wpos = 0;
        }
    }

    /// Post-activity bookkeeping: re-register interest, close if done.
    fn finish_conn_turn(&mut self, idx: usize) {
        let Some(conn) = self.slots[idx].conn.as_ref() else { return };
        if conn.done_for_good() {
            self.close_conn(idx);
            return;
        }
        let window = self.shared.net.inflight_window;
        let conn = self.slots[idx].conn.as_mut().expect("resolved conn");
        let paused = conn.pending >= window || conn.backlog() >= WBUF_PAUSE;
        let desired = Interest {
            readable: !conn.eof && !conn.aborted && !conn.dead && !paused,
            writable: !conn.dead && conn.backlog() > 0,
        };
        if desired != conn.interest {
            let token = token_of(self.slots[idx].gen, idx);
            let conn = self.slots[idx].conn.as_mut().expect("resolved conn");
            if self.epoll.modify(conn.stream.as_raw_fd(), token, desired).is_ok() {
                conn.interest = desired;
            } else {
                conn.dead = true;
            }
        }
    }

    /// Closes and frees one connection slot.
    fn close_conn(&mut self, idx: usize) {
        let conn = self.slots[idx].conn.take().expect("resolved conn");
        let _ = self.epoll.delete(conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(Shutdown::Both);
        drop(conn);
        self.slots[idx].gen = self.slots[idx].gen.wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
        self.shared.active.fetch_sub(1, Ordering::AcqRel);
        if let Some(instruments) = &self.shared.instruments {
            instruments.conns.sub(1);
        }
    }

    /// Periodic maintenance over live connections: write-deadline
    /// enforcement, shutdown fencing, deferred closes.
    fn sweep(&mut self, shutting_down: bool) {
        let write_timeout = self.shared.net.write_timeout;
        for idx in 0..self.slots.len() {
            let Some(conn) = self.slots[idx].conn.as_mut() else { continue };
            if shutting_down && !conn.eof {
                // Stop reading; buffered frames were already parsed, and
                // everything owed still flushes before the close.
                conn.eof = true;
            }
            if let Some(since) = conn.stalled_since {
                if since.elapsed() >= write_timeout {
                    conn.dead = true;
                }
            }
            if conn.backlog() > 0 && !conn.dead {
                self.try_flush(idx);
            }
            self.finish_conn_turn(idx);
        }
    }
}
