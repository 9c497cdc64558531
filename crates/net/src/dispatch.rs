//! The one request-frame dispatcher both TCP frontends call.
//!
//! [`crate::server::NetServer`] and [`crate::async_server::AsyncServer`]
//! differ only in threading. The mapping from a decoded request frame to
//! a [`Backend`] call lives here, once:
//!
//! * [`dispatch`] runs on the frontend's reading thread (the threaded
//!   reader, or the reactor's event loop). It never blocks on a verdict:
//!   it calls the backend and returns a [`Step`] — nothing owed, a
//!   [`Reply`] to queue behind the connection's earlier replies, or a
//!   protocol-abuse error frame after which the connection stops being
//!   read.
//! * [`Reply::resolve`] turns a queued reply into its response frame on
//!   the thread that may block (the threaded writer, or the reactor's
//!   completion thread): it redeems verdicts, takes the drain's final
//!   snapshot and runs reshards. Because every reply of a connection is
//!   resolved in queue order, replies flush in request order.
//!
//! The node-side membership plumbing both frontends share — announcing
//! to a gateway and arming the graceful leave ([`announce`],
//! [`LeaveSlot`]) — lives here too.

use crate::backend::{Backend, ForwardInfo};
use crate::client::{Client, ClientConfig};
use crate::codec::{
    ErrorCode, ErrorResponse, Frame, MembershipResponse, MetricsResponse, OutcomeResponse, PeerLoadResponse,
    ScaleResponse,
};
use crate::error::NetError;
use offloadnn_serve::PendingVerdict;
use offloadnn_telemetry::{event, Severity};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A response a connection owes, queued FIFO behind its earlier ones.
#[allow(clippy::large_enum_variant)] // transient, window-bounded queue
pub(crate) enum Reply {
    /// An already-built response frame.
    Frame(Frame),
    /// Redeem the pending verdict and send its outcome.
    Verdict { request_id: u64, pending: PendingVerdict },
    /// Snapshot the backend *at resolve time* — after every earlier
    /// reply of the connection resolved — and send it as the final
    /// metrics frame (the drain acknowledgement).
    FinalMetrics { request_id: u64 },
    /// Reshape the backend and send the result. A reshard takes
    /// milliseconds, so each frontend picks the thread that runs it.
    Scale { request_id: u64, shards: u32 },
}

/// What the reading thread does after dispatching one request frame.
pub(crate) enum Step {
    /// Nothing is owed (a depart).
    Silent,
    /// Queue the reply behind the connection's earlier ones.
    Reply(Reply),
    /// Queue the error frame, then stop reading: the client sent a
    /// response frame, which is protocol abuse.
    Abort(Frame),
}

/// Maps one decoded request frame onto the backend. Never blocks on a
/// verdict (a Drain fences the ingress here; its snapshot is deferred
/// to [`Reply::resolve`]).
pub(crate) fn dispatch<B: Backend>(backend: &B, frame: Frame) -> Step {
    match frame {
        Frame::Submit(req) => {
            let admitted = backend.submit(req.task, req.options, budget(req.deadline_us));
            Step::Reply(verdict(req.request_id, admitted))
        }
        Frame::Forward(req) => {
            // Submit parity, carrying the origin's *remaining* deadline
            // and the loop-freedom metadata for re-forwarding.
            let info = ForwardInfo { origin: req.origin, tried: req.tried, hops: req.hops };
            let admitted = backend.forward(req.task, req.options, budget(req.deadline_us), info);
            Step::Reply(verdict(req.request_id, admitted))
        }
        Frame::Depart(req) => {
            backend.depart(req.task);
            Step::Silent
        }
        // The snapshot is taken now; the queue only sequences it behind
        // the connection's earlier replies.
        Frame::Snapshot(req) => Step::Reply(Reply::Frame(metrics_frame(backend, req.request_id, false))),
        Frame::Drain(req) => {
            event!(Severity::Info, "net.dispatch", "drain requested (request {})", req.request_id);
            backend.begin_drain();
            Step::Reply(Reply::FinalMetrics { request_id: req.request_id })
        }
        Frame::Scale(req) => {
            event!(
                Severity::Info,
                "net.dispatch",
                "scale to {} shard(s) requested (request {})",
                req.shards,
                req.request_id
            );
            Step::Reply(Reply::Scale { request_id: req.request_id, shards: req.shards })
        }
        // Membership bookkeeping and load digests are map updates and
        // atomic reads: cheap enough to answer inline like a snapshot.
        Frame::Announce(req) => Step::Reply(Reply::Frame(membership_frame(
            backend,
            req.request_id,
            &req.addr,
            req.incarnation,
            false,
        ))),
        Frame::Leave(req) => Step::Reply(Reply::Frame(membership_frame(
            backend,
            req.request_id,
            &req.addr,
            req.incarnation,
            true,
        ))),
        Frame::PeerHello(req) => {
            let frame = match backend.peer_load(&req.addr, req.incarnation) {
                Some(d) => Frame::PeerLoad(PeerLoadResponse {
                    request_id: req.request_id,
                    healthy_nodes: d.healthy_nodes,
                    remaining_budget: d.remaining_budget,
                    round_ms_p50: d.round_ms_p50,
                    epoch: d.epoch,
                }),
                None => {
                    error_frame(req.request_id, ErrorCode::Internal, "backend is not a federation gateway")
                }
            };
            Step::Reply(Reply::Frame(frame))
        }
        Frame::Outcome(_)
        | Frame::Metrics(_)
        | Frame::Scaled(_)
        | Frame::Membership(_)
        | Frame::PeerLoad(_)
        | Frame::Error(_) => Step::Abort(error_frame(
            frame.request_id(),
            ErrorCode::Malformed,
            format!("unexpected {} frame from client", frame.type_name()),
        )),
    }
}

impl Reply {
    /// Resolves the reply into its response frame, blocking on a verdict
    /// or a reshard. `before_block` runs just before blocking on a
    /// verdict that is not in yet (the threaded writer flushes there, so
    /// coalesced replies never wait behind a slow verdict).
    pub(crate) fn resolve<B: Backend>(self, backend: &B, before_block: impl FnOnce()) -> Frame {
        match self {
            Reply::Frame(frame) => frame,
            Reply::Verdict { request_id, pending } => {
                let verdict = pending.poll().unwrap_or_else(|| {
                    before_block();
                    pending.wait()
                });
                match verdict {
                    Ok(outcome) => Frame::Outcome(OutcomeResponse { request_id, outcome }),
                    // E.g. a chaos-killed shard worker lost the request.
                    Err(e) => error_frame(request_id, ErrorCode::Internal, e.to_string()),
                }
            }
            Reply::FinalMetrics { request_id } => metrics_frame(backend, request_id, true),
            Reply::Scale { request_id, shards } => match backend.scale_to(shards as usize) {
                Ok(r) => Frame::Scaled(ScaleResponse {
                    request_id,
                    from_shards: r.from_shards as u32,
                    to_shards: r.to_shards as u32,
                    migrated: r.migrated,
                    generation: r.generation,
                }),
                Err(e) => error_frame(request_id, ErrorCode::InvalidScale, e.to_string()),
            },
        }
    }
}

/// An error response frame.
pub(crate) fn error_frame(request_id: u64, code: ErrorCode, message: impl Into<String>) -> Frame {
    Frame::Error(ErrorResponse { request_id, code, message: message.into() })
}

/// `deadline_us == 0` is the wire encoding of "no client deadline": the
/// backend applies its own policy default.
fn budget(deadline_us: u64) -> Option<Duration> {
    (deadline_us != 0).then(|| Duration::from_micros(deadline_us))
}

/// A submit's reply: its verdict, or the error frame of an ingress
/// refusal.
fn verdict(request_id: u64, admitted: Result<PendingVerdict, offloadnn_serve::SubmitError>) -> Reply {
    match admitted {
        Ok(pending) => Reply::Verdict { request_id, pending },
        Err(e) => Reply::Frame(error_frame(request_id, e.into(), e.to_string())),
    }
}

/// A metrics frame, or an `Internal` error frame when the backend cannot
/// produce metrics right now.
fn metrics_frame<B: Backend>(backend: &B, request_id: u64, is_final: bool) -> Frame {
    match backend.metrics() {
        Some(metrics) => Frame::Metrics(MetricsResponse { request_id, is_final, metrics }),
        None => error_frame(request_id, ErrorCode::Internal, "backend metrics are unavailable"),
    }
}

/// Answers a membership frame: parses the address, consults the
/// backend, and builds the reply. An unparseable address answers a
/// `Malformed` error frame (the connection stays open — the envelope
/// itself was valid).
fn membership_frame<B: Backend>(
    backend: &B,
    request_id: u64,
    addr: &str,
    incarnation: u64,
    is_leave: bool,
) -> Frame {
    match addr.parse::<SocketAddr>() {
        Ok(sock) => {
            let ack =
                if is_leave { backend.leave(sock, incarnation) } else { backend.announce(sock, incarnation) };
            Frame::Membership(MembershipResponse { request_id, decision: ack.decision, members: ack.members })
        }
        Err(_) => {
            error_frame(request_id, ErrorCode::Malformed, format!("unparseable member address {addr:?}"))
        }
    }
}

/// How long a frontend waits for the gateway's answer to an announce or
/// leave before giving up (best-effort either way).
const MEMBERSHIP_RPC_TIMEOUT: Duration = Duration::from_secs(2);

/// The fail-fast dialing profile for membership traffic: a gateway that
/// cannot be reached promptly is treated as unreachable, not retried
/// into — registration is re-attemptable and deregistration is
/// best-effort.
fn membership_client_config() -> ClientConfig {
    ClientConfig {
        connect_attempts: 1,
        connect_timeout: Duration::from_millis(500),
        ..ClientConfig::default()
    }
}

/// A pending gateway deregistration, armed by [`announce`] and fired at
/// most once — on drain-hook, shutdown, or whichever comes first.
/// Firing dials the gateway fail-fast and sends a [`Frame::Leave`];
/// errors are swallowed (a gateway that cannot be reached will notice
/// the departure through its health probes, exactly as a crash-leave).
#[derive(Debug)]
struct LeaveNotice {
    gateway: SocketAddr,
    addr: String,
    incarnation: u64,
    fired: AtomicBool,
}

impl LeaveNotice {
    /// Sends the leave, best-effort, exactly once across every caller.
    fn fire(&self) {
        if self.fired.swap(true, Ordering::AcqRel) {
            return;
        }
        if let Ok(client) = Client::connect(self.gateway, membership_client_config()) {
            let _ = client.leave(&self.addr, self.incarnation, MEMBERSHIP_RPC_TIMEOUT);
        }
    }
}

/// A frontend's slot for its armed leave notice.
#[derive(Debug, Default)]
pub(crate) struct LeaveSlot(Mutex<Option<Arc<LeaveNotice>>>);

impl LeaveSlot {
    /// Fires the armed leave, if any. Called at shutdown, before the
    /// ingress is fenced, so the cluster stops routing to this node
    /// while its in-flight work can still resolve.
    pub(crate) fn fire(&self) {
        if let Some(notice) = self.0.lock().expect("leave notice lock").take() {
            notice.fire();
        }
    }
}

/// A fresh incarnation stamp: startup wall-clock nanoseconds, monotonic
/// across restarts of the same node (modulo clock regression), which is
/// all the incarnation ordering needs.
pub(crate) fn wall_clock_incarnation() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(1, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
        .max(1)
}

/// Registers the node serving on `local` with a gateway's membership
/// engine (protocol v3 [`Frame::Announce`]) and arms a graceful
/// [`Frame::Leave`] in `slot`, to fire when the backend's drain begins
/// or the frontend shuts down, whichever comes first.
pub(crate) fn announce<B: Backend>(
    backend: &B,
    slot: &LeaveSlot,
    local: SocketAddr,
    gateway: SocketAddr,
    incarnation: u64,
) -> Result<MembershipResponse, NetError> {
    let client = Client::connect(gateway, membership_client_config())?;
    let addr = local.to_string();
    let reply = client.announce(&addr, incarnation, MEMBERSHIP_RPC_TIMEOUT)?;
    let notice = Arc::new(LeaveNotice { gateway, addr, incarnation, fired: AtomicBool::new(false) });
    // Preferred path: the backend tells us when its drain begins (a
    // wire-level Drain frame fences the service without passing through
    // shutdown). Fallback either way: shutdown fires the slot, and
    // firing is idempotent.
    let hook_notice = Arc::clone(&notice);
    let _ = backend.on_drain(Box::new(move || hook_notice.fire()));
    *slot.0.lock().expect("leave notice lock") = Some(notice);
    Ok(reply)
}
