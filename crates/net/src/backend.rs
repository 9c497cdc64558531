//! The control plane a TCP frontend serves on top of admission.
//!
//! Admission itself — submit, depart, metrics, drain fencing — is the
//! unified [`offloadnn_serve::Admitter`] trait, the same one every
//! client-side tier implements. [`Backend`] extends it with exactly what
//! a *server* additionally needs: the drain flag, live resharding,
//! membership, federation and the final drain. The frontends
//! ([`crate::server::NetServer`] and [`crate::async_server::AsyncServer`],
//! through one shared frame dispatcher) serve any
//! `Backend` — the in-process [`offloadnn_serve::Service`] by default,
//! or e.g. a cluster gateway that fans submits out to a fleet of serve
//! nodes.
//!
//! ## Deadline ownership
//!
//! The wire protocol ships a Submit's deadline budget as
//! `deadline_us == 0` for "no client deadline". The frontends hand that
//! to [`offloadnn_serve::Admitter::submit`] as `None`, and each backend
//! applies its own policy default; an explicit budget is clamped to
//! never exceed the backend's policy.

use crate::codec::{MemberInfo, MembershipDecision};
use offloadnn_core::instance::PathOption;
use offloadnn_core::task::Task;
use offloadnn_serve::{
    Admitter, DrainReport, PendingVerdict, ReshardReport, ServeError, Service, SubmitError,
};
use std::net::SocketAddr;
use std::time::Duration;

/// The answer to a membership request ([`Backend::announce`] /
/// [`Backend::leave`]): the decision plus the backend's cluster view,
/// exactly what travels back in a [`crate::Frame::Membership`] frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipAck {
    /// How the request was judged.
    pub decision: MembershipDecision,
    /// The cluster after applying the request (empty when the backend
    /// manages no membership).
    pub members: Vec<MemberInfo>,
}

impl MembershipAck {
    /// The ack of a backend that manages no cluster membership.
    pub fn unsupported() -> Self {
        MembershipAck { decision: MembershipDecision::Unsupported, members: Vec::new() }
    }
}

/// A backend's answer to a peer gateway's load-digest request
/// ([`Backend::peer_load`]): what travels back in a
/// [`crate::Frame::PeerLoad`] frame, minus the correlation id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeerDigest {
    /// Routable (healthy) nodes behind this backend.
    pub healthy_nodes: u32,
    /// Aggregate remaining admission budget across those nodes; higher
    /// is emptier.
    pub remaining_budget: f64,
    /// p50 of the cluster's solver round time, in milliseconds.
    pub round_ms_p50: f64,
    /// The backend's cluster epoch (membership version). A change tells
    /// peers to drop plans they cached against this cluster.
    pub epoch: u64,
}

/// The federation metadata riding on a [`crate::Frame::Forward`]:
/// everything beyond an ordinary submit that the receiving backend
/// needs for loop-free re-forwarding and peer-scoped plan caching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForwardInfo {
    /// The gateway where the task first arrived.
    pub origin: String,
    /// Every gateway that has already held this task, origin included.
    pub tried: Vec<String>,
    /// Remaining hop budget (0 = the receiver must decide locally).
    pub hops: u8,
}

/// What a TCP frontend needs from the runtime it fronts, beyond
/// admission.
///
/// Submit / Depart / Snapshot / Drain frames dispatch to the
/// [`Admitter`] half; Scale / Announce / Leave / Forward / PeerHello
/// frames to the methods here. Implementations must be callable from
/// many connection threads concurrently (`Admitter` is `Sync`), and
/// [`Backend::drain`] is called exactly once after every connection has
/// flushed.
pub trait Backend: Admitter + Sized + 'static {
    /// Whether a drain has begun.
    fn is_draining(&self) -> bool;

    /// Reshapes the backend to `shards` workers at runtime.
    ///
    /// # Errors
    ///
    /// [`ServeError`] when the reshape is refused (zero shards,
    /// draining, no healthy capacity).
    fn scale_to(&self, shards: usize) -> Result<ReshardReport, ServeError>;

    /// A node registering itself (protocol v3 [`crate::Frame::Announce`]).
    /// Backends that manage no cluster membership — a plain serve node —
    /// keep the default, which answers `Unsupported`.
    fn announce(&self, addr: SocketAddr, incarnation: u64) -> MembershipAck {
        let _ = (addr, incarnation);
        MembershipAck::unsupported()
    }

    /// A node deregistering ahead of a graceful drain (protocol v3
    /// [`crate::Frame::Leave`]). Same default as [`Backend::announce`].
    fn leave(&self, addr: SocketAddr, incarnation: u64) -> MembershipAck {
        let _ = (addr, incarnation);
        MembershipAck::unsupported()
    }

    /// An overflow admission forwarded from a peer gateway (protocol v4
    /// [`crate::Frame::Forward`]). The default treats it as an ordinary
    /// submit: a backend that manages no federation ignores the hop and
    /// tried-set metadata and decides locally, which is exactly the
    /// hop-budget-exhausted behaviour a federated gateway also falls
    /// back to. `budget` is the *remaining* deadline carried over from
    /// the origin, never the origin's policy default.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] for requests refused at ingress, exactly as
    /// [`Admitter::submit`].
    fn forward(
        &self,
        task: Task,
        options: Vec<PathOption>,
        budget: Option<Duration>,
        info: ForwardInfo,
    ) -> Result<PendingVerdict, SubmitError> {
        let _ = info;
        self.submit(task, options, budget)
    }

    /// A peer gateway asking for this backend's load digest (protocol
    /// v4 [`crate::Frame::PeerHello`]). `None` — the default — means the
    /// backend is not a federation member (e.g. a plain serve node was
    /// addressed); the frontend answers an error frame and the asking
    /// peer marks the address unusable as a forwarding target.
    fn peer_load(&self, peer_addr: &str, peer_incarnation: u64) -> Option<PeerDigest> {
        let _ = (peer_addr, peer_incarnation);
        None
    }

    /// Registers a hook to run when this backend's drain begins (either
    /// fence direction: [`Admitter::begin_drain`] or [`Backend::drain`]).
    /// Returns `false` if the backend does not support drain hooks — the
    /// caller must then arrange its own notification. If the drain has
    /// already begun, a supporting backend runs the hook immediately.
    fn on_drain(&self, hook: Box<dyn FnOnce() + Send>) -> bool {
        let _ = hook;
        false
    }

    /// Drains outstanding work and returns the final report. The
    /// frontends call this once, after the last connection closed.
    fn drain(self) -> DrainReport;
}

impl Backend for Service {
    fn is_draining(&self) -> bool {
        Service::is_draining(self)
    }

    fn scale_to(&self, shards: usize) -> Result<ReshardReport, ServeError> {
        Service::scale_to(self, shards)
    }

    fn on_drain(&self, hook: Box<dyn FnOnce() + Send>) -> bool {
        Service::on_drain(self, hook);
        true
    }

    fn drain(self) -> DrainReport {
        Service::drain(self)
    }
}
