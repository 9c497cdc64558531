//! The unified admission API: one trait for every tier.
//!
//! The codebase grew four near-identical but incompatible submit
//! surfaces — `Controller::submit` (library), [`crate::Service::submit`]
//! and a deadline-taking variant (in-process runtime),
//! `net::Client::submit` (wire) and `Gateway::submit` (cluster) — and
//! each shipped its own pending-verdict shape, so every loadgen and
//! harness driver was welded to one tier. [`Admitter`] is the redesign: a single
//! object-safe trait (`submit` / `depart` / `metrics` / `begin_drain`)
//! with a single type-erased [`PendingVerdict`], implemented by
//! `Service`, `net::Client`, `Gateway` and the federated gateway, so
//! one driver body exercises every tier behind `&dyn Admitter`. The
//! server side speaks the same trait: `net::Backend` extends `Admitter`
//! with the control plane (resharding, membership, federation, final
//! drain), so a TCP frontend hands its clients exactly these verdicts.
//!
//! ## Verdict resolution
//!
//! Each tier resolves a pending verdict differently — an in-process
//! ticket can only be lost to a chaos-killed worker, a wire verdict can
//! die with its connection or be refused by a draining server. The
//! [`VerdictError`] enum preserves those distinctions (drivers keep
//! separate `lost` / `refused` / `transport` tallies and their
//! cross-tier conservation checks), while `Ok(Outcome)` is identical
//! everywhere.

use crate::error::SubmitError;
use crate::metrics::MetricsSnapshot;
use crate::service::{Outcome, Service, Ticket};
use offloadnn_core::instance::PathOption;
use offloadnn_core::task::{Task, TaskId};
use std::fmt;
use std::time::Duration;

/// Why a [`PendingVerdict`] resolved without an [`Outcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerdictError {
    /// The backend lost the request without resolving it (e.g. a
    /// chaos-killed shard worker). Conservation treats it as a leak of
    /// the backend under test, never of the driver.
    Lost,
    /// The endpoint answered with a typed refusal after accepting the
    /// frame (e.g. a drain fence raced the submit on the far side).
    Refused(String),
    /// The transport died before the verdict arrived; whether the
    /// backend resolved it is unknowable from here.
    Transport(String),
    /// The caller-side wait bound elapsed with the request still in
    /// flight.
    TimedOut,
}

impl fmt::Display for VerdictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerdictError::Lost => f.write_str("backend lost the request without a verdict"),
            VerdictError::Refused(msg) => write!(f, "refused by the endpoint: {msg}"),
            VerdictError::Transport(msg) => write!(f, "transport died before the verdict: {msg}"),
            VerdictError::TimedOut => f.write_str("no verdict within the wait bound"),
        }
    }
}

impl std::error::Error for VerdictError {}

/// The tier-specific half of a [`PendingVerdict`]. Implemented by each
/// tier's native pending handle (`Ticket`, `net::PendingVerdict`,
/// `GwPending`); drivers never see this trait, only the facade.
pub trait VerdictHandle: Send {
    /// Non-blocking check: `None` while the verdict is in flight. Once
    /// `Some(...)` has been returned the verdict is consumed; further
    /// polls may report the handle as dead.
    fn poll(&self) -> Option<Result<Outcome, VerdictError>>;

    /// Blocks until the verdict arrives or the tier gives up.
    fn wait(self: Box<Self>) -> Result<Outcome, VerdictError>;

    /// Blocks at most `timeout`; [`VerdictError::TimedOut`] strictly
    /// after the bound elapsed with the request still unresolved.
    fn wait_timeout(self: Box<Self>, timeout: Duration) -> Result<Outcome, VerdictError>;
}

/// A type-erased handle to one in-flight admission, redeemable for its
/// verdict regardless of which tier issued it.
pub struct PendingVerdict {
    task: TaskId,
    inner: Box<dyn VerdictHandle>,
}

impl fmt::Debug for PendingVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PendingVerdict").field("task", &self.task).finish_non_exhaustive()
    }
}

impl PendingVerdict {
    /// Wraps a tier's native pending handle. Used by [`Admitter`]
    /// implementations, not by drivers.
    pub fn new(task: TaskId, inner: Box<dyn VerdictHandle>) -> Self {
        Self { task, inner }
    }

    /// Id of the submitted task.
    pub fn task(&self) -> TaskId {
        self.task
    }

    /// Non-blocking check: `None` while the verdict is in flight.
    pub fn poll(&self) -> Option<Result<Outcome, VerdictError>> {
        self.inner.poll()
    }

    /// Blocks until the verdict arrives or the tier gives up.
    ///
    /// # Errors
    ///
    /// A [`VerdictError`] describing how the verdict was lost.
    pub fn wait(self) -> Result<Outcome, VerdictError> {
        self.inner.wait()
    }

    /// Blocks at most `timeout` for the verdict.
    ///
    /// # Errors
    ///
    /// As [`PendingVerdict::wait`], plus [`VerdictError::TimedOut`].
    pub fn wait_timeout(self, timeout: Duration) -> Result<Outcome, VerdictError> {
        self.inner.wait_timeout(timeout)
    }
}

/// The unified admission surface: what every tier — in-process service,
/// wire client, cluster gateway, federated gateway — offers a driver.
///
/// `deadline` is the caller's admission budget (`None` = the tier's
/// policy default); every implementation applies the *tighter* of it
/// and its own policy, so a caller can shrink its admission window but
/// never extend it. Object-safe by construction: drivers hold
/// `&dyn Admitter` / `Box<dyn Admitter>` and exercise every tier with
/// one loop body.
pub trait Admitter: Send + Sync {
    /// Submits an admission request.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] for requests refused at ingress — draining, no
    /// candidate options, or (wire tiers) an unreachable endpoint.
    fn submit(
        &self,
        task: Task,
        options: Vec<PathOption>,
        deadline: Option<Duration>,
    ) -> Result<PendingVerdict, SubmitError>;

    /// Releases the capacity of an admitted task (fire-and-forget; wire
    /// tiers swallow transport errors, exactly as a crashed client
    /// would).
    fn depart(&self, task: TaskId);

    /// Point-in-time metrics, `None` when the tier cannot produce them
    /// right now (e.g. the wire endpoint is unreachable).
    fn metrics(&self) -> Option<MetricsSnapshot>;

    /// Fences the ingress: subsequent submits fail with
    /// [`SubmitError::Draining`] while in-flight requests still resolve.
    fn begin_drain(&self);

    /// Short name of the tier, echoed by the loadgen headers
    /// (`service` / `net` / `gateway`).
    fn tier(&self) -> &'static str;
}

// Delegating impls so a borrowed or boxed tier is itself an `Admitter`
// — a driver can hold `Box<dyn Admitter + '_>` over a tier whose owner
// keeps the concrete handle for the management plane (drain, reports).
impl<A: Admitter + ?Sized> Admitter for &A {
    fn submit(
        &self,
        task: Task,
        options: Vec<PathOption>,
        deadline: Option<Duration>,
    ) -> Result<PendingVerdict, SubmitError> {
        (**self).submit(task, options, deadline)
    }

    fn depart(&self, task: TaskId) {
        (**self).depart(task);
    }

    fn metrics(&self) -> Option<MetricsSnapshot> {
        (**self).metrics()
    }

    fn begin_drain(&self) {
        (**self).begin_drain();
    }

    fn tier(&self) -> &'static str {
        (**self).tier()
    }
}

impl<A: Admitter + ?Sized> Admitter for Box<A> {
    fn submit(
        &self,
        task: Task,
        options: Vec<PathOption>,
        deadline: Option<Duration>,
    ) -> Result<PendingVerdict, SubmitError> {
        (**self).submit(task, options, deadline)
    }

    fn depart(&self, task: TaskId) {
        (**self).depart(task);
    }

    fn metrics(&self) -> Option<MetricsSnapshot> {
        (**self).metrics()
    }

    fn begin_drain(&self) {
        (**self).begin_drain();
    }

    fn tier(&self) -> &'static str {
        (**self).tier()
    }
}

impl VerdictHandle for Ticket {
    fn poll(&self) -> Option<Result<Outcome, VerdictError>> {
        Ticket::try_wait(self).map(Ok)
    }

    fn wait(self: Box<Self>) -> Result<Outcome, VerdictError> {
        Ticket::wait(&self).ok_or(VerdictError::Lost)
    }

    fn wait_timeout(self: Box<Self>, timeout: Duration) -> Result<Outcome, VerdictError> {
        // A `None` here is almost always the bound elapsing; a lost
        // ticket (chaos-killed worker) is indistinguishable through the
        // channel and reported as TimedOut too — drivers count both as
        // non-verdicts.
        Ticket::wait_timeout(&self, timeout).ok_or(VerdictError::TimedOut)
    }
}

impl Admitter for Service {
    fn submit(
        &self,
        task: Task,
        options: Vec<PathOption>,
        deadline: Option<Duration>,
    ) -> Result<PendingVerdict, SubmitError> {
        let task_id = task.id;
        let budget = deadline.unwrap_or(self.config().admission_deadline);
        let ticket = self.submit_within(task, options, budget)?;
        Ok(PendingVerdict::new(task_id, Box::new(ticket)))
    }

    fn depart(&self, task: TaskId) {
        Service::depart(self, task);
    }

    fn metrics(&self) -> Option<MetricsSnapshot> {
        Some(Service::metrics(self))
    }

    fn begin_drain(&self) {
        Service::begin_drain(self);
    }

    fn tier(&self) -> &'static str {
        "service"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceConfig;
    use offloadnn_core::scenario::small_scenario;

    #[test]
    fn service_admits_through_the_trait_object() {
        let scenario = small_scenario(4);
        let service = Service::start(ServiceConfig::default(), &scenario.instance).unwrap();
        let admitter: &dyn Admitter = &service;
        assert_eq!(admitter.tier(), "service");
        let task = scenario.instance.tasks[0].clone();
        let options = scenario.instance.options[0].clone();
        let pending = admitter.submit(task, options, Some(Duration::from_secs(2))).unwrap();
        let outcome = pending.wait().expect("in-process verdicts are never lost without chaos");
        if matches!(outcome, Outcome::Admitted { .. }) {
            admitter.depart(scenario.instance.tasks[0].id);
        }
        let m = admitter.metrics().expect("service metrics are always available");
        assert_eq!(m.submitted, 1);
        admitter.begin_drain();
        let err = admitter
            .submit(scenario.instance.tasks[1].clone(), scenario.instance.options[1].clone(), None)
            .unwrap_err();
        assert_eq!(err, SubmitError::Draining);
        let report = service.drain();
        assert!(report.metrics.is_conserved());
    }
}
