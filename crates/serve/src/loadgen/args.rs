//! The tier-agnostic driver loop and verdict ledger behind the `loadgen`
//! binary (`offloadnn-bench`), the cross-tier conservation tests and the
//! `serve_throughput` bench.
//!
//! [`drive`] is the one driver body: it speaks [`Admitter`] only, so the
//! exact same loop exercises an in-process [`crate::Service`], a TCP
//! `net::Client` or a cluster `Gateway` without knowing which it holds.
//! [`WireTally`] is the one driver-side verdict ledger, and
//! [`ledger_violations`] is the one check that a run's tally and the
//! ledger it drove balance.

use crate::admit::{Admitter, PendingVerdict, VerdictError};
use crate::error::SubmitError;
use crate::loadgen::ShapePool;
use crate::metrics::MetricsSnapshot;
use crate::service::Outcome;
use offloadnn_core::instance::PathOption;
use offloadnn_core::task::{Task, TaskId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The driver-side verdict ledger, observed through [`Admitter`]
/// pending verdicts — one tally shape for every tier, so the
/// conservation arithmetic (`offered == outcomes + errors`) reads the
/// same on every tier.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WireTally {
    /// Verdicts resolved `Admitted`.
    pub admitted: u64,
    /// Verdicts resolved `Rejected`.
    pub rejected: u64,
    /// Verdicts resolved `Shed`.
    pub shed: u64,
    /// Verdicts resolved `Expired`.
    pub expired: u64,
    /// Requests refused at or after ingress without a verdict
    /// ([`SubmitError`] other than `Unavailable`, or
    /// [`VerdictError::Refused`]).
    pub refused: u64,
    /// Requests whose transport died or whose wait bound elapsed
    /// ([`SubmitError::Unavailable`], [`VerdictError::Transport`],
    /// [`VerdictError::TimedOut`]).
    pub transport: u64,
    /// Requests the backend lost without resolving
    /// ([`VerdictError::Lost`]) — always a bug in the tier under test.
    pub lost: u64,
}

impl WireTally {
    /// Total resolved verdicts.
    pub fn outcomes(&self) -> u64 {
        self.admitted + self.rejected + self.shed + self.expired
    }

    /// Requests that ended in an error instead of a verdict.
    pub fn errors(&self) -> u64 {
        self.refused + self.transport + self.lost
    }

    /// Folds another driver's tally into this one.
    pub fn merge(&mut self, o: WireTally) {
        self.admitted += o.admitted;
        self.rejected += o.rejected;
        self.shed += o.shed;
        self.expired += o.expired;
        self.refused += o.refused;
        self.transport += o.transport;
        self.lost += o.lost;
    }

    /// Records one resolved pending verdict.
    pub fn observe(&mut self, verdict: &Result<Outcome, VerdictError>) {
        match verdict {
            Ok(Outcome::Admitted { .. }) => self.admitted += 1,
            Ok(Outcome::Rejected { .. }) => self.rejected += 1,
            Ok(Outcome::Shed { .. }) => self.shed += 1,
            Ok(Outcome::Expired { .. }) => self.expired += 1,
            Err(VerdictError::Refused(_)) => self.refused += 1,
            Err(VerdictError::Transport(_) | VerdictError::TimedOut) => self.transport += 1,
            Err(VerdictError::Lost) => self.lost += 1,
        }
    }
}

impl fmt::Display for WireTally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "admitted {}  rejected {}  shed {}  expired {}  refused {}  transport-err {}  lost {}",
            self.admitted, self.rejected, self.shed, self.expired, self.refused, self.transport, self.lost,
        )
    }
}

/// Parameters of one [`drive`] loop.
#[derive(Debug, Clone, Copy)]
pub struct DriveConfig {
    /// Submits this driver offers.
    pub requests: u64,
    /// Driver index: decorrelates the RNG across concurrent drivers.
    pub driver: usize,
    /// The driver offers task ids `first_id..first_id + requests`.
    /// Concurrent drivers given disjoint ranges never reuse an id, so
    /// departures stay routable, no shard holds two tasks under one id,
    /// and a seeded run routes every task the same way each time.
    pub first_id: u32,
    /// Base RNG seed, shared across drivers.
    pub seed: u64,
    /// Pipeline depth before the oldest pending verdict is reaped.
    pub window: usize,
    /// Admitted tasks kept alive before the oldest departs (`0` = keep
    /// everything, saturating the backend).
    pub max_active: usize,
    /// Caller-shipped admission budget (`None` = tier policy).
    pub deadline: Option<Duration>,
    /// How long a reaped verdict may stay outstanding before the driver
    /// declares the tier wedged (counted as a transport error, never a
    /// hang).
    pub verdict_timeout: Duration,
    /// Interleave a [`Admitter::metrics`] probe every N submits (`0` =
    /// never).
    pub snapshot_every: u64,
}

impl DriveConfig {
    /// Splits this config's `requests` across `drivers` concurrent
    /// drivers: driver `d` gets index `d`, an even share (the first
    /// `requests % drivers` one extra), and the task ids right after
    /// those of the drivers before it, so no id repeats across the fleet.
    ///
    /// # Panics
    ///
    /// Panics if `drivers` is 0.
    pub fn split(&self, drivers: usize) -> Vec<DriveConfig> {
        let (per, extra) = (self.requests / drivers as u64, self.requests % drivers as u64);
        let mut next_id = u64::from(self.first_id);
        (0..drivers)
            .map(|driver| {
                let requests = per + u64::from((driver as u64) < extra);
                let first_id = u32::try_from(next_id).expect("task id range passes u32::MAX");
                next_id += requests;
                DriveConfig { requests, driver, first_id, ..*self }
            })
            .collect()
    }
}

/// How long a verdict may stay outstanding by default: generous, since
/// a mid-run node kill legitimately parks a ticket for a full gateway
/// deadline + grace while failover runs.
pub const VERDICT_TIMEOUT: Duration = Duration::from_secs(30);

/// What one [`drive`] loop observed.
#[derive(Debug, Default, Clone, Copy)]
pub struct DriveReport {
    /// The verdicts and errors this driver saw.
    pub tally: WireTally,
    /// Admitted tasks this driver departed.
    pub departed: u64,
}

fn settle(pending: PendingVerdict, timeout: Duration, tally: &mut WireTally, active: &mut VecDeque<TaskId>) {
    let task = pending.task();
    let verdict = pending.wait_timeout(timeout);
    if matches!(verdict, Ok(Outcome::Admitted { .. })) {
        active.push_back(task);
    }
    tally.observe(&verdict);
}

/// The one driver body every load run shares: offers `cfg.requests`
/// synthetic submits derived from `protos` (optionally through the
/// deterministic Zipf `shapes` pool) to *any* admission tier behind
/// [`Admitter`], pipelines up to `cfg.window` pending verdicts, departs
/// the oldest admission beyond `cfg.max_active`, and tallies every
/// resolution.
///
/// `offered` is bumped once per submit so concurrent chaos threads
/// (node killers, scale controllers) can trigger on the run-wide
/// offered count.
///
/// # Panics
///
/// Panics if `cfg.first_id + cfg.requests` passes `u32::MAX` (task ids
/// are 32-bit).
pub fn drive(
    admitter: &dyn Admitter,
    cfg: &DriveConfig,
    protos: &[(Task, Vec<PathOption>)],
    shapes: Option<&ShapePool>,
    offered: &AtomicU64,
) -> DriveReport {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (cfg.driver as u64).wrapping_mul(0x9E37_79B9));
    let mut report = DriveReport::default();
    let mut pending = VecDeque::new();
    let mut active: VecDeque<TaskId> = VecDeque::new();

    for i in 0..cfg.requests {
        // Every task is a jittered prototype: priority (so shedding has
        // an order to respect) and rate. With the Zipf pool active the
        // jitter comes from the materialized shape rank instead, so
        // popular shapes repeat bit-identically across every driver and
        // any plan cache downstream has something to hit.
        let (proto, priority, rate) = match shapes {
            Some(pool) => pool.draw(&mut rng),
            None => (
                rng.random_range(0..protos.len()),
                rng.random_range(0.6f64..1.4),
                rng.random_range(0.8f64..1.2),
            ),
        };
        let proto = &protos[proto];
        let mut task = proto.0.clone();
        task.priority = (task.priority * priority).clamp(0.05, 1.0);
        task.request_rate *= rate;
        task.id = TaskId(u32::try_from(u64::from(cfg.first_id) + i).expect("task id range passes u32::MAX"));
        match admitter.submit(task, proto.1.clone(), cfg.deadline) {
            Ok(p) => pending.push_back(p),
            Err(SubmitError::Unavailable) => report.tally.transport += 1,
            Err(_) => report.tally.refused += 1,
        }
        offered.fetch_add(1, Ordering::Relaxed);
        if pending.len() >= cfg.window {
            if let Some(p) = pending.pop_front() {
                settle(p, cfg.verdict_timeout, &mut report.tally, &mut active);
            }
        }
        while cfg.max_active > 0 && active.len() > cfg.max_active {
            if let Some(id) = active.pop_front() {
                admitter.depart(id);
                report.departed += 1;
            }
        }
        if cfg.snapshot_every > 0 && i % cfg.snapshot_every == cfg.snapshot_every - 1 {
            let _ = admitter.metrics();
        }
    }
    while let Some(p) = pending.pop_front() {
        settle(p, cfg.verdict_timeout, &mut report.tally, &mut active);
    }
    report
}

/// The one conservation check of a load run against the ledger it
/// drove: every offered request ended in exactly one verdict or error,
/// none was lost, the ledger itself conserves, and the verdicts the
/// drivers observed match the ledger's counts class by class.
///
/// `wire` marks a tier behind a transport, where a refusal or a dead
/// connection is a legitimate ending; in process every request must end
/// in a verdict, so any error is a violation. A lost request is a bug on
/// every tier. Returns one message per violation; empty means the run
/// balances.
pub fn ledger_violations(
    offered: u64,
    tally: &WireTally,
    ledger: &MetricsSnapshot,
    wire: bool,
) -> Vec<String> {
    let mut violations = Vec::new();
    if tally.outcomes() + tally.errors() != offered {
        violations.push(format!(
            "offered {offered} != outcomes {} + errors {}",
            tally.outcomes(),
            tally.errors()
        ));
    }
    if tally.lost > 0 {
        violations.push(format!("{} request(s) lost without a verdict", tally.lost));
    }
    if !wire && tally.errors() > 0 {
        violations.push(format!("{} request(s) ended in an error in process: {tally}", tally.errors()));
    }
    if !ledger.is_conserved() {
        violations.push(format!(
            "ledger conservation violated: submitted {} != resolved {}",
            ledger.submitted,
            ledger.resolved()
        ));
    }
    for (class, seen, counted) in [
        ("submitted", tally.outcomes(), ledger.submitted),
        ("admitted", tally.admitted, ledger.admitted),
        ("rejected", tally.rejected, ledger.rejected),
        ("shed", tally.shed, ledger.shed),
        ("expired", tally.expired, ledger.expired),
    ] {
        if seen != counted {
            violations.push(format!("{class}: drivers saw {seen}, ledger counted {counted}"));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceConfig;
    use crate::service::Service;
    use offloadnn_core::scenario::small_scenario;

    #[test]
    fn tally_merge_and_conservation_arithmetic() {
        let mut a = WireTally { admitted: 2, shed: 1, ..WireTally::default() };
        let b = WireTally { rejected: 3, transport: 1, lost: 1, ..WireTally::default() };
        a.merge(b);
        assert_eq!(a.outcomes(), 6);
        assert_eq!(a.errors(), 2);
        let shown = format!("{a}");
        assert!(shown.contains("admitted 2") && shown.contains("lost 1"), "{shown}");
    }

    #[test]
    fn drive_conserves_over_an_in_process_service() {
        let scenario = small_scenario(5);
        let service =
            Service::start(ServiceConfig { shards: 2, ..ServiceConfig::default() }, &scenario.instance)
                .expect("service start");
        let protos: Vec<_> =
            scenario.instance.tasks.iter().cloned().zip(scenario.instance.options.iter().cloned()).collect();
        let offered = AtomicU64::new(0);
        let cfg = DriveConfig {
            requests: 300,
            driver: 0,
            first_id: 0,
            seed: 11,
            window: 32,
            max_active: 16,
            deadline: None,
            verdict_timeout: VERDICT_TIMEOUT,
            snapshot_every: 50,
        };
        let report = drive(&service, &cfg, &protos, None, &offered);
        assert_eq!(offered.load(Ordering::Relaxed), 300);
        assert_eq!(report.tally.errors(), 0, "{:?}", report.tally);
        let drain = service.drain();
        assert_eq!(ledger_violations(300, &report.tally, &drain.metrics, false), Vec::<String>::new());
        assert!(drain.within_budgets());
        assert!(report.tally.admitted > 0, "some capacity must be granted: {:?}", report.tally);
    }

    #[test]
    fn ledger_check_names_each_imbalance() {
        let mut ledger = crate::metrics::ServiceMetrics::new().snapshot();
        (ledger.submitted, ledger.admitted, ledger.rejected) = (3, 2, 1);
        let tally = WireTally { admitted: 2, rejected: 1, ..WireTally::default() };
        assert!(ledger_violations(3, &tally, &ledger, false).is_empty());
        let short = WireTally { admitted: 1, rejected: 1, transport: 1, ..WireTally::default() };
        let v = ledger_violations(3, &short, &ledger, true);
        assert!(v.iter().any(|m| m.starts_with("admitted: drivers saw 1")), "{v:?}");
        assert!(v.iter().any(|m| m.starts_with("submitted")), "{v:?}");
        assert_eq!(ledger_violations(4, &tally, &ledger, false).len(), 1);
    }

    #[test]
    fn ledger_check_refuses_lost_requests_and_in_process_errors() {
        let mut ledger = crate::metrics::ServiceMetrics::new().snapshot();
        (ledger.submitted, ledger.admitted) = (2, 2);
        let refused = WireTally { admitted: 2, refused: 1, ..WireTally::default() };
        assert!(ledger_violations(3, &refused, &ledger, true).is_empty(), "a wire tier may refuse");
        let v = ledger_violations(3, &refused, &ledger, false);
        assert!(v.iter().any(|m| m.contains("ended in an error in process")), "{v:?}");
        let lost = WireTally { admitted: 2, lost: 1, ..WireTally::default() };
        let v = ledger_violations(3, &lost, &ledger, true);
        assert!(v.iter().any(|m| m.contains("lost without a verdict")), "{v:?}");
    }

    /// Records every submitted task id and answers each with a refusal.
    #[derive(Default)]
    struct Recorder(std::sync::Mutex<Vec<TaskId>>);

    impl Admitter for Recorder {
        fn submit(
            &self,
            task: Task,
            _options: Vec<PathOption>,
            _deadline: Option<Duration>,
        ) -> Result<PendingVerdict, SubmitError> {
            self.0.lock().expect("recorder lock").push(task.id);
            Err(SubmitError::Draining)
        }
        fn depart(&self, _task: TaskId) {}
        fn metrics(&self) -> Option<MetricsSnapshot> {
            None
        }
        fn begin_drain(&self) {}
        fn tier(&self) -> &'static str {
            "recorder"
        }
    }

    #[test]
    fn task_ids_never_repeat_across_drivers() {
        let scenario = small_scenario(5);
        let protos: Vec<_> =
            scenario.instance.tasks.iter().cloned().zip(scenario.instance.options.iter().cloned()).collect();
        let recorder = Recorder::default();
        let offered = AtomicU64::new(0);
        let fleet = DriveConfig {
            requests: 44 * 50 + 7,
            driver: 0,
            first_id: 0,
            seed: 7,
            window: 4,
            max_active: 0,
            deadline: None,
            verdict_timeout: VERDICT_TIMEOUT,
            snapshot_every: 0,
        }
        .split(44);
        assert_eq!(fleet.iter().map(|c| c.requests).sum::<u64>(), 44 * 50 + 7);
        // Drivers 6 and 7 straddle the uneven share, 43 the old clamp.
        for driver in [0, 6, 7, 43] {
            drive(&recorder, &fleet[driver], &protos, None, &offered);
        }
        let mut ids = recorder.0.into_inner().expect("recorder lock");
        assert_eq!(ids.len(), 51 + 51 + 50 + 50);
        ids.sort_unstable_by_key(|id| id.0);
        ids.dedup();
        assert_eq!(ids.len(), 51 + 51 + 50 + 50, "a task id was reused across drivers");
    }
}
