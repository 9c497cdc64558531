//! The open-loop load generator: a pacer thread submits each scheduled
//! arrival at its due time and departs admitted tasks when their lifetime
//! ends; a reaper thread collects verdicts. Each request is timed from its
//! due time, so a stall is also charged to the requests queued behind it.

use crate::workload::{materialize, Arrival};
use offloadnn_core::instance::DotInstance;
use offloadnn_core::task::TaskId;
use offloadnn_serve::loadgen::args::WireTally;
use offloadnn_serve::{Admitter, Outcome, PendingVerdict, SubmitError, VerdictError};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Verdict latency at or under this counts toward `slo_share`.
pub const SLO: Duration = Duration::from_millis(25);

/// Length of the windows over which the end-to-end metrics take
/// per-window values and report their median, so a burst of host noise
/// moves a few windows rather than the result.
pub const WINDOW_S: f64 = 1.0;

/// How long the reaper waits for one verdict before writing it off as a
/// timeout. Far above any latency below the knee.
const VERDICT_TIMEOUT: Duration = Duration::from_secs(20);

/// One recorded span: the driver's own calls into the tier. Spans of one
/// request share its index; `submit`, `wait` and `depart` are children of
/// `request`, which runs from the due time to the verdict.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// `request`, `submit`, `wait` or `depart`.
    pub name: &'static str,
    /// Index of the request in the schedule.
    pub request: u32,
    /// Start, ns after the run's origin.
    pub start_ns: u64,
    /// End, ns after the run's origin.
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// What one open-loop run observed.
#[derive(Debug, Default)]
pub struct Drive {
    /// Submits attempted.
    pub attempted: u64,
    /// Verdicts and failures by class. A verdict that misses the wait
    /// bound counts under `transport`.
    pub tally: WireTally,
    /// Departures sent.
    pub departed: u64,
    /// `(due time in seconds after the start, latency from due time to
    /// verdict in ms)`, one per verdict.
    pub latencies_ms: Vec<(f64, f64)>,
    /// Verdicts within [`SLO`].
    pub within_slo: u64,
    /// Sum of priority over every attempted submit.
    pub priority_submitted: f64,
    /// Sum of priority over admitted submits.
    pub priority_admitted: f64,
    /// How late the pacer started each submit, ms.
    pub late_ms: Vec<f64>,
    /// Process CPU seconds from the first due time to the last verdict.
    pub cpu_s: f64,
    /// Wall seconds over the same interval.
    pub wall_s: f64,
    /// Host steal seconds over the same interval.
    pub steal_s: f64,
    /// `(process CPU seconds, submits made so far, host steal seconds)`
    /// sampled at the first submit due in each [`WINDOW_S`] window.
    pub cpu_marks: Vec<(f64, u64, f64)>,
    /// Spans, when traced.
    pub spans: Vec<SpanRec>,
    /// Lowest `gw.nodes.healthy` gauge seen at a submit, when traced.
    pub healthy_min: Option<u64>,
}

struct Submitted {
    index: u32,
    due: Instant,
    pending: Result<PendingVerdict, SubmitError>,
}

struct Waiting {
    index: u32,
    due: Instant,
    pending: Option<PendingVerdict>,
    done: Option<(Instant, Result<Outcome, VerdictError>)>,
}

fn ns_since(origin: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(origin).as_nanos()).unwrap_or(u64::MAX)
}

/// Runs the schedule open-loop against `admitter` and returns what the
/// driver saw. With `traced`, the driver records its own spans and
/// samples the gateway's healthy-node gauge.
///
/// # Errors
///
/// A message when the process CPU clock cannot be read.
pub fn run(
    admitter: &dyn Admitter,
    template: &DotInstance,
    schedule: &[Arrival],
    traced: bool,
) -> Result<Drive, String> {
    let priorities: Vec<f64> =
        schedule.iter().enumerate().map(|(i, a)| materialize(template, i, a).0.priority).collect();
    let healthy = traced.then(|| offloadnn_telemetry::global().gauge("gw.nodes.healthy"));
    let (sub_tx, sub_rx) = mpsc::channel::<Submitted>();
    let (dep_tx, dep_rx) = mpsc::channel::<(Instant, u32)>();

    let cpu0 = crate::sys::cpu_seconds()?;
    let steal0 = crate::sys::steal_seconds()?;
    // A short lead lets both threads reach their loops before the first
    // arrival is due.
    let origin = Instant::now() + Duration::from_millis(5);
    let mut drive = Drive::default();

    let reaped = std::thread::scope(|scope| {
        let reaper = scope.spawn(|| reap(sub_rx, dep_tx, schedule, &priorities, origin, traced));

        // The pacer: sleeps on the departure channel until the next event
        // (a due submit or a due departure), so a departure announced
        // while it waits still leaves on time.
        let mut departures: BinaryHeap<Reverse<(Instant, u32)>> = BinaryHeap::new();
        let depart_due = |drive: &mut Drive, heap: &mut BinaryHeap<Reverse<(Instant, u32)>>, until| {
            while let Some(&Reverse((at, index))) = heap.peek() {
                if at > until {
                    break;
                }
                heap.pop();
                let start = Instant::now();
                admitter.depart(TaskId(index));
                drive.departed += 1;
                if traced {
                    let end = Instant::now();
                    drive.spans.push(SpanRec {
                        name: "depart",
                        request: index,
                        start_ns: ns_since(origin, start),
                        end_ns: ns_since(origin, end),
                    });
                }
            }
        };
        let mut cpu_marks = Vec::new();
        for (i, arrival) in schedule.iter().enumerate() {
            let due = origin + Duration::from_secs_f64(arrival.at);
            if arrival.at >= cpu_marks.len() as f64 * WINDOW_S {
                cpu_marks.push((crate::sys::cpu_seconds(), i as u64, crate::sys::steal_seconds()));
            }
            loop {
                let now = Instant::now();
                depart_due(&mut drive, &mut departures, now);
                let next = departures.peek().map_or(due, |Reverse((at, _))| (*at).min(due));
                if now >= due {
                    break;
                }
                match dep_rx.recv_timeout(next.saturating_duration_since(now)) {
                    Ok(entry) => departures.push(Reverse(entry)),
                    Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {}
                }
            }
            let (task, options) = materialize(template, i, arrival);
            let start = Instant::now();
            drive.late_ms.push(start.saturating_duration_since(due).as_secs_f64() * 1e3);
            let pending = admitter.submit(task, options, None);
            drive.attempted += 1;
            drive.priority_submitted += priorities[i];
            let index = u32::try_from(i).expect("fewer than 2^32 submits per run");
            if traced {
                drive.spans.push(SpanRec {
                    name: "submit",
                    request: index,
                    start_ns: ns_since(origin, start),
                    end_ns: ns_since(origin, Instant::now()),
                });
                if let Some(g) = &healthy {
                    let h = g.get();
                    drive.healthy_min = Some(drive.healthy_min.map_or(h, |m| m.min(h)));
                }
            }
            // The reaper only hangs up after this sender drops.
            let _ = sub_tx.send(Submitted { index, due, pending });
        }
        drop(sub_tx);
        // Keep departing on time until the last verdict is in.
        loop {
            let now = Instant::now();
            depart_due(&mut drive, &mut departures, now);
            let wait = departures
                .peek()
                .map_or(Duration::from_millis(5), |Reverse((at, _))| at.saturating_duration_since(now));
            match dep_rx.recv_timeout(wait) {
                Ok(entry) => departures.push(Reverse(entry)),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        let reaped = reaper.join().expect("reaper thread panicked");
        // The timed phase ends with the last verdict; tasks still holding
        // a grant leave now instead of waiting out their lifetime.
        let end = reaped.last_verdict.max(origin);
        let cpu1 = crate::sys::cpu_seconds();
        let steal1 = crate::sys::steal_seconds();
        while let Some(Reverse((_, index))) = departures.pop() {
            admitter.depart(TaskId(index));
            drive.departed += 1;
        }
        (reaped, end, cpu1, steal1, cpu_marks)
    });
    let (reaped, end, cpu1, steal1, cpu_marks) = reaped;
    for (cpu, submits, steal) in cpu_marks {
        drive.cpu_marks.push((cpu?, submits, steal?));
    }
    drive.cpu_s = cpu1? - cpu0;
    drive.steal_s = steal1? - steal0;
    drive.wall_s = (end - origin).as_secs_f64();
    drive.tally = reaped.tally;
    drive.latencies_ms = reaped.latencies_ms;
    drive.within_slo = reaped.within_slo;
    drive.priority_admitted = reaped.priority_admitted;
    drive.spans.extend(reaped.spans);
    Ok(drive)
}

struct Reaped {
    tally: WireTally,
    latencies_ms: Vec<(f64, f64)>,
    within_slo: u64,
    priority_admitted: f64,
    spans: Vec<SpanRec>,
    last_verdict: Instant,
}

/// The reaper: blocks on the oldest outstanding verdict, then sweeps the
/// younger ones without blocking, so a verdict that overtakes an older
/// one is stamped when the sweep finds it rather than behind the older
/// one. Every admission is handed back to the pacer with its departure
/// time.
fn reap(
    rx: mpsc::Receiver<Submitted>,
    departures: mpsc::Sender<(Instant, u32)>,
    schedule: &[Arrival],
    priorities: &[f64],
    origin: Instant,
    traced: bool,
) -> Reaped {
    let mut out = Reaped {
        tally: WireTally::default(),
        latencies_ms: Vec::with_capacity(schedule.len()),
        within_slo: 0,
        priority_admitted: 0.0,
        spans: Vec::new(),
        last_verdict: origin,
    };
    let mut queue: VecDeque<Waiting> = VecDeque::new();
    let mut open = true;
    loop {
        if queue.is_empty() {
            if !open {
                break;
            }
            match rx.recv() {
                Ok(s) => queue.push_back(waiting(s)),
                Err(_) => open = false,
            }
        }
        while open {
            match rx.try_recv() {
                Ok(s) => queue.push_back(waiting(s)),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => open = false,
            }
        }
        if let Some(front) = queue.front_mut() {
            if front.done.is_none() {
                let pending = front.pending.take().expect("an open entry holds its handle");
                let start = Instant::now();
                let verdict = pending.wait_timeout(VERDICT_TIMEOUT);
                let end = Instant::now();
                if traced {
                    out.spans.push(SpanRec {
                        name: "wait",
                        request: front.index,
                        start_ns: ns_since(origin, start),
                        end_ns: ns_since(origin, end),
                    });
                }
                front.done = Some((end, verdict));
            }
        }
        let now = Instant::now();
        for w in queue.iter_mut().skip(1) {
            if w.done.is_none() {
                if let Some(verdict) = w.pending.as_ref().and_then(PendingVerdict::poll) {
                    w.pending = None;
                    w.done = Some((now, verdict));
                }
            }
        }
        while queue.front().is_some_and(|w| w.done.is_some()) {
            let w = queue.pop_front().expect("front exists");
            let (at, verdict) = w.done.expect("checked above");
            settle(&mut out, &departures, schedule, priorities, origin, traced, w.index, w.due, at, &verdict);
        }
    }
    out
}

fn waiting(s: Submitted) -> Waiting {
    match s.pending {
        Ok(p) => Waiting { index: s.index, due: s.due, pending: Some(p), done: None },
        Err(e) => {
            // Refused at ingress: a failure, never a verdict.
            let verdict = match e {
                SubmitError::Unavailable => Err(VerdictError::Transport(e.to_string())),
                other => Err(VerdictError::Refused(other.to_string())),
            };
            Waiting { index: s.index, due: s.due, pending: None, done: Some((Instant::now(), verdict)) }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn settle(
    out: &mut Reaped,
    departures: &mpsc::Sender<(Instant, u32)>,
    schedule: &[Arrival],
    priorities: &[f64],
    origin: Instant,
    traced: bool,
    index: u32,
    due: Instant,
    at: Instant,
    verdict: &Result<Outcome, VerdictError>,
) {
    out.tally.observe(verdict);
    if verdict.is_err() {
        return;
    }
    let latency = at.saturating_duration_since(due);
    out.latencies_ms.push((schedule[index as usize].at, latency.as_secs_f64() * 1e3));
    out.within_slo += u64::from(latency <= SLO);
    out.last_verdict = out.last_verdict.max(at);
    if traced {
        out.spans.push(SpanRec {
            name: "request",
            request: index,
            start_ns: ns_since(origin, due),
            end_ns: ns_since(origin, at),
        });
    }
    if matches!(verdict, Ok(Outcome::Admitted { .. })) {
        out.priority_admitted += priorities[index as usize];
        let hold = Duration::from_secs_f64(schedule[index as usize].lifetime);
        // The pacer outlives the reaper, so the send cannot fail.
        let _ = departures.send((at + hold, index));
    }
}
