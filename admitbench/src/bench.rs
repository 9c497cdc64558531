//! The command: parses the driver's flags, runs the workload, checks the
//! tier's ledgers against the driver's tally and prints the run record
//! and the result line.
//!
//! `--trace 0` runs one untraced open loop for `--seconds` and reports the
//! end-to-end metrics. `--trace 1` runs the same stream untraced and then
//! traced for half the time each (the gap between their medians is the
//! tracing overhead), then replays the traced stream through each layer
//! and reports the per-layer metrics.

use crate::driver::{self, Drive, SpanRec, WINDOW_S};
use crate::json::Value;
use crate::replay;
use crate::sys::{self, median, quantile};
use crate::workload::{schedule, set_up, Arrival, Ledger, Setup, Workload};
use offloadnn_core::instance::DotInstance;
use offloadnn_telemetry::RegistrySnapshot;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Set-ups before the run (the last one serves it) and again after it;
/// `setup_s` is the median of all of them.
const SETUP_REPS: usize = 11;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of the arrival stream.
    pub seed: u64,
    /// Seconds of arrivals to offer.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

const USAGE: &str =
    "usage: admitbench --workload solve_churn|wire_zipf|gateway_fresh --seed N --seconds S --trace 0|1";

/// Parses `--workload`, `--seed`, `--seconds` and `--trace`.
///
/// # Errors
///
/// A message naming the bad or missing flag.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {value}: expected 0 < S <= 120"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Differences of the global registry over the timed part of a phase.
struct Deltas {
    before: RegistrySnapshot,
    after: RegistrySnapshot,
}

impl Deltas {
    /// `(count, sum_us)` recorded into phase `name` in between.
    fn phase(&self, name: &str) -> (u64, u64) {
        let get = |s: &RegistrySnapshot| {
            s.phases.iter().find(|(n, _)| *n == name).map_or((0, 0), |(_, h)| (h.count, h.sum_us))
        };
        let (b, a) = (get(&self.before), get(&self.after));
        (a.0.saturating_sub(b.0), a.1.saturating_sub(b.1))
    }

    /// Mean µs of phase `name` in between (0 when nothing was recorded).
    fn mean_us(&self, name: &str) -> f64 {
        let (count, sum) = self.phase(name);
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }

    /// Increase of counter `name` in between.
    fn counter(&self, name: &str) -> u64 {
        let get = |s: &RegistrySnapshot| s.counters.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v);
        get(&self.after).saturating_sub(get(&self.before))
    }
}

/// One open-loop phase: repeated set-ups, the timed run, the drain and
/// its checks.
struct Phase {
    seconds: f64,
    template: DotInstance,
    schedule: Vec<Arrival>,
    drive: Drive,
    ledger: Ledger,
    scenario_s: Vec<f64>,
    start_s: Vec<f64>,
    deltas: Deltas,
    violations: Vec<String>,
}

impl Phase {
    fn setup_s(&self) -> Vec<f64> {
        self.scenario_s.iter().zip(&self.start_s).map(|(a, b)| a + b).collect()
    }

    fn latency_sorted(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.drive.latencies_ms.iter().map(|&(_, ms)| ms).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// CPU µs per submit in each whole [`WINDOW_S`] window of the run.
    fn window_cpu_us(&self) -> Vec<f64> {
        self.drive
            .cpu_marks
            .windows(2)
            .filter(|w| w[1].1 > w[0].1)
            .map(|w| (w[1].0 - w[0].0) * 1e6 / (w[1].1 - w[0].1) as f64)
            .collect()
    }

    /// Process CPU per verdict in µs: the median over the run's windows,
    /// or the whole run's figure when it is shorter than two windows.
    fn cpu_us_per_verdict(&self) -> f64 {
        let per_window = self.window_cpu_us();
        if per_window.is_empty() {
            share(self.drive.cpu_s * 1e6, self.verdicts() as f64)
        } else {
            median(&per_window)
        }
    }

    /// Each window's `q`-quantile latency, the run cut by due time into
    /// equal windows about [`WINDOW_S`] long.
    fn window_quantiles(&self, q: f64) -> Vec<f64> {
        let windows = (self.seconds / WINDOW_S).round().max(1.0);
        let width = self.seconds / windows;
        let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); windows as usize];
        for &(at, ms) in &self.drive.latencies_ms {
            let w = ((at / width) as usize).min(per_window.len() - 1);
            per_window[w].push(ms);
        }
        per_window
            .iter_mut()
            .filter(|w| !w.is_empty())
            .map(|w| {
                w.sort_by(f64::total_cmp);
                quantile(w, q).expect("non-empty")
            })
            .collect()
    }

    /// The median over the run's windows of their `q`-quantile latency.
    fn windowed_quantile(&self, q: f64) -> f64 {
        median(&self.window_quantiles(q))
    }

    fn verdicts(&self) -> u64 {
        self.drive.tally.outcomes()
    }
}

fn run_phase(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Phase, String> {
    let (mut scenario_s, mut start_s) = (Vec::new(), Vec::new());
    let mut live: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = live.take() {
            previous.tier.finish()?;
        }
        let setup = set_up(workload)?;
        scenario_s.push(setup.scenario_s);
        start_s.push(setup.start_s);
        live = Some(setup);
    }
    let setup = live.expect("SETUP_REPS >= 1");
    let schedule = schedule(workload, seed, seconds, setup.template.tasks.len());
    let before = offloadnn_telemetry::global().snapshot();
    let drive = driver::run(setup.tier.admitter(), &setup.template, &schedule, traced)?;
    let after = offloadnn_telemetry::global().snapshot();
    let ledger = setup.tier.finish()?;
    // As many set-ups again after the run: host conditions drift over tens
    // of seconds, and sampling both ends of the run keeps one quiet or
    // noisy spell from setting the median.
    for _ in 0..SETUP_REPS {
        let extra = set_up(workload)?;
        scenario_s.push(extra.scenario_s);
        start_s.push(extra.start_s);
        extra.tier.finish()?;
    }
    let violations = check(&drive, &ledger, schedule.len() as u64);
    Ok(Phase {
        seconds,
        template: setup.template,
        schedule,
        drive,
        ledger,
        scenario_s,
        start_s,
        deltas: Deltas { before, after },
        violations,
    })
}

/// The correctness check of one run: every ledger conserves, no ledger
/// departs more than it admitted, the driver's tally equals the front
/// ledger class by class, every departure sent reached the ledger, and
/// no verdict was lost.
fn check(drive: &Drive, ledger: &Ledger, scheduled: u64) -> Vec<String> {
    let mut v = Vec::new();
    let t = &drive.tally;
    let m = &ledger.front;
    if drive.attempted != scheduled {
        v.push(format!("attempted {} of {scheduled} scheduled submits", drive.attempted));
    }
    for (name, l) in std::iter::once(("front", m)).chain(ledger.nodes.iter().map(|n| ("node", n))) {
        if !l.is_conserved() {
            v.push(format!(
                "{name} ledger does not conserve: submitted {} != admitted {} + rejected {} + shed {} + expired {}",
                l.submitted, l.admitted, l.rejected, l.shed, l.expired
            ));
        }
        if l.departed > l.admitted {
            v.push(format!("{name} ledger departed {} > admitted {}", l.departed, l.admitted));
        }
    }
    if (m.submitted, m.admitted, m.rejected, m.shed, m.expired)
        != (t.outcomes(), t.admitted, t.rejected, t.shed, t.expired)
    {
        v.push(format!(
            "driver tally (verdicts {}, admitted {}, rejected {}, shed {}, expired {}) != ledger (submitted {}, \
             admitted {}, rejected {}, shed {}, expired {})",
            t.outcomes(),
            t.admitted,
            t.rejected,
            t.shed,
            t.expired,
            m.submitted,
            m.admitted,
            m.rejected,
            m.shed,
            m.expired
        ));
    }
    if m.departed != drive.departed {
        v.push(format!("{} departures sent but the ledger processed {}", drive.departed, m.departed));
    }
    if t.lost + t.transport > 0 {
        v.push(format!(
            "verdicts lost: {} by the tier, {} in transport or past the wait bound",
            t.lost, t.transport
        ));
    }
    if ledger.lost_shards > 0 {
        v.push(format!("{} shard workers died", ledger.lost_shards));
    }
    v
}

fn metric(value: f64, unit: &str) -> Value {
    Value::obj().with("value", value).with("unit", unit)
}

fn share(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

/// The percentile summary of the run record: p50/p90 plus p99 and p99.9
/// with how many samples lie beyond each, for information only.
fn latency_info(sorted: &[f64]) -> Value {
    let mut info = Value::obj().with("samples", sorted.len());
    for (name, q) in [("p50_ms", 0.5), ("p90_ms", 0.9), ("p99_ms", 0.99), ("p999_ms", 0.999)] {
        let value = quantile(sorted, q).unwrap_or(0.0);
        let beyond = sorted.iter().filter(|&&x| x > value).count();
        info = info.with(name, Value::obj().with("value", value).with("samples_beyond", beyond));
    }
    info.with("max_ms", sorted.last().copied().unwrap_or(0.0))
}

fn regime(phase: &Phase) -> Value {
    let t = &phase.drive.tally;
    let attempted = phase.drive.attempted as f64;
    let mut late = phase.drive.late_ms.clone();
    late.sort_by(f64::total_cmp);
    Value::obj()
        .with("shed_share", share(t.shed as f64, attempted))
        .with("expired_share", share(t.expired as f64, attempted))
        .with("late_p50_ms", quantile(&late, 0.5).unwrap_or(0.0))
        .with("late_p99_ms", quantile(&late, 0.99).unwrap_or(0.0))
        .with("late_max_ms", late.last().copied().unwrap_or(0.0))
}

fn ledger_record(phase: &Phase) -> Value {
    let t = &phase.drive.tally;
    let m = &phase.ledger.front;
    let pc = &phase.ledger.plan_cache;
    Value::obj()
        .with(
            "driver",
            Value::obj()
                .with("attempted", phase.drive.attempted)
                .with("admitted", t.admitted)
                .with("rejected", t.rejected)
                .with("shed", t.shed)
                .with("expired", t.expired)
                .with("refused", t.refused)
                .with("transport", t.transport)
                .with("lost", t.lost)
                .with("departed", phase.drive.departed),
        )
        .with(
            "ledger",
            Value::obj()
                .with("submitted", m.submitted)
                .with("admitted", m.admitted)
                .with("rejected", m.rejected)
                .with("shed", m.shed)
                .with("expired", m.expired)
                .with("departed", m.departed)
                .with("nodes", phase.ledger.nodes.len()),
        )
        .with(
            "plan_cache",
            Value::obj()
                .with("hits", pc.hits)
                .with("negative_hits", pc.negative_hits)
                .with("misses", pc.misses)
                .with("validation_failures", pc.validation_failures),
        )
        .with("violations", phase.violations.iter().map(|s| Value::from(s.as_str())).collect::<Vec<_>>())
}

fn end_to_end(phase: &Phase) -> Result<Value, String> {
    let d = &phase.drive;
    Ok(Value::obj()
        .with("setup_s", metric(median(&phase.setup_s()), "s"))
        .with("verdict_p50_ms", metric(phase.windowed_quantile(0.5), "ms"))
        .with("slo_share", metric(share(d.within_slo as f64, d.attempted as f64), "share"))
        .with("admitted_share", metric(share(d.tally.admitted as f64, d.attempted as f64), "share"))
        .with("priority_admit_share", metric(share(d.priority_admitted, d.priority_submitted), "share"))
        .with("cpu_us_per_verdict", metric(phase.cpu_us_per_verdict(), "us"))
        .with("peak_rss_mib", metric(sys::peak_rss_mib()?, "MiB")))
}

fn mean(v: &[f64]) -> f64 {
    share(v.iter().sum(), v.len() as f64)
}

fn span_mean_us(spans: &[SpanRec], name: &str) -> f64 {
    let picked: Vec<f64> = spans.iter().filter(|s| s.name == name).map(SpanRec::micros).collect();
    mean(&picked)
}

fn per_layer(workload: Workload, untraced: &Phase, traced: &Phase, r: &replay::Replay) -> Value {
    let wire = workload != Workload::SolveChurn;
    let gateway = workload == Workload::GatewayFresh;
    let when = |on: bool, v: f64| if on { v } else { 0.0 };
    let dl = &traced.deltas;
    let verdicts = traced.verdicts() as f64;
    let nodes = &traced.ledger.nodes;
    let rounds: u64 = nodes.iter().map(|n| n.solver_rounds).sum();
    let resolved: u64 = nodes.iter().map(|n| n.resolved()).sum();
    let (round_count, round_sum): (u64, u64) =
        nodes.iter().fold((0, 0), |(c, s), n| (c + n.round_time.count, s + n.round_time.sum_us));
    let peak_queue = nodes.iter().map(|n| n.peak_queue_depth).max().unwrap_or(0);
    let pc = &traced.ledger.plan_cache;
    let lookups = pc.lookups() as f64;
    // A hit of either polarity that fails its re-check falls through to
    // a solve and counts as a validation failure.
    let hits = (pc.hits + pc.negative_hits) as f64;
    let useful = hits - pc.validation_failures as f64;
    let solver_rounds = dl.phase("solver.round").0 as f64;
    let heuristic_sum: u64 =
        ["solver.clique", "solver.tree", "solver.alloc"].iter().map(|p| dl.phase(p).1).sum();
    let mut round_sorted = r.round_us.clone();
    round_sorted.sort_by(f64::total_cmp);
    let untraced_p50 = quantile(&untraced.latency_sorted(), 0.5).unwrap_or(0.0);
    let traced_p50 = quantile(&traced.latency_sorted(), 0.5).unwrap_or(0.0);
    let mut late = untraced.drive.late_ms.clone();
    late.sort_by(f64::total_cmp);
    let active: Vec<f64> = r.active.iter().map(|&a| a as f64).collect();

    let m = |v: f64, unit: &str| metric(v, unit);
    Value::obj()
        .with("core.round_us", m(mean(&r.round_us), "us"))
        .with("core.round_p90_us", m(quantile(&round_sorted, 0.9).unwrap_or(0.0), "us"))
        .with("core.active_mean", m(mean(&active), "count"))
        .with("core.release_us", m(mean(&r.release_us), "us"))
        .with("core.admit_share", m(share(r.admitted as f64, r.submitted as f64), "share"))
        .with("solver.round_mean_us", m(dl.mean_us("solver.round"), "us"))
        .with("solver.heuristic_mean_us", m(share(heuristic_sum as f64, solver_rounds), "us"))
        .with("serve.submit_call_us", m(when(!wire, span_mean_us(&traced.drive.spans, "submit")), "us"))
        .with("serve.depart_call_us", m(when(!wire, span_mean_us(&traced.drive.spans, "depart")), "us"))
        .with("serve.verdicts_per_round", m(share(resolved as f64, rounds as f64), "count"))
        .with("serve.round_mean_us", m(share(round_sum as f64, round_count as f64), "us"))
        .with("serve.peak_queue", m(peak_queue as f64, "count"))
        .with("plancache.useful_share", m(share(useful, lookups), "share"))
        .with("plancache.revalidation_fail_share", m(share(pc.validation_failures as f64, hits), "share"))
        .with("plancache.lookup_ns", m(r.lookup_ns, "ns"))
        .with("net.encode_ns", m(when(wire, r.encode_ns), "ns"))
        .with("net.decode_ns", m(when(wire, r.decode_ns), "ns"))
        .with("net.bytes_per_verdict", m(when(wire, r.bytes_per_verdict), "bytes"))
        .with("net.submit_call_us", m(when(wire, span_mean_us(&traced.drive.spans, "submit")), "us"))
        .with("net.rtt_mean_us", m(when(wire, dl.mean_us("net.rtt")), "us"))
        .with(
            "reactor.wakeups_per_verdict",
            m(share(dl.counter("net.epoll.wakeups") as f64, verdicts), "count"),
        )
        .with("gateway.route_ns", m(when(gateway, r.route_ns), "ns"))
        .with("gateway.failovers", m(dl.counter("gw.failover") as f64, "count"))
        .with("gateway.healthy_min", m(when(gateway, traced.drive.healthy_min.unwrap_or(0) as f64), "count"))
        .with("telemetry.span_ns", m(r.span_ns, "ns"))
        .with("setup.scenario_s", m(median(&traced.scenario_s), "s"))
        .with("setup.start_s", m(median(&traced.start_s), "s"))
        .with("driver.late_p99_ms", m(quantile(&late, 0.99).unwrap_or(0.0), "ms"))
        .with("driver.late_max_ms", m(late.last().copied().unwrap_or(0.0), "ms"))
        .with("trace.overhead_share", m(share(traced_p50 - untraced_p50, untraced_p50), "share"))
}

/// Writes the traced run's spans as JSON lines under `.bench_trace/`.
fn write_spans(workload: Workload, seed: u64, spans: &[SpanRec]) -> Result<String, String> {
    let dir = std::path::Path::new(".bench_trace");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{seed}.jsonl", workload.name()));
    let mut text = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = if s.name == "request" { "null" } else { "\"request\"" };
        let _ = writeln!(
            text,
            "{{\"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.name, s.request, s.start_ns, s.end_ns
        );
    }
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn stamp(args: &Args) -> Value {
    Value::obj()
        .with("workload", args.workload.name())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("rev", sys::git_rev())
        .with("nproc", sys::nproc())
        .with("frontends", args.workload.frontends().iter().map(|&f| Value::from(f)).collect::<Vec<_>>())
        .with("telemetry", offloadnn_telemetry::enabled())
}

fn run(args: &Args) -> Result<(Value, Value, bool), String> {
    let phases: Vec<Phase>;
    let metrics;
    let mut record = stamp(args);
    if args.trace {
        let half = args.seconds / 2.0;
        let untraced = run_phase(args.workload, args.seed, half, false)?;
        let traced = run_phase(args.workload, args.seed, half, true)?;
        let r = replay::run(args.workload, &traced.template, &traced.schedule);
        metrics = per_layer(args.workload, &untraced, &traced, &r);
        record = record.with("spans", write_spans(args.workload, args.seed, &traced.drive.spans)?);
        phases = vec![untraced, traced];
    } else {
        let phase = run_phase(args.workload, args.seed, args.seconds, false)?;
        metrics = end_to_end(&phase)?;
        phases = vec![phase];
    }
    let mut runs = Vec::new();
    for p in &phases {
        runs.push(
            Value::obj()
                .with("traced", !p.drive.spans.is_empty())
                .with("regime", regime(p))
                .with("latency", latency_info(&p.latency_sorted()))
                .with("cpu_s", p.drive.cpu_s)
                .with("wall_s", p.drive.wall_s)
                .with("host_steal_s", p.drive.steal_s)
                .with("setup_scenario_s", p.scenario_s.iter().map(|&v| Value::from(v)).collect::<Vec<_>>())
                .with("setup_start_s", p.start_s.iter().map(|&v| Value::from(v)).collect::<Vec<_>>())
                .with(
                    "window_steal_s",
                    p.drive.cpu_marks.windows(2).map(|w| Value::from(w[1].2 - w[0].2)).collect::<Vec<_>>(),
                )
                .with("window_cpu_us", p.window_cpu_us().into_iter().map(Value::from).collect::<Vec<_>>())
                .with(
                    "window_p50_ms",
                    p.window_quantiles(0.5).into_iter().map(Value::from).collect::<Vec<_>>(),
                )
                .with(
                    "window_p90_ms",
                    p.window_quantiles(0.9).into_iter().map(Value::from).collect::<Vec<_>>(),
                )
                .with("accounting", ledger_record(p)),
        );
    }
    record = record.with("runs", runs);
    let correct = phases.iter().all(|p| p.violations.is_empty());
    let attempted: u64 = phases.iter().map(|p| p.drive.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.drive.tally.errors()).sum();
    let result = Value::obj()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics);
    Ok((record, result, correct))
}

/// Entry point of the `admitbench` binary.
pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((record, result, correct)) => {
            println!("{}", Value::obj().with("record", record));
            println!("{result}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("error: the correctness check failed; see the record's violations");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_flags() {
        let a = parse_args(&argv("--workload wire_zipf --seed 9 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a, Args { workload: Workload::WireZipf, seed: 9, seconds: 10.0, trace: true });
        assert!(parse_args(&argv("--workload nope --seed 9 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload wire_zipf --seed 9 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload wire_zipf --seed 9 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload wire_zipf --seconds 10 --trace 0")).is_err());
    }
}
