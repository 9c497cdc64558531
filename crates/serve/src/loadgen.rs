//! Closed-loop load generation against a [`Service`]: replays an
//! [`ArrivalProcess`] stream of synthetic admission requests, keeps a
//! bounded set of admitted tasks alive (departing the oldest, which
//! exercises `Controller::release` continuously), and reports
//! throughput, latency and verdict mix. Used by the `serve_loadgen`
//! binary and the `serve_throughput` bench.

pub mod args;

use crate::admit::{Admitter, PendingVerdict};
use crate::config::ServiceConfig;
use crate::loadgen::args::WireTally;
use crate::service::{DrainReport, Outcome, ReshardReport, Service};
use offloadnn_core::instance::DotInstance;
use offloadnn_core::task::TaskId;
use offloadnn_radio::{ArrivalProcess, Arrivals};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;
use std::fmt;
use std::time::{Duration, Instant};

/// Load-generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadgenConfig {
    /// Total requests to offer.
    pub requests: u64,
    /// Arrival process replayed for pacing and offered-load accounting.
    pub process: ArrivalProcess,
    /// RNG seed (request mix and arrival stream).
    pub seed: u64,
    /// Admitted tasks kept alive concurrently; beyond this the oldest is
    /// departed, continuously exercising the release path.
    pub max_active: usize,
    /// Wall-clock seconds per simulated arrival second. `0.0` disables
    /// pacing: requests are offered as fast as the ingress accepts them
    /// (a saturation test).
    pub time_scale: f64,
    /// Zipf exponent of the shape distribution. `0.0` (the default)
    /// keeps the historical behaviour — every request gets fresh
    /// per-request jitter, so no two shapes repeat. Positive values
    /// switch to a deterministic [`ShapePool`]: request shapes are drawn
    /// from `shape_pool` ranks with weight `1/(k+1)^skew`, and a re-draw
    /// of the same rank is bit-identical — the workload a plan cache can
    /// actually hit on.
    pub shape_skew: f64,
    /// Distinct shapes in the Zipf pool (ignored while `shape_skew` is
    /// `0.0`).
    pub shape_pool: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            requests: 10_000,
            process: ArrivalProcess::Poisson { rate_hz: 5_000.0 },
            seed: 7,
            max_active: 64,
            time_scale: 0.0,
            shape_skew: 0.0,
            shape_pool: 64,
        }
    }
}

/// Deterministic pool of task shapes for the Zipf workload mode.
///
/// Shape `k` is minted once from `seed ^ k·φ` (golden-ratio spacing
/// keeps neighbouring ranks decorrelated) and stored materialized, so
/// every re-draw of rank `k` produces the *same* priority and rate —
/// which is exactly what makes two requests share a plan-cache
/// fingerprint. Ranks are drawn with Zipf weights `1/(k+1)^s` via a
/// binary search over the normalized CDF.
///
/// Public so the `offloadnn-net` and `offloadnn-gateway` load generators
/// can offer the identical skewed stream over the wire.
pub struct ShapePool {
    /// Materialized `(prototype index, priority factor, rate factor)`.
    shapes: Vec<(usize, f64, f64)>,
    /// Cumulative Zipf weights, normalized to end at 1.0.
    cdf: Vec<f64>,
}

impl ShapePool {
    /// Materializes `pool` shapes over `protos` prototypes with Zipf
    /// exponent `skew`; the same `(pool, skew, protos, seed)` always
    /// yields the same pool.
    pub fn new(pool: usize, skew: f64, protos: usize, seed: u64) -> Self {
        let pool = pool.max(1);
        let mut shapes = Vec::with_capacity(pool);
        for k in 0..pool {
            let mut r = StdRng::seed_from_u64(seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let proto = r.random_range(0..protos);
            let priority = r.random_range(0.6f64..1.4);
            let rate = r.random_range(0.8f64..1.2);
            shapes.push((proto, priority, rate));
        }
        let mut cdf = Vec::with_capacity(pool);
        let mut acc = 0.0f64;
        for k in 0..pool {
            acc += ((k + 1) as f64).powf(skew).recip();
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { shapes, cdf }
    }

    /// Draws one `(prototype index, priority factor, rate factor)` rank.
    pub fn draw(&self, rng: &mut StdRng) -> (usize, f64, f64) {
        let u = rng.random_range(0.0f64..1.0);
        let k = self.cdf.partition_point(|&c| c < u).min(self.shapes.len() - 1);
        self.shapes[k]
    }
}

/// Result of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// The parameters the run used.
    pub config: LoadgenConfig,
    /// Shards the service ran.
    pub shards: usize,
    /// Wall-clock duration from first submit to drain completion.
    pub wall: Duration,
    /// Verdicts observed through the pending handles, independently of
    /// the service's own metrics, so the two can cross-check each other.
    pub tally: WireTally,
    /// Reshards executed mid-run (empty unless a scale script ran).
    pub reshards: Vec<ReshardReport>,
    /// The service's own final report.
    pub drain: DrainReport,
}

impl LoadgenReport {
    /// Resolved requests per wall-clock second.
    pub fn throughput_hz(&self) -> f64 {
        self.tally.outcomes() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Whether the run is fully accounted: the service metrics conserve,
    /// the driver tally agrees with them, and no request ended in an
    /// error instead of a verdict.
    pub fn is_conserved(&self) -> bool {
        let m = &self.drain.metrics;
        self.tally.errors() == 0
            && m.is_conserved()
            && m.submitted == self.config.requests
            && m.admitted == self.tally.admitted
            && m.rejected == self.tally.rejected
            && m.shed == self.tally.shed
            && m.expired == self.tally.expired
    }
}

impl fmt::Display for LoadgenReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = &self.drain.metrics;
        let pct = |n: u64| 100.0 * n as f64 / m.submitted.max(1) as f64;
        // The seed in the header makes any run reproducible from its own
        // output: re-run with `--seed <printed value>`.
        writeln!(
            f,
            "offered {} requests ({} arrivals at {:.0} req/s mean, seed {}) across {} shards in {:.3?}",
            self.config.requests,
            match self.config.process {
                ArrivalProcess::Poisson { .. } => "Poisson",
                ArrivalProcess::Periodic { .. } => "periodic",
                ArrivalProcess::Bursty { .. } => "MMPP-bursty",
            },
            self.config.process.rate_hz(),
            self.config.seed,
            self.shards,
            self.wall,
        )?;
        if self.config.shape_skew > 0.0 {
            writeln!(
                f,
                "shapes:     Zipf skew {:.2} over a pool of {} deterministic shapes",
                self.config.shape_skew, self.config.shape_pool,
            )?;
        }
        if let Some(pc) = &self.drain.plan_cache {
            writeln!(
                f,
                "plan cache: hit rate {:.1}% ({} hits, {} negative, {} misses, {} evictions, {} invalidated, {} revalidation misses)",
                100.0 * pc.hit_rate(),
                pc.hits,
                pc.negative_hits,
                pc.misses,
                pc.evictions,
                pc.invalidations,
                pc.validation_failures,
            )?;
        }
        writeln!(f, "throughput: {:.0} verdicts/s", self.throughput_hz())?;
        writeln!(
            f,
            "verdicts:   admitted {} ({:.1}%)   rejected {} ({:.1}%)   shed {} ({:.1}%)   expired {} ({:.1}%)",
            m.admitted,
            pct(m.admitted),
            m.rejected,
            pct(m.rejected),
            m.shed,
            pct(m.shed),
            m.expired,
            pct(m.expired),
        )?;
        writeln!(f, "{m}")?;
        for r in &self.reshards {
            writeln!(
                f,
                "reshard:    {} -> {} shards, {} in-flight tasks migrated (generation {})",
                r.from_shards, r.to_shards, r.migrated, r.generation,
            )?;
        }
        for s in &self.drain.shards {
            writeln!(
                f,
                "shard {}: {} rounds, peak rbs {:.2}/{:.2}, peak compute {:.3}/{:.3}, active at exit {}",
                s.shard,
                s.rounds,
                s.peak_rbs,
                s.budgets.rbs,
                s.peak_compute,
                s.budgets.compute_seconds,
                s.snapshot.active_tasks,
            )?;
        }
        write!(
            f,
            "conservation: {}",
            if self.is_conserved() {
                "OK (submitted = admitted + rejected + shed + expired)"
            } else {
                "VIOLATED"
            }
        )
    }
}

/// Runs a closed-loop load test: starts a [`Service`] over `template`,
/// offers `cfg.requests` synthetic requests derived from the template's
/// task/option prototypes, reaps verdicts opportunistically while
/// submitting (departing the oldest admitted task beyond
/// `cfg.max_active`), waits out the stragglers and drains.
///
/// # Panics
///
/// Panics if the template has no tasks or if the service cannot start
/// (invalid `service` config).
pub fn run(service_config: ServiceConfig, cfg: LoadgenConfig, template: &DotInstance) -> LoadgenReport {
    run_scripted(service_config, cfg, &[], template)
}

/// Like [`run`], but executes a scale script while the load is offered:
/// each `(at, shards)` step calls [`Service::scale_to`]`(shards)` just
/// before request number `at` is submitted (steps at or past
/// `cfg.requests` fire after the last submit, before drain). Steps are
/// executed in ascending `at` order regardless of input order.
///
/// Budget-partition invariants (`DrainReport::within_budgets`) are not
/// meaningful after a reshard — adopted tasks may transiently exceed a
/// shard's partition — so scripted callers should gate on
/// [`LoadgenReport::is_conserved`] only.
///
/// # Panics
///
/// Panics like [`run`], and additionally if a script step is invalid
/// (target of zero shards).
pub fn run_scripted(
    service_config: ServiceConfig,
    cfg: LoadgenConfig,
    script: &[(u64, usize)],
    template: &DotInstance,
) -> LoadgenReport {
    assert!(!template.tasks.is_empty(), "template needs at least one prototype task");
    let mut script: Vec<(u64, usize)> = script.to_vec();
    script.sort_unstable();
    let mut next_step = 0usize;
    let mut reshards: Vec<ReshardReport> = Vec::new();
    let service = Service::start(service_config, template).expect("service start");
    let shards = service_config.shards;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut arrivals = Arrivals::new(cfg.process, cfg.seed ^ 0x5eed);
    let shape_pool = (cfg.shape_skew > 0.0)
        .then(|| ShapePool::new(cfg.shape_pool, cfg.shape_skew, template.tasks.len(), cfg.seed));

    // The driver loop speaks the unified admission API only; the
    // concrete `Service` is consulted solely for the management plane
    // (scale script, final drain).
    let admitter: &dyn Admitter = &service;
    let mut tally = WireTally::default();
    let mut pending: VecDeque<PendingVerdict> = VecDeque::new();
    let mut active: VecDeque<TaskId> = VecDeque::new();
    let started = Instant::now();
    let mut sim_origin: Option<f64> = None;

    for i in 0..cfg.requests {
        // Scale steps due at this request fire before it is submitted,
        // so the submit exercises the post-reshard routing state.
        while next_step < script.len() && script[next_step].0 <= i {
            let target = script[next_step].1;
            next_step += 1;
            reshards.push(service.scale_to(target).expect("scale script step"));
        }

        // Pacing: map the simulated arrival timestamp to wall clock.
        let t = arrivals.next().expect("arrival stream is infinite");
        if cfg.time_scale > 0.0 {
            let origin = *sim_origin.get_or_insert(t);
            let due = started + Duration::from_secs_f64((t - origin) * cfg.time_scale);
            if let Some(sleep) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(sleep);
            }
        }

        // A fresh task derived from a prototype: unique id, jittered
        // priority (so shedding has an order to respect) and rate. With
        // the Zipf pool active the jitter comes from the materialized
        // shape rank instead, so popular shapes repeat bit-identically.
        let (proto, priority_factor, rate_factor) = match &shape_pool {
            Some(pool) => pool.draw(&mut rng),
            None => (
                rng.random_range(0..template.tasks.len()),
                rng.random_range(0.6f64..1.4),
                rng.random_range(0.8f64..1.2),
            ),
        };
        let mut task = template.tasks[proto].clone();
        task.id = TaskId(i as u32);
        task.priority = (task.priority * priority_factor).clamp(0.05, 1.0);
        task.request_rate *= rate_factor;
        let verdict = admitter
            .submit(task, template.options[proto].clone(), None)
            .expect("not draining and options non-empty");
        pending.push_back(verdict);

        // Reap whatever already resolved, keeping the admitted set
        // bounded so the long-running controllers don't fill up.
        while let Some(front) = pending.front() {
            match front.poll() {
                Some(verdict) => {
                    let resolved = pending.pop_front().expect("front exists");
                    if matches!(verdict, Ok(Outcome::Admitted { .. })) {
                        active.push_back(resolved.task());
                    }
                    tally.observe(&verdict);
                }
                None => break,
            }
        }
        while active.len() > cfg.max_active {
            let oldest = active.pop_front().expect("non-empty");
            admitter.depart(oldest);
        }
    }

    // Stragglers: every ticket resolves (workers answer everything, even
    // expired requests), so blocking waits terminate.
    for verdict in pending {
        let task = verdict.task();
        let outcome = verdict.wait();
        if matches!(outcome, Ok(Outcome::Admitted { .. })) {
            active.push_back(task);
        }
        tally.observe(&outcome);
    }
    // Steps scripted at or past the end of the stream fire against a
    // fully loaded fleet, right before drain.
    while next_step < script.len() {
        let target = script[next_step].1;
        next_step += 1;
        reshards.push(service.scale_to(target).expect("scale script step"));
    }

    // Leave `active` tasks in place: drain must cope with a loaded fleet.
    let drain = service.drain();
    let wall = started.elapsed();

    LoadgenReport { config: cfg, shards, wall, tally, reshards, drain }
}

#[cfg(test)]
mod tests {
    use super::*;
    use offloadnn_core::scenario::small_scenario;

    #[test]
    fn small_closed_loop_run_conserves() {
        let s = small_scenario(5);
        let service_config = ServiceConfig { shards: 2, ..ServiceConfig::default() };
        let cfg = LoadgenConfig { requests: 300, max_active: 16, ..LoadgenConfig::default() };
        let report = run(service_config, cfg, &s.instance);
        assert!(report.is_conserved(), "{report}");
        assert!(report.drain.within_budgets(), "{report}");
        assert_eq!(report.tally.outcomes(), 300);
        assert!(report.tally.admitted > 0, "some capacity must be granted: {report}");
    }

    #[test]
    fn zipf_run_with_plan_cache_conserves_and_hits() {
        use offloadnn_plancache::PlanCacheConfig;
        let s = small_scenario(5);
        let service_config = ServiceConfig {
            shards: 2,
            plan_cache: Some(PlanCacheConfig::default()),
            ..ServiceConfig::default()
        };
        let cfg = LoadgenConfig {
            requests: 600,
            max_active: 16,
            shape_skew: 1.2,
            shape_pool: 32,
            ..LoadgenConfig::default()
        };
        let report = run(service_config, cfg, &s.instance);
        assert!(report.is_conserved(), "{report}");
        let pc = report.drain.plan_cache.expect("cache enabled");
        assert!(pc.lookups() > 0, "{report}");
        assert!(pc.hits + pc.negative_hits > 0, "a skewed stream must hit: {report}");
        let shown = format!("{report}");
        assert!(shown.contains("Zipf skew 1.20"), "header echoes the skew: {shown}");
        assert!(shown.contains("plan cache: hit rate"), "header echoes the hit rate: {shown}");
    }

    #[test]
    fn zipf_pool_draws_are_deterministic() {
        let pool = ShapePool::new(16, 1.0, 3, 42);
        let twin = ShapePool::new(16, 1.0, 3, 42);
        assert_eq!(pool.shapes, twin.shapes);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..64 {
            assert_eq!(pool.draw(&mut a), twin.draw(&mut b));
        }
        // Skew concentrates mass on the head ranks.
        let mut rng = StdRng::seed_from_u64(3);
        let skewed = ShapePool::new(16, 1.5, 3, 42);
        let head = skewed.shapes[0];
        let hits = (0..1000).filter(|_| skewed.draw(&mut rng) == head).count();
        assert!(hits > 250, "rank 0 should dominate a 1.5-skew stream, got {hits}/1000");
    }

    #[test]
    fn paced_run_with_bursty_arrivals_conserves() {
        let s = small_scenario(5);
        let service_config =
            ServiceConfig { shards: 2, batch_window: Duration::from_micros(500), ..ServiceConfig::default() };
        let cfg = LoadgenConfig {
            requests: 200,
            process: ArrivalProcess::Bursty {
                calm_rate_hz: 2_000.0,
                burst_rate_hz: 50_000.0,
                mean_calm_s: 0.01,
                mean_burst_s: 0.005,
            },
            time_scale: 1.0,
            max_active: 8,
            ..LoadgenConfig::default()
        };
        let report = run(service_config, cfg, &s.instance);
        assert!(report.is_conserved(), "{report}");
    }

    #[test]
    fn scripted_run_reshards_live_and_conserves() {
        let s = small_scenario(5);
        let service_config = ServiceConfig { shards: 4, ..ServiceConfig::default() };
        let cfg = LoadgenConfig { requests: 400, max_active: 24, ..LoadgenConfig::default() };
        // Grow mid-stream, shrink near the end, and once more against the
        // loaded fleet right before drain.
        let report = run_scripted(service_config, cfg, &[(100, 8), (250, 2), (400, 3)], &s.instance);
        assert!(report.is_conserved(), "{report}");
        assert_eq!(report.reshards.len(), 3, "{report}");
        assert_eq!(report.reshards[0].from_shards, 4);
        assert_eq!(report.reshards[0].to_shards, 8);
        assert_eq!(report.reshards[2].generation, 3);
        assert_eq!(report.drain.metrics.reshards, 3);
        assert_eq!(report.tally.outcomes(), 400);
    }
}
