//! The three workloads: their seeded arrival streams and the admission
//! tier each one drives.
//!
//! Every tier runs the same `ServiceConfig` apart from the shard count
//! (one everywhere), with the plan cache on. The rates sit below each
//! tier's knee on a 2-core host, so shed and expired verdicts stay at 0
//! and the ledger holds a steady state through lifetimes and departures.

use offloadnn_core::instance::{DotInstance, PathOption};
use offloadnn_core::scenario::{large_scenario, small_scenario, LoadLevel};
use offloadnn_core::task::{Task, TaskId};
use offloadnn_gateway::{Gateway, GatewayConfig};
use offloadnn_net::{AnyServer, Client, ClientConfig, Frontend, NetConfig};
use offloadnn_plancache::{PlanCacheConfig, PlanCacheStats};
use offloadnn_serve::{Admitter, MetricsSnapshot, Service, ServiceConfig, ShapePool};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process service on the large scenario, fresh shapes: solver
    /// rounds dominate and every plan-cache lookup misses.
    SolveChurn,
    /// Wire client against the threaded frontend, small scenario, Zipf
    /// shapes: codec, frontend and a read-heavy plan cache.
    WireZipf,
    /// Wire client against a reactor frontend over a two-node gateway,
    /// fresh shapes and short lifetimes: routing and departures.
    GatewayFresh,
}

/// Where a request's shape comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shapes {
    /// Fresh priority/rate jitter per request: no two shapes repeat.
    Fresh,
    /// Zipf draws over a fixed pool: popular shapes repeat bit-identically.
    Zipf {
        /// Zipf exponent.
        skew: f64,
        /// Distinct shapes in the pool.
        pool: usize,
    },
}

/// The knobs that define a workload's open loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Poisson arrival rate, submits per second.
    pub rate_hz: f64,
    /// Mean of the exponential lifetime of an admitted task, seconds.
    pub mean_lifetime_s: f64,
    /// Shape mix.
    pub shapes: Shapes,
    /// Large (T = 20, 125 structures) or small (5-UE) scenario.
    pub large: bool,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::SolveChurn, Workload::WireZipf, Workload::GatewayFresh];

    /// The CLI / `BENCHMARK.json` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveChurn => "solve_churn",
            Workload::WireZipf => "wire_zipf",
            Workload::GatewayFresh => "gateway_fresh",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The open-loop parameters.
    pub fn spec(self) -> Spec {
        match self {
            Workload::SolveChurn => {
                Spec { rate_hz: 200.0, mean_lifetime_s: 0.5, shapes: Shapes::Fresh, large: true }
            }
            Workload::WireZipf => Spec {
                rate_hz: 1000.0,
                mean_lifetime_s: 0.05,
                shapes: Shapes::Zipf { skew: 1.2, pool: 32 },
                large: false,
            },
            Workload::GatewayFresh => {
                Spec { rate_hz: 1000.0, mean_lifetime_s: 0.02, shapes: Shapes::Fresh, large: false }
            }
        }
    }

    /// The frontends a request passes through, for the run record.
    pub fn frontends(self) -> &'static [&'static str] {
        match self {
            Workload::SolveChurn => &["in-process"],
            Workload::WireZipf => &["threads"],
            Workload::GatewayFresh => &["reactor", "threads"],
        }
    }

    /// Builds the workload's scenario instance (dnn models, repository,
    /// cost profiling).
    pub fn scenario(self) -> DotInstance {
        if self.spec().large {
            large_scenario(LoadLevel::Medium).instance
        } else {
            small_scenario(5).instance
        }
    }
}

/// The service configuration every tier runs.
pub fn service_config() -> ServiceConfig {
    ServiceConfig { shards: 1, plan_cache: Some(PlanCacheConfig::default()), ..ServiceConfig::default() }
}

/// Seed of the Zipf shape pool. The pool is part of the workload's
/// definition and the run seed only draws from it: pools minted from
/// different seeds admit anywhere from a third to two thirds of the
/// stream, which would swamp every run-to-run comparison.
const ZIPF_POOL_SEED: u64 = 7;

/// One scheduled submit, before it is turned into a task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Due time, seconds after the run's start.
    pub at: f64,
    /// Index of the prototype task in the scenario.
    pub proto: usize,
    /// Priority factor applied to the prototype.
    pub priority: f64,
    /// Request-rate factor applied to the prototype.
    pub rate: f64,
    /// How long the task holds its grant once admitted, seconds.
    pub lifetime: f64,
}

fn exponential(rng: &mut StdRng, mean: f64) -> f64 {
    -mean * (1.0 - rng.random_range(0.0f64..1.0)).ln()
}

/// The seeded arrival stream covering `seconds` of the workload over a
/// scenario with `protos` prototype tasks. The same arguments always
/// give the same stream.
pub fn schedule(workload: Workload, seed: u64, seconds: f64, protos: usize) -> Vec<Arrival> {
    let spec = workload.spec();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xAD31_7BE4_C4A1_0001);
    let pool = match spec.shapes {
        Shapes::Zipf { skew, pool } => Some(ShapePool::new(pool, skew, protos, ZIPF_POOL_SEED)),
        Shapes::Fresh => None,
    };
    let mut out = Vec::with_capacity((spec.rate_hz * seconds * 1.1) as usize + 16);
    let mut t = exponential(&mut rng, 1.0 / spec.rate_hz);
    while t < seconds {
        let (proto, priority, rate) = match &pool {
            Some(pool) => pool.draw(&mut rng),
            None => {
                (rng.random_range(0..protos), rng.random_range(0.6f64..1.4), rng.random_range(0.8f64..1.2))
            }
        };
        let lifetime = exponential(&mut rng, spec.mean_lifetime_s);
        out.push(Arrival { at: t, proto, priority, rate, lifetime });
        t += exponential(&mut rng, 1.0 / spec.rate_hz);
    }
    out
}

/// Turns scheduled arrival `index` into the task and options a client
/// submits.
pub fn materialize(template: &DotInstance, index: usize, a: &Arrival) -> (Task, Vec<PathOption>) {
    let mut task = template.tasks[a.proto].clone();
    task.id = TaskId(u32::try_from(index).expect("fewer than 2^32 submits per run"));
    task.priority = (task.priority * a.priority).clamp(0.05, 1.0);
    task.request_rate *= a.rate;
    (task, template.options[a.proto].clone())
}

/// A running tier plus the client the driver talks to.
pub enum Tier {
    /// In-process service.
    Service(Service),
    /// Threaded TCP frontend over a service, and one client.
    Wire {
        /// The server.
        server: AnyServer,
        /// The driver's connection.
        client: Client,
    },
    /// Reactor frontend over a gateway over two serve nodes, and one client.
    Gateway {
        /// The serve nodes (threaded frontends).
        nodes: Vec<AnyServer>,
        /// The gateway's frontend.
        front: AnyServer<Gateway>,
        /// The driver's connection.
        client: Client,
    },
}

/// What a tier's ledgers say once it has drained.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// The ledger of the endpoint the driver talks to.
    pub front: MetricsSnapshot,
    /// The ledgers of the services that run solver rounds.
    pub nodes: Vec<MetricsSnapshot>,
    /// Plan-cache statistics summed over the nodes.
    pub plan_cache: PlanCacheStats,
    /// Shard workers that died without a report (always 0 when healthy).
    pub lost_shards: usize,
}

fn add_stats(a: &mut PlanCacheStats, b: &PlanCacheStats) {
    a.hits += b.hits;
    a.negative_hits += b.negative_hits;
    a.misses += b.misses;
    a.inserts += b.inserts;
    a.evictions += b.evictions;
    a.invalidations += b.invalidations;
    a.expirations += b.expirations;
    a.validation_failures += b.validation_failures;
    a.singleflight_leads += b.singleflight_leads;
    a.singleflight_followers += b.singleflight_followers;
    a.singleflight_timeouts += b.singleflight_timeouts;
}

impl Tier {
    /// Starts the workload's tier over `template` and connects to it.
    ///
    /// # Errors
    ///
    /// A message naming the piece that failed to start.
    pub fn start(workload: Workload, template: &DotInstance) -> Result<Tier, String> {
        let config = service_config();
        let local = ("127.0.0.1", 0);
        let connect =
            |addr| Client::connect(addr, ClientConfig::default()).map_err(|e| format!("connect: {e}"));
        match workload {
            Workload::SolveChurn => {
                Service::start(config, template).map(Tier::Service).map_err(|e| format!("service: {e}"))
            }
            Workload::WireZipf => {
                let server =
                    AnyServer::start(Frontend::Threads, local, NetConfig::default(), config, template)
                        .map_err(|e| format!("server: {e}"))?;
                let client = connect(server.local_addr())?;
                Ok(Tier::Wire { server, client })
            }
            Workload::GatewayFresh => {
                let nodes = (0..2)
                    .map(|_| {
                        AnyServer::start(Frontend::Threads, local, NetConfig::default(), config, template)
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| format!("node: {e}"))?;
                let addrs: Vec<_> = nodes.iter().map(AnyServer::local_addr).collect();
                let gateway =
                    Gateway::start(&addrs, GatewayConfig::default()).map_err(|e| format!("gateway: {e}"))?;
                let front =
                    AnyServer::start_with_backend(Frontend::Reactor, local, NetConfig::default(), gateway)
                        .map_err(|e| format!("gateway frontend: {e}"))?;
                let client = connect(front.local_addr())?;
                Ok(Tier::Gateway { nodes, front, client })
            }
        }
    }

    /// The admission API the driver submits and departs through.
    pub fn admitter(&self) -> &dyn Admitter {
        match self {
            Tier::Service(service) => service,
            Tier::Wire { client, .. } | Tier::Gateway { client, .. } => client,
        }
    }

    /// Drains the tier front to back and returns its ledgers. The wire
    /// client drains first, so every departure it sent is processed
    /// before the servers report.
    ///
    /// # Errors
    ///
    /// A message when the wire drain fails.
    pub fn finish(self) -> Result<Ledger, String> {
        let mut plan_cache = PlanCacheStats::default();
        let mut lost_shards = 0;
        let mut gateway_lost = 0;
        let mut node = |report: offloadnn_serve::DrainReport| {
            if let Some(pc) = &report.plan_cache {
                add_stats(&mut plan_cache, pc);
            }
            lost_shards += report.lost_shards;
            report.metrics
        };
        let (front, nodes) = match self {
            Tier::Service(service) => {
                let m = node(service.drain());
                (m, vec![m])
            }
            Tier::Wire { server, client } => {
                client.drain().map_err(|e| format!("wire drain: {e}"))?;
                client.close();
                let m = node(server.shutdown());
                (m, vec![m])
            }
            Tier::Gateway { nodes, front, client } => {
                client.drain().map_err(|e| format!("gateway drain: {e}"))?;
                client.close();
                let front = front.shutdown();
                let nodes = nodes.into_iter().map(|n| node(n.shutdown())).collect();
                gateway_lost = front.lost_shards;
                (front.metrics, nodes)
            }
        };
        Ok(Ledger { front, nodes, plan_cache, lost_shards: lost_shards + gateway_lost })
    }
}

/// One timed set-up: scenario build, then tier start and connect.
pub struct Setup {
    /// The scenario instance.
    pub template: DotInstance,
    /// The running tier.
    pub tier: Tier,
    /// Seconds spent building the scenario.
    pub scenario_s: f64,
    /// Seconds spent starting the tier and connecting to it.
    pub start_s: f64,
}

/// Builds the scenario and starts the tier, timing both halves.
///
/// # Errors
///
/// As [`Tier::start`].
pub fn set_up(workload: Workload) -> Result<Setup, String> {
    let t0 = Instant::now();
    let template = workload.scenario();
    let t1 = Instant::now();
    let tier = Tier::start(workload, &template)?;
    let t2 = Instant::now();
    Ok(Setup { template, tier, scenario_s: (t1 - t0).as_secs_f64(), start_s: (t2 - t1).as_secs_f64() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_repeat_per_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            let a = schedule(w, 7, 1.0, 5);
            assert_eq!(a, schedule(w, 7, 1.0, 5));
            assert_ne!(a, schedule(w, 8, 1.0, 5));
            assert!(a.windows(2).all(|p| p[0].at < p[1].at));
            let expected = w.spec().rate_hz;
            assert!((a.len() as f64 - expected).abs() < 0.2 * expected, "{} arrivals for {w:?}", a.len());
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
