//! One loopback load generator for every admission tier.
//!
//! `--tier` picks the topology the run stands up:
//!
//! - `service`: an in-process [`Service`];
//! - `net`: a service behind a TCP frontend (`--frontend threads|reactor`);
//! - `gateway`: `--nodes` serve nodes behind a [`Gateway`] behind a TCP
//!   frontend, optionally with a node killed, hot-joined or leaving
//!   mid-run and a federated peer cluster absorbing the overflow
//!   (`--peer`).
//!
//! Every tier then runs `--clients` threads of the one driver loop
//! ([`args::drive`]) against a `&dyn Admitter` (the [`Service`] itself,
//! or one [`Client`] connection per thread), walks an optional scale
//! script on a control thread, drains, and applies one conservation
//! check to the result:
//!
//! ```text
//! offered = outcomes + errors
//! lost = 0                (and errors = 0 on the service tier)
//! ledger.submitted = ledger.admitted + rejected + shed + expired
//! drivers' count = ledger's count, verdict class by verdict class
//! ```
//!
//! plus, on the gateway tier, per-node conservation and
//! `departed <= admitted` on every node (killed, joined and peer nodes
//! included), and per-shard budget partitions wherever the topology is
//! fixed. Exits 1 on any violation or failed gate, 2 on a bad flag.
//!
//! ```text
//! cargo run --release -p offloadnn-bench --bin loadgen -- --tier net --frontend reactor --clients 64
//! cargo run --release -p offloadnn-bench --bin loadgen -- --tier gateway --nodes 3 --kill-node-at 1200
//! ```

use offloadnn_core::instance::{DotInstance, PathOption};
use offloadnn_core::scenario::{large_scenario, small_scenario, LoadLevel};
use offloadnn_core::task::Task;
use offloadnn_gateway::{FederationConfig, Gateway, GatewayConfig, HedgeConfig};
use offloadnn_net::{AnyServer, Client, ClientConfig, Frontend, NetConfig, NetServer};
use offloadnn_plancache::PlanCacheConfig;
use offloadnn_serve::loadgen::args::{self, DriveConfig, DriveReport, WireTally, VERDICT_TIMEOUT};
use offloadnn_serve::{Admitter, DrainReport, ReshardReport, Service, ServiceConfig, ShapePool};
use std::fmt;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

const USAGE: &str = "\
loadgen — loopback load generator for every admission tier

USAGE: loadgen [OPTIONS]

Every option is optional; defaults in brackets. Options marked with a
tier list exit 2 when given with any other --tier.

  --tier T              service | net | gateway               [service]
  --frontend F          threads | reactor — the TCP frontend
                        the clients dial   (net, gateway)     [threads]
  --requests N          total submits across all clients      [10000]
  --clients N           concurrent drivers (one connection
                        each on the wire tiers)               [4]
  --window N            per-driver pipeline depth             [64]
  --max-active N        admitted tasks kept per driver before
                        the oldest departs (0 = never depart) [64]
  --deadline-ms N       admission budget each submit ships, ms
                        (0 = the tier's policy deadline)      [0]
  --snapshot-every N    interleave a metrics probe every N
                        submits per driver (0 = never)        [0]
  --seed N              RNG seed (task mix)                   [7]
  --shape-skew S        Zipf exponent of the shape mix; 0
                        draws the prototypes uniformly        [0]
  --shape-pool N        distinct shapes in the Zipf pool      [64]
  --scenario KIND       small | large — small is the --ues
                        reference scenario; large the T = 20
                        one whose solver rounds dominate      [small]
  --ues N               UEs in the small scenario             [5]
  --shards N            worker shards per serve node          [2]
  --queue-capacity N    per-shard ingress queue bound (on the
                        gateway tier: the primary cluster's
                        nodes only, the --peer lever)         [1024]
  --batch-max N         max requests per solver round         [64]
  --batch-window-us N   batch assembly window, µs             [2000]
  --shed-watermark N    backlog depth triggering priority
                        shedding                              [512]
  --plan-cache          enable the serve nodes' plan cache
  --min-hit-rate F      exit 1 unless the plan-cache hit rate
                        reaches F                     (service)
  --scale-script S      at:shards steps, e.g. \"100:8,250:2\":
                        a control thread reshards once `at`
                        submits were offered; steps past the
                        last submit fire after the drivers
                        finish                  (service, net)
  --compare-baseline    rerun the stream without the plan
                        cache as 5 alternating cached/uncached
                        pairs and print every ratio (service)
  --min-speedup F       exit 1 unless the median pair ratio
                        reaches F                     (service)
  --nodes N             backend serve nodes       (gateway)   [3]
  --kill-node-at N      shut one node down once N submits were
                        offered (0 = never)       (gateway)   [0]
  --kill-node IDX       the node --kill-node-at kills
                                                  (gateway)   [1]
  --join-node-at N      start one more node once N submits were
                        offered; it announces itself over the
                        wire (0 = never)          (gateway)   [0]
  --leave-node-at N     send a graceful Leave for one node once
                        N submits were offered; it keeps
                        serving its in-flight verdicts
                        (0 = never)               (gateway)   [0]
  --leave-node IDX      the node --leave-node-at departs
                                                  (gateway)   [0]
  --hedge               deadline-aware hedging    (gateway)
  --gw-cache            the gateway's own plan cache (routing
                        affinity + negative entries) (gateway)
  --peer                federate with a second cluster that
                        takes the primary's would-be Shed
                        overflow; the run fails unless some
                        overflow lands there      (gateway)
  --peer-nodes N        nodes in the peer cluster (gateway)   [2]
  -h, --help            print this help
";

/// Cached/uncached run pairs behind `--compare-baseline`.
const SPEEDUP_PAIRS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Service,
    Net,
    Gateway,
}

impl FromStr for Tier {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "service" => Ok(Self::Service),
            "net" => Ok(Self::Net),
            "gateway" => Ok(Self::Gateway),
            other => Err(format!("unknown tier '{other}' (expected service, net or gateway)")),
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Service => "service",
            Self::Net => "net",
            Self::Gateway => "gateway",
        })
    }
}

/// The tiers a flag means something on; flags not listed apply to all.
fn tiers_of(flag: &str) -> &'static [Tier] {
    use Tier::{Gateway, Net, Service};
    match flag {
        "--frontend" => &[Net, Gateway],
        "--scale-script" => &[Service, Net],
        "--min-hit-rate" | "--compare-baseline" | "--min-speedup" => &[Service],
        "--nodes" | "--kill-node-at" | "--kill-node" | "--join-node-at" | "--leave-node-at"
        | "--leave-node" | "--hedge" | "--gw-cache" | "--peer" | "--peer-nodes" => &[Gateway],
        _ => &[Service, Net, Gateway],
    }
}

struct Args {
    tier: Tier,
    frontend: Frontend,
    requests: u64,
    clients: usize,
    window: usize,
    max_active: usize,
    deadline_ms: u64,
    snapshot_every: u64,
    seed: u64,
    shape_skew: f64,
    shape_pool: usize,
    large: bool,
    ues: usize,
    shards: usize,
    queue_capacity: usize,
    batch_max: usize,
    batch_window_us: u64,
    shed_watermark: usize,
    plan_cache: bool,
    min_hit_rate: Option<f64>,
    scale_script: Vec<(u64, u32)>,
    compare_baseline: bool,
    min_speedup: Option<f64>,
    nodes: usize,
    kill_node_at: u64,
    kill_node: usize,
    join_node_at: u64,
    leave_node_at: u64,
    leave_node: usize,
    hedge: bool,
    gw_cache: bool,
    peer: bool,
    peer_nodes: usize,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            tier: Tier::Service,
            frontend: Frontend::Threads,
            requests: 10_000,
            clients: 4,
            window: 64,
            max_active: 64,
            deadline_ms: 0,
            snapshot_every: 0,
            seed: 7,
            shape_skew: 0.0,
            shape_pool: 64,
            large: false,
            ues: 5,
            shards: 2,
            queue_capacity: 1024,
            batch_max: 64,
            batch_window_us: 2000,
            shed_watermark: 512,
            plan_cache: false,
            min_hit_rate: None,
            scale_script: Vec::new(),
            compare_baseline: false,
            min_speedup: None,
            nodes: 3,
            kill_node_at: 0,
            kill_node: 1,
            join_node_at: 0,
            leave_node_at: 0,
            leave_node: 0,
            hedge: false,
            gw_cache: false,
            peer: false,
            peer_nodes: 2,
        }
    }
}

fn value<T: FromStr>(flag: &str, raw: &str) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    raw.parse().map_err(|e| format!("{flag} {raw}: {e}"))
}

/// Parses `"at:shards,at:shards"` into scale-script steps.
fn parse_scale_script(value: &str) -> Result<Vec<(u64, u32)>, String> {
    value
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|step| {
            let (at, shards) =
                step.split_once(':').ok_or_else(|| format!("scale step {step:?}: expected at:shards"))?;
            let at: u64 = at.trim().parse().map_err(|e| format!("scale step {step:?}: {e}"))?;
            let shards: u32 = shards.trim().parse().map_err(|e| format!("scale step {step:?}: {e}"))?;
            if shards == 0 {
                return Err(format!("scale step {step:?}: target must be at least one shard"));
            }
            Ok((at, shards))
        })
        .collect()
}

fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut a = Args::default();
    let mut given = Vec::new();
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            "--plan-cache" => a.plan_cache = true,
            "--compare-baseline" => a.compare_baseline = true,
            "--hedge" => a.hedge = true,
            "--gw-cache" => a.gw_cache = true,
            "--peer" => a.peer = true,
            _ => {
                let v = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
                let f = flag.as_str();
                match f {
                    "--tier" => a.tier = value(f, &v)?,
                    "--frontend" => a.frontend = value(f, &v)?,
                    "--requests" => a.requests = value(f, &v)?,
                    "--clients" => a.clients = value(f, &v)?,
                    "--window" => a.window = value(f, &v)?,
                    "--max-active" => a.max_active = value(f, &v)?,
                    "--deadline-ms" => a.deadline_ms = value(f, &v)?,
                    "--snapshot-every" => a.snapshot_every = value(f, &v)?,
                    "--seed" => a.seed = value(f, &v)?,
                    "--shape-skew" => a.shape_skew = value(f, &v)?,
                    "--shape-pool" => a.shape_pool = value(f, &v)?,
                    "--scenario" => {
                        a.large = match v.as_str() {
                            "small" => false,
                            "large" => true,
                            other => return Err(format!("--scenario {other}: expected small or large")),
                        }
                    }
                    "--ues" => a.ues = value(f, &v)?,
                    "--shards" => a.shards = value(f, &v)?,
                    "--queue-capacity" => a.queue_capacity = value(f, &v)?,
                    "--batch-max" => a.batch_max = value(f, &v)?,
                    "--batch-window-us" => a.batch_window_us = value(f, &v)?,
                    "--shed-watermark" => a.shed_watermark = value(f, &v)?,
                    "--min-hit-rate" => a.min_hit_rate = Some(value(f, &v)?),
                    "--scale-script" => a.scale_script = parse_scale_script(&v)?,
                    "--min-speedup" => a.min_speedup = Some(value(f, &v)?),
                    "--nodes" => a.nodes = value(f, &v)?,
                    "--kill-node-at" => a.kill_node_at = value(f, &v)?,
                    "--kill-node" => a.kill_node = value(f, &v)?,
                    "--join-node-at" => a.join_node_at = value(f, &v)?,
                    "--leave-node-at" => a.leave_node_at = value(f, &v)?,
                    "--leave-node" => a.leave_node = value(f, &v)?,
                    "--peer-nodes" => a.peer_nodes = value(f, &v)?,
                    other => return Err(format!("unknown flag {other} (try --help)")),
                }
            }
        }
        given.push(flag);
    }
    if let Some(flag) = given.iter().find(|f| !tiers_of(f).contains(&a.tier)) {
        return Err(format!("{flag} has no effect with --tier {}", a.tier));
    }
    validate(&a)?;
    Ok(a)
}

/// Cross-flag constraints.
fn validate(a: &Args) -> Result<(), String> {
    let checks = [
        (a.clients == 0, "--clients must be >= 1"),
        (a.window == 0, "--window must be >= 1"),
        (a.shape_pool == 0, "--shape-pool must be >= 1"),
        (a.min_speedup.is_some() && !a.compare_baseline, "--min-speedup needs --compare-baseline"),
        (a.compare_baseline && !a.plan_cache, "--compare-baseline needs --plan-cache"),
        (a.min_hit_rate.is_some() && !a.plan_cache, "--min-hit-rate needs --plan-cache"),
        (a.nodes == 0, "--nodes must be >= 1"),
        (a.kill_node_at > 0 && a.nodes < 2, "--kill-node-at needs at least 2 nodes (someone must survive)"),
        (a.kill_node_at > 0 && a.kill_node >= a.nodes, "--kill-node index out of range"),
        (
            a.leave_node_at > 0 && a.nodes < 2 && a.join_node_at == 0,
            "--leave-node-at needs at least 2 nodes (someone must survive)",
        ),
        (a.leave_node_at > 0 && a.leave_node >= a.nodes, "--leave-node index out of range"),
        (
            a.leave_node_at > 0 && a.kill_node_at > 0 && a.leave_node == a.kill_node,
            "--leave-node and --kill-node must differ",
        ),
        (a.peer && a.peer_nodes == 0, "--peer-nodes must be >= 1"),
    ];
    match checks.iter().find(|(violated, _)| *violated) {
        Some((_, msg)) => Err((*msg).into()),
        None => Ok(()),
    }
}

/// What every tier offers: the scenario template, its prototypes, the
/// optional Zipf pool and the serve nodes' configuration.
struct Workload {
    template: DotInstance,
    protos: Vec<(Task, Vec<PathOption>)>,
    shapes: Option<ShapePool>,
    service: ServiceConfig,
}

impl Workload {
    fn new(a: &Args) -> Result<Self, String> {
        let scenario = if a.large { large_scenario(LoadLevel::Medium) } else { small_scenario(a.ues) };
        let template = scenario.instance;
        let protos: Vec<_> = template.tasks.iter().cloned().zip(template.options.iter().cloned()).collect();
        let shapes =
            (a.shape_skew > 0.0).then(|| ShapePool::new(a.shape_pool, a.shape_skew, protos.len(), a.seed));
        let service = ServiceConfig {
            shards: a.shards,
            queue_capacity: a.queue_capacity,
            batch_max: a.batch_max,
            batch_window: Duration::from_micros(a.batch_window_us),
            shed_watermark: a.shed_watermark,
            plan_cache: a.plan_cache.then(PlanCacheConfig::default),
            ..ServiceConfig::default()
        };
        service.validate().map_err(|e| e.to_string())?;
        Ok(Self { template, protos, shapes, service })
    }
}

/// What one run observed.
struct Run {
    drive: DriveReport,
    /// First submit to last verdict (drain excluded).
    wall: Duration,
    /// The top ledger: the service, the server's service, or the gateway.
    report: DrainReport,
    /// Each completed scale step with the offered count it fired at.
    reshards: Vec<(u64, ReshardReport)>,
    scale_errors: u64,
    /// Gateway tier: every backend node, primary and peer, labelled.
    nodes: Vec<(String, DrainReport)>,
    /// Gateway tier with `--peer`: the peer gateway's ledger.
    peer: Option<DrainReport>,
}

impl Run {
    fn verdicts_per_s(&self) -> f64 {
        self.drive.tally.outcomes() as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Blocks until `offered` reaches `at` or the drivers are done, so a
/// trigger due after the last submit still fires.
fn wait_for(offered: &AtomicU64, done: &AtomicBool, at: u64) -> u64 {
    while offered.load(Ordering::Relaxed) < at && !done.load(Ordering::Relaxed) {
        thread::sleep(Duration::from_millis(1));
    }
    offered.load(Ordering::Relaxed)
}

/// Walks the scale script in `at` order, each step once the offered
/// count reaches it. Returns the completed reshards, each with the
/// offered count it fired at, and the error count.
fn run_script(
    script: &[(u64, u32)],
    offered: &AtomicU64,
    done: &AtomicBool,
    mut scale: impl FnMut(usize) -> Result<ReshardReport, String>,
) -> (Vec<(u64, ReshardReport)>, u64) {
    let mut steps = script.to_vec();
    steps.sort_unstable();
    let (mut reshards, mut errors) = (Vec::new(), 0);
    for (at, shards) in steps {
        let fired = wait_for(offered, done, at);
        match scale(shards as usize) {
            Ok(r) => reshards.push((fired, r)),
            Err(e) => {
                eprintln!("error: scale_to({shards}) failed: {e}");
                errors += 1;
            }
        }
    }
    (reshards, errors)
}

/// Runs `--clients` drivers in parallel, each against the admitter
/// `connect` hands its thread, beside one `control` thread. The control
/// thread sees the run-wide offered counter and a flag raised once every
/// driver has finished, so scale steps and chaos fire on the offered
/// count and triggers due after the last submit still fire. A driver
/// whose connect fails charges its whole share as transport errors.
/// Returns the merged driver report, the drivers' wall time and what
/// `control` returned.
fn drive_with<'a, C: Send>(
    a: &Args,
    work: &Workload,
    connect: &(dyn Fn() -> Option<Box<dyn Admitter + 'a>> + Sync),
    control: impl FnOnce(&AtomicU64, &AtomicBool) -> C + Send,
) -> (DriveReport, Duration, C) {
    let (offered, done) = (AtomicU64::new(0), AtomicBool::new(false));
    let fleet = DriveConfig {
        requests: a.requests,
        driver: 0,
        first_id: 0,
        seed: a.seed,
        window: a.window,
        max_active: a.max_active,
        deadline: (a.deadline_ms > 0).then(|| Duration::from_millis(a.deadline_ms)),
        verdict_timeout: VERDICT_TIMEOUT,
        snapshot_every: a.snapshot_every,
    }
    .split(a.clients);
    let started = Instant::now();
    thread::scope(|s| {
        let control = s.spawn(|| control(&offered, &done));
        let offered = &offered;
        let drivers: Vec<_> = fleet
            .into_iter()
            .map(|cfg| {
                s.spawn(move || match connect() {
                    Some(admitter) => {
                        args::drive(&*admitter, &cfg, &work.protos, work.shapes.as_ref(), offered)
                    }
                    None => {
                        offered.fetch_add(cfg.requests, Ordering::Relaxed);
                        let tally = WireTally { transport: cfg.requests, ..WireTally::default() };
                        DriveReport { tally, departed: 0 }
                    }
                })
            })
            .collect();
        let mut total = DriveReport::default();
        for h in drivers {
            let r = h.join().expect("driver thread");
            total.tally.merge(r.tally);
            total.departed += r.departed;
        }
        let wall = started.elapsed();
        done.store(true, Ordering::Relaxed);
        (total, wall, control.join().expect("control thread"))
    })
}

fn dial(addr: std::net::SocketAddr) -> Option<Box<dyn Admitter>> {
    Client::connect(addr, ClientConfig::default()).ok().map(|c| Box::new(c) as Box<dyn Admitter>)
}

/// Raises the connection limit to fit the client fleet (plus control
/// connections), so `--clients 512` exercises concurrency rather than
/// the too-many-connections path.
fn net_config(a: &Args) -> NetConfig {
    NetConfig {
        max_connections: NetConfig::default().max_connections.max(a.clients + 8),
        ..NetConfig::default()
    }
}

fn run_service(a: &Args, work: &Workload, config: ServiceConfig) -> Result<Run, String> {
    let service = Service::start(config, &work.template).map_err(|e| format!("service start: {e}"))?;
    let connect = || Some(Box::new(&service) as Box<dyn Admitter>);
    let (drive, wall, (reshards, scale_errors)) = drive_with(a, work, &connect, |offered, done| {
        run_script(&a.scale_script, offered, done, |n| service.scale_to(n).map_err(|e| e.to_string()))
    });
    let report = service.drain();
    Ok(Run { drive, wall, report, reshards, scale_errors, nodes: Vec::new(), peer: None })
}

fn run_net(a: &Args, work: &Workload) -> Result<Run, String> {
    let server = AnyServer::start(a.frontend, ("127.0.0.1", 0), net_config(a), work.service, &work.template)
        .map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr();
    println!("server {addr}");
    let (drive, wall, (reshards, scale_errors)) = drive_with(a, work, &|| dial(addr), |offered, done| {
        // Resharding is management plane: it travels as Scale frames on
        // a control connection of its own, dialled at the first step.
        let mut control: Option<Client> = None;
        run_script(&a.scale_script, offered, done, |n| {
            if control.is_none() {
                control = Some(Client::connect(addr, ClientConfig::default()).map_err(|e| e.to_string())?);
            }
            let r = control.as_ref().expect("connected").scale_to(n as u32).map_err(|e| e.to_string())?;
            Ok(ReshardReport {
                from_shards: r.from_shards as usize,
                to_shards: r.to_shards as usize,
                migrated: r.migrated,
                generation: r.generation,
            })
        })
    });
    let report = server.shutdown();
    Ok(Run { drive, wall, report, reshards, scale_errors, nodes: Vec::new(), peer: None })
}

/// Fast-failover gateway tuning so a mid-run kill (or a peer digest
/// gap) resolves well inside the verdict timeout; the defaults are
/// sized for real WAN probes.
fn fast_gateway_config() -> GatewayConfig {
    GatewayConfig {
        health_interval: Duration::from_millis(50),
        health_timeout: Duration::from_millis(250),
        eject_after: 2,
        probation: Duration::from_millis(500),
        default_deadline: Duration::from_secs(2),
        verdict_grace: Duration::from_secs(2),
        ..GatewayConfig::default()
    }
}

fn start_nodes(count: usize, config: ServiceConfig, work: &Workload) -> Result<Vec<NetServer>, String> {
    (0..count)
        .map(|_| NetServer::start(("127.0.0.1", 0), NetConfig::default(), config, &work.template))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("backend node start: {e}"))
}

fn run_gateway(a: &Args, work: &Workload) -> Result<Run, String> {
    let nodes: Vec<Mutex<Option<NetServer>>> =
        start_nodes(a.nodes, work.service, work)?.into_iter().map(|n| Mutex::new(Some(n))).collect();
    let node_addrs: Vec<_> = nodes
        .iter()
        .map(|n| n.lock().expect("node lock").as_ref().expect("node live").local_addr())
        .collect();

    // The peer cluster is a second gateway over its own nodes with the
    // default queue capacity, so it has the headroom to absorb the
    // primary's overflow. It has no federation of its own: the topology
    // is a strict overflow drain.
    let peer = if a.peer {
        let peer_service =
            ServiceConfig { queue_capacity: ServiceConfig::default().queue_capacity, ..work.service };
        let peer_nodes = start_nodes(a.peer_nodes, peer_service, work)?;
        let addrs: Vec<_> = peer_nodes.iter().map(NetServer::local_addr).collect();
        let gateway =
            Gateway::start(&addrs, fast_gateway_config()).map_err(|e| format!("peer gateway: {e}"))?;
        let frontend =
            AnyServer::start_with_backend(a.frontend, ("127.0.0.1", 0), NetConfig::default(), gateway)
                .map_err(|e| format!("peer gateway frontend: {e}"))?;
        println!(
            "federation: overflow forwards to peer cluster {} ({} node(s))",
            frontend.local_addr(),
            a.peer_nodes
        );
        Some((frontend, peer_nodes))
    } else {
        None
    };
    let federation = peer.as_ref().map(|(frontend, _)| FederationConfig {
        // Fast digests for the same reason as the fast health probes:
        // the peer must be scored early in the run.
        digest_interval: Duration::from_millis(50),
        digest_timeout: Duration::from_millis(250),
        eject_after: 2,
        ..FederationConfig::new("loadgen-primary", vec![frontend.local_addr()])
    });
    let gateway_config = GatewayConfig {
        hedge: HedgeConfig { enabled: a.hedge, min_samples: 32 },
        plan_cache: a.gw_cache.then(PlanCacheConfig::default),
        federation,
        ..fast_gateway_config()
    };
    let gateway = Gateway::start(&node_addrs, gateway_config).map_err(|e| format!("gateway start: {e}"))?;
    let frontend = AnyServer::start_with_backend(a.frontend, ("127.0.0.1", 0), net_config(a), gateway)
        .map_err(|e| format!("gateway frontend: {e}"))?;
    let addr = frontend.local_addr();
    println!("gateway {addr} over {} node(s)", a.nodes);

    let (drive, wall, (mut killed, joined)) = drive_with(a, work, &|| dial(addr), |offered, done| {
        thread::scope(|s| {
            // The killer shuts its victim down with tickets still in
            // flight: the gateway must eject it and finish them on
            // survivors.
            let killer = (a.kill_node_at > 0).then(|| {
                s.spawn(|| {
                    let at = wait_for(offered, done, a.kill_node_at);
                    let victim = nodes[a.kill_node].lock().expect("node lock").take().expect("victim live");
                    let report = victim.shutdown();
                    println!("killed node {} at {at} offered", a.kill_node);
                    report
                })
            });
            // The joiner starts a new node mid-run and announces it over
            // the wire (a v3 Announce through the gateway's TCP
            // frontend); it takes traffic once its probation passes.
            let joiner = (a.join_node_at > 0).then(|| {
                s.spawn(|| {
                    let at = wait_for(offered, done, a.join_node_at);
                    let server = NetServer::start(
                        ("127.0.0.1", 0),
                        NetConfig::default(),
                        work.service,
                        &work.template,
                    )
                    .expect("start hot-join node");
                    let ack = server.announce_to(addr).expect("announce over the wire");
                    println!("joined node {} at {at} offered: {:?}", server.local_addr(), ack.decision);
                    server
                })
            });
            // The leaver sends a graceful v3 Leave for one seed node but
            // keeps its server up to flush the verdicts it owes.
            if a.leave_node_at > 0 {
                s.spawn(|| {
                    let at = wait_for(offered, done, a.leave_node_at);
                    let client = Client::connect(addr, ClientConfig::default()).expect("leave client");
                    let leaving = node_addrs[a.leave_node].to_string();
                    let resp = client.leave(&leaving, u64::MAX, Duration::from_secs(5)).expect("leave rpc");
                    println!("node {} left at {at} offered: {:?}", a.leave_node, resp.decision);
                });
            }
            (
                killer.map(|k| k.join().expect("killer thread")),
                joiner.map(|j| j.join().expect("joiner thread")),
            )
        })
    });

    // The gateway drains first (its frontend returns its ledger), then
    // every node still up, then the peer gateway and its nodes.
    let report = frontend.shutdown();
    let mut node_reports = Vec::new();
    for (idx, node) in nodes.iter().enumerate() {
        let server = node.lock().expect("node lock").take();
        match server {
            Some(server) => node_reports.push((format!("node {idx}"), server.shutdown())),
            None => {
                node_reports.push((format!("node {idx} (killed)"), killed.take().expect("killed report")))
            }
        }
    }
    if let Some(server) = joined {
        node_reports.push((format!("node {} (joined)", a.nodes), server.shutdown()));
    }
    let peer = peer.map(|(frontend, peer_nodes)| {
        let gateway = frontend.shutdown();
        for (idx, node) in peer_nodes.into_iter().enumerate() {
            node_reports.push((format!("peer node {idx}"), node.shutdown()));
        }
        gateway
    });
    Ok(Run { drive, wall, report, reshards: Vec::new(), scale_errors: 0, nodes: node_reports, peer })
}

fn run(a: &Args, work: &Workload) -> Result<Run, String> {
    match a.tier {
        Tier::Service => run_service(a, work, work.service),
        Tier::Net => run_net(a, work),
        Tier::Gateway => run_gateway(a, work),
    }
}

/// The one conservation check, for every tier.
fn violations(a: &Args, run: &Run) -> Vec<String> {
    let m = &run.report.metrics;
    let mut v = args::ledger_violations(a.requests, &run.drive.tally, m, a.tier != Tier::Service);
    if run.scale_errors > 0 || run.reshards.len() != a.scale_script.len() {
        v.push(format!(
            "scale script: {} of {} steps completed, {} errored",
            run.reshards.len(),
            a.scale_script.len(),
            run.scale_errors
        ));
    }
    // A step that targets the current shard count is a no-op and does
    // not count as a reshard.
    let effective = run.reshards.iter().filter(|(_, r)| r.from_shards != r.to_shards).count() as u64;
    if m.reshards != effective {
        v.push(format!(
            "ledger counted {} reshards, the script made {effective} topology changes",
            m.reshards
        ));
    }
    // A reshard adopts in-flight tasks that may transiently exceed the
    // new partition, so budgets are only checked on a fixed topology.
    if a.scale_script.is_empty() && !run.report.within_budgets() {
        v.push("a shard exceeded its budget partition".into());
    }
    let mut node_admitted = 0;
    for (label, r) in &run.nodes {
        let nm = &r.metrics;
        node_admitted += nm.admitted;
        if !nm.is_conserved() {
            v.push(format!(
                "{label} conservation violated: submitted {} != resolved {}",
                nm.submitted,
                nm.resolved()
            ));
        }
        if nm.departed > nm.admitted {
            v.push(format!("{label} departed {} more than it admitted {}", nm.departed, nm.admitted));
        }
        if !r.within_budgets() {
            v.push(format!("{label}: a shard exceeded its budget partition"));
        }
    }
    // A submit that reached a node right as it died may be admitted there
    // with the verdict lost in the close; the gateway retries it
    // elsewhere, so the nodes can admit more, never fewer, than the
    // gateway acknowledged.
    if a.tier == Tier::Gateway && node_admitted < m.admitted {
        v.push(format!("nodes admitted {node_admitted} in total, gateway acknowledged {}", m.admitted));
    }
    if let Some(p) = &run.peer {
        let pm = &p.metrics;
        if !pm.is_conserved() {
            v.push(format!(
                "peer gateway conservation violated: submitted {} != resolved {}",
                pm.submitted,
                pm.resolved()
            ));
        }
        if pm.submitted == 0 {
            v.push("no overflow was forwarded to the peer cluster".into());
        }
    }
    v
}

fn print_run(run: &Run) {
    let m = &run.report.metrics;
    println!("\n— run —");
    println!(
        "wall {:.3?}   {:.0} verdicts/s   departed {}",
        run.wall,
        run.verdicts_per_s(),
        run.drive.departed
    );
    println!("outcomes: {}", run.drive.tally);
    for (at, r) in &run.reshards {
        println!(
            "reshard: {} -> {} shards at {at} offered, {} in-flight tasks migrated (generation {})",
            r.from_shards, r.to_shards, r.migrated, r.generation
        );
    }
    println!("\n— ledger (post-drain) —\n{m}");
    if let Some(pc) = &run.report.plan_cache {
        println!(
            "plan cache: hit rate {:.1}% ({} hits, {} negative, {} misses, {} evictions, {} invalidated, {} revalidation misses)",
            100.0 * pc.hit_rate(),
            pc.hits,
            pc.negative_hits,
            pc.misses,
            pc.evictions,
            pc.invalidations,
            pc.validation_failures,
        );
    }
    for sh in &run.report.shards {
        println!(
            "shard {}: {} rounds, peak rbs {:.2}/{:.2}, peak compute {:.3}/{:.3}, active at exit {}",
            sh.shard,
            sh.rounds,
            sh.peak_rbs,
            sh.budgets.rbs,
            sh.peak_compute,
            sh.budgets.compute_seconds,
            sh.snapshot.active_tasks,
        );
    }
    for (label, r) in &run.nodes {
        let nm = &r.metrics;
        println!(
            "{label}: submitted {}  admitted {}  departed {}  conserved {}",
            nm.submitted,
            nm.admitted,
            nm.departed,
            nm.is_conserved()
        );
    }
    if let Some(p) = &run.peer {
        let pm = &p.metrics;
        println!(
            "peer gateway: submitted {}  admitted {}  shed {}  conserved {}",
            pm.submitted,
            pm.admitted,
            pm.shed,
            pm.is_conserved()
        );
    }
}

/// `--compare-baseline`: [`SPEEDUP_PAIRS`] cached/uncached pairs of the
/// identical stream (the first cached run is `first`). Each side runs
/// first in alternate pairs, so host noise and run order hit both sides
/// alike. Returns each pair's verdicts/s ratio, or the first
/// conservation breach.
fn speedups(a: &Args, work: &Workload, first: &Run) -> Result<Vec<f64>, String> {
    let uncached = ServiceConfig { plan_cache: None, ..work.service };
    let mut ratios = Vec::with_capacity(SPEEDUP_PAIRS);
    for pair in 0..SPEEDUP_PAIRS {
        // Even pairs run cached first (pair 0 reuses `first`), odd pairs
        // the baseline first.
        let (cached, baseline) = if pair % 2 == 1 {
            let baseline = run_service(a, work, uncached)?;
            (Some(run_service(a, work, work.service)?), baseline)
        } else {
            let cached = if pair == 0 { None } else { Some(run_service(a, work, work.service)?) };
            (cached, run_service(a, work, uncached)?)
        };
        let cached = cached.as_ref().unwrap_or(first);
        for (name, r) in [("cached", cached), ("baseline", &baseline)] {
            if let Some(e) = violations(a, r).first() {
                return Err(format!("pair {pair} {name} run: {e}"));
            }
        }
        let ratio = cached.verdicts_per_s() / baseline.verdicts_per_s().max(1e-9);
        println!(
            "pair {pair}: {:.0} verdicts/s cached vs {:.0} without the plan cache ({} vs {} solver rounds) — {ratio:.2}x",
            cached.verdicts_per_s(),
            baseline.verdicts_per_s(),
            cached.report.metrics.solver_rounds,
            baseline.report.metrics.solver_rounds,
        );
        ratios.push(ratio);
    }
    Ok(ratios)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

fn main() -> ExitCode {
    let parsed = parse(std::env::args().skip(1)).and_then(|a| Workload::new(&a).map(|w| (a, w)));
    let (a, work) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let frontend = if a.tier == Tier::Service { "in-process".to_string() } else { a.frontend.to_string() };
    println!(
        "loadgen[tier={} frontend={frontend} seed={}] {} requests, {} client(s) x window {}, {} shard(s) per node{}",
        a.tier,
        a.seed,
        a.requests,
        a.clients,
        a.window,
        a.shards,
        if a.shape_skew > 0.0 {
            format!(", Zipf skew {:.2} over {} shapes", a.shape_skew, a.shape_pool)
        } else {
            String::new()
        },
    );
    let run = match run(&a, &work) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_run(&run);

    let mut failures = violations(&a, &run);
    if failures.is_empty() {
        println!("\nconservation: OK");
    }
    if let Some(min) = a.min_hit_rate {
        let rate = run.report.plan_cache.map_or(0.0, |pc| pc.hit_rate());
        if rate < min {
            failures.push(format!("plan-cache hit rate {rate:.3} below the required {min:.3}"));
        }
    }
    if a.compare_baseline {
        match speedups(&a, &work, &run) {
            Ok(ratios) => {
                let median = median(ratios);
                println!("solve-path speedup: median {median:.2}x over {SPEEDUP_PAIRS} pairs");
                if let Some(min) = a.min_speedup.filter(|&min| median < min) {
                    failures
                        .push(format!("median solve-path speedup {median:.2}x below the required {min:.2}x"));
                }
            }
            Err(e) => failures.push(e),
        }
    }
    println!("\n— telemetry —\n{}", offloadnn_telemetry::global().snapshot());
    if failures.is_empty() {
        return ExitCode::SUCCESS;
    }
    for f in &failures {
        eprintln!("error: {f}");
    }
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_script_parsing_accepts_steps_and_rejects_garbage() {
        assert_eq!(parse_scale_script("100:8,250:2").unwrap(), vec![(100, 8), (250, 2)]);
        assert_eq!(parse_scale_script("").unwrap(), vec![]);
        assert!(parse_scale_script("100").is_err());
        assert!(parse_scale_script("100:0").is_err());
        assert!(parse_scale_script("x:2").is_err());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(vec![1.2, 0.9, 1.1, 1.0, 3.0]), 1.1);
        assert_eq!(median(vec![2.0, 1.0]), 1.5);
    }
}
