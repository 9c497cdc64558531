//! The per-layer replay: the workload's own generated stream, pushed
//! through each layer's public functions on one thread, with no tier
//! running. Nothing here adds instrumentation to the program; it times
//! public calls and reads nothing but their results.

use crate::workload::{materialize, service_config, Arrival, Workload};
use offloadnn_core::controller::{AdmissionRequest, Controller};
use offloadnn_core::heuristic::OffloadnnSolver;
use offloadnn_core::instance::DotInstance;
use offloadnn_core::task::TaskId;
use offloadnn_gateway::router::{self, Candidate};
use offloadnn_net::codec::{DepartRequest, OutcomeResponse, SubmitRequest};
use offloadnn_net::{decode, encode, Frame};
use offloadnn_plancache::{budget_bucket, shape_fingerprint, CachedPlan, PlanCache, PlanKey};
use offloadnn_serve::Outcome;
use offloadnn_telemetry::Registry;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// What the replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Wall µs of each `Controller::submit` round.
    pub round_us: Vec<f64>,
    /// Wall µs of each `Controller::release` call.
    pub release_us: Vec<f64>,
    /// Active tasks on the controller at the start of each round.
    pub active: Vec<usize>,
    /// Requests replayed.
    pub submitted: u64,
    /// Requests the replayed controllers admitted.
    pub admitted: u64,
    /// Mean ns of one `PlanCache::lookup` on the workload's keys.
    pub lookup_ns: f64,
    /// Mean ns to encode one verdict's Submit and Outcome frames (0 when
    /// the workload has no wire).
    pub encode_ns: f64,
    /// Mean ns to decode the same two frames.
    pub decode_ns: f64,
    /// Submit + Outcome + Depart bytes per verdict.
    pub bytes_per_verdict: f64,
    /// Mean ns of one `router::rank` over the workload's task keys (0
    /// when the workload has no gateway).
    pub route_ns: f64,
    /// Mean ns of one span start and finish on a private registry.
    pub span_ns: f64,
}

/// One replayed shard: a controller plus its open batch and the
/// departures it owes, in virtual time.
struct Node {
    controller: Controller,
    batch: Vec<usize>,
    batch_opened: f64,
    /// `(departure time in virtual ns, task index)`.
    departures: BinaryHeap<Reverse<(u64, u32)>>,
}

fn virtual_ns(seconds: f64) -> u64 {
    (seconds * 1e9) as u64
}

struct Ctx<'a> {
    template: &'a DotInstance,
    schedule: &'a [Arrival],
    cache: PlanCache<CachedPlan>,
    lookup_ns: f64,
    lookups: u64,
    out: Replay,
    verdicts: Vec<Option<bool>>,
}

impl Ctx<'_> {
    /// Runs the round of `node`'s open batch at virtual time `at`: first
    /// the departures due by then, then a plan-cache lookup per request
    /// against the live headroom bucket, then the solver round.
    fn round(&mut self, node: &mut Node, at: f64) {
        while let Some(&Reverse((due, id))) = node.departures.peek() {
            if due > virtual_ns(at) {
                break;
            }
            node.departures.pop();
            let t = Instant::now();
            black_box(node.controller.release(&[TaskId(id)]));
            self.out.release_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        if node.batch.is_empty() {
            return;
        }
        let budgets = self.template.budgets;
        let bucket = budget_bucket(&node.controller.snapshot().headroom, &budgets);
        let requests: Vec<AdmissionRequest> = node
            .batch
            .iter()
            .map(|&i| {
                let (task, options) = materialize(self.template, i, &self.schedule[i]);
                AdmissionRequest { task, options }
            })
            .collect();
        for r in &requests {
            let key = PlanKey { shape: shape_fingerprint(&r.task, &r.options), bucket, generation: 0 };
            let t = Instant::now();
            let hit = black_box(self.cache.lookup(&key));
            self.lookup_ns += t.elapsed().as_nanos() as f64;
            self.lookups += 1;
            if hit.is_none() {
                self.cache.insert(key, CachedPlan::Infeasible { ledger: 0 }, true);
            }
        }
        self.out.active.push(node.controller.active().len());
        self.out.submitted += requests.len() as u64;
        let t = Instant::now();
        let outcome = node.controller.submit(requests).expect("replayed rounds are well formed");
        self.out.round_us.push(t.elapsed().as_secs_f64() * 1e6);
        for a in &outcome.admitted {
            let i = a.task.id.0;
            self.verdicts[i as usize] = Some(true);
            node.departures.push(Reverse((virtual_ns(at + self.schedule[i as usize].lifetime), i)));
        }
        for id in &outcome.rejected {
            self.verdicts[id.0 as usize] = Some(false);
        }
        self.out.admitted += outcome.admitted.len() as u64;
        node.batch.clear();
    }
}

/// Replays `schedule` through the layers `workload` exercises.
pub fn run(workload: Workload, template: &DotInstance, schedule: &[Arrival]) -> Replay {
    let config = service_config();
    let window = config.batch_window.as_secs_f64();
    let node_count = if workload == Workload::GatewayFresh { 2 } else { 1 };
    let candidates: Vec<Candidate> = (0..node_count)
        .map(|i| Candidate {
            index: i,
            seed: router::node_seed(&format!("127.0.0.1:{}", 7000 + i)),
            weight: 1.0,
        })
        .collect();
    let mut nodes: Vec<Node> = (0..node_count)
        .map(|_| Node {
            controller: Controller::new(template, OffloadnnSolver::new()),
            batch: Vec::new(),
            batch_opened: 0.0,
            departures: BinaryHeap::new(),
        })
        .collect();
    let mut ctx = Ctx {
        template,
        schedule,
        cache: PlanCache::new(config.plan_cache.unwrap_or_default()),
        lookup_ns: 0.0,
        lookups: 0,
        out: Replay::default(),
        verdicts: vec![None; schedule.len()],
    };

    // Virtual-time batching as a shard does it: a round opens with its
    // first request and closes `batch_window` later or at `batch_max`.
    for (i, a) in schedule.iter().enumerate() {
        let n = if node_count > 1 {
            router::route(i as u64, &candidates).expect("candidates are non-empty")
        } else {
            0
        };
        for node in &mut nodes {
            if !node.batch.is_empty() && a.at >= node.batch_opened + window {
                let at = node.batch_opened + window;
                ctx.round(node, at);
            }
        }
        let node = &mut nodes[n];
        if node.batch.is_empty() {
            node.batch_opened = a.at;
        }
        node.batch.push(i);
        if node.batch.len() >= config.batch_max {
            ctx.round(node, a.at);
        }
    }
    for node in &mut nodes {
        let at = node.batch_opened + window;
        ctx.round(node, at);
    }
    ctx.out.lookup_ns = ctx.lookup_ns / ctx.lookups.max(1) as f64;

    if workload != Workload::SolveChurn {
        codec(&mut ctx);
    }
    if node_count > 1 {
        let t = Instant::now();
        for i in 0..schedule.len() {
            black_box(router::rank(black_box(i as u64), &candidates));
        }
        ctx.out.route_ns = t.elapsed().as_nanos() as f64 / schedule.len().max(1) as f64;
    }
    ctx.out.span_ns = span_cost();
    ctx.out
}

/// Encodes and decodes each verdict's Submit and Outcome frames, and each
/// admitted task's Depart frame.
fn codec(ctx: &mut Ctx<'_>) {
    let (mut enc, mut dec, mut bytes, mut verdicts) = (0.0f64, 0.0f64, 0usize, 0u64);
    let mut roundtrip = |frame: Frame| -> usize {
        let t = Instant::now();
        let wire = encode(black_box(&frame));
        enc += t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        let back = decode(black_box(&wire));
        dec += t.elapsed().as_nanos() as f64;
        assert!(matches!(back, Ok(Some((ref f, n))) if *f == frame && n == wire.len()), "codec round trip");
        wire.len()
    };
    for (i, a) in ctx.schedule.iter().enumerate() {
        let Some(admitted) = ctx.verdicts[i] else { continue };
        let (task, options) = materialize(ctx.template, i, a);
        let request_id = i as u64 + 1;
        bytes += roundtrip(Frame::Submit(SubmitRequest { request_id, deadline_us: 0, task, options }));
        let outcome = if admitted {
            Outcome::Admitted { admission: 1.0, rbs: 1.0, shard: 0 }
        } else {
            Outcome::Rejected { shard: 0 }
        };
        bytes += roundtrip(Frame::Outcome(OutcomeResponse { request_id, outcome }));
        if admitted {
            bytes += encode(&Frame::Depart(DepartRequest { request_id, task: TaskId(i as u32) })).len();
        }
        verdicts += 1;
    }
    let n = verdicts.max(1) as f64;
    ctx.out.encode_ns = enc / n;
    ctx.out.decode_ns = dec / n;
    ctx.out.bytes_per_verdict = bytes as f64 / n;
}

/// Mean ns of one `Registry::span` start and finish, on a private
/// registry so the program's own phases are untouched.
fn span_cost() -> f64 {
    const N: u32 = 200_000;
    let registry = Registry::new();
    registry.span("admitbench.span").finish();
    let t = Instant::now();
    for _ in 0..N {
        black_box(registry.span("admitbench.span")).finish();
    }
    t.elapsed().as_nanos() as f64 / f64::from(N)
}
