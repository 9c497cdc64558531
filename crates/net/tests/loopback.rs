//! Loopback integration tests: a real server on an ephemeral port,
//! driven by real [`Client`]s over TCP.
//!
//! Every scenario is parameterized over the [`Frontend`] — the threaded
//! [`offloadnn_net::NetServer`] and the epoll
//! [`offloadnn_net::AsyncServer`] must pass the identical assertions,
//! which is the executable definition of their feature parity.
//!
//! The load-bearing assertions are the conservation invariant
//! (`submitted = admitted + rejected + shed + expired`, end-to-end
//! through the wire) and the drain guarantee (every in-flight verdict is
//! flushed to its client before the connection closes).

use offloadnn_core::scenario::small_scenario;
use offloadnn_core::task::TaskId;
use offloadnn_net::codec::ErrorCode;
use offloadnn_net::{AnyServer, Client, ClientConfig, Frontend, MembershipDecision, NetConfig, NetError};
use offloadnn_serve::{Admitter, ChaosConfig, Outcome, ServiceConfig, VerdictError};
use std::time::Duration;

/// A service tuned for debug-mode CI: tiny batches, short windows.
fn quick_service() -> ServiceConfig {
    ServiceConfig {
        shards: 2,
        batch_max: 16,
        batch_window: Duration::from_micros(500),
        ..ServiceConfig::default()
    }
}

fn start_server(
    frontend: Frontend,
    config: ServiceConfig,
) -> (AnyServer, Vec<(offloadnn_core::task::Task, Vec<offloadnn_core::instance::PathOption>)>) {
    let scenario = small_scenario(4);
    let protos: Vec<_> =
        scenario.instance.tasks.iter().cloned().zip(scenario.instance.options.iter().cloned()).collect();
    let server =
        AnyServer::start(frontend, ("127.0.0.1", 0), NetConfig::default(), config, &scenario.instance)
            .expect("start server");
    (server, protos)
}

/// Verdicts observed through the wire by one client.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    admitted: u64,
    rejected: u64,
    shed: u64,
    expired: u64,
    errored: u64,
}

impl Tally {
    fn outcomes(&self) -> u64 {
        self.admitted + self.rejected + self.shed + self.expired
    }

    fn absorb(&mut self, verdict: Result<Outcome, NetError>) {
        match verdict {
            Ok(Outcome::Admitted { .. }) => self.admitted += 1,
            Ok(Outcome::Rejected { .. }) => self.rejected += 1,
            Ok(Outcome::Shed { .. }) => self.shed += 1,
            Ok(Outcome::Expired { .. }) => self.expired += 1,
            Err(_) => self.errored += 1,
        }
    }
}

/// N client threads drive a mixed workload (pipelined submits, periodic
/// departures, interleaved metrics snapshots) and every offered request
/// is accounted for exactly once — on the wire and in the server's own
/// counters, class by class.
fn run_mixed_workload(frontend: Frontend) {
    const CLIENTS: usize = 4;
    const PER_CLIENT: u64 = 120;

    let (server, protos) = start_server(frontend, quick_service());
    let addr = server.local_addr();

    let mut total = Tally::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|idx| {
                let protos = &protos;
                scope.spawn(move || {
                    let client = Client::connect(addr, ClientConfig::default()).expect("connect");
                    let mut tally = Tally::default();
                    let mut pending = std::collections::VecDeque::new();
                    let mut admitted_ids: Vec<TaskId> = Vec::new();
                    for i in 0..PER_CLIENT {
                        let proto = &protos[(i as usize + idx) % protos.len()];
                        let mut task = proto.0.clone();
                        task.id = TaskId(idx as u32 * 1_000_000 + i as u32);
                        match client.submit(task, proto.1.clone(), None) {
                            Ok(p) => pending.push_back(p),
                            Err(_) => tally.errored += 1,
                        }
                        // Keep a bounded pipeline and a mixed frame stream.
                        if pending.len() >= 32 {
                            let p = pending.pop_front().expect("non-empty");
                            let task = p.task;
                            let verdict = p.wait_timeout(Duration::from_secs(20));
                            if matches!(verdict, Ok(Outcome::Admitted { .. })) {
                                admitted_ids.push(task);
                            }
                            tally.absorb(verdict);
                        }
                        if i % 17 == 16 {
                            if let Some(id) = admitted_ids.pop() {
                                client.depart(id).expect("depart");
                            }
                        }
                        if i % 40 == 39 {
                            let snap = client.snapshot().expect("snapshot");
                            assert!(snap.submitted >= snap.admitted, "snapshot is internally sane");
                        }
                    }
                    for p in pending {
                        tally.absorb(p.wait_timeout(Duration::from_secs(20)));
                    }
                    client.close();
                    tally
                })
            })
            .collect();
        for h in handles {
            let t = h.join().expect("client thread");
            total.admitted += t.admitted;
            total.rejected += t.rejected;
            total.shed += t.shed;
            total.expired += t.expired;
            total.errored += t.errored;
        }
    });

    let report = server.shutdown();
    let m = &report.metrics;
    let offered = CLIENTS as u64 * PER_CLIENT;

    assert_eq!(total.errored, 0, "loopback run must not drop a single verdict");
    assert_eq!(total.outcomes(), offered, "every offered request resolves exactly once: {total:?}");
    assert!(m.is_conserved(), "server conservation violated: {m:?}");
    // The wire and the server agree class by class.
    assert_eq!(m.submitted, offered);
    assert_eq!(m.admitted, total.admitted);
    assert_eq!(m.rejected, total.rejected);
    assert_eq!(m.shed, total.shed);
    assert_eq!(m.expired, total.expired);
}

#[test]
fn mixed_workload_conserves_every_request() {
    run_mixed_workload(Frontend::Threads);
}

#[test]
fn mixed_workload_conserves_every_request_reactor() {
    run_mixed_workload(Frontend::Reactor);
}

/// Drain delivers every in-flight outcome: requests pipelined *before*
/// the drain (and still queued behind a slow batch window when it lands)
/// all resolve to real verdicts, and the drain acknowledgement carries a
/// post-flush snapshot.
fn run_drain_flush(frontend: Frontend) {
    const INFLIGHT: u64 = 24;

    // A slow solver cadence so the pipelined submits are still queued
    // when the drain lands.
    let (server, protos) = start_server(
        frontend,
        ServiceConfig {
            shards: 2,
            batch_max: 64,
            batch_window: Duration::from_millis(150),
            ..ServiceConfig::default()
        },
    );
    let addr = server.local_addr();

    let submitter = Client::connect(addr, ClientConfig::default()).expect("connect submitter");
    let mut pending = Vec::new();
    for i in 0..INFLIGHT {
        let proto = &protos[i as usize % protos.len()];
        let mut task = proto.0.clone();
        task.id = TaskId(i as u32);
        pending.push(submitter.submit(task, proto.1.clone(), None).expect("submit"));
    }

    // Wait for the server to ingest every submit (the drain guarantee
    // covers requests already inside the service; a submit still in the
    // socket buffer when the fence lands is refused as Draining instead).
    let ingest_deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.metrics().expect("service metrics are always available").submitted < INFLIGHT {
        assert!(std::time::Instant::now() < ingest_deadline, "server never ingested all submits");
        std::thread::sleep(Duration::from_millis(2));
    }

    // A second connection asks for the drain.
    let controller = Client::connect(addr, ClientConfig::default()).expect("connect controller");
    let final_metrics = controller.drain().expect("drain acknowledgement");
    assert!(server.is_draining());

    // Every verdict owed to the submitter arrives despite the drain.
    let mut tally = Tally::default();
    for p in pending {
        tally.absorb(p.wait_timeout(Duration::from_secs(20)));
    }
    assert_eq!(tally.errored, 0, "drain must not strand an in-flight verdict: {tally:?}");
    assert_eq!(tally.outcomes(), INFLIGHT);

    // New submits are refused with a typed Draining error.
    let proto = &protos[0];
    let mut task = proto.0.clone();
    task.id = TaskId(9_999);
    let refused = submitter
        .submit(task, proto.1.clone(), None)
        .expect("submit frame still writable")
        .wait_timeout(Duration::from_secs(20));
    match refused {
        Err(NetError::Server(e)) => assert_eq!(e.code, ErrorCode::Draining),
        other => panic!("post-drain submit must be refused as Draining, got {other:?}"),
    }

    assert!(final_metrics.submitted <= INFLIGHT, "drain snapshot is from this run");
    let report = server.shutdown();
    assert!(report.metrics.is_conserved(), "post-drain conservation: {:?}", report.metrics);
}

#[test]
fn drain_flushes_every_inflight_outcome() {
    run_drain_flush(Frontend::Threads);
}

#[test]
fn drain_flushes_every_inflight_outcome_reactor() {
    run_drain_flush(Frontend::Reactor);
}

/// The client-shipped deadline is enforced server-side: a budget far
/// tighter than the batch window expires the request instead of waiting
/// for a solver round. (The tighter of the client budget and the
/// service's own admission deadline wins.)
fn run_deadline_propagation(frontend: Frontend) {
    let (server, protos) = start_server(
        frontend,
        ServiceConfig {
            shards: 1,
            batch_max: 64,
            batch_window: Duration::from_millis(100),
            ..ServiceConfig::default()
        },
    );
    let addr = server.local_addr();
    let client = Client::connect(addr, ClientConfig::default()).expect("connect");

    let mut expired = 0u64;
    for i in 0..8u32 {
        let proto = &protos[i as usize % protos.len()];
        let mut task = proto.0.clone();
        task.id = TaskId(i);
        // 1 µs budget: expired by the time the 100 ms batch window fires.
        let p = client.submit(task, proto.1.clone(), Some(Duration::from_micros(1))).expect("submit");
        if matches!(p.wait_timeout(Duration::from_secs(20)), Ok(Outcome::Expired { .. })) {
            expired += 1;
        }
    }
    assert!(expired > 0, "a 1 µs client deadline must expire behind a 100 ms batch window");

    client.close();
    let report = server.shutdown();
    assert!(report.metrics.expired >= expired);
    assert!(report.metrics.is_conserved());
}

#[test]
fn client_deadline_propagates_to_the_server() {
    run_deadline_propagation(Frontend::Threads);
}

#[test]
fn client_deadline_propagates_to_the_server_reactor() {
    run_deadline_propagation(Frontend::Reactor);
}

/// Live resharding under pipelined load, end to end through the wire: a
/// client streams submits while a controller connection reshapes the
/// fleet twice (4 → 6 → 3) with `Scale` frames. Zero verdicts are lost,
/// the final snapshot conserves, and the server's reshard counters match
/// the acknowledged `Scaled` responses.
fn run_reshard_under_load(frontend: Frontend) {
    const REQUESTS: u64 = 360;

    let (server, protos) = start_server(
        frontend,
        ServiceConfig {
            shards: 4,
            batch_max: 16,
            batch_window: Duration::from_micros(500),
            ..ServiceConfig::default()
        },
    );
    let addr = server.local_addr();

    let client = Client::connect(addr, ClientConfig::default()).expect("connect submitter");
    let controller = Client::connect(addr, ClientConfig::default()).expect("connect controller");

    let mut tally = Tally::default();
    let mut pending = std::collections::VecDeque::new();
    let mut admitted_ids: Vec<TaskId> = Vec::new();
    let mut migrated_total = 0u64;
    for i in 0..REQUESTS {
        // Reshard mid-stream, with verdicts outstanding in the pipeline
        // both times: grow at a third, shrink below start at two thirds.
        if i == REQUESTS / 3 {
            let resp = controller.scale_to(6).expect("scale 4 -> 6");
            assert_eq!((resp.from_shards, resp.to_shards, resp.generation), (4, 6, 1));
            migrated_total += resp.migrated;
        }
        if i == 2 * REQUESTS / 3 {
            let resp = controller.scale_to(3).expect("scale 6 -> 3");
            assert_eq!((resp.from_shards, resp.to_shards, resp.generation), (6, 3, 2));
            migrated_total += resp.migrated;
        }

        let proto = &protos[i as usize % protos.len()];
        let mut task = proto.0.clone();
        task.id = TaskId(i as u32);
        match client.submit(task, proto.1.clone(), None) {
            Ok(p) => pending.push_back(p),
            Err(_) => tally.errored += 1,
        }
        if pending.len() >= 48 {
            let p = pending.pop_front().expect("non-empty");
            let task = p.task;
            let verdict = p.wait_timeout(Duration::from_secs(20));
            if matches!(verdict, Ok(Outcome::Admitted { .. })) {
                admitted_ids.push(task);
            }
            tally.absorb(verdict);
        }
        // Departures keep flowing across ring generations: after a
        // reshard these route to the task's *new* owner (or are orphan-
        // buffered until its migration lands).
        if i % 11 == 10 {
            if let Some(id) = admitted_ids.pop() {
                client.depart(id).expect("depart");
            }
        }
    }
    for p in pending {
        tally.absorb(p.wait_timeout(Duration::from_secs(20)));
    }

    // An invalid scale target is refused with a typed error, without
    // disturbing the stream.
    match controller.scale_to(0) {
        Err(NetError::Server(e)) => assert_eq!(e.code, ErrorCode::InvalidScale),
        other => panic!("scale_to(0) must be refused InvalidScale, got {other:?}"),
    }

    client.close();
    controller.close();
    let report = server.shutdown();
    let m = &report.metrics;

    assert_eq!(tally.errored, 0, "a live reshard must not lose a single verdict: {tally:?}");
    assert_eq!(tally.outcomes(), REQUESTS, "every request resolves exactly once: {tally:?}");
    assert!(m.is_conserved(), "server conservation violated: {m:?}");
    assert_eq!(m.submitted, REQUESTS);
    assert_eq!(m.admitted, tally.admitted);
    assert_eq!(m.rejected, tally.rejected);
    assert_eq!(m.shed, tally.shed);
    assert_eq!(m.expired, tally.expired);
    assert_eq!(m.reshards, 2, "both topology changes counted");
    assert_eq!(m.generation, 2);
    assert_eq!(m.migrated, migrated_total, "server-counted migrations match the Scaled acks");
}

#[test]
fn reshard_under_pipelined_load_conserves() {
    run_reshard_under_load(Frontend::Threads);
}

#[test]
fn reshard_under_pipelined_load_conserves_reactor() {
    run_reshard_under_load(Frontend::Reactor);
}

/// The dispatch paths a plain serve node answers without a verdict of
/// its own making: a forward it decides locally, a verdict lost to a
/// chaos-killed shard worker, and the membership and federation frames
/// it does not manage. One connection carries all of them, and stays
/// usable after the lost verdict.
fn run_plain_node_dispatch(frontend: Frontend) {
    let (server, protos) = start_server(
        frontend,
        ServiceConfig {
            shards: 1,
            chaos: ChaosConfig { panic_shard_at_round: Some((0, 2)), slow_solver: Duration::ZERO },
            ..quick_service()
        },
    );
    let client = Client::connect(server.local_addr(), ClientConfig::default()).expect("connect");
    let wait = Duration::from_secs(20);

    // Solver round 1: a plain node has no peers, so the forward is an
    // ordinary local submit that resolves to a verdict.
    let gateway = "10.0.0.1:7000".to_owned();
    let forwarded = client
        .forward(
            protos[0].0.clone(),
            protos[0].1.clone(),
            Some(wait),
            2,
            &gateway,
            std::slice::from_ref(&gateway),
        )
        .expect("forward frame written");
    assert!(forwarded.wait_timeout(wait).is_ok(), "a forward to a plain node is decided locally");

    // Solver round 2 panics the only shard worker: the verdict is lost,
    // and the frontend answers an Internal error frame in its place.
    let mut task = protos[1].0.clone();
    task.id = TaskId(1);
    let admitter: &dyn Admitter = &client;
    let lost = admitter.submit(task, protos[1].1.clone(), None).expect("submit frame written").wait();
    assert!(
        matches!(lost, Err(VerdictError::Refused(_))),
        "a lost verdict arrives as an error frame: {lost:?}"
    );

    // The connection survives: membership frames get Unsupported, a
    // load-digest request an error frame, a snapshot real metrics.
    let node = "127.0.0.1:9";
    let announce = client.announce(node, 1, wait).expect("announce answered");
    assert_eq!(announce.decision, MembershipDecision::Unsupported);
    assert!(announce.members.is_empty());
    let leave = client.leave(node, 1, wait).expect("leave answered");
    assert_eq!(leave.decision, MembershipDecision::Unsupported);
    match client.peer_hello(node, 1, wait) {
        Err(NetError::Server(e)) => assert_eq!(e.code, ErrorCode::Internal),
        other => panic!("a plain node must refuse a load-digest request, got {other:?}"),
    }
    assert_eq!(client.snapshot().expect("snapshot after the lost verdict").submitted, 2);

    client.close();
    let report = server.shutdown();
    assert_eq!(report.lost_shards, 1, "the chaos-killed worker is reported");
}

#[test]
fn plain_node_dispatch_paths() {
    run_plain_node_dispatch(Frontend::Threads);
}

#[test]
fn plain_node_dispatch_paths_reactor() {
    run_plain_node_dispatch(Frontend::Reactor);
}

/// Dialing a dead address retries with backoff and then fails with a
/// typed error instead of hanging or panicking. (Client-side only — no
/// frontend involved.)
#[test]
fn dial_backoff_gives_up_with_a_typed_error() {
    // Bind-then-drop guarantees a port with no listener behind it.
    let dead_addr = {
        let probe = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("probe bind");
        probe.local_addr().expect("probe addr")
    };
    let config = ClientConfig {
        connect_timeout: Duration::from_millis(200),
        connect_attempts: 3,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(20),
        ..ClientConfig::default()
    };
    let started = std::time::Instant::now();
    match Client::connect(dead_addr, config) {
        Err(NetError::Disconnected(msg)) => {
            assert!(msg.contains("3 attempt(s)"), "error names the attempt budget: {msg}");
        }
        other => panic!("dialing a dead port must fail Disconnected, got {other:?}"),
    }
    // Two jittered backoff sleeps happened, each at least backoff_base.
    assert!(started.elapsed() >= Duration::from_millis(10), "backoff sleeps actually ran");
}
