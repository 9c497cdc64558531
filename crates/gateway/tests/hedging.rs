//! Deadline-aware hedging under deliberately slow backends: the solver
//! batch window is stretched so every node's RTT sits near the ticket
//! budget, which forces the hedger to duplicate submits once the
//! per-node p99 histograms warm up. The test pins the dedup contract:
//! exactly one verdict per submit reaches the caller (first one wins),
//! and the losing duplicate's admission is departed by the reaper, so
//! no backend node ends the run with leaked in-flight capacity.

use offloadnn_core::scenario::small_scenario;
use offloadnn_core::task::TaskId;
use offloadnn_gateway::{Gateway, GatewayConfig, HedgeConfig};
use offloadnn_net::{NetConfig, NetServer};
use offloadnn_serve::{Admitter, Outcome, PendingVerdict, ServiceConfig};
use std::collections::VecDeque;
use std::time::Duration;

#[test]
fn hedges_fire_and_duplicates_are_deduplicated() {
    const WARMUP: usize = 40;
    const HEDGED: usize = 100;
    const WINDOW: usize = 16;

    let scenario = small_scenario(5);
    // Slow nodes: the solver sits on a ~30 ms batch window, so a ticket
    // with a ~60 ms budget projects past its deadline once p99 is known.
    let service = ServiceConfig { batch_window: Duration::from_millis(30), ..ServiceConfig::default() };
    let nodes: Vec<NetServer> = (0..2)
        .map(|_| {
            NetServer::start(("127.0.0.1", 0), NetConfig::default(), service, &scenario.instance)
                .expect("start backend node")
        })
        .collect();
    let addrs: Vec<_> = nodes.iter().map(|n| n.local_addr()).collect();
    let config = GatewayConfig {
        hedge: HedgeConfig { enabled: true, min_samples: 5 },
        verdict_grace: Duration::from_secs(2),
        ..GatewayConfig::default()
    };
    let gateway = Gateway::start(&addrs, config).expect("start gateway");

    let mut verdicts = 0u64;
    let mut window: VecDeque<PendingVerdict> = VecDeque::new();
    let settle = |pending: PendingVerdict, verdicts: &mut u64| {
        let task = pending.task();
        let outcome = pending.wait().expect("exactly one verdict per submit");
        *verdicts += 1;
        if matches!(outcome, Outcome::Admitted { .. }) {
            gateway.depart(task);
        }
    };

    for i in 0..WARMUP + HEDGED {
        let pick = i % scenario.instance.tasks.len();
        let mut task = scenario.instance.tasks[pick].clone();
        task.id = TaskId(u32::try_from(i).unwrap());
        // Warm the RTT histograms on a roomy budget first; then drop to
        // a budget the slow nodes can only just meet, arming the hedger.
        let budget = if i < WARMUP { Duration::from_secs(2) } else { Duration::from_millis(60) };
        let pending = Admitter::submit(&gateway, task, scenario.instance.options[pick].clone(), Some(budget))
            .expect("gateway accepts submits");
        window.push_back(pending);
        if window.len() >= WINDOW {
            settle(window.pop_front().unwrap(), &mut verdicts);
        }
    }
    for entry in window.drain(..) {
        settle(entry, &mut verdicts);
    }

    // Dedup: one verdict per submit despite the duplicates in flight.
    assert_eq!(verdicts, (WARMUP + HEDGED) as u64);

    let report = gateway.drain();
    assert!(report.metrics.is_conserved(), "gateway ledger leaked: {:?}", report.metrics);
    assert_eq!(report.metrics.resolved(), (WARMUP + HEDGED) as u64);

    // The hedger actually fired (observable only with telemetry on).
    if offloadnn_telemetry::enabled() {
        let snap = offloadnn_telemetry::global().snapshot();
        let counter = |name: &str| snap.counters.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v);
        let hedges = counter("gw.hedges");
        let wins = counter("gw.hedge_wins");
        assert!(hedges > 0, "slow backends + tight budgets should hedge");
        assert!(wins <= hedges);
    }

    // No leaked capacity anywhere: every admission on every node —
    // winners (departed by the caller) and losers (departed by the
    // reaper) alike — was released before drain.
    for node in nodes {
        let r = node.shutdown();
        assert!(r.metrics.is_conserved(), "node leaked: {:?}", r.metrics);
        assert_eq!(
            r.metrics.departed, r.metrics.admitted,
            "hedge duplicates leaked in-flight capacity on a node"
        );
    }
}
