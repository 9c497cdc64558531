//! Property tests for the service runtime's two core invariants:
//!
//! 1. **Conservation** — every submitted request ends in exactly one of
//!    {admitted, rejected, shed, expired}; no ticket is lost and no
//!    verdict is double-counted, across randomized shard counts, queue
//!    bounds, batch shapes, deadlines and request mixes.
//! 2. **Partition isolation** — no shard's observed resource usage ever
//!    exceeds its partition of the edge [`Budgets`].
//!
//! The randomized configurations deliberately include pathological
//! shapes (queue capacity 1, tiny deadlines, shed watermark below the
//! batch size) so the shedding and expiry paths are exercised, not just
//! the happy path.

use offloadnn_core::instance::Budgets;
use offloadnn_core::scenario::small_scenario;
use offloadnn_radio::ArrivalProcess;
use offloadnn_serve::{loadgen, LoadgenConfig, LoadgenReport, ServiceConfig};
use proptest::prelude::*;
use std::time::Duration;

/// Drawn service + load shape for one randomized closed loop over the
/// 5-UE reference scenario — deliberately spans calm and hostile
/// configurations.
struct Shape {
    shards: usize,
    requests: u64,
    queue_capacity: usize,
    batch_max: usize,
    window_us: u64,
    deadline_us: u64,
    shed_watermark: usize,
    max_active: usize,
    seed: u64,
}

fn run_randomized(shape: Shape) -> LoadgenReport {
    let service_config = ServiceConfig {
        shards: shape.shards,
        queue_capacity: shape.queue_capacity,
        batch_max: shape.batch_max,
        batch_window: Duration::from_micros(shape.window_us),
        admission_deadline: Duration::from_micros(shape.deadline_us),
        shed_watermark: shape.shed_watermark,
        virtual_nodes: 16,
        chaos: Default::default(),
        plan_cache: None,
    };
    let cfg = LoadgenConfig {
        requests: shape.requests,
        process: ArrivalProcess::Poisson { rate_hz: 50_000.0 },
        seed: shape.seed,
        max_active: shape.max_active,
        time_scale: 0.0,
        ..LoadgenConfig::default()
    };
    let scenario = small_scenario(5);
    loadgen::run(service_config, cfg, &scenario.instance)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: submitted = admitted + rejected + shed + expired,
    /// the ticket-side tally agrees with the service's own counters and
    /// nothing is lost — under arbitrary (including hostile) tunings.
    fn every_request_ends_in_exactly_one_verdict(
        shards in 1usize..7,
        requests in 1u64..150,
        queue_capacity in 1usize..64,
        batch_max in 1usize..33,
        window_us in 1u64..2_000,
        deadline_sel in 0u8..3,
        shed_watermark in 1usize..64,
        max_active in 1usize..33,
        seed in 0u64..1_000_000,
    ) {
        // Three deadline regimes: near-certain expiry, racy, generous.
        let deadline_us = match deadline_sel { 0 => 1, 1 => 500, _ => 5_000_000 };
        let report = run_randomized(Shape {
            shards, requests, queue_capacity, batch_max, window_us,
            deadline_us, shed_watermark, max_active, seed,
        });
        prop_assert_eq!(report.tally.errors(), 0);
        prop_assert_eq!(report.tally.outcomes(), requests);
        prop_assert!(report.is_conserved(), "conservation violated:\n{}", report);
    }

    /// Partition isolation: every shard's peak RB / compute / memory
    /// usage stays within its share of the edge budgets, and the
    /// partitions themselves add up to the whole.
    fn shard_usage_never_exceeds_its_budget_partition(
        shards in 1usize..7,
        requests in 1u64..150,
        batch_max in 1usize..33,
        max_active in 1usize..17,
        seed in 0u64..1_000_000,
    ) {
        let report = run_randomized(Shape {
            shards,
            requests,
            queue_capacity: 64,
            batch_max,
            window_us: 500,
            deadline_us: 5_000_000,
            shed_watermark: 48,
            max_active,
            seed,
        });
        let total = small_scenario(5).instance.budgets;
        let mut sum = Budgets { rbs: 0.0, compute_seconds: 0.0, training_seconds: 0.0, memory_bytes: 0.0 };
        for shard in &report.drain.shards {
            prop_assert!(
                shard.within_budgets(),
                "shard {} exceeded its partition: peaks ({:.3} RBs, {:.4} GPU-s/s, {:.0} B) vs ({:.3}, {:.4}, {:.0})",
                shard.shard, shard.peak_rbs, shard.peak_compute, shard.peak_memory,
                shard.budgets.rbs, shard.budgets.compute_seconds, shard.budgets.memory_bytes
            );
            sum.rbs += shard.budgets.rbs;
            sum.compute_seconds += shard.budgets.compute_seconds;
            sum.memory_bytes += shard.budgets.memory_bytes;
        }
        prop_assert!((sum.rbs - total.rbs).abs() < 1e-6 * total.rbs);
        prop_assert!((sum.compute_seconds - total.compute_seconds).abs() < 1e-6 * total.compute_seconds);
        prop_assert!((sum.memory_bytes - total.memory_bytes).abs() < 1e-6 * total.memory_bytes);
        prop_assert!(report.is_conserved(), "conservation violated:\n{}", report);
    }
}
