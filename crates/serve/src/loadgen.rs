//! Synthetic load for admission tiers: the deterministic Zipf
//! [`ShapePool`] of task shapes, and the tier-agnostic driver loop in
//! [`args`] that the `loadgen` binary, the cross-tier conservation
//! tests and the `serve_throughput` bench share.

pub mod args;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Deterministic pool of task shapes for the Zipf workload mode.
///
/// Shape `k` is minted once from `seed ^ k·φ` (golden-ratio spacing
/// keeps neighbouring ranks decorrelated) and stored materialized, so
/// every re-draw of rank `k` produces the *same* priority and rate —
/// which is exactly what makes two requests share a plan-cache
/// fingerprint. Ranks are drawn with Zipf weights `1/(k+1)^s` via a
/// binary search over the normalized CDF.
///
/// Public so every tier of the `loadgen` binary and the canonical
/// benchmark can offer the identical skewed stream.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceConfig;
    use crate::loadgen::args::{drive, ledger_violations, DriveConfig, VERDICT_TIMEOUT};
    use crate::service::Service;
    use offloadnn_core::scenario::small_scenario;
    use std::sync::atomic::AtomicU64;

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
    fn zipf_stream_with_plan_cache_conserves_and_hits() {
        use offloadnn_plancache::PlanCacheConfig;
        let s = small_scenario(5);
        let config = ServiceConfig {
            shards: 2,
            plan_cache: Some(PlanCacheConfig::default()),
            ..ServiceConfig::default()
        };
        let service = Service::start(config, &s.instance).expect("service start");
        let protos: Vec<_> =
            s.instance.tasks.iter().cloned().zip(s.instance.options.iter().cloned()).collect();
        let shapes = ShapePool::new(32, 1.2, protos.len(), 7);
        let cfg = DriveConfig {
            requests: 600,
            driver: 0,
            first_id: 0,
            seed: 7,
            window: 16,
            max_active: 16,
            deadline: None,
            verdict_timeout: VERDICT_TIMEOUT,
            snapshot_every: 0,
        };
        let report = drive(&service, &cfg, &protos, Some(&shapes), &AtomicU64::new(0));
        let drain = service.drain();
        assert_eq!(ledger_violations(600, &report.tally, &drain.metrics, false), Vec::<String>::new());
        let pc = drain.plan_cache.expect("cache enabled");
        assert!(pc.lookups() > 0, "{pc:?}");
        assert!(pc.hits + pc.negative_hits > 0, "a skewed stream must hit: {pc:?}");
    }
}
