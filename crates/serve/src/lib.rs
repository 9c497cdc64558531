//! # offloadnn-serve — sharded admission-control service runtime
//!
//! The Fig. 4 controller ([`offloadnn_core::controller::Controller`]) is a
//! single-threaded library struct: one `submit()` call per admission
//! round. This crate turns it into a long-running, multithreaded service
//! that can absorb heavy concurrent request streams:
//!
//! * **Sharding** — the edge budgets are partitioned across N worker
//!   shards ([`router::partition_budgets`]), each owning its own
//!   `Controller`; requests are routed by consistent hashing of the task
//!   id ([`router::Router`]), so a task's departure reaches the shard
//!   that admitted it.
//! * **Batching** — each shard coalesces arrivals into solver rounds,
//!   triggered by size (`batch_max`) or time (`batch_window`), amortising
//!   the DOT solve over many requests.
//! * **Backpressure & shedding** — ingress queues are bounded; a full
//!   queue sheds immediately, and a backlog past the watermark is drained
//!   and resolved priority-first, shedding the low-priority tail. A
//!   request that waits past its admission deadline is answered
//!   [`Outcome::Expired`] — never silently dropped.
//! * **Metrics** — [`metrics::ServiceMetrics`] counts every verdict with
//!   atomic counters and fixed-bucket latency histograms, snapshotable
//!   from any thread; conservation (`submitted = admitted + rejected +
//!   shed + expired`) is checkable at any quiescent point.
//! * **Lifecycle** — departures feed `Controller::release` so long-running
//!   state does not leak capacity, and [`service::Service::drain`] stops
//!   ingress, flushes every queued request to a verdict and joins the
//!   workers.
//!
//! ```
//! use offloadnn_core::scenario::small_scenario;
//! use offloadnn_serve::config::ServiceConfig;
//! use offloadnn_serve::service::Service;
//!
//! let scenario = small_scenario(5);
//! let config = ServiceConfig { shards: 2, ..ServiceConfig::default() };
//! let service = Service::start(config, &scenario.instance).unwrap();
//! let task = scenario.instance.tasks[0].clone();
//! let options = scenario.instance.options[0].clone();
//! let ticket = service.submit(task, options).unwrap();
//! let outcome = ticket.wait().unwrap();
//! let report = service.drain();
//! assert!(report.metrics.is_conserved());
//! # let _ = outcome;
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admit;
pub mod config;
pub mod error;
pub mod loadgen;
pub mod metrics;
pub mod router;
pub mod service;
mod shard;

pub use admit::{Admitter, PendingVerdict, VerdictError, VerdictHandle};
pub use config::{ChaosConfig, ServiceConfig, ServiceConfigBuilder};
pub use error::{ServeError, SubmitError};
pub use loadgen::{LoadgenConfig, LoadgenReport, ShapePool};
pub use metrics::{HistogramSnapshot, MetricsSnapshot, ServiceMetrics, HISTOGRAM_BUCKETS};
pub use router::Router;
pub use service::{DrainReport, Outcome, ReshardReport, Service, Ticket};
pub use shard::ShardReport;
