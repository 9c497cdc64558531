//! # offloadnn-gateway — the multi-node offloading tier
//!
//! One `offloadnn-serve` node admits tasks against *its own* capacity.
//! This crate scales the admission service out: a [`Gateway`] owns a
//! pool of backend serve nodes (each an `offloadnn-net` endpoint
//! speaking the v3 wire protocol) and presents the whole cluster as a
//! single admission backend. Its only submit path is the unified
//! [`offloadnn_serve::Admitter`] trait, and it serves over the network
//! too: [`Gateway`] implements the [`offloadnn_net::Backend`] control
//! plane on top of `Admitter` and therefore slots behind either TCP
//! frontend via [`offloadnn_net::AnyServer::start_with_backend`].
//!
//! Five mechanisms, one per module:
//!
//! * **Routing** ([`router`]) — weighted rendezvous hashing. Each
//!   submit's task id is scored against every healthy node
//!   (`-weight / ln(u)`, the logarithmic method); the weight is the
//!   node's reported admission headroom from its latest health
//!   snapshot. Ejecting a node remaps only the keys it was winning.
//! * **Health** (the internal `health` module) — a monitor thread probes
//!   every node each `health_interval` with a Metrics frame
//!   ([`offloadnn_net::Client::snapshot_timeout`]). `eject_after`
//!   consecutive misses ejects a node; after `probation` a successful
//!   probe readmits it.
//! * **Failover** — a node that drops its connection (or starts
//!   draining) mid-request is ejected immediately and the in-flight
//!   ticket is retried on a survivor with the *remaining* deadline
//!   budget, up to `retry_limit` attempts; a ticket that runs out of
//!   nodes, retries or time resolves Shed / Expired so the gateway's
//!   conservation ledger ([`Gateway::metrics`]) stays balanced.
//! * **Hedging** — optionally ([`HedgeConfig`]), a ticket whose primary
//!   node's observed p99 RTT projects past the ticket deadline is
//!   duplicated to the next-ranked node; the first verdict wins and the
//!   loser is reaped (departed iff it was admitted), so no verdict is
//!   double-counted and no backend capacity leaks.
//! * **Discovery** ([`membership`]) — the pool is dynamic. A node
//!   announces itself (protocol v3 `Announce` frame, or
//!   [`Gateway::announce`] in-process) under a per-process incarnation
//!   stamp and joins in `Probing`: visible in membership views, probed
//!   by the monitor, but unroutable until a probe succeeds
//!   (join-through-probation). A graceful [`Gateway::leave`] departs the
//!   node — its in-flight tickets fail over with their remaining
//!   deadline budget exactly as an ejection's do — and the incarnation
//!   ordering guarantees a delayed replay of its old announce never
//!   resurrects it.
//!
//! Telemetry: `gw.nodes.healthy` / `gw.membership.size` gauges,
//! `gw.joins` / `gw.leaves` / `gw.failover` / `gw.hedges` /
//! `gw.hedge_wins` counters and the `gw.route` span histogram, all
//! compiled out with the `offloadnn-telemetry/disabled` feature.
//!
//! ```no_run
//! use offloadnn_core::scenario::small_scenario;
//! use offloadnn_gateway::{Gateway, GatewayConfig};
//! use offloadnn_net::{NetConfig, NetServer};
//! use offloadnn_serve::{Admitter, ServiceConfig};
//!
//! let scenario = small_scenario(5);
//! // Three single-node backends...
//! let nodes: Vec<_> = (0..3)
//!     .map(|_| {
//!         NetServer::start(
//!             ("127.0.0.1", 0),
//!             NetConfig::default(),
//!             ServiceConfig::default(),
//!             &scenario.instance,
//!         )
//!         .unwrap()
//!     })
//!     .collect();
//! let addrs: Vec<_> = nodes.iter().map(|n| n.local_addr()).collect();
//! // ...one cluster.
//! let gateway = Gateway::start(&addrs, GatewayConfig::default()).unwrap();
//! let pending = gateway
//!     .submit(scenario.instance.tasks[0].clone(), scenario.instance.options[0].clone(), None)
//!     .unwrap();
//! println!("cluster verdict: {:?}", pending.wait());
//! let report = gateway.drain();
//! assert!(report.metrics.is_conserved());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
mod gateway;
mod health;
mod instruments;
pub mod membership;
mod node;
mod peer;
pub mod router;

pub use config::{FederationConfig, GatewayConfig, GatewayError, HedgeConfig};
pub use gateway::{ForwardStats, Gateway};
pub use membership::{AnnounceOutcome, LeaveOutcome, Membership};
