//! Frontend selection: one enum over the threaded and reactor servers.
//!
//! The two frontends are semantically interchangeable (same protocol,
//! same backpressure, drain and reshard behaviour — see the parity notes
//! in [`crate::async_server`]); [`AnyServer`] lets tests, the load
//! generator and the benches run the identical workload against either
//! one, selected by a [`Frontend`] value parsed from e.g. a CLI flag.
//!
//! Both frontends (and therefore [`AnyServer`]) are generic over the
//! [`Backend`] they serve, defaulting to the in-process
//! [`offloadnn_serve::Service`]; [`AnyServer::start_with_backend`] puts
//! any other backend — e.g. an `offloadnn-gateway` cluster tier — behind
//! the same switch.

use crate::async_server::{AsyncServer, ReactorConfig};
use crate::backend::Backend;
use crate::error::NetError;
use crate::server::{NetConfig, NetServer};
use offloadnn_core::instance::DotInstance;
use offloadnn_serve::{DrainReport, Service, ServiceConfig};
use std::net::{SocketAddr, ToSocketAddrs};

/// Which TCP frontend serves the connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Frontend {
    /// Thread-per-connection ([`NetServer`]): reader + writer thread per
    /// client, the right default up to a few hundred connections.
    #[default]
    Threads,
    /// Readiness-driven ([`AsyncServer`]): a fixed epoll event-loop pool
    /// multiplexing every connection, for large client fleets.
    Reactor,
}

impl std::str::FromStr for Frontend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "threads" => Ok(Self::Threads),
            "reactor" => Ok(Self::Reactor),
            other => Err(format!("unknown frontend '{other}' (expected 'threads' or 'reactor')")),
        }
    }
}

impl std::fmt::Display for Frontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Threads => "threads",
            Self::Reactor => "reactor",
        })
    }
}

/// A running frontend of either flavour, with the shared server surface.
pub enum AnyServer<B: Backend = Service> {
    /// A thread-per-connection server.
    Threads(NetServer<B>),
    /// A reactor (epoll) server.
    Reactor(AsyncServer<B>),
}

impl<B: Backend> std::fmt::Debug for AnyServer<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Threads(s) => f.debug_tuple("Threads").field(s).finish(),
            Self::Reactor(s) => f.debug_tuple("Reactor").field(s).finish(),
        }
    }
}

impl AnyServer<Service> {
    /// Starts the selected frontend (the reactor one with
    /// [`ReactorConfig::default`]; use [`AnyServer::start_reactor`] to
    /// tune it).
    ///
    /// # Errors
    ///
    /// Whatever the underlying `start` reports.
    pub fn start(
        frontend: Frontend,
        addr: impl ToSocketAddrs,
        net: NetConfig,
        service_config: ServiceConfig,
        template: &DotInstance,
    ) -> Result<Self, NetError> {
        match frontend {
            Frontend::Threads => NetServer::start(addr, net, service_config, template).map(Self::Threads),
            Frontend::Reactor => {
                AsyncServer::start(addr, net, ReactorConfig::default(), service_config, template)
                    .map(Self::Reactor)
            }
        }
    }

    /// Starts a reactor frontend with explicit reactor tuning.
    ///
    /// # Errors
    ///
    /// Whatever [`AsyncServer::start`] reports.
    pub fn start_reactor(
        addr: impl ToSocketAddrs,
        net: NetConfig,
        reactor: ReactorConfig,
        service_config: ServiceConfig,
        template: &DotInstance,
    ) -> Result<Self, NetError> {
        AsyncServer::start(addr, net, reactor, service_config, template).map(Self::Reactor)
    }
}

impl<B: Backend> AnyServer<B> {
    /// Starts the selected frontend over an already-running backend (the
    /// reactor one with [`ReactorConfig::default`]).
    ///
    /// # Errors
    ///
    /// Whatever the underlying `start_with_backend` reports.
    pub fn start_with_backend(
        frontend: Frontend,
        addr: impl ToSocketAddrs,
        net: NetConfig,
        backend: B,
    ) -> Result<Self, NetError> {
        match frontend {
            Frontend::Threads => NetServer::start_with_backend(addr, net, backend).map(Self::Threads),
            Frontend::Reactor => {
                AsyncServer::start_with_backend(addr, net, ReactorConfig::default(), backend)
                    .map(Self::Reactor)
            }
        }
    }

    /// Which frontend this is.
    pub fn frontend(&self) -> Frontend {
        match self {
            Self::Threads(_) => Frontend::Threads,
            Self::Reactor(_) => Frontend::Reactor,
        }
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        match self {
            Self::Threads(s) => s.local_addr(),
            Self::Reactor(s) => s.local_addr(),
        }
    }

    /// Point-in-time metrics of the underlying backend (`None` when it
    /// cannot produce them right now).
    pub fn metrics(&self) -> Option<offloadnn_serve::MetricsSnapshot> {
        match self {
            Self::Threads(s) => s.metrics(),
            Self::Reactor(s) => s.metrics(),
        }
    }

    /// Whether a drain has begun.
    pub fn is_draining(&self) -> bool {
        match self {
            Self::Threads(s) => s.is_draining(),
            Self::Reactor(s) => s.is_draining(),
        }
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        match self {
            Self::Threads(s) => s.active_connections(),
            Self::Reactor(s) => s.active_connections(),
        }
    }

    /// Reshapes the underlying backend at runtime.
    ///
    /// # Errors
    ///
    /// Propagates [`Backend::scale_to`] errors.
    pub fn scale_to(
        &self,
        shards: usize,
    ) -> Result<offloadnn_serve::ReshardReport, offloadnn_serve::ServeError> {
        match self {
            Self::Threads(s) => s.scale_to(shards),
            Self::Reactor(s) => s.scale_to(shards),
        }
    }

    /// Registers this node with a gateway's membership engine and arms
    /// a graceful leave for drain/shutdown. See
    /// [`NetServer::announce_to`].
    ///
    /// # Errors
    ///
    /// Transport errors when the gateway cannot be reached or does not
    /// answer; the announce can simply be retried.
    pub fn announce_to(
        &self,
        gateway: SocketAddr,
    ) -> Result<crate::codec::MembershipResponse, crate::NetError> {
        match self {
            Self::Threads(s) => s.announce_to(gateway),
            Self::Reactor(s) => s.announce_to(gateway),
        }
    }

    /// [`AnyServer::announce_to`] with an explicit incarnation stamp.
    ///
    /// # Errors
    ///
    /// As [`AnyServer::announce_to`].
    pub fn announce_to_as(
        &self,
        gateway: SocketAddr,
        incarnation: u64,
    ) -> Result<crate::codec::MembershipResponse, crate::NetError> {
        match self {
            Self::Threads(s) => s.announce_to_as(gateway, incarnation),
            Self::Reactor(s) => s.announce_to_as(gateway, incarnation),
        }
    }

    /// Gracefully stops the frontend and drains the backend.
    pub fn shutdown(self) -> DrainReport {
        match self {
            Self::Threads(s) => s.shutdown(),
            Self::Reactor(s) => s.shutdown(),
        }
    }
}
