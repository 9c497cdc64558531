//! The typed instrument registry: get-or-register counters, gauges and
//! per-phase histograms by name, snapshot everything at once.
//!
//! Registration takes a short-lived `RwLock`; the returned handles are
//! `Arc`s, so the hot path (incrementing, recording a span) never touches
//! the lock again. Names are `&'static str` by design: instruments are
//! declared at call sites, not built from runtime data, which keeps the
//! registry allocation-free after warm-up.

use crate::counter::{Counter, Gauge};
use crate::events::{Event, EventLog, Severity};
use crate::hist::{Histogram, HistogramSnapshot};
use crate::span::Span;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Default bound of a registry's event ring buffer.
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// A set of named instruments plus one bounded event log.
///
/// There is one process-wide registry behind [`crate::global`] (used by
/// the `span!` / `count!` macros), and runtimes that need isolated
/// accounting — e.g. one service fleet per test — create their own.
#[derive(Debug)]
pub struct Registry {
    started: Instant,
    counters: RwLock<BTreeMap<&'static str, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<&'static str, Arc<Gauge>>>,
    phases: RwLock<BTreeMap<&'static str, Arc<Histogram>>>,
    events: EventLog,
}

impl Registry {
    /// Creates an empty registry with the default event capacity.
    pub fn new() -> Self {
        Self::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// Creates an empty registry retaining at most `capacity` events.
    pub fn with_event_capacity(capacity: usize) -> Self {
        Self {
            started: Instant::now(),
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            phases: RwLock::new(BTreeMap::new()),
            events: EventLog::new(capacity),
        }
    }

    fn get_or_insert<T: Default>(map: &RwLock<BTreeMap<&'static str, Arc<T>>>, name: &'static str) -> Arc<T> {
        if let Some(found) = map.read().unwrap_or_else(|e| e.into_inner()).get(name) {
            return Arc::clone(found);
        }
        let mut map = map.write().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(name).or_default())
    }

    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        Self::get_or_insert(&self.counters, name)
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        Self::get_or_insert(&self.gauges, name)
    }

    /// The phase histogram named `name`, registering it on first use.
    pub fn phase(&self, name: &'static str) -> Arc<Histogram> {
        Self::get_or_insert(&self.phases, name)
    }

    /// Starts a span recording into phase `name` when it drops.
    ///
    /// Convenience for cold paths; hot paths should pre-register the
    /// histogram (or use the caching [`crate::span!`] macro) so each span
    /// costs two clock reads and one atomic record, with no map lookup.
    pub fn span(&self, name: &'static str) -> Span {
        if crate::enabled() {
            Span::on(&self.phase(name))
        } else {
            Span::noop()
        }
    }

    /// Appends a structured event (no-op while telemetry is off).
    pub fn event(&self, severity: Severity, target: &'static str, message: impl Into<String>) {
        if !crate::enabled() {
            return;
        }
        let at_us = self.started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.events.push(at_us, severity, target, message.into());
    }

    /// The event log (for direct inspection; exports go through
    /// [`Registry::snapshot`]).
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Copies every instrument and the retained events.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let counters = self.counters.read().unwrap_or_else(|e| e.into_inner());
        let gauges = self.gauges.read().unwrap_or_else(|e| e.into_inner());
        let phases = self.phases.read().unwrap_or_else(|e| e.into_inner());
        RegistrySnapshot {
            counters: counters.iter().map(|(n, c)| (*n, c.get())).collect(),
            gauges: gauges.iter().map(|(n, g)| (*n, g.get())).collect(),
            phases: phases.iter().map(|(n, h)| (*n, h.snapshot())).collect(),
            events: self.events.snapshot(),
            events_dropped: self.events.dropped(),
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// Point-in-time copy of a [`Registry`], ready for export (see the
/// crate's `export` module: JSON-lines via
/// [`RegistrySnapshot::to_jsonl`], human-readable table via `Display`).
#[derive(Debug, Clone)]
pub struct RegistrySnapshot {
    /// `(name, value)` for every registered counter, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` for every registered gauge, sorted by name.
    pub gauges: Vec<(&'static str, u64)>,
    /// `(name, histogram)` for every registered phase, sorted by name.
    pub phases: Vec<(&'static str, HistogramSnapshot)>,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
    /// Events overwritten by the ring buffer before this snapshot.
    pub events_dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn handles_are_shared_per_name() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("x").get(), 3);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::new();
        r.counter("b").inc();
        r.counter("a").add(2);
        r.gauge("depth").raise(5);
        r.phase("solve").record(Duration::from_micros(10));
        let s = r.snapshot();
        assert_eq!(s.counters, vec![("a", 2), ("b", 1)]);
        assert_eq!(s.gauges, vec![("depth", 5)]);
        assert_eq!(s.phases.len(), 1);
        assert_eq!(s.phases[0].1.count, 1);
    }

    #[test]
    fn span_records_into_its_phase() {
        let r = Registry::new();
        {
            let _span = r.span("phase");
        }
        // With telemetry compiled out the span records nothing — both
        // outcomes are correct for the respective configuration.
        let count = r.snapshot().phases.iter().find(|(n, _)| *n == "phase").map_or(0, |(_, h)| h.count);
        if crate::enabled() {
            assert_eq!(count, 1);
        } else {
            assert_eq!(count, 0);
        }
    }

    #[test]
    fn events_flow_into_the_snapshot() {
        let r = Registry::with_event_capacity(2);
        r.event(Severity::Info, "test", "one");
        r.event(Severity::Warn, "test", "two");
        r.event(Severity::Error, "test", "three");
        let s = r.snapshot();
        if crate::enabled() {
            assert_eq!(s.events.len(), 2, "ring bounded at 2");
            assert_eq!(s.events_dropped, 1);
            assert_eq!(s.events[1].message, "three");
        } else {
            assert!(s.events.is_empty());
        }
    }
}
