//! The service facade: starts the shard fleet, routes submissions and
//! departures, reshapes the fleet at runtime ([`Service::scale_to`]),
//! exposes metrics and performs graceful drain.

use crate::config::{ChaosConfig, ServiceConfig};
use crate::error::{ServeError, SubmitError};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::router::{partition_budgets, Router};
use crate::shard::{ShardExit, ShardReport, ShardWorker};
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use offloadnn_core::controller::{ActiveTask, Controller};
use offloadnn_core::heuristic::OffloadnnSolver;
use offloadnn_core::instance::{Budgets, DotInstance, PathOption};
use offloadnn_core::task::{Task, TaskId};
use offloadnn_plancache::{CachedPlan, PlanCache, PlanCacheStats};
use offloadnn_telemetry::{event, span, Severity};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The verdict a request ends with. Every submitted request receives
/// exactly one of these; the service never drops a request silently.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Outcome {
    /// A slice was granted.
    Admitted {
        /// Granted admission ratio in `(0, 1]`.
        admission: f64,
        /// Granted radio resource blocks (real-valued).
        rbs: f64,
        /// Shard that admitted the task (its departure must go back
        /// there; [`Service::depart`] routes this automatically).
        shard: usize,
    },
    /// The solver declined the request (infeasible or not worth the
    /// residual capacity).
    Rejected {
        /// Shard that decided.
        shard: usize,
    },
    /// Dropped by backpressure (full ingress queue) or priority-ordered
    /// overload shedding before reaching the solver.
    Shed {
        /// Shard whose queue shed the request.
        shard: usize,
    },
    /// Waited past its admission deadline before a solver round reached
    /// it.
    Expired {
        /// Shard on which the request expired.
        shard: usize,
    },
}

impl Outcome {
    /// Whether the request was admitted.
    pub fn is_admitted(&self) -> bool {
        matches!(self, Outcome::Admitted { .. })
    }
}

/// One queued admission request (internal representation).
pub(crate) struct ServiceRequest {
    pub task: Task,
    pub options: Vec<PathOption>,
    pub enqueued_at: Instant,
    pub deadline: Instant,
    pub responder: Sender<Outcome>,
}

/// A reshard order delivered to a surviving shard: adopt the new budget
/// partition, extract every active task the new ring maps elsewhere and
/// hand the extracted tasks back on `reply`.
pub(crate) struct ReshardCmd {
    pub router: Arc<Router>,
    pub budgets: Budgets,
    pub reply: Sender<Vec<ActiveTask>>,
}

/// Messages on a shard's ingress queue.
pub(crate) enum ShardMsg {
    /// An admission request.
    Request(ServiceRequest),
    /// A departure notice: release the task's capacity.
    Depart(TaskId),
    /// A reshard order (see [`ReshardCmd`]).
    Reshard(ReshardCmd),
    /// In-flight tasks migrating in from another shard's keyspace.
    Adopt(Vec<ActiveTask>),
}

/// Handle to one submitted request; redeem it for the verdict.
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<Outcome>,
    /// Id of the submitted task.
    pub task: TaskId,
    /// Shard the request was routed to.
    pub shard: usize,
}

impl Ticket {
    /// Blocks until the verdict arrives. `None` only if the worker died
    /// without resolving — which cannot happen outside chaos injection
    /// ([`crate::config::ChaosConfig`]): workers resolve everything,
    /// even while draining.
    pub fn wait(&self) -> Option<Outcome> {
        self.rx.recv().ok()
    }

    /// Returns the verdict if already available.
    pub fn try_wait(&self) -> Option<Outcome> {
        self.rx.try_recv().ok()
    }

    /// Blocks for at most `timeout` for the verdict.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Outcome> {
        self.rx.recv_timeout(timeout).ok()
    }
}

/// Final report of [`Service::drain`].
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Metrics at drain completion (quiescent, so conservation holds —
    /// unless chaos injection killed a shard, see
    /// [`DrainReport::lost_shards`]).
    pub metrics: MetricsSnapshot,
    /// Per-shard final state of the fleet that was live at drain time.
    pub shards: Vec<ShardReport>,
    /// Final reports of shards retired by earlier [`Service::scale_to`]
    /// calls (their peaks/rounds are not represented in `shards`).
    pub retired: Vec<ShardReport>,
    /// Shards whose worker thread panicked (chaos injection) and
    /// therefore produced no report. Zero in any healthy run.
    pub lost_shards: usize,
    /// Final plan-cache statistics, when the service ran with
    /// [`crate::config::ServiceConfig::plan_cache`] enabled.
    pub plan_cache: Option<PlanCacheStats>,
}

impl DrainReport {
    /// Whether every shard's peak usage stayed within its budget
    /// partition. Note that a reshard hands migrated tasks to shards
    /// that admitted none of them, so a fleet that resharded under load
    /// may transiently exceed a partition; this check is meaningful for
    /// fixed-topology runs.
    pub fn within_budgets(&self) -> bool {
        self.shards.iter().chain(self.retired.iter()).all(ShardReport::within_budgets)
    }
}

/// Result of one [`Service::scale_to`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReshardReport {
    /// Shard count before the reshard.
    pub from_shards: usize,
    /// Shard count after the reshard.
    pub to_shards: usize,
    /// In-flight (admitted, not yet departed) tasks that moved to a new
    /// owner shard.
    pub migrated: u64,
    /// Ring generation after the reshard (starts at 0, +1 per reshard).
    pub generation: u64,
}

/// The routing state swapped atomically by a reshard: the ring and the
/// per-shard ingress senders it indexes into always change together.
#[derive(Debug)]
struct RoutingState {
    router: Arc<Router>,
    senders: Vec<Sender<ShardMsg>>,
}

/// A running sharded admission-control service over the OffloaDNN
/// controller. See the [crate docs](crate) for the architecture.
///
/// `Service` is `Sync`: `submit` / `depart` / `metrics` / `scale_to`
/// may be called from any number of threads concurrently.
#[derive(Debug)]
pub struct Service {
    /// Ring + senders behind one lock so a submit routes and enqueues
    /// against a single consistent generation (see `scale_to` for the
    /// ordering argument).
    routing: RwLock<RoutingState>,
    /// Worker join handles; index == shard. Grow pushes, shrink
    /// truncates, self-heal replaces in place.
    handles: Mutex<Vec<JoinHandle<ShardExit>>>,
    /// Final reports of shards retired by scale-downs.
    retired: Mutex<Vec<ShardReport>>,
    /// Serialises reshards (and fences drain against them).
    reshard_lock: Mutex<()>,
    metrics: Arc<ServiceMetrics>,
    config: ServiceConfig,
    /// Cleared instance template (cost tables, rate model, `alpha`) used
    /// to build controllers for shards spawned after start.
    template: DotInstance,
    /// The undivided edge budgets; every reshard repartitions from this
    /// original total so capacity cannot drift across generations.
    total_budgets: Budgets,
    /// Service-wide plan cache shared by every shard worker (`None` when
    /// disabled). Lives on the service so reshards, repartitions and
    /// heals can invalidate it.
    plan_cache: Option<Arc<PlanCache<CachedPlan>>>,
    draining: AtomicBool,
    /// Hooks fired exactly once, when the drain fence first goes up
    /// (whether via [`Service::begin_drain`], [`Service::drain`] or
    /// drop). A network frontend registers its gateway leave-notice
    /// here so the cluster learns of the departure before the fleet
    /// tears down.
    drain_hooks: DrainHooks,
}

/// The pending drain hooks. A newtype only so the closures stay out of
/// the service's `Debug` output.
#[derive(Default)]
struct DrainHooks(Mutex<Vec<Box<dyn FnOnce() + Send>>>);

impl std::fmt::Debug for DrainHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.0.lock().map(|h| h.len()).unwrap_or(0);
        write!(f, "DrainHooks({n} pending)")
    }
}

impl Service {
    /// Starts the shard fleet. `template` supplies the edge state every
    /// shard controller needs — budgets (partitioned across shards), the
    /// rate model, `alpha` and the per-block cost tables; its task list
    /// is ignored.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for an invalid
    /// configuration.
    pub fn start(config: ServiceConfig, template: &DotInstance) -> Result<Self, ServeError> {
        config.validate()?;
        let router = Arc::new(Router::new(config.shards, config.virtual_nodes));
        let metrics = Arc::new(ServiceMetrics::new());
        let plan_cache =
            config.plan_cache.map(|pc| Arc::new(PlanCache::with_registry(pc, metrics.registry())));
        let partitions = partition_budgets(template.budgets, config.shards);

        // Shard controllers share the block cost tables and rate model but
        // own disjoint budget partitions; the template's request content
        // is irrelevant.
        let mut shard_template = template.clone();
        shard_template.tasks.clear();
        shard_template.options.clear();

        let mut senders = Vec::with_capacity(config.shards);
        let mut handles = Vec::with_capacity(config.shards);
        for (shard, budgets) in partitions.into_iter().enumerate() {
            let (tx, rx) = channel::bounded(config.queue_capacity);
            handles.push(spawn_worker(shard, budgets, rx, &shard_template, config, &metrics, &plan_cache));
            senders.push(tx);
        }
        event!(
            Severity::Info,
            "serve.service",
            "fleet started: {} shard(s), queue capacity {}, batch {}x{:?}",
            config.shards,
            config.queue_capacity,
            config.batch_max,
            config.batch_window
        );
        Ok(Self {
            routing: RwLock::new(RoutingState { router, senders }),
            handles: Mutex::new(handles),
            retired: Mutex::new(Vec::new()),
            reshard_lock: Mutex::new(()),
            metrics,
            config,
            template: shard_template,
            total_budgets: template.budgets,
            plan_cache,
            draining: AtomicBool::new(false),
            drain_hooks: DrainHooks::default(),
        })
    }

    /// The configuration the service was started with. `shards` reflects
    /// the *initial* fleet size; [`Service::shards`] gives the current
    /// one.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The current router (e.g. to predict a task's shard). A reshard
    /// replaces the router, so the returned ring describes the
    /// generation live at call time.
    pub fn router(&self) -> Arc<Router> {
        Arc::clone(&self.routing.read().expect("routing lock").router)
    }

    /// Current number of worker shards.
    pub fn shards(&self) -> usize {
        self.routing.read().expect("routing lock").senders.len()
    }

    /// Current ring generation (0 at start, +1 per completed reshard).
    pub fn generation(&self) -> u64 {
        self.metrics.generation.get()
    }

    /// Submits an admission request, returning a [`Ticket`] for the
    /// verdict. Never blocks: if the target shard's queue is full the
    /// request is shed immediately and the ticket resolves to
    /// [`Outcome::Shed`]. The request gets the configured
    /// [`ServiceConfig::admission_deadline`]; a caller passes a tighter
    /// budget through [`crate::admit::Admitter::submit`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::Draining`] after [`Service::drain`] has begun (the
    /// request is not counted), [`SubmitError::NoOptions`] for a request
    /// with no candidate paths (nothing to solve over).
    pub fn submit(&self, task: Task, options: Vec<PathOption>) -> Result<Ticket, SubmitError> {
        self.submit_within(task, options, self.config.admission_deadline)
    }

    /// The one submit path. The effective admission deadline is the
    /// *tighter* of `budget` and [`ServiceConfig::admission_deadline`]: a
    /// caller can shrink its admission window but never extend it past
    /// the service policy. Callers pass a budget through
    /// [`crate::admit::Admitter::submit`].
    pub(crate) fn submit_within(
        &self,
        task: Task,
        options: Vec<PathOption>,
        budget: Duration,
    ) -> Result<Ticket, SubmitError> {
        let _ingress = span!("serve.ingress");
        if self.draining.load(Ordering::Acquire) {
            return Err(SubmitError::Draining);
        }
        if options.is_empty() {
            return Err(SubmitError::NoOptions);
        }
        // Route and enqueue under one read guard: a concurrent reshard
        // swaps the router and senders only after this enqueue, so the
        // message FIFO-precedes the shard's `Reshard` order and resolves
        // before (or during) the handoff — never against a stale ring.
        let routing = self.routing.read().expect("routing lock");
        let shard = routing.router.route(task.id);
        let id = task.id;
        self.metrics.submitted.inc();
        let (responder, rx) = channel::bounded(1);
        let now = Instant::now();
        let request = ServiceRequest {
            task,
            options,
            enqueued_at: now,
            deadline: now + budget.min(self.config.admission_deadline),
            responder,
        };
        match routing.senders[shard].try_send(ShardMsg::Request(request)) {
            Ok(()) => {}
            Err(TrySendError::Full(msg)) | Err(TrySendError::Disconnected(msg)) => {
                // Backpressure (or a dead/draining shard racing this
                // submit): resolve as shed right here so conservation
                // holds.
                if let ShardMsg::Request(req) = msg {
                    self.metrics.shed.inc();
                    self.metrics.latency.record(Duration::ZERO);
                    let _ = req.responder.try_send(Outcome::Shed { shard });
                }
            }
        }
        Ok(Ticket { rx, task: id, shard })
    }

    /// Notifies the service that an admitted task has departed; its
    /// shard releases the capacity. Routed by the same consistent hash as
    /// the submission — on the *current* ring, so after a reshard the
    /// notice reaches the task's new owner (which buffers it if the
    /// migration is still in flight). Blocks only while that shard's
    /// queue is full (departures are never shed — dropping one would leak
    /// capacity).
    pub fn depart(&self, task: TaskId) {
        let routing = self.routing.read().expect("routing lock");
        let shard = routing.router.route(task);
        let _ = routing.senders[shard].send(ShardMsg::Depart(task));
    }

    /// Reshapes the fleet to `new_shards` worker shards at runtime,
    /// without stopping ingress and without losing a verdict or a unit
    /// of capacity:
    ///
    /// 1. the next ring generation and budget partitions are built;
    /// 2. new shards (on a grow) are spawned idle;
    /// 3. the routing state — ring *and* senders — is swapped under the
    ///    write lock, so every message enqueued before the swap
    ///    FIFO-precedes the reshard order on its shard's queue;
    /// 4. surviving shards adopt their new budget partition and hand
    ///    over every in-flight task the new ring maps elsewhere; retired
    ///    shards drain their pre-swap backlog to verdicts and exit;
    /// 5. migrated tasks are delivered to their new owners, which also
    ///    reconcile departures that arrived ahead of the migration.
    ///
    /// A shard found dead (chaos injection) is respawned with a fresh
    /// controller instead of failing the reshard.
    ///
    /// Concurrent `scale_to` calls serialise; `submit`/`depart` never
    /// block on a reshard beyond the routing-swap window.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] if `new_shards` is zero,
    /// [`ServeError::Draining`] once a drain has begun.
    pub fn scale_to(&self, new_shards: usize) -> Result<ReshardReport, ServeError> {
        if new_shards == 0 {
            return Err(ServeError::InvalidConfig("shards must be >= 1"));
        }
        let _reshard_guard = self.reshard_lock.lock().expect("reshard lock");
        if self.draining.load(Ordering::Acquire) {
            return Err(ServeError::Draining);
        }
        let old_shards = self.shards();
        if new_shards == old_shards {
            return Ok(ReshardReport {
                from_shards: old_shards,
                to_shards: new_shards,
                migrated: 0,
                generation: self.metrics.generation.get(),
            });
        }
        let reshard_span = span!("serve.reshard");
        let new_router = Arc::new(Router::new(new_shards, self.config.virtual_nodes));
        let partitions = partition_budgets(self.total_budgets, new_shards);
        let mut handles = self.handles.lock().expect("handles lock");

        // Spawn the newcomers idle: they must exist before the swap so a
        // post-swap submit routed to them finds a live queue.
        let mut new_senders = Vec::new();
        for (shard, &budgets) in partitions.iter().enumerate().skip(old_shards) {
            let (tx, rx) = channel::bounded(self.config.queue_capacity);
            handles.push(spawn_worker(
                shard,
                budgets,
                rx,
                &self.template,
                self.config,
                &self.metrics,
                &self.plan_cache,
            ));
            new_senders.push(tx);
        }

        // Atomic handover: after this block every submit/depart routes on
        // the new ring into the new sender set. Retired senders drop here,
        // so each retiree sees its pre-swap backlog, then disconnect.
        {
            let mut routing = self.routing.write().expect("routing lock");
            routing.router = Arc::clone(&new_router);
            if new_shards > old_shards {
                routing.senders.extend(new_senders);
            } else {
                routing.senders.truncate(new_shards);
            }
        }
        let retiring_handles: Vec<JoinHandle<ShardExit>> =
            if new_shards < old_shards { handles.split_off(new_shards) } else { Vec::new() };

        // Order every survivor to repartition and evacuate remapped keys.
        let survivors = old_shards.min(new_shards);
        let mut moved: Vec<ActiveTask> = Vec::new();
        let mut replies: Vec<(usize, Receiver<Vec<ActiveTask>>)> = Vec::with_capacity(survivors);
        for (shard, &budgets) in partitions.iter().enumerate().take(survivors) {
            let (reply, reply_rx) = channel::bounded(1);
            let cmd = ReshardCmd { router: Arc::clone(&new_router), budgets, reply };
            let sender = self.routing.read().expect("routing lock").senders[shard].clone();
            if sender.send(ShardMsg::Reshard(cmd)).is_err() {
                // Disconnected queue: the worker is dead (chaos). Respawn
                // it with a fresh controller; its in-flight tasks are
                // gone with the panic.
                self.heal_shard(shard, budgets, &mut handles, &mut moved);
            } else {
                replies.push((shard, reply_rx));
            }
        }

        // Collect the evacuated tasks. A worker dying between the order
        // and its reply is also healed here.
        for (shard, reply_rx) in replies {
            match reply_rx.recv() {
                Ok(tasks) => moved.extend(tasks),
                Err(_) => self.heal_shard(shard, partitions[shard], &mut handles, &mut moved),
            }
        }

        // Retired shards drain to exit; their still-active tasks join the
        // migration set.
        let mut retired = self.retired.lock().expect("retired lock");
        let mut lost = 0usize;
        for handle in retiring_handles {
            match handle.join() {
                Ok(exit) => {
                    retired.push(exit.report);
                    moved.extend(exit.active);
                }
                Err(_) => lost += 1,
            }
        }
        drop(retired);
        if lost > 0 {
            event!(
                Severity::Warn,
                "serve.service",
                "reshard: {lost} retiring shard(s) had panicked; their in-flight tasks are lost"
            );
        }

        // Deliver each migrated task to its new owner. The Adopt is
        // enqueued on the same channel later departures use, so FIFO
        // guarantees the owner holds the task before a post-reshard
        // departure reaches it (and pre-Adopt departures are buffered by
        // the owner's orphan set).
        let migrated = moved.len() as u64;
        let mut by_owner: Vec<Vec<ActiveTask>> = (0..new_shards).map(|_| Vec::new()).collect();
        for task in moved {
            by_owner[new_router.route(task.task.id)].push(task);
        }
        {
            let routing = self.routing.read().expect("routing lock");
            for (shard, tasks) in by_owner.into_iter().enumerate() {
                if !tasks.is_empty() {
                    let _ = routing.senders[shard].send(ShardMsg::Adopt(tasks));
                }
            }
        }
        drop(handles);

        let generation = self.metrics.generation.get() + 1;
        self.metrics.generation.set(generation);
        self.metrics.reshards.inc();
        self.metrics.migrated.add(migrated);
        // Plans minted under the old ring and budget partition are stale:
        // the generation in the key already fences new lookups, and the
        // epoch bump drops the resident entries themselves.
        if let Some(cache) = &self.plan_cache {
            cache.bump_epoch();
        }
        reshard_span.finish();
        event!(
            Severity::Info,
            "serve.service",
            "resharded {old_shards} -> {new_shards} shard(s): {migrated} task(s) migrated, generation {generation}"
        );
        Ok(ReshardReport { from_shards: old_shards, to_shards: new_shards, migrated, generation })
    }

    /// Replaces a dead shard with a fresh worker (fresh controller, same
    /// budget partition). If the old worker somehow exited cleanly its
    /// report is kept and its tasks are salvaged into `moved`.
    fn heal_shard(
        &self,
        shard: usize,
        budgets: Budgets,
        handles: &mut [JoinHandle<ShardExit>],
        moved: &mut Vec<ActiveTask>,
    ) {
        event!(Severity::Warn, "serve.service", "shard {shard} is dead; respawning with a fresh controller");
        let (tx, rx) = channel::bounded(self.config.queue_capacity);
        // The replacement runs with chaos injection cleared: the fault
        // already fired, and a heal that re-arms the same trigger (the
        // fresh worker restarts its round counter) would never converge.
        let mut config = self.config;
        config.chaos = ChaosConfig::default();
        let fresh = spawn_worker(shard, budgets, rx, &self.template, config, &self.metrics, &self.plan_cache);
        let old = std::mem::replace(&mut handles[shard], fresh);
        self.routing.write().expect("routing lock").senders[shard] = tx;
        // The panic took the dead worker's ledger with it; plans minted
        // against that ledger must not seed the fresh controller. A heal
        // does not change the ring generation, so this needs the epoch.
        if let Some(cache) = &self.plan_cache {
            cache.bump_epoch();
        }
        match old.join() {
            Ok(exit) => {
                self.retired.lock().expect("retired lock").push(exit.report);
                moved.extend(exit.active);
            }
            Err(_) => {
                event!(
                    Severity::Warn,
                    "serve.service",
                    "shard {shard} worker had panicked; its in-flight tasks are lost"
                );
            }
        }
    }

    /// Point-in-time metrics; callable from any thread while the service
    /// runs.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Point-in-time plan-cache statistics, or `None` when the service
    /// runs without a plan cache.
    pub fn plan_cache_stats(&self) -> Option<PlanCacheStats> {
        self.plan_cache.as_ref().map(|c| c.stats())
    }

    /// The per-service telemetry registry holding this fleet's counters,
    /// gauges and histograms — snapshot it for the shared JSONL/table
    /// exporters ([`offloadnn_telemetry::RegistrySnapshot`]).
    pub fn telemetry(&self) -> &offloadnn_telemetry::Registry {
        self.metrics.registry()
    }

    /// Stops the ingress without tearing the fleet down: every subsequent
    /// [`Service::submit`] fails with [`SubmitError::Draining`] while
    /// already-queued requests keep resolving to verdicts. This is the
    /// hook a frontend (e.g. a network server) uses to fence off new work,
    /// flush in-flight responses to its own callers, and only then call
    /// [`Service::drain`] for the final join + report. It also fences
    /// resharding: a [`Service::scale_to`] issued afterwards fails with
    /// [`ServeError::Draining`].
    pub fn begin_drain(&self) {
        self.fence();
    }

    /// Raises the drain fence and, on the first raising only, runs every
    /// registered drain hook. `swap` (not `store`) makes the first-time
    /// decision atomic, so concurrent fencers fire the hooks once.
    fn fence(&self) {
        if !self.draining.swap(true, Ordering::AcqRel) {
            let hooks = std::mem::take(&mut *self.drain_hooks.0.lock().expect("drain hooks lock"));
            for hook in hooks {
                hook();
            }
        }
    }

    /// Registers a hook to run when the drain fence first goes up (any
    /// of [`Service::begin_drain`], [`Service::drain`] or drop). If the
    /// drain has already begun the hook runs immediately, on the caller.
    pub fn on_drain(&self, hook: Box<dyn FnOnce() + Send>) {
        if self.is_draining() {
            hook();
            return;
        }
        self.drain_hooks.0.lock().expect("drain hooks lock").push(hook);
        // The fence may have gone up between the check and the push; the
        // fencer may already have swept the hooks, so re-check and sweep
        // again rather than strand the hook unrun.
        if self.is_draining() {
            let hooks = std::mem::take(&mut *self.drain_hooks.0.lock().expect("drain hooks lock"));
            for hook in hooks {
                hook();
            }
        }
    }

    /// Whether [`Service::begin_drain`] (or [`Service::drain`]) has been
    /// called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Gracefully drains: stops accepting new requests, waits out any
    /// in-flight reshard, lets every queued request reach a verdict
    /// (admission, rejection or expiry), joins the workers and returns
    /// the final report. Conservation (`submitted = admitted + rejected +
    /// shed + expired`) holds on the returned metrics unless chaos
    /// injection killed a worker mid-flight
    /// ([`DrainReport::lost_shards`]).
    pub fn drain(self) -> DrainReport {
        self.fence();
        // Serialise against scale_to: once the lock is held, the handle
        // set is stable and any later scale_to fails with Draining.
        let reshard_guard = self.reshard_lock.lock().expect("reshard lock");
        // Dropping the senders disconnects the queues; each worker keeps
        // resolving until its queue is empty, then exits.
        self.routing.write().expect("routing lock").senders.clear();
        let handles = std::mem::take(&mut *self.handles.lock().expect("handles lock"));
        let mut shards: Vec<ShardReport> = Vec::with_capacity(handles.len());
        let mut lost_shards = 0usize;
        for handle in handles {
            // One "serve.drain" sample per shard: drain start to that
            // worker's exit (joins overlap, so samples are cumulative).
            let drain_span = span!("serve.drain");
            match handle.join() {
                Ok(exit) => shards.push(exit.report),
                Err(_) => lost_shards += 1,
            }
            drain_span.finish();
        }
        drop(reshard_guard);
        if lost_shards > 0 {
            event!(
                Severity::Warn,
                "serve.service",
                "drain: {lost_shards} worker(s) had panicked and produced no report"
            );
        }
        shards.sort_by_key(|r| r.shard);
        let retired = std::mem::take(&mut *self.retired.lock().expect("retired lock"));
        let metrics = self.metrics.snapshot();
        event!(
            Severity::Info,
            "serve.service",
            "drained: {} submitted, {} admitted, {} rejected, {} shed, {} expired",
            metrics.submitted,
            metrics.admitted,
            metrics.rejected,
            metrics.shed,
            metrics.expired
        );
        let plan_cache = self.plan_cache.as_ref().map(|c| c.stats());
        DrainReport { metrics, shards, retired, lost_shards, plan_cache }
    }
}

impl Drop for Service {
    /// Dropping without [`Service::drain`] still shuts the fleet down
    /// cleanly: the senders disconnect and each worker exits after
    /// resolving its backlog. The workers are detached, not joined.
    fn drop(&mut self) {
        self.fence();
        if let Ok(mut routing) = self.routing.write() {
            routing.senders.clear();
        }
    }
}

/// Spawns one shard worker thread over a fresh controller scoped to
/// `budgets`.
fn spawn_worker(
    shard: usize,
    budgets: Budgets,
    rx: Receiver<ShardMsg>,
    template: &DotInstance,
    config: ServiceConfig,
    metrics: &Arc<ServiceMetrics>,
    plan_cache: &Option<Arc<PlanCache<CachedPlan>>>,
) -> JoinHandle<ShardExit> {
    let mut shard_template = template.clone();
    shard_template.budgets = budgets;
    let worker = ShardWorker {
        shard,
        rx,
        controller: Controller::new(&shard_template, OffloadnnSolver::new()),
        budgets,
        config,
        metrics: Arc::clone(metrics),
        plan_cache: plan_cache.clone(),
        ledger: 0,
        orphans: HashSet::new(),
        pending_reshards: Vec::new(),
    };
    std::thread::Builder::new()
        .name(format!("serve-shard-{shard}"))
        .spawn(move || worker.run())
        .expect("spawn shard worker")
}

#[cfg(test)]
mod tests {
    use super::*;
    use offloadnn_core::scenario::small_scenario;

    fn unique_task(template: &DotInstance, proto: usize, id: u32) -> (Task, Vec<PathOption>) {
        let mut task = template.tasks[proto].clone();
        task.id = TaskId(id);
        (task, template.options[proto].clone())
    }

    #[test]
    fn single_submit_admits_and_conserves() {
        let s = small_scenario(5);
        let cfg = ServiceConfig { shards: 2, ..ServiceConfig::default() };
        let service = Service::start(cfg, &s.instance).unwrap();
        let (task, options) = unique_task(&s.instance, 0, 1000);
        let ticket = service.submit(task, options).unwrap();
        let outcome = ticket.wait().expect("worker resolves");
        assert!(outcome.is_admitted(), "plenty of capacity: {outcome:?}");
        let report = service.drain();
        assert!(report.metrics.is_conserved());
        assert_eq!(report.metrics.submitted, 1);
        assert_eq!(report.metrics.admitted, 1);
        assert_eq!(report.lost_shards, 0);
        assert!(report.within_budgets());
    }

    #[test]
    fn submit_after_drain_fails() {
        let s = small_scenario(3);
        let service = Service::start(ServiceConfig::default(), &s.instance).unwrap();
        let (task, options) = unique_task(&s.instance, 0, 1);
        let report = service.drain();
        assert!(report.metrics.is_conserved());
        // Can't use the drained service (moved), so check the error path
        // on a fresh service mid-drain instead.
        let service = Service::start(ServiceConfig::default(), &s.instance).unwrap();
        service.begin_drain();
        assert_eq!(service.submit(task, options).unwrap_err(), SubmitError::Draining);
        assert_eq!(service.metrics().submitted, 0, "rejected submits are not counted");
    }

    #[test]
    fn drain_hooks_fire_exactly_once_on_the_first_fence() {
        use std::sync::atomic::AtomicU32;
        let s = small_scenario(3);
        let service = Service::start(ServiceConfig::default(), &s.instance).unwrap();
        let fired = Arc::new(AtomicU32::new(0));
        for _ in 0..2 {
            let fired = Arc::clone(&fired);
            service.on_drain(Box::new(move || {
                fired.fetch_add(1, Ordering::SeqCst);
            }));
        }
        assert_eq!(fired.load(Ordering::SeqCst), 0, "hooks must wait for the fence");
        service.begin_drain();
        assert_eq!(fired.load(Ordering::SeqCst), 2, "both hooks fire when the fence goes up");
        service.begin_drain();
        let report = service.drain();
        assert!(report.metrics.is_conserved());
        assert_eq!(fired.load(Ordering::SeqCst), 2, "later fences must not re-fire");
    }

    #[test]
    fn drain_hook_registered_after_the_fence_runs_immediately() {
        use std::sync::atomic::AtomicU32;
        let s = small_scenario(3);
        let service = Service::start(ServiceConfig::default(), &s.instance).unwrap();
        service.begin_drain();
        let fired = Arc::new(AtomicU32::new(0));
        let fired2 = Arc::clone(&fired);
        service.on_drain(Box::new(move || {
            fired2.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(fired.load(Ordering::SeqCst), 1, "late hooks run on the caller");
    }

    #[test]
    fn no_options_is_an_error() {
        let s = small_scenario(3);
        let service = Service::start(ServiceConfig::default(), &s.instance).unwrap();
        let (task, _) = unique_task(&s.instance, 0, 1);
        assert_eq!(service.submit(task, Vec::new()).unwrap_err(), SubmitError::NoOptions);
    }

    #[test]
    fn full_queue_sheds_immediately() {
        let s = small_scenario(5);
        // One shard, a 2-slot queue and single-request rounds: while the
        // worker is inside a solver round it cannot receive, so a tight
        // submission burst must overflow the queue (a solve takes orders
        // of magnitude longer than a submit).
        let cfg = ServiceConfig {
            shards: 1,
            queue_capacity: 2,
            batch_max: 1,
            batch_window: Duration::from_micros(100),
            ..ServiceConfig::default()
        };
        let service = Service::start(cfg, &s.instance).unwrap();
        let mut tickets: Vec<Ticket> = Vec::new();
        // Submit in bursts until a shed is observed (the first burst
        // all but guarantees it; the retry bound keeps the test sound on
        // any scheduler).
        for burst in 0..50u32 {
            for i in 0..200u32 {
                let id = 10_000 + burst * 200 + i;
                let (task, options) = unique_task(&s.instance, (id % 5) as usize, id);
                tickets.push(service.submit(task, options).unwrap());
            }
            if service.metrics().shed > 0 {
                break;
            }
        }
        let outcomes: Vec<Outcome> = tickets.iter().map(|t| t.wait().unwrap()).collect();
        let shed = outcomes.iter().filter(|o| matches!(o, Outcome::Shed { .. })).count();
        assert!(shed > 0, "overflowing a 2-slot queue must shed");
        let report = service.drain();
        assert!(report.metrics.is_conserved());
        assert_eq!(report.metrics.submitted as usize, tickets.len());
        assert_eq!(report.metrics.shed as usize, shed);
    }

    #[test]
    fn departure_releases_capacity_for_newcomers() {
        let s = small_scenario(5);
        // Single shard with the full budget: admit a batch, depart it,
        // and verify the controller state returns to empty.
        let cfg = ServiceConfig { shards: 1, ..ServiceConfig::default() };
        let service = Service::start(cfg, &s.instance).unwrap();
        let mut admitted_ids = Vec::new();
        for i in 0..5u32 {
            let (task, options) = unique_task(&s.instance, i as usize, 100 + i);
            let ticket = service.submit(task, options).unwrap();
            if ticket.wait().unwrap().is_admitted() {
                admitted_ids.push(ticket.task);
            }
        }
        assert!(!admitted_ids.is_empty());
        for id in &admitted_ids {
            service.depart(*id);
        }
        let report = service.drain();
        assert_eq!(report.metrics.departed as usize, admitted_ids.len());
        assert_eq!(report.shards[0].snapshot.active_tasks, 0, "all capacity released");
        assert!(report.metrics.is_conserved());
    }

    #[test]
    fn short_deadline_expires_queued_requests() {
        let s = small_scenario(5);
        let cfg = ServiceConfig {
            shards: 1,
            // Deadline far shorter than the batch window: requests queued
            // behind the first round's window will expire.
            admission_deadline: Duration::from_micros(1),
            batch_window: Duration::from_millis(20),
            batch_max: 4,
            ..ServiceConfig::default()
        };
        let service = Service::start(cfg, &s.instance).unwrap();
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| {
                let (task, options) = unique_task(&s.instance, (i % 5) as usize, 200 + i);
                service.submit(task, options).unwrap()
            })
            .collect();
        let expired = tickets.iter().filter(|t| matches!(t.wait().unwrap(), Outcome::Expired { .. })).count();
        assert!(expired > 0, "1 µs deadline must expire behind a 20 ms window");
        let report = service.drain();
        assert!(report.metrics.is_conserved());
        assert_eq!(report.metrics.expired as usize, expired);
    }

    #[test]
    fn departs_route_to_the_admitting_shard() {
        let s = small_scenario(5);
        let cfg = ServiceConfig { shards: 4, ..ServiceConfig::default() };
        let service = Service::start(cfg, &s.instance).unwrap();
        let (task, options) = unique_task(&s.instance, 0, 77);
        let ticket = service.submit(task, options).unwrap();
        let outcome = ticket.wait().unwrap();
        if let Outcome::Admitted { shard, .. } = outcome {
            assert_eq!(shard, service.router().route(TaskId(77)));
        } else {
            panic!("expected admission, got {outcome:?}");
        }
    }

    #[test]
    fn drop_without_drain_shuts_down_cleanly() {
        let s = small_scenario(3);
        let service = Service::start(ServiceConfig::default(), &s.instance).unwrap();
        let (task, options) = unique_task(&s.instance, 0, 9);
        let ticket = service.submit(task, options).unwrap();
        drop(service);
        // The worker resolves the in-flight request before exiting.
        assert!(ticket.wait().is_some());
    }

    #[test]
    fn scale_to_zero_is_invalid_and_same_count_is_a_noop() {
        let s = small_scenario(3);
        let service =
            Service::start(ServiceConfig { shards: 2, ..ServiceConfig::default() }, &s.instance).unwrap();
        assert!(matches!(service.scale_to(0), Err(ServeError::InvalidConfig(_))));
        let report = service.scale_to(2).unwrap();
        assert_eq!(report.from_shards, 2);
        assert_eq!(report.to_shards, 2);
        assert_eq!(report.migrated, 0);
        assert_eq!(report.generation, 0, "a no-op does not advance the generation");
        assert_eq!(service.metrics().reshards, 0);
    }

    #[test]
    fn scale_after_begin_drain_is_refused() {
        let s = small_scenario(3);
        let service =
            Service::start(ServiceConfig { shards: 2, ..ServiceConfig::default() }, &s.instance).unwrap();
        service.begin_drain();
        assert_eq!(service.scale_to(4).unwrap_err(), ServeError::Draining);
    }

    #[test]
    fn scale_up_keeps_serving_and_conserves() {
        let s = small_scenario(5);
        let cfg = ServiceConfig { shards: 2, ..ServiceConfig::default() };
        let service = Service::start(cfg, &s.instance).unwrap();
        let mut admitted = Vec::new();
        for id in 0..20u32 {
            let (task, options) = unique_task(&s.instance, (id % 5) as usize, 3000 + id);
            let ticket = service.submit(task, options).unwrap();
            if ticket.wait().unwrap().is_admitted() {
                admitted.push(ticket.task);
            }
        }
        let report = service.scale_to(5).unwrap();
        assert_eq!(report.from_shards, 2);
        assert_eq!(report.to_shards, 5);
        assert_eq!(report.generation, 1);
        assert_eq!(service.shards(), 5);
        // The fleet keeps serving on the new ring.
        for id in 0..20u32 {
            let (task, options) = unique_task(&s.instance, (id % 5) as usize, 4000 + id);
            let ticket = service.submit(task, options).unwrap();
            if ticket.wait().unwrap().is_admitted() {
                admitted.push(ticket.task);
            }
        }
        for id in &admitted {
            service.depart(*id);
        }
        let drained = service.drain();
        assert!(drained.metrics.is_conserved());
        assert_eq!(drained.metrics.departed as usize, admitted.len());
        assert_eq!(drained.metrics.reshards, 1);
        assert_eq!(drained.metrics.generation, 1);
        assert_eq!(drained.lost_shards, 0);
        let active: usize = drained.shards.iter().map(|r| r.snapshot.active_tasks).sum();
        assert_eq!(active, 0, "every admitted task departed cleanly across the reshard");
    }

    #[test]
    fn scale_down_migrates_in_flight_tasks_to_survivors() {
        let s = small_scenario(5);
        let cfg = ServiceConfig { shards: 4, ..ServiceConfig::default() };
        let service = Service::start(cfg, &s.instance).unwrap();
        let mut admitted = Vec::new();
        for id in 0..16u32 {
            let (task, options) = unique_task(&s.instance, (id % 5) as usize, 5000 + id);
            let ticket = service.submit(task, options).unwrap();
            if ticket.wait().unwrap().is_admitted() {
                admitted.push(ticket.task);
            }
        }
        assert!(!admitted.is_empty());
        let report = service.scale_to(1).unwrap();
        assert_eq!(report.to_shards, 1);
        assert_eq!(service.shards(), 1);
        // Every departure now routes to the lone survivor, which must
        // hold (or have buffered a departure for) every migrated task.
        for id in &admitted {
            service.depart(*id);
        }
        let drained = service.drain();
        assert!(drained.metrics.is_conserved());
        assert_eq!(drained.metrics.departed as usize, admitted.len());
        assert_eq!(drained.shards.len(), 1);
        assert_eq!(drained.shards[0].snapshot.active_tasks, 0, "all migrated capacity released");
        assert_eq!(drained.retired.len(), 3, "three shards retired with reports");
        assert_eq!(drained.lost_shards, 0);
    }
}
