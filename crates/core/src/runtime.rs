//! A real multi-threaded shared-memory runtime.
//!
//! [`ThreadEngine`] runs the same worker code as the discrete-event engine
//! — same [`crate::worker::Worker`], same vertex programs, same per-query
//! limited barriers — but on OS threads with `std::sync::mpsc` channels.
//! It demonstrates that the library is an executable system, and the
//! integration tests use it to cross-validate the simulator: both runtimes
//! must produce identical query outputs. The per-query bookkeeping is
//! the simulator's too (`control.rs`); this module adds the wall
//! clock, the pool transport, and the `qcut_interval` trigger.
//!
//! ## Morsel-style elastic execution
//!
//! Partitions are *logical actors*, not threads. Each partition's state —
//! vertex values, inboxes, Q-cut scope — lives in a [`WorkerCtx`], and
//! every protocol command for a partition becomes one task in a shared
//! [`TaskPool`] drawn by [`SystemConfig::pool_threads`] OS threads
//! (default: one per partition, the fixed-partition baseline). The pool
//! serializes tasks per partition, so partition ownership still governs
//! *state placement* exactly as before, while *compute* is elastic: one
//! thread can drain many partitions, and many threads can race through
//! one query's superstep.
//!
//! Per-query parallelism is budgeted at admission: [`crate::DopPolicy`]
//! (configured via [`crate::EngineBuilder::dop`]) assigns each query a
//! degree-of-parallelism budget, and the coordinator releases at most
//! that many of a superstep's per-partition tasks concurrently, deferring
//! the rest until earlier tasks of the *same* superstep complete. Because
//! involved inboxes freeze at barrier release (`Cmd::Freeze`, broadcast
//! before any `Cmd::Step` of the superstep is dispatched), deferral never
//! changes what a task reads — outputs and iteration counts are identical
//! across every pool width and budget.
//!
//! ## Streaming submission and the serving loop
//!
//! The engine is *long-lived*: [`ThreadEngine::start`] spawns the pool
//! threads plus a **coordinator** thread that owns the drive loop, and the
//! engine then serves an open-ended query stream. Callers on any thread
//! submit through a cloneable [`EngineClient`] handle *while supersteps
//! are in flight* — the channel protocol that already carried
//! submit-during-barrier admissions now carries submit-during-run:
//!
//! * a submission registers its type-erased task in a shared registry
//!   (which allocates the [`QueryId`]) and sends one message to the
//!   coordinator; the coordinator stamps the arrival time and places the
//!   query in the policy-ordered admission queue
//!   ([`crate::sched::Scheduler`], selected by
//!   [`SystemConfig::admission`]);
//! * the closed loop (`max_parallel_queries`) admits from that queue
//!   whenever a slot frees up — FIFO, per-program-kind priority, or
//!   earliest-deadline-first ([`EngineClient::submit_with_deadline`]);
//! * queries arriving while a Q-cut stop-the-world phase is pending or
//!   running park in the admission queue exactly like resident parked
//!   queries and are admitted against the *post-migration* layout;
//! * [`ThreadEngine::drain`] blocks until the engine is idle (everything
//!   submitted so far has completed) and syncs outputs + the report back
//!   into the engine; [`ThreadEngine::shutdown`] drains, then stops the
//!   coordinator and workers. [`ThreadEngine::run`] is `start` + `drain`,
//!   which keeps the classic batch lifecycle working unchanged.
//!
//! Results become visible on the engine (`output`, `report`,
//! `partitioning`) after `run`/`drain`/`shutdown` — the coordinator owns
//! them while serving and the sync points hand them back.
//!
//! ## Adaptive Q-cut (stop-the-world)
//!
//! With Q-cut configured ([`SystemConfig::qcut`] with a non-zero
//! [`QcutConfig::qcut_interval`](crate::QcutConfig::qcut_interval)), the
//! coordinator re-evaluates the repartition trigger every `qcut_interval`
//! completed query supersteps. When mean query locality or worker balance
//! degrades past the configured thresholds, it enters a stop-the-world
//! phase:
//!
//! 1. **Park** — queries reaching their superstep barrier are parked
//!    instead of released; no new queries are admitted; in-flight
//!    supersteps and collections drain to quiescence.
//! 2. **Aggregate** — every worker reports its live per-query scope
//!    vertex sets; the coordinator builds the controller's high-level
//!    [`ScopeStats`](crate::qcut::ScopeStats) (live scopes plus retained
//!    finished scopes, expired against the monitoring window first) and
//!    runs the same [`qcut::run_qcut`](crate::qcut::run_qcut) ILS as the
//!    simulation.
//! 3. **Migrate** — the resulting move plan is resolved into disjoint
//!    vertex transfers by the shared [`qcut::migrate`] layer; each
//!    transfer is extracted on its source partition and injected on
//!    its destination (vertex state *and* pending inboxes travel
//!    together), then the new vertex→worker assignment is committed and
//!    broadcast to every worker before anything resumes.
//! 4. **Resume** — parked queries' involved sets are recomputed against
//!    the post-migration message placement and released; the closed loop
//!    admits waiting queries again.
//!
//! Because the assignment only changes while every worker is parked and
//! each worker swaps to the new assignment before executing another
//! superstep, no message is ever routed to a stale owner. Client messages
//! (submissions, drain requests) arriving *during* the phase are absorbed
//! into the admission queue / waiter list without disturbing the barrier
//! protocol.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread;
use std::time::Instant;

use rustc_hash::{FxHashMap, FxHashSet};

use qgraph_graph::{Graph, MutationBatch as GraphMutationBatch, Topology, VertexId};
use qgraph_partition::Partitioning;
use qgraph_sim::SimTime;

use crate::config::SystemConfig;
use crate::control::{record_outcome, Admission, Outputs, QueryLedger};
use crate::controller::{apply_mutation_epochs, Controller};
use crate::hb::{kind, Hb};
use crate::index_plane::PointIndex;
use crate::pool::TaskPool;
use crate::program::VertexProgram;
use crate::qcut::{migrate, run_qcut, IlsResult, Migration};
use crate::query::{QueryHandle, QueryId, QueryOutcome, ServedBy};
use crate::report::{ActivitySample, EngineReport, PoolCounters, RepartitionEvent, ReportMarks};
use crate::sched::{QueueEntry, Scheduler};
use crate::task::{Envelope, MessageBatch, QueryTask, TypedTask};
use crate::trace::{cmd, Tracer};
use crate::worker::{LocalState, SuperstepStats, Worker};

/// The shared, growable task registry: submissions (engine or any client)
/// append under the lock, which also allocates the dense [`QueryId`];
/// pool threads resolve ids through it.
type TaskRegistry = Arc<RwLock<Vec<Arc<dyn QueryTask>>>>;

/// Read the registry, recovering from poisoning. The registry is
/// append-only (a writer can never leave it torn), so a client thread
/// that panicked mid-`submit` must not wedge the coordinator or the
/// workers behind a poisoned lock.
fn reg_read(tasks: &TaskRegistry) -> std::sync::RwLockReadGuard<'_, Vec<Arc<dyn QueryTask>>> {
    tasks.read().unwrap_or_else(|p| p.into_inner())
}

/// Write counterpart of [`reg_read`]; same append-only reasoning.
fn reg_write(tasks: &TaskRegistry) -> std::sync::RwLockWriteGuard<'_, Vec<Arc<dyn QueryTask>>> {
    tasks.write().unwrap_or_else(|p| p.into_inner())
}

enum Cmd {
    Deliver {
        q: QueryId,
        batch: MessageBatch,
    },
    /// Seal query `q`'s inbox on this worker: the pending messages become
    /// the next superstep's input. Broadcast to *every* involved worker at
    /// barrier release, before any of the superstep's `Step` tasks run —
    /// the BSP isolation edge that makes DoP-deferred execution
    /// output-identical to the all-at-once baseline.
    Freeze {
        q: QueryId,
    },
    Step {
        q: QueryId,
        prev_agg: Envelope,
    },
    Collect {
        q: QueryId,
    },
    /// Report every query's live scope vertex set (repartition barrier).
    ScopeReport,
    /// Extract all queries' data on the given vertices (migration);
    /// `token` identifies the resolved move and is echoed back so the
    /// coordinator can pipeline extracts across workers.
    Extract {
        token: usize,
        vertices: Vec<VertexId>,
    },
    /// Inject data extracted from another worker (migration).
    Inject {
        data: Vec<(QueryId, Envelope)>,
    },
    /// Swap in the post-migration vertex→worker assignment.
    SetPartitioning(Arc<Partitioning>),
    /// Swap in the post-mutation graph view (a new epoch).
    SetTopology(Arc<Topology>),
    /// Report the queries with pending messages here (barrier resume).
    PendingReport,
}

/// One finished `Step`: the worker's counters and aggregate, the remote
/// batches it produced, and whether it still holds pending messages.
struct StepDone {
    q: QueryId,
    worker: usize,
    stats: SuperstepStats,
    agg: Envelope,
    remote: Vec<(usize, MessageBatch)>,
    self_pending: bool,
}

enum Resp {
    StepDone(StepDone),
    Collected {
        q: QueryId,
        local: Option<Box<dyn LocalState>>,
    },
    Scopes {
        worker: usize,
        scopes: Vec<(QueryId, Vec<VertexId>)>,
    },
    Extracted {
        token: usize,
        data: Vec<(QueryId, Envelope)>,
    },
    Pending {
        worker: usize,
        queries: Vec<QueryId>,
    },
}

/// Everything the coordinator thread receives: worker responses plus the
/// client-side protocol (submissions, drain requests, shutdown). One
/// channel carries both so a submission can land at *any* point of the
/// drive loop — including mid-barrier, where it is absorbed into the
/// admission queue without disturbing the worker protocol.
enum CoordMsg {
    Worker(Resp),
    /// A query was registered; admit it under the configured policy. The
    /// deadline is relative seconds from arrival (stamped on receipt).
    Submit {
        q: QueryId,
        deadline_secs: Option<f64>,
    },
    /// A mutation batch to apply at the next stop-the-world barrier
    /// (opening a new graph epoch).
    Mutate(GraphMutationBatch),
    /// Install (or replace) the point-query label index on the serving
    /// coordinator; picked up on its next turn through the loop.
    InstallIndex(Box<dyn PointIndex>),
    /// Reply on `ack` once the engine is idle (everything submitted so
    /// far has completed).
    Drain {
        ack: Sender<Snapshot>,
    },
    /// Stop serving (the engine drains first; see
    /// [`ThreadEngine::shutdown`]).
    Shutdown,
}

/// The state a drain hands back to the engine: the report delta since
/// the previous drain (the engine holds an identical prefix, so appending
/// it reconstitutes the cumulative report) plus the current layout.
struct Snapshot {
    report: EngineReport,
    partitioning: Partitioning,
    topology: Topology,
}

/// One finished query's output, streamed back to the engine.
struct Completion {
    q: QueryId,
    output: Envelope,
}

/// What the coordinator thread returns when it stops.
struct CoordinatorExit {
    report: EngineReport,
    partitioning: Partitioning,
    topology: Topology,
    controller: Controller,
    index: Option<Box<dyn PointIndex>>,
}

/// One admitted query on the thread runtime: the shared ledger plus the
/// coordinator's transport and trigger-window bookkeeping.
struct QueryTracking {
    ledger: QueryLedger,
    /// Workers holding the next superstep's messages.
    next_involved: FxHashSet<usize>,
    /// Workers holding any of the query's state (collected at the end).
    touched: FxHashSet<usize>,
    /// Collect responses still outstanding.
    collecting: usize,
    locals: Vec<Box<dyn LocalState>>,
    /// Supersteps completed within the current trigger window (reset with
    /// the activity counters, so a long query's stale early history
    /// cannot keep re-firing barriers after a successful migration).
    window_iterations: u32,
    window_local: u32,
}

/// The serving clock: wall time since `start`, offset by the report's
/// previous end so timestamps stay monotonic across serve sessions.
/// `Copy` so the coordinator and every pool thread can stamp trace
/// events off the *same* time base — one origin per serve session.
#[derive(Clone, Copy)]
struct Clock {
    base: f64,
    started: Instant,
}

impl Clock {
    fn now(&self) -> SimTime {
        SimTime::from_secs_f64(self.base + self.started.elapsed().as_secs_f64())
    }
}

/// The coordinator's inbound channel plus the client-protocol state it
/// can update at *any* receive point: the policy-ordered admission queue,
/// the drain waiters, and the shutdown flag.
struct ClientState {
    rx: Receiver<CoordMsg>,
    scheduler: Scheduler,
    drain_waiters: Vec<Sender<Snapshot>>,
    /// Mutation batches awaiting the next stop-the-world barrier.
    mutations: Vec<GraphMutationBatch>,
    /// Submissions the bounded queue bounced, awaiting their rejection
    /// outcome (flushed into the report on the coordinator's next turn).
    rejected: Vec<(QueryId, &'static str, SimTime)>,
    /// A label index installed mid-serve, awaiting pickup on the
    /// coordinator's next turn (last install wins).
    pending_index: Option<Box<dyn PointIndex>>,
    shutdown: bool,
    /// Stamps the admission instant of every submission (a clone of the
    /// coordinator's tracer; no-op when tracing is off).
    tracer: Tracer,
}

impl ClientState {
    /// Fold one message in; returns the worker response if it was one.
    fn absorb(&mut self, msg: CoordMsg, tasks: &TaskRegistry, now: SimTime) -> Option<Resp> {
        match msg {
            CoordMsg::Worker(r) => Some(r),
            CoordMsg::Submit { q, deadline_secs } => {
                let program = reg_read(tasks)[q.index()].program_name();
                let deadline = deadline_secs.map(|d| now + SimTime::from_secs_f64(d));
                self.tracer.admitted(now.as_secs_f64(), u64::from(q.0));
                if !self.scheduler.push(q, program, now, deadline) {
                    self.rejected.push((q, program, now));
                }
                None
            }
            CoordMsg::Mutate(batch) => {
                self.mutations.push(batch);
                None
            }
            CoordMsg::InstallIndex(index) => {
                self.pending_index = Some(index);
                None
            }
            CoordMsg::Drain { ack } => {
                self.drain_waiters.push(ack);
                None
            }
            CoordMsg::Shutdown => {
                self.shutdown = true;
                None
            }
        }
    }

    /// Block until a *worker* response arrives, absorbing any client
    /// messages that land in between (submit-during-barrier and friends).
    fn recv_worker(&mut self, tasks: &TaskRegistry, now: SimTime, hb: &Hb) -> Resp {
        loop {
            // Mid-barrier the workers must still hold their Sender clones
            // (they only drop on worker exit), so a closed channel here
            // means every worker died: tear down rather than resume from a
            // half-applied barrier.
            let msg = self
                .rx
                .recv()
                // qlint: allow(no-unwrap-hot-loop) — see above; recovery is impossible
                .expect("workers alive while a barrier is in flight");
            hb.coord_recv();
            if let Some(r) = self.absorb(msg, tasks, now) {
                return r;
            }
        }
    }
}

/// A cloneable submission handle into a serving [`ThreadEngine`]. Obtain
/// one with [`ThreadEngine::client`]; clones can be moved to any thread
/// and submit concurrently while the engine runs supersteps.
///
/// Submissions after the engine has shut down are silently dropped (the
/// returned handle's output stays `None`) — a streaming producer racing a
/// shutdown must coordinate externally if that matters.
#[derive(Clone)]
pub struct EngineClient {
    tasks: TaskRegistry,
    tx: Sender<CoordMsg>,
}

impl EngineClient {
    /// Submit a query of any program type into the live stream.
    pub fn submit<P: VertexProgram>(&self, program: P) -> QueryHandle<P> {
        QueryHandle::new(self.submit_task(Arc::new(TypedTask::new(program)), None))
    }

    /// Submit with a deadline `deadline_secs` from now (consulted by
    /// [`crate::AdmissionPolicy::Deadline`]).
    pub fn submit_with_deadline<P: VertexProgram>(
        &self,
        program: P,
        deadline_secs: f64,
    ) -> QueryHandle<P> {
        QueryHandle::new(self.submit_task(Arc::new(TypedTask::new(program)), Some(deadline_secs)))
    }

    /// Type-erased submission backing the typed ones.
    pub fn submit_task(&self, task: Arc<dyn QueryTask>, deadline_secs: Option<f64>) -> QueryId {
        let q = register_task(&self.tasks, task);
        let _ = self.tx.send(CoordMsg::Submit { q, deadline_secs });
        q
    }

    /// Stream a mutation batch into the serving engine: it applies
    /// atomically at the next stop-the-world barrier (in-flight queries
    /// park at their superstep barriers first), opening a new graph
    /// epoch. Batches from one client apply in submission order; like
    /// submissions, a batch racing a shutdown may be dropped.
    ///
    /// # Panics
    /// Rejects the batch at submission (see
    /// [`GraphMutationBatch::validate`]) if any op carries a NaN,
    /// negative, or infinite weight — failing on the caller's stack
    /// instead of poisoning the coordinator at the barrier.
    pub fn mutate(&self, batch: GraphMutationBatch) {
        if let Err(e) = batch.validate() {
            panic!("rejected mutation batch: {e}");
        }
        let _ = self.tx.send(CoordMsg::Mutate(batch));
    }
}

/// Append `task` to the shared registry, allocating its [`QueryId`].
fn register_task(tasks: &TaskRegistry, task: Arc<dyn QueryTask>) -> QueryId {
    let mut reg = reg_write(tasks);
    let q = QueryId(reg.len() as u32);
    reg.push(task);
    q
}

/// The serving-session handles the engine keeps while the coordinator
/// thread runs.
struct Serving {
    tx: Sender<CoordMsg>,
    done_rx: Receiver<Completion>,
    handle: thread::JoinHandle<CoordinatorExit>,
}

/// The multi-threaded runtime: an elastic pool of OS threads executing
/// per-partition tasks plus a coordinator thread serving an open-ended
/// query stream, with the same submit/run/output lifecycle as the
/// simulated engine and the same adaptive Q-cut loop running as a
/// stop-the-world phase (see the module docs for the pool, streaming and
/// barrier protocols).
pub struct ThreadEngine {
    /// The engine's copy of the evolving graph view, synced from the
    /// coordinator at every drain (the coordinator holds the master while
    /// serving; its epoch counts the mutation batches applied).
    topology: Topology,
    /// The engine's copy of the vertex→worker assignment, synced from the
    /// coordinator at every drain (the coordinator holds the master while
    /// serving).
    partitioning: Partitioning,
    cfg: SystemConfig,
    /// Present while *not* serving; moved into the coordinator for the
    /// session and handed back at shutdown, so retained finished scopes
    /// survive serve sessions.
    controller: Option<Controller>,
    tasks: TaskRegistry,
    outputs: Outputs,
    /// Submissions/mutations made before `start` (forwarded in order when
    /// serving begins).
    pre_ops: Vec<CoordMsg>,
    /// The point-query label index, present while *not* serving; moved
    /// into the coordinator for the session (which repairs it at mutation
    /// barriers and serves eligible queries from it) and handed back at
    /// shutdown.
    index: Option<Box<dyn PointIndex>>,
    report: EngineReport,
    serving: Option<Serving>,
    /// Test hook: see [`ThreadEngine::hb_test_reintroduce_quiesce_race`].
    #[cfg(feature = "check-hb")]
    hb_test_early_quiesce: bool,
}

impl ThreadEngine {
    /// Create a runtime over `graph` with an initial `partitioning` and
    /// the default [`SystemConfig`].
    pub fn new(graph: Arc<Graph>, partitioning: Partitioning) -> Self {
        Self::with_config(graph, partitioning, SystemConfig::default())
    }

    /// Create a runtime with an explicit configuration. The thread runtime
    /// honors `max_parallel_queries`, the admission policy, and — when
    /// `qcut` is set with a non-zero `qcut_interval` — the adaptive
    /// repartitioning loop; barrier mode and the simulated cost model
    /// remain simulation-only.
    pub fn with_config(graph: Arc<Graph>, partitioning: Partitioning, cfg: SystemConfig) -> Self {
        assert_eq!(
            partitioning.num_vertices(),
            graph.num_vertices(),
            "partitioning does not cover the graph"
        );
        ThreadEngine {
            topology: Topology::new(graph),
            partitioning,
            controller: Some(Controller::new(cfg.qcut.clone())),
            cfg,
            tasks: Arc::new(RwLock::new(Vec::new())),
            outputs: Outputs::default(),
            pre_ops: Vec::new(),
            index: None,
            report: EngineReport::default(),
            serving: None,
            #[cfg(feature = "check-hb")]
            hb_test_early_quiesce: false,
        }
    }

    /// Test-only hook: re-introduce the historical bug where the
    /// stop-the-world barrier opened its quiesce window while one
    /// Step/Collect was still outstanding (the coordinator treats a
    /// single in-flight op as "quiescent"). The `check-hb` auditor must
    /// flag that dispatch-inside-quiesce race deterministically; the
    /// regression test in `tests/` keeps it that way.
    #[cfg(feature = "check-hb")]
    #[doc(hidden)]
    pub fn hb_test_reintroduce_quiesce_race(&mut self) {
        assert!(
            self.serving.is_none(),
            "set the quiesce-race hook before the engine starts serving"
        );
        self.hb_test_early_quiesce = true;
    }

    /// Install (or replace) a point-query label index. While serving it is
    /// handed to the coordinator (picked up on its next turn); otherwise
    /// it is held until the next [`ThreadEngine::start`]. Eligible point
    /// queries are answered from the index at admission, and mutation
    /// barriers repair it before opening the new epoch to queries. The
    /// index receives
    /// [`SystemConfig::index_build_threads`](crate::SystemConfig) as its
    /// parallelism hint for rebuild work.
    pub fn install_index(&mut self, mut index: Box<dyn PointIndex>) {
        index.set_parallelism(self.cfg.index_build_threads);
        match &self.serving {
            Some(s) => {
                let _ = s.tx.send(CoordMsg::InstallIndex(index));
            }
            None => self.index = Some(index),
        }
    }

    /// Remove and return the installed index. Only meaningful while not
    /// serving (the coordinator owns it during a session — call
    /// [`ThreadEngine::shutdown`] first); returns `None` otherwise.
    pub fn take_index(&mut self) -> Option<Box<dyn PointIndex>> {
        self.index.take()
    }

    /// The installed index, if present and the engine is not serving.
    pub fn index(&self) -> Option<&dyn PointIndex> {
        self.index.as_deref()
    }

    /// Apply a mutation batch: if the engine is serving it rides the next
    /// stop-the-world barrier (a new graph epoch, exactly like
    /// [`EngineClient::mutate`]); before `start` it queues and applies —
    /// in order with pre-start submissions — when serving begins.
    ///
    /// # Panics
    /// Rejects the batch at submission (see
    /// [`GraphMutationBatch::validate`]) if any op carries a NaN,
    /// negative, or infinite weight.
    pub fn mutate(&mut self, batch: GraphMutationBatch) {
        if let Err(e) = batch.validate() {
            panic!("rejected mutation batch: {e}");
        }
        self.send(CoordMsg::Mutate(batch));
    }

    /// Enqueue a query of any program type; it starts as soon as a
    /// closed-loop slot frees up once the engine is serving (or at the
    /// next [`ThreadEngine::run`]).
    pub fn submit<P: VertexProgram>(&mut self, program: P) -> QueryHandle<P> {
        QueryHandle::new(self.submit_task(Arc::new(TypedTask::new(program))))
    }

    /// Submit with a deadline `deadline_secs` from arrival (consulted by
    /// [`crate::AdmissionPolicy::Deadline`]).
    pub fn submit_with_deadline<P: VertexProgram>(
        &mut self,
        program: P,
        deadline_secs: f64,
    ) -> QueryHandle<P> {
        QueryHandle::new(
            self.submit_task_opts(Arc::new(TypedTask::new(program)), Some(deadline_secs)),
        )
    }

    /// Type-erased submission backing [`ThreadEngine::submit`] (and the
    /// [`crate::Engine`] trait).
    pub fn submit_task(&mut self, task: Arc<dyn QueryTask>) -> QueryId {
        self.submit_task_opts(task, None)
    }

    fn submit_task_opts(
        &mut self,
        task: Arc<dyn QueryTask>,
        deadline_secs: Option<f64>,
    ) -> QueryId {
        let q = register_task(&self.tasks, task);
        self.send(CoordMsg::Submit { q, deadline_secs });
        q
    }

    /// Send `msg` to the coordinator, or hold it until `start`.
    fn send(&mut self, msg: CoordMsg) {
        match &self.serving {
            Some(s) => {
                let _ = s.tx.send(msg);
            }
            None => self.pre_ops.push(msg),
        }
    }

    /// Start serving: spawn the elastic pool threads and the coordinator
    /// thread owning the drive loop. Idempotent. Queries submitted before
    /// this call are forwarded in submission order.
    pub fn start(&mut self) {
        if self.serving.is_some() {
            return;
        }
        let k = self.partitioning.num_workers();
        let (msg_tx, msg_rx) = channel::<CoordMsg>();
        let (done_tx, done_rx) = channel::<Completion>();
        let shared_parts = Arc::new(self.partitioning.clone());
        let combiners = self.cfg.combiners;
        let batch_max = self.cfg.batch_max_msgs;
        let shared_topology = Arc::new(self.topology.clone());
        // The initial topology and assignment are published before any
        // worker can read them; each context starts from both Arcs.
        let hb = Hb::new(k);
        hb.publish_topology(0, self.topology.epoch());
        hb.publish_partitioning(0);
        // Partition state stays partition-owned: one context per logical
        // worker, taken by whichever pool thread draws that partition's
        // next command. The pool serializes per partition, so the lock is
        // never contended — it only moves the state between pool threads.
        let ctxs: Arc<Vec<Mutex<WorkerCtx>>> = Arc::new(
            (0..k)
                .map(|w| {
                    hb.spawn_worker(w);
                    Mutex::new(WorkerCtx {
                        worker: Worker::configured(w, combiners, batch_max),
                        topology: Arc::clone(&shared_topology),
                        partitioning: Arc::clone(&shared_parts),
                    })
                })
                .collect(),
        );
        let registry = Arc::clone(&self.tasks);
        let resp = msg_tx.clone();
        let worker_hb = hb.clone();
        // 0 = the fixed-partition baseline: one thread per partition.
        let pool_threads = match self.cfg.pool_threads {
            0 => k,
            n => n,
        };
        // One time base for the whole session: the coordinator and every
        // pool thread stamp trace events (and the coordinator its report
        // entries) off this same clock, so lane spans and query envelopes
        // line up without cross-clock skew.
        let clock = Clock {
            base: self.report.finished_at_secs,
            started: Instant::now(),
        };
        let tracer = Tracer::new(pool_threads, self.cfg.trace_ring_capacity, self.cfg.trace);
        let worker_tracer = tracer.clone();
        let pool = TaskPool::new(k, pool_threads, move |tid, w, cmd| {
            handle_cmd(
                tid,
                pool_threads,
                w,
                cmd,
                &ctxs,
                &registry,
                &resp,
                &worker_hb,
                &worker_tracer,
                &clock,
            );
        });

        let Some(controller) = self.controller.take() else {
            unreachable!("controller is present whenever the engine is not serving");
        };
        // The hook widens "quiescent" to one still-open op — exactly the
        // race the hb auditor exists to catch (see the regression test).
        #[cfg(feature = "check-hb")]
        let quiesce_at = usize::from(self.hb_test_early_quiesce);
        #[cfg(not(feature = "check-hb"))]
        let quiesce_at = 0;
        let coordinator = Coordinator {
            topology: self.topology.clone(),
            cfg: self.cfg.clone(),
            controller,
            partitioning: self.partitioning.clone(),
            tasks: Arc::clone(&self.tasks),
            index: self.index.take(),
            // The coordinator continues the cumulative report; the engine
            // keeps its identical copy and appends drain deltas to it.
            report: self.report.clone(),
            lanes: Lanes {
                pool,
                hb: hb.clone(),
                inflight: 0,
                batch_cap: self.cfg.batch_max_msgs.max(1),
            },
            hb,
            cs: ClientState {
                rx: msg_rx,
                scheduler: Scheduler::bounded(self.cfg.admission.clone(), self.cfg.max_queued),
                drain_waiters: Vec::new(),
                mutations: Vec::new(),
                rejected: Vec::new(),
                pending_index: None,
                shutdown: false,
                tracer: tracer.clone(),
            },
            tracer,
            clock,
            done_tx,
            tracking: FxHashMap::default(),
            parked: Vec::new(),
            pool_base: self.report.pool,
            // The current run window opens where the previous one closed.
            run_started: clock.base,
            synced: self.report.marks(),
            window_supersteps: 0,
            worker_activity: vec![0; k],
            repart_triggered_at: None,
            quiesce_at,
        };
        let handle = thread::spawn(move || coordinator.serve());

        for msg in std::mem::take(&mut self.pre_ops) {
            let _ = msg_tx.send(msg);
        }
        self.serving = Some(Serving {
            tx: msg_tx,
            done_rx,
            handle,
        });
    }

    /// A cloneable concurrent submission handle (starts the engine if it
    /// is not serving yet). Clients submit from any thread while
    /// supersteps are in flight.
    pub fn client(&mut self) -> EngineClient {
        self.start();
        let Some(s) = self.serving.as_ref() else {
            unreachable!("start() always installs the serving session");
        };
        EngineClient {
            tasks: Arc::clone(&self.tasks),
            tx: s.tx.clone(),
        }
    }

    /// Block until everything submitted so far has completed, then sync
    /// outputs, report, and partitioning back into the engine. One run
    /// window ([`crate::RunSummary`]) closes per drain. If concurrent
    /// clients keep submitting, the drain waits for *them* too — it
    /// returns at a moment the engine is fully idle. Starts the engine if
    /// there are pre-start submissions waiting (a `submit` + `drain` pair
    /// must never silently skip the query).
    pub fn drain(&mut self) -> &EngineReport {
        if self.serving.is_none() {
            if self.pre_ops.is_empty() {
                return &self.report;
            }
            self.start();
        }
        let (ack_tx, ack_rx) = channel::<Snapshot>();
        let sent = match self.serving.as_ref() {
            Some(s) => s.tx.send(CoordMsg::Drain { ack: ack_tx }).is_ok(),
            None => unreachable!("start() always installs the serving session"),
        };
        let Some(snapshot) = sent.then(|| ack_rx.recv().ok()).flatten() else {
            // The coordinator hung up mid-serve; it only exits early by
            // panicking. Join its thread to surface the *original* panic
            // (payload intact) instead of a secondary channel error here.
            if let Some(s) = self.serving.take() {
                if let Err(payload) = s.handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
            unreachable!("coordinator exited without acking the drain");
        };
        self.report.append(snapshot.report);
        self.partitioning = snapshot.partitioning;
        self.topology = snapshot.topology;
        self.sync_outputs();
        &self.report
    }

    /// Execute every pending query to completion; equivalent to
    /// [`ThreadEngine::start`] followed by [`ThreadEngine::drain`]. The
    /// engine keeps serving afterwards (subsequent submissions stream into
    /// the same session); it stops at [`ThreadEngine::shutdown`] or drop.
    pub fn run(&mut self) -> &EngineReport {
        self.start();
        self.drain()
    }

    /// Drain, then stop the coordinator and pool threads and take the
    /// final report/partitioning/controller state back. The engine can be
    /// started again afterwards. A client submission racing the stop is
    /// still *executed* if the coordinator had already admitted it (its
    /// outcome and output are in the final state); one still waiting in
    /// the admission queue is discarded, like any submission after
    /// shutdown.
    pub fn shutdown(&mut self) -> &EngineReport {
        if self.serving.is_none() {
            return &self.report;
        }
        self.drain();
        let Some(s) = self.serving.take() else {
            // drain() tears the session down itself only by propagating a
            // coordinator panic, so reaching here without one is a bug —
            // but returning the synced report beats panicking over it.
            return &self.report;
        };
        let _ = s.tx.send(CoordMsg::Shutdown);
        let exit = match s.handle.join() {
            Ok(exit) => exit,
            // Propagate the coordinator's own panic payload.
            Err(payload) => std::panic::resume_unwind(payload),
        };
        self.report = exit.report;
        self.partitioning = exit.partitioning;
        self.topology = exit.topology;
        self.controller = Some(exit.controller);
        self.index = exit.index;
        // Any completions raced between the drain ack and the stop.
        while let Ok(c) = s.done_rx.try_recv() {
            self.outputs.store(c.q, c.output);
        }
        &self.report
    }

    fn sync_outputs(&mut self) {
        let Some(s) = &self.serving else { return };
        while let Ok(c) = s.done_rx.try_recv() {
            self.outputs.store(c.q, c.output);
        }
    }

    /// The output of a finished query, recovered through its typed handle
    /// (visible after `run`/`drain`/`shutdown`).
    pub fn output<P: VertexProgram>(&self, handle: &QueryHandle<P>) -> Option<&P::Output> {
        self.outputs.get::<P>(handle.id())
    }

    /// Typed output lookup by raw [`QueryId`]; `None` if unfinished or if
    /// `P` is not the program type the query was submitted with.
    pub fn output_as<P: VertexProgram>(&self, q: QueryId) -> Option<&P::Output> {
        self.outputs.get::<P>(q)
    }

    /// Erased output access (backs the [`crate::Engine`] trait).
    pub fn output_envelope(&self, q: QueryId) -> Option<&(dyn std::any::Any + Send)> {
        self.outputs.envelope(q)
    }

    /// Take ownership of a finished query's output.
    pub fn take_output<P: VertexProgram>(&mut self, handle: &QueryHandle<P>) -> Option<P::Output> {
        self.outputs.take::<P>(handle.id())
    }

    /// The cumulative measurement report over the engine's lifetime, as of
    /// the last sync point (`run`/`drain`/`shutdown`).
    pub fn report(&self) -> &EngineReport {
        &self.report
    }

    /// The vertex→worker assignment as of the last sync point (mutated by
    /// repartitionings while serving).
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// The evolving graph view as of the last sync point
    /// (`run`/`drain`/`shutdown`).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The graph epoch as of the last sync point (mutation batches
    /// applied over the engine's lifetime).
    pub fn epoch(&self) -> u64 {
        self.topology.epoch()
    }
}

impl Drop for ThreadEngine {
    /// Best-effort teardown *without* draining: already-admitted queries
    /// finish their run (their results are simply discarded with the
    /// engine), queued ones are dropped (use [`ThreadEngine::shutdown`]
    /// for a clean stop that keeps the results).
    fn drop(&mut self) {
        if let Some(s) = self.serving.take() {
            let _ = s.tx.send(CoordMsg::Shutdown);
            let _ = s.handle.join();
        }
    }
}

/// The coordinator's command side of the pool: every partition command
/// goes through here, stamped on the happens-before auditor, and the
/// Step/Collect ones are counted until their response arrives.
struct Lanes {
    pool: TaskPool<Cmd>,
    hb: Hb,
    /// Step and Collect commands awaiting a response: zero while a
    /// barrier is pending means the workers are quiescent.
    inflight: usize,
    /// The wire cap deliveries are chunked at.
    batch_cap: usize,
}

impl Lanes {
    /// A command that gets no response, or whose response the barrier
    /// protocol consumes synchronously.
    fn cmd(&self, w: usize, cmd: Cmd) {
        self.hb.send_cmd(w);
        self.pool.push(w, cmd);
    }

    /// Deliver `batch` to worker `w`, chunked at the wire cap
    /// (`batch_max_msgs`): the paper's 32-message batches as physical
    /// envelopes, bounding per-envelope latency under bursts.
    fn deliver(&self, q: QueryId, w: usize, batch: MessageBatch, task: &dyn QueryTask) {
        for chunk in task.split_batch(batch, self.batch_cap) {
            self.cmd(w, Cmd::Deliver { q, batch: chunk });
        }
    }

    /// Run query `q`'s current superstep on worker `w`.
    fn step(&mut self, q: QueryId, w: usize, ledger: &QueryLedger) {
        self.hb.send_step(q.0, w);
        let prev_agg = ledger.prev_aggregate();
        self.pool.push(w, Cmd::Step { q, prev_agg });
        self.inflight += 1;
    }

    fn collect(&mut self, q: QueryId, w: usize) {
        self.hb.send_collect(q.0, w);
        self.pool.push(w, Cmd::Collect { q });
        self.inflight += 1;
    }
}

/// The coordinator: owns the drive loop while the engine serves. All of
/// the engine's measurement state lives here for the session and flows
/// back through drain snapshots / the exit value.
struct Coordinator {
    topology: Topology,
    cfg: SystemConfig,
    controller: Controller,
    partitioning: Partitioning,
    tasks: TaskRegistry,
    index: Option<Box<dyn PointIndex>>,
    report: EngineReport,
    /// Happens-before auditor (no-op unless `check-hb`): stamps the
    /// response channel edges, quiesce windows, and topology/partitioning
    /// publications of the serve protocol (the command edges are stamped
    /// by [`Lanes`]).
    hb: Hb,
    lanes: Lanes,
    cs: ClientState,
    /// Structured event recorder (no-op unless `trace`); the pool threads
    /// hold clones of the same recorder and stamp off the same clock.
    tracer: Tracer,
    /// The session time base shared with every pool thread.
    clock: Clock,
    done_tx: Sender<Completion>,
    /// Admitted queries that have not finished yet.
    tracking: FxHashMap<QueryId, QueryTracking>,
    /// Queries parked at their barrier by a pending stop-the-world phase,
    /// with the workers their next superstep involves.
    parked: Vec<(QueryId, Vec<usize>)>,
    /// Pool counters carried into the session: this session's `TaskPool`
    /// starts its own stats at zero, so the report's totals fold these in
    /// (step tasks count straight into `report.pool.tasks`).
    pool_base: PoolCounters,
    /// Where the current run window opened.
    run_started: f64,
    /// The engine holds an identical report prefix; drains ship only what
    /// was appended past these marks.
    synced: ReportMarks,
    /// Supersteps completed and vertex updates per worker in the current
    /// trigger window.
    window_supersteps: usize,
    worker_activity: Vec<usize>,
    /// A Q-cut phase is pending; its trigger fired at this time.
    repart_triggered_at: Option<f64>,
    /// In-flight ops at or below which the workers count as quiescent
    /// (see [`ThreadEngine::hb_test_reintroduce_quiesce_race`]).
    quiesce_at: usize,
}

impl Coordinator {
    /// The serving loop: runs until [`CoordMsg::Shutdown`], then stops the
    /// pool and returns the final state.
    fn serve(mut self) -> CoordinatorExit {
        self.report.admission_policy = self.cfg.admission.label().to_string();
        loop {
            // Pick up a mid-serve index install (last one wins) before any
            // admission decision of this turn.
            if let Some(ix) = self.cs.pending_index.take() {
                self.index = Some(ix);
            }

            // Surface bounded-queue rejections as distinct outcomes (the
            // submission never executed; its output stays `None`).
            for (q, program, at) in self.cs.rejected.drain(..) {
                let outcome = QueryOutcome::rejected(q, program, at, self.topology.epoch());
                record_outcome(&mut self.report, &self.hb, &self.tracer, outcome);
            }

            // Stop-the-world phase — mutation epochs and/or Q-cut — runs
            // once the in-flight work has drained (every tracked query is
            // then parked or collected). One barrier serves both: a
            // mutation landing while a repartition is pending costs no
            // extra quiesce.
            if self.stop_pending() && self.lanes.inflight <= self.quiesce_at {
                self.stop_the_world();
                continue;
            }

            // Drain acks fire at full idle: nothing tracked, waiting,
            // parked, or mid-barrier. Each ack closes one run window.
            if !self.cs.drain_waiters.is_empty() && self.cs.scheduler.is_empty() && self.idle() {
                self.ack_drains();
            }

            // Stop only once admitted work has finished: a submission the
            // coordinator already started executing is never abandoned
            // (its completion streams out and shutdown() collects it).
            if self.cs.shutdown && self.idle() {
                break;
            }

            let Ok(msg) = self.cs.rx.recv() else {
                // Every sender (engine handle included) is gone.
                break;
            };
            self.hb.coord_recv();
            // One clock read per message turn, shared by the absorb
            // stamp, activity samples, and every tracer event this turn
            // emits — repeated reads are measurable on chained
            // single-partition supersteps.
            let now = self.clock.now();
            match self.cs.absorb(msg, &self.tasks, now) {
                None => self.admit(),
                Some(Resp::StepDone(done)) => self.on_step_done(now, done),
                Some(Resp::Collected { q, local }) => self.on_collected(now, q, local),
                Some(_) => unreachable!("barrier responses are consumed synchronously"),
            }
        }
        self.teardown()
    }

    /// A mutation batch or a Q-cut phase is waiting for the next
    /// stop-the-world barrier.
    fn stop_pending(&self) -> bool {
        self.repart_triggered_at.is_some() || !self.cs.mutations.is_empty()
    }

    /// Nothing admitted is tracked, parked, in flight, or waiting on a
    /// barrier.
    fn idle(&self) -> bool {
        self.tracking.is_empty()
            && self.parked.is_empty()
            && !self.stop_pending()
            && self.lanes.inflight == 0
    }

    /// Start a fresh trigger-evaluation window: used when a checkpoint
    /// declines to repartition, when a barrier ends, and when the engine
    /// goes idle at a drain — every windowed counter resets at exactly
    /// the same points, and an idle gap can never leak stale skew into
    /// the next burst's trigger.
    fn reset_trigger_window(&mut self) {
        self.window_supersteps = 0;
        self.worker_activity.iter_mut().for_each(|a| *a = 0);
        for t in self.tracking.values_mut() {
            t.window_iterations = 0;
            t.window_local = 0;
        }
    }

    /// Refresh the report's cumulative pool counters from the live pool
    /// (called at every drain ack and at teardown, so snapshots and the
    /// exit value always carry current totals).
    fn sync_pool_counters(&mut self) {
        let ps = self.lanes.pool.stats();
        self.report.pool.threads = self.lanes.pool.width();
        self.report.pool.steals = self.pool_base.steals + ps.steals;
        self.report.pool.idle_waits = self.pool_base.idle_waits + ps.idle_waits;
    }

    /// Admit waiting queries into free closed-loop slots (held back while
    /// a stop-the-world phase is pending, and once a shutdown is
    /// requested — already-admitted queries finish, queued ones drop).
    fn admit(&mut self) {
        while !self.stop_pending()
            && !self.cs.shutdown
            && self.tracking.len() < self.cfg.max_parallel_queries.max(1)
        {
            let Some(entry) = self.cs.scheduler.pop() else {
                break;
            };
            self.start_query(entry);
        }
    }

    /// Closed-loop seeding: start a query popped from the admission
    /// queue. An index-served query, or one with no initial messages
    /// (finalized over the empty state set), finishes on the spot and
    /// takes no slot.
    fn start_query(&mut self, entry: QueueEntry) {
        let q = entry.q;
        let now = self.clock.now();
        let task = Arc::clone(&reg_read(&self.tasks)[q.index()]);
        let mut ledger = QueryLedger::new(task, q, entry.enqueued_at);
        let admission = ledger.admit(
            now,
            &self.topology,
            &self.partitioning,
            self.index.as_deref(),
            &self.cfg,
            self.lanes.pool.width(),
        );
        let epoch = self.topology.epoch();
        let batches = match admission {
            Admission::Indexed(output) => {
                self.complete(ledger.finish(ServedBy::Index, now, 0, epoch), output);
                return;
            }
            Admission::Traverse(batches) if batches.is_empty() => {
                let output = ledger.task.finalize(&self.topology, Vec::new());
                self.complete(ledger.finish(ServedBy::Traversal, now, 0, epoch), output);
                return;
            }
            Admission::Traverse(batches) => batches,
        };
        let mut t = QueryTracking {
            ledger,
            next_involved: FxHashSet::default(),
            touched: FxHashSet::default(),
            collecting: 0,
            locals: Vec::new(),
            window_iterations: 0,
            window_local: 0,
        };
        let mut involved = Vec::with_capacity(batches.len());
        for (w, batch) in batches {
            t.touched.insert(w);
            self.lanes.deliver(q, w, batch, t.ledger.task.as_ref());
            involved.push(w);
        }
        self.tracking.insert(q, t);
        self.release(q, &involved, now);
    }

    /// Release query `q`'s next superstep to the given involved workers —
    /// the one dispatch path of admission, the barrier release, and the
    /// post-repartition resume. Freezes *every* involved inbox first,
    /// then dispatches up to the query's DoP budget of Steps, deferring
    /// the rest: a deferred partition's input is already sealed, so
    /// nothing an earlier task of this superstep produces can leak into
    /// it.
    fn release(&mut self, q: QueryId, involved: &[usize], at: SimTime) {
        let Some(t) = self.tracking.get_mut(&q) else {
            debug_assert!(false, "released query {q:?} is not tracked");
            return;
        };
        let n = t.ledger.open_superstep(involved);
        for &w in involved {
            self.lanes.cmd(w, Cmd::Freeze { q });
        }
        for &w in &involved[..n] {
            self.lanes.step(q, w, &t.ledger);
        }
        for &w in &involved[n..] {
            self.tracer
                .defer(at.as_secs_f64(), u64::from(q.0), w as u32);
        }
    }

    /// Query `q` terminated: collect its states from every touched worker.
    fn collect(&mut self, q: QueryId) {
        let Some(t) = self.tracking.get_mut(&q) else {
            debug_assert!(false, "collected query {q:?} is not tracked");
            return;
        };
        t.collecting = t.touched.len();
        for &w in &t.touched {
            self.lanes.collect(q, w);
        }
    }

    /// Ship a finished query's output to the engine and record its outcome.
    fn complete(&mut self, outcome: QueryOutcome, output: Envelope) {
        let _ = self.done_tx.send(Completion {
            q: outcome.id,
            output,
        });
        self.report.finished_at_secs = outcome.completed_at.as_secs_f64();
        record_outcome(&mut self.report, &self.hb, &self.tracer, outcome);
    }

    fn on_step_done(&mut self, now: SimTime, done: StepDone) {
        let StepDone {
            q,
            worker,
            stats,
            agg,
            remote,
            self_pending,
        } = done;
        self.lanes.inflight -= 1;
        self.report.pool.tasks += 1;
        self.hb.token_close(q.0, kind::STEP);
        self.report.activity.push(ActivitySample {
            t: now.as_secs_f64(),
            worker,
            executed: stats.executed as u64,
        });
        self.worker_activity[worker] += stats.executed;
        // A StepDone can only answer a Step this loop issued, and tracking
        // entries outlive their outstanding steps.
        // qlint: allow(no-unwrap-hot-loop) — protocol invariant, see above
        let t = self.tracking.get_mut(&q).expect("tracked query");
        if let Some(w_next) = t.ledger.task_done(&stats, &agg) {
            self.tracer
                .defer_release(now.as_secs_f64(), u64::from(q.0), w_next as u32);
            self.lanes.step(q, w_next, &t.ledger);
        }
        if self_pending {
            t.next_involved.insert(worker);
        }
        for (w2, batch) in remote {
            t.next_involved.insert(w2);
            t.touched.insert(w2);
            self.lanes.deliver(q, w2, batch, t.ledger.task.as_ref());
        }
        if t.ledger.remaining > 0 {
            return;
        }
        self.tracer
            .superstep_done(now.as_secs_f64(), u64::from(q.0));
        let mut next: Vec<usize> = t.next_involved.drain().collect();
        next.sort_unstable();
        let (is_local, terminate) = t.ledger.close_superstep(next.is_empty());
        t.window_iterations += 1;
        if is_local {
            t.window_local += 1;
        }
        self.window_supersteps += 1;
        if terminate {
            self.collect(q);
        } else if self.stop_pending() {
            // STOP: park at the barrier until the stop-the-world phase
            // (Q-cut and/or mutation epoch) has run.
            self.tracer.park(now.as_secs_f64(), u64::from(q.0));
            self.parked.push((q, next));
        } else {
            self.release(q, &next, now);
        }
        self.maybe_trigger_qcut(now);
    }

    /// Periodic trigger: every `qcut_interval` completed supersteps,
    /// consult the controller thresholds.
    fn maybe_trigger_qcut(&mut self, now: SimTime) {
        let interval = self.cfg.qcut.as_ref().map_or(0, |c| c.qcut_interval);
        if self.repart_triggered_at.is_some() || interval == 0 || self.window_supersteps < interval
        {
            return;
        }
        if self.tracking.len() < 2 {
            // A solo query never repartitions, but its window must not
            // accumulate either — a stale solo-phase activity skew would
            // fire a spurious barrier the moment a second query is
            // admitted.
            self.reset_trigger_window();
            return;
        }
        // Windowed locality (supersteps since the last checkpoint): a
        // long query's stale early history must not keep re-firing
        // barriers after a successful migration.
        let mut sum = 0.0f64;
        let mut active = 0usize;
        for t in self.tracking.values() {
            if t.window_iterations > 0 {
                sum += t.window_local as f64 / t.window_iterations as f64;
                active += 1;
            }
        }
        let mean_locality = if active == 0 {
            1.0
        } else {
            sum / active as f64
        };
        let imbalance = qgraph_partition::imbalance(&self.worker_activity);
        if self
            .controller
            .interval_trigger(mean_locality, imbalance, active)
        {
            self.repart_triggered_at = Some(now.as_secs_f64());
        } else {
            self.reset_trigger_window();
        }
    }

    fn on_collected(&mut self, now: SimTime, q: QueryId, local: Option<Box<dyn LocalState>>) {
        self.lanes.inflight -= 1;
        self.hb.token_close(q.0, kind::COLLECT);
        // Collects are only issued for tracked queries and the entry stays
        // until the last one (counted) returns.
        // qlint: allow(no-unwrap-hot-loop) — protocol invariant, see above
        let t = self.tracking.get_mut(&q).expect("tracked query");
        t.locals.extend(local);
        t.collecting -= 1;
        if t.collecting > 0 {
            return;
        }
        let Some(t) = self.tracking.remove(&q) else {
            return;
        };
        let scope_size: u64 = t.locals.iter().map(|l| l.scope_size() as u64).sum();
        if self.cfg.qcut.is_some() {
            // Retain the scope for the monitoring window (only worth
            // materializing when Q-cut runs); streamed into one buffer via
            // the visitor.
            let mut scope: Vec<VertexId> = Vec::new();
            for l in &t.locals {
                l.for_each_scope_vertex(&mut |v| scope.push(v));
            }
            self.controller.record_finished_scope(q, scope, now);
            self.controller.expire(now);
        }
        let epoch = self.topology.epoch();
        let outcome = t.ledger.finish(ServedBy::Traversal, now, scope_size, epoch);
        self.complete(outcome, t.ledger.task.finalize(&self.topology, t.locals));
        // Closed loop: admit the next waiting query (held back while a
        // stop-the-world phase is pending).
        self.admit();
    }

    /// The stop-the-world barrier, entered once the workers are
    /// quiescent: apply the mutation epochs, run the Q-cut repartition,
    /// then release the parked queries and re-open admissions.
    fn stop_the_world(&mut self) {
        let entered_at = self.clock.now().as_secs_f64();
        // The quiesce window opens only once every Step/Collect token is
        // closed — the auditor holds us to exactly that.
        self.hb.quiesce_begin();
        self.tracer.quiesce_begin(entered_at);
        let k = self.partitioning.num_workers();

        // Phase 1: mutation epochs, in arrival order (the shared barrier
        // body — see `controller::apply_mutation_epochs`).
        let apply = apply_mutation_epochs(
            &mut self.topology,
            &mut self.partitioning,
            &mut self.controller,
            &mut self.report,
            &self.hb,
            std::mem::take(&mut self.cs.mutations),
            self.cfg.compact_fraction,
            entered_at,
            self.index.as_deref_mut(),
        );
        // The repair stages ran inside `apply_mutation_epochs`: the span
        // covers the apply call.
        apply.stamp(&self.tracer, entered_at, self.clock.now().as_secs_f64());
        if apply.batches > 0 {
            let pv = self.hb.publish_partitioning(0);
            // Broadcast the new epoch (and the assignment grown by
            // new-vertex placement) before anything resumes: every
            // subsequent superstep executes and routes against it.
            let topo = Arc::new(self.topology.clone());
            let parts = Arc::new(self.partitioning.clone());
            for w in 0..k {
                self.hb.send_topology(w, self.topology.epoch());
                self.lanes.pool.push(w, Cmd::SetTopology(Arc::clone(&topo)));
                self.hb.send_partitioning(w, pv);
                self.lanes
                    .pool
                    .push(w, Cmd::SetPartitioning(Arc::clone(&parts)));
            }
        }

        // Phase 2: the Q-cut repartition, under the same barrier.
        let mut applied = false;
        if let Some(triggered_at) = self.repart_triggered_at {
            self.tracer.qcut_begin(self.clock.now().as_secs_f64());
            let outcome = self.qcut_barrier();
            self.tracer.qcut_end(self.clock.now().as_secs_f64());
            if let Some((ils, migration, locality_before, locality_after)) = outcome {
                applied = true;
                let applied_at = self.clock.now().as_secs_f64();
                self.report.repartitions.push(RepartitionEvent {
                    triggered_at,
                    applied_at,
                    barrier_duration: applied_at - entered_at,
                    moved_vertices: migration.moved_vertices,
                    locality_before,
                    locality_after,
                    ils,
                });
            }
        }
        apply.close(
            &mut self.report,
            self.clock.now().as_secs_f64() - entered_at,
        );
        if applied {
            // The migration moved pending inboxes between workers: rebuild
            // every parked query's involved set from the workers'
            // post-migration pending reports.
            for w in 0..k {
                self.lanes.cmd(w, Cmd::PendingReport);
            }
            let mut pending_on: FxHashMap<QueryId, Vec<usize>> = FxHashMap::default();
            for _ in 0..k {
                match self.cs.recv_worker(&self.tasks, self.clock.now(), &self.hb) {
                    Resp::Pending { worker, queries } => {
                        for q in queries {
                            pending_on.entry(q).or_default().push(worker);
                        }
                    }
                    _ => unreachable!("quiesced workers only answer the pending report"),
                }
            }
            for (q, next) in self.parked.iter_mut() {
                let mut n = pending_on.remove(q).unwrap_or_default();
                n.sort_unstable();
                *next = n;
            }
        }
        // START: release the parked queries against the (possibly new)
        // layout, then re-open admissions. The quiesce window closes first
        // — releases are dispatches, and a dispatch inside the window is
        // exactly the PR-2 race.
        self.hb.quiesce_end();
        let released_at = self.clock.now();
        self.tracer.quiesce_end(released_at.as_secs_f64());
        // The pool is provably idle inside the barrier: the cheapest
        // possible point to move lane rings into the central buffer.
        self.tracer.drain();
        for (q, next) in std::mem::take(&mut self.parked) {
            self.tracer
                .unpark(released_at.as_secs_f64(), u64::from(q.0));
            if next.is_empty() {
                // Defensive: migration preserves pending messages, so a
                // parked query cannot lose them — surface the broken
                // invariant loudly in debug builds, finish the query
                // rather than deadlock in release.
                debug_assert!(
                    false,
                    "parked query {q:?} lost its pending messages across a migration"
                );
                self.collect(q);
            } else {
                self.release(q, &next, released_at);
            }
        }
        self.repart_triggered_at = None;
        self.reset_trigger_window();
        self.admit();
    }

    /// Every drain waiter gets the report delta past the engine's synced
    /// prefix (the engine is idle); one run window closes.
    fn ack_drains(&mut self) {
        let end = self.clock.now().as_secs_f64();
        self.report.finished_at_secs = end;
        // Counters first: the closing window's per-window pool delta is
        // computed against the *current* totals. The lanes are idle at a
        // drain, so their rings drain fully.
        self.sync_pool_counters();
        self.tracer.drain();
        self.report.trace.absorb(&self.tracer);
        self.report
            .close_run(self.run_started, end, self.report.pool);
        self.run_started = end;
        self.reset_trigger_window();
        for ack in self.cs.drain_waiters.drain(..) {
            // Only the delta past the engine's synced prefix; a second
            // waiter in the same idle moment gets an empty one (its
            // engine-side state is already current).
            let _ = ack.send(Snapshot {
                report: self.report.delta_since(self.synced),
                partitioning: self.partitioning.clone(),
                topology: self.topology.clone(),
            });
            self.synced = self.report.marks();
        }
    }

    /// Drain and join the pool threads (propagating any pool thread's own
    /// panic payload), then close any trailing run window so every
    /// outcome has a home.
    fn teardown(mut self) -> CoordinatorExit {
        self.sync_pool_counters();
        self.lanes.pool.shutdown();
        self.tracer.drain();
        self.report.trace.absorb(&self.tracer);
        let runs_before = self.report.runs.len();
        let end = self.clock.now().as_secs_f64();
        // `close_run` no-ops when nothing happened past the last boundary
        // (the normal case: shutdown() drained first).
        self.report
            .close_run(self.run_started, end, self.report.pool);
        if self.report.runs.len() > runs_before {
            self.report.finished_at_secs = end;
        }
        CoordinatorExit {
            report: self.report,
            partitioning: self.partitioning,
            topology: self.topology,
            controller: self.controller,
            index: self.index,
        }
    }

    /// The stop-the-world Q-cut phase body (workers quiescent): gather
    /// scope statistics, run the ILS, migrate the resolved vertex
    /// transfers across the worker channels, commit + broadcast the new
    /// assignment. Returns `None` when the phase decides not to
    /// repartition (too few scopes, empty plan, or nothing to move).
    fn qcut_barrier(&mut self) -> Option<(IlsResult, Migration, f64, f64)> {
        let cfg = self.cfg.qcut.clone()?;
        let k = self.partitioning.num_workers();
        // Trigger evaluation only sees scopes within the monitoring
        // window — a burst of short queries followed by quiet must not
        // keep stale scopes feeding the ILS.
        self.controller.expire(self.clock.now());

        // Aggregate per-scope statistics from the live query state.
        for w in 0..k {
            self.lanes.cmd(w, Cmd::ScopeReport);
        }
        let mut scope_map: FxHashMap<(QueryId, usize), Vec<VertexId>> = FxHashMap::default();
        let mut per_query: FxHashMap<QueryId, Vec<VertexId>> = FxHashMap::default();
        for _ in 0..k {
            match self.cs.recv_worker(&self.tasks, self.clock.now(), &self.hb) {
                Resp::Scopes { worker, scopes } => {
                    for (q, vs) in scopes {
                        if !self.tracking.contains_key(&q) {
                            continue;
                        }
                        per_query.entry(q).or_default().extend(vs.iter().copied());
                        scope_map.insert((q, worker), vs);
                    }
                }
                _ => unreachable!("quiesced workers only answer the scope report"),
            }
        }
        let mut live: Vec<(QueryId, Vec<VertexId>)> = per_query.into_iter().collect();
        live.sort_unstable_by_key(|(q, _)| *q);

        let stats = self.controller.build_scope_stats(&live, &self.partitioning);
        if stats.queries.len() < 2 {
            return None;
        }
        let result = run_qcut(&stats, &cfg);
        if result.plan.is_empty() {
            return None;
        }

        // Resolve the plan: live scopes from the snapshot just gathered,
        // finished queries from the controller's retained scopes.
        let migration = {
            let controller = &self.controller;
            let tracking = &self.tracking;
            let mut scope_of = |q: QueryId, w: usize| -> Vec<VertexId> {
                if tracking.contains_key(&q) {
                    scope_map.get(&(q, w)).cloned().unwrap_or_default()
                } else {
                    controller
                        .finished_scope(q)
                        .map(|vs| vs.to_vec())
                        .unwrap_or_default()
                }
            };
            migrate::resolve_plan(&result.plan, &self.partitioning, &mut scope_of)
        };
        if migration.is_empty() {
            return None;
        }
        let observed = self.controller.observed_scopes(&live);
        // Split borrows: the closure drives the worker channels while
        // `self.partitioning` is mutably held by `apply_measured`.
        let (lanes, cs, tracking) = (&self.lanes, &mut self.cs, &mut self.tracking);
        let (tasks, hb, clock) = (&self.tasks, &self.hb, &self.clock);
        let (locality_before, locality_after) =
            migrate::apply_measured(&migration, &mut self.partitioning, &observed, || {
                // Migrate vertex ownership and in-flight program state
                // across the worker channels. All extracts are issued up
                // front (independent source workers run them in parallel);
                // each response is forwarded to its destination as it
                // arrives. Safe to interleave because the resolved moves'
                // vertex sets are pairwise disjoint — an inject can never
                // overlap a still-queued extract on the same worker.
                for (token, mv) in migration.moves.iter().enumerate() {
                    let vertices = mv.vertices.clone();
                    lanes.cmd(mv.from, Cmd::Extract { token, vertices });
                }
                for _ in 0..migration.moves.len() {
                    let (token, data) = match cs.recv_worker(tasks, clock.now(), hb) {
                        Resp::Extracted { token, data } => (token, data),
                        _ => unreachable!("quiesced workers only answer the extract"),
                    };
                    let mv = &migration.moves[token];
                    for (q, _) in &data {
                        if let Some(t) = tracking.get_mut(q) {
                            t.touched.insert(mv.to);
                        }
                    }
                    if !data.is_empty() {
                        lanes.cmd(mv.to, Cmd::Inject { data });
                    }
                }
            });

        // Broadcast the new assignment before anything resumes: every
        // subsequent superstep routes against the new owners.
        let pv = self.hb.publish_partitioning(0);
        let shared = Arc::new(self.partitioning.clone());
        for w in 0..k {
            self.hb.send_partitioning(w, pv);
            self.lanes
                .pool
                .push(w, Cmd::SetPartitioning(Arc::clone(&shared)));
        }
        Some((result, migration, locality_before, locality_after))
    }
}

/// The partition-owned state a pool task operates on: the logical
/// actor's [`Worker`] (vertex values, inboxes, Q-cut scope) plus its view
/// of the published topology and assignment. Placement stays fixed to the
/// partition — only *compute* is elastic — so everything that used to be
/// a dedicated worker thread's locals lives here, and whichever pool
/// thread draws the partition's next command locks it. The pool
/// serializes commands per partition, so the lock is never contended; it
/// exists to move the state between pool threads.
struct WorkerCtx {
    worker: Worker,
    topology: Arc<Topology>,
    partitioning: Arc<Partitioning>,
}

/// One pool task: execute a single protocol command against partition
/// `w`'s state — the body of the old per-partition thread loop. The hb
/// auditor brackets it with the pool hand-off edges
/// ([`Hb::pool_acquire`]/[`Hb::pool_release`]) that now carry the
/// actor-serialization guarantee the dedicated threads used to give for
/// free.
#[allow(clippy::too_many_arguments)]
fn handle_cmd(
    tid: usize,
    width: usize,
    w: usize,
    cmd: Cmd,
    ctxs: &[Mutex<WorkerCtx>],
    registry: &TaskRegistry,
    resp: &Sender<CoordMsg>,
    hb: &Hb,
    tracer: &Tracer,
    clock: &Clock,
) {
    hb.pool_acquire(w);
    // Every executed command joins the clock snapshot the coordinator
    // queued at the matching send — the channel edge of the HB graph.
    hb.worker_recv(w);
    // The lane span opens before the state lock: lock wait is part of
    // the task's runtime as the pool experiences it. Steals are labelled
    // the same way `pick()` counts them — off the affine thread.
    let traced: Option<(QueryId, u8, f64)> = if tracer.enabled() {
        let code = match &cmd {
            Cmd::Deliver { q, .. } => Some((*q, cmd::DELIVER)),
            Cmd::Freeze { q } => Some((*q, cmd::FREEZE)),
            Cmd::Step { q, .. } => Some((*q, cmd::STEP)),
            Cmd::Collect { q } => Some((*q, cmd::COLLECT)),
            _ => None,
        };
        // The begin stamp is read here but recorded with the end stamp
        // below: one ring lock per task instead of two keeps the span's
        // serial cost on chained point queries in check.
        code.map(|(q, c)| (q, c, clock.now().as_secs_f64()))
    } else {
        None
    };
    let mut guard = ctxs[w]
        .lock()
        // qlint: allow(no-unwrap-hot-loop) — poisoned ⇒ a sibling pool thread already panicked; propagate
        .expect("worker state poisoned by an earlier panic");
    let ctx = &mut *guard;
    let task_of = |q: QueryId| -> Arc<dyn QueryTask> { Arc::clone(&reg_read(registry)[q.index()]) };
    let mut executed_n: u64 = 0;
    // Every command produces at most one response; funneling them through
    // a single send gives one clean-shutdown path instead of a panic per
    // protocol arm.
    let reply: Option<Resp> = match cmd {
        Cmd::Deliver { q, batch } => {
            let task = task_of(q);
            ctx.worker.deliver(task.as_ref(), q, batch);
            None
        }
        Cmd::Freeze { q } => {
            // Barrier release sealed this superstep's input; anything
            // delivered from here on belongs to the next superstep.
            ctx.worker.freeze(q);
            None
        }
        Cmd::Step { q, prev_agg } => {
            // The superstep reads the published topology/assignment: the
            // auditor checks this worker's clock is ordered after the
            // latest publication before any vertex executes.
            hb.worker_step(w);
            let task = task_of(q);
            let route = |v: VertexId| ctx.partitioning.worker_of(v).index();
            let (stats, agg, remote) =
                ctx.worker
                    .execute(q, task.as_ref(), &ctx.topology, &prev_agg, &route);
            executed_n = stats.executed as u64;
            Some(Resp::StepDone(StepDone {
                q,
                worker: w,
                stats,
                agg,
                remote,
                self_pending: ctx.worker.has_pending(q),
            }))
        }
        Cmd::Collect { q } => {
            let local = ctx.worker.take_local(q);
            Some(Resp::Collected { q, local })
        }
        Cmd::ScopeReport => {
            let mut qs: Vec<QueryId> = ctx.worker.active_queries().collect();
            qs.sort_unstable();
            let scopes: Vec<(QueryId, Vec<VertexId>)> = qs
                .into_iter()
                .map(|q| {
                    let mut vs = ctx.worker.scope_vertices(q);
                    vs.sort_unstable();
                    (q, vs)
                })
                .collect();
            Some(Resp::Scopes { worker: w, scopes })
        }
        Cmd::Extract { token, vertices } => {
            let set: FxHashSet<VertexId> = vertices.into_iter().collect();
            let data = ctx.worker.extract_vertices(&task_of, &set);
            Some(Resp::Extracted { token, data })
        }
        Cmd::Inject { data } => {
            ctx.worker.inject_vertices(&task_of, data);
            None
        }
        Cmd::SetPartitioning(p) => {
            ctx.partitioning = p;
            None
        }
        Cmd::SetTopology(t) => {
            ctx.topology = t;
            None
        }
        Cmd::PendingReport => {
            let mut queries: Vec<QueryId> = ctx
                .worker
                .active_queries()
                .filter(|&q| ctx.worker.has_pending(q))
                .collect();
            queries.sort_unstable();
            Some(Resp::Pending { worker: w, queries })
        }
    };
    if let Some((q, code, begin_at)) = traced {
        tracer.task_span(
            begin_at,
            clock.now().as_secs_f64(),
            tid as u32,
            u64::from(q.0),
            w as u32,
            code,
            w % width != tid,
            executed_n,
        );
    }
    if let Some(r) = reply {
        hb.worker_send(w);
        // The coordinator hanging up (its thread panicked or exited
        // early) is tolerable: nobody is left to consume responses, and
        // the pool is torn down right behind it.
        let _ = resp.send(CoordMsg::Worker(r));
    }
    hb.pool_release(w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QcutConfig;
    use crate::programs::{PingProgram, ReachProgram};
    use qgraph_graph::GraphBuilder;
    use qgraph_partition::{Partitioner, RangePartitioner};

    fn line(n: usize) -> Arc<Graph> {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as u32, i as u32 + 1, 1.0);
        }
        Arc::new(b.build())
    }

    #[test]
    fn single_query_runs_to_completion() {
        let g = line(12);
        let parts = RangePartitioner.partition(&g, 3);
        let mut e = ThreadEngine::new(Arc::clone(&g), parts);
        let q = e.submit(ReachProgram::new(VertexId(0)));
        e.run();
        assert_eq!(e.output(&q).unwrap().len(), 12);
        assert_eq!(e.report().outcomes.len(), 1);
        let o = &e.report().outcomes[0];
        assert_eq!(o.iterations, 12);
        assert_eq!(o.program, "reach");
        assert!(o.queueing_delay_secs() >= 0.0);
        assert!(o.time_in_system_secs() >= o.latency_secs());
    }

    #[test]
    fn many_parallel_queries() {
        let g = line(64);
        let parts = RangePartitioner.partition(&g, 4);
        let mut e = ThreadEngine::new(Arc::clone(&g), parts);
        let qs: Vec<_> = (0..12u32)
            .map(|i| e.submit(ReachProgram::bounded(VertexId(i * 5), 4)))
            .collect();
        e.run();
        assert_eq!(e.report().outcomes.len(), 12);
        for (i, q) in qs.iter().enumerate() {
            assert_eq!(q.id(), QueryId(i as u32));
            assert!(!e.output(q).unwrap().is_empty());
        }
    }

    #[test]
    fn heterogeneous_queries_in_one_run() {
        let g = line(16);
        let parts = RangePartitioner.partition(&g, 2);
        let mut e = ThreadEngine::new(Arc::clone(&g), parts);
        let reach = e.submit(ReachProgram::bounded(VertexId(0), 5));
        let ping = e.submit(PingProgram {
            ring: vec![VertexId(2), VertexId(14)],
            rounds: 6,
        });
        e.run();
        assert_eq!(e.output(&reach).unwrap().len(), 6);
        assert_eq!(*e.output(&ping).unwrap(), 5);
        let mut programs: Vec<&str> = e.report().outcomes.iter().map(|o| o.program).collect();
        programs.sort_unstable();
        assert_eq!(programs, vec!["ping", "reach"]);
    }

    #[test]
    fn empty_run_is_a_no_op() {
        let g = line(4);
        let parts = RangePartitioner.partition(&g, 2);
        let mut e = ThreadEngine::new(g, parts);
        e.run();
        assert!(e.report().outcomes.is_empty());
    }

    #[test]
    fn run_then_submit_then_run_again() {
        let g = line(8);
        let parts = RangePartitioner.partition(&g, 2);
        let mut e = ThreadEngine::new(Arc::clone(&g), parts);
        let q1 = e.submit(ReachProgram::new(VertexId(3)));
        e.run();
        let q2 = e.submit(ReachProgram::new(VertexId(6)));
        e.run();
        assert_eq!(e.output(&q1).unwrap().len(), 5);
        assert_eq!(e.output(&q2).unwrap().len(), 2);
        assert_eq!(e.report().outcomes.len(), 2);
        // Each run closed its own window over the cumulative report.
        assert_eq!(e.report().runs.len(), 2);
        assert_eq!(e.report().run_outcomes(0).len(), 1);
        assert_eq!(e.report().run_outcomes(1).len(), 1);
    }

    #[test]
    fn drain_without_start_runs_pre_submitted_queries() {
        let g = line(8);
        let parts = RangePartitioner.partition(&g, 2);
        let mut e = ThreadEngine::new(Arc::clone(&g), parts);
        let q = e.submit(ReachProgram::new(VertexId(0)));
        // drain() must honor its contract and execute the backlog, not
        // return early because start() was never called.
        e.drain();
        assert_eq!(e.output(&q).unwrap().len(), 8);
        assert_eq!(e.report().outcomes.len(), 1);
        // ...but a never-started, never-submitted engine stays inert.
        let parts = RangePartitioner.partition(&g, 2);
        let mut idle = ThreadEngine::new(Arc::clone(&g), parts);
        idle.drain();
        assert!(idle.report().outcomes.is_empty());
    }

    #[test]
    fn locality_matches_sim_engine_definition() {
        // The superstep crossing the 5->6 partition boundary runs on one
        // worker but sends a remote message: per the canonical rule
        // (`barrier::decide`: one involved worker AND nothing crossed) it
        // must not count as local — same as the simulated engine.
        let g = line(12);
        let parts = RangePartitioner.partition(&g, 2);
        let mut e = ThreadEngine::new(Arc::clone(&g), parts);
        let q = e.submit(ReachProgram::new(VertexId(0)));
        e.run();
        assert_eq!(e.output(&q).unwrap().len(), 12);
        let o = &e.report().outcomes[0];
        assert!(o.remote_messages >= 1);
        assert!(o.locality() < 1.0, "crossing superstep counted as local");
    }

    #[test]
    fn report_time_base_is_monotonic_across_runs() {
        let g = line(8);
        let parts = RangePartitioner.partition(&g, 2);
        let mut e = ThreadEngine::new(Arc::clone(&g), parts);
        e.submit(ReachProgram::new(VertexId(0)));
        e.run();
        let first_end = e.report().finished_at_secs;
        e.submit(ReachProgram::new(VertexId(4)));
        e.run();
        let report = e.report();
        assert!(report.finished_at_secs >= first_end);
        for o in &report.outcomes {
            assert!(
                o.completed_at.as_secs_f64() <= report.finished_at_secs + 1e-9,
                "outcome completes after the report's end"
            );
        }
        let second = &report.outcomes[1];
        assert!(second.submitted_at.as_secs_f64() >= first_end - 1e-9);
    }

    #[test]
    fn time_base_survives_shutdown_and_restart() {
        let g = line(8);
        let parts = RangePartitioner.partition(&g, 2);
        let mut e = ThreadEngine::new(Arc::clone(&g), parts);
        e.submit(ReachProgram::new(VertexId(0)));
        e.run();
        let first_end = e.report().finished_at_secs;
        e.shutdown();
        // A fresh serve session continues the report's time base.
        e.submit(ReachProgram::new(VertexId(4)));
        e.run();
        let second = &e.report().outcomes[1];
        assert!(second.submitted_at.as_secs_f64() >= first_end - 1e-9);
        assert_eq!(e.report().outcomes.len(), 2);
    }

    #[test]
    fn single_worker_partition() {
        let g = line(8);
        let parts = RangePartitioner.partition(&g, 1);
        let mut e = ThreadEngine::new(Arc::clone(&g), parts);
        let q = e.submit(ReachProgram::new(VertexId(3)));
        e.run();
        assert_eq!(e.output(&q).unwrap().len(), 5);
        assert_eq!(e.report().outcomes[0].locality(), 1.0);
    }

    #[test]
    fn closed_loop_respects_max_parallel() {
        let g = line(32);
        let parts = RangePartitioner.partition(&g, 2);
        let cfg = SystemConfig {
            max_parallel_queries: 2,
            ..Default::default()
        };
        let mut e = ThreadEngine::with_config(Arc::clone(&g), parts, cfg);
        let qs: Vec<_> = (0..6u32)
            .map(|i| e.submit(ReachProgram::bounded(VertexId(i), 2)))
            .collect();
        e.run();
        assert_eq!(e.report().outcomes.len(), 6);
        for q in qs {
            assert!(e.output(&q).is_some());
        }
    }

    /// The basic streaming contract: a second thread submits through a
    /// cloned client while the engine is live; drain makes everything
    /// visible.
    #[test]
    fn client_submits_from_second_thread() {
        let g = line(32);
        let parts = RangePartitioner.partition(&g, 2);
        let mut e = ThreadEngine::new(Arc::clone(&g), parts);
        let client = e.client();
        let producer = thread::spawn(move || {
            (0..8u32)
                .map(|i| client.submit(ReachProgram::bounded(VertexId(i * 3), 4)))
                .collect::<Vec<_>>()
        });
        let handles = producer.join().expect("producer");
        e.drain();
        for h in &handles {
            assert!(e.output(h).is_some(), "streamed query finished");
        }
        assert_eq!(e.report().outcomes.len(), 8);
        e.shutdown();
        assert_eq!(e.report().outcomes.len(), 8);
    }

    /// Submissions racing the drive loop: the producer interleaves with
    /// in-flight supersteps rather than landing in one pre-run batch.
    #[test]
    fn interleaved_stream_completes() {
        let g = line(64);
        let parts = RangePartitioner.partition(&g, 4);
        let cfg = SystemConfig {
            max_parallel_queries: 2,
            ..Default::default()
        };
        let mut e = ThreadEngine::with_config(Arc::clone(&g), parts, cfg);
        // Seed the engine so supersteps are in flight when the stream lands.
        let seed = e.submit(ReachProgram::new(VertexId(0)));
        let client = e.client();
        let producer = thread::spawn(move || {
            let mut hs = Vec::new();
            for i in 0..6u32 {
                hs.push(client.submit(ReachProgram::bounded(VertexId(i * 9), 5)));
                thread::yield_now();
            }
            hs
        });
        let handles = producer.join().expect("producer");
        e.drain();
        assert_eq!(e.output(&seed).unwrap().len(), 64);
        for h in &handles {
            assert!(e.output(h).is_some());
        }
        assert_eq!(e.report().outcomes.len(), 7);
    }

    #[test]
    fn qcut_barrier_repartitions_and_preserves_answers() {
        let g = line(64);
        // Interleaved assignment: every reach superstep crosses a
        // boundary, so mean locality is ~0 and the trigger always fires.
        let assign: Vec<qgraph_partition::WorkerId> =
            (0..64).map(|v| qgraph_partition::WorkerId(v % 2)).collect();
        let parts = Partitioning::new(assign, 2);
        let cfg = SystemConfig {
            qcut: Some(QcutConfig {
                qcut_interval: 4,
                ..Default::default()
            }),
            ..Default::default()
        };
        let mut e = ThreadEngine::with_config(Arc::clone(&g), parts, cfg);
        let a = e.submit(ReachProgram::new(VertexId(0)));
        let b = e.submit(ReachProgram::new(VertexId(1)));
        e.run();
        assert_eq!(e.output(&a).unwrap().len(), 64);
        assert_eq!(e.output(&b).unwrap().len(), 63);
        let report = e.report();
        assert!(
            !report.repartitions.is_empty(),
            "interleaved partition + low locality must trigger Q-cut"
        );
        for r in &report.repartitions {
            assert!(r.moved_vertices > 0);
            assert!(r.ils.final_cost <= r.ils.initial_cost + 1e-9);
            assert!(r.applied_at >= r.triggered_at);
        }
        // The assignment actually changed and still covers the graph.
        assert_eq!(e.partitioning().num_vertices(), 64);
        assert_eq!(e.partitioning().sizes().iter().sum::<usize>(), 64);
    }

    #[test]
    fn zero_interval_keeps_the_thread_runtime_static() {
        let g = line(32);
        let assign: Vec<qgraph_partition::WorkerId> =
            (0..32).map(|v| qgraph_partition::WorkerId(v % 2)).collect();
        let parts = Partitioning::new(assign, 2);
        let before = parts.clone();
        let cfg = SystemConfig {
            qcut: Some(QcutConfig {
                qcut_interval: 0,
                ..Default::default()
            }),
            ..Default::default()
        };
        let mut e = ThreadEngine::with_config(Arc::clone(&g), parts, cfg);
        let a = e.submit(ReachProgram::new(VertexId(0)));
        let b = e.submit(ReachProgram::new(VertexId(1)));
        e.run();
        assert_eq!(e.output(&a).unwrap().len(), 32);
        assert_eq!(e.output(&b).unwrap().len(), 31);
        assert!(e.report().repartitions.is_empty());
        assert_eq!(e.partitioning(), &before, "assignment untouched");
    }
}
