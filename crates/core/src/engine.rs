//! The discrete-event multi-query engine.
//!
//! [`SimEngine`] executes queries exactly as the real system would —
//! vertex functions, message routing, scope tracking, the MAPE adaptivity
//! loop — while *time* advances on the `qgraph-sim` virtual clock using
//! the cluster's compute/network cost models. Results are bit-identical
//! across runs for a fixed configuration, and latency decomposes into the
//! same three components as on the paper's testbeds: compute, network
//! transfer, and barrier synchronization (see `DESIGN.md` §2).
//!
//! The engine is **not generic over a program type**: each submitted
//! query is wrapped in a type-erased [`QueryTask`](crate::task::QueryTask)
//! at [`SimEngine::submit`], so one instance runs SSSP, POI, and
//! reachability queries concurrently. `submit` returns a typed
//! [`QueryHandle`] through which [`SimEngine::output`] recovers the
//! program's `Output` without any caller-visible downcasting.
//!
//! ## Execution model
//!
//! Each worker is a sequential resource processing one superstep task at a
//! time (FIFO); queueing across concurrent queries is what turns workload
//! imbalance into the paper's straggler effects. One query iteration:
//!
//! 1. barrier release → superstep tasks on all involved workers,
//! 2. each task: freeze inbox, charge compute cost, execute, route
//!    messages (free locally, network-priced across workers),
//! 3. when the last involved worker finishes → [`barrier::decide`]
//!    computes the next release (hybrid: free if fully local),
//! 4. no pending messages anywhere → the query completes.
//!
//! The controller triggers Q-cut when mean locality drops below Φ; the ILS
//! runs against a stats snapshot and its *result* is applied one virtual
//! ILS budget later under a global STOP/START barrier that quiesces the
//! workers, migrates scope vertices, and charges the bulk-move transfer.

use std::collections::VecDeque;
use std::sync::Arc;

use qgraph_graph::{Graph, MutationBatch, Topology, VertexId};
use qgraph_partition::Partitioning;
use qgraph_sim::{ClusterModel, EventQueue, SimTime};

use crate::barrier::{self, BarrierInput};
use crate::config::{BarrierMode, SystemConfig};
use crate::control::{record_outcome, Admission, Outputs, QueryLedger};
use crate::controller::{apply_mutation_epochs, Controller};
use crate::hb::{kind, Hb};
use crate::index_plane::PointIndex;
use crate::program::VertexProgram;
use crate::qcut::{migrate, run_qcut, IlsResult};
use crate::query::{QueryHandle, QueryId, QueryOutcome, ServedBy};
use crate::report::{ActivitySample, EngineReport, RepartitionEvent};
use crate::sched::{Scheduler, Submission};
use crate::task::{QueryTask, TypedTask};
use crate::trace::{cmd, Tracer};
use crate::worker::Worker;

#[derive(Clone, Debug)]
enum Event {
    /// A streamed query's virtual arrival time was reached: it enters the
    /// admission queue (see [`SimEngine::submit_when`]).
    Arrival { q: QueryId },
    /// Query `q` may run a superstep on worker `w`.
    TaskReady { q: QueryId, w: usize },
    /// Worker `w` finished computing query `q`'s superstep.
    TaskDone { q: QueryId, w: usize },
    /// Worker `w` finished serializing/sending its outgoing messages.
    SendDone { w: usize },
    /// Query `q`'s barrier released: start the next superstep.
    BarrierRelease { q: QueryId },
    /// The virtual ILS budget elapsed; apply the pending plan.
    IlsReady,
    /// A mutation batch's virtual application time was reached: stop the
    /// world at the next quiescent point and open a new graph epoch.
    MutationDue { m: usize },
    /// SharedGlobal mode: the cross-query round barrier released.
    RoundRelease,
    /// Workers are quiescent: migrate scope vertices (STOP barrier body).
    GlobalBarrierApply,
    /// Repartitioning finished: resume query execution (START barrier).
    GlobalBarrierEnd,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum QueryStatus {
    Queued,
    Running,
    Finished,
}

/// One submitted query: the shared ledger plus the sim's own virtual-time
/// bookkeeping.
struct QueryRun {
    ledger: QueryLedger,
    status: QueryStatus,
    /// Absolute deadline ([`crate::AdmissionPolicy::Deadline`]), if any.
    deadline: Option<SimTime>,
    // Per-superstep virtual-time maxima and the barrier's involved set.
    involved_cur: Vec<usize>,
    compute_done_max: SimTime,
    msg_arrival_max: SimTime,
    last_done_raw: SimTime,
}

struct WorkerSched {
    queue: VecDeque<QueryId>,
    running: Option<QueryId>,
    busy_until: SimTime,
}

/// The deterministic multi-query engine. See the module docs.
pub struct SimEngine {
    topology: Topology,
    cluster: ClusterModel,
    cfg: SystemConfig,
    partitioning: Partitioning,
    workers: Vec<Worker>,
    sched: Vec<WorkerSched>,
    /// The simulated elastic pool's thread count
    /// ([`SystemConfig::pool_threads`]; 0 = one per partition): a global
    /// concurrency cap over the per-worker FIFO queues. With fewer
    /// threads than partitions, a freed thread picks up *any* queued
    /// partition — the work-conserving behavior the real pool exhibits.
    pool_width: usize,
    /// Worker tasks (compute or send) currently occupying pool threads.
    pool_busy: usize,
    /// Compute tasks completed (the sim's [`crate::PoolCounters::tasks`];
    /// steals and idle waits are physical-pool phenomena and stay 0
    /// here).
    pool_tasks: u64,
    events: EventQueue<Event>,
    queries: Vec<QueryRun>,
    outputs: Outputs,
    /// The policy-ordered admission queue (arrived, not yet admitted).
    scheduler: Scheduler,
    in_flight: usize,
    /// STOP barrier in progress: no new barrier releases or query
    /// dispatches; in-flight supersteps drain to quiescence first.
    paused: bool,
    /// `TaskReady` dispatches scheduled but not yet delivered. Quiescence
    /// requires this to reach zero: a control message racing the STOP
    /// barrier would otherwise start a superstep mid-migration.
    inflight_ready: usize,
    /// The STOP barrier is waiting for the workers to drain.
    awaiting_quiesce: bool,
    deferred_releases: Vec<QueryId>,
    pending_plan: Option<(IlsResult, SimTime)>,
    /// The ILS budget has elapsed: the pending plan may be applied at the
    /// next barrier's migration phase.
    plan_ready: bool,
    /// Submitted mutation batches (taken when due).
    mutations: Vec<Option<MutationBatch>>,
    /// Batches whose virtual application time has been reached, waiting
    /// for the stop-the-world barrier to apply them.
    due_mutations: Vec<MutationBatch>,
    /// The installed label index (the index plane): consulted at
    /// admission for eligible point queries, repaired at every mutation
    /// barrier.
    index: Option<Box<dyn PointIndex>>,
    controller: Controller,
    report: EngineReport,
    /// Per-worker vertex updates within the current activity sub-window
    /// (feeds the controller's straggler watch).
    activity_window: Vec<u64>,
    activity_window_start: SimTime,
    activity_window_len: SimTime,
    last_activity_imbalance: f64,
    /// SharedGlobal mode: queries whose iteration finished and who wait
    /// for the cross-query round barrier.
    round_waiting: Vec<QueryId>,
    /// SharedGlobal mode: queries still computing in the current round.
    round_outstanding: usize,
    /// SharedGlobal mode: release time of the round (max over queries).
    round_release: SimTime,
    /// Happens-before auditor (no-op unless the `check-hb` feature is
    /// on): stamps dispatches, quiesce windows, and epoch publications.
    hb: Hb,
    /// Structured event recorder (no-op unless the `trace` feature *and*
    /// [`SystemConfig::trace`] are on): stamps the same vocabulary the
    /// thread runtime stamps, on the virtual clock. Lanes are partition
    /// indices — the sim's analogue of pool-thread identity.
    tracer: Tracer,
    /// Test hook: make [`SimEngine::is_quiescent`] ignore in-flight
    /// `TaskReady` dispatches, reintroducing the pre-fix quiesce race
    /// so the auditor's detection of it stays regression-tested.
    #[cfg(feature = "check-hb")]
    hb_ignore_inflight_ready: bool,
}

impl SimEngine {
    /// Create an engine over `graph`, simulated on `cluster`, starting from
    /// `partitioning`.
    ///
    /// # Panics
    /// Panics if the partitioning does not match the graph or cluster.
    pub fn new(
        graph: Arc<Graph>,
        cluster: ClusterModel,
        partitioning: Partitioning,
        cfg: SystemConfig,
    ) -> Self {
        assert_eq!(
            partitioning.num_vertices(),
            graph.num_vertices(),
            "partitioning does not cover the graph"
        );
        assert_eq!(
            partitioning.num_workers(),
            cluster.num_workers,
            "partitioning and cluster disagree on worker count"
        );
        let k = cluster.num_workers;
        // Batch accounting (`remote_batches`) uses the config's cap, and
        // pricing (`transfer_cost`) uses the network model's — they must
        // agree, or the reported batch counts would diverge from what the
        // cost model charges (and from the thread runtime's accounting).
        assert_eq!(
            cfg.batch_max_msgs, cluster.network.batch_max_msgs,
            "SystemConfig::batch_max_msgs must match the cluster \
             NetworkModel::batch_max_msgs"
        );
        let workers: Vec<Worker> = (0..k)
            .map(|w| Worker::configured(w, cfg.combiners, cfg.batch_max_msgs))
            .collect();
        // Activity sub-window: an eighth of the monitoring window μ.
        let activity_window_len = SimTime::from_secs_f64(
            cfg.qcut
                .as_ref()
                .map(|q| q.monitoring_window_secs / 8.0)
                .unwrap_or(f64::MAX / 1e10),
        );
        // Stamp the initial topology (epoch 0) and partitioning as
        // published by the controller before anything can read them.
        let hb = Hb::new(k);
        hb.publish_topology(0, 0);
        hb.publish_partitioning(0);
        let pool_width = match cfg.pool_threads {
            0 => k,
            n => n,
        };
        let tracer = Tracer::new(k, cfg.trace_ring_capacity, cfg.trace);
        SimEngine {
            hb,
            tracer,
            #[cfg(feature = "check-hb")]
            hb_ignore_inflight_ready: false,
            topology: Topology::new(graph),
            cluster,
            controller: Controller::new(cfg.qcut.clone()),
            scheduler: Scheduler::bounded(cfg.admission.clone(), cfg.max_queued),
            cfg,
            partitioning,
            workers,
            sched: (0..k)
                .map(|_| WorkerSched {
                    queue: VecDeque::new(),
                    running: None,
                    busy_until: SimTime::ZERO,
                })
                .collect(),
            pool_width,
            pool_busy: 0,
            pool_tasks: 0,
            events: EventQueue::new(),
            queries: Vec::new(),
            outputs: Outputs::default(),
            in_flight: 0,
            paused: false,
            inflight_ready: 0,
            awaiting_quiesce: false,
            deferred_releases: Vec::new(),
            pending_plan: None,
            plan_ready: false,
            mutations: Vec::new(),
            due_mutations: Vec::new(),
            index: None,
            report: EngineReport::default(),
            activity_window: vec![0; k],
            activity_window_start: SimTime::ZERO,
            activity_window_len,
            last_activity_imbalance: 0.0,
            round_waiting: Vec::new(),
            round_outstanding: 0,
            round_release: SimTime::ZERO,
        }
    }

    /// Enqueue a query of any program type; one engine instance runs
    /// heterogeneous queries concurrently. It starts once a closed-loop
    /// slot is free (`max_parallel_queries` in flight at a time, the
    /// paper's batches). Returns a typed handle for [`SimEngine::output`].
    pub fn submit<P: VertexProgram>(&mut self, program: P) -> QueryHandle<P> {
        QueryHandle::new(self.submit_task(Arc::new(TypedTask::new(program))))
    }

    /// Submit with explicit arrival/deadline options: a [`Submission`]
    /// with `at_secs` models an *open-loop streaming* arrival — the query
    /// joins the admission queue only when the virtual clock reaches that
    /// time (an arrival event), exactly like a client submitting against a
    /// live serving engine. A `deadline_secs` feeds the
    /// [`crate::AdmissionPolicy::Deadline`] policy.
    pub fn submit_when<P: VertexProgram>(
        &mut self,
        program: P,
        submission: Submission,
    ) -> QueryHandle<P> {
        QueryHandle::new(self.submit_task_when(Arc::new(TypedTask::new(program)), submission))
    }

    /// Shorthand for [`SimEngine::submit_when`] with only an arrival time.
    pub fn submit_at<P: VertexProgram>(&mut self, program: P, at_secs: f64) -> QueryHandle<P> {
        self.submit_when(program, Submission::at(at_secs))
    }

    /// Type-erased submission backing [`SimEngine::submit`] (and the
    /// [`crate::Engine`] trait).
    pub fn submit_task(&mut self, task: Arc<dyn QueryTask>) -> QueryId {
        self.submit_task_when(task, Submission::default())
    }

    /// Type-erased submission with arrival/deadline options (see
    /// [`SimEngine::submit_when`]).
    pub fn submit_task_when(
        &mut self,
        task: Arc<dyn QueryTask>,
        submission: Submission,
    ) -> QueryId {
        let id = QueryId(self.queries.len() as u32);
        let now = self.events.now();
        // An arrival in the past clamps to now: the clock never rewinds.
        let arrival = submission
            .at_secs
            .map(|t| SimTime::from_secs_f64(t).max(now))
            .unwrap_or(now);
        let deadline = submission
            .deadline_secs
            .map(|d| arrival + SimTime::from_secs_f64(d));
        let program = task.program_name();
        self.queries.push(QueryRun {
            ledger: QueryLedger::new(task, id, arrival),
            status: QueryStatus::Queued,
            deadline,
            involved_cur: Vec::new(),
            compute_done_max: SimTime::ZERO,
            msg_arrival_max: SimTime::ZERO,
            last_done_raw: SimTime::ZERO,
        });
        if submission.at_secs.is_some() && arrival > now {
            self.events.schedule(arrival, Event::Arrival { q: id });
        } else {
            self.tracer.admitted(arrival.as_secs_f64(), u64::from(id.0));
            if !self.scheduler.push(id, program, arrival, deadline) {
                self.reject_query(arrival, id);
            }
        }
        id
    }

    /// Schedule a [`MutationBatch`] to apply at virtual time `at_secs`
    /// (clamped to now): when the clock reaches it, the engine stops the
    /// world at the next quiescent point, applies the batch atomically,
    /// and opens a new graph epoch — in-flight queries park at their
    /// barriers and resume against the mutated topology, exactly like the
    /// Q-cut stop-the-world phase. Batches due at the same barrier apply
    /// in submission order.
    ///
    /// # Panics
    /// Rejects the batch at submission (see [`MutationBatch::validate`])
    /// if any op carries a NaN, negative, or infinite weight — failing
    /// here, rather than at the barrier, keeps the error on the caller's
    /// stack.
    pub fn mutate_at(&mut self, batch: MutationBatch, at_secs: f64) {
        if let Err(e) = batch.validate() {
            panic!("rejected mutation batch: {e}");
        }
        let at = SimTime::from_secs_f64(at_secs).max(self.events.now());
        let m = self.mutations.len();
        self.mutations.push(Some(batch));
        self.events.schedule(at, Event::MutationDue { m });
    }

    /// Apply a [`MutationBatch`] at the next quiescent point (shorthand
    /// for [`SimEngine::mutate_at`] with the current virtual time).
    pub fn mutate(&mut self, batch: MutationBatch) {
        let now = self.events.now().as_secs_f64();
        self.mutate_at(batch, now);
    }

    /// Run until every submitted query (including future [`Event::Arrival`]
    /// submissions) has finished. Returns the cumulative report; the
    /// window this call covers is the last entry of
    /// [`EngineReport::runs`].
    pub fn run(&mut self) -> &EngineReport {
        // Run boundary: a fresh activity sub-window, so a trigger early in
        // this run never measures imbalance over a window spanning the
        // idle gap since the previous run.
        let run_started = self.events.now();
        self.activity_window_start = run_started;
        self.activity_window.iter_mut().for_each(|a| *a = 0);
        self.last_activity_imbalance = 0.0;

        self.dispatch_pending();
        while let Some(ev) = self.events.pop() {
            let now = ev.at;
            match ev.payload {
                Event::Arrival { q } => self.on_arrival(q),
                Event::TaskReady { q, w } => {
                    self.inflight_ready -= 1;
                    self.hb.token_close(q.0, kind::READY);
                    self.on_task_ready(q, w);
                }
                Event::TaskDone { q, w } => self.on_task_done(now, q, w),
                Event::SendDone { w } => self.on_send_done(now, w),
                Event::BarrierRelease { q } => self.on_barrier_release(now, q),
                Event::RoundRelease => self.on_round_release(now),
                Event::IlsReady => self.on_ils_ready(now),
                Event::MutationDue { m } => self.on_mutation_due(m),
                Event::GlobalBarrierApply => self.on_global_apply(now),
                Event::GlobalBarrierEnd => self.on_global_end(now),
            }
            if self.events.is_empty() {
                self.dispatch_pending();
            }
        }
        self.report.finished_at_secs = self.events.now().as_secs_f64();
        // Pool accounting for the sim: steals and idle-waits are physical
        // phenomena of the real pool and stay 0 here; `tasks` counts the
        // same per-(query, partition) units the thread runtime counts.
        self.report.admission_policy = self.cfg.admission.label().to_string();
        self.tracer.drain();
        self.report.trace.absorb(&self.tracer);
        let pool_at_close = crate::report::PoolCounters {
            threads: self.pool_width,
            tasks: self.pool_tasks,
            steals: 0,
            idle_waits: 0,
        };
        self.report.close_run(
            run_started.as_secs_f64(),
            self.report.finished_at_secs,
            pool_at_close,
        );
        &self.report
    }

    /// The output of a finished query, recovered through its typed handle.
    pub fn output<P: VertexProgram>(&self, handle: &QueryHandle<P>) -> Option<&P::Output> {
        self.outputs.get::<P>(handle.id())
    }

    /// Typed output lookup by raw [`QueryId`] (for callers that index
    /// queries positionally); `None` if unfinished or if `P` is not the
    /// program type the query was submitted with.
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

    /// The measurement report (also returned by [`SimEngine::run`]).
    pub fn report(&self) -> &EngineReport {
        &self.report
    }

    /// The current vertex→worker assignment (mutated by repartitionings).
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// Current virtual time in seconds.
    pub fn now_secs(&self) -> f64 {
        self.events.now().as_secs_f64()
    }

    /// The evolving graph view queries currently execute against.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The current graph epoch (mutation batches applied so far).
    pub fn epoch(&self) -> u64 {
        self.topology.epoch()
    }

    /// Install a label index (see [`crate::index_plane::PointIndex`]):
    /// from now on, eligible point queries popping off the admission
    /// queue are answered by label intersection instead of traversal —
    /// provided the index stays repaired through the admission epoch.
    /// Replaces any previously installed index. The index receives
    /// [`SystemConfig::index_build_threads`](crate::SystemConfig) as its
    /// parallelism hint for rebuild work.
    pub fn install_index(&mut self, mut index: Box<dyn PointIndex>) {
        index.set_parallelism(self.cfg.index_build_threads);
        self.index = Some(index);
    }

    /// Remove and return the installed label index, if any (queries fall
    /// back to the traversal path afterwards).
    pub fn take_index(&mut self) -> Option<Box<dyn PointIndex>> {
        self.index.take()
    }

    /// The installed label index, if any.
    pub fn index(&self) -> Option<&dyn PointIndex> {
        self.index.as_deref()
    }

    // ------------------------------------------------------------------
    // Submission / dispatch
    // ------------------------------------------------------------------

    /// A streamed query's arrival time was reached: admission-queue it.
    /// During a STOP barrier the query parks in the queue exactly like a
    /// resident one — `dispatch_pending` is gated on `paused`.
    fn on_arrival(&mut self, q: QueryId) {
        let run = &self.queries[q.index()];
        let at = run.ledger.outcome.queued_at;
        self.tracer.admitted(at.as_secs_f64(), u64::from(q.0));
        if !self
            .scheduler
            .push(q, run.ledger.task.program_name(), at, run.deadline)
        {
            self.reject_query(at, q);
            return;
        }
        self.dispatch_pending();
    }

    /// Bounded-queue backpressure: the waiting queue is full, so the
    /// submission bounces with a distinct outcome instead of executing.
    fn reject_query(&mut self, at: SimTime, q: QueryId) {
        let epoch = self.topology.epoch();
        let run = &mut self.queries[q.index()];
        debug_assert_eq!(run.status, QueryStatus::Queued);
        debug_assert_eq!(
            run.ledger.outcome.queued_at, at,
            "rejections happen at arrival"
        );
        run.status = QueryStatus::Finished;
        let outcome = QueryOutcome::rejected(q, run.ledger.task.program_name(), at, epoch);
        record_outcome(&mut self.report, &self.hb, &self.tracer, outcome);
    }

    fn dispatch_pending(&mut self) {
        while !self.paused && self.in_flight < self.cfg.max_parallel_queries {
            let Some(entry) = self.scheduler.pop() else {
                break;
            };
            self.start_query(entry.q);
        }
    }

    fn start_query(&mut self, q: QueryId) {
        let now = self.events.now();
        let run = &mut self.queries[q.index()];
        let admission = run.ledger.admit(
            now,
            &self.topology,
            &self.partitioning,
            self.index.as_deref(),
            &self.cfg,
            self.pool_width,
        );
        let batches = match admission {
            // Index fast path: the query completes at admission without
            // occupying a closed-loop slot or touching a worker.
            Admission::Indexed(output) => {
                run.status = QueryStatus::Finished;
                let epoch = self.topology.epoch();
                let outcome = run.ledger.finish(ServedBy::Index, now, 0, epoch);
                self.outputs.store(q, output);
                record_outcome(&mut self.report, &self.hb, &self.tracer, outcome);
                return;
            }
            Admission::Traverse(batches) => batches,
        };
        run.status = QueryStatus::Running;
        run.last_done_raw = now;
        self.in_flight += 1;
        if batches.is_empty() {
            // A query with no initial messages completes immediately.
            self.complete_query(now, q);
            return;
        }
        let task = Arc::clone(&run.ledger.task);
        let mut involved = Vec::with_capacity(batches.len());
        for (w, batch) in batches {
            self.workers[w].deliver(task.as_ref(), q, batch);
            involved.push(w);
        }
        // executeQuery(q): controller → worker dispatch.
        self.release(now, q, involved, true);
    }

    /// Price one controller → worker dispatch of query `q`'s superstep on
    /// worker `w`: a `TaskReady` after the control hop.
    fn dispatch(&mut self, now: SimTime, q: QueryId, w: usize) {
        let at = now + self.cluster.control_cost_to_controller(w);
        self.inflight_ready += 1;
        self.hb.token_open(q.0, kind::READY);
        self.events.schedule(at, Event::TaskReady { q, w });
    }

    // ------------------------------------------------------------------
    // Task scheduling on workers
    // ------------------------------------------------------------------

    fn on_task_ready(&mut self, q: QueryId, w: usize) {
        // Pre-frozen supersteps always run — during a STOP barrier they
        // are exactly the in-flight work the barrier drains.
        self.hb.token_open(q.0, kind::TASK);
        self.sched[w].queue.push_back(q);
        self.try_start(w);
    }

    fn try_start(&mut self, w: usize) {
        // A partition runs at most one task at a time (actor model), and
        // the elastic pool caps how many partitions compute at once.
        if self.sched[w].running.is_some() || self.pool_busy >= self.pool_width {
            return;
        }
        let Some(q) = self.sched[w].queue.pop_front() else {
            return;
        };
        let now = self.events.now();
        let (active, msgs) = self.workers[w].frozen_counts(q);
        let cost = self.cluster.compute.superstep_cost(active, msgs);
        self.sched[w].running = Some(q);
        self.sched[w].busy_until = now + cost;
        self.pool_busy += 1;
        self.tracer.task_begin(
            now.as_secs_f64(),
            w as u32,
            u64::from(q.0),
            w as u32,
            cmd::STEP,
            false,
        );
        self.events.schedule(now + cost, Event::TaskDone { q, w });
    }

    /// A pool thread freed up. The thread is not bound to the partition
    /// it just ran, so scan every worker queue (index order — the sim's
    /// deterministic stand-in for the physical pool's affinity-then-steal
    /// scan) for the next startable task.
    fn sweep_ready(&mut self) {
        for w in 0..self.sched.len() {
            if self.pool_busy >= self.pool_width {
                return;
            }
            self.try_start(w);
        }
    }

    fn on_task_done(&mut self, now: SimTime, q: QueryId, w: usize) {
        debug_assert_eq!(self.sched[w].running, Some(q));

        // Split borrows: the routing closure reads the partitioning while
        // the worker is mutated.
        let task = Arc::clone(&self.queries[q.index()].ledger.task);
        let run = &self.queries[q.index()];
        let partitioning = &self.partitioning;
        let route = |v: VertexId| partitioning.worker_of(v).index();
        let (stats, agg, remote) = self.workers[w].execute(
            q,
            task.as_ref(),
            &self.topology,
            &run.ledger.agg_prev,
            &route,
        );

        self.report.activity.push(ActivitySample {
            t: now.as_secs_f64(),
            worker: w,
            executed: stats.executed as u64,
        });
        self.record_activity(now, w, stats.executed as u64);

        // Serialization occupies this worker; the wire time then delays
        // the messages further.
        let send_cpu = self.cluster.network.serialize_cost(stats.remote_deliveries);
        let sent_at = now + send_cpu;
        let mut msg_arrival_max = SimTime::ZERO;
        let mut crossed = false;
        for (w2, batch) in remote {
            let arrival = sent_at + self.cluster.message_cost(w, w2, batch.len());
            msg_arrival_max = msg_arrival_max.max(arrival);
            crossed = true;
            self.workers[w2].deliver(task.as_ref(), q, batch);
        }

        let run = &mut self.queries[q.index()];
        run.compute_done_max = run.compute_done_max.max(sent_at);
        run.last_done_raw = run.last_done_raw.max(sent_at);
        run.msg_arrival_max = run.msg_arrival_max.max(msg_arrival_max);
        let next = run.ledger.task_done(&stats, &agg);
        self.pool_tasks += 1;
        self.tracer.task_end(
            now.as_secs_f64(),
            w as u32,
            u64::from(q.0),
            w as u32,
            cmd::STEP,
            stats.executed as u64,
        );

        // Elastic DoP: a finished task frees one unit of this query's
        // budget — release the next deferred partition, priced as a fresh
        // controller→worker dispatch, exactly like the pre-frozen tasks
        // already queued.
        if let Some(w_next) = next {
            self.tracer
                .defer_release(now.as_secs_f64(), u64::from(q.0), w_next as u32);
            self.dispatch(now, q, w_next);
        }

        if self.queries[q.index()].ledger.remaining == 0 {
            self.on_superstep_complete(now, q);
        }
        if crossed {
            // Worker stays busy until the socket push completes — the
            // pool thread serializes, so it stays occupied too.
            self.sched[w].busy_until = sent_at;
            self.events.schedule(sent_at, Event::SendDone { w });
        } else {
            self.hb.token_close(q.0, kind::TASK);
            self.sched[w].running = None;
            self.pool_busy -= 1;
            self.sweep_ready();
            self.maybe_quiesced(now);
        }
    }

    fn on_send_done(&mut self, now: SimTime, w: usize) {
        debug_assert!(self.sched[w].running.is_some());
        if let Some(q) = self.sched[w].running {
            self.hb.token_close(q.0, kind::TASK);
        }
        self.sched[w].running = None;
        self.pool_busy -= 1;
        self.sweep_ready();
        self.maybe_quiesced(now);
    }

    /// If a STOP barrier is waiting and the workers have drained, start
    /// the migration phase.
    fn maybe_quiesced(&mut self, now: SimTime) {
        if !self.awaiting_quiesce || !self.is_quiescent() {
            return;
        }
        self.awaiting_quiesce = false;
        let max_ctl = self.max_control_cost();
        self.events
            .schedule(now + max_ctl, Event::GlobalBarrierApply);
    }

    fn is_quiescent(&self) -> bool {
        #[cfg(feature = "check-hb")]
        let ready_drained = self.inflight_ready == 0 || self.hb_ignore_inflight_ready;
        #[cfg(not(feature = "check-hb"))]
        let ready_drained = self.inflight_ready == 0;
        ready_drained
            && self
                .sched
                .iter()
                .all(|s| s.running.is_none() && s.queue.is_empty())
    }

    /// Test hook (`check-hb` only): reintroduce the quiesce race the
    /// `inflight_ready` count fixed — [`SimEngine::is_quiescent`] stops
    /// counting scheduled-but-undelivered `TaskReady` dispatches, so a
    /// stop-the-world barrier can fire with control messages in flight.
    /// Exists solely so the regression suite can assert the
    /// happens-before auditor catches that race; never enable otherwise.
    #[cfg(feature = "check-hb")]
    #[doc(hidden)]
    pub fn hb_test_reintroduce_quiesce_race(&mut self) {
        self.hb_ignore_inflight_ready = true;
    }

    fn max_control_cost(&self) -> SimTime {
        (0..self.cluster.num_workers)
            .map(|w| self.cluster.control_cost_to_controller(w))
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    // ------------------------------------------------------------------
    // Barriers
    // ------------------------------------------------------------------

    fn on_superstep_complete(&mut self, now: SimTime, q: QueryId) {
        self.tracer
            .superstep_done(now.as_secs_f64(), u64::from(q.0));
        let involved_next = self.pending_workers(q);

        let run = &mut self.queries[q.index()];
        let decision = barrier::decide(
            &BarrierInput {
                mode: self.cfg.barrier_mode,
                compute_done: run.compute_done_max,
                msg_arrival: run.msg_arrival_max,
                involved_cur: &run.involved_cur,
                involved_next: &involved_next,
                crossed: run.ledger.crossed,
                stats_extra: !self.cfg.stats_piggyback,
            },
            &self.cluster,
        );
        let (_, terminate) = run.ledger.close_superstep(involved_next.is_empty());

        let shared = self.cfg.barrier_mode == BarrierMode::SharedGlobal;
        if shared {
            self.round_outstanding -= 1;
        }
        if terminate {
            let at = self.queries[q.index()].last_done_raw;
            self.complete_query(at.max(now), q);
        } else if shared {
            // Traditional BSP: park the query until the slowest query of
            // this round has also synchronized.
            self.round_waiting.push(q);
            self.round_release = self.round_release.max(decision.release.max(now));
        } else {
            let release = decision.release.max(now);
            self.events.schedule(release, Event::BarrierRelease { q });
        }
        if shared && self.round_outstanding == 0 && !self.round_waiting.is_empty() {
            self.events
                .schedule(self.round_release.max(now), Event::RoundRelease);
        }
        self.maybe_trigger_qcut(now);
    }

    /// The workers holding pending messages of query `q`.
    fn pending_workers(&self, q: QueryId) -> Vec<usize> {
        (0..self.workers.len())
            .filter(|&w| self.workers[w].has_pending(q))
            .collect()
    }

    /// SharedGlobal mode: the cross-query round barrier fired — release
    /// every parked query at once.
    fn on_round_release(&mut self, now: SimTime) {
        let qs = std::mem::take(&mut self.round_waiting);
        self.round_release = SimTime::ZERO;
        for q in qs {
            self.on_barrier_release(now, q);
        }
    }

    fn on_barrier_release(&mut self, now: SimTime, q: QueryId) {
        if self.paused {
            self.tracer.park(now.as_secs_f64(), u64::from(q.0));
            self.deferred_releases.push(q);
            return;
        }
        // Re-derive the involved set: repartitioning may have migrated
        // pending messages while this release was deferred.
        let involved = self.pending_workers(q);
        if involved.is_empty() {
            self.complete_query(now, q);
            return;
        }
        self.release(now, q, involved, false);
    }

    /// Open query `q`'s next superstep on `involved`. All involved
    /// workers freeze at the same release instant: the superstep's input
    /// is sealed before any of them computes — including the partitions
    /// the DoP budget holds back, which is why deferred execution stays
    /// output-identical. Up to the budget then start: through a priced
    /// controller dispatch at admission (`priced`), straight onto the
    /// worker queues at a barrier release.
    fn release(&mut self, now: SimTime, q: QueryId, involved: Vec<usize>, priced: bool) {
        let run = &mut self.queries[q.index()];
        let n = run.ledger.open_superstep(&involved);
        run.compute_done_max = SimTime::ZERO;
        run.msg_arrival_max = SimTime::ZERO;
        if self.cfg.barrier_mode == BarrierMode::SharedGlobal {
            self.round_outstanding += 1;
        }
        for &w in &involved {
            self.workers[w].freeze(q);
        }
        for &w in &involved[..n] {
            if priced {
                self.dispatch(now, q, w);
            } else {
                self.on_task_ready(q, w);
            }
        }
        for &w in &involved[n..] {
            self.tracer
                .defer(now.as_secs_f64(), u64::from(q.0), w as u32);
        }
        self.queries[q.index()].involved_cur = involved;
    }

    fn complete_query(&mut self, at: SimTime, q: QueryId) {
        let run = &mut self.queries[q.index()];
        debug_assert_ne!(run.status, QueryStatus::Finished);
        run.status = QueryStatus::Finished;
        self.in_flight -= 1;

        // Gather the locals the query touched, across workers; the scope
        // is streamed into one buffer (visitor, no per-worker allocation)
        // for the controller before finalize consumes the locals.
        let mut locals = Vec::new();
        let mut scope: Vec<VertexId> = Vec::new();
        for w in self.workers.iter_mut() {
            if let Some(local) = w.take_local(q) {
                local.for_each_scope_vertex(&mut |v| scope.push(v));
                locals.push(local);
            }
        }
        let ledger = &self.queries[q.index()].ledger;
        let epoch = self.topology.epoch();
        let outcome = ledger.finish(ServedBy::Traversal, at, scope.len() as u64, epoch);
        self.outputs
            .store(q, ledger.task.finalize(&self.topology, locals));
        record_outcome(&mut self.report, &self.hb, &self.tracer, outcome);
        self.controller.record_finished_scope(q, scope, at);
        self.controller.expire(at);
        self.dispatch_pending();
    }

    // ------------------------------------------------------------------
    // Adaptivity (MAPE loop)
    // ------------------------------------------------------------------

    /// Roll the activity sub-window and accumulate this superstep's work.
    fn record_activity(&mut self, now: SimTime, w: usize, executed: u64) {
        // Saturating comparison: with Q-cut off the window length is
        // effectively infinite and `start + len` would overflow.
        if now.saturating_sub(self.activity_window_start) >= self.activity_window_len {
            let total: u64 = self.activity_window.iter().sum();
            // Guard, don't unwrap: with an aggressive trigger cadence the
            // window can roll before any sample landed (or be evaluated on
            // a degenerate worker set) — an empty/zero window simply
            // carries no imbalance signal.
            let max = self.activity_window.iter().copied().max().unwrap_or(0);
            if total > 0 && max > 0 {
                let mean = total as f64 / self.activity_window.len() as f64;
                self.last_activity_imbalance = max as f64 / mean - 1.0;
            }
            self.activity_window.iter_mut().for_each(|a| *a = 0);
            self.activity_window_start = now;
        }
        self.activity_window[w] += executed;
    }

    fn mean_running_locality(&self) -> (f64, usize) {
        let mut sum = 0.0;
        let mut n = 0usize;
        for run in &self.queries {
            let o = &run.ledger.outcome;
            if run.status == QueryStatus::Running && o.iterations > 0 {
                sum += o.local_iterations as f64 / o.iterations as f64;
                n += 1;
            }
        }
        if n == 0 {
            (1.0, 0)
        } else {
            (sum / n as f64, n)
        }
    }

    fn maybe_trigger_qcut(&mut self, now: SimTime) {
        if self.paused || self.controller.qcut_config().is_none() {
            return;
        }
        // Trigger evaluation must only see scopes within the monitoring
        // window — without this, a quiet stretch (no completions, so no
        // expiry calls) would feed arbitrarily stale scopes to the ILS.
        self.controller.expire(now);
        let (mean_locality, active) = self.mean_running_locality();
        if !self
            .controller
            .should_trigger(now, mean_locality, self.last_activity_imbalance, active)
        {
            return;
        }

        // Snapshot live scopes (union over workers).
        let live = self.live_scopes();
        let stats = self.controller.build_scope_stats(&live, &self.partitioning);
        if stats.queries.len() < 2 {
            return;
        }
        let Some(cfg) = self.controller.qcut_config().cloned() else {
            // should_trigger() only fires with Q-cut configured; without a
            // config there is nothing to plan.
            return;
        };
        let result = run_qcut(&stats, &cfg);
        self.controller.ils_inflight = true;
        self.pending_plan = Some((result, now));
        let ready = now + SimTime::from_secs_f64(cfg.ils_budget_secs);
        self.events.schedule(ready, Event::IlsReady);
    }

    fn on_ils_ready(&mut self, now: SimTime) {
        self.controller.ils_inflight = false;
        self.controller.last_repartition = now;
        let Some((result, _)) = self.pending_plan.as_ref() else {
            return;
        };
        if result.plan.is_empty() {
            self.pending_plan = None;
            return;
        }
        self.plan_ready = true;
        // A mutation barrier already stopping the world consumes the plan
        // in its apply phase (or the re-entry check at its end).
        if !self.paused {
            self.stop_the_world();
        }
    }

    /// STOP barrier: halt new releases/dispatches and drain in-flight
    /// supersteps; the apply phase starts once the workers are quiescent.
    fn stop_the_world(&mut self) {
        self.paused = true;
        self.awaiting_quiesce = true;
        self.maybe_quiesced(self.events.now());
    }

    /// A mutation batch's virtual time arrived: join (or open) the
    /// stop-the-world barrier. During an in-flight barrier the batch
    /// simply queues — the apply phase drains every due batch at once.
    fn on_mutation_due(&mut self, m: usize) {
        // Each batch falls due exactly once (one MutationDue per batch).
        self.due_mutations.extend(self.mutations[m].take());
        if !self.paused {
            self.stop_the_world();
        }
    }

    /// The stop-the-world barrier body, entered once the workers drained:
    /// apply every due mutation batch (each a new graph epoch), compact
    /// the overlay if it crossed the configured fraction, then migrate
    /// the repartition plan if its ILS budget has elapsed. One barrier
    /// serves all three, so a mutation landing while a Q-cut phase is
    /// pending costs no extra quiesce.
    fn on_global_apply(&mut self, now: SimTime) {
        // Open the auditor's quiesce window *before* the quiescence
        // asserts: if a dispatch is still in flight, the auditor's
        // violation report (with both stacks) beats a bare assert.
        self.hb.quiesce_begin();
        self.tracer.quiesce_begin(now.as_secs_f64());
        debug_assert!(self.paused);
        debug_assert!(self.is_quiescent());
        let mut barrier_cost = SimTime::ZERO;

        // Phase 1: mutation epochs, in submission order (the shared
        // barrier body — see `controller::apply_mutation_epochs`).
        let apply = apply_mutation_epochs(
            &mut self.topology,
            &mut self.partitioning,
            &mut self.controller,
            &mut self.report,
            &self.hb,
            std::mem::take(&mut self.due_mutations),
            self.cfg.compact_fraction,
            now.as_secs_f64(),
            self.index.as_deref_mut(),
        );
        barrier_cost += self.cluster.compute.mutation_cost(apply.ops);
        if let Some(edges) = apply.compacted_edges {
            barrier_cost += self.cluster.compute.compaction_cost(edges);
        }
        // The repair stages ran inside `apply_mutation_epochs`; the span
        // covers the mutation-phase virtual cost.
        apply.stamp(
            &self.tracer,
            now.as_secs_f64(),
            (now + barrier_cost).as_secs_f64(),
        );
        let qcut_from = now + barrier_cost;

        // Phase 2: the repartition plan, once its ILS budget elapsed.
        // `plan_ready` is only set while `pending_plan` is populated
        // (on_ils_ready clears both together).
        let plan = if self.plan_ready {
            self.pending_plan.take()
        } else {
            None
        };
        self.plan_ready = false;
        if let Some((result, triggered_at)) = plan {
            // Resolve the plan against the quiesced workers: a live
            // query's current local scope, or a finished query's retained
            // scope (the resolver's ownership filter restricts it to the
            // source worker).
            let migration = {
                let workers = &self.workers;
                let queries = &self.queries;
                let controller = &self.controller;
                let mut scope_of = |q: QueryId, w: usize| -> Vec<VertexId> {
                    let live = queries
                        .get(q.index())
                        .is_some_and(|r| r.status == QueryStatus::Running);
                    if live {
                        workers[w].scope_vertices(q)
                    } else {
                        controller
                            .finished_scope(q)
                            .map(|vs| vs.to_vec())
                            .unwrap_or_default()
                    }
                };
                migrate::resolve_plan(&result.plan, &self.partitioning, &mut scope_of)
            };

            // A plan can resolve to nothing by apply time (scopes finished
            // and expired since the trigger): no event, matching the
            // thread runtime's semantics that a RepartitionEvent means
            // vertices moved.
            if !migration.is_empty() {
                let observed = self.controller.observed_scopes(&self.live_scopes());
                let this = &mut *self;
                let queries = &this.queries;
                let workers = &mut this.workers;
                let task_of = |q: QueryId| -> Arc<dyn QueryTask> {
                    Arc::clone(&queries[q.index()].ledger.task)
                };
                let (locality_before, locality_after) =
                    migrate::apply_measured(&migration, &mut this.partitioning, &observed, || {
                        migrate::apply_to_workers(&migration, workers, &task_of)
                    });
                self.hb.publish_partitioning(0);

                // The migration lasts as long as the slowest pair's bulk
                // transfer.
                let duration = migration
                    .per_pair
                    .iter()
                    .map(|&(f, t, n)| {
                        self.cluster.network.bulk_move_cost(
                            n,
                            self.cfg.state_bytes_per_vertex,
                            self.cluster.is_remote(f, t),
                        )
                    })
                    .max()
                    .unwrap_or(SimTime::ZERO);
                barrier_cost += duration;
                self.tracer.qcut_begin(qcut_from.as_secs_f64());
                self.tracer.qcut_end((now + barrier_cost).as_secs_f64());
                self.report.repartitions.push(RepartitionEvent {
                    triggered_at: triggered_at.as_secs_f64(),
                    applied_at: now.as_secs_f64(),
                    barrier_duration: (barrier_cost + self.max_control_cost()).as_secs_f64(),
                    moved_vertices: migration.moved_vertices,
                    locality_before,
                    locality_after,
                    ils: result,
                });
            }
        }

        let end = now + barrier_cost + self.max_control_cost();
        apply.close(&mut self.report, (end - now).as_secs_f64());
        self.events.schedule(end, Event::GlobalBarrierEnd);
    }

    fn on_global_end(&mut self, _now: SimTime) {
        // Close the window before any deferred release re-opens dispatch.
        self.hb.quiesce_end();
        let now = self.events.now();
        self.tracer.quiesce_end(now.as_secs_f64());
        // The lanes are provably idle inside the barrier: the cheapest
        // possible point to move their rings into the central buffer.
        self.tracer.drain();
        self.paused = false;
        // START barrier: resume deferred releases against the new layout.
        let releases = std::mem::take(&mut self.deferred_releases);
        for q in releases {
            self.tracer.unpark(now.as_secs_f64(), u64::from(q.0));
            self.on_barrier_release(now, q);
        }
        self.dispatch_pending();
        // Work that became ready while the barrier was mid-flight (a
        // mutation falling due between apply and end, or an ILS budget
        // elapsing) re-enters the stop-the-world phase immediately.
        if !self.due_mutations.is_empty() || self.plan_ready {
            self.stop_the_world();
        }
    }

    /// The running queries' live scope vertex sets (union over workers).
    fn live_scopes(&self) -> Vec<(QueryId, Vec<VertexId>)> {
        let mut live: Vec<(QueryId, Vec<VertexId>)> = Vec::new();
        for (i, run) in self.queries.iter().enumerate() {
            if run.status == QueryStatus::Running {
                let q = QueryId(i as u32);
                let mut vs: Vec<VertexId> = Vec::new();
                for w in &self.workers {
                    w.for_each_scope_vertex(q, &mut |v| vs.push(v));
                }
                live.push((q, vs));
            }
        }
        live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BarrierMode;
    use crate::programs::{PingProgram, ReachProgram};
    use qgraph_graph::GraphBuilder;
    use qgraph_partition::{HashPartitioner, Partitioner, RangePartitioner};

    fn line_graph(n: usize) -> Arc<Graph> {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as u32, i as u32 + 1, 1.0);
        }
        Arc::new(b.build())
    }

    fn engine_on(graph: Arc<Graph>, k: usize, cfg: SystemConfig) -> SimEngine {
        let parts = RangePartitioner.partition(&graph, k);
        SimEngine::new(graph, ClusterModel::scale_up(k), parts, cfg)
    }

    #[test]
    fn single_query_reaches_whole_line() {
        let g = line_graph(10);
        let mut e = engine_on(g, 2, SystemConfig::default());
        let q = e.submit(ReachProgram::new(VertexId(0)));
        e.run();
        let out = e.output(&q).unwrap();
        assert_eq!(out.len(), 10);
        let r = &e.report().outcomes[0];
        assert_eq!(r.iterations, 10);
        assert_eq!(r.program, "reach");
        assert!(r.latency_secs() > 0.0);
    }

    #[test]
    fn local_query_has_full_locality() {
        let g = line_graph(10);
        let mut e = engine_on(g, 2, SystemConfig::default());
        // Vertices 5..10 live on worker 1 under Range partitioning.
        let q = e.submit(ReachProgram::new(VertexId(5)));
        e.run();
        let out = e.output(&q).unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(e.report().outcomes[0].locality(), 1.0);
        assert_eq!(e.report().outcomes[0].remote_messages, 0);
    }

    #[test]
    fn crossing_query_counts_remote_messages() {
        let g = line_graph(10);
        let mut e = engine_on(g, 2, SystemConfig::default());
        let q = e.submit(ReachProgram::new(VertexId(0)));
        e.run();
        let _ = q;
        let o = &e.report().outcomes[0];
        assert_eq!(o.remote_messages, 1, "one boundary crossing (4->5)");
        assert!(o.locality() < 1.0);
    }

    #[test]
    fn multiple_queries_all_finish() {
        let g = line_graph(64);
        let mut e = engine_on(g, 4, SystemConfig::default());
        let qs: Vec<QueryHandle<ReachProgram>> = (0..16u32)
            .map(|i| e.submit(ReachProgram::bounded(VertexId(i * 4), 3)))
            .collect();
        e.run();
        assert_eq!(e.report().outcomes.len(), 16);
        for q in qs {
            assert!(e.output(&q).is_some());
        }
    }

    #[test]
    fn heterogeneous_queries_share_one_engine() {
        let g = line_graph(12);
        let mut e = engine_on(g, 2, SystemConfig::default());
        let reach = e.submit(ReachProgram::bounded(VertexId(0), 3));
        let ping = e.submit(PingProgram {
            ring: vec![VertexId(1), VertexId(10)],
            rounds: 4,
        });
        let reach2 = e.submit(ReachProgram::new(VertexId(8)));
        e.run();
        assert_eq!(e.output(&reach).unwrap().len(), 4);
        assert_eq!(*e.output(&ping).unwrap(), 3);
        assert_eq!(e.output(&reach2).unwrap().len(), 4);
        let programs: Vec<&str> = e.report().outcomes.iter().map(|o| o.program).collect();
        assert!(programs.contains(&"reach") && programs.contains(&"ping"));
    }

    #[test]
    fn output_with_wrong_type_is_none_not_panic() {
        let g = line_graph(4);
        let mut e = engine_on(g, 2, SystemConfig::default());
        let q = e.submit(ReachProgram::new(VertexId(0)));
        e.run();
        assert!(e.output_as::<ReachProgram>(q.id()).is_some());
        assert!(e.output_as::<PingProgram>(q.id()).is_none());
    }

    #[test]
    fn take_output_transfers_ownership() {
        let g = line_graph(6);
        let mut e = engine_on(g, 2, SystemConfig::default());
        let q = e.submit(ReachProgram::new(VertexId(0)));
        e.run();
        let owned = e.take_output(&q).unwrap();
        assert_eq!(owned.len(), 6);
        assert!(e.output(&q).is_none(), "taken outputs are gone");
    }

    #[test]
    fn closed_loop_respects_parallelism() {
        let g = line_graph(32);
        let cfg = SystemConfig {
            max_parallel_queries: 2,
            ..Default::default()
        };
        let mut e = engine_on(g, 2, cfg);
        for i in 0..6u32 {
            e.submit(ReachProgram::bounded(VertexId(i), 2));
        }
        e.run();
        assert_eq!(e.report().outcomes.len(), 6);
        // With 2-way parallelism, later queries are submitted strictly
        // after earlier completions.
        let o = &e.report().outcomes;
        assert!(o[5].submitted_at >= o[0].completed_at);
    }

    #[test]
    fn hybrid_no_slower_than_global_barrier() {
        let g = line_graph(40);
        let run = |mode| {
            let cfg = SystemConfig {
                barrier_mode: mode,
                ..Default::default()
            };
            let mut e = engine_on(line_graph(40), 2, cfg);
            let _ = g; // keep naming tidy
            for i in 0..8u32 {
                e.submit(ReachProgram::bounded(VertexId(i), 4));
            }
            e.run();
            e.report().total_latency()
        };
        let hybrid = run(BarrierMode::Hybrid);
        let global = run(BarrierMode::GlobalPerQuery);
        assert!(
            hybrid <= global,
            "hybrid {hybrid} must not exceed global {global}"
        );
    }

    #[test]
    fn deterministic_replay() {
        let build = || {
            let g = line_graph(50);
            let parts = HashPartitioner::default().partition(&g, 4);
            let mut e =
                SimEngine::new(g, ClusterModel::scale_up(4), parts, SystemConfig::default());
            for i in 0..10u32 {
                e.submit(ReachProgram::bounded(VertexId(i * 3), 5));
            }
            e.run();
            (
                e.report().total_latency(),
                e.report().outcomes.len(),
                e.report().total_remote_messages(),
            )
        };
        assert_eq!(build(), build());
    }

    fn ping_engine(k: usize) -> SimEngine {
        let g = line_graph(4);
        let parts = RangePartitioner.partition(&g, k);
        SimEngine::new(g, ClusterModel::scale_up(k), parts, SystemConfig::default())
    }

    #[test]
    fn ping_program_runs_fixed_rounds() {
        let mut e = ping_engine(2);
        let q = e.submit(PingProgram {
            ring: vec![VertexId(0), VertexId(3)],
            rounds: 5,
        });
        e.run();
        assert_eq!(*e.output(&q).unwrap(), 4);
        assert_eq!(e.report().outcomes[0].iterations, 5);
    }

    #[test]
    #[should_panic(expected = "batch_max_msgs")]
    fn mismatched_batch_caps_panic() {
        let g = line_graph(4);
        let parts = RangePartitioner.partition(&g, 2);
        let cfg = SystemConfig {
            batch_max_msgs: 8,
            ..Default::default()
        };
        let _ = SimEngine::new(g, ClusterModel::scale_up(2), parts, cfg);
    }

    #[test]
    fn empty_query_completes_instantly() {
        let mut e = ping_engine(2);
        let q = e.submit(PingProgram {
            ring: vec![],
            rounds: 0,
        });
        e.run();
        assert_eq!(*e.output(&q).unwrap(), 0);
        assert_eq!(e.report().outcomes[0].iterations, 0);
    }
}
