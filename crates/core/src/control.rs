//! The control-plane bookkeeping both runtimes share. [`SimEngine`] and
//! [`ThreadEngine`] drive the same per-query decisions through one
//! [`QueryLedger`] — admission, the DoP split of every superstep, counter
//! folding, the barrier's iteration/aggregate/terminate decision, and the
//! final [`QueryOutcome`] — record every query end through
//! [`record_outcome`], and keep finished outputs in one [`Outputs`]
//! store. What stays in each runtime is its clock, its transport, and its
//! Q-cut trigger.
//!
//! [`SimEngine`]: crate::SimEngine
//! [`ThreadEngine`]: crate::ThreadEngine

use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;

use qgraph_graph::{Topology, VertexId};
use qgraph_partition::Partitioning;
use qgraph_sim::SimTime;

use crate::config::SystemConfig;
use crate::hb::Hb;
use crate::index_plane::PointIndex;
use crate::program::VertexProgram;
use crate::query::{OutcomeStatus, QueryId, QueryOutcome, ServedBy};
use crate::report::EngineReport;
use crate::task::{Envelope, MessageBatch, QueryTask};
use crate::trace::{outcome_code, Tracer};
use crate::worker::SuperstepStats;

/// What admission decided for a query.
pub(crate) enum Admission {
    /// Answered from the label index: the query never reaches a worker.
    Indexed(Envelope),
    /// Traverse from these initial messages, per partition (ascending);
    /// empty means the query completes at once over no state.
    Traverse(Vec<(usize, MessageBatch)>),
}

/// One query's runtime-independent bookkeeping. No program types appear
/// here — aggregates travel as [`Envelope`]s.
pub(crate) struct QueryLedger {
    pub task: Arc<dyn QueryTask>,
    /// The outcome the query will report: arrival and admission stamps,
    /// first epoch, and the work counters folded in as it runs.
    pub outcome: QueryOutcome,
    /// Degree-of-parallelism budget ([`crate::DopPolicy::budget`], fixed
    /// at admission): at most this many of a superstep's per-partition
    /// tasks run concurrently.
    dop: usize,
    /// Involved partitions of the current superstep whose dispatch is
    /// held back by the DoP budget; released one per completing task.
    deferred: VecDeque<usize>,
    /// Tasks of the current superstep not yet completed.
    pub remaining: usize,
    /// Partitions the current superstep runs on.
    involved: usize,
    /// Any message of the current superstep crossed a partition boundary
    /// (the `!crossed` half of [`crate::barrier::decide`]'s locality).
    pub crossed: bool,
    /// The previous superstep's aggregate (what steps read).
    pub agg_prev: Envelope,
    /// The current superstep's aggregate, folded per task.
    agg_acc: Envelope,
}

impl QueryLedger {
    /// Query `id`, arrived at `queued_at`, waiting for admission.
    pub fn new(task: Arc<dyn QueryTask>, id: QueryId, queued_at: SimTime) -> Self {
        QueryLedger {
            outcome: QueryOutcome::zero(id, task.program_name(), queued_at, 0),
            agg_prev: task.aggregate_identity(),
            agg_acc: task.aggregate_identity(),
            task,
            dop: 1,
            deferred: VecDeque::new(),
            remaining: 0,
            involved: 0,
            crossed: false,
        }
    }

    /// Admit the query at `now`: stamp it, fix its DoP budget for its
    /// whole lifetime (point-shaped programs stay serial, analytics fan
    /// out to the policy's width — see `DopPolicy`), and decide its
    /// path. An eligible point query is answered from `index` when the
    /// index is repaired through the current epoch; any other query
    /// routes its initial messages against the current assignment and
    /// topology.
    pub fn admit(
        &mut self,
        now: SimTime,
        topology: &Topology,
        partitioning: &Partitioning,
        index: Option<&dyn PointIndex>,
        cfg: &SystemConfig,
        pool_width: usize,
    ) -> Admission {
        self.outcome.submitted_at = now;
        self.outcome.first_epoch = topology.epoch();
        self.dop = cfg.dop.budget(self.task.as_ref(), pool_width).max(1);
        let task = self.task.as_ref();
        if let Some(output) = crate::sched::try_index_path(task, index, topology.epoch()) {
            return Admission::Indexed(output);
        }
        let route = |v: VertexId| partitioning.worker_of(v).index();
        Admission::Traverse(task.initial_batches(topology, &route, cfg.combiners))
    }

    /// Open a superstep on `involved` (ascending): the first
    /// `min(dop, involved)` partitions — the returned count — dispatch
    /// now, the rest wait in [`QueryLedger::deferred`].
    pub fn open_superstep(&mut self, involved: &[usize]) -> usize {
        debug_assert!(self.deferred.is_empty() && self.remaining == 0);
        let now = involved.len().min(self.dop);
        self.involved = involved.len();
        self.remaining = involved.len();
        self.crossed = false;
        self.outcome.tasks += involved.len() as u64;
        self.outcome.effective_dop = self.outcome.effective_dop.max(now as u32);
        self.deferred.extend(&involved[now..]);
        now
    }

    /// One task of the current superstep finished: fold its counters and
    /// aggregate. Returns the deferred partition its freed budget slot
    /// releases — even mid stop-the-world drain, because the superstep
    /// must complete before the query can park at its barrier.
    pub fn task_done(&mut self, stats: &SuperstepStats, agg: &Envelope) -> Option<usize> {
        let o = &mut self.outcome;
        o.vertex_updates += stats.executed as u64;
        o.remote_messages += stats.remote_deliveries as u64;
        o.remote_messages_pre_combine += stats.remote_pre_combine as u64;
        o.remote_batches += stats.remote_batches as u64;
        self.crossed |= stats.remote_deliveries > 0;
        self.task.aggregate_combine(&mut self.agg_acc, agg);
        self.remaining -= 1;
        self.deferred.pop_front()
    }

    /// Close the current superstep: count it (local when one partition
    /// ran and nothing crossed a boundary — the paper's locality
    /// numerator), rotate the aggregate (sticky aggregates accumulate),
    /// and decide termination. Returns `(is_local, terminate)`.
    pub fn close_superstep(&mut self, nothing_pending: bool) -> (bool, bool) {
        debug_assert!(
            self.deferred.is_empty(),
            "superstep barrier with deferred tasks unreleased"
        );
        let is_local = self.involved <= 1 && !self.crossed;
        self.outcome.iterations += 1;
        if is_local {
            self.outcome.local_iterations += 1;
        }
        let combined = std::mem::replace(&mut self.agg_acc, self.task.aggregate_identity());
        if self.task.aggregate_sticky() {
            self.task.aggregate_combine(&mut self.agg_prev, &combined);
        } else {
            self.agg_prev = combined;
        }
        (
            is_local,
            nothing_pending || self.task.should_terminate(&self.agg_prev),
        )
    }

    /// The previous superstep's aggregate, cloned for one step task.
    pub fn prev_aggregate(&self) -> Envelope {
        self.task.clone_aggregate(&self.agg_prev)
    }

    /// The query's outcome, completed at `at` with `scope_size` scope
    /// vertices against graph epoch `last_epoch`. An index-served query,
    /// or one with no initial messages, has done no work, so its counters
    /// are still zero.
    pub fn finish(
        &self,
        served_by: ServedBy,
        at: SimTime,
        scope_size: u64,
        last_epoch: u64,
    ) -> QueryOutcome {
        QueryOutcome {
            served_by,
            completed_at: at,
            scope_size,
            last_epoch,
            ..self.outcome
        }
    }
}

/// Record a query's end: the report entry and the tracer's outcome
/// instant, plus — for a completion — the auditor's check that the
/// outcome's epoch was published before this point.
pub(crate) fn record_outcome(
    report: &mut EngineReport,
    hb: &Hb,
    tracer: &Tracer,
    outcome: QueryOutcome,
) {
    let code = match (outcome.status, outcome.served_by) {
        (OutcomeStatus::Rejected, _) => outcome_code::REJECTED,
        (_, ServedBy::Index) => outcome_code::INDEX_SERVED,
        (_, ServedBy::Traversal) => outcome_code::COMPLETED,
    };
    if outcome.status == OutcomeStatus::Completed {
        hb.outcome_epoch(0, outcome.last_epoch);
    }
    let at = outcome.completed_at.as_secs_f64();
    tracer.outcome(at, u64::from(outcome.id.0), code);
    report.outcomes.push(outcome);
}

/// Finished queries' outputs, by [`QueryId`], recovered through the
/// program type the query was submitted with.
#[derive(Default)]
pub(crate) struct Outputs(Vec<Option<Envelope>>);

impl Outputs {
    pub fn store(&mut self, q: QueryId, output: Envelope) {
        if self.0.len() <= q.index() {
            self.0.resize_with(q.index() + 1, || None);
        }
        self.0[q.index()] = Some(output);
    }

    /// `None` if unfinished or if `P` is not the query's program type.
    pub fn get<P: VertexProgram>(&self, q: QueryId) -> Option<&P::Output> {
        self.envelope(q)?.downcast_ref::<P::Output>()
    }

    pub fn envelope(&self, q: QueryId) -> Option<&(dyn Any + Send)> {
        self.0.get(q.index())?.as_deref()
    }

    /// Take the output out, only if it downcasts to `P`'s type.
    pub fn take<P: VertexProgram>(&mut self, q: QueryId) -> Option<P::Output> {
        let slot = self.0.get_mut(q.index())?;
        slot.as_ref()?.downcast_ref::<P::Output>()?;
        slot.take()
            .and_then(|b| b.downcast::<P::Output>().ok())
            .map(|b| *b)
    }
}
