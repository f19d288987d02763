//! Serving one round on `ThreadEngine` from a single generator thread,
//! and turning its outcomes into per-job records on the generator's
//! clock.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qgraph_algo::{BfsProgram, RoadAnswer, RoadProgram, WccProgram};
use qgraph_core::{
    EngineClient, EngineReport, PointAnswer, PointIndex, PointQuery, QueryHandle, QueryOutcome,
    RepairSummary, ThreadEngine,
};
use qgraph_graph::{AppliedMutation, Topology, VertexId};
use qgraph_index::LabelIndex;

use crate::inputs::{config, Job, Round, SetupTimes, Workload};

/// A finished job's answer, normalised across program types.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    Dist(Option<f32>),
    Nearest(Option<(VertexId, f32)>),
    Hops(Vec<(VertexId, u32)>),
    Components(usize),
}

enum Handle {
    Road(QueryHandle<RoadProgram>),
    Bfs(QueryHandle<BfsProgram>),
    Wcc(QueryHandle<WccProgram>),
}

fn submit(client: &EngineClient, job: Job) -> Handle {
    match job {
        Job::Sssp { source, target } => {
            Handle::Road(client.submit(RoadProgram::sssp(source, target)))
        }
        Job::Poi { source } => Handle::Road(client.submit(RoadProgram::poi(source))),
        Job::Bfs { source, depth } => Handle::Bfs(client.submit(BfsProgram::new(source, depth))),
        Job::Wcc => Handle::Wcc(client.submit(WccProgram)),
    }
}

fn answer(engine: &ThreadEngine, h: &Handle) -> Option<Answer> {
    Some(match h {
        Handle::Road(h) => match *engine.output(h)? {
            RoadAnswer::Distance(d) => Answer::Dist(d),
            RoadAnswer::Nearest(n) => Answer::Nearest(n),
        },
        Handle::Bfs(h) => Answer::Hops(engine.output(h)?.clone()),
        Handle::Wcc(h) => Answer::Components(*engine.output(h)?),
    })
}

fn handle_id(h: &Handle) -> qgraph_core::QueryId {
    match h {
        Handle::Road(h) => h.id(),
        Handle::Bfs(h) => h.id(),
        Handle::Wcc(h) => h.id(),
    }
}

/// Times every `repair` call the engine makes into the installed index:
/// the benchmark's own span around the index layer's public entry point.
struct TimedIndex {
    inner: LabelIndex,
    repairs: Arc<std::sync::Mutex<Vec<f64>>>,
}

impl PointIndex for TimedIndex {
    fn serve(&self, q: &PointQuery) -> Option<PointAnswer> {
        self.inner.serve(q)
    }

    fn repaired_through(&self) -> u64 {
        self.inner.repaired_through()
    }

    fn repair(
        &mut self,
        topology: &Topology,
        applied: &AppliedMutation,
        epoch: u64,
    ) -> RepairSummary {
        let t = Instant::now();
        let summary = self.inner.repair(topology, applied, epoch);
        self.repairs
            .lock()
            .expect("repair timer lock: no holder panics")
            .push(t.elapsed().as_secs_f64());
        summary
    }

    fn set_parallelism(&mut self, threads: usize) {
        self.inner.set_parallelism(threads);
    }
}

/// One job after the round: what was asked, when, and what came back.
pub struct JobRecord {
    pub job: Job,
    /// Scheduled and actual send, seconds from the round's first send.
    pub scheduled: f64,
    pub sent: f64,
    pub outcome: Option<QueryOutcome>,
    pub answer: Option<Answer>,
    /// Completion on the generator's clock (seconds from the first send).
    pub completed: Option<f64>,
}

/// One mutation batch after the round.
pub struct BatchRecord {
    pub scheduled: f64,
    /// End of the barrier that applied it (and repaired the index), on
    /// the generator's clock; `None` if it never applied.
    pub visible: Option<f64>,
}

pub struct Served {
    pub setup: SetupTimes,
    pub jobs: Vec<JobRecord>,
    pub batches: Vec<BatchRecord>,
    /// First send to drain acknowledgement.
    pub wall_s: f64,
    /// Bound on the error of shifting engine stamps onto the generator's
    /// clock: the duration of the `start()` call.
    pub offset_bound_s: f64,
    /// Wall seconds of each index repair call.
    pub repair_s: Vec<f64>,
    pub report: EngineReport,
    pub pool_threads: usize,
}

/// Start an engine on `round`, send its jobs and batches on schedule from
/// this thread, drain, and collect every output.
pub fn serve(w: Workload, round: &mut Round, pool_threads: usize, trace: bool) -> Served {
    let mut engine = ThreadEngine::with_config(
        Arc::clone(&round.graph),
        round.parts.clone(),
        config(w, pool_threads, trace),
    );
    let repairs = Arc::new(std::sync::Mutex::new(Vec::new()));
    if let Some(inner) = round.index.take() {
        engine.install_index(Box::new(TimedIndex {
            inner,
            repairs: Arc::clone(&repairs),
        }));
    }
    let start_begin = Instant::now();
    engine.start();
    let start_end = Instant::now();
    round.setup.start_s = (start_end - start_begin).as_secs_f64();
    let client = engine.client();

    // Merge the query and mutation schedules; ties send queries first.
    let mut sched: Vec<(f64, usize, bool)> = round
        .jobs
        .iter()
        .enumerate()
        .map(|(i, &(at, _))| (at, i, false))
        .chain(
            round
                .mutations
                .iter()
                .enumerate()
                .map(|(i, m)| (m.at_secs, i, true)),
        )
        .collect();
    sched.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));

    let mut handles: Vec<Option<(Handle, f64)>> = (0..round.jobs.len()).map(|_| None).collect();
    let t0 = Instant::now();
    for (at, i, is_mutation) in sched {
        let due = t0 + Duration::from_secs_f64(at);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = t0.elapsed().as_secs_f64();
        if is_mutation {
            client.mutate(round.mutations[i].batch.clone());
        } else {
            handles[i] = Some((submit(&client, round.jobs[i].1), sent));
        }
    }
    engine.drain();
    let wall_s = t0.elapsed().as_secs_f64();
    let report = engine.shutdown().clone();

    let outcomes: HashMap<u32, QueryOutcome> =
        report.outcomes.iter().map(|o| (o.id.0, *o)).collect();
    // Engine stamps count from a clock origin taken inside `start()`.
    // Shift them onto the generator's clock by the latest origin that
    // causality allows: no query can be queued before it was sent.
    let lo = -(t0 - start_begin).as_secs_f64();
    let hi = -(t0 - start_end).as_secs_f64();
    let mut offset = lo;
    for h in handles.iter().flatten() {
        if let Some(o) = outcomes.get(&handle_id(&h.0).0) {
            offset = offset.max(h.1 - o.queued_at.as_secs_f64());
        }
    }
    let offset = offset.min(hi);

    let jobs = round
        .jobs
        .iter()
        .zip(handles)
        .map(|(&(scheduled, job), h)| {
            let (handle, sent) = h.expect("every scheduled job was sent");
            let outcome = outcomes.get(&handle_id(&handle).0).copied();
            JobRecord {
                job,
                scheduled,
                sent,
                completed: outcome.map(|o| offset + o.completed_at.as_secs_f64()),
                outcome,
                answer: answer(&engine, &handle),
            }
        })
        .collect();

    // Batches apply in send order, one epoch each.
    let batches = round
        .mutations
        .iter()
        .enumerate()
        .map(|(i, m)| BatchRecord {
            scheduled: m.at_secs,
            visible: report
                .mutations
                .iter()
                .find(|e| e.epoch == i as u64 + 1)
                .map(|e| offset + e.applied_at + e.barrier_duration),
        })
        .collect();
    let repair_s = repairs
        .lock()
        .expect("repair timer lock: no holder panics")
        .clone();

    Served {
        setup: round.setup,
        jobs,
        batches,
        wall_s,
        offset_bound_s: (start_end - start_begin).as_secs_f64(),
        repair_s,
        report,
        pool_threads,
    }
}

/// Unmeasured serving before every measurement (see [`warm_up`]).
pub const WARMUP_SECS: f64 = 3.0;

/// Serve unmeasured rounds for `secs` seconds before measuring. An idle
/// host runs its first seconds of load markedly faster than the steady
/// state that follows; this also faults in code, heap and thread stacks.
pub fn warm_up(w: Workload, seed: u64, pool_threads: usize, secs: f64) {
    let t = Instant::now();
    let mut round = usize::MAX;
    while t.elapsed().as_secs_f64() < secs {
        serve(
            w,
            &mut crate::inputs::prepare(w, seed, round),
            pool_threads,
            false,
        );
        round -= 1;
    }
}
