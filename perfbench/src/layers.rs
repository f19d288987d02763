//! The per-layer split of a traced round: folds `EngineReport::trace`
//! events into the layer metrics, and replays the round's inputs through
//! `SimEngine` for the sim-vs-measured diagnostic.

use std::process::ExitCode;
use std::sync::Arc;

use qgraph_algo::{BfsProgram, RoadProgram, WccProgram};
use qgraph_core::{EngineReport, SimEngine};
use qgraph_sim::ClusterModel;
use qgraph_trace::{CmdKind, Kind, Track};

use crate::drive::{serve, warm_up, Served, WARMUP_SECS};
use crate::inputs::{config, prepare, Job, Round, Workload, PARTITIONS};
use crate::stats::{mean, quantile_of};
use crate::{emit, meta, verify, Args};

/// Sum of `begin..end` window lengths of one coordinator span kind.
/// The coordinator records from one thread, so its events keep their
/// emission order within the stream.
fn window_secs(report: &EngineReport, begin: Kind, end: Kind) -> (f64, usize) {
    let mut open = None;
    let (mut total, mut n) = (0.0, 0);
    for e in report
        .trace
        .events
        .iter()
        .filter(|e| e.track == Track::Coordinator)
    {
        if e.kind == begin {
            open = Some(e.at_secs);
        } else if e.kind == end {
            if let Some(b) = open.take() {
                total += e.at_secs - b;
                n += 1;
            }
        }
    }
    (total, n)
}

/// Lane-busy seconds per command kind: [deliver, freeze, step, collect,
/// other]. Each task's begin/end pair is recorded together on its lane.
fn lane_secs(report: &EngineReport) -> [f64; 5] {
    let mut open: Vec<Option<f64>> = Vec::new();
    let mut out = [0.0; 5];
    for e in &report.trace.events {
        let Track::Lane(lane) = e.track else { continue };
        let lane = lane as usize;
        if open.len() <= lane {
            open.resize(lane + 1, None);
        }
        match e.kind {
            Kind::TaskBegin => open[lane] = Some(e.at_secs),
            Kind::TaskEnd => {
                if let Some(b) = open[lane].take() {
                    let slot = match e.cmd {
                        CmdKind::Deliver => 0,
                        CmdKind::Freeze => 1,
                        CmdKind::Step => 2,
                        CmdKind::Collect => 3,
                        CmdKind::Other => 4,
                    };
                    out[slot] += e.at_secs - b;
                }
            }
            _ => {}
        }
    }
    out
}

/// Every per-layer metric of one traced round, as (name, value, unit).
pub fn fold(w: Workload, s: &Served) -> Vec<(&'static str, f64, &'static str)> {
    let r = &s.report;
    let summary = r.trace();
    let tl = &summary.timelines;
    let per_query = |f: fn(&qgraph_trace::QueryTimeline) -> f64| {
        mean(&tl.iter().map(f).collect::<Vec<_>>()) * 1e3
    };
    let supersteps: u64 = tl.iter().map(|t| t.supersteps).sum();
    let frozen: f64 = tl.iter().map(|t| t.frozen_secs).sum();
    let residual = tl
        .iter()
        .filter(|t| t.time_in_system_secs() > 1e-9)
        .map(|t| (t.phase_sum_secs() - t.time_in_system_secs()).abs() / t.time_in_system_secs())
        .fold(0.0, f64::max);
    let lanes = lane_secs(r);
    let busy: f64 = lanes.iter().sum();
    let (quiesce_s, _) = window_secs(r, Kind::QuiesceBegin, Kind::QuiesceEnd);
    let (qcut_s, _) = window_secs(r, Kind::QcutBegin, Kind::QcutEnd);
    let (mutation_s, barriers) = window_secs(r, Kind::MutationBegin, Kind::MutationEnd);
    let repair_s: f64 = s.repair_s.iter().sum();
    let compactions = r
        .trace
        .events
        .iter()
        .filter(|e| e.kind == Kind::Compaction)
        .count();
    let per_barrier = |x: f64| {
        if barriers > 0 {
            x / barriers as f64 * 1e3
        } else {
            0.0
        }
    };
    let outcomes: Vec<_> = r.completed().collect();
    let sum = |f: fn(&qgraph_core::QueryOutcome) -> u64| {
        outcomes.iter().map(|o| f(o)).sum::<u64>() as f64
    };
    let repairs = &r.index_repairs;
    let eligible = s
        .jobs
        .iter()
        .filter(|j| matches!(j.job, Job::Sssp { .. }))
        .count();
    let served_frac = if w == Workload::ChurnIndex && eligible > 0 {
        r.index_served() as f64 / eligible as f64
    } else {
        0.0
    };
    vec![
        ("workload.gen_s", s.setup.gen_s, "s"),
        ("partition.s", s.setup.partition_s, "s"),
        ("index.build_s", s.setup.index_build_s, "s"),
        ("index.label_entries", s.setup.label_entries as f64, "count"),
        ("runtime.start_s", s.setup.start_s, "s"),
        ("sched.queued_ms", per_query(|t| t.queued_secs), "ms"),
        (
            "runtime.frozen_ms",
            if supersteps > 0 {
                frozen / supersteps as f64 * 1e3
            } else {
                0.0
            },
            "ms",
        ),
        ("pool.deferred_ms", per_query(|t| t.deferred_secs), "ms"),
        (
            "pool.busy_frac",
            busy / (s.pool_threads as f64 * s.wall_s),
            "ratio",
        ),
        ("pool.tasks", r.pool.tasks as f64, "count"),
        ("pool.steals", r.pool.steals as f64, "count"),
        ("pool.idle_waits", r.pool.idle_waits as f64, "count"),
        ("worker.deliver_s", lanes[0], "s"),
        ("worker.freeze_s", lanes[1], "s"),
        ("worker.step_s", lanes[2], "s"),
        ("worker.collect_s", lanes[3], "s"),
        ("worker.vertex_updates", sum(|o| o.vertex_updates), "count"),
        (
            "worker.remote_messages",
            sum(|o| o.remote_messages),
            "count",
        ),
        ("worker.remote_batches", sum(|o| o.remote_batches), "count"),
        ("qcut.window_s", qcut_s, "s"),
        ("qcut.repartitions", r.repartitions.len() as f64, "count"),
        (
            "qcut.moved_vertices",
            r.total_moved_vertices() as f64,
            "count",
        ),
        (
            "qcut.locality",
            mean(
                &outcomes
                    .iter()
                    .filter(|o| !o.is_index_served())
                    .map(|o| o.locality())
                    .collect::<Vec<_>>(),
            ),
            "ratio",
        ),
        ("barrier.quiesce_s", quiesce_s, "s"),
        ("barrier.parked_ms", per_query(|t| t.parked_secs), "ms"),
        // The mutation window less the index repair timed inside it.
        (
            "graph.apply_ms",
            per_barrier((mutation_s - repair_s).max(0.0)),
            "ms",
        ),
        ("graph.compactions", compactions as f64, "count"),
        ("index.repair_ms", per_barrier(repair_s), "ms"),
        (
            "index.entries_invalidated",
            repairs
                .iter()
                .map(|e| e.summary.entries_invalidated)
                .sum::<usize>() as f64,
            "count",
        ),
        (
            "index.partial_roots",
            repairs
                .iter()
                .map(|e| e.summary.partial_roots)
                .sum::<usize>() as f64,
            "count",
        ),
        (
            "index.roots_rerun",
            repairs.iter().map(|e| e.summary.roots_rerun).sum::<usize>() as f64,
            "count",
        ),
        (
            "index.rebuilds",
            repairs.iter().filter(|e| e.summary.rebuilt).count() as f64,
            "count",
        ),
        ("index_plane.served_frac", served_frac, "ratio"),
        (
            "trace.dropped_events",
            summary.dropped_events as f64,
            "count",
        ),
        ("trace.phase_residual_max", residual, "ratio"),
    ]
}

/// Median latency in ms of `round`'s inputs on `SimEngine`: admission to
/// completion on the closed loop, scheduled arrival to completion of the
/// point jobs on the open one. `None` for churn-index.
pub fn sim_p50_ms(w: Workload, round: &Round, pool_threads: usize) -> Option<f64> {
    if w == Workload::ChurnIndex {
        return None;
    }
    let mut engine = SimEngine::new(
        Arc::clone(&round.graph),
        ClusterModel::scale_up(PARTITIONS),
        round.parts.clone(),
        config(w, pool_threads, false),
    );
    let mut point_ids = Vec::new();
    for &(at, job) in &round.jobs {
        let id = match job {
            Job::Sssp { source, target } => {
                engine.submit_at(RoadProgram::sssp(source, target), at).id()
            }
            Job::Poi { source } => engine.submit_at(RoadProgram::poi(source), at).id(),
            Job::Bfs { source, depth } => engine.submit_at(BfsProgram::new(source, depth), at).id(),
            Job::Wcc => engine.submit_at(WccProgram, at).id(),
        };
        if job.is_point() {
            point_ids.push(id);
        }
    }
    let report = engine.run();
    let lat: Vec<f64> = report
        .completed()
        .filter(|o| point_ids.binary_search(&o.id).is_ok())
        .map(|o| {
            if w.open() {
                o.time_in_system_secs()
            } else {
                o.latency_secs()
            }
        })
        .collect();
    Some(quantile_of(lat, 0.5) * 1e3)
}

/// The traced binary: round 0 with the recorder on, folded per layer,
/// then the same inputs on `SimEngine`.
pub fn traced(args: &Args, pool: usize) -> ExitCode {
    let w = args.workload;
    warm_up(w, args.seed, pool, WARMUP_SECS);
    let mut round = prepare(w, args.seed, 0);
    let s = serve(w, &mut round, pool, true);
    let (attempted, failed, _) =
        verify(std::slice::from_ref(&s), std::slice::from_ref(&round), pool);
    let mut metrics = fold(w, &s);
    let dropped = metrics
        .iter()
        .any(|m| m.0 == "trace.dropped_events" && m.1 > 0.0);
    let leaky = metrics
        .iter()
        .any(|m| m.0 == "trace.phase_residual_max" && m.1 > 0.01);
    if dropped || leaky {
        eprintln!("perfbench: trace incomplete (dropped events or phase sums off by more than 1%)");
    }
    metrics.push(("trace.wall_s", s.wall_s, "s"));
    metrics.push((
        "sim.p50_ms",
        sim_p50_ms(w, &round, pool).unwrap_or(0.0),
        "ms",
    ));
    emit(
        failed == 0 && !dropped && !leaky,
        attempted,
        failed,
        &metrics,
        &meta(args, pool, 1),
        &Vec::new(),
    );
    ExitCode::SUCCESS
}
