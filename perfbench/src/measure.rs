//! The plain binary's two modes: the end-to-end measurement over pooled
//! rounds, and the untraced replay of round 0.

use std::process::ExitCode;
use std::time::Instant;

use qgraph_core::ThreadEngine;

use crate::drive::{serve, warm_up, Served, WARMUP_SECS};
use crate::inputs::{self, prepare, SetupTimes, Workload};
use crate::stats::{mean, quantile_of};
use crate::{emit, meta, verify, Args, Metrics};

/// A round whose generator ran later than this at its p99 is invalid:
/// its latencies measure the generator, not the engine.
const GEN_LAG_BOUND_MS: f64 = 10.0;
/// At least this many setups per run, so `setup_s` is a median.
const MIN_SETUPS: usize = 7;

/// Generator lag (actual minus scheduled send) of a round, in ms: (p99, max).
fn gen_lag_ms(s: &Served) -> (f64, f64) {
    let lags: Vec<f64> = s
        .jobs
        .iter()
        .map(|j| (j.sent - j.scheduled) * 1e3)
        .collect();
    let max = lags.iter().copied().fold(0.0, f64::max);
    (quantile_of(lags, 0.99), max)
}

/// The end-to-end samples of a set of rounds, pooled.
struct EndToEnd {
    /// Completed queries ÷ summed first-send-to-drain wall seconds.
    qps: f64,
    /// Admission to completion of traversal-served queries (ms).
    latency: Vec<f64>,
    /// Scheduled send to completion of SSSP/POI jobs (ms).
    point: Vec<f64>,
    /// Scheduled send to completion of BFS/WCC jobs (ms).
    analytic: Vec<f64>,
    /// Scheduled send of a mutation batch to the end of its barrier (ms).
    write_visible: Vec<f64>,
}

fn end_to_end(rounds: &[&Served]) -> EndToEnd {
    let mut e = EndToEnd {
        qps: 0.0,
        latency: Vec::new(),
        point: Vec::new(),
        analytic: Vec::new(),
        write_visible: Vec::new(),
    };
    let (mut done, mut wall) = (0usize, 0.0);
    for s in rounds {
        wall += s.wall_s;
        for j in &s.jobs {
            let (Some(o), Some(c)) = (&j.outcome, j.completed) else {
                continue;
            };
            if o.is_rejected() {
                continue;
            }
            done += 1;
            if !o.is_index_served() {
                e.latency.push(o.latency_secs() * 1e3);
            }
            let since_scheduled = (c - j.scheduled) * 1e3;
            if j.job.is_point() {
                e.point.push(since_scheduled);
            } else {
                e.analytic.push(since_scheduled);
            }
        }
        for b in &s.batches {
            if let Some(v) = b.visible {
                e.write_visible.push((v - b.scheduled) * 1e3);
            }
        }
    }
    e.qps = done as f64 / wall.max(1e-9);
    e
}

/// Set up one engine without serving it: an extra `setup_s` sample.
fn setup_only(w: Workload, seed: u64, round: usize, pool: usize) -> SetupTimes {
    let mut r = prepare(w, seed, round);
    let mut engine = ThreadEngine::with_config(
        std::sync::Arc::clone(&r.graph),
        r.parts.clone(),
        inputs::config(w, pool, false),
    );
    if let Some(index) = r.index.take() {
        engine.install_index(Box::new(index));
    }
    let t = Instant::now();
    engine.start();
    r.setup.start_s = t.elapsed().as_secs_f64();
    engine.shutdown();
    r.setup
}

fn median(xs: Vec<f64>) -> f64 {
    quantile_of(xs, 0.5)
}

/// `--trace 0` on the plain binary: the end-to-end measurement.
pub fn measure(args: &Args, pool: usize) -> ExitCode {
    let w = args.workload;
    warm_up(w, args.seed, pool, WARMUP_SECS);
    let started = Instant::now();
    let (mut inputs_kept, mut served) = (Vec::new(), Vec::new());
    // Start another round only if it is expected to end within the
    // run's seconds (each round takes about as long as the last one).
    let mut last_round_s = 0.0;
    while served.is_empty() || started.elapsed().as_secs_f64() + last_round_s <= args.seconds {
        let t = Instant::now();
        let mut round = prepare(w, args.seed, served.len());
        served.push(serve(w, &mut round, pool, false));
        inputs_kept.push(round);
        last_round_s = t.elapsed().as_secs_f64();
    }
    let mut setups: Vec<f64> = served.iter().map(|s| s.setup.total_s()).collect();
    while setups.len() < MIN_SETUPS {
        setups.push(setup_only(w, args.seed, setups.len(), pool).total_s());
    }

    let (attempted, failed, multi_epoch) = verify(&served, &inputs_kept, pool);
    // All closed-loop jobs are due at t = 0: lag applies to open loops.
    let lags: Vec<(f64, f64)> = served
        .iter()
        .map(|s| if w.open() { gen_lag_ms(s) } else { (0.0, 0.0) })
        .collect();
    let valid: Vec<&Served> = served
        .iter()
        .zip(&lags)
        .filter(|(_, l)| l.0 <= GEN_LAG_BOUND_MS)
        .map(|(s, _)| s)
        .collect();
    let invalid = served.len() - valid.len();
    if invalid > 0 {
        eprintln!(
            "perfbench: {invalid} round(s) invalid: generator p99 lag above {GEN_LAG_BOUND_MS} ms"
        );
    }
    // Percentiles over every sample of the valid rounds: a run's tail
    // rests on all of its barriers and analytics, not on one round's.
    let e = end_to_end(&valid);
    let q = |xs: &Vec<f64>, p: f64| quantile_of(xs.clone(), p);
    let metrics: Metrics = vec![
        ("setup_s", median(setups), "s"),
        ("qps", e.qps, "1/s"),
        ("point_p50_ms", q(&e.point, 0.5), "ms"),
        ("point_p99_ms", q(&e.point, 0.99), "ms"),
    ];
    let error_frac = failed as f64 / attempted.max(1) as f64;
    // Admission-to-completion percentiles are diagnostics, not gated: on
    // hotspot-qcut each Q-cut barrier a query spans adds ~10 ms, so the
    // p50 falls between the one- and two-barrier clusters and the p99
    // grows with barrier length times barrier count. On a shared host
    // both spread wider than `qps` between runs of the same inputs.
    let detail: Metrics = vec![
        ("latency_p50_ms", q(&e.latency, 0.5), "ms"),
        ("latency_p99_ms", q(&e.latency, 0.99), "ms"),
        ("analytic_p50_ms", q(&e.analytic, 0.5), "ms"),
        ("analytic_p90_ms", q(&e.analytic, 0.9), "ms"),
        ("write_visible_ms", q(&e.write_visible, 0.5), "ms"),
        ("latency_mean_ms", mean(&e.latency), "ms"),
        ("point_mean_ms", mean(&e.point), "ms"),
        ("latency_samples", e.latency.len() as f64, "count"),
        ("point_samples", e.point.len() as f64, "count"),
        ("analytic_samples", e.analytic.len() as f64, "count"),
        ("error_frac", error_frac, "ratio"),
        ("multi_epoch_unchecked", multi_epoch as f64, "count"),
        (
            "gen.lag_p99_ms",
            lags.iter().map(|l| l.0).fold(0.0, f64::max),
            "ms",
        ),
        (
            "gen.lag_max_ms",
            lags.iter().map(|l| l.1).fold(0.0, f64::max),
            "ms",
        ),
        ("invalid_rounds", invalid as f64, "count"),
        (
            "clock.offset_bound_ms",
            served
                .iter()
                .map(|s| s.offset_bound_s * 1e3)
                .fold(0.0, f64::max),
            "ms",
        ),
        (
            "qcut.locality",
            mean(
                &served
                    .iter()
                    .map(|s| s.report.mean_locality())
                    .collect::<Vec<_>>(),
            ),
            "ratio",
        ),
    ];
    if failed > 0 {
        eprintln!("perfbench: {failed} of {attempted} operations failed (error_frac {error_frac})");
    }
    let correct = failed == 0 && !valid.is_empty();
    emit(
        correct,
        attempted,
        failed,
        &metrics,
        &meta(args, pool, served.len()),
        &detail,
    );
    ExitCode::SUCCESS
}

/// `--trace 1` on the plain binary: round 0 untraced, the baseline the
/// traced replay is compared with.
pub fn replay(args: &Args, pool: usize) -> ExitCode {
    let w = args.workload;
    warm_up(w, args.seed, pool, WARMUP_SECS);
    let mut round = prepare(w, args.seed, 0);
    let s = serve(w, &mut round, pool, false);
    let (attempted, failed, _) =
        verify(std::slice::from_ref(&s), std::slice::from_ref(&round), pool);
    let e = end_to_end(&[&s]);
    let (lag_p99, lag_max) = if w.open() { gen_lag_ms(&s) } else { (0.0, 0.0) };
    let metrics: Metrics = vec![
        ("replay.wall_s", s.wall_s, "s"),
        (
            "replay.latency_p50_ms",
            quantile_of(e.latency.clone(), 0.5),
            "ms",
        ),
        (
            "replay.point_p50_ms",
            quantile_of(e.point.clone(), 0.5),
            "ms",
        ),
        ("gen.lag_p99_ms", lag_p99, "ms"),
        ("gen.lag_max_ms", lag_max, "ms"),
        (
            "e2e.analytic_p50_ms",
            quantile_of(e.analytic.clone(), 0.5),
            "ms",
        ),
        (
            "e2e.analytic_p90_ms",
            quantile_of(e.analytic.clone(), 0.9),
            "ms",
        ),
        ("e2e.write_visible_ms", median(e.write_visible), "ms"),
        (
            "e2e.error_frac",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ];
    emit(
        failed == 0,
        attempted,
        failed,
        &metrics,
        &meta(args, pool, 1),
        &Vec::new(),
    );
    ExitCode::SUCCESS
}
