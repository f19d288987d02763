//! Wall-clock serving benchmark on `ThreadEngine`.
//!
//! One generator thread drives a pool of `nproc` threads over k = 8
//! logical partitions through three workloads (see [`inputs`]). A run is
//! a sequence of rounds; each round sets up from scratch (graph, inputs,
//! partitioning, index, `ThreadEngine::start`), serves, and drains, until
//! `--seconds` have passed. Outputs are checked against the sequential
//! references after the timed window.
//!
//! Modes, chosen by the build and `--trace`:
//! * plain binary, `--trace 0`: the measurement. Prints the end-to-end
//!   metrics of the pooled rounds.
//! * plain binary, `--trace 1`: replays round 0 untraced, for the traced
//!   run's baseline (wall, measured p50, generator lag).
//! * traced binary (`trace` feature): replays round 0 with the event
//!   recorder on and folds the per-layer split, then replays the same
//!   inputs on `SimEngine`.
//!
//! `run.py` builds both binaries and merges the two replays into the
//! per-layer result. Every mode prints a `meta`/`detail` JSON line, then
//! the result object as its last line.

#![forbid(unsafe_code)]

mod check;
mod drive;
mod inputs;
#[cfg(feature = "trace")]
mod layers;
#[cfg(not(feature = "trace"))]
mod measure;
mod stats;

use std::process::ExitCode;

use drive::Served;
use inputs::{Workload, PARTITIONS};

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// (name, value, unit) triples.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn json_obj(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Print the human-readable table, the meta/detail line, and the result
/// object (last line).
pub fn emit(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &Metrics,
    meta: &[(&str, String)],
    detail: &Metrics,
) {
    for (name, value, unit) in metrics.iter().chain(detail) {
        println!("  {name:<28} {value:>14.4} {unit}");
    }
    let detail_json: Vec<(&str, String)> =
        detail.iter().map(|(n, v, _)| (*n, json_num(*v))).collect();
    println!(
        "{}",
        json_obj(&[("meta", json_obj(meta)), ("detail", json_obj(&detail_json))])
    );
    let m: Vec<(&str, String)> = metrics
        .iter()
        .map(|(n, v, u)| {
            (
                *n,
                json_obj(&[("value", json_num(*v)), ("unit", json_str(u))]),
            )
        })
        .collect();
    println!(
        "{}",
        json_obj(&[
            ("correct", correct.to_string()),
            ("attempted", attempted.to_string()),
            ("failed", failed.to_string()),
            ("metrics", json_obj(&m)),
        ])
    );
}

/// What is recorded beside every result.
pub fn meta(args: &Args, pool: usize, rounds: usize) -> Vec<(&'static str, String)> {
    let env = |k: &str| json_str(&std::env::var(k).unwrap_or_else(|_| "unknown".into()));
    let (rate, batch_rate) = args.workload.offered_rates();
    vec![
        ("workload", json_str(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("nproc", pool.to_string()),
        ("pool_threads", pool.to_string()),
        ("partitions", PARTITIONS.to_string()),
        ("source_rev", env("PERFBENCH_SOURCE_REV")),
        ("rustc", env("PERFBENCH_RUSTC")),
        ("offered_jobs_per_s", json_num(rate)),
        ("offered_batches_per_s", json_num(batch_rate)),
        ("run_seconds", json_num(args.seconds)),
        ("rounds", rounds.to_string()),
        ("trace_feature", cfg!(feature = "trace").to_string()),
    ]
}

/// Ops sent, and ops that failed: rejected, missing or wrong outputs, and
/// mutation batches that never applied.
pub fn verify(
    rounds: &[Served],
    rounds_in: &[inputs::Round],
    pool: usize,
) -> (usize, usize, usize) {
    let (mut attempted, mut failed, mut multi_epoch) = (0, 0, 0);
    for (s, r) in rounds.iter().zip(rounds_in) {
        let graphs = check::epoch_graphs(&r.graph, &r.mutations);
        let v = check::check(&s.jobs, &graphs, pool);
        let unapplied = s.batches.iter().filter(|b| b.visible.is_none()).count();
        attempted += v.sent + s.batches.len();
        failed += v.missing + v.wrong + unapplied;
        multi_epoch += v.multi_epoch;
    }
    (attempted, failed, multi_epoch)
}

/// Entry point shared by both binaries.
pub fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let pool = std::thread::available_parallelism().map_or(1, |n| n.get());
    #[cfg(feature = "trace")]
    {
        if !args.trace {
            eprintln!("perfbench: the traced binary serves --trace 1 only");
            return ExitCode::from(2);
        }
        layers::traced(&args, pool)
    }
    #[cfg(not(feature = "trace"))]
    {
        if args.trace {
            measure::replay(&args, pool)
        } else {
            measure::measure(&args, pool)
        }
    }
}
