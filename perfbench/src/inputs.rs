//! The three workloads: what each round generates from the seed, and the
//! engine configuration it is served under.
//!
//! Every round rebuilds its inputs from scratch (graph, query stream,
//! mutation stream, partitioning, label index), so each round yields one
//! complete `setup_s` sample. The graph is the benchmark's fixed dataset
//! (one BW-like road network per workload, generated from
//! [`GRAPH_SEED`]); the `--seed` argument drives everything the graph
//! does not: which queries arrive, when, and which roads close.

use std::sync::Arc;
use std::time::Instant;

use qgraph_bench::{build_network, partition_graph, GraphPreset, Strategy};
use qgraph_core::{DopPolicy, QcutConfig, SystemConfig, Topology};
use qgraph_graph::{Graph, VertexId};
use qgraph_index::{IndexConfig, LabelIndex};
use qgraph_partition::Partitioning;
use qgraph_workload::{
    arrival_times, road_closures, ArrivalConfig, ChurnConfig, QueryKind, QuerySpec, TimedMutation,
    WorkloadConfig, WorkloadGenerator,
};

/// Logical partitions (the paper's k = 8 workers).
pub const PARTITIONS: usize = 8;
/// Seed of the road networks: the dataset stays fixed across seeds.
pub const GRAPH_SEED: u64 = 7;
/// POI tag probability (one tagged vertex in ~200, as `run_all`'s mix).
const TAG_PROBABILITY: f64 = 1.0 / 200.0;

/// hotspot-qcut: queries per round, all submitted at t = 0.
const HOTSPOT_QUERIES: usize = 2048;
/// mixed-open: offered jobs per second (~55% of the ~1,450/s knee on 2
/// cores, so a slower stretch of a shared host does not tip it into
/// queueing) and the length of one round's arrival schedule.
pub const MIXED_RATE: f64 = 800.0;
const MIXED_ROUND_SECS: f64 = 3.0;
/// mixed-open: a BFS flood rides along every 16th point query, a WCC
/// every 256th.
const FLOOD_EVERY: usize = 16;
const WCC_EVERY: usize = 256;
const FLOOD_DEPTH: u32 = 48;
/// churn-index: offered point queries per second, mutation batches per
/// second (evenly spaced, mid-gap), and the round length. A barrier
/// (a full label rebuild or an incremental repair, up to ~0.5 s on 2
/// cores) stops admission. At 0.35 batches/s barriers fill ~17% of the
/// stream: the median query stays on the index fast path, the p99 lands
/// inside barrier waits, and a 45 s run holds ~15 barriers. At 0.5/s the
/// traversal queries released together after each barrier made their
/// median swing between runs; at 4 batches/s the barrier backlog grows
/// without bound.
pub const CHURN_RATE: f64 = 500.0;
pub const CHURN_BATCH_RATE: f64 = 0.35;
const CHURN_ROUND_SECS: f64 = 8.0;
const CHURN_OPS_PER_BATCH: usize = 6;
/// churn-index: every 8th query is a traversal POI query.
const CHURN_POI_EVERY: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, Hash + Q-cut: the paper's Fig. 6 setup.
    HotspotQcut,
    /// Open loop, static Domain, elastic pool: point traffic with
    /// analytics riding along; the no-change control for Q-cut, the
    /// mutation plane and the index.
    MixedOpen,
    /// Open loop of index-served point queries beside road closures.
    ChurnIndex,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "hotspot-qcut" => Some(Workload::HotspotQcut),
            "mixed-open" => Some(Workload::MixedOpen),
            "churn-index" => Some(Workload::ChurnIndex),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotspotQcut => "hotspot-qcut",
            Workload::MixedOpen => "mixed-open",
            Workload::ChurnIndex => "churn-index",
        }
    }

    pub fn scale(self) -> f64 {
        match self {
            Workload::HotspotQcut | Workload::MixedOpen => 0.5,
            Workload::ChurnIndex => 0.02,
        }
    }

    /// Open loops send on a schedule; the closed loop sends everything
    /// at t = 0.
    pub fn open(self) -> bool {
        self != Workload::HotspotQcut
    }

    /// Offered rates recorded beside every result: (jobs/s, batches/s).
    pub fn offered_rates(self) -> (f64, f64) {
        match self {
            Workload::HotspotQcut => (0.0, 0.0),
            Workload::MixedOpen => (MIXED_RATE, 0.0),
            Workload::ChurnIndex => (CHURN_RATE, CHURN_BATCH_RATE),
        }
    }
}

/// One query of a workload.
#[derive(Clone, Copy, Debug)]
pub enum Job {
    Sssp { source: VertexId, target: VertexId },
    Poi { source: VertexId },
    Bfs { source: VertexId, depth: u32 },
    Wcc,
}

impl Job {
    /// SSSP and POI: the point traffic.
    pub fn is_point(self) -> bool {
        matches!(self, Job::Sssp { .. } | Job::Poi { .. })
    }
}

/// Seconds spent in each setup step of one round.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Graph and query (and mutation) generation.
    pub gen_s: f64,
    /// The partitioner call.
    pub partition_s: f64,
    /// `LabelIndex::build` (churn-index only).
    pub index_build_s: f64,
    pub label_entries: usize,
    /// `ThreadEngine::start`.
    pub start_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.gen_s + self.partition_s + self.index_build_s + self.start_s
    }
}

/// Everything one round serves, generated but not yet started.
pub struct Round {
    pub graph: Arc<Graph>,
    pub parts: Partitioning,
    /// Jobs with their scheduled send time (seconds from the first send).
    pub jobs: Vec<(f64, Job)>,
    pub mutations: Vec<TimedMutation>,
    pub index: Option<LabelIndex>,
    pub setup: SetupTimes,
}

/// Mix the run seed with the round number so rounds differ but repeat.
fn round_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (round as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// The engine configuration of a workload.
pub fn config(w: Workload, pool_threads: usize, trace: bool) -> SystemConfig {
    SystemConfig {
        qcut: (w == Workload::HotspotQcut).then(QcutConfig::default),
        max_parallel_queries: 16,
        pool_threads,
        dop: DopPolicy::Adaptive,
        trace,
        // Without mutation or Q-cut barriers the rings drain only at the
        // end of a round: size them for a whole round (they grow lazily).
        trace_ring_capacity: 1 << 24,
        ..SystemConfig::default()
    }
}

fn job_of(spec: &QuerySpec) -> Job {
    match spec.kind {
        QueryKind::Sssp { source, target } => Job::Sssp { source, target },
        QueryKind::Poi { source } => Job::Poi { source },
    }
}

/// Interleave SSSP and POI specs into point jobs.
fn point_jobs(sssp: &[QuerySpec], poi: &[QuerySpec]) -> Vec<Job> {
    let mut out = Vec::with_capacity(sssp.len() + poi.len());
    for i in 0..sssp.len().max(poi.len()) {
        out.extend([sssp.get(i), poi.get(i)].into_iter().flatten().map(job_of));
    }
    out
}

/// Generate round `round` of workload `w` for `seed`, timing each step.
pub fn prepare(w: Workload, seed: u64, round: usize) -> Round {
    let s = round_seed(seed, round);
    let t = Instant::now();
    let net = build_network(
        GraphPreset::BwLike { scale: w.scale() },
        TAG_PROBABILITY,
        GRAPH_SEED,
    );
    let gen = WorkloadGenerator::new(&net);
    let specs = |n: usize, poi: bool, salt: u64| {
        gen.generate(&WorkloadConfig::single(n, poi, false, s ^ salt))
    };
    let (jobs, mutations) = match w {
        Workload::HotspotQcut => {
            let half = HOTSPOT_QUERIES / 2;
            let jobs = point_jobs(&specs(half, false, 1), &specs(half, true, 2));
            (jobs.into_iter().map(|j| (0.0, j)).collect(), Vec::new())
        }
        Workload::MixedOpen => {
            let total = (MIXED_RATE * MIXED_ROUND_SECS).round() as usize;
            // Points p carry total·p/(p + p/16 + p/256) of the jobs.
            let points = total * 256 / (256 + 16 + 1);
            let pts = point_jobs(
                &specs(points / 2, false, 1),
                &specs(points - points / 2, true, 2),
            );
            let mut jobs = Vec::with_capacity(total);
            for (i, &p) in pts.iter().enumerate() {
                jobs.push(p);
                if i % FLOOD_EVERY == FLOOD_EVERY - 1 {
                    let source = match p {
                        Job::Sssp { source, .. } | Job::Poi { source } => source,
                        _ => unreachable!("point jobs only"),
                    };
                    jobs.push(Job::Bfs {
                        source,
                        depth: FLOOD_DEPTH,
                    });
                }
                if i % WCC_EVERY == WCC_EVERY - 1 {
                    jobs.push(Job::Wcc);
                }
            }
            let times = arrival_times(&ArrivalConfig::poisson(jobs.len(), MIXED_RATE, s ^ 3));
            (times.into_iter().zip(jobs).collect(), Vec::new())
        }
        Workload::ChurnIndex => {
            let n = (CHURN_RATE * CHURN_ROUND_SECS).round() as usize;
            let poi = n / CHURN_POI_EVERY;
            let sssp = specs(n - poi, false, 1);
            let pois = specs(poi, true, 2);
            let (mut a, mut b) = (sssp.iter(), pois.iter());
            let jobs: Vec<Job> = (0..n)
                .filter_map(|i| {
                    if i % CHURN_POI_EVERY == CHURN_POI_EVERY - 1 {
                        b.next()
                    } else {
                        a.next()
                    }
                })
                .map(job_of)
                .collect();
            let times = arrival_times(&ArrivalConfig::poisson(jobs.len(), CHURN_RATE, s ^ 3));
            let batches = (CHURN_BATCH_RATE * CHURN_ROUND_SECS).round() as usize;
            // Evenly spaced, half a gap in: the barrier lands mid-round.
            let mut churn = road_closures(
                &net.graph,
                &ChurnConfig::uniform(batches, CHURN_OPS_PER_BATCH, CHURN_BATCH_RATE, s ^ 4),
            );
            for m in &mut churn {
                m.at_secs += 0.5 / CHURN_BATCH_RATE;
            }
            (times.into_iter().zip(jobs).collect(), churn)
        }
    };
    let gen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let strategy = match w {
        Workload::HotspotQcut => Strategy::HashQcut,
        Workload::MixedOpen => Strategy::Domain,
        Workload::ChurnIndex => Strategy::Hash,
    };
    let parts = partition_graph(strategy, &net, PARTITIONS, GRAPH_SEED);
    let partition_s = t.elapsed().as_secs_f64();

    let graph = Arc::new(net.graph);
    let t = Instant::now();
    let index = (w == Workload::ChurnIndex)
        .then(|| LabelIndex::build(&Topology::new(Arc::clone(&graph)), IndexConfig::default()));
    let index_build_s = if index.is_some() {
        t.elapsed().as_secs_f64()
    } else {
        0.0
    };
    let label_entries = index.as_ref().map_or(0, LabelIndex::total_entries);

    Round {
        graph,
        parts,
        jobs,
        mutations,
        index,
        setup: SetupTimes {
            gen_s,
            partition_s,
            index_build_s,
            label_entries,
            start_s: 0.0,
        },
    }
}
