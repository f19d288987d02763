//! Output checking against `qgraph_algo::reference`, outside the timed
//! window. On a mutated graph a query is checked against the topology
//! replayed to its epoch; a query whose supersteps spanned a mutation
//! barrier saw two graph versions and has no single reference answer.

use std::collections::HashMap;
use std::sync::Arc;

use qgraph_algo::{connected_component_of, dijkstra_to, k_hop, nearest_tagged};
use qgraph_core::Topology;
use qgraph_graph::{Graph, VertexId};
use qgraph_workload::TimedMutation;

use crate::drive::{Answer, JobRecord};
use crate::inputs::Job;

#[derive(Clone, Copy, Debug, Default)]
pub struct Verdict {
    /// Jobs sent.
    pub sent: usize,
    /// Jobs with no outcome or no output, or rejected at admission.
    pub missing: usize,
    /// Jobs whose output differs from the reference.
    pub wrong: usize,
    /// Jobs that spanned a mutation barrier (not checkable).
    pub multi_epoch: usize,
}

/// Label intersection sums `d(u,h) + d(h,v)` in another order than a
/// traversal accumulates along the path, so index-served distances agree
/// with the reference only to f32 rounding (`index_smoke`'s tolerance).
fn close(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-4 * a.abs().max(b.abs()).max(1.0)
}

fn components(g: &Graph) -> usize {
    let mut seen = vec![false; g.num_vertices()];
    let mut count = 0;
    for v in g.vertices() {
        if !seen[v.index()] {
            count += 1;
            for u in connected_component_of(g, v) {
                seen[u.index()] = true;
            }
        }
    }
    count
}

/// The reference answer for `job` on `g`; POI answers are cached per
/// source (hotspot sources repeat).
fn expected(
    g: &Graph,
    job: Job,
    poi_cache: &mut HashMap<VertexId, Option<(VertexId, f32)>>,
) -> Answer {
    match job {
        Job::Sssp { source, target } => Answer::Dist(dijkstra_to(g, source, target)),
        Job::Poi { source } => Answer::Nearest(
            *poi_cache
                .entry(source)
                .or_insert_with(|| nearest_tagged(g, source)),
        ),
        Job::Bfs { source, depth } => Answer::Hops(k_hop(g, source, depth)),
        Job::Wcc => Answer::Components(components(g)),
    }
}

fn matches(got: &Answer, want: &Answer, index_served: bool) -> bool {
    match (got, want) {
        (Answer::Dist(Some(a)), Answer::Dist(Some(b))) if index_served => close(*a, *b),
        _ => got == want,
    }
}

/// The graph as of every epoch `0..=mutations.len()`.
pub fn epoch_graphs(base: &Arc<Graph>, mutations: &[TimedMutation]) -> Vec<Arc<Graph>> {
    let mut topo = Topology::new(Arc::clone(base));
    let mut out = vec![Arc::clone(base)];
    for m in mutations {
        topo.apply(&m.batch);
        out.push(Arc::new(topo.materialize()));
    }
    out
}

/// Check every job of a round, fanned over `threads` scoped threads.
pub fn check(jobs: &[JobRecord], graphs: &[Arc<Graph>], threads: usize) -> Verdict {
    let chunk = jobs.len().div_ceil(threads.max(1)).max(1);
    let parts: Vec<Verdict> = std::thread::scope(|s| {
        let workers: Vec<_> = jobs
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut v = Verdict::default();
                    let mut caches: HashMap<u64, HashMap<VertexId, Option<(VertexId, f32)>>> =
                        HashMap::new();
                    for r in part {
                        v.sent += 1;
                        let (Some(o), Some(got)) = (&r.outcome, &r.answer) else {
                            v.missing += 1;
                            continue;
                        };
                        if o.is_rejected() {
                            v.missing += 1;
                            continue;
                        }
                        if !o.single_epoch() {
                            v.multi_epoch += 1;
                            continue;
                        }
                        let Some(g) = graphs.get(o.first_epoch as usize) else {
                            v.wrong += 1;
                            continue;
                        };
                        let want = expected(g, r.job, caches.entry(o.first_epoch).or_default());
                        if !matches(got, &want, o.is_index_served()) {
                            v.wrong += 1;
                        }
                    }
                    v
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("checker thread panicked"))
            .collect()
    });
    parts.into_iter().fold(Verdict::default(), |a, b| Verdict {
        sent: a.sent + b.sent,
        missing: a.missing + b.missing,
        wrong: a.wrong + b.wrong,
        multi_epoch: a.multi_epoch + b.multi_epoch,
    })
}
