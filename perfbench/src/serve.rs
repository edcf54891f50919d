//! The `serve-churn` workload: a seeded query mix served from one frozen
//! R-MAT snapshot while a second client applies edge updates.
//!
//! Closed loop, two client threads, one process:
//!
//! * the query client answers the mix (BFS, SSSP, PageRank and CC in
//!   rotation, roots drawn from the giant component) back to back through
//!   a [`Session`] that shares the set-up's partition map and
//!   [`BufferPool`]. Every answer's fingerprint is compared with the one
//!   a solo session gave before timing;
//! * the update client applies seeded batches to a [`DeltaOverlay`] and
//!   repairs [`MaintainedCc`] and [`MaintainedPageRank`] after each. A
//!   third of each batch deletes edges the overlay really has, half of
//!   those base-graph bridges (found once by `flash_algos::bridges`), so
//!   components split. After each batch, outside its timed interval, the
//!   client checks CC against `full_cc` and PageRank against its
//!   `comparison_bound` of `full_pagerank`.
//!
//! A pass is one cycle of the query mix; a traced run alternates untraced
//! and traced cycles.

use crate::jobs::Fnv;
use crate::report::{geomean, median, median_ms, peak_rss_mb, tail, Report};
use crate::spans::{self, ClockSink, JobSpans};
use crate::{mix_seed, repeat_setup, Args, WORKERS};
use flash_algos::incremental::{full_cc, full_pagerank, MaintainedCc, MaintainedPageRank};
use flash_graph::{generators, DeltaOverlay, EdgeUpdate, Graph, Prng, VertexId};
use flash_runtime::{ClusterConfig, RunStats, RuntimeError, Session};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The `fig_serve` seed.
const SERVE_SEED: u64 = 0xF1A5;
const SCALE: u32 = 11;
const EDGE_FACTOR: usize = 8;
/// PageRank repair tolerance (L1 step delta), as in `fig_serve`.
const EPS: f64 = 1e-9;
/// Queries in one cycle of the mix.
const MIX_LEN: usize = 256;
/// PageRank sweeps per query, as in `fig_serve`.
const PR_QUERY_ITERS: usize = 5;
/// Edge updates per batch: a third deletions, the rest insertions.
const BATCH_SIZE: usize = 16;

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Query {
    Bfs(VertexId),
    Sssp(VertexId),
    PageRank,
    Cc,
}

/// Job kinds of `job_geomean_ms`: the four query kinds and the update.
const KINDS: [&str; 5] = ["bfs", "sssp", "pagerank", "cc", "update"];

impl Query {
    fn kind(self) -> usize {
        match self {
            Query::Bfs(_) => 0,
            Query::Sssp(_) => 1,
            Query::PageRank => 2,
            Query::Cc => 3,
        }
    }
}

/// Answers one query on a session's snapshot: the answer's fingerprint
/// and the run's statistics.
fn answer(session: &Session, query: Query) -> Result<(u64, RunStats), RuntimeError> {
    let g = session.graph();
    let cfg = session.config();
    let h = Fnv::new();
    Ok(match query {
        Query::Bfs(root) => {
            let out = flash_algos::bfs::run(g, cfg, root)?;
            (h.u32s(&out.result).finish(), out.stats)
        }
        Query::Sssp(root) => {
            let out = flash_algos::sssp::run(g, cfg, root)?;
            (h.f64s(&out.result).finish(), out.stats)
        }
        Query::PageRank => {
            let out = flash_algos::pagerank::run(g, cfg, PR_QUERY_ITERS)?;
            (h.f64s(&out.result).finish(), out.stats)
        }
        Query::Cc => {
            let out = flash_algos::cc::run(g, cfg)?;
            (h.u32s(&out.result).finish(), out.stats)
        }
    })
}

/// What the serving run prepares before it serves.
struct Prepared {
    graph: Arc<Graph>,
    shared: Session,
    overlay: DeltaOverlay,
    cc: MaintainedCc,
    pr: MaintainedPageRank,
}

/// What preparing it cost.
struct SetupTimes {
    total: Duration,
    generate: Duration,
    partition: Duration,
}

fn setup(seed: u64) -> Result<(Prepared, SetupTimes), String> {
    let t0 = Instant::now();
    let graph = Arc::new(generators::rmat(
        SCALE,
        EDGE_FACTOR,
        Default::default(),
        SERVE_SEED ^ mix_seed(seed),
    ));
    let generate = t0.elapsed();
    let t = Instant::now();
    // The shared session builds the partition map and the buffer pool
    // every query session reuses.
    let shared = Session::new(1, Arc::clone(&graph), ClusterConfig::with_workers(WORKERS))
        .map_err(|e| format!("shared session: {e}"))?;
    let partition = t.elapsed();
    let overlay = DeltaOverlay::new(Arc::clone(&graph));
    let cc = MaintainedCc::new(&overlay);
    let pr = MaintainedPageRank::new(&overlay, EPS);
    let times = SetupTimes {
        total: t0.elapsed(),
        generate,
        partition,
    };
    let prepared = Prepared {
        graph,
        shared,
        overlay,
        cc,
        pr,
    };
    Ok((prepared, times))
}

/// The seeded query mix: the four kinds in rotation, roots drawn from the
/// largest component so no query starts on an isolated vertex.
fn query_mix(seed: u64, labels: &[VertexId]) -> Vec<Query> {
    let mut sizes: BTreeMap<VertexId, usize> = BTreeMap::new();
    labels
        .iter()
        .for_each(|&l| *sizes.entry(l).or_default() += 1);
    let giant = sizes
        .iter()
        .max_by_key(|&(l, n)| (*n, std::cmp::Reverse(*l)))
        .map(|(&l, _)| l)
        .expect("the graph has vertices");
    let members: Vec<VertexId> = (0..labels.len() as VertexId)
        .filter(|&v| labels[v as usize] == giant)
        .collect();
    let mut rng = Prng::seed_from_u64(SERVE_SEED ^ mix_seed(seed) ^ 0x9E37);
    (0..MIX_LEN)
        .map(|i| {
            let root = members[(rng.next_u64() % members.len() as u64) as usize];
            match i % 4 {
                0 => Query::Bfs(root),
                1 => Query::Sssp(root),
                2 => Query::PageRank,
                _ => Query::Cc,
            }
        })
        .collect()
}

/// The next seeded update batch. Deletions are drawn from the overlay's
/// live edges, half of them from the base graph's bridges while any is
/// still live, so that deleting them splits components.
fn update_batch(
    rng: &mut Prng,
    overlay: &DeltaOverlay,
    bridges: &[(VertexId, VertexId)],
) -> Vec<EdgeUpdate> {
    let n = overlay.num_vertices() as u64;
    let mut pick = |bound: u64| rng.next_u64() % bound;
    (0..BATCH_SIZE)
        .filter_map(|i| {
            if i % 3 != 0 {
                return Some(EdgeUpdate::Insert(pick(n) as VertexId, pick(n) as VertexId));
            }
            if i % 2 == 0 && !bridges.is_empty() {
                let (s, d) = bridges[pick(bridges.len() as u64) as usize];
                if overlay.has_edge(s, d) {
                    return Some(EdgeUpdate::Delete(s, d));
                }
            }
            (0..64).find_map(|_| {
                let v = pick(n) as VertexId;
                let neighbors = overlay.neighbors(v);
                (!neighbors.is_empty()).then(|| {
                    EdgeUpdate::Delete(v, neighbors[pick(neighbors.len() as u64) as usize])
                })
            })
        })
        .collect()
}

/// Extra components the batch's old components split into: for each old
/// component a touched vertex was in, its members' new labels minus one.
fn splits(old: &[VertexId], new: &[VertexId], touched: &[VertexId]) -> u64 {
    let affected: BTreeSet<VertexId> = touched.iter().map(|&t| old[t as usize]).collect();
    let mut labels: BTreeMap<VertexId, BTreeSet<VertexId>> = BTreeMap::new();
    for (v, l) in old.iter().enumerate() {
        if affected.contains(l) {
            labels.entry(*l).or_default().insert(new[v]);
        }
    }
    labels.values().map(|s| s.len() as u64 - 1).sum()
}

/// What the update client measured.
#[derive(Default)]
struct UpdatePlane {
    batches: u64,
    total_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    cc_ms: Vec<f64>,
    pr_ms: Vec<f64>,
    full_cc_ms: Vec<f64>,
    full_pr_ms: Vec<f64>,
    inserted: u64,
    removed: u64,
    splits: u64,
    sweeps: u64,
    relabeled: u64,
    failures: Vec<String>,
}

fn update_client(
    s: &mut Prepared,
    seed: u64,
    bridges: &[(VertexId, VertexId)],
    deadline: Instant,
) -> UpdatePlane {
    let mut plane = UpdatePlane::default();
    let mut rng = Prng::seed_from_u64(SERVE_SEED ^ mix_seed(seed) ^ 0xDE17A);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    loop {
        let updates = update_batch(&mut rng, &s.overlay, bridges);
        let old = s.cc.labels().to_vec();
        let t0 = Instant::now();
        let batch = s.overlay.apply_batch(&updates);
        let t1 = Instant::now();
        s.cc.repair(&s.overlay, &batch.touched);
        let t2 = Instant::now();
        let sweeps = s.pr.repair(&s.overlay);
        let t3 = Instant::now();
        plane.batches += 1;
        plane.total_ms.push(ms(t3 - t0));
        plane.apply_ms.push(ms(t1 - t0));
        plane.cc_ms.push(ms(t2 - t1));
        plane.pr_ms.push(ms(t3 - t2));
        plane.inserted += batch.inserted;
        plane.removed += batch.removed;
        plane.sweeps += sweeps;
        plane.splits += splits(&old, s.cc.labels(), &batch.touched);

        // Checks, outside the timed interval.
        let t = Instant::now();
        let want_cc = full_cc(&s.overlay);
        plane.full_cc_ms.push(ms(t.elapsed()));
        if s.cc.labels() != want_cc.as_slice() {
            plane.failures.push(format!(
                "batch {}: repaired CC differs from full_cc",
                plane.batches
            ));
        }
        let t = Instant::now();
        let want_pr = full_pagerank(&s.overlay, EPS);
        plane.full_pr_ms.push(ms(t.elapsed()));
        let l1: f64 =
            s.pr.ranks()
                .iter()
                .zip(&want_pr)
                .map(|(a, b)| (a - b).abs())
                .sum();
        if l1 > s.pr.comparison_bound() {
            plane.failures.push(format!(
                "batch {}: repaired PageRank L1 {l1:e} exceeds bound {:e}",
                plane.batches,
                s.pr.comparison_bound()
            ));
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    plane.relabeled = s.cc.repaired();
    plane
}

/// What the query client measured.
#[derive(Default)]
struct QueryPlane {
    attempted: u64,
    /// Per kind, latencies of untraced queries (ms).
    by_kind: [Vec<f64>; 4],
    /// Per position in the mix, latencies of untraced queries (ms).
    by_slot: Vec<Vec<f64>>,
    untraced: Vec<f64>,
    traced: Vec<f64>,
    traced_totals: Vec<JobSpans>,
    failures: Vec<String>,
}

struct QueryClient<'a> {
    mix: &'a [Query],
    expected: &'a HashMap<Query, u64>,
    plain: &'a Session,
    traced: Option<(&'a Session, &'a ClockSink)>,
}

impl QueryClient<'_> {
    fn run(&self, deadline: Instant) -> QueryPlane {
        let mut plane = QueryPlane {
            by_slot: vec![Vec::new(); self.mix.len()],
            ..QueryPlane::default()
        };
        for cycle in 0.. {
            let traced = self.traced.filter(|_| cycle % 2 == 1);
            let done = cycle > 0 && Instant::now() >= deadline;
            if done && (self.traced.is_none() || !plane.traced_totals.is_empty()) {
                break;
            }
            let session = traced.map_or(self.plain, |(s, _)| s);
            let mut totals = JobSpans::default();
            for (slot, &q) in self.mix.iter().enumerate() {
                plane.attempted += 1;
                let call = Instant::now();
                let out = answer(session, q);
                let ret = Instant::now();
                let ms = (ret - call).as_secs_f64() * 1e3;
                let stats = match out {
                    Ok((fingerprint, stats)) => {
                        if self.expected.get(&q) != Some(&fingerprint) {
                            plane.failures.push(format!(
                                "{} query differs from its solo answer",
                                KINDS[q.kind()]
                            ));
                        }
                        stats
                    }
                    Err(e) => {
                        plane
                            .failures
                            .push(format!("{} query: {e}", KINDS[q.kind()]));
                        continue;
                    }
                };
                match traced {
                    None => {
                        plane.untraced.push(ms);
                        plane.by_kind[q.kind()].push(ms);
                        plane.by_slot[slot].push(ms);
                    }
                    Some((_, clock)) => {
                        plane.traced.push(ms);
                        if let Some(s) = JobSpans::split(clock, KINDS[q.kind()], call, ret, &stats)
                        {
                            totals.add(&s);
                        }
                    }
                }
            }
            if traced.is_some() {
                plane.traced_totals.push(totals);
            }
        }
        plane
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (mut s, times) = repeat_setup(|| setup(args.seed))?;
    let mut report = Report::new(args.trace);
    report.set("setup_s", median_ms(&times, |t| t.total) / 1e3);
    report.set("graph.generate_ms", median_ms(&times, |t| t.generate));
    report.set("graph.partition_ms", median_ms(&times, |t| t.partition));
    report.set(
        "graph.replication_factor",
        s.shared.partition().replication_factor(),
    );

    // Workload inputs and expected answers, outside every timed interval.
    let bridges = flash_algos::bridges::run(&s.graph, ClusterConfig::with_workers(WORKERS))
        .map_err(|e| format!("bridges: {e}"))?
        .result;
    let mix = query_mix(args.seed, s.cc.labels());
    let mut expected = HashMap::new();
    {
        let solo = Session::new(
            0,
            Arc::clone(&s.graph),
            ClusterConfig::with_workers(WORKERS),
        )
        .map_err(|e| format!("solo session: {e}"))?;
        for &q in &mix {
            if let Entry::Vacant(slot) = expected.entry(q) {
                report.attempted += 1;
                match answer(&solo, q) {
                    Ok((fingerprint, _)) => drop(slot.insert(fingerprint)),
                    Err(e) => report.fail(format!("solo {} query: {e}", KINDS[q.kind()])),
                }
            }
        }
    }
    println!(
        "graph: {} vertices, {} arcs, {} bridges, {} distinct queries in a mix of {MIX_LEN}",
        s.graph.num_vertices(),
        s.graph.num_edges(),
        bridges.len(),
        expected.len()
    );

    let shared_cfg = s.shared.config();
    let session = |id, cfg| {
        Session::new(id, Arc::clone(&s.graph), cfg).map_err(|e| format!("session {id}: {e}"))
    };
    let plain = session(10, shared_cfg.clone())?;
    let clock = Arc::new(ClockSink::default());
    let traced_session = session(11, shared_cfg.clone().sink(clock.clone()))?;
    let client = QueryClient {
        mix: &mix,
        expected: &expected,
        plain: &plain,
        traced: args.trace.then_some((&traced_session, &*clock)),
    };
    let deadline = Instant::now() + args.window();
    let (queries, updates) = std::thread::scope(|scope| {
        let q = scope.spawn(|| client.run(deadline));
        let u = update_client(&mut s, args.seed, &bridges, deadline);
        (q.join().expect("query client panicked"), u)
    });
    let pool = s.shared.pool();

    report.attempted += queries.attempted + updates.batches;
    queries
        .failures
        .iter()
        .chain(&updates.failures)
        .for_each(|f| report.fail(f.clone()));
    if updates.removed == 0 || updates.splits == 0 {
        report.fail(format!(
            "invalid churn: {} edges removed, {} component splits",
            updates.removed, updates.splits
        ));
    }

    // One cycle at each query's median speed, as for the batch passes.
    let pass_s = queries.by_slot.iter().map(|l| median(l)).sum::<f64>() / 1e3;
    let p50 = median(&queries.untraced);
    let update_p50 = median(&updates.total_ms);
    let mut kinds: Vec<f64> = queries.by_kind.iter().map(|k| median(k)).collect();
    kinds.push(update_p50);
    let qps = queries.untraced.len() as f64 * 1e3 / queries.untraced.iter().sum::<f64>();
    println!(
        "query plane: {} untraced queries, {} traced, qps {qps:.2}, p50 {p50:.4} ms",
        queries.untraced.len(),
        queries.traced.len()
    );
    let tail_ms = match tail(&queries.untraced) {
        Some((pct, v)) => {
            println!(
                "  query tail: p{pct:.3} = {v:.4} ms over {} samples",
                queries.untraced.len()
            );
            v
        }
        None => f64::NAN,
    };
    for (kind, m) in KINDS.iter().zip(&kinds) {
        println!("  {kind:<9} median {m:.4} ms");
    }
    println!(
        "update plane: {} batches, p50 {update_p50:.4} ms, {} inserted, {} removed, {} splits",
        updates.batches, updates.inserted, updates.removed, updates.splits
    );
    report.set("pass_s", pass_s);
    report.set("job_geomean_ms", geomean(&kinds));
    report.set("peak_rss_mb", peak_rss_mb());

    if args.trace {
        spans::report_layers(&mut report, &queries.traced_totals);
        report.set("obs.trace_overhead_ratio", median(&queries.traced) / p50);
        report.set("serve.query_qps", qps);
        report.set("serve.query_p50_ms", p50);
        report.set("serve.query_tail_ms", tail_ms);
        report.set("serve.update_p50_ms", update_p50);
        report.set(
            "runtime.pool_reuse_ratio",
            pool.reuses() as f64 / pool.checkouts() as f64,
        );
        report.set("graph.overlay_apply_ms", median(&updates.apply_ms));
        report.set("graph.edges_inserted", updates.inserted as f64);
        report.set("graph.edges_removed", updates.removed as f64);
        report.set("algos.cc_repair_ms", median(&updates.cc_ms));
        report.set("algos.pr_repair_ms", median(&updates.pr_ms));
        report.set(
            "algos.cc_repair_vs_full",
            median(&updates.cc_ms) / median(&updates.full_cc_ms),
        );
        report.set(
            "algos.pr_repair_vs_full",
            median(&updates.pr_ms) / median(&updates.full_pr_ms),
        );
        report.set("algos.cc_relabeled", updates.relabeled as f64);
        report.set("algos.cc_splits", updates.splits as f64);
        report.set("algos.pr_sweeps", updates.sweeps as f64);
    }
    Ok(report)
}
