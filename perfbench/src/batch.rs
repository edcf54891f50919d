//! The batch workloads: passes over the 19 catalogue jobs on one graph.
//!
//! * `social-mem` — the OR stand-in (R-MAT scale 13, edge factor 14) on
//!   the in-memory CSR;
//! * `road-block` — the US stand-in (`road_network(60, 540)`) written to
//!   `.fgb` block files and reopened with `open_blocks`, so every job
//!   streams edge blocks through the out-of-core engine.
//!
//! Set-up (timed as `setup_s`, repeated [`SETUP_REPS`] times) generates
//! the graph and its weighted copy, writes and opens the block files, and
//! builds the partition map every job shares. Every job then runs once
//! untimed and its answer is checked (see [`crate::jobs`]). The measured
//! loop runs whole passes until `--seconds` have passed; each job is timed
//! from call to return, and its answer fingerprint is compared outside
//! that interval. A traced run alternates untraced and traced passes.

use crate::jobs::{self, Graphs, ALGOS};
use crate::report::{geomean, median, median_ms, peak_rss_mb, Report};
use crate::spans::{self, ClockSink, JobSpans};
use crate::{mix_seed, repeat_setup, Args, WORKERS};
use flash_graph::{generators, HashPartitioner, PartitionMap};
use flash_runtime::{ClusterConfig, StorageMode};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of `Dataset::Orkut`.
const ORKUT_SEED: u64 = 0xF1A5_0001;
/// Seed of `Dataset::RoadUsa`.
const ROAD_USA_SEED: u64 = 0xF1A5_0003;
/// Seed of the weighted copy `bench_flash` gives msf and sssp.
const WEIGHT_SEED: u64 = 4;

/// Which batch workload to run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    SocialMem,
    RoadBlock,
}

/// The prepared input of a batch workload.
struct Prepared {
    graphs: Graphs,
    partition: Arc<PartitionMap>,
}

/// What preparing the input cost.
struct SetupTimes {
    total: Duration,
    generate: Duration,
    blocks_write: Duration,
    blocks_open: Duration,
    partition: Duration,
}

fn setup(batch: Batch, seed: u64, scratch: &Scratch) -> Result<(Prepared, SetupTimes), String> {
    let t0 = Instant::now();
    let plain = match batch {
        Batch::SocialMem => {
            generators::rmat(13, 14, Default::default(), ORKUT_SEED ^ mix_seed(seed))
        }
        Batch::RoadBlock => generators::road_network(60, 540, ROAD_USA_SEED ^ mix_seed(seed)),
    };
    let weighted = generators::with_random_weights(&plain, 0.1, 2.0, WEIGHT_SEED ^ mix_seed(seed));
    let generate = t0.elapsed();
    let (mut blocks_write, mut blocks_open) = (Duration::ZERO, Duration::ZERO);
    let (plain, weighted) = match batch {
        Batch::SocialMem => (plain, weighted),
        Batch::RoadBlock => {
            let paths = [scratch.file("plain.fgb"), scratch.file("weighted.fgb")];
            let t = Instant::now();
            for (g, path) in [&plain, &weighted].into_iter().zip(&paths) {
                flash_graph::write_blocks(g, path).map_err(|e| format!("write_blocks: {e}"))?;
            }
            blocks_write = t.elapsed();
            let t = Instant::now();
            let open =
                |p: &PathBuf| flash_graph::open_blocks(p).map_err(|e| format!("open_blocks: {e}"));
            let opened = (open(&paths[0])?, open(&paths[1])?);
            blocks_open = t.elapsed();
            // The mapping keeps the data; the directory entries can go.
            paths.iter().for_each(|p| drop(std::fs::remove_file(p)));
            opened
        }
    };
    let t = Instant::now();
    let partition = PartitionMap::build(&plain, WORKERS, &HashPartitioner)
        .map_err(|e| format!("partition: {e}"))?;
    let times = SetupTimes {
        total: t0.elapsed(),
        generate,
        blocks_write,
        blocks_open,
        partition: t.elapsed(),
    };
    let prepared = Prepared {
        graphs: Graphs {
            plain: Arc::new(plain),
            weighted: Arc::new(weighted),
        },
        partition: Arc::new(partition),
    };
    Ok((prepared, times))
}

/// A directory inside the working directory for the block files, removed
/// when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new() -> Result<Scratch, String> {
        let dir = PathBuf::from(format!(".perfbench_tmp/{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the parent too when no other run is using it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

pub fn run(batch: Batch, args: &Args) -> Result<Report, String> {
    let scratch = Scratch::new()?;
    let (Prepared { graphs, partition }, times) =
        repeat_setup(|| setup(batch, args.seed, &scratch))?;
    let mut report = Report::new(args.trace);
    report.set("setup_s", median_ms(&times, |t| t.total) / 1e3);
    report.set("graph.generate_ms", median_ms(&times, |t| t.generate));
    report.set("graph.partition_ms", median_ms(&times, |t| t.partition));
    report.set(
        "graph.blocks_write_ms",
        median_ms(&times, |t| t.blocks_write),
    );
    report.set("graph.blocks_open_ms", median_ms(&times, |t| t.blocks_open));
    report.set("graph.replication_factor", partition.replication_factor());
    let g = &graphs.plain;
    println!(
        "graph: {} vertices, {} arcs, replication factor {:.4}",
        g.num_vertices(),
        g.num_edges(),
        partition.replication_factor()
    );

    let storage = match batch {
        Batch::SocialMem => StorageMode::InMemory,
        Batch::RoadBlock => StorageMode::Block,
    };
    let config = ClusterConfig::with_workers(WORKERS)
        .threads(1)
        .storage(storage)
        .shared_partition(Arc::clone(&partition));
    let clock = Arc::new(ClockSink::default());
    let traced_config = config.clone().sink(clock.clone());

    // Untimed first run of every job: warms the caches and checks the
    // answer against its reference; its fingerprint is what every timed
    // run must reproduce.
    let mut expected = Vec::with_capacity(ALGOS.len());
    let mut check_s = Vec::with_capacity(ALGOS.len());
    for algo in ALGOS {
        report.attempted += 1;
        let solo = ClusterConfig::with_workers(1).storage(storage);
        let t = Instant::now();
        let fingerprint = match jobs::run(algo, &graphs, config.clone()) {
            Ok((answer, _)) => match jobs::check(algo, &graphs, &answer, solo) {
                Ok(()) => Some(answer.fingerprint()),
                Err(e) => {
                    report.fail(e);
                    None
                }
            },
            Err(e) => {
                report.fail(format!("{algo}: {e}"));
                None
            }
        };
        expected.push(fingerprint);
        check_s.push(t.elapsed().as_secs_f64());
    }

    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); ALGOS.len()];
    let mut passes = Vec::new();
    let mut traced_passes = Vec::new();
    let mut traced_totals: Vec<JobSpans> = Vec::new();
    let start = Instant::now();
    for pass in 0.. {
        let traced = args.trace && pass % 2 == 1;
        let done = pass > 0 && start.elapsed() >= args.window();
        if done && (!args.trace || !traced_totals.is_empty()) {
            break;
        }
        let mut pass_wall = 0.0;
        let mut totals = JobSpans::default();
        for (i, algo) in ALGOS.iter().enumerate() {
            let cfg = if traced {
                traced_config.clone()
            } else {
                config.clone()
            };
            report.attempted += 1;
            let call = Instant::now();
            let out = jobs::run(algo, &graphs, cfg);
            let ret = Instant::now();
            let wall = (ret - call).as_secs_f64();
            pass_wall += wall;
            if !traced {
                walls[i].push(wall);
            }
            let stats = match out {
                Ok((answer, stats)) => {
                    if Some(answer.fingerprint()) != expected[i] {
                        report.fail(format!(
                            "{algo}: timed run's answer differs from the checked one"
                        ));
                    }
                    stats
                }
                Err(e) => {
                    report.fail(format!("{algo}: {e}"));
                    continue;
                }
            };
            if traced {
                if let Some(s) = JobSpans::split(&clock, algo, call, ret, &stats) {
                    totals.add(&s);
                }
            }
        }
        if traced {
            traced_passes.push(pass_wall);
            traced_totals.push(totals);
        } else {
            passes.push(pass_wall);
        }
    }

    // One pass at each job's median speed: robust to a burst of noise
    // that slows one job of one pass.
    let job_medians: Vec<f64> = walls.iter().map(|w| median(w) * 1e3).collect();
    let pass_s = job_medians.iter().sum::<f64>() / 1e3;
    let secs = |v: &[f64]| {
        v.iter()
            .map(|p| format!("{p:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("pass walls (s): {}", secs(&passes));
    if args.trace {
        println!("traced pass walls (s): {}", secs(&traced_passes));
    }
    for ((algo, m), c) in ALGOS.iter().zip(&job_medians).zip(&check_s) {
        println!("  {algo:<10} median {m:>10.3} ms   first run + check {c:>7.3} s");
    }
    report.set("pass_s", pass_s);
    report.set("job_geomean_ms", geomean(&job_medians));
    report.set("peak_rss_mb", peak_rss_mb());
    if args.trace {
        spans::report_layers(&mut report, &traced_totals);
        report.set(
            "obs.trace_overhead_ratio",
            median(&traced_passes) / median(&passes),
        );
    }
    Ok(report)
}
