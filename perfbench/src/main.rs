//! Wall-clock benchmark of the FLASH workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload social-mem|road-block|serve-churn --seed N --seconds S --trace 0|1
//! ```
//!
//! Three workloads (see `BENCHMARK.json` for why each was chosen):
//! `social-mem` and `road-block` run passes over the 19 catalogue jobs
//! ([`batch`]); `serve-churn` serves a query mix while a second client
//! applies and repairs edge updates ([`serve`]). Every cluster runs
//! [`WORKERS`] workers with one thread each. Seed 0 reproduces
//! `Dataset::Orkut`, `Dataset::RoadUsa` and the `0xF1A5` serving seed;
//! another seed is mixed into those base seeds.
//!
//! The benchmark drives the system only through public functions and
//! times those calls with its own monotonic clock. Every answer is
//! checked outside the timed intervals and outside `setup_s`; a wrong
//! answer makes the run exit with code 1 after printing its result.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones of [`report::END_TO_END`], measured untraced:
//!
//! * `setup_s` — median of [`SETUP_REPS`] set-ups: graph generation and
//!   weighted copy, block write + open (`road-block`), partition build,
//!   and (`serve-churn`) the shared session and the initial maintained
//!   CC and PageRank;
//! * `pass_s` — wall of one pass over the workload's jobs at each job's
//!   median speed: the sum of the median walls of the 19 catalogue jobs,
//!   or of the queries in one cycle of the serving mix;
//! * `job_geomean_ms` — geometric mean over job kinds of each kind's
//!   median wall: the 19 algorithms, or the four query kinds and the
//!   update batch;
//! * `peak_rss_mb` — `VmHWM` of this process, which runs one workload.
//!
//! A metric that is 0 by design cannot carry a bound relative to its
//! median, so the share of operations that erred or answered wrong is
//! printed as `failed_ops_ratio` and carried by the result line's own
//! `failed` and `attempted`.
//!
//! With `--trace 1` the metrics are the per-layer ones of
//! [`report::PER_LAYER`], from a run that alternates untraced and traced
//! passes and attaches a [`spans::ClockSink`] to the traced ones. Layer
//! times and counts are per-pass totals over the traced passes (median
//! over passes); `serve.*` come from the untraced cycles of
//! `serve-churn`, the update-plane metrics are per-batch medians or run
//! totals, and `obs.trace_overhead_ratio` is the traced ÷ untraced pass
//! wall (`query_p50` on `serve-churn`).

mod batch;
mod jobs;
mod report;
mod serve;
mod spans;

use std::time::Duration;

/// Workers per cluster: one per core of the 2-core reference host.
pub const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    /// The measured window.
    pub fn window(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

const USAGE: &str = "usage: flash-perfbench --workload social-mem|road-block|serve-churn \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err(format!("--trace takes 0 or 1\n{USAGE}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Runs `setup` [`SETUP_REPS`] times and returns the last input it
/// prepared with every run's timings. Each input is dropped before the
/// next is prepared, so peak memory holds one.
pub fn repeat_setup<P, T>(
    mut setup: impl FnMut() -> Result<(P, T), String>,
) -> Result<(P, Vec<T>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (prepared, t) = setup()?;
        times.push(t);
        last = Some(prepared);
    }
    Ok((last.expect("SETUP_REPS > 0"), times))
}

/// Mixes the workload seed into a base seed; seed 0 leaves it unchanged.
pub fn mix_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} window {} s trace {} ({} workers x 1 thread, {} cores)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        WORKERS,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let result = match args.workload.as_str() {
        "social-mem" => batch::run(batch::Batch::SocialMem, &args),
        "road-block" => batch::run(batch::Batch::RoadBlock, &args),
        "serve-churn" => serve::run(&args),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let failed = report.failures.len();
    println!(
        "failed_ops_ratio {} ({failed} of {} operations erred or answered wrong)",
        failed as f64 / report.attempted.max(1) as f64,
        report.attempted
    );
    println!("{}", report.to_json());
    if failed > 0 {
        std::process::exit(1);
    }
}
