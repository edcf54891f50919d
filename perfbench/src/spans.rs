//! Layer spans of one traced job, from the runtime's existing trace
//! callbacks and the benchmark's own clock.
//!
//! [`ClockSink`] is an in-memory `flash_obs::Sink` that stamps each
//! `run_start`, `step_start`, `step_end` and `run_end` callback with
//! `Instant::now()`. The benchmark stamps the call and the return of the
//! job itself, and [`JobSpans::split`] tiles that wall time:
//!
//! ```text
//! call ─ cluster_init ─ run_start ─ between ─ step_start ─ step ─ step_end ─ between ─ … ─ step_end ─ collect ─ return
//! ```
//!
//! * `cluster_init`: call → `run_start` (partition lookup, cluster and
//!   vertex-state build);
//! * `step wall`: Σ `step_start` → `step_end`;
//! * `between`: `run_start` → first `step_start`, plus every `step_end` →
//!   next `step_start` (subset and frontier work, the mode decision, and
//!   the driver-side gathers that `global` steps record after the fact);
//! * `collect`: last `step_end` → return (stats, result hand-off, drop).
//!
//! The remainder `wall − (init + steps + between + collect)` is reported,
//! not dropped; it is nonzero only when the callbacks do not tile the
//! call (a missing or extra event).
//!
//! The phase split inside a step comes from the job's `RunStats`:
//! orchestration is a step's wall minus its `compute_max`, `serialize`,
//! `communicate` and `delivery`, summed over the non-global steps. A
//! `global` step records a driver-side gather that ran before its
//! `step_start`, inside `between`, so its `communicate` is neither mirror
//! sync nor part of a step's wall.

use crate::report::{median, Report};
use flash_obs::{Event, EventKind, Sink};
use flash_runtime::{RunStats, StepKind};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mark {
    RunStart,
    StepStart,
    StepEnd,
    RunEnd,
}

/// Stamps the four run/step callbacks with the monotonic clock.
#[derive(Default)]
pub struct ClockSink {
    marks: Mutex<Vec<(Mark, Instant)>>,
}

impl ClockSink {
    /// Hands over the marks recorded since the last call.
    fn take(&self) -> Vec<(Mark, Instant)> {
        std::mem::take(&mut *self.marks.lock().expect("clock sink lock poisoned"))
    }
}

impl Sink for ClockSink {
    fn emit(&self, event: &Event) {
        let mark = match event.kind {
            EventKind::RunStart { .. } => Mark::RunStart,
            EventKind::StepStart { .. } => Mark::StepStart,
            EventKind::StepEnd { .. } => Mark::StepEnd,
            EventKind::RunEnd { .. } => Mark::RunEnd,
            _ => return,
        };
        let now = Instant::now();
        self.marks
            .lock()
            .expect("clock sink lock poisoned")
            .push((mark, now));
    }
}

/// One traced job, split into layer spans and phase totals.
#[derive(Clone, Copy, Default)]
pub struct JobSpans {
    pub cluster_init: Duration,
    pub step_wall: Duration,
    pub between: Duration,
    pub collect: Duration,
    /// `wall − (cluster_init + step_wall + between + collect)`, signed.
    pub remainder_s: f64,
    /// Largest `|remainder| / wall` of the jobs added up here.
    pub max_remainder_share: f64,
    /// Σ over non-global steps of step wall minus its measured phases.
    pub orchestration: Duration,
    pub compute_max: Duration,
    pub compute_total: Duration,
    pub route: Duration,
    pub route_makespan: Duration,
    pub mirror_sync: Duration,
    pub delivery: Duration,
    pub barrier_skew: Duration,
    pub supersteps: u64,
    pub messages: u64,
    pub bytes: u64,
    pub dense_steps: u64,
    pub sparse_steps: u64,
    pub active_vertices: u64,
    pub bytes_streamed: u64,
    pub blocks_streamed: u64,
    pub block_cache_hits: u64,
}

impl JobSpans {
    /// Splits the job `name` that ran from `call` to `ret` using the marks
    /// the sink collected meanwhile. Returns `None`, with a note on
    /// stderr, when the callbacks do not form one run of paired steps
    /// that `stats` also recorded; notes a job whose spans miss more than
    /// 5% of its wall.
    pub fn split(
        sink: &ClockSink,
        name: &str,
        call: Instant,
        ret: Instant,
        stats: &RunStats,
    ) -> Option<JobSpans> {
        let marks = sink.take();
        let count = |m| marks.iter().filter(|(k, _)| *k == m).count();
        if count(Mark::RunStart) != 1 || count(Mark::RunEnd) != 1 {
            eprintln!("span check: {name}: expected one run_start and one run_end");
            return None;
        }
        let run_start = marks
            .iter()
            .find(|(k, _)| *k == Mark::RunStart)
            .map(|&(_, t)| t)
            .expect("counted above");
        let starts: Vec<Instant> = pick(&marks, Mark::StepStart);
        let ends: Vec<Instant> = pick(&marks, Mark::StepEnd);
        let steps = stats.steps();
        if starts.len() != ends.len() || starts.len() != steps.len() || steps.is_empty() {
            eprintln!(
                "span check: {name}: {} step_start, {} step_end, {} recorded steps",
                starts.len(),
                ends.len(),
                steps.len()
            );
            return None;
        }
        let wall = ret - call;
        let mut s = JobSpans {
            cluster_init: run_start - call,
            collect: ret - ends[ends.len() - 1],
            between: starts[0] - run_start,
            ..JobSpans::default()
        };
        for (i, step) in steps.iter().enumerate() {
            let step_wall = ends[i] - starts[i];
            s.step_wall += step_wall;
            if i > 0 {
                s.between += starts[i] - ends[i - 1];
            }
            s.compute_max += step.compute_max;
            s.compute_total += step.compute;
            s.route += step.serialize;
            s.route_makespan += step.serialize_max;
            s.delivery += step.delivery;
            s.barrier_skew += step.barrier_skew();
            s.active_vertices += step.active as u64;
            match step.kind {
                StepKind::Global => continue,
                StepKind::EdgeMapDense => s.dense_steps += 1,
                StepKind::EdgeMapSparse => s.sparse_steps += 1,
                StepKind::VertexMap => {}
            }
            s.mirror_sync += step.communicate;
            let phases = step.compute_max + step.serialize + step.communicate + step.delivery;
            s.orchestration += step_wall.saturating_sub(phases);
        }
        let tiled = s.cluster_init + s.step_wall + s.between + s.collect;
        s.remainder_s = wall.as_secs_f64() - tiled.as_secs_f64();
        s.supersteps = steps.len() as u64;
        s.messages = stats.total_messages();
        s.bytes = stats.total_bytes();
        s.bytes_streamed = stats.bytes_streamed();
        s.blocks_streamed = stats.blocks_streamed();
        s.block_cache_hits = stats.block_cache_hits();
        s.max_remainder_share = s.remainder_s.abs() / wall.as_secs_f64();
        if s.max_remainder_share > 0.05 {
            eprintln!(
                "span check: {name}: spans miss {:.1}% of its wall",
                100.0 * s.max_remainder_share
            );
        }
        Some(s)
    }

    /// Adds another job's spans to this total.
    pub fn add(&mut self, o: &JobSpans) {
        self.cluster_init += o.cluster_init;
        self.step_wall += o.step_wall;
        self.between += o.between;
        self.collect += o.collect;
        self.remainder_s += o.remainder_s;
        self.max_remainder_share = self.max_remainder_share.max(o.max_remainder_share);
        self.orchestration += o.orchestration;
        self.compute_max += o.compute_max;
        self.compute_total += o.compute_total;
        self.route += o.route;
        self.route_makespan += o.route_makespan;
        self.mirror_sync += o.mirror_sync;
        self.delivery += o.delivery;
        self.barrier_skew += o.barrier_skew;
        self.supersteps += o.supersteps;
        self.messages += o.messages;
        self.bytes += o.bytes;
        self.dense_steps += o.dense_steps;
        self.sparse_steps += o.sparse_steps;
        self.active_vertices += o.active_vertices;
        self.bytes_streamed += o.bytes_streamed;
        self.blocks_streamed += o.blocks_streamed;
        self.block_cache_hits += o.block_cache_hits;
    }
}

fn pick(marks: &[(Mark, Instant)], m: Mark) -> Vec<Instant> {
    marks
        .iter()
        .filter(|(k, _)| *k == m)
        .map(|&(_, t)| t)
        .collect()
}

/// Reports the per-pass layer totals of the traced passes as per-layer
/// metrics, each the median over the passes.
pub fn report_layers(report: &mut Report, passes: &[JobSpans]) {
    if passes.is_empty() {
        return;
    }
    let med = |f: &dyn Fn(&JobSpans) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    report.set("graph.bytes_streamed", med(&|s| s.bytes_streamed as f64));
    report.set("graph.blocks_streamed", med(&|s| s.blocks_streamed as f64));
    report.set(
        "graph.block_cache_hit_ratio",
        med(&|s| {
            let touched = s.block_cache_hits + s.blocks_streamed;
            if touched == 0 {
                0.0
            } else {
                s.block_cache_hits as f64 / touched as f64
            }
        }),
    );
    report.set("runtime.cluster_init_ms", med(&|s| ms(s.cluster_init)));
    report.set("runtime.step_wall_ms", med(&|s| ms(s.step_wall)));
    report.set("runtime.orchestration_ms", med(&|s| ms(s.orchestration)));
    report.set(
        "runtime.orchestration_share",
        med(&|s| s.orchestration.as_secs_f64() / s.step_wall.as_secs_f64()),
    );
    report.set("runtime.route_ms", med(&|s| ms(s.route)));
    report.set("runtime.route_makespan_ms", med(&|s| ms(s.route_makespan)));
    report.set("runtime.mirror_sync_ms", med(&|s| ms(s.mirror_sync)));
    report.set("runtime.barrier_skew_ms", med(&|s| ms(s.barrier_skew)));
    report.set("runtime.delivery_ms", med(&|s| ms(s.delivery)));
    report.set("runtime.supersteps", med(&|s| s.supersteps as f64));
    report.set("runtime.messages", med(&|s| s.messages as f64));
    report.set("runtime.bytes", med(&|s| s.bytes as f64));
    report.set("runtime.span_remainder_ms", med(&|s| s.remainder_s * 1e3));
    report.set(
        "runtime.span_remainder_max_share",
        passes
            .iter()
            .map(|s| s.max_remainder_share)
            .fold(0.0, f64::max),
    );
    report.set("core.compute_ms", med(&|s| ms(s.compute_max)));
    report.set("core.compute_total_ms", med(&|s| ms(s.compute_total)));
    report.set("core.between_steps_ms", med(&|s| ms(s.between)));
    report.set("core.collect_ms", med(&|s| ms(s.collect)));
    report.set("core.dense_steps", med(&|s| s.dense_steps as f64));
    report.set("core.sparse_steps", med(&|s| s.sparse_steps as f64));
    report.set("core.active_vertices", med(&|s| s.active_vertices as f64));
}
