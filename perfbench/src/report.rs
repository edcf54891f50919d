//! Sample statistics and the result line.

use flash_obs::Json;
use std::time::Duration;

/// Median of the samples (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Geometric mean: every sample weighs the same whatever its scale.
pub fn geomean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "geometric mean of no samples");
    (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// The highest percentile with at least ten samples beyond it, read
/// exactly from the sorted samples: the 11th-largest sample, at
/// percentile `100 · (n − 10) / n`. `None` below 11 samples.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    const BEYOND: usize = 10;
    if samples.len() <= BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some((100.0 * (n - BEYOND) as f64 / n as f64, v[n - BEYOND - 1]))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Median of `f` over the samples, in milliseconds.
pub fn median_ms<T>(samples: &[T], f: impl Fn(&T) -> Duration) -> f64 {
    median(
        &samples
            .iter()
            .map(|t| f(t).as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    )
}

/// Every end-to-end metric of an untraced run, with its unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("job_geomean_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric of a traced run, with its unit. A workload
/// that does not exercise a layer reports its metrics as 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("graph.generate_ms", "ms"),
    ("graph.partition_ms", "ms"),
    ("graph.blocks_write_ms", "ms"),
    ("graph.blocks_open_ms", "ms"),
    ("graph.bytes_streamed", "bytes"),
    ("graph.blocks_streamed", "count"),
    ("graph.block_cache_hit_ratio", "ratio"),
    ("graph.replication_factor", "ratio"),
    ("graph.overlay_apply_ms", "ms"),
    ("graph.edges_inserted", "count"),
    ("graph.edges_removed", "count"),
    ("runtime.cluster_init_ms", "ms"),
    ("runtime.step_wall_ms", "ms"),
    ("runtime.orchestration_ms", "ms"),
    ("runtime.orchestration_share", "ratio"),
    ("runtime.route_ms", "ms"),
    ("runtime.route_makespan_ms", "ms"),
    ("runtime.mirror_sync_ms", "ms"),
    ("runtime.barrier_skew_ms", "ms"),
    ("runtime.delivery_ms", "ms"),
    ("runtime.supersteps", "count"),
    ("runtime.messages", "count"),
    ("runtime.bytes", "bytes"),
    ("runtime.pool_reuse_ratio", "ratio"),
    ("runtime.span_remainder_ms", "ms"),
    ("runtime.span_remainder_max_share", "ratio"),
    ("serve.query_qps", "1/s"),
    ("serve.query_p50_ms", "ms"),
    ("serve.query_tail_ms", "ms"),
    ("serve.update_p50_ms", "ms"),
    ("core.compute_ms", "ms"),
    ("core.compute_total_ms", "ms"),
    ("core.between_steps_ms", "ms"),
    ("core.collect_ms", "ms"),
    ("core.dense_steps", "count"),
    ("core.sparse_steps", "count"),
    ("core.active_vertices", "count"),
    ("algos.cc_repair_ms", "ms"),
    ("algos.pr_repair_ms", "ms"),
    ("algos.cc_repair_vs_full", "ratio"),
    ("algos.pr_repair_vs_full", "ratio"),
    ("algos.cc_relabeled", "count"),
    ("algos.cc_splits", "count"),
    ("algos.pr_sweeps", "count"),
    ("obs.trace_overhead_ratio", "ratio"),
];

/// What one run measured and checked.
pub struct Report {
    trace: bool,
    /// Values of [`END_TO_END`]; NaN (JSON `null`) until set.
    end_to_end: [f64; END_TO_END.len()],
    /// Values of [`PER_LAYER`]; 0 until set.
    layers: [f64; PER_LAYER.len()],
    /// Operations (jobs, queries, update batches) attempted.
    pub attempted: u64,
    /// Operations that erred or gave a wrong answer, with the reason.
    pub failures: Vec<String>,
}

impl Report {
    /// An empty report; `trace` selects which metrics the result line
    /// carries (per-layer when set, end-to-end otherwise).
    pub fn new(trace: bool) -> Report {
        Report {
            trace,
            end_to_end: [f64::NAN; END_TO_END.len()],
            layers: [0.0; PER_LAYER.len()],
            attempted: 0,
            failures: Vec::new(),
        }
    }

    /// Sets a metric of [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let find = |list: &[(&str, &str)]| list.iter().position(|(n, _)| *n == name);
        if let Some(i) = find(&END_TO_END) {
            self.end_to_end[i] = value;
        } else if let Some(i) = find(&PER_LAYER) {
            self.layers[i] = value;
        } else {
            panic!("{name} is not a metric of BENCHMARK.json");
        }
    }

    pub fn fail(&mut self, why: String) {
        eprintln!("wrong answer: {why}");
        self.failures.push(why);
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> Json {
        let (list, values): (&[(&str, &str)], &[f64]) = if self.trace {
            (&PER_LAYER, &self.layers)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        let metrics = list
            .iter()
            .zip(values)
            .fold(Json::object(), |m, (&(name, unit), &value)| {
                m.set(name, Json::object().set("value", value).set("unit", unit))
            });
        Json::object()
            .set("correct", self.failures.is_empty())
            .set("attempted", self.attempted)
            .set("failed", self.failures.len())
            .set("metrics", metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_read_the_sorted_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(tail(&[1.0; 10]), None);
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&samples), Some((50.0, 10.0)));
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = flash_obs::json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key| -> Vec<(&str, &str)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("a list of metrics")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
                    (field("name"), field("unit"))
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), END_TO_END);
        assert_eq!(listed("per_layer"), PER_LAYER);
    }
}
