//! The 19 catalogue jobs of the batch workloads: how each one is run
//! through its public `flash_algos::*::run` entry point, how its answer
//! is fingerprinted, and how the first answer is checked.
//!
//! Every job's first answer is checked against the
//! `flash_algos::reference` oracle or validator where one exists, and
//! otherwise bit for bit against a 1-worker run. Its FNV-1a fingerprint
//! (f64 values by bit pattern) then becomes the expected answer of every
//! timed run: the catalogue promises bit-identical results, so any other
//! fingerprint is a wrong answer.

use flash_algos::bcc::BccResult;
use flash_algos::common::MatchingResult;
use flash_algos::msf::MsfResult;
use flash_algos::reference;
use flash_graph::Graph;
use flash_runtime::{ClusterConfig, RunStats, RuntimeError};
use std::sync::Arc;

/// The algorithms of the `flash` command line, in its order.
pub const ALGOS: [&str; 19] = [
    "bfs",
    "cc",
    "cc-opt",
    "bc",
    "mis",
    "mm",
    "mm-opt",
    "kcore",
    "kcore-opt",
    "tc",
    "gc",
    "scc",
    "bcc",
    "lpa",
    "msf",
    "rc",
    "cl",
    "sssp",
    "pagerank",
];

/// Root of the rooted algorithms (bfs, bc, sssp), as on the command line.
const ROOT: u32 = 0;
/// Sweeps of lpa and pagerank, as on the command line.
const ITERS: usize = 10;
/// Clique size of cl, as on the command line.
const CLIQUE_K: usize = 4;

/// The graphs a batch pass runs on: msf and sssp take the weighted copy.
pub struct Graphs {
    pub plain: Arc<Graph>,
    pub weighted: Arc<Graph>,
}

impl Graphs {
    fn for_algo(&self, algo: &str) -> &Arc<Graph> {
        if algo == "msf" || algo == "sssp" {
            &self.weighted
        } else {
            &self.plain
        }
    }
}

/// One job's answer, in the shape its algorithm returns it.
pub enum Answer {
    U32(Vec<u32>),
    F64(Vec<f64>),
    Bool(Vec<bool>),
    Count(u64),
    Matching(MatchingResult),
    Bcc(BccResult),
    Msf(MsfResult),
}

/// Runs `algo` on its graph. Only the call itself is the job: the caller
/// times it and fingerprints the answer afterwards.
pub fn run(
    algo: &str,
    graphs: &Graphs,
    cfg: ClusterConfig,
) -> Result<(Answer, RunStats), RuntimeError> {
    use flash_algos as a;
    let g = graphs.for_algo(algo);
    Ok(match algo {
        "bfs" => split(a::bfs::run(g, cfg, ROOT)?, Answer::U32),
        "cc" => split(a::cc::run(g, cfg)?, Answer::U32),
        "cc-opt" => split(a::cc_opt::run(g, cfg)?, Answer::U32),
        "bc" => split(a::bc::run(g, cfg, ROOT)?, Answer::F64),
        "mis" => split(a::mis::run(g, cfg)?, Answer::Bool),
        "mm" => split(a::mm::run(g, cfg)?, Answer::Matching),
        "mm-opt" => split(a::mm_opt::run(g, cfg)?, Answer::Matching),
        "kcore" => split(a::kcore::run(g, cfg)?, Answer::U32),
        "kcore-opt" => split(a::kcore_opt::run(g, cfg)?, Answer::U32),
        "tc" => split(a::tc::run(g, cfg)?, Answer::Count),
        "gc" => split(a::gc::run(g, cfg)?, Answer::U32),
        "scc" => split(a::scc::run(g, cfg)?, Answer::U32),
        "bcc" => split(a::bcc::run(g, cfg)?, Answer::Bcc),
        "lpa" => split(a::lpa::run(g, cfg, ITERS)?, Answer::U32),
        "msf" => split(a::msf::run(g, cfg)?, Answer::Msf),
        "rc" => split(a::rc::run(g, cfg)?, Answer::Count),
        "cl" => split(a::clique::run(g, cfg, CLIQUE_K)?, Answer::Count),
        "sssp" => split(a::sssp::run(g, cfg, ROOT)?, Answer::F64),
        "pagerank" => split(a::pagerank::run(g, cfg, ITERS)?, Answer::F64),
        other => unreachable!("{other} is not in ALGOS"),
    })
}

fn split<T>(out: flash_algos::AlgoOutput<T>, wrap: fn(T) -> Answer) -> (Answer, RunStats) {
    (wrap(out.result), out.stats)
}

/// FNV-1a over a byte stream: the answer fingerprint.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }

    pub fn u32s(mut self, values: &[u32]) -> Fnv {
        values.iter().for_each(|v| self.write(&v.to_le_bytes()));
        self
    }

    /// f64 values by exact bit pattern, so equality is bit-identity.
    pub fn f64s(mut self, values: &[f64]) -> Fnv {
        values
            .iter()
            .for_each(|v| self.write(&v.to_bits().to_le_bytes()));
        self
    }

    fn u64s(mut self, values: &[u64]) -> Fnv {
        values.iter().for_each(|v| self.write(&v.to_le_bytes()));
        self
    }

    fn options(mut self, values: &[Option<u32>]) -> Fnv {
        for v in values {
            self.write(&v.map_or(u64::MAX, u64::from).to_le_bytes());
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Answer {
    pub fn fingerprint(&self) -> u64 {
        let h = Fnv::new();
        match self {
            Answer::U32(v) => h.u32s(v),
            Answer::F64(v) => h.f64s(v),
            Answer::Bool(v) => h.u32s(&v.iter().map(|&b| u32::from(b)).collect::<Vec<_>>()),
            Answer::Count(c) => h.u64s(&[*c]),
            Answer::Matching(m) => h.options(&m.partner),
            Answer::Bcc(b) => h.u32s(&b.label).options(&b.parent),
            Answer::Msf(m) => {
                let mut h = h.f64s(&[m.total_weight]);
                for &(s, d, w) in &m.edges {
                    h = h.u32s(&[s, d, w.to_bits()]);
                }
                h
            }
        }
        .finish()
    }
}

/// Checks a job's first answer. `solo` is the same job's 1-worker
/// configuration, used where the reference module has no oracle.
pub fn check(
    algo: &str,
    graphs: &Graphs,
    answer: &Answer,
    solo: ClusterConfig,
) -> Result<(), String> {
    let g = graphs.for_algo(algo);
    let ok = match (algo, answer) {
        // cc labels by minimum member id, cc-opt by tree root: compare
        // the partitions.
        ("cc" | "cc-opt", Answer::U32(labels)) => {
            reference::canonicalize(labels) == reference::cc_labels(g)
        }
        ("bc", Answer::F64(dep)) => {
            let (_, want) = reference::brandes_single_source(g, ROOT);
            dep.iter().zip(&want).enumerate().all(|(v, (&got, &want))| {
                let got = if v as u32 == ROOT { 0.0 } else { got };
                (got - want).abs() <= 1e-9 * want.abs().max(1.0)
            })
        }
        ("mis", Answer::Bool(set)) => reference::is_maximal_independent_set(g, set),
        ("mm" | "mm-opt", Answer::Matching(m)) => reference::is_maximal_matching(g, &m.partner),
        ("kcore" | "kcore-opt", Answer::U32(core)) => *core == reference::kcore_numbers(g),
        ("tc", Answer::Count(n)) => *n == reference::triangle_count(g),
        ("gc", Answer::U32(color)) => reference::is_proper_coloring(g, color),
        ("scc", Answer::U32(labels)) => reference::canonicalize(labels) == reference::tarjan_scc(g),
        ("msf", Answer::Msf(m)) => {
            let (edges, total) = reference::kruskal(g);
            m.edges.len() == edges.len() && (m.total_weight - total).abs() <= 1e-6 * total.max(1.0)
        }
        ("rc", Answer::Count(n)) => *n == reference::rectangle_count(g),
        ("cl", Answer::Count(n)) => *n == reference::kclique_count(g, CLIQUE_K),
        ("sssp", Answer::F64(dist)) => {
            let want = reference::dijkstra(g, ROOT);
            dist.iter().zip(&want).all(|(&got, &want)| {
                got == want || (got - want).abs() <= 1e-9 * want.abs().max(1.0)
            })
        }
        ("pagerank", Answer::F64(rank)) => {
            let want = reference::pagerank(g, ITERS);
            rank.iter()
                .zip(&want)
                .all(|(&got, &want)| (got - want).abs() <= 1e-10)
        }
        // No oracle in `reference` (bfs, bcc, lpa): bit for bit against
        // the same job on one worker.
        _ => {
            let (want, _) = run(algo, graphs, solo).map_err(|e| format!("1-worker {algo}: {e}"))?;
            want.fingerprint() == answer.fingerprint()
        }
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{algo}: answer disagrees with its reference"))
    }
}
