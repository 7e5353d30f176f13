//! The scale sweep: the repo's committed record of how the engine
//! scales with |V| on the DBLP-like generator (k = 6).
//!
//! Per scale it generates the dataset, builds an eager engine, saves
//! the snapshot, lazily reopens it, answers one query, and then times
//! the same query at steady state (`steady_query_us`: a repeat, which
//! the index's community table answers warm). `cold_query_us` times a
//! query on a fresh lazy open at a vertex outside every earlier answer.
//! It records wall times, peak RSS and the bytes the first query read,
//! and writes `BENCH_scale.json`.
//!
//! ```text
//! cargo run -p pcs-bench --release --bin bench_snapshot            # 0.01 / 0.1 / 1.0 -> ./BENCH_scale.json
//! cargo run -p pcs-bench --release --bin bench_snapshot -- --quick # CI smoke (tiny scales) -> target/
//! ```
//!
//! Two in-run assertions hold at every scale: the first lazy query
//! reads strictly less than the whole file, and lazy open plus the
//! first query (`ttfq_us`) beats the eager build (`build_us`).
//!
//! `--reps N` controls the steady and cold repetitions (at least 3);
//! both report `{min, median, stddev}` so timing noise stays
//! visible in the JSON. `--quick` runs the two tiny scales and writes
//! `BENCH_scale.quick.json` into `target/`, leaving the committed file
//! alone.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use pcs_datasets::suite::{build, SuiteConfig};
use pcs_datasets::{sample_query_vertices, SuiteDataset};
use pcs_engine::{IndexMode, PcsEngine, QueryRequest, QueryResponse};

/// The query `k` at every scale.
const K: u32 = 6;

struct Config {
    quick: bool,
    out_dir: PathBuf,
    reps: usize,
}

impl Config {
    fn parse() -> Config {
        let mut cfg = Config { quick: false, out_dir: PathBuf::from("."), reps: 5 };
        let mut out_dir_given = false;
        let mut reps_given = false;
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--quick" => cfg.quick = true,
                "--reps" => {
                    cfg.reps = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--reps takes a positive integer");
                    reps_given = true;
                }
                "--out-dir" => {
                    cfg.out_dir = PathBuf::from(args.next().expect("--out-dir takes a path"));
                    out_dir_given = true;
                }
                "--help" | "-h" => {
                    eprintln!("options: --quick --reps <n> --out-dir <dir>");
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag {other}; see --help");
                    std::process::exit(2);
                }
            }
        }
        if cfg.quick {
            if !reps_given {
                cfg.reps = 2;
            }
            // Keep the committed JSON safe by default, but honour an
            // explicit --out-dir (the .quick suffix still applies).
            if !out_dir_given {
                cfg.out_dir = PathBuf::from("target");
            }
        }
        cfg.reps = cfg.reps.max(1);
        cfg
    }
}

/// One recorded metric: a plain scalar (counts, single-shot timings)
/// or the distribution of repeated timing samples.
enum Metric {
    Scalar(f64),
    Dist { min: f64, median: f64, stddev: f64 },
}

impl Metric {
    /// The headline value (scalar, or the distribution's min — the
    /// least-noise estimator on a noisy shared container).
    fn headline(&self) -> f64 {
        match *self {
            Metric::Scalar(v) => v,
            Metric::Dist { min, .. } => min,
        }
    }

    fn from_samples(samples: &[f64]) -> Metric {
        if samples.len() == 1 {
            return Metric::Scalar(samples[0]);
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        let min = sorted[0];
        let mid = sorted.len() / 2;
        let median = if sorted.len().is_multiple_of(2) {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        } else {
            sorted[mid]
        };
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        let var = sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / sorted.len() as f64;
        Metric::Dist { min, median, stddev: var.sqrt() }
    }
}

/// Wall time of `f` in microseconds, once per rep.
fn sample_us<T>(reps: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// Minimal JSON escaping for the keys/strings we emit (no control
/// characters ever appear in them).
fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Renders a `[(key, metric)]` list as a JSON object body.
fn json_obj(pairs: &[(String, Metric)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match *v {
            Metric::Scalar(x) => {
                let _ = write!(out, "{}: {x:.2}", json_str(k));
            }
            Metric::Dist { min, median, stddev } => {
                let _ = write!(
                    out,
                    "{}: {{\"min\": {min:.2}, \"median\": {median:.2}, \"stddev\": {stddev:.2}}}",
                    json_str(k)
                );
            }
        }
    }
    out.push('}');
    out
}

/// Current resident-set size in KiB, read from `/proc/self/statm`
/// (std-only; `None` off Linux). Pages are assumed 4 KiB — true on
/// every environment this repo targets.
fn rss_kb() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4)
}

/// Running maximum of [`rss_kb`] across explicit sample points — a
/// poor man's high-water mark that needs no OS support beyond statm.
struct RssPeak(u64);

impl RssPeak {
    fn new() -> RssPeak {
        RssPeak(rss_kb().unwrap_or(0))
    }

    fn sample(&mut self) -> u64 {
        self.0 = self.0.max(rss_kb().unwrap_or(0));
        self.0
    }
}

/// Adds every vertex of `answer`'s communities to `touched`.
fn touch(touched: &mut HashSet<u32>, answer: &QueryResponse) {
    touched.extend(answer.communities().iter().flat_map(|c| c.vertices.iter().copied()));
}

/// Generate → build → save → lazy-load → first query → steady state →
/// cold queries at each scale. The lazy-vs-eager bytes ratio compares
/// the lazy counter ([`PcsEngine::snapshot_io`]) with the whole file,
/// which an eager load reads by definition.
fn main() {
    let cfg = Config::parse();
    let scales: &[f64] = if cfg.quick { &[0.002, 0.01] } else { &[0.01, 0.1, 1.0] };
    let dataset = SuiteDataset::Dblp;
    let mut rows: Vec<String> = Vec::new();
    for &scale in scales {
        let mut peak = RssPeak::new();
        let t = Instant::now();
        let ds = build(dataset, SuiteConfig { scale, ..SuiteConfig::default() });
        let gen_us = t.elapsed().as_secs_f64() * 1e6;
        let (vertices, edges) = (ds.graph.num_vertices(), ds.graph.num_edges());
        println!("scale {scale}: {vertices} vertices, {edges} edges (generated in {gen_us:.0} us)");
        let (qs, _) = sample_query_vertices(&ds, K, 4, 0x14);
        let q = qs.first().copied().unwrap_or(0);
        let reps = cfg.reps.max(3);
        let (cold_qs, _) = sample_query_vertices(&ds, K, 16 * reps, 0xc01d);
        peak.sample();
        // Move (not clone) the dataset into the builder: at scale 1.0
        // a second copy of the profiles is the difference between
        // fitting and thrashing.
        let pcs_datasets::ProfiledDataset { graph, tax, profiles, .. } = ds;
        let t = Instant::now();
        let engine = PcsEngine::builder()
            .graph(graph)
            .taxonomy(tax)
            .profiles(profiles)
            .index_mode(IndexMode::Eager)
            .build()
            .unwrap();
        let build_us = t.elapsed().as_secs_f64() * 1e6;
        peak.sample();
        let snap_path = std::env::temp_dir()
            .join(format!("pcs-bench-sweep-{}-{scale}.snapshot", std::process::id()));
        let t = Instant::now();
        engine.save(&snap_path).unwrap();
        let save_us = t.elapsed().as_secs_f64() * 1e6;
        let file_bytes = std::fs::metadata(&snap_path).unwrap().len();
        drop(engine);
        peak.sample();
        // Lazy warm-start: open (structure only), then the first query
        // faults in exactly what it touches. TtFQ is load + first
        // answer, one shot; the bytes counter pins how much of the
        // file that took.
        let t = Instant::now();
        let loaded = PcsEngine::builder().index_mode(IndexMode::Lazy).load(&snap_path).unwrap();
        let load_us = t.elapsed().as_secs_f64() * 1e6;
        let first = loaded.query(&QueryRequest::vertex(q).k(K)).unwrap();
        let ttfq_us = t.elapsed().as_secs_f64() * 1e6;
        let mut touched = HashSet::from([q]);
        touch(&mut touched, &first);
        let io = loaded.snapshot_io().expect("lazy load exposes IO counters");
        let ttfq_bytes = io.bytes_read;
        let ratio = ttfq_bytes as f64 / file_bytes.max(1) as f64;
        assert!(
            ratio < 1.0,
            "lazy TtFQ must not read the whole file ({ttfq_bytes} of {file_bytes} bytes)"
        );
        assert!(
            ttfq_us < build_us,
            "lazy open plus the first query ({ttfq_us:.0} us) must beat the eager build \
             ({build_us:.0} us) in-run"
        );
        let steady = Metric::from_samples(&sample_us(reps, || {
            std::hint::black_box(
                loaded.query(&QueryRequest::vertex(q).k(K)).unwrap().communities().len(),
            );
        }));
        peak.sample();
        drop(loaded);
        // Cold: a fresh lazy open (untimed) per sample, queried at a
        // vertex that no earlier query asked about or answered with.
        let mut cold = Vec::new();
        for &v in &cold_qs {
            if cold.len() == reps {
                break;
            }
            if touched.contains(&v) {
                continue;
            }
            let fresh = PcsEngine::builder().index_mode(IndexMode::Lazy).load(&snap_path).unwrap();
            let t = Instant::now();
            let answer = fresh.query(&QueryRequest::vertex(v).k(K)).unwrap();
            cold.push(t.elapsed().as_secs_f64() * 1e6);
            touched.insert(v);
            touch(&mut touched, &answer);
            peak.sample();
        }
        assert!(!cold.is_empty(), "every sampled vertex lies in an earlier answer");
        let cold = Metric::from_samples(&cold);
        let peak_kb = peak.sample();
        let _ = std::fs::remove_file(&snap_path);
        println!(
            "scale {scale}: build {build_us:.0} us, save {save_us:.0} us, lazy load {load_us:.0} us, \
             ttfq {ttfq_us:.0} us ({ttfq_bytes} of {file_bytes} bytes = {:.1}%), \
             steady {:.0} us, cold {:.0} us, peak rss {peak_kb} KiB",
            ratio * 100.0,
            steady.headline(),
            cold.headline(),
        );
        let pairs = vec![
            ("vertices".to_string(), Metric::Scalar(vertices as f64)),
            ("edges".to_string(), Metric::Scalar(edges as f64)),
            ("gen_us".to_string(), Metric::Scalar(gen_us)),
            ("build_us".to_string(), Metric::Scalar(build_us)),
            ("save_us".to_string(), Metric::Scalar(save_us)),
            ("load_us".to_string(), Metric::Scalar(load_us)),
            ("ttfq_us".to_string(), Metric::Scalar(ttfq_us)),
            ("steady_query_us".to_string(), steady),
            ("cold_query_us".to_string(), cold),
            ("file_bytes".to_string(), Metric::Scalar(file_bytes as f64)),
            ("ttfq_bytes".to_string(), Metric::Scalar(ttfq_bytes as f64)),
            ("lazy_eager_bytes_ratio".to_string(), Metric::Scalar(ratio)),
            ("peak_rss_kb".to_string(), Metric::Scalar(peak_kb as f64)),
        ];
        rows.push(format!("{}: {}", json_str(&format!("{scale}")), json_obj(&pairs)));
    }
    let path =
        cfg.out_dir.join(if cfg.quick { "BENCH_scale.quick.json" } else { "BENCH_scale.json" });
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"pcs-bench-scale/v1\",");
    let _ = writeln!(
        out,
        "  \"config\": {{\"dataset\": {}, \"k\": {}, \"reps\": {}, \"quick\": {}}},",
        json_str(dataset.name()),
        K,
        cfg.reps,
        cfg.quick
    );
    let _ = writeln!(out, "  \"results\": {{{}}}", rows.join(", "));
    out.push_str("}\n");
    std::fs::create_dir_all(path.parent().unwrap_or(Path::new("."))).expect("create out dir");
    std::fs::write(&path, out).expect("write scale sweep file");
    println!("wrote {}", path.display());
}
