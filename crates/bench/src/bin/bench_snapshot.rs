//! Machine-readable performance snapshot: the perf trajectory tracker.
//!
//! Runs the load-bearing measurements — per-query latency of all five
//! PCS algorithms (`query_efficiency`), CP-tree construction
//! (`index_construction`), sharded-lazy **time-to-first-query** vs
//! eager build, persistence, and the live-update path
//! (`update_throughput`) — in one **fixed configuration** (DBLP-like,
//! the largest generated dataset, at scale 0.01 with k = 6), then
//! writes `BENCH_query.json` and `BENCH_index.json` so the numbers can
//! be committed and diffed PR over PR.
//!
//! ```text
//! cargo run -p pcs-bench --release --bin bench_snapshot            # full run, writes ./BENCH_*.json
//! cargo run -p pcs-bench --release --bin bench_snapshot -- --quick # CI smoke: tiny dataset, target/
//! cargo run -p pcs-bench --release --bin bench_snapshot -- --quick --assert-lazy-wins
//! ```
//!
//! `--reps N` controls repetitions; every repeated metric reports
//! `{min, median, stddev}` so the shared 1-core container's timing
//! noise is visible in the JSON instead of silently folded into one
//! number. `--quick` is the CI bit-rot guard: a
//! seconds-long run on a tiny dataset that exercises every code path
//! and the JSON writer (into `target/`, leaving the committed files
//! alone) and fails only on panic — except under `--assert-lazy-wins`,
//! which additionally asserts (in-run, same process, same load) that
//! the sharded-lazy time-to-first-query beats the eager full build.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use pcs_core::Algorithm;
use pcs_datasets::suite::{build, SuiteConfig};
use pcs_datasets::{sample_query_vertices, SuiteDataset};
use pcs_engine::{IndexMode, PcsEngine, QueryRequest, UpdateBatch};
use pcs_graph::VertexId;
use pcs_index::ShardedCpIndex;

struct Config {
    quick: bool,
    assert_lazy_wins: bool,
    scale_sweep: bool,
    out_dir: PathBuf,
    scale: f64,
    k: u32,
    queries: usize,
    reps: usize,
}

impl Config {
    fn parse() -> Config {
        let mut cfg = Config {
            quick: false,
            assert_lazy_wins: false,
            scale_sweep: false,
            out_dir: PathBuf::from("."),
            scale: 0.01,
            k: 6,
            queries: 15,
            reps: 5,
        };
        let mut out_dir_given = false;
        let mut reps_given = false;
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--quick" => cfg.quick = true,
                "--assert-lazy-wins" => cfg.assert_lazy_wins = true,
                "--scale-sweep" => cfg.scale_sweep = true,
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
                    eprintln!(
                        "options: --quick --assert-lazy-wins --scale-sweep \
                         --reps <n> --out-dir <dir>"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag {other}; see --help");
                    std::process::exit(2);
                }
            }
        }
        if cfg.quick {
            cfg.scale = 0.002;
            cfg.queries = 4;
            if !reps_given {
                cfg.reps = 2;
            }
            // Keep the committed JSONs safe by default, but honour an
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

fn write_snapshot(path: &Path, dataset: &str, cfg: &Config, results: &str) {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"pcs-bench-snapshot/v2\",");
    let _ = writeln!(
        out,
        "  \"config\": {{\"dataset\": {}, \"scale\": {}, \"k\": {}, \"queries\": {}, \"reps\": {}, \"quick\": {}}},",
        json_str(dataset), cfg.scale, cfg.k, cfg.queries, cfg.reps, cfg.quick
    );
    let _ = writeln!(out, "  \"results\": {results}");
    out.push_str("}\n");
    std::fs::create_dir_all(path.parent().unwrap_or(Path::new("."))).expect("create out dir");
    std::fs::write(path, out).expect("write snapshot file");
    println!("wrote {}", path.display());
}

fn churn_edges(ds: &pcs_datasets::ProfiledDataset, count: usize) -> Vec<(VertexId, VertexId)> {
    let (members, _) = sample_query_vertices(ds, 4, count * 8, 0xc4u64);
    let mut out = Vec::new();
    'outer: for (i, &a) in members.iter().enumerate() {
        for &b in &members[i + 1..] {
            let pair = (a.min(b), a.max(b));
            if a != b && !ds.graph.has_edge(a, b) && !out.contains(&pair) {
                out.push(pair);
                if out.len() == count {
                    break 'outer;
                }
            }
        }
    }
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

/// The `--scale-sweep` mode: generate → build → save → lazy-load →
/// first query → steady state at each scale, recording wall times,
/// peak RSS, and the lazy-vs-eager bytes-read ratio (an eager load
/// reads the whole file by definition; the lazy counter comes from
/// [`PcsEngine::snapshot_io`]). Writes `BENCH_scale.json`.
fn run_scale_sweep(cfg: &Config) {
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
        let (qs, _) = sample_query_vertices(&ds, cfg.k, 4, 0x14);
        let q = qs.first().copied().unwrap_or(0);
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
        std::hint::black_box(
            loaded.query(&QueryRequest::vertex(q).k(cfg.k)).unwrap().communities().len(),
        );
        let ttfq_us = t.elapsed().as_secs_f64() * 1e6;
        let io = loaded.snapshot_io().expect("lazy load exposes IO counters");
        let ttfq_bytes = io.bytes_read;
        let ratio = ttfq_bytes as f64 / file_bytes.max(1) as f64;
        assert!(
            ratio < 1.0,
            "lazy TtFQ must not read the whole file ({ttfq_bytes} of {file_bytes} bytes)"
        );
        let steady = Metric::from_samples(&sample_us(cfg.reps.max(3), || {
            std::hint::black_box(
                loaded.query(&QueryRequest::vertex(q).k(cfg.k)).unwrap().communities().len(),
            );
        }));
        let peak_kb = peak.sample();
        drop(loaded);
        let _ = std::fs::remove_file(&snap_path);
        println!(
            "scale {scale}: build {build_us:.0} us, save {save_us:.0} us, lazy load {load_us:.0} us, \
             ttfq {ttfq_us:.0} us ({ttfq_bytes} of {file_bytes} bytes = {:.1}%), \
             steady {:.0} us, peak rss {peak_kb} KiB",
            ratio * 100.0,
            steady.headline(),
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
        cfg.k,
        cfg.reps,
        cfg.quick
    );
    let _ = writeln!(out, "  \"results\": {{{}}}", rows.join(", "));
    out.push_str("}\n");
    std::fs::create_dir_all(path.parent().unwrap_or(Path::new("."))).expect("create out dir");
    std::fs::write(&path, out).expect("write scale sweep file");
    println!("wrote {}", path.display());
}

fn main() {
    let cfg = Config::parse();
    if cfg.scale_sweep {
        run_scale_sweep(&cfg);
        return;
    }
    let suite = SuiteConfig { scale: cfg.scale, ..SuiteConfig::default() };
    let ds = build(SuiteDataset::Dblp, suite);
    println!(
        "dataset: {} vertices, {} edges (DBLP-like @ scale {}, reps {})",
        ds.graph.num_vertices(),
        ds.graph.num_edges(),
        cfg.scale,
        cfg.reps
    );
    let (queries, _) = sample_query_vertices(&ds, cfg.k, cfg.queries, 0x14);
    assert!(!queries.is_empty(), "no query vertices with core >= k");

    let report = |name: &str, m: &Metric| match *m {
        Metric::Scalar(v) => println!("{name:<40} {v:>12.2}"),
        Metric::Dist { min, median, stddev } => {
            println!("{name:<40} {min:>12.2} (median {median:.2}, stddev {stddev:.2})")
        }
    };

    // ---- query_efficiency: mean us per query, distribution over reps.
    // Every algorithm answers the *same* query vertices the same
    // number of times, so the per-algorithm numbers are comparable.
    let (graph, profiles) =
        (std::sync::Arc::new(ds.graph.clone()), std::sync::Arc::new(ds.profiles.clone()));
    let build_index = || {
        let idx = ShardedCpIndex::build(graph.clone(), &ds.tax, profiles.clone()).unwrap();
        idx.materialize_all(1);
        idx
    };
    let index = build_index();
    let ctx =
        pcs_core::QueryContext::new(&ds.graph, &ds.tax, &ds.profiles).unwrap().with_index(&index);
    let mut query_results: Vec<(String, Metric)> = Vec::new();
    for algo in Algorithm::ALL {
        let per_query: Vec<f64> = sample_us(cfg.reps, || {
            for &q in &queries {
                std::hint::black_box(ctx.query(q, cfg.k, algo).unwrap().communities.len());
            }
        })
        .into_iter()
        .map(|total| total / queries.len() as f64)
        .collect();
        let metric = Metric::from_samples(&per_query);
        report(&format!("query_efficiency/{} (us/query)", algo.name()), &metric);
        query_results.push((algo.name().to_string(), metric));
    }
    drop(ctx);

    // ---- index_construction: one full sequential CP-tree build
    // (facade pass plus every shard, inputs shared rather than copied).
    let mut index_results: Vec<(String, Metric)> = Vec::new();
    let m = Metric::from_samples(&sample_us(cfg.reps, build_index));
    report("index_construction/index_build_seq_us", &m);
    index_results.push(("index_build_seq_us".into(), m));

    // ---- sharding: time-to-first-query (lazy, per-shard) vs eager
    // full build, measured in-run. The lazy engine's first queries pay
    // the facade plus only the shards their subtree lattices touch —
    // a 3-query workload over heavy-tailed profiles touches a handful
    // of labels, not the whole taxonomy.
    let eager_build = Metric::from_samples(&sample_us(cfg.reps, || {
        PcsEngine::builder()
            .graph(ds.graph.clone())
            .taxonomy(ds.tax.clone())
            .profiles(ds.profiles.clone())
            .index_mode(IndexMode::Eager)
            .build()
            .unwrap()
    }));
    report("sharding/eager_build_us", &eager_build);
    // The first-query workload: 3 query vertices with the *smallest*
    // profiles among a wide sample — real query traffic concentrates
    // on a small fraction of labels (heavy-tailed label popularity),
    // and this is exactly the case per-shard laziness serves: the
    // engine materializes the few shards those lattices touch and
    // nothing else (the root label is never probed — root-only
    // candidates are answered by the global k-ĉore directly).
    let (wide_sample, _) = sample_query_vertices(&ds, cfg.k, cfg.queries.max(40), 0x14);
    let mut by_profile_size: Vec<VertexId> = wide_sample;
    by_profile_size.sort_by_key(|&q| ds.profiles[q as usize].len());
    let first_queries: Vec<VertexId> = by_profile_size.into_iter().take(3).collect();
    let workload_labels: std::collections::BTreeSet<u32> = first_queries
        .iter()
        .flat_map(|&q| ds.profiles[q as usize].nodes().iter().copied())
        .filter(|&l| l != 0)
        .collect();
    let first_q = first_queries[0];
    // Eager time-to-first-query: full build, then the same first
    // query — the apples-to-apples baseline for the lazy path.
    let eager_ttfq = Metric::from_samples(&sample_us(cfg.reps, || {
        let engine = PcsEngine::builder()
            .graph(ds.graph.clone())
            .taxonomy(ds.tax.clone())
            .profiles(ds.profiles.clone())
            .index_mode(IndexMode::Eager)
            .build()
            .unwrap();
        std::hint::black_box(
            engine.query(&QueryRequest::vertex(first_q).k(cfg.k)).unwrap().communities().len(),
        );
        engine
    }));
    report("sharding/eager_time_to_first_query_us", &eager_ttfq);
    // Lazy time-to-first-query, plus (on the then-warm engine) the
    // steady-state latency of the identical query — the floor both
    // modes pay per query regardless of index residency. The lazy
    // warm-up (ttfq − steady) is "the cost of the queried labels'
    // shards"; that is the number per-shard laziness shrinks.
    let resident_first;
    let resident_after;
    let populated;
    let steady_samples;
    {
        // Untimed pass: gather shard-residency counts and the
        // steady-state latency of the identical query on a warm engine.
        let engine = PcsEngine::builder()
            .graph(ds.graph.clone())
            .taxonomy(ds.tax.clone())
            .profiles(ds.profiles.clone())
            .index_mode(IndexMode::Lazy)
            .build()
            .unwrap();
        std::hint::black_box(
            engine.query(&QueryRequest::vertex(first_q).k(cfg.k)).unwrap().communities().len(),
        );
        resident_first = engine.resident_shards();
        steady_samples = sample_us(cfg.reps, || {
            std::hint::black_box(
                engine.query(&QueryRequest::vertex(first_q).k(cfg.k)).unwrap().communities().len(),
            );
        });
        for &q in &first_queries[1..] {
            std::hint::black_box(
                engine.query(&QueryRequest::vertex(q).k(cfg.k)).unwrap().communities().len(),
            );
        }
        resident_after = engine.resident_shards();
        populated = engine.snapshot().index().map_or(0, |i| i.num_populated_labels());
    }
    let ttfq = Metric::from_samples(&sample_us(cfg.reps, || {
        let engine = PcsEngine::builder()
            .graph(ds.graph.clone())
            .taxonomy(ds.tax.clone())
            .profiles(ds.profiles.clone())
            .index_mode(IndexMode::Lazy)
            .build()
            .unwrap();
        std::hint::black_box(
            engine.query(&QueryRequest::vertex(first_q).k(cfg.k)).unwrap().communities().len(),
        );
        engine
    }));
    let steady = Metric::from_samples(&steady_samples);
    report("sharding/time_to_first_query_us", &ttfq);
    report("sharding/steady_state_query_us", &steady);
    let (eager_us, eager_ttfq_us, ttfq_us, steady_us) =
        (eager_build.headline(), eager_ttfq.headline(), ttfq.headline(), steady.headline());
    let warmup_us = (ttfq_us - steady_us).max(0.0);
    let first_labels = ds.profiles[first_q as usize].nodes().iter().filter(|&&l| l != 0).count();
    println!(
        "sharding: first query (|T(q)| non-root = {first_labels}) materialized \
         {resident_first} shards; {}-query workload over {} labels total \
         {resident_after}/{populated}; ttfq {ttfq_us:.0} us vs eager ttfq {eager_ttfq_us:.0} us \
         ({:.1}x); lazy warm-up {warmup_us:.0} us vs eager build {eager_us:.0} us ({:.1}x)",
        first_queries.len(),
        workload_labels.len(),
        eager_ttfq_us / ttfq_us,
        eager_us / warmup_us.max(1.0),
    );
    index_results.push(("eager_build_us".into(), eager_build));
    index_results.push(("eager_time_to_first_query_us".into(), eager_ttfq));
    index_results.push(("time_to_first_query_us".into(), ttfq));
    index_results.push(("steady_state_query_us".into(), steady));
    index_results
        .push(("first_query_resident_shards".into(), Metric::Scalar(resident_first as f64)));
    index_results.push(("workload_resident_shards".into(), Metric::Scalar(resident_after as f64)));
    index_results.push(("populated_labels".into(), Metric::Scalar(populated as f64)));
    if cfg.assert_lazy_wins {
        // Two in-run guarantees, both robust to the shared container's
        // noise: (1) reaching the first answer is faster end to end on
        // the lazy engine; (2) the lazy index warm-up (first-query
        // overhead beyond steady state) beats the eager full build.
        assert!(
            ttfq_us < eager_ttfq_us,
            "sharded-lazy time-to-first-query ({ttfq_us:.0} us) must beat the eager engine's \
             ({eager_ttfq_us:.0} us) in-run"
        );
        assert!(
            warmup_us < eager_us,
            "lazy index warm-up ({warmup_us:.0} us) must beat the eager full build \
             ({eager_us:.0} us) in-run"
        );
        println!(
            "--assert-lazy-wins: ok (ttfq {ttfq_us:.0} < {eager_ttfq_us:.0} us; warm-up \
             {warmup_us:.0} < build {eager_us:.0} us)"
        );
    }

    // ---- persistence: cold start via snapshot vs eager rebuild.
    // `eager_build_us` (above) is the price a replica pays without a
    // file; `persist_load_us` is the warm-start replacement (Eager
    // load: decode + validate every shard). The roadmap target is
    // load ≤ 1/10 of build.
    let warm = PcsEngine::builder()
        .graph(ds.graph.clone())
        .taxonomy(ds.tax.clone())
        .profiles(ds.profiles.clone())
        .index_mode(IndexMode::Eager)
        .build()
        .unwrap();
    let snap_path =
        std::env::temp_dir().join(format!("pcs-bench-snapshot-{}.snapshot", std::process::id()));
    let m = Metric::from_samples(&sample_us(cfg.reps, || warm.save(&snap_path).unwrap()));
    report("persistence/persist_save_us", &m);
    index_results.push(("persist_save_us".into(), m));
    let m = Metric::from_samples(&sample_us(cfg.reps, || {
        PcsEngine::builder().index_mode(IndexMode::Eager).load(&snap_path).unwrap()
    }));
    report("persistence/persist_load_us", &m);
    index_results.push(("persist_load_us".into(), m));
    // Lazy load: the lazy replica maps the shard directory and
    // defers payload decode — the disk-backed time-to-first-query.
    let m = Metric::from_samples(&sample_us(cfg.reps, || {
        let engine = PcsEngine::builder().index_mode(IndexMode::Lazy).load(&snap_path).unwrap();
        for &q in &first_queries {
            std::hint::black_box(
                engine.query(&QueryRequest::vertex(q).k(cfg.k)).unwrap().communities().len(),
            );
        }
        engine
    }));
    report("persistence/partial_load_first_query_us", &m);
    index_results.push(("partial_load_first_query_us".into(), m));
    // Re-query smoke: the loaded engines answer exactly like the warm
    // one (this is the CI `--quick` save/load/re-query gate), on both
    // the eager and the partial path.
    let loaded = PcsEngine::builder().index_mode(IndexMode::Eager).load(&snap_path).unwrap();
    let partial = PcsEngine::builder().index_mode(IndexMode::Lazy).load(&snap_path).unwrap();
    let _ = std::fs::remove_file(&snap_path);
    for &q in queries.iter().take(3) {
        let req = QueryRequest::vertex(q).k(cfg.k);
        let a = warm.query(&req).unwrap();
        let b = loaded.query(&req).unwrap();
        let c = partial.query(&req).unwrap();
        assert_eq!(
            a.communities(),
            b.communities(),
            "loaded engine diverged from its source at q={q}"
        );
        assert_eq!(
            a.communities(),
            c.communities(),
            "partially loaded engine diverged from its source at q={q}"
        );
    }
    drop((warm, loaded, partial));

    // ---- update_throughput: state-neutral add+remove batch pairs
    // through the incremental engine, and the full-rebuild fallback.
    let edges = churn_edges(&ds, if cfg.quick { 2 } else { 8 });
    if edges.is_empty() {
        println!("update_throughput: skipped (no churn edges found)");
    } else {
        let adds = edges.iter().fold(UpdateBatch::new(), |b, &(u, v)| b.add_edge(u, v));
        let removes = edges.iter().fold(UpdateBatch::new(), |b, &(u, v)| b.remove_edge(u, v));
        for (name, cap) in [("apply_pair_incremental_us", 1.0), ("apply_pair_rebuild_us", 0.0)] {
            let engine = PcsEngine::builder()
                .graph(ds.graph.clone())
                .taxonomy(ds.tax.clone())
                .profiles(ds.profiles.clone())
                .index_mode(IndexMode::Eager)
                .incremental_patch_cap(cap)
                .build()
                .unwrap();
            let m = Metric::from_samples(&sample_us(cfg.reps, || {
                engine.apply(&adds).unwrap();
                engine.apply(&removes).unwrap();
            }));
            report(&format!("update_throughput/{name}"), &m);
            index_results.push((name.into(), m));
        }
        // Serving mix: 19 reads + 1 write per round.
        let engine = PcsEngine::builder()
            .graph(ds.graph.clone())
            .taxonomy(ds.tax.clone())
            .profiles(ds.profiles.clone())
            .index_mode(IndexMode::Eager)
            .build()
            .unwrap();
        engine.warm().unwrap();
        let requests: Vec<QueryRequest> =
            queries.iter().map(|&q| QueryRequest::vertex(q).k(cfg.k)).collect();
        let (wu, wv) = edges[0];
        let m = Metric::from_samples(&sample_us(cfg.reps, || {
            engine.add_edge(wu, wv).unwrap();
            for resp in engine.query_batch(&requests) {
                std::hint::black_box(resp.unwrap().communities().len());
            }
            engine.remove_edge(wu, wv).unwrap();
        }));
        report("update_throughput/mixed_round_us", &m);
        index_results.push(("mixed_round_us".into(), m));
    }

    // ---- parallel_apply: the work-stealing shard rebuild inside
    // `apply_batch`, sequential vs parallel on the same profile-heavy
    // batch (a multi-label invalidation set), as an in-run ratio. On a
    // 1-core runner both engines degrade to the sequential path and
    // the ratio reports ~1.0 — the gate below only arms with real
    // parallelism available.
    let par_threads = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1);
    {
        let n = ds.graph.num_vertices();
        let churn = (n / 4).clamp(1, if cfg.quick { 64 } else { 256 });
        let mut fwd = UpdateBatch::new();
        let mut back = UpdateBatch::new();
        for v in 0..churn as VertexId {
            // Rotate profiles one vertex over: each reprofiled vertex
            // contributes its pre/post symmetric difference, so the
            // batch invalidates shards across many labels at once.
            fwd = fwd.set_profile(v, ds.profiles[(v as usize + 1) % n].clone());
            back = back.set_profile(v, ds.profiles[v as usize].clone());
        }
        let build_with = |threads: usize| {
            let engine = PcsEngine::builder()
                .graph(ds.graph.clone())
                .taxonomy(ds.tax.clone())
                .profiles(ds.profiles.clone())
                .index_mode(IndexMode::Eager)
                .incremental_patch_cap(1.0) // keep the patch path, never rebuild
                .index_build_threads(threads)
                .build()
                .unwrap();
            engine.warm().unwrap();
            engine
        };
        let seq = build_with(1);
        let par = build_with(par_threads);
        let m_seq = Metric::from_samples(&sample_us(cfg.reps, || {
            seq.apply(&fwd).unwrap();
            seq.apply(&back).unwrap();
        }));
        let m_par = Metric::from_samples(&sample_us(cfg.reps, || {
            par.apply(&fwd).unwrap();
            par.apply(&back).unwrap();
        }));
        let ratio = m_seq.headline() / m_par.headline().max(1e-9);
        report("parallel_apply/profile_batch_seq_us", &m_seq);
        report("parallel_apply/profile_batch_par_us", &m_par);
        println!(
            "parallel_apply: {churn}-vertex reprofile batch, {par_threads} threads → {ratio:.2}x"
        );
        index_results.push(("apply_profile_batch_seq_us".into(), m_seq));
        index_results.push(("apply_profile_batch_par_us".into(), m_par));
        index_results.push(("parallel_apply_threads".into(), Metric::Scalar(par_threads as f64)));
        index_results.push(("parallel_apply_ratio".into(), Metric::Scalar(ratio)));
        if cfg.quick && par_threads >= 4 {
            // With real cores available the work-steal must pay for
            // itself; on 1–3 cores the ratio is noise and only the
            // correctness of both apply paths is checked (above, by
            // the unwraps and the differential tests).
            assert!(
                ratio >= 1.3,
                "parallel apply_batch only reached {ratio:.2}x with {par_threads} threads"
            );
        }
    }

    // ---- emit.
    let query_path =
        cfg.out_dir.join(if cfg.quick { "BENCH_query.quick.json" } else { "BENCH_query.json" });
    let index_path =
        cfg.out_dir.join(if cfg.quick { "BENCH_index.quick.json" } else { "BENCH_index.json" });
    write_snapshot(&query_path, &ds.name, &cfg, &json_obj(&query_results));
    write_snapshot(&index_path, &ds.name, &cfg, &json_obj(&index_results));
}
