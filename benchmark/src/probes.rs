//! The traced run's per-layer numbers.
//!
//! Nothing inside the program is instrumented, so the per-request
//! split is a *decomposed replay*: for each sampled query vertex the
//! harness calls the layers' public functions one by one under a
//! parent span, then the full path. Around that, each layer's bulk
//! operations (build, save, open, append, a health round trip) are
//! timed once or a few times on the workload's own corpus. Every
//! number is read back out of the tracer's spans and counts, which are
//! also what the trace file holds.

use std::collections::HashSet;
use std::path::Path;

use crate::inputs::Op;
use crate::layers::{
    Algo, Cache, Cores, Corpus, Engine, Index, Server, ServerCounters, Space, VertexId, WalProbe,
    WriteOp,
};
use crate::loadgen::{Conn, LoadResult, Outcome};
use crate::stats::{mean, median, percentile, sorted};
use crate::trace::Tracer;
use crate::workloads::Report;

/// Bytes of a WAL frame header (`len | epoch | checksum`).
const WAL_FRAME_HEADER: usize = 20;
const ALGOS: [(Algo, &str, &str); 5] = [
    (Algo::Basic, "core.basic", "core.basic_p50_us"),
    (Algo::Incre, "core.incre", "core.incre_p50_us"),
    (Algo::AdvI, "core.advi", "core.advi_p50_us"),
    (Algo::AdvD, "core.advd", "core.advd_p50_us"),
    (Algo::AdvP, "core.advp", "core.advp_p50_us"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// The per-layer metrics of the workload's own replay (the others come
/// from [`layer_probes`]). A layer that is not on a workload's path
/// keeps its 0.
#[derive(Default)]
pub struct Replay {
    /// Wall time of the traced replay over the untraced one, minus one.
    pub overhead_pct: f64,
    pub read_p50_us: f64,
    pub cache_hit_ratio: f64,
    pub queue_wait_us: f64,
    pub batch_size_mean: f64,
    pub dedup_ratio: f64,
    pub cache_answered_ratio: f64,
    pub read_p99_us: f64,
    pub write_p50_us: f64,
    pub write_p90_us: f64,
    pub recovery_ms: f64,
}

impl Replay {
    pub fn put(&self, report: &mut Report) {
        report.put("trace.overhead_pct", self.overhead_pct, "%");
        report.put("trace.read_p50_us", self.read_p50_us, "us");
        report.put("engine.cache_hit_ratio", self.cache_hit_ratio, "ratio");
        report.put("serve.queue_wait_us", self.queue_wait_us, "us");
        report.put("serve.batch_size_mean", self.batch_size_mean, "count");
        report.put("serve.dedup_ratio", self.dedup_ratio, "ratio");
        report.put("serve.cache_answered_ratio", self.cache_answered_ratio, "ratio");
        report.put("serve.read_p99_us", self.read_p99_us, "us");
        report.put("serve.write_p50_us", self.write_p50_us, "us");
        report.put("serve.write_p90_us", self.write_p90_us, "us");
        report.put("store.recovery_ms", self.recovery_ms, "ms");
    }

    /// Traced against untraced replay of one op list on an in-process
    /// workload, which has no server and no result cache on its path.
    pub fn in_process(plain_wall_s: f64, traced_wall_s: f64, latencies_us: Vec<f64>) -> Replay {
        Replay {
            overhead_pct: (traced_wall_s / plain_wall_s - 1.0) * 100.0,
            read_p50_us: percentile(&sorted(latencies_us), 0.5),
            ..Replay::default()
        }
    }

    /// The same for the HTTP workloads: spans come from the timestamps
    /// the load generator takes anyway, ratios from `/stats` deltas.
    pub fn over_http(
        tracer: &mut Tracer,
        ops: &[Op],
        plain_wall_s: f64,
        load: &LoadResult,
        before: (ServerCounters, (u64, u64)),
        after: (ServerCounters, (u64, u64)),
    ) -> Replay {
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        let mut waits = Vec::new();
        let mut seen: HashSet<(VertexId, u64)> = HashSet::new();
        let mut by_end: Vec<_> = load.samples.iter().filter(|s| s.outcome == Outcome::Ok).collect();
        by_end.sort_by_key(|s| s.end);
        for s in by_end {
            match &ops[s.op] {
                Op::Read(v) => {
                    tracer.record("http.read", s.op as u64, s.start, s.end);
                    reads.push(s.rtt_us());
                    // A cached answer carries the `elapsed_us` of the
                    // computation that filled the cache. The first answer
                    // for a vertex at an epoch that took at least that long
                    // was computed for this request; the rest of its round
                    // trip is parsing, queueing in the batcher and encoding.
                    let wait = s.rtt_us() - s.elapsed_us as f64;
                    if seen.insert((*v, s.epoch)) && wait >= 0.0 {
                        waits.push(wait);
                    }
                }
                Op::Write(_) => {
                    tracer.record("http.write", s.op as u64, s.start, s.end);
                    writes.push(s.rtt_us());
                }
            }
        }
        let (reads, writes) = (sorted(reads), sorted(writes));
        let (hits, misses) = ((after.1 .0 - before.1 .0) as f64, (after.1 .1 - before.1 .1) as f64);
        let d = |f: fn(&ServerCounters) -> u64| (f(&after.0) - f(&before.0)) as f64;
        let batched = d(|c| c.batched_requests);
        let write_at = |q| if writes.is_empty() { 0.0 } else { percentile(&writes, q) };
        Replay {
            overhead_pct: (load.wall.as_secs_f64() / plain_wall_s - 1.0) * 100.0,
            read_p50_us: percentile(&reads, 0.5),
            cache_hit_ratio: ratio(hits, hits + misses),
            queue_wait_us: median_or_zero(&waits),
            batch_size_mean: ratio(batched, d(|c| c.batches)),
            dedup_ratio: ratio(d(|c| c.dedup_saved), batched),
            cache_answered_ratio: ratio(d(|c| c.cache_answered), d(|c| c.queries)),
            // p99 needs ten samples beyond it.
            read_p99_us: if reads.len() >= 1000 { percentile(&reads, 0.99) } else { 0.0 },
            write_p50_us: write_at(0.5),
            write_p90_us: write_at(0.9),
            recovery_ms: 0.0,
        }
    }
}

/// The decomposed replay over `sample` and the per-layer bulk probes,
/// all on `corpus`. Ends by putting every remaining per-layer metric.
pub fn layer_probes(
    report: &mut Report,
    t: &mut Tracer,
    corpus: &Corpus,
    sample: &[VertexId],
    work: &Path,
) {
    let n = corpus.num_vertices();

    // ---- graph, index: bulk builds.
    let cores = (0..3)
        .map(|i| t.span("graph.core_decomp", None, i, |_, _| Cores::new(corpus)))
        .last()
        .expect("three decompositions");
    let index = t.span("index.facade_build", None, 0, |_, _| Index::facade(corpus));
    // First touch of single shards, on a facade that has none yet.
    let mut labels: Vec<u32> = Vec::new();
    for &q in sample {
        for &l in corpus.profile_labels(q) {
            if l != 0 && !labels.contains(&l) && labels.len() < 24 {
                labels.push(l);
            }
        }
    }
    for (i, &l) in labels.iter().enumerate() {
        t.span("index.shard_build", None, i as u64, |_, _| index.shard(l));
    }
    t.span("index.materialize_all", None, 0, |_, _| index.materialize_all());

    // ---- the decomposed replay.
    let engine = t.span("engine.build", None, 0, |_, _| Engine::build(corpus, Cache::Wholesale));
    for (i, &q) in sample.iter().enumerate() {
        let r = i as u64;
        t.span("replay", None, r, |t, root| {
            let gk =
                t.span("graph.gk_component", Some(root), r, |_, _| cores.component_size(corpus, q));
            t.count("graph.gk_vertices", r, gk as f64);
            let space = t.span("ptree.query_space", Some(root), r, |_, _| Space::new(corpus, q));
            t.count("ptree.tq_nodes", r, space.nodes() as f64);
            t.count("ptree.lattice_log2", r, space.lattice_log2());
            let tq = corpus.profile_labels(q);
            t.span("index.get", Some(root), r, |_, _| {
                for &l in tq {
                    std::hint::black_box(index.get(q, l));
                }
            });
            t.count("index.get_probes", r, tq.len() as f64);
            for (algo, span, _) in ALGOS {
                let reply = t.span(span, Some(root), r, |_, _| engine.query(q, algo));
                t.count(span, r, reply.elapsed_us());
                if algo == Algo::AdvP {
                    let e = reply.effort();
                    t.count("core.subtrees_generated", r, e.subtrees_generated as f64);
                    t.count("core.verifications", r, e.verifications as f64);
                    t.count("core.memo_hits", r, e.memo_hits as f64);
                    t.count("core.seed_scanned", r, e.seed_scanned as f64);
                    t.count("core.peel_candidates", r, e.peel_candidates as f64);
                    t.count("core.members", r, e.members as f64);
                }
            }
            let full =
                t.span("replay.full_path", Some(root), r, |_, _| engine.query(q, Algo::Auto));
            t.count("engine.query_elapsed_us", r, full.elapsed_us());
            // The first cached query fills the cache, the second hits it.
            std::hint::black_box(engine.query_cached(q));
            t.span("engine.cache_hit", Some(root), r, |_, _| engine.query_cached(q));
            t.span("serve.route", Some(root), r, |_, _| assert!(engine.route_query(q, n)));
            let body = t.span("serve.render", Some(root), r, |_, _| full.render());
            t.count("serve.response_bytes", r, body.len() as f64);
        });
    }

    // ---- store: save, lazy and eager opens, read fractions.
    let snapshot = work.join("probe.snapshot");
    t.span("store.save", None, 0, |_, _| engine.save(&snapshot));
    let snapshot_mb =
        std::fs::metadata(&snapshot).map_or(0.0, |m| m.len() as f64 / (1 << 20) as f64);
    for i in 0..5 {
        t.span("store.open_lazy", None, i, |_, _| drop(Engine::load_lazy(&snapshot)));
    }
    let lazy = Engine::load_lazy(&snapshot);
    let fraction =
        |e: &Engine| e.snapshot_io().map_or(0.0, |(read, len)| ratio(read as f64, len as f64));
    std::hint::black_box(lazy.query(sample[0], Algo::Auto));
    let first_fraction = fraction(&lazy);
    for &q in sample {
        std::hint::black_box(lazy.query(q, Algo::Auto));
    }
    let (steady_fraction, lazy_shards) = (fraction(&lazy), lazy.resident_shards());
    drop(lazy);
    t.span("store.load_eager", None, 0, |_, _| drop(Engine::load_eager(&snapshot)));
    let _ = std::fs::remove_file(&snapshot);

    // ---- serve: the HTTP floor and a cache hit over the wire.
    let server = Server::start(&engine);
    if let Ok(mut conn) = Conn::connect(server.addr()) {
        let hot = format!("/query?v={}&k={}", sample[0], crate::layers::K);
        for i in 0..200 {
            t.span("serve.health", None, i, |_, _| conn.get("/health").is_ok());
            t.span("serve.hit", None, i, |_, _| conn.get(&hot).is_ok());
        }
    }
    server.shutdown();

    // ---- engine writes (these change the probe engine: kept last) and
    // the WAL appends the same writes would cost.
    let writes = corpus.write_stream(24, 0x7772_6974);
    let mut wal = WalProbe::open(&work.join("probe-wal"));
    for (i, w) in writes.iter().enumerate() {
        let r = i as u64;
        let payload = engine.wal_payload(w);
        t.span("store.wal_append", None, r, |_, _| wal.append_durable(&payload));
        t.count("store.wal_bytes", r, (WAL_FRAME_HEADER + payload.len()) as f64);
        let name = if matches!(w, WriteOp::Profile(..)) {
            "engine.apply_profile"
        } else {
            "engine.apply_edge"
        };
        let applied = t.span(name, None, r, |_, _| engine.apply(w));
        t.count("engine.apply_cores_changed", r, applied.cores_changed as f64);
        t.count("engine.apply_labels_rebuilt", r, applied.labels_rebuilt as f64);
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(work.join("probe-wal"));

    // ---- read everything back out of the tracer.
    let med = |t: &Tracer, name: &str| median_or_zero(&t.durations_us(name));
    let avg = |t: &Tracer, name: &str| mean(&t.values(name));
    report.put("graph.core_decomp_ms", med(t, "graph.core_decomp") / 1e3, "ms");
    report.put("graph.gk_component_us", med(t, "graph.gk_component"), "us");
    report.put("graph.gk_vertices", median_or_zero(&t.values("graph.gk_vertices")), "count");
    report.put("ptree.query_space_us", med(t, "ptree.query_space"), "us");
    report.put("ptree.tq_nodes", median_or_zero(&t.values("ptree.tq_nodes")), "count");
    report.put("ptree.lattice_log2", median_or_zero(&t.values("ptree.lattice_log2")), "log2");
    report.put("index.facade_build_ms", med(t, "index.facade_build") / 1e3, "ms");
    report.put("index.materialize_all_ms", med(t, "index.materialize_all") / 1e3, "ms");
    report.put("index.shard_build_us", med(t, "index.shard_build"), "us");
    let get_ns = ratio(
        t.durations_us("index.get").iter().sum::<f64>() * 1e3,
        t.values("index.get_probes").iter().sum(),
    );
    report.put("index.get_ns", get_ns, "ns");
    report.put("index.memory_mb", index.memory_bytes() as f64 / (1 << 20) as f64, "MiB");
    report.put("index.shards_resident", lazy_shards as f64, "count");
    for (_, span, metric) in ALGOS {
        report.put(metric, median_or_zero(&t.values(span)), "us");
    }
    let advp = sorted(t.values("core.advp"));
    report.put("core.advp_p90_us", percentile(&advp, 0.9), "us");
    // adv-P over basic on identical vertices, as totals: the paper's
    // Fig. 14 says this is below 1.
    report.put(
        "core.advp_over_basic",
        ratio(advp.iter().sum(), t.values("core.basic").iter().sum()),
        "ratio",
    );
    report.put("core.subtrees_generated", avg(t, "core.subtrees_generated"), "count");
    report.put("core.verifications", avg(t, "core.verifications"), "count");
    let verifications: f64 = t.values("core.verifications").iter().sum();
    let memo_hits: f64 = t.values("core.memo_hits").iter().sum();
    report.put("core.memo_hit_ratio", ratio(memo_hits, memo_hits + verifications), "ratio");
    report.put("core.seed_scanned", avg(t, "core.seed_scanned"), "count");
    report.put("core.peel_candidates", avg(t, "core.peel_candidates"), "count");
    report.put(
        "core.peel_candidates_per_member",
        ratio(t.values("core.peel_candidates").iter().sum(), t.values("core.members").iter().sum()),
        "ratio",
    );
    // What the engine adds around the algorithm: wall of `query` minus
    // the `elapsed` it reports, per request.
    let walls = t.durations_us("replay.full_path");
    let overhead: Vec<f64> =
        walls.iter().zip(t.values("engine.query_elapsed_us")).map(|(w, e)| w - e).collect();
    report.put("engine.query_overhead_us", median(&overhead), "us");
    report.put("engine.cache_hit_us", med(t, "engine.cache_hit"), "us");
    report.put("engine.apply_edge_us", med(t, "engine.apply_edge"), "us");
    report.put("engine.apply_profile_us", med(t, "engine.apply_profile"), "us");
    report.put("engine.apply_cores_changed", avg(t, "engine.apply_cores_changed"), "count");
    report.put("engine.apply_labels_rebuilt", avg(t, "engine.apply_labels_rebuilt"), "count");
    report.put("store.save_ms", med(t, "store.save") / 1e3, "ms");
    report.put("store.snapshot_mb", snapshot_mb, "MiB");
    report.put("store.open_lazy_us", med(t, "store.open_lazy"), "us");
    report.put("store.first_query_read_fraction", first_fraction, "ratio");
    report.put("store.steady_read_fraction", steady_fraction, "ratio");
    report.put("store.load_eager_ms", med(t, "store.load_eager") / 1e3, "ms");
    report.put("store.wal_append_us", med(t, "store.wal_append"), "us");
    report.put("store.wal_bytes_per_write", avg(t, "store.wal_bytes"), "B");
    report.put("serve.health_rtt_us", med(t, "serve.health"), "us");
    report.put("serve.route_us", med(t, "serve.route"), "us");
    report.put("serve.render_us", med(t, "serve.render"), "us");
    report.put("serve.response_bytes", median_or_zero(&t.values("serve.response_bytes")), "B");
    // What the batch and poll windows add to a hit: its round trip
    // minus the in-process cache probe.
    report.put("serve.wire_overhead_us", med(t, "serve.hit") - med(t, "engine.cache_hit"), "us");
    // The parts' medians against the whole's median on the replayed
    // requests; what is left is the residual of the decomposition.
    let substrate =
        med(t, "graph.gk_component") + med(t, "ptree.query_space") + med(t, "index.get");
    report.put("core.self_us", (median(&advp) - substrate).max(0.0), "us");
    report.put(
        "trace.residual_us",
        median(&walls) - median(&t.values("engine.query_elapsed_us")) - median(&overhead),
        "us",
    );
}
