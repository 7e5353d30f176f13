//! The four workloads. Each runs in its own process, sets itself up
//! `SETUP_REPS` times (all but the last in child processes; the median
//! is reported), measures a fixed op list drawn from the seed, and
//! checks every answer against the oracle outside the timed region.
//!
//! Why these four (one line each; README.md has the layer map):
//!
//! * `direct-warm` — in-process `query` on a warm eager engine, cache
//!   off: `core`/`index`/`ptree`/`graph` do all the work and
//!   `serve`/`store`/cache none, so an algorithmic gain shows here and
//!   a serving gain must not.
//! * `serve-hot` — HTTP reads whose working set fits the result cache:
//!   `serve` and the cache probe are the whole cost and `core` is
//!   bypassed; the mirror image of `direct-warm`.
//! * `serve-mixed` — the same server over a durable engine with one
//!   write in ten ops, then a restart: cache fill and invalidation,
//!   index patching and WAL fsync between reads, so a read gain that
//!   taxes writes (or the reverse) shows.
//! * `cold-scale` — a 5x larger snapshot built by a child process and
//!   opened lazily: `store` and every |V|-proportional term do most of
//!   the work; its `read_p50_us` over `direct-warm`'s is the scale
//!   cliff.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::inputs::{self, edge_key, Op, CORPUS_SEED};
use crate::json::Json;
use crate::layers::{
    sorted_answer, Algo, Answer, Cache, Corpus, Engine, Oracle, Reply, Server, VertexId, WriteOp, K,
};
use crate::loadgen::{self, Conn, LoadResult, Outcome};
use crate::oracle::Expected;
use crate::probes::{self, Replay};
use crate::stats::{median, peak_rss_mb, percentile, sorted};
use crate::trace::Tracer;

pub const WORKLOADS: [&str; 4] = ["direct-warm", "serve-hot", "serve-mixed", "cold-scale"];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Connections of `serve-hot`.
const CLIENTS: usize = 2;
/// Connections of `serve-mixed`. One, because two make the run
/// bistable: the dispatcher executes one batch at a time, so two
/// closed-loop clients either fall into step (both reads in one batch,
/// run in parallel) or out of step (each read waits for the other's),
/// and stay there. Runs of one seed then gave median reads of 40 ms or
/// 58 ms, and the quartile spread over ten seeds was 23%. That is the
/// program's behaviour (ROADMAP #5c), but not one a bound can hold.
const MIXED_CLIENTS: usize = 1;
const ZIPF_S: f64 = 1.1;
/// One write in every block of this many ops of `serve-mixed`.
const WRITE_EVERY: usize = 10;
/// Recoveries timed after `serve-mixed` (each replays the whole tail).
const RECOVERIES: usize = 3;
/// `serve-hot` reads in this many rounds of equal work.
const HOT_ROUNDS: usize = 10;

/// Sizes of one run. Op counts are fixed per second asked for, never
/// adapted to how fast the program turns out to be.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    pub scale: f64,
    pub cold_scale: f64,
    /// `direct-warm`: pool vertices, each read once per pass.
    pub direct_pool: usize,
    pub direct_passes: usize,
    /// `serve-hot`: vertices under the zipf, and reads over all rounds.
    pub hot_pool: usize,
    pub hot_reads: usize,
    /// `serve-mixed`: pool vertices, each read once per pass.
    pub mixed_pool: usize,
    pub mixed_passes: usize,
    pub cold_reads: usize,
    pub cold_opens: usize,
    /// Reps of the start-up path of `direct-warm`.
    pub ttfq_reps: usize,
    /// Vertices of the decomposed replay in a traced run.
    pub replay_sample: usize,
    pub cold_replay_sample: usize,
}

impl Sizing {
    /// Sized on the 2-core container so that the timed phase of every
    /// workload takes about `seconds` seconds.
    pub fn for_seconds(seconds: u64) -> Sizing {
        let s = seconds.max(1) as f64;
        let direct = 25.6 * s;
        Sizing {
            scale: 0.01,
            cold_scale: 0.05,
            direct_pool: (direct as usize).clamp(18, 256),
            direct_passes: ((direct / 256.0).round() as usize).max(1),
            hot_pool: 64,
            hot_reads: (3000.0 * s) as usize,
            mixed_pool: (direct as usize / 2).clamp(18, 128),
            mixed_passes: ((direct / 128.0).round() as usize).max(1),
            cold_reads: (10.0 * s) as usize,
            cold_opens: 24,
            ttfq_reps: 15,
            replay_sample: 36,
            cold_replay_sample: 9,
        }
    }

    /// Seconds-long sizes on tiny corpora: guards against bit-rot.
    pub fn smoke() -> Sizing {
        Sizing {
            scale: 0.002,
            cold_scale: 0.004,
            direct_pool: 18,
            direct_passes: 1,
            hot_pool: 18,
            hot_reads: 400,
            mixed_pool: 18,
            mixed_passes: 2,
            cold_reads: 9,
            cold_opens: 3,
            ttfq_reps: 2,
            replay_sample: 9,
            cold_replay_sample: 9,
        }
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines for stderr.
    pub notes: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The result line of the contract.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub sizing: Sizing,
    pub trace: bool,
    /// Set up, report how long that took, and stop: what the children
    /// of [`setup_median`] do.
    pub setup_only: bool,
    /// The words after `run` on this process's command line, to start
    /// those children with.
    pub cli: Vec<String>,
    /// Scratch directory of this run, inside the build directory. Its
    /// parent outlives the run: oracle answers and traces go there.
    pub work: PathBuf,
}

impl RunArgs {
    fn shared_dir(&self) -> &Path {
        self.work.parent().unwrap_or(&self.work)
    }
}

pub fn run(args: &RunArgs) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new(args.trace, Instant::now());
    match args.workload.as_str() {
        "direct-warm" => direct_warm(args, &mut report, &mut tracer),
        "serve-hot" => serve_hot(args, &mut report, &mut tracer),
        "serve-mixed" => serve_mixed(args, &mut report, &mut tracer),
        "cold-scale" => cold_scale(args, &mut report, &mut tracer),
        other => panic!("unknown workload {other}"),
    }
    if args.trace {
        let path = args.shared_dir().join(format!("trace-{}.jsonl", args.workload));
        match tracer.write_jsonl(&path) {
            Ok(()) => report.note(format!(
                "trace: {} spans, {} counts -> {}",
                tracer.spans.len(),
                tracer.counts.len(),
                path.display()
            )),
            Err(e) => report.note(format!("trace: could not write {}: {e}", path.display())),
        }
    }
    report
}

/// Sets up `SETUP_REPS` times and returns the median set-up time in
/// seconds beside the bed. All but the last set-up happen in child
/// processes that set up and exit, so that what they allocate does not
/// count into this process's peak memory. A traced run sets up once.
fn setup_median<T>(args: &RunArgs, build: impl FnOnce() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    if !args.trace && !args.setup_only {
        let exe = std::env::current_exe().expect("own path");
        for _ in 1..SETUP_REPS {
            let out = std::process::Command::new(&exe)
                .arg("run")
                .args(&args.cli)
                .arg("--setup-only")
                .stderr(std::process::Stdio::null())
                .output()
                .expect("spawn set-up child");
            let seconds = String::from_utf8_lossy(&out.stdout).trim().parse::<f64>();
            times.push(seconds.expect("set-up child prints its set-up time"));
        }
    }
    let t = Instant::now();
    let bed = build();
    times.push(t.elapsed().as_secs_f64());
    (median(&times), bed)
}

/// The read latencies (µs) and the wall time (s) of one round of a
/// timed phase. A phase whose rounds repeat the same work reports the
/// median over its rounds, which a burst of noise from outside the
/// process moves less than it moves one long round.
type Round = (Vec<f64>, f64);

/// The end-to-end metrics every workload reports. The read tail is
/// p90: the highest percentile with ten samples beyond it on the
/// workload with the fewest reads (`cold-scale`, 100).
fn put_end_to_end(
    report: &mut Report,
    setup_s: f64,
    ttfq_ms: &[f64],
    rounds: Vec<Round>,
    rss_mb: f64,
) {
    let rounds: Vec<Round> = rounds.into_iter().map(|(lat, wall)| (sorted(lat), wall)).collect();
    let over_rounds = |f: &dyn Fn(&[f64], f64) -> f64| {
        median(&rounds.iter().map(|(lat, wall)| f(lat, *wall)).collect::<Vec<_>>())
    };
    let p50 = over_rounds(&|lat, _| percentile(lat, 0.50));
    let p90 = over_rounds(&|lat, _| percentile(lat, 0.90));
    report.put("setup_s", setup_s, "s");
    report.put("ttfq_ms", median(ttfq_ms), "ms");
    report.put("read_p50_us", p50, "us");
    report.put("read_p90_us", p90, "us");
    report.put("reads_per_s", over_rounds(&|lat, wall| lat.len() as f64 / wall), "1/s");
    report.put("peak_rss_mb", rss_mb, "MiB");
    let all = sorted(rounds.iter().flat_map(|(lat, _)| lat.iter().copied()).collect());
    report.note(format!(
        "reads: n={} in {} rounds of {:.3}s; p50={p50:.0}us p90={p90:.0}us (medians over rounds), \
         over all reads p99={:.0}us max={:.0}us; start-up path: n={} median {:.1}ms",
        all.len(),
        rounds.len(),
        rounds.iter().map(|(_, wall)| wall).sum::<f64>() / rounds.len() as f64,
        percentile(&all, 0.99),
        all[all.len() - 1],
        ttfq_ms.len(),
        median(ttfq_ms)
    ));
}

/// Counts every answer that differs from the oracle's.
fn count_wrong(
    report: &mut Report,
    what: &str,
    got: &[(VertexId, Answer)],
    expected: &mut Expected,
) {
    let vertices: Vec<VertexId> = got.iter().map(|(v, _)| *v).collect();
    let want = expected.answers(&vertices);
    let wrong = got.iter().filter(|(v, a)| want[v] != *a).count();
    if wrong > 0 {
        report.note(format!("{what}: {wrong} of {} answers differ from basic", got.len()));
    }
    report.attempted += got.len() as u64;
    report.failed += wrong as u64;
}

/// Parses the `communities` JSON of a response body.
fn parse_answer(communities: &[u8]) -> Option<Answer> {
    let json = Json::parse(std::str::from_utf8(communities).ok()?).ok()?;
    let ids = |v: &Json| -> Option<Vec<u32>> {
        v.as_arr()?.iter().map(|x| x.as_u64().map(|n| n as u32)).collect()
    };
    let mut out = Vec::new();
    for c in json.as_arr()? {
        out.push((ids(c.get("subtree")?)?, ids(c.get("vertices")?)?));
    }
    Some(sorted_answer(out))
}

// ------------------------------------------------------------ in-process loop

/// A reply with the wall time the harness measured around it.
struct Timed {
    vertex: VertexId,
    reply: Reply,
    wall_us: f64,
}

/// The timed loop of the in-process workloads: one thread, each query
/// sent when the previous one has returned.
fn direct_loop(engine: &Engine, ops: &[Op], tracer: &mut Tracer) -> (Vec<Timed>, f64) {
    let mut out = Vec::with_capacity(ops.len());
    let begin = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let Op::Read(v) = op else { continue };
        let t = Instant::now();
        let reply =
            tracer.span("engine.query", None, i as u64, |_, _| engine.query(*v, Algo::Auto));
        out.push(Timed { vertex: *v, reply, wall_us: t.elapsed().as_secs_f64() * 1e6 });
    }
    (out, begin.elapsed().as_secs_f64())
}

/// The traced run of an in-process workload: the op list twice, spans
/// off then on; the difference is what the spans cost.
fn traced_direct_loop(
    report: &mut Report,
    tracer: &mut Tracer,
    engine: &Engine,
    ops: &[Op],
) -> Vec<Timed> {
    let (_, plain_wall) = direct_loop(engine, ops, &mut Tracer::new(false, Instant::now()));
    let (replies, traced_wall) = direct_loop(engine, ops, tracer);
    let lat = replies.iter().map(|r| r.wall_us).collect();
    Replay::in_process(plain_wall, traced_wall, lat).put(report);
    replies
}

fn answers_of(replies: &[Timed]) -> impl Iterator<Item = (VertexId, Answer)> + '_ {
    replies.iter().map(|r| (r.vertex, r.reply.answer()))
}

// ------------------------------------------------------------ direct-warm

struct DirectBed {
    corpus: Corpus,
    pool: Vec<VertexId>,
    engine: Engine,
}

fn direct_warm(args: &RunArgs, report: &mut Report, tracer: &mut Tracer) {
    let sz = args.sizing;
    let (setup_s, bed) = setup_median(args, || {
        let corpus = Corpus::generate(sz.scale, CORPUS_SEED);
        let pool = inputs::query_pool(&corpus, sz.direct_pool);
        let engine = Engine::build(&corpus, Cache::Off);
        // One untimed query: the scratch pool holds a buffer afterwards.
        std::hint::black_box(engine.query(pool[0], Algo::Auto));
        DirectBed { corpus, pool, engine }
    });
    if args.setup_only {
        return report.put("setup_s", setup_s, "s");
    }
    report.note(format!(
        "corpus: DBLP-like scale {} ({} vertices, {} edges), eager index, cache off; \
         {} pool vertices x {} passes, closed loop, 1 thread",
        sz.scale,
        bed.corpus.num_vertices(),
        bed.corpus.num_edges(),
        bed.pool.len(),
        sz.direct_passes
    ));
    let ops = inputs::shuffled_reads(&bed.pool, sz.direct_passes, args.seed);

    let mut got = Vec::new();
    let replies = if args.trace {
        traced_direct_loop(report, tracer, &bed.engine, &ops)
    } else {
        let (replies, wall) = direct_loop(&bed.engine, &ops, tracer);
        let rss = peak_rss_mb();
        // Start-up path: build the eager engine from the dataset in
        // memory, answer the first query (the same one each time: the
        // cache is off).
        let mut ttfq = Vec::new();
        for _ in 0..sz.ttfq_reps {
            let v = bed.pool[0];
            let t = Instant::now();
            let reply = Engine::build(&bed.corpus, Cache::Off).query(v, Algo::Auto);
            ttfq.push(t.elapsed().as_secs_f64() * 1e3);
            got.push((v, reply.answer()));
        }
        let lat = replies.iter().map(|r| r.wall_us).collect();
        put_end_to_end(report, setup_s, &ttfq, vec![(lat, wall)], rss);
        replies
    };
    got.extend(answers_of(&replies));
    count_wrong(report, "reads", &got, &mut Expected::of_corpus(&bed.corpus, args.shared_dir()));
    if args.trace {
        let sample = &bed.pool[..sz.replay_sample];
        probes::layer_probes(report, tracer, &bed.corpus, sample, &args.work);
    }
}

// ------------------------------------------------------------ HTTP workloads

struct ServeBed {
    corpus: Corpus,
    pool: Vec<VertexId>,
    engine: Engine,
    server: Server,
}

/// Counts the ops of a load run that did not complete with 2xx.
fn count_incomplete(report: &mut Report, load: &LoadResult) {
    report.attempted += load.samples.len() as u64;
    let mut classes: BTreeMap<&str, u64> = BTreeMap::new();
    for s in &load.samples {
        let class = match s.outcome {
            Outcome::Ok => continue,
            Outcome::Refused => "refused",
            Outcome::Abandoned => "abandoned",
            Outcome::Status(_) => "answered outside 2xx",
        };
        *classes.entry(class).or_default() += 1;
    }
    for (class, n) in &classes {
        report.note(format!("load: {n} ops {class}"));
        report.failed += n;
    }
    report.note(format!("load: {}", load.describe()));
}

/// Checks every distinct read answer the clients received at `epoch`
/// against the oracle of that epoch; each read that carried a wrong
/// answer counts as failed.
fn count_wrong_reads(
    report: &mut Report,
    ops: &[Op],
    load: &LoadResult,
    epoch: u64,
    expected: &mut Expected,
) {
    let keys: Vec<_> = load.answers.keys().filter(|k| k.1 == epoch).collect();
    let vertices: Vec<VertexId> = keys.iter().map(|k| k.0).collect();
    let want = expected.answers(&vertices);
    let wrong_keys: HashSet<_> = keys
        .into_iter()
        .filter(|k| parse_answer(&load.answers[k]).as_ref() != Some(&want[&k.0]))
        .collect();
    let wrong = load
        .samples
        .iter()
        .filter(|s| s.outcome == Outcome::Ok && s.epoch == epoch)
        .filter(|s| match &ops[s.op] {
            Op::Read(v) => wrong_keys.contains(&(*v, s.epoch, s.answer_hash)),
            Op::Write(_) => false,
        })
        .count();
    if wrong > 0 {
        report.note(format!("load: {wrong} read answers at epoch {epoch} differ from basic"));
    }
    report.failed += wrong as u64;
}

fn read_rtts(ops: &[Op], load: &LoadResult) -> Vec<f64> {
    load.samples
        .iter()
        .filter(|s| matches!(ops[s.op], Op::Read(_)) && s.outcome == Outcome::Ok)
        .map(|s| s.rtt_us())
        .collect()
}

/// One HTTP read on a fresh connection, pushed onto `got`; a read
/// that does not come back whole counts as failed.
fn http_answer(
    report: &mut Report,
    server: &Server,
    v: VertexId,
    got: &mut Vec<(VertexId, Answer)>,
) {
    let answer = Conn::connect(server.addr())
        .and_then(|mut conn| conn.get(&format!("/query?v={v}&k={K}")))
        .ok()
        .filter(|(status, _)| *status == 200)
        .and_then(|(_, body)| parse_answer(loadgen::communities_json(&body)?));
    match answer {
        Some(a) => got.push((v, a)),
        None => {
            report.attempted += 1;
            report.failed += 1;
            report.note(format!("read of vertex {v} on a fresh connection failed"));
        }
    }
}

// ------------------------------------------------------------ serve-hot

fn serve_hot(args: &RunArgs, report: &mut Report, tracer: &mut Tracer) {
    let sz = args.sizing;
    let (setup_s, bed) = setup_median(args, || {
        let corpus = Corpus::generate(sz.scale, CORPUS_SEED);
        let pool = inputs::query_pool(&corpus, sz.hot_pool);
        let engine = Engine::build(&corpus, Cache::Wholesale);
        let server = Server::start(&engine);
        // One untimed pass fills the result cache.
        let fill: Vec<Op> = pool.iter().map(|&v| Op::Read(v)).collect();
        let filled = loadgen::run_closed_loop(server.addr(), &fill, CLIENTS);
        assert!(filled.samples.iter().all(|s| s.outcome == Outcome::Ok), "cache fill failed");
        ServeBed { corpus, pool, engine, server }
    });
    if args.setup_only {
        bed.server.shutdown();
        return report.put("setup_s", setup_s, "s");
    }
    let per_round = sz.hot_reads / HOT_ROUNDS;
    report.note(format!(
        "corpus: DBLP-like scale {} ({} vertices), cache wholesale and filled in set-up; \
         {HOT_ROUNDS} rounds of {per_round} reads back to back, each zipf s={ZIPF_S} over {} \
         vertices, zero writes",
        sz.scale,
        bed.corpus.num_vertices(),
        bed.pool.len()
    ));
    let ops = inputs::zipf_rounds(&bed.pool, HOT_ROUNDS, per_round, ZIPF_S, args.seed);
    let counters = |bed: &ServeBed| (bed.server.counters(), bed.engine.cache_counts());

    if args.trace {
        let plain = loadgen::run_closed_loop(bed.server.addr(), &ops, CLIENTS);
        let before = counters(&bed);
        let load = loadgen::run_closed_loop(bed.server.addr(), &ops, CLIENTS);
        let plain_wall = plain.wall.as_secs_f64();
        Replay::over_http(tracer, &ops, plain_wall, &load, before, counters(&bed)).put(report);
        count_incomplete(report, &load);
        let mut expected = Expected::of_corpus(&bed.corpus, args.shared_dir());
        count_wrong_reads(report, &ops, &load, bed.engine.epoch(), &mut expected);
        bed.server.shutdown();
        probes::layer_probes(
            report,
            tracer,
            &bed.corpus,
            &bed.pool[..sz.replay_sample],
            &args.work,
        );
        return;
    }

    let load = loadgen::run_closed_loop(bed.server.addr(), &ops, CLIENTS);
    let rss = peak_rss_mb();
    // Start-up path: start a server on a built engine, connect, first
    // answer; each time for another pool vertex, so the cache is cold.
    let cold = Engine::build(&bed.corpus, Cache::Wholesale);
    let mut ttfq = Vec::new();
    let mut got = Vec::new();
    for &v in &bed.pool {
        let t = Instant::now();
        let server = Server::start(&cold);
        http_answer(report, &server, v, &mut got);
        ttfq.push(t.elapsed().as_secs_f64() * 1e3);
        server.shutdown();
    }
    drop(cold);
    // A round's wall time runs from its first request sent to its last
    // response read; neighbouring rounds overlap by a request or two.
    let rounds = load
        .samples
        .chunks(per_round)
        .map(|round| {
            let ok = round.iter().filter(|s| s.outcome == Outcome::Ok);
            let start = round.iter().map(|s| s.start).min().expect("round has samples");
            let end = round.iter().map(|s| s.end).max().expect("round has samples");
            (ok.map(|s| s.rtt_us()).collect(), end.duration_since(start).as_secs_f64())
        })
        .collect();
    put_end_to_end(report, setup_s, &ttfq, rounds, rss);
    let (hits, misses) = bed.engine.cache_counts();
    report.note(format!("cache: {hits} hits, {misses} misses since the engine was built"));
    count_incomplete(report, &load);
    let mut expected = Expected::of_corpus(&bed.corpus, args.shared_dir());
    count_wrong_reads(report, &ops, &load, bed.engine.epoch(), &mut expected);
    count_wrong(report, "first answers", &got, &mut expected);
    bed.server.shutdown();
}

// ------------------------------------------------------------ serve-mixed

/// The graph and profiles as the harness tracks them: the corpus plus
/// every acknowledged write that reported an effect, in epoch order.
struct Model {
    edges: HashSet<(VertexId, VertexId)>,
    profiles: Vec<Vec<u32>>,
}

impl Model {
    fn of(corpus: &Corpus) -> Model {
        Model {
            edges: corpus.edges().into_iter().map(|(a, b)| edge_key(a, b)).collect(),
            profiles: (0..corpus.num_vertices() as VertexId)
                .map(|v| corpus.profile_labels(v).to_vec())
                .collect(),
        }
    }

    fn apply(&mut self, op: &WriteOp) {
        match op {
            WriteOp::Add(a, b) => {
                self.edges.insert(edge_key(*a, *b));
            }
            WriteOp::Remove(a, b) => {
                self.edges.remove(&edge_key(*a, *b));
            }
            WriteOp::Profile(v, labels) => self.profiles[*v as usize] = labels.clone(),
        }
    }

    fn oracle(&self, corpus: &Corpus) -> Expected {
        let edges: Vec<(VertexId, VertexId)> = self.edges.iter().copied().collect();
        Expected::uncached(Oracle::from_state(corpus, &edges, &self.profiles))
    }
}

fn serve_mixed(args: &RunArgs, report: &mut Report, tracer: &mut Tracer) {
    let sz = args.sizing;
    let build_bed = |dir: &Path| {
        let corpus = Corpus::generate(sz.scale, CORPUS_SEED);
        let pool = inputs::query_pool(&corpus, sz.mixed_pool);
        let engine = Engine::build_durable(&corpus, dir, Cache::Surgical);
        let server = Server::start(&engine);
        ServeBed { corpus, pool, engine, server }
    };
    let dir = args.work.join("durable");
    let (setup_s, bed) = setup_median(args, || build_bed(&dir));
    if args.setup_only {
        bed.server.shutdown();
        return report.put("setup_s", setup_s, "s");
    }
    let ops = inputs::mixed_ops(&bed.corpus, &bed.pool, sz.mixed_passes, WRITE_EVERY, args.seed);
    let writes = ops.iter().filter(|o| matches!(o, Op::Write(_))).count();
    report.note(format!(
        "corpus: DBLP-like scale {} ({} vertices), durable engine (fsync on), cache surgical; \
         {} ops of which {writes} single-op writes, reads {} pool vertices x {} passes",
        sz.scale,
        bed.corpus.num_vertices(),
        ops.len(),
        bed.pool.len(),
        sz.mixed_passes
    ));
    let counters = |bed: &ServeBed| (bed.server.counters(), bed.engine.cache_counts());

    // A traced run first replays the op list untraced on a bed of its
    // own, since writes leave the first bed changed.
    let plain_wall = args.trace.then(|| {
        let plain_bed = build_bed(&args.work.join("durable-untraced"));
        let wall = loadgen::run_closed_loop(plain_bed.server.addr(), &ops, MIXED_CLIENTS).wall;
        plain_bed.server.shutdown();
        wall.as_secs_f64()
    });
    let before = counters(&bed);
    let load = loadgen::run_closed_loop(bed.server.addr(), &ops, MIXED_CLIENTS);
    let rss = peak_rss_mb();
    let replay = plain_wall
        .map(|plain| Replay::over_http(tracer, &ops, plain, &load, before, counters(&bed)));
    count_incomplete(report, &load);

    // Quiesced: the loop has ended. The state at epoch e is the corpus
    // plus every acknowledged write that had an effect and an epoch
    // <= e. Reads are checked at the last epoch and at a few on the
    // way (each epoch's state needs an oracle of its own, at 0.1 s per
    // vertex).
    let mut acked: Vec<(u64, usize)> = load
        .samples
        .iter()
        .filter(|s| s.outcome == Outcome::Ok && s.write_effect > 0)
        .map(|s| (s.epoch, s.op))
        .collect();
    acked.sort_unstable();
    let last_acked = acked.last().map_or(0, |(e, _)| *e);
    let mut read_epochs: Vec<u64> = load.answers.keys().map(|k| k.1).collect();
    read_epochs.sort_unstable();
    read_epochs.dedup();
    let step = read_epochs.len().div_ceil(4).max(1);
    let mut model = Model::of(&bed.corpus);
    let mut next = 0;
    let mut advance = |model: &mut Model, epoch: u64| {
        while next < acked.len() && acked[next].0 <= epoch {
            if let Op::Write(w) = &ops[acked[next].1] {
                model.apply(w);
            }
            next += 1;
        }
    };
    for &epoch in read_epochs.iter().step_by(step).filter(|&&e| e < last_acked) {
        advance(&mut model, epoch);
        count_wrong_reads(report, &ops, &load, epoch, &mut model.oracle(&bed.corpus));
    }
    advance(&mut model, last_acked);
    let mut expected = model.oracle(&bed.corpus);
    count_wrong_reads(report, &ops, &load, last_acked, &mut expected);
    // The live engine, through the server, on every vertex read.
    let mut read: Vec<VertexId> = load.answers.keys().map(|k| k.0).collect();
    read.sort_unstable();
    read.dedup();
    let mut live = Vec::new();
    for &v in &read {
        http_answer(report, &bed.server, v, &mut live);
    }
    count_wrong(report, "answers at quiesce", &live, &mut expected);
    report.attempted += 1;
    if bed.engine.epoch() != last_acked {
        report.failed += 1;
        report.note(format!(
            "engine epoch {} != last acknowledged epoch {last_acked}",
            bed.engine.epoch()
        ));
    }

    // Restart: drop the engine, recover from the checkpoint and the WAL
    // tail. Every acknowledged write must have survived.
    let ServeBed { corpus, pool, engine, server } = bed;
    server.shutdown();
    drop(engine);
    let mut ttfq = Vec::new();
    let mut recovery = Vec::new();
    for rep in 0..if args.trace { 1 } else { RECOVERIES } {
        let v = pool[rep % pool.len()];
        let t = Instant::now();
        let recovered = tracer.span("store.recovery", None, rep as u64, |_, _| {
            Engine::open_durable(&dir, Cache::Surgical)
        });
        recovery.push(t.elapsed().as_secs_f64() * 1e3);
        let first = recovered.query(v, Algo::Auto);
        ttfq.push(t.elapsed().as_secs_f64() * 1e3);
        report.attempted += 1;
        if recovered.epoch() != last_acked {
            report.failed += 1;
            report.note(format!(
                "recovered epoch {} != last acknowledged epoch {last_acked}",
                recovered.epoch()
            ));
        }
        let mut got = vec![(v, first.answer())];
        if rep == 0 {
            got.extend(read.iter().map(|&p| (p, recovered.query(p, Algo::Auto).answer())));
        }
        count_wrong(report, "answers after recovery", &got, &mut expected);
    }

    if let Some(replay) = replay {
        Replay { recovery_ms: median(&recovery), ..replay }.put(report);
        probes::layer_probes(report, tracer, &corpus, &pool[..sz.replay_sample], &args.work);
        return;
    }
    put_end_to_end(
        report,
        setup_s,
        &ttfq,
        vec![(read_rtts(&ops, &load), load.wall.as_secs_f64())],
        rss,
    );
    let write_rtts = sorted(
        load.samples
            .iter()
            .filter(|s| matches!(ops[s.op], Op::Write(_)) && s.outcome == Outcome::Ok)
            .map(|s| s.rtt_us())
            .collect(),
    );
    report.note(format!(
        "writes: n={} p50={:.0}us p90={:.0}us; recovery {:.1}ms to epoch {last_acked} (n={RECOVERIES}); \
         start-up path is recovery plus the first answer",
        write_rtts.len(),
        percentile(&write_rtts, 0.5),
        percentile(&write_rtts, 0.9),
        median(&recovery)
    ));
}

// ------------------------------------------------------------ cold-scale

/// The child of `cold-scale`'s set-up: generates the corpus, builds the
/// eager engine, saves the snapshot, and lists the query pool beside it.
pub fn build_snapshot(scale: f64, pool: usize, out: &Path) {
    let corpus = Corpus::generate(scale, CORPUS_SEED);
    Engine::build(&corpus, Cache::Off).save(out);
    let listing: String =
        inputs::query_pool(&corpus, pool).iter().map(|v| format!("{v}\n")).collect();
    std::fs::write(out.with_extension("pool"), listing).expect("write pool listing");
}

fn cold_scale(args: &RunArgs, report: &mut Report, tracer: &mut Tracer) {
    let sz = args.sizing;
    let snapshot = args.work.join("cold.snapshot");
    let pool_len = sz.cold_reads + sz.cold_opens;
    let exe = std::env::current_exe().expect("own path");
    let (setup_s, ()) = setup_median(args, || {
        let status = std::process::Command::new(&exe)
            .arg("build-snapshot")
            .args(["--scale", &sz.cold_scale.to_string()])
            .args(["--pool", &pool_len.to_string()])
            .arg("--out")
            .arg(&snapshot)
            .status()
            .expect("spawn snapshot builder");
        assert!(status.success(), "snapshot builder failed: {status}");
    });
    if args.setup_only {
        return report.put("setup_s", setup_s, "s");
    }
    let pool: Vec<VertexId> = std::fs::read_to_string(snapshot.with_extension("pool"))
        .expect("pool listing")
        .lines()
        .map(|l| l.parse().expect("vertex id"))
        .collect();
    let snapshot_mb =
        std::fs::metadata(&snapshot).map_or(0.0, |m| m.len() as f64 / (1 << 20) as f64);
    report.note(format!(
        "corpus: DBLP-like scale {} built and saved by a child process ({snapshot_mb:.1} MiB \
         snapshot; the OS page cache is warm); {} lazy opens to first answer, then {} reads on one \
         lazily loaded engine, closed loop, 1 thread",
        sz.cold_scale, sz.cold_opens, sz.cold_reads
    ));
    let (read_pool, open_pool) = pool.split_at(sz.cold_reads);

    // Start-up path: a fresh lazy open to the first answer, each on
    // another vertex.
    let mut ttfq = Vec::new();
    let mut got = Vec::new();
    for (i, &v) in open_pool.iter().enumerate() {
        let r = i as u64;
        let t = Instant::now();
        let reply = tracer.span("cold.open_to_first_answer", None, r, |tr, root| {
            let engine = tr.span("cold.open", Some(root), r, |_, _| Engine::load_lazy(&snapshot));
            tr.span("cold.first_query", Some(root), r, |_, _| engine.query(v, Algo::Auto))
        });
        ttfq.push(t.elapsed().as_secs_f64() * 1e3);
        got.push((v, reply.answer()));
    }
    let engine = Engine::load_lazy(&snapshot);
    let ops = inputs::shuffled_reads(read_pool, 1, args.seed);

    let replies = if args.trace {
        // The first of the two replays also pays the faults.
        traced_direct_loop(report, tracer, &engine, &ops)
    } else {
        let (replies, wall) = direct_loop(&engine, &ops, tracer);
        let rss = peak_rss_mb();
        if let Some((read, len)) = engine.snapshot_io() {
            report.note(format!(
                "store: {:.1}% of the snapshot read by the end ({read} of {len} bytes), \
                 {} shards resident",
                100.0 * read as f64 / len.max(1) as f64,
                engine.resident_shards()
            ));
        }
        let lat = replies.iter().map(|r| r.wall_us).collect();
        put_end_to_end(report, setup_s, &ttfq, vec![(lat, wall)], rss);
        replies
    };
    drop(engine);
    got.extend(answers_of(&replies));
    // The oracle never saw the file: its corpus is generated afresh.
    let corpus = Corpus::generate(sz.cold_scale, CORPUS_SEED);
    count_wrong(report, "reads", &got, &mut Expected::of_corpus(&corpus, args.shared_dir()));
    if args.trace {
        probes::layer_probes(report, tracer, &corpus, &pool[..sz.cold_replay_sample], &args.work);
    }
}
