//! Persist-then-serve: the warm-start workflow, now with per-shard
//! laziness.
//!
//! A serving fleet should pay the offline cost (validation, core
//! decomposition, CP-tree construction) **once**, persist the result,
//! and boot every replica from the snapshot. This example builds a
//! DBLP-like profiled graph, warms and saves an engine, then boots two
//! kinds of replica from the file:
//!
//! * an **eager** replica — every persisted shard decoded and
//!   validated up front, predictable latency from the first request;
//! * a **lazy** replica — META, the taxonomy and the directories decode
//!   at load; the graph, profile chunks, member runs and shards decode
//!   on first touch (and any shard missing from the file rebuilds from
//!   the graph on demand), so *time to first query* tracks the labels
//!   the first request actually touches, not the whole taxonomy.
//!
//! Finally the warm replica goes **behind a real socket**: `pcs-serve`
//! binds a loopback port, an HTTP client queries it, and the
//! server is drained gracefully — the full persist → load → serve
//! lifecycle in one process.
//!
//! Run with: `cargo run --release --example persist_serve`

use pcs::datasets::suite::{build, SuiteConfig};
use pcs::datasets::{sample_query_vertices, SuiteDataset};
use pcs::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// Sends each query as a `GET /query` on one keep-alive connection, one
/// after the other, and returns how many answered `200`.
fn http_queries_ok(addr: SocketAddr, queries: &[VertexId], k: u32) -> usize {
    let mut conn = BufReader::new(TcpStream::connect(addr).expect("loopback connect"));
    let mut ok = 0;
    for &q in queries {
        let request = format!("GET /query?v={q}&k={k} HTTP/1.1\r\nHost: pcs\r\n\r\n");
        conn.get_mut().write_all(request.as_bytes()).expect("request written");
        let mut line = String::new();
        conn.read_line(&mut line).expect("status line");
        ok += usize::from(line.split(' ').nth(1) == Some("200"));
        // Drain the rest of this response so the next one starts clean.
        let mut body_len = 0;
        while line != "\r\n" {
            line.clear();
            conn.read_line(&mut line).expect("header line");
            if let Some(len) = line.strip_prefix("Content-Length: ") {
                body_len = len.trim().parse().expect("numeric Content-Length");
            }
        }
        conn.read_exact(&mut vec![0; body_len]).expect("response body");
    }
    ok
}

fn main() {
    let scale = 0.005;
    let ds = build(SuiteDataset::Dblp, SuiteConfig { scale, ..SuiteConfig::default() });
    println!(
        "dataset: {} vertices, {} edges, {} labels (DBLP-like @ {scale})",
        ds.graph.num_vertices(),
        ds.graph.num_edges(),
        ds.tax.len()
    );

    // --- Offline: build once, eagerly, and persist -----------------------
    let start = Instant::now();
    let primary = PcsEngine::builder()
        .graph(ds.graph.clone())
        .taxonomy(ds.tax.clone())
        .profiles(ds.profiles.clone())
        .index_mode(IndexMode::Eager)
        .build()
        .expect("consistent inputs");
    let build_time = start.elapsed();

    let path =
        std::env::temp_dir().join(format!("pcs-persist-serve-{}.snapshot", std::process::id()));
    let start = Instant::now();
    primary.save(&path).expect("snapshot written");
    let save_time = start.elapsed();
    let file_len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

    // --- Online: an eager replica decodes everything up front ------------
    let start = Instant::now();
    let replica = PcsEngine::builder()
        .index_mode(IndexMode::Eager)
        .load(&path)
        .expect("snapshot validated and loaded");
    let load_time = start.elapsed();

    println!("eager build : {build_time:>10.2?}");
    println!("save        : {save_time:>10.2?}  ({:.1} MB on disk)", file_len as f64 / 1e6);
    println!(
        "eager load  : {load_time:>10.2?}  ({:.0}x faster than building)",
        build_time.as_secs_f64() / load_time.as_secs_f64()
    );

    // --- Online: a lazy replica reaches its first answer sooner ----------
    // Pick the first query up front so the timer covers load + answer;
    // real traffic concentrates on few labels, so take the sampled
    // vertex with the smallest profile.
    let k = 5;
    let (queries, _) = sample_query_vertices(&ds, k, 5, 0x7e);
    let first = queries
        .iter()
        .copied()
        .min_by_key(|&q| ds.profiles[q as usize].len())
        .expect("sampled queries");
    let start = Instant::now();
    let lazy_replica = PcsEngine::builder()
        .index_mode(IndexMode::Lazy)
        .load(&path)
        .expect("lazy load: META, taxonomy and directories decoded");
    let lazy_load = start.elapsed();
    let first_answer = lazy_replica.query(&QueryRequest::vertex(first).k(k)).unwrap();
    let ttfq = start.elapsed();
    let snap = lazy_replica.snapshot();
    let (resident, populated) =
        (snap.resident_shards(), snap.index().map_or(0, |i| i.num_populated_labels()));
    println!(
        "lazy load   : {lazy_load:>10.2?}  (META, taxonomy and directories now; graph, profile \
         chunks, member runs and shards on first touch)"
    );
    println!(
        "time to 1st answer: {ttfq:>7.2?}  ({} communities; {resident}/{populated} shards \
         materialized by this query)",
        first_answer.communities().len()
    );

    // Identical answers on all three engines, same epoch.
    for &q in &queries {
        let a = primary.query(&QueryRequest::vertex(q).k(k)).unwrap();
        let b = replica.query(&QueryRequest::vertex(q).k(k)).unwrap();
        let c = lazy_replica.query(&QueryRequest::vertex(q).k(k)).unwrap();
        assert_eq!(a.communities(), b.communities(), "eager replica diverged at q={q}");
        assert_eq!(a.communities(), c.communities(), "lazy replica diverged at q={q}");
    }
    println!(
        "both replicas answer {} sampled queries identically (epoch {} everywhere)",
        queries.len(),
        replica.epoch()
    );

    // The loaded replicas are fully live: updates apply incrementally —
    // resident shards are patched, absent ones merely invalidated and
    // rebuilt only if some later query needs them.
    let (u, v) = (queries[0], queries[1 % queries.len()]);
    if u != v && !ds.graph.has_edge(u, v) {
        let report = lazy_replica.add_edge(u, v).unwrap();
        println!(
            "applied a live edge insertion on the lazy replica: epoch {} -> {}, index {:?}",
            report.epoch - 1,
            report.epoch,
            report.index
        );
    }

    let _ = std::fs::remove_file(&path);

    // --- Serve the warm replica over a real socket -----------------------
    // The eager replica becomes the network-facing engine: bind a
    // loopback port, send the sampled queries over HTTP, and shut down
    // gracefully (see crates/README.md, "Serving layer").
    let server = PcsServer::start(Arc::new(replica), "127.0.0.1:0", ServeConfig::default())
        .expect("loopback bind");
    println!("serving the warm replica on http://{}/query", server.local_addr());
    let ok = http_queries_ok(server.local_addr(), &queries, k);
    let stats = server.shutdown();
    assert_eq!(ok, queries.len(), "every HTTP query must answer 200");
    assert_eq!(stats.http_5xx, 0, "a healthy server never answers 5xx");
    println!("served {ok} HTTP queries in {} batches; drained cleanly", stats.batches);

    // --- Crash and recover: the WAL carries acked, un-snapshotted work ---
    // A durable engine fsyncs every apply to a write-ahead log before
    // acknowledging it, so updates survive a crash *without* any
    // `save()`. Build one, apply edges, "crash" by dropping the engine
    // with the checkpoint still at epoch 0, then recover with `open()`
    // — the reopened engine must land on the exact pre-crash epoch and
    // serve answers that include every acknowledged update.
    let wal_dir =
        std::env::temp_dir().join(format!("pcs-persist-serve-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let durable = PcsEngine::builder()
        .graph(ds.graph.clone())
        .taxonomy(ds.tax.clone())
        .profiles(ds.profiles.clone())
        .durable(&wal_dir)
        .build()
        .expect("durable engine: epoch-0 checkpoint + empty WAL");
    for (i, &qu) in queries.iter().enumerate() {
        for &qv in &queries[i + 1..] {
            if qu != qv && !durable.snapshot().graph().has_edge(qu, qv) {
                durable.add_edge(qu, qv).expect("durable apply: logged and fsynced before ack");
            }
        }
    }
    if durable.epoch() == 0 {
        // The sampled vertices formed a clique; a profile replace is
        // always applicable.
        let root_only = PTree::from_labels(&ds.tax, [Taxonomy::ROOT]).unwrap();
        durable.update_profile(queries[0], root_only).expect("durable apply");
    }
    let pre_crash_epoch = durable.epoch();
    assert!(pre_crash_epoch > 0, "at least one update must have been acknowledged");
    assert!(
        durable.durable_epoch().expect("durable engine reports a durable epoch") >= pre_crash_epoch,
        "an acked epoch is on disk before it is published"
    );
    let probe = QueryRequest::vertex(queries[0]).k(k);
    let before_crash = durable.query(&probe).unwrap();
    drop(durable); // crash: no save(), no checkpoint — only the WAL tail survives

    let recovered = PcsEngine::builder()
        .durable(&wal_dir)
        .open()
        .expect("recovery: load checkpoint, replay fsynced WAL tail");
    assert_eq!(recovered.epoch(), pre_crash_epoch, "recovery lands on the pre-crash epoch");
    let after_crash = recovered.query(&probe).unwrap();
    assert_eq!(
        before_crash.communities(),
        after_crash.communities(),
        "recovered answers include the post-snapshot updates"
    );
    println!(
        "crash-recovered {pre_crash_epoch} acked updates from the WAL alone \
         (checkpoint was epoch 0); answers match the pre-crash engine"
    );

    // The recovered engine serves like any other — and keeps logging.
    let server = PcsServer::start(Arc::new(recovered), "127.0.0.1:0", ServeConfig::default())
        .expect("loopback bind");
    let ok = http_queries_ok(server.local_addr(), &queries, k);
    let stats = server.shutdown();
    assert_eq!(ok, queries.len(), "every HTTP query against the recovered engine answers 200");
    assert_eq!(stats.epoch, pre_crash_epoch, "the served epoch is the recovered one");
    assert_eq!(
        stats.durable_epoch,
        Some(pre_crash_epoch),
        "quiescent: everything published is durable"
    );
    println!(
        "served {ok} HTTP queries from the recovered engine (epoch {}, durable epoch {})",
        stats.epoch,
        stats.durable_epoch.unwrap_or(0)
    );
    let _ = std::fs::remove_dir_all(&wal_dir);
}
