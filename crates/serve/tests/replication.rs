//! Durability-aware serving tests: `durable_epoch` in `/apply` and
//! `/stats`, the `/wal` replication feed, and an [`HttpFollower`]
//! converging with a live primary — including across a follower
//! restart and after the primary reclaims its log.

use pcs_engine::{CacheMode, PcsEngine, QueryRequest};
use pcs_graph::Graph;
use pcs_ptree::{PTree, Taxonomy};
use pcs_serve::{HttpFollower, PcsServer, ReplicaConfig, ReplicaError, ServeConfig};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

// --- fixture ---------------------------------------------------------

/// A deterministic 12-vertex instance: two 4-cliques bridged through a
/// 4-cycle, labels spread over a 5-node taxonomy. Small enough that
/// every equivalence check below is exhaustive.
fn instance() -> (Graph, Taxonomy, Vec<PTree>) {
    let mut tax = Taxonomy::new("root");
    let a = tax.add_child(Taxonomy::ROOT, "a").unwrap();
    let b = tax.add_child(Taxonomy::ROOT, "b").unwrap();
    tax.add_child(a, "a1").unwrap();
    tax.add_child(b, "b1").unwrap();
    let n = 12usize;
    let mut edges = Vec::new();
    for base in [0u32, 4] {
        for i in base..base + 4 {
            for j in (i + 1)..base + 4 {
                edges.push((i, j));
            }
        }
    }
    edges.extend([(3, 8), (8, 9), (9, 10), (10, 11), (11, 4)]);
    let g = Graph::from_edges(n, &edges).unwrap();
    let profiles: Vec<PTree> =
        (0..n as u32).map(|v| PTree::from_labels(&tax, [v % 5]).unwrap()).collect();
    (g, tax, profiles)
}

/// A per-test scratch directory: a stale one from an aborted run is
/// cleared on creation, and the guard removes its own on drop.
struct TmpDir(PathBuf);

impl std::ops::Deref for TmpDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn tmp_dir(name: &str) -> TmpDir {
    let dir =
        std::env::temp_dir().join(format!("pcs-serve-replication-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    TmpDir(dir)
}

fn durable_engine(dir: &Path) -> Arc<PcsEngine> {
    let (g, tax, profiles) = instance();
    Arc::new(
        PcsEngine::builder()
            .graph(g)
            .taxonomy(tax)
            .profiles(profiles)
            .durable(dir)
            .build()
            .unwrap(),
    )
}

fn plain_engine() -> Arc<PcsEngine> {
    let (g, tax, profiles) = instance();
    Arc::new(PcsEngine::builder().graph(g).taxonomy(tax).profiles(profiles).build().unwrap())
}

fn test_config() -> ServeConfig {
    ServeConfig { workers: 2, read_timeout: Duration::from_secs(5), ..ServeConfig::default() }
}

// --- raw client (binary-safe, unlike the JSON-only one in serve.rs) --

fn connect(server: &PcsServer) -> TcpStream {
    let s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_nodelay(true).unwrap();
    s
}

fn read_response(stream: &mut TcpStream) -> (u16, Vec<u8>) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let got = stream.read(&mut chunk).expect("read response head");
        assert!(got > 0, "connection closed mid-response");
        buf.extend_from_slice(&chunk[..got]);
    };
    let head = String::from_utf8(buf[..head_end].to_vec()).unwrap();
    let status: u16 = head.split(' ').nth(1).unwrap().parse().unwrap();
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let got = stream.read(&mut chunk).expect("read response body");
        assert!(got > 0, "connection closed mid-body");
        body.extend_from_slice(&chunk[..got]);
    }
    (status, body)
}

fn get(stream: &mut TcpStream, path_and_query: &str) -> (u16, Vec<u8>) {
    stream
        .write_all(
            format!("GET {path_and_query} HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n")
                .as_bytes(),
        )
        .unwrap();
    read_response(stream)
}

fn post(stream: &mut TcpStream, path: &str, body: &str) -> (u16, String) {
    stream
        .write_all(
            format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let (status, body) = read_response(stream);
    (status, String::from_utf8(body).unwrap())
}

fn json_u64(body: &str, key: &str) -> u64 {
    let tail = body
        .split(&format!("\"{key}\":"))
        .nth(1)
        .unwrap_or_else(|| panic!("no key {key} in {body}"));
    tail.chars().take_while(|c| c.is_ascii_digit()).collect::<String>().parse().unwrap()
}

// --- equivalence -----------------------------------------------------

/// Asserts two engines answer identically: same epoch-independent
/// state (profiles, core numbers) and the same k=2 communities for
/// every vertex.
fn assert_equivalent(got: &PcsEngine, want: &PcsEngine, context: &str) {
    let gs = got.snapshot();
    let ws = want.snapshot();
    assert_eq!(gs.profiles(), ws.profiles(), "{context}: profiles diverge");
    assert_eq!(
        gs.cores().core_numbers(),
        ws.cores().core_numbers(),
        "{context}: core numbers diverge"
    );
    for v in 0..gs.graph().num_vertices() as u32 {
        let g = got.query(&QueryRequest::vertex(v).k(2)).unwrap();
        let w = want.query(&QueryRequest::vertex(v).k(2)).unwrap();
        let gc: Vec<_> = g.communities().iter().map(|c| c.vertices.clone()).collect();
        let wc: Vec<_> = w.communities().iter().map(|c| c.vertices.clone()).collect();
        assert_eq!(gc, wc, "{context}: communities for v={v} diverge");
    }
}

/// A deterministic mixed op stream (edge churn + profile rewrites)
/// rendered as `/apply` bodies, one op per batch. Steps are globally
/// indexed (`start..start + count`) so consecutive calls continue the
/// same stream, and every step is *effective* against the state the
/// prior steps left behind — epochs advance by exactly one per batch:
///
/// * even steps toggle one of the six non-initial edges `(p, p+6)`:
///   step `4m` adds pair `m % 6`, step `4m+2` removes it again;
/// * odd steps flip an odd vertex's profile between the two leaf
///   closures `{a1}` and `{b1}`, starting with whichever differs from
///   the fixture's initial single-label profile.
fn scripted_bodies(start: usize, count: usize) -> Vec<String> {
    (start..start + count)
        .map(|i| {
            if i % 2 == 0 {
                let pair = ((i / 4) % 6) as u32;
                let (u, v) = (pair, pair + 6);
                if i % 4 == 0 {
                    format!("add {u} {v}\n")
                } else {
                    format!("remove {u} {v}\n")
                }
            } else {
                let v = (i % 12) as u32;
                let first = if v % 5 == 3 { 4 } else { 3 };
                let second = if first == 3 { 4 } else { 3 };
                let label = if (i / 12) % 2 == 0 { first } else { second };
                format!("profile {v} {label}\n")
            }
        })
        .collect()
}

// --- tests -----------------------------------------------------------

#[test]
fn apply_and_stats_expose_the_durable_epoch() {
    let dir = tmp_dir("durable-epoch");
    let engine = durable_engine(&dir);
    let server = PcsServer::start(Arc::clone(&engine), "127.0.0.1:0", test_config()).unwrap();
    let mut conn = connect(&server);

    // Each apply response carries both counters; the WAL fsyncs before
    // the epoch publishes, so durable covers at least the reported
    // epoch, and both advance monotonically.
    let mut last_epoch = 0u64;
    let mut last_durable = 0u64;
    for body in scripted_bodies(0, 12) {
        let (status, resp) = post(&mut conn, "/apply", &body);
        assert_eq!(status, 200, "{resp}");
        let epoch = json_u64(&resp, "epoch");
        let durable = json_u64(&resp, "durable_epoch");
        assert!(epoch > last_epoch, "epoch regressed: {resp}");
        assert!(durable >= epoch, "durable_epoch lags the batch it acked: {resp}");
        assert!(durable >= last_durable, "durable_epoch regressed: {resp}");
        last_epoch = epoch;
        last_durable = durable;
    }

    // Quiescent /stats agrees with the engine: both counters present
    // and equal (nothing is in flight between fsync and publish).
    let (status, body) = get(&mut conn, "/stats");
    let body = String::from_utf8(body).unwrap();
    assert_eq!(status, 200);
    assert_eq!(json_u64(&body, "epoch"), last_epoch);
    assert_eq!(json_u64(&body, "durable_epoch"), last_epoch);
    assert_eq!(engine.durable_epoch(), Some(last_epoch));

    let stats = server.shutdown();
    assert_eq!(stats.durable_epoch, Some(last_epoch));
    assert_eq!(stats.epoch, last_epoch);
}

#[test]
fn non_durable_servers_report_null_durable_epoch() {
    let server = PcsServer::start(plain_engine(), "127.0.0.1:0", test_config()).unwrap();
    let mut conn = connect(&server);

    let (status, resp) = post(&mut conn, "/apply", "add 0 9\n");
    assert_eq!(status, 200, "{resp}");
    assert!(resp.contains("\"durable_epoch\":null"), "{resp}");

    let (status, body) = get(&mut conn, "/stats");
    let body = String::from_utf8(body).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"durable_epoch\":null"), "{body}");

    // And the replication feed refuses with a typed 400: there is no
    // log to tail.
    let (status, body) = get(&mut conn, "/wal?from=0");
    let body = String::from_utf8(body).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"error\":\"not_durable\""), "{body}");

    server.shutdown();
}

#[test]
fn wal_route_rejections_are_typed() {
    let dir = tmp_dir("wal-rejections");
    let server = PcsServer::start(durable_engine(&dir), "127.0.0.1:0", test_config()).unwrap();
    let mut conn = connect(&server);

    let (status, body) = get(&mut conn, "/wal");
    assert_eq!(status, 400);
    assert!(String::from_utf8(body).unwrap().contains("missing_param"));

    let (status, body) = get(&mut conn, "/wal?from=banana");
    assert_eq!(status, 400);
    assert!(String::from_utf8(body).unwrap().contains("bad_param"));

    let (status, body) = post(&mut conn, "/wal", "");
    assert_eq!(status, 405);
    assert!(body.contains("method_not_allowed"));

    server.shutdown();
}

#[test]
fn http_follower_converges_and_survives_restart() {
    let dir = tmp_dir("follower");
    let primary = durable_engine(&dir);
    let server = PcsServer::start(Arc::clone(&primary), "127.0.0.1:0", test_config()).unwrap();
    let addr = server.local_addr();
    let mut conn = connect(&server);

    // Seed the follower from the primary's epoch-0 snapshot — the
    // out-of-band snapshot ship a real deployment would do.
    let seed = dir.join(pcs_engine::SNAPSHOT_FILE);
    let follower_engine = PcsEngine::builder().load(&seed).unwrap();
    let mut follower = HttpFollower::new(follower_engine, addr, ReplicaConfig::default());
    assert_eq!(follower.poll().unwrap(), 0, "nothing to replicate yet");

    let bodies = scripted_bodies(0, 24);
    let (first, rest) = bodies.split_at(9);

    // Phase 1: the follower tails a batch of live writes.
    for body in first {
        assert_eq!(post(&mut conn, "/apply", body).0, 200);
    }
    let applied = follower.poll().unwrap();
    assert_eq!(applied as u64, primary.epoch(), "follower missed epochs");
    assert_eq!(follower.epoch(), primary.epoch());
    assert_equivalent(follower.engine(), &primary, "after first tail");

    // Phase 2: restart the follower mid-stream. Its state survives as
    // a plain snapshot; the new instance resumes from its own epoch,
    // not from zero — no frames are re-fetched below its watermark.
    let parked_dir = tmp_dir("follower-restart");
    let parked = parked_dir.join("parked.pcs");
    follower.engine().save(&parked).unwrap();
    let parked_epoch = follower.epoch();
    drop(follower);

    for body in rest {
        assert_eq!(post(&mut conn, "/apply", body).0, 200);
    }

    let revived = PcsEngine::builder().load(&parked).unwrap();
    assert_eq!(revived.epoch(), parked_epoch);
    let mut follower = HttpFollower::new(revived, addr, ReplicaConfig::default());
    let applied = follower.poll().unwrap();
    assert_eq!(applied as u64, primary.epoch() - parked_epoch);
    assert_eq!(follower.epoch(), primary.epoch());
    assert_equivalent(follower.engine(), &primary, "after restart");

    // A tiny per-request budget still converges — just over more
    // round-trips within one poll().
    for body in scripted_bodies(24, 6) {
        assert_eq!(post(&mut conn, "/apply", &body).0, 200);
    }
    let cfg = ReplicaConfig { max_bytes: 64, ..ReplicaConfig::default() };
    let mut trickle = HttpFollower::new(PcsEngine::builder().load(&parked).unwrap(), addr, cfg);
    trickle.poll().unwrap();
    assert_eq!(trickle.epoch(), primary.epoch());
    assert_equivalent(trickle.engine(), &primary, "trickle catch-up");

    server.shutdown();
}

#[test]
fn reclaimed_log_answers_410_and_the_follower_reports_a_snapshot_gap() {
    let dir = tmp_dir("reclaim");
    let primary = durable_engine(&dir);
    let server = PcsServer::start(Arc::clone(&primary), "127.0.0.1:0", test_config()).unwrap();
    let addr = server.local_addr();
    let mut conn = connect(&server);

    // A follower seeded from the epoch-0 snapshot, parked before any
    // traffic. Load it NOW: the checkpoint below overwrites the file.
    // Its result cache is on, and a re-seed must keep it on.
    let stale = PcsEngine::builder()
        .result_cache(CacheMode::Wholesale)
        .load(dir.join(pcs_engine::SNAPSHOT_FILE))
        .unwrap();

    for body in scripted_bodies(0, 8) {
        assert_eq!(post(&mut conn, "/apply", &body).0, 200);
    }
    // Checkpoint: the snapshot advances and every covered segment is
    // reclaimed, so the log no longer reaches back to epoch 0.
    let watermark = primary.checkpoint().unwrap();
    assert_eq!(watermark, primary.epoch());

    let (status, body) = get(&mut conn, "/wal?from=0");
    assert_eq!(status, 410, "{}", String::from_utf8_lossy(&body));
    assert!(String::from_utf8(body).unwrap().contains("\"error\":\"wal_gone\""));

    let mut follower = HttpFollower::new(stale, addr, ReplicaConfig::default());
    match follower.poll() {
        Err(ReplicaError::SnapshotGap { .. }) => {}
        other => panic!("expected SnapshotGap, got {other:?}"),
    }

    // Re-seeding in place from the fresh checkpoint snapshot resumes
    // tailing. The seed is a *lazy* load: only the snapshot's
    // structural prefix is decoded, the graph faults in on the first
    // replica query afterwards.
    let seeded_epoch = follower.reseed_from_snapshot(dir.join(pcs_engine::SNAPSHOT_FILE)).unwrap();
    assert_eq!(seeded_epoch, watermark);
    assert_eq!(follower.engine().cache_mode(), CacheMode::Wholesale, "re-seed dropped the cache");
    assert!(
        !follower.engine().snapshot().graph_resident(),
        "a re-seed must not decode the graph eagerly"
    );
    let io = follower.engine().snapshot_io().expect("lazy re-seed exposes IO counters");
    assert!(
        io.bytes_read < io.file_len,
        "re-seed read the whole snapshot ({} of {} bytes)",
        io.bytes_read,
        io.file_len
    );
    for body in scripted_bodies(8, 4) {
        assert_eq!(post(&mut conn, "/apply", &body).0, 200);
    }
    follower.poll().unwrap();
    assert_eq!(follower.epoch(), primary.epoch());
    assert_equivalent(follower.engine(), &primary, "after re-seed");

    // A stale seed (the old epoch-0 snapshot shape) is refused: the
    // replica never rewinds below what it already serves.
    let stale_path = dir.join("stale.snapshot");
    {
        let (g, tax, profiles) = instance();
        let epoch0 =
            PcsEngine::builder().graph(g).taxonomy(tax).profiles(profiles).build().unwrap();
        epoch0.save(&stale_path).unwrap();
    }
    match follower.reseed_from_snapshot(&stale_path) {
        Err(ReplicaError::StaleSeed { snapshot_epoch: 0, follower_epoch }) => {
            assert_eq!(follower_epoch, primary.epoch());
        }
        other => panic!("expected StaleSeed, got {other:?}"),
    }
    assert_eq!(follower.epoch(), primary.epoch(), "failed re-seed leaves the replica intact");
    std::fs::remove_file(&stale_path).unwrap();

    server.shutdown();
}

/// A primary that closes a kept-alive connection (as the real one does
/// after its keep-alive timeout) costs the follower no failed poll: the
/// exchange on the stale connection is retried once on a fresh one.
#[test]
fn a_closed_keep_alive_connection_is_redialed_within_one_poll() {
    // A fake primary: answers the first request of each of two
    // connections with an empty 200 (caught up), then closes it.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let primary = std::thread::spawn(move || {
        for stream in listener.incoming().take(2) {
            let mut stream = stream.unwrap();
            let mut head = Vec::new();
            let mut byte = [0u8; 1];
            while !head.ends_with(b"\r\n\r\n") && stream.read(&mut byte).unwrap_or(0) == 1 {
                head.push(byte[0]);
            }
            stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n").unwrap();
        }
    });

    let (g, tax, profiles) = instance();
    let engine = PcsEngine::builder().graph(g).taxonomy(tax).profiles(profiles).build().unwrap();
    let mut follower = HttpFollower::new(engine, addr, ReplicaConfig::default());
    assert_eq!(follower.poll().unwrap(), 0);
    assert_eq!(follower.poll().unwrap(), 0, "the second poll reuses a closed connection");
    // The fake returns once it has accepted its two connections.
    primary.join().unwrap();
}
