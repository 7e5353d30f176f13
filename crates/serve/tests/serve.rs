//! End-to-end serving tests over real loopback sockets: protocol
//! round-trips, typed 4xx rejections, load shedding under an admission
//! cap, snapshot consistency of concurrent clients against a live
//! writer, result-cache answers from the batcher, and graceful shutdown.

use pcs_core::{Algorithm, QueryContext};
use pcs_engine::{CacheMode, EngineSnapshot, PcsEngine, UpdateBatch};
use pcs_graph::{Graph, VertexId};
use pcs_ptree::{PTree, Taxonomy};
use pcs_serve::{PcsServer, ServeConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

// --- fixture ---------------------------------------------------------

fn random_instance(seed: u64) -> (Graph, Taxonomy, Vec<PTree>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tax = Taxonomy::new("r");
    let mut ids = vec![Taxonomy::ROOT];
    for i in 1..10 {
        let parent = ids[rng.gen_range(0..ids.len())];
        ids.push(tax.add_child(parent, &format!("n{i}")).unwrap());
    }
    let n = 30usize;
    let mut edges = Vec::new();
    for a in 0..n as u32 {
        for b in (a + 1)..n as u32 {
            if rng.gen_bool(0.18) {
                edges.push((a, b));
            }
        }
    }
    let g = Graph::from_edges(n, &edges).unwrap();
    let profiles: Vec<PTree> = (0..n)
        .map(|_| {
            let count = rng.gen_range(0..=4usize);
            let picks: Vec<u32> = (0..count).map(|_| ids[rng.gen_range(0..ids.len())]).collect();
            PTree::from_labels(&tax, picks).unwrap()
        })
        .collect();
    (g, tax, profiles)
}

fn engine(seed: u64) -> Arc<PcsEngine> {
    let (g, tax, profiles) = random_instance(seed);
    Arc::new(PcsEngine::builder().graph(g).taxonomy(tax).profiles(profiles).build().unwrap())
}

fn test_config() -> ServeConfig {
    ServeConfig { workers: 2, read_timeout: Duration::from_secs(5), ..ServeConfig::default() }
}

// --- tiny raw client -------------------------------------------------

fn connect(server: &PcsServer) -> TcpStream {
    let s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_nodelay(true).unwrap();
    s
}

/// Sends one request and reads one response on a keep-alive stream.
fn roundtrip(stream: &mut TcpStream, request: &str) -> (u16, String) {
    stream.write_all(request.as_bytes()).unwrap();
    stream.flush().unwrap();
    read_response(stream)
}

fn read_response(stream: &mut TcpStream) -> (u16, String) {
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
    (status, String::from_utf8(body).unwrap())
}

fn get(stream: &mut TcpStream, path_and_query: &str) -> (u16, String) {
    roundtrip(
        stream,
        &format!("GET {path_and_query} HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n"),
    )
}

fn post(stream: &mut TcpStream, path: &str, body: &str) -> (u16, String) {
    roundtrip(
        stream,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

// --- body parsing helpers -------------------------------------------

fn json_u64(body: &str, key: &str) -> u64 {
    let tail = body
        .split(&format!("\"{key}\":"))
        .nth(1)
        .unwrap_or_else(|| panic!("no key {key} in {body}"));
    tail.chars().take_while(|c| c.is_ascii_digit()).collect::<String>().parse().unwrap()
}

fn parse_communities(body: &str) -> Vec<Vec<VertexId>> {
    body.split("\"vertices\":[")
        .skip(1)
        .map(|seg| {
            seg.split(']')
                .next()
                .unwrap()
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| s.parse().unwrap())
                .collect()
        })
        .collect()
}

// --- tests -----------------------------------------------------------

#[test]
fn end_to_end_roundtrip_on_one_keep_alive_connection() {
    let engine = engine(7);
    let server = PcsServer::start(Arc::clone(&engine), "127.0.0.1:0", test_config()).unwrap();
    let mut conn = connect(&server);

    let (status, body) = get(&mut conn, "/health");
    assert_eq!(status, 200);
    assert_eq!(json_u64(&body, "epoch"), engine.epoch());

    // A query answers 200 with the current epoch and sane payload.
    let (status, body) = get(&mut conn, "/query?v=3&k=2&stats=1");
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_u64(&body, "epoch"), engine.epoch());
    assert!(body.contains("\"algorithm\":"));
    let communities = parse_communities(&body);
    assert_eq!(communities.len() as u64, json_u64(&body, "total_communities"));

    // A write bumps the epoch; the report shows the effect.
    let before = engine.epoch();
    let (status, body) = post(&mut conn, "/apply", "add 0 17\nremove 0 17\n");
    assert_eq!(status, 200, "{body}");
    assert!(json_u64(&body, "epoch") > before);
    let accounted = json_u64(&body, "edges_added")
        + json_u64(&body, "edges_removed")
        + json_u64(&body, "noops");
    assert_eq!(accounted, 2, "{body}");

    // Stats reflect the traffic so far, all on this one connection.
    let (status, body) = get(&mut conn, "/stats");
    assert_eq!(status, 200);
    assert_eq!(json_u64(&body, "accepted"), 1);
    assert_eq!(json_u64(&body, "queries"), 1);
    assert_eq!(json_u64(&body, "updates"), 1);
    assert_eq!(json_u64(&body, "http_5xx"), 0);

    let stats = server.shutdown();
    assert_eq!(stats.requests, 4);
    assert_eq!(stats.http_5xx, 0);
}

#[test]
fn every_rejection_is_a_typed_4xx() {
    let engine = engine(11);
    let n = engine.snapshot().graph().num_vertices();
    let server = PcsServer::start(engine, "127.0.0.1:0", test_config()).unwrap();
    let mut conn = connect(&server);

    let cases: Vec<(u16, &str, (u16, String))> = vec![
        // Out-of-range vertex: rejected before the snapshot is touched.
        (400, "vertex_out_of_range", get(&mut conn, &format!("/query?v={n}&k=2"))),
        // k = 0.
        (400, "zero_k", get(&mut conn, "/query?v=1&k=0")),
        // Absurd community cap.
        (400, "max_communities_too_large", get(&mut conn, "/query?v=1&k=2&max=99999999")),
        // Unknown algorithm.
        (400, "unknown_algorithm", get(&mut conn, "/query?v=1&k=2&algo=bfs")),
        // Missing required parameter.
        (400, "missing_param", get(&mut conn, "/query?k=2")),
        // Unknown parameter.
        (400, "unknown_param", get(&mut conn, "/query?v=1&k=2&depth=9")),
        // Unknown route.
        (404, "unknown_path", get(&mut conn, "/communities")),
        // Wrong method on a real route.
        (405, "method_not_allowed", post(&mut conn, "/query", "")),
        // Malformed apply body.
        (400, "malformed_body", post(&mut conn, "/apply", "explode 1 2\n")),
        // Apply naming an out-of-range vertex.
        (400, "vertex_out_of_range", post(&mut conn, "/apply", &format!("add 0 {n}\n"))),
        // Apply with a label outside the taxonomy.
        (400, "unknown_label", post(&mut conn, "/apply", "profile 1 9999\n")),
    ];
    for (want_status, want_tag, (status, body)) in &cases {
        assert_eq!(status, want_status, "{body}");
        assert!(
            body.contains(&format!("\"error\":\"{want_tag}\"")),
            "expected tag {want_tag} in {body}"
        );
    }

    let stats = server.shutdown();
    assert_eq!(stats.http_4xx, cases.len() as u64);
    assert_eq!(stats.http_5xx, 0);
    // None of the rejects reached the engine: no query was batched and
    // no update was applied.
    assert_eq!(stats.batches, 0);
    assert_eq!(stats.queries, 0);
    assert_eq!(stats.updates, 0);
}

#[test]
fn overload_sheds_503_instead_of_stalling() {
    let engine = engine(13);
    let cfg = ServeConfig { max_connections: 2, ..test_config() };
    let server = PcsServer::start(engine, "127.0.0.1:0", cfg).unwrap();

    // Fill the admission budget with two live keep-alive connections.
    let mut a = connect(&server);
    let mut b = connect(&server);
    assert_eq!(get(&mut a, "/health").0, 200);
    assert_eq!(get(&mut b, "/health").0, 200);

    // Everything beyond the cap is shed with an immediate 503.
    let mut shed = 0;
    for _ in 0..5 {
        let mut c = connect(&server);
        let (status, body) = read_response(&mut c);
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("overloaded"));
        shed += 1;
    }
    assert_eq!(shed, 5);

    // The admitted connections kept working the whole time.
    assert_eq!(get(&mut a, "/query?v=1&k=2").0, 200);

    // Dropping one admitted connection frees a slot: the server
    // recovers rather than staying wedged.
    drop(b);
    let recovered = std::iter::repeat_with(|| {
        std::thread::sleep(Duration::from_millis(20));
        let mut c = connect(&server);
        c.write_all(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        read_response(&mut c).0
    })
    .take(50)
    .any(|status| status == 200);
    assert!(recovered, "a freed slot was never re-admitted");

    let stats = server.shutdown();
    assert!(stats.shed >= 5);
    assert_eq!(stats.http_5xx, 0, "shed 503s are counted as shed, not served 5xx");
}

#[test]
fn concurrent_clients_stay_snapshot_consistent_with_a_live_writer() {
    let (g, tax, profiles) = random_instance(17);
    let n = g.num_vertices() as u32;
    let label_pool: Vec<u32> = (0..tax.len() as u32).collect();
    let engine = Arc::new(
        PcsEngine::builder().graph(g).taxonomy(tax.clone()).profiles(profiles).build().unwrap(),
    );
    let server = PcsServer::start(Arc::clone(&engine), "127.0.0.1:0", test_config()).unwrap();
    let addr = server.local_addr();

    let published: Mutex<Vec<EngineSnapshot>> = Mutex::new(vec![engine.snapshot()]);
    let done = AtomicBool::new(false);
    type Observation = (u64, VertexId, u32, Vec<Vec<VertexId>>);
    let observations: Mutex<Vec<Observation>> = Mutex::new(Vec::new());

    let engine_ref = &engine;
    let tax_ref = &tax;
    let published_ref = &published;
    let done_ref = &done;
    let observations_ref = &observations;
    std::thread::scope(|s| {
        // Writer: mutates through the engine handle, recording every
        // published snapshot — the ground truth for the check below.
        s.spawn(move || {
            let mut rng = SmallRng::seed_from_u64(0xbeef);
            for _ in 0..24 {
                let mut batch = UpdateBatch::new();
                for _ in 0..rng.gen_range(1..=3) {
                    let a = rng.gen_range(0..n);
                    let b = rng.gen_range(0..n);
                    match rng.gen_range(0..3) {
                        0 if a != b => batch = batch.add_edge(a, b),
                        1 if a != b => batch = batch.remove_edge(a, b),
                        _ => {
                            let picks: Vec<u32> = (0..rng.gen_range(0..=3usize))
                                .map(|_| label_pool[rng.gen_range(0..label_pool.len())])
                                .collect();
                            batch =
                                batch.set_profile(a, PTree::from_labels(tax_ref, picks).unwrap());
                        }
                    }
                }
                let report = engine_ref.apply(&batch).expect("scripted batch is valid");
                if report.changed() {
                    published_ref.lock().unwrap().push(engine_ref.snapshot());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            done_ref.store(true, Ordering::Release);
        });
        // Clients: query over real sockets until the writer finishes.
        for t in 0..3u64 {
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xc11e + t);
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                let mut local = Vec::new();
                while local.len() < 12 || !done_ref.load(Ordering::Acquire) {
                    let q = rng.gen_range(0..n);
                    let k = rng.gen_range(1..3u32);
                    let (status, body) = get(&mut stream, &format!("/query?v={q}&k={k}"));
                    assert_eq!(status, 200, "{body}");
                    local.push((json_u64(&body, "epoch"), q, k, parse_communities(&body)));
                }
                observations_ref.lock().unwrap().extend(local);
            });
        }
    });

    // Every response must equal what a from-scratch engine for the
    // graph/profiles of its reported epoch returns.
    let published = published.into_inner().unwrap();
    let observations = observations.into_inner().unwrap();
    assert!(observations.len() >= 36);
    for (epoch, q, k, comms) in &observations {
        let snap = published
            .iter()
            .find(|s| s.epoch() == *epoch)
            .unwrap_or_else(|| panic!("epoch {epoch} was never published"));
        let ctx = QueryContext::new(snap.graph(), &tax, snap.profiles()).unwrap();
        let reference = ctx.query(*q, *k, Algorithm::Basic).unwrap();
        let expect: Vec<Vec<VertexId>> =
            reference.communities.iter().map(|c| c.vertices.clone()).collect();
        assert_eq!(comms, &expect, "epoch {epoch} q {q} k {k}: not snapshot-consistent");
    }

    let stats = server.shutdown();
    assert_eq!(stats.http_5xx, 0);
    assert!(stats.batches >= 1);
}

/// Replays a fixed query/apply sequence on one connection. Returns
/// `(cache_hits, cache_misses, cache_answered)` from the live `/stats`
/// after each of its three steps.
fn replay_cache_traffic(engine: Arc<PcsEngine>) -> [(u64, u64, u64); 3] {
    let edge_op = if engine.snapshot().graph().has_edge(0, 17) { "remove" } else { "add" };
    let server = PcsServer::start(engine, "127.0.0.1:0", test_config()).unwrap();
    let mut conn = connect(&server);
    let counters = |conn: &mut TcpStream| {
        let (status, body) = get(conn, "/stats");
        assert_eq!(status, 200);
        ["cache_hits", "cache_misses", "cache_answered"].map(|key| json_u64(&body, key)).into()
    };

    // The same query twice: the repeat is the same answer.
    let (status, first) = get(&mut conn, "/query?v=3&k=2");
    assert_eq!(status, 200, "{first}");
    let (status, repeat) = get(&mut conn, "/query?v=3&k=2");
    assert_eq!(status, 200, "{repeat}");
    assert_eq!(parse_communities(&first), parse_communities(&repeat));
    let after_repeat = counters(&mut conn);

    // Opting out of the cache.
    assert_eq!(get(&mut conn, "/query?v=3&k=2&cache=0").0, 200);
    let after_bypass = counters(&mut conn);

    // An effective write publishes a new epoch, which the next answer
    // carries.
    let (status, report) = post(&mut conn, "/apply", &format!("{edge_op} 0 17\n"));
    assert_eq!(status, 200, "{report}");
    let epoch = json_u64(&report, "epoch");
    assert_eq!(epoch, json_u64(&first, "epoch") + 1, "{report}");
    let (status, body) = get(&mut conn, "/query?v=3&k=2");
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_u64(&body, "epoch"), epoch);
    let after_write = counters(&mut conn);

    let stats = server.shutdown();
    assert_eq!(stats.http_5xx, 0);
    [after_repeat, after_bypass, after_write]
}

#[test]
fn batcher_answers_repeats_from_the_result_cache_until_a_write() {
    let (g, tax, profiles) = random_instance(23);
    let cached = PcsEngine::builder()
        .graph(g)
        .taxonomy(tax)
        .profiles(profiles)
        .result_cache(CacheMode::Wholesale)
        .build()
        .unwrap();
    // The first query misses and fills, the repeat is a hit answered by
    // the batcher; a bypassing request moves no counter; after the write
    // the entry is gone, so the query misses again.
    assert_eq!(replay_cache_traffic(Arc::new(cached)), [(1, 1, 1), (1, 1, 1), (1, 2, 1)]);
    // The default engine has no cache and never touches the counters.
    assert_eq!(replay_cache_traffic(engine(23)), [(0, 0, 0); 3]);
}

#[test]
fn graceful_shutdown_drains_in_flight_requests_and_closes_the_listener() {
    let engine = engine(29);
    let server = PcsServer::start(engine, "127.0.0.1:0", test_config()).unwrap();
    let addr = server.local_addr();

    // A request written but (deliberately) not yet read back: it must
    // be answered during the drain, not dropped.
    let mut conn = connect(&server);
    assert_eq!(get(&mut conn, "/health").0, 200); // warm the connection
    conn.write_all(b"GET /query?v=1&k=2 HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    conn.flush().unwrap();

    let stats = server.shutdown();
    let (status, body) = read_response(&mut conn);
    assert_eq!(status, 200, "in-flight request was dropped: {body}");
    assert!(stats.requests >= 2);

    // The listener is gone: new connections are refused (or reset on
    // platforms that accept briefly from the backlog).
    let refused = match TcpStream::connect(addr) {
        Err(_) => true,
        Ok(mut s) => {
            s.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
            s.write_all(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n").is_err()
                || s.read(&mut [0u8; 16]).map(|got| got == 0).unwrap_or(true)
        }
    };
    assert!(refused, "listener still serving after shutdown");
}
