//! The service protocol: routes, request validation, and JSON
//! rendering.
//!
//! Five routes:
//!
//! * `GET /query?v=<u32>&k=<u32>[&algo=<name>][&max=<n>][&stats=0|1]`
//!   `[&cache=0|1]` — one community search. `algo` is one of `auto`,
//!   `basic`, `incre`, `adv-I`, `adv-D`, `adv-P`, `closed`
//!   (case-insensitive).
//!   `cache=0` opts this request out of the engine's result cache
//!   (never read, never filled); the default participates.
//! * `POST /apply` — a newline-separated batch of mutations:
//!   `add <u> <v>`, `remove <u> <v>`, `profile <v> [<label>...]`.
//! * `GET /health` — liveness + current epoch.
//! * `GET /stats` — server counters.
//! * `GET /wal?from=<u64>[&max=<bytes>]` — the replication feed: raw
//!   WAL frames for every *durable* epoch strictly after `from`, as
//!   `application/octet-stream`. A follower feeds the bytes straight
//!   into `PcsEngine::apply_wal_frames`. `max` caps the response size
//!   (clamped to [`MAX_WAL_TAIL_BYTES`]); a reclaimed gap answers
//!   `410 Gone` — the follower must re-seed from a snapshot.
//!
//! Validation is **server-side and total**: every malformed or
//! out-of-range request is rejected with a typed [`ApiError`] (a 4xx)
//! *before* an engine snapshot or scratch buffer is touched, so junk
//! traffic cannot consume query resources. Query strings are plain
//! `k=v&k=v` pairs — values are numeric or fixed enum names, so no
//! percent-decoding is needed (a `%` in a value is simply an
//! unparsable value).

use crate::http::{Method, Request};
use pcs_core::Algorithm;
use pcs_engine::{Error as EngineError, QueryRequest, QueryResponse, UpdateBatch, UpdateReport};
use pcs_ptree::{PTree, Taxonomy};

/// Ceiling on `max` (requested community cap). Anything larger is a
/// resource-exhaustion request, not a real query.
pub const MAX_COMMUNITY_CAP: usize = 10_000;
/// Ceiling on `k`: the degree bound can never exceed the vertex count,
/// and absurd values signal a malformed client.
pub const MAX_DEGREE_BOUND: u32 = 1 << 20;
/// Ceiling on one `/wal` response, bytes. A follower that is far
/// behind simply polls again — bounding each response keeps a single
/// replication request from monopolizing a worker's write path.
pub const MAX_WAL_TAIL_BYTES: u64 = 8 << 20;

/// A typed request rejection. Everything here maps to a 4xx status —
/// the request was understood to be invalid before the engine was
/// involved.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ApiError {
    /// No route matches the path → 404.
    UnknownPath(String),
    /// The path exists but not with this method → 405.
    MethodNotAllowed {
        /// The route.
        path: String,
        /// The method the client used.
        method: &'static str,
    },
    /// A required query parameter is absent → 400.
    MissingParam(&'static str),
    /// A parameter failed to parse → 400.
    BadParam {
        /// The parameter name.
        name: &'static str,
        /// What was expected.
        expected: &'static str,
    },
    /// A parameter not in the route's schema → 400.
    UnknownParam(String),
    /// `v` is outside `0..n` → 400.
    VertexOutOfRange {
        /// The requested vertex.
        vertex: u32,
        /// The engine's vertex count.
        n: usize,
    },
    /// `k = 0`: a 0-core is the whole graph, never a meaningful
    /// community query → 400.
    ZeroK,
    /// `k` exceeds [`MAX_DEGREE_BOUND`] → 400.
    DegreeBoundTooLarge {
        /// The requested bound.
        k: u32,
    },
    /// `max` exceeds [`MAX_COMMUNITY_CAP`] → 400.
    MaxCommunitiesTooLarge {
        /// The requested cap.
        max: usize,
    },
    /// `algo` names no known algorithm → 400.
    UnknownAlgorithm(String),
    /// A line of the `/apply` body failed to parse → 400.
    MalformedBody {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        detail: &'static str,
    },
    /// An `/apply` profile op named a label outside the taxonomy → 400.
    UnknownLabel {
        /// 1-based line number.
        line: usize,
        /// The offending label.
        label: u32,
    },
    /// The `/apply` body declared more than the server's op cap → 400.
    TooManyOps {
        /// Declared op count.
        declared: usize,
        /// The cap.
        cap: usize,
    },
}

impl ApiError {
    /// The HTTP status this rejection maps to.
    pub fn status(&self) -> u16 {
        match self {
            ApiError::UnknownPath(_) => 404,
            ApiError::MethodNotAllowed { .. } => 405,
            _ => 400,
        }
    }

    /// A stable machine-readable tag for the error body.
    pub fn tag(&self) -> &'static str {
        match self {
            ApiError::UnknownPath(_) => "unknown_path",
            ApiError::MethodNotAllowed { .. } => "method_not_allowed",
            ApiError::MissingParam(_) => "missing_param",
            ApiError::BadParam { .. } => "bad_param",
            ApiError::UnknownParam(_) => "unknown_param",
            ApiError::VertexOutOfRange { .. } => "vertex_out_of_range",
            ApiError::ZeroK => "zero_k",
            ApiError::DegreeBoundTooLarge { .. } => "degree_bound_too_large",
            ApiError::MaxCommunitiesTooLarge { .. } => "max_communities_too_large",
            ApiError::UnknownAlgorithm(_) => "unknown_algorithm",
            ApiError::MalformedBody { .. } => "malformed_body",
            ApiError::UnknownLabel { .. } => "unknown_label",
            ApiError::TooManyOps { .. } => "too_many_ops",
        }
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::UnknownPath(p) => write!(f, "no route matches {p}"),
            ApiError::MethodNotAllowed { path, method } => {
                write!(f, "{path} does not accept {method}")
            }
            ApiError::MissingParam(p) => write!(f, "required parameter '{p}' is missing"),
            ApiError::BadParam { name, expected } => {
                write!(f, "parameter '{name}' must be {expected}")
            }
            ApiError::UnknownParam(p) => write!(f, "unknown parameter '{p}'"),
            ApiError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex {vertex} is out of range (engine has {n} vertices)")
            }
            ApiError::ZeroK => write!(f, "k must be at least 1"),
            ApiError::DegreeBoundTooLarge { k } => {
                write!(f, "k = {k} exceeds the cap {MAX_DEGREE_BOUND}")
            }
            ApiError::MaxCommunitiesTooLarge { max } => {
                write!(f, "max = {max} exceeds the cap {MAX_COMMUNITY_CAP}")
            }
            ApiError::UnknownAlgorithm(a) => write!(
                f,
                "unknown algorithm '{a}' \
                 (expected auto, basic, incre, adv-I, adv-D, adv-P or closed)"
            ),
            ApiError::MalformedBody { line, detail } => {
                write!(f, "apply body line {line}: {detail}")
            }
            ApiError::UnknownLabel { line, label } => {
                write!(f, "apply body line {line}: label {label} is not in the taxonomy")
            }
            ApiError::TooManyOps { declared, cap } => {
                write!(f, "apply body declares {declared} ops, cap is {cap}")
            }
        }
    }
}

impl std::error::Error for ApiError {}

/// The routes.
#[derive(Clone, Debug, PartialEq)]
pub enum Route {
    /// A validated community-search request.
    Query(QueryRequest),
    /// A validated mutation batch.
    Apply(UpdateBatch),
    /// Liveness probe.
    Health,
    /// Server counters.
    Stats,
    /// The replication feed: WAL frames for durable epochs after
    /// `from`, at most `max` bytes per response.
    WalTail {
        /// Resume point: the follower's current epoch.
        from: u64,
        /// Response size cap, already clamped to
        /// [`MAX_WAL_TAIL_BYTES`].
        max: u64,
    },
}

/// Cap on ops per `/apply` body.
pub const MAX_APPLY_OPS: usize = 4_096;

/// Parses and validates one HTTP request into a [`Route`]. `n` is the
/// engine's (fixed) vertex count; `tax` its taxonomy — both are
/// captured at server start, so validation never touches a snapshot.
pub fn route(req: &Request, n: usize, tax: &Taxonomy) -> Result<Route, ApiError> {
    match (req.method, req.path.as_str()) {
        (Method::Get, "/query") => Ok(Route::Query(parse_query(&req.query, n)?)),
        (Method::Post, "/apply") => Ok(Route::Apply(parse_apply(&req.body, n, tax)?)),
        (Method::Get, "/health") => Ok(Route::Health),
        (Method::Get, "/stats") => Ok(Route::Stats),
        (Method::Get, "/wal") => parse_wal(&req.query),
        (Method::Post, p @ ("/query" | "/health" | "/stats" | "/wal")) => {
            Err(ApiError::MethodNotAllowed { path: p.to_string(), method: "POST" })
        }
        (Method::Get, "/apply") => {
            Err(ApiError::MethodNotAllowed { path: "/apply".to_string(), method: "GET" })
        }
        (_, other) => Err(ApiError::UnknownPath(other.to_string())),
    }
}

/// Parses `v=..&k=..[&algo=..][&max=..][&stats=..]` into a validated
/// [`QueryRequest`].
fn parse_query(query: &str, n: usize) -> Result<QueryRequest, ApiError> {
    let mut v: Option<u32> = None;
    let mut k: Option<u32> = None;
    let mut algo = Algorithm::Auto;
    let mut max: Option<usize> = None;
    let mut stats = false;
    let mut bypass_cache = false;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (name, value) = pair.split_once('=').unwrap_or((pair, ""));
        match name {
            "v" => {
                v = Some(value.parse().map_err(|_| ApiError::BadParam {
                    name: "v",
                    expected: "an unsigned vertex id",
                })?);
            }
            "k" => {
                k = Some(value.parse().map_err(|_| ApiError::BadParam {
                    name: "k",
                    expected: "an unsigned degree bound",
                })?);
            }
            "algo" => {
                algo = parse_algorithm(value)?;
            }
            "max" => {
                max = Some(value.parse().map_err(|_| ApiError::BadParam {
                    name: "max",
                    expected: "an unsigned community cap",
                })?);
            }
            "stats" => {
                stats = match value {
                    "1" | "true" => true,
                    "0" | "false" => false,
                    _ => {
                        return Err(ApiError::BadParam { name: "stats", expected: "0 or 1" });
                    }
                };
            }
            "cache" => {
                bypass_cache = match value {
                    "1" | "true" => false,
                    "0" | "false" => true,
                    _ => {
                        return Err(ApiError::BadParam { name: "cache", expected: "0 or 1" });
                    }
                };
            }
            other => return Err(ApiError::UnknownParam(other.to_string())),
        }
    }
    let v = v.ok_or(ApiError::MissingParam("v"))?;
    let k = k.ok_or(ApiError::MissingParam("k"))?;
    if (v as usize) >= n {
        return Err(ApiError::VertexOutOfRange { vertex: v, n });
    }
    if k == 0 {
        return Err(ApiError::ZeroK);
    }
    if k > MAX_DEGREE_BOUND {
        return Err(ApiError::DegreeBoundTooLarge { k });
    }
    let mut req = QueryRequest::vertex(v)
        .k(k)
        .algorithm(algo)
        .collect_stats(stats)
        .bypass_cache(bypass_cache);
    if let Some(m) = max {
        if m > MAX_COMMUNITY_CAP {
            return Err(ApiError::MaxCommunitiesTooLarge { max: m });
        }
        req = req.max_communities(m);
    }
    Ok(req)
}

/// Parses `from=..[&max=..]` into a [`Route::WalTail`]. `from` is the
/// follower's current epoch (0 = from the start of the retained log);
/// `max` is a per-response byte budget, silently clamped to
/// [`MAX_WAL_TAIL_BYTES`] — a replica asking for "everything" is a
/// normal catch-up, not a malformed request.
fn parse_wal(query: &str) -> Result<Route, ApiError> {
    let mut from: Option<u64> = None;
    let mut max = MAX_WAL_TAIL_BYTES;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (name, value) = pair.split_once('=').unwrap_or((pair, ""));
        match name {
            "from" => {
                from = Some(value.parse().map_err(|_| ApiError::BadParam {
                    name: "from",
                    expected: "an unsigned epoch",
                })?);
            }
            "max" => {
                let m: u64 = value.parse().map_err(|_| ApiError::BadParam {
                    name: "max",
                    expected: "an unsigned byte budget",
                })?;
                max = m.min(MAX_WAL_TAIL_BYTES);
            }
            other => return Err(ApiError::UnknownParam(other.to_string())),
        }
    }
    let from = from.ok_or(ApiError::MissingParam("from"))?;
    Ok(Route::WalTail { from, max })
}

/// Case-insensitive algorithm name lookup.
fn parse_algorithm(name: &str) -> Result<Algorithm, ApiError> {
    std::iter::once(Algorithm::Auto)
        .chain(Algorithm::ALL)
        .find(|a| a.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| ApiError::UnknownAlgorithm(name.to_string()))
}

/// Parses the `/apply` body: one op per line, `#`-comments and blank
/// lines skipped. Vertex ranges and profile labels are validated here,
/// so a bad batch is refused without waking the writer.
fn parse_apply(body: &[u8], n: usize, tax: &Taxonomy) -> Result<UpdateBatch, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::MalformedBody { line: 0, detail: "body is not UTF-8" })?;
    let mut batch = UpdateBatch::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if batch.len() >= MAX_APPLY_OPS {
            return Err(ApiError::TooManyOps { declared: batch.len() + 1, cap: MAX_APPLY_OPS });
        }
        let mut fields = trimmed.split_whitespace();
        let op = fields.next().unwrap_or("");
        match op {
            "add" | "remove" => {
                let u = parse_vertex(fields.next(), line, n)?;
                let v = parse_vertex(fields.next(), line, n)?;
                if fields.next().is_some() {
                    return Err(ApiError::MalformedBody { line, detail: "extra fields" });
                }
                batch = if op == "add" { batch.add_edge(u, v) } else { batch.remove_edge(u, v) };
            }
            "profile" => {
                let v = parse_vertex(fields.next(), line, n)?;
                let mut labels = Vec::new();
                for field in fields {
                    let label: u32 = field.parse().map_err(|_| ApiError::MalformedBody {
                        line,
                        detail: "labels must be unsigned integers",
                    })?;
                    labels.push(label);
                }
                let profile = PTree::from_labels(tax, labels.iter().copied()).map_err(|_| {
                    let bad = labels
                        .iter()
                        .copied()
                        .find(|&l| (l as usize) >= tax.len())
                        .unwrap_or(u32::MAX);
                    ApiError::UnknownLabel { line, label: bad }
                })?;
                batch = batch.set_profile(v, profile);
            }
            _ => {
                return Err(ApiError::MalformedBody {
                    line,
                    detail: "expected 'add', 'remove' or 'profile'",
                });
            }
        }
    }
    Ok(batch)
}

fn parse_vertex(field: Option<&str>, line: usize, n: usize) -> Result<u32, ApiError> {
    let v: u32 = field
        .ok_or(ApiError::MalformedBody { line, detail: "missing vertex field" })?
        .parse()
        .map_err(|_| ApiError::MalformedBody {
            line,
            detail: "vertex must be an unsigned integer",
        })?;
    if (v as usize) >= n {
        return Err(ApiError::VertexOutOfRange { vertex: v, n });
    }
    Ok(v)
}

/// Status for an error the engine itself returned (post-validation,
/// so these are rare): update and query rejections are the client's
/// fault, everything else is ours.
/// [`EngineError::Internal`] is explicitly a 500 — it reports a bug in
/// our dispatch machinery, never anything the client sent.
pub fn engine_error_status(err: &EngineError) -> u16 {
    match err {
        EngineError::Update(_) => 400,
        EngineError::Query(_) => 400,
        EngineError::Internal { .. } => 500,
        _ => 500,
    }
}

// --- JSON rendering -------------------------------------------------
//
// Hand-rolled like the bench snapshot writer: the payloads are flat
// and entirely produced from typed values, so a serializer dependency
// would buy nothing.

/// Escapes a string for a JSON literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn json_u32_list(ids: &[u32]) -> String {
    let mut out = String::from("[");
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&id.to_string());
    }
    out.push(']');
    out
}

/// Renders a successful query response.
pub fn render_query_response(resp: &QueryResponse) -> String {
    let mut communities = String::from("[");
    for (i, c) in resp.communities().iter().enumerate() {
        if i > 0 {
            communities.push(',');
        }
        communities.push_str(&format!(
            "{{\"vertices\":{},\"subtree\":{}}}",
            json_u32_list(&c.vertices),
            json_u32_list(c.subtree.nodes()),
        ));
    }
    communities.push(']');
    format!(
        "{{\"epoch\":{},\"algorithm\":\"{}\",\"index_used\":{},\"elapsed_us\":{},\
         \"total_communities\":{},\"truncated\":{},\"communities\":{}}}",
        resp.epoch,
        json_escape(resp.algorithm.name()),
        resp.index_used,
        resp.elapsed.as_micros(),
        resp.total_communities,
        resp.truncated(),
        communities,
    )
}

/// Renders an `Option<u64>` as a JSON number or `null`.
pub fn json_opt_u64(v: Option<u64>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    }
}

/// Renders an update report. `durable_epoch` is the highest epoch the
/// WAL had fsynced when this batch committed (`null` on a non-durable
/// engine); it always trails or equals `epoch` of a later report, and
/// covers at least this batch's own epoch.
pub fn render_update_report(report: &UpdateReport) -> String {
    format!(
        "{{\"epoch\":{},\"durable_epoch\":{},\"edges_added\":{},\"edges_removed\":{},\
         \"profiles_changed\":{},\"noops\":{},\"cores_changed\":{},\"elapsed_us\":{}}}",
        report.epoch,
        json_opt_u64(report.durable_epoch),
        report.edges_added,
        report.edges_removed,
        report.profiles_changed,
        report.noops,
        report.cores_changed,
        report.elapsed.as_micros(),
    )
}

/// Renders a typed 4xx rejection.
pub fn render_api_error(err: &ApiError) -> String {
    format!("{{\"error\":\"{}\",\"detail\":\"{}\"}}", err.tag(), json_escape(&err.to_string()))
}

/// Renders an engine-side failure. Server-side faults carry the
/// stable `"internal"` tag so clients (and the load harness) can tell
/// a server bug from an engine-level refusal without parsing prose.
pub fn render_engine_error(err: &EngineError) -> String {
    let tag = match err {
        EngineError::Internal { .. } => "internal",
        _ => "engine",
    };
    format!("{{\"error\":\"{tag}\",\"detail\":\"{}\"}}", json_escape(&err.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Request;

    fn get(path: &str, query: &str) -> Request {
        Request {
            method: Method::Get,
            path: path.to_string(),
            query: query.to_string(),
            body: Vec::new(),
            keep_alive: true,
        }
    }

    fn tax() -> Taxonomy {
        // Six labels: root, two branches, three leaves.
        let mut t = Taxonomy::new("root");
        let a = t.add_child(Taxonomy::ROOT, "a").unwrap();
        let b = t.add_child(Taxonomy::ROOT, "b").unwrap();
        t.add_child(a, "a1").unwrap();
        t.add_child(a, "a2").unwrap();
        t.add_child(b, "b1").unwrap();
        t
    }

    #[test]
    fn query_route_parses_and_validates() {
        let r = route(&get("/query", "v=3&k=2&algo=basic&max=5&stats=1"), 10, &tax()).unwrap();
        match r {
            Route::Query(q) => {
                assert_eq!(q.vertex_id(), 3);
                assert_eq!(q.degree_bound(), 2);
                assert_eq!(q.requested_algorithm(), Algorithm::Basic);
                assert_eq!(q.community_cap(), Some(5));
                assert!(q.wants_stats());
            }
            other => panic!("expected query route, got {other:?}"),
        }
    }

    #[test]
    fn query_rejections_are_typed() {
        let t = tax();
        let err = |q: &str| route(&get("/query", q), 10, &t).unwrap_err();
        assert_eq!(err("k=2"), ApiError::MissingParam("v"));
        assert_eq!(err("v=1"), ApiError::MissingParam("k"));
        assert_eq!(err("v=10&k=2"), ApiError::VertexOutOfRange { vertex: 10, n: 10 });
        assert_eq!(err("v=1&k=0"), ApiError::ZeroK);
        assert_eq!(err("v=1&k=2&max=999999"), ApiError::MaxCommunitiesTooLarge { max: 999_999 });
        assert_eq!(err("v=1&k=2&algo=dijkstra"), ApiError::UnknownAlgorithm("dijkstra".into()));
        assert_eq!(err("v=x&k=2").status(), 400);
        assert_eq!(err("v=1&k=2&frobnicate=1"), ApiError::UnknownParam("frobnicate".into()));
        assert!(matches!(
            err(&format!("v=1&k={}", u32::MAX)),
            ApiError::DegreeBoundTooLarge { .. }
        ));
    }

    #[test]
    fn cache_param_controls_bypass() {
        let t = tax();
        let parsed = |q: &str| match route(&get("/query", q), 10, &t).unwrap() {
            Route::Query(req) => req,
            other => panic!("expected query route, got {other:?}"),
        };
        assert!(!parsed("v=1&k=2").bypasses_cache(), "cache participation is the default");
        assert!(parsed("v=1&k=2&cache=0").bypasses_cache());
        assert!(!parsed("v=1&k=2&cache=1").bypasses_cache());
        assert_eq!(
            route(&get("/query", "v=1&k=2&cache=maybe"), 10, &t).unwrap_err(),
            ApiError::BadParam { name: "cache", expected: "0 or 1" }
        );
    }

    #[test]
    fn internal_errors_are_tagged_500() {
        let err = EngineError::Internal { component: "batch-dispatch", detail: "x".into() };
        assert_eq!(engine_error_status(&err), 500);
        assert!(render_engine_error(&err).starts_with("{\"error\":\"internal\""));
        // Client-addressable failures keep their 400 + generic tag.
        let refusal = EngineError::Update(pcs_engine::UpdateError::SelfLoop { vertex: 1 });
        assert_eq!(engine_error_status(&refusal), 400);
        assert!(render_engine_error(&refusal).starts_with("{\"error\":\"engine\""));
    }

    #[test]
    fn algorithm_names_round_trip() {
        for a in Algorithm::ALL {
            assert_eq!(parse_algorithm(a.name()).unwrap(), a);
        }
        assert_eq!(parse_algorithm("auto").unwrap(), Algorithm::Auto);
        assert_eq!(parse_algorithm("ADV-i").unwrap(), Algorithm::AdvI);
    }

    #[test]
    fn apply_body_parses() {
        let body = b"# comment\nadd 0 1\nremove 2 3\nprofile 4 5\n\n";
        let batch = parse_apply(body, 10, &tax()).unwrap();
        assert_eq!(batch.len(), 3);
    }

    #[test]
    fn apply_rejections_are_typed() {
        let t = tax();
        assert_eq!(
            parse_apply(b"add 0 99", 10, &t).unwrap_err(),
            ApiError::VertexOutOfRange { vertex: 99, n: 10 }
        );
        assert!(matches!(
            parse_apply(b"frob 1 2", 10, &t).unwrap_err(),
            ApiError::MalformedBody { line: 1, .. }
        ));
        assert!(matches!(
            parse_apply(b"add 1", 10, &t).unwrap_err(),
            ApiError::MalformedBody { line: 1, .. }
        ));
        assert_eq!(
            parse_apply(b"profile 1 77", 10, &t).unwrap_err(),
            ApiError::UnknownLabel { line: 1, label: 77 }
        );
    }

    #[test]
    fn wal_route_parses_and_clamps() {
        let t = tax();
        assert_eq!(
            route(&get("/wal", "from=42"), 10, &t).unwrap(),
            Route::WalTail { from: 42, max: MAX_WAL_TAIL_BYTES }
        );
        assert_eq!(
            route(&get("/wal", "from=0&max=1024"), 10, &t).unwrap(),
            Route::WalTail { from: 0, max: 1024 }
        );
        // An oversized budget is clamped, not rejected: a far-behind
        // follower catching up is the normal case.
        assert_eq!(
            route(&get("/wal", &format!("from=0&max={}", u64::MAX)), 10, &t).unwrap(),
            Route::WalTail { from: 0, max: MAX_WAL_TAIL_BYTES }
        );
        assert_eq!(route(&get("/wal", ""), 10, &t).unwrap_err(), ApiError::MissingParam("from"));
        assert_eq!(
            route(&get("/wal", "from=x"), 10, &t).unwrap_err(),
            ApiError::BadParam { name: "from", expected: "an unsigned epoch" }
        );
        assert_eq!(
            route(&get("/wal", "from=1&limit=2"), 10, &t).unwrap_err(),
            ApiError::UnknownParam("limit".into())
        );
    }

    #[test]
    fn routes_reject_unknown_paths_and_methods() {
        let t = tax();
        assert_eq!(route(&get("/nope", ""), 10, &t).unwrap_err().status(), 404);
        let post = Request {
            method: Method::Post,
            path: "/query".to_string(),
            query: String::new(),
            body: Vec::new(),
            keep_alive: true,
        };
        assert_eq!(route(&post, 10, &t).unwrap_err().status(), 405);
        let get_apply = get("/apply", "");
        assert_eq!(route(&get_apply, 10, &t).unwrap_err().status(), 405);
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
