//! A hand-rolled HTTP/1.1 connection: request parsing and response
//! writing over one `TcpStream`, `std` only.
//!
//! Scope is deliberately narrow — the subset of RFC 9112 a
//! fixed-protocol service needs: `GET`/`POST`, `Content-Length` bodies
//! (no chunked transfer coding), `Connection: close`/`keep-alive`, and
//! hard caps on header and body size so a misbehaving client cannot
//! make the server allocate unboundedly. Everything else is a typed
//! [`HttpError`] that maps to a 4xx/5xx status — this module never
//! panics on wire input.
//!
//! The connection owns its read buffer, so it can be parked in the
//! server's run queue between requests without losing bytes a client
//! pipelined ahead.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Cap on the request line + headers, bytes.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Cap on the number of header lines.
pub const MAX_HEADERS: usize = 64;

/// Request methods the protocol uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[expect(clippy::exhaustive_enums, reason = "the protocol uses exactly GET and POST")]
pub enum Method {
    /// Read: queries, health, stats.
    Get,
    /// Write: update batches.
    Post,
}

/// One parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// The method.
    pub method: Method,
    /// Path component of the target, e.g. `/query`.
    pub path: String,
    /// Raw query string (no leading `?`; empty when absent).
    pub query: String,
    /// The body (empty for bodyless requests).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// Everything that can go wrong reading one request off the wire.
///
/// `#[non_exhaustive]` per the workspace error-enum policy.
#[derive(Debug)]
#[non_exhaustive]
pub enum HttpError {
    /// The peer closed the connection cleanly before sending a
    /// request — the normal end of a keep-alive session, not a fault.
    Closed,
    /// The read timed out (socket read timeout elapsed mid-request).
    Timeout,
    /// An I/O error other than timeout/close.
    Io(io::Error),
    /// Request line or headers exceed [`MAX_HEAD_BYTES`] /
    /// [`MAX_HEADERS`] → 431.
    HeadTooLarge,
    /// Declared `Content-Length` exceeds the server's body cap → 413.
    BodyTooLarge {
        /// Declared length.
        declared: usize,
        /// The server's cap.
        cap: usize,
    },
    /// A method other than GET/POST → 405 (at the routing layer the
    /// path decides; this is the wire-level backstop).
    UnsupportedMethod(String),
    /// Not HTTP/1.0 or HTTP/1.1 → 505.
    UnsupportedVersion(String),
    /// Anything else malformed (bad request line, bad header syntax,
    /// bad `Content-Length`) → 400.
    Malformed(&'static str),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed by peer"),
            HttpError::Timeout => write!(f, "read timed out"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::HeadTooLarge => write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes"),
            HttpError::BodyTooLarge { declared, cap } => {
                write!(f, "declared body of {declared} bytes exceeds cap {cap}")
            }
            HttpError::UnsupportedMethod(m) => write!(f, "unsupported method {m}"),
            HttpError::UnsupportedVersion(v) => write!(f, "unsupported HTTP version {v}"),
            HttpError::Malformed(d) => write!(f, "malformed request: {d}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Result of a non-blocking readiness poll on a parked connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[expect(clippy::exhaustive_enums, reason = "the three outcomes of a readiness poll")]
pub enum Poll {
    /// Bytes are buffered — a request is (at least partially) waiting.
    Data,
    /// Nothing arrived within the poll window.
    Idle,
    /// The peer closed the connection.
    Closed,
}

/// One server-side connection: the stream plus a persistent read
/// buffer (bytes read past the current request are kept for the next
/// one, so pipelined requests survive re-queuing).
#[derive(Debug)]
pub struct HttpConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl HttpConn {
    /// Wraps an accepted stream.
    pub fn new(stream: TcpStream) -> HttpConn {
        HttpConn { stream, buf: Vec::new() }
    }

    /// The underlying stream (for peer-address logging).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Polls for request bytes, waiting at most `window`. Returns
    /// [`Poll::Data`] as soon as anything is buffered, [`Poll::Idle`]
    /// on timeout, [`Poll::Closed`] on EOF.
    pub fn poll_readable(&mut self, window: Duration) -> io::Result<Poll> {
        if !self.buf.is_empty() {
            return Ok(Poll::Data);
        }
        // A zero timeout is "infinite" to the socket API; clamp up.
        self.stream.set_read_timeout(Some(window.max(Duration::from_millis(1))))?;
        let mut chunk = [0u8; 512];
        match self.stream.read(&mut chunk) {
            Ok(0) => Ok(Poll::Closed),
            Ok(got) => {
                self.buf.extend_from_slice(chunk.get(..got).unwrap_or_default());
                Ok(Poll::Data)
            }
            Err(e) if would_block(&e) => Ok(Poll::Idle),
            Err(e) => Err(e),
        }
    }

    /// Reads one full request, blocking up to `read_timeout` per
    /// socket read. `max_body` caps the accepted `Content-Length`.
    pub fn read_request(
        &mut self,
        read_timeout: Duration,
        max_body: usize,
    ) -> Result<Request, HttpError> {
        self.stream
            .set_read_timeout(Some(read_timeout.max(Duration::from_millis(1))))
            .map_err(HttpError::Io)?;
        let head_end = self.fill_until_head_end()?;
        let head: Vec<u8> = self.buf.drain(..head_end + 4).collect();
        let head_str = std::str::from_utf8(head.get(..head_end).unwrap_or_default())
            .map_err(|_| HttpError::Malformed("request head is not UTF-8"))?;
        let mut lines = head_str.split("\r\n");
        let request_line = lines.next().ok_or(HttpError::Malformed("empty request head"))?;
        let (method, path, query) = parse_request_line(request_line)?;

        // Headers: we only interpret Content-Length and Connection.
        let mut content_length = 0usize;
        let mut keep_alive = true; // HTTP/1.1 default
        let mut header_count = 0usize;
        for line in lines {
            header_count += 1;
            if header_count > MAX_HEADERS {
                return Err(HttpError::HeadTooLarge);
            }
            let (name, value) =
                line.split_once(':').ok_or(HttpError::Malformed("header without ':'"))?;
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .parse::<usize>()
                    .map_err(|_| HttpError::Malformed("unparsable Content-Length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err(HttpError::Malformed("chunked transfer coding is not supported"));
            }
        }
        if content_length > max_body {
            return Err(HttpError::BodyTooLarge { declared: content_length, cap: max_body });
        }
        let body = self.fill_body(content_length)?;
        Ok(Request { method, path, query, body, keep_alive })
    }

    /// Reads until the head terminator `\r\n\r\n` is buffered; returns
    /// its offset.
    fn fill_until_head_end(&mut self) -> Result<usize, HttpError> {
        let mut scanned = 0usize;
        loop {
            if let Some(pos) = find_head_end(&self.buf, scanned) {
                return Ok(pos);
            }
            scanned = self.buf.len().saturating_sub(3);
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(HttpError::HeadTooLarge);
            }
            self.fill_some()?;
        }
    }

    /// Reads until `len` body bytes are buffered, then drains them.
    fn fill_body(&mut self, len: usize) -> Result<Vec<u8>, HttpError> {
        while self.buf.len() < len {
            self.fill_some()?;
        }
        Ok(self.buf.drain(..len).collect())
    }

    /// One socket read appended to the buffer.
    fn fill_some(&mut self) -> Result<(), HttpError> {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => {
                if self.buf.is_empty() {
                    Err(HttpError::Closed)
                } else {
                    Err(HttpError::Malformed("connection closed mid-request"))
                }
            }
            Ok(got) => {
                self.buf.extend_from_slice(chunk.get(..got).unwrap_or_default());
                Ok(())
            }
            Err(e) if would_block(&e) => Err(HttpError::Timeout),
            Err(e) => Err(HttpError::Io(e)),
        }
    }

    /// Writes one response. `keep_alive` controls the `Connection`
    /// header; the caller decides whether to actually reuse the
    /// connection.
    ///
    /// Head and body go out in **one** `write_all`: split across two
    /// small writes, Nagle on the server side would hold the body back
    /// until the client ACKs the head — and a delayed ACK turns every
    /// response into a ~40 ms stall.
    pub fn write_response(&mut self, resp: &Response) -> io::Result<()> {
        let mut wire = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            resp.status,
            reason(resp.status),
            resp.content_type,
            resp.body.len(),
            if resp.keep_alive { "keep-alive" } else { "close" },
        )
        .into_bytes();
        wire.extend_from_slice(&resp.body);
        self.stream.write_all(&wire)?;
        self.stream.flush()
    }
}

/// Scans for `\r\n\r\n` starting near `from` (re-scanning only the
/// tail as the buffer grows).
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    if buf.len() < 4 {
        return None;
    }
    (from..=buf.len() - 4).find(|&i| buf.get(i..i + 4) == Some(b"\r\n\r\n"))
}

fn would_block(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Parses `METHOD SP TARGET SP VERSION`.
fn parse_request_line(line: &str) -> Result<(Method, String, String), HttpError> {
    let mut parts = line.split(' ');
    let method = parts.next().ok_or(HttpError::Malformed("missing method"))?;
    let target = parts.next().ok_or(HttpError::Malformed("missing request target"))?;
    let version = parts.next().ok_or(HttpError::Malformed("missing HTTP version"))?;
    if parts.next().is_some() {
        return Err(HttpError::Malformed("request line has extra fields"));
    }
    let method = match method {
        "GET" => Method::Get,
        "POST" => Method::Post,
        other => return Err(HttpError::UnsupportedMethod(other.to_string())),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::UnsupportedVersion(version.to_string()));
    }
    if !target.starts_with('/') {
        return Err(HttpError::Malformed("request target must be origin-form"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    Ok((method, path, query))
}

/// One response to serialize.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Content-Type header value.
    pub content_type: &'static str,
    /// The body — raw bytes, so the WAL replication endpoint can ship
    /// binary frames over the same writer as the JSON routes.
    pub body: Vec<u8>,
    /// Whether to advertise `Connection: keep-alive`.
    pub keep_alive: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String, keep_alive: bool) -> Response {
        Response { status, content_type: "application/json", body: body.into_bytes(), keep_alive }
    }

    /// A binary response (`application/octet-stream`).
    pub fn octets(status: u16, body: Vec<u8>, keep_alive: bool) -> Response {
        Response { status, content_type: "application/octet-stream", body, keep_alive }
    }
}

/// Canonical reason phrases for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        410 => "Gone",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// The wire bytes of a minimal load-shed 503, for writing straight
/// from the accept loop before any connection state exists.
pub const SHED_503: &[u8] = b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\nContent-Length: 54\r\nConnection: close\r\n\r\n{\"error\":\"overloaded\",\"detail\":\"connection limit hit\"}";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_line_parses() {
        let (m, p, q) = parse_request_line("GET /query?v=1&k=2 HTTP/1.1").unwrap();
        assert_eq!(m, Method::Get);
        assert_eq!(p, "/query");
        assert_eq!(q, "v=1&k=2");
        let (m, p, q) = parse_request_line("POST /apply HTTP/1.0").unwrap();
        assert_eq!(m, Method::Post);
        assert_eq!(p, "/apply");
        assert_eq!(q, "");
    }

    #[test]
    fn request_line_rejections_are_typed() {
        assert!(matches!(
            parse_request_line("PUT / HTTP/1.1"),
            Err(HttpError::UnsupportedMethod(_))
        ));
        assert!(matches!(
            parse_request_line("GET / HTTP/2"),
            Err(HttpError::UnsupportedVersion(_))
        ));
        assert!(matches!(parse_request_line("GET /"), Err(HttpError::Malformed(_))));
        assert!(matches!(parse_request_line("GET query HTTP/1.1"), Err(HttpError::Malformed(_))));
        assert!(matches!(parse_request_line("GET / HTTP/1.1 extra"), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn head_end_scanner_finds_terminator() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\n", 0), Some(14));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n", 0), None);
        assert_eq!(find_head_end(b"", 0), None);
    }

    #[test]
    fn shed_503_content_length_matches() {
        let text = std::str::from_utf8(SHED_503).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        let declared: usize =
            head.lines().find_map(|l| l.strip_prefix("Content-Length: ")).unwrap().parse().unwrap();
        assert_eq!(declared, body.len());
    }

    #[test]
    fn reasons_cover_emitted_statuses() {
        for s in [200u16, 400, 404, 405, 408, 410, 413, 431, 500, 503, 505] {
            assert_ne!(reason(s), "Unknown");
        }
    }
}
