//! The benchmark's own load generator: a closed loop over keep-alive
//! connections. Each client sends its next request only after the
//! previous response has been read to the last byte, so throughput is
//! an output of the run. An op that is refused, abandoned or answered
//! outside 2xx counts as failed; nothing is retried.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crate::inputs::Op;
use crate::layers::VertexId;

const READ_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// 2xx, whole body read.
    Ok,
    /// The connection could not be made.
    Refused,
    /// The connection broke or timed out before the body ended.
    Abandoned,
    /// A complete response outside 2xx.
    Status(u16),
}

/// What one request did, as the client saw it.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Index into the op list.
    pub op: usize,
    pub start: Instant,
    pub end: Instant,
    pub outcome: Outcome,
    /// `epoch` of the response body.
    pub epoch: u64,
    /// Reads: `elapsed_us` of the body (engine-reported compute time).
    pub elapsed_us: u64,
    /// Reads: hash of the body's `communities` value.
    pub answer_hash: u64,
    /// Writes: `edges_added + edges_removed + profiles_changed`.
    pub write_effect: u64,
}

impl Sample {
    pub fn rtt_us(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e6
    }
}

/// One distinct read answer: `(vertex, epoch, answer_hash)`.
pub type AnswerKey = (VertexId, u64, u64);

pub struct LoadResult {
    pub samples: Vec<Sample>,
    /// The `communities` JSON of every distinct read answer.
    pub answers: HashMap<AnswerKey, Vec<u8>>,
    pub wall: Duration,
    pub clients: usize,
}

impl LoadResult {
    pub fn describe(&self) -> String {
        format!(
            "closed loop, {} clients, {} ops in {:.3} s",
            self.clients,
            self.samples.len(),
            self.wall.as_secs_f64()
        )
    }
}

/// One keep-alive HTTP/1.1 connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn { stream, buf: Vec::with_capacity(16 * 1024) })
    }

    pub fn get(&mut self, target: &str) -> std::io::Result<(u16, Vec<u8>)> {
        self.exchange(format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes())
    }

    pub fn post(&mut self, target: &str, body: &str) -> std::io::Result<(u16, Vec<u8>)> {
        let mut req = format!(
            "POST {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body.as_bytes());
        self.exchange(req)
    }

    /// Sends one request in one write and reads the whole response.
    fn exchange(&mut self, request: Vec<u8>) -> std::io::Result<(u16, Vec<u8>)> {
        use std::io::{Error, ErrorKind};
        self.stream.write_all(&request)?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(pos) = find(&self.buf, b"\r\n\r\n") {
                break pos + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(Error::new(ErrorKind::UnexpectedEof, "closed before the head ended"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| Error::new(ErrorKind::InvalidData, "head is not UTF-8"))?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| Error::new(ErrorKind::InvalidData, "no status code"))?;
        let length: usize = head
            .lines()
            .filter_map(|l| l.split_once(':'))
            .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .ok_or_else(|| Error::new(ErrorKind::InvalidData, "no content-length"))?;
        while self.buf.len() < head_end + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(Error::new(ErrorKind::UnexpectedEof, "closed before the body ended"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok((status, self.buf[head_end..head_end + length].to_vec()))
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// The unsigned integer after `"key":` in a flat JSON body.
pub fn json_u64(body: &[u8], key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = find(body, pat.as_bytes())? + pat.len();
    let digits: Vec<u8> = body[at..].iter().copied().take_while(u8::is_ascii_digit).collect();
    std::str::from_utf8(&digits).ok()?.parse().ok()
}

/// The `communities` value of a query response body (to its end).
pub fn communities_json(body: &[u8]) -> Option<&[u8]> {
    let pat = b"\"communities\":";
    let at = find(body, pat)? + pat.len();
    body.get(at..body.len().checked_sub(1)?)
}

/// FNV-1a over a byte stream.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Replays `ops` over `clients` connections, op `i` on client
/// `i % clients`, each client in its own closed loop.
pub fn run_closed_loop(addr: SocketAddr, ops: &[Op], clients: usize) -> LoadResult {
    let barrier = Arc::new(Barrier::new(clients + 1));
    let (started, mut per_client) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let mut conn = Conn::connect(addr).ok();
                    barrier.wait();
                    let mut samples = Vec::with_capacity(ops.len() / clients + 1);
                    let mut answers: HashMap<AnswerKey, Vec<u8>> = HashMap::new();
                    for (i, op) in ops.iter().enumerate().skip(c).step_by(clients) {
                        samples.push(one_op(addr, &mut conn, i, op, &mut answers));
                    }
                    (samples, answers)
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let out: Vec<_> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (started, out)
    });
    let wall = started.elapsed();
    let mut samples = Vec::with_capacity(ops.len());
    let mut answers = HashMap::new();
    for (s, a) in per_client.drain(..) {
        samples.extend(s);
        answers.extend(a);
    }
    samples.sort_by_key(|s| s.op);
    LoadResult { samples, answers, wall, clients }
}

fn one_op(
    addr: SocketAddr,
    conn: &mut Option<Conn>,
    index: usize,
    op: &Op,
    answers: &mut HashMap<AnswerKey, Vec<u8>>,
) -> Sample {
    let start = Instant::now();
    let mut sample = Sample {
        op: index,
        start,
        end: start,
        outcome: Outcome::Refused,
        epoch: 0,
        elapsed_us: 0,
        answer_hash: 0,
        write_effect: 0,
    };
    if conn.is_none() {
        *conn = Conn::connect(addr).ok();
    }
    let Some(c) = conn.as_mut() else {
        sample.end = Instant::now();
        return sample;
    };
    let reply = match op {
        Op::Read(v) => c.get(&format!("/query?v={v}&k={}", crate::layers::K)),
        Op::Write(w) => c.post("/apply", &w.wire()),
    };
    sample.end = Instant::now();
    match reply {
        Err(_) => {
            sample.outcome = Outcome::Abandoned;
            *conn = None;
        }
        Ok((status, body)) => {
            sample.outcome =
                if (200..300).contains(&status) { Outcome::Ok } else { Outcome::Status(status) };
            sample.epoch = json_u64(&body, "epoch").unwrap_or(0);
            match op {
                Op::Read(v) => {
                    sample.elapsed_us = json_u64(&body, "elapsed_us").unwrap_or(0);
                    let communities = communities_json(&body).unwrap_or(&[]);
                    sample.answer_hash = fnv1a(communities.iter().copied());
                    answers
                        .entry((*v, sample.epoch, sample.answer_hash))
                        .or_insert_with(|| communities.to_vec());
                }
                Op::Write(_) => {
                    sample.write_effect = ["edges_added", "edges_removed", "profiles_changed"]
                        .iter()
                        .filter_map(|k| json_u64(&body, k))
                        .sum();
                }
            }
        }
    }
    sample
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_fields_are_found() {
        let body = br#"{"epoch":12,"algorithm":"adv-P","elapsed_us":345,"communities":[{"vertices":[1,2],"subtree":[0]}]}"#;
        assert_eq!(json_u64(body, "epoch"), Some(12));
        assert_eq!(json_u64(body, "elapsed_us"), Some(345));
        assert_eq!(json_u64(body, "missing"), None);
        assert_eq!(communities_json(body), Some(&br#"[{"vertices":[1,2],"subtree":[0]}]"#[..]));
    }
}
