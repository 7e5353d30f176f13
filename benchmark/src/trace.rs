//! The harness-side tracer: a span around each call the harness makes
//! into a layer's public function, and counts taken at the same
//! boundaries. Spans stay in memory and are written out as JSON lines
//! when the run ends. Nothing inside the program is instrumented, so a
//! disabled tracer costs one branch per call.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one (`None` for a request's root).
    pub parent: Option<u32>,
    /// Spans of one request share this identifier.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

#[derive(Clone, Debug)]
pub struct Count {
    pub request: u64,
    pub name: &'static str,
    pub value: f64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    pub counts: Vec<Count>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer { enabled, origin, spans: Vec::new(), counts: Vec::new() }
    }

    /// Runs `f` under a span. Returns the span's id (0 when disabled)
    /// beside the result, to parent child spans on.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce(&mut Tracer, u32) -> T,
    ) -> T {
        if !self.enabled {
            return f(self, 0);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { id, parent, request, name, start_ns, end_ns: start_ns });
        let out = f(self, id);
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Records a span measured elsewhere (a client thread's request).
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if self.enabled {
            let id = self.spans.len() as u32;
            let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                id,
                parent: None,
                request,
                name,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
    }

    pub fn count(&mut self, name: &'static str, request: u64, value: f64) {
        if self.enabled {
            self.counts.push(Count { request, name, value });
        }
    }

    /// Durations, in µs, of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::us).collect()
    }

    pub fn values(&self, name: &str) -> Vec<f64> {
        self.counts.iter().filter(|c| c.name == name).map(|c| c.value).collect()
    }

    /// One JSON object per line: spans first, then counts.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            );
        }
        for c in &self.counts {
            let _ = writeln!(
                out,
                "{{\"count\":\"{}\",\"request\":{},\"value\":{}}}",
                c.name, c.request, c.value
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_spans_nest_inside_their_parent() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("request", None, 1, |t, root| {
            t.span("child", Some(root), 1, |_, _| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.count("work", 1, 3.0);
        });
        let (parent, child) = (&t.spans[0], &t.spans[1]);
        assert_eq!((child.parent, child.request), (Some(parent.id), parent.request));
        assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
        assert!(t.durations_us("child")[0] >= 2000.0);
        assert_eq!(t.values("work"), [3.0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", None, 0, |_, _| 5), 5);
        t.count("c", 0, 1.0);
        assert!(t.spans.is_empty() && t.counts.is_empty());
    }
}
