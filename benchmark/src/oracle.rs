//! The correctness oracle as the workloads use it: expected answers
//! from `basic` on a from-scratch context, computed on two threads
//! and, for the pinned corpora, kept in the build directory so later
//! runs of the same checkout do not pay for them again. `basic` costs
//! 0.1 s to 0.7 s per vertex on these corpora: recomputing a few
//! hundred answers in every run would take longer than the run.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use crate::layers::{Answer, Corpus, Oracle, VertexId, K};
use crate::loadgen::fnv1a;

pub struct Expected {
    oracle: Oracle,
    /// Where answers persist; `None` for a state no later run repeats.
    store: Option<PathBuf>,
    known: HashMap<VertexId, Answer>,
}

impl Expected {
    /// Answers for a state that exists in this run only.
    pub fn uncached(oracle: Oracle) -> Expected {
        Expected { oracle, store: None, known: HashMap::new() }
    }

    /// Answers for an unmodified corpus, persisted in `dir` under a
    /// name made of the corpus's content hash and `k`.
    pub fn of_corpus(corpus: &Corpus, dir: &std::path::Path) -> Expected {
        let path = dir.join(format!("oracle-{:016x}-k{K}.txt", corpus_digest(corpus)));
        let known = std::fs::read_to_string(&path)
            .map(|text| text.lines().filter_map(parse_line).collect())
            .unwrap_or_default();
        Expected { oracle: Oracle::from_corpus(corpus), store: Some(path), known }
    }

    /// The expected answer of every vertex in `vertices`.
    pub fn answers(&mut self, vertices: &[VertexId]) -> &HashMap<VertexId, Answer> {
        let mut missing: Vec<VertexId> =
            vertices.iter().copied().filter(|v| !self.known.contains_key(v)).collect();
        missing.sort_unstable();
        missing.dedup();
        if !missing.is_empty() {
            let (left, right) = missing.split_at(missing.len() / 2);
            let oracle = &self.oracle;
            let (a, b) = std::thread::scope(|s| {
                let h = s.spawn(move || oracle.answers(left));
                let b = oracle.answers(right);
                (h.join().expect("oracle thread panicked"), b)
            });
            let fresh: Vec<(VertexId, Answer)> =
                missing.iter().copied().zip(a.into_iter().chain(b)).collect();
            if let Some(path) = &self.store {
                append(path, &fresh);
            }
            self.known.extend(fresh);
        }
        &self.known
    }
}

fn corpus_digest(corpus: &Corpus) -> u64 {
    let edges = corpus.edges().into_iter().flat_map(|(a, b)| [a, b]);
    let profiles = (0..corpus.num_vertices() as VertexId)
        .flat_map(|v| std::iter::once(u32::MAX).chain(corpus.profile_labels(v).iter().copied()));
    fnv1a(edges.chain(profiles).flat_map(u32::to_le_bytes))
}

/// `vertex<TAB>labels:vertices;labels:vertices...<TAB>.`, ids
/// comma-separated. The closing mark tells a whole line from one cut
/// short by a killed run.
fn format_line(v: VertexId, answer: &Answer) -> String {
    let ids = |ids: &[u32]| ids.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
    let communities: Vec<String> = answer
        .iter()
        .map(|(labels, members)| format!("{}:{}", ids(labels), ids(members)))
        .collect();
    format!("{v}\t{}\t.", communities.join(";"))
}

fn parse_line(line: &str) -> Option<(VertexId, Answer)> {
    let (v, rest) = line.strip_suffix("\t.")?.split_once('\t')?;
    let ids = |s: &str| -> Option<Vec<u32>> {
        s.split(',').filter(|t| !t.is_empty()).map(|t| t.parse().ok()).collect()
    };
    let mut answer = Vec::new();
    for community in rest.split(';').filter(|c| !c.is_empty()) {
        let (labels, members) = community.split_once(':')?;
        answer.push((ids(labels)?, ids(members)?));
    }
    Some((v.parse().ok()?, answer))
}

/// Appends whole lines. The leading newline ends a line that a killed
/// run left torn, which a reader then skips.
fn append(path: &std::path::Path, fresh: &[(VertexId, Answer)]) {
    use std::io::Write as _;
    let mut text = String::from("\n");
    for (v, a) in fresh {
        let _ = writeln!(text, "{}", format_line(*v, a));
    }
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
        let _ = f.write_all(text.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip() {
        let answer: Answer = vec![(vec![0, 3], vec![1, 2, 9]), (vec![0], vec![4])];
        assert_eq!(parse_line(&format_line(7, &answer)), Some((7, answer)));
        assert_eq!(parse_line(&format_line(8, &Vec::new())), Some((8, Vec::new())));
        assert_eq!(parse_line("7\t0:1,2"), None, "a line without its closing mark is torn");
    }
}
