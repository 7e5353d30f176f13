//! Input generation on the harness side: the stratified query pool of
//! a corpus, and the seeded op lists of the four workloads.
//!
//! The corpus and its query pool are pinned ([`CORPUS_SEED`]); `--seed`
//! draws the traffic: the order of the reads, the write stream and the
//! positions of the writes. The reason is measured, not assumed: adv-P latency over
//! the 9.7k query-eligible vertices of the scale-0.01 corpus is
//! heavy-tailed (sigma of log latency 1.26, no cheap covariate
//! correlates above 0.42), so 256 vertices re-drawn per seed move
//! p50 / p95 / mean by 12% / 23-34% / 18-36% (quartile spread over
//! 200 draws), and re-generating the graph moves the population mean
//! by 40%. No admissible bound survives that, and a run cannot afford
//! more vertices. See README.md, "What the seed draws".

use std::collections::HashSet;

use crate::layers::{Corpus, VertexId, WriteOp, K};

/// Dataset seed of every corpus the benchmark generates.
pub const CORPUS_SEED: u64 = 0x9c5_5eed;

/// splitmix64: small, seedable, identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// How many of `total` reads go to each rank of a zipf(`s`) over
/// `0..n`: rank `r` gets its expected share `total·(1/(r+1)^s)/H`,
/// rounded by largest remainder so the counts sum to `total`. Every
/// seed reads the same multiset in another order: drawing ranks at
/// random instead would let the few hottest vertices, whose costs
/// differ by orders of magnitude, weigh differently from seed to seed.
pub fn zipf_counts(n: usize, s: f64, total: usize) -> Vec<usize> {
    assert!(n > 0, "zipf population must be non-empty");
    let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
    let norm: f64 = weights.iter().sum();
    let shares: Vec<f64> = weights.iter().map(|w| w / norm * total as f64).collect();
    let mut counts: Vec<usize> = shares.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder.sort_by(|&a, &b| {
        (shares[b] - shares[b].floor()).total_cmp(&(shares[a] - shares[a].floor())).then(a.cmp(&b))
    });
    let short = total - counts.iter().sum::<usize>();
    for &r in by_remainder.iter().take(short) {
        counts[r] += 1;
    }
    counts
}

/// `count` zipf(`s`) reads over the pool (pool order is rank order) in
/// a seeded order.
fn zipf_vertices(pool: &[VertexId], count: usize, s: f64, rng: &mut Rng) -> Vec<VertexId> {
    let mut reads: Vec<VertexId> = zipf_counts(pool.len(), s, count)
        .into_iter()
        .zip(pool)
        .flat_map(|(c, &v)| std::iter::repeat_n(v, c))
        .collect();
    rng.shuffle(&mut reads);
    reads
}

/// Number of strata of the query pool: core-number tercile × `|T(q)|`
/// tercile.
pub const STRATA: usize = 9;

/// The nine strata of the query-eligible vertices (core number ≥ k):
/// rank terciles of core number, and inside each, rank terciles of
/// `|T(q)|`. Rank terciles cannot be empty while there are at least
/// nine eligible vertices.
pub fn strata(corpus: &Corpus) -> Vec<Vec<VertexId>> {
    let cores = corpus.core_numbers();
    let mut eligible: Vec<VertexId> =
        (0..corpus.num_vertices() as VertexId).filter(|&v| cores[v as usize] >= K).collect();
    assert!(eligible.len() >= STRATA, "corpus has fewer than {STRATA} vertices in its {K}-core");
    eligible.sort_by_key(|&v| (cores[v as usize], v));
    let mut out = Vec::with_capacity(STRATA);
    for by_core in thirds(&eligible) {
        let mut by_core = by_core.to_vec();
        by_core.sort_by_key(|&v| (corpus.profile_len(v), v));
        out.extend(thirds(&by_core).map(<[VertexId]>::to_vec));
    }
    out
}

fn thirds<T>(items: &[T]) -> impl Iterator<Item = &[T]> {
    let n = items.len();
    (0..3).map(move |i| &items[i * n / 3..(i + 1) * n / 3])
}

/// The corpus's query pool: `size` vertices drawn round-robin from the
/// nine strata (each shuffled with the corpus seed), so every prefix
/// of the pool is balanced over the strata.
pub fn query_pool(corpus: &Corpus, size: usize) -> Vec<VertexId> {
    let mut strata = strata(corpus);
    let mut rng = Rng::new(CORPUS_SEED ^ 0x706f_6f6c);
    for s in &mut strata {
        rng.shuffle(s);
    }
    let mut pool = Vec::with_capacity(size);
    let mut round = 0;
    while pool.len() < size {
        let before = pool.len();
        for s in &strata {
            if pool.len() < size {
                pool.extend(s.get(round));
            }
        }
        assert!(pool.len() > before, "corpus has fewer than {size} query-eligible vertices");
        round += 1;
    }
    pool
}

/// One request of an op list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Read(VertexId),
    Write(WriteOp),
}

impl Op {
    /// The request line (and body) this op puts on the wire.
    pub fn wire(&self) -> String {
        match self {
            Op::Read(v) => format!("GET /query?v={v}&k={K}"),
            Op::Write(w) => format!("POST /apply\n{}", w.wire()),
        }
    }
}

/// `passes` passes over the pool, each in its own seeded order.
pub fn shuffled_reads(pool: &[VertexId], passes: usize, seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed ^ 0x7265_6164);
    let mut out = Vec::with_capacity(pool.len() * passes);
    for _ in 0..passes {
        let mut pass = pool.to_vec();
        rng.shuffle(&mut pass);
        out.extend(pass.into_iter().map(Op::Read));
    }
    out
}

/// `rounds` rounds of `per_round` reads, each round the same zipf(`s`)
/// multiset over the pool in a seeded order of its own.
pub fn zipf_rounds(
    pool: &[VertexId],
    rounds: usize,
    per_round: usize,
    s: f64,
    seed: u64,
) -> Vec<Op> {
    let mut rng = Rng::new(seed ^ 0x7a69_7066);
    (0..rounds).flat_map(|_| zipf_vertices(pool, per_round, s, &mut rng)).map(Op::Read).collect()
}

/// An undirected edge as a set key: the smaller endpoint first.
pub fn edge_key(a: VertexId, b: VertexId) -> (VertexId, VertexId) {
    (a.min(b), a.max(b))
}

/// Shares of the writes of `serve-mixed`, by what they do to the
/// state they meet: add a missing edge, remove a live one, rewrite a
/// profile, or nothing (a duplicate add or an absent remove, which the
/// write path must absorb). Fixed shares keep the write cost, the WAL
/// tail and the recovery time alike from seed to seed.
const WRITE_MIX: [(WriteKind, f64); 4] = [
    (WriteKind::Add, 0.55),
    (WriteKind::Remove, 0.22),
    (WriteKind::Profile, 0.13),
    (WriteKind::Noop, 0.10),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WriteKind {
    Add,
    Remove,
    Profile,
    Noop,
}

/// `n` single-op writes in the fixed mix, taken in order from the
/// update stream of seed `seed`; an op whose kind has met its share is
/// skipped.
pub fn mixed_writes(corpus: &Corpus, n: usize, seed: u64) -> Vec<WriteOp> {
    let mut live: HashSet<(VertexId, VertexId)> =
        corpus.edges().into_iter().map(|(a, b)| edge_key(a, b)).collect();
    let mut left: Vec<usize> =
        WRITE_MIX.iter().map(|(_, share)| (share * n as f64) as usize).collect();
    left[0] += n - left.iter().sum::<usize>();
    let mut out = Vec::with_capacity(n);
    for op in corpus.write_stream(n * 8 + 64, seed) {
        let kind = match &op {
            WriteOp::Add(a, b) if !live.contains(&edge_key(*a, *b)) => WriteKind::Add,
            WriteOp::Remove(a, b) if live.contains(&edge_key(*a, *b)) => WriteKind::Remove,
            WriteOp::Profile(..) => WriteKind::Profile,
            _ => WriteKind::Noop,
        };
        let quota =
            &mut left[WRITE_MIX.iter().position(|(k, _)| *k == kind).expect("kind is listed")];
        if *quota == 0 {
            continue;
        }
        *quota -= 1;
        match &op {
            WriteOp::Add(a, b) if kind == WriteKind::Add => {
                live.insert(edge_key(*a, *b));
            }
            WriteOp::Remove(a, b) if kind == WriteKind::Remove => {
                live.remove(&edge_key(*a, *b));
            }
            _ => {}
        }
        out.push(op);
        if out.len() == n {
            break;
        }
    }
    assert_eq!(out.len(), n, "update stream too short for the write mix");
    out
}

/// The ops of `serve-mixed`: `passes` passes over the pool, each in a
/// seeded order of its own, with one write beside every
/// `write_every - 1` reads, at a seeded position among them. The
/// writes themselves are the corpus's: the same for every seed, in the
/// same order, so that the WAL a recovery replays is the same too.
///
/// The reads repeat a vertex only a whole pass later, by when a write
/// has wiped the result cache: the cache is filled and invalidated but
/// almost never answers. With zipf reads a quarter of them hit, that
/// share moved with the timing of two clients against the writes, and
/// the median read, which lies in the wide miss distribution, moved by
/// four times as much (quartile spread 8% to 38% between passes).
pub fn mixed_ops(
    corpus: &Corpus,
    pool: &[VertexId],
    passes: usize,
    write_every: usize,
    seed: u64,
) -> Vec<Op> {
    let reads = shuffled_reads(pool, passes, seed);
    let blocks: Vec<&[Op]> = reads.chunks(write_every - 1).collect();
    let mut rng = Rng::new(seed ^ 0x6d69_7865);
    let mut writes = mixed_writes(corpus, blocks.len(), CORPUS_SEED ^ 0x3b).into_iter();
    let mut out = Vec::with_capacity(reads.len() + blocks.len());
    for block in blocks {
        let (before, after) = block.split_at(rng.below(block.len() + 1));
        out.extend_from_slice(before);
        out.push(Op::Write(writes.next().expect("one write per block")));
        out.extend_from_slice(after);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(ops: &[Op]) -> String {
        ops.iter().map(|o| o.wire() + "\n").collect()
    }

    #[test]
    fn no_stratum_is_empty_at_either_scale() {
        // 0.002 is the smoke scale; 0.01 the scale of three workloads.
        // (The cold scale uses the same code on a larger graph.)
        for scale in [0.002, 0.01] {
            let corpus = Corpus::generate(scale, CORPUS_SEED);
            let strata = strata(&corpus);
            assert_eq!(strata.len(), STRATA);
            assert!(strata.iter().all(|s| !s.is_empty()), "empty stratum at scale {scale}");
            let pool = query_pool(&corpus, 27);
            let mut distinct = pool.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), 27, "pool repeats a vertex");
            // Every prefix of nine covers all nine strata.
            for (i, v) in pool.iter().take(STRATA).enumerate() {
                assert!(strata[i].contains(v));
            }
        }
    }

    #[test]
    fn equal_seeds_give_identical_op_lists_and_different_seeds_differ() {
        let corpus = Corpus::generate(0.002, CORPUS_SEED);
        let pool = query_pool(&corpus, 32);
        assert_eq!(pool, query_pool(&corpus, 32));
        let lists = |seed: u64| {
            [
                wire(&shuffled_reads(&pool, 2, seed)),
                wire(&zipf_rounds(&pool, 2, 250, 1.1, seed)),
                wire(&mixed_ops(&corpus, &pool, 2, 10, seed)),
            ]
        };
        assert_eq!(lists(7), lists(7));
        for (a, b) in lists(7).iter().zip(lists(8).iter()) {
            assert_ne!(a, b);
        }
    }

    #[test]
    fn mixed_ops_read_every_pool_vertex_once_per_pass() {
        let corpus = Corpus::generate(0.002, CORPUS_SEED);
        let pool = query_pool(&corpus, 36);
        let mut sorted_pool = pool.clone();
        sorted_pool.sort_unstable();
        for seed in [1, 2, 3] {
            // 72 reads in blocks of 9: 8 writes.
            let ops = mixed_ops(&corpus, &pool, 2, 10, seed);
            assert_eq!(ops.iter().filter(|o| matches!(o, Op::Write(_))).count(), 8);
            let reads: Vec<VertexId> = ops
                .iter()
                .filter_map(|o| match o {
                    Op::Read(v) => Some(*v),
                    Op::Write(_) => None,
                })
                .collect();
            for pass in reads.chunks(36) {
                let mut pass = pass.to_vec();
                pass.sort_unstable();
                assert_eq!(pass, sorted_pool);
            }
        }
    }

    #[test]
    fn zipf_counts_are_skewed_and_sum_to_the_total() {
        let counts = zipf_counts(64, 1.1, 4000);
        assert_eq!(counts.iter().sum::<usize>(), 4000);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "counts fall with rank");
        assert!(counts[0] + counts[1] > 1200, "top-2 ranks get {}", counts[0] + counts[1]);
        assert_eq!(zipf_counts(3, 0.0, 10), [4, 3, 3]);
    }

    #[test]
    fn writes_keep_the_fixed_mix() {
        let corpus = Corpus::generate(0.002, CORPUS_SEED);
        for seed in [1, 2] {
            let writes = mixed_writes(&corpus, 40, seed);
            let count = |f: fn(&WriteOp) -> bool| writes.iter().filter(|w| f(w)).count();
            assert_eq!(count(|w| matches!(w, WriteOp::Profile(..))), 5);
            // 8 removals of live edges; absent removals are no-ops.
            assert!((8..=12).contains(&count(|w| matches!(w, WriteOp::Remove(..)))));
            // 23 adds of missing edges; duplicate adds are no-ops.
            assert!((23..=27).contains(&count(|w| matches!(w, WriteOp::Add(..)))));
        }
    }
}
