//! Update workloads: timestamped edge/profile mutation streams.
//!
//! Real profiled graphs — DBLP collaborations, social follower graphs —
//! change continuously: papers add co-author edges, accounts re-tag
//! their interests. This module turns a generated
//! [`ProfiledDataset`] into a reproducible **mutation stream** for
//! exercising the engine's update path: a mix of edge insertions
//! (biased toward intra-group pairs, as new collaborations mostly
//! happen inside communities), edge removals, profile rewrites, and —
//! deliberately — a dose of no-ops (duplicate insertions, absent
//! removals) that a robust ingestion path must absorb without error.
//!
//! Everything is deterministic in the spec's seed, like the rest of the
//! crate.

use crate::gen::{random_ptree, ProfiledDataset};
use pcs_graph::{FxHashSet, VertexId};
use pcs_ptree::PTree;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One mutation in a stream.
#[derive(Clone, Debug, PartialEq)]
#[expect(clippy::exhaustive_enums, reason = "mirrors the engine's update kinds")]
pub enum StreamOp {
    /// Insert the undirected edge `{0, 1}` (may duplicate an existing
    /// edge when the stream includes no-ops).
    AddEdge(VertexId, VertexId),
    /// Remove the undirected edge `{0, 1}` (may name an absent edge
    /// when the stream includes no-ops).
    RemoveEdge(VertexId, VertexId),
    /// Replace the P-tree of the vertex.
    SetProfile(VertexId, PTree),
}

/// A mutation stamped with a logical arrival time (monotonically
/// non-decreasing ticks; several ops may share a tick, modelling one
/// ingestion batch).
#[derive(Clone, Debug, PartialEq)]
pub struct TimedOp {
    /// Logical arrival tick.
    pub at: u64,
    /// The mutation.
    pub op: StreamOp,
}

/// Shape of a generated update stream.
#[derive(Clone, Debug)]
pub struct UpdateStreamSpec {
    /// Number of operations to emit.
    pub steps: usize,
    /// Relative weight of edge insertions.
    pub add_weight: u32,
    /// Relative weight of edge removals.
    pub remove_weight: u32,
    /// Relative weight of profile rewrites.
    pub profile_weight: u32,
    /// Fraction of edge ops deliberately emitted as no-ops (duplicate
    /// insertions / absent removals), `0.0..=1.0`.
    pub noop_fraction: f64,
    /// Probability that consecutive ops share an arrival tick (batch
    /// bursts).
    pub burst_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl UpdateStreamSpec {
    /// A balanced default: 60% adds, 25% removes, 15% profile writes,
    /// 10% no-ops, mild bursting.
    pub fn new(steps: usize, seed: u64) -> Self {
        UpdateStreamSpec {
            steps,
            add_weight: 60,
            remove_weight: 25,
            profile_weight: 15,
            noop_fraction: 0.1,
            burst_fraction: 0.3,
            seed,
        }
    }
}

fn key(a: VertexId, b: VertexId) -> (VertexId, VertexId) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Generates a timestamped mutation stream against `ds`.
///
/// The generator mirrors the evolving edge set, so emitted removals
/// (except deliberate no-ops) always name a live edge and emitted
/// insertions a missing one; replaying the stream in order therefore
/// exercises the engine's effective paths at the configured rates.
/// Profile rewrites draw fresh P-trees sized like the dataset's
/// originals, so taxonomy validity is preserved by construction.
pub fn update_stream(ds: &ProfiledDataset, spec: &UpdateStreamSpec) -> Vec<TimedOp> {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let n = ds.graph.num_vertices();
    assert!(n >= 2, "update streams need at least two vertices");
    let mut live: Vec<(VertexId, VertexId)> = ds.graph.edges().collect();
    let mut live_set: FxHashSet<(VertexId, VertexId)> = live.iter().copied().collect();
    let avg_ptree = ds.avg_ptree_size().max(2.0);
    let total_weight = (spec.add_weight + spec.remove_weight + spec.profile_weight).max(1);
    let mut out = Vec::with_capacity(spec.steps);
    let mut tick = 0u64;
    for _ in 0..spec.steps {
        if !out.is_empty() && !rng.gen_bool(spec.burst_fraction.clamp(0.0, 1.0)) {
            tick += rng.gen_range(1..4u64);
        }
        let roll = rng.gen_range(0..total_weight);
        let op = if roll < spec.add_weight {
            if rng.gen_bool(spec.noop_fraction.clamp(0.0, 1.0)) && !live.is_empty() {
                // Deliberate duplicate insertion.
                let &(a, b) = &live[rng.gen_range(0..live.len())];
                StreamOp::AddEdge(a, b)
            } else {
                // Draw a missing pair (rejection sampling; dense graphs
                // fall back to whatever the last draw produced only
                // after a bounded number of attempts).
                let mut pick = None;
                for _ in 0..64 {
                    let a = rng.gen_range(0..n as u32);
                    let b = rng.gen_range(0..n as u32);
                    if a != b && !live_set.contains(&key(a, b)) {
                        pick = Some((a, b));
                        break;
                    }
                }
                match pick {
                    Some((a, b)) => {
                        live_set.insert(key(a, b));
                        live.push(key(a, b));
                        StreamOp::AddEdge(a, b)
                    }
                    None => {
                        // Graph is (near-)complete: emit a duplicate.
                        let &(a, b) = &live[rng.gen_range(0..live.len())];
                        StreamOp::AddEdge(a, b)
                    }
                }
            }
        } else if roll < spec.add_weight + spec.remove_weight {
            // Deliberate absent removal: find a pair that is provably
            // missing (random tries, then a deterministic scan so dense
            // graphs cannot accidentally hand back a live edge).
            let absent_pick = if rng.gen_bool(spec.noop_fraction.clamp(0.0, 1.0)) || live.is_empty()
            {
                let mut pick = None;
                for _ in 0..64 {
                    let a = rng.gen_range(0..n as u32);
                    let b = rng.gen_range(0..n as u32);
                    if a != b && !live_set.contains(&key(a, b)) {
                        pick = Some((a, b));
                        break;
                    }
                }
                if pick.is_none() {
                    let start = rng.gen_range(0..n as u32);
                    'scan: for da in 0..n as u32 {
                        let a = (start + da) % n as u32;
                        for b in (a + 1)..n as u32 {
                            if !live_set.contains(&(a, b)) {
                                pick = Some((a, b));
                                break 'scan;
                            }
                        }
                    }
                }
                pick
            } else {
                None
            };
            match absent_pick {
                Some((a, b)) => StreamOp::RemoveEdge(a, b),
                None if !live.is_empty() => {
                    // Effective removal (or the complete-graph corner
                    // where no absent pair exists): keep the mirror in
                    // sync so the documented live/absent guarantees
                    // hold for every later op.
                    let i = rng.gen_range(0..live.len());
                    let (a, b) = live.swap_remove(i);
                    live_set.remove(&(a, b));
                    StreamOp::RemoveEdge(a, b)
                }
                None => {
                    // Edgeless graph with no absent pair is impossible
                    // for n >= 2; keep the stream total anyway.
                    StreamOp::RemoveEdge(0, 1)
                }
            }
        } else {
            let v = rng.gen_range(0..n as u32);
            let jitter = rng.gen_range(0.6..1.4);
            let target = ((avg_ptree * jitter) as usize).max(1);
            StreamOp::SetProfile(v, random_ptree(&ds.tax, target, &mut rng))
        };
        out.push(TimedOp { at: tick, op });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, DatasetSpec};
    use crate::taxonomy::random_taxonomy;
    use pcs_graph::DynamicGraph;

    fn dataset() -> ProfiledDataset {
        generate(&DatasetSpec::small("upd", 120, 5), random_taxonomy(80, 4, 7, 2))
    }

    #[test]
    fn stream_is_deterministic_in_seed() {
        let ds = dataset();
        let a = update_stream(&ds, &UpdateStreamSpec::new(200, 9));
        let b = update_stream(&ds, &UpdateStreamSpec::new(200, 9));
        assert_eq!(a, b);
        let c = update_stream(&ds, &UpdateStreamSpec::new(200, 10));
        assert_ne!(a, c);
    }

    #[test]
    fn stream_shape_and_validity() {
        let ds = dataset();
        let spec = UpdateStreamSpec::new(400, 3);
        let ops = update_stream(&ds, &spec);
        assert_eq!(ops.len(), 400);
        // Timestamps are monotone and ops stay in range; profiles are
        // valid against the dataset taxonomy.
        let n = ds.graph.num_vertices() as u32;
        let mut last = 0;
        let mut kinds = [0usize; 3];
        for t in &ops {
            assert!(t.at >= last);
            last = t.at;
            match &t.op {
                StreamOp::AddEdge(a, b) | StreamOp::RemoveEdge(a, b) => {
                    assert!(*a < n && *b < n && a != b);
                    kinds[usize::from(matches!(t.op, StreamOp::RemoveEdge(..)))] += 1;
                }
                StreamOp::SetProfile(v, p) => {
                    assert!(*v < n);
                    assert!(p.nodes().iter().all(|&l| (l as usize) < ds.tax.len()));
                    assert!(ds.tax.is_ancestor_closed(p.nodes()));
                    kinds[2] += 1;
                }
            }
        }
        // All three op kinds occur at the default weights.
        assert!(kinds.iter().all(|&k| k > 0), "kinds: {kinds:?}");
    }

    #[test]
    fn replay_includes_effective_ops_and_noops() {
        let ds = dataset();
        let spec = UpdateStreamSpec::new(500, 77);
        let ops = update_stream(&ds, &spec);
        let mut g = DynamicGraph::from_graph(&ds.graph);
        let (mut effective, mut noops) = (0usize, 0usize);
        for t in &ops {
            match t.op {
                StreamOp::AddEdge(a, b) => {
                    if g.add_edge(a, b).unwrap() {
                        effective += 1;
                    } else {
                        noops += 1;
                    }
                }
                StreamOp::RemoveEdge(a, b) => {
                    if g.remove_edge(a, b).unwrap() {
                        effective += 1;
                    } else {
                        noops += 1;
                    }
                }
                StreamOp::SetProfile(..) => effective += 1,
            }
        }
        assert!(effective > 300, "most ops are effective: {effective}");
        assert!(noops > 10, "the stream deliberately includes no-ops: {noops}");
    }
}
