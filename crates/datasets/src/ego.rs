//! Facebook-ego-network substitutes with ground-truth circles
//! (Table 4 / Fig. 11).
//!
//! | dataset | vertices | edges  | d̂    | P̂    |
//! |---------|----------|--------|-------|-------|
//! | FB1     | 1 233    | 11 972 | 19.41 | 34.54 |
//! | FB2     | 1 447    | 17 533 | 24.23 | 29.12 |
//! | FB3     | 982      | 10 112 | 20.59 | 31.10 |
//!
//! Each network plants overlapping *friendship circles* whose members
//! share a circle theme subtree — the ground truth the F1 experiment
//! scores against, mirroring how the paper hash-maps real Facebook
//! profiles onto CCS subjects.

use crate::gen::{generate, DatasetSpec, ProfiledDataset};
use crate::taxonomy;

/// Which ego-network to synthesize (the paper's FB1–FB3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[expect(clippy::exhaustive_enums, reason = "the paper's three ego-networks")]
pub enum EgoNetwork {
    /// 1 233 vertices, d̂ 19.41, P̂ 34.54.
    Fb1,
    /// 1 447 vertices, d̂ 24.23, P̂ 29.12.
    Fb2,
    /// 982 vertices, d̂ 20.59, P̂ 31.10.
    Fb3,
}

impl EgoNetwork {
    /// All three, in Table 4 order.
    pub const ALL: [EgoNetwork; 3] = [EgoNetwork::Fb1, EgoNetwork::Fb2, EgoNetwork::Fb3];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EgoNetwork::Fb1 => "FB1-like",
            EgoNetwork::Fb2 => "FB2-like",
            EgoNetwork::Fb3 => "FB3-like",
        }
    }

    /// Table 4 vertex count.
    pub fn vertices(self) -> usize {
        match self {
            EgoNetwork::Fb1 => 1233,
            EgoNetwork::Fb2 => 1447,
            EgoNetwork::Fb3 => 982,
        }
    }

    /// Table 4 average degree.
    pub fn avg_degree(self) -> f64 {
        match self {
            EgoNetwork::Fb1 => 19.41,
            EgoNetwork::Fb2 => 24.23,
            EgoNetwork::Fb3 => 20.59,
        }
    }

    /// Table 4 average P-tree size.
    pub fn avg_ptree(self) -> f64 {
        match self {
            EgoNetwork::Fb1 => 34.54,
            EgoNetwork::Fb2 => 29.12,
            EgoNetwork::Fb3 => 31.10,
        }
    }
}

/// Builds one ego network with planted circles as ground truth.
///
/// Circles are denser and more theme-coherent than the suite datasets'
/// groups (friendship circles are tight), so that profile-aware methods
/// can actually recover them — the premise of the paper's F1 study.
pub fn build(which: EgoNetwork, seed: u64) -> ProfiledDataset {
    let tax = taxonomy::ccs_like(seed ^ 0xe90);
    let spec = DatasetSpec {
        name: which.name().to_owned(),
        vertices: which.vertices(),
        avg_degree: which.avg_degree(),
        avg_ptree: which.avg_ptree(),
        group_size: 40,
        groups_per_vertex: 1.4,
        intra_fraction: 0.85,
        theme_fraction: 0.55,
        seed: seed ^ (which as u64 + 1).wrapping_mul(0x517c_c1b7_2722_0a95),
    };
    generate(&spec, tax)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fb_statistics_close_to_table4() {
        for which in EgoNetwork::ALL {
            let ds = build(which, 5);
            assert_eq!(ds.graph.num_vertices(), which.vertices());
            let d = ds.graph.avg_degree();
            assert!((d - which.avg_degree()).abs() < 5.0, "{}: degree {d}", ds.name);
            let p = ds.avg_ptree_size();
            assert!((p - which.avg_ptree()).abs() < 8.0, "{}: ptree {p}", ds.name);
            assert!(!ds.groups.is_empty());
        }
    }

    #[test]
    fn circles_are_recoverable_communities() {
        let ds = build(EgoNetwork::Fb3, 6);
        // Most circles should contain a 4-core (dense enough for
        // query-based methods to find structure inside).
        let mut sc = pcs_graph::core::SubsetCore::new(ds.graph.num_vertices());
        let mut with_core = 0;
        let mut checked = 0;
        for circle in &ds.groups {
            if circle.len() < 8 {
                continue;
            }
            checked += 1;
            let q = circle[0];
            if sc.kcore_component_within(&ds.graph, circle, q, 4).is_some() {
                with_core += 1;
            }
        }
        assert!(checked > 0);
        assert!(
            with_core * 3 >= checked * 2,
            "only {with_core}/{checked} circles contain a 4-core"
        );
    }

    #[test]
    fn deterministic_and_distinct() {
        let a = build(EgoNetwork::Fb1, 9);
        let b = build(EgoNetwork::Fb1, 9);
        assert_eq!(a.graph, b.graph);
        let c = build(EgoNetwork::Fb2, 9);
        assert_ne!(a.graph.num_vertices(), c.graph.num_vertices());
    }
}
