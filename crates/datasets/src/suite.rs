//! The four paper datasets (Table 2) at a configurable scale.
//!
//! | dataset | vertices | edges | d̂ | P̂ | GP-tree |
//! |---|---|---|---|---|---|
//! | ACMDL  | 107 656 | 717 958   | 13.34 | 11.54 | 1 908 |
//! | Flickr | 581 099 | 4 972 274 | 17.11 | 26.63 | 1 908 |
//! | PubMed | 716 459 | 4 742 606 | 13.22 | 27.10 | 10 132 |
//! | DBLP   | 977 288 | 6 864 546 | 14.04 | 37.98 | 1 908 |
//!
//! `scale` multiplies the vertex counts (degree and P-tree statistics
//! are preserved); the taxonomies keep their real sizes since they are
//! not what grows with the graph.

use crate::gen::{generate, DatasetSpec, ProfiledDataset};
use crate::taxonomy;

/// Which paper dataset to synthesize.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[expect(clippy::exhaustive_enums, reason = "the paper's four datasets (Table 2)")]
pub enum SuiteDataset {
    /// ACM Digital Library co-authorship (CCS profiles).
    Acmdl,
    /// Flickr follower network (hash-mapped CCS profiles).
    Flickr,
    /// PubMed co-authorship (MeSH profiles).
    Pubmed,
    /// DBLP co-authorship (hash-mapped CCS profiles).
    Dblp,
}

impl SuiteDataset {
    /// All four, in Table 2 order.
    pub const ALL: [SuiteDataset; 4] =
        [SuiteDataset::Acmdl, SuiteDataset::Flickr, SuiteDataset::Pubmed, SuiteDataset::Dblp];

    /// Display name (with the "-like" suffix marking the substitution).
    pub fn name(self) -> &'static str {
        match self {
            SuiteDataset::Acmdl => "ACMDL-like",
            SuiteDataset::Flickr => "Flickr-like",
            SuiteDataset::Pubmed => "PubMed-like",
            SuiteDataset::Dblp => "DBLP-like",
        }
    }

    /// Paper vertex count (scale 1.0).
    pub fn paper_vertices(self) -> usize {
        match self {
            SuiteDataset::Acmdl => 107_656,
            SuiteDataset::Flickr => 581_099,
            SuiteDataset::Pubmed => 716_459,
            SuiteDataset::Dblp => 977_288,
        }
    }

    /// Paper average degree `d̂`.
    pub fn paper_avg_degree(self) -> f64 {
        match self {
            SuiteDataset::Acmdl => 13.34,
            SuiteDataset::Flickr => 17.11,
            SuiteDataset::Pubmed => 13.22,
            SuiteDataset::Dblp => 14.04,
        }
    }

    /// Paper average P-tree size `P̂`.
    pub fn paper_avg_ptree(self) -> f64 {
        match self {
            SuiteDataset::Acmdl => 11.54,
            SuiteDataset::Flickr => 26.63,
            SuiteDataset::Pubmed => 27.10,
            SuiteDataset::Dblp => 37.98,
        }
    }
}

/// Scale and seeding for the suite.
#[derive(Clone, Copy, Debug)]
pub struct SuiteConfig {
    /// Vertex-count multiplier against the paper sizes.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for SuiteConfig {
    /// Scale 0.02 keeps the full suite laptop-fast (ACMDL ≈ 2.1k,
    /// DBLP ≈ 19.5k vertices) while preserving every per-vertex
    /// statistic; raise it to approach paper sizes.
    fn default() -> Self {
        SuiteConfig { scale: 0.02, seed: DEFAULT_SEED }
    }
}

/// Master seed used by [`SuiteConfig::default`].
pub const DEFAULT_SEED: u64 = 0x9c5_5eed;

/// Builds one suite dataset.
pub fn build(which: SuiteDataset, cfg: SuiteConfig) -> ProfiledDataset {
    let tax = match which {
        SuiteDataset::Pubmed => taxonomy::mesh_like(cfg.seed ^ 0x7a07),
        _ => taxonomy::ccs_like(cfg.seed ^ 0x7a07),
    };
    let vertices = ((which.paper_vertices() as f64 * cfg.scale) as usize).max(200);
    let spec = DatasetSpec {
        name: which.name().to_owned(),
        vertices,
        avg_degree: which.paper_avg_degree(),
        avg_ptree: which.paper_avg_ptree(),
        group_size: 24,
        groups_per_vertex: 1.3,
        intra_fraction: 0.75,
        theme_fraction: 0.55,
        seed: cfg.seed ^ (which as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
    };
    generate(&spec, tax)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_builds_smallest_dataset() {
        let cfg = SuiteConfig::default();
        let ds = build(SuiteDataset::Acmdl, cfg);
        assert_eq!(ds.name, "ACMDL-like");
        let v = ds.graph.num_vertices();
        assert!((2000..2400).contains(&v), "vertices {v}");
        assert_eq!(ds.tax.len(), 1908);
        let d = ds.graph.avg_degree();
        assert!((d - 13.34).abs() < 3.0, "degree {d}");
        let p = ds.avg_ptree_size();
        assert!((p - 11.54).abs() < 4.0, "ptree {p}");
    }

    #[test]
    fn pubmed_uses_mesh() {
        let cfg = SuiteConfig { scale: 0.003, ..SuiteConfig::default() }; // tiny
        let ds = build(SuiteDataset::Pubmed, cfg);
        assert_eq!(ds.tax.len(), 10_132);
        assert!(ds.graph.num_vertices() >= 200);
    }

    #[test]
    fn metadata_is_consistent() {
        for d in SuiteDataset::ALL {
            assert!(d.paper_vertices() > 100_000);
            assert!(d.paper_avg_degree() > 10.0);
            assert!(d.paper_avg_ptree() > 10.0);
            assert!(!d.name().is_empty());
        }
    }
}
