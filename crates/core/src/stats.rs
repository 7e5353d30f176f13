//! Search-space statistics (Table 3 of the paper).
//!
//! The paper buckets the lattice level (= node count) of each maximal
//! feasible subtree into five depth bands of the search space and
//! reports, per dataset, the fraction of communities whose theme falls
//! in each band — the observation motivating the boundary-walking
//! advanced methods (most themes sit mid-lattice, so bottom-up sweeps
//! waste most of their work).

use crate::problem::PcsOutcome;

/// Number of bands used by Table 3.
pub const TABLE3_LEVELS: usize = 5;

/// Buckets a subtree size into `1..=levels` given the search-space
/// depth `|T(q)|`. Sizes are clamped into range.
pub fn level_of(subtree_size: usize, query_tree_size: usize, levels: usize) -> usize {
    assert!(levels >= 1 && query_tree_size >= 1);
    let size = subtree_size.clamp(1, query_tree_size);
    // ceil(size * levels / depth), in 1..=levels.
    (size * levels).div_ceil(query_tree_size).clamp(1, levels)
}

/// Accumulates Table 3 rows across many query outcomes.
#[derive(Clone, Debug, Default)]
pub struct LevelHistogram {
    counts: [u64; TABLE3_LEVELS],
    total: u64,
}

impl LevelHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds every community of `outcome` (whose query tree had
    /// `outcome.stats.query_tree_size` nodes).
    pub fn add_outcome(&mut self, outcome: &PcsOutcome) {
        let depth = outcome.stats.query_tree_size.max(1) as usize;
        for size in outcome.subtree_sizes() {
            self.add_sample(size, depth);
        }
    }

    /// Adds one raw (subtree size, query tree size) sample.
    pub fn add_sample(&mut self, subtree_size: usize, query_tree_size: usize) {
        let lvl = level_of(subtree_size, query_tree_size, TABLE3_LEVELS);
        #[expect(clippy::indexing_slicing, reason = "level_of clamps into 1..=TABLE3_LEVELS")]
        {
            self.counts[lvl - 1] += 1;
        }
        self.total += 1;
    }

    /// Total communities recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fractions per level (sum to 1 when non-empty).
    pub fn fractions(&self) -> [f64; TABLE3_LEVELS] {
        let mut out = [0.0; TABLE3_LEVELS];
        if self.total > 0 {
            for (o, &c) in out.iter_mut().zip(self.counts.iter()) {
                *o = c as f64 / self.total as f64;
            }
        }
        out
    }

    /// Raw counts per level.
    pub fn counts(&self) -> [u64; TABLE3_LEVELS] {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_of_brackets() {
        // Depth 10, 5 levels => sizes 1-2 level 1, 3-4 level 2, ...
        assert_eq!(level_of(1, 10, 5), 1);
        assert_eq!(level_of(2, 10, 5), 1);
        assert_eq!(level_of(3, 10, 5), 2);
        assert_eq!(level_of(10, 10, 5), 5);
        // Shallow spaces clamp sensibly.
        assert_eq!(level_of(1, 1, 5), 5);
        assert_eq!(level_of(2, 3, 5), 4);
        // Out-of-range sizes are clamped.
        assert_eq!(level_of(99, 10, 5), 5);
        assert_eq!(level_of(0, 10, 5), 1);
    }

    #[test]
    #[should_panic]
    fn zero_levels_rejected() {
        level_of(1, 10, 0);
    }

    #[test]
    fn histogram_accumulates_and_normalizes() {
        let mut h = LevelHistogram::new();
        h.add_sample(1, 10); // level 1
        h.add_sample(5, 10); // level 3
        h.add_sample(6, 10); // level 3
        h.add_sample(10, 10); // level 5
        assert_eq!(h.total(), 4);
        let f = h.fractions();
        assert!((f[0] - 0.25).abs() < 1e-12);
        assert!((f[2] - 0.5).abs() < 1e-12);
        assert!((f[4] - 0.25).abs() < 1e-12);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(h.counts()[2], 2);
    }

    #[test]
    fn empty_histogram_fractions_zero() {
        let h = LevelHistogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.fractions(), [0.0; TABLE3_LEVELS]);
    }
}
