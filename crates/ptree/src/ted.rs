//! Tree edit distance (Zhang–Shasha) for ordered labeled trees.
//!
//! The paper's CPS metric (Eq. 2) scores community cohesiveness by the
//! pairwise tree edit distance between member P-trees. We implement the
//! classic Zhang–Shasha dynamic program over postorder positions and
//! keyroots with unit costs (insert = delete = 1, relabel = 1 when the
//! labels differ, 0 otherwise).
//!
//! For two P-trees of the *same* taxonomy, the node-set symmetric
//! difference (delete one side's extras, insert the other's) is an easy
//! *upper bound* on TED — relabel operations can beat it when the trees
//! diverge structurally — and the two coincide whenever one tree is a
//! subtree of the other. Both facts are property-tested below; the
//! metrics crate uses the exact Zhang–Shasha distance.

use crate::ptree::PTree;
use crate::taxonomy::Taxonomy;

/// An ordered, labeled, rooted tree in the form Zhang–Shasha consumes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OrderedTree {
    /// Label of each node; indices are arbitrary handles.
    labels: Vec<u32>,
    /// Children (ordered) of each node.
    children: Vec<Vec<usize>>,
    root: usize,
}

impl OrderedTree {
    /// Builds a tree from parallel label/children arrays.
    ///
    /// Panics if `root` or any child index is out of range.
    pub fn new(labels: Vec<u32>, children: Vec<Vec<usize>>, root: usize) -> Self {
        assert_eq!(labels.len(), children.len());
        assert!(root < labels.len());
        for c in children.iter().flatten() {
            assert!(*c < labels.len(), "child index out of range");
        }
        OrderedTree { labels, children, root }
    }

    /// Converts a [`PTree`] (children ordered by ascending label id, the
    /// taxonomy's insertion order).
    pub fn from_ptree(tax: &Taxonomy, p: &PTree) -> Self {
        let ids = p.nodes();
        let index_of = |id: u32| ids.binary_search(&id).unwrap();
        let labels: Vec<u32> = ids.to_vec();
        let children: Vec<Vec<usize>> = ids
            .iter()
            .map(|&id| {
                tax.children(id).iter().copied().filter(|&c| p.contains(c)).map(index_of).collect()
            })
            .collect();
        OrderedTree::new(labels, children, index_of(Taxonomy::ROOT))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Trees here always have at least a root.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Postorder traversal: returns (postorder labels, leftmost-leaf
    /// index `l(i)` per postorder position).
    fn postorder(&self) -> (Vec<u32>, Vec<usize>) {
        let n = self.len();
        let mut order_labels = Vec::with_capacity(n);
        let mut lml = Vec::with_capacity(n);
        // Recursive postorder carrying the leftmost-leaf of each
        // subtree. Returns l(v): the postorder index of v's leftmost
        // leaf (v's own index when v is a leaf).
        fn rec(
            t: &OrderedTree,
            v: usize,
            order_labels: &mut Vec<u32>,
            lml: &mut Vec<usize>,
        ) -> usize {
            let mut leftmost = usize::MAX;
            for &c in &t.children[v] {
                let l = rec(t, c, order_labels, lml);
                if leftmost == usize::MAX {
                    leftmost = l;
                }
            }
            let idx = order_labels.len();
            if leftmost == usize::MAX {
                leftmost = idx;
            }
            order_labels.push(t.labels[v]);
            lml.push(leftmost);
            leftmost
        }
        rec(self, self.root, &mut order_labels, &mut lml);
        (order_labels, lml)
    }
}

/// Zhang–Shasha tree edit distance with unit costs.
pub fn tree_edit_distance(a: &OrderedTree, b: &OrderedTree) -> usize {
    let (la, l1) = a.postorder();
    let (lb, l2) = b.postorder();
    let (n, m) = (la.len(), lb.len());
    if n == 0 {
        return m;
    }
    if m == 0 {
        return n;
    }
    // Keyroots: nodes with no left sibling in the postorder/leftmost
    // structure; equivalently the highest node for each distinct l().
    let keyroots = |lml: &[usize]| -> Vec<usize> {
        let mut last: std::collections::BTreeMap<usize, usize> = Default::default();
        for (i, &l) in lml.iter().enumerate() {
            last.insert(l, i);
        }
        let mut ks: Vec<usize> = last.into_values().collect();
        ks.sort_unstable();
        ks
    };
    let k1 = keyroots(&l1);
    let k2 = keyroots(&l2);

    let mut td = vec![vec![0usize; m]; n]; // treedist between subtrees rooted at (i, j)
    let mut fd = vec![vec![0usize; m + 1]; n + 1]; // forest distance scratch

    for &i in &k1 {
        for &j in &k2 {
            // Forest distance over postorder ranges l1[i]..=i, l2[j]..=j.
            let (li, lj) = (l1[i], l2[j]);
            fd[li][lj] = 0;
            for x in li..=i {
                fd[x + 1][lj] = fd[x][lj] + 1;
            }
            for y in lj..=j {
                fd[li][y + 1] = fd[li][y] + 1;
            }
            for x in li..=i {
                for y in lj..=j {
                    if l1[x] == li && l2[y] == lj {
                        let relabel = usize::from(la[x] != lb[y]);
                        fd[x + 1][y + 1] =
                            (fd[x][y + 1] + 1).min(fd[x + 1][y] + 1).min(fd[x][y] + relabel);
                        td[x][y] = fd[x + 1][y + 1];
                    } else {
                        fd[x + 1][y + 1] = (fd[x][y + 1] + 1)
                            .min(fd[x + 1][y] + 1)
                            .min(fd[l1[x]][l2[y]] + td[x][y]);
                    }
                }
            }
        }
    }
    td[n - 1][m - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Size of the node-set symmetric difference of two P-trees of one
    /// taxonomy. This is an upper bound on [`tree_edit_distance`] (delete
    /// `a \ b`, insert `b \ a`), and exactly equals it when one tree is a
    /// subtree of the other.
    fn symmetric_difference_distance(a: &PTree, b: &PTree) -> usize {
        let (mut i, mut j, mut diff) = (0usize, 0usize, 0usize);
        let (an, bn) = (a.nodes(), b.nodes());
        while i < an.len() && j < bn.len() {
            match an[i].cmp(&bn[j]) {
                std::cmp::Ordering::Less => {
                    diff += 1;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    diff += 1;
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        diff + (an.len() - i) + (bn.len() - j)
    }

    fn leaf_tree(label: u32) -> OrderedTree {
        OrderedTree::new(vec![label], vec![vec![]], 0)
    }

    #[test]
    fn identical_trees_distance_zero() {
        let t = OrderedTree::new(vec![0, 1, 2], vec![vec![1, 2], vec![], vec![]], 0);
        assert_eq!(tree_edit_distance(&t, &t), 0);
    }

    #[test]
    fn single_relabel() {
        let a = leaf_tree(1);
        let b = leaf_tree(2);
        assert_eq!(tree_edit_distance(&a, &b), 1);
        assert_eq!(tree_edit_distance(&a, &a), 0);
    }

    #[test]
    fn insert_delete_chain() {
        // root(0) vs root(0)->child(1): one insertion.
        let a = leaf_tree(0);
        let b = OrderedTree::new(vec![0, 1], vec![vec![1], vec![]], 0);
        assert_eq!(tree_edit_distance(&a, &b), 1);
        assert_eq!(tree_edit_distance(&b, &a), 1);
    }

    #[test]
    fn classic_zhang_shasha_example() {
        // Textbook example: f(d(a c(b)) e) vs f(c(d(a b)) e) => distance 2.
        // Labels: f=0 d=1 a=2 c=3 b=4 e=5.
        let t1 = OrderedTree::new(
            vec![0, 1, 2, 3, 4, 5],
            vec![vec![1, 5], vec![2, 3], vec![], vec![4], vec![], vec![]],
            0,
        );
        let t2 = OrderedTree::new(
            vec![0, 3, 1, 2, 4, 5],
            vec![vec![1, 5], vec![2], vec![3, 4], vec![], vec![], vec![]],
            0,
        );
        assert_eq!(tree_edit_distance(&t1, &t2), 2);
    }

    #[test]
    fn distance_is_symmetric_and_triangleish() {
        let t1 = OrderedTree::new(vec![0, 1, 2], vec![vec![1, 2], vec![], vec![]], 0);
        let t2 = OrderedTree::new(vec![0, 1], vec![vec![1], vec![]], 0);
        let t3 = leaf_tree(0);
        let d12 = tree_edit_distance(&t1, &t2);
        let d21 = tree_edit_distance(&t2, &t1);
        assert_eq!(d12, d21);
        let d13 = tree_edit_distance(&t1, &t3);
        let d23 = tree_edit_distance(&t2, &t3);
        assert!(d13 <= d12 + d23);
    }

    #[test]
    fn ted_matches_symdiff_for_nested_ptrees() {
        use crate::taxonomy::Taxonomy;
        let mut t = Taxonomy::new("r");
        let a = t.add_child(0, "a").unwrap();
        let b = t.add_child(0, "b").unwrap();
        let c = t.add_child(a, "c").unwrap();
        let d = t.add_child(a, "d").unwrap();
        let e = t.add_child(b, "e").unwrap();
        let full = PTree::from_labels(&t, [c, d, e]).unwrap();
        let nested = [
            PTree::root_only(),
            PTree::from_labels(&t, [a]).unwrap(),
            PTree::from_labels(&t, [c]).unwrap(),
            PTree::from_labels(&t, [c, d]).unwrap(),
            full.clone(),
        ];
        for x in &nested {
            assert!(x.is_subtree_of(&full));
            let general = tree_edit_distance(
                &OrderedTree::from_ptree(&t, x),
                &OrderedTree::from_ptree(&t, &full),
            );
            assert_eq!(general, symmetric_difference_distance(x, &full));
            assert_eq!(general, full.len() - x.len());
        }
    }

    #[test]
    fn relabel_can_beat_symdiff() {
        // A = r->a->{c,d}, B = r->b->e: the optimal mapping relabels
        // a→b and c→e and deletes d (cost 3), while the symmetric
        // difference is 5.
        use crate::taxonomy::Taxonomy;
        let mut t = Taxonomy::new("r");
        let a = t.add_child(0, "a").unwrap();
        let b = t.add_child(0, "b").unwrap();
        let c = t.add_child(a, "c").unwrap();
        let d = t.add_child(a, "d").unwrap();
        let e = t.add_child(b, "e").unwrap();
        let ta = PTree::from_labels(&t, [c, d]).unwrap();
        let tb = PTree::from_labels(&t, [e]).unwrap();
        let general = tree_edit_distance(
            &OrderedTree::from_ptree(&t, &ta),
            &OrderedTree::from_ptree(&t, &tb),
        );
        assert_eq!(general, 3);
        assert_eq!(symmetric_difference_distance(&ta, &tb), 5);
    }

    #[test]
    fn random_ptrees_symdiff_upper_bounds_ted() {
        use crate::taxonomy::Taxonomy;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(21);
        let mut tax = Taxonomy::new("r");
        let mut ids = vec![0u32];
        for i in 1..15 {
            let parent = ids[rng.gen_range(0..ids.len())];
            ids.push(tax.add_child(parent, &format!("n{i}")).unwrap());
        }
        for _ in 0..40 {
            let pick = |rng: &mut SmallRng| {
                let ls: Vec<u32> = ids.iter().copied().filter(|_| rng.gen_bool(0.4)).collect();
                PTree::from_labels(&tax, ls).unwrap()
            };
            let x = pick(&mut rng);
            let y = pick(&mut rng);
            let general = tree_edit_distance(
                &OrderedTree::from_ptree(&tax, &x),
                &OrderedTree::from_ptree(&tax, &y),
            );
            let bound = symmetric_difference_distance(&x, &y);
            assert!(general <= bound, "ted {general} > symdiff {bound}");
            // Size difference is a lower bound.
            assert!(general >= x.len().abs_diff(y.len()));
            // Symmetry.
            let rev = tree_edit_distance(
                &OrderedTree::from_ptree(&tax, &y),
                &OrderedTree::from_ptree(&tax, &x),
            );
            assert_eq!(general, rev);
        }
    }

    #[test]
    #[should_panic(expected = "child index out of range")]
    fn ordered_tree_validates_children() {
        OrderedTree::new(vec![0], vec![vec![5]], 0);
    }
}
