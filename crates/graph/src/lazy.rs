//! Deferred graph materialization for file-backed snapshots.
//!
//! A [`GraphHandle`] is either a resident [`Graph`] or a cell that
//! materializes one on first touch from a [`GraphSource`] (in practice
//! a positioned-read view over an on-disk snapshot, implemented in
//! `pcs-store`). Cheap to clone; clones share the same cell, so the
//! backing section is read and decoded at most once per load.
//!
//! The handle always knows the vertex and edge counts (they come from
//! the snapshot's META section), so size queries never force
//! materialization — only adjacency access does.

use crate::{Graph, GraphError};
use std::sync::{Arc, OnceLock};

/// Supplies a decoded [`Graph`] on demand. Implementations live next to
/// the storage format (see `pcs-store`); failures are descriptive
/// strings here — the storage layer records its own typed error before
/// returning one, so callers that need the typed cause consult the
/// store's fault cell.
pub trait GraphSource: Send + Sync {
    /// Reads, validates, and decodes the full graph. Called at most
    /// once per handle (the cell memoizes the outcome).
    fn load_graph(&self) -> Result<Graph, String>;
}

struct LazyGraphCell {
    source: Arc<dyn GraphSource>,
    cell: OnceLock<Result<Arc<Graph>, GraphError>>,
    n: usize,
    m: usize,
}

/// A graph that is either resident or lazily materialized on first
/// adjacency access.
#[derive(Clone)]
pub struct GraphHandle {
    inner: HandleInner,
}

#[derive(Clone)]
enum HandleInner {
    Ready(Arc<Graph>),
    Lazy(Arc<LazyGraphCell>),
}

impl GraphHandle {
    /// Wraps an already-materialized graph.
    pub fn ready(graph: Arc<Graph>) -> GraphHandle {
        GraphHandle { inner: HandleInner::Ready(graph) }
    }

    /// Defers materialization to `source`. `n`/`m` are the counts the
    /// snapshot's metadata promises; [`GraphHandle::get`] rejects a
    /// decoded graph that disagrees.
    pub fn lazy(source: Arc<dyn GraphSource>, n: usize, m: usize) -> GraphHandle {
        GraphHandle {
            inner: HandleInner::Lazy(Arc::new(LazyGraphCell {
                source,
                cell: OnceLock::new(),
                n,
                m,
            })),
        }
    }

    /// Vertex count, without materializing.
    pub fn num_vertices(&self) -> usize {
        match &self.inner {
            HandleInner::Ready(g) => g.num_vertices(),
            HandleInner::Lazy(l) => l.n,
        }
    }

    /// Edge count, without materializing.
    pub fn num_edges(&self) -> usize {
        match &self.inner {
            HandleInner::Ready(g) => g.num_edges(),
            HandleInner::Lazy(l) => l.m,
        }
    }

    /// True when the graph is already decoded (always for
    /// [`GraphHandle::ready`]).
    pub fn is_materialized(&self) -> bool {
        match &self.inner {
            HandleInner::Ready(_) => true,
            HandleInner::Lazy(l) => l.cell.get().is_some(),
        }
    }

    /// The graph, materializing it on first call. A decode failure is
    /// memoized: every subsequent call reports the same error instead
    /// of re-reading a file known to be damaged.
    pub fn get(&self) -> Result<&Arc<Graph>, GraphError> {
        match &self.inner {
            HandleInner::Ready(g) => Ok(g),
            HandleInner::Lazy(l) => {
                let out = l.cell.get_or_init(|| {
                    let g = l
                        .source
                        .load_graph()
                        .map_err(|detail| GraphError::MalformedGraph { detail })?;
                    if g.num_vertices() != l.n || g.num_edges() != l.m {
                        return Err(GraphError::MalformedGraph {
                            detail: format!(
                                "lazily decoded graph has {}v/{}e but metadata promised {}v/{}e",
                                g.num_vertices(),
                                g.num_edges(),
                                l.n,
                                l.m
                            ),
                        });
                    }
                    Ok(Arc::new(g))
                });
                match out {
                    Ok(g) => Ok(g),
                    Err(e) => Err(e.clone()),
                }
            }
        }
    }
}

impl std::fmt::Debug for GraphHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphHandle")
            .field("vertices", &self.num_vertices())
            .field("edges", &self.num_edges())
            .field("materialized", &self.is_materialized())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct CountingSource {
        loads: AtomicUsize,
        fail: bool,
    }

    impl GraphSource for CountingSource {
        fn load_graph(&self) -> Result<Graph, String> {
            self.loads.fetch_add(1, Ordering::SeqCst);
            if self.fail {
                return Err("synthetic decode failure".into());
            }
            Graph::from_edges(3, &[(0, 1), (1, 2)]).map_err(|e| e.to_string())
        }
    }

    #[test]
    fn ready_handles_never_touch_a_source() {
        let g = Arc::new(Graph::from_edges(2, &[(0, 1)]).unwrap());
        let h = GraphHandle::ready(Arc::clone(&g));
        assert!(h.is_materialized());
        assert_eq!(h.num_vertices(), 2);
        assert_eq!(h.num_edges(), 1);
        assert!(Arc::ptr_eq(h.get().unwrap(), &g));
    }

    #[test]
    fn lazy_loads_once_and_shares_across_clones() {
        let src = Arc::new(CountingSource { loads: AtomicUsize::new(0), fail: false });
        let h = GraphHandle::lazy(Arc::<CountingSource>::clone(&src), 3, 2);
        let h2 = h.clone();
        assert!(!h.is_materialized());
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(src.loads.load(Ordering::SeqCst), 0, "size queries must not materialize");
        assert_eq!(h.get().unwrap().num_edges(), 2);
        assert_eq!(h2.get().unwrap().num_edges(), 2);
        assert_eq!(src.loads.load(Ordering::SeqCst), 1, "clones share one materialization");
        assert!(h2.is_materialized());
    }

    #[test]
    fn count_mismatch_is_rejected_and_memoized() {
        let src = Arc::new(CountingSource { loads: AtomicUsize::new(0), fail: false });
        let h = GraphHandle::lazy(Arc::<CountingSource>::clone(&src), 3, 7);
        assert!(matches!(h.get(), Err(GraphError::MalformedGraph { .. })));
        assert!(matches!(h.get(), Err(GraphError::MalformedGraph { .. })));
        assert_eq!(src.loads.load(Ordering::SeqCst), 1, "failures are memoized too");
    }

    #[test]
    fn source_failure_surfaces_as_malformed() {
        let src = Arc::new(CountingSource { loads: AtomicUsize::new(0), fail: true });
        let h = GraphHandle::lazy(src, 3, 2);
        let err = h.get().unwrap_err();
        assert!(err.to_string().contains("synthetic decode failure"));
    }
}
