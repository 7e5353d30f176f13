//! Engine persistence: warm-starting from on-disk snapshots.
//!
//! [`PcsEngine::save`] serializes the current epoch snapshot — graph,
//! taxonomy, profiles, core numbers, and the CP-tree's flat arenas —
//! through [`pcs_store`]'s versioned, checksummed container;
//! [`EngineBuilder::load`] does the inverse, producing an engine that
//! is indistinguishable from the one that saved: same epoch, same
//! answers, and the same mutability ([`PcsEngine::apply`] works on a
//! loaded engine exactly as on a built one, because the writer state is
//! materialized lazily from the current snapshot either way).
//!
//! Loading is *validate-then-bulk-copy*: the store layer's one reader
//! proves byte integrity (checksums) and structural soundness (CSR
//! invariants, arena invariants, cross-section agreement), after which
//! the arrays are adopted wholesale — no union-find, no peeling, no
//! per-label construction. That is what makes a warm start one to two
//! orders of magnitude cheaper than `EngineBuilder::build` with an eager
//! index. The index mode only decides how much of the file that reader
//! drains before `load` returns.

use std::path::Path;
use std::sync::{Arc, OnceLock};

use pcs_graph::core::CoreDecomposition;
use pcs_graph::GraphHandle;
use pcs_index::ShardedCpIndex;
use pcs_ptree::ProfilesHandle;

use crate::engine::{EngineBuilder, IndexMode, PcsEngine};
use crate::error::{BuildError, Error, Result};
use crate::snapshot::SnapshotInner;

impl PcsEngine {
    /// Writes the current epoch snapshot to `path` as a versioned,
    /// checksummed binary file (see `pcs_store` for the wire layout).
    ///
    /// What is saved is exactly what the current snapshot holds: the
    /// graph, taxonomy, and profiles always; the core decomposition
    /// always (computed first if no query has needed it yet — it is
    /// O(n + m) and makes the snapshot warm); the sharded index only
    /// if its facade is built, and then only its **resident** shards —
    /// `save` never triggers an index or shard build. Call
    /// [`warm`](PcsEngine::warm) first to persist a fully warmed
    /// engine; a partially warm save is still a faithful resume point
    /// (absent shards rebuild on demand after load).
    ///
    /// Concurrent updates are safe: the snapshot is one immutable
    /// epoch, so the file is internally consistent even if writers
    /// publish new epochs mid-save.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let snap = self.snapshot_arc();
        self.write_snapshot(&snap, path)
    }

    /// Serializes one pinned snapshot. Split out of
    /// [`save`](Self::save) so [`checkpoint`](Self::checkpoint) can
    /// write the *same* epoch it then uses as the WAL reclaim
    /// watermark, even if a concurrent applier publishes mid-write.
    pub(crate) fn write_snapshot(
        &self,
        snap: &SnapshotInner,
        path: impl AsRef<Path>,
    ) -> Result<()> {
        // A save is a full pass over the data anyway, so a lazily
        // loaded snapshot materializes here (typed errors if the
        // backing file is damaged) before the streaming writer runs.
        let graph = snap.materialized_graph()?;
        let profiles = snap.dense_profiles()?;
        let cores = snap.cores();
        // The streaming writer encodes one section at a time and
        // appends it straight to the file, so a save never holds a
        // second whole-snapshot buffer — the difference between "fits"
        // and "OOM" at scale 1.0.
        pcs_store::write_snapshot(
            path,
            snap.epoch,
            graph,
            self.taxonomy(),
            &profiles,
            Some(cores.core_numbers()),
            snap.index_if_built(),
        )
        .map_err(Into::into)
    }
}

impl EngineBuilder {
    /// Builds an engine from an on-disk snapshot instead of in-memory
    /// parts: the warm-start counterpart of
    /// [`build`](EngineBuilder::build).
    ///
    /// Configuration methods ([`index_mode`](EngineBuilder::index_mode),
    /// [`result_cache`](EngineBuilder::result_cache)) apply as usual; data methods must not have been called — a
    /// snapshot supplies the graph, taxonomy, and profiles, and mixing
    /// sources is rejected with [`BuildError::DataWithSnapshot`].
    ///
    /// The loaded engine resumes at the saved epoch
    /// (`engine.snapshot().epoch` picks up where the source left off),
    /// answers queries bit-identically to the source engine, and
    /// accepts [`apply`](PcsEngine::apply) exactly as a built engine
    /// does. The file is always opened the same way (container prefix
    /// validated with positioned reads); how much of it is drained
    /// before `load` returns follows the index mode:
    ///
    /// * [`IndexMode::Eager`] — everything: every section checksummed,
    ///   every profile chunk, member run and persisted shard decoded
    ///   and cross-validated, and any missing shard built here,
    ///   preserving the eager guarantee. The file is closed before
    ///   `load` returns ([`PcsEngine::snapshot_io`] is `None`).
    /// * [`IndexMode::Lazy`] — **deferred load**: META, the taxonomy,
    ///   and the profile/index directories decode now; the graph,
    ///   profile chunks, member runs, and shard payloads fault in on
    ///   first touch, and shards absent from the file rebuild from the
    ///   graph on demand. Time-to-first-query stays proportional to
    ///   the queried labels, even straight off disk.
    ///
    /// Corrupt, truncated, or version-skewed files fail with a typed
    /// [`pcs_store::StoreError`] (wrapped in
    /// [`Error::Store`](crate::Error::Store)) before any state is
    /// adopted — never a panic and never a silently wrong engine. A
    /// snapshot is a warm-start mechanism, not an authentication
    /// boundary: see `pcs_store`'s trust-model docs for what is
    /// re-validated versus writer-trusted.
    pub fn load(self, path: impl AsRef<Path>) -> Result<PcsEngine> {
        if self.graph.is_some() || self.tax.is_some() || !self.profiles.is_empty() {
            return Err(BuildError::DataWithSnapshot.into());
        }
        // One open for every mode: validates the container prefix
        // (magic, version, section table) with positioned reads.
        let src = Arc::new(pcs_store::FileSnapshot::open(path.as_ref())?);
        if self.index_mode != IndexMode::Eager {
            return self.load_lazy(src);
        }
        // The store layer validates structure and cross-section
        // agreement (the same invariants `build` checks, plus the
        // index↔profiles pin) and closes the file, so the parts are
        // adopted directly.
        let contents = pcs_store::load_eager(src)?;
        let cores_cell = Arc::new(OnceLock::new());
        if let Some(core) = contents.cores {
            let _ = cores_cell.set(CoreDecomposition::from_core_numbers(core));
        }
        let index_cell = OnceLock::new();
        if let Some(mut idx) = contents.index {
            idx.set_global_cores(Arc::clone(&cores_cell));
            let _ = index_cell.set(Ok(idx));
        }
        let snapshot = Arc::new(SnapshotInner {
            graph: GraphHandle::ready(contents.graph),
            profiles: ProfilesHandle::dense(contents.profiles),
            cores: cores_cell,
            index: index_cell,
            cache: None,
            fault: None,
            epoch: contents.epoch,
        });
        // Same assembly tail as `build`, so configuration defaults can
        // never drift between built and loaded engines (with Eager,
        // `assemble` warms the engine, materializing any shard the
        // file did not carry).
        self.assemble(contents.tax, snapshot)
    }

    /// The deferred-decode warm start: adopt META, the taxonomy, core
    /// numbers, and the profile/index directories now; leave the graph,
    /// profile chunks, member runs, and shard payloads on disk behind
    /// lazy handles. Time-to-first-query reads only the ranges that
    /// query touches (observable through
    /// [`PcsEngine::snapshot_io`]); damage in an untouched range costs
    /// nothing, damage in a touched one is a typed error on first
    /// touch.
    fn load_lazy(self, src: Arc<pcs_store::FileSnapshot>) -> Result<PcsEngine> {
        let lazy = pcs_store::open_lazy(Arc::clone(&src))?;
        let cores_cell = Arc::new(OnceLock::new());
        if let Some(core) = &lazy.cores {
            let _ = cores_cell.set(CoreDecomposition::from_core_numbers(core.as_ref().clone()));
        }
        let index_cell = OnceLock::new();
        if let Some(parts) = lazy.index {
            let mut idx = ShardedCpIndex::from_lazy_parts(
                lazy.graph.clone(),
                lazy.profiles.clone(),
                parts.member_lens,
                parts.members,
                Some(parts.shards),
            )
            .map_err(Error::Index)?;
            idx.set_global_cores(Arc::clone(&cores_cell));
            let _ = index_cell.set(Ok(idx));
        }
        let snapshot = Arc::new(SnapshotInner {
            graph: lazy.graph,
            profiles: lazy.profiles,
            cores: cores_cell,
            index: index_cell,
            cache: None,
            fault: Some(lazy.fault),
            epoch: lazy.meta.epoch,
        });
        let mut engine = self.assemble(lazy.tax, snapshot)?;
        engine.snapshot_source = Some(src);
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Error, IndexMode, PcsEngine, QueryRequest};
    use pcs_graph::Graph;
    use pcs_ptree::{PTree, Taxonomy};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("pcs-engine-{}-{name}.snapshot", std::process::id()))
    }

    fn small_engine(mode: IndexMode) -> PcsEngine {
        let mut tax = Taxonomy::new("r");
        let a = tax.add_child(Taxonomy::ROOT, "a").unwrap();
        let b = tax.add_child(a, "b").unwrap();
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]).unwrap();
        let profiles = vec![
            PTree::from_labels(&tax, [a]).unwrap(),
            PTree::from_labels(&tax, [b]).unwrap(),
            PTree::from_labels(&tax, [b]).unwrap(),
            PTree::from_labels(&tax, [a, b]).unwrap(),
            PTree::from_labels(&tax, [a]).unwrap(),
            PTree::root_only(), // isolated vertex
        ];
        PcsEngine::builder()
            .graph(g)
            .taxonomy(tax)
            .profiles(profiles)
            .index_mode(mode)
            .build()
            .unwrap()
    }

    #[test]
    fn save_load_round_trip_preserves_answers_and_epoch() {
        let engine = small_engine(IndexMode::Eager);
        engine.add_edge(0, 3).unwrap();
        assert_eq!(engine.epoch(), 1);
        let path = tmp("roundtrip");
        engine.save(&path).unwrap();
        let loaded = PcsEngine::builder().index_mode(IndexMode::Eager).load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        assert_eq!(loaded.epoch(), 1, "epoch resumes where the source left off");
        assert!(loaded.index_built(), "persisted index adopted without a rebuild");
        assert_eq!(loaded.resident_shards(), engine.resident_shards());
        assert_eq!(loaded.snapshot_io(), None, "an eager load keeps no file open");
        for q in 0..6u32 {
            for k in 1..4u32 {
                let a = engine.query(&QueryRequest::vertex(q).k(k)).unwrap();
                let b = loaded.query(&QueryRequest::vertex(q).k(k)).unwrap();
                assert_eq!(a.communities(), b.communities(), "q={q} k={k}");
            }
        }
        // The loaded engine is fully mutable: same update → same state.
        let ra = engine.remove_edge(2, 4).unwrap();
        let rb = loaded.remove_edge(2, 4).unwrap();
        assert_eq!(ra.epoch, rb.epoch);
        assert_eq!(
            engine.snapshot().cores().core_numbers(),
            loaded.snapshot().cores().core_numbers()
        );
    }

    #[test]
    fn lazy_save_omits_unbuilt_index_and_load_rebuilds_lazily() {
        let engine = small_engine(IndexMode::Lazy);
        assert!(!engine.index_built());
        let path = tmp("lazy");
        engine.save(&path).unwrap();
        let loaded = PcsEngine::builder().load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(!loaded.index_built(), "no index section, none adopted");
        // First indexed query builds it lazily, as on a built engine.
        let resp = loaded.query(&QueryRequest::vertex(0).k(2)).unwrap();
        assert!(resp.index_used);
        assert!(loaded.index_built());
    }

    #[test]
    fn mixing_data_and_snapshot_is_rejected() {
        let engine = small_engine(IndexMode::Lazy);
        let path = tmp("mixed");
        engine.save(&path).unwrap();
        let err =
            PcsEngine::builder().graph(Graph::from_edges(1, &[]).unwrap()).load(&path).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(err, Error::Build(crate::BuildError::DataWithSnapshot)));
    }

    #[test]
    fn missing_file_is_a_typed_io_error() {
        let err = PcsEngine::builder().load(tmp("never-written")).unwrap_err();
        assert!(matches!(err, Error::Store(pcs_store::StoreError::Io { op: "open", .. })));
    }
}
