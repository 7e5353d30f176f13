//! A replica never serves a write its primary did not acknowledge.
//!
//! `Wal::append_durable` writes the whole frame before it fsyncs. If the
//! fsync fails, `apply` returns an error and publishes nothing, but the
//! complete frame stays in the segment file. A follower fed from the raw
//! segment files would replay it. The `/wal` feed stops at the WAL's
//! durable epoch, so an `HttpFollower` must not.

use pcs::prelude::*;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn http_follower_skips_a_frame_whose_fsync_failed() {
    let mut tax = Taxonomy::new("r");
    let a = tax.add_child(Taxonomy::ROOT, "a").unwrap();
    let b = tax.add_child(Taxonomy::ROOT, "b").unwrap();
    let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
    let profiles: Vec<PTree> = (0..6)
        .map(|v| PTree::from_labels(&tax, [if v % 2 == 0 { a } else { b }]).unwrap())
        .collect();
    let dir = std::env::temp_dir().join(format!("pcs-unacked-write-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let primary = Arc::new(
        PcsEngine::builder()
            .graph(g)
            .taxonomy(tax.clone())
            .profiles(profiles)
            .durable(&dir)
            .build()
            .unwrap(),
    );
    let cfg =
        ServeConfig { workers: 2, read_timeout: Duration::from_secs(5), ..ServeConfig::default() };
    let server = PcsServer::start(Arc::clone(&primary), "127.0.0.1:0", cfg).unwrap();
    let seed = PcsEngine::builder().load(dir.join(pcs::engine::SNAPSHOT_FILE)).unwrap();
    let mut follower = HttpFollower::new(seed, server.local_addr(), ReplicaConfig::default());

    // Two acknowledged writes replicate.
    primary.apply(&UpdateBatch::new().add_edge(3, 5)).unwrap();
    primary
        .apply(&UpdateBatch::new().set_profile(1, PTree::from_labels(&tax, [a]).unwrap()))
        .unwrap();
    assert_eq!(follower.poll().unwrap(), 2);

    // The third write's frame reaches the file, then the fsync "fails".
    pcs::store::faults::arm("wal.before_fsync");
    assert!(primary.apply(&UpdateBatch::new().add_edge(0, 5)).is_err());
    assert_eq!(pcs::store::faults::armed_count(), 0, "the kill point was reached");
    assert_eq!(primary.epoch(), 2, "a failed write publishes nothing");
    assert_eq!(primary.durable_epoch(), Some(2));
    // The frame is on disk all the same: the test would prove nothing
    // if the failed append had left no record behind.
    let on_disk =
        pcs::store::wal::read_records_since(&dir.join(pcs::engine::WAL_DIR), 2, u64::MAX, u64::MAX)
            .unwrap();
    assert_eq!(on_disk.iter().map(|r| r.epoch).collect::<Vec<_>>(), vec![3]);

    assert_eq!(follower.poll().unwrap(), 0, "the unacknowledged epoch must not replicate");
    assert_eq!(follower.epoch(), primary.epoch());
    for q in 0..6 {
        let f = follower.engine().query(&QueryRequest::vertex(q).k(2)).unwrap();
        let p = primary.query(&QueryRequest::vertex(q).k(2)).unwrap();
        let members = |r: &QueryResponse| {
            r.communities().iter().map(|c| c.vertices.clone()).collect::<Vec<_>>()
        };
        assert_eq!(members(&f), members(&p), "q {q}");
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
