//! A full disk is not a crash: when a memtable flush or a compaction
//! runs out of space, the store stays open and must still serve every
//! key whose write it acknowledged.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use deepnote_blockdev::MemDisk;
use deepnote_fs::FsError;
use deepnote_kv::{Db, DbConfig, DbError};
use deepnote_sim::Clock;

fn key(i: u64) -> Vec<u8> {
    format!("key{i:012}").into_bytes()
}

fn value(i: u64) -> Vec<u8> {
    let mut v = format!("value-{i}-").into_bytes();
    v.resize(100, b'v');
    v
}

/// Puts until the first error on a 20 MB disk, then checks that the
/// error is `NoSpace`, that the store is open, and that every
/// acknowledged key reads back.
fn fill_until_no_space(memtable_limit_bytes: usize, l0_compaction_trigger: usize) {
    let config = DbConfig {
        memtable_limit_bytes,
        l0_compaction_trigger,
        wal_sync_every_ops: 8,
        ..DbConfig::default()
    };
    let mut db = Db::create_with(MemDisk::new(40_000), Clock::new(), config).unwrap();
    let mut acked = 0;
    let err = loop {
        match db.put(&key(acked), &value(acked)) {
            Ok(()) => acked += 1,
            Err(e) => break e,
        }
        assert!(acked < 1_000_000, "the disk never filled up");
    };
    assert_eq!(err, DbError::Fs(FsError::NoSpace), "after {acked} puts");
    assert!(!db.crashed());
    let lost = (0..acked)
        .filter(|&i| db.get(&key(i)).unwrap() != Some(value(i)))
        .count();
    assert_eq!(lost, 0, "{lost} of {acked} acknowledged keys lost");
}

#[test]
fn no_space_during_compaction_keeps_acknowledged_keys() {
    fill_until_no_space(16 << 10, 2);
}

#[test]
fn no_space_during_flush_keeps_acknowledged_keys() {
    // No compaction: the disk fills with L0 tables until a flush fails
    // (large ones, so the lookups stay cheap).
    fill_until_no_space(256 << 10, usize::MAX);
}
