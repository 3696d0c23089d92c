//! Golden gate for the store's on-disk format and read path: a fixed
//! put/delete/flush/compact workload on a `MemDisk` must produce the same
//! device image, counters, virtual time and read-back values as the
//! committed digest, and a reopened store must fault its tables in with
//! the same device reads. Any change to the record encoding, the SSTable
//! layout, the file split, or the order tables are loaded in moves one of
//! the pinned numbers.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use deepnote_blockdev::{BlockDevice, MemDisk, BLOCK_SIZE};
use deepnote_kv::{Db, DbConfig, DbStats};
use deepnote_sim::{Clock, SimDuration};

/// FNV-1a 64 over everything the workload observes (see [`digest_run`]).
const GOLDEN_DIGEST: u64 = 0x827c_993a_b215_0318;
/// Device read requests issued by `Db::open` itself (manifest + WAL).
const GOLDEN_OPEN_READS: u64 = 1_032;
/// Device read requests the first `get` after open adds while faulting
/// tables in (L0 newest→oldest, then L1 in order up to the hit).
const GOLDEN_FIRST_GET_READS: u64 = 266;
/// Device read requests a following miss adds: the L1 tables past the
/// first hit, loaded in order.
const GOLDEN_MISS_READS: u64 = 157;

const KEYS: u64 = 4_000;

struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(0xCBF2_9CE4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn opt(&mut self, v: Option<&[u8]>) {
        match v {
            Some(v) => {
                self.u64(v.len() as u64);
                self.write(v);
            }
            None => self.u64(u64::MAX),
        }
    }
}

fn config() -> DbConfig {
    DbConfig {
        memtable_limit_bytes: 32 << 10,
        l0_compaction_trigger: 2,
        wal_sync_every_ops: 16,
        wal_patience: SimDuration::from_secs(81),
        cpu_op_cost: SimDuration::from_micros(8),
    }
}

fn key(i: u64) -> Vec<u8> {
    format!("key{i:06}").into_bytes()
}

/// Values of varying length so records straddle the 1 MiB file split.
fn value(i: u64, round: u64) -> Vec<u8> {
    let len = 200 + ((i * 37 + round * 11) % 7) as usize * 100;
    let mut v = format!("r{round}-v{i}-").into_bytes();
    v.resize(len, b'a' + (i % 26) as u8);
    v
}

fn hash_stats(h: &mut Fnv64, s: DbStats) {
    for v in [
        s.puts,
        s.gets,
        s.deletes,
        s.flushes,
        s.compactions,
        s.wal_syncs,
        s.user_bytes,
        s.flush_bytes,
        s.compaction_bytes,
    ] {
        h.u64(v);
    }
}

fn hash_device(h: &mut Fnv64, dev: &mut MemDisk) {
    const CHUNK: u64 = 256;
    let mut buf = vec![0u8; CHUNK as usize * BLOCK_SIZE];
    let mut lba = 0;
    while lba < dev.num_blocks() {
        let n = CHUNK.min(dev.num_blocks() - lba);
        let buf = &mut buf[..n as usize * BLOCK_SIZE];
        dev.read_blocks(lba, buf).unwrap();
        h.write(buf);
        lba += n;
    }
}

/// Runs the fixed workload and returns the digest plus the closed device.
fn digest_run(clock: &Clock) -> (u64, MemDisk) {
    let disk = MemDisk::with_latency(1 << 16, clock.clone(), SimDuration::from_micros(10));
    let mut db = Db::create_with(disk, clock.clone(), config()).unwrap();
    // Round 0: every key, in a scrambled order (forces flushes and
    // compactions into a multi-file L1).
    for n in 0..KEYS {
        let i = (n * 7_919) % KEYS;
        db.put(&key(i), &value(i, 0)).unwrap();
    }
    // Round 1: overwrite every third key, delete every fifth.
    for i in 0..KEYS {
        if i % 5 == 0 {
            db.delete(&key(i)).unwrap();
        } else if i % 3 == 0 {
            db.put(&key(i), &value(i, 1)).unwrap();
        }
    }
    db.flush().unwrap();
    db.compact().unwrap();
    // Round 2: a few writes left in L0 and the memtable, including a
    // resurrected deleted key and a delete of a key that lives in L1.
    for i in (0..KEYS).step_by(17) {
        db.put(&key(i), &value(i, 2)).unwrap();
    }
    db.flush().unwrap();
    for i in (1..KEYS).step_by(29) {
        db.delete(&key(i)).unwrap();
    }

    let mut h = Fnv64::new();
    for i in 0..KEYS + 10 {
        h.opt(db.get(&key(i)).unwrap().as_deref());
    }
    for (k, v) in db.scan(&key(1_000), &key(1_500)).unwrap() {
        h.write(&k);
        h.write(&v);
    }
    hash_stats(&mut h, db.stats());
    let mut dev = db.close().unwrap();
    h.u64(clock.now().as_nanos());
    hash_device(&mut h, &mut dev);
    (h.0, dev)
}

#[test]
fn workload_digest_matches_golden() {
    let clock = Clock::new();
    let (digest, _) = digest_run(&clock);
    assert_eq!(digest, GOLDEN_DIGEST, "digest = {digest:#018x}");
}

#[test]
fn lazy_fault_in_after_open_matches_golden() {
    let clock = Clock::new();
    let (_, dev) = digest_run(&clock);
    let before = dev.reads();
    let mut db = Db::open_with(dev, clock, config()).unwrap();
    let reads = |db: &Db<MemDisk>| db.filesystem().device().reads();
    let after_open = reads(&db);
    // A key overwritten in round 1 lives in the first L1 table; reaching
    // it faults in every L0 table and then that L1 table.
    assert_eq!(db.get(&key(303)).unwrap(), Some(value(303, 1)));
    let after_first_get = reads(&db);
    // A miss past every key loads the remaining L1 tables in order.
    assert_eq!(db.get(b"zzz").unwrap(), None);
    let after_miss = reads(&db);
    assert_eq!(
        (
            after_open - before,
            after_first_get - after_open,
            after_miss - after_first_get,
        ),
        (GOLDEN_OPEN_READS, GOLDEN_FIRST_GET_READS, GOLDEN_MISS_READS)
    );
    // Once every table is resident, reads are served without I/O.
    assert_eq!(db.get(b"zzz").unwrap(), None);
    assert_eq!(reads(&db), after_miss);
}
