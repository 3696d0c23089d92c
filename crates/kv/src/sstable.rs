//! Immutable sorted string tables.
//!
//! An SSTable is a file of concatenated [`Record`](crate::Record)s in
//! ascending key order. Files are small (≤ 1 MiB of encoded records per
//! file, within the filesystem's file-size limit) and fully loaded on
//! first access. A loaded table is byte-backed: it keeps the exact bytes
//! of its file plus the start offset of every record, and compaction
//! copies each winning record's encoded bytes verbatim into the new
//! tables. Lookups go through a hash index over the keys, built in memory
//! whenever a table is created (encoded, loaded or emitted by a merge)
//! and never written to the file, as in RocksDB's PlainTable format: a
//! get hashes the key once, probes the index and compares the one
//! candidate record's key, returning a slice into the bytes. Resident
//! tables stand in for RocksDB's block cache + the OS page cache, which
//! is what lets `readwhilewriting` sustain ~10⁵ ops/s on a disk that can
//! only do ~10³.

use crate::error::DbError;
use crate::record::{decode_parts, encode_parts, split_verified, RecordRef};
use deepnote_blockdev::BlockDevice;
use deepnote_fs::Filesystem;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Target maximum encoded size of one SSTable file.
pub const TARGET_FILE_BYTES: usize = 1 << 20;

/// An index slot that holds no record. An occupied slot is never 0: it
/// holds `tag << 32 | offset`, and every tag has its low bit set.
const EMPTY: u64 = 0;

/// An immutable sorted run: the encoded records of one SSTable file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SsTable {
    /// The file's bytes: concatenated, checksum-verified records.
    bytes: Vec<u8>,
    /// Start of each record in `bytes`, in key order.
    offsets: Vec<u32>,
    /// Open-addressing hash index over the keys, linearly probed: a
    /// power-of-two number of slots, at least twice the record count (so
    /// a probe always reaches an [`EMPTY`] slot) and under four times it
    /// (so ≤ 32 B per key). Each occupied slot holds a record's offset
    /// and the high half of its key's [`key_hash`] as a tag, so a probe
    /// reads a record's bytes only when the tags match. Host-only: never
    /// written to the file.
    slots: Vec<u64>,
}

impl SsTable {
    /// Encodes records, which must be strictly sorted by key, into an
    /// in-memory table; `None` values are tombstones.
    ///
    /// # Errors
    ///
    /// [`DbError::TooLarge`] if a key or value exceeds the record limit.
    pub fn from_sorted<'a>(
        records: impl IntoIterator<Item = RecordRef<'a>>,
    ) -> Result<SsTable, DbError> {
        let mut table = SsTable::default();
        for (key, value) in records {
            debug_assert!(
                table.max_key().is_none_or(|last| last < key),
                "SSTable records must be strictly sorted"
            );
            let start = u32::try_from(table.bytes.len()).map_err(|_| DbError::TooLarge)?;
            table.offsets.push(start);
            encode_parts(key, value, &mut table.bytes)?;
        }
        Ok(SsTable::indexed(table.bytes, table.offsets))
    }

    /// A table over `bytes`, whose records start at `offsets` with
    /// strictly ascending keys, with its hash index built.
    fn indexed(bytes: Vec<u8>, offsets: Vec<u32>) -> SsTable {
        let len = match offsets.len() {
            0 => 0,
            n => (2 * n).next_power_of_two(),
        };
        let mask = len.wrapping_sub(1);
        let mut slots = vec![EMPTY; len];
        for &offset in &offsets {
            let ((key, _), _) = split_verified(&bytes[offset as usize..]);
            let hash = key_hash(key);
            let mut at = hash as usize & mask;
            // Keys are unique, so each one takes a slot of its own.
            while slots[at] != EMPTY {
                at = (at + 1) & mask;
            }
            slots[at] = slot_tag(hash) << 32 | u64::from(offset);
        }
        SsTable {
            bytes,
            offsets,
            slots,
        }
    }

    /// Writes the table to a new file at `path`, replacing any file
    /// there. The caller is responsible for making the write durable
    /// (commit).
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn write<D: BlockDevice>(&self, fs: &mut Filesystem<D>, path: &str) -> Result<(), DbError> {
        if fs.exists(path) {
            fs.unlink(path)?;
        }
        fs.create_file(path)?;
        fs.write_file(path, 0, &self.bytes)?;
        Ok(())
    }

    /// Loads the table at `path`, verifying every record's checksum and
    /// the key order.
    ///
    /// # Errors
    ///
    /// [`DbError::Corruption`] on a malformed file; filesystem errors
    /// otherwise.
    pub fn load<D: BlockDevice>(fs: &mut Filesystem<D>, path: &str) -> Result<SsTable, DbError> {
        let size = fs.stat(path)?.size;
        let bytes = fs.read_file(path, 0, size as usize)?;
        let mut offsets = Vec::new();
        let mut sorted = true;
        let mut prev: Option<&[u8]> = None;
        let mut at = 0;
        while at < bytes.len() {
            let ((key, _), used) = decode_parts(&bytes[at..])?;
            sorted &= prev.is_none_or(|p| p < key);
            prev = Some(key);
            offsets.push(u32::try_from(at).map_err(|_| DbError::Corruption {
                what: format!("SSTable {path} exceeds 4 GiB"),
            })?);
            at += used;
        }
        if !sorted {
            return Err(DbError::Corruption {
                what: format!("SSTable {path} keys out of order"),
            });
        }
        Ok(SsTable::indexed(bytes, offsets))
    }

    /// Number of records (including tombstones).
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the table has no records.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Size of the encoded records, i.e. of the file.
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }

    /// The encoded bytes of record `i`.
    fn raw(&self, i: usize) -> &[u8] {
        let end = self
            .offsets
            .get(i + 1)
            .map_or(self.bytes.len(), |&o| o as usize);
        &self.bytes[self.offsets[i] as usize..end]
    }

    /// Record `i`.
    fn entry(&self, i: usize) -> RecordRef<'_> {
        split_verified(&self.bytes[self.offsets[i] as usize..]).0
    }

    /// The records in key order.
    pub fn iter(&self) -> impl Iterator<Item = RecordRef<'_>> {
        (0..self.len()).map(|i| self.entry(i))
    }

    /// First key, if any.
    pub fn min_key(&self) -> Option<&[u8]> {
        (!self.is_empty()).then(|| self.entry(0).0)
    }

    /// Last key, if any.
    pub fn max_key(&self) -> Option<&[u8]> {
        self.len().checked_sub(1).map(|i| self.entry(i).0)
    }

    /// Looks a key up in the hash index. `Some(None)` is a tombstone hit.
    pub fn get(&self, key: &[u8]) -> Option<Option<&[u8]>> {
        let hash = key_hash(key);
        let tag = slot_tag(hash);
        let mask = self.slots.len().wrapping_sub(1);
        let mut at = hash as usize & mask;
        loop {
            // An empty table has no slots: `get` answers `None`.
            let slot = *self.slots.get(at)?;
            if slot == EMPTY {
                return None;
            }
            if slot >> 32 == tag {
                let ((k, value), _) = split_verified(self.bytes.get(slot as u32 as usize..)?);
                if k == key {
                    return Some(value);
                }
            }
            at = (at + 1) & mask;
        }
    }
}

/// The index's hash of a key: FxHash's rotate-xor-multiply step over
/// little-endian 8-byte words, seeded with the length, then MurmurHash3's
/// 64-bit finalizer so that both the low bits (the home slot) and the
/// high bits (the tag) depend on every byte. Fixed, so every run builds
/// the same index.
fn key_hash(key: &[u8]) -> u64 {
    const K: u64 = 0x517C_C1B7_2722_0A95;
    let mix = |h: u64, word: &[u8]| {
        let mut w = [0u8; 8];
        w[..word.len()].copy_from_slice(word);
        (h.rotate_left(5) ^ u64::from_le_bytes(w)).wrapping_mul(K)
    };
    let mut h = (key.len() as u64).wrapping_mul(K);
    let mut words = key.chunks_exact(8);
    for word in &mut words {
        h = mix(h, word);
    }
    if !words.remainder().is_empty() {
        h = mix(h, words.remainder());
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ h >> 33
}

/// A key's tag in its index slot: the high half of its hash, low bit set
/// so that no occupied slot equals [`EMPTY`].
fn slot_tag(hash: u64) -> u64 {
    hash >> 32 | 1
}

/// Merges sorted runs, newest first, into tables for the bottom level:
/// the newest version of each key wins and tombstones are dropped. Each
/// winning record's encoded bytes are copied verbatim into output tables
/// of at most [`TARGET_FILE_BYTES`] each (a single larger record gets a
/// table of its own).
pub fn merge_to_bottom(runs: &[&SsTable]) -> Vec<SsTable> {
    // Min-heap of each run's next record: (key, run, record). Equal keys
    // pop newest run first; the older versions behind it are skipped.
    let mut heads: BinaryHeap<Reverse<(&[u8], usize, usize)>> = runs
        .iter()
        .enumerate()
        .filter_map(|(r, run)| run.min_key().map(|k| Reverse((k, r, 0))))
        .collect();
    let mut out = Vec::new();
    let (mut bytes, mut offsets) = (Vec::new(), Vec::<u32>::new());
    let mut last: Option<&[u8]> = None;
    while let Some(Reverse((key, r, i))) = heads.pop() {
        let run = runs[r];
        if i + 1 < run.len() {
            heads.push(Reverse((run.entry(i + 1).0, r, i + 1)));
        }
        if last == Some(key) {
            continue;
        }
        last = Some(key);
        let (_, value) = run.entry(i);
        if value.is_none() {
            continue;
        }
        let raw = run.raw(i);
        if bytes.len() + raw.len() > TARGET_FILE_BYTES && !offsets.is_empty() {
            out.push(SsTable::indexed(
                std::mem::take(&mut bytes),
                std::mem::take(&mut offsets),
            ));
        }
        // At most TARGET_FILE_BYTES: a fuller table was cut just above.
        offsets.push(bytes.len() as u32);
        bytes.extend_from_slice(raw);
    }
    if !offsets.is_empty() {
        out.push(SsTable::indexed(bytes, offsets));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;
    use deepnote_blockdev::MemDisk;
    use deepnote_sim::Clock;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn fs() -> Filesystem<MemDisk> {
        let mut fs = Filesystem::format(MemDisk::new(1 << 17), Clock::new()).unwrap();
        fs.create("/db").unwrap();
        fs
    }

    fn rec(k: &str, v: &str) -> Record {
        Record::put(k, v)
    }

    fn table(records: &[Record]) -> SsTable {
        SsTable::from_sorted(
            records
                .iter()
                .map(|r| (r.key.as_slice(), r.value.as_deref())),
        )
        .unwrap()
    }

    fn records(table: &SsTable) -> Vec<Record> {
        table
            .iter()
            .map(|(k, v)| Record {
                key: k.to_vec(),
                value: v.map(<[u8]>::to_vec),
            })
            .collect()
    }

    /// The lookup the hash index replaced, kept as the reference: a
    /// binary search over the records' offsets.
    fn search<'t>(table: &'t SsTable, key: &[u8]) -> Option<Option<&'t [u8]>> {
        let i = table.offsets.partition_point(|&o| {
            let ((k, _), _) = split_verified(&table.bytes[o as usize..]);
            k < key
        });
        let (k, value) = (i < table.len()).then(|| table.entry(i))?;
        (k == key).then_some(value)
    }

    /// The indexed `get` agrees with the reference search on every probe.
    fn assert_get_matches_search(table: &SsTable, probes: &[Vec<u8>]) {
        for key in probes {
            assert_eq!(table.get(key), search(table, key), "get({key:?})");
        }
    }

    /// The merge the byte-backed one replaced, kept as the reference:
    /// decode every run, let a `BTreeMap` keep the newest version of each
    /// key, then cut the result into files of at most
    /// [`TARGET_FILE_BYTES`].
    fn merge_runs(runs: &[&[Record]], keep_tombstones: bool) -> Vec<Record> {
        // Newest-wins: later runs in `runs` are older.
        let mut map = BTreeMap::new();
        for run in runs.iter().rev() {
            for rec in *run {
                map.insert(rec.key.clone(), rec.value.clone());
            }
        }
        map.into_iter()
            .filter(|(_, v)| keep_tombstones || v.is_some())
            .map(|(key, value)| Record { key, value })
            .collect()
    }

    fn split_into_files(records: Vec<Record>) -> Vec<Vec<Record>> {
        let mut files = Vec::new();
        let mut current = Vec::new();
        let mut bytes = 0usize;
        for rec in records {
            let len = rec.encoded_len();
            if bytes + len > TARGET_FILE_BYTES && !current.is_empty() {
                files.push(std::mem::take(&mut current));
                bytes = 0;
            }
            bytes += len;
            current.push(rec);
        }
        if !current.is_empty() {
            files.push(current);
        }
        files
    }

    fn reference_merge(runs: &[Vec<Record>]) -> Vec<Vec<Record>> {
        let refs: Vec<&[Record]> = runs.iter().map(Vec::as_slice).collect();
        split_into_files(merge_runs(&refs, false))
    }

    /// The byte-backed merge matches the reference record for record,
    /// byte for byte, and file boundary for file boundary.
    fn assert_merge_matches_reference(runs: &[Vec<Record>]) {
        let tables: Vec<SsTable> = runs.iter().map(|r| table(r)).collect();
        let refs: Vec<&SsTable> = tables.iter().collect();
        let merged = merge_to_bottom(&refs);
        let expected = reference_merge(runs);
        assert_eq!(merged.len(), expected.len(), "file count");
        for (n, (got, want)) in merged.iter().zip(&expected).enumerate() {
            let mut bytes = Vec::new();
            for rec in want {
                rec.encode_into(&mut bytes).unwrap();
            }
            // Not assert_eq!: a failure would print a megabyte of table.
            assert!(got.bytes == bytes, "file {n}: encoded bytes differ");
            assert!(*got == table(want), "file {n}: record offsets differ");
        }
    }

    #[test]
    fn write_load_get() {
        let mut fs = fs();
        let recs = vec![rec("a", "1"), Record::delete("b"), rec("c", "3")];
        let written = table(&recs);
        written.write(&mut fs, "/db/sst_0_1").unwrap();
        assert_eq!(written.len(), 3);
        let loaded = SsTable::load(&mut fs, "/db/sst_0_1").unwrap();
        assert_eq!(loaded, written);
        assert_eq!(records(&loaded), recs);
        assert_eq!(loaded.get(b"a"), Some(Some(b"1".as_ref())));
        assert_eq!(loaded.get(b"b"), Some(None)); // tombstone
        assert_eq!(loaded.get(b"x"), None);
        assert_eq!(loaded.get(b"0"), None);
        assert_eq!(loaded.get(b"bb"), None);
        assert_eq!(loaded.min_key(), Some(b"a".as_ref()));
        assert_eq!(loaded.max_key(), Some(b"c".as_ref()));
    }

    #[test]
    fn empty_table_has_no_keys() {
        let empty = SsTable::default();
        assert!(empty.is_empty());
        assert_eq!((empty.min_key(), empty.max_key()), (None, None));
        assert_eq!(empty.get(b"a"), None);
    }

    #[test]
    fn overwrite_replaces_file() {
        let mut fs = fs();
        table(&[rec("old", "x")]).write(&mut fs, "/db/s").unwrap();
        table(&[rec("new", "y")]).write(&mut fs, "/db/s").unwrap();
        let loaded = SsTable::load(&mut fs, "/db/s").unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded.get(b"new"), Some(Some(b"y".as_ref())));
    }

    #[test]
    fn merge_newest_wins_and_drops_tombstones_at_bottom() {
        let newest = table(&[rec("a", "new"), Record::delete("b")]);
        let oldest = table(&[rec("a", "old"), rec("b", "old"), rec("c", "keep")]);
        let merged = merge_to_bottom(&[&newest, &oldest]);
        assert_eq!(merged.len(), 1);
        assert_eq!(records(&merged[0]), vec![rec("a", "new"), rec("c", "keep")]);
        assert!(merge_to_bottom(&[&table(&[Record::delete("a")])]).is_empty());
        assert!(merge_to_bottom(&[]).is_empty());
    }

    #[test]
    fn split_respects_target_size() {
        let big_val = "v".repeat(300_000);
        let run: Vec<Record> = (0..8).map(|i| rec(&format!("k{i}"), &big_val)).collect();
        let files = merge_to_bottom(&[&table(&run)]);
        assert!(files.len() >= 3, "files = {}", files.len());
        for f in &files {
            assert!(f.encoded_len() <= TARGET_FILE_BYTES);
            assert!(!f.is_empty());
        }
        assert_merge_matches_reference(&[run]);
    }

    #[test]
    fn merge_matches_reference_across_overwrites_tombstones_and_empty_runs() {
        let runs = vec![
            vec![rec("b", "3"), Record::delete("c"), rec("e", "3")],
            Vec::new(),
            vec![rec("a", "2"), rec("c", "2"), Record::delete("d")],
            vec![rec("a", "1"), rec("b", "1"), rec("d", "1"), rec("f", "1")],
            Vec::new(),
        ];
        assert_merge_matches_reference(&runs);
    }

    #[test]
    fn merge_matches_reference_on_records_straddling_the_split() {
        // Records of ~100 KiB: the running total crosses 1 MiB mid-record,
        // and a record exactly at the limit starts a file of its own.
        let val = |n: usize| "x".repeat(n);
        let newer: Vec<Record> = (0..12)
            .map(|i| rec(&format!("k{i:02}"), &val(100_000 + i * 997)))
            .collect();
        let older: Vec<Record> = (0..24)
            .map(|i| {
                if i % 5 == 0 {
                    Record::delete(format!("k{i:02}"))
                } else {
                    rec(&format!("k{i:02}"), &val(90_000 + i * 3_001))
                }
            })
            .collect();
        let exact = vec![rec("z", &val(TARGET_FILE_BYTES - 13))];
        assert_merge_matches_reference(&[newer, older, exact]);
        // Two records of exactly half the limit share one file.
        let half = val(TARGET_FILE_BYTES / 2 - 13);
        assert_merge_matches_reference(&[vec![rec("a", &half), rec("b", &half)]]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Arbitrary overlapping runs, small and large values mixed so the
        /// output crosses the file split, merge exactly like the reference.
        #[test]
        fn merge_matches_reference_on_arbitrary_runs(
            runs in proptest::collection::vec(
                proptest::collection::vec(
                    (
                        0u8..40,
                        proptest::option::of(prop_oneof![0usize..64, 60_000usize..120_000]),
                    ),
                    0..20,
                ),
                0..6,
            )
        ) {
            let runs: Vec<Vec<Record>> = runs
                .iter()
                .enumerate()
                .map(|(r, run)| {
                    // Sorted and unique by key, as a run is.
                    let run: BTreeMap<u8, Option<usize>> = run.iter().copied().collect();
                    run.into_iter()
                        .map(|(k, v)| Record {
                            key: vec![b'k', k],
                            value: v.map(|n| vec![b'a' + r as u8; n]),
                        })
                        .collect()
                })
                .collect();
            assert_merge_matches_reference(&runs);
        }
    }

    /// Keys whose hash sends them to `slot` of an eight-slot index.
    fn keys_homed_at(slot: usize) -> impl Iterator<Item = Vec<u8>> {
        (0u32..)
            .map(|i| format!("w{i}").into_bytes())
            .filter(move |k| key_hash(k) as usize & 7 == slot)
    }

    #[test]
    fn probe_chain_wraps_past_the_last_slot() {
        // Four records get eight slots. Three keys homed at the last slot
        // fill it and spill into slots 0 and 1.
        let mut homed = keys_homed_at(7);
        let mut wrapped: Vec<Vec<u8>> = homed.by_ref().take(3).collect();
        let absent = homed.next().unwrap();
        let other = keys_homed_at(2).next().unwrap();
        let mut recs: Vec<Record> = wrapped
            .iter()
            .map(|k| Record::put(k.clone(), "v"))
            .collect();
        recs.push(Record::delete(other.clone()));
        recs.sort_by(|a, b| a.key.cmp(&b.key));
        let t = table(&recs);
        assert_eq!(t.slots.len(), 8);
        let slot_of = |key: &[u8]| {
            let i = t.iter().position(|(k, _)| k == key).unwrap();
            t.slots
                .iter()
                .position(|&s| s != EMPTY && s as u32 == t.offsets[i])
                .unwrap()
        };
        let mut placed: Vec<usize> = wrapped.iter().map(|k| slot_of(k)).collect();
        placed.sort_unstable();
        assert_eq!(placed, [0, 1, 7], "the chain wraps to slots 0 and 1");
        for key in &wrapped {
            assert_eq!(t.get(key), Some(Some(b"v".as_ref())));
        }
        assert_eq!(t.get(&other), Some(None));
        // A miss homed at the last slot walks the wrapped chain to slot 2
        // (taken by `other`) and on to the empty slot 3.
        assert_eq!(t.get(&absent), None);
        wrapped.extend([absent, other, Vec::new()]);
        assert_get_matches_search(&t, &wrapped);
    }

    /// Short keys over a two-letter alphabet, so the empty key and keys
    /// that are prefixes of each other turn up; or arbitrary bytes, long
    /// enough to cross several hash words.
    fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            proptest::collection::vec(b'a'..=b'b', 0..4),
            proptest::collection::vec(any::<u8>(), 0..24),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Tables built every way a table is built (encoded, written and
        /// loaded, and merged) answer every probe as the binary search
        /// does: present keys, tombstones, absent keys and the empty key.
        #[test]
        fn indexed_get_matches_binary_search(
            newer in proptest::collection::vec(
                (key_strategy(), proptest::option::of(proptest::collection::vec(any::<u8>(), 0..8))),
                0..48,
            ),
            older in proptest::collection::vec(
                (key_strategy(), proptest::option::of(proptest::collection::vec(any::<u8>(), 0..8))),
                0..48,
            ),
            absent in proptest::collection::vec(key_strategy(), 0..16),
        ) {
            // Sorted and unique by key, as a run is.
            let run = |entries: &[(Vec<u8>, Option<Vec<u8>>)]| -> Vec<Record> {
                let run: BTreeMap<_, _> = entries.iter().cloned().collect();
                run.into_iter().map(|(key, value)| Record { key, value }).collect()
            };
            let (newer, older) = (table(&run(&newer)), table(&run(&older)));
            let mut fs = fs();
            newer.write(&mut fs, "/db/s").unwrap();
            let loaded = SsTable::load(&mut fs, "/db/s").unwrap();
            prop_assert_eq!(&loaded, &newer);
            let mut tables = vec![newer.clone(), older.clone(), loaded];
            tables.extend(merge_to_bottom(&[&newer, &older]));
            let mut probes: Vec<Vec<u8>> = absent;
            probes.push(Vec::new());
            for t in [&newer, &older] {
                probes.extend(t.iter().map(|(k, _)| k.to_vec()));
            }
            for t in &tables {
                assert_get_matches_search(t, &probes);
            }
        }
    }

    #[test]
    fn corrupt_file_detected() {
        let mut fs = fs();
        table(&[rec("a", "1")]).write(&mut fs, "/db/s").unwrap();
        // Flip a byte in place.
        let mut raw = fs.read_file("/db/s", 0, 4096).unwrap();
        raw[8] ^= 0x55;
        fs.write_file("/db/s", 0, &raw).unwrap();
        assert!(matches!(
            SsTable::load(&mut fs, "/db/s"),
            Err(DbError::Corruption { .. })
        ));
    }

    #[test]
    fn out_of_order_file_detected() {
        let mut fs = fs();
        let mut raw = Vec::new();
        rec("b", "1").encode_into(&mut raw).unwrap();
        rec("a", "2").encode_into(&mut raw).unwrap();
        fs.create_file("/db/s").unwrap();
        fs.write_file("/db/s", 0, &raw).unwrap();
        assert_eq!(
            SsTable::load(&mut fs, "/db/s"),
            Err(DbError::Corruption {
                what: "SSTable /db/s keys out of order".into()
            })
        );
    }
}
