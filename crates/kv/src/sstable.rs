//! Immutable sorted string tables.
//!
//! An SSTable is a file of concatenated [`Record`](crate::Record)s in
//! ascending key order. Files are small (≤ 1 MiB of encoded records per
//! file, within the filesystem's file-size limit) and fully loaded on
//! first access. A loaded table is byte-backed: it keeps the exact bytes
//! of its file plus the start offset of every record, so a lookup
//! binary-searches those bytes and returns a slice into them, and
//! compaction copies each winning record's encoded bytes verbatim into
//! the new tables. Resident tables stand in for RocksDB's block cache +
//! the OS page cache, which is what lets `readwhilewriting` sustain
//! ~10⁵ ops/s on a disk that can only do ~10³.

use crate::error::DbError;
use crate::record::{decode_parts, encode_parts, split_verified, RecordRef};
use deepnote_blockdev::BlockDevice;
use deepnote_fs::Filesystem;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Target maximum encoded size of one SSTable file.
pub const TARGET_FILE_BYTES: usize = 1 << 20;

/// An immutable sorted run: the encoded records of one SSTable file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SsTable {
    /// The file's bytes: concatenated, checksum-verified records.
    bytes: Vec<u8>,
    /// Start of each record in `bytes`, in key order.
    offsets: Vec<u32>,
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
        Ok(table)
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
        Ok(SsTable { bytes, offsets })
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

    /// Binary-searches for a key. `Some(None)` is a tombstone hit.
    pub fn get(&self, key: &[u8]) -> Option<Option<&[u8]>> {
        let i = self.offsets.partition_point(|&o| {
            let ((k, _), _) = split_verified(&self.bytes[o as usize..]);
            k < key
        });
        let (k, value) = (i < self.len()).then(|| self.entry(i))?;
        (k == key).then_some(value)
    }
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
    let mut current = SsTable::default();
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
        if current.bytes.len() + raw.len() > TARGET_FILE_BYTES && !current.is_empty() {
            out.push(std::mem::take(&mut current));
        }
        // At most TARGET_FILE_BYTES: a fuller table was cut just above.
        current.offsets.push(current.bytes.len() as u32);
        current.bytes.extend_from_slice(raw);
    }
    if !current.is_empty() {
        out.push(current);
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
