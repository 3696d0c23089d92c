//! The in-memory write buffer.

use crate::record::{Record, RecordRef};
use std::collections::BTreeMap;

/// An ordered in-memory buffer of the latest mutations, including
/// tombstones, with approximate size accounting for flush triggering.
#[derive(Debug, Default, Clone)]
pub struct Memtable {
    entries: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    approx_bytes: usize,
}

impl Memtable {
    /// An empty memtable.
    pub fn new() -> Self {
        Memtable::default()
    }

    /// Applies a put.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.apply(Record::put(key, value));
    }

    /// Applies a delete (records a tombstone).
    pub fn delete(&mut self, key: &[u8]) {
        self.apply(Record::delete(key));
    }

    /// Applies a record.
    pub fn apply(&mut self, rec: Record) {
        self.approx_bytes += rec.encoded_len();
        if let Some(old) = self.entries.insert(rec.key, rec.value) {
            // Rough accounting: drop the replaced value's weight.
            self.approx_bytes = self.approx_bytes.saturating_sub(old.map_or(0, |v| v.len()));
        }
    }

    /// Looks up a key. `Some(None)` means "deleted here" (tombstone);
    /// `None` means "not present in this memtable".
    pub fn get(&self, key: &[u8]) -> Option<Option<&[u8]>> {
        self.entries.get(key).map(|v| v.as_deref())
    }

    /// Number of distinct keys (including tombstones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the memtable holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate heap footprint, for flush triggering.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// The entries in key order, tombstones included (what an SSTable
    /// flush writes).
    pub fn iter(&self) -> impl Iterator<Item = RecordRef<'_>> {
        self.entries
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_deref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let mut m = Memtable::new();
        m.put(b"a", b"1");
        assert_eq!(m.get(b"a"), Some(Some(b"1".as_ref())));
        m.delete(b"a");
        assert_eq!(m.get(b"a"), Some(None)); // tombstone
        assert_eq!(m.get(b"b"), None); // unknown
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn overwrite_keeps_latest() {
        let mut m = Memtable::new();
        m.put(b"k", b"old");
        m.put(b"k", b"new");
        assert_eq!(m.get(b"k"), Some(Some(b"new".as_ref())));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iter_is_sorted_with_tombstones() {
        let mut m = Memtable::new();
        m.put(b"c", b"3");
        m.put(b"a", b"1");
        m.delete(b"b");
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(
            entries,
            vec![
                (b"a".as_ref(), Some(b"1".as_ref())),
                (b"b".as_ref(), None),
                (b"c".as_ref(), Some(b"3".as_ref())),
            ]
        );
    }

    #[test]
    fn size_accounting_grows() {
        let mut m = Memtable::new();
        assert_eq!(m.approx_bytes(), 0);
        m.put(b"key", &[0u8; 100]);
        assert!(m.approx_bytes() >= 100);
    }
}
