//! Key-value record encoding shared by the WAL and SSTables.
//!
//! Wire format per record:
//!
//! ```text
//! | checksum: u32 | klen: u32 | vlen_tag: u32 | key | value |
//! ```
//!
//! `vlen_tag` is `value.len()` for a put and `u32::MAX` for a delete
//! (tombstone). The checksum is an FNV-1a over everything after it.

use crate::error::DbError;
use serde::{Deserialize, Serialize};

/// Maximum key or value length (1 MiB — matches practical LSM limits).
pub const MAX_LEN: usize = 1 << 20;

const TOMBSTONE_TAG: u32 = u32::MAX;

/// Bytes before the key: checksum, key length, value length/tag.
const HEADER_LEN: usize = 12;

/// A record borrowed from its encoding or from a memtable: the key and
/// the value, `None` for a tombstone.
pub type RecordRef<'a> = (&'a [u8], Option<&'a [u8]>);

/// One logical mutation: a put or a delete.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Record {
    /// The key.
    pub key: Vec<u8>,
    /// The value; `None` is a tombstone.
    pub value: Option<Vec<u8>>,
}

impl Record {
    /// A put record.
    pub fn put(key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) -> Self {
        Record {
            key: key.into(),
            value: Some(value.into()),
        }
    }

    /// A delete (tombstone) record.
    pub fn delete(key: impl Into<Vec<u8>>) -> Self {
        Record {
            key: key.into(),
            value: None,
        }
    }

    /// Encoded length in bytes.
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN + self.key.len() + self.value.as_ref().map_or(0, |v| v.len())
    }

    /// Bytes of useful payload (key + value), the unit Table 2's MB/s
    /// metric counts.
    pub fn payload_len(&self) -> usize {
        self.key.len() + self.value.as_ref().map_or(0, |v| v.len())
    }

    /// Appends the encoded record to `out`.
    ///
    /// # Errors
    ///
    /// [`DbError::TooLarge`] if key or value exceeds [`MAX_LEN`].
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), DbError> {
        encode_parts(&self.key, self.value.as_deref(), out)
    }

    /// Decodes one record from the front of `buf`, returning it and the
    /// number of bytes consumed.
    ///
    /// # Errors
    ///
    /// [`DbError::Corruption`] on truncation or checksum mismatch.
    pub fn decode_from(buf: &[u8]) -> Result<(Record, usize), DbError> {
        let ((key, value), used) = decode_parts(buf)?;
        Ok((
            Record {
                key: key.to_vec(),
                value: value.map(<[u8]>::to_vec),
            },
            used,
        ))
    }
}

/// Appends the encoding of a put (`Some` value) or a tombstone (`None`)
/// to `out`.
///
/// # Errors
///
/// [`DbError::TooLarge`] if key or value exceeds [`MAX_LEN`].
pub(crate) fn encode_parts(
    key: &[u8],
    value: Option<&[u8]>,
    out: &mut Vec<u8>,
) -> Result<(), DbError> {
    if key.len() > MAX_LEN || value.is_some_and(|v| v.len() > MAX_LEN) {
        return Err(DbError::TooLarge);
    }
    let vlen_tag = match value {
        Some(v) => v.len() as u32,
        None => TOMBSTONE_TAG,
    };
    let body_start = out.len() + 4;
    out.extend_from_slice(&[0u8; 4]); // checksum placeholder
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(&vlen_tag.to_le_bytes());
    out.extend_from_slice(key);
    if let Some(v) = value {
        out.extend_from_slice(v);
    }
    let sum = fnv1a(&out[body_start..]);
    out[body_start - 4..body_start].copy_from_slice(&sum.to_le_bytes());
    Ok(())
}

/// Verifies the record at the front of `buf` and borrows it, returning
/// its encoded length too.
///
/// # Errors
///
/// [`DbError::Corruption`] on truncation or checksum mismatch.
pub(crate) fn decode_parts(buf: &[u8]) -> Result<(RecordRef<'_>, usize), DbError> {
    let corrupt = |what: &str| DbError::Corruption { what: what.into() };
    if buf.len() < HEADER_LEN {
        return Err(corrupt("truncated record header"));
    }
    let (stored_sum, klen, vlen_tag) = header(buf);
    if klen > MAX_LEN {
        return Err(corrupt("key length out of range"));
    }
    let vlen = if vlen_tag == TOMBSTONE_TAG {
        0
    } else {
        vlen_tag as usize
    };
    if vlen > MAX_LEN {
        return Err(corrupt("value length out of range"));
    }
    let total = HEADER_LEN + klen + vlen;
    if buf.len() < total {
        return Err(corrupt("truncated record body"));
    }
    if fnv1a(&buf[4..total]) != stored_sum {
        return Err(corrupt("record checksum mismatch"));
    }
    Ok(split_parts(buf, klen, vlen_tag))
}

/// Borrows the record at the front of `buf`, which must already have
/// passed [`decode_parts`], returning its encoded length too.
pub(crate) fn split_verified(buf: &[u8]) -> (RecordRef<'_>, usize) {
    let (_, klen, vlen_tag) = header(buf);
    split_parts(buf, klen, vlen_tag)
}

/// Checksum, key length and value length/tag of a record header.
fn header(buf: &[u8]) -> (u32, usize, u32) {
    let le_u32 = |at: usize| u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]]);
    (le_u32(0), le_u32(4) as usize, le_u32(8))
}

fn split_parts(buf: &[u8], klen: usize, vlen_tag: u32) -> (RecordRef<'_>, usize) {
    let key_end = HEADER_LEN + klen;
    let key = &buf[HEADER_LEN..key_end];
    if vlen_tag == TOMBSTONE_TAG {
        ((key, None), key_end)
    } else {
        let end = key_end + vlen_tag as usize;
        ((key, Some(&buf[key_end..end])), end)
    }
}

/// FNV-1a 32-bit hash.
pub(crate) fn fnv1a(data: &[u8]) -> u32 {
    let mut hash: u32 = 0x811C_9DC5;
    for &b in data {
        hash ^= b as u32;
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_put_and_delete() {
        let mut buf = Vec::new();
        Record::put("alpha", "one").encode_into(&mut buf).unwrap();
        Record::delete("beta").encode_into(&mut buf).unwrap();
        let (first, used) = Record::decode_from(&buf).unwrap();
        let (second, rest) = Record::decode_from(&buf[used..]).unwrap();
        assert_eq!(first, Record::put("alpha", "one"));
        assert_eq!(second, Record::delete("beta"));
        assert_eq!(used + rest, buf.len());
    }

    #[test]
    fn corruption_detected() {
        let mut buf = Vec::new();
        Record::put("key", "value").encode_into(&mut buf).unwrap();
        buf[14] ^= 0xFF; // flip a body byte
        assert!(matches!(
            Record::decode_from(&buf),
            Err(DbError::Corruption { .. })
        ));
    }

    #[test]
    fn truncation_detected() {
        let mut buf = Vec::new();
        Record::put("key", "value").encode_into(&mut buf).unwrap();
        assert!(Record::decode_from(&buf[..buf.len() - 1]).is_err());
        assert!(Record::decode_from(&buf[..5]).is_err());
    }

    #[test]
    fn oversized_rejected() {
        let big = vec![0u8; MAX_LEN + 1];
        let mut buf = Vec::new();
        assert_eq!(
            Record::put(big.clone(), "v").encode_into(&mut buf),
            Err(DbError::TooLarge)
        );
        assert_eq!(
            Record::put("k", big).encode_into(&mut buf),
            Err(DbError::TooLarge)
        );
    }

    #[test]
    fn lengths_accounted() {
        let r = Record::put("1234", "567890");
        assert_eq!(r.payload_len(), 10);
        assert_eq!(r.encoded_len(), 22);
        let d = Record::delete("1234");
        assert_eq!(d.payload_len(), 4);
        assert_eq!(d.encoded_len(), 16);
    }

    proptest! {
        /// Arbitrary records round-trip through encode/decode.
        #[test]
        fn roundtrip_arbitrary(
            key in proptest::collection::vec(any::<u8>(), 0..100),
            value in proptest::option::of(proptest::collection::vec(any::<u8>(), 0..200)),
        ) {
            let rec = Record { key, value };
            let mut buf = Vec::new();
            rec.encode_into(&mut buf).unwrap();
            let (back, used) = Record::decode_from(&buf).unwrap();
            prop_assert_eq!(back, rec);
            prop_assert_eq!(used, buf.len());
        }
    }
}
