//! Inodes.
//!
//! Fixed 256-byte on-disk inodes with 12 direct block pointers and one
//! single-indirect pointer, ext2/3/4 style. Maximum file size is
//! `12·4 KiB + 512·4 KiB = 2 MiB` — ample for the paper's workloads while
//! keeping the code auditable.

use crate::error::FsError;
use crate::layout::{Reader, Writer, FS_BLOCK_SIZE, INODE_DISK_SIZE};
use serde::{Deserialize, Serialize};

/// Direct block pointers per inode.
pub const DIRECT_POINTERS: usize = 12;
/// Block pointers held by the single-indirect block.
pub const INDIRECT_POINTERS: usize = FS_BLOCK_SIZE / 8;
/// Maximum file size in bytes.
pub const MAX_FILE_SIZE: u64 = (DIRECT_POINTERS + INDIRECT_POINTERS) as u64 * FS_BLOCK_SIZE as u64;
/// Sentinel for an unallocated block pointer.
pub const NO_BLOCK: u64 = 0;

/// What an inode describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InodeKind {
    /// Unused inode slot.
    Free,
    /// A regular file.
    File,
    /// A directory.
    Directory,
}

impl InodeKind {
    fn to_u32(self) -> u32 {
        match self {
            InodeKind::Free => 0,
            InodeKind::File => 1,
            InodeKind::Directory => 2,
        }
    }

    fn from_u32(v: u32) -> Option<Self> {
        match v {
            0 => Some(InodeKind::Free),
            1 => Some(InodeKind::File),
            2 => Some(InodeKind::Directory),
            _ => None,
        }
    }
}

/// An inode: kind, size, link count, and block pointers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Inode {
    /// File or directory (or free slot).
    pub kind: InodeKind,
    /// Size in bytes.
    pub size: u64,
    /// Hard-link count (directories: 1; files: 1 — no hard links yet).
    pub links: u32,
    /// Direct data block pointers (fs block indices, 0 = none).
    pub direct: [u64; DIRECT_POINTERS],
    /// Single-indirect block pointer (0 = none).
    pub indirect: u64,
}

impl Inode {
    /// An empty inode of the given kind.
    pub fn empty(kind: InodeKind) -> Self {
        Inode {
            kind,
            size: 0,
            links: if kind == InodeKind::Free { 0 } else { 1 },
            direct: [NO_BLOCK; DIRECT_POINTERS],
            indirect: NO_BLOCK,
        }
    }

    /// Number of data blocks needed to hold `size` bytes.
    pub fn blocks_for(size: u64) -> u64 {
        size.div_ceil(FS_BLOCK_SIZE as u64)
    }

    /// Serializes into the fixed on-disk representation.
    pub fn to_bytes(&self) -> [u8; INODE_DISK_SIZE] {
        let mut buf = [0u8; INODE_DISK_SIZE];
        let mut w = Writer::new(&mut buf);
        w.u32(self.kind.to_u32());
        w.u32(self.links);
        w.u64(self.size);
        for &b in &self.direct {
            w.u64(b);
        }
        w.u64(self.indirect);
        buf
    }

    /// Parses the on-disk representation.
    ///
    /// # Errors
    ///
    /// [`FsError::BadSuperblock`] for a corrupt inode image.
    pub fn from_bytes(buf: &[u8]) -> Result<Inode, FsError> {
        if buf.len() < INODE_DISK_SIZE {
            return Err(FsError::BadSuperblock);
        }
        let mut r = Reader::new(buf);
        let parse = |r: &mut Reader| -> Option<(InodeKind, u32, u64, [u64; DIRECT_POINTERS], u64)> {
            let kind = InodeKind::from_u32(r.u32()?)?;
            let links = r.u32()?;
            let size = r.u64()?;
            let mut direct = [NO_BLOCK; DIRECT_POINTERS];
            for d in &mut direct {
                *d = r.u64()?;
            }
            Some((kind, links, size, direct, r.u64()?))
        };
        let (kind, links, size, direct, indirect) = parse(&mut r).ok_or(FsError::BadSuperblock)?;
        Ok(Inode {
            kind,
            size,
            links,
            direct,
            indirect,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_file_size_is_about_2mib() {
        assert_eq!(MAX_FILE_SIZE, (12 + 512) * 4096);
    }

    #[test]
    fn roundtrip() {
        let mut ino = Inode::empty(InodeKind::File);
        ino.size = 123_456;
        ino.direct[0] = 7_000;
        ino.direct[11] = 7_011;
        ino.indirect = 9_999;
        let parsed = Inode::from_bytes(&ino.to_bytes()).unwrap();
        assert_eq!(parsed, ino);
    }

    #[test]
    fn empty_inodes() {
        let f = Inode::empty(InodeKind::Free);
        assert_eq!(f.links, 0);
        let d = Inode::empty(InodeKind::Directory);
        assert_eq!(d.links, 1);
        assert_eq!(d.size, 0);
        assert!(d.direct.iter().all(|&b| b == NO_BLOCK));
    }

    #[test]
    fn blocks_for_rounds_up() {
        assert_eq!(Inode::blocks_for(0), 0);
        assert_eq!(Inode::blocks_for(1), 1);
        assert_eq!(Inode::blocks_for(4096), 1);
        assert_eq!(Inode::blocks_for(4097), 2);
    }

    #[test]
    fn corrupt_inode_rejected() {
        let mut buf = [0u8; INODE_DISK_SIZE];
        buf[0] = 99; // invalid kind
        assert!(Inode::from_bytes(&buf).is_err());
        assert!(Inode::from_bytes(&[0u8; 3]).is_err());
    }
}
