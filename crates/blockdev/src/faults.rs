//! Deterministic fault injection.
//!
//! [`FaultInjector`] wraps any [`BlockDevice`] and fails requests
//! according to a scripted [`FaultPlan`] — used to test
//! filesystem/database error paths (journal aborts, WAL sync failures)
//! without bringing up the whole acoustic stack. For *probabilistic*
//! faults (bursts, bit flips, torn writes) see
//! [`ChaosInjector`](crate::ChaosInjector).

use crate::device::BlockDevice;
use crate::error::IoError;

/// When and how the injector fails requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlan {
    /// Never fail (pass-through).
    None,
    /// Fail every request from the `start`-th request onward (0-based,
    /// counting reads and writes together).
    FailFrom {
        /// Index of the first failing request.
        start: u64,
        /// The error to return.
        error: IoError,
    },
    /// Fail only write requests from the `start`-th write onward.
    FailWritesFrom {
        /// Index of the first failing write.
        start: u64,
        /// The error to return.
        error: IoError,
    },
}

/// A wrapper injecting faults into an inner device.
///
/// # Example
///
/// ```
/// use deepnote_blockdev::{BlockDevice, FaultInjector, FaultPlan, IoError, MemDisk};
///
/// let mut d = FaultInjector::new(
///     MemDisk::new(64),
///     FaultPlan::FailFrom { start: 1, error: IoError::NoResponse },
/// );
/// let buf = vec![0u8; 512];
/// assert!(d.write_blocks(0, &buf).is_ok());        // request 0 passes
/// assert!(d.write_blocks(1, &buf).is_err());       // request 1 fails
/// ```
#[derive(Debug)]
pub struct FaultInjector<D> {
    inner: D,
    plan: FaultPlan,
    requests: u64,
    writes: u64,
    injected: u64,
}

impl<D: BlockDevice> FaultInjector<D> {
    /// Wraps `inner`, failing requests as `plan` says.
    pub fn new(inner: D, plan: FaultPlan) -> Self {
        FaultInjector {
            inner,
            plan,
            requests: 0,
            writes: 0,
            injected: 0,
        }
    }

    /// Replaces the plan mid-run (e.g. start failing after setup).
    /// Request counts carry over.
    pub fn set_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    /// Number of injected failures so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Consumes the injector, returning the wrapped device.
    pub fn into_inner(self) -> D {
        self.inner
    }

    fn check(&mut self, is_write: bool) -> Result<(), IoError> {
        let fault = match self.plan {
            FaultPlan::None => None,
            FaultPlan::FailFrom { start, error } => (self.requests >= start).then_some(error),
            FaultPlan::FailWritesFrom { start, error } => {
                (is_write && self.writes >= start).then_some(error)
            }
        };
        self.requests += 1;
        if is_write {
            self.writes += 1;
        }
        match fault {
            Some(e) => {
                self.injected += 1;
                Err(e)
            }
            None => Ok(()),
        }
    }
}

impl<D: BlockDevice> BlockDevice for FaultInjector<D> {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_blocks(&mut self, lba: u64, buf: &mut [u8]) -> Result<(), IoError> {
        self.check(false)?;
        self.inner.read_blocks(lba, buf)
    }

    fn write_blocks(&mut self, lba: u64, buf: &[u8]) -> Result<(), IoError> {
        self.check(true)?;
        self.inner.write_blocks(lba, buf)
    }

    fn flush(&mut self) -> Result<(), IoError> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EIO;
    use crate::mem::MemDisk;

    #[test]
    fn passthrough_when_no_plan() {
        let mut d = FaultInjector::new(MemDisk::new(16), FaultPlan::None);
        let buf = vec![3u8; 512];
        d.write_blocks(2, &buf).unwrap();
        let mut out = vec![0u8; 512];
        d.read_blocks(2, &mut out).unwrap();
        assert_eq!(out, buf);
        assert_eq!(d.injected(), 0);
    }

    #[test]
    fn fail_from_counts_all_requests() {
        let mut d = FaultInjector::new(
            MemDisk::new(16),
            FaultPlan::FailFrom {
                start: 2,
                error: IoError::NoResponse,
            },
        );
        let buf = vec![0u8; 512];
        let mut out = vec![0u8; 512];
        assert!(d.write_blocks(0, &buf).is_ok()); // 0
        assert!(d.read_blocks(0, &mut out).is_ok()); // 1
        assert!(d.write_blocks(0, &buf).is_err()); // 2
        assert!(d.read_blocks(0, &mut out).is_err()); // 3
        assert_eq!(d.injected(), 2);
    }

    #[test]
    fn fail_writes_only() {
        let mut d = FaultInjector::new(
            MemDisk::new(16),
            FaultPlan::FailWritesFrom {
                start: 0,
                error: IoError::Medium { errno: EIO },
            },
        );
        let buf = vec![0u8; 512];
        let mut out = vec![0u8; 512];
        assert!(d.write_blocks(0, &buf).is_err());
        assert!(d.read_blocks(0, &mut out).is_ok());
    }

    #[test]
    fn plan_can_change_mid_run() {
        let mut d = FaultInjector::new(MemDisk::new(16), FaultPlan::None);
        let buf = vec![0u8; 512];
        assert!(d.write_blocks(0, &buf).is_ok());
        d.set_plan(FaultPlan::FailFrom {
            start: 0,
            error: IoError::NoResponse,
        });
        assert!(d.write_blocks(0, &buf).is_err());
        assert_eq!(d.into_inner().writes(), 1);
    }
}
