//! The vibration-aware HDD block device.
//!
//! [`HddDisk`] pairs a sparse byte store with the mechanical
//! [`HardDiskDrive`] model: every request is timed (and possibly failed)
//! by the drive, so anything running on top — filesystem, database,
//! benchmark — experiences the acoustic attack exactly as the drive does.

use crate::device::{check_request, BlockDevice, BLOCK_SIZE};
use crate::error::IoError;
use deepnote_acoustics::{OperatingPoint, TransferPathTable};
use deepnote_hdd::{DiskOp, HardDiskDrive, VibrationInput};
use deepnote_sim::{Clock, SimTime};
use deepnote_telemetry::{Layer, Tracer, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A block device backed by the mechanical drive model.
///
/// # Example
///
/// ```
/// use deepnote_blockdev::{BlockDevice, HddDisk};
/// use deepnote_sim::Clock;
///
/// let clock = Clock::new();
/// let mut disk = HddDisk::barracuda_500gb(clock.clone());
/// let buf = vec![7u8; 4096];
/// disk.write_blocks(0, &buf)?;
/// assert!(clock.now().as_nanos() > 0); // the op took mechanical time
/// # Ok::<(), deepnote_blockdev::IoError>(())
/// ```
#[derive(Debug)]
pub struct HddDisk {
    drive: HardDiskDrive,
    blocks: BTreeMap<u64, Box<[u8; BLOCK_SIZE]>>,
    read_errors: u64,
    write_errors: u64,
    tracer: Tracer,
    track: u32,
    /// Precomputed servo residuals for steady-state tones, plus the
    /// operating-point template (distance/water/context of this disk's
    /// position) the lookup key is minted from. See
    /// [`HddDisk::set_transfer_cache`].
    transfer: Option<(Arc<TransferPathTable<f64>>, OperatingPoint)>,
}

impl HddDisk {
    /// Wraps an existing drive.
    pub fn new(drive: HardDiskDrive) -> Self {
        HddDisk {
            drive,
            blocks: BTreeMap::new(),
            read_errors: 0,
            write_errors: 0,
            tracer: Tracer::disabled(),
            track: 0,
            transfer: None,
        }
    }

    /// The paper's Barracuda on the given clock.
    pub fn barracuda_500gb(clock: Clock) -> Self {
        HddDisk::new(HardDiskDrive::barracuda_500gb(clock))
    }

    /// A nearline enterprise drive with RV compensation (§5 "HDD types").
    pub fn nearline_4tb(clock: Clock) -> Self {
        HddDisk::new(HardDiskDrive::nearline_4tb(clock))
    }

    /// The underlying mechanical drive.
    pub fn drive(&self) -> &HardDiskDrive {
        &self.drive
    }

    /// The drive's vibration input — clone this to mount the attack.
    pub fn vibration(&self) -> VibrationInput {
        self.drive.vibration().clone()
    }

    /// Failed read requests so far.
    pub fn read_errors(&self) -> u64 {
        self.read_errors
    }

    /// Failed write requests so far.
    pub fn write_errors(&self) -> u64 {
        self.write_errors
    }

    /// Attaches a tracer; events carry `track` (the owning node's id).
    /// Degraded I/O (retries, errors) lands on the `hdd` layer, request
    /// failures on the `blockdev` layer. Timestamps are this device's
    /// private clock; the node's dispatch offset maps them onto the
    /// cluster timeline.
    pub fn set_tracer(&mut self, tracer: Tracer, track: u32) {
        self.tracer = tracer;
        self.track = track;
    }

    /// Installs a precomputed servo-residual table for this disk's
    /// position. `at` is the operating-point template (the disk's
    /// distance, water, and context); lookups substitute the current
    /// vibration's frequency into it. Trace annotations then answer
    /// steady-state tones from the table instead of re-walking the
    /// servo response per traced op — with a bit-identical fallback on
    /// misses, so traces are unchanged either way.
    pub fn set_transfer_cache(&mut self, table: Arc<TransferPathTable<f64>>, at: OperatingPoint) {
        self.transfer = Some((table, at));
    }

    /// Residual off-track (nm) under the current vibration: cached for
    /// precomputed tones, recomputed otherwise, `0.0` when quiescent.
    pub fn residual_offtrack_nm(&self) -> f64 {
        let Some(v) = self.drive.vibration().current() else {
            return 0.0;
        };
        match &self.transfer {
            Some((table, at)) => self.drive.servo().residual_offtrack_cached(
                table,
                &at.with_frequency(v.frequency()),
                &v,
            ),
            None => self.drive.servo().residual_offtrack_nm(&v),
        }
    }

    /// One degraded or failed mechanical op, as an hdd-layer span from
    /// dispatch to completion with the servo state that explains it.
    fn trace_io(&self, op: &'static str, t0: SimTime, retries: u64, outcome: &'static str) {
        if !self.tracer.enabled(Layer::Hdd) {
            return;
        }
        let now = self.drive.clock().now();
        let offtrack_nm = self.residual_offtrack_nm();
        self.tracer.span(
            Layer::Hdd,
            self.track,
            "degraded_io",
            t0,
            now.saturating_duration_since(t0),
            vec![
                ("op", Value::Str(op)),
                ("outcome", Value::Str(outcome)),
                ("retries", Value::U64(retries)),
                ("offtrack_nm", Value::F64(offtrack_nm)),
            ],
        );
    }

    /// A blockdev-layer instant for a request the drive failed.
    fn trace_error(&self, op: &'static str, lba: u64, error: IoError) {
        if !self.tracer.enabled(Layer::Blockdev) {
            return;
        }
        self.tracer.instant(
            Layer::Blockdev,
            self.track,
            "io_error",
            self.drive.clock().now(),
            vec![
                ("op", Value::Str(op)),
                ("lba", Value::U64(lba)),
                ("error", Value::Text(format!("{error:?}"))),
            ],
        );
    }
}

impl BlockDevice for HddDisk {
    fn num_blocks(&self) -> u64 {
        self.drive.geometry().total_sectors()
    }

    fn read_blocks(&mut self, lba: u64, buf: &mut [u8]) -> Result<(), IoError> {
        let blocks = check_request(self.num_blocks(), lba, buf.len())?;
        let t0 = self.drive.clock().now();
        match self.drive.execute(DiskOp::read(lba, blocks)) {
            Ok(report) => {
                if report.retries > 0 {
                    self.trace_io("read", t0, u64::from(report.retries), "recovered");
                }
            }
            Err(e) => {
                self.read_errors += 1;
                self.trace_io("read", t0, 0, "error");
                let io: IoError = e.into();
                self.trace_error("read", lba, io);
                return Err(io);
            }
        }
        for i in 0..blocks {
            let dst = &mut buf[(i as usize) * BLOCK_SIZE..][..BLOCK_SIZE];
            match self.blocks.get(&(lba + i)) {
                Some(data) => dst.copy_from_slice(&data[..]),
                None => dst.fill(0),
            }
        }
        Ok(())
    }

    fn write_blocks(&mut self, lba: u64, buf: &[u8]) -> Result<(), IoError> {
        let blocks = check_request(self.num_blocks(), lba, buf.len())?;
        let t0 = self.drive.clock().now();
        match self.drive.execute(DiskOp::write(lba, blocks)) {
            Ok(report) => {
                if report.retries > 0 {
                    self.trace_io("write", t0, u64::from(report.retries), "recovered");
                }
            }
            Err(e) => {
                self.write_errors += 1;
                self.trace_io("write", t0, 0, "error");
                let io: IoError = e.into();
                self.trace_error("write", lba, io);
                return Err(io);
            }
        }
        for i in 0..blocks {
            let src = &buf[(i as usize) * BLOCK_SIZE..][..BLOCK_SIZE];
            let mut block = Box::new([0u8; BLOCK_SIZE]);
            block.copy_from_slice(src);
            self.blocks.insert(lba + i, block);
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), IoError> {
        // The model writes through; a flush is a (fast) no-op command.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepnote_acoustics::Frequency;
    use deepnote_hdd::VibrationState;

    #[test]
    fn roundtrip_and_mechanical_time() {
        let clock = Clock::new();
        let mut disk = HddDisk::barracuda_500gb(clock.clone());
        let data = vec![0x5Au8; 4096];
        disk.write_blocks(100, &data).unwrap();
        let mut out = vec![0u8; 4096];
        disk.read_blocks(100, &mut out).unwrap();
        assert_eq!(out, data);
        // Both ops paid command overhead (~0.2 ms each) plus a seek for
        // the first op's positioning.
        assert!(clock.now().as_millis_f64() >= 0.3, "t = {}", clock.now());
    }

    #[test]
    fn unwritten_reads_zero() {
        let clock = Clock::new();
        let mut disk = HddDisk::barracuda_500gb(clock);
        let mut out = vec![0xFFu8; 512];
        disk.read_blocks(42, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn attack_makes_device_unresponsive() {
        let clock = Clock::new();
        let mut disk = HddDisk::barracuda_500gb(clock);
        disk.vibration()
            .set(Some(VibrationState::new(Frequency::from_hz(650.0), 0.5)));
        let buf = vec![0u8; 4096];
        assert_eq!(disk.write_blocks(0, &buf).unwrap_err(), IoError::NoResponse);
        assert_eq!(disk.write_errors(), 1);
        // Stop the attack: the device recovers.
        disk.vibration().clear();
        assert!(disk.write_blocks(0, &buf).is_ok());
    }

    #[test]
    fn data_not_modified_by_failed_write() {
        let clock = Clock::new();
        let mut disk = HddDisk::barracuda_500gb(clock);
        let original = vec![1u8; 512];
        disk.write_blocks(5, &original).unwrap();
        disk.vibration()
            .set(Some(VibrationState::new(Frequency::from_hz(650.0), 0.5)));
        assert!(disk.write_blocks(5, &vec![2u8; 512]).is_err());
        disk.vibration().clear();
        let mut out = vec![0u8; 512];
        disk.read_blocks(5, &mut out).unwrap();
        assert_eq!(out, original);
    }

    #[test]
    fn out_of_range_detected_before_mechanics() {
        let clock = Clock::new();
        let mut disk = HddDisk::barracuda_500gb(clock.clone());
        let n = disk.num_blocks();
        let t0 = clock.now();
        assert_eq!(
            disk.write_blocks(n, &vec![0u8; 512]).unwrap_err(),
            IoError::OutOfRange
        );
        assert_eq!(clock.now(), t0);
    }
}
