//! The op-level drive engine.
//!
//! [`HardDiskDrive`] services [`DiskOp`]s on virtual time. Each operation:
//!
//! 1. pays seek + rotational latency if it moved the actuator,
//! 2. pays the fixed command overhead,
//! 3. attempts the media transfer; under vibration each attempt succeeds
//!    with the on-track probability derived from the duty-cycle model,
//!    failed attempts pay the retry delay,
//! 4. gives up after `max_retries`, reporting [`DriveError::Unresponsive`].
//!
//! Two additional failure escalations reproduce the paper's observed
//! "no response" regime:
//!
//! * **Recovery escalation** — when the on-track duty falls below an
//!   empirical floor ([`RECOVERY_ESCALATION_DUTY`]) the drive's error
//!   recovery spirals (the servo's own position bursts are corrupted) and
//!   ops of both kinds are treated as guaranteed failures.
//! * **Shock parking** — accelerations above the shock-sensor threshold
//!   park the heads for the servo model's park duration.

use crate::geometry::DriveGeometry;
use crate::servo::ServoModel;
use crate::timing::TimingModel;
use crate::vibration::{ToleranceModel, VibrationInput, VibrationState};
use deepnote_sim::{Clock, SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Below this on-track duty (evaluated at the *read* tolerance, because
/// the servo's position bursts are themselves read like data) the drive's
/// error recovery escalates into recalibration storms and no operation of
/// either kind completes. Calibrated to Table 1's 1–5 cm blackout.
pub const RECOVERY_ESCALATION_DUTY: f64 = 0.55;

/// Kind of a disk operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DiskOpKind {
    /// Read sectors.
    Read,
    /// Write sectors.
    Write,
}

impl DiskOpKind {
    /// `true` for reads.
    pub fn is_read(self) -> bool {
        matches!(self, DiskOpKind::Read)
    }
}

impl fmt::Display for DiskOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskOpKind::Read => write!(f, "read"),
            DiskOpKind::Write => write!(f, "write"),
        }
    }
}

/// A disk operation: kind, starting LBA, sector count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DiskOp {
    /// Read or write.
    pub kind: DiskOpKind,
    /// Starting logical block address (sector index).
    pub lba: u64,
    /// Number of sectors.
    pub sectors: u64,
}

impl DiskOp {
    /// A read of `sectors` sectors starting at `lba`.
    pub fn read(lba: u64, sectors: u64) -> Self {
        DiskOp {
            kind: DiskOpKind::Read,
            lba,
            sectors,
        }
    }

    /// A write of `sectors` sectors starting at `lba`.
    pub fn write(lba: u64, sectors: u64) -> Self {
        DiskOp {
            kind: DiskOpKind::Write,
            lba,
            sectors,
        }
    }
}

/// Why a disk operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DriveError {
    /// The op exhausted all retries (or recovery escalated); the host sees
    /// no completion within the drive's internal deadline.
    Unresponsive {
        /// Virtual time burned before giving up.
        after_ms_x1000: u64,
    },
    /// The heads are parked after a shock event.
    HeadsParked,
    /// The LBA range does not exist on this drive.
    OutOfRange,
    /// Zero-length operation.
    EmptyOp,
}

impl fmt::Display for DriveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriveError::Unresponsive { after_ms_x1000 } => {
                write!(
                    f,
                    "drive unresponsive (gave up after {:.3} ms)",
                    *after_ms_x1000 as f64 / 1_000.0
                )
            }
            DriveError::HeadsParked => write!(f, "heads parked by shock sensor"),
            DriveError::OutOfRange => write!(f, "LBA range beyond end of device"),
            DriveError::EmptyOp => write!(f, "zero-length operation"),
        }
    }
}

impl std::error::Error for DriveError {}

/// A successful operation's accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpReport {
    /// Total service time.
    pub duration: SimDuration,
    /// Number of failed attempts before success.
    pub retries: u32,
}

/// The mechanical drive: geometry + timing + servo + tolerances, driven by
/// a shared clock and an externally imposed vibration.
///
/// # Example
///
/// ```
/// use deepnote_hdd::prelude::*;
/// use deepnote_sim::Clock;
/// use deepnote_acoustics::Frequency;
///
/// let clock = Clock::new();
/// let mut drive = HardDiskDrive::barracuda_500gb(clock.clone());
///
/// // Healthy drive: ops complete.
/// assert!(drive.execute(DiskOp::write(0, 8)).is_ok());
///
/// // Massive in-band vibration: the drive stops responding.
/// drive.vibration().set(Some(VibrationState::new(Frequency::from_hz(650.0), 0.5)));
/// assert!(drive.execute(DiskOp::write(0, 8)).is_err());
/// ```
#[derive(Debug)]
pub struct HardDiskDrive {
    geometry: DriveGeometry,
    timing: TimingModel,
    servo: ServoModel,
    tolerance: ToleranceModel,
    clock: Clock,
    vibration: VibrationInput,
    rng: SimRng,
    current_cylinder: u64,
    last_lba_end: Option<u64>,
    parked_until: Option<SimTime>,
    ops_completed: u64,
    ops_failed: u64,
    retries_total: u64,
}

impl HardDiskDrive {
    /// Builds a drive from parts.
    pub fn new(
        geometry: DriveGeometry,
        timing: TimingModel,
        servo: ServoModel,
        tolerance: ToleranceModel,
        clock: Clock,
        rng: SimRng,
    ) -> Self {
        HardDiskDrive {
            geometry,
            timing,
            servo,
            tolerance,
            clock,
            vibration: VibrationInput::quiescent(),
            rng,
            current_cylinder: 0,
            last_lba_end: None,
            parked_until: None,
            ops_completed: 0,
            ops_failed: 0,
            retries_total: 0,
        }
    }

    /// The paper's victim drive with typical servo and tolerances.
    pub fn barracuda_500gb(clock: Clock) -> Self {
        HardDiskDrive::new(
            DriveGeometry::barracuda_500gb(),
            TimingModel::barracuda_500gb(),
            ServoModel::typical(),
            ToleranceModel::typical(),
            clock,
            SimRng::new(),
        )
    }

    /// A nearline enterprise drive with RV-compensating servo — the §5
    /// "HDD types" comparison point. Data-center JBOD drives are built to
    /// tolerate the rotational vibration of 90 neighbours, which also
    /// blunts acoustic attacks.
    pub fn nearline_4tb(clock: Clock) -> Self {
        HardDiskDrive::new(
            DriveGeometry::nearline_4tb(),
            TimingModel::nearline_4tb(),
            ServoModel::enterprise_rv(),
            ToleranceModel::typical(),
            clock,
            SimRng::new(),
        )
    }

    /// Drive geometry.
    pub fn geometry(&self) -> &DriveGeometry {
        &self.geometry
    }

    /// Timing model.
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// Servo model.
    pub fn servo(&self) -> &ServoModel {
        &self.servo
    }

    /// Tolerance model.
    pub fn tolerance(&self) -> &ToleranceModel {
        &self.tolerance
    }

    /// The clock this drive advances while servicing ops.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The vibration input; clone it to drive the attack from outside.
    pub fn vibration(&self) -> &VibrationInput {
        &self.vibration
    }

    /// Operations completed successfully since construction.
    pub fn ops_completed(&self) -> u64 {
        self.ops_completed
    }

    /// Operations that failed since construction.
    pub fn ops_failed(&self) -> u64 {
        self.ops_failed
    }

    /// Retry attempts burned across all operations since construction —
    /// the leading indicator of acoustic degradation (retries climb well
    /// before ops start failing outright).
    pub fn retries_total(&self) -> u64 {
        self.retries_total
    }

    /// Per-attempt success probability for the current vibration, or
    /// `None` when recovery has escalated / heads parked (guaranteed
    /// failure). `Some(1.0)` when quiescent.
    pub fn attempt_success_probability(&self, kind: DiskOpKind) -> Option<f64> {
        let Some(v) = self.vibration.current() else {
            return Some(1.0);
        };
        attempt_probability(
            &self.geometry,
            &self.timing,
            &self.servo,
            &self.tolerance,
            &v,
            kind,
        )
    }

    /// Executes one operation, advancing the shared clock by its service
    /// time (including the time burned by failed attempts).
    ///
    /// # Errors
    ///
    /// * [`DriveError::OutOfRange`] / [`DriveError::EmptyOp`] for bad
    ///   requests (no time is consumed).
    /// * [`DriveError::HeadsParked`] while the shock sensor holds the
    ///   heads off the platter (consumes the remaining park time).
    /// * [`DriveError::Unresponsive`] when all retries are exhausted
    ///   (consumes the full timeout horizon).
    pub fn execute(&mut self, op: DiskOp) -> Result<OpReport, DriveError> {
        if op.sectors == 0 {
            return Err(DriveError::EmptyOp);
        }
        if op
            .lba
            .checked_add(op.sectors)
            .is_none_or(|end| end > self.geometry.total_sectors())
        {
            return Err(DriveError::OutOfRange);
        }

        // Shock parking: sustained over-threshold acceleration keeps the
        // heads unloaded.
        if let Some(v) = self.vibration.current() {
            if self.servo.triggers_shock_park(&v) {
                let until =
                    self.clock.now() + SimDuration::from_secs_f64(self.servo.park_duration_s());
                self.parked_until = Some(until);
            }
        }
        if let Some(until) = self.parked_until {
            if self.clock.now() < until {
                self.clock.advance_to(until);
                self.ops_failed += 1;
                return Err(DriveError::HeadsParked);
            }
            self.parked_until = None;
        }

        let read = op.kind.is_read();
        let start = self.clock.now();

        // Mechanical positioning. Contiguous sequential access uses the
        // drive's zero-latency track/head switching: no seek or rotation
        // charge even across a cylinder boundary. Writes acknowledged from
        // the drive's write cache don't charge the host for positioning
        // either (the media write still happens and can still fail).
        let sequential = self.last_lba_end == Some(op.lba) || (!read && self.timing.write_cache());
        let target_cyl = self.geometry.cylinder_of(op.lba);
        if !sequential {
            let seek_s = self
                .timing
                .seek_s(&self.geometry, self.current_cylinder, target_cyl);
            if seek_s > 0.0 {
                self.clock.advance(SimDuration::from_secs_f64(
                    seek_s + self.timing.rotational_latency_s(&self.geometry),
                ));
            }
        }
        self.current_cylinder = target_cyl;
        self.last_lba_end = Some(op.lba + op.sectors);

        // Command overhead.
        self.clock
            .advance(SimDuration::from_secs_f64(self.timing.overhead_s(read)));

        // Media transfer attempts.
        let transfer =
            SimDuration::from_secs_f64(self.timing.transfer_s(&self.geometry, op.sectors));
        let p = self.attempt_success_probability(op.kind);
        let retry_delay = SimDuration::from_secs_f64(self.timing.retry_delay_s(read));
        let mut retries = 0u32;
        loop {
            let success = match p {
                None => false,
                Some(p) => self.rng.chance(p),
            };
            if success {
                self.clock.advance(transfer);
                self.ops_completed += 1;
                return Ok(OpReport {
                    duration: self.clock.now() - start,
                    retries,
                });
            }
            retries += 1;
            self.retries_total += 1;
            self.clock.advance(retry_delay);
            if retries >= self.timing.max_retries() {
                self.ops_failed += 1;
                let burned = self.clock.now() - start;
                return Err(DriveError::Unresponsive {
                    after_ms_x1000: (burned.as_secs_f64() * 1e6) as u64,
                });
            }
        }
    }
}

/// Per-attempt on-track success probability under vibration `v`, shared by
/// the op engine and the closed-form throughput model.
///
/// Returns `None` when the drive cannot make progress at all: the heads
/// would park, or the on-track duty is below the recovery-escalation floor
/// for this op kind.
pub fn attempt_probability(
    geometry: &DriveGeometry,
    timing: &TimingModel,
    servo: &ServoModel,
    tolerance: &ToleranceModel,
    v: &VibrationState,
    kind: DiskOpKind,
) -> Option<f64> {
    if servo.triggers_shock_park(v) {
        return None;
    }
    let read = kind.is_read();
    let offtrack_nm = servo.residual_offtrack_nm(v);
    // Recovery escalation is keyed on the servo's ability to read its own
    // position bursts (the read tolerance), and blocks both op kinds.
    let servo_duty = tolerance.on_track_duty(geometry.track_pitch_nm(), offtrack_nm, true);
    if servo_duty < RECOVERY_ESCALATION_DUTY {
        return None;
    }
    let duty = tolerance.on_track_duty(geometry.track_pitch_nm(), offtrack_nm, read);
    if duty >= 1.0 {
        // Head never leaves tolerance: no failures regardless of window.
        return Some(1.0);
    }
    // The transfer must fit inside an on-track window: subtract the
    // fraction of a vibration cycle the 4 KiB-class transfer occupies.
    let window_cycles = timing.transfer_s(geometry, 8) * v.frequency().hz();
    Some((duty - window_cycles).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepnote_acoustics::Frequency;

    fn drive() -> HardDiskDrive {
        HardDiskDrive::barracuda_500gb(Clock::new())
    }

    #[test]
    fn healthy_sequential_ops_hit_calibrated_rate() {
        let mut d = drive();
        let clock = d.clock().clone();
        let t0 = clock.now();
        let mut lba = 0;
        for _ in 0..1000 {
            d.execute(DiskOp::write(lba, 8)).unwrap();
            lba += 8;
        }
        let elapsed = (clock.now() - t0).as_secs_f64();
        let mb_s = 1000.0 * 4096.0 / elapsed / 1e6;
        assert!((mb_s - 22.7).abs() < 0.3, "write = {mb_s} MB/s");
    }

    #[test]
    fn first_op_from_rest_is_sequential() {
        // Drive starts at cylinder 0; LBA 0 ops pay no seek.
        let mut d = drive();
        let rep = d.execute(DiskOp::read(0, 8)).unwrap();
        assert!(rep.duration.as_millis_f64() < 0.3, "{}", rep.duration);
        assert_eq!(rep.retries, 0);
    }

    #[test]
    fn random_ops_pay_seek_and_rotation() {
        let mut d = drive();
        d.execute(DiskOp::read(0, 8)).unwrap();
        let far = d.geometry().total_sectors() - 8;
        let rep = d.execute(DiskOp::read(far, 8)).unwrap();
        // Full stroke (17 ms) + rotational latency (4.2 ms) + overhead.
        assert!(rep.duration.as_millis_f64() > 15.0, "{}", rep.duration);
    }

    #[test]
    fn mild_vibration_slows_but_completes() {
        let mut d = drive();
        // Off-track just above the write threshold → duty ~0.6-0.9.
        // residual = A_nm × rejection(650 Hz); rejection ≈ 0.158.
        // Want residual ≈ 12 nm → A ≈ 76 nm = 0.076 µm.
        d.vibration()
            .set(Some(VibrationState::new(Frequency::from_hz(650.0), 0.076)));
        let mut total_retries = 0;
        for i in 0..200 {
            let rep = d.execute(DiskOp::write(i * 8, 8)).unwrap();
            total_retries += rep.retries;
        }
        assert!(total_retries > 20, "retries = {total_retries}");
    }

    #[test]
    fn severe_vibration_is_unresponsive() {
        let mut d = drive();
        d.vibration()
            .set(Some(VibrationState::new(Frequency::from_hz(650.0), 0.6)));
        let err = d.execute(DiskOp::write(0, 8)).unwrap_err();
        match err {
            DriveError::Unresponsive { after_ms_x1000 } => {
                // 24 retries × 1.9 ms ≈ 45 ms burned.
                assert!(after_ms_x1000 > 40_000, "burned = {after_ms_x1000}");
            }
            other => panic!("expected Unresponsive, got {other:?}"),
        }
        assert_eq!(d.ops_failed(), 1);
    }

    #[test]
    fn reads_survive_vibration_that_kills_writes() {
        // Pick a residual between the write and read escalation points:
        // duty_w < 0.32 needs A_res > 10/sin(0.32·π/2) = 20.8 nm;
        // duty_r > 0.55 needs A_res < 15/sin(0.55·π/2) = 19.7 nm.
        // No single amplitude does both at equal tolerance... but between
        // write-degraded and read-fine there is a wide window: pick
        // residual 16 nm: duty_w ≈ 0.43 (slow, completes), duty_r ≈ 0.78.
        let d = drive();
        let amp_um = 16.0 / d.servo().rejection(Frequency::from_hz(650.0)) / 1000.0;
        d.vibration()
            .set(Some(VibrationState::new(Frequency::from_hz(650.0), amp_um)));
        let p_read = d.attempt_success_probability(DiskOpKind::Read).unwrap();
        let p_write = d.attempt_success_probability(DiskOpKind::Write).unwrap();
        assert!(p_read > p_write + 0.2, "read = {p_read}, write = {p_write}");
    }

    #[test]
    fn ultrasonic_shock_parks_heads() {
        let mut d = drive();
        // 20 kHz at 0.05 µm ≈ 80 g > 40 g threshold.
        d.vibration()
            .set(Some(VibrationState::new(Frequency::from_khz(20.0), 0.05)));
        assert_eq!(
            d.execute(DiskOp::read(0, 8)).unwrap_err(),
            DriveError::HeadsParked
        );
        // Clearing the vibration lets the drive recover after the park
        // window has elapsed (execute advanced the clock through it).
        d.vibration().clear();
        assert!(d.execute(DiskOp::read(0, 8)).is_ok());
    }

    #[test]
    fn bad_requests_cost_nothing() {
        let mut d = drive();
        let clock = d.clock().clone();
        let t0 = clock.now();
        assert_eq!(
            d.execute(DiskOp::read(0, 0)).unwrap_err(),
            DriveError::EmptyOp
        );
        let max = d.geometry().total_sectors();
        assert_eq!(
            d.execute(DiskOp::read(max, 8)).unwrap_err(),
            DriveError::OutOfRange
        );
        assert_eq!(
            d.execute(DiskOp::read(u64::MAX, 8)).unwrap_err(),
            DriveError::OutOfRange
        );
        assert_eq!(clock.now(), t0);
    }

    #[test]
    fn enterprise_drive_survives_what_kills_the_barracuda() {
        // The chassis vibration of the paper's best attack point
        // (~540 nm at 650 Hz) makes the desktop drive unresponsive but
        // the RV-compensated nearline drive keeps serving.
        let v = VibrationState::new(Frequency::from_hz(650.0), 0.54);
        let mut desktop = HardDiskDrive::barracuda_500gb(Clock::new());
        desktop.vibration().set(Some(v));
        assert!(desktop.execute(DiskOp::write(0, 8)).is_err());

        let mut enterprise = HardDiskDrive::nearline_4tb(Clock::new());
        enterprise.vibration().set(Some(v));
        assert!(enterprise.execute(DiskOp::write(0, 8)).is_ok());
    }

    #[test]
    fn attempt_probability_quiescent_is_one() {
        let d = drive();
        assert_eq!(d.attempt_success_probability(DiskOpKind::Read), Some(1.0));
        assert_eq!(d.attempt_success_probability(DiskOpKind::Write), Some(1.0));
    }

    #[test]
    fn recovery_escalation_floors() {
        let d = drive();
        let geo = d.geometry();
        let (timing, servo, tol) = (d.timing(), d.servo(), d.tolerance());
        // Huge vibration: both kinds escalate.
        let big = VibrationState::new(Frequency::from_hz(650.0), 2.0);
        assert_eq!(
            attempt_probability(geo, timing, servo, tol, &big, DiskOpKind::Read),
            None
        );
        assert_eq!(
            attempt_probability(geo, timing, servo, tol, &big, DiskOpKind::Write),
            None
        );
        // Tiny vibration: both fine.
        let small = VibrationState::new(Frequency::from_hz(650.0), 0.001);
        assert_eq!(
            attempt_probability(geo, timing, servo, tol, &small, DiskOpKind::Write),
            Some(1.0)
        );
    }
}
