//! Figure 2: HDD read/write throughput during an acoustic attack at
//! different frequencies, in all three scenarios.
//!
//! Methodology mirrors §4.1: the speaker sits 1 cm from the container and
//! sweeps 100 Hz → 16.9 kHz (50 Hz refinement around vulnerable bands);
//! sequential 4 KiB read and write throughput is recorded per frequency.
//!
//! Two evaluation modes are provided: the closed-form steady-state model
//! (fast — used by `deepnote fig2` to regenerate the figure) and a measured
//! mode that runs the actual FIO-style jobs against the mechanical drive.

use crate::parallel::run_all;
use crate::testbed::Testbed;
use deepnote_acoustics::{Distance, Frequency, SweepPlan};
use deepnote_blockdev::HddDisk;
use deepnote_hdd::{
    steady_state, DiskOpKind, DriveGeometry, ServoModel, TimingModel, ToleranceModel,
};
use deepnote_iobench::{run_job, JobSpec};
use deepnote_sim::{Clock, SimDuration, TimeSeries};
use deepnote_structures::Scenario;
use serde::{Deserialize, Serialize};

/// The sweep result for one scenario: Fig. 2a (write) and Fig. 2b (read).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrequencySweep {
    /// The scenario swept.
    pub scenario: Scenario,
    /// Sequential-write throughput vs frequency (MB/s vs Hz) — Fig. 2a.
    pub write: TimeSeries,
    /// Sequential-read throughput vs frequency (MB/s vs Hz) — Fig. 2b.
    pub read: TimeSeries,
}

impl FrequencySweep {
    /// The contiguous frequency band (Hz) where write throughput is below
    /// `threshold_mb_s`, if any — the paper's "vulnerable band".
    pub fn write_dead_band(&self, threshold_mb_s: f64) -> Option<(f64, f64)> {
        self.write.widest_region_below(threshold_mb_s)
    }

    /// As [`FrequencySweep::write_dead_band`], for reads.
    pub fn read_dead_band(&self, threshold_mb_s: f64) -> Option<(f64, f64)> {
        self.read.widest_region_below(threshold_mb_s)
    }
}

/// Sweeps one scenario with the closed-form model (fast path).
pub fn sweep_scenario(scenario: Scenario, distance: Distance, plan: &SweepPlan) -> FrequencySweep {
    let testbed = Testbed::paper_default(scenario);
    let geo = DriveGeometry::barracuda_500gb();
    let timing = TimingModel::barracuda_500gb();
    let servo = ServoModel::typical();
    let tol = ToleranceModel::typical();

    let mut write = TimeSeries::new(format!("{scenario} seq write"), "Hz", "MB/s");
    let mut read = TimeSeries::new(format!("{scenario} seq read"), "Hz", "MB/s");
    for step in plan.coarse_steps() {
        let v = testbed.vibration_at(step.frequency, distance);
        let w = steady_state(&geo, &timing, &servo, &tol, Some(&v), 8, DiskOpKind::Write);
        let r = steady_state(&geo, &timing, &servo, &tol, Some(&v), 8, DiskOpKind::Read);
        write.push(step.frequency.hz(), w.throughput_mb_s);
        read.push(step.frequency.hz(), r.throughput_mb_s);
    }
    FrequencySweep {
        scenario,
        write,
        read,
    }
}

/// Sweeps all three scenarios (the full Figure 2), fast path — one
/// pool job per scenario, identical output to sweeping in sequence.
pub fn figure2(distance: Distance, plan: &SweepPlan) -> Vec<FrequencySweep> {
    run_all(
        Scenario::ALL
            .iter()
            .map(|&s| move || sweep_scenario(s, distance, plan))
            .collect(),
    )
}

/// Measures one frequency point with the op-level drive and FIO-style
/// jobs (slow path; cross-validates the closed-form sweep).
pub fn measure_point(
    scenario: Scenario,
    frequency: Frequency,
    distance: Distance,
    seconds: u64,
) -> (f64, f64) {
    let testbed = Testbed::paper_default(scenario);
    let clock = Clock::new();
    let mut disk = HddDisk::barracuda_500gb(clock.clone());
    let vib = disk.vibration();
    vib.set(Some(testbed.vibration_at(frequency, distance)));
    let write = run_job(
        &JobSpec::seq_write("fig2-w").with_runtime(SimDuration::from_secs(seconds)),
        &mut disk,
        &clock,
    );
    let read = run_job(
        &JobSpec::seq_read("fig2-r").with_runtime(SimDuration::from_secs(seconds)),
        &mut disk,
        &clock,
    );
    (read.throughput_mb_s, write.throughput_mb_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coarse_plan() -> SweepPlan {
        SweepPlan::paper_sweep()
    }

    #[test]
    fn scenario2_band_matches_paper() {
        let sweep = sweep_scenario(
            Scenario::PlasticTower,
            Distance::from_cm(1.0),
            &coarse_plan(),
        );
        let (lo, hi) = sweep.write_dead_band(1.0).expect("a dead band must exist");
        // Paper: losses occur between 300 Hz and ~1.7 kHz.
        assert!((150.0..=400.0).contains(&lo), "band starts at {lo}");
        assert!((1_300.0..=1_800.0).contains(&hi), "band ends at {hi}");
    }

    #[test]
    fn scenario3_write_band_wider_than_read_band() {
        // Paper (§4.1): in Scenario 3 writes die over 300 Hz–1.3 kHz but
        // reads only over 300–800 Hz.
        let sweep = sweep_scenario(Scenario::MetalTower, Distance::from_cm(1.0), &coarse_plan());
        let (_, w_hi) = sweep.write_dead_band(1.0).unwrap();
        let (_, r_hi) = sweep.read_dead_band(1.0).unwrap();
        assert!(w_hi > r_hi, "write band ends {w_hi}, read band ends {r_hi}");
    }

    #[test]
    fn out_of_band_throughput_is_nominal() {
        for sweep in figure2(Distance::from_cm(1.0), &coarse_plan()) {
            let w_at_8k = sweep.write.nearest_y(8_000.0).unwrap();
            let r_at_8k = sweep.read.nearest_y(8_000.0).unwrap();
            assert!(
                (w_at_8k - 22.7).abs() < 0.5,
                "{}: {w_at_8k}",
                sweep.scenario
            );
            assert!(
                (r_at_8k - 18.0).abs() < 0.5,
                "{}: {r_at_8k}",
                sweep.scenario
            );
        }
    }

    #[test]
    fn measured_point_agrees_with_model_at_extremes() {
        // Dead zone.
        let (r, w) = measure_point(
            Scenario::PlasticTower,
            Frequency::from_hz(650.0),
            Distance::from_cm(1.0),
            2,
        );
        assert_eq!((r, w), (0.0, 0.0));
        // Healthy zone.
        let (r, w) = measure_point(
            Scenario::PlasticTower,
            Frequency::from_khz(10.0),
            Distance::from_cm(1.0),
            2,
        );
        assert!((r - 18.0).abs() < 0.5, "read = {r}");
        assert!((w - 22.7).abs() < 0.5, "write = {w}");
    }
}
