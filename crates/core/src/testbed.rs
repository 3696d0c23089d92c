//! The experimental testbed (paper §4, Figure 1).
//!
//! A [`Testbed`] is the assembled physics column: water conditions, the
//! attacker's signal chain, the propagation law, and one of the three
//! enclosure/mount scenarios. It converts attack parameters into the
//! [`VibrationState`] the victim drive experiences, and can mount/stop
//! attacks on any drive's [`VibrationInput`].

use crate::threat::AttackParams;
use deepnote_acoustics::{
    received_spl_with, Distance, Frequency, OperatingPoint, PropagationModel, SignalChain, Spl,
    TransferPathTable, WaterConditions,
};
use deepnote_hdd::{VibrationInput, VibrationState};
use deepnote_structures::{Scenario, VibrationPath};
use std::sync::Arc;

/// What the transfer path produces at one operating point: the received
/// SPL at the enclosure and the chassis displacement it drives.
#[derive(Debug, Clone, Copy)]
pub struct CachedTone {
    /// Received SPL at the enclosure wall.
    pub spl: Spl,
    /// Chassis displacement amplitude (µm) after the vibration path.
    pub displacement_um: f64,
}

/// The assembled tank-scale testbed.
#[derive(Debug, Clone)]
pub struct Testbed {
    water: WaterConditions,
    chain: SignalChain,
    propagation: PropagationModel,
    scenario: Scenario,
    path: VibrationPath,
    /// Optional precomputed transfer-path table (see
    /// [`Testbed::with_transfer_cache`]). `None` means every call walks
    /// the full physics chain.
    transfer: Option<Arc<TransferPathTable<CachedTone>>>,
}

impl Testbed {
    /// The paper's testbed for a given scenario: freshwater tank, AQ339 +
    /// TOA chain at full drive, tank-reverberant propagation.
    pub fn paper_default(scenario: Scenario) -> Self {
        Testbed {
            water: WaterConditions::tank_freshwater(),
            chain: SignalChain::paper_setup(Frequency::from_hz(650.0)),
            propagation: PropagationModel::TankReverberant,
            scenario,
            path: scenario.vibration_path(),
            transfer: None,
        }
    }

    /// Builds a custom testbed.
    pub fn new(
        water: WaterConditions,
        chain: SignalChain,
        propagation: PropagationModel,
        scenario: Scenario,
        path: VibrationPath,
    ) -> Self {
        Testbed {
            water,
            chain,
            propagation,
            scenario,
            path,
            transfer: None,
        }
    }

    /// The water in the tank (or ocean).
    pub fn water(&self) -> &WaterConditions {
        &self.water
    }

    /// The scenario under test.
    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    /// The signal chain.
    pub fn chain(&self) -> &SignalChain {
        &self.chain
    }

    /// The vibration path (enclosure + structure + mount).
    pub fn vibration_path(&self) -> &VibrationPath {
        &self.path
    }

    /// Returns a copy with a different propagation model (open-water
    /// studies). Drops any transfer cache.
    pub fn with_propagation(mut self, model: PropagationModel) -> Self {
        self.propagation = model;
        self.transfer = None;
        self
    }

    /// Returns a copy with a modified vibration path (defenses). Drops
    /// any transfer cache.
    pub fn with_vibration_path(mut self, path: VibrationPath) -> Self {
        self.path = path;
        self.transfer = None;
        self
    }

    /// Precomputes the transfer path at every `frequency` × `distance`
    /// pair and returns a copy that answers those operating points from
    /// the table. Lookups are bit-exact (see
    /// [`deepnote_acoustics::cache`]); any other operating point falls
    /// back to the full physics chain, and the table entries are
    /// produced by that same chain, so results are byte-identical with
    /// the cache on or off. Install this *after* the other builder
    /// methods — they drop the table.
    pub fn with_transfer_cache(
        mut self,
        frequencies: &[Frequency],
        distances: &[Distance],
    ) -> Self {
        let points = frequencies
            .iter()
            .flat_map(|&f| distances.iter().map(move |&d| (f, d)));
        let table =
            TransferPathTable::precompute(points.map(|(f, d)| self.operating_point(f, d)), |p| {
                self.compute_tone(p.frequency(), p.distance())
            });
        self.transfer = Some(Arc::new(table));
        self
    }

    /// The installed transfer table, if any — share it (or derive
    /// consumer tables from its operating points) at campaign setup.
    pub fn transfer_cache(&self) -> Option<&Arc<TransferPathTable<CachedTone>>> {
        self.transfer.as_ref()
    }

    /// The cache key for an attack tone against this testbed: the
    /// acoustic coordinates plus the scenario as the context
    /// discriminant (the vibration path is a pure function of the
    /// scenario for the paper's testbeds).
    pub fn operating_point(&self, frequency: Frequency, distance: Distance) -> OperatingPoint {
        OperatingPoint::new(frequency, distance, &self.water, self.scenario as u64)
    }

    /// The transfer-path output for one tone: table hit when
    /// precomputed, full physics chain otherwise.
    fn tone(&self, frequency: Frequency, distance: Distance) -> CachedTone {
        if let Some(table) = &self.transfer {
            if let Some(tone) = table.get(&self.operating_point(frequency, distance)) {
                return *tone;
            }
        }
        self.compute_tone(frequency, distance)
    }

    /// The uncached received-SPL chain — the single source of truth
    /// for both the precompute pass and the miss paths.
    fn compute_spl(&self, frequency: Frequency, distance: Distance) -> Spl {
        let emission = self.chain.retuned(frequency).emission();
        received_spl_with(&emission, distance, &self.water, self.propagation)
    }

    /// The uncached transfer path: received SPL, then the chassis
    /// displacement the vibration path drives from it.
    fn compute_tone(&self, frequency: Frequency, distance: Distance) -> CachedTone {
        let spl = self.compute_spl(frequency, distance);
        let displacement_um = self.path.drive_displacement_um(frequency, spl);
        CachedTone {
            spl,
            displacement_um,
        }
    }

    /// The SPL received at the enclosure for an attack at `frequency`
    /// from `distance`.
    pub fn received_spl(&self, params: AttackParams) -> Spl {
        if let Some(table) = &self.transfer {
            if let Some(tone) = table.get(&self.operating_point(params.frequency, params.distance))
            {
                return tone.spl;
            }
        }
        self.compute_spl(params.frequency, params.distance)
    }

    /// The chassis vibration the victim drive experiences under the given
    /// attack parameters.
    pub fn vibration_at(&self, frequency: Frequency, distance: Distance) -> VibrationState {
        let displacement_um = self.tone(frequency, distance).displacement_um;
        VibrationState::new(frequency, displacement_um)
    }

    /// Starts (or retunes) an attack on a drive's vibration input.
    pub fn mount_attack(&self, input: &VibrationInput, params: AttackParams) {
        input.set(Some(self.vibration_at(params.frequency, params.distance)));
    }

    /// Stops any attack on the input.
    pub fn stop_attack(&self, input: &VibrationInput) {
        input.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepnote_acoustics::Distance;
    use deepnote_structures::Scenario;

    #[test]
    fn received_level_falls_with_distance() {
        let tb = Testbed::paper_default(Scenario::PlasticTower);
        let near = tb.received_spl(AttackParams::paper_best());
        let far = tb.received_spl(AttackParams::paper_best().at_distance(Distance::from_cm(25.0)));
        assert!(near.db() > far.db() + 5.0);
    }

    #[test]
    fn best_params_produce_blackout_scale_vibration() {
        let tb = Testbed::paper_default(Scenario::PlasticTower);
        let p = AttackParams::paper_best();
        let v = tb.vibration_at(p.frequency, p.distance);
        // Calibration: ~85 nm residual after servo rejection at 650 Hz,
        // i.e. raw chassis displacement in the ~500 nm class.
        assert!(
            (300.0..900.0).contains(&v.displacement_nm()),
            "displacement = {} nm",
            v.displacement_nm()
        );
    }

    #[test]
    fn out_of_band_vibration_is_weak() {
        let tb = Testbed::paper_default(Scenario::PlasticTower);
        let p = AttackParams::paper_best();
        let in_band = tb.vibration_at(p.frequency, p.distance);
        let out = tb.vibration_at(Frequency::from_khz(8.0), p.distance);
        assert!(in_band.displacement_nm() > 20.0 * out.displacement_nm());
    }

    #[test]
    fn mount_and_stop_attack_toggle_input() {
        let tb = Testbed::paper_default(Scenario::PlasticTower);
        let input = VibrationInput::quiescent();
        tb.mount_attack(&input, AttackParams::paper_best());
        assert!(input.current().is_some());
        tb.stop_attack(&input);
        assert!(input.current().is_none());
    }

    #[test]
    fn transfer_cache_is_byte_identical_hit_or_miss() {
        let plain = Testbed::paper_default(Scenario::PlasticTower);
        let freqs = [Frequency::from_hz(650.0), Frequency::from_khz(1.2)];
        let dists = [Distance::from_cm(1.0), Distance::from_cm(25.0)];
        let cached = plain.clone().with_transfer_cache(&freqs, &dists);
        assert_eq!(cached.transfer_cache().map(|t| t.len()), Some(4));

        // Precomputed points (hits) and an unseen point (miss) must both
        // reproduce the uncached physics to the bit.
        let probes = [
            (freqs[0], dists[0]),
            (freqs[1], dists[1]),
            (Frequency::from_hz(777.0), Distance::from_cm(7.0)),
        ];
        for (f, d) in probes {
            let a = plain.vibration_at(f, d);
            let b = cached.vibration_at(f, d);
            assert_eq!(a.displacement_nm().to_bits(), b.displacement_nm().to_bits());
            let params = AttackParams {
                frequency: f,
                distance: d,
            };
            assert_eq!(
                plain.received_spl(params).db().to_bits(),
                cached.received_spl(params).db().to_bits()
            );
        }
    }

    #[test]
    fn builder_methods_drop_stale_transfer_cache() {
        let cached = Testbed::paper_default(Scenario::PlasticTower)
            .with_transfer_cache(&[Frequency::from_hz(650.0)], &[Distance::from_cm(5.0)]);
        assert!(cached.transfer_cache().is_some());
        let retuned = cached.with_propagation(PropagationModel::Spherical);
        assert!(retuned.transfer_cache().is_none());
    }

    #[test]
    fn scenarios_differ() {
        let p = AttackParams::paper_best();
        let s1 =
            Testbed::paper_default(Scenario::PlasticDirect).vibration_at(p.frequency, p.distance);
        let s2 =
            Testbed::paper_default(Scenario::PlasticTower).vibration_at(p.frequency, p.distance);
        assert_ne!(s1.displacement_nm(), s2.displacement_nm());
    }
}
