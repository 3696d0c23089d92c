//! Golden gate: the paper tables, the cluster campaign reports and one
//! Chrome trace must hash to committed FNV-1a 64 digests.
//!
//! The determinism tests compare two runs of the same build; this gate
//! compares against a fixed reference, so a refactor that claims "same
//! behaviour, less code" is proven byte-identical rather than merely
//! self-consistent. If a change moves a digest on purpose, say why in
//! the change and re-pin the new value printed by the failing assert.
//!
//! Sizes follow `tests/determinism.rs` and `tests/cluster_trace.rs`
//! (2 s table runs, 240-key campaigns) so the gate stays cheap.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use deepnote_acoustics::{Distance, SweepPlan};
use deepnote_cluster::prelude::*;
use deepnote_core::experiments::{frequency, range};
use deepnote_core::report;
use deepnote_kv::bench::BenchSpec;
use deepnote_sim::SimDuration;
use deepnote_telemetry::export_chrome_trace;

const GOLDEN_TABLE1: u64 = 0x6ce8_b9e1_d259_2a57;
const GOLDEN_TABLE2: u64 = 0x6a8b_b00f_74df_8abe;
const GOLDEN_FIGURE2: u64 = 0x7a1e_0010_e5fe_3d53;
const GOLDEN_DUEL_SEPARATED: u64 = 0xa8f6_11a6_573b_9cf2;
const GOLDEN_DUEL_COLOCATED: u64 = 0x74f2_23ba_8ccc_07d2;
const GOLDEN_CHAOS_FULL: u64 = 0xea06_d326_2eed_f3ac;
const GOLDEN_TRACED_REPORT: u64 = 0x936a_829d_d09f_9a73;
const GOLDEN_CHROME_TRACE: u64 = 0x75a9_5f46_0acd_6866;

/// FNV-1a 64 over a sequence of byte strings, each length-prefixed so
/// moving bytes across a boundary changes the digest.
fn digest<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for part in parts {
        eat(&(part.len() as u64).to_le_bytes());
        eat(part.as_bytes());
    }
    h
}

fn check(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name} output changed: digest {got:#018x}, golden {want:#018x}"
    );
}

/// A 240-key, 4-client paper campaign with a 30 s attack.
fn small_duel(placement: PlacementPolicy) -> CampaignConfig {
    let mut c = CampaignConfig::paper_duel(placement, SimDuration::from_secs(30));
    c.workload.num_keys = 240;
    c.workload.clients = 4;
    c
}

fn report_digest(reports: &[CampaignReport]) -> u64 {
    let parts: Vec<String> = reports
        .iter()
        .flat_map(|r| [r.render(), r.to_json()])
        .collect();
    digest(parts.iter().map(String::as_str))
}

#[test]
fn table1_matches_golden() {
    let out = report::render_table1(&range::table1(2));
    check("table1", digest([out.as_str()]), GOLDEN_TABLE1);
}

#[test]
fn table2_matches_golden() {
    let spec = BenchSpec {
        num_keys: 2_000,
        duration: SimDuration::from_secs(2),
        ..BenchSpec::default()
    };
    let out = report::render_table2(&range::table2(&spec));
    check("table2", digest([out.as_str()]), GOLDEN_TABLE2);
}

#[test]
fn figure2_matches_golden() {
    let sweeps = frequency::figure2(Distance::from_cm(1.0), &SweepPlan::paper_sweep());
    let out = report::render_figure2(&sweeps);
    check("figure2", digest([out.as_str()]), GOLDEN_FIGURE2);
}

#[test]
fn paper_duel_reports_match_golden() {
    for (placement, want) in [
        (PlacementPolicy::Separated, GOLDEN_DUEL_SEPARATED),
        (PlacementPolicy::CoLocated, GOLDEN_DUEL_COLOCATED),
    ] {
        let r = run_campaign(&small_duel(placement)).expect("campaign");
        check(placement.label(), report_digest(&[r]), want);
    }
}

#[test]
fn full_chaos_pair_reports_match_golden() {
    let (mut hardened, mut naive) = CampaignConfig::chaos_pair(
        PlacementPolicy::Separated,
        SimDuration::from_secs(20),
        &ChaosProfile::full(),
    );
    hardened.workload.num_keys = 400;
    naive.workload.num_keys = 400;
    let reports = [
        run_campaign(&hardened).expect("hardened campaign"),
        run_campaign(&naive).expect("naive campaign"),
    ];
    check(
        "full chaos pair",
        report_digest(&reports),
        GOLDEN_CHAOS_FULL,
    );
}

#[test]
fn traced_campaign_matches_golden() {
    let mut c = small_duel(PlacementPolicy::CoLocated);
    c.telemetry.trace = true;
    c.telemetry.metrics_interval = Some(SimDuration::from_millis(500));
    let r = run_campaign(&c).expect("campaign");
    let trace = export_chrome_trace(&[(r.label.as_str(), r.trace.as_ref().expect("trace on"))]);
    check(
        "chrome trace",
        digest([trace.as_str()]),
        GOLDEN_CHROME_TRACE,
    );
    check(
        "traced report",
        report_digest(std::slice::from_ref(&r)),
        GOLDEN_TRACED_REPORT,
    );
}
