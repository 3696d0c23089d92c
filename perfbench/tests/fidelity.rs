//! The traced compositions measure the same program as the untraced
//! driver calls: for the same inputs and seed they return identical
//! outputs, with the probe recording and with it off. Checked on the
//! program's default seeds and on one held-out seed, at reduced sizes.
//!
//! Run with `cargo test --release` from `perfbench/`: the crash loops
//! simulate minutes of virtual time.

use deepnote_cluster::prelude::{
    run_campaign, AttackLoad, AttackTimeline, CampaignConfig, ChaosProfile, Phase, PlacementPolicy,
};
use deepnote_cluster::workload::ClientPool;
use deepnote_core::experiments::{crash, range};
use deepnote_kv::bench::BenchSpec;
use deepnote_perfbench::compose;
use deepnote_perfbench::probe::Probe;
use deepnote_perfbench::workloads::paper_testbed;
use deepnote_sim::{SimDuration, SimRng, SimTime};
use std::time::Instant;

const HELD_OUT_SEED: u64 = 7919;

fn probes() -> [Probe; 2] {
    [Probe::new(0, Instant::now()), Probe::off()]
}

#[test]
fn kv_rows_match_range_kv_row() {
    let testbed = paper_testbed();
    for seed in [BenchSpec::default().seed, HELD_OUT_SEED] {
        let spec = BenchSpec {
            num_keys: 2_000,
            duration: SimDuration::from_secs(2),
            seed,
            ..BenchSpec::default()
        };
        for d in [None, Some(1.0), Some(15.0)] {
            let want = range::kv_row(&testbed, d, &spec);
            for probe in probes() {
                let (got, tally) = compose::kv_row(&testbed, d, &spec, &probe);
                assert_eq!(got, want, "seed {seed}, distance {d:?}");
                assert!(tally.device.reads + tally.device.writes > 0);
            }
        }
    }
}

#[test]
fn fio_rows_match_range_fio_row() {
    let testbed = paper_testbed();
    for d in [None, Some(10.0), Some(25.0)] {
        let want = range::fio_row(&testbed, d, 2);
        for probe in probes() {
            let (got, tally) = compose::fio_row(&testbed, d, 2, &probe);
            assert_eq!(got, want, "distance {d:?}");
            assert_eq!(
                tally.hdd_ops_completed + tally.hdd_ops_failed,
                tally.reads + tally.writes,
                "every device call reaches the drive once"
            );
        }
    }
}

#[test]
fn crash_loops_match_crash_victims() {
    let testbed = paper_testbed();
    let probe = Probe::new(0, Instant::now());
    assert_eq!(
        compose::ext4_crash(&testbed, &probe).0,
        crash::ext4_crash(&testbed)
    );
    assert_eq!(
        compose::ubuntu_crash(&testbed, &probe).0,
        crash::ubuntu_crash(&testbed)
    );
    assert_eq!(
        compose::rocksdb_crash(&testbed, &probe).0,
        crash::rocksdb_crash(&testbed)
    );
}

/// A campaign that stops right after commissioning: one client on the
/// raw quorum path, and a timeline that ends after the events at t = 0
/// and before the first repair, scrub or second client turn. With
/// `chaos`, faults are on and values are sealed, as in the hardened
/// duel runs.
fn commission_only(placement: PlacementPolicy, chaos: bool, seed: u64) -> CampaignConfig {
    let mut c = if chaos {
        CampaignConfig::chaos_pair(placement, SimDuration::from_secs(10), &ChaosProfile::full()).0
    } else {
        CampaignConfig::paper_duel(placement, SimDuration::from_secs(10))
    };
    c.client = None;
    c.workload.clients = 1;
    c.timeline = AttackTimeline::new(vec![Phase {
        label: "idle".into(),
        duration: SimDuration::from_millis(1),
        load: AttackLoad::Off,
    }]);
    c.seed = seed;
    c
}

#[test]
fn commissioning_matches_run_campaign() {
    for seed in [deepnote_sim::rng::DEFAULT_SEED, HELD_OUT_SEED] {
        for placement in [PlacementPolicy::Separated, PlacementPolicy::CoLocated] {
            for chaos in [false, true] {
                let config = commission_only(placement, chaos, seed);
                let report = run_campaign(&config).expect("campaign runs");
                for probe in probes() {
                    let mut cluster = compose::commission(&config, &probe).expect("commissions");
                    // What run_campaign does at t = 0 before it stops:
                    // enter the phase, heartbeat, first client op.
                    cluster.set_attack(None, SimTime::ZERO);
                    cluster.set_attack(None, SimTime::ZERO);
                    cluster.heartbeat(SimTime::ZERO);
                    let spec = config.workload;
                    let mut pool = ClientPool::new(&spec, &mut SimRng::seeded(seed));
                    let op = pool.next_op(0, &spec);
                    let (key, value) = (spec.key(op.key_index), spec.value(op.key_index));
                    cluster.execute(op.is_read, &key, &value, SimTime::ZERO);
                    let counters: Vec<_> = cluster.nodes().iter().map(|n| n.counters()).collect();
                    let what = format!("seed {seed}, {placement:?}, chaos {chaos}");
                    assert_eq!(report.node_counters, counters, "{what}");
                    assert_eq!(report.chaos, cluster.chaos_stats(), "{what}");
                    assert_eq!(report.fault_traces, cluster.fault_traces(), "{what}");
                    assert_eq!(report.events, cluster.events(), "{what}");
                    if chaos {
                        assert!(
                            report.fault_traces.iter().any(|t| !t.is_empty()),
                            "full chaos injects faults while commissioning ({what})"
                        );
                    }
                }
            }
        }
    }
}
