//! The four workloads: their inputs, the driver calls a pass makes, the
//! commissioning that `setup_s` times, and the checks every pass must
//! pass.

use crate::compose;
use crate::probe::Probe;
use deepnote_cluster::prelude::{
    run_matrix, CampaignConfig, CampaignReport, ChaosProfile, PlacementPolicy,
};
use deepnote_core::experiments::crash::{self, CrashRow};
use deepnote_core::experiments::range::{self, FioRangeRow, KvRangeRow};
use deepnote_core::testbed::Testbed;
use deepnote_iobench::JobSpec;
use deepnote_kv::bench::BenchSpec;
use deepnote_sim::{Histogram, SimDuration};
use deepnote_structures::Scenario;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Virtual FIO runtime per Table 1 job on `fio_range`. The drive model
/// keeps every written block, so a row's memory grows with it: 20 s
/// keeps a pass under 1 GiB at two workers (60 s needs 2.2 GiB).
pub const FIO_SECONDS: u64 = 20;
/// Attack length of the `campaign_duel` campaigns.
pub const DUEL_ATTACK_S: u64 = 600;
/// Metrics scrape interval of the `campaign_duel` campaigns.
pub const DUEL_SCRAPE_MS: u64 = 500;
/// Seeds per `campaign_swarm` pass, each run at both placements.
pub const SWARM_SEEDS: u64 = 8;
/// Attack length of the `campaign_swarm` campaigns.
pub const SWARM_ATTACK_S: u64 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperKv,
    FioRange,
    CampaignDuel,
    CampaignSwarm,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperKv,
        Workload::FioRange,
        Workload::CampaignDuel,
        Workload::CampaignSwarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperKv => "paper_kv",
            Workload::FioRange => "fio_range",
            Workload::CampaignDuel => "campaign_duel",
            Workload::CampaignSwarm => "campaign_swarm",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_campaign(self) -> bool {
        matches!(self, Workload::CampaignDuel | Workload::CampaignSwarm)
    }

    /// Commissions every input one pass serves, untimed inside and
    /// dropped at the end: the work `setup_s` measures.
    pub fn setup(self, seed: u64) {
        let off = Probe::off();
        match self {
            Workload::PaperKv => {
                let spec = table2_spec(seed);
                for _ in range::paper_distances() {
                    drop(compose::kv_row_setup(&spec, &off));
                }
                drop(compose::ext4_setup(&off));
                drop(compose::ubuntu_setup(&off));
                drop(compose::rocksdb_setup(&off));
            }
            Workload::FioRange => {
                // `range::table1` builds its testbed per call, too.
                let testbed = paper_testbed();
                for d in range::paper_distances() {
                    drop(compose::fio_row_setup(&testbed, d, &off));
                }
            }
            Workload::CampaignDuel | Workload::CampaignSwarm => {
                for config in self.campaigns(seed) {
                    drop(compose::commission(&config, &off).expect("commissioning succeeds"));
                }
            }
        }
    }

    /// One untraced pass: the driver calls the CLI makes.
    pub fn pass(self, seed: u64) -> Outputs {
        match self {
            Workload::PaperKv => Outputs::PaperKv {
                table2: range::table2(&table2_spec(seed)),
                table3: crash::table3(),
            },
            Workload::FioRange => Outputs::FioRange {
                table1: range::table1(FIO_SECONDS),
            },
            Workload::CampaignDuel | Workload::CampaignSwarm => Outputs::Campaigns {
                configs: self.campaigns(seed),
                reports: run_matrix(self.campaigns(seed)),
            },
        }
    }

    /// The seed pass `k` of a run uses. Table passes repeat the workload
    /// seed. Campaign passes start at it and then take fresh seeds drawn
    /// from it, so a run averages over several campaigns' behaviour.
    pub fn pass_seed(self, seed: u64, k: u64) -> u64 {
        if k == 0 || !self.is_campaign() {
            seed
        } else {
            splitmix64(seed ^ splitmix64(k.wrapping_mul(0x5EED)))
        }
    }

    /// The campaign configurations of a campaign workload.
    pub fn campaigns(self, seed: u64) -> Vec<CampaignConfig> {
        match self {
            Workload::CampaignDuel => duel_configs(seed),
            Workload::CampaignSwarm => swarm_configs(seed),
            _ => Vec::new(),
        }
    }
}

/// The testbed every range/crash driver builds.
pub fn paper_testbed() -> Testbed {
    Testbed::paper_default(Scenario::PlasticTower)
}

/// The CLI's stock Table 2 spec with the workload seed.
pub fn table2_spec(seed: u64) -> BenchSpec {
    BenchSpec {
        num_keys: 20_000,
        duration: SimDuration::from_secs(10),
        seed,
        ..BenchSpec::default()
    }
}

/// `deepnote cluster --chaos full --placement both --seconds 600
/// --metrics-interval 500ms --trace ...` with the workload seed.
pub fn duel_configs(seed: u64) -> Vec<CampaignConfig> {
    let chaos = ChaosProfile::full();
    let attack = SimDuration::from_secs(DUEL_ATTACK_S);
    let mut configs = Vec::new();
    for p in [PlacementPolicy::Separated, PlacementPolicy::CoLocated] {
        let (hardened, naive) = CampaignConfig::chaos_pair(p, attack, &chaos);
        for mut c in [hardened, naive] {
            c.label = format!("{} {}", p.label(), c.label);
            c.seed = seed;
            c.telemetry.trace = true;
            c.telemetry.metrics_interval = Some(SimDuration::from_millis(DUEL_SCRAPE_MS));
            configs.push(c);
        }
    }
    configs
}

/// `SWARM_SEEDS` seeds drawn from the workload seed, each a
/// separated-vs-co-located `paper_duel` with telemetry and chaos off.
pub fn swarm_configs(seed: u64) -> Vec<CampaignConfig> {
    let attack = SimDuration::from_secs(SWARM_ATTACK_S);
    let mut configs = Vec::new();
    for i in 0..SWARM_SEEDS {
        let cell_seed = splitmix64(seed ^ splitmix64(i));
        for p in [PlacementPolicy::Separated, PlacementPolicy::CoLocated] {
            let mut c = CampaignConfig::paper_duel(p, attack);
            c.seed = cell_seed;
            configs.push(c);
        }
    }
    configs
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one pass produced.
#[derive(Debug)]
pub enum Outputs {
    PaperKv {
        table2: Vec<KvRangeRow>,
        table3: Vec<CrashRow>,
    },
    FioRange {
        table1: Vec<FioRangeRow>,
    },
    Campaigns {
        configs: Vec<CampaignConfig>,
        reports: Vec<Result<CampaignReport, String>>,
    },
}

/// One correctness check's verdict.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
}

/// The attack phase's service in one pass.
#[derive(Debug, Clone)]
pub enum Attack {
    /// Campaigns: attack-phase ops of the separated-placement
    /// campaigns, and each one's attack-phase read p99 (virtual ms).
    Service {
        attempted: u64,
        slo_ok: u64,
        read_p99s_ms: Vec<f64>,
    },
    /// Tables: one reading per pass, the same in every pass.
    Reading { slo_ratio: f64, read_ms: f64 },
}

impl Attack {
    /// `(sim_attack_slo_ratio, sim_attack_read_p99_ms)` over `passes`.
    /// Campaigns: the SLO share of all their attack-phase ops, and the
    /// mean of the campaigns' read p99s. (Pooling the histograms instead
    /// puts the p99 on the cliff between a duel's hardened run, ~2 % of
    /// reads slow, and its naive run, none: it swings 0.4-100 ms by
    /// seed.) Tables: the first pass's reading.
    pub fn over<'a>(passes: impl IntoIterator<Item = &'a Attack>) -> (f64, f64) {
        let (mut attempted, mut slo_ok, mut p99s) = (0, 0, Vec::new());
        for a in passes {
            match a {
                Attack::Reading { slo_ratio, read_ms } => return (*slo_ratio, *read_ms),
                Attack::Service {
                    attempted: n,
                    slo_ok: ok,
                    read_p99s_ms,
                } => {
                    attempted += n;
                    slo_ok += ok;
                    p99s.extend_from_slice(read_p99s_ms);
                }
            }
        }
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let slo_ratio = if attempted == 0 {
            0.0
        } else {
            slo_ok as f64 / attempted as f64
        };
        (slo_ratio, mean(&p99s))
    }
}

/// What the benchmark reads off one pass's outputs.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Hash of the simulated outputs; equal outputs, equal digests.
    pub digest: u64,
    /// Simulated operations the pass completed.
    pub sim_ops: u64,
    pub checks: Vec<Check>,
    pub attack: Attack,
}

impl Outputs {
    /// Digest, operation count and checks of one pass.
    pub fn verdict(&self) -> Verdict {
        let mut checks = Vec::new();
        let mut check = |name: &str, ok: bool| {
            checks.push(Check {
                name: name.to_string(),
                ok,
            })
        };
        let mut h = DefaultHasher::new();
        let mut sim_ops = 0u64;
        let attack = match self {
            Outputs::PaperKv { table2, table3 } => {
                format!("{table2:?}{table3:?}").hash(&mut h);
                // A row's ops over its window: the window is the spec's
                // duration for a crashed row and overshoots it by at most
                // one writer batch for a healthy one.
                sim_ops = table2
                    .iter()
                    .map(|r| (r.io_rate_x100k * 1e5 * 10.0).round() as u64)
                    .sum();
                check_table2(table2, &mut check);
                check_table3(table3, &mut check);
                // Table 2's attack phase is its six attacked rows: the
                // share of the no-attack op rate they keep, and the mean
                // virtual time per op of the slowest row still serving.
                let attacked = table2.get(1..).unwrap_or_default();
                let base = table2.first().map_or(0.0, |r| r.io_rate_x100k);
                Attack::Reading {
                    slo_ratio: attacked.iter().map(|r| r.io_rate_x100k).sum::<f64>()
                        / (attacked.len() as f64 * base).max(f64::MIN_POSITIVE),
                    read_ms: attacked
                        .iter()
                        .filter(|r| r.crashed_at_s.is_none() && r.io_rate_x100k > 0.0)
                        .map(|r| 1e3 / (r.io_rate_x100k * 1e5))
                        .fold(0.0, f64::max),
                }
            }
            Outputs::FioRange { table1 } => {
                format!("{table1:?}").hash(&mut h);
                let bs = JobSpec::seq_read("bs").block_size() as f64;
                sim_ops = table1
                    .iter()
                    .map(|r| {
                        ((r.read_mb_s + r.write_mb_s) * 1e6 * FIO_SECONDS as f64 / bs).round()
                            as u64
                    })
                    .sum();
                check_table1(table1, &mut check);
                // Table 1's attack phase is its six attacked rows: the
                // share of no-attack throughput they keep, and the worst
                // mean read latency among rows that still respond.
                let mb = |r: &FioRangeRow| r.read_mb_s + r.write_mb_s;
                let attacked = table1.get(1..).unwrap_or_default();
                let base = table1.first().map_or(0.0, mb);
                Attack::Reading {
                    slo_ratio: attacked.iter().map(mb).sum::<f64>()
                        / (attacked.len() as f64 * base).max(f64::MIN_POSITIVE),
                    read_ms: attacked
                        .iter()
                        .filter_map(|r| r.read_latency_ms)
                        .fold(0.0, f64::max),
                }
            }
            Outputs::Campaigns { configs, reports } => {
                let (mut attempted, mut slo_ok, mut read_p99s_ms) = (0, 0, Vec::new());
                for (config, report) in configs.iter().zip(reports) {
                    let Ok(r) = report else {
                        check(&format!("{} ran", config.label), false);
                        "failed".hash(&mut h);
                        continue;
                    };
                    r.render().hash(&mut h);
                    r.events.hash(&mut h);
                    r.trace.as_ref().map(|t| t.events.len()).hash(&mut h);
                    sim_ops += r
                        .metrics
                        .phases
                        .iter()
                        .map(|p| p.reads.attempted + p.writes.attempted)
                        .sum::<u64>();
                    if config.client.is_some() {
                        check(
                            &format!("{} oracle_wrong == 0", config.label),
                            r.integrity.oracle_wrong == 0,
                        );
                    }
                    if config.cluster.placement == PlacementPolicy::Separated {
                        if let Some(a) = r.metrics.phase("attack") {
                            attempted += a.reads.attempted + a.writes.attempted;
                            slo_ok += a.reads.slo_ok + a.writes.slo_ok;
                            let p99_us = interpolated_percentile(&a.reads.latency_us, 99.0);
                            read_p99s_ms.push(p99_us.unwrap_or(0.0) / 1_000.0);
                        }
                    }
                }
                check_placements(configs, reports, &mut check);
                Attack::Service {
                    attempted,
                    slo_ok,
                    read_p99s_ms,
                }
            }
        };
        Verdict {
            digest: h.finish(),
            sim_ops,
            checks,
            attack,
        }
    }
}

fn attack_success(report: &CampaignReport) -> f64 {
    report
        .metrics
        .phase("attack")
        .map_or(0.0, |p| p.success_ratio())
}

/// Separated attack availability beats co-located, for every pair of
/// raw-quorum-path campaigns that differ only in placement. Pairs that
/// run the resilient client are left out: its retries and hedges mask
/// the placement (both sides serve 99-100% of attack-phase ops), so
/// their order is decided by where the chaos faults land.
fn check_placements(
    configs: &[CampaignConfig],
    reports: &[Result<CampaignReport, String>],
    check: &mut impl FnMut(&str, bool),
) {
    for (i, (ci, ri)) in configs.iter().zip(reports).enumerate() {
        if ci.cluster.placement != PlacementPolicy::Separated || ci.client.is_some() {
            continue;
        }
        let twin = configs.iter().zip(reports).skip(i + 1).find(|(cj, _)| {
            cj.cluster.placement == PlacementPolicy::CoLocated
                && cj.seed == ci.seed
                && cj.client.is_none()
        });
        let Some((cj, rj)) = twin else {
            continue;
        };
        let ok = match (ri, rj) {
            (Ok(sep), Ok(col)) => attack_success(sep) > attack_success(col),
            _ => false,
        };
        check(
            &format!(
                "seed {} {}: separated attack availability > co-located ({})",
                ci.seed, ci.label, cj.label
            ),
            ok,
        );
    }
}

/// `tests/reproduce_paper.rs::table1_values`.
fn check_table1(rows: &[FioRangeRow], check: &mut impl FnMut(&str, bool)) {
    check("table1 has 7 rows", rows.len() == 7);
    if rows.len() != 7 {
        return;
    }
    check(
        "table1 baseline 18.0/22.7 MB/s, 0.23 ms",
        (rows[0].read_mb_s - 18.0).abs() < 0.2
            && (rows[0].write_mb_s - 22.7).abs() < 0.2
            && rows[0]
                .read_latency_ms
                .is_some_and(|l| (l - 0.23).abs() < 0.05),
    );
    check(
        "table1 1 and 5 cm black out",
        rows[1..3].iter().all(|r| {
            r.read_mb_s == 0.0
                && r.write_mb_s == 0.0
                && r.read_latency_ms.is_none()
                && r.write_latency_ms.is_none()
        }),
    );
    check(
        "table1 10 cm 12.6/0.3 MB/s",
        (rows[3].read_mb_s - 12.6).abs() < 2.0 && (rows[3].write_mb_s - 0.3).abs() < 0.3,
    );
    check(
        "table1 15 cm read > 16, write 0.2-3.5 MB/s",
        rows[4].read_mb_s > 16.0 && (0.2..3.5).contains(&rows[4].write_mb_s),
    );
    check(
        "table1 20-25 cm recovered",
        rows[5..]
            .iter()
            .all(|r| r.read_mb_s > 17.0 && r.write_mb_s > 21.0),
    );
    check(
        "table1 farther is never worse",
        rows[1..].windows(2).all(|p| {
            p[1].read_mb_s >= p[0].read_mb_s - 0.5 && p[1].write_mb_s >= p[0].write_mb_s - 0.5
        }),
    );
}

/// `tests/reproduce_paper.rs::table2_values`.
fn check_table2(rows: &[KvRangeRow], check: &mut impl FnMut(&str, bool)) {
    check("table2 has 7 rows", rows.len() == 7);
    if rows.len() != 7 {
        return;
    }
    let base = rows[0].throughput_mb_s;
    check(
        "table2 baseline 8.7 MB/s, 1.1 x100k ops/s",
        (base - 8.7).abs() < 0.9 && (rows[0].io_rate_x100k - 1.1).abs() < 0.15,
    );
    check(
        "table2 1 and 5 cm crash",
        rows[1..3]
            .iter()
            .all(|r| r.throughput_mb_s < 0.1 && r.crashed_at_s.is_some()),
    );
    check(
        "table2 15 cm degraded but serving",
        rows[4].throughput_mb_s > 0.5 && rows[4].throughput_mb_s < 0.8 * base,
    );
    check(
        "table2 20-25 cm near baseline",
        rows[5..].iter().all(|r| r.throughput_mb_s > 0.93 * base),
    );
}

/// `tests/reproduce_paper.rs::table3_values`.
fn check_table3(rows: &[CrashRow], check: &mut impl FnMut(&str, bool)) {
    check("table3 has 3 rows", rows.len() == 3);
    if rows.len() != 3 {
        return;
    }
    let times: Vec<f64> = rows.iter().filter_map(|r| r.time_to_crash_s).collect();
    check(
        "table3 every victim crashes in 75-90 s",
        times.len() == 3 && times.iter().all(|t| (75.0..90.0).contains(t)),
    );
    let mean = times.iter().sum::<f64>() / times.len().max(1) as f64;
    check(
        "table3 mean time to crash 78-85 s",
        (78.0..85.0).contains(&mean),
    );
    check(
        "table3 error signatures",
        rows[0].error.contains("JBD error -5")
            && rows[1].error.contains("-5")
            && rows[2].error.contains("sync_without_flush"),
    );
}

/// The `p`-th percentile of a latency histogram
/// (`Histogram::new_latency` geometry), interpolated log-linearly
/// between the edges of the bucket that holds the rank. The histogram
/// only answers bucket upper edges, so the bucket's first and last rank
/// are found by bisection.
pub fn interpolated_percentile(h: &Histogram, p: f64) -> Option<f64> {
    const BUCKETS_PER_DECADE: f64 = 20.0;
    let n = h.count();
    if n == 0 {
        return None;
    }
    let edge = |rank: u64| h.percentile(100.0 * (rank as f64 - 0.5) / n as f64);
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as u64;
    let upper = edge(rank)?;
    let same = |r: u64| edge(r) == Some(upper);
    // First rank in the bucket: bisect on [1, rank].
    let (mut lo, mut hi) = (1, rank);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if same(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let first = lo;
    // Last rank in the bucket: bisect on [rank, n].
    let (mut lo, mut hi) = (rank, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if same(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let last = lo;
    let lower = upper / 10f64.powf(1.0 / BUCKETS_PER_DECADE);
    let frac = (rank - first) as f64 + 0.5;
    let width = (last - first + 1) as f64;
    Some(lower * (upper / lower).powf(frac / width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_stays_inside_the_bucket() {
        let mut h = Histogram::new_latency();
        for i in 0..1000 {
            h.record(100.0 + f64::from(i) * 0.9);
        }
        let upper = h.percentile(99.0).expect("non-empty");
        let p99 = interpolated_percentile(&h, 99.0).expect("non-empty");
        assert!(
            p99 <= upper && p99 > upper / 10f64.powf(0.05),
            "{p99} vs {upper}"
        );
        assert!((p99 - 990.0).abs() < 30.0, "{p99}");
        assert_eq!(
            interpolated_percentile(&Histogram::new_latency(), 99.0),
            None
        );
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("bogus"), None);
    }

    #[test]
    fn swarm_seeds_follow_the_workload_seed() {
        let a = swarm_configs(1);
        assert_eq!(a.len() as u64, 2 * SWARM_SEEDS);
        assert_eq!(a[0].seed, a[1].seed);
        assert_ne!(a[0].seed, a[2].seed);
        assert_eq!(a[0].seed, swarm_configs(1)[0].seed);
        assert_ne!(a[0].seed, swarm_configs(2)[0].seed);
        assert!(duel_configs(9).iter().all(|c| c.seed == 9));
    }
}
