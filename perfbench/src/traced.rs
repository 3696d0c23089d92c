//! The traced pass: the same work as an untraced pass, submitted job by
//! job through the public `run_all` with every job timed and every call
//! into a layer spanned, and the per-layer metrics read off it.

use crate::compose::{self, DeviceTally, KvTally};
use crate::host::thread_cpu_s;
use crate::probe::{Call, CallTotals, JobTrace, Probe, SpanRecord};
use crate::workloads::{paper_testbed, table2_spec, Outputs, Workload, FIO_SECONDS};
use deepnote_cluster::prelude::{run_campaign, CampaignReport};
use deepnote_core::experiments::crash::CrashRow;
use deepnote_core::experiments::range;
use deepnote_core::parallel::{pool_width, run_all};
use deepnote_core::testbed::Testbed;
use deepnote_telemetry::{EventKind, Layer};
use std::time::Instant;

/// One `run_all` call: how many workers it used and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Batch {
    pub workers: usize,
    pub wall_s: f64,
}

/// Everything a traced pass measured besides its outputs.
#[derive(Debug, Default)]
pub struct Trace {
    pub jobs: Vec<JobTrace>,
    pub batches: Vec<Batch>,
    pub kv: KvTally,
    pub device: DeviceTally,
    pub fs_journal_commits: u64,
    pub iobench_jobs: u64,
}

impl Trace {
    /// Runs `jobs` on the pool, each under its own probe and inside a
    /// root span labelled with its name.
    fn run<T, F>(&mut self, epoch: Instant, jobs: Vec<(String, F)>) -> Vec<T>
    where
        T: Send,
        F: FnOnce(&Probe) -> T + Send,
    {
        let first = self.jobs.len();
        let workers = pool_width().min(jobs.len());
        let t0 = Instant::now();
        let done = run_all(
            jobs.into_iter()
                .enumerate()
                .map(|(i, (label, job))| {
                    move || {
                        let probe = Probe::new(first + i, epoch);
                        let cpu0 = thread_cpu_s();
                        let t0 = Instant::now();
                        let out = probe.span_named(Call::Job, Some(&label), || job(&probe));
                        let wall_s = t0.elapsed().as_secs_f64();
                        let cpu_s = thread_cpu_s() - cpu0;
                        let (stats, spans) = probe.finish().expect("a recording probe");
                        (
                            out,
                            JobTrace {
                                stats,
                                spans,
                                wall_s,
                                cpu_s,
                            },
                        )
                    }
                })
                .collect(),
        );
        self.batches.push(Batch {
            workers,
            wall_s: t0.elapsed().as_secs_f64(),
        });
        done.into_iter()
            .map(|(out, job)| {
                self.jobs.push(job);
                out
            })
            .collect()
    }

    pub fn spans(&self) -> impl Iterator<Item = &SpanRecord> {
        self.jobs.iter().flat_map(|j| j.spans.iter())
    }
}

/// One traced pass of `workload`.
pub fn pass(workload: Workload, seed: u64) -> (Outputs, Trace) {
    let epoch = Instant::now();
    let mut trace = Trace::default();
    let testbed = paper_testbed();
    let testbed = &testbed;
    let outputs = match workload {
        Workload::PaperKv => {
            let spec = table2_spec(seed);
            let spec = &spec;
            let rows = trace.run(
                epoch,
                range::paper_distances()
                    .into_iter()
                    .map(|d| {
                        (format!("table2 {d:?}"), move |p: &Probe| {
                            compose::kv_row(testbed, d, spec, p)
                        })
                    })
                    .collect(),
            );
            let mut table2 = Vec::new();
            for (row, tally) in rows {
                trace.kv.add(&tally);
                table2.push(row);
            }
            type Victim = fn(&Probe, &Testbed) -> Victimized;
            let victims: Vec<(String, Victim)> = vec![
                ("table3 ext4".into(), |p, t| {
                    let (row, dev, commits) = compose::ext4_crash(t, p);
                    Victimized::Fs(row, dev, commits)
                }),
                ("table3 ubuntu".into(), |p, t| {
                    let (row, dev, commits) = compose::ubuntu_crash(t, p);
                    Victimized::Fs(row, dev, commits)
                }),
                ("table3 rocksdb".into(), |p, t| {
                    let (row, tally) = compose::rocksdb_crash(t, p);
                    Victimized::Kv(row, tally)
                }),
            ];
            let done = trace.run(
                epoch,
                victims
                    .into_iter()
                    .map(|(label, v)| (label, move |p: &Probe| v(p, testbed)))
                    .collect(),
            );
            let mut table3 = Vec::new();
            for v in done {
                match v {
                    Victimized::Fs(row, dev, commits) => {
                        trace.device.add(&dev);
                        trace.fs_journal_commits += commits;
                        table3.push(row);
                    }
                    Victimized::Kv(row, tally) => {
                        trace.kv.add(&tally);
                        table3.push(row);
                    }
                }
            }
            let kv_device = trace.kv.device;
            trace.device.add(&kv_device);
            Outputs::PaperKv { table2, table3 }
        }
        Workload::FioRange => {
            let rows = trace.run(
                epoch,
                range::paper_distances()
                    .into_iter()
                    .map(|d| {
                        (format!("table1 {d:?}"), move |p: &Probe| {
                            compose::fio_row(testbed, d, FIO_SECONDS, p)
                        })
                    })
                    .collect(),
            );
            let mut table1 = Vec::new();
            for (row, dev) in rows {
                trace.device.add(&dev);
                trace.iobench_jobs += 2;
                table1.push(row);
            }
            Outputs::FioRange { table1 }
        }
        Workload::CampaignDuel | Workload::CampaignSwarm => {
            let configs = workload.campaigns(seed);
            let reports = trace.run(
                epoch,
                configs
                    .iter()
                    .map(|c| {
                        (
                            format!("campaign {} seed {}", c.label, c.seed),
                            move |p: &Probe| {
                                // Commission once under spans to split setup
                                // from serving, then run the campaign whole.
                                drop(compose::commission(c, p));
                                p.span(Call::ClusterCampaign, || run_campaign(c))
                                    .map_err(|e| e.to_string())
                            },
                        )
                    })
                    .collect(),
            );
            Outputs::Campaigns { configs, reports }
        }
    };
    (outputs, trace)
}

/// A Table 3 victim's row and what its stack did.
enum Victimized {
    Fs(CrashRow, DeviceTally, u64),
    Kv(CrashRow, KvTally),
}

/// A named metric with its unit.
pub type Metric = (&'static str, f64, &'static str);

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Host timings around the traced pass that the metrics compare with.
#[derive(Debug, Clone, Copy)]
pub struct PassWalls {
    /// Untraced pass at pool width 1.
    pub serial_s: f64,
    /// Untraced pass at the default pool width.
    pub untraced_s: f64,
    /// The traced pass.
    pub traced_s: f64,
}

/// Every per-layer metric of one traced pass.
pub fn layer_metrics(outputs: &Outputs, trace: &Trace, walls: PassWalls) -> Vec<Metric> {
    let calls = CallTotals::over(&trace.jobs);
    let host_s = |c: Call| calls.get(c).host_ns as f64 * 1e-9;
    let per_call_ns = |c: Call| {
        let s = calls.get(c);
        ratio(s.host_ns as f64, s.calls as f64)
    };
    let job_wall: f64 = trace.jobs.iter().map(|j| j.wall_s).sum();
    let job_cpu: f64 = trace.jobs.iter().map(|j| j.cpu_s).sum();
    let capacity: f64 = trace
        .batches
        .iter()
        .map(|b| b.workers as f64 * b.wall_s)
        .sum();
    let idle = (capacity - job_wall).max(0.0);
    let width = trace.batches.iter().map(|b| b.workers).max().unwrap_or(1);
    let dev = &trace.device;
    let ios = dev.reads + dev.writes + dev.flushes;
    let blockdev_s = host_s(Call::BlockRead) + host_s(Call::BlockWrite) + host_s(Call::BlockFlush);
    let kv = &trace.kv;
    let camp = CampaignCounts::of(outputs);
    let (hdd_completed, hdd_failed, hdd_retries, hdd_ratio) = if camp.campaigns > 0 {
        // The drives sit inside the cluster's nodes; their counters come
        // from the campaigns' own scraped series (none when scraping is
        // off), and retries are per cluster client op.
        (
            0,
            camp.drive_errors,
            camp.drive_retries,
            ratio(camp.drive_retries as f64, camp.client_ops as f64),
        )
    } else {
        let attempted = dev.hdd_ops_completed + dev.hdd_ops_failed;
        (
            dev.hdd_ops_completed,
            dev.hdd_ops_failed,
            dev.hdd_retries,
            ratio(dev.hdd_retries as f64, attempted as f64),
        )
    };
    let commission_s = host_s(Call::ClusterLaunch)
        + host_s(Call::ClusterProvision)
        + host_s(Call::AcousticsPrecompute);
    let attributed = calls.attributed_s() + idle;
    let unattributed = (capacity - attributed).max(0.0);
    vec![
        ("core.parallel.jobs", trace.jobs.len() as f64, "count"),
        ("core.parallel.width", width as f64, "count"),
        ("core.parallel.job_wall_s", job_wall, "s"),
        ("core.parallel.job_cpu_s", job_cpu, "s"),
        ("core.parallel.idle_s", idle, "s"),
        ("core.parallel.serial_wall_s", walls.serial_s, "s"),
        (
            "core.parallel.speedup",
            ratio(walls.serial_s, walls.untraced_s),
            "ratio",
        ),
        ("iobench.jobs", trace.iobench_jobs as f64, "count"),
        ("iobench.self_s", calls.layer_self_s("iobench"), "s"),
        ("blockdev.reads", dev.reads as f64, "count"),
        ("blockdev.writes", dev.writes as f64, "count"),
        ("blockdev.flushes", dev.flushes as f64, "count"),
        ("blockdev.blocks", dev.blocks as f64, "count"),
        ("blockdev.errors", dev.errors as f64, "count"),
        ("blockdev.host_s", blockdev_s, "s"),
        (
            "blockdev.host_ns_per_io",
            ratio(blockdev_s * 1e9, ios as f64),
            "ns",
        ),
        ("blockdev.sim_busy_s", dev.sim_busy_ns as f64 * 1e-9, "s"),
        ("hdd.new.host_s", host_s(Call::HddNew), "s"),
        ("hdd.ops_completed", hdd_completed as f64, "count"),
        ("hdd.ops_failed", hdd_failed as f64, "count"),
        ("hdd.retries", hdd_retries as f64, "count"),
        ("hdd.retry_ratio", hdd_ratio, "ratio"),
        ("kv.get.calls", calls.get(Call::KvGet).calls as f64, "count"),
        ("kv.get.host_ns", per_call_ns(Call::KvGet), "ns"),
        ("kv.put.calls", calls.get(Call::KvPut).calls as f64, "count"),
        ("kv.put.host_ns", per_call_ns(Call::KvPut), "ns"),
        ("kv.tick.host_s", host_s(Call::KvTick), "s"),
        ("kv.fill.host_s", host_s(Call::KvFill), "s"),
        ("kv.create.host_s", host_s(Call::KvCreate), "s"),
        ("kv.self_s", calls.layer_self_s("kv"), "s"),
        ("kv.flushes", kv.flushes as f64, "count"),
        ("kv.compactions", kv.compactions as f64, "count"),
        ("kv.wal_syncs", kv.wal_syncs as f64, "count"),
        (
            "kv.write_amp",
            ratio(
                (kv.user_bytes + kv.flush_bytes + kv.compaction_bytes) as f64,
                kv.user_bytes as f64,
            ),
            "ratio",
        ),
        ("fs.format.host_s", host_s(Call::FsFormat), "s"),
        ("fs.write_file.host_s", host_s(Call::FsWriteFile), "s"),
        ("fs.tick.host_s", host_s(Call::FsTick), "s"),
        ("fs.self_s", calls.layer_self_s("fs"), "s"),
        (
            "fs.journal_commits",
            trace.fs_journal_commits as f64,
            "count",
        ),
        ("os.host_s", calls.layer_self_s("os"), "s"),
        (
            "acoustics.mount_attack.host_s",
            host_s(Call::AcousticsMount),
            "s",
        ),
        (
            "acoustics.precompute_s",
            host_s(Call::AcousticsPrecompute),
            "s",
        ),
        ("cluster.launch_s", host_s(Call::ClusterLaunch), "s"),
        ("cluster.provision_s", host_s(Call::ClusterProvision), "s"),
        (
            "cluster.serve_s",
            (host_s(Call::ClusterCampaign) - commission_s).max(0.0),
            "s",
        ),
        ("cluster.client_ops", camp.client_ops as f64, "count"),
        ("cluster.failovers", camp.failovers as f64, "count"),
        ("cluster.repairs", camp.repairs as f64, "count"),
        ("cluster.node_crashes", camp.node_crashes as f64, "count"),
        ("cluster.oracle_wrong", camp.oracle_wrong as f64, "count"),
        ("client.retries", camp.retries as f64, "count"),
        ("client.hedges", camp.hedges as f64, "count"),
        ("client.breaker_trips", camp.breaker_trips as f64, "count"),
        (
            "client.useful_ratio",
            ratio(camp.ok as f64, camp.sends as f64),
            "ratio",
        ),
        (
            "chaos.injected_faults",
            camp.injected_faults as f64,
            "count",
        ),
        ("telemetry.trace_events", camp.trace_events as f64, "count"),
        (
            "telemetry.trace_dropped",
            camp.trace_dropped as f64,
            "count",
        ),
        ("sim_busy_s.hdd", camp.busy_s[0], "s"),
        ("sim_busy_s.blockdev", camp.busy_s[1], "s"),
        ("sim_busy_s.fs", camp.busy_s[2], "s"),
        ("sim_busy_s.kv", camp.busy_s[3], "s"),
        ("sim_busy_s.cluster", camp.busy_s[4], "s"),
        ("trace.untraced_wall_s", walls.untraced_s, "s"),
        ("trace.wall_s", walls.traced_s, "s"),
        (
            "trace.overhead",
            ratio(walls.traced_s - walls.untraced_s, walls.untraced_s),
            "ratio",
        ),
        ("trace.capacity_s", capacity, "s"),
        ("trace.attributed_s", attributed, "s"),
        ("trace.unattributed_s", unattributed, "s"),
        (
            "trace.unattributed_share",
            ratio(unattributed, capacity),
            "ratio",
        ),
    ]
}

/// Counts read off the campaigns' reports and their own traces.
#[derive(Debug, Default)]
struct CampaignCounts {
    campaigns: u64,
    client_ops: u64,
    ok: u64,
    sends: u64,
    failovers: u64,
    repairs: u64,
    node_crashes: u64,
    oracle_wrong: u64,
    retries: u64,
    hedges: u64,
    breaker_trips: u64,
    injected_faults: u64,
    trace_events: u64,
    trace_dropped: u64,
    drive_retries: u64,
    drive_errors: u64,
    /// Simulated span seconds: hdd, blockdev, fs, kv, cluster.
    busy_s: [f64; 5],
}

impl CampaignCounts {
    fn of(outputs: &Outputs) -> Self {
        let mut c = CampaignCounts::default();
        let Outputs::Campaigns { reports, .. } = outputs else {
            return c;
        };
        for r in reports.iter().filter_map(|r| r.as_ref().ok()) {
            c.add(r);
        }
        c
    }

    fn add(&mut self, r: &CampaignReport) {
        self.campaigns += 1;
        let mut attempted = 0;
        for p in &r.metrics.phases {
            attempted += p.reads.attempted + p.writes.attempted;
            self.ok += p.reads.ok + p.writes.ok;
        }
        self.client_ops += attempted;
        self.failovers += r.failovers;
        self.repairs += r.repair.jobs_done;
        self.node_crashes += r.node_counters.iter().map(|n| n.crashes).sum::<u64>();
        self.oracle_wrong += r.integrity.oracle_wrong;
        self.injected_faults += r.chaos.iter().map(|s| s.total()).sum::<u64>();
        match &r.resilience {
            Some(s) => {
                self.retries += s.retries;
                self.hedges += s.hedges;
                self.breaker_trips += s.breaker_trips;
                self.sends += s.attempts + s.hedges;
            }
            None => self.sends += attempted,
        }
        // Drive counters survive engine reboots but read 0 while a node
        // is down, so each node's largest sample is its total.
        for series in &r.series {
            let peak = series.points.iter().map(|p| p.value).fold(0.0, f64::max) as u64;
            if series.name.ends_with(".seek_retries") {
                self.drive_retries += peak;
            } else if series.name.ends_with(".io_errors") {
                self.drive_errors += peak;
            }
        }
        let Some(log) = &r.trace else {
            return;
        };
        self.trace_events += log.events.len() as u64;
        self.trace_dropped += log.dropped;
        for e in &log.events {
            if e.kind != EventKind::Span {
                continue;
            }
            let slot = match e.layer {
                Layer::Hdd => 0,
                Layer::Blockdev => 1,
                Layer::Fs => 2,
                Layer::Kv => 3,
                Layer::Cluster => 4,
                _ => continue,
            };
            self.busy_s[slot] += e.dur.as_secs_f64();
        }
    }
}
