//! The traced compositions: the benchmark's own copies of the library's
//! row drivers (`range::kv_row`, `range::fio_row`, `crash::*`,
//! `run_campaign`'s commissioning), with a [`Probe`] span around every
//! call into a layer and a [`TimedDisk`] between the store and the
//! drive. Built from the same public calls in the same order, they
//! return the same outputs; `tests/fidelity.rs` holds them to that.
//! With [`Probe::off`] they are the untraced commissioning steps that
//! `setup_s` times.

use crate::probe::{Call, Probe};
use deepnote_acoustics::Distance;
use deepnote_blockdev::{BlockDevice, HddDisk, IoError};
use deepnote_cluster::prelude::{CampaignConfig, Cluster, ClusterError};
use deepnote_core::experiments::crash::{self, CrashRow};
use deepnote_core::experiments::range::{FioRangeRow, KvRangeRow};
use deepnote_core::testbed::Testbed;
use deepnote_core::threat::AttackParams;
use deepnote_fs::{Filesystem, FsError};
use deepnote_iobench::{run_job, JobSpec};
use deepnote_kv::bench::{self, BenchReport, BenchSpec};
use deepnote_kv::{Db, DbError};
use deepnote_os::{OsState, ServerOs};
use deepnote_sim::{Clock, SimDuration, SimRng, SimTime};

/// The salt `run_campaign` folds into the campaign seed for the chaos
/// RNG tree (a private constant of `deepnote_cluster::campaign`).
pub const CHAOS_SALT: u64 = 0xC4A0_5EED_D15C_0DE5;

/// Device-level counts taken by [`TimedDisk`] and the drive beneath it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceTally {
    pub reads: u64,
    pub writes: u64,
    pub flushes: u64,
    pub blocks: u64,
    pub errors: u64,
    /// Virtual time the device calls took.
    pub sim_busy_ns: u64,
    pub hdd_ops_completed: u64,
    pub hdd_ops_failed: u64,
    pub hdd_retries: u64,
}

impl DeviceTally {
    pub fn add(&mut self, o: &DeviceTally) {
        self.reads += o.reads;
        self.writes += o.writes;
        self.flushes += o.flushes;
        self.blocks += o.blocks;
        self.errors += o.errors;
        self.sim_busy_ns += o.sim_busy_ns;
        self.hdd_ops_completed += o.hdd_ops_completed;
        self.hdd_ops_failed += o.hdd_ops_failed;
        self.hdd_retries += o.hdd_retries;
    }
}

/// A pass-through [`BlockDevice`] that times every call into the HDD
/// model and counts what went through it.
pub struct TimedDisk {
    inner: HddDisk,
    probe: Probe,
    clock: Clock,
    tally: DeviceTally,
}

impl TimedDisk {
    pub fn new(inner: HddDisk, probe: Probe, clock: Clock) -> Self {
        TimedDisk {
            inner,
            probe,
            clock,
            tally: DeviceTally::default(),
        }
    }

    pub fn inner(&self) -> &HddDisk {
        &self.inner
    }

    /// The counts so far, with the drive's own counters.
    pub fn tally(&self) -> DeviceTally {
        let drive = self.inner.drive();
        DeviceTally {
            hdd_ops_completed: drive.ops_completed(),
            hdd_ops_failed: drive.ops_failed(),
            hdd_retries: drive.retries_total(),
            ..self.tally
        }
    }

    fn account(&mut self, t0: SimTime, blocks: u64, r: &Result<(), IoError>) {
        self.tally.sim_busy_ns += (self.clock.now() - t0).as_nanos();
        self.tally.blocks += blocks;
        self.tally.errors += u64::from(r.is_err());
    }
}

impl BlockDevice for TimedDisk {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_blocks(&mut self, lba: u64, buf: &mut [u8]) -> Result<(), IoError> {
        let t0 = self.clock.now();
        let inner = &mut self.inner;
        let r = self
            .probe
            .span(Call::BlockRead, || inner.read_blocks(lba, buf));
        self.tally.reads += 1;
        self.account(t0, (buf.len() / deepnote_blockdev::BLOCK_SIZE) as u64, &r);
        r
    }

    fn write_blocks(&mut self, lba: u64, buf: &[u8]) -> Result<(), IoError> {
        let t0 = self.clock.now();
        let inner = &mut self.inner;
        let r = self
            .probe
            .span(Call::BlockWrite, || inner.write_blocks(lba, buf));
        self.tally.writes += 1;
        self.account(t0, (buf.len() / deepnote_blockdev::BLOCK_SIZE) as u64, &r);
        r
    }

    fn flush(&mut self) -> Result<(), IoError> {
        let t0 = self.clock.now();
        let inner = &mut self.inner;
        let r = self.probe.span(Call::BlockFlush, || inner.flush());
        self.tally.flushes += 1;
        self.account(t0, 0, &r);
        r
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }
}

/// A fresh paper drive behind a [`TimedDisk`], on its own clock.
fn fresh_disk(probe: &Probe) -> (TimedDisk, Clock) {
    let clock = Clock::new();
    let disk = probe.span(Call::HddNew, || HddDisk::barracuda_500gb(clock.clone()));
    (TimedDisk::new(disk, probe.clone(), clock.clone()), clock)
}

fn mount(probe: &Probe, testbed: &Testbed, disk: &TimedDisk, params: AttackParams) {
    probe.span(Call::AcousticsMount, || {
        testbed.mount_attack(&disk.inner().vibration(), params)
    });
}

fn row_label(distance_cm: Option<f64>) -> String {
    match distance_cm {
        None => "No Attack".to_string(),
        Some(cm) => format!("{cm:.0} cm"),
    }
}

/// Table 2 row commissioning: a fresh store, filled (`Db::create` +
/// `bench::fill_seq`).
pub fn kv_row_setup(spec: &BenchSpec, probe: &Probe) -> Db<TimedDisk> {
    let (disk, clock) = fresh_disk(probe);
    let mut db = probe
        .span(Call::KvCreate, || Db::create(disk, clock))
        .expect("fresh device formats cleanly");
    probe
        .span(Call::KvFill, || bench::fill_seq(&mut db, spec))
        .expect("load phase on quiet drive succeeds");
    db
}

/// `range::kv_row`, traced.
pub fn kv_row(
    testbed: &Testbed,
    distance_cm: Option<f64>,
    spec: &BenchSpec,
    probe: &Probe,
) -> (KvRangeRow, KvTally) {
    let mut db = kv_row_setup(spec, probe);
    if let Some(cm) = distance_cm {
        let params = AttackParams::paper_best().at_distance(Distance::from_cm(cm));
        mount(probe, testbed, db.filesystem().device(), params);
    }
    let report = probe.span(Call::KvReadWhileWriting, || {
        read_while_writing(&mut db, spec, probe)
    });
    let row = KvRangeRow {
        label: row_label(distance_cm),
        throughput_mb_s: report.throughput_mb_s,
        io_rate_x100k: report.ops_per_s_x100k(),
        crashed_at_s: report.crashed_at_s,
    };
    (row, KvTally::of(&db))
}

/// What one store did: its stats and the device tally beneath it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KvTally {
    pub flushes: u64,
    pub compactions: u64,
    pub wal_syncs: u64,
    pub user_bytes: u64,
    pub flush_bytes: u64,
    pub compaction_bytes: u64,
    pub device: DeviceTally,
}

impl KvTally {
    fn of(db: &Db<TimedDisk>) -> Self {
        let s = db.stats();
        KvTally {
            flushes: s.flushes,
            compactions: s.compactions,
            wal_syncs: s.wal_syncs,
            user_bytes: s.user_bytes,
            flush_bytes: s.flush_bytes,
            compaction_bytes: s.compaction_bytes,
            device: db.filesystem().device().tally(),
        }
    }

    pub fn add(&mut self, o: &KvTally) {
        self.flushes += o.flushes;
        self.compactions += o.compactions;
        self.wal_syncs += o.wal_syncs;
        self.user_bytes += o.user_bytes;
        self.flush_bytes += o.flush_bytes;
        self.compaction_bytes += o.compaction_bytes;
        self.device.add(&o.device);
    }
}

/// `bench::read_while_writing` with a span around every store call.
fn read_while_writing(db: &mut Db<TimedDisk>, spec: &BenchSpec, probe: &Probe) -> BenchReport {
    let clock = db.clock().clone();
    let start: SimTime = clock.now();
    let deadline = start + spec.duration;
    let mut rng = SimRng::seeded(spec.seed);

    let mut ops = 0u64;
    let mut failed = 0u64;
    let mut bytes = 0u64;
    let mut crashed_at = None;
    let payload = (spec.key_size + spec.value_size) as u64;

    'outer: while clock.now() < deadline {
        let i = rng.below(spec.num_keys);
        let (key, value) = (spec.key(i), spec.value(i));
        match probe.span(Call::KvPut, || db.put(&key, &value)) {
            Ok(()) => {
                ops += 1;
                bytes += payload;
            }
            Err(e) => {
                failed += 1;
                if e.is_fatal() {
                    crashed_at = Some((clock.now() - start).as_secs_f64());
                    break 'outer;
                }
            }
        }
        for _ in 0..spec.readers_per_writer {
            let key = spec.key(rng.below(spec.num_keys));
            match probe.span(Call::KvGet, || db.get(&key)) {
                Ok(_) => {
                    ops += 1;
                    bytes += payload;
                }
                Err(e) => {
                    failed += 1;
                    if e.is_fatal() {
                        crashed_at = Some((clock.now() - start).as_secs_f64());
                        break 'outer;
                    }
                }
            }
        }
        if probe.span(Call::KvTick, || db.tick()).is_err() {
            crashed_at = Some((clock.now() - start).as_secs_f64());
            break 'outer;
        }
    }

    let elapsed_s = (clock.now() - start).as_secs_f64().max(1e-9);
    let window_s = if crashed_at.is_some() {
        spec.duration.as_secs_f64()
    } else {
        elapsed_s
    };
    BenchReport {
        ops,
        failed_ops: failed,
        bytes,
        elapsed_s,
        throughput_mb_s: bytes as f64 / 1e6 / window_s,
        ops_per_s: ops as f64 / window_s,
        crashed_at_s: crashed_at,
    }
}

/// FIO row commissioning: a fresh drive with the attack mounted.
pub fn fio_row_setup(
    testbed: &Testbed,
    distance_cm: Option<f64>,
    probe: &Probe,
) -> (TimedDisk, Clock) {
    let (disk, clock) = fresh_disk(probe);
    if let Some(cm) = distance_cm {
        let params = AttackParams::paper_best().at_distance(Distance::from_cm(cm));
        mount(probe, testbed, &disk, params);
    }
    (disk, clock)
}

/// `range::fio_row`, traced.
pub fn fio_row(
    testbed: &Testbed,
    distance_cm: Option<f64>,
    seconds: u64,
    probe: &Probe,
) -> (FioRangeRow, DeviceTally) {
    let (mut disk, clock) = fio_row_setup(testbed, distance_cm, probe);
    let runtime = SimDuration::from_secs(seconds);
    let read = probe.span(Call::IobenchJob, || {
        run_job(
            &JobSpec::seq_read("t1-read").with_runtime(runtime),
            &mut disk,
            &clock,
        )
    });
    let write = probe.span(Call::IobenchJob, || {
        run_job(
            &JobSpec::seq_write("t1-write").with_runtime(runtime),
            &mut disk,
            &clock,
        )
    });
    let row = FioRangeRow {
        label: row_label(distance_cm),
        read_mb_s: read.throughput_mb_s,
        write_mb_s: write.throughput_mb_s,
        read_latency_ms: read.mean_latency_ms,
        write_latency_ms: write.mean_latency_ms,
    };
    (row, disk.tally())
}

/// Ext4 victim commissioning: a formatted filesystem with the log file.
pub fn ext4_setup(probe: &Probe) -> (Filesystem<TimedDisk>, Clock) {
    let (disk, clock) = fresh_disk(probe);
    let mut fs = probe
        .span(Call::FsFormat, || Filesystem::format(disk, clock.clone()))
        .expect("format succeeds");
    for dir in ["/var", "/var/log"] {
        probe
            .span(Call::FsCreate, || fs.create(dir))
            .expect("setup");
    }
    probe
        .span(Call::FsCreate, || fs.create_file("/var/log/app.log"))
        .expect("setup");
    (fs, clock)
}

/// `crash::ext4_crash`, traced.
pub fn ext4_crash(testbed: &Testbed, probe: &Probe) -> (CrashRow, DeviceTally, u64) {
    let (mut fs, clock) = ext4_setup(probe);
    let mut offset = 0u64;
    let mut append = |fs: &mut Filesystem<TimedDisk>| -> Result<(), FsError> {
        let line = format!("[{}] request served\n", fs.clock().now());
        let data = line.into_bytes();
        let r = probe.span(Call::FsWriteFile, || {
            fs.write_file("/var/log/app.log", offset, &data)
        });
        if r.is_ok() {
            offset += data.len() as u64;
        }
        r
    };

    let mut commits_seen = 0;
    loop {
        append(&mut fs).expect("healthy phase");
        probe
            .span(Call::FsTick, || fs.tick(clock.now()))
            .expect("healthy phase");
        let commits = fs.stats().journal_commits;
        let committed_now = commits > commits_seen;
        commits_seen = commits;
        clock.advance(SimDuration::from_millis(100));
        if clock.now().as_secs_f64() >= crash::WARMUP.as_secs_f64() && committed_now {
            break;
        }
    }
    let attack_start = clock.now();
    mount(probe, testbed, fs.device(), AttackParams::paper_best());

    let deadline = attack_start + crash::ATTACK_LIMIT;
    let mut error = String::new();
    let mut crashed = None;
    while clock.now() < deadline {
        let _ = append(&mut fs);
        let step = probe.span(Call::FsTick, || fs.tick(clock.now()));
        if let Err(e @ FsError::JournalAborted { .. }) = step {
            crashed = Some((clock.now() - attack_start).as_secs_f64());
            error = e.to_string();
            break;
        }
        clock.advance(SimDuration::from_millis(100));
    }
    let row = CrashRow {
        application: "Ext4".to_string(),
        description: "Journaling filesystem".to_string(),
        time_to_crash_s: crashed,
        error,
    };
    (row, fs.device().tally(), fs.stats().journal_commits)
}

/// Ubuntu victim commissioning: an installed server.
pub fn ubuntu_setup(probe: &Probe) -> (ServerOs<TimedDisk>, Clock) {
    let (disk, clock) = fresh_disk(probe);
    let os = probe
        .span(Call::OsInstall, || ServerOs::install(disk, clock.clone()))
        .expect("install succeeds");
    (os, clock)
}

/// `crash::ubuntu_crash`, traced.
pub fn ubuntu_crash(testbed: &Testbed, probe: &Probe) -> (CrashRow, DeviceTally, u64) {
    let (mut os, clock) = ubuntu_setup(probe);

    while clock.now().as_secs_f64() < crash::WARMUP.as_secs_f64() {
        probe
            .span(Call::OsWriteLog, || os.write_log("healthy heartbeat"))
            .expect("healthy phase");
        clock.advance(SimDuration::from_secs(1));
        probe.span(Call::OsTick, || {
            os.tick();
        });
    }
    assert!(os.running(), "server must survive warm-up");
    let attack_start = clock.now();
    mount(
        probe,
        testbed,
        os.filesystem_mut().device(),
        AttackParams::paper_best(),
    );

    let deadline = attack_start + crash::ATTACK_LIMIT;
    let mut crashed = None;
    let mut error = String::new();
    while clock.now() < deadline {
        let _ = probe.span(Call::OsWriteLog, || os.write_log("request under attack"));
        let _ = probe.span(Call::OsExec, || os.exec("ls"));
        clock.advance(SimDuration::from_secs(1));
        let state = probe.span(Call::OsTick, || os.tick().clone());
        if let OsState::Crashed { at, reason } = state {
            crashed = Some((at - attack_start).as_secs_f64());
            error = reason;
            break;
        }
    }
    let row = CrashRow {
        application: "Ubuntu".to_string(),
        description: "Ubuntu server 16.04".to_string(),
        time_to_crash_s: crashed,
        error,
    };
    let fs = os.filesystem_mut();
    (row, fs.device().tally(), fs.stats().journal_commits)
}

/// The store spec `crash::rocksdb_crash` loads.
pub fn rocksdb_spec() -> BenchSpec {
    BenchSpec {
        num_keys: 10_000,
        ..BenchSpec::default()
    }
}

/// RocksDB victim commissioning: a fresh store, filled.
pub fn rocksdb_setup(probe: &Probe) -> (Db<TimedDisk>, Clock) {
    let spec = rocksdb_spec();
    let (disk, clock) = fresh_disk(probe);
    let mut db = probe
        .span(Call::KvCreate, || Db::create(disk, clock.clone()))
        .expect("create succeeds");
    probe
        .span(Call::KvFill, || bench::fill_seq(&mut db, &spec))
        .expect("load phase");
    (db, clock)
}

/// `crash::rocksdb_crash`, traced.
pub fn rocksdb_crash(testbed: &Testbed, probe: &Probe) -> (CrashRow, KvTally) {
    let spec = rocksdb_spec();
    let (mut db, clock) = rocksdb_setup(probe);

    let mut rng = SimRng::seeded(7);
    while clock.now().as_secs_f64() < crash::WARMUP.as_secs_f64() {
        let i = rng.below(spec.num_keys);
        probe
            .span(Call::KvPut, || db.put(&spec.key(i), &spec.value(i)))
            .expect("healthy phase");
        let key = spec.key(rng.below(spec.num_keys));
        let _ = probe
            .span(Call::KvGet, || db.get(&key))
            .expect("healthy phase");
    }
    let attack_start = clock.now();
    mount(
        probe,
        testbed,
        db.filesystem().device(),
        AttackParams::paper_best(),
    );

    let deadline = attack_start + crash::ATTACK_LIMIT;
    let mut crashed = None;
    let mut error = String::new();
    while clock.now() < deadline {
        let i = rng.below(spec.num_keys);
        let step: Result<(), DbError> = probe
            .span(Call::KvPut, || db.put(&spec.key(i), &spec.value(i)))
            .and_then(|()| {
                let key = spec.key(rng.below(spec.num_keys));
                probe.span(Call::KvGet, || db.get(&key)).map(|_| ())
            })
            .and_then(|()| probe.span(Call::KvTick, || db.tick()));
        if let Err(e) = step {
            if e.is_fatal() {
                crashed = Some((clock.now() - attack_start).as_secs_f64());
                error = e.to_string();
                break;
            }
        }
    }
    let row = CrashRow {
        application: "RocksDB".to_string(),
        description: "Key-value database".to_string(),
        time_to_crash_s: crashed,
        error,
    };
    (row, KvTally::of(&db))
}

/// `run_campaign`'s commissioning: launch every node, preload the
/// keyspace, and precompute the transfer path for every tone the
/// timeline can mount.
///
/// # Errors
///
/// Whatever `Cluster::with_chaos` or `Cluster::provision` return.
pub fn commission(config: &CampaignConfig, probe: &Probe) -> Result<Cluster, ClusterError> {
    let mut chaos_rng = SimRng::seeded(config.seed ^ CHAOS_SALT);
    let mut cluster = probe.span(Call::ClusterLaunch, || {
        Cluster::with_chaos(config.cluster.clone(), &config.chaos, &mut chaos_rng)
    })?;
    probe.span(Call::ClusterProvision, || {
        cluster.provision(&config.workload)
    })?;
    if config.transfer_cache {
        let tones = config
            .timeline
            .tone_frequencies(config.cluster.health.heartbeat_every);
        probe.span(Call::AcousticsPrecompute, || {
            cluster.precompute_transfer(&tones)
        });
    }
    Ok(cluster)
}
