//! `db_bench`-style workloads.
//!
//! The paper runs RocksDB's `db_bench` with the `readwhilewriting`
//! workload and reports throughput (MB/s of key+value payload) and I/O
//! rate (operations per second) — Table 2. This module reproduces that
//! harness: a `fillseq` loading phase and a `readwhilewriting` phase
//! interleaving one writer with several readers on the virtual timeline.

use crate::db::Db;
use crate::error::DbError;
use deepnote_blockdev::BlockDevice;
use deepnote_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Workload parameters, mirroring `db_bench` flags.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BenchSpec {
    /// Number of distinct keys (`--num`).
    pub num_keys: u64,
    /// Key size in bytes (`--key_size`).
    pub key_size: usize,
    /// Value size in bytes (`--value_size`).
    pub value_size: usize,
    /// Reader ops issued per writer op (`readwhilewriting` ratio).
    pub readers_per_writer: u32,
    /// Virtual duration of the measured phase.
    pub duration: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BenchSpec {
    fn default() -> Self {
        BenchSpec {
            num_keys: 100_000,
            key_size: 16,
            value_size: 64,
            readers_per_writer: 4,
            duration: SimDuration::from_secs(10),
            seed: 42,
        }
    }
}

impl BenchSpec {
    /// Encodes key index `i` as a fixed-width key: its decimal digits
    /// zero-padded to 16, then cut or `'0'`-padded to `key_size`.
    pub fn key(&self, i: u64) -> Vec<u8> {
        let mut k = Vec::with_capacity(self.key_size.max(MAX_DIGITS));
        push_zero_padded(&mut k, i, 16);
        k.resize(self.key_size, b'0');
        k
    }

    /// A deterministic value for key index `i`: `v` and its digits
    /// zero-padded to 15, then cut or `'x'`-padded to `value_size`.
    pub fn value(&self, i: u64) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.value_size.max(1 + MAX_DIGITS));
        v.push(b'v');
        push_zero_padded(&mut v, i, 15);
        v.resize(self.value_size, b'x');
        v
    }
}

/// Decimal digits in `u64::MAX`.
const MAX_DIGITS: usize = 20;

/// Appends `i` in decimal, zero-padded to at least `width` digits (the
/// bytes of `format!("{i:0width$}")`).
fn push_zero_padded(out: &mut Vec<u8>, mut i: u64, width: usize) {
    let mut digits = [0u8; MAX_DIGITS];
    let mut start = MAX_DIGITS;
    loop {
        start -= 1;
        digits[start] = b'0' + (i % 10) as u8;
        i /= 10;
        if i == 0 {
            break;
        }
    }
    let len = MAX_DIGITS - start;
    out.resize(out.len() + width.saturating_sub(len), b'0');
    out.extend_from_slice(&digits[start..]);
}

/// The measurements `db_bench` prints.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Completed operations (reads + writes).
    pub ops: u64,
    /// Failed operations before a crash stopped the run (if any).
    pub failed_ops: u64,
    /// Payload bytes processed (key+value per completed op).
    pub bytes: u64,
    /// Virtual elapsed seconds.
    pub elapsed_s: f64,
    /// Payload throughput in MB/s (Table 2's "Throughput").
    pub throughput_mb_s: f64,
    /// Operations per second (Table 2's "I/O Rate").
    pub ops_per_s: f64,
    /// Whether the store crashed during the run, and when (virtual
    /// seconds from the start of the measured phase).
    pub crashed_at_s: Option<f64>,
}

impl BenchReport {
    /// Table 2 renders the I/O rate in units of 100 000 ops/s.
    pub fn ops_per_s_x100k(&self) -> f64 {
        self.ops_per_s / 1e5
    }
}

/// Loads `spec.num_keys` sequential keys (db_bench `fillseq`).
///
/// # Errors
///
/// Fatal store errors (e.g. WAL failure mid-load).
pub fn fill_seq<D: BlockDevice>(db: &mut Db<D>, spec: &BenchSpec) -> Result<(), DbError> {
    for i in 0..spec.num_keys {
        db.put(&spec.key(i), &spec.value(i))?;
    }
    db.flush()?;
    Ok(())
}

/// Runs the `readwhilewriting` phase: one writer op (overwrite of a random
/// key) per `readers_per_writer` random reads, until `spec.duration` of
/// virtual time elapses or the store crashes.
pub fn read_while_writing<D: BlockDevice>(db: &mut Db<D>, spec: &BenchSpec) -> BenchReport {
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
        // One writer op.
        let i = rng.below(spec.num_keys);
        match db.put(&spec.key(i), &spec.value(i)) {
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
        // A batch of reader ops.
        for _ in 0..spec.readers_per_writer {
            let i = rng.below(spec.num_keys);
            match db.get(&spec.key(i)) {
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
        // Background work (journal commit timer).
        if db.tick().is_err() {
            crashed_at = Some((clock.now() - start).as_secs_f64());
            break 'outer;
        }
    }

    let elapsed_s = (clock.now() - start).as_secs_f64().max(1e-9);
    // A crashed run is reported over the intended window (the bench tool
    // keeps waiting and prints zeros), matching Table 2's 0-rows.
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

#[cfg(test)]
mod tests {
    use super::*;
    use deepnote_blockdev::{FaultInjector, FaultPlan, IoError, MemDisk};
    use deepnote_sim::Clock;

    fn quick_spec() -> BenchSpec {
        BenchSpec {
            num_keys: 2_000,
            duration: SimDuration::from_secs(1),
            ..BenchSpec::default()
        }
    }

    #[test]
    fn fillseq_then_read_back() {
        let mut db = Db::create(MemDisk::new(1 << 19), Clock::new()).unwrap();
        let spec = quick_spec();
        fill_seq(&mut db, &spec).unwrap();
        assert_eq!(db.get(&spec.key(0)).unwrap(), Some(spec.value(0)));
        assert_eq!(
            db.get(&spec.key(spec.num_keys - 1)).unwrap(),
            Some(spec.value(spec.num_keys - 1))
        );
    }

    #[test]
    fn read_while_writing_healthy_reports_rates() {
        let mut db = Db::create(MemDisk::new(1 << 19), Clock::new()).unwrap();
        let spec = quick_spec();
        fill_seq(&mut db, &spec).unwrap();
        let report = read_while_writing(&mut db, &spec);
        assert!(report.crashed_at_s.is_none());
        assert!(report.ops > 10_000, "ops = {}", report.ops);
        assert!(report.throughput_mb_s > 1.0, "{report:?}");
        assert!((report.elapsed_s - 1.0).abs() < 0.05);
        assert_eq!(report.failed_ops, 0);
        assert!((report.ops_per_s_x100k() - report.ops_per_s / 1e5).abs() < 1e-12);
    }

    #[test]
    fn keys_are_fixed_width_and_deterministic() {
        let spec = BenchSpec::default();
        assert_eq!(spec.key(7).len(), 16);
        assert_eq!(spec.value(7).len(), 64);
        assert_eq!(spec.key(7), spec.key(7));
        assert_ne!(spec.key(7), spec.key(8));
    }

    #[test]
    fn keys_and_values_match_the_format_reference() {
        let reference = |spec: &BenchSpec, i: u64| {
            let mut k = format!("{i:016}").into_bytes();
            k.resize(spec.key_size, b'0');
            let mut v = format!("v{i:015}").into_bytes();
            v.resize(spec.value_size, b'x');
            (k, v)
        };
        for (key_size, value_size) in [(8, 4), (15, 15), (16, 16), (17, 64), (24, 100), (0, 0)] {
            let spec = BenchSpec {
                key_size,
                value_size,
                ..BenchSpec::default()
            };
            for i in [
                0,
                7,
                10u64.pow(15) - 1,
                10u64.pow(15),
                10u64.pow(16) - 1,
                10u64.pow(16),
                u64::MAX,
            ] {
                assert_eq!(
                    (spec.key(i), spec.value(i)),
                    reference(&spec, i),
                    "i = {i}, key_size = {key_size}, value_size = {value_size}"
                );
            }
        }
    }

    #[test]
    fn blocked_device_crashes_run_and_reports_zero_class_rates() {
        let clock = Clock::new();
        let disk = FaultInjector::new(MemDisk::new(1 << 19), FaultPlan::None);
        let mut db = Db::create(disk, clock.clone()).unwrap();
        let spec = BenchSpec {
            num_keys: 2_000,
            duration: SimDuration::from_secs(120),
            ..BenchSpec::default()
        };
        fill_seq(&mut db, &spec).unwrap();
        db.filesystem_mut()
            .device_mut()
            .set_plan(FaultPlan::FailWritesFrom {
                start: 0,
                error: IoError::NoResponse,
            });
        let report = read_while_writing(&mut db, &spec);
        let crashed_at = report.crashed_at_s.expect("must crash");
        assert!(
            (79.0..92.0).contains(&crashed_at),
            "crashed at {crashed_at}"
        );
        // Rates over the full window are a small fraction of healthy.
        assert!(report.throughput_mb_s < 2.0, "{report:?}");
    }
}
