//! Host-side measurements: wall clock, CPU clocks and peak memory.
//!
//! The simulator runs on virtual time and never reads these; only the
//! benchmark does. Linux only: CPU time comes from `clock_gettime` and
//! peak memory from `/proc/self/status`.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock_id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and both clock ids are valid on Linux.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// User + system CPU seconds of the whole process, every thread
/// included (threads that have exited too).
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds of the calling thread.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size of the process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Wall and CPU cost of one measured section.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Runs `f`, returning its result with the wall and process CPU time
/// it took.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    (out, Cost { wall_s, cpu_s })
}

/// Runs `f` with the experiment pool forced to `width` workers through
/// the pool's own `DEEPNOTE_THREADS` override, restoring the previous
/// value afterwards. Call it only while no other thread of this process
/// runs: the pool's workers are scoped, so between pool calls none do.
pub fn with_pool_width<T>(width: usize, f: impl FnOnce() -> T) -> T {
    let env = deepnote_core::parallel::THREADS_ENV;
    let prior = std::env::var(env).ok();
    std::env::set_var(env, width.to_string());
    let out = f();
    match prior {
        Some(v) => std::env::set_var(env, v),
        None => std::env::remove_var(env),
    }
    out
}
