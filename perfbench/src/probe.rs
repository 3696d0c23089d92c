//! In-memory span recorder for the traced run.
//!
//! A [`Probe`] belongs to one pool job. Compositions wrap each call into
//! a layer in [`Probe::span`]; the probe keeps a stack of open spans so
//! every span knows its parent, and charges a span's duration to its
//! parent's children. Self time is a span's duration minus its
//! children's. Hot calls (one per simulated operation: `kv.get`,
//! `blockdev.read`, ...) are only counted and timed per [`Call`]; the
//! coarse ones (row phases, campaign parts) are also kept as
//! [`SpanRecord`]s with start, end and parent, to be written out when
//! the run ends.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Every call the benchmark times. The layer is the name's prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// A pool job's root span: composition glue nobody else claims.
    Job,
    HddNew,
    AcousticsMount,
    AcousticsPrecompute,
    IobenchJob,
    BlockRead,
    BlockWrite,
    BlockFlush,
    FsFormat,
    FsCreate,
    FsWriteFile,
    FsTick,
    OsInstall,
    OsWriteLog,
    OsExec,
    OsTick,
    KvCreate,
    KvFill,
    KvReadWhileWriting,
    KvPut,
    KvGet,
    KvTick,
    ClusterLaunch,
    ClusterProvision,
    ClusterCampaign,
}

impl Call {
    pub const ALL: [Call; 25] = [
        Call::Job,
        Call::HddNew,
        Call::AcousticsMount,
        Call::AcousticsPrecompute,
        Call::IobenchJob,
        Call::BlockRead,
        Call::BlockWrite,
        Call::BlockFlush,
        Call::FsFormat,
        Call::FsCreate,
        Call::FsWriteFile,
        Call::FsTick,
        Call::OsInstall,
        Call::OsWriteLog,
        Call::OsExec,
        Call::OsTick,
        Call::KvCreate,
        Call::KvFill,
        Call::KvReadWhileWriting,
        Call::KvPut,
        Call::KvGet,
        Call::KvTick,
        Call::ClusterLaunch,
        Call::ClusterProvision,
        Call::ClusterCampaign,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Call::Job => "job",
            Call::HddNew => "hdd.new",
            Call::AcousticsMount => "acoustics.mount_attack",
            Call::AcousticsPrecompute => "acoustics.precompute",
            Call::IobenchJob => "iobench.run_job",
            Call::BlockRead => "blockdev.read",
            Call::BlockWrite => "blockdev.write",
            Call::BlockFlush => "blockdev.flush",
            Call::FsFormat => "fs.format",
            Call::FsCreate => "fs.create",
            Call::FsWriteFile => "fs.write_file",
            Call::FsTick => "fs.tick",
            Call::OsInstall => "os.install",
            Call::OsWriteLog => "os.write_log",
            Call::OsExec => "os.exec",
            Call::OsTick => "os.tick",
            Call::KvCreate => "kv.create",
            Call::KvFill => "kv.fill",
            Call::KvReadWhileWriting => "kv.readwhilewriting",
            Call::KvPut => "kv.put",
            Call::KvGet => "kv.get",
            Call::KvTick => "kv.tick",
            Call::ClusterLaunch => "cluster.launch",
            Call::ClusterProvision => "cluster.provision",
            Call::ClusterCampaign => "cluster.run_campaign",
        }
    }

    /// The layer (crate) the call goes into.
    pub fn layer(self) -> &'static str {
        let name = self.name();
        name.split('.').next().unwrap_or(name)
    }

    /// Hot calls happen once per simulated operation and are only
    /// aggregated; the rest are also recorded span by span.
    fn hot(self) -> bool {
        matches!(
            self,
            Call::BlockRead
                | Call::BlockWrite
                | Call::BlockFlush
                | Call::FsCreate
                | Call::FsWriteFile
                | Call::FsTick
                | Call::OsWriteLog
                | Call::OsExec
                | Call::OsTick
                | Call::KvPut
                | Call::KvGet
                | Call::KvTick
        )
    }

    /// Position in [`Call::ALL`] (declaration order).
    fn index(self) -> usize {
        self as usize
    }
}

/// Count and host time of one [`Call`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallStats {
    pub calls: u64,
    pub host_ns: u64,
    pub self_ns: u64,
}

impl CallStats {
    fn add(&mut self, other: &CallStats) {
        self.calls += other.calls;
        self.host_ns += other.host_ns;
        self.self_ns += other.self_ns;
    }
}

/// One recorded (coarse) span. Times are nanoseconds since the pass
/// started; `parent` indexes the same job's span list.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: String,
    pub job: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub self_ns: u64,
    pub parent: Option<usize>,
}

struct Frame {
    call: Call,
    start: Instant,
    child_ns: u64,
    record: Option<usize>,
}

struct State {
    epoch: Instant,
    job: usize,
    stack: Vec<Frame>,
    stats: [CallStats; Call::ALL.len()],
    spans: Vec<SpanRecord>,
}

/// A per-job span recorder, or a no-op when built with [`Probe::off`].
/// Cheap to clone; clones share the recorder.
#[derive(Clone)]
pub struct Probe(Option<Rc<RefCell<State>>>);

impl Probe {
    /// A recorder for job `job`; span times count from `epoch`.
    pub fn new(job: usize, epoch: Instant) -> Self {
        Probe(Some(Rc::new(RefCell::new(State {
            epoch,
            job,
            stack: Vec::new(),
            stats: [CallStats::default(); Call::ALL.len()],
            spans: Vec::new(),
        }))))
    }

    /// A probe that records nothing: [`Probe::span`] just runs the call.
    pub fn off() -> Self {
        Probe(None)
    }

    /// Runs `f` inside a span of `call`.
    pub fn span<T>(&self, call: Call, f: impl FnOnce() -> T) -> T {
        self.span_named(call, None, f)
    }

    /// Like [`Probe::span`], with a label for the recorded span.
    pub fn span_named<T>(&self, call: Call, label: Option<&str>, f: impl FnOnce() -> T) -> T {
        let Some(state) = &self.0 else {
            return f();
        };
        state.borrow_mut().enter(call, label);
        let out = f();
        state.borrow_mut().exit();
        out
    }

    /// The recorder's contents; `None` for [`Probe::off`]. Call it once
    /// every span has closed.
    pub fn finish(self) -> Option<(Vec<CallStats>, Vec<SpanRecord>)> {
        let state = self.0?;
        let state = state.borrow();
        assert!(state.stack.is_empty(), "finish() with a span still open");
        Some((state.stats.to_vec(), state.spans.clone()))
    }
}

impl State {
    fn since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn enter(&mut self, call: Call, label: Option<&str>) {
        let start = Instant::now();
        let record = (!call.hot()).then(|| {
            let parent = self.stack.iter().rev().find_map(|f| f.record);
            let name = match label {
                Some(l) => format!("{}:{l}", call.name()),
                None => call.name().to_string(),
            };
            self.spans.push(SpanRecord {
                name,
                job: self.job,
                start_ns: self.since_epoch(start),
                end_ns: 0,
                self_ns: 0,
                parent,
            });
            self.spans.len() - 1
        });
        self.stack.push(Frame {
            call,
            start,
            child_ns: 0,
            record,
        });
    }

    fn exit(&mut self) {
        let end = Instant::now();
        let frame = self.stack.pop().expect("exit() matches an enter()");
        let dur = end.duration_since(frame.start).as_nanos() as u64;
        let self_ns = dur.saturating_sub(frame.child_ns);
        let s = &mut self.stats[frame.call.index()];
        s.calls += 1;
        s.host_ns += dur;
        s.self_ns += self_ns;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = frame.record {
            let end_ns = self.since_epoch(end);
            let rec = &mut self.spans[i];
            rec.end_ns = end_ns;
            rec.self_ns = self_ns;
        }
    }
}

/// Everything one traced pool job measured.
#[derive(Debug, Clone)]
pub struct JobTrace {
    pub stats: Vec<CallStats>,
    pub spans: Vec<SpanRecord>,
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl JobTrace {
    /// The job's label: its root span's name.
    pub fn label(&self) -> &str {
        self.spans.first().map_or("job", |s| s.name.as_str())
    }

    /// The `n` calls with the most self time, with their share of the
    /// job's wall time.
    pub fn top_self(&self, n: usize) -> Vec<(&'static str, f64)> {
        let mut calls: Vec<(&'static str, f64)> = Call::ALL
            .iter()
            .zip(&self.stats)
            .filter(|(_, s)| s.self_ns > 0)
            .map(|(c, s)| (c.name(), s.self_ns as f64 * 1e-9 / self.wall_s))
            .collect();
        calls.sort_by(|a, b| b.1.total_cmp(&a.1));
        calls.truncate(n);
        calls
    }
}

/// Per-call totals over many jobs.
#[derive(Debug, Clone)]
pub struct CallTotals(Vec<CallStats>);

impl CallTotals {
    pub fn over(jobs: &[JobTrace]) -> Self {
        let mut totals = vec![CallStats::default(); Call::ALL.len()];
        for job in jobs {
            for (t, s) in totals.iter_mut().zip(&job.stats) {
                t.add(s);
            }
        }
        CallTotals(totals)
    }

    pub fn get(&self, call: Call) -> CallStats {
        self.0[call.index()]
    }

    /// Self seconds of every call into `layer`.
    pub fn layer_self_s(&self, layer: &str) -> f64 {
        Call::ALL
            .iter()
            .filter(|c| c.layer() == layer)
            .map(|c| self.get(*c).self_ns as f64 * 1e-9)
            .sum()
    }

    /// Self seconds of every call except the jobs' own glue.
    pub fn attributed_s(&self) -> f64 {
        Call::ALL
            .iter()
            .filter(|c| **c != Call::Job)
            .map(|c| self.get(*c).self_ns as f64 * 1e-9)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let probe = Probe::new(3, Instant::now());
        probe.span_named(Call::Job, Some("row"), || {
            probe.span(Call::KvFill, || {
                for _ in 0..3 {
                    probe.span(Call::BlockWrite, || std::hint::black_box(1 + 1));
                }
            })
        });
        let (stats, spans) = probe.finish().expect("recording probe");
        let totals = CallTotals(stats);
        assert_eq!(totals.get(Call::BlockWrite).calls, 3);
        let fill = totals.get(Call::KvFill);
        assert_eq!(fill.calls, 1);
        assert!(fill.self_ns <= fill.host_ns);
        assert!(fill.host_ns >= totals.get(Call::BlockWrite).host_ns);
        // Hot calls are aggregated only; coarse ones are recorded.
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "job:row");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.job == 3 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn all_lists_calls_in_declaration_order() {
        for (i, c) in Call::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?}");
        }
    }

    #[test]
    fn off_probe_just_runs_the_call() {
        let probe = Probe::off();
        assert_eq!(probe.span(Call::KvGet, || 7), 7);
        assert!(probe.finish().is_none());
    }
}
