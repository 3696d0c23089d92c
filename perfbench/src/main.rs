//! `deepnote-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` it commissions the workload's inputs a few times
//! (`setup_s`), then runs untraced passes of the workload for about
//! `--seconds` and prints the end-to-end metrics. With `--trace 1` it
//! runs one pass at pool width 1, one at the default width and one
//! traced pass, and prints the per-layer metrics. Every pass is checked;
//! the last stdout line is the JSON result.

use deepnote_perfbench::host::{self, measure, with_pool_width};
use deepnote_perfbench::json;
use deepnote_perfbench::stats::{median, quartiles, spread};
use deepnote_perfbench::traced::{self, Metric, PassWalls, Trace};
use deepnote_perfbench::workloads::{Attack, Verdict, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: deepnote-perfbench --workload <paper_kv|fio_range|campaign_duel|campaign_swarm> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = raw
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        raw.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let bad = |flag: &str, v: &str| format!("bad value for {flag}: {v}");
    let w = value("--workload")?;
    let workload = Workload::parse(w).ok_or_else(|| bad("--workload", w))?;
    let s = value("--seed")?;
    let seed = s.parse().map_err(|_| bad("--seed", s))?;
    let secs = value("--seconds")?;
    let seconds: f64 = secs
        .parse()
        .ok()
        .filter(|x: &f64| *x > 0.0)
        .ok_or_else(|| bad("--seconds", secs))?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(bad("--trace", t)),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Timed commissioning samples per run, and commissionings per sample:
/// `setup_s` is the median sample over its batch size. Table 1's set-up
/// takes microseconds, so it is timed in batches.
fn setup_plan(w: Workload) -> (usize, usize) {
    match w {
        Workload::PaperKv => (5, 1),
        Workload::FioRange => (12, 500),
        Workload::CampaignDuel => (9, 1),
        Workload::CampaignSwarm => (5, 1),
    }
}

/// Tally of correctness checks over a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("CHECK FAILED: {name}");
        }
    }

    fn verdict(&mut self, label: &str, v: &Verdict) {
        for c in &v.checks {
            self.check(&format!("{label}: {}", c.name), c.ok);
        }
    }
}

/// Runs `f`, turning a panic into `None` (and a failed check).
fn guarded<T>(tally: &mut Tally, label: &str, f: impl FnOnce() -> T) -> Option<T> {
    let out = catch_unwind(AssertUnwindSafe(f)).ok();
    tally.check(
        &format!("{label} completed without panicking"),
        out.is_some(),
    );
    out
}

fn print_metric(name: &str, value: f64, unit: &str, note: &str) {
    println!("{name:<30} {value:>18.9} {unit:<6} {note}");
}

fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::string(name),
                json::number(*value),
                json::string(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    )
}

/// One measured untraced pass.
struct Sample {
    wall_s: f64,
    cpu_s: f64,
    verdict: Verdict,
}

/// Campaign runs cover at least this many pass seeds; the attack-phase
/// metrics are read over exactly these passes, so they stay a function
/// of the workload seed alone.
const CAMPAIGN_PASSES: usize = 8;

fn untraced(args: &Args, tally: &mut Tally) -> Vec<Metric> {
    let w = args.workload;
    let seeds = |k: usize| w.pass_seed(args.seed, k as u64);
    let (reps, batch) = setup_plan(w);
    let mut setups = Vec::new();
    // One set-up sample before the first pass and one after each pass
    // (the rest after the last), so the samples see the same host as
    // the passes do.
    let setup_sample = |k: usize, tally: &mut Tally, setups: &mut Vec<f64>| {
        if let Some(((), cost)) = guarded(tally, &format!("setup {k}"), || {
            measure(|| (0..batch).for_each(|_| w.setup(seeds(k))))
        }) {
            setups.push(cost.wall_s / batch as f64);
        }
    };
    setup_sample(0, tally, &mut setups);
    let mut taken = 1;

    let min_passes = if w.is_campaign() { CAMPAIGN_PASSES } else { 1 };
    let start = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    for k in 0..10_000 {
        let label = format!("pass {} (seed {})", k + 1, seeds(k));
        if let Some((outputs, cost)) = guarded(tally, &label, || measure(|| w.pass(seeds(k)))) {
            let verdict = outputs.verdict();
            tally.verdict(&label, &verdict);
            if let (Some(first), false) = (samples.first(), w.is_campaign()) {
                tally.check(
                    &format!("{label}: outputs equal pass 1's"),
                    verdict.digest == first.verdict.digest,
                );
            }
            println!(
                "{label}: wall {:.4} s, cpu {:.4} s, {} sim ops, {} checks",
                cost.wall_s,
                cost.cpu_s,
                verdict.sim_ops,
                verdict.checks.len()
            );
            samples.push(Sample {
                wall_s: cost.wall_s,
                cpu_s: cost.cpu_s,
                verdict,
            });
        }
        if taken < reps {
            setup_sample(taken, tally, &mut setups);
            taken += 1;
        }
        let done = k + 1;
        let elapsed = start.elapsed().as_secs_f64();
        if done >= min_passes && elapsed * (done + 1) as f64 / done as f64 > args.seconds {
            break;
        }
    }
    for k in taken..reps {
        setup_sample(k, tally, &mut setups);
    }
    if samples.is_empty() || setups.is_empty() {
        return Vec::new();
    }

    let walls: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    let cpus: Vec<f64> = samples.iter().map(|s| s.cpu_s).collect();
    let rates: Vec<f64> = samples
        .iter()
        .map(|s| s.verdict.sim_ops as f64 / s.cpu_s)
        .collect();
    // Table passes repeat one input: take medians. Campaign passes each
    // serve another seed, whose work differs: average them.
    let central = |xs: &[f64]| {
        if w.is_campaign() {
            xs.iter().sum::<f64>() / xs.len() as f64
        } else {
            median(xs)
        }
    };
    let ops: u64 = samples.iter().map(|s| s.verdict.sim_ops).sum();
    let rate = if w.is_campaign() {
        ops as f64 / cpus.iter().sum::<f64>()
    } else {
        median(&rates)
    };
    let (slo, p99) = Attack::over(samples.iter().take(min_passes).map(|s| &s.verdict.attack));
    let metrics: Vec<(Metric, Option<&[f64]>)> = vec![
        (("wall_s", central(&walls), "s"), Some(&walls)),
        (("cpu_s", central(&cpus), "s"), Some(&cpus)),
        (("setup_s", median(&setups), "s"), Some(&setups)),
        (("sim_ops_per_cpu_s", rate, "1/s"), Some(&rates)),
        (("peak_rss_mb", host::peak_rss_mb(), "MiB"), None),
        (("sim_attack_slo_ratio", slo, "ratio"), None),
        (("sim_attack_read_p99_ms", p99, "sim_ms"), None),
    ];
    println!(
        "\n{} seed {}: {} passes, {} setups, pool width {}",
        w.name(),
        args.seed,
        samples.len(),
        setups.len(),
        deepnote_core::parallel::pool_width()
    );
    for ((name, value, unit), xs) in &metrics {
        let note = match xs {
            Some(xs) => {
                let (q1, q3) = quartiles(xs);
                format!(
                    "samples: n={} median={:.6e} q1={q1:.6e} q3={q3:.6e} spread={:.4}",
                    xs.len(),
                    median(xs),
                    spread(xs)
                )
            }
            None if *name == "peak_rss_mb" => "whole run".to_string(),
            None => format!("simulated, over {min_passes} pass(es)"),
        };
        print_metric(name, *value, unit, &note);
    }
    metrics.into_iter().map(|(m, _)| m).collect()
}

fn traced_run(args: &Args, tally: &mut Tally) -> Vec<Metric> {
    let w = args.workload;
    let serial = guarded(tally, "pool width 1 pass", || {
        with_pool_width(1, || measure(|| w.pass(args.seed)))
    });
    let untraced = guarded(tally, "default width pass", || {
        measure(|| w.pass(args.seed))
    });
    let traced = guarded(tally, "traced pass", || {
        measure(|| traced::pass(w, args.seed))
    });
    let (Some((serial, c1)), Some((untraced, cd)), Some(((outputs, trace), ct))) =
        (serial, untraced, traced)
    else {
        return Vec::new();
    };
    let (v1, vd, vt) = (serial.verdict(), untraced.verdict(), outputs.verdict());
    tally.verdict("pool width 1 pass", &v1);
    tally.verdict("default width pass", &vd);
    tally.verdict("traced pass", &vt);
    tally.check(
        "outputs at pool width 1 equal outputs at the default width",
        v1.digest == vd.digest,
    );
    tally.check(
        "traced compositions return the driver calls' outputs",
        vt.digest == vd.digest,
    );
    let walls = PassWalls {
        serial_s: c1.wall_s,
        untraced_s: cd.wall_s,
        traced_s: ct.wall_s,
    };
    let metrics = traced::layer_metrics(&outputs, &trace, walls);
    println!(
        "{} seed {}: width-1 {:.3} s, default {:.3} s, traced {:.3} s",
        w.name(),
        args.seed,
        c1.wall_s,
        cd.wall_s,
        ct.wall_s
    );
    for job in &trace.jobs {
        let top: Vec<String> = job
            .top_self(4)
            .iter()
            .map(|(name, share)| format!("{name} {:.1}%", share * 100.0))
            .collect();
        println!(
            "{}: wall {:.3} s; self time: {}",
            job.label(),
            job.wall_s,
            top.join(", ")
        );
    }
    for (name, value, unit) in &metrics {
        print_metric(name, *value, unit, "");
    }
    write_spans(w, args.seed, &trace);
    metrics
}

/// Writes the traced pass's recorded spans as Chrome trace-event JSON
/// under `perfbench/out/`, when run from the repository root.
fn write_spans(w: Workload, seed: u64, trace: &Trace) {
    let dir = std::path::Path::new("perfbench/out");
    if !dir.parent().is_some_and(|p| p.is_dir()) || std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let events: Vec<String> = trace
        .spans()
        .map(|s| {
            format!(
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"args\":{{\"self_us\":{},\"parent\":{}}}}}",
                json::string(&s.name),
                s.job,
                s.start_ns / 1_000,
                (s.end_ns - s.start_ns) / 1_000,
                s.self_ns / 1_000,
                s.parent.map_or("null".to_string(), |p| p.to_string())
            )
        })
        .collect();
    let path = dir.join(format!("{}-seed{seed}.trace.json", w.name()));
    let body = format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"));
    if std::fs::write(&path, body).is_ok() {
        println!("wrote {} spans to {}", events.len(), path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced_run(&args, &mut tally)
    } else {
        untraced(&args, &mut tally)
    };
    if metrics.is_empty() {
        eprintln!("error: no pass completed; no result");
        return ExitCode::FAILURE;
    }
    println!("{}", result_line(&tally, &metrics));
    ExitCode::SUCCESS
}
