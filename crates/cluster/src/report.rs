//! Campaign results, their human-readable rendering, and a dependency-
//! free JSON serialization for machine consumers (CI artifacts).

use crate::integrity::{IntegrityStats, ScrubStats};
use crate::metrics::{ClusterMetrics, OpClassMetrics, ResilienceStats};
use crate::node::NodeCounters;
use crate::placement::PlacementPolicy;
use crate::replication::RepairStats;
use deepnote_blockdev::{ChaosEvent, ChaosStats};
use deepnote_telemetry::{json_f64, push_json_string, MetricSeries, SloAlert, TraceLog};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// The incident-detection headline: which replica degraded first and
/// how much warning the burn-rate alerts gave before quorum loss.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EarlyWarning {
    /// First node the health monitor marked down: `(node, seconds)`.
    pub first_node_down: Option<(usize, f64)>,
    /// When the first burn-rate alert raised, in campaign seconds.
    pub first_alert_s: Option<f64>,
    /// First availability sample that found shards below write quorum.
    pub quorum_loss_s: Option<f64>,
}

impl EarlyWarning {
    /// Seconds of warning the alerts gave before quorum loss; negative
    /// when the alert only raised after shards were already lost.
    pub fn lead_time_s(&self) -> Option<f64> {
        match (self.first_alert_s, self.quorum_loss_s) {
            (Some(alert), Some(loss)) => Some(loss - alert),
            _ => None,
        }
    }
}

/// Everything a finished campaign produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Run label (usually the placement policy).
    pub label: String,
    /// Placement policy the cluster ran under.
    pub placement: PlacementPolicy,
    /// Root RNG seed.
    pub seed: u64,
    /// Per-phase service metrics and the availability series.
    pub metrics: ClusterMetrics,
    /// Re-replication totals.
    pub repair: RepairStats,
    /// Lifecycle counters per node, in node-id order.
    pub node_counters: Vec<NodeCounters>,
    /// Shard failovers executed.
    pub failovers: u64,
    /// Worst concurrently-unavailable shard count seen per phase.
    pub max_unavailable_by_phase: Vec<usize>,
    /// Shards still below write quorum when the campaign ended.
    pub final_unavailable_shards: usize,
    /// Control-plane event log.
    pub events: Vec<String>,
    /// Resilient-client counters, when the campaign ran one.
    pub resilience: Option<ResilienceStats>,
    /// End-to-end integrity outcomes (checksum detections, read repairs,
    /// oracle verdicts).
    pub integrity: IntegrityStats,
    /// Background scrubber totals.
    pub scrub: ScrubStats,
    /// Per-device fault-injection counters, in node-id order.
    pub chaos: Vec<ChaosStats>,
    /// Per-device fault traces, in request order (bounded per device).
    pub fault_traces: Vec<Vec<ChaosEvent>>,
    /// Repair jobs still queued when the campaign ended.
    pub pending_repairs: usize,
    /// SLO burn-rate alert transitions, in time order.
    pub alerts: Vec<SloAlert>,
    /// Scraped metric series (empty unless the campaign configured a
    /// metrics interval).
    pub series: Vec<MetricSeries>,
    /// Who degraded first, and the alert lead time before quorum loss.
    pub early_warning: EarlyWarning,
    /// Raw cross-layer trace when tracing was enabled. Exported
    /// separately (Chrome trace-event JSON); deliberately excluded from
    /// [`render`](Self::render) and [`to_json`](Self::to_json) so that
    /// enabling tracing never changes either output.
    pub trace: Option<TraceLog>,
}

impl CampaignReport {
    /// Total engine crashes across the cluster.
    pub fn total_crashes(&self) -> u64 {
        self.node_counters.iter().map(|c| c.crashes).sum()
    }

    /// Total successful restarts across the cluster.
    pub fn total_restarts(&self) -> u64 {
        self.node_counters.iter().map(|c| c.restarts).sum()
    }

    /// The worst concurrently-unavailable shard count across all phases.
    pub fn worst_unavailable_shards(&self) -> usize {
        self.max_unavailable_by_phase
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Device fault-injection counters summed across all nodes.
    pub fn total_chaos(&self) -> ChaosStats {
        let mut sum = ChaosStats::default();
        for s in &self.chaos {
            sum.merge(s);
        }
        sum
    }

    /// Total device faults injected across the cluster.
    pub fn total_injected_faults(&self) -> u64 {
        self.total_chaos().total()
    }

    /// Renders the full report as fixed-width text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== campaign: {} (placement {}, seed {:#x}) ===",
            self.label,
            self.placement.label(),
            self.seed
        );
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>10} {:>7} {:>7} {:>9} {:>9} {:>9} {:>7}",
            "phase", "ops", "goodput/s", "ok%", "slo%", "r_p50ms", "r_p99ms", "w_p99ms", "unavail"
        );
        for (i, p) in self.metrics.phases.iter().enumerate() {
            let ops = p.reads.attempted + p.writes.attempted;
            let _ = writeln!(
                out,
                "{:<10} {:>8} {:>10.1} {:>6.1}% {:>6.1}% {:>9} {:>9} {:>9} {:>7}",
                p.label,
                ops,
                p.goodput_ops_per_s(),
                p.success_ratio() * 100.0,
                (p.reads.slo_ok + p.writes.slo_ok) as f64 / ops.max(1) as f64 * 100.0,
                fmt_ms(p.reads.percentile_ms(50.0)),
                fmt_ms(p.reads.percentile_ms(99.0)),
                fmt_ms(p.writes.percentile_ms(99.0)),
                self.max_unavailable_by_phase.get(i).copied().unwrap_or(0),
            );
        }
        if let Some(worst) = self.metrics.worst_availability() {
            let _ = writeln!(
                out,
                "worst availability window: {:.1}% at t={:.0}s ({} ops)",
                worst.ratio * 100.0,
                worst.at_s,
                worst.attempted
            );
        }
        let _ = writeln!(
            out,
            "nodes: {} crashes, {} restarts; {} failovers; repairs: {} jobs, {} keys, {} bytes, {} copy failures",
            self.total_crashes(),
            self.total_restarts(),
            self.failovers,
            self.repair.jobs_done,
            self.repair.keys_copied,
            self.repair.bytes_copied,
            self.repair.copy_failures
        );
        let chaos = self.total_chaos();
        if chaos.total() > 0 {
            let _ = writeln!(
                out,
                "chaos: {} device faults injected ({} burst errors, {} drops, {} delays, {} read flips, {} write flips, {} torn, {} misdirected)",
                chaos.total(),
                chaos.burst_errors,
                chaos.burst_drops,
                chaos.delays,
                chaos.read_flips,
                chaos.write_flips,
                chaos.torn_writes,
                chaos.misdirected_writes
            );
        }
        let (cw, cr) = self.node_counters.iter().fold((0u64, 0u64), |(w, r), c| {
            (w + c.corrupted_writes, r + c.corrupted_reads)
        });
        if cw + cr > 0 {
            let _ = writeln!(
                out,
                "data-path corruption injected: {cw} durable write flips, {cr} transient read flips"
            );
        }
        let ig = &self.integrity;
        if ig.corrupt_acks + ig.read_repairs + ig.unserveable_reads + ig.oracle_checked > 0 {
            let _ = writeln!(
                out,
                "integrity: {} corrupt acks rejected, {} read repairs ({} failed), {} unserveable reads; oracle: {} checked, {} wrong",
                ig.corrupt_acks,
                ig.read_repairs,
                ig.read_repair_failures,
                ig.unserveable_reads,
                ig.oracle_checked,
                ig.oracle_wrong
            );
        }
        if self.scrub.keys_scanned > 0 {
            let _ = writeln!(
                out,
                "scrub: {} keys scanned over {} passes, {} replicas read ({} bytes), {} corrupt + {} missing found, {} repairs enqueued",
                self.scrub.keys_scanned,
                self.scrub.passes,
                self.scrub.replicas_read,
                self.scrub.bytes_read,
                self.scrub.corrupt_found,
                self.scrub.missing_found,
                self.scrub.repairs_enqueued
            );
        }
        if let Some(rs) = &self.resilience {
            let _ = writeln!(
                out,
                "client: {} ops in {} attempts, {} retries ({} recovered), {} hedges ({} won), {} breaker trips ({} dispatches denied), {} deadline-exhausted",
                rs.ops,
                rs.attempts,
                rs.retries,
                rs.recovered_by_retry,
                rs.hedges,
                rs.hedges_won,
                rs.breaker_trips,
                rs.breaker_denied,
                rs.deadline_exhausted
            );
        }
        if self.pending_repairs > 0 {
            let _ = writeln!(out, "repair jobs still pending: {}", self.pending_repairs);
        }
        let _ = writeln!(
            out,
            "shards below write quorum at campaign end: {}",
            self.final_unavailable_shards
        );
        if !self.series.is_empty() {
            let points: usize = self.series.iter().map(|s| s.points.len()).sum();
            let _ = writeln!(
                out,
                "metrics: {} series scraped, {points} points",
                self.series.len()
            );
        }
        if !self.alerts.is_empty() {
            let _ = writeln!(out, "--- slo burn-rate alerts ---");
            for a in &self.alerts {
                let _ = writeln!(
                    out,
                    "t={:7.1}s  {} {} (burn {:.1}x, errors {:.1}%, {} ops)",
                    a.at.as_secs_f64(),
                    a.window,
                    if a.raised { "RAISED" } else { "cleared" },
                    a.burn_rate,
                    a.error_ratio * 100.0,
                    a.ops
                );
            }
        }
        let ew = &self.early_warning;
        if let Some((node, at_s)) = ew.first_node_down {
            let _ = writeln!(
                out,
                "early warning: node {node} degraded first at t={at_s:.1}s"
            );
        }
        if let (Some(alert), Some(loss)) = (ew.first_alert_s, ew.quorum_loss_s) {
            let lead = loss - alert;
            if lead >= 0.0 {
                let _ = writeln!(
                    out,
                    "early warning: alert at t={alert:.1}s, quorum loss at t={loss:.1}s ({lead:.1}s of warning)"
                );
            } else {
                let _ = writeln!(
                    out,
                    "early warning: quorum loss at t={loss:.1}s preceded the first alert at t={alert:.1}s ({:.1}s late)",
                    -lead
                );
            }
        }
        if !self.events.is_empty() {
            let _ = writeln!(out, "--- control-plane events ---");
            for e in &self.events {
                let _ = writeln!(out, "{e}");
            }
        }
        out
    }

    /// Serializes the report as a JSON object with a stable key order,
    /// written by hand so machine consumers (CI artifacts, plotting
    /// scripts) need no extra dependencies on our side. Identical
    /// campaigns produce byte-identical JSON.
    pub fn to_json(&self) -> String {
        let mut j = String::with_capacity(4096);
        j.push('{');
        json_str(&mut j, "label", &self.label);
        j.push(',');
        json_str(&mut j, "placement", self.placement.label());
        j.push(',');
        let _ = write!(j, "\"seed\":{}", self.seed);
        j.push(',');
        j.push_str("\"phases\":[");
        for (i, p) in self.metrics.phases.iter().enumerate() {
            if i > 0 {
                j.push(',');
            }
            j.push('{');
            json_str(&mut j, "label", &p.label);
            let _ = write!(
                j,
                ",\"goodput_ops_per_s\":{},\"success_ratio\":{},\"max_unavailable\":{},",
                json_f64(p.goodput_ops_per_s()),
                json_f64(p.success_ratio()),
                self.max_unavailable_by_phase.get(i).copied().unwrap_or(0)
            );
            j.push_str("\"reads\":");
            json_op_class(&mut j, &p.reads);
            j.push_str(",\"writes\":");
            json_op_class(&mut j, &p.writes);
            j.push('}');
        }
        j.push_str("],\"availability\":[");
        for (i, s) in self.metrics.availability.iter().enumerate() {
            if i > 0 {
                j.push(',');
            }
            let _ = write!(
                j,
                "{{\"at_s\":{},\"ratio\":{},\"attempted\":{}}}",
                json_f64(s.at_s),
                json_f64(s.ratio),
                s.attempted
            );
        }
        j.push_str("],\"nodes\":[");
        for (i, c) in self.node_counters.iter().enumerate() {
            if i > 0 {
                j.push(',');
            }
            let _ = write!(
                j,
                "{{\"crashes\":{},\"restarts\":{},\"failed_restarts\":{},\"injected_faults\":{},\"corrupted_writes\":{},\"corrupted_reads\":{}}}",
                c.crashes, c.restarts, c.failed_restarts, c.injected_faults, c.corrupted_writes, c.corrupted_reads
            );
        }
        j.push_str("],\"chaos\":[");
        for (i, s) in self.chaos.iter().enumerate() {
            if i > 0 {
                j.push(',');
            }
            let _ = write!(
                j,
                "{{\"burst_errors\":{},\"burst_drops\":{},\"delays\":{},\"delay_total_ms\":{},\"read_flips\":{},\"write_flips\":{},\"torn_writes\":{},\"misdirected_writes\":{}}}",
                s.burst_errors,
                s.burst_drops,
                s.delays,
                json_f64(s.delay_total.as_nanos() as f64 / 1_000_000.0),
                s.read_flips,
                s.write_flips,
                s.torn_writes,
                s.misdirected_writes
            );
        }
        j.push_str("],\"fault_trace_lengths\":[");
        for (i, t) in self.fault_traces.iter().enumerate() {
            if i > 0 {
                j.push(',');
            }
            let _ = write!(j, "{}", t.len());
        }
        let _ = write!(
            j,
            "],\"repair\":{{\"jobs_done\":{},\"keys_copied\":{},\"bytes_copied\":{},\"copy_failures\":{}}},\"pending_repairs\":{},\"failovers\":{},\"final_unavailable_shards\":{},\"worst_unavailable_shards\":{},",
            self.repair.jobs_done,
            self.repair.keys_copied,
            self.repair.bytes_copied,
            self.repair.copy_failures,
            self.pending_repairs,
            self.failovers,
            self.final_unavailable_shards,
            self.worst_unavailable_shards()
        );
        let ig = &self.integrity;
        let _ = write!(
            j,
            "\"integrity\":{{\"corrupt_acks\":{},\"read_repairs\":{},\"read_repair_failures\":{},\"unserveable_reads\":{},\"oracle_checked\":{},\"oracle_wrong\":{}}},",
            ig.corrupt_acks,
            ig.read_repairs,
            ig.read_repair_failures,
            ig.unserveable_reads,
            ig.oracle_checked,
            ig.oracle_wrong
        );
        let sc = &self.scrub;
        let _ = write!(
            j,
            "\"scrub\":{{\"keys_scanned\":{},\"replicas_read\":{},\"bytes_read\":{},\"corrupt_found\":{},\"missing_found\":{},\"repairs_enqueued\":{},\"passes\":{}}},",
            sc.keys_scanned,
            sc.replicas_read,
            sc.bytes_read,
            sc.corrupt_found,
            sc.missing_found,
            sc.repairs_enqueued,
            sc.passes
        );
        match &self.resilience {
            Some(rs) => {
                let _ = write!(
                    j,
                    "\"resilience\":{{\"ops\":{},\"attempts\":{},\"retries\":{},\"recovered_by_retry\":{},\"hedges\":{},\"hedges_won\":{},\"breaker_trips\":{},\"breaker_denied\":{},\"deadline_exhausted\":{}}},",
                    rs.ops,
                    rs.attempts,
                    rs.retries,
                    rs.recovered_by_retry,
                    rs.hedges,
                    rs.hedges_won,
                    rs.breaker_trips,
                    rs.breaker_denied,
                    rs.deadline_exhausted
                );
            }
            None => j.push_str("\"resilience\":null,"),
        }
        j.push_str("\"alerts\":[");
        for (i, a) in self.alerts.iter().enumerate() {
            if i > 0 {
                j.push(',');
            }
            let _ = write!(
                j,
                "{{\"at_s\":{},\"window\":\"{}\",\"raised\":{},\"burn_rate\":{},\"error_ratio\":{},\"ops\":{}}}",
                json_f64(a.at.as_secs_f64()),
                a.window,
                a.raised,
                json_f64(a.burn_rate),
                json_f64(a.error_ratio),
                a.ops
            );
        }
        j.push_str("],\"series\":[");
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                j.push(',');
            }
            j.push('{');
            json_str(&mut j, "layer", s.layer.name());
            j.push(',');
            json_str(&mut j, "name", &s.name);
            j.push(',');
            json_str(&mut j, "kind", s.kind.name());
            j.push_str(",\"points\":[");
            for (k, p) in s.points.iter().enumerate() {
                if k > 0 {
                    j.push(',');
                }
                let _ = write!(
                    j,
                    "{{\"at_s\":{},\"value\":{}}}",
                    json_f64(p.at.as_secs_f64()),
                    json_f64(p.value)
                );
            }
            j.push_str("]}");
        }
        let ew = &self.early_warning;
        j.push_str("],\"early_warning\":{\"first_node_down\":");
        match ew.first_node_down {
            Some((node, at_s)) => {
                let _ = write!(j, "{{\"node\":{node},\"at_s\":{}}}", json_f64(at_s));
            }
            None => j.push_str("null"),
        }
        let _ = write!(
            j,
            ",\"first_alert_s\":{},\"quorum_loss_s\":{},\"lead_time_s\":{}}},",
            json_f64(ew.first_alert_s),
            json_f64(ew.quorum_loss_s),
            json_f64(ew.lead_time_s())
        );
        j.push_str("\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                j.push(',');
            }
            push_json_string(&mut j, e);
        }
        j.push_str("]}");
        j
    }
}

/// Writes `"key":"escaped value"`.
fn json_str(out: &mut String, key: &str, value: &str) {
    push_json_string(out, key);
    out.push(':');
    push_json_string(out, value);
}

/// One op class as a JSON object (percentiles may be `null`).
fn json_op_class(out: &mut String, c: &OpClassMetrics) {
    let pct = |p: f64| json_f64(c.percentile_ms(p));
    let _ = write!(
        out,
        "{{\"attempted\":{},\"ok\":{},\"slo_ok\":{},\"p50_ms\":{},\"p99_ms\":{}}}",
        c.attempted,
        c.ok,
        c.slo_ok,
        pct(50.0),
        pct(99.0)
    );
}

/// Renders several runs side by side: one availability row per run, then
/// each full report.
pub fn render_duel(reports: &[CampaignReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>12} {:>10} {:>10} {:>9}",
        "run", "attack ok%", "recovery ok%", "crashes", "failovers", "unavail"
    );
    for r in reports {
        let ratio = |label: &str| {
            r.metrics
                .phase(label)
                .map(|p| format!("{:.1}%", p.success_ratio() * 100.0))
                .unwrap_or_else(|| "-".to_string())
        };
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>12} {:>10} {:>10} {:>9}",
            r.label,
            ratio("attack"),
            ratio("recovery"),
            r.total_crashes(),
            r.failovers,
            r.worst_unavailable_shards(),
        );
    }
    for r in reports {
        let _ = writeln!(out);
        out.push_str(&r.render());
    }
    out
}

fn fmt_ms(v: Option<f64>) -> String {
    match v {
        Some(ms) => format!("{ms:.2}"),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PhaseMetrics;
    use deepnote_sim::{SimDuration, SimTime};

    fn tiny_report() -> CampaignReport {
        let mut metrics = ClusterMetrics::new(vec![
            PhaseMetrics::new("baseline", SimTime::ZERO, SimTime::from_secs(10)),
            PhaseMetrics::new("attack", SimTime::from_secs(10), SimTime::from_secs(20)),
        ]);
        metrics.record_op(true, true, SimDuration::from_millis(2));
        metrics.enter_phase(1);
        metrics.record_op(false, false, SimDuration::from_millis(250));
        metrics.sample_availability(SimTime::from_secs(20));
        CampaignReport {
            label: "test".into(),
            placement: PlacementPolicy::Separated,
            seed: 7,
            metrics,
            repair: RepairStats::default(),
            node_counters: vec![
                NodeCounters {
                    crashes: 2,
                    restarts: 1,
                    failed_restarts: 3,
                    ..NodeCounters::default()
                },
                NodeCounters::default(),
            ],
            failovers: 4,
            max_unavailable_by_phase: vec![0, 3],
            final_unavailable_shards: 1,
            events: vec!["t=   12.0s  node 0 crashed".into()],
            resilience: None,
            integrity: IntegrityStats::default(),
            scrub: ScrubStats::default(),
            chaos: vec![ChaosStats::default(), ChaosStats::default()],
            fault_traces: vec![Vec::new(), Vec::new()],
            pending_repairs: 0,
            alerts: vec![SloAlert {
                at: SimTime::from_secs(12),
                window: "fast",
                raised: true,
                burn_rate: 25.0,
                error_ratio: 0.25,
                ops: 120,
            }],
            series: Vec::new(),
            early_warning: EarlyWarning {
                first_node_down: Some((0, 12.0)),
                first_alert_s: Some(12.0),
                quorum_loss_s: Some(15.0),
            },
            trace: None,
        }
    }

    #[test]
    fn totals_sum_over_nodes() {
        let r = tiny_report();
        assert_eq!(r.total_crashes(), 2);
        assert_eq!(r.total_restarts(), 1);
        assert_eq!(r.worst_unavailable_shards(), 3);
    }

    #[test]
    fn render_mentions_every_phase_and_the_events() {
        let text = tiny_report().render();
        assert!(text.contains("baseline"));
        assert!(text.contains("attack"));
        assert!(text.contains("4 failovers"));
        assert!(text.contains("node 0 crashed"));
    }

    #[test]
    fn json_has_stable_keys_and_escapes_strings() {
        let mut r = tiny_report();
        r.events.push("quote \" and\nnewline".into());
        let a = r.to_json();
        assert_eq!(a, r.to_json(), "serialization must be deterministic");
        assert!(a.starts_with('{') && a.ends_with('}'));
        assert!(a.contains("\"label\":\"test\""));
        assert!(a.contains("\"placement\":\"separated\""));
        assert!(a.contains("\\\" and\\nnewline"));
        assert!(a.contains("\"resilience\":null"));
        assert!(a.contains("\"oracle_wrong\":0"));
        // The write phase had no successful ops: percentile present,
        // since attempts are recorded regardless of success.
        assert!(a.contains("\"p99_ms\":"));
    }

    #[test]
    fn render_only_mentions_chaos_when_faults_were_injected() {
        let mut r = tiny_report();
        assert!(!r.render().contains("chaos:"));
        r.chaos[0].read_flips = 5;
        let text = r.render();
        assert!(text.contains("chaos: 5 device faults injected"));
    }

    #[test]
    fn duel_table_has_one_row_per_run() {
        let text = render_duel(&[tiny_report(), tiny_report()]);
        assert!(text.lines().next().unwrap().contains("attack ok%"));
        assert_eq!(text.matches("=== campaign:").count(), 2);
    }
}
