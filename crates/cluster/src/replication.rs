//! Quorum replication and background re-replication.
//!
//! Writes go to every believed-up replica and succeed when a write
//! quorum acknowledges within the request timeout; reads are fanned out
//! the same way and succeed on a read quorum. Replicas whose busy window
//! is already deeper than the timeout are not dispatched to at all
//! (load shedding — the connection would time out anyway), which also
//! bounds how far a backlogged node can drift from the cluster timeline.
//!
//! Re-replication is a queue of [`RepairJob`]s drained in bounded steps:
//! each step copies a batch of keys from a live source replica to the
//! target, through the real storage stacks of both nodes, so repair
//! bandwidth is paid in virtual time and accounted in bytes.

use crate::node::StorageNode;
use crate::placement::{NodeId, ShardId, ShardMap};
use deepnote_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Coordinator-side deadline for collecting acks.
pub const REQUEST_TIMEOUT: SimDuration = SimDuration::from_millis(250);

/// Replication tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplicationConfig {
    /// Replicas per shard (R).
    pub replication: usize,
}

impl ReplicationConfig {
    /// Majority quorums over `replication` replicas.
    pub fn majority(replication: usize) -> Self {
        assert!(replication > 0);
        ReplicationConfig { replication }
    }

    /// Acks a read or a write needs to succeed: a majority of R.
    pub fn quorum(&self) -> usize {
        self.replication / 2 + 1
    }
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        Self::majority(3)
    }
}

/// The kind of client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A quorum read.
    Read,
    /// A quorum write.
    Write,
}

/// The coordinator's verdict on one client operation.
#[derive(Debug, Clone, PartialEq)]
pub struct QuorumOutcome {
    /// Whether the quorum was reached within the timeout.
    pub ok: bool,
    /// Client-observed latency.
    pub latency: SimDuration,
    /// Replicas that acknowledged in time.
    pub acks: usize,
    /// Replicas the coordinator dispatched to.
    pub attempted: usize,
    /// Nodes that returned a fatal error (their process died).
    pub fatalities: Vec<NodeId>,
    /// Value from the first in-time ack that had one (reads).
    pub value: Option<Vec<u8>>,
    /// Every dispatched replica's individual reply, in completion order
    /// (feeds circuit breakers and end-to-end verification).
    pub replies: Vec<ReplicaReply>,
}

/// One replica's reply to a dispatched request.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaReply {
    /// The replica that was dispatched to.
    pub node: NodeId,
    /// Whether it served the request within the coordinator's deadline.
    pub ok: bool,
    /// When its reply arrived on the cluster timeline.
    pub done: SimTime,
    /// The value it returned, if any.
    pub value: Option<Vec<u8>>,
}

/// Modeled latency of an operation refused without any dispatch (all
/// replicas believed down): one coordinator round-trip.
const FAIL_FAST: SimDuration = SimDuration::from_millis(1);

/// Executes one operation against `shard`'s replica set at time `now`.
///
/// `up` is the health monitor's belief; replicas believed down or with a
/// busy window beyond the timeout are skipped. Every dispatched replica
/// executes (server work happens whether or not the client waits), but
/// only acks completing within the timeout count toward the quorum.
#[allow(clippy::too_many_arguments)] // one flat call per request on the hot path; a params struct would be rebuilt every op
pub fn quorum_execute(
    nodes: &mut [StorageNode],
    shard_replicas: &[NodeId],
    up: &[bool],
    kind: OpKind,
    key: &[u8],
    value: &[u8],
    now: SimTime,
    config: &ReplicationConfig,
) -> QuorumOutcome {
    let deadline = now + REQUEST_TIMEOUT;
    let quorum = config.quorum();
    let mut replies: Vec<ReplicaReply> = Vec::new();
    let mut attempted = 0;
    let mut fatalities = Vec::new();
    for &n in shard_replicas {
        if !up[n] || nodes[n].busy_until() > deadline {
            continue;
        }
        attempted += 1;
        let r = match kind {
            OpKind::Read => nodes[n].serve_get(now, key),
            OpKind::Write => nodes[n].serve_put(now, key, value),
        };
        if r.fatal {
            fatalities.push(n);
        }
        replies.push(ReplicaReply {
            node: n,
            ok: r.ok && r.done <= deadline,
            done: r.done,
            value: r.value,
        });
    }
    replies.sort_by_key(|r| (r.done, r.node));
    let acks = replies.iter().filter(|r| r.ok).count();
    if acks >= quorum {
        let latency = replies
            .iter()
            .filter(|r| r.ok)
            .nth(quorum - 1)
            .map(|r| r.done.saturating_duration_since(now))
            .unwrap_or(REQUEST_TIMEOUT); // unreachable: acks >= quorum
        let value = replies
            .iter()
            .find_map(|r| if r.ok { r.value.clone() } else { None });
        QuorumOutcome {
            ok: true,
            latency,
            acks,
            attempted,
            fatalities,
            value,
            replies,
        }
    } else {
        let latency = if attempted == 0 {
            FAIL_FAST
        } else {
            REQUEST_TIMEOUT
        };
        QuorumOutcome {
            ok: false,
            latency,
            acks,
            attempted,
            fatalities,
            value: None,
            replies,
        }
    }
}

/// Why a repair job exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RepairReason {
    /// A down replica's slot was reassigned to a new node.
    Failover,
    /// A restarted replica is catching up on missed writes.
    CatchUp,
    /// The scrubber found a corrupt or missing copy on the target.
    Scrub,
}

/// One shard's pending re-replication onto a target node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairJob {
    /// Shard being repaired.
    pub shard: ShardId,
    /// Node receiving the copy.
    pub target: NodeId,
    /// Why the copy is needed.
    pub reason: RepairReason,
    /// Next index into the shard's key list.
    cursor: usize,
}

/// Totals for the repair subsystem.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairStats {
    /// Jobs completed.
    pub jobs_done: u64,
    /// Keys copied.
    pub keys_copied: u64,
    /// Payload bytes moved (key + value, counted once per copy).
    pub bytes_copied: u64,
    /// Copy attempts that failed (source or target unavailable).
    pub copy_failures: u64,
}

/// The background re-replication queue.
#[derive(Debug, Clone, Default)]
pub struct RepairQueue {
    jobs: VecDeque<RepairJob>,
    stats: RepairStats,
}

impl RepairQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pending jobs.
    pub fn pending(&self) -> usize {
        self.jobs.len()
    }

    /// Totals so far.
    pub fn stats(&self) -> RepairStats {
        self.stats
    }

    /// Enqueues a copy of `shard` onto `target` unless an identical job
    /// is already pending; returns whether a new job was added.
    pub fn enqueue(&mut self, shard: ShardId, target: NodeId, reason: RepairReason) -> bool {
        if self
            .jobs
            .iter()
            .any(|j| j.shard == shard && j.target == target)
        {
            return false;
        }
        self.jobs.push_back(RepairJob {
            shard,
            target,
            reason,
            cursor: 0,
        });
        true
    }

    /// Drops any pending jobs targeting `node` (it went down again).
    pub fn cancel_target(&mut self, node: NodeId) {
        self.jobs.retain(|j| j.target != node);
    }

    /// Runs one bounded repair step at `now`: copies up to `batch` keys
    /// of the front job whose source and target are serviceable. Jobs
    /// without a live source replica stay queued (nothing to copy from
    /// yet — the co-located failure mode). With `checksums`, every copy
    /// is verified before it moves: a corrupt source copy is skipped in
    /// favour of any other replica holding a verified one, so repair
    /// never propagates corruption. Returns how many keys moved.
    #[allow(clippy::too_many_arguments)]
    pub fn step(
        &mut self,
        nodes: &mut [StorageNode],
        map: &ShardMap,
        up: &[bool],
        shard_keys: &[Vec<Vec<u8>>],
        batch: usize,
        now: SimTime,
        checksums: bool,
    ) -> u64 {
        let deadline = now + REQUEST_TIMEOUT;
        // Find the first runnable job: target serviceable and some other
        // live replica to copy from.
        let runnable = (0..self.jobs.len()).find(|&i| {
            let j = &self.jobs[i];
            up[j.target]
                && nodes[j.target].busy_until() <= deadline
                && self.source_for(j, map, nodes, up, deadline).is_some()
        });
        let Some(idx) = runnable else {
            return 0;
        };
        // `idx` came from the scan above, so removal cannot miss; a
        // `None` here would mean the queue changed under us.
        let Some(mut job) = self.jobs.remove(idx) else {
            return 0;
        };
        let Some(source) = self.source_for(&job, map, nodes, up, deadline) else {
            self.jobs.push_back(job);
            return 0;
        };
        let keys = &shard_keys[job.shard];
        let mut moved = 0u64;
        let mut t = now;
        while moved < batch as u64 && job.cursor < keys.len() {
            let key = &keys[job.cursor];
            job.cursor += 1;
            let read = nodes[source].serve_get(t, key);
            if !read.ok {
                self.stats.copy_failures += 1;
                break;
            }
            t = read.done;
            let mut fetched = read.value;
            if checksums {
                if let Some(v) = &fetched {
                    if !crate::integrity::verify(key, v) {
                        // The designated source holds a corrupt copy:
                        // hunt the other replicas for a verified one.
                        let (alt, t2) =
                            fetch_verified(nodes, map, &job, up, key, source, t, deadline);
                        t = t2;
                        match alt {
                            Some(v) => fetched = Some(v),
                            None => {
                                // No clean copy anywhere right now; skip
                                // the key rather than spread corruption.
                                self.stats.copy_failures += 1;
                                continue;
                            }
                        }
                    }
                }
            }
            let Some(value) = fetched else {
                // Key never written (or deleted): nothing to copy.
                continue;
            };
            let write = nodes[job.target].serve_put(t, key, &value);
            if !write.ok {
                self.stats.copy_failures += 1;
                break;
            }
            t = write.done;
            moved += 1;
            self.stats.keys_copied += 1;
            self.stats.bytes_copied += (key.len() + value.len()) as u64;
        }
        if job.cursor >= keys.len() {
            self.stats.jobs_done += 1;
        } else {
            // More to do (or a transient failure): back of the queue.
            self.jobs.push_back(job);
        }
        moved
    }

    fn source_for(
        &self,
        job: &RepairJob,
        map: &ShardMap,
        nodes: &[StorageNode],
        up: &[bool],
        deadline: SimTime,
    ) -> Option<NodeId> {
        map.replicas(job.shard)
            .iter()
            .copied()
            .find(|&n| n != job.target && up[n] && nodes[n].busy_until() <= deadline)
    }
}

/// Reads `key` from the other serviceable replicas of `job`'s shard
/// until one returns a copy that passes end-to-end verification. The
/// extra reads are charged in virtual time (returned alongside the
/// value) — verified repair is not free.
#[allow(clippy::too_many_arguments)]
fn fetch_verified(
    nodes: &mut [StorageNode],
    map: &ShardMap,
    job: &RepairJob,
    up: &[bool],
    key: &[u8],
    tried: NodeId,
    mut t: SimTime,
    deadline: SimTime,
) -> (Option<Vec<u8>>, SimTime) {
    for &n in map.replicas(job.shard) {
        if n == job.target || n == tried || !up[n] || nodes[n].busy_until() > deadline {
            continue;
        }
        let read = nodes[n].serve_get(t, key);
        if !read.ok {
            continue;
        }
        t = read.done;
        if let Some(v) = read.value {
            if crate::integrity::verify(key, &v) {
                return (Some(v), t);
            }
        }
    }
    (None, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{PlacementPolicy, RackSpec, ShardMap, Topology};
    use deepnote_acoustics::Distance;
    use deepnote_kv::DbConfig;

    fn nodes(n: usize) -> Vec<StorageNode> {
        (0..n)
            .map(|i| {
                StorageNode::launch(i, 0, Distance::from_cm(1.0), DbConfig::default())
                    .expect("fresh launch")
            })
            .collect()
    }

    #[test]
    fn quorum_write_then_read_roundtrip() {
        let mut ns = nodes(3);
        let up = vec![true; 3];
        let cfg = ReplicationConfig::majority(3);
        let replicas = vec![0, 1, 2];
        let w = quorum_execute(
            &mut ns,
            &replicas,
            &up,
            OpKind::Write,
            b"k",
            b"v",
            SimTime::ZERO,
            &cfg,
        );
        assert!(w.ok, "{w:?}");
        assert_eq!(w.attempted, 3);
        assert!(w.acks >= 2);
        let r = quorum_execute(
            &mut ns,
            &replicas,
            &up,
            OpKind::Read,
            b"k",
            b"",
            SimTime::ZERO + w.latency,
            &cfg,
        );
        assert!(r.ok);
        assert_eq!(r.value.as_deref(), Some(&b"v"[..]));
    }

    #[test]
    fn down_replicas_are_skipped_but_quorum_survives_one_loss() {
        let mut ns = nodes(3);
        let up = vec![true, false, true];
        let cfg = ReplicationConfig::majority(3);
        let w = quorum_execute(
            &mut ns,
            &[0, 1, 2],
            &up,
            OpKind::Write,
            b"k",
            b"v",
            SimTime::ZERO,
            &cfg,
        );
        assert!(w.ok);
        assert_eq!(w.attempted, 2);
    }

    #[test]
    fn no_live_replica_fails_fast() {
        let mut ns = nodes(3);
        let up = vec![false; 3];
        let cfg = ReplicationConfig::majority(3);
        let w = quorum_execute(
            &mut ns,
            &[0, 1, 2],
            &up,
            OpKind::Write,
            b"k",
            b"v",
            SimTime::ZERO,
            &cfg,
        );
        assert!(!w.ok);
        assert_eq!(w.attempted, 0);
        assert!(w.latency < REQUEST_TIMEOUT);
    }

    #[test]
    fn minority_acks_fail_the_quorum() {
        let mut ns = nodes(3);
        let up = vec![true, false, false];
        let cfg = ReplicationConfig::majority(3);
        let w = quorum_execute(
            &mut ns,
            &[0, 1, 2],
            &up,
            OpKind::Write,
            b"k",
            b"v",
            SimTime::ZERO,
            &cfg,
        );
        assert!(!w.ok);
        assert_eq!(w.acks, 1);
        assert_eq!(w.latency, REQUEST_TIMEOUT);
    }

    #[test]
    fn repair_copies_a_shard_to_its_new_target() {
        let mut ns = nodes(3);
        let topo = Topology::build(&[RackSpec {
            distance_cm: 1.0,
            spacing_cm: 1.0,
            nodes: 3,
        }]);
        let map = ShardMap::build(&topo, 1, 2, PlacementPolicy::CoLocated);
        // Shard 0 lives on nodes 0 and 1; write some keys to node 0 only
        // (as if node 1 was a blank failover target... here we repair to
        // node 2 instead).
        let keys: Vec<Vec<u8>> = (0..10u32)
            .map(|i| format!("k{i:03}").into_bytes())
            .collect();
        let mut t = SimTime::ZERO;
        for k in &keys {
            let r = ns[0].serve_put(t, k, b"payload");
            assert!(r.ok);
            t = r.done;
        }
        let shard_keys = vec![keys.clone()];
        let mut q = RepairQueue::new();
        q.enqueue(0, 2, RepairReason::Failover);
        assert_eq!(q.pending(), 1);
        let up = vec![true; 3];
        let mut total = 0;
        for _ in 0..8 {
            total += q.step(&mut ns, &map, &up, &shard_keys, 4, t, false);
            t += SimDuration::from_millis(100);
        }
        assert_eq!(total, 10);
        assert_eq!(q.pending(), 0);
        let s = q.stats();
        assert_eq!(s.jobs_done, 1);
        assert_eq!(s.keys_copied, 10);
        assert!(s.bytes_copied > 10 * 7);
        // The copy really landed on node 2.
        let r = ns[2].serve_get(t, &keys[0]);
        assert_eq!(r.value.as_deref(), Some(&b"payload"[..]));
    }

    #[test]
    fn repair_waits_for_a_live_source() {
        let mut ns = nodes(2);
        let topo = Topology::build(&[RackSpec {
            distance_cm: 1.0,
            spacing_cm: 1.0,
            nodes: 2,
        }]);
        let map = ShardMap::build(&topo, 1, 1, PlacementPolicy::CoLocated);
        let shard_keys = vec![vec![b"k".to_vec()]];
        let mut q = RepairQueue::new();
        q.enqueue(0, 1, RepairReason::Failover);
        // The only source (node 0) is down: nothing moves, job stays.
        let up = vec![false, true];
        let moved = q.step(&mut ns, &map, &up, &shard_keys, 8, SimTime::ZERO, false);
        assert_eq!(moved, 0);
        assert_eq!(q.pending(), 1);
    }

    #[test]
    fn checksummed_repair_refuses_a_corrupt_source() {
        use crate::integrity;
        // Three replicas of shard 0; node 0 (the preferred source) holds
        // a corrupt copy, node 1 a verified one, node 2 is the target.
        let mut ns = nodes(3);
        let topo = Topology::build(&[RackSpec {
            distance_cm: 1.0,
            spacing_cm: 1.0,
            nodes: 3,
        }]);
        let map = ShardMap::build(&topo, 1, 3, PlacementPolicy::CoLocated);
        let key = b"k".to_vec();
        let sealed = integrity::seal(&key, b"payload");
        let mut corrupt = sealed.clone();
        corrupt[0] ^= 0x01;
        assert!(ns[0].serve_put(SimTime::ZERO, &key, &corrupt).ok);
        assert!(ns[1].serve_put(SimTime::ZERO, &key, &sealed).ok);
        let shard_keys = vec![vec![key.clone()]];
        let mut q = RepairQueue::new();
        q.enqueue(0, 2, RepairReason::Scrub);
        let up = vec![true; 3];
        let mut t = SimTime::from_secs(1);
        let mut moved = 0;
        for _ in 0..4 {
            moved += q.step(&mut ns, &map, &up, &shard_keys, 4, t, true);
            t += SimDuration::from_millis(100);
        }
        assert_eq!(moved, 1);
        // The target received the verified copy, not the corrupt one.
        let r = ns[2].serve_get(t, &key);
        assert_eq!(r.value.as_deref(), Some(&sealed[..]));
    }

    #[test]
    fn duplicate_jobs_are_not_enqueued_and_targets_can_be_cancelled() {
        let mut q = RepairQueue::new();
        q.enqueue(0, 1, RepairReason::Failover);
        q.enqueue(0, 1, RepairReason::CatchUp);
        assert_eq!(q.pending(), 1);
        q.enqueue(1, 1, RepairReason::CatchUp);
        q.cancel_target(1);
        assert_eq!(q.pending(), 0);
    }
}
