//! Server-side operation counters and latency histogram.
//!
//! Extends the `Stats`/`StatsSnapshot` pattern of `prometheus-storage` one
//! layer up: lock-free atomics bumped on the hot path, and a plain-data,
//! serialisable [`MetricsSnapshot`] that the `stats` wire request returns so
//! any client (the load generator, an operator's REPL) can observe a live
//! server.

use prometheus_pool::ExecStatsSnapshot;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Upper bounds (µs, inclusive) of the latency histogram buckets; one
/// overflow bucket follows the last bound.
pub const LATENCY_BOUNDS_US: [u64; 9] =
    [50, 100, 250, 500, 1_000, 5_000, 25_000, 100_000, 1_000_000];

/// Number of histogram buckets (bounds + overflow).
pub const LATENCY_BUCKETS: usize = LATENCY_BOUNDS_US.len() + 1;

/// Request kinds tracked per-counter; mirrors `Request::kind_name`.
pub const REQUEST_KINDS: [&str; 19] = [
    "hello",
    "ping",
    "query",
    "set_context",
    "install_pcl",
    "unit_begin",
    "unit_op",
    "unit_commit",
    "unit_abort",
    "unit_batch",
    "compact",
    "stats",
    "trace",
    "slow_log",
    "shutdown",
    "bye",
    "replica_poll",
    "replica_status",
    "trace_get",
];

/// Coarse request classes, each with its own latency histogram: a query's
/// latency profile and a replication poll's have nothing in common, and one
/// merged histogram hides both.
pub const REQUEST_CLASSES: [&str; 5] = ["query", "unit", "observability", "replication", "other"];

/// Map a request kind (by `Request::kind_name`) to its [`REQUEST_CLASSES`]
/// index.
pub fn class_of_kind(kind_name: &str) -> usize {
    match kind_name {
        "query" => 0,
        "install_pcl" | "unit_begin" | "unit_op" | "unit_commit" | "unit_abort" | "unit_batch" => 1,
        "stats" | "trace" | "slow_log" | "trace_get" => 2,
        "replica_poll" | "replica_status" => 3,
        _ => 4,
    }
}

/// Shared, lock-free counters for one running server.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections the accept loop has handed to the worker pool.
    pub connections_accepted: AtomicU64,
    /// Sessions currently being served.
    pub connections_active: AtomicU64,
    /// Accepted connections (blocking mode) or ready connections (event
    /// mode) currently queued for a worker. A persistently non-zero gauge
    /// means the worker pool is the bottleneck — accepted-but-unserved
    /// sessions used to wait here invisibly.
    pub accept_queued: AtomicU64,
    /// Sessions closed by the idle-connection reaper
    /// ([`crate::ServerConfig::idle_timeout`]): socket closed, any open unit
    /// rolled back.
    pub sessions_reaped: AtomicU64,
    /// Requests processed, by kind (indexes follow [`REQUEST_KINDS`]).
    requests: [AtomicU64; REQUEST_KINDS.len()],
    /// Frames that failed to decode, or out-of-order requests.
    pub protocol_errors: AtomicU64,
    /// Requests the database layer rejected.
    pub db_errors: AtomicU64,
    /// Units of work committed over the wire.
    pub units_committed: AtomicU64,
    /// Units rolled back on client request (`UnitAbort`).
    pub units_aborted: AtomicU64,
    /// Units rolled back because the connection dropped mid-unit.
    pub units_rolled_back_on_disconnect: AtomicU64,
    /// Units rolled back because the client sat silent past the idle
    /// deadline while holding the writer lane.
    pub units_timed_out: AtomicU64,
    /// Per-request wall-clock latency histogram (all kinds merged).
    latency: [AtomicU64; LATENCY_BUCKETS],
    /// Total requests timed (histogram population).
    pub latency_count: AtomicU64,
    /// Sum of all request latencies, µs (for the mean).
    pub latency_sum_us: AtomicU64,
    /// Per-class latency histograms (indexes follow [`REQUEST_CLASSES`]).
    class_latency: [[AtomicU64; LATENCY_BUCKETS]; REQUEST_CLASSES.len()],
    class_count: [AtomicU64; REQUEST_CLASSES.len()],
    class_sum_us: [AtomicU64; REQUEST_CLASSES.len()],
    /// Replication followers by (name, shard): cursor and horizon at their
    /// last poll of that shard's log, for per-follower lag in `stats` and
    /// the prometheus exposition. Cold path (one update per poll), so a
    /// plain mutex is fine here.
    followers: Mutex<HashMap<(String, u32), FollowerTrack>>,
}

#[derive(Debug)]
struct FollowerTrack {
    next_offset: u64,
    log_len: u64,
    last_poll: Instant,
}

impl ServerMetrics {
    /// Count one request of the given kind (by `Request::kind_name`).
    pub fn count_request(&self, kind_name: &str) {
        if let Some(i) = REQUEST_KINDS.iter().position(|k| *k == kind_name) {
            self.requests[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one request's wall-clock latency, both in the merged histogram
    /// and in the request-class histogram `kind_name` maps to.
    pub fn record_latency_us(&self, kind_name: &str, us: u64) {
        let idx = LATENCY_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BUCKETS - 1);
        self.latency[idx].fetch_add(1, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us.fetch_add(us, Ordering::Relaxed);
        let class = class_of_kind(kind_name);
        self.class_latency[class][idx].fetch_add(1, Ordering::Relaxed);
        self.class_count[class].fetch_add(1, Ordering::Relaxed);
        self.class_sum_us[class].fetch_add(us, Ordering::Relaxed);
    }

    /// Record a replication follower's poll of one shard's log: its cursor
    /// after the batch and the committed horizon it was served against.
    pub fn record_follower_poll(&self, follower: &str, shard: u32, next_offset: u64, log_len: u64) {
        let mut followers = self.followers.lock().expect("follower map poisoned");
        followers.insert(
            (follower.to_string(), shard),
            FollowerTrack {
                next_offset,
                log_len,
                last_poll: Instant::now(),
            },
        );
    }

    /// Capture a point-in-time copy of all counters.
    ///
    /// The executor's counters (plan cache, parallel morsels) live with the
    /// query executor, not here — the caller passes its snapshot in, so a
    /// wire-ready [`MetricsSnapshot`] can never ship zeroed executor fields
    /// by accident. Standalone callers (tests, exposition of a metrics-only
    /// object) pass `&ExecStatsSnapshot::default()`.
    pub fn snapshot(&self, exec: &ExecStatsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_active: self.connections_active.load(Ordering::Relaxed),
            accept_queue_depth: self.accept_queued.load(Ordering::Relaxed),
            sessions_reaped: self.sessions_reaped.load(Ordering::Relaxed),
            requests_by_kind: REQUEST_KINDS
                .iter()
                .zip(self.requests.iter())
                .map(|(name, counter)| (name.to_string(), counter.load(Ordering::Relaxed)))
                .collect(),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            db_errors: self.db_errors.load(Ordering::Relaxed),
            units_committed: self.units_committed.load(Ordering::Relaxed),
            units_aborted: self.units_aborted.load(Ordering::Relaxed),
            units_rolled_back_on_disconnect: self
                .units_rolled_back_on_disconnect
                .load(Ordering::Relaxed),
            units_timed_out: self.units_timed_out.load(Ordering::Relaxed),
            plan_cache_hits: exec.plan_cache_hits,
            plan_cache_misses: exec.plan_cache_misses,
            parallel_morsels: exec.parallel_morsels,
            latency: LatencyHistogram {
                bounds_us: LATENCY_BOUNDS_US.to_vec(),
                counts: self
                    .latency
                    .iter()
                    .map(|c| c.load(Ordering::Relaxed))
                    .collect(),
                count: self.latency_count.load(Ordering::Relaxed),
                sum_us: self.latency_sum_us.load(Ordering::Relaxed),
            },
            latency_by_class: REQUEST_CLASSES
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    (
                        name.to_string(),
                        LatencyHistogram {
                            bounds_us: LATENCY_BOUNDS_US.to_vec(),
                            counts: self.class_latency[i]
                                .iter()
                                .map(|c| c.load(Ordering::Relaxed))
                                .collect(),
                            count: self.class_count[i].load(Ordering::Relaxed),
                            sum_us: self.class_sum_us[i].load(Ordering::Relaxed),
                        },
                    )
                })
                .collect(),
            replication: {
                let followers = self.followers.lock().expect("follower map poisoned");
                let mut lags: Vec<FollowerLag> = followers
                    .iter()
                    .map(|((name, shard), t)| FollowerLag {
                        follower: name.clone(),
                        shard: *shard,
                        next_offset: t.next_offset,
                        log_len: t.log_len,
                        lag_bytes: t.log_len.saturating_sub(t.next_offset),
                        last_poll_age_us: t.last_poll.elapsed().as_micros() as u64,
                    })
                    .collect();
                lags.sort_by(|a, b| (&a.follower, a.shard).cmp(&(&b.follower, b.shard)));
                lags
            },
            shards: 1,
            per_shard: Vec::new(),
            start_unix_s: 0,
            uptime_s: 0,
            build_info: Vec::new(),
            trace_rollups: Vec::new(),
            trace_events_written: 0,
            trace_dropped: 0,
            trace_index_evictions: 0,
            trace_index_overflows: 0,
        }
    }
}

/// Plain-data snapshot of [`ServerMetrics`]; crosses the wire in
/// `Response::Stats`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub connections_accepted: u64,
    pub connections_active: u64,
    /// Connections queued for a worker at snapshot time (protocol v6).
    pub accept_queue_depth: u64,
    /// Sessions closed by the idle-connection reaper (protocol v6).
    pub sessions_reaped: u64,
    pub requests_by_kind: Vec<(String, u64)>,
    pub protocol_errors: u64,
    pub db_errors: u64,
    pub units_committed: u64,
    pub units_aborted: u64,
    pub units_rolled_back_on_disconnect: u64,
    pub units_timed_out: u64,
    /// Pinned queries answered from the POOL plan cache (protocol v2).
    pub plan_cache_hits: u64,
    /// Pinned queries that had to parse and plan: cold, evicted, or the
    /// schema version moved under the cached plan (protocol v2).
    pub plan_cache_misses: u64,
    /// Work morsels executed by parallel query workers — candidate filters,
    /// outer join loops and traversal frontiers (protocol v2).
    pub parallel_morsels: u64,
    pub latency: LatencyHistogram,
    /// Per-request-class latency histograms, in [`REQUEST_CLASSES`] order
    /// (protocol v4).
    pub latency_by_class: Vec<(String, LatencyHistogram)>,
    /// Per-follower replication lag as of each follower's last poll, sorted
    /// by (follower name, shard) (protocol v4; one entry per polled shard
    /// since v7; empty when nothing replicates).
    pub replication: Vec<FollowerLag>,
    /// Number of store shards behind this server (protocol v7).
    pub shards: u32,
    /// Per-shard observability, one entry per shard in shard order
    /// (protocol v7). Aggregate counters above and in the storage snapshot
    /// are totals across shards; these break the contended ones down.
    pub per_shard: Vec<ShardMetrics>,
    /// Server process start time, seconds since the Unix epoch
    /// (protocol v8).
    pub start_unix_s: u64,
    /// Seconds this server has been up at snapshot time (protocol v8).
    pub uptime_s: u64,
    /// Build identity as (key, value) label pairs — crate name and version
    /// — for the `build_info` gauge (protocol v8).
    pub build_info: Vec<(String, String)>,
    /// Flight-recorder per-stage rollup histograms, in `Stage::ALL` order;
    /// empty when tracing is disabled (protocol v8).
    pub trace_rollups: Vec<prometheus_trace::StageRollup>,
    /// Span events the trace ring accepted (protocol v8).
    pub trace_events_written: u64,
    /// Span events dropped to a lapped-writer collision (protocol v8).
    pub trace_dropped: u64,
    /// Trace-index buckets evicted by colliding traces (protocol v8).
    pub trace_index_evictions: u64,
    /// Spans recorded past a trace's index capacity (protocol v8).
    pub trace_index_overflows: u64,
}

/// One shard's slice of the contended counters (protocol v7).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ShardMetrics {
    /// Sessions queued or holding this shard's writer lane right now.
    pub lane_depth: u64,
    /// Snapshot publications on this shard's store.
    pub snapshot_swaps: u64,
    /// Bytes copied publishing this shard's image.
    pub image_bytes_copied: u64,
    /// Cross-shard (two-phase) units this shard participated in.
    pub units_2pc: u64,
}

/// One replication follower's position on one shard's log, as the primary
/// last saw it.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FollowerLag {
    /// The follower's self-chosen stable name.
    pub follower: String,
    /// The member shard this cursor tracks (protocol v7).
    pub shard: u32,
    /// Byte cursor the follower will poll from next.
    pub next_offset: u64,
    /// Committed log length it was last served against.
    pub log_len: u64,
    /// `log_len - next_offset`: bytes the follower had not yet applied.
    pub lag_bytes: u64,
    /// Microseconds since the follower's last poll.
    pub last_poll_age_us: u64,
}

impl MetricsSnapshot {
    /// Total requests across all kinds.
    pub fn requests_total(&self) -> u64 {
        self.requests_by_kind.iter().map(|(_, n)| n).sum()
    }

    /// Count for one request kind.
    pub fn requests_of(&self, kind: &str) -> u64 {
        self.requests_by_kind
            .iter()
            .find(|(name, _)| name == kind)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }
}

/// Bucketed latency distribution.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// Inclusive upper bounds (µs); one overflow bucket follows.
    pub bounds_us: Vec<u64>,
    /// Populations, `bounds_us.len() + 1` entries.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations, µs.
    pub sum_us: u64,
}

impl LatencyHistogram {
    /// Mean latency in µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Histogram-resolution percentile estimate (`p` in `[0, 1]`): the upper
    /// bound of the bucket containing the p-quantile observation, or `None`
    /// when that observation fell in the unbounded overflow bucket (or the
    /// histogram is empty) — the histogram genuinely does not know how slow
    /// those requests were, and a fabricated number would be worse than an
    /// honest "over the last bound". Client-side exact measurements (the
    /// load generator) are preferred for reporting; this is for quick
    /// server-side introspection.
    pub fn approx_percentile_us(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The last bucket has no upper bound: get() misses and the
                // estimate is honestly unavailable.
                return self.bounds_us.get(i).copied();
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_kind_table_matches_protocol() {
        use crate::protocol::{MutationOp, Request};
        use prometheus_db::{Oid, Value};
        // Every Request variant's kind_name must have a metrics slot.
        let reqs = vec![
            Request::Hello {
                version: 1,
                client: "t".into(),
            },
            Request::Ping,
            Request::Query {
                pool: String::new(),
            },
            Request::SetContext {
                classification: None,
            },
            Request::InstallPcl {
                source: String::new(),
            },
            Request::UnitBegin,
            Request::UnitOp {
                op: MutationOp::SetAttr {
                    oid: Oid::NIL,
                    attr: String::new(),
                    value: Value::Null,
                },
            },
            Request::UnitCommit,
            Request::UnitAbort,
            Request::UnitBatch { ops: Vec::new() },
            Request::Compact,
            Request::Stats,
            Request::Trace { n: 1 },
            Request::SlowLog { n: 1 },
            Request::Shutdown,
            Request::Bye,
            Request::ReplicaPoll {
                follower: String::new(),
                shard: 0,
                epoch: 0,
                offset: 0,
                max_bytes: 0,
            },
            Request::ReplicaStatus,
            Request::TraceGet {
                trace_id: prometheus_trace::TraceId::NONE,
            },
        ];
        assert_eq!(reqs.len(), REQUEST_KINDS.len());
        for r in reqs {
            assert!(
                REQUEST_KINDS.contains(&r.kind_name()),
                "unknown kind {}",
                r.kind_name()
            );
            assert!(
                class_of_kind(r.kind_name()) < REQUEST_CLASSES.len(),
                "kind {} has no class",
                r.kind_name()
            );
        }
    }

    #[test]
    fn latency_buckets_accumulate() {
        let m = ServerMetrics::default();
        m.record_latency_us("query", 10); // bucket 0 (<=50)
        m.record_latency_us("query", 80); // bucket 1 (<=100)
        m.record_latency_us("query", 2_000_000); // overflow
        let snap = m.snapshot(&ExecStatsSnapshot::default());
        assert_eq!(snap.latency.count, 3);
        assert_eq!(snap.latency.counts[0], 1);
        assert_eq!(snap.latency.counts[1], 1);
        assert_eq!(snap.latency.counts[LATENCY_BUCKETS - 1], 1);
        assert_eq!(snap.latency.sum_us, 2_000_090);
        assert!(snap.latency.mean_us() > 0.0);
    }

    #[test]
    fn per_class_histograms_split_by_request_kind() {
        let m = ServerMetrics::default();
        m.record_latency_us("query", 10);
        m.record_latency_us("query", 80);
        m.record_latency_us("unit_batch", 600);
        m.record_latency_us("replica_poll", 30);
        m.record_latency_us("trace", 40);
        m.record_latency_us("ping", 5);
        let snap = m.snapshot(&ExecStatsSnapshot::default());
        let of = |class: &str| {
            snap.latency_by_class
                .iter()
                .find(|(name, _)| name == class)
                .map(|(_, h)| h.clone())
                .unwrap()
        };
        assert_eq!(of("query").count, 2);
        assert_eq!(of("unit").count, 1);
        assert_eq!(of("replication").count, 1);
        assert_eq!(of("observability").count, 1);
        assert_eq!(of("other").count, 1);
        // The merged histogram still sees everything.
        assert_eq!(snap.latency.count, 6);
        // Every class observation lands in exactly one bucket of its class.
        assert_eq!(of("query").counts.iter().sum::<u64>(), 2);
        assert_eq!(of("unit").counts[4], 1); // 600µs → <=1000 bucket
    }

    #[test]
    fn follower_polls_surface_as_lag() {
        let m = ServerMetrics::default();
        m.record_follower_poll("replica-b", 0, 100, 400);
        m.record_follower_poll("replica-a", 0, 400, 400);
        let snap = m.snapshot(&ExecStatsSnapshot::default());
        assert_eq!(snap.replication.len(), 2);
        // Sorted by (follower, shard) for stable exposition output.
        assert_eq!(snap.replication[0].follower, "replica-a");
        assert_eq!(snap.replication[0].lag_bytes, 0);
        assert_eq!(snap.replication[1].follower, "replica-b");
        assert_eq!(snap.replication[1].lag_bytes, 300);
        // A later poll replaces the entry, never duplicates it.
        m.record_follower_poll("replica-b", 0, 400, 400);
        let snap = m.snapshot(&ExecStatsSnapshot::default());
        assert_eq!(snap.replication.len(), 2);
        assert_eq!(snap.replication[1].lag_bytes, 0);
        // One cursor per polled shard: the same follower on another shard
        // is its own entry, in shard order.
        m.record_follower_poll("replica-b", 1, 10, 50);
        let snap = m.snapshot(&ExecStatsSnapshot::default());
        assert_eq!(snap.replication.len(), 3);
        assert_eq!(snap.replication[2].shard, 1);
        assert_eq!(snap.replication[2].lag_bytes, 40);
    }

    #[test]
    fn percentile_walks_buckets() {
        let m = ServerMetrics::default();
        for _ in 0..99 {
            m.record_latency_us("query", 40);
        }
        m.record_latency_us("query", 900); // lands in the <=1000 bucket
        let snap = m.snapshot(&ExecStatsSnapshot::default());
        assert_eq!(snap.latency.approx_percentile_us(0.50), Some(50));
        assert_eq!(snap.latency.approx_percentile_us(1.0), Some(1_000));
        assert_eq!(LatencyHistogram::default().approx_percentile_us(0.5), None);
    }

    #[test]
    fn percentile_in_the_overflow_bucket_is_honestly_unknown() {
        let m = ServerMetrics::default();
        m.record_latency_us("query", 40);
        m.record_latency_us("query", 2_000_000); // past the last bound
        let snap = m.snapshot(&ExecStatsSnapshot::default());
        // The median is still known…
        assert_eq!(snap.latency.approx_percentile_us(0.50), Some(50));
        // …but the max fell off the end of the bounds: no fabricated
        // `last_bound * 10`, just an explicit absence.
        assert_eq!(snap.latency.approx_percentile_us(1.0), None);
    }

    #[test]
    fn snapshot_carries_the_executor_counters() {
        let m = ServerMetrics::default();
        let exec = ExecStatsSnapshot {
            plan_cache_hits: 7,
            plan_cache_misses: 2,
            parallel_morsels: 31,
        };
        let snap = m.snapshot(&exec);
        assert_eq!(snap.plan_cache_hits, 7);
        assert_eq!(snap.plan_cache_misses, 2);
        assert_eq!(snap.parallel_morsels, 31);
    }

    #[test]
    fn request_counters_by_kind() {
        let m = ServerMetrics::default();
        m.count_request("query");
        m.count_request("query");
        m.count_request("ping");
        let snap = m.snapshot(&ExecStatsSnapshot::default());
        assert_eq!(snap.requests_of("query"), 2);
        assert_eq!(snap.requests_of("ping"), 1);
        assert_eq!(snap.requests_of("compact"), 0);
        assert_eq!(snap.requests_total(), 3);
    }

    /// Satellite coverage: hammer the server counters and the trace ring
    /// from many threads at once. Snapshot totals must come out exact (no
    /// lost updates), and concurrent ring reads must never block or return
    /// a torn event — the seqlock either yields a consistent payload or
    /// skips the slot.
    #[test]
    fn metrics_and_trace_ring_survive_concurrent_hammering() {
        use prometheus_db::{Recorder, Stage, TraceEvent};
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

        const THREADS: u64 = 8;
        const OPS: u64 = 2_000;

        let metrics = ServerMetrics::default();
        let recorder = Recorder::new(256); // small ring: force heavy lapping
        let stop = AtomicBool::new(false);
        // Events the reader has checked so far. Writers pause halfway until
        // it is non-zero, so the reader provably races live writers even
        // when the scheduler would otherwise run the writers to completion
        // first.
        let seen_so_far = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let metrics = &metrics;
                let recorder = &recorder;
                let seen_so_far = &seen_so_far;
                scope.spawn(move || {
                    for i in 0..OPS {
                        if i == OPS / 2 {
                            while seen_so_far.load(Ordering::Acquire) == 0 {
                                std::thread::yield_now();
                            }
                        }
                        metrics.count_request("query");
                        metrics.record_latency_us("query", i % 3_000);
                        // Self-consistent payload: every word equals the
                        // marker, so a torn read is detectable.
                        let marker = t * OPS + i + 1;
                        recorder.record(TraceEvent {
                            trace_id: prometheus_trace::TraceId::from_words(marker, marker),
                            span_id: marker,
                            parent_id: marker,
                            stage: Stage::Scan,
                            start_us: marker,
                            dur_us: marker,
                            c0: marker,
                            c1: marker,
                        });
                    }
                });
            }
            // A reader racing the writers: every event it sees must be
            // internally consistent.
            let reader = scope.spawn(|| {
                let mut seen = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    for ev in recorder.recent(64) {
                        assert_eq!(ev.trace_id.lo, ev.span_id, "torn event: {ev:?}");
                        assert_eq!(ev.trace_id.hi, ev.start_us, "torn event: {ev:?}");
                        assert_eq!(ev.trace_id.lo, ev.c1, "torn event: {ev:?}");
                        seen += 1;
                    }
                    seen_so_far.store(seen, Ordering::Release);
                }
                seen
            });
            // Scope drops writer handles first; signal the reader once the
            // writers are done by spawning a watcher that joins them via the
            // scope's implicit join — simplest is to let the main thread
            // wait on the metrics totals.
            while metrics.latency_count.load(Ordering::Relaxed) < THREADS * OPS {
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Relaxed);
            let seen = reader.join().unwrap();
            assert!(seen > 0, "reader must observe events while racing");
        });

        let snap = metrics.snapshot(&ExecStatsSnapshot::default());
        assert_eq!(snap.requests_of("query"), THREADS * OPS);
        assert_eq!(snap.latency.count, THREADS * OPS);
        assert_eq!(
            snap.latency.counts.iter().sum::<u64>(),
            THREADS * OPS,
            "every latency observation lands in exactly one bucket"
        );
        // The ring either kept an event or counted it dropped — none vanish.
        assert_eq!(
            recorder.events_written() + recorder.dropped(),
            THREADS * OPS
        );
        assert!(recorder.recent(256).len() <= 256);
    }
}
