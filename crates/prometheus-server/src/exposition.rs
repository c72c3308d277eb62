//! Prometheus text-exposition rendering of the server + storage counters.
//!
//! One function, one format: [`render_prometheus_exposition`] turns a
//! [`MetricsSnapshot`] and a [`StatsSnapshot`] into the text format the
//! *monitoring system* Prometheus scrapes (a happy naming coincidence with
//! the database). It backs both consumers:
//!
//! * the HTTP `GET /metrics` scrape endpoint
//!   ([`crate::ServerConfig::metrics_http_addr`]), rendered inside the
//!   event loop from the live counters;
//! * `harness stats --format=prometheus`, rendered client-side from a wire
//!   `Request::Stats` snapshot.
//!
//! Both paths go through this function, so a scrape and a wire stats call
//! can never disagree about a counter's name or meaning.

use crate::metrics::MetricsSnapshot;
use prometheus_storage::StatsSnapshot;
use std::fmt::Write as _;

fn write_counter(out: &mut String, name: &str, help: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {value}");
}

/// Render server + storage counters in the Prometheus text exposition
/// format, one metric per line, ready for a scrape endpoint or a
/// file-based collector. Counter names follow the convention
/// `prometheus_{server,storage}_<what>[_total]`; the latency histogram uses
/// the standard cumulative `_bucket{le=…}` / `_sum` / `_count` triple.
pub fn render_prometheus_exposition(server: &MetricsSnapshot, storage: &StatsSnapshot) -> String {
    let mut out = String::new();
    let mut counter = |name: &str, help: &str, value: u64| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    };
    counter(
        "prometheus_server_connections_accepted_total",
        "Connections handed to the worker pool.",
        server.connections_accepted,
    );
    counter(
        "prometheus_server_sessions_reaped_total",
        "Idle sessions closed by the reaper.",
        server.sessions_reaped,
    );
    counter(
        "prometheus_server_protocol_errors_total",
        "Frames that failed to decode or out-of-order requests.",
        server.protocol_errors,
    );
    counter(
        "prometheus_server_db_errors_total",
        "Requests the database layer rejected.",
        server.db_errors,
    );
    counter(
        "prometheus_server_units_committed_total",
        "Units of work committed over the wire.",
        server.units_committed,
    );
    counter(
        "prometheus_server_units_aborted_total",
        "Units rolled back on client request.",
        server.units_aborted,
    );
    counter(
        "prometheus_server_units_rolled_back_on_disconnect_total",
        "Units rolled back because the connection dropped mid-unit.",
        server.units_rolled_back_on_disconnect,
    );
    counter(
        "prometheus_server_units_timed_out_total",
        "Units rolled back at the idle deadline.",
        server.units_timed_out,
    );
    counter(
        "prometheus_server_plan_cache_hits_total",
        "Queries answered from the POOL plan cache.",
        server.plan_cache_hits,
    );
    counter(
        "prometheus_server_plan_cache_misses_total",
        "Queries that had to parse and plan.",
        server.plan_cache_misses,
    );
    counter(
        "prometheus_server_parallel_morsels_total",
        "Work morsels executed by parallel query workers.",
        server.parallel_morsels,
    );
    counter(
        "prometheus_storage_log_appends_total",
        "Redo-log records appended.",
        storage.log_appends,
    );
    counter(
        "prometheus_storage_bytes_written_total",
        "Bytes appended to the redo log.",
        storage.bytes_written,
    );
    counter(
        "prometheus_storage_syncs_total",
        "fsync calls on the redo log.",
        storage.syncs,
    );
    counter(
        "prometheus_storage_cache_hits_total",
        "Object-cache hits.",
        storage.cache_hits,
    );
    counter(
        "prometheus_storage_cache_misses_total",
        "Object-cache misses.",
        storage.cache_misses,
    );
    counter(
        "prometheus_storage_commits_total",
        "Transactions committed.",
        storage.commits,
    );
    counter(
        "prometheus_storage_aborts_total",
        "Transactions rolled back.",
        storage.aborts,
    );
    counter(
        "prometheus_storage_snapshot_swaps_total",
        "Immutable snapshot publications.",
        storage.snapshot_swaps,
    );
    counter(
        "prometheus_storage_image_nodes_cloned_total",
        "Persistent-map nodes path-copied while publishing commits.",
        storage.image_nodes_cloned,
    );
    counter(
        "prometheus_storage_image_bytes_copied_total",
        "Bytes copied cloning image nodes (structure only, not payloads).",
        storage.image_bytes_copied,
    );
    counter(
        "prometheus_storage_units_2pc_total",
        "Cross-shard units settled with a two-phase prepare/decide round.",
        storage.units_2pc,
    );

    let mut gauge = |name: &str, help: &str, value: u64| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {value}");
    };
    gauge(
        "prometheus_server_connections_active",
        "Sessions currently being served.",
        server.connections_active,
    );
    gauge(
        "prometheus_server_accept_queue_depth",
        "Accepted connections waiting for a free worker (blocking mode) or a ready slot (event mode).",
        server.accept_queue_depth,
    );
    gauge(
        "prometheus_server_shards",
        "Writer lanes / shard logs this server runs (1 = unsharded).",
        server.shards as u64,
    );

    // Per-shard breakdowns, labelled shard="k". The aggregate counters
    // above keep their unlabelled names, so single-shard dashboards are
    // untouched and sharded ones can sum or drill down.
    if !server.per_shard.is_empty() {
        type ShardSpec = (
            &'static str,
            &'static str,
            &'static str,
            fn(&crate::metrics::ShardMetrics) -> u64,
        );
        let per_shard: [ShardSpec; 4] = [
            (
                "prometheus_server_shard_lane_depth",
                "Writers holding or queued for this shard's lane.",
                "gauge",
                |s| s.lane_depth,
            ),
            (
                "prometheus_storage_shard_snapshot_swaps_total",
                "Immutable snapshot publications on this shard.",
                "counter",
                |s| s.snapshot_swaps,
            ),
            (
                "prometheus_storage_shard_image_bytes_copied_total",
                "Bytes copied cloning image nodes on this shard.",
                "counter",
                |s| s.image_bytes_copied,
            ),
            (
                "prometheus_storage_shard_units_2pc_total",
                "Two-phase units this shard participated in.",
                "counter",
                |s| s.units_2pc,
            ),
        ];
        for (name, help, kind, value) in per_shard {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (k, s) in server.per_shard.iter().enumerate() {
                let _ = writeln!(out, "{name}{{shard=\"{k}\"}} {}", value(s));
            }
        }
    }

    let _ = writeln!(
        out,
        "# HELP prometheus_server_requests_total Requests processed, by kind."
    );
    let _ = writeln!(out, "# TYPE prometheus_server_requests_total counter");
    for (kind, n) in &server.requests_by_kind {
        let _ = writeln!(
            out,
            "prometheus_server_requests_total{{kind=\"{kind}\"}} {n}"
        );
    }

    let hist = &server.latency;
    let _ = writeln!(
        out,
        "# HELP prometheus_server_request_latency_us Per-request wall-clock latency (µs)."
    );
    let _ = writeln!(out, "# TYPE prometheus_server_request_latency_us histogram");
    let mut cumulative = 0u64;
    for (i, &n) in hist.counts.iter().enumerate() {
        cumulative += n;
        match hist.bounds_us.get(i) {
            Some(bound) => {
                let _ = writeln!(
                    out,
                    "prometheus_server_request_latency_us_bucket{{le=\"{bound}\"}} {cumulative}"
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "prometheus_server_request_latency_us_bucket{{le=\"+Inf\"}} {cumulative}"
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "prometheus_server_request_latency_us_sum {}",
        hist.sum_us
    );
    let _ = writeln!(
        out,
        "prometheus_server_request_latency_us_count {}",
        hist.count
    );

    if !server.latency_by_class.is_empty() {
        let _ = writeln!(
            out,
            "# HELP prometheus_server_request_class_latency_us Request latency (µs) by request class."
        );
        let _ = writeln!(
            out,
            "# TYPE prometheus_server_request_class_latency_us histogram"
        );
        for (class, hist) in &server.latency_by_class {
            let mut cumulative = 0u64;
            for (i, &n) in hist.counts.iter().enumerate() {
                cumulative += n;
                let le = match hist.bounds_us.get(i) {
                    Some(bound) => bound.to_string(),
                    None => "+Inf".into(),
                };
                let _ = writeln!(
                    out,
                    "prometheus_server_request_class_latency_us_bucket{{class=\"{class}\",le=\"{le}\"}} {cumulative}"
                );
            }
            let _ = writeln!(
                out,
                "prometheus_server_request_class_latency_us_sum{{class=\"{class}\"}} {}",
                hist.sum_us
            );
            let _ = writeln!(
                out,
                "prometheus_server_request_class_latency_us_count{{class=\"{class}\"}} {}",
                hist.count
            );
        }
    }

    // Process self-metrics: when the server started, how long it has been
    // up, and what build is running. `build_info` follows the Prometheus
    // convention of a constant `1` gauge whose labels carry the versions.
    let _ = writeln!(
        out,
        "# HELP prometheus_server_start_time_seconds Unix time the server started."
    );
    let _ = writeln!(out, "# TYPE prometheus_server_start_time_seconds gauge");
    let _ = writeln!(
        out,
        "prometheus_server_start_time_seconds {}",
        server.start_unix_s
    );
    let _ = writeln!(
        out,
        "# HELP prometheus_server_uptime_seconds Seconds since the server started."
    );
    let _ = writeln!(out, "# TYPE prometheus_server_uptime_seconds gauge");
    let _ = writeln!(out, "prometheus_server_uptime_seconds {}", server.uptime_s);
    if !server.build_info.is_empty() {
        let _ = writeln!(
            out,
            "# HELP prometheus_server_build_info Constant 1; labels carry crate and protocol versions."
        );
        let _ = writeln!(out, "# TYPE prometheus_server_build_info gauge");
        let labels: Vec<String> = server
            .build_info
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        let _ = writeln!(
            out,
            "prometheus_server_build_info{{{}}} 1",
            labels.join(",")
        );
    }

    // Flight-recorder health: how many span events the recorder has taken,
    // how many it honestly dropped, and how the bounded trace index is
    // coping. A rising drop rate means the ring is undersized for the load.
    write_counter(
        &mut out,
        "prometheus_trace_events_written_total",
        "Span events accepted by the flight recorder.",
        server.trace_events_written,
    );
    write_counter(
        &mut out,
        "prometheus_trace_events_dropped_total",
        "Span events dropped because the recorder ring was contended or full.",
        server.trace_dropped,
    );
    write_counter(
        &mut out,
        "prometheus_trace_index_evictions_total",
        "Trace-index notes landing in a bucket last noted by another trace.",
        server.trace_index_evictions,
    );
    write_counter(
        &mut out,
        "prometheus_trace_index_overflows_total",
        "Trace-index notes that overwrote a ticket still live in the ring.",
        server.trace_index_overflows,
    );

    // Per-stage rollup histograms aggregated lock-free from span events:
    // one `{stage=…}` family over fixed µs bounds. Only stages that have
    // observed at least one span are emitted, keeping quiet servers terse.
    let live: Vec<_> = server
        .trace_rollups
        .iter()
        .filter(|r| r.count > 0)
        .collect();
    if !live.is_empty() {
        let _ = writeln!(
            out,
            "# HELP prometheus_trace_stage_duration_us Span duration (µs) by pipeline stage."
        );
        let _ = writeln!(out, "# TYPE prometheus_trace_stage_duration_us histogram");
        for r in live {
            let stage = &r.stage;
            let mut cumulative = 0u64;
            for (i, &n) in r.counts.iter().enumerate() {
                cumulative += n;
                let le = match r.bounds_us.get(i) {
                    Some(bound) => bound.to_string(),
                    None => "+Inf".into(),
                };
                let _ = writeln!(
                    out,
                    "prometheus_trace_stage_duration_us_bucket{{stage=\"{stage}\",le=\"{le}\"}} {cumulative}"
                );
            }
            let _ = writeln!(
                out,
                "prometheus_trace_stage_duration_us_sum{{stage=\"{stage}\"}} {}",
                r.sum_us
            );
            let _ = writeln!(
                out,
                "prometheus_trace_stage_duration_us_count{{stage=\"{stage}\"}} {}",
                r.count
            );
        }
    }

    if !server.replication.is_empty() {
        type GaugeSpec = (
            &'static str,
            &'static str,
            fn(&crate::metrics::FollowerLag) -> u64,
        );
        let gauges: [GaugeSpec; 3] = [
            (
                "prometheus_server_replication_follower_lag_bytes",
                "Committed redo-log bytes a follower has not pulled yet.",
                |f| f.lag_bytes,
            ),
            (
                "prometheus_server_replication_follower_next_offset",
                "The log offset a follower will poll next.",
                |f| f.next_offset,
            ),
            (
                "prometheus_server_replication_follower_last_poll_age_us",
                "Micros since a follower last polled; large means it is gone.",
                |f| f.last_poll_age_us,
            ),
        ];
        for (name, help, value) in gauges {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            for f in &server.replication {
                let _ = writeln!(
                    out,
                    "{name}{{follower=\"{}\",shard=\"{}\"}} {}",
                    f.follower,
                    f.shard,
                    value(f)
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{FollowerLag, LATENCY_BOUNDS_US, LATENCY_BUCKETS};

    #[test]
    fn exposition_renders_counters_and_histogram() {
        let mut server = MetricsSnapshot {
            connections_accepted: 3,
            connections_active: 1,
            accept_queue_depth: 2,
            sessions_reaped: 4,
            requests_by_kind: vec![("query".into(), 12), ("ping".into(), 2)],
            plan_cache_hits: 9,
            ..MetricsSnapshot::default()
        };
        server.latency.bounds_us = LATENCY_BOUNDS_US.to_vec();
        server.latency.counts = vec![0; LATENCY_BUCKETS];
        server.latency.counts[0] = 5;
        server.latency.counts[LATENCY_BUCKETS - 1] = 1;
        server.latency.count = 6;
        server.latency.sum_us = 2_000_100;
        let mut query_hist = server.latency.clone();
        query_hist.counts[LATENCY_BUCKETS - 1] = 0;
        query_hist.count = 5;
        server.latency_by_class = vec![("query".into(), query_hist)];
        server.replication = vec![FollowerLag {
            follower: "replica-a".into(),
            shard: 0,
            next_offset: 100,
            log_len: 400,
            lag_bytes: 300,
            last_poll_age_us: 1_500,
        }];
        server.shards = 2;
        server.per_shard = vec![
            crate::metrics::ShardMetrics {
                lane_depth: 1,
                snapshot_swaps: 7,
                image_bytes_copied: 64,
                units_2pc: 2,
            },
            crate::metrics::ShardMetrics {
                lane_depth: 0,
                snapshot_swaps: 3,
                image_bytes_copied: 32,
                units_2pc: 2,
            },
        ];
        let storage = StatsSnapshot {
            commits: 4,
            units_2pc: 4,
            ..StatsSnapshot::default()
        };
        let text = render_prometheus_exposition(&server, &storage);
        assert!(text.contains("prometheus_server_connections_accepted_total 3"));
        assert!(text.contains("prometheus_server_connections_active 1"));
        assert!(text.contains("prometheus_server_accept_queue_depth 2"));
        assert!(text.contains("prometheus_server_sessions_reaped_total 4"));
        assert!(text.contains("prometheus_server_requests_total{kind=\"query\"} 12"));
        assert!(text.contains("prometheus_server_plan_cache_hits_total 9"));
        assert!(text.contains("prometheus_storage_commits_total 4"));
        // Histogram buckets are cumulative and end at +Inf = count.
        assert!(text.contains("prometheus_server_request_latency_us_bucket{le=\"50\"} 5"));
        assert!(text.contains("prometheus_server_request_latency_us_bucket{le=\"+Inf\"} 6"));
        assert!(text.contains("prometheus_server_request_latency_us_count 6"));
        // Per-class histograms and per-follower replication-lag gauges.
        assert!(text.contains(
            "prometheus_server_request_class_latency_us_bucket{class=\"query\",le=\"50\"} 5"
        ));
        assert!(
            text.contains("prometheus_server_request_class_latency_us_count{class=\"query\"} 5")
        );
        assert!(text.contains(
            "prometheus_server_replication_follower_lag_bytes{follower=\"replica-a\",shard=\"0\"} 300"
        ));
        assert!(text.contains(
            "prometheus_server_replication_follower_next_offset{follower=\"replica-a\",shard=\"0\"} 100"
        ));
        // Shard-labelled breakdowns alongside unlabelled aggregates.
        assert!(text.contains("prometheus_server_shards 2"));
        assert!(text.contains("prometheus_storage_units_2pc_total 4"));
        assert!(text.contains("prometheus_server_shard_lane_depth{shard=\"0\"} 1"));
        assert!(text.contains("prometheus_storage_shard_snapshot_swaps_total{shard=\"1\"} 3"));
        assert!(text.contains("prometheus_storage_shard_units_2pc_total{shard=\"0\"} 2"));
        assert!(text.contains("prometheus_storage_shard_image_bytes_copied_total{shard=\"1\"} 32"));
        // Every non-comment line is "name[{labels}] value".
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "malformed line: {line}");
        }
    }

    /// A deterministic snapshot pair that exercises every family the
    /// renderer knows: plain counters, gauges, shard/follower labels,
    /// histograms, build_info, and the trace rollups.
    fn full_snapshots() -> (MetricsSnapshot, StatsSnapshot) {
        let mut server = MetricsSnapshot {
            connections_accepted: 7,
            connections_active: 2,
            accept_queue_depth: 1,
            sessions_reaped: 3,
            protocol_errors: 1,
            db_errors: 2,
            units_committed: 11,
            units_aborted: 1,
            units_rolled_back_on_disconnect: 1,
            units_timed_out: 1,
            plan_cache_hits: 20,
            plan_cache_misses: 4,
            parallel_morsels: 16,
            requests_by_kind: vec![("ping".into(), 2), ("query".into(), 24)],
            shards: 2,
            start_unix_s: 1_700_000_000,
            uptime_s: 3_600,
            build_info: vec![
                ("version".into(), "0.1.0".into()),
                ("protocol".into(), "8".into()),
            ],
            trace_events_written: 900,
            trace_dropped: 5,
            trace_index_evictions: 2,
            trace_index_overflows: 1,
            ..MetricsSnapshot::default()
        };
        server.latency.bounds_us = LATENCY_BOUNDS_US.to_vec();
        server.latency.counts = vec![0; LATENCY_BUCKETS];
        server.latency.counts[0] = 9;
        server.latency.count = 9;
        server.latency.sum_us = 450;
        server.per_shard = vec![
            crate::metrics::ShardMetrics {
                lane_depth: 1,
                snapshot_swaps: 6,
                image_bytes_copied: 640,
                units_2pc: 3,
            },
            crate::metrics::ShardMetrics {
                lane_depth: 0,
                snapshot_swaps: 5,
                image_bytes_copied: 320,
                units_2pc: 3,
            },
        ];
        server.replication = vec![FollowerLag {
            follower: "replica-a".into(),
            shard: 1,
            next_offset: 2_048,
            log_len: 4_096,
            lag_bytes: 2_048,
            last_poll_age_us: 500,
        }];
        server.trace_rollups = vec![
            prometheus_trace::StageRollup {
                stage: "lane_wait".into(),
                bounds_us: prometheus_trace::ROLLUP_BOUNDS_US.to_vec(),
                counts: vec![4, 2, 0, 0, 0, 0, 0, 0, 1],
                count: 7,
                sum_us: 1_234,
            },
            prometheus_trace::StageRollup {
                stage: "unit_prepare".into(),
                bounds_us: prometheus_trace::ROLLUP_BOUNDS_US.to_vec(),
                counts: vec![3, 0, 0, 0, 0, 0, 0, 0, 0],
                count: 3,
                sum_us: 90,
            },
            // A silent stage must be omitted from the exposition entirely.
            prometheus_trace::StageRollup {
                stage: "replica_apply".into(),
                bounds_us: prometheus_trace::ROLLUP_BOUNDS_US.to_vec(),
                counts: vec![0; 9],
                count: 0,
                sum_us: 0,
            },
        ];
        let storage = StatsSnapshot {
            log_appends: 40,
            bytes_written: 8_192,
            syncs: 12,
            cache_hits: 300,
            cache_misses: 30,
            commits: 11,
            aborts: 2,
            snapshot_swaps: 11,
            image_nodes_cloned: 88,
            image_bytes_copied: 960,
            units_2pc: 3,
            ..StatsSnapshot::default()
        };
        (server, storage)
    }

    /// Satellite 1: every exposed series has `# HELP` and `# TYPE` lines,
    /// verified by actually parsing the exposition rather than spot checks.
    /// The parser enforces the text-format grammar: HELP before TYPE, TYPE
    /// before samples, valid metric kinds, histogram suffix rules, and no
    /// sample without a preceding family declaration.
    #[test]
    fn every_series_is_declared_with_help_and_type() {
        use std::collections::HashMap;
        let (server, storage) = full_snapshots();
        let text = render_prometheus_exposition(&server, &storage);

        let mut helped: HashMap<String, bool> = HashMap::new(); // name -> typed?
        let mut types: HashMap<String, String> = HashMap::new();
        let mut sampled: Vec<String> = Vec::new();
        for line in text.lines() {
            assert!(!line.trim().is_empty(), "blank line in exposition");
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split_whitespace().next().expect("HELP has a name");
                assert!(
                    rest.len() > name.len() + 1,
                    "HELP without help text: {line}"
                );
                assert!(
                    helped.insert(name.to_string(), false).is_none(),
                    "duplicate HELP for {name}"
                );
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                let name = it.next().expect("TYPE has a name");
                let kind = it.next().expect("TYPE has a kind");
                assert!(
                    matches!(kind, "counter" | "gauge" | "histogram"),
                    "unknown metric kind: {line}"
                );
                assert_eq!(
                    helped.get(name),
                    Some(&false),
                    "TYPE without preceding HELP (or duplicate TYPE): {name}"
                );
                helped.insert(name.to_string(), true);
                types.insert(name.to_string(), kind.to_string());
            } else {
                let mut parts = line.split_whitespace();
                let series = parts.next().expect("sample has a series");
                let value = parts.next().expect("sample has a value");
                assert!(parts.next().is_none(), "trailing tokens: {line}");
                value.parse::<f64>().expect("sample value is numeric");
                let base = series.split('{').next().unwrap();
                // Histogram samples attach _bucket/_sum/_count to the family.
                let family = ["_bucket", "_sum", "_count"]
                    .iter()
                    .find_map(|suf| base.strip_suffix(suf))
                    .filter(|stripped| {
                        types.get(*stripped).map(String::as_str) == Some("histogram")
                    })
                    .unwrap_or(base);
                assert_eq!(
                    helped.get(family),
                    Some(&true),
                    "sample without HELP+TYPE declaration: {line}"
                );
                if types[family] != "histogram" {
                    assert_eq!(base, family, "suffix on non-histogram series: {line}");
                }
                sampled.push(family.to_string());
            }
        }
        // No family is declared and then never sampled.
        for name in helped.keys() {
            assert!(
                sampled.iter().any(|s| s == name),
                "family {name} declared but has no samples"
            );
        }
        // Sanity: the families this PR added are all present.
        for required in [
            "prometheus_server_start_time_seconds",
            "prometheus_server_uptime_seconds",
            "prometheus_server_build_info",
            "prometheus_trace_events_written_total",
            "prometheus_trace_events_dropped_total",
            "prometheus_trace_index_evictions_total",
            "prometheus_trace_index_overflows_total",
            "prometheus_trace_stage_duration_us",
        ] {
            assert!(types.contains_key(required), "missing family {required}");
        }
    }

    /// Satellite 4: golden-file test. The exposition of a fixed snapshot is
    /// byte-for-byte stable — ordering included — so dashboards and scrape
    /// configs never see series silently renamed or reordered. Regenerate
    /// with `UPDATE_GOLDEN=1 cargo test -p prometheus-server golden`.
    #[test]
    fn exposition_matches_golden_file() {
        let (server, storage) = full_snapshots();
        let text = render_prometheus_exposition(&server, &storage);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("testdata")
            .join("exposition.golden.txt");
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &text).unwrap();
            return;
        }
        let golden = std::fs::read_to_string(&path)
            .expect("golden file missing; run with UPDATE_GOLDEN=1 to create it");
        assert_eq!(
            text, golden,
            "exposition drifted from the golden file; if intentional, \
             regenerate with UPDATE_GOLDEN=1"
        );
    }

    #[test]
    fn stage_rollups_render_cumulative_buckets() {
        let (server, storage) = full_snapshots();
        let text = render_prometheus_exposition(&server, &storage);
        // lane_wait counts [4,2,...,1] → cumulative 4, 6, …, +Inf = 7.
        assert!(text.contains(
            "prometheus_trace_stage_duration_us_bucket{stage=\"lane_wait\",le=\"50\"} 4"
        ));
        assert!(text.contains(
            "prometheus_trace_stage_duration_us_bucket{stage=\"lane_wait\",le=\"100\"} 6"
        ));
        assert!(text.contains(
            "prometheus_trace_stage_duration_us_bucket{stage=\"lane_wait\",le=\"+Inf\"} 7"
        ));
        assert!(text.contains("prometheus_trace_stage_duration_us_count{stage=\"lane_wait\"} 7"));
        assert!(text.contains("prometheus_trace_stage_duration_us_sum{stage=\"lane_wait\"} 1234"));
        // The silent replica_apply rollup is omitted.
        assert!(!text.contains("stage=\"replica_apply\""));
        // Self-metrics and build info.
        assert!(text.contains("prometheus_server_start_time_seconds 1700000000"));
        assert!(text.contains("prometheus_server_uptime_seconds 3600"));
        assert!(text.contains("prometheus_server_build_info{version=\"0.1.0\",protocol=\"8\"} 1"));
    }
}
