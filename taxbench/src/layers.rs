//! In-process layer timing for the traced run: each layer's public calls
//! timed from outside, on the store the wire run left behind.

use crate::clients::PhaseOut;
use crate::flora::{self, FloraSpec, Keys};
use crate::ops::{self, ReadOp, UnitDims, CLASSES};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use crate::units::{self, Writer};
use prometheus_db::pool::{self, Executor};
use prometheus_db::{Database, Prometheus};
use prometheus_server::{FrameDecoder, FrameEncoder, MetricsSnapshot, Response, TraceId, WireRows};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::time::Instant;

/// Keys per class timed in process.
const LAYER_KEYS: usize = 30;
/// Units per writer and arm replayed in process.
const LAYER_UNITS: usize = 200;

/// Per read class: in-process p50s of each layer call on `LAYER_KEYS`
/// keys, timed on a pinned view of the reopened store.
pub struct ReadLayers {
    pub parse: f64,
    pub plan: f64,
    pub exec: f64,
    pub object: f64,
    pub encode: f64,
    pub decode: f64,
    pub bytes: f64,
}

pub fn read_layers(
    prom: &Prometheus,
    keys: &Keys,
    ops: &[ReadOp],
    tracer: &mut Tracer,
) -> Result<Vec<ReadLayers>, String> {
    let err = |e: prometheus_db::DbError| e.to_string();
    let view = prom.read_view();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let exec = Executor::new(workers);
    let mut out = Vec::new();
    for class in CLASSES {
        let first = tracer.spans.len();
        let mut bytes = Vec::new();
        for (i, op) in ops
            .iter()
            .filter(|op| op.class == class)
            .take(LAYER_KEYS)
            .enumerate()
        {
            let text = keys.text(class, op.key);
            let root = tracer.enter("inproc.read", i as u64);
            let query = tracer
                .time("pool.parse", i as u64, || pool::parse(&text))
                .map_err(err)?;
            tracer
                .time("pool.plan", i as u64, || pool::plan::plan(&view, &query))
                .map_err(err)?;
            exec.query(&view, &text, None).map_err(err)?;
            let result = tracer
                .time("pool.exec", i as u64, || exec.query(&view, &text, None))
                .map_err(err)?;
            std::hint::black_box(tracer.time("object.read", i as u64, || {
                keys.expected(&view, class, op.key)
            })?);
            let response = Response::Rows(WireRows::from(result));
            let mut encoder = FrameEncoder::new();
            tracer
                .time("server.frame_encode", i as u64, || {
                    encoder.push(TraceId::NONE, &response)
                })
                .map_err(|e| e.to_string())?;
            bytes.push(encoder.pending().len() as f64);
            let mut decoder = FrameDecoder::new();
            let decoded = tracer.time("server.frame_decode", i as u64, || {
                decoder.extend(encoder.pending());
                decoder.next_msg::<Response>()
            });
            if !matches!(decoded, Ok(Some((_, ref r))) if *r == response) {
                return Err(format!(
                    "{}: frame round trip changed the response",
                    class.name()
                ));
            }
            tracer.exit(root);
        }
        let sub = tracer.since(first);
        let p50 = |name: &str| percentile(&sub.durations_us(name), 0.5).unwrap_or(f64::NAN);
        out.push(ReadLayers {
            parse: p50("pool.parse"),
            plan: p50("pool.plan"),
            exec: p50("pool.exec"),
            object: p50("object.read"),
            encode: p50("server.frame_encode"),
            decode: p50("server.frame_decode"),
            bytes: percentile(&bytes, 0.5).unwrap_or(f64::NAN),
        });
    }
    Ok(out)
}

/// Replay `count` more units per writer in process; returns the p50 of
/// committed in-process units (µs) and the tracer holding every call span.
pub fn replay_units(
    db: &Database,
    writers: &mut [Writer],
    seed: u64,
    count: usize,
    dims: &[UnitDims],
    tracer: &mut Tracer,
) -> Result<f64, String> {
    let first = tracer.spans.len();
    let mut op = first as u64;
    for (w, d) in writers.iter_mut().zip(dims) {
        for plan in &ops::unit_plans(seed ^ 0x5245504C, w.client, count, *d) {
            units::local_unit(db, w, plan, tracer, op)?;
            op += 1;
        }
    }
    let sub: Vec<f64> = tracer.spans[first..]
        .iter()
        .filter(|s| s.name == "inproc.unit")
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    percentile(&sub, 0.5).ok_or("too few in-process units".into())
}

/// Committed units per writer in each block of the ICBN on/off comparison.
const ICBN_BLOCK: usize = 20;
/// Blocks per arm of the comparison.
const ICBN_BLOCKS: usize = 6;

/// `rules.icbn_us_per_unit`: p50 of in-process units with the ICBN rules
/// enabled minus p50 with them disabled (`RuleEngine::set_enabled`). The
/// arms alternate in blocks, on-off-off-on, so a cache warming up or a
/// host slowing down weighs on both alike, and the two blocks of each pair
/// replay one plan list. The store at `path` is reopened without fsync:
/// the rules do not change what a commit writes, and the disk's jitter
/// would swamp their cost. Returns the figure and the units per arm, or
/// `None` when the flora has no ICBN rules.
pub fn icbn_cost(
    path: &Path,
    spec: &FloraSpec,
    writers: &mut [Writer],
    seed: u64,
    dims: &[UnitDims],
) -> Result<Option<(f64, usize)>, String> {
    if !spec.icbn {
        return Ok(None);
    }
    let prom = flora::open(path, spec, false)?;
    let names: Vec<String> = prom
        .rules()
        .rules()
        .into_iter()
        .map(|rule| rule.name)
        .filter(|n| n.starts_with("icbn-"))
        .collect();
    let mut tracer = Tracer::new(Instant::now(), true);
    let mut arms: [Vec<f64>; 2] = Default::default();
    let mut op = 0;
    for block in 0..2 * ICBN_BLOCKS {
        let on = matches!(block % 4, 0 | 3);
        for name in &names {
            prom.rules().set_enabled(name, on);
        }
        let pair_seed = seed ^ 0x4943_424E ^ (block / 2) as u64;
        for (w, d) in writers.iter_mut().zip(dims) {
            for plan in &ops::unit_plans(pair_seed, w.client, ICBN_BLOCK, *d) {
                tracer.spans.clear();
                units::local_unit(prom.db(), w, plan, &mut tracer, op)?;
                op += 1;
                if !plan.whatif {
                    arms[usize::from(on)].push(tracer.spans[0].duration_ns() as f64 / 1e3);
                }
            }
        }
    }
    for name in &names {
        prom.rules().set_enabled(name, true);
    }
    let p50 = |v: &[f64]| percentile(v, 0.5).ok_or("too few units in the ICBN comparison");
    Ok(Some((p50(&arms[1])? - p50(&arms[0])?, arms[0].len())))
}

/// What the traced run hands to the layer report.
pub struct Traced<'a> {
    /// The store reopened after the run.
    pub prom: &'a Prometheus,
    pub keys: &'a Keys,
    pub read_ops: &'a [ReadOp],
    pub read_phase: &'a PhaseOut,
    pub unit_phase: &'a PhaseOut,
    pub seed: u64,
    pub dims: &'a [UnitDims],
    /// Log bytes at the end of the run.
    pub log_bytes: u64,
    /// Median reopen time.
    pub recovery_s: f64,
    pub catchup_mb_s: f64,
    /// Server counters at the end of the run.
    pub server: &'a MetricsSnapshot,
    /// Seconds in `random_flora`, `overlapping_revisions`, `derive_names`.
    pub taxonomy_s: [f64; 3],
}

/// Time every layer from outside, print the per-layer tables with their
/// `unattributed` residuals, and put every per-layer metric in `r`.
pub fn report(
    t: &Traced,
    writers: &mut [Writer],
    tracer: &mut Tracer,
    r: &mut Report,
) -> Result<(), String> {
    // Reads, layer by layer.
    let layers = read_layers(t.prom, t.keys, t.read_ops, tracer)?;
    let (hits, misses) = (t.read_phase.plan_hits, t.read_phase.plan_misses);
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    println!("\nper-layer read table (p50 us; parse and plan weighted by the plan-cache miss ratio {:.3})", 1.0 - hit_ratio);
    println!(
        "{:<16} {:>9} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9} {:>12}",
        "class", "wire", "encode", "decode", "parse", "plan", "pool", "object", "unattributed"
    );
    let mut overhead_us = Vec::new();
    for c in CLASSES {
        let l = &layers[c.index()];
        let n = c.name();
        // The reference pools both arms: client-side spans cost well
        // under a microsecond, and bench.trace_overhead_us reports it.
        let both = [
            t.read_phase.reads(c.index(), 0),
            t.read_phase.reads(c.index(), 1),
        ]
        .concat();
        let wire = percentile(&both, 0.5).ok_or(format!("too few {n} reads"))?;
        let unattributed =
            wire - l.encode - l.decode - (1.0 - hit_ratio) * (l.parse + l.plan) - l.exec;
        println!(
            "{n:<16} {wire:>9.1} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>9.1} {:>9.1} {unattributed:>12.1}",
            l.encode, l.decode, l.parse, l.plan, l.exec - l.object, l.object
        );
        for (metric, value, unit) in [
            ("server.overhead_us", wire - l.exec, "us"),
            ("server.frame_encode_us", l.encode, "us"),
            ("server.frame_decode_us", l.decode, "us"),
            ("server.response_bytes", l.bytes, "bytes"),
            ("pool.parse_us", l.parse, "us"),
            ("pool.plan_us", l.plan, "us"),
            ("pool.exec_us", l.exec, "us"),
            ("object.read_us", l.object, "us"),
            ("bench.unattributed_us", unattributed, "us"),
        ] {
            r.put(&format!("{metric}.{n}"), value, unit, LAYER_KEYS);
        }
        if let (Some(a), Some(b)) = (
            percentile(&t.read_phase.reads(c.index(), 1), 0.5),
            percentile(&t.read_phase.reads(c.index(), 0), 0.5),
        ) {
            overhead_us.push(a - b);
        }
    }
    r.put(
        "server.plan_cache_hit_ratio",
        hit_ratio,
        "ratio",
        (hits + misses) as usize,
    );

    // Units, layer by layer: replay the same unit shape in process.
    let first_span = tracer.spans.len();
    let inproc_p50 = replay_units(t.prom.db(), writers, t.seed, LAYER_UNITS, t.dims, tracer)?;
    let replay = tracer.since(first_span);
    let both = [t.unit_phase.units(0), t.unit_phase.units(1)].concat();
    // No wire units on `browse`: the server's unit overhead is then 0.
    let unit_overhead = percentile(&both, 0.5).map_or(0.0, |wire| wire - inproc_p50);
    println!("\nper-layer unit table (p50 us per unit)");
    let calls = [
        "create_object",
        "create_relationship",
        "add_edge",
        "delete",
        "set_attr",
        "commit_unit",
        "abort_unit",
    ];
    // Per-unit totals of each call kind, for the additive table.
    let mut per_unit: HashMap<&str, HashMap<u64, f64>> = HashMap::new();
    let committed: HashSet<u64> = replay
        .spans
        .iter()
        .filter(|s| s.name == "inproc.unit")
        .map(|s| s.op)
        .collect();
    for s in &replay.spans {
        if committed.contains(&s.op) {
            *per_unit.entry(s.name).or_default().entry(s.op).or_default() +=
                s.duration_ns() as f64 / 1e3;
        }
    }
    let mut attributed = 0.0;
    println!("{:<28} {:>10.1}", "in-process unit", inproc_p50);
    println!(
        "{:<28} {:>10.1}",
        "server (wire - in-process)", unit_overhead
    );
    for call in calls {
        let name = format!("object.{call}");
        let durations = replay.durations_us(&name);
        let per_call = percentile(&durations, 0.5).unwrap_or(0.0);
        r.put(&format!("{name}_us"), per_call, "us", durations.len());
        if let Some(totals) = per_unit.get(name.as_str()) {
            let v: Vec<f64> = totals.values().copied().collect();
            let p = percentile(&v, 0.5).unwrap_or(0.0);
            attributed += p;
            println!("{name:<28} {p:>10.1}");
        }
    }
    // What the in-process unit spent outside every object-layer call.
    let unit_unattributed = percentile(&replay.self_us("inproc.unit"), 0.5).unwrap_or(0.0);
    println!("{:<28} {:>10.1}", "sum of object-layer calls", attributed);
    println!("{:<28} {:>10.1}", "unattributed", unit_unattributed);
    r.put("server.unit_overhead_us", unit_overhead, "us", both.len());
    r.put(
        "bench.unattributed_us.unit",
        unit_unattributed,
        "us",
        LAYER_UNITS,
    );
    if let (Some(a), Some(b)) = (
        percentile(&t.unit_phase.units(1), 0.5),
        percentile(&t.unit_phase.units(0), 0.5),
    ) {
        overhead_us.push(a - b);
    }

    // Storage, entity cache and tracing counters over the unit phase.
    let d = &t.unit_phase.storage;
    // Per unit sent: what-if units write their prepare and abort too.
    let sent_units = [
        t.unit_phase.units(0),
        t.unit_phase.units(1),
        t.unit_phase.whatifs(0),
        t.unit_phase.whatifs(1),
    ]
    .concat()
    .len();
    let per = |x: u64| x as f64 / sent_units.max(1) as f64;
    let per_commit = |x: u64| x as f64 / d.commits.max(1) as f64;
    let cache_reads = d.cache_hits + d.cache_misses;
    let commits = d.commits as usize;
    let requests = t.server.requests_total().max(1);
    for (name, value, unit, n) in [
        (
            "object.entity_cache_hit_ratio",
            d.cache_hits as f64 / cache_reads.max(1) as f64,
            "ratio",
            cache_reads as usize,
        ),
        (
            "storage.log_bytes_per_unit",
            per(d.bytes_written),
            "bytes",
            sent_units,
        ),
        (
            "storage.log_appends_per_unit",
            per(d.log_appends),
            "count",
            sent_units,
        ),
        ("storage.syncs_per_unit", per(d.syncs), "count", sent_units),
        (
            "storage.nodes_cloned_per_commit",
            per_commit(d.image_nodes_cloned),
            "count",
            commits,
        ),
        (
            "storage.bytes_copied_per_commit",
            per_commit(d.image_bytes_copied),
            "bytes",
            commits,
        ),
        (
            "storage.units_2pc_share",
            per(d.units_2pc),
            "ratio",
            sent_units,
        ),
        (
            "storage.replay_mb_s",
            t.log_bytes as f64 / 1e6 / t.recovery_s,
            "MB/s",
            1,
        ),
        ("replica.catchup_mb_s", t.catchup_mb_s, "MB/s", 1),
        (
            "trace.events_per_request",
            t.server.trace_events_written as f64 / requests as f64,
            "count",
            requests as usize,
        ),
        ("trace.dropped", t.server.trace_dropped as f64, "count", 1),
        ("taxonomy.flora_s", t.taxonomy_s[0], "s", 1),
        ("taxonomy.revisions_s", t.taxonomy_s[1], "s", 1),
        ("taxonomy.derive_names_s", t.taxonomy_s[2], "s", 1),
    ] {
        r.put(name, value, unit, n);
    }
    let late: Vec<f64> = t
        .unit_phase
        .clients
        .iter()
        .flat_map(|c| c.late_us.iter().copied())
        .collect();
    r.put(
        "bench.generator_late_us",
        if late.is_empty() {
            0.0
        } else {
            percentile(&late, 0.99).unwrap_or(0.0)
        },
        "us",
        late.len(),
    );
    let trace_overhead = if overhead_us.is_empty() {
        0.0
    } else {
        median(&overhead_us)
    };
    r.put(
        "bench.trace_overhead_us",
        trace_overhead,
        "us",
        overhead_us.len(),
    );
    Ok(())
}
