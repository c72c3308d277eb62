//! The repository benchmark: `browse`, `revise` and `survey` workloads
//! against a wire-served flora, with outside-in per-layer timing.
//!
//! ```text
//! cargo run --release --offline --manifest-path taxbench/Cargo.toml -- \
//!     --workload browse --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! See README.md in this directory for every workload and metric.

mod clients;
mod flora;
mod layers;
mod ops;
mod report;
mod rng;
mod spans;
mod stats;
mod units;

use clients::{expect, read_phase, run_phase, warm_up, Expected, PhaseOut, Role};
use flora::{Built, FloraSpec, Keys};
use ops::{KeyDist, UnitDims, UnitPlan, CLASSES};
use prometheus_db::taxonomy::dataset::FloraParams;
use prometheus_db::{Database, Oid, ReadView};
use prometheus_server::{serve, ServerConfig, ServerHandle};
use report::{log_bytes, peak_rss_mb, Report};
use spans::Tracer;
use stats::median;
use std::sync::Arc;
use std::time::{Duration, Instant};
use units::Writer;

/// Taxa each writer keeps described before retiring the oldest.
const WINDOW: usize = 8;
/// `browse` reads per second of `--seconds`, both clients together.
const BROWSE_READS_PER_S: usize = 280;
/// `revise` units per second of `--seconds`, both writers together.
const REVISE_UNITS_PER_S: usize = 150;
/// `survey` reader ops per second of `--seconds`.
const SURVEY_READS_PER_S: usize = 150;
/// `survey` writer rate (units/s), open loop.
const SURVEY_UNIT_RATE: u64 = 75;
/// Rounds each measured phase runs in. In `revise` the main phase and the
/// read probe alternate round by round, so both sample the machine over
/// the whole run. Each timing is the median over windows of
/// rounds (`stats::windowed`), and throughput the median over rounds.
const ROUNDS: usize = 10;
/// The end-to-end metrics in the result line of a `--trace 0` run, each
/// with a bound in `BENCHMARK.json`. The others are printed with `(no
/// bound)`: on the machine this was built on, their spread over ten runs
/// of some workload exceeded the largest bound allowed (see README.md,
/// "Bounded and unbounded metrics").
const BOUNDED: [&str; 4] = [
    "setup_s",
    "peak_rss_mb",
    "log_mb_end",
    "context_closure_p50_us",
];
/// Reads per class in `revise`'s read probe.
const REVISE_PROBE_READS: [usize; 6] = [680, 20, 240, 20, 20, 20];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Browse,
    Revise,
    Survey,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = match get("--workload")? {
        "browse" => Workload::Browse,
        "revise" => Workload::Revise,
        "survey" => Workload::Survey,
        other => {
            return Err(format!(
                "unknown workload {other:?} (browse, revise, survey)"
            ))
        }
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace: match num("--trace")? {
            0 => false,
            1 => true,
            _ => return Err("--trace is 0 or 1".into()),
        },
    })
}

/// The flora and set-up repeats of a workload.
fn flora_spec(w: Workload) -> (FloraSpec, usize) {
    let browse = FloraSpec {
        params: FloraParams {
            families: 8,
            genera_per_family: 10,
            species_per_genus: 10,
            specimens_per_species: 3,
            type_percent: 100,
        },
        revisions: 3,
        derive: true,
        icbn: false,
        shards: 1,
    };
    match w {
        Workload::Browse | Workload::Survey => (browse, 3),
        // One set-up is 9 s of steady single-threaded work; the median over
        // runs replaces repeats within a run.
        Workload::Revise => (
            FloraSpec {
                params: FloraParams {
                    families: 100,
                    genera_per_family: 10,
                    species_per_genus: 10,
                    specimens_per_species: 10,
                    type_percent: 100,
                },
                revisions: 0,
                derive: false,
                icbn: true,
                shards: 2,
            },
            1,
        ),
    }
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

/// The writers of a workload, each over its own partition of the flora.
fn writers_of(
    w: Workload,
    b: &Built,
    p: &FloraParams,
    view: &ReadView,
) -> Result<Vec<Writer>, String> {
    let new = |c, genera: &[Oid], species: &[Oid], specimens: Vec<Oid>| {
        Writer::new(
            view,
            c,
            b.cls,
            genera.to_vec(),
            species.to_vec(),
            specimens,
            WINDOW,
        )
    };
    match w {
        // Two writers over all genera and species; specimens split by parity.
        Workload::Revise => (0..2)
            .map(|c| {
                new(
                    c,
                    &b.genera,
                    &b.species,
                    b.specimens.iter().copied().skip(c).step_by(2).collect(),
                )
            })
            .collect(),
        // One writer owning family 0. `survey`'s reader leaves family 0 to
        // it, so every read's expected answer holds while it writes. On
        // `browse` it only warms up and feeds the traced in-process replay.
        Workload::Browse | Workload::Survey => {
            let g = p.genera_per_family;
            let s = g * p.species_per_genus;
            let k = s * p.specimens_per_species;
            Ok(vec![new(
                0,
                &b.genera[..g],
                &b.species[..s],
                b.specimens[..k].to_vec(),
            )?])
        }
    }
}

/// Slice `k` of `ROUNDS` near-equal slices of `items`, with its offset.
fn chunk<T>(items: &[T], k: usize) -> (usize, &[T]) {
    let (from, to) = (items.len() * k / ROUNDS, items.len() * (k + 1) / ROUNDS);
    (from, &items[from..to])
}

/// Untraced latency samples of every round of a run, kept apart so the
/// report can take medians over windows of rounds.
struct Rounds {
    reads: [Vec<Vec<f64>>; 6],
    units: Vec<Vec<f64>>,
    whatifs: Vec<Vec<f64>>,
    /// Completed ops per second of each main-phase round.
    rate: Vec<f64>,
    done: usize,
}

impl Rounds {
    fn new() -> Rounds {
        Rounds {
            reads: Default::default(),
            units: Vec::new(),
            whatifs: Vec::new(),
            rate: Vec::new(),
            done: 0,
        }
    }

    fn add(&mut self, p: &PhaseOut) {
        for (c, rounds) in self.reads.iter_mut().enumerate() {
            rounds.push(p.reads(c, 0));
        }
        self.units.push(p.units(0));
        self.whatifs.push(p.whatifs(0));
    }

    /// Record `done` ops completed in `wall_s` seconds by a main round.
    fn rate(&mut self, done: usize, wall_s: f64) {
        self.rate.push(done as f64 / wall_s);
        self.done += done;
    }

    /// Every read class pooled, round by round.
    fn pooled_reads(&self) -> Vec<Vec<f64>> {
        (0..self.units.len())
            .map(|k| {
                self.reads
                    .iter()
                    .flat_map(|c| c[k].iter().copied())
                    .collect()
            })
            .collect()
    }
}

fn reads_in(p: &PhaseOut) -> usize {
    (0..6)
        .map(|c| p.reads(c, 0).len() + p.reads(c, 1).len())
        .sum()
}

fn print_plans(client: usize, plans: &[UnitPlan]) {
    println!(
        "writer {client}: {} units, fingerprint {:016x}",
        plans.len(),
        ops::fingerprint(&ops::encode_units(plans))
    );
}

struct Outcome {
    report: Report,
    attempted: u64,
    failed: u64,
    correct: bool,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let w = args.workload;
    let (spec, repeats) = flora_spec(w);
    let work = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".taxbench_run");
    std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
    let tag = format!(
        "{}-{}-{}",
        format!("{w:?}").to_lowercase(),
        args.seed,
        std::process::id()
    );

    // Set-up: flora build plus server boot, several times; the last stays.
    let mut setup_s = Vec::new();
    let mut server: Option<(ServerHandle, Arc<Database>, Built)> = None;
    for i in 0..repeats {
        if let Some((handle, db, built)) = server.take() {
            handle.stop();
            drop(db);
            let _ = std::fs::remove_dir_all(built.path.parent().expect("store dir"));
        }
        let t = Instant::now();
        let (prom, built) = flora::build(&spec, &work.join(format!("{tag}-{i}")), args.seed)?;
        let db = Arc::clone(prom.db());
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            shards: spec.shards,
            ..ServerConfig::default()
        };
        let handle = serve(prom, config).map_err(|e| e.to_string())?;
        setup_s.push(t.elapsed().as_secs_f64());
        server = Some((handle, db, built));
    }
    let (handle, db, built) = server.expect("at least one set-up");
    let addr = handle.addr();
    let view0 = db.read_view();

    // Read keys: browse and revise use the whole flora; survey's reader
    // leaves family 0 to its writer.
    let mut keys = Keys::new(
        &spec.params,
        usize::from(w == Workload::Survey),
        &built.contexts,
    );

    // Writers, warmed to their steady volume.
    let mut writers = writers_of(w, &built, &spec.params, &view0)?;
    let dims: Vec<UnitDims> = writers.iter().map(Writer::dims).collect();
    for (writer, d) in writers.iter_mut().zip(&dims) {
        let mut warm = ops::unit_plans(args.seed ^ 0x5741524D, writer.client, WINDOW, *d);
        warm.iter_mut().for_each(|p| p.whatif = false);
        warm_up(addr, writer, &warm, epoch)?;
    }
    if w == Workload::Survey {
        keys.drop_closures_reaching(&view0, &writers[0].species)?;
    }
    drop(view0);

    let secs = args.seconds as usize;
    let (mut main, mut probe) = (PhaseOut::new(), PhaseOut::new());
    let mut rounds = Rounds::new();
    let read_ops = match w {
        Workload::Browse => {
            let per_class = (BROWSE_READS_PER_S * secs).div_ceil(6);
            let ops = ops::read_ops(args.seed, &[per_class; 6], &keys.counts(), KeyDist::Zipf);
            for k in 0..ROUNDS {
                let (first, slice) = chunk(&ops, k);
                let round = read_phase(&handle, &db, &keys, slice, first, 2, args.trace, epoch)?;
                rounds.add(&round);
                rounds.rate(reads_in(&round), round.wall_s);
                main.absorb(round);
            }
            ops
        }
        Workload::Revise => {
            let per_writer = (REVISE_UNITS_PER_S * secs).div_ceil(2);
            let plans: Vec<Vec<UnitPlan>> = writers
                .iter()
                .zip(&dims)
                .map(|(writer, d)| ops::unit_plans(args.seed, writer.client, per_writer, *d))
                .collect();
            for (writer, p) in writers.iter().zip(&plans) {
                print_plans(writer.client, p);
            }
            let ops = ops::read_ops(
                args.seed,
                &REVISE_PROBE_READS,
                &keys.counts(),
                KeyDist::Uniform,
            );
            for k in 0..ROUNDS {
                let roles = writers
                    .iter_mut()
                    .zip(&plans)
                    .map(|(writer, p)| {
                        let (first, plans) = chunk(p, k);
                        Role::Writer {
                            writer,
                            plans,
                            first,
                            pace: None,
                        }
                    })
                    .collect();
                let round = run_phase(&handle, &db, roles, &Expected::new(), args.trace, epoch)?;
                rounds.add(&round);
                let sent: usize = round
                    .clients
                    .iter()
                    .map(|c| {
                        c.units
                            .iter()
                            .chain(&c.whatifs)
                            .map(Vec::len)
                            .sum::<usize>()
                    })
                    .sum();
                rounds.rate(sent, round.wall_s);
                main.absorb(round);
                let (first, slice) = chunk(&ops, k);
                let round = read_phase(&handle, &db, &keys, slice, first, 1, args.trace, epoch)?;
                rounds.add(&round);
                probe.absorb(round);
            }
            ops
        }
        Workload::Survey => {
            let per_class = (SURVEY_READS_PER_S * secs).div_ceil(6);
            let ops = ops::read_ops(args.seed, &[per_class; 6], &keys.counts(), KeyDist::Uniform);
            let exp = expect(&keys, &db.read_view(), &ops)?;
            let plans = ops::unit_plans(args.seed, 0, SURVEY_UNIT_RATE as usize * secs, dims[0]);
            print_plans(0, &plans);
            let pace = Some(Duration::from_micros(1_000_000 / SURVEY_UNIT_RATE));
            // Each round starts the reader and the paced writer together
            // on their slices, which take about equally long.
            for k in 0..ROUNDS {
                let (first, slice) = chunk(&ops, k);
                let (first_unit, unit_slice) = chunk(&plans, k);
                let roles = vec![
                    Role::Reader { ops: slice, first },
                    Role::Writer {
                        writer: &mut writers[0],
                        plans: unit_slice,
                        first: first_unit,
                        pace,
                    },
                ];
                let round = run_phase(&handle, &db, roles, &exp, args.trace, epoch)?;
                rounds.add(&round);
                rounds.rate(reads_in(&round), round.clients[0].wall_s);
                main.absorb(round);
            }
            ops
        }
    };
    println!(
        "reads: {} ops, fingerprint {:016x}",
        read_ops.len(),
        ops::fingerprint(&ops::encode_reads(&read_ops))
    );
    let mut attempted = 0;
    let mut failed = 0;
    let mut errors = Vec::new();
    let mut tracer = Tracer::new(epoch, true);
    for c in main.clients.iter_mut().chain(probe.clients.iter_mut()) {
        attempted += c.attempted;
        failed += c.failed;
        errors.append(&mut c.errors);
        tracer.absorb(std::mem::replace(&mut c.tracer, Tracer::new(epoch, false)));
    }
    let volume_ok = main.volume_ok && probe.volume_ok;
    let reading = if main.has_reads() { &main } else { &probe };
    let writing = if main.has_units() { &main } else { &probe };

    // Follower catch-up (traced run): replays the same redo records.
    let mut catchup_mb_s = 0.0;
    if args.trace {
        let mut config = prometheus_replica::FollowerConfig::new(
            addr.to_string(),
            work.join(format!("{tag}-follower")).join("store.db"),
        );
        config.shards = spec.shards;
        config.name = "taxbench".into();
        std::fs::create_dir_all(work.join(format!("{tag}-follower"))).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let follower = prometheus_replica::Follower::start(config).map_err(|e| e.to_string())?;
        let caught_up = follower.wait_caught_up(Duration::from_secs(120));
        let took = t.elapsed().as_secs_f64();
        follower.stop();
        if !caught_up {
            return Err("follower did not catch up within 120 s".into());
        }
        catchup_mb_s = log_bytes(&built.path) as f64 / 1e6 / took;
    }
    let run_metrics = handle.metrics();
    handle.stop();
    drop(db);

    // Recovery: reopen the store (full log replay), several times.
    let log_end = log_bytes(&built.path);
    // At least three reopens and at least 4 s of them: a single reopen
    // mostly measures how busy the machine was at that instant.
    let mut recovery_s = Vec::new();
    let mut reopened = None;
    while recovery_s.len() < 3 || recovery_s.iter().sum::<f64>() < 4.0 {
        drop(reopened.take());
        let t = Instant::now();
        reopened = Some(flora::open(&built.path, &spec, true)?);
        recovery_s.push(t.elapsed().as_secs_f64());
    }
    let prom = reopened.expect("reopened store");

    // Output checks on the recovered store.
    let view = prom.read_view();
    let mut durable_bad = 0;
    for writer in &writers {
        durable_bad += units::check_durable(&view, writer)?;
    }
    drop(view);
    if durable_bad > 0 {
        errors.push(format!(
            "{durable_bad} acknowledged or what-if units recovered wrongly"
        ));
    }
    failed += durable_bad as u64;

    let mut r = Report {
        bounded: (!args.trace).then_some(&BOUNDED[..]),
        ..Report::default()
    };
    if !args.trace {
        drop(prom);
        r.put("setup_s", median(&setup_s), "s", setup_s.len());
        r.put("recovery_s", median(&recovery_s), "s", recovery_s.len());
        r.put("peak_rss_mb", peak_rss_mb(), "MB", 1);
        r.put("log_mb_end", log_end as f64 / 1e6, "MB", 1);
        r.put(
            "throughput_ops_s",
            median(&rounds.rate),
            "ops/s",
            rounds.done,
        );
        for c in CLASSES {
            r.pct(
                &format!("{}_p50_us", c.name()),
                &rounds.reads[c.index()],
                0.5,
            );
        }
        r.pct("read_p99_us", &rounds.pooled_reads(), 0.99);
        if w != Workload::Browse {
            r.pct("unit_p50_us", &rounds.units, 0.5);
            r.pct("unit_p99_us", &rounds.units, 0.99);
            r.pct("whatif_p50_us", &rounds.whatifs, 0.5);
        }
    } else {
        let traced = layers::Traced {
            prom: &prom,
            keys: &keys,
            read_ops: &read_ops,
            read_phase: reading,
            unit_phase: writing,
            seed: args.seed,
            dims: &dims,
            log_bytes: log_end,
            recovery_s: median(&recovery_s),
            catchup_mb_s,
            server: &run_metrics,
            taxonomy_s: built.layer_s,
        };
        layers::report(&traced, &mut writers, &mut tracer, &mut r)?;
        drop(prom);
        match layers::icbn_cost(&built.path, &spec, &mut writers, args.seed, &dims)? {
            Some((us, n)) => {
                println!("\nrules.icbn (on - off, p50 per unit, no fsync) {us:.1} us");
                r.put("rules.icbn_us_per_unit", us, "us", n);
            }
            None => r.put("rules.icbn_us_per_unit", 0.0, "us", 0),
        }
        let spans_path = work.join(format!("spans-{tag}.tsv"));
        tracer.write_tsv(&spans_path).map_err(|e| e.to_string())?;
        println!(
            "\n{} spans written to {}",
            tracer.spans.len(),
            spans_path.display()
        );
    }
    let _ = std::fs::remove_dir_all(built.path.parent().expect("store dir"));
    let _ = std::fs::remove_dir_all(work.join(format!("{tag}-follower")));
    if !volume_ok {
        errors.push("data volume changed during a measured phase".into());
    }
    for e in &errors {
        eprintln!("error: {e}");
    }
    let correct = failed == 0 && volume_ok && r.refused.is_empty();
    Ok(Outcome {
        report: r,
        attempted,
        failed,
        correct,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("taxbench: {e}");
            eprintln!(
                "usage: taxbench --workload browse|revise|survey --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(o) => {
            println!();
            for line in &o.report.lines {
                println!("{line}");
            }
            println!("{}", o.report.json(o.correct, o.attempted.max(1), o.failed));
            if !o.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("taxbench: {e}");
            std::process::exit(1);
        }
    }
}
