//! Wire clients: closed-loop readers and writers, the open-loop paced
//! writer, and measured phases guarded by the fixed-volume check.

use crate::flora::{self, Keys};
use crate::ops::{ReadOp, UnitPlan};
use crate::spans::Tracer;
use crate::units::{self, Writer};
use prometheus_db::{Database, Reader, StatsSnapshot, Value};
use prometheus_server::{PrometheusClient, ServerHandle};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Wire span names per read class.
const WIRE_SPANS: [&str; 6] = [
    "wire.lookup",
    "wire.scan",
    "wire.closure",
    "wire.context_closure",
    "wire.containers",
    "wire.names",
];

/// Each read's query text and expected rows, computed before timing.
pub type Expected = HashMap<(usize, u32), (String, Vec<Vec<Value>>)>;

pub fn expect<R: Reader>(keys: &Keys, db: &R, ops: &[ReadOp]) -> Result<Expected, String> {
    let mut map = Expected::new();
    for op in ops {
        if let std::collections::hash_map::Entry::Vacant(e) = map.entry((op.class.index(), op.key))
        {
            e.insert((
                keys.text(op.class, op.key),
                keys.expected(db, op.class, op.key)?,
            ));
        }
    }
    Ok(map)
}

/// What one client observed. Latency samples are kept per arm: arm 0 ran
/// untraced, arm 1 traced (only in `--trace 1` runs, every other op).
pub struct ClientOut {
    pub reads: Vec<[Vec<f64>; 2]>,
    pub units: [Vec<f64>; 2],
    pub whatifs: [Vec<f64>; 2],
    pub late_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub wall_s: f64,
    pub tracer: Tracer,
}

impl ClientOut {
    fn new(epoch: Instant) -> ClientOut {
        ClientOut {
            reads: vec![Default::default(); 6],
            units: Default::default(),
            whatifs: Default::default(),
            late_us: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            wall_s: 0.0,
            tracer: Tracer::new(epoch, false),
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }
}

/// One client of a measured phase and its slice of an op list. `first`
/// is the slice's offset in the whole list: it numbers the ops in spans
/// and picks which ops a traced run traces.
pub enum Role<'a> {
    Reader {
        ops: &'a [ReadOp],
        first: usize,
    },
    Writer {
        writer: &'a mut Writer,
        plans: &'a [UnitPlan],
        first: usize,
        /// Open loop at this interval; `None` is closed loop.
        pace: Option<Duration>,
    },
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn read_loop(
    addr: SocketAddr,
    ops: &[ReadOp],
    first: usize,
    exp: &Expected,
    trace: bool,
    out: &mut ClientOut,
) {
    let mut client = match PrometheusClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.attempted += ops.len() as u64;
            out.failed += ops.len() as u64;
            out.errors.push(format!("connect: {e}"));
            return;
        }
    };
    let t0 = Instant::now();
    for (i, op) in ops.iter().enumerate().map(|(i, op)| (first + i, op)) {
        let arm = usize::from(trace && i.is_multiple_of(2));
        out.tracer.enabled = arm == 1;
        let (text, want) = &exp[&(op.class.index(), op.key)];
        out.attempted += 1;
        let span = out.tracer.enter(WIRE_SPANS[op.class.index()], i as u64);
        let t = Instant::now();
        let reply = client.query(text);
        let took = us(t.elapsed());
        out.tracer.exit(span);
        match reply {
            Ok(rows) if rows.rows == *want => out.reads[op.class.index()][arm].push(took),
            Ok(rows) => out.fail(format!(
                "{}: got {:?}, want {:?} for {text}",
                op.class.name(),
                rows.rows,
                want
            )),
            Err(e) => out.fail(format!("{}: {e}", op.class.name())),
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out.tracer.enabled = false;
    let _ = client.close();
}

fn write_loop(
    addr: SocketAddr,
    writer: &mut Writer,
    plans: &[UnitPlan],
    first: usize,
    pace: Option<Duration>,
    trace: bool,
    out: &mut ClientOut,
) {
    let mut client = match PrometheusClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.attempted += plans.len() as u64;
            out.failed += plans.len() as u64;
            out.errors.push(format!("connect: {e}"));
            return;
        }
    };
    let t0 = Instant::now();
    for (i, plan) in plans.iter().enumerate() {
        let op = first + i;
        let arm = usize::from(trace && op.is_multiple_of(2));
        out.tracer.enabled = arm == 1;
        // Open loop: time each unit from when it was due, so a stall also
        // counts against the units queued behind it.
        let start = match pace {
            Some(interval) => {
                let due = t0 + interval * i as u32;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                out.late_us
                    .push(us(Instant::now().saturating_duration_since(due)));
                due
            }
            None => Instant::now(),
        };
        out.attempted += 1;
        match units::wire_unit(&mut client, writer, plan, &mut out.tracer, op as u64) {
            Ok(()) if plan.whatif => out.whatifs[arm].push(us(start.elapsed())),
            Ok(()) => out.units[arm].push(us(start.elapsed())),
            Err(e) => out.fail(format!("unit {op}: {e}")),
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out.tracer.enabled = false;
    let _ = client.close();
}

/// Commit `plans` over one connection, untimed: fills each writer's ring
/// so the measured phase starts at its steady volume.
pub fn warm_up(
    addr: SocketAddr,
    writer: &mut Writer,
    plans: &[UnitPlan],
    epoch: Instant,
) -> Result<(), String> {
    let mut client = PrometheusClient::connect(addr).map_err(|e| e.to_string())?;
    let mut tracer = Tracer::new(epoch, false);
    for (i, plan) in plans.iter().enumerate() {
        units::wire_unit(&mut client, writer, plan, &mut tracer, i as u64)?;
    }
    client.close().map_err(|e| e.to_string())
}

/// The fixed-volume fingerprint of the server's committed state.
fn volume(db: &Database) -> Result<[usize; 4], String> {
    let view = db.read_view();
    flora::volume(&view, view.record_count())
}

/// What a measured phase observed, accumulated over its chunks.
pub struct PhaseOut {
    pub clients: Vec<ClientOut>,
    /// Storage counters over the phase.
    pub storage: StatsSnapshot,
    pub plan_hits: u64,
    pub plan_misses: u64,
    /// Seconds from the first client's start to the last one's end.
    pub wall_s: f64,
    pub volume_ok: bool,
}

/// Run every role on its own connection at once, checking the data
/// volume before and after.
pub fn run_phase(
    handle: &ServerHandle,
    db: &Database,
    roles: Vec<Role>,
    exp: &Expected,
    trace: bool,
    epoch: Instant,
) -> Result<PhaseOut, String> {
    let addr = handle.addr();
    let before = volume(db)?;
    let server0 = handle.metrics();
    let storage0 = db.store().stats_aggregate();
    let t0 = Instant::now();
    let clients = std::thread::scope(|s| {
        let threads: Vec<_> = roles
            .into_iter()
            .map(|role| {
                s.spawn(move || {
                    let mut out = ClientOut::new(epoch);
                    match role {
                        Role::Reader { ops, first } => {
                            read_loop(addr, ops, first, exp, trace, &mut out)
                        }
                        Role::Writer {
                            writer,
                            plans,
                            first,
                            pace,
                        } => write_loop(addr, writer, plans, first, pace, trace, &mut out),
                    }
                    out
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let after = volume(db)?;
    if before != after {
        eprintln!("volume changed during the phase: {before:?} -> {after:?}");
    }
    let server1 = handle.metrics();
    Ok(PhaseOut {
        clients,
        storage: db.store().stats_aggregate().since(&storage0),
        plan_hits: server1.plan_cache_hits - server0.plan_cache_hits,
        plan_misses: server1.plan_cache_misses - server0.plan_cache_misses,
        wall_s,
        volume_ok: before == after,
    })
}

/// Reads `ops` with `readers` closed-loop clients, each taking an equal
/// contiguous share. Expected answers come from the snapshot current when
/// the phase starts; no writer runs during it.
#[allow(clippy::too_many_arguments)]
pub fn read_phase(
    handle: &ServerHandle,
    db: &Database,
    keys: &Keys,
    ops: &[ReadOp],
    first: usize,
    readers: usize,
    trace: bool,
    epoch: Instant,
) -> Result<PhaseOut, String> {
    let exp = expect(keys, &db.read_view(), ops)?;
    let share = ops.len().div_ceil(readers);
    let roles = ops
        .chunks(share)
        .enumerate()
        .map(|(r, slice)| Role::Reader {
            ops: slice,
            first: first + r * share,
        })
        .collect();
    run_phase(handle, db, roles, &exp, trace, epoch)
}

impl PhaseOut {
    pub fn new() -> PhaseOut {
        PhaseOut {
            clients: Vec::new(),
            storage: StatsSnapshot::default(),
            plan_hits: 0,
            plan_misses: 0,
            wall_s: 0.0,
            volume_ok: true,
        }
    }

    /// Fold a later chunk of the same phase into this one.
    pub fn absorb(&mut self, chunk: PhaseOut) {
        let (a, b) = (&mut self.storage, chunk.storage);
        a.log_appends += b.log_appends;
        a.bytes_written += b.bytes_written;
        a.syncs += b.syncs;
        a.cache_hits += b.cache_hits;
        a.cache_misses += b.cache_misses;
        a.commits += b.commits;
        a.image_nodes_cloned += b.image_nodes_cloned;
        a.image_bytes_copied += b.image_bytes_copied;
        a.units_2pc += b.units_2pc;
        a.puts += b.puts;
        a.deletes += b.deletes;
        a.aborts += b.aborts;
        a.snapshot_swaps += b.snapshot_swaps;
        self.clients.extend(chunk.clients);
        self.plan_hits += chunk.plan_hits;
        self.plan_misses += chunk.plan_misses;
        self.wall_s += chunk.wall_s;
        self.volume_ok &= chunk.volume_ok;
    }

    pub fn reads(&self, class: usize, arm: usize) -> Vec<f64> {
        self.clients
            .iter()
            .flat_map(|c| c.reads[class][arm].iter().copied())
            .collect()
    }

    pub fn units(&self, arm: usize) -> Vec<f64> {
        self.clients
            .iter()
            .flat_map(|c| c.units[arm].iter().copied())
            .collect()
    }

    pub fn whatifs(&self, arm: usize) -> Vec<f64> {
        self.clients
            .iter()
            .flat_map(|c| c.whatifs[arm].iter().copied())
            .collect()
    }

    pub fn has_reads(&self) -> bool {
        (0..6).any(|c| !self.reads(c, 0).is_empty())
    }

    pub fn has_units(&self) -> bool {
        !self.units(0).is_empty()
    }
}
