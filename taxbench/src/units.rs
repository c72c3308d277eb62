//! Revision units: describe a new species from existing material, and
//! retire the taxon this writer described `window` units earlier, so live
//! volume stays fixed. The same op sequence runs over the wire and in
//! process, through [`Apply`].

use crate::ops::{UnitDims, UnitPlan};
use crate::spans::Tracer;
use prometheus_db::{Database, Oid, Reader, Value};
use prometheus_server::{MutationOp, PrometheusClient, UnitGuard};
use std::collections::{HashMap, VecDeque};

/// Something that applies one mutation inside an open unit.
pub trait Apply {
    fn apply(&mut self, op: MutationOp) -> Result<Option<Oid>, String>;

    fn create(&mut self, op: MutationOp) -> Result<Oid, String> {
        self.apply(op)?
            .ok_or_else(|| "creating op returned no oid".to_string())
    }
}

/// Over the wire, one round trip per op.
pub struct Wire<'a, 'c> {
    pub guard: &'a mut UnitGuard<'c>,
    pub tracer: &'a mut Tracer,
    pub op: u64,
}

impl Apply for Wire<'_, '_> {
    fn apply(&mut self, op: MutationOp) -> Result<Option<Oid>, String> {
        let span = self.tracer.enter("wire.unit_op", self.op);
        let out = self.guard.op(op).map_err(|e| e.to_string());
        self.tracer.exit(span);
        out
    }
}

/// In process, each call into the object layer in its own span.
pub struct Local<'a> {
    pub db: &'a Database,
    pub tracer: &'a mut Tracer,
    pub op: u64,
}

impl Apply for Local<'_> {
    fn apply(&mut self, op: MutationOp) -> Result<Option<Oid>, String> {
        type Call<'a> = Box<dyn FnOnce() -> prometheus_db::DbResult<Option<Oid>> + 'a>;
        let db = self.db;
        let (span, call): (&'static str, Call) = match op {
            MutationOp::CreateObject { class, attrs } => (
                "object.create_object",
                Box::new(move || db.create_object(&class, attrs).map(Some)),
            ),
            MutationOp::CreateRelationship {
                class,
                origin,
                destination,
                attrs,
            } => (
                "object.create_relationship",
                Box::new(move || {
                    db.create_relationship(&class, origin, destination, attrs)
                        .map(Some)
                }),
            ),
            MutationOp::AddEdgeToClassification {
                classification,
                rel,
            } => (
                "object.add_edge",
                Box::new(move || {
                    db.add_edge_to_classification(classification, rel)
                        .map(|_| None)
                }),
            ),
            MutationOp::DeleteObject { oid } => (
                "object.delete",
                Box::new(move || db.delete_object(oid).map(|_| None)),
            ),
            MutationOp::DeleteRelationship { oid } => (
                "object.delete",
                Box::new(move || db.delete_relationship(oid).map(|_| None)),
            ),
            MutationOp::SetAttr { oid, attr, value } => (
                "object.set_attr",
                Box::new(move || db.set_attr(oid, &attr, value).map(|_| None)),
            ),
            MutationOp::CreateClassification { .. } => {
                return Err("units create no classifications".into())
            }
        };
        self.tracer
            .time(span, self.op, call)
            .map_err(|e| format!("{span}: {e}"))
    }
}

/// A taxon a unit described.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Described {
    pub nt: Oid,
    pub ct: Oid,
    /// The CT's `working_name`.
    pub name: String,
}

/// What a unit changed, applied to the writer's model only on commit.
pub struct Pending {
    described: Described,
    /// (specimen index, new parent edge, new parent CT).
    moves: Vec<(usize, Oid, Oid)>,
    retired: bool,
}

/// One writer's partition of the flora and its model of the parts it
/// owns: each specimen's parent edge in the base classification, and the
/// ring of taxa it described.
pub struct Writer {
    pub client: usize,
    cls: Oid,
    genera: Vec<Oid>,
    pub species: Vec<Oid>,
    specimens: Vec<Oid>,
    edge: Vec<Oid>,
    parent: Vec<Oid>,
    /// Specimen indices under each described (ring) CT.
    children: HashMap<Oid, Vec<usize>>,
    ring: VecDeque<Described>,
    window: usize,
    serial: u64,
    /// Every committed description, in order.
    pub acked: Vec<Described>,
    /// Working names of every what-if description.
    pub whatifs: Vec<String>,
    pub retired: usize,
}

impl Writer {
    /// A writer over `specimens`, reading their current parent edges in
    /// the base classification `cls` from `db`.
    pub fn new<R: Reader>(
        db: &R,
        client: usize,
        cls: Oid,
        genera: Vec<Oid>,
        species: Vec<Oid>,
        specimens: Vec<Oid>,
        window: usize,
    ) -> Result<Writer, String> {
        let mut edge = Vec::with_capacity(specimens.len());
        let mut parent = Vec::with_capacity(specimens.len());
        for &s in &specimens {
            let edges = db
                .classification_parent_edges(cls, s)
                .map_err(|e| e.to_string())?;
            let e = edges
                .first()
                .ok_or_else(|| format!("specimen {s} has no parent"))?;
            edge.push(e.oid);
            parent.push(e.origin);
        }
        Ok(Writer {
            client,
            cls,
            genera,
            species,
            specimens,
            edge,
            parent,
            children: HashMap::new(),
            ring: VecDeque::new(),
            window,
            serial: 0,
            acked: Vec::new(),
            whatifs: Vec::new(),
            retired: 0,
        })
    }

    /// Sizes of this writer's partition.
    pub fn dims(&self) -> UnitDims {
        UnitDims {
            genera: self.genera.len(),
            species: self.species.len(),
            specimens: self.specimens.len(),
        }
    }

    /// Whether the next committed unit retires a taxon.
    pub fn full(&self) -> bool {
        self.ring.len() >= self.window
    }

    /// Taxa described and not yet retired.
    pub fn live(&self) -> impl Iterator<Item = &Described> {
        self.ring.iter()
    }

    /// Issue one unit's ops through `a` (the caller commits or aborts).
    pub fn run(&mut self, plan: &UnitPlan, a: &mut impl Apply) -> Result<Pending, String> {
        self.serial += 1;
        let (c, s) = (self.client, self.serial);
        let name = format!("Novus-{c}-{s}");
        let nt = a.create(MutationOp::CreateObject {
            class: "NT".into(),
            attrs: vec![
                ("name".into(), Value::Str(format!("novus{c}x{s}"))),
                ("rank".into(), Value::from("Species")),
                ("year".into(), Value::Int(2000)),
                ("author".into(), Value::from("Bench.")),
            ],
        })?;
        let ct = a.create(MutationOp::CreateObject {
            class: "CT".into(),
            attrs: vec![
                ("working_name".into(), Value::Str(name.clone())),
                ("rank".into(), Value::from("Species")),
            ],
        })?;
        self.link(a, self.genera[plan.genus as usize], ct)?;
        let mut moves = Vec::new();
        for &i in &plan.specimens {
            let i = i as usize;
            a.apply(MutationOp::DeleteRelationship { oid: self.edge[i] })?;
            moves.push((i, self.link(a, ct, self.specimens[i])?, ct));
        }
        a.create(MutationOp::CreateRelationship {
            class: "HasType".into(),
            origin: nt,
            destination: self.specimens[plan.specimens[0] as usize],
            attrs: vec![("kind".into(), Value::from("holotype"))],
        })?;
        a.apply(MutationOp::SetAttr {
            oid: self.species[plan.attr_species as usize],
            attr: "author".into(),
            value: Value::Str(format!("rev{c}x{s}")),
        })?;
        let retired = self.full();
        if let Some(old) = self.ring.front().filter(|_| retired).cloned() {
            a.apply(MutationOp::DeleteObject { oid: old.nt })?;
            a.apply(MutationOp::DeleteObject { oid: old.ct })?;
            let orphans: Vec<usize> = self.children[&old.ct]
                .iter()
                .copied()
                .filter(|i| !plan.specimens.contains(&(*i as u32)))
                .collect();
            for (j, i) in orphans.into_iter().enumerate() {
                let home = self.species[plan.rehome[j] as usize];
                moves.push((i, self.link(a, home, self.specimens[i])?, home));
            }
        }
        Ok(Pending {
            described: Described { nt, ct, name },
            moves,
            retired,
        })
    }

    /// Circumscribe `child` under `parent` in the base classification.
    fn link(&self, a: &mut impl Apply, parent: Oid, child: Oid) -> Result<Oid, String> {
        let rel = a.create(MutationOp::CreateRelationship {
            class: "Circumscribes".into(),
            origin: parent,
            destination: child,
            attrs: vec![],
        })?;
        a.apply(MutationOp::AddEdgeToClassification {
            classification: self.cls,
            rel,
        })?;
        Ok(rel)
    }

    /// The unit committed: fold its changes into the model.
    pub fn settle(&mut self, p: Pending) {
        if p.retired {
            if let Some(old) = self.ring.pop_front() {
                self.children.remove(&old.ct);
                self.retired += 1;
            }
        }
        self.children.insert(p.described.ct, Vec::new());
        for (i, edge, parent) in p.moves {
            if let Some(kids) = self.children.get_mut(&self.parent[i]) {
                kids.retain(|&k| k != i);
            }
            self.edge[i] = edge;
            self.parent[i] = parent;
            if let Some(kids) = self.children.get_mut(&parent) {
                kids.push(i);
            }
        }
        self.acked.push(p.described.clone());
        self.ring.push_back(p.described);
    }

    /// The unit was aborted: only remember what must stay invisible.
    pub fn forget(&mut self, p: Pending) {
        self.whatifs.push(p.described.name);
    }
}

/// Run one unit over the wire; returns whether it committed.
pub fn wire_unit(
    client: &mut PrometheusClient,
    w: &mut Writer,
    plan: &UnitPlan,
    tracer: &mut Tracer,
    op: u64,
) -> Result<(), String> {
    let root = tracer.enter(
        if plan.whatif {
            "wire.whatif"
        } else {
            "wire.unit"
        },
        op,
    );
    let mut guard = client.begin_unit().map_err(|e| e.to_string())?;
    let pending = w.run(
        plan,
        &mut Wire {
            guard: &mut guard,
            tracer,
            op,
        },
    );
    let out = match pending {
        Ok(p) if plan.whatif => {
            let span = tracer.enter("wire.abort", op);
            let r = guard.abort().map_err(|e| e.to_string());
            tracer.exit(span);
            r.map(|_| w.forget(p))
        }
        Ok(p) => {
            let span = tracer.enter("wire.commit", op);
            let r = guard.commit().map_err(|e| e.to_string());
            tracer.exit(span);
            r.map(|_| w.settle(p))
        }
        Err(e) => Err(e),
    };
    tracer.exit(root);
    out
}

/// Run one unit in process against `db`, each object-layer call timed.
pub fn local_unit(
    db: &Database,
    w: &mut Writer,
    plan: &UnitPlan,
    tracer: &mut Tracer,
    op: u64,
) -> Result<(), String> {
    let root = tracer.enter(
        if plan.whatif {
            "inproc.whatif"
        } else {
            "inproc.unit"
        },
        op,
    );
    let token = db.begin_unit();
    let out = match w.run(plan, &mut Local { db, tracer, op }) {
        Ok(p) if plan.whatif => {
            tracer.time("object.abort_unit", op, || db.abort_unit(token));
            w.forget(p);
            Ok(())
        }
        Ok(p) => tracer
            .time("object.commit_unit", op, || db.commit_unit(token))
            .map(|_| w.settle(p))
            .map_err(|e| format!("commit: {e}")),
        Err(e) => {
            db.abort_unit(token);
            Err(e)
        }
    };
    tracer.exit(root);
    out
}

/// After a reopen: every acknowledged description is present unless a
/// later acknowledged unit retired it, and no what-if description is
/// visible. Returns the number of violations.
pub fn check_durable<R: Reader>(db: &R, w: &Writer) -> Result<usize, String> {
    let find = |name: &str| {
        db.find_by_attr("CT", "working_name", &Value::from(name))
            .map_err(|e| e.to_string())
    };
    let live: Vec<&Described> = w.live().collect();
    let mut bad = 0;
    for d in &w.acked {
        let want = live.contains(&d);
        let found = find(&d.name)?;
        let nt_present = db.exists(d.nt);
        if want != (found == vec![d.ct]) || want != nt_present || (!want && !found.is_empty()) {
            bad += 1;
        }
    }
    for name in &w.whatifs {
        if !find(name)?.is_empty() {
            bad += 1;
        }
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flora::{self, FloraSpec};
    use crate::ops::unit_plans;
    use prometheus_db::taxonomy::dataset::FloraParams;
    use std::time::Instant;

    #[test]
    fn churn_keeps_volume_fixed_and_recovers_exactly() {
        let dir = std::env::temp_dir().join(format!("taxbench-churn-{}", std::process::id()));
        let spec = FloraSpec {
            params: FloraParams {
                families: 2,
                genera_per_family: 3,
                species_per_genus: 4,
                specimens_per_species: 3,
                type_percent: 100,
            },
            revisions: 1,
            derive: false,
            icbn: true,
            shards: 2,
        };
        let (prom, built) = flora::build(&spec, &dir, 5).unwrap();
        let db = prom.db();
        let volume = || {
            let v = db.read_view();
            flora::volume(&v, v.record_count()).unwrap()
        };
        let mut w = Writer::new(
            &db.read_view(),
            0,
            built.cls,
            built.genera.clone(),
            built.species.clone(),
            built.specimens.clone(),
            4,
        )
        .unwrap();
        let dims = w.dims();
        let mut tracer = Tracer::new(Instant::now(), false);
        let mut warm = unit_plans(5, 0, 4, dims);
        warm.iter_mut().for_each(|p| p.whatif = false);
        for (i, p) in warm.iter().enumerate() {
            local_unit(db, &mut w, p, &mut tracer, i as u64).unwrap();
        }
        assert!(w.full());
        let steady = volume();
        for (i, p) in unit_plans(5, 0, 60, dims).iter().enumerate() {
            local_unit(db, &mut w, p, &mut tracer, i as u64).unwrap();
            assert_eq!(volume(), steady, "volume moved at unit {i}");
        }
        assert_eq!(w.acked.len(), 4 + 54);
        assert_eq!(w.whatifs.len(), 6);
        assert_eq!(w.retired, 54);
        drop(prom);
        let reopened = flora::open(&built.path, &spec, true).unwrap();
        assert_eq!(check_durable(&reopened.read_view(), &w).unwrap(), 0);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
