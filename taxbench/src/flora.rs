//! The flora each workload runs on, its read keys and query texts, and
//! each read's expected answer computed without POOL.

use crate::ops::Class;
use prometheus_db::taxonomy::dataset::{overlapping_revisions, random_flora, FloraParams};
use prometheus_db::taxonomy::derivation::derive_names;
use prometheus_db::traversal::{traverse, Direction, TraversalSpec};
use prometheus_db::{Oid, Prometheus, Reader, StoreOptions, Value};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What to build: the flora generator's parameters plus the extras.
#[derive(Debug, Clone)]
pub struct FloraSpec {
    pub params: FloraParams,
    /// `overlapping_revisions(revisions, 20%)` of the base classification.
    pub revisions: usize,
    /// Run `derive_names` on the base classification.
    pub derive: bool,
    /// Install the ICBN rules (`taxonomy_with_icbn`).
    pub icbn: bool,
    pub shards: usize,
}

/// Handles into a built flora.
pub struct Built {
    pub path: PathBuf,
    pub cls: Oid,
    /// Classifications the `context_closure` reads run in: the revisions,
    /// or the base classification when there are none.
    pub contexts: Vec<String>,
    pub genera: Vec<Oid>,
    pub species: Vec<Oid>,
    pub specimens: Vec<Oid>,
    /// Seconds in `random_flora`, `overlapping_revisions`, `derive_names`.
    pub layer_s: [f64; 3],
}

/// Reopen a store (and the ICBN rules, which live in memory only) with the
/// durable default options, or without fsync when `sync` is false.
pub fn open(path: &Path, spec: &FloraSpec, sync: bool) -> Result<Prometheus, String> {
    let options = StoreOptions {
        sync_on_commit: sync,
    };
    let prom = Prometheus::open_sharded(path, options, spec.shards).map_err(|e| e.to_string())?;
    if spec.icbn {
        prom.taxonomy_with_icbn().map_err(|e| e.to_string())?;
    } else {
        prom.taxonomy().map_err(|e| e.to_string())?;
    }
    Ok(prom)
}

/// Bulk-load the flora into `dir` without fsync, then reopen it for the
/// measured phase with `StoreOptions::default()` (fsync on every commit).
pub fn build(spec: &FloraSpec, dir: &Path, seed: u64) -> Result<(Prometheus, Built), String> {
    let err = |e: prometheus_db::DbError| e.to_string();
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join("store.db");
    let prom = Prometheus::open_sharded(
        &path,
        StoreOptions {
            sync_on_commit: false,
        },
        spec.shards,
    )
    .map_err(err)?;
    let tax = if spec.icbn {
        prom.taxonomy_with_icbn()
    } else {
        prom.taxonomy()
    }
    .map_err(err)?;
    let mut layer_s = [0.0; 3];
    let t = Instant::now();
    let flora = random_flora(&tax, &spec.params, seed).map_err(err)?;
    layer_s[0] = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let revisions = overlapping_revisions(&tax, &flora, spec.revisions, 20, seed).map_err(err)?;
    layer_s[1] = if spec.revisions > 0 {
        t.elapsed().as_secs_f64()
    } else {
        0.0
    };
    if spec.derive {
        let t = Instant::now();
        derive_names(&tax, &flora.classification, "Bench.", 2000).map_err(err)?;
        layer_s[2] = t.elapsed().as_secs_f64();
    }
    let cls = flora.classification.oid();
    let contexts = match revisions.len() {
        0 => vec![format!("flora-{seed}")],
        n => (0..n).map(|r| format!("revision-{r}")).collect(),
    };
    drop((tax, revisions));
    drop(prom);
    Ok((
        open(&path, spec, true)?,
        Built {
            path,
            cls,
            contexts,
            genera: flora.genera,
            species: flora.species,
            specimens: flora.specimens,
            layer_s,
        },
    ))
}

/// The read keys of one flora, as the generator names things: families
/// `Familia{f}aceae`, genera `Genus{f}x{g}`, species `species{f}x{g}x{s}`
/// and specimens `SP-{f}-{g}-{s}-{k}`. Families below `first_family` are
/// left out (the `survey` writer owns them).
#[derive(Debug, Clone)]
pub struct Keys {
    pub by_class: [Vec<String>; 6],
    /// Context classification of each `context_closure` key.
    pub contexts: Vec<String>,
}

impl Keys {
    pub fn new(p: &FloraParams, first_family: usize, contexts: &[String]) -> Keys {
        let (mut cts, mut prefixes, mut genera, mut specimens, mut species) =
            (vec![], vec![], vec![], vec![], vec![]);
        for f in first_family..p.families {
            cts.push(format!("Familia{f}aceae"));
            for g in 0..p.genera_per_family {
                genera.push(format!("Genus{f}x{g}"));
                prefixes.push(format!("species{f}x{g}x"));
                for s in 0..p.species_per_genus {
                    species.push(format!("species{f}x{g}x{s}"));
                    for k in 0..p.specimens_per_species {
                        specimens.push(format!("SP-{f}-{g}-{s}-{k}"));
                    }
                }
            }
        }
        cts.extend(genera.iter().cloned());
        cts.extend(species.iter().cloned());
        let ctx_genera: Vec<String> = contexts
            .iter()
            .flat_map(|_| genera.iter().cloned())
            .collect();
        let ctx_names = contexts
            .iter()
            .flat_map(|c| std::iter::repeat_n(c.clone(), genera.len()))
            .collect();
        Keys {
            by_class: [
                cts,
                prefixes,
                genera.clone(),
                ctx_genera,
                specimens,
                species,
            ],
            contexts: ctx_names,
        }
    }

    /// Drop the `closure` keys whose closure, across every
    /// classification, reaches one of `owned`: a writer that moves
    /// specimens in and out of those species changes such a count. (The
    /// revisions move some of the writer's species under other genera.)
    pub fn drop_closures_reaching<R: Reader>(
        &mut self,
        db: &R,
        owned: &[Oid],
    ) -> Result<(), String> {
        let closure = TraversalSpec::closure(["Circumscribes".to_string()]);
        let mut kept = Vec::new();
        for genus in &self.by_class[Class::Closure.index()] {
            let oid = db
                .find_by_attr("CT", "working_name", &Value::from(genus.as_str()))
                .map_err(|e| e.to_string())?;
            let reach = traverse(db, oid[0], &closure).map_err(|e| e.to_string())?;
            if !reach.iter().any(|v| owned.contains(&v.node)) {
                kept.push(genus.clone());
            }
        }
        self.by_class[Class::Closure.index()] = kept;
        Ok(())
    }

    pub fn counts(&self) -> [usize; 6] {
        [0, 1, 2, 3, 4, 5].map(|i| self.by_class[i].len())
    }

    /// The POOL text of one read.
    pub fn text(&self, class: Class, key: u32) -> String {
        let k = &self.by_class[class.index()][key as usize];
        match class {
            Class::Lookup => format!("select t, t.rank from CT t where t.working_name = \"{k}\""),
            Class::Scan => format!(
                "select t.working_name from CT t where t.rank = \"Species\" and t.working_name like \"{k}%\" order by t.working_name"
            ),
            Class::Closure => format!("select count(t -> Circumscribes*) from CT t where t.working_name = \"{k}\""),
            Class::ContextClosure => format!(
                "select count(t -> Circumscribes*) from CT t in classification \"{}\" where t.working_name = \"{k}\"",
                self.contexts[key as usize]
            ),
            Class::Containers => format!(
                "select t.working_name from Specimen s, CT t where s.code = \"{k}\" and t in s <- Circumscribes* order by t.working_name"
            ),
            Class::Names => format!(
                "select t.working_name, n.name from CT t, NT n where t.working_name = \"{k}\" and n in t -> CalculatedName"
            ),
        }
    }

    /// The same answer computed through the object layer alone (no POOL):
    /// the output check for every reply, and the `object.read_us` layer.
    pub fn expected<R: Reader>(
        &self,
        db: &R,
        class: Class,
        key: u32,
    ) -> Result<Vec<Vec<Value>>, String> {
        let err = |e: prometheus_db::DbError| e.to_string();
        let k = &self.by_class[class.index()][key as usize];
        let one = |class: &str, attr: &str| -> Result<Oid, String> {
            let found = db
                .find_by_attr(class, attr, &Value::from(k.as_str()))
                .map_err(err)?;
            found
                .first()
                .copied()
                .ok_or_else(|| format!("no {class} with {attr} = {k}"))
        };
        let closure = TraversalSpec::closure(["Circumscribes".to_string()]);
        let working_names = |oids: Vec<Oid>| -> Result<Vec<Vec<Value>>, String> {
            let mut names = oids
                .into_iter()
                .map(|o| db.attr_of(o, "working_name"))
                .collect::<Result<Vec<_>, _>>()
                .map_err(err)?;
            names.sort_by_key(|v| v.to_string());
            Ok(names.into_iter().map(|v| vec![v]).collect())
        };
        Ok(match class {
            Class::Lookup => db
                .find_by_attr("CT", "working_name", &Value::from(k.as_str()))
                .map_err(err)?
                .into_iter()
                .map(|o| Ok(vec![Value::Ref(o), db.object(o).map_err(err)?.attr("rank")]))
                .collect::<Result<_, String>>()?,
            Class::Scan => {
                let mut hits = Vec::new();
                for o in db.extent("CT", false).map_err(err)? {
                    if db.attr_of(o, "rank").map_err(err)? == Value::from("Species") {
                        if let Value::Str(name) = db.attr_of(o, "working_name").map_err(err)? {
                            if name.starts_with(k.as_str()) {
                                hits.push(o);
                            }
                        }
                    }
                }
                working_names(hits)?
            }
            Class::Closure => vec![vec![Value::Int(
                traverse(db, one("CT", "working_name")?, &closure)
                    .map_err(err)?
                    .len() as i64,
            )]],
            Class::ContextClosure => {
                let ctx = &self.contexts[key as usize];
                let cls = db
                    .classification_by_name(ctx)
                    .map_err(err)?
                    .ok_or_else(|| format!("no classification {ctx}"))?;
                let spec = closure.in_classification(cls);
                vec![vec![Value::Int(
                    traverse(db, one("CT", "working_name")?, &spec)
                        .map_err(err)?
                        .len() as i64,
                )]]
            }
            Class::Containers => {
                let spec = closure.direction(Direction::Incoming);
                let visits = traverse(db, one("Specimen", "code")?, &spec).map_err(err)?;
                working_names(visits.into_iter().map(|v| v.node).collect())?
            }
            Class::Names => {
                let ct = one("CT", "working_name")?;
                db.rels_from(ct, Some("CalculatedName"))
                    .map_err(err)?
                    .into_iter()
                    .map(|r| {
                        Ok(vec![
                            Value::from(k.as_str()),
                            db.attr_of(r.destination, "name").map_err(err)?,
                        ])
                    })
                    .collect::<Result<_, String>>()?
            }
        })
    }
}

/// The fixed-volume fingerprint: record count and the CT, NT and Specimen
/// extent sizes.
pub fn volume<R: Reader>(db: &R, records: usize) -> Result<[usize; 4], String> {
    let n = |class: &str| {
        db.extent(class, false)
            .map(|e| e.len())
            .map_err(|e| e.to_string())
    };
    Ok([records, n("CT")?, n("NT")?, n("Specimen")?])
}
