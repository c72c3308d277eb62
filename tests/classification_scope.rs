//! Context scoping equivalence: the record-free membership probe
//! [`Reader::node_in_classification`] and POOL's `in classification`
//! scoping answer exactly what materialising the classification would.
//!
//! Random CTs and `Circumscribes` edges are spread across two overlapping
//! classifications, then edited with add-edge, remove-edge,
//! delete-relationship and delete-object operations, on 1-shard and
//! 3-shard stores. The probe is checked object by object against
//! [`Classification::nodes`], and query answers against reference filters
//! built from `nodes()` and `classification_edges()` — on the live
//! database and on a pinned [`prometheus_db::ReadView`].

use prometheus_db::{Classification, Oid, Prometheus, Rank, Reader, StoreOptions, Value};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

const CLASSIFICATIONS: [&str; 2] = ["alpha", "beta"];

fn tmp_dir(name: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "prometheus-cls-scope-{name}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[derive(Debug, Clone)]
enum Op {
    /// Create a CT.
    Ct,
    /// Link two live CTs (older → newer, so `Circumscribes` stays acyclic)
    /// and make the edge a member of classification `cls`, or of none.
    Relate(usize, usize, Option<usize>),
    /// Add a live edge to a classification.
    AddEdge(usize, usize),
    /// Remove a live edge from a classification (the edge survives).
    RemoveEdge(usize, usize),
    /// Delete a live relationship instance.
    DeleteRel(usize),
    /// Delete a live CT, detaching its edges.
    DeleteObject(usize),
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    // The vendored prop_oneof! has no weights: draw a selector instead,
    // biased toward growth so the graphs stay populated.
    let op = (0u8..10, 0usize..64, 0usize..64, 0usize..3).prop_map(|(sel, a, b, c)| match sel {
        0..=2 => Op::Ct,
        3..=5 => Op::Relate(a, b, c.checked_sub(1)),
        6 => Op::AddEdge(a, c % 2),
        7 => Op::RemoveEdge(a, c % 2),
        8 => Op::DeleteRel(a),
        _ => Op::DeleteObject(a),
    });
    prop::collection::vec(op, 1..40)
}

/// Apply `ops`; returns every CT ever created, deleted ones included.
fn apply(p: &Prometheus, cls: &[Classification], ops: &[Op]) -> Vec<Oid> {
    let tax = p.taxonomy().unwrap();
    let db = p.db();
    let mut created: Vec<Oid> = Vec::new();
    let mut rels: Vec<Oid> = Vec::new();
    for op in ops {
        // Deleting an object detaches its edges: prune the dead first.
        let cts: Vec<Oid> = created.iter().copied().filter(|o| db.exists(*o)).collect();
        rels.retain(|r| db.exists(*r));
        match *op {
            Op::Ct => {
                let n = created.len();
                created.push(tax.create_ct(&format!("ct-{n}"), Rank::Genus).unwrap());
            }
            Op::Relate(a, b, member) => {
                if cts.len() < 2 {
                    continue;
                }
                let (a, b) = (a % cts.len(), b % cts.len());
                if a == b {
                    continue;
                }
                let (parent, child) = (cts[a.min(b)], cts[a.max(b)]);
                let rel = db
                    .create_relationship("Circumscribes", parent, child, Vec::new())
                    .unwrap();
                if let Some(c) = member {
                    cls[c].add_edge(db, rel).unwrap();
                }
                rels.push(rel);
            }
            Op::AddEdge(r, c) if !rels.is_empty() => {
                cls[c].add_edge(db, rels[r % rels.len()]).unwrap();
            }
            Op::RemoveEdge(r, c) if !rels.is_empty() => {
                cls[c].remove_edge(db, rels[r % rels.len()]).unwrap();
            }
            Op::DeleteRel(r) if !rels.is_empty() => {
                db.delete_relationship(rels.remove(r % rels.len())).unwrap();
            }
            Op::DeleteObject(k) if !cts.is_empty() => {
                db.delete_object(cts[k % cts.len()]).unwrap();
            }
            _ => {}
        }
    }
    created
}

fn sorted(mut oids: Vec<Oid>) -> Vec<Oid> {
    oids.sort();
    oids
}

/// Check the probe and the three query shapes against references built
/// from the materialised classification, through reader `r` and query
/// entry point `query`.
fn check_scope<R: Reader>(
    r: &R,
    query: &dyn Fn(&str) -> Vec<Oid>,
    cls: &[Classification],
    created: &[Oid],
) -> Result<(), TestCaseError> {
    for (c, name) in cls.iter().zip(CLASSIFICATIONS) {
        let nodes: BTreeSet<Oid> = c.nodes(r).unwrap();
        for &oid in created {
            prop_assert_eq!(
                r.node_in_classification(c.oid(), oid).unwrap(),
                nodes.contains(&oid),
                "probe disagrees with nodes() for {} in {}",
                oid,
                name
            );
        }

        let live: Vec<Oid> = r.extent("CT", true).unwrap();
        let expected: Vec<Oid> =
            sorted(live.iter().copied().filter(|o| nodes.contains(o)).collect());
        let got = sorted(query(&format!(
            "select t from CT t in classification \"{name}\""
        )));
        prop_assert_eq!(got, expected, "unseeded node source in {}", name);

        for &oid in &live {
            let working_name = r.attr_of(oid, "working_name").unwrap();
            let Value::Str(working_name) = working_name else {
                panic!("CT {oid} has no working name");
            };
            let got = query(&format!(
                "select t from CT t in classification \"{name}\" \
                 where t.working_name = \"{working_name}\""
            ));
            let expected = if nodes.contains(&oid) {
                vec![oid]
            } else {
                Vec::new()
            };
            prop_assert_eq!(got, expected, "seeded node source {} in {}", oid, name);
        }

        let got = sorted(query(&format!(
            "select e from edges Circumscribes e in classification \"{name}\""
        )));
        let expected = sorted(r.classification_edges(c.oid()).unwrap());
        prop_assert_eq!(got, expected, "edges source in {}", name);
    }
    Ok(())
}

fn run_case(shards: usize, ops: &[Op]) -> Result<(), TestCaseError> {
    let dir = tmp_dir(&format!("{shards}-shards"));
    let p = Prometheus::open_sharded(
        dir.join("store.log"),
        StoreOptions {
            sync_on_commit: false,
        },
        shards,
    )
    .unwrap();
    p.taxonomy().unwrap();
    let cls: Vec<Classification> = CLASSIFICATIONS
        .iter()
        .map(|name| Classification::create(p.db(), name, Vec::new(), false).unwrap())
        .collect();
    let created = apply(&p, &cls, ops);

    let live_query = |q: &str| p.query(q).unwrap().oids();
    check_scope(p.db().as_ref(), &live_query, &cls, &created)?;
    let view = p.read_view();
    let pinned_query = |q: &str| p.query_snapshot(q).unwrap().oids();
    check_scope(&view, &pinned_query, &cls, &created)?;

    drop(p);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn context_scoping_matches_materialised_classification_on_one_shard(ops in ops_strategy()) {
        run_case(1, &ops)?;
    }

    #[test]
    fn context_scoping_matches_materialised_classification_on_three_shards(ops in ops_strategy()) {
        run_case(3, &ops)?;
    }
}
