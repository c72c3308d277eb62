//! Specimen-based synonym detection (thesis §2.1.3 and §2.3).
//!
//! Two taxa are *synonyms* when their circumscriptions overlap: **full**
//! synonyms share exactly the same specimen set, ***pro parte*** synonyms
//! overlap partially. Independently, synonyms are **homotypic** when the
//! taxa carry the same taxonomic type and **heterotypic** otherwise.
//!
//! This is the capability the thesis holds up against IOPI and name-based
//! models: synonymy is *discovered from the data* — taxonomists never have
//! to declare an "accepted name".

use crate::model::Taxonomy;
use prometheus_object::{Classification, DbResult, Oid, SynonymMode};
use std::collections::BTreeSet;

/// Degree of circumscription overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynonymKind {
    /// Identical specimen sets.
    Full,
    /// Partial overlap.
    ProParte,
}

/// One detected synonym pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynonymReport {
    pub taxon_a: Oid,
    pub taxon_b: Oid,
    pub kind: SynonymKind,
    /// Same taxonomic type on both sides.
    pub homotypic: bool,
    pub shared: usize,
    pub only_a: usize,
    pub only_b: usize,
}

/// The taxonomic type of a CT within a classification: the *oldest published*
/// type specimen in its circumscription (§2.1.3: "the ICBN requires that the
/// oldest type specimen represents the group it belongs to").
pub fn taxon_type(tax: &Taxonomy, cls: &Classification, ct: Oid) -> DbResult<Option<Oid>> {
    let mut best: Option<(i32, Oid)> = None;
    for specimen in tax.circumscription(cls, ct)? {
        if !tax.is_specimen(specimen) {
            continue;
        }
        // The specimen's publication year is the year of the oldest name it
        // typifies.
        let mut oldest_name_year: Option<i32> = None;
        for nt in tax.names_typified_by(specimen)? {
            let year = tax.year_of(nt)?.unwrap_or(i32::MAX);
            if oldest_name_year.is_none_or(|y| year < y) {
                oldest_name_year = Some(year);
            }
        }
        if let Some(year) = oldest_name_year {
            if best.is_none_or(|(y, o)| (year, specimen) < (y, o)) {
                best = Some((year, specimen));
            }
        }
    }
    Ok(best.map(|(_, s)| s))
}

/// Compare one taxon of `cls_a` against one of `cls_b`.
pub fn compare_taxa(
    tax: &Taxonomy,
    cls_a: &Classification,
    taxon_a: Oid,
    cls_b: &Classification,
    taxon_b: Oid,
    synonyms: SynonymMode,
) -> DbResult<Option<SynonymReport>> {
    let canon = |oid: Oid| match synonyms {
        SynonymMode::Ignore => oid,
        SynonymMode::Transparent => tax.db().synonym_representative(oid),
    };
    let a: BTreeSet<Oid> = tax
        .circumscription(cls_a, taxon_a)?
        .into_iter()
        .filter(|s| tax.is_specimen(*s))
        .map(canon)
        .collect();
    let b: BTreeSet<Oid> = tax
        .circumscription(cls_b, taxon_b)?
        .into_iter()
        .filter(|s| tax.is_specimen(*s))
        .map(canon)
        .collect();
    let shared = a.intersection(&b).count();
    if shared == 0 {
        return Ok(None);
    }
    let only_a = a.len() - shared;
    let only_b = b.len() - shared;
    let kind = if only_a == 0 && only_b == 0 {
        SynonymKind::Full
    } else {
        SynonymKind::ProParte
    };
    let type_a = taxon_type(tax, cls_a, taxon_a)?;
    let type_b = taxon_type(tax, cls_b, taxon_b)?;
    let homotypic = match (type_a, type_b) {
        (Some(ta), Some(tb)) => canon(ta) == canon(tb),
        _ => false,
    };
    Ok(Some(SynonymReport {
        taxon_a,
        taxon_b,
        kind,
        homotypic,
        shared,
        only_a,
        only_b,
    }))
}

/// Detect every synonym pair between two classifications: same-rank CT pairs
/// with overlapping circumscriptions.
pub fn detect_synonyms(
    tax: &Taxonomy,
    cls_a: &Classification,
    cls_b: &Classification,
    synonyms: SynonymMode,
) -> DbResult<Vec<SynonymReport>> {
    let db = tax.db();
    let canon = |oid: Oid| match synonyms {
        SynonymMode::Ignore => oid,
        SynonymMode::Transparent => db.synonym_representative(oid),
    };
    // Precompute each CT's circumscription (specimen leaf set), rank and
    // taxonomic type once per classification — the pairwise comparison then
    // only intersects small sets.
    struct Entry {
        ct: Oid,
        rank: Option<crate::rank::Rank>,
        leaves: BTreeSet<Oid>,
        taxon_type: Option<Oid>,
    }
    let collect = |cls: &Classification| -> DbResult<Vec<Entry>> {
        let mut out = Vec::new();
        for ct in cls.nodes(db)? {
            if db.class_of(ct).map(|c| c != "CT").unwrap_or(true) {
                continue;
            }
            let leaves: BTreeSet<Oid> = tax
                .circumscription(cls, ct)?
                .into_iter()
                .filter(|s| tax.is_specimen(*s))
                .map(canon)
                .collect();
            out.push(Entry {
                ct,
                rank: tax.rank_of(ct)?,
                taxon_type: taxon_type(tax, cls, ct)?,
                leaves,
            });
        }
        Ok(out)
    };
    let a_taxa = collect(cls_a)?;
    let b_taxa = collect(cls_b)?;
    let mut reports = Vec::new();
    for ea in &a_taxa {
        for eb in &b_taxa {
            if ea.ct == eb.ct || ea.rank != eb.rank {
                continue;
            }
            let shared = ea.leaves.intersection(&eb.leaves).count();
            if shared == 0 {
                continue;
            }
            let only_a = ea.leaves.len() - shared;
            let only_b = eb.leaves.len() - shared;
            let kind = if only_a == 0 && only_b == 0 {
                SynonymKind::Full
            } else {
                SynonymKind::ProParte
            };
            let homotypic = match (ea.taxon_type, eb.taxon_type) {
                (Some(ta), Some(tb)) => canon(ta) == canon(tb),
                _ => false,
            };
            reports.push(SynonymReport {
                taxon_a: ea.ct,
                taxon_b: eb.ct,
                kind,
                homotypic,
                shared,
                only_a,
                only_b,
            });
        }
    }
    Ok(reports)
}

/// A name-based synonym pair (§2.3's "Name-based synonyms"): two distinct
/// CTs, possibly in different classifications, carrying the same name
/// (ascribed or calculated). The thesis notes this is how *other* taxonomic
/// models detect synonyms — provided for comparison and for historical data
/// lacking specimens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameSynonym {
    pub taxon_a: Oid,
    pub taxon_b: Oid,
    /// The shared NT.
    pub name: Oid,
}

/// Detect name-based synonyms between two classifications: same attached NT
/// on different CTs. (Compare with [`detect_synonyms`], the specimen-based
/// detector the thesis argues is the objective one.)
pub fn detect_name_synonyms(
    tax: &Taxonomy,
    cls_a: &Classification,
    cls_b: &Classification,
) -> DbResult<Vec<NameSynonym>> {
    let db = tax.db();
    let name_of_ct = |ct: Oid| -> DbResult<Option<Oid>> {
        Ok(match tax.calculated_name(ct)? {
            Some(nt) => Some(nt),
            None => tax.ascribed_name(ct)?,
        })
    };
    let cts = |cls: &Classification| -> DbResult<Vec<Oid>> {
        Ok(cls
            .nodes(db)?
            .into_iter()
            .filter(|oid| db.class_of(*oid).map(|c| c == "CT").unwrap_or(false))
            .collect())
    };
    // B's named CTs once, in node order: the pairing loop below then does
    // no record decodes or name lookups per CT of A.
    let mut named_b = Vec::new();
    for tb in cts(cls_b)? {
        if let Some(nb) = name_of_ct(tb)? {
            named_b.push((tb, nb));
        }
    }
    let mut out = Vec::new();
    for ta in cts(cls_a)? {
        let Some(na) = name_of_ct(ta)? else { continue };
        for &(tb, nb) in &named_b {
            if ta != tb && na == nb {
                out.push(NameSynonym {
                    taxon_a: ta,
                    taxon_b: tb,
                    name: na,
                });
            }
        }
    }
    Ok(out)
}

/// A homonym pair: two distinct NTs spelled identically at the same rank —
/// which the ICBN forbids for validly published names (later homonyms are
/// illegitimate). Detection scans the name index.
pub fn detect_homonyms(tax: &Taxonomy) -> DbResult<Vec<(Oid, Oid)>> {
    let db = tax.db();
    let mut by_key: std::collections::BTreeMap<(String, String), Vec<Oid>> =
        std::collections::BTreeMap::new();
    for nt in db.extent("NT", true)? {
        let obj = db.object(nt)?;
        let name = obj.attr("name").as_str().unwrap_or_default().to_string();
        let rank = obj.attr("rank").as_str().unwrap_or_default().to_string();
        by_key.entry((name, rank)).or_default().push(nt);
    }
    let mut out = Vec::new();
    for (_, mut nts) in by_key {
        nts.sort();
        for i in 0..nts.len() {
            for j in i + 1..nts.len() {
                out.push((nts[i], nts[j]));
            }
        }
    }
    Ok(out)
}

/// Audit a classification after derivation (§7.1.2): CTs whose ascribed
/// (historically published) name disagrees with the calculated one. Each
/// entry is `(ct, ascribed, calculated)`.
pub fn audit_names(tax: &Taxonomy, cls: &Classification) -> DbResult<Vec<(Oid, Oid, Oid)>> {
    let db = tax.db();
    let mut out = Vec::new();
    for node in cls.nodes(db)? {
        if db.class_of(node).map(|c| c != "CT").unwrap_or(true) {
            continue;
        }
        if let (Some(ascribed), Some(calculated)) =
            (tax.ascribed_name(node)?, tax.calculated_name(node)?)
        {
            if ascribed != calculated {
                out.push((node, ascribed, calculated));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::fresh;
    use crate::rank::Rank;
    use crate::typification::TypeKind;

    #[test]
    fn name_based_synonyms_found_via_attached_names() {
        let tax = fresh();
        let db = tax.db().clone();
        let cls_a = tax.new_classification("A", "a", "x").unwrap();
        let cls_b = tax.new_classification("B", "b", "y").unwrap();
        let ct_a = tax.create_ct("one", Rank::Genus).unwrap();
        let ct_b = tax.create_ct("two", Rank::Genus).unwrap();
        let child_a = tax.create_ct("ca", Rank::Species).unwrap();
        let child_b = tax.create_ct("cb", Rank::Species).unwrap();
        tax.circumscribe(&cls_a, ct_a, child_a).unwrap();
        tax.circumscribe(&cls_b, ct_b, child_b).unwrap();
        let nt = tax.create_nt("Apium", Rank::Genus, 1753, "L.").unwrap();
        tax.ascribe_name(ct_a, nt).unwrap();
        tax.ascribe_name(ct_b, nt).unwrap();
        let found = detect_name_synonyms(&tax, &cls_a, &cls_b).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].name, nt);
        let _ = db;
    }

    #[test]
    fn name_synonyms_pair_in_node_order_and_skip_shared_taxa() {
        let tax = fresh();
        let cls_a = tax.new_classification("A", "a", "x").unwrap();
        let cls_b = tax.new_classification("B", "b", "y").unwrap();
        let nt = tax.create_nt("Apium", Rank::Genus, 1753, "L.").unwrap();
        let named: Vec<Oid> = (0..4)
            .map(|i| {
                let ct = tax.create_ct(&format!("g{i}"), Rank::Genus).unwrap();
                tax.ascribe_name(ct, nt).unwrap();
                ct
            })
            .collect();
        // A holds g0, g1 and the shared g2; B holds g2 and g3.
        for (cls, cts) in [(&cls_a, &named[..3]), (&cls_b, &named[2..])] {
            for &ct in cts {
                let child = tax.create_ct("sp", Rank::Species).unwrap();
                tax.circumscribe(cls, ct, child).unwrap();
            }
        }
        let pairs: Vec<(Oid, Oid)> = detect_name_synonyms(&tax, &cls_a, &cls_b)
            .unwrap()
            .into_iter()
            .map(|s| (s.taxon_a, s.taxon_b))
            .collect();
        let [g0, g1, g2, g3] = named[..] else {
            unreachable!()
        };
        assert_eq!(
            pairs,
            vec![(g0, g2), (g0, g3), (g1, g2), (g1, g3), (g2, g3)]
        );
    }

    #[test]
    fn homonyms_are_same_spelling_same_rank_distinct_names() {
        let tax = fresh();
        let a = tax.create_nt("Apium", Rank::Genus, 1753, "L.").unwrap();
        let b = tax.create_nt("Apium", Rank::Genus, 1810, "X.").unwrap();
        let _c = tax.create_nt("Apium", Rank::Familia, 1800, "Y.").unwrap(); // different rank
        let _d = tax.create_nt("Sium", Rank::Genus, 1753, "L.").unwrap();
        let pairs = detect_homonyms(&tax).unwrap();
        assert_eq!(pairs, vec![(a, b)]);
    }

    #[test]
    fn audit_reports_ascribed_vs_calculated_mismatches() {
        let tax = fresh();
        let db = tax.db().clone();
        let token = db.begin_unit();
        let cls = tax.new_classification("hist", "h", "c").unwrap();
        let ct = tax.create_ct("wk", Rank::Species).unwrap();
        let parent = tax.create_ct("G", Rank::Genus).unwrap();
        let s = tax.create_specimen("E-2").unwrap();
        tax.circumscribe(&cls, parent, ct).unwrap();
        tax.circumscribe(&cls, ct, s).unwrap();
        // The historically ascribed name...
        let wrong = tax.create_nt("old", Rank::Species, 1900, "O.").unwrap();
        tax.ascribe_name(ct, wrong).unwrap();
        // ...but the type hierarchy points to a different, older name.
        let right = tax.create_nt("proper", Rank::Species, 1800, "P.").unwrap();
        tax.typify(right, s, TypeKind::Lectotype).unwrap();
        db.commit_unit(token).unwrap();
        crate::derivation::derive_names(&tax, &cls, "me", 2001).unwrap();
        // Derivation published a new combination based on 'proper' (the
        // genus had no name, so the epithet was recombined); what matters is
        // that the ascribed name disagrees with the calculated one and the
        // audit says so.
        let calculated = tax.calculated_name(ct).unwrap().unwrap();
        assert_ne!(calculated, wrong);
        assert_eq!(
            tax.name_of(calculated).unwrap(),
            tax.name_of(right).unwrap()
        );
        let audit = audit_names(&tax, &cls).unwrap();
        assert_eq!(audit, vec![(ct, wrong, calculated)]);
    }
}
