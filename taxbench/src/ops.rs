//! Op lists: a run's whole input, generated from the seed before the server
//! sees anything. Reads name a key by index into a class's key list; units
//! name genera, species and specimens by index into the writer's partition,
//! so the list is independent of the OIDs the server hands out.

use crate::rng::{Rng, Zipf};

/// The six read classes of the `browse` mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Indexed `working_name` equality.
    Lookup,
    /// Rank filter plus `like` over the CT extent.
    Scan,
    /// `count(t -> Circumscribes*)` from a genus.
    Closure,
    /// The same closure `in classification "…"`.
    ContextClosure,
    /// The CTs containing a specimen (`t in s <- Circumscribes*`).
    Containers,
    /// The CT → `CalculatedName` join.
    Names,
}

pub const CLASSES: [Class; 6] = [
    Class::Lookup,
    Class::Scan,
    Class::Closure,
    Class::ContextClosure,
    Class::Containers,
    Class::Names,
];

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Lookup => "lookup",
            Class::Scan => "scan",
            Class::Closure => "closure",
            Class::ContextClosure => "context_closure",
            Class::Containers => "containers",
            Class::Names => "names",
        }
    }

    pub fn index(self) -> usize {
        CLASSES
            .iter()
            .position(|&c| c == self)
            .expect("listed class")
    }
}

/// One read: a class and a key index into that class's key list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOp {
    pub class: Class,
    pub key: u32,
}

/// How read keys are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyDist {
    /// Zipf(1) with a seeded head: a few texts repeat, most are rare.
    Zipf,
    Uniform,
}

/// `per_class` reads of each class in seeded random order; `key_counts[i]`
/// is the size of class `i`'s key list.
pub fn read_ops(
    seed: u64,
    per_class: &[usize; 6],
    key_counts: &[usize; 6],
    dist: KeyDist,
) -> Vec<ReadOp> {
    // Which keys are popular is fixed; the seed draws the sequence. With a
    // seeded head, each class's p50 followed the cost of whichever key
    // happened to be most popular, not the code under test.
    let mut ranking = Rng::new(0x5A495046);
    let samplers: Vec<Zipf> = key_counts
        .iter()
        .map(|&n| Zipf::new(n, &mut ranking))
        .collect();
    let mut rng = Rng::new(seed ^ 0x52454144);
    let mut classes: Vec<Class> = CLASSES
        .iter()
        .flat_map(|&c| std::iter::repeat_n(c, per_class[c.index()]))
        .collect();
    rng.shuffle(&mut classes);
    classes
        .into_iter()
        .map(|class| {
            let i = class.index();
            let key = match dist {
                KeyDist::Zipf => samplers[i].sample(&mut rng),
                KeyDist::Uniform => rng.below(key_counts[i]) as u32,
            };
            ReadOp { class, key }
        })
        .collect()
}

/// One revision unit: describe a new species from existing material.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitPlan {
    /// Genus the new CT is circumscribed under.
    pub genus: u32,
    /// Two distinct specimens moved into the new CT; the first types the
    /// new NT.
    pub specimens: [u32; 2],
    /// Species whose `author` attribute is set.
    pub attr_species: u32,
    /// Species that take back the specimens of the taxon this unit
    /// retires, in order.
    pub rehome: [u32; 2],
    /// What-if unit (thesis §7.1.4): the same ops, then abort.
    pub whatif: bool,
}

/// Sizes of a writer's partition.
#[derive(Debug, Clone, Copy)]
pub struct UnitDims {
    pub genera: usize,
    pub species: usize,
    pub specimens: usize,
}

/// `count` unit plans for writer `client`: exactly one what-if unit, at a
/// seeded position, in every block of ten.
pub fn unit_plans(seed: u64, client: usize, count: usize, dims: UnitDims) -> Vec<UnitPlan> {
    let mut rng = Rng::new(seed ^ 0x554E4954 ^ ((client as u64 + 1) << 40));
    let mut whatif_at = 0;
    (0..count)
        .map(|u| {
            if u % 10 == 0 {
                whatif_at = u + rng.below(10);
            }
            let first = rng.below(dims.specimens);
            let second = (first + 1 + rng.below(dims.specimens - 1)) % dims.specimens;
            UnitPlan {
                genus: rng.below(dims.genera) as u32,
                specimens: [first as u32, second as u32],
                attr_species: rng.below(dims.species) as u32,
                rehome: [
                    rng.below(dims.species) as u32,
                    rng.below(dims.species) as u32,
                ],
                whatif: u == whatif_at,
            }
        })
        .collect()
}

/// FNV-1a of an encoded op list: printed with each run, so two runs can
/// be shown to have executed the same inputs.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Byte encoding of a read list (the determinism check compares these).
pub fn encode_reads(ops: &[ReadOp]) -> Vec<u8> {
    ops.iter()
        .flat_map(|op| {
            let mut b = vec![op.class.index() as u8];
            b.extend_from_slice(&op.key.to_le_bytes());
            b
        })
        .collect()
}

/// Byte encoding of a unit list.
pub fn encode_units(plans: &[UnitPlan]) -> Vec<u8> {
    plans
        .iter()
        .flat_map(|p| {
            let words = [
                p.genus,
                p.specimens[0],
                p.specimens[1],
                p.attr_species,
                p.rehome[0],
                p.rehome[1],
                p.whatif as u32,
            ];
            words
                .into_iter()
                .flat_map(u32::to_le_bytes)
                .collect::<Vec<u8>>()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIMS: UnitDims = UnitDims {
        genera: 80,
        species: 800,
        specimens: 1200,
    };

    #[test]
    fn same_seed_same_bytes() {
        let counts = [888, 80, 80, 240, 2400, 800];
        for dist in [KeyDist::Zipf, KeyDist::Uniform] {
            let a = encode_reads(&read_ops(11, &[50; 6], &counts, dist));
            let b = encode_reads(&read_ops(11, &[50; 6], &counts, dist));
            let c = encode_reads(&read_ops(12, &[50; 6], &counts, dist));
            assert_eq!(a, b);
            assert_ne!(a, c);
            assert_eq!(a.len(), 300 * 5);
        }
        let a = encode_units(&unit_plans(11, 0, 200, DIMS));
        assert_eq!(a, encode_units(&unit_plans(11, 0, 200, DIMS)));
        assert_ne!(a, encode_units(&unit_plans(11, 1, 200, DIMS)));
        assert_ne!(a, encode_units(&unit_plans(12, 0, 200, DIMS)));
    }

    #[test]
    fn equal_class_counts_and_one_whatif_per_ten() {
        let counts = [888, 80, 80, 240, 2400, 800];
        let ops = read_ops(3, &[40; 6], &counts, KeyDist::Zipf);
        for c in CLASSES {
            let of_class: Vec<_> = ops.iter().filter(|op| op.class == c).collect();
            assert_eq!(of_class.len(), 40);
            assert!(of_class
                .iter()
                .all(|op| (op.key as usize) < counts[c.index()]));
        }
        let plans = unit_plans(3, 0, 100, DIMS);
        for block in plans.chunks(10) {
            assert_eq!(block.iter().filter(|p| p.whatif).count(), 1);
        }
        assert!(plans.iter().all(|p| p.specimens[0] != p.specimens[1]));
    }
}
