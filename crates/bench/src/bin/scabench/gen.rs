//! Seeded workload inputs.
//!
//! Every program a workload sends is generated here from `--seed` with the
//! attacks crate's own generators (mutated PoC variants and the Table-III
//! benign mix) and rendered to `.sasm` text. Programs are deduplicated by
//! that text: the model cache is keyed by instructions, so two identical
//! programs under different names would turn a "fresh" program into a
//! cache hit.
//!
//! Mutated variants practically never repeat, but the benign generators
//! do (about 10 shared programs between two 2000-program draws), so each
//! workload keeps only the benign programs whose text hashes into its own
//! share of the space: program sets are disjoint across workloads by
//! construction. The unit tests check that they are also disjoint from
//! the variants `build-repo --variants` enrolls and across seeds.

use std::collections::HashSet;

use sca_attacks::dataset::mutated_family;
use sca_attacks::mutate::MutationConfig;
use sca_attacks::{benign, AttackFamily, Sample};

/// One generated program, as the server and the CLI receive it.
#[derive(Debug, Clone)]
pub struct Prog {
    /// Unique name; also the `.sasm` file stem, so offline `classify`
    /// reports the same name the wire detection carries.
    pub name: String,
    /// Assemblable source text.
    pub source: String,
    /// Victim spec in the CLI/wire syntax.
    pub victim: &'static str,
    /// Ground truth: an attack variant (vs a benign program).
    pub attack: bool,
}

/// The victim spec a family's PoCs run against (benign programs and the
/// Spectre variants run alone).
fn victim_spec(family: Option<AttackFamily>) -> &'static str {
    match family {
        Some(AttackFamily::FlushReload) => "shared:3",
        Some(AttackFamily::PrimeProbe) => "conflict:3",
        _ => "none",
    }
}

/// SplitMix64 over `a` and `b`: decorrelated derived seed streams.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a: a hash of program text that is stable across runs.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// A share of the program space: text whose hash is `index` modulo
/// `count`. `Share::ALL` is the whole space.
#[derive(Debug, Clone, Copy)]
pub struct Share {
    pub index: u64,
    pub count: u64,
}

impl Share {
    pub const ALL: Share = Share { index: 0, count: 1 };

    fn holds(self, text: &str) -> bool {
        fnv1a(text) % self.count == self.index
    }
}

/// Source text plus victim spec of each sample in `share` and not already
/// in `seen`, stopping once `out` holds `want` programs.
fn take_unique(
    seen: &mut HashSet<String>,
    out: &mut Vec<(String, &'static str)>,
    want: usize,
    share: Share,
    samples: impl IntoIterator<Item = Sample>,
) {
    for sample in samples {
        if out.len() == want {
            return;
        }
        let source = sca_isa::to_asm(&sample.program);
        if share.holds(&source) && seen.insert(source.clone()) {
            out.push((source, victim_spec(sample.label.family())));
        }
    }
}

/// `attacks` attack variants (round-robin over the four families) plus
/// `benign` benign programs from `share` of the benign space, all
/// distinct, named `<prefix>-NNNNN` and interleaved so that every prefix
/// of the list has the same mix.
pub fn programs(prefix: &str, seed: u64, share: Share, attacks: usize, benign: usize) -> Vec<Prog> {
    let mut seen = HashSet::new();
    let mut attack = Vec::with_capacity(attacks);
    // Duplicates are rare; each round regenerates only the shortfall from
    // a fresh sub-seed.
    for round in 0u64.. {
        if attack.len() == attacks {
            break;
        }
        let per_family = (attacks - attack.len()).div_ceil(AttackFamily::ALL.len());
        let mut families: Vec<_> = AttackFamily::ALL
            .iter()
            .map(|&f| {
                mutated_family(f, per_family, mix(seed, round), &MutationConfig::default())
                    .into_iter()
            })
            .collect();
        let interleaved = (0..per_family).flat_map(|_| {
            families
                .iter_mut()
                .filter_map(Iterator::next)
                .collect::<Vec<_>>()
        });
        take_unique(&mut seen, &mut attack, attacks, Share::ALL, interleaved);
    }
    let mut harmless = Vec::with_capacity(benign);
    for round in 0u64.. {
        if harmless.len() == benign {
            break;
        }
        // Draw enough that about `missing` land in the share.
        let draw = (benign - harmless.len()) * share.count as usize;
        let samples = benign::generate_mix(draw, mix(!seed, round));
        take_unique(&mut seen, &mut harmless, benign, share, samples);
    }
    let total = attacks + benign;
    let (mut attack, mut harmless) = (attack.into_iter(), harmless.into_iter());
    (0..total)
        .map(|i| {
            // Program i is an attack when it raises the running attack
            // count to the share `attacks / total` of i + 1 programs.
            let is_attack = (i + 1) * attacks / total > i * attacks / total;
            let (source, victim) = if is_attack {
                attack.next()
            } else {
                harmless.next()
            }
            .expect("counts match the interleaving");
            Prog {
                name: format!("{prefix}-{i:05}"),
                source,
                victim,
                attack: is_attack,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sources(progs: &[Prog]) -> HashSet<&str> {
        progs.iter().map(|p| p.source.as_str()).collect()
    }

    #[test]
    fn same_seed_gives_identical_bytes() {
        let a = programs("x", 7, Share::ALL, 16, 16);
        let b = programs("x", 7, Share::ALL, 16, 16);
        let render = |v: &[Prog]| {
            v.iter()
                .map(|p| format!("{}|{}|{}", p.name, p.victim, p.source))
                .collect::<Vec<_>>()
        };
        assert_eq!(render(&a), render(&b));
    }

    #[test]
    fn mix_and_uniqueness_hold() {
        let v = programs("x", 3, Share::ALL, 40, 24);
        assert_eq!(v.len(), 64);
        assert_eq!(v.iter().filter(|p| p.attack).count(), 40);
        assert_eq!(sources(&v).len(), 64, "programs are distinct");
        // Interleaved: the first quarter already carries a quarter of the
        // attacks.
        assert_eq!(v[..16].iter().filter(|p| p.attack).count(), 10);
        for p in &v {
            let program = sca_isa::assemble(&p.name, &p.source).expect("assembles");
            assert!(!program.insts().is_empty());
        }
    }

    #[test]
    fn shares_partition_the_benign_space() {
        let share = |index| Share { index, count: 3 };
        let a = programs("x", 1, share(0), 0, 64);
        let b = programs("x", 1, share(1), 0, 64);
        assert!(a.iter().all(|p| share(0).holds(&p.source)));
        assert!(sources(&a).is_disjoint(&sources(&b)));
    }

    #[test]
    fn different_seeds_give_disjoint_sets() {
        let a = programs("x", 1, Share::ALL, 32, 32);
        let b = programs("x", 2, Share::ALL, 32, 32);
        assert!(sources(&a).is_disjoint(&sources(&b)));
    }
}
