//! What opening a repository file relies on: the text format round-trips
//! byte for byte, a repository read from text carries the fingerprint of
//! those bytes — the value the same repository built in memory gets from
//! its canonical serialization — and every mutation drops the cached
//! fingerprint. A file that differs from its canonical text only in
//! whitespace reads as stale against its sidecar, and the index rebuilt
//! for it gives the same detections.

use sca_attacks::dataset::mutated_family;
use sca_attacks::mutate::MutationConfig;
use sca_attacks::poc::{self, PocParams};
use sca_attacks::{AttackFamily, Sample};
use scaguard::persist::repository_to_string;
use scaguard::{
    detection_json, repo_fingerprint, Detector, IndexConfig, ModelBuilder, ModelRepository,
    ModelingConfig, RepoIndex,
};

/// The built-in PoC repository plus `variants` mutated variants per
/// family, enrolled the way `scaguard build-repo --variants` does.
fn poc_repository(variants: usize) -> ModelRepository {
    let params = PocParams::default();
    let mut samples: Vec<(AttackFamily, String, Sample)> = AttackFamily::ALL
        .iter()
        .map(|&f| {
            let s = poc::representative(f, &params);
            (f, s.name().to_string(), s)
        })
        .collect();
    for family in AttackFamily::ALL {
        let mutated = mutated_family(family, variants, 0x5ca6_0a2d, &MutationConfig::default());
        for (i, s) in mutated.into_iter().enumerate() {
            samples.push((family, format!("{}-var-{i:04}", family.abbrev()), s));
        }
    }
    let targets: Vec<_> = samples
        .iter()
        .map(|(_, _, s)| (&s.program, &s.victim))
        .collect();
    let builder = ModelBuilder::new(&ModelingConfig::default());
    let mut repo = ModelRepository::new();
    for ((family, name, _), model) in samples.iter().zip(builder.build_batch_cst(&targets)) {
        repo.add_model(
            *family,
            name.as_str(),
            (*model.expect("PoCs model")).clone(),
        );
    }
    repo
}

/// The same models, added one by one: a repository built in memory.
fn rebuilt_in_memory(repo: &ModelRepository) -> ModelRepository {
    let mut copy = ModelRepository::new();
    copy.extend(repo.entries().iter().cloned());
    copy
}

#[test]
fn loaded_text_round_trips_and_fingerprints_like_the_in_memory_repository() {
    for variants in [0, 2] {
        let repo = poc_repository(variants);
        let text = repository_to_string(&repo);
        let loaded = ModelRepository::from_text(&text).expect("canonical text parses");
        assert_eq!(
            repository_to_string(&loaded),
            text,
            "variants={variants}: parse -> serialize is byte-identical"
        );
        // The loaded repository's fingerprint is that of the bytes it
        // was read from; the in-memory ones serialize to the same bytes.
        assert_eq!(repo_fingerprint(&loaded), repo_fingerprint(&repo));
        assert_eq!(
            repo_fingerprint(&loaded),
            repo_fingerprint(&rebuilt_in_memory(&loaded))
        );
        // So a sidecar written for the in-memory repository fits the
        // loaded one, and one built for the loaded repository fits both.
        let index = RepoIndex::build(&repo, &IndexConfig::default());
        assert!(index.matches(&loaded), "variants={variants}");
        assert!(RepoIndex::build(&loaded, &IndexConfig::default()).matches(&repo));
    }
}

#[test]
fn mutation_after_a_load_drops_the_cached_fingerprint() {
    let repo = poc_repository(0);
    // One blank line more than the canonical text: same models, but the
    // fingerprint of these bytes differs, so a cached value that
    // survived a mutation would show.
    let text = format!("{}\n", repository_to_string(&repo));
    let extra = repo.entries()[0].clone();
    for via_extend in [false, true] {
        let mut loaded = ModelRepository::from_text(&text).expect("parse");
        let before = RepoIndex::build(&loaded, &IndexConfig::default());
        assert!(before.matches(&loaded));
        if via_extend {
            loaded.extend([extra.clone()]);
        } else {
            loaded.add_model(extra.family, extra.name.to_string(), extra.model.clone());
        }
        assert!(
            !before.matches(&loaded),
            "extend={via_extend}: an index from before the mutation still matches"
        );
        assert_eq!(
            repo_fingerprint(&loaded),
            repo_fingerprint(&rebuilt_in_memory(&loaded)),
            "extend={via_extend}: fingerprint not recomputed from the mutated models"
        );
    }
}

#[test]
fn a_whitespace_edit_reads_as_stale_and_the_rebuilt_index_detects_identically() {
    let repo = poc_repository(2);
    let canonical = repository_to_string(&repo);
    // A blank line after the header and trailing blanks on the first
    // `entry` line: the parser ignores both.
    let edited =
        canonical
            .replacen("\nentry ", "\n\nentry ", 1)
            .replacen("\nstep ", "  \nstep ", 1);
    assert_ne!(edited, canonical);
    let loaded = ModelRepository::from_text(&edited).expect("whitespace is ignored");
    assert_eq!(repository_to_string(&loaded), canonical, "same models");
    assert_ne!(repo_fingerprint(&loaded), repo_fingerprint(&repo));

    let sidecar = RepoIndex::build(&repo, &IndexConfig::default());
    let mut stale = Detector::new(loaded, 0.2).expect("threshold");
    assert!(
        stale.set_index(sidecar.clone()).is_err(),
        "the canonical file's sidecar reads as stale"
    );
    let rebuilt = stale.build_index();
    stale.set_index(rebuilt).expect("a rebuilt index fits");

    let mut fresh = Detector::new(ModelRepository::from_text(&canonical).unwrap(), 0.2).unwrap();
    fresh
        .set_index(sidecar)
        .expect("the sidecar fits its own file");
    let params = PocParams::default();
    let config = ModelingConfig::default();
    for target in [
        poc::flush_reload_mastik(&params),
        poc::representative(AttackFamily::PrimeProbe, &params),
    ] {
        let a = fresh
            .classify(&target.program, &target.victim, &config)
            .unwrap();
        let b = stale
            .classify(&target.program, &target.victim, &config)
            .unwrap();
        assert_eq!(
            detection_json(target.name(), &a).to_string(),
            detection_json(target.name(), &b).to_string(),
            "{}",
            target.name()
        );
    }
}
