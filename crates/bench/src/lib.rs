//! # sca-bench — benchmarks and ablation studies
//!
//! Two kinds of artifacts live here:
//!
//! * **Benches** (`benches/`, driven by the std-only [`harness`]):
//!   per-component performance (`components`) and per-experiment wall
//!   time at reduced scale (`experiments`) — one bench group per
//!   table/figure of the paper.
//! * **Ablation binaries** (`src/bin/ablations.rs`): quality comparisons
//!   for the design choices DESIGN.md calls out — the CST distance
//!   components, DTW vs lock-step alignment, the attack-relevant graph vs
//!   naive block selection, and CST-replay cache policy sensitivity.
//!
//! The helpers below build the standard fixtures both share.

pub mod harness;

use sca_attacks::poc::{self, PocParams};
use sca_attacks::{AttackFamily, Sample};
use scaguard::{build_model, CstBbs, ModelingConfig};

/// The default fixture parameters used by benches and ablations.
pub fn fixture_params() -> PocParams {
    PocParams::default()
}

/// The representative PoC sample of each family.
pub fn fixture_pocs() -> Vec<(AttackFamily, Sample)> {
    let params = fixture_params();
    AttackFamily::ALL
        .iter()
        .map(|&f| (f, poc::representative(f, &params)))
        .collect()
}

/// A pair of CST-BBS models for similarity benches: two different
/// Flush+Reload implementations.
///
/// # Panics
///
/// Panics if modeling fails (fixtures are known-good).
pub fn fixture_model_pair() -> (CstBbs, CstBbs) {
    let params = fixture_params();
    let model = |s: Sample| {
        build_model(&s.program, &s.victim, &ModelingConfig::default())
            .expect("fixture models")
            .cst_bbs
    };
    (
        model(poc::flush_reload_iaik(&params)),
        model(poc::flush_reload_mastik(&params)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        assert_eq!(fixture_pocs().len(), 4);
        let (a, b) = fixture_model_pair();
        assert!(!a.is_empty() && !b.is_empty());
    }
}
