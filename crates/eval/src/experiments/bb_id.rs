//! Table IV: accuracy of attack-relevant BB identification.

use sca_attacks::poc::{self, PocParams};
use sca_attacks::AttackFamily;
use scaguard::modeling::BbIdentificationStats;
use scaguard::{build_model, ModelError};

use crate::EvalConfig;

/// One Table-IV row: per-family counters aggregated over the family's
/// collected PoCs.
#[derive(Debug, Clone, Copy)]
pub struct BbIdRow {
    /// The attack family (None for the average row).
    pub family: Option<AttackFamily>,
    /// Aggregated counters (#BB, #TAB, #IAB, #ITAB).
    pub stats: BbIdentificationStats,
}

impl BbIdRow {
    /// Identification accuracy `#ITAB / #TAB`.
    pub fn accuracy(&self) -> f64 {
        self.stats.accuracy()
    }
}

/// Reproduce Table IV: for each attack family, model every collected PoC
/// and count total/ground-truth/identified/identified-truth blocks; the
/// final row is the aggregate.
///
/// # Errors
///
/// Propagates [`ModelError`] from the modeling pipeline.
pub fn bb_identification(cfg: &EvalConfig) -> Result<Vec<BbIdRow>, ModelError> {
    let params = PocParams::default();
    let pocs = poc::all_pocs(&params);
    let mut rows = Vec::new();
    let mut avg = BbIdentificationStats::default();
    for family in AttackFamily::ALL {
        let mut fam_stats = BbIdentificationStats::default();
        for (sample, _) in pocs.iter().filter(|(_, f)| *f == family) {
            let outcome = build_model(&sample.program, &sample.victim, &cfg.modeling)?;
            fam_stats.merge(&BbIdentificationStats::compute(&sample.program, &outcome));
        }
        avg.merge(&fam_stats);
        rows.push(BbIdRow {
            family: Some(family),
            stats: fam_stats,
        });
    }
    rows.push(BbIdRow {
        family: None,
        stats: avg,
    });
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_shape_holds() {
        let rows = bb_identification(&EvalConfig::small(2)).expect("table iv");
        assert_eq!(rows.len(), 5, "four families plus the average row");
        let avg = rows.last().unwrap();
        assert!(
            avg.accuracy() >= 0.9,
            "average ground-truth coverage {:.3} must be high (paper: 97.06%)",
            avg.accuracy()
        );
        for r in &rows[..4] {
            assert!(
                r.stats.identified < r.stats.total,
                "{:?}: identification must eliminate blocks ({} of {})",
                r.family,
                r.stats.identified,
                r.stats.total
            );
            assert!(r.stats.ground_truth > 0);
        }
    }
}
