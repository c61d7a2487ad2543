//! Cache states and cache state transitions (Definitions 3 and 4).

use std::fmt;

/// A cache state `(AO, IO)` — Definition 3 of the paper.
///
/// `AO` is the fraction of cache lines occupied by the attack program and
/// `IO` the fraction occupied by everyone else; `AO + IO <= 1` always holds
/// (the remainder being invalid lines).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CacheState {
    /// Attacker occupancy rate in `[0, 1]`.
    pub ao: f64,
    /// Non-attacker ("other") occupancy rate in `[0, 1]`.
    pub io: f64,
}

/// Floating-point tolerance on `AO + IO <= 1`.
const SUM_SLACK: f64 = 1e-9;

impl CacheState {
    /// Construct a cache state.
    ///
    /// # Panics
    ///
    /// Panics if either rate is outside `[0, 1]` or the rates sum to more
    /// than 1 (beyond floating-point tolerance).
    pub fn new(ao: f64, io: f64) -> CacheState {
        assert!((0.0..=1.0).contains(&ao), "AO out of range: {ao}");
        assert!((0.0..=1.0).contains(&io), "IO out of range: {io}");
        assert!(ao + io <= 1.0 + SUM_SLACK, "AO + IO > 1: {ao} + {io}");
        CacheState { ao, io }
    }

    /// [`CacheState::new`] for rates read from untrusted input: `None`
    /// where `new` would panic.
    pub fn try_new(ao: f64, io: f64) -> Option<CacheState> {
        let valid =
            (0.0..=1.0).contains(&ao) && (0.0..=1.0).contains(&io) && ao + io <= 1.0 + SUM_SLACK;
        valid.then_some(CacheState { ao, io })
    }

    /// The initial CST-measurement state: cache full of other data,
    /// attack not mounted (`IO = 1, AO = 0`).
    pub fn full_other() -> CacheState {
        CacheState { ao: 0.0, io: 1.0 }
    }

    /// The magnitude of change from `self` to `after`:
    /// `P = (|AO - AO'| + |IO - IO'|) / 2` (Section III-B.1).
    pub fn change_to(&self, after: &CacheState) -> f64 {
        ((self.ao - after.ao).abs() + (self.io - after.io).abs()) / 2.0
    }
}

impl fmt::Display for CacheState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(AO={:.3}, IO={:.3})", self.ao, self.io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_other_is_valid() {
        let s = CacheState::full_other();
        assert_eq!(s.ao, 0.0);
        assert_eq!(s.io, 1.0);
    }

    #[test]
    fn change_is_symmetric_and_zero_on_identity() {
        let a = CacheState::new(0.2, 0.7);
        let b = CacheState::new(0.5, 0.3);
        assert!((a.change_to(&b) - b.change_to(&a)).abs() < 1e-12);
        assert_eq!(a.change_to(&a), 0.0);
    }

    #[test]
    fn change_magnitude_example() {
        // full-other -> attacker displaced 40% of lines
        let before = CacheState::full_other();
        let after = CacheState::new(0.4, 0.6);
        assert!((before.change_to(&after) - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_negative_rate() {
        let _ = CacheState::new(-0.1, 0.5);
    }

    #[test]
    #[should_panic(expected = "AO + IO > 1")]
    fn rejects_oversum() {
        let _ = CacheState::new(0.7, 0.7);
    }

    #[test]
    fn try_new_declines_what_new_panics_on() {
        assert_eq!(
            CacheState::try_new(0.4, 0.6),
            Some(CacheState::new(0.4, 0.6))
        );
        assert_eq!(CacheState::try_new(-0.1, 0.5), None);
        assert_eq!(CacheState::try_new(0.7, 0.7), None);
        assert_eq!(CacheState::try_new(f64::NAN, 0.0), None);
    }
}
