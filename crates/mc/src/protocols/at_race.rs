//! Consensus from a `k`-shared asset transfer account, model-checked.

use tokensync_kat::{AtSpec, Drain};
use tokensync_spec::Amount;

use super::RaceProtocol;

/// The Guerraoui et al. lower-bound construction (`CN(k-AT) ≥ k`) as a step
/// machine: the `k` owners of account `a_0` (balance `B`) race to drain it
/// into per-process destination accounts `a_1 .. a_k`; the unique
/// destination holding `B` names the winner.
pub type AtRace = RaceProtocol<Drain, AtSpec>;

impl AtRace {
    /// Creates the race for `k` owners with shared balance `balance`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `balance == 0`.
    pub fn new(k: usize, balance: Amount) -> Self {
        let race = Drain::new(k, balance);
        Self {
            object: AtSpec::new(race.owners(), race.balances()),
            race,
            fire: |p| format!("{p}: transfer(a0 → a{}, B)", p.index() + 1),
            read: |p, j| format!("{p}: read balance(a{})", j + 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{Explorer, Outcome};

    #[test]
    fn at_consensus_verified_for_small_k() {
        for k in 1..=3 {
            let report = Explorer::new(&AtRace::new(k, 2)).run();
            assert!(
                matches!(report.outcome, Outcome::Verified),
                "k={k}: {:?}",
                report.outcome
            );
        }
    }

    #[test]
    fn balance_magnitude_is_irrelevant() {
        let report = Explorer::new(&AtRace::new(2, 7)).run();
        assert!(matches!(report.outcome, Outcome::Verified));
    }
}
