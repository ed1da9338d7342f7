//! Section 6 adaptations as step machines: consensus races over ERC777
//! and ERC721 objects, exhaustively model-checked.
//!
//! These reuse the *actual* sequential token states from
//! `tokensync-core::standards` as the explicit shared state, and the same
//! decisive parts the threaded `Erc777Consensus` and `Erc721Consensus`
//! run, so the model checker explores exactly the race that runs.

use tokensync_core::standards::erc721::{race_state, Erc721Spec, NftRace};
use tokensync_core::standards::erc777::{race_token, Erc777Spec};
use tokensync_kat::Drain;
use tokensync_spec::Amount;

use super::RaceProtocol;

/// The ERC777 consensus race (Section 6): `k` operators of account `a_0`
/// race `operatorSend(a_0, a_{i+1}, B)`; the unique destination holding
/// `B` names the winner. Because operator withdrawals are all-or-nothing,
/// no `U`-style side condition is needed — the paper's "immediate"
/// extension, verified here for every interleaving.
pub type Erc777Race = RaceProtocol<Drain, Erc777Spec>;

impl Erc777Race {
    /// Creates the race for `k` movers with source balance `balance`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `balance == 0`.
    pub fn new(k: usize, balance: Amount) -> Self {
        let race = Drain::new(k, balance);
        Self {
            object: Erc777Spec::new(race_token(&race)),
            race,
            fire: |p| format!("{p}: operatorSend(a0 → a{}, B)", p.index() + 1),
            read: |p, j| format!("{p}: read balance(a{})", j + 1),
        }
    }
}

/// The ERC721 consensus race (Section 6): the `k` movers of one NFT race
/// `transferFrom`; ownership changes exactly once and `ownerOf` names the
/// winner (the owner parks the NFT at a sink process, see
/// `core::standards::erc721::race_state`, which lays the race out for
/// both this checker and `Erc721Consensus`).
pub type Erc721Race = RaceProtocol<NftRace, Erc721Spec>;

impl Erc721Race {
    /// Creates the race for `k` movers (owner `p_0`, sink `p_k`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        Self {
            race: NftRace { k },
            object: Erc721Spec::new(race_state(k)),
            fire: |p| format!("{p}: transferFrom(nft0)"),
            read: |p, _| format!("{p}: read ownerOf(nft0) and decide"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{Explorer, Outcome};
    use crate::valence;

    #[test]
    fn erc777_race_verified_for_small_k() {
        for k in 1..=3 {
            let report = Explorer::new(&Erc777Race::new(k, 2)).run();
            assert!(
                matches!(report.outcome, Outcome::Verified),
                "k={k}: {:?}",
                report.outcome
            );
        }
    }

    #[test]
    fn erc721_race_verified_for_small_k() {
        for k in 1..=4 {
            let report = Explorer::new(&Erc721Race::new(k)).run();
            assert!(
                matches!(report.outcome, Outcome::Verified),
                "k={k}: {:?}",
                report.outcome
            );
        }
    }

    #[test]
    fn erc721_race_has_critical_configurations_on_the_nft_transfer() {
        let report = valence::analyze(&Erc721Race::new(2));
        assert!(!report.critical.is_empty());
        for critical in &report.critical {
            for (_, step, _) in &critical.pending {
                assert!(
                    step.contains("transferFrom"),
                    "decisive step should be the NFT transfer: {step}"
                );
            }
        }
    }

    #[test]
    fn erc777_balance_magnitude_is_irrelevant() {
        let report = Explorer::new(&Erc777Race::new(2, 9)).run();
        assert!(matches!(report.outcome, Outcome::Verified));
    }
}
