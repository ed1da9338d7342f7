//! Section 6 adaptations as step machines: consensus races over ERC777
//! and ERC721 objects, exhaustively model-checked.
//!
//! These reuse the *actual* sequential token states from
//! `tokensync-core::standards` as the explicit shared state, so the model
//! checker exercises exactly the semantics the threaded constructions run
//! on.

use tokensync_core::standards::erc721::{race_sink, race_state, Erc721State, RACE_NFT, RACE_OWNER};
use tokensync_core::standards::erc777::Erc777Token;
use tokensync_spec::{AccountId, Amount, ProcessId};

use crate::protocol::{Protocol, Step};
use crate::protocols::alg1::BOTTOM;

/// The ERC777 consensus race (Section 6): `k` operators of account `a_0`
/// race `operatorSend(a_0, a_{i+1}, B)`; the unique destination holding
/// `B` names the winner. Because operator withdrawals are all-or-nothing,
/// no `U`-style side condition is needed — the paper's "immediate"
/// extension, verified here for every interleaving.
#[derive(Clone, Debug)]
pub struct Erc777Race {
    k: usize,
    balance: Amount,
    initial: Erc777Token,
}

impl Erc777Race {
    /// Creates the race for `k` movers with source balance `balance`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `balance == 0`.
    pub fn new(k: usize, balance: Amount) -> Self {
        assert!(k >= 1 && balance > 0);
        let mut balances = vec![0; k + 1];
        balances[0] = balance;
        let mut token = Erc777Token::from_balances(balances);
        for i in 0..k {
            token
                .authorize_operator(ProcessId::new(0), ProcessId::new(i))
                .expect("ids in range");
        }
        Self {
            k,
            balance,
            initial: token,
        }
    }
}

impl Protocol for Erc777Race {
    type Shared = (Erc777Token, Vec<Option<u64>>);
    type Local = u8;

    fn processes(&self) -> usize {
        self.k
    }

    fn initial_shared(&self) -> Self::Shared {
        (self.initial.clone(), vec![None; self.k])
    }

    fn initial_local(&self, _p: ProcessId) -> u8 {
        0
    }

    fn proposal(&self, p: ProcessId) -> u64 {
        p.index() as u64 + 1
    }

    fn step(&self, shared: &mut Self::Shared, pc: &mut u8, p: ProcessId) -> Step {
        let (token, regs) = shared;
        let i = p.index();
        match *pc {
            0 => {
                regs[i] = Some(self.proposal(p));
                *pc = 1;
                Step::Continue
            }
            1 => {
                let _ =
                    token.operator_send(p, AccountId::new(0), AccountId::new(i + 1), self.balance);
                *pc = 2;
                Step::Continue
            }
            pc_val => {
                let j = (pc_val - 2) as usize;
                if j < self.k {
                    if token.balance_of(AccountId::new(j + 1)) == self.balance {
                        return Step::Decided(regs[j].unwrap_or(BOTTOM));
                    }
                    *pc = pc_val + 1;
                    Step::Continue
                } else {
                    Step::Decided(BOTTOM) // unreachable in correct runs
                }
            }
        }
    }

    fn describe_step(&self, _shared: &Self::Shared, pc: &u8, p: ProcessId) -> String {
        match *pc {
            0 => format!("{p}: write R[{}]", p.index()),
            1 => format!("{p}: operatorSend(a0 → a{}, B)", p.index() + 1),
            pc_val => format!("{p}: read balance(a{})", (pc_val - 2) as usize + 1),
        }
    }

    fn step_bound(&self) -> usize {
        self.k + 3
    }
}

/// The ERC721 consensus race (Section 6): the `k` movers of one NFT race
/// `transferFrom`; ownership changes exactly once and `ownerOf` names the
/// winner (the owner parks the NFT at a sink process, see
/// `core::standards::erc721::race_state`, which lays the race out for
/// both this checker and `Erc721Consensus`).
#[derive(Clone, Debug)]
pub struct Erc721Race {
    k: usize,
    initial: Erc721State,
}

impl Erc721Race {
    /// Creates the race for `k` movers (owner `p_0`, sink `p_k`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            initial: race_state(k),
        }
    }
}

impl Protocol for Erc721Race {
    type Shared = (Erc721State, Vec<Option<u64>>);
    type Local = u8;

    fn processes(&self) -> usize {
        self.k
    }

    fn initial_shared(&self) -> Self::Shared {
        (self.initial.clone(), vec![None; self.k])
    }

    fn initial_local(&self, _p: ProcessId) -> u8 {
        0
    }

    fn proposal(&self, p: ProcessId) -> u64 {
        p.index() as u64 + 1
    }

    fn step(&self, shared: &mut Self::Shared, pc: &mut u8, p: ProcessId) -> Step {
        let (token, regs) = shared;
        let i = p.index();
        let sink = race_sink(self.k);
        match *pc {
            0 => {
                regs[i] = Some(self.proposal(p));
                *pc = 1;
                Step::Continue
            }
            1 => {
                let target = if p == RACE_OWNER { sink } else { p };
                let _ = token.transfer_from(p, RACE_OWNER, target, RACE_NFT);
                *pc = 2;
                Step::Continue
            }
            _ => {
                let current = token.owner_of(RACE_NFT).expect("the NFT exists");
                // After my own attempt the owner cannot still be p0.
                let winner = if current == sink {
                    RACE_OWNER.index()
                } else {
                    current.index()
                };
                Step::Decided(regs.get(winner).copied().flatten().unwrap_or(BOTTOM))
            }
        }
    }

    fn describe_step(&self, _shared: &Self::Shared, pc: &u8, p: ProcessId) -> String {
        match *pc {
            0 => format!("{p}: write R[{}]", p.index()),
            1 => format!("{p}: transferFrom(nft0)"),
            _ => format!("{p}: read ownerOf(nft0) and decide"),
        }
    }

    fn step_bound(&self) -> usize {
        4
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
