//! Algorithm 1 as a step machine for exhaustive checking.

use tokensync_core::analysis::SyncWitness;
use tokensync_core::erc20::{Erc20Spec, Erc20State};
use tokensync_core::token_consensus::{Algorithm1, RaceMode};
use tokensync_spec::{AccountId, ProcessId};

use super::RaceProtocol;

/// Algorithm 1 over an explicit token state.
///
/// Participants are `p_0 .. p_{m-1}`; `p_0` owns the race account `a_0`.
/// The destination account is the extra account `a_m` (its owner takes no
/// steps). One atomic step = one shared-object operation, matching the
/// granularity of the paper's adversary.
pub type TokenRace = RaceProtocol<Algorithm1, Erc20Spec>;

impl TokenRace {
    /// Builds the race over an explicit state for `participants` processes
    /// (rank 0 = owner of `a_0`).
    ///
    /// # Panics
    ///
    /// Panics if the state has fewer than `participants + 1` accounts (one
    /// extra account serves as the destination).
    pub fn from_state(initial: Erc20State, participants: usize, mode: RaceMode) -> Self {
        assert!(
            initial.accounts() > participants,
            "need an extra account as destination"
        );
        let account = AccountId::new(0);
        let witness = SyncWitness {
            account,
            participants: (0..participants).map(ProcessId::new).collect(),
            balance: initial.balance(account),
            allowances: (1..participants)
                .map(|i| initial.allowance(account, ProcessId::new(i)))
                .collect(),
        };
        Self {
            race: Algorithm1 {
                witness,
                destination: AccountId::new(participants),
                mode,
            },
            object: Erc20Spec::new(initial),
            fire: |p| match p.index() {
                0 => format!("{p}: transfer(a_dest, B) [owner race]"),
                r => format!("{p}: transferFrom(a0, a_dest, A_{r}) [spender race]"),
            },
            read: |p, j| format!("{p}: read allowance(a0, p{})", j + 1),
        }
    }

    /// A genuine `k`-synchronization state: balance 2 on `a_0`, spenders
    /// with allowance 2 each (pairwise `2 + 2 > 2`, and `A_i ≤ B`), in
    /// [`RaceMode::Generalized`]. Theorem 2 instance — the explorer
    /// verifies it.
    pub fn in_sync_state(k: usize) -> Self {
        Self::in_sync_state_with_mode(k, RaceMode::Generalized)
    }

    /// As [`TokenRace::in_sync_state`] with an explicit mode (the verbatim
    /// algorithm is also correct here because `A_i ≤ B`).
    pub fn in_sync_state_with_mode(k: usize, mode: RaceMode) -> Self {
        assert!(k >= 1);
        Self::from_state(sync_state(k, k), k, mode)
    }

    /// Overreach: the state supports `k` spenders but `k + extra`
    /// processes run the (naively extended) algorithm — the extra
    /// participants have zero allowance. Theorem 3's boundary: the
    /// explorer finds agreement/validity violations.
    pub fn overreach(k: usize, extra: usize, mode: RaceMode) -> Self {
        assert!(k >= 1 && extra >= 1);
        Self::from_state(sync_state(k, k + extra), k + extra, mode)
    }

    /// A `Q_3` state where predicate `U` fails: balance 2, two spenders
    /// with allowance 1 each (`1 + 1 = 2`, not `> 2`) — both withdrawals
    /// fit, two winners are possible, and the explorer finds the
    /// disagreement.
    pub fn with_u_violated() -> Self {
        let mut q = Erc20State::from_balances(vec![2, 0, 0, 0]);
        q.set_allowance(AccountId::new(0), ProcessId::new(1), 1);
        q.set_allowance(AccountId::new(0), ProcessId::new(2), 1);
        Self::from_state(q, 3, RaceMode::Generalized)
    }

    /// A literal `S_2` state (`U` holds: `|σ| = 2`, balance positive) whose
    /// spender allowance *exceeds* the balance: balance 1, allowance 3.
    /// The verbatim algorithm's `transferFrom(3)` can never succeed, and a
    /// spender scheduled first decides `⊥` — the validity gap the
    /// generalized mode closes.
    pub fn verbatim_oversized() -> Self {
        let mut q = Erc20State::from_balances(vec![1, 0, 0]);
        q.set_allowance(AccountId::new(0), ProcessId::new(1), 3);
        Self::from_state(q, 2, RaceMode::Verbatim)
    }

    /// Same state as [`TokenRace::verbatim_oversized`] but run in
    /// generalized mode — verified.
    pub fn generalized_oversized() -> Self {
        let mut q = Erc20State::from_balances(vec![1, 0, 0]);
        q.set_allowance(AccountId::new(0), ProcessId::new(1), 3);
        Self::from_state(q, 2, RaceMode::Generalized)
    }
}

/// Balance 2 on `a_0` and allowance 2 for spenders `p_1 .. p_{k-1}`, in
/// a state of `m + 1` accounts (`m` participants and the destination).
fn sync_state(k: usize, m: usize) -> Erc20State {
    let mut balances = vec![0; m + 1];
    balances[0] = 2;
    let mut q = Erc20State::from_balances(balances);
    for i in 1..k {
        q.set_allowance(AccountId::new(0), ProcessId::new(i), 2);
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{Explorer, Outcome, Violation};
    use crate::protocols::BOTTOM;

    #[test]
    fn sync_states_verified_exhaustively_generalized() {
        for k in 1..=3 {
            let report = Explorer::new(&TokenRace::in_sync_state(k)).run();
            assert!(
                matches!(report.outcome, Outcome::Verified),
                "k={k}: {:?}",
                report.outcome
            );
        }
    }

    #[test]
    fn sync_states_verified_exhaustively_verbatim() {
        for k in 1..=3 {
            let report =
                Explorer::new(&TokenRace::in_sync_state_with_mode(k, RaceMode::Verbatim)).run();
            assert!(
                matches!(report.outcome, Outcome::Verified),
                "k={k}: {:?}",
                report.outcome
            );
        }
    }

    #[test]
    fn overreach_violates() {
        // k = 2 spenders supported, 3 processes racing: some interleaving
        // breaks agreement or validity.
        let report = Explorer::new(&TokenRace::overreach(2, 1, RaceMode::Verbatim)).run();
        assert!(report.violation().is_some(), "{:?}", report.outcome);
        let report = Explorer::new(&TokenRace::overreach(2, 1, RaceMode::Generalized)).run();
        assert!(report.violation().is_some(), "{:?}", report.outcome);
    }

    #[test]
    fn u_violation_breaks_agreement() {
        let report = Explorer::new(&TokenRace::with_u_violated()).run();
        match report.outcome {
            Outcome::Violated(Violation::Disagreement { ref values, .. }) => {
                assert!(values.len() >= 2);
            }
            ref other => panic!("expected disagreement, got {other:?}"),
        }
    }

    #[test]
    fn verbatim_oversized_allowance_breaks_validity() {
        let report = Explorer::new(&TokenRace::verbatim_oversized()).run();
        match report.outcome {
            Outcome::Violated(Violation::Invalidity { value, .. }) => {
                assert_eq!(value, BOTTOM, "the spender reads an unwritten register");
            }
            ref other => panic!("expected invalidity, got {other:?}"),
        }
    }

    #[test]
    fn generalized_mode_closes_the_gap() {
        let report = Explorer::new(&TokenRace::generalized_oversized()).run();
        assert!(
            matches!(report.outcome, Outcome::Verified),
            "{:?}",
            report.outcome
        );
    }

    #[test]
    fn violation_schedules_replay() {
        // The reported schedule, replayed step by step, reproduces the
        // violation.
        let protocol = TokenRace::with_u_violated();
        let report = Explorer::new(&protocol).run();
        let violation = report.violation().expect("violation expected").clone();
        let mut config = crate::protocol::Config::initial(&protocol);
        for p in violation.schedule() {
            config.advance(&protocol, *p);
        }
        let decided: Vec<u64> = config.decided.iter().filter_map(|d| *d).collect();
        let mut distinct = decided.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() >= 2, "replay did not reproduce: {decided:?}");
    }
}
