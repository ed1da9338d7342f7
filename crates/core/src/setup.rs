//! Driving a token into a synchronization state.
//!
//! Theorem 2 applies once the object *is* in a state of `S_k`; the paper
//! stresses (after Theorem 3) that *getting there* is not wait-free — it
//! requires the owner of an account with positive balance to successfully
//! execute `k − 1` `approve` operations, and the owner may crash first.
//! This module provides that (non-wait-free) preparation step, plus fixture
//! helpers for tests and benches.

use std::fmt;

use tokensync_spec::{AccountId, Amount, ProcessId};

use crate::analysis::{sync_level, SyncWitness};
use crate::erc20::Erc20State;
use crate::shared::ConcurrentToken;

/// Errors from [`prepare_sync_state`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SetupError {
    /// The owner's account has zero balance — `U` can never hold.
    EmptyAccount {
        /// The account that cannot anchor a race.
        account: AccountId,
    },
    /// An `approve` failed (out-of-range spender).
    ApproveFailed {
        /// The spender whose approval failed.
        spender: ProcessId,
    },
    /// The resulting state does not satisfy `U` on the owner's account —
    /// the requested allowances do not pairwise exceed the balance.
    NotUnique {
        /// The account that ended up without the unique-winner guarantee.
        account: AccountId,
    },
}

impl fmt::Display for SetupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetupError::EmptyAccount { account } => {
                write!(f, "account {account} has zero balance")
            }
            SetupError::ApproveFailed { spender } => {
                write!(f, "approve of {spender} failed")
            }
            SetupError::NotUnique { account } => write!(
                f,
                "allowances on {account} do not satisfy the unique-winner predicate U"
            ),
        }
    }
}

impl std::error::Error for SetupError {}

/// Allowance values that put an account with balance `balance` into a
/// synchronization state with `k` participants: `k − 1` equal allowances of
/// `⌊balance/2⌋ + 1`, which pairwise exceed the balance and never exceed it
/// individually (for `balance ≥ 1`).
pub fn pairwise_exceeding_allowances(k: usize, balance: Amount) -> Vec<Amount> {
    vec![balance / 2 + 1; k.saturating_sub(1)]
}

/// Drives `token` into a synchronization state anchored at `owner`'s
/// account by approving each of `spenders` with the corresponding allowance,
/// then validates `U` and returns the [`SyncWitness`] to hand to
/// [`TokenConsensus`](crate::token_consensus::TokenConsensus).
///
/// This is the operation sequence of equation (12): each successful
/// `approve` moves the state from `Q_k` to `Q_{k+1}`. It is **not**
/// wait-free — it completes only if the owner stays alive through all
/// `k − 1` approvals, which is exactly why the token's consensus number is
/// state-dependent rather than always `n`.
///
/// # Errors
///
/// See [`SetupError`]. On error the token may be left with some approvals
/// already applied (mirroring a crashed owner mid-preparation).
pub fn prepare_sync_state<T: ConcurrentToken>(
    token: &T,
    owner: ProcessId,
    spenders: &[ProcessId],
    allowances: &[Amount],
) -> Result<SyncWitness, SetupError> {
    assert_eq!(
        spenders.len(),
        allowances.len(),
        "one allowance per spender required"
    );
    let account = owner.own_account();
    if token.balance_of(account) == 0 {
        return Err(SetupError::EmptyAccount { account });
    }
    for (spender, allowance) in spenders.iter().zip(allowances) {
        token
            .approve(owner, *spender, *allowance)
            .map_err(|_| SetupError::ApproveFailed { spender: *spender })?;
    }
    SyncWitness::for_account(&token.snapshot(), account).ok_or(SetupError::NotUnique { account })
}

/// Builds a fixture state in `S_k`: `n` accounts, balance `balance` on
/// account 0, spenders `p_1 .. p_{k-1}` approved with pairwise-exceeding
/// allowances. Returns the state and its witness.
///
/// # Panics
///
/// Panics if `k == 0`, `k > n`, or `balance == 0`.
pub fn sync_state_fixture(k: usize, n: usize, balance: Amount) -> (Erc20State, SyncWitness) {
    assert!(k >= 1 && k <= n, "need 1 ≤ k ≤ n");
    assert!(balance > 0, "the race account needs positive balance");
    let mut balances = vec![0; n];
    balances[0] = balance;
    let mut state = Erc20State::from_balances(balances);
    for (i, allowance) in pairwise_exceeding_allowances(k, balance)
        .into_iter()
        .enumerate()
    {
        state.set_allowance(AccountId::new(0), ProcessId::new(i + 1), allowance);
    }
    let witness = SyncWitness::for_account(&state, AccountId::new(0))
        .expect("fixture construction satisfies U by design");
    assert_eq!(witness.k(), k);
    (state, witness)
}

/// Convenience: the best sync level reachable *right now* plus what a
/// provisioning layer should do — used by examples and the dynamic
/// protocol.
pub fn current_sync_level(state: &Erc20State) -> usize {
    sync_level(state).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{consensus_number_bounds, unique_transfers};
    use crate::shared::{CoarseErc20, ConcurrentObject, SharedErc20};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }
    fn a(i: usize) -> AccountId {
        AccountId::new(i)
    }

    #[test]
    fn fixture_is_exactly_sk() {
        for k in 1..=5 {
            let (state, w) = sync_state_fixture(k, 6, 10);
            assert_eq!(w.k(), k);
            assert!(unique_transfers(&state, a(0)));
            assert_eq!(consensus_number_bounds(&state).exact(), Some(k));
        }
    }

    #[test]
    fn fixture_balance_one_still_works() {
        let (state, w) = sync_state_fixture(3, 4, 1);
        assert_eq!(w.allowances, vec![1, 1]);
        assert!(unique_transfers(&state, a(0)));
    }

    #[test]
    fn prepare_reaches_sk_on_live_token() {
        let token = SharedErc20::deploy(5, p(0), 20);
        let spenders = [p(1), p(2), p(3)];
        let allowances = pairwise_exceeding_allowances(4, 20);
        let w = prepare_sync_state(&token, p(0), &spenders, &allowances).unwrap();
        assert_eq!(w.k(), 4);
        assert_eq!(w.balance, 20);
        assert_eq!(consensus_number_bounds(&token.snapshot()).exact(), Some(4));
    }

    #[test]
    fn prepare_rejects_empty_account() {
        let token = CoarseErc20::deploy(3, p(0), 5);
        let err = prepare_sync_state(&token, p(1), &[p(2)], &[3]).unwrap_err();
        assert_eq!(err, SetupError::EmptyAccount { account: a(1) });
    }

    #[test]
    fn prepare_rejects_non_unique_allowances() {
        let token = CoarseErc20::deploy(4, p(0), 10);
        // 3 + 4 ≤ 10: two spenders could both win.
        let err = prepare_sync_state(&token, p(0), &[p(1), p(2)], &[3, 4]).unwrap_err();
        assert_eq!(err, SetupError::NotUnique { account: a(0) });
    }

    #[test]
    fn prepare_rejects_unknown_spender() {
        let token = CoarseErc20::deploy(2, p(0), 10);
        let err = prepare_sync_state(&token, p(0), &[p(7)], &[6]).unwrap_err();
        assert_eq!(err, SetupError::ApproveFailed { spender: p(7) });
    }

    #[test]
    #[should_panic(expected = "1 ≤ k ≤ n")]
    fn fixture_validates_k() {
        sync_state_fixture(5, 3, 10);
    }
}
