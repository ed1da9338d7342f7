//! The unique-winner predicate `U` (equation (13)) and the synchronization
//! states `S_k` (equation (14)).

use tokensync_spec::{AccountId, Amount, ProcessId};

use crate::erc20::Erc20State;

use super::spenders::enabled_spenders;

/// Evaluates the paper's predicate `U(account, q)` — equation (13):
///
/// ```text
/// U(a, q)  ⇔  β(a) > 0  ∧
///             (|σ_q(a)| ≤ 2  ∨  ∀ p_i ≠ p_j ∈ σ_q(a)\{ω(a)} :
///                                α(a, p_i) + α(a, p_j) > β(a))
/// ```
///
/// `U` guarantees a *unique winner* in the Algorithm 1 race: the balance
/// covers at most one of any two spenders' withdrawals.
pub fn unique_transfers(state: &Erc20State, account: AccountId) -> bool {
    let balance = state.balance(account);
    if balance == 0 {
        return false;
    }
    let sigma = enabled_spenders(state, account);
    if sigma.len() <= 2 {
        return true;
    }
    let owner = account.owner();
    let spenders: Vec<ProcessId> = sigma.into_iter().filter(|p| *p != owner).collect();
    spenders.iter().enumerate().all(|(i, pi)| {
        spenders[i + 1..]
            .iter()
            .all(|pj| state.allowance(account, *pi) + state.allowance(account, *pj) > balance)
    })
}

/// Whether the *verbatim* Algorithm 1 of the paper can run on `account`:
/// predicate `U` plus the "sufficient allowances" premise the proof of
/// Theorem 2 states in prose — every enabled spender's allowance must not
/// exceed the balance (`0 < A_i ≤ B`), so that each spender's
/// full-allowance `transferFrom` *can* succeed when scheduled first.
///
/// Without this extra condition the verbatim algorithm can violate validity
/// (a spender whose `transferFrom` can never succeed may decide `R[1]`
/// before the owner proposed); the generalized implementation in
/// [`token_consensus`](crate::token_consensus) removes the condition by
/// transferring `min(A_i, B)` and detecting winners via allowance
/// *decrease*. The model checker demonstrates both facts
/// (`tokensync-mc::protocols`).
pub fn algorithm1_ready(state: &Erc20State, account: AccountId) -> bool {
    if !unique_transfers(state, account) {
        return false;
    }
    let balance = state.balance(account);
    let owner = account.owner();
    enabled_spenders(state, account)
        .into_iter()
        .filter(|p| *p != owner)
        .all(|p| state.allowance(account, p) <= balance)
}

/// Whether `q ∈ S_k` — equation (14): some account has exactly `k` enabled
/// spenders and satisfies `U`.
///
/// For `k ≥ 2` only accounts with outstanding approvals can qualify, so
/// the search runs over the sparse approval support. `k = 1` additionally
/// admits any funded account with no approvals (`σ_q(a) = {ω(a)}`, `U`
/// trivial), which needs a balance scan — but only when no approval-
/// bearing account already witnesses level 1.
pub fn is_sync_state_for(state: &Erc20State, k: usize) -> bool {
    let witnessed = state
        .accounts_with_approvals()
        .any(|a| enabled_spenders(state, a).len() == k && unique_transfers(state, a));
    if witnessed {
        return true;
    }
    k == 1
        && (0..state.accounts()).any(|i| {
            let a = AccountId::new(i);
            state.approval_count(a) == 0 && state.balance(a) > 0
        })
}

/// A witness that consensus among `k` processes is implementable from the
/// current state: the account, its participants and the race parameters of
/// Algorithm 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyncWitness {
    /// The account `a_1` whose spenders race.
    pub account: AccountId,
    /// The participants, owner first: `σ_q(account)` ordered with
    /// `ω(account)` at index 0, remaining spenders in process order.
    pub participants: Vec<ProcessId>,
    /// The balance `B = β(account)`.
    pub balance: Amount,
    /// The allowances `A_i = α(account, p_i)` for the non-owner
    /// participants, aligned with `participants[1..]`.
    pub allowances: Vec<Amount>,
}

impl SyncWitness {
    /// The synchronization level `k = |σ_q(account)|`.
    pub fn k(&self) -> usize {
        self.participants.len()
    }

    /// The rank of `process` among the participants (0 = owner), or `None`
    /// if it is not a participant.
    pub fn rank(&self, process: ProcessId) -> Option<usize> {
        self.participants.iter().position(|p| *p == process)
    }

    /// Builds the witness for `account` in `state`, if `U` holds there.
    pub fn for_account(state: &Erc20State, account: AccountId) -> Option<Self> {
        if !unique_transfers(state, account) {
            return None;
        }
        let owner = account.owner();
        let mut participants = vec![owner];
        let mut allowances = Vec::new();
        for p in enabled_spenders(state, account) {
            if p != owner {
                participants.push(p);
                allowances.push(state.allowance(account, p));
            }
        }
        Some(Self {
            account,
            participants,
            balance: state.balance(account),
            allowances,
        })
    }
}

/// Computes the best provable synchronization level of `q`: the largest `k`
/// with `q ∈ S_k`, together with its witness.
///
/// Returns `(1, None)` when no account satisfies `U` (consensus among a
/// single process is trivially solvable with registers alone, so level 1
/// needs no witness).
///
/// Candidates with `k ≥ 2` all carry outstanding approvals, so the search
/// runs over the approval support in `O(n / 64 + outstanding approvals)`.
/// Accounts without approvals yield at most a `k = 1` witness (`σ_q(a) =
/// {ω(a)}` whenever `β(a) > 0`), of which only the lowest-id one can win
/// the tie-break — it is scanned for only when no stronger witness exists.
pub fn sync_level(state: &Erc20State) -> (usize, Option<SyncWitness>) {
    let key = |w: &SyncWitness| (w.k(), std::cmp::Reverse(w.account));
    let mut best = state
        .accounts_with_approvals()
        .filter_map(|a| SyncWitness::for_account(state, a))
        .max_by_key(key);
    if best.as_ref().is_none_or(|w| w.k() == 1) {
        let plain = (0..state.accounts())
            .map(AccountId::new)
            .find(|&a| state.approval_count(a) == 0 && state.balance(a) > 0);
        if let Some(w) = plain.and_then(|a| SyncWitness::for_account(state, a)) {
            if best.as_ref().is_none_or(|b| key(&w) > key(b)) {
                best = Some(w);
            }
        }
    }
    match best {
        Some(w) => (w.k().max(1), Some(w)),
        None => (1, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: usize) -> AccountId {
        AccountId::new(i)
    }
    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// Balance 10 on a0; two spenders with allowances 6 and 7 (6+7 > 10).
    fn s3_state() -> Erc20State {
        let mut q = Erc20State::from_balances(vec![10, 0, 0]);
        q.set_allowance(a(0), p(1), 6);
        q.set_allowance(a(0), p(2), 7);
        q
    }

    #[test]
    fn u_holds_for_pairwise_exceeding_allowances() {
        let q = s3_state();
        assert!(unique_transfers(&q, a(0)));
        assert!(is_sync_state_for(&q, 3));
        assert!(algorithm1_ready(&q, a(0)));
    }

    #[test]
    fn u_fails_when_two_spenders_fit_in_balance() {
        let mut q = s3_state();
        q.set_allowance(a(0), p(1), 3); // 3 + 7 = 10, not > 10
        assert!(!unique_transfers(&q, a(0)));
        assert!(!is_sync_state_for(&q, 3));
    }

    #[test]
    fn u_fails_on_zero_balance() {
        let mut q = s3_state();
        q.set_balance(a(0), 0);
        assert!(!unique_transfers(&q, a(0)));
    }

    #[test]
    fn u_trivial_for_two_or_fewer_spenders() {
        let mut q = Erc20State::from_balances(vec![5, 0]);
        assert!(unique_transfers(&q, a(0))); // owner only
        q.set_allowance(a(0), p(1), 2);
        assert!(unique_transfers(&q, a(0))); // owner + one spender
    }

    #[test]
    fn algorithm1_ready_requires_winnable_allowances() {
        // U holds (|σ| = 2) but the spender's allowance exceeds the balance:
        // the verbatim Algorithm 1 is not safe here.
        let mut q = Erc20State::from_balances(vec![5, 0]);
        q.set_allowance(a(0), p(1), 10);
        assert!(unique_transfers(&q, a(0)));
        assert!(!algorithm1_ready(&q, a(0)));
    }

    #[test]
    fn witness_orders_owner_first() {
        let w = SyncWitness::for_account(&s3_state(), a(0)).unwrap();
        assert_eq!(w.participants, vec![p(0), p(1), p(2)]);
        assert_eq!(w.balance, 10);
        assert_eq!(w.allowances, vec![6, 7]);
        assert_eq!(w.k(), 3);
        assert_eq!(w.rank(p(0)), Some(0));
        assert_eq!(w.rank(p(2)), Some(2));
        assert_eq!(w.rank(p(9)), None);
    }

    #[test]
    fn sync_level_picks_largest_witness() {
        let mut q = s3_state();
        // A second account with only its owner enabled: level stays 3.
        q.set_balance(a(1), 4);
        let (k, w) = sync_level(&q);
        assert_eq!(k, 3);
        assert_eq!(w.unwrap().account, a(0));
    }

    #[test]
    fn sync_level_finds_plain_funded_account_behind_dead_approvals() {
        // a0 carries approvals but no balance (no witness); the only
        // witness is the plain funded a2, reached by the fallback scan.
        let mut q = Erc20State::from_balances(vec![0, 0, 4]);
        q.set_allowance(a(0), p(1), 5);
        let (k, w) = sync_level(&q);
        assert_eq!(k, 1);
        assert_eq!(w.unwrap().account, a(2));
        assert!(is_sync_state_for(&q, 1));
        assert!(!is_sync_state_for(&q, 2));
    }

    #[test]
    fn sync_level_defaults_to_one_without_witness() {
        let q = Erc20State::new(2); // all balances zero: U nowhere
        let (k, w) = sync_level(&q);
        assert_eq!(k, 1);
        assert!(w.is_none());
    }
}
