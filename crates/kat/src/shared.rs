//! Linearizable concurrent implementation of the asset transfer object.

use std::fmt;

use parking_lot::Mutex;
use tokensync_spec::{AccountId, Amount, ProcessId};

use crate::owner_map::OwnerMap;
use crate::spec::{AtOp, AtResp};

/// Errors returned by [`SharedAt`] operations; each corresponds to a `FALSE`
/// response of Definition 1's `Δ`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AtError {
    /// The caller is not in `µ(from)`.
    NotOwner,
    /// `β(from) < value`.
    InsufficientBalance,
    /// The source or destination account does not exist.
    UnknownAccount,
}

impl fmt::Display for AtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtError::NotOwner => write!(f, "caller does not own the source account"),
            AtError::InsufficientBalance => write!(f, "source balance is insufficient"),
            AtError::UnknownAccount => write!(f, "account does not exist"),
        }
    }
}

impl std::error::Error for AtError {}

/// A linearizable, concurrently accessible asset transfer object.
///
/// Balances live behind per-account locks; a transfer acquires the two
/// involved accounts' locks in index order, making every operation a single
/// bounded critical section (deadlock-free, no lock is ever held while
/// acquiring a lower-indexed one).
///
/// The owner map is fixed at construction — `k`-AT is a *static* object; the
/// paper builds its dynamic-ownership emulation on top (Algorithm 2), which
/// is provided by `tokensync-core`. The owner map can be *replaced
/// wholesale* via [`SharedAt::replace_owner_map`], which models the
/// Theorem 4 device of "creating a fresh `k`-AT instance with the same
/// balances and a new owner map"; the instance counter records how many
/// logical instances the chain has used.
///
/// # Example
///
/// ```
/// use tokensync_kat::{OwnerMap, SharedAt};
/// use tokensync_spec::{AccountId, ProcessId};
///
/// let at = SharedAt::new(OwnerMap::identity(2), vec![3, 0]);
/// at.transfer(ProcessId::new(0), AccountId::new(0), AccountId::new(1), 2)?;
/// assert_eq!(at.balance_of(AccountId::new(1)), 2);
/// # Ok::<(), tokensync_kat::AtError>(())
/// ```
pub struct SharedAt {
    owners: Mutex<OwnerMap>,
    balances: Vec<Mutex<Amount>>,
    instances: Mutex<u64>,
}

impl SharedAt {
    /// Creates the object with `owners` and initial balances `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `initial.len() != owners.accounts()`.
    pub fn new(owners: OwnerMap, initial: Vec<Amount>) -> Self {
        assert_eq!(
            initial.len(),
            owners.accounts(),
            "one initial balance per account required"
        );
        Self {
            owners: Mutex::new(owners),
            balances: initial.into_iter().map(Mutex::new).collect(),
            instances: Mutex::new(1),
        }
    }

    /// Number of accounts.
    pub fn accounts(&self) -> usize {
        self.balances.len()
    }

    /// The current sharing level `k`.
    pub fn k(&self) -> usize {
        self.owners.lock().k()
    }

    /// `transfer(from, to, value)` on behalf of `process` (Definition 1).
    ///
    /// # Errors
    ///
    /// * [`AtError::UnknownAccount`] if either account is out of range.
    /// * [`AtError::NotOwner`] if `process ∉ µ(from)`.
    /// * [`AtError::InsufficientBalance`] if `β(from) < value`.
    pub fn transfer(
        &self,
        process: ProcessId,
        from: AccountId,
        to: AccountId,
        value: Amount,
    ) -> Result<(), AtError> {
        let (f, t) = (from.index(), to.index());
        if f >= self.balances.len() || t >= self.balances.len() {
            return Err(AtError::UnknownAccount);
        }
        if !self.owners.lock().is_owner(from, process) {
            return Err(AtError::NotOwner);
        }
        if f == t {
            let bal = self.balances[f].lock();
            return if *bal >= value {
                Ok(())
            } else {
                Err(AtError::InsufficientBalance)
            };
        }
        // Ordered two-lock acquisition keeps the pair atomic and deadlock
        // free.
        let (first, second) = (f.min(t), f.max(t));
        let mut guard_first = self.balances[first].lock();
        let mut guard_second = self.balances[second].lock();
        let (src, dst) = if f < t {
            (&mut *guard_first, &mut *guard_second)
        } else {
            (&mut *guard_second, &mut *guard_first)
        };
        if *src < value {
            return Err(AtError::InsufficientBalance);
        }
        *src -= value;
        *dst += value;
        Ok(())
    }

    /// Applies an operation of Definition 1's alphabet, answering like
    /// [`AtSpec`](crate::AtSpec).
    pub fn apply(&self, process: ProcessId, op: &AtOp) -> AtResp {
        match *op {
            AtOp::Transfer { from, to, value } => {
                AtResp::Bool(self.transfer(process, from, to, value).is_ok())
            }
            AtOp::BalanceOf { account } => AtResp::Amount(self.balance_of(account)),
        }
    }

    /// `balanceOf(account)`. Unknown accounts read as 0.
    pub fn balance_of(&self, account: AccountId) -> Amount {
        self.balances
            .get(account.index())
            .map(|b| *b.lock())
            .unwrap_or(0)
    }

    /// Sum of all balances (diagnostic; locks accounts one at a time, so the
    /// value is a *consistent total* only while quiescent — under transfers
    /// it may transiently miscount in-flight pairs, but our tests call it at
    /// quiescent points).
    pub fn total(&self) -> Amount {
        self.balances.iter().map(|b| *b.lock()).sum()
    }

    /// Whether `process ∈ µ(account)` in the current instance.
    pub fn is_owner(&self, account: AccountId, process: ProcessId) -> bool {
        self.owners.lock().is_owner(account, process)
    }

    /// Replaces the owner map, modelling the creation of a fresh `k`-AT
    /// instance with identical balances (proof of Theorem 4).
    ///
    /// Returns the new instance count.
    ///
    /// # Panics
    ///
    /// Panics if the new map's account count differs.
    pub fn replace_owner_map(&self, owners: OwnerMap) -> u64 {
        assert_eq!(owners.accounts(), self.balances.len());
        *self.owners.lock() = owners;
        let mut count = self.instances.lock();
        *count += 1;
        *count
    }

    /// Replaces the owner set of a single account, modelling a fresh `k`-AT
    /// instance whose owner map differs only at `account` (the Algorithm 2
    /// `approve` path re-instantiates the object whenever an account's
    /// spender set changes).
    ///
    /// Returns the new instance count.
    ///
    /// # Panics
    ///
    /// Panics if `account` is out of range.
    pub fn set_account_owners(
        &self,
        account: AccountId,
        owners: std::collections::BTreeSet<ProcessId>,
    ) -> u64 {
        self.owners.lock().set_owners(account, owners);
        let mut count = self.instances.lock();
        *count += 1;
        *count
    }

    /// Number of logical `k`-AT instances used so far (1 = the original).
    pub fn instances(&self) -> u64 {
        *self.instances.lock()
    }

    /// A snapshot of the balances vector (diagnostic).
    pub fn balances_snapshot(&self) -> Vec<Amount> {
        self.balances.iter().map(|b| *b.lock()).collect()
    }
}

impl fmt::Debug for SharedAt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedAt")
            .field("balances", &self.balances_snapshot())
            .field("k", &self.k())
            .finish()
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

    #[test]
    fn transfer_and_balance() {
        let at = SharedAt::new(OwnerMap::identity(2), vec![10, 0]);
        at.transfer(p(0), a(0), a(1), 4).unwrap();
        assert_eq!(at.balance_of(a(0)), 6);
        assert_eq!(at.balance_of(a(1)), 4);
    }

    #[test]
    fn error_cases() {
        let at = SharedAt::new(OwnerMap::identity(2), vec![10, 0]);
        assert_eq!(at.transfer(p(1), a(0), a(1), 1), Err(AtError::NotOwner));
        assert_eq!(
            at.transfer(p(0), a(0), a(1), 11),
            Err(AtError::InsufficientBalance)
        );
        assert_eq!(
            at.transfer(p(0), a(0), a(5), 1),
            Err(AtError::UnknownAccount)
        );
        assert_eq!(at.balance_of(a(0)), 10);
    }

    #[test]
    fn self_transfer_checks_balance_but_keeps_state() {
        let at = SharedAt::new(OwnerMap::identity(1), vec![3]);
        at.transfer(p(0), a(0), a(0), 3).unwrap();
        assert_eq!(
            at.transfer(p(0), a(0), a(0), 4),
            Err(AtError::InsufficientBalance)
        );
        assert_eq!(at.balance_of(a(0)), 3);
    }

    #[test]
    fn concurrent_transfers_conserve_supply() {
        let n = 4;
        let mut owners = OwnerMap::identity(n);
        // Make account 0 shared by everyone to stress the same lock pair.
        for i in 0..n {
            owners.add_owner(a(0), p(i));
        }
        let at = SharedAt::new(owners, vec![1000, 10, 10, 10]);
        std::thread::scope(|s| {
            for i in 0..n {
                let at = &at;
                s.spawn(move || {
                    for round in 0..200 {
                        let to = a((round + i) % n);
                        let _ = at.transfer(p(i), a(0), to, 1);
                        let _ = at.transfer(p(i), a(i), a(0), 1);
                    }
                });
            }
        });
        assert_eq!(at.total(), 1030);
    }

    #[test]
    fn exactly_one_draining_transfer_succeeds() {
        // The heart of the consensus constructions: when the balance only
        // covers one full withdrawal, exactly one concurrent withdrawal
        // succeeds.
        for _ in 0..100 {
            let n = 4;
            let mut owners = OwnerMap::new(n + 1);
            for i in 0..n {
                owners.add_owner(a(0), p(i));
                owners.add_owner(a(i + 1), p(i));
            }
            let at = SharedAt::new(owners, vec![7, 0, 0, 0, 0]);
            let successes = std::thread::scope(|s| {
                let handles: Vec<_> = (0..n)
                    .map(|i| {
                        let at = &at;
                        s.spawn(move || at.transfer(p(i), a(0), a(i + 1), 7).is_ok())
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .filter(|&won| won)
                    .count()
            });
            assert_eq!(successes, 1);
            assert_eq!(at.balance_of(a(0)), 0);
        }
    }

    #[test]
    fn replace_owner_map_bumps_instance_count() {
        let at = SharedAt::new(OwnerMap::identity(2), vec![1, 0]);
        assert_eq!(at.instances(), 1);
        let mut next = OwnerMap::identity(2);
        next.add_owner(a(0), p(1));
        assert_eq!(at.replace_owner_map(next), 2);
        assert!(at.is_owner(a(0), p(1)));
    }
}
