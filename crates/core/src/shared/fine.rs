//! Per-account-locked concurrent token.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, MutexGuard};
use tokensync_spec::{AccountId, Amount, ProcessId};

use crate::erc20::{Erc20Op, Erc20Resp, Erc20State, SpenderMap};
use crate::error::TokenError;

use super::interface::{apply_erc20, ConcurrentObject, ConcurrentToken};

/// Everything owned by one account: its balance and the allowances it has
/// granted (`α(a, ·)` is written only through `a`'s lock). The allowance
/// row is sparse, so a cell costs `O(1 + outstanding approvals)` memory —
/// a million idle accounts cost a few machine words each, not a row of
/// the dense `n × n` matrix.
#[derive(Debug)]
struct AccountCell {
    balance: Amount,
    allowances: SpenderMap,
}

/// An ERC20 token with per-account locking.
///
/// Each operation locks only the accounts it touches, in ascending index
/// order (a global lock order, so no deadlock is possible):
///
/// * `transfer` / `transferFrom` — the source and destination cells;
/// * `approve`, `allowance`, `balanceOf` — one cell;
/// * `totalSupply` — **zero** cells: the supply is invariant under every
///   operation, so a constructor-cached atomic serves every read (debug
///   builds re-verify it against the full locked scan);
/// * [`ConcurrentObject::snapshot`] — all cells, ascending.
///
/// Operations on disjoint account pairs proceed fully in parallel, which is
/// precisely the parallelism opportunity the paper argues blockchains leave
/// on the table (Section 1). Linearizability is established empirically in
/// `shared::tests` via recorded histories and the
/// [`check_linearizable`](tokensync_spec::check_linearizable) oracle.
///
/// # Example
///
/// ```
/// use tokensync_core::shared::{ConcurrentToken, SharedErc20};
/// use tokensync_spec::{AccountId, ProcessId};
///
/// let token = SharedErc20::deploy(3, ProcessId::new(0), 100);
/// token.approve(ProcessId::new(0), ProcessId::new(2), 40)?;
/// token.transfer_from(ProcessId::new(2), AccountId::new(0), AccountId::new(1), 25)?;
/// assert_eq!(token.balance_of(AccountId::new(1)), 25);
/// assert_eq!(token.allowance(AccountId::new(0), ProcessId::new(2)), 15);
/// # Ok::<(), tokensync_core::TokenError>(())
/// ```
#[derive(Debug)]
pub struct SharedErc20 {
    cells: Vec<Mutex<AccountCell>>,
    /// Cached `Σ_a β(a)`; constant after construction because every
    /// operation conserves the supply.
    supply: AtomicU64,
}

impl SharedErc20 {
    /// Deploys a fresh token (deployer holds the whole supply).
    ///
    /// # Panics
    ///
    /// Panics if `deployer.index() >= n`.
    pub fn deploy(n: usize, deployer: ProcessId, total_supply: Amount) -> Self {
        Self::from_state(Erc20State::with_deployer(n, deployer, total_supply))
    }

    /// Wraps an arbitrary starting state (the paper's `T_q`).
    pub fn from_state(state: Erc20State) -> Self {
        let n = state.accounts();
        let supply = state.total_supply();
        let cells = (0..n)
            .map(|i| {
                let account = AccountId::new(i);
                Mutex::new(AccountCell {
                    balance: state.balance(account),
                    allowances: state.approval_row(account).clone(),
                })
            })
            .collect();
        Self {
            cells,
            supply: AtomicU64::new(supply),
        }
    }

    fn check_account(&self, account: AccountId) -> Result<(), TokenError> {
        if account.index() < self.cells.len() {
            Ok(())
        } else {
            Err(TokenError::UnknownAccount { account })
        }
    }

    fn check_process(&self, process: ProcessId) -> Result<(), TokenError> {
        if process.index() < self.cells.len() {
            Ok(())
        } else {
            Err(TokenError::UnknownProcess { process })
        }
    }

    /// Locks `from` and `to` in ascending order and runs `f` on the pair
    /// `(source cell, destination cell)`. `from != to` required.
    fn with_pair<R>(
        &self,
        from: AccountId,
        to: AccountId,
        f: impl FnOnce(&mut AccountCell, &mut AccountCell) -> R,
    ) -> R {
        let (lo, hi) = (from.index().min(to.index()), from.index().max(to.index()));
        debug_assert_ne!(lo, hi);
        let mut lo_guard = self.cells[lo].lock();
        let mut hi_guard = self.cells[hi].lock();
        if from.index() == lo {
            f(&mut lo_guard, &mut hi_guard)
        } else {
            f(&mut hi_guard, &mut lo_guard)
        }
    }

    /// Locks every cell in ascending order (for the global reads).
    fn lock_all(&self) -> Vec<MutexGuard<'_, AccountCell>> {
        self.cells.iter().map(Mutex::lock).collect()
    }
}

impl ConcurrentObject for SharedErc20 {
    type Op = Erc20Op;
    type Resp = Erc20Resp;
    type State = Erc20State;

    fn apply(&self, process: ProcessId, op: &Erc20Op) -> Erc20Resp {
        apply_erc20(self, process, op)
    }

    fn snapshot(&self) -> Erc20State {
        let guards = self.lock_all();
        let mut state = Erc20State::from_balances(guards.iter().map(|c| c.balance).collect());
        for (i, cell) in guards.iter().enumerate() {
            for (spender, v) in cell.allowances.iter() {
                state.set_allowance(AccountId::new(i), spender, v);
            }
        }
        state
    }
}

impl ConcurrentToken for SharedErc20 {
    fn accounts(&self) -> usize {
        self.cells.len()
    }

    fn transfer(&self, caller: ProcessId, to: AccountId, value: Amount) -> Result<(), TokenError> {
        self.check_process(caller)?;
        self.check_account(to)?;
        let from = caller.own_account();
        if from == to {
            let cell = self.cells[from.index()].lock();
            return if cell.balance >= value {
                Ok(())
            } else {
                Err(TokenError::InsufficientBalance {
                    account: from,
                    balance: cell.balance,
                    required: value,
                })
            };
        }
        self.with_pair(from, to, |src, dst| {
            if src.balance < value {
                return Err(TokenError::InsufficientBalance {
                    account: from,
                    balance: src.balance,
                    required: value,
                });
            }
            src.balance -= value;
            dst.balance += value;
            Ok(())
        })
    }

    fn transfer_from(
        &self,
        caller: ProcessId,
        from: AccountId,
        to: AccountId,
        value: Amount,
    ) -> Result<(), TokenError> {
        self.check_process(caller)?;
        self.check_account(from)?;
        self.check_account(to)?;
        let spend = |src: &mut AccountCell| -> Result<(), TokenError> {
            let allowance = src.allowances.get(caller.index());
            if allowance < value {
                return Err(TokenError::InsufficientAllowance {
                    account: from,
                    spender: caller,
                    allowance,
                    required: value,
                });
            }
            if src.balance < value {
                return Err(TokenError::InsufficientBalance {
                    account: from,
                    balance: src.balance,
                    required: value,
                });
            }
            src.allowances.debit(caller.index(), value);
            src.balance -= value;
            Ok(())
        };
        if from == to {
            let mut cell = self.cells[from.index()].lock();
            spend(&mut cell)?;
            cell.balance += value;
            return Ok(());
        }
        self.with_pair(from, to, |src, dst| {
            spend(src)?;
            dst.balance += value;
            Ok(())
        })
    }

    fn approve(
        &self,
        caller: ProcessId,
        spender: ProcessId,
        value: Amount,
    ) -> Result<(), TokenError> {
        self.check_process(caller)?;
        self.check_process(spender)?;
        let mut cell = self.cells[caller.index()].lock();
        cell.allowances.set(spender.index(), value);
        Ok(())
    }

    fn balance_of(&self, account: AccountId) -> Amount {
        self.cells
            .get(account.index())
            .map(|c| c.lock().balance)
            .unwrap_or(0)
    }

    fn allowance(&self, account: AccountId, spender: ProcessId) -> Amount {
        self.cells
            .get(account.index())
            .map(|c| c.lock().allowances.get(spender.index()))
            .unwrap_or(0)
    }

    fn total_supply(&self) -> Amount {
        // Supply is invariant under Δ, so the constructor-time value is
        // the value at every linearization point — exactly the argument
        // `ShardedErc20` makes. The previous implementation took all `n`
        // per-account locks per read: a full-engine stall at n = 1M.
        // Relaxed is enough: the atomic is written once, before sharing.
        debug_assert_eq!(
            self.supply.load(Ordering::Relaxed),
            self.lock_all().iter().map(|c| c.balance).sum::<Amount>(),
            "supply cache diverged from the locked scan"
        );
        self.supply.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn a(i: usize) -> AccountId {
        AccountId::new(i)
    }
    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn basic_flow_matches_spec() {
        let t = SharedErc20::deploy(3, p(0), 10);
        t.transfer(p(0), a(1), 3).unwrap();
        t.approve(p(1), p(2), 5).unwrap();
        assert!(t.transfer_from(p(2), a(1), a(2), 5).is_err());
        t.transfer_from(p(2), a(1), a(0), 1).unwrap();
        assert_eq!(t.balance_of(a(0)), 8);
        assert_eq!(t.balance_of(a(1)), 2);
        assert_eq!(t.allowance(a(1), p(2)), 4);
    }

    #[test]
    fn self_transfer_from_preserves_balance_burns_allowance() {
        let t = SharedErc20::deploy(2, p(0), 5);
        t.approve(p(0), p(1), 3).unwrap();
        t.transfer_from(p(1), a(0), a(0), 2).unwrap();
        assert_eq!(t.balance_of(a(0)), 5);
        assert_eq!(t.allowance(a(0), p(1)), 1);
    }

    #[test]
    fn snapshot_round_trips_through_from_state() {
        let t = SharedErc20::deploy(3, p(1), 9);
        t.approve(p(1), p(0), 4).unwrap();
        t.transfer(p(1), a(2), 2).unwrap();
        let snap = t.snapshot();
        let t2 = SharedErc20::from_state(snap.clone());
        assert_eq!(t2.snapshot(), snap);
    }

    #[test]
    fn draining_race_admits_exactly_one_winner() {
        // The linearizability property Algorithm 1 leans on: when two
        // spenders' allowances pairwise exceed the balance, at most one
        // transferFrom succeeds.
        for _ in 0..200 {
            let t = Arc::new(SharedErc20::from_state({
                let mut q = Erc20State::from_balances(vec![10, 0, 0]);
                q.set_allowance(a(0), p(1), 6);
                q.set_allowance(a(0), p(2), 7);
                q
            }));
            let mut wins = 0;
            std::thread::scope(|s| {
                let handles: Vec<_> = [(1usize, 6u64), (2, 7)]
                    .into_iter()
                    .map(|(i, amount)| {
                        let t = Arc::clone(&t);
                        s.spawn(move || t.transfer_from(p(i), a(0), a(i), amount).is_ok())
                    })
                    .collect();
                for h in handles {
                    if h.join().unwrap() {
                        wins += 1;
                    }
                }
            });
            assert_eq!(wins, 1);
        }
    }

    #[test]
    fn total_supply_is_lock_free_and_stable_under_traffic() {
        // Mirrors the sharded token's test: the cached atomic must agree
        // with the locked scan (debug builds assert that inside the read)
        // at every point of a concurrent run.
        let t = Arc::new(SharedErc20::from_state(Erc20State::from_balances(vec![
            50;
            8
        ])));
        std::thread::scope(|s| {
            for i in 0..4 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for j in 0..200 {
                        let _ = t.transfer(p(i), a((i + j) % 8), 1 + (j as u64 % 3));
                        assert_eq!(t.total_supply(), 400);
                    }
                });
            }
        });
        assert_eq!(t.snapshot().total_supply(), 400);
    }

    #[test]
    fn unknown_ids_error() {
        let t = SharedErc20::deploy(1, p(0), 1);
        assert!(matches!(
            t.transfer(p(0), a(4), 1),
            Err(TokenError::UnknownAccount { .. })
        ));
        assert!(matches!(
            t.approve(p(0), p(4), 1),
            Err(TokenError::UnknownProcess { .. })
        ));
        assert_eq!(t.balance_of(a(4)), 0);
        assert_eq!(t.allowance(a(4), p(0)), 0);
    }
}
