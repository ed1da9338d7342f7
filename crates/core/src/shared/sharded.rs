//! Lock-striped concurrent token: the million-account fast path.
//!
//! [`SharedErc20`](super::SharedErc20) buys parallelism with one mutex per
//! account, which is perfect contention-wise but costs a mutex per account
//! and makes the global reads (`totalSupply`, snapshots) lock all `n`
//! cells — a full-engine stall at a million accounts. [`ShardedErc20`]
//! keeps the parallelism where it matters (disjoint *shards* proceed in
//! parallel; two ops conflict only when their accounts collide modulo the
//! stripe count) while bounding the lock count by the hardware: accounts
//! are striped across `min(n, 4 × cores)` shards.
//!
//! `totalSupply` needs no locks at all: every ERC20 operation conserves
//! the supply (no mint/burn in Definition 3), so the value is fixed at
//! construction and served from one atomic — reading it concurrently with
//! a transfer is trivially linearizable because both shard cells of the
//! transfer change inside one critical section that leaves the sum
//! untouched.

use std::sync::atomic::{AtomicU64, Ordering};

use tokensync_spec::{AccountId, Amount, ProcessId};

use crate::erc20::{Erc20Delta, Erc20Op, Erc20Resp, Erc20State, SpenderMap};
use crate::error::TokenError;

use super::interface::{apply_erc20, ConcurrentObject, ConcurrentToken};
use super::striped::{default_stripes, Marks, Striped, Striping};

/// The accounts striped onto one lock, one dense row per slot.
#[derive(Debug)]
struct Shard {
    balances: Vec<Amount>,
    allowances: Vec<SpenderMap>,
    /// The slots mutated since the last [`ShardedErc20::drain_delta`]:
    /// two OR-stores on the transfer hot path.
    dirty: Marks,
}

/// An ERC20 token striped by **account** across `min(n, 4 × cores)` lock
/// shards (striping scheme and lock order: `shared/striped.rs`, the one
/// container every sharded object is built on).
///
/// Each operation locks only the shards of the accounts it touches:
///
/// * `transfer` / `transferFrom` — at most two shards;
/// * `approve`, `allowance`, `balanceOf` — one shard;
/// * `totalSupply` — **zero** shards (cached atomic; supply is invariant
///   under every operation);
/// * [`ConcurrentToken::state_snapshot`] — all shards; `O(4 × cores)`
///   lock acquisitions instead of the `O(n)` of the per-account design.
///
/// Linearizability is established empirically by the recorded-history
/// stress tests in `shared::tests` and the proptest suite in
/// `tests/sharded_linearizability.rs`, both through
/// [`check_linearizable`](tokensync_spec::check_linearizable).
///
/// Incremental snapshots follow the mark/drain contract of
/// `shared/striped.rs`: every mutation sets its slot's bit in the
/// shard's dirty bitmap (one OR-store under the lock it holds), and
/// [`drain_delta`](ShardedErc20::drain_delta) walks and clears the
/// bitmaps under every shard lock — one bit per account of tracking,
/// whatever the traffic.
///
/// # Example
///
/// ```
/// use tokensync_core::shared::{ConcurrentToken, ShardedErc20};
/// use tokensync_spec::{AccountId, ProcessId};
///
/// let token = ShardedErc20::deploy(1000, ProcessId::new(0), 1_000_000);
/// token.transfer(ProcessId::new(0), AccountId::new(999), 50)?;
/// assert_eq!(token.balance_of(AccountId::new(999)), 50);
/// assert_eq!(token.total_supply(), 1_000_000); // lock-free read
/// # Ok::<(), tokensync_core::TokenError>(())
/// ```
#[derive(Debug)]
pub struct ShardedErc20 {
    shards: Striped<Shard>,
    accounts: usize,
    /// Cached `Σ_a β(a)`; constant after construction because every
    /// operation conserves the supply.
    supply: AtomicU64,
}

impl ShardedErc20 {
    /// The default stripe count: `min(n, 4 × available cores)` rounded
    /// *down* to a power of two (so the bound is never exceeded), at
    /// least 1.
    pub fn default_shards(n: usize) -> usize {
        default_stripes(n)
    }

    /// Deploys a fresh token (deployer holds the whole supply) over the
    /// default stripe count.
    ///
    /// # Panics
    ///
    /// Panics if `deployer.index() >= n`.
    pub fn deploy(n: usize, deployer: ProcessId, total_supply: Amount) -> Self {
        Self::from_state(Erc20State::with_deployer(n, deployer, total_supply))
    }

    /// Wraps an arbitrary starting state (the paper's `T_q`) over the
    /// default stripe count.
    pub fn from_state(state: Erc20State) -> Self {
        let stripe = Self::default_shards(state.accounts());
        Self::with_shards(state, stripe)
    }

    /// Wraps `state` over an explicit number of shards (tests exercise
    /// degenerate stripings). Every balance and allowance row moves out
    /// of `state` into its shard: nothing is copied.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or not a power of two.
    pub fn with_shards(state: Erc20State, shards: usize) -> Self {
        let at = Striping::new(shards);
        let n = state.accounts();
        let (balances, allowances, supply) = state.into_rows();
        let mut built: Vec<Shard> = (0..shards)
            .map(|_| Shard {
                balances: Vec::with_capacity(n / shards + 1),
                allowances: Vec::with_capacity(n / shards + 1),
                dirty: Marks::default(),
            })
            .collect();
        // Ascending accounts push ascending slots onto each shard.
        for (i, (balance, row)) in balances.into_iter().zip(allowances).enumerate() {
            let shard = &mut built[at.stripe_of(i)];
            shard.balances.push(balance);
            shard.allowances.push(row);
        }
        for shard in &mut built {
            shard.dirty = Marks::new(shard.balances.len());
        }
        Self {
            shards: Striped::new(built),
            accounts: n,
            supply: AtomicU64::new(supply),
        }
    }

    /// Drains the copy-on-write dirty set: the full current
    /// `(balance, allowance row)` of every account touched since the
    /// previous drain, clearing the tracking bits.
    ///
    /// The drain holds every shard lock at once and visits the marked
    /// accounts in ascending order, so the rows come out sorted and form
    /// an atomic cut: the previous snapshot plus the rows is the state
    /// at one linearization point, even while other threads serve (they
    /// wait on their shard for the length of the drain).
    pub fn drain_delta(&self) -> Erc20Delta {
        let mut rows = Vec::new();
        self.shards.drain_marked(
            |shard| &mut shard.dirty,
            |account, shard, slot| {
                rows.push((
                    account as u32,
                    shard.balances[slot],
                    shard.allowances[slot].clone(),
                ));
            },
        );
        Erc20Delta { rows }
    }

    fn check_account(&self, account: AccountId) -> Result<(), TokenError> {
        if account.index() < self.accounts {
            Ok(())
        } else {
            Err(TokenError::UnknownAccount { account })
        }
    }

    fn check_process(&self, process: ProcessId) -> Result<(), TokenError> {
        if process.index() < self.accounts {
            Ok(())
        } else {
            Err(TokenError::UnknownProcess { process })
        }
    }
}

impl ConcurrentObject for ShardedErc20 {
    type Op = Erc20Op;
    type Resp = Erc20Resp;
    type State = Erc20State;

    fn apply(&self, process: ProcessId, op: &Erc20Op) -> Erc20Resp {
        apply_erc20(self, process, op)
    }

    fn snapshot(&self) -> Erc20State {
        let (at, guards) = (self.shards.at(), self.shards.lock_all());
        let mut balances = Vec::with_capacity(self.accounts);
        let mut allowances = Vec::with_capacity(self.accounts);
        let mut with_approvals = Vec::new();
        for i in 0..self.accounts {
            let (shard, slot) = (&guards[at.stripe_of(i)], at.slot_of(i));
            balances.push(shard.balances[slot]);
            let row = &shard.allowances[slot];
            if !row.is_empty() {
                with_approvals.push(u32::try_from(i).expect("account index exceeds u32::MAX"));
            }
            allowances.push(row.clone());
        }
        let supply = balances.iter().sum();
        Erc20State::from_rows(balances, allowances, with_approvals, supply)
    }
}

impl ConcurrentToken for ShardedErc20 {
    fn accounts(&self) -> usize {
        self.accounts
    }

    fn transfer(&self, caller: ProcessId, to: AccountId, value: Amount) -> Result<(), TokenError> {
        self.check_process(caller)?;
        self.check_account(to)?;
        let from = caller.own_account();
        let at = self.shards.at();
        let (fi, ti) = (at.slot_of(from.index()), at.slot_of(to.index()));
        let mut pair = self.shards.lock_pair(from.index(), to.index());
        let (src, dst) = pair.split();
        let balance = src.balances[fi];
        if balance < value {
            return Err(TokenError::InsufficientBalance {
                account: from,
                balance,
                required: value,
            });
        }
        src.balances[fi] = balance - value;
        src.dirty.mark(fi);
        // One shard covers from == to as well: debit then credit of the
        // same slot is a checked net no-op — the ERC20 semantics.
        let dst = dst.unwrap_or(src);
        dst.balances[ti] += value;
        dst.dirty.mark(ti);
        Ok(())
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
        let at = self.shards.at();
        let (fi, ti) = (at.slot_of(from.index()), at.slot_of(to.index()));
        let mut pair = self.shards.lock_pair(from.index(), to.index());
        let (src, dst) = pair.split();
        let allowance = src.allowances[fi].get(caller.index());
        if allowance < value {
            return Err(TokenError::InsufficientAllowance {
                account: from,
                spender: caller,
                allowance,
                required: value,
            });
        }
        let balance = src.balances[fi];
        if balance < value {
            return Err(TokenError::InsufficientBalance {
                account: from,
                balance,
                required: value,
            });
        }
        src.allowances[fi].debit(caller.index(), value);
        src.balances[fi] = balance - value;
        src.dirty.mark(fi);
        // from == to: the credit lands back on the debited cell
        // (allowance burned, balance kept).
        let dst = dst.unwrap_or(src);
        dst.balances[ti] += value;
        dst.dirty.mark(ti);
        Ok(())
    }

    fn approve(
        &self,
        caller: ProcessId,
        spender: ProcessId,
        value: Amount,
    ) -> Result<(), TokenError> {
        self.check_process(caller)?;
        self.check_process(spender)?;
        let account = caller.own_account().index();
        let slot = self.shards.at().slot_of(account);
        let mut shard = self.shards.lock(account);
        shard.allowances[slot].set(spender.index(), value);
        shard.dirty.mark(slot);
        Ok(())
    }

    fn balance_of(&self, account: AccountId) -> Amount {
        if account.index() >= self.accounts {
            return 0;
        }
        let slot = self.shards.at().slot_of(account.index());
        self.shards.lock(account.index()).balances[slot]
    }

    fn allowance(&self, account: AccountId, spender: ProcessId) -> Amount {
        if account.index() >= self.accounts {
            return 0;
        }
        let slot = self.shards.at().slot_of(account.index());
        self.shards.lock(account.index()).allowances[slot].get(spender.index())
    }

    fn total_supply(&self) -> Amount {
        // Supply is invariant under Δ, so the constructor-time value is the
        // value at every linearization point; no lock needed. Relaxed is
        // enough: the atomic is written once, before the object is shared.
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
        for shards in [1, 2, 4, 8] {
            let t = ShardedErc20::with_shards(Erc20State::with_deployer(3, p(0), 10), shards);
            t.transfer(p(0), a(1), 3).unwrap();
            t.approve(p(1), p(2), 5).unwrap();
            assert!(t.transfer_from(p(2), a(1), a(2), 5).is_err());
            t.transfer_from(p(2), a(1), a(0), 1).unwrap();
            assert_eq!(t.balance_of(a(0)), 8, "shards={shards}");
            assert_eq!(t.balance_of(a(1)), 2);
            assert_eq!(t.allowance(a(1), p(2)), 4);
            assert_eq!(t.total_supply(), 10);
        }
    }

    #[test]
    fn self_transfer_preserves_balance() {
        let t = ShardedErc20::with_shards(Erc20State::with_deployer(2, p(0), 5), 2);
        t.transfer(p(0), a(0), 3).unwrap();
        assert_eq!(t.balance_of(a(0)), 5);
        assert!(matches!(
            t.transfer(p(0), a(0), 9),
            Err(TokenError::InsufficientBalance { .. })
        ));
    }

    #[test]
    fn self_transfer_from_preserves_balance_burns_allowance() {
        for shards in [1, 2, 4] {
            let t = ShardedErc20::with_shards(Erc20State::with_deployer(2, p(0), 5), shards);
            t.approve(p(0), p(1), 3).unwrap();
            t.transfer_from(p(1), a(0), a(0), 2).unwrap();
            assert_eq!(t.balance_of(a(0)), 5, "shards={shards}");
            assert_eq!(t.allowance(a(0), p(1)), 1);
        }
    }

    #[test]
    fn same_shard_distinct_accounts_transfer() {
        // Accounts 0 and 2 collide in shard 0 of a 2-stripe token.
        let t = ShardedErc20::with_shards(Erc20State::with_deployer(4, p(0), 10), 2);
        t.transfer(p(0), a(2), 4).unwrap();
        assert_eq!(t.balance_of(a(0)), 6);
        assert_eq!(t.balance_of(a(2)), 4);
        // And the reverse direction (source slot above destination slot).
        t.transfer(p(2), a(0), 1).unwrap();
        assert_eq!((t.balance_of(a(0)), t.balance_of(a(2))), (7, 3));
    }

    #[test]
    fn snapshot_round_trips_through_from_state() {
        let t = ShardedErc20::with_shards(Erc20State::with_deployer(5, p(1), 9), 2);
        t.approve(p(1), p(0), 4).unwrap();
        t.transfer(p(1), a(4), 2).unwrap();
        let snap = t.state_snapshot();
        let t2 = ShardedErc20::with_shards(snap.clone(), 4);
        assert_eq!(t2.state_snapshot(), snap);
        assert_eq!(snap.total_supply(), 9);
    }

    proptest::proptest! {
        /// Restoring moves every row into the shards and `snapshot`
        /// rebuilds the same state: balances, allowance rows (drained
        /// ones included), approval index and supply cache, at every
        /// striping.
        #[test]
        fn from_state_then_snapshot_is_the_identity(
            balances in proptest::collection::vec(0u64..20, 1..12),
            steps in proptest::collection::vec((0usize..12, 0usize..12, 0usize..12, 0u64..6), 0..40),
            shards_log in 0u32..4,
        ) {
            let n = balances.len();
            let mut state = Erc20State::from_balances(balances);
            // Approve, then spend through the allowance: rows fill,
            // drain to empty and refill.
            for (owner, spender, to, value) in steps {
                let (owner, spender, to) = (owner % n, spender % n, to % n);
                if value % 2 == 0 {
                    state.approve(p(owner), p(spender), value / 2).unwrap();
                } else {
                    let _ = state.transfer_from(p(spender), a(owner), a(to), value / 2 + 1);
                }
            }
            let restored = ShardedErc20::from_state(state.clone());
            proptest::prop_assert_eq!(restored.snapshot(), state.clone());
            proptest::prop_assert_eq!(restored.total_supply(), state.total_supply());
            let striped = ShardedErc20::with_shards(state.clone(), 1 << shards_log);
            proptest::prop_assert_eq!(striped.snapshot(), state);
        }
    }

    proptest::proptest! {
        /// The mark/drain contract, differentially (the ERC20 counterpart
        /// of ERC1155's `drains_report_exactly_the_mutated_cells`):
        /// whatever the script and wherever the drains fall, each drain
        /// reports exactly the accounts a reference set of written
        /// accounts names, strictly ascending, with the oracle's rows,
        /// and the deltas fold onto genesis to the live snapshot. Account
        /// counts leave stripes with unequal slot counts and a partial
        /// last bitmap word.
        #[test]
        fn erc20_drains_report_exactly_the_mutated_rows(
            n in 1usize..200,
            balances in proptest::collection::vec(0u64..8, 200),
            steps in proptest::collection::vec((0u8..3, 0usize..400, 0usize..400, 0usize..400, 0u64..6, 0..4usize), 0..64),
            shards_log in 0u32..4,
        ) {
            // Half the ids come from a few hot accounts, so approvals
            // and the transferFroms spending them meet.
            let id = |raw: usize| if raw < 200 { raw % n.min(5) } else { raw % n };
            let genesis = Erc20State::from_balances(balances[..n].to_vec());
            let mut oracle = genesis.clone();
            let t = ShardedErc20::with_shards(genesis.clone(), 1 << shards_log);
            let mut written = std::collections::BTreeSet::new();
            let mut folded = genesis;
            // The last step always drains.
            for (kind, x, y, z, value, choice) in steps.into_iter().chain([(0, 0, 0, 0, 9, 3)]) {
                let (x, y, z) = (id(x), id(y), id(z));
                let (landed, rows) = match kind {
                    0 => (
                        oracle.transfer(p(x), a(y), value).is_ok(),
                        [x, y],
                    ),
                    1 => (
                        oracle.transfer_from(p(x), a(y), a(z), value).is_ok(),
                        [y, z],
                    ),
                    _ => (oracle.approve(p(x), p(y), value).is_ok(), [x, x]),
                };
                let served = match kind {
                    0 => t.transfer(p(x), a(y), value),
                    1 => t.transfer_from(p(x), a(y), a(z), value),
                    _ => t.approve(p(x), p(y), value),
                };
                proptest::prop_assert_eq!(served.is_ok(), landed);
                if landed {
                    written.extend(rows.map(|i| i as u32));
                }
                if choice < 3 {
                    continue;
                }
                let delta = t.drain_delta();
                let accounts: Vec<u32> = delta.rows.iter().map(|row| row.0).collect();
                proptest::prop_assert!(accounts.windows(2).all(|w| w[0] < w[1]), "{:?}", accounts);
                let expected: Vec<u32> = std::mem::take(&mut written).into_iter().collect();
                proptest::prop_assert_eq!(&accounts, &expected);
                for (account, balance, row) in &delta.rows {
                    proptest::prop_assert_eq!(*balance, oracle.balance(a(*account as usize)));
                    proptest::prop_assert_eq!(row, oracle.approval_row(a(*account as usize)));
                }
                proptest::prop_assert!(delta.apply_to(&mut folded));
                proptest::prop_assert_eq!(&folded, &t.snapshot());
            }
            proptest::prop_assert_eq!(folded, oracle);
        }
    }

    #[test]
    fn draining_race_admits_exactly_one_winner() {
        for _ in 0..200 {
            let t = Arc::new(ShardedErc20::with_shards(
                {
                    let mut q = Erc20State::from_balances(vec![10, 0, 0]);
                    q.set_allowance(a(0), p(1), 6);
                    q.set_allowance(a(0), p(2), 7);
                    q
                },
                2,
            ));
            let mut wins = 0;
            crossbeam::scope(|s| {
                let handles: Vec<_> = [(1usize, 6u64), (2, 7)]
                    .into_iter()
                    .map(|(i, amount)| {
                        let t = Arc::clone(&t);
                        s.spawn(move |_| t.transfer_from(p(i), a(0), a(i), amount).is_ok())
                    })
                    .collect();
                for h in handles {
                    if h.join().unwrap() {
                        wins += 1;
                    }
                }
            })
            .unwrap();
            assert_eq!(wins, 1);
        }
    }

    #[test]
    fn total_supply_is_lock_free_and_stable_under_traffic() {
        let t = Arc::new(ShardedErc20::with_shards(
            Erc20State::from_balances(vec![50; 8]),
            4,
        ));
        crossbeam::scope(|s| {
            for i in 0..4 {
                let t = Arc::clone(&t);
                s.spawn(move |_| {
                    for j in 0..200 {
                        let _ = t.transfer(p(i), a((i + j) % 8), 1 + (j as u64 % 3));
                        assert_eq!(t.total_supply(), 400);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(t.state_snapshot().total_supply(), 400);
    }

    #[test]
    fn drain_delta_tracks_touched_rows_and_folds_onto_base() {
        let t = ShardedErc20::with_shards(Erc20State::with_deployer(8, p(0), 100), 4);
        assert!(t.drain_delta().is_empty(), "fresh object has no dirty rows");
        let base = t.state_snapshot();
        t.transfer(p(0), a(5), 10).unwrap();
        t.approve(p(3), p(1), 7).unwrap();
        t.transfer_from(p(1), a(3), a(6), 0).unwrap();
        let delta = t.drain_delta();
        let touched: Vec<u32> = delta.rows.iter().map(|&(acc, _, _)| acc).collect();
        assert_eq!(touched, vec![0, 3, 5, 6]);
        let mut folded = base;
        assert!(delta.apply_to(&mut folded));
        assert_eq!(folded, t.state_snapshot());
        assert!(t.drain_delta().is_empty(), "drain clears the tracking bits");
    }

    #[test]
    fn delta_apply_rejects_out_of_range_rows() {
        let mut state = Erc20State::with_deployer(2, p(0), 5);
        let delta = Erc20Delta {
            rows: vec![(7, 1, SpenderMap::new())],
        };
        assert!(!delta.apply_to(&mut state));
        assert_eq!(state, Erc20State::with_deployer(2, p(0), 5));
    }

    #[test]
    fn unknown_ids_error() {
        let t = ShardedErc20::deploy(1, p(0), 1);
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

    #[test]
    fn default_shards_bounded_by_accounts_and_cores() {
        assert_eq!(ShardedErc20::default_shards(0), 1);
        assert_eq!(ShardedErc20::default_shards(1), 1);
        assert_eq!(ShardedErc20::default_shards(2), 2);
        assert_eq!(ShardedErc20::default_shards(3), 2); // rounded down: never > n
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let got = ShardedErc20::default_shards(1_000_000);
        assert!(got.is_power_of_two());
        assert!(got <= 4 * cores, "stripe count exceeds the 4×cores bound");
        assert!(2 * got > 4 * cores, "stripe count needlessly small");
    }
}
