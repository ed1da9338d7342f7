//! The served ERC20 object: [`Served`] over an [`Erc20State`] and the
//! dirty bitmap its incremental snapshots drain.

use tokensync_spec::{AccountId, Amount, ProcessId};

use crate::erc20::{Erc20Delta, Erc20Op, Erc20Resp, Erc20Spec, Erc20State};
use crate::error::TokenError;

use super::interface::ConcurrentToken;
use super::marks::Marks;
use super::served::{Served, Tracked};

/// What the one lock of a [`ShardedErc20`] guards: the state and the
/// accounts written since the last [`Served::drain_delta`], one bit per
/// account whatever the traffic.
#[derive(Debug)]
pub struct Erc20Tracked {
    state: Erc20State,
    dirty: Marks,
}

impl Tracked for Erc20Tracked {
    type Op = Erc20Op;
    type Resp = Erc20Resp;
    type State = Erc20State;
    type Delta = Erc20Delta;
    type Spec = Erc20Spec;

    const LANDED: Erc20Resp = Erc20Resp::TRUE;

    fn track(state: Erc20State) -> Self {
        Self {
            dirty: Marks::new(state.accounts()),
            state,
        }
    }

    fn state(&self) -> &Erc20State {
        &self.state
    }
    fn transition(&mut self, caller: ProcessId, op: &Erc20Op) -> Erc20Resp {
        self.state.apply_op(caller, op)
    }

    /// A transfer marks its two accounts, an approval its caller's.
    fn mark(&mut self, caller: ProcessId, op: &Erc20Op) {
        let rows = match *op {
            Erc20Op::Transfer { to, .. } => [caller.index(), to.index()],
            Erc20Op::TransferFrom { from, to, .. } => [from.index(), to.index()],
            Erc20Op::Approve { .. } => [caller.index(); 2],
            Erc20Op::BalanceOf { .. } | Erc20Op::Allowance { .. } | Erc20Op::TotalSupply => return,
        };
        for row in rows {
            self.dirty.mark(row);
        }
    }

    /// The full current `(balance, allowance row)` of every marked
    /// account, in ascending account order.
    fn drain(&mut self) -> Erc20Delta {
        let Self { state, dirty } = self;
        let mut rows = Vec::new();
        dirty.drain(|account| {
            let id = AccountId::new(account);
            rows.push((
                account as u32,
                state.balance(id),
                state.approval_row(id).clone(),
            ));
        });
        Erc20Delta { rows }
    }

    fn spec(initial: Erc20State) -> Erc20Spec {
        Erc20Spec::new(initial)
    }
    fn fold(state: &mut Erc20State, delta: &Erc20Delta) -> bool {
        delta.apply_to(state)
    }
}

/// An ERC20 token behind one lock, with incremental snapshots.
///
/// Every operation runs the [`Erc20State`] transition of the same name
/// under the lock; a mutation that lands then marks its accounts (the
/// mark/drain contract of [`Served`]), and
/// [`drain_delta`](Served::drain_delta) walks and clears that bitmap.
/// `totalSupply` reads the state's cached supply.
///
/// Linearizability is established empirically by the recorded-history
/// stress tests in `shared::tests` and the proptest suite in
/// `tests/sharded_linearizability.rs`, both through
/// [`check_linearizable`](tokensync_spec::check_linearizable).
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
/// assert_eq!(token.total_supply(), 1_000_000);
/// # Ok::<(), tokensync_core::TokenError>(())
/// ```
pub type ShardedErc20 = Served<Erc20Tracked>;

impl ShardedErc20 {
    /// Deploys a fresh token (deployer holds the whole supply).
    ///
    /// # Panics
    ///
    /// Panics if `deployer.index() >= n`.
    pub fn deploy(n: usize, deployer: ProcessId, total_supply: Amount) -> Self {
        Self::from_state(Erc20State::with_deployer(n, deployer, total_supply))
    }

    /// Runs a typed `transition` under the lock and, if it lands, marks
    /// what `op`, the same call as a formal op, wrote.
    fn write(
        &self,
        caller: ProcessId,
        op: Erc20Op,
        transition: impl FnOnce(&mut Erc20State) -> Result<(), TokenError>,
    ) -> Result<(), TokenError> {
        let mut tracked = self.lock();
        transition(&mut tracked.state)?;
        tracked.mark(caller, &op);
        Ok(())
    }
}

impl ConcurrentToken for ShardedErc20 {
    fn accounts(&self) -> usize {
        self.lock().state.accounts()
    }

    fn transfer(&self, caller: ProcessId, to: AccountId, value: Amount) -> Result<(), TokenError> {
        self.write(caller, Erc20Op::Transfer { to, value }, |state| {
            state.transfer(caller, to, value)
        })
    }

    fn transfer_from(
        &self,
        caller: ProcessId,
        from: AccountId,
        to: AccountId,
        value: Amount,
    ) -> Result<(), TokenError> {
        let op = Erc20Op::TransferFrom { from, to, value };
        self.write(caller, op, |state| {
            state.transfer_from(caller, from, to, value)
        })
    }

    fn approve(
        &self,
        caller: ProcessId,
        spender: ProcessId,
        value: Amount,
    ) -> Result<(), TokenError> {
        self.write(caller, Erc20Op::Approve { spender, value }, |state| {
            state.approve(caller, spender, value)
        })
    }

    fn balance_of(&self, account: AccountId) -> Amount {
        self.lock().state.balance(account)
    }

    fn allowance(&self, account: AccountId, spender: ProcessId) -> Amount {
        self.lock().state.allowance(account, spender)
    }

    fn total_supply(&self) -> Amount {
        self.lock().state.total_supply()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erc20::SpenderMap;
    use crate::shared::ConcurrentObject;
    use std::sync::Arc;

    fn a(i: usize) -> AccountId {
        AccountId::new(i)
    }
    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn basic_flow_matches_spec() {
        let t = ShardedErc20::deploy(3, p(0), 10);
        t.transfer(p(0), a(1), 3).unwrap();
        t.approve(p(1), p(2), 5).unwrap();
        assert!(t.transfer_from(p(2), a(1), a(2), 5).is_err());
        t.transfer_from(p(2), a(1), a(0), 1).unwrap();
        assert_eq!(t.balance_of(a(0)), 8);
        assert_eq!(t.balance_of(a(1)), 2);
        assert_eq!(t.allowance(a(1), p(2)), 4);
        assert_eq!(t.total_supply(), 10);
    }

    #[test]
    fn self_transfer_preserves_balance() {
        let t = ShardedErc20::deploy(2, p(0), 5);
        t.transfer(p(0), a(0), 3).unwrap();
        assert_eq!(t.balance_of(a(0)), 5);
        assert!(matches!(
            t.transfer(p(0), a(0), 9),
            Err(TokenError::InsufficientBalance { .. })
        ));
    }

    #[test]
    fn self_transfer_from_preserves_balance_burns_allowance() {
        let t = ShardedErc20::deploy(2, p(0), 5);
        t.approve(p(0), p(1), 3).unwrap();
        t.transfer_from(p(1), a(0), a(0), 2).unwrap();
        assert_eq!(t.balance_of(a(0)), 5);
        assert_eq!(t.allowance(a(0), p(1)), 1);
    }

    #[test]
    fn snapshot_round_trips_through_from_state() {
        let t = ShardedErc20::deploy(5, p(1), 9);
        t.approve(p(1), p(0), 4).unwrap();
        t.transfer(p(1), a(4), 2).unwrap();
        let snap = t.snapshot();
        let t2 = ShardedErc20::from_state(snap.clone());
        assert_eq!(t2.snapshot(), snap);
        assert_eq!(snap.total_supply(), 9);
    }

    proptest::proptest! {
        /// Restoring moves the state in and `snapshot` gives the same
        /// state back: balances, allowance rows (drained ones
        /// included), approval index and supply cache.
        #[test]
        fn from_state_then_snapshot_is_the_identity(
            balances in proptest::collection::vec(0u64..20, 1..12),
            steps in proptest::collection::vec((0usize..12, 0usize..12, 0usize..12, 0u64..6), 0..40),
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
        }
    }

    proptest::proptest! {
        /// The mark/drain contract, differentially (the ERC20 counterpart
        /// of ERC1155's `drains_report_exactly_the_mutated_cells`):
        /// whatever the script and wherever the drains fall, each drain
        /// reports exactly the accounts a reference set of written
        /// accounts names, strictly ascending, with the oracle's rows,
        /// and the deltas fold onto genesis to the live snapshot. Account
        /// counts leave a partial last bitmap word.
        #[test]
        fn erc20_drains_report_exactly_the_mutated_rows(
            n in 1usize..200,
            balances in proptest::collection::vec(0u64..8, 200),
            steps in proptest::collection::vec((0u8..3, 0usize..400, 0usize..400, 0usize..400, 0u64..6, 0..4usize), 0..64),
        ) {
            // Half the ids come from a few hot accounts, so approvals
            // and the transferFroms spending them meet.
            let id = |raw: usize| if raw < 200 { raw % n.min(5) } else { raw % n };
            let genesis = Erc20State::from_balances(balances[..n].to_vec());
            let mut oracle = genesis.clone();
            let t = ShardedErc20::from_state(genesis.clone());
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
            let t = Arc::new(ShardedErc20::from_state({
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
    fn total_supply_is_stable_under_traffic() {
        let t = Arc::new(ShardedErc20::from_state(Erc20State::from_balances(vec![
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
    fn drain_delta_tracks_touched_rows_and_folds_onto_base() {
        let t = ShardedErc20::deploy(8, p(0), 100);
        assert!(t.drain_delta().is_empty(), "fresh object has no dirty rows");
        let base = t.snapshot();
        t.transfer(p(0), a(5), 10).unwrap();
        t.approve(p(3), p(1), 7).unwrap();
        t.transfer_from(p(1), a(3), a(6), 0).unwrap();
        let delta = t.drain_delta();
        let touched: Vec<u32> = delta.rows.iter().map(|&(acc, _, _)| acc).collect();
        assert_eq!(touched, vec![0, 3, 5, 6]);
        let mut folded = base;
        assert!(delta.apply_to(&mut folded));
        assert_eq!(folded, t.snapshot());
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
        assert!(t.drain_delta().is_empty(), "a refused op marks nothing");
    }
}
