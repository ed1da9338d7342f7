//! The one served object: a standard's state and its dirty tracking
//! behind one lock. [`ShardedErc20`](super::ShardedErc20),
//! [`ShardedErc721`](crate::standards::erc721::ShardedErc721) and
//! [`ShardedErc1155`](crate::standards::erc1155::ShardedErc1155) are its
//! three instantiations. One engine thread applies every batch of a
//! served object, so the lock is uncontended there; callers that share
//! the object across threads still get a linearizable object, since
//! every operation, and every batch, is one critical section.
//!
//! # Mark/drain contract
//!
//! Incremental snapshots need the set of rows written since the last
//! `drain_delta`. Every standard keeps it the same way, so that a mark
//! costs the operation nothing it can feel:
//!
//! * **lock** — a [`Served`] holds its [`Tracked`] state behind one
//!   `parking_lot` mutex. [`ConcurrentObject::apply`] takes it once per
//!   op, [`ConcurrentObject::apply_batch`] once per batch, and
//!   [`snapshot`](ConcurrentObject::snapshot) and
//!   [`drain_delta`](Served::drain_delta) once per call;
//! * **mark** — under that lock, once a transition has landed, set the
//!   written key's bit in the standard's `Marks` (one OR-store, no
//!   allocation). ERC1155 also sets the written `(account, type)` cell's
//!   bit in a second `Marks` indexed like its balance matrix, so the
//!   drain knows which cells of a marked row to report; ERC20 and ERC721
//!   report the whole row. ERC721 is the one object whose table grows
//!   after construction: a mint past the end of its table extends the
//!   table and, with `Marks::grow`, its bitmap;
//! * **exact** — a bit is set at most once between drains, so the
//!   tracking is one bit per key whatever the traffic, even on an
//!   object nobody ever drains (a volatile engine, a store with
//!   snapshots off), and a drain needs no de-duplication;
//! * **drain** — `Marks::drain` walks the bitmap's words in order and
//!   visits every marked key once, clearing its bit, in ascending key
//!   order. The standard reads each visited row's current value; ERC1155
//!   test-and-clears the row's cell bits (`Marks::take`) and reports
//!   those cells, zeros included;
//! * **order** — the walk's: a drain emits its rows already in key
//!   order (ERC1155 in `(type, account)` order by filling one
//!   account-ordered bucket per type), with no key list and no sort,
//!   so a delta's bytes depend only on which cells were written;
//! * **cut** — the drain holds the one lock, so a delta is a
//!   linearizable read of the whole object even while other threads
//!   serve: every operation, and every batch, lands wholly before the
//!   drain or wholly in the next delta. A store drains at its batch
//!   seal, on the engine thread that applies every op, so nothing waits
//!   on it there.
//!
//! The operator pairs of ERC721 and ERC1155 (`setApprovalForAll` only)
//! are marked in a `BTreeSet` beside the table instead: exact and
//! ordered, so the drain walks it with no sort, at `O(log n)` per mark.

use std::fmt::Debug;

use parking_lot::{Mutex, MutexGuard};
use tokensync_spec::{ObjectType, ProcessId};

use crate::analysis::FootprintedOp;

use super::interface::ConcurrentObject;

/// A standard's state plus its dirty tracking — what the one lock of a
/// [`Served`] guards — and the standard's pieces recovery needs.
pub trait Tracked: Debug + Send + 'static {
    /// The operation alphabet.
    type Op: FootprintedOp + Clone + Debug + Send + Sync + 'static;
    /// The response alphabet.
    type Resp: Clone + PartialEq + Debug + Send + Sync + 'static;
    /// The sequential state.
    type State: Clone + PartialEq + Debug + Send + 'static;
    /// The rows written since the last drain.
    type Delta;
    /// The standard's sequential oracle.
    type Spec: ObjectType<State = Self::State, Op = Self::Op, Resp = Self::Resp>;

    /// The response of a mutation that landed: only it is marked.
    const LANDED: Self::Resp;

    /// Wraps `state` with clean marks. The state moves in.
    fn track(state: Self::State) -> Self;

    /// The tracked state.
    fn state(&self) -> &Self::State;

    /// Runs the state's transition for `op` by `caller`, marking nothing.
    fn transition(&mut self, caller: ProcessId, op: &Self::Op) -> Self::Resp;

    /// Marks what `op` by `caller` wrote, once it has landed.
    fn mark(&mut self, caller: ProcessId, op: &Self::Op);

    /// The marked rows' current values, in key order, clearing the marks.
    fn drain(&mut self) -> Self::Delta;

    /// The oracle starting from `initial`.
    fn spec(initial: Self::State) -> Self::Spec;

    /// Folds `delta` onto `state`; `false`, with `state` untouched, if
    /// the delta names rows outside the state's dimensions.
    fn fold(state: &mut Self::State, delta: &Self::Delta) -> bool;
}

/// A token object of any standard behind one lock, with incremental
/// snapshots under the mark/drain contract of this module.
///
/// Every operation runs the standard's sequential transition under the
/// lock, and a mutation that lands then marks what it wrote;
/// [`drain_delta`](Served::drain_delta) takes the marked rows.
/// [`ConcurrentObject::snapshot`] is a clone of the state.
#[derive(Debug)]
pub struct Served<S> {
    tracked: Mutex<S>,
}

impl<S: Tracked> Served<S> {
    /// Wraps an arbitrary starting state (the paper's `T_q`). The state
    /// moves in: nothing is copied.
    pub fn from_state(state: S::State) -> Self {
        Self {
            tracked: Mutex::new(S::track(state)),
        }
    }

    /// Drains the copy-on-write tracking: the current value of every row
    /// written since the previous drain (or since construction),
    /// clearing the marks. The drain holds the lock, so the delta is an
    /// atomic cut: the previous snapshot plus the rows is the state at
    /// one linearization point.
    pub fn drain_delta(&self) -> S::Delta {
        self.tracked.lock().drain()
    }

    /// The one lock, for a standard's own reads and typed writes.
    pub(crate) fn lock(&self) -> MutexGuard<'_, S> {
        self.tracked.lock()
    }
}

/// `op` by `caller` on the locked state: the transition, then the marks
/// if it landed.
fn step<S: Tracked>(tracked: &mut S, caller: ProcessId, op: &S::Op) -> S::Resp {
    let resp = tracked.transition(caller, op);
    if resp == S::LANDED {
        tracked.mark(caller, op);
    }
    resp
}

impl<S: Tracked> ConcurrentObject for Served<S> {
    type Op = S::Op;
    type Resp = S::Resp;
    type State = S::State;

    fn apply(&self, caller: ProcessId, op: &S::Op) -> S::Resp {
        step(&mut *self.tracked.lock(), caller, op)
    }

    /// The whole batch under one acquisition of the lock.
    fn apply_batch(&self, ops: &[(ProcessId, S::Op)]) -> Vec<S::Resp> {
        let mut tracked = self.tracked.lock();
        ops.iter()
            .map(|(caller, op)| step(&mut *tracked, *caller, op))
            .collect()
    }

    fn snapshot(&self) -> S::State {
        self.tracked.lock().state().clone()
    }
}

#[cfg(test)]
mod tests {
    use tokensync_spec::AccountId;

    use super::*;
    use crate::erc20::{Erc20Op, Erc20State};
    use crate::shared::Erc20Tracked;
    use crate::standards::erc1155::{Erc1155Op, Erc1155State, Erc1155Tracked, TypeId};
    use crate::standards::erc721::{Erc721Op, Erc721State, Erc721Tracked, TokenId};

    /// One random op: a kind, three ids and an amount.
    type Raw = (u8, usize, usize, usize, u64);

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }
    fn a(i: usize) -> AccountId {
        AccountId::new(i)
    }

    /// Applies `script` to one object through `apply_batch`, in batches
    /// of the lengths `cuts` gives (the rest in one last batch), and to a
    /// twin one `apply` at a time: the responses, the snapshots and the
    /// drained deltas agree at every cut.
    fn batches_match_single_ops<S>(genesis: S::State, script: &[(ProcessId, S::Op)], cuts: &[usize])
    where
        S: Tracked<Delta: PartialEq + Debug>,
    {
        let batched = Served::<S>::from_state(genesis.clone());
        let single = Served::<S>::from_state(genesis);
        let mut rest = script;
        for &cut in cuts.iter().chain([&script.len()]) {
            let (batch, tail) = rest.split_at(cut.min(rest.len()));
            rest = tail;
            let singles: Vec<_> = batch.iter().map(|(c, op)| single.apply(*c, op)).collect();
            assert_eq!(batched.apply_batch(batch), singles);
            assert_eq!(batched.snapshot(), single.snapshot());
            assert_eq!(batched.drain_delta(), single.drain_delta());
        }
        assert!(rest.is_empty());
    }

    fn erc20_op((kind, x, y, z, value): Raw) -> (ProcessId, Erc20Op) {
        let (x, y, z) = (x % 8, y % 8, z % 8);
        let op = match kind % 6 {
            0 => Erc20Op::Transfer { to: a(y), value },
            1 => Erc20Op::TransferFrom {
                from: a(y),
                to: a(z),
                value,
            },
            2 => Erc20Op::Approve {
                spender: p(y),
                value,
            },
            3 => Erc20Op::BalanceOf { account: a(y) },
            4 => Erc20Op::Allowance {
                account: a(y),
                spender: p(z),
            },
            _ => Erc20Op::TotalSupply,
        };
        (p(x), op)
    }

    fn erc721_op((kind, x, y, z, value): Raw) -> (ProcessId, Erc721Op) {
        // Ids past the span, processes past the count: failing ops too.
        let (x, y, token) = (x % 9, y % 9, TokenId::new(z % 40));
        let op = match kind % 6 {
            0 => Erc721Op::Mint { to: p(y), token },
            1 => Erc721Op::TransferFrom {
                from: p(y),
                to: p(value as usize % 8),
                token,
            },
            2 => Erc721Op::Approve {
                approved: (value % 3 > 0).then(|| p(y)),
                token,
            },
            3 => Erc721Op::SetApprovalForAll {
                operator: p(y),
                on: value % 2 == 0,
            },
            4 => Erc721Op::OwnerOf { token },
            _ => Erc721Op::GetApproved { token },
        };
        (p(x), op)
    }

    fn erc1155_op((kind, x, y, z, value): Raw) -> (ProcessId, Erc1155Op) {
        let (x, y, z) = (x % 8, y % 8, z % 8);
        let t = |i: u64| TypeId::new(i as usize % 4);
        let op = match kind % 5 {
            0 => Erc1155Op::Transfer {
                from: a(y),
                to: a(z),
                type_id: t(value),
                value: value % 7,
            },
            1 => Erc1155Op::BatchTransfer {
                from: a(y),
                to: a(z),
                entries: vec![(t(value), value % 5), (t(value / 3), value % 4)],
            },
            2 => Erc1155Op::SetApprovalForAll {
                operator: p(y),
                on: value % 2 == 0,
            },
            3 => Erc1155Op::BalanceOf {
                account: a(y),
                type_id: t(value),
            },
            _ => Erc1155Op::TotalSupply { type_id: t(value) },
        };
        (p(x), op)
    }

    fn raw_script() -> impl proptest::strategy::Strategy<Value = Vec<Raw>> {
        proptest::collection::vec(
            (0u8..6, 0usize..64, 0usize..64, 0usize..64, 0u64..12),
            0..120,
        )
    }

    fn cuts() -> impl proptest::strategy::Strategy<Value = Vec<usize>> {
        proptest::collection::vec(0usize..24, 0..12)
    }

    proptest::proptest! {
        /// The batch entry against one `apply` per op, on all three
        /// standards, over the same random kinds, ids and cuts.
        #[test]
        fn batch_entry_matches_per_op_apply(
            raw in raw_script(),
            cuts in cuts(),
            balances in proptest::collection::vec(0u64..10, 8),
        ) {
            let script: Vec<_> = raw.iter().copied().map(erc20_op).collect();
            let genesis = Erc20State::from_balances(balances.clone());
            batches_match_single_ops::<Erc20Tracked>(genesis, &script, &cuts);

            let script: Vec<_> = raw.iter().copied().map(erc721_op).collect();
            let genesis = Erc721State::minted_round_robin(8, 32, 16);
            batches_match_single_ops::<Erc721Tracked>(genesis, &script, &cuts);

            let script: Vec<_> = raw.iter().copied().map(erc1155_op).collect();
            let mut genesis = Erc1155State::deploy(8, p(0), &[0; 4]);
            for (i, &balance) in balances.iter().enumerate() {
                genesis.set_balance(a(i), TypeId::new(i % 4), balance);
            }
            batches_match_single_ops::<Erc1155Tracked>(genesis, &script, &cuts);
        }
    }
}
