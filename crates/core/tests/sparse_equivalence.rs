//! Equivalence of the sparse `Erc20State` against a dense reference model.
//!
//! The sparse allowance representation (per-account sorted lists of
//! positive entries) is a pure data-structure change: the transition
//! function `Δ` of Definition 3 must be bit-for-bit unchanged. This suite
//! replays random operation scripts against both the production
//! `Erc20State` and an independently written dense `n × n` matrix model —
//! the representation the engine used before it scaled — and demands
//! identical responses and identical final states.
//!
//! A `SpenderMap` row holds at most one entry in place and spills to a
//! heap vector at the second; the row-level properties check it against
//! a `BTreeMap` model as rows cross 0 ↔ 1 ↔ 2+ entries, and check that
//! equality, hashing and encoded bytes never depend on which form a
//! row's history left it in.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use proptest::collection::vec;
use proptest::prelude::*;
use tokensync_core::codec::Codec;
use tokensync_core::erc20::{Erc20Op, Erc20Resp, Erc20Spec, Erc20State, SpenderMap};
use tokensync_spec::{AccountId, Amount, ObjectType, ProcessId};

const N: usize = 5;

/// The dense reference: `allowances[a][p]` is a full matrix cell, zeros
/// stored explicitly. Mirrors Algorithm 3 line by line, written without
/// reference to the production code.
struct DenseState {
    balances: Vec<Amount>,
    allowances: Vec<Vec<Amount>>,
}

impl DenseState {
    fn new(balances: Vec<Amount>) -> Self {
        let n = balances.len();
        Self {
            balances,
            allowances: vec![vec![0; n]; n],
        }
    }

    fn in_range(&self, i: usize) -> bool {
        i < self.balances.len()
    }

    fn apply(&mut self, caller: ProcessId, op: &Erc20Op) -> Erc20Resp {
        let c = caller.index();
        match *op {
            Erc20Op::Transfer { to, value } => {
                let t = to.index();
                if !self.in_range(c) || !self.in_range(t) || self.balances[c] < value {
                    return Erc20Resp::FALSE;
                }
                self.balances[c] -= value;
                self.balances[t] += value;
                Erc20Resp::TRUE
            }
            Erc20Op::TransferFrom { from, to, value } => {
                let (f, t) = (from.index(), to.index());
                if !self.in_range(c)
                    || !self.in_range(f)
                    || !self.in_range(t)
                    || self.allowances[f][c] < value
                    || self.balances[f] < value
                {
                    return Erc20Resp::FALSE;
                }
                self.allowances[f][c] -= value;
                self.balances[f] -= value;
                self.balances[t] += value;
                Erc20Resp::TRUE
            }
            Erc20Op::Approve { spender, value } => {
                let s = spender.index();
                if !self.in_range(c) || !self.in_range(s) {
                    return Erc20Resp::FALSE;
                }
                self.allowances[c][s] = value;
                Erc20Resp::TRUE
            }
            Erc20Op::BalanceOf { account } => Erc20Resp::Amount(
                self.in_range(account.index())
                    .then(|| self.balances[account.index()])
                    .unwrap_or(0),
            ),
            Erc20Op::Allowance { account, spender } => Erc20Resp::Amount(
                (self.in_range(account.index()) && self.in_range(spender.index()))
                    .then(|| self.allowances[account.index()][spender.index()])
                    .unwrap_or(0),
            ),
            Erc20Op::TotalSupply => Erc20Resp::Amount(self.balances.iter().sum()),
        }
    }
}

fn arb_op() -> impl Strategy<Value = Erc20Op> {
    // Indices range one past N so out-of-range rejection is exercised too.
    let idx = 0..N + 1;
    prop_oneof![
        (idx.clone(), 0u64..6).prop_map(|(to, value)| Erc20Op::Transfer {
            to: AccountId::new(to),
            value
        }),
        (idx.clone(), idx.clone(), 0u64..6).prop_map(|(from, to, value)| {
            Erc20Op::TransferFrom {
                from: AccountId::new(from),
                to: AccountId::new(to),
                value,
            }
        }),
        (idx.clone(), 0u64..8).prop_map(|(spender, value)| Erc20Op::Approve {
            spender: ProcessId::new(spender),
            value
        }),
        idx.clone().prop_map(|account| Erc20Op::BalanceOf {
            account: AccountId::new(account)
        }),
        (idx.clone(), idx.clone()).prop_map(|(account, spender)| Erc20Op::Allowance {
            account: AccountId::new(account),
            spender: ProcessId::new(spender),
        }),
        Just(Erc20Op::TotalSupply),
    ]
}

/// One edit of an allowance row.
#[derive(Clone, Debug)]
enum RowEdit {
    Set(usize, Amount),
    /// Applied only when the allowance covers it (the `Δ` precondition).
    Debit(usize, Amount),
    Revoke(usize),
}

fn arb_row_edit() -> impl Strategy<Value = RowEdit> {
    prop_oneof![
        (0..N, 0u64..4).prop_map(|(p, v)| RowEdit::Set(p, v)),
        (0..N, 1u64..4).prop_map(|(p, v)| RowEdit::Debit(p, v)),
        (0..N).prop_map(RowEdit::Revoke),
    ]
}

/// Applies `edit` to the row and to its `BTreeMap` model (positive
/// entries only).
fn edit_row(row: &mut SpenderMap, model: &mut BTreeMap<u32, Amount>, edit: &RowEdit) {
    let key = |p: usize| u32::try_from(p).unwrap();
    match *edit {
        RowEdit::Set(p, 0) | RowEdit::Revoke(p) => {
            row.set(p, 0);
            model.remove(&key(p));
        }
        RowEdit::Set(p, v) => {
            row.set(p, v);
            model.insert(key(p), v);
        }
        RowEdit::Debit(p, v) => {
            let Some(have) = model.get_mut(&key(p)).filter(|have| **have >= v) else {
                return;
            };
            row.debit(p, v);
            *have -= v;
            if *have == 0 {
                model.remove(&key(p));
            }
        }
    }
}

/// A row holding exactly `model`'s entries, built by fresh approvals.
fn fresh_row(model: &BTreeMap<u32, Amount>) -> SpenderMap {
    let mut row = SpenderMap::new();
    for (&p, &v) in model {
        row.set(p as usize, v);
    }
    row
}

fn hash_of<T: Hash>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// A row that spilled to two entries and came back to one by a revoke
/// is the same row as a fresh single approval.
#[test]
fn a_revoked_down_row_equals_a_fresh_approval() {
    let mut shrunk = SpenderMap::new();
    shrunk.set(1, 7);
    shrunk.set(3, 2);
    shrunk.set(3, 0);
    let mut fresh = SpenderMap::new();
    fresh.set(1, 7);
    assert_eq!(shrunk, fresh);
    assert_eq!(hash_of(&shrunk), hash_of(&fresh));
    assert_eq!(format!("{shrunk:?}"), format!("{fresh:?}"));
}

proptest! {
    /// Random set/debit/revoke sequences agree with a `BTreeMap` model
    /// after every step, as rows cross 0 ↔ 1 ↔ 2+ entries.
    #[test]
    fn spender_map_matches_btreemap_model(edits in vec(arb_row_edit(), 0..80)) {
        let mut row = SpenderMap::new();
        let mut model = BTreeMap::new();
        for edit in &edits {
            edit_row(&mut row, &mut model, edit);
            for p in 0..N + 1 {
                prop_assert_eq!(row.get(p), model.get(&(p as u32)).copied().unwrap_or(0));
            }
            prop_assert_eq!(row.len(), model.len());
            prop_assert_eq!(row.is_empty(), model.is_empty());
            let entries: Vec<(u32, Amount)> =
                row.iter().map(|(p, v)| (p.index() as u32, v)).collect();
            let expected: Vec<(u32, Amount)> = model.iter().map(|(&p, &v)| (p, v)).collect();
            prop_assert_eq!(entries, expected);
        }
    }

    /// Rows with equal entries compare equal, hash equal and clone equal
    /// whatever history built them, and states holding them encode to
    /// identical bytes.
    #[test]
    fn equality_does_not_depend_on_row_history(
        histories in vec(vec(arb_row_edit(), 0..24), N),
    ) {
        // `replayed` runs each row's history through the state's own
        // mutators; `fresh` sets only the surviving entries, in
        // descending spender order.
        let mut replayed = Erc20State::from_balances(vec![10; N]);
        let mut fresh = Erc20State::from_balances(vec![10; N]);
        for (a, edits) in histories.iter().enumerate() {
            let account = AccountId::new(a);
            let mut row = SpenderMap::new();
            let mut model = BTreeMap::new();
            for edit in edits {
                edit_row(&mut row, &mut model, edit);
                match *edit {
                    RowEdit::Set(p, v) => replayed.set_allowance(account, ProcessId::new(p), v),
                    RowEdit::Revoke(p) => replayed.set_allowance(account, ProcessId::new(p), 0),
                    // A self-transfer: consumes allowance, keeps balances.
                    RowEdit::Debit(p, v) => {
                        let _ = replayed.transfer_from(ProcessId::new(p), account, account, v);
                    }
                }
            }
            let built = fresh_row(&model);
            prop_assert_eq!(&row, &built);
            prop_assert_eq!(hash_of(&row), hash_of(&built));
            prop_assert_eq!(&row.clone(), &built);
            prop_assert_eq!(format!("{row:?}"), format!("{built:?}"));
            prop_assert_eq!(replayed.approval_row(account), &built);
            for (&p, &v) in model.iter().rev() {
                fresh.set_allowance(account, ProcessId::new(p as usize), v);
            }
        }
        prop_assert_eq!(&replayed, &fresh);
        prop_assert_eq!(hash_of(&replayed), hash_of(&fresh));
        prop_assert_eq!(replayed.encode(), fresh.encode());
        prop_assert_eq!(replayed.clone().encode(), fresh.encode());
    }

    /// Every response and every observable cell of the final state agree
    /// between the sparse production state and the dense reference.
    #[test]
    fn sparse_state_matches_dense_reference(
        balances in vec(0u64..20, N),
        approvals in vec((0..N, 0..N, 0u64..8), 0..8),
        script in vec((0..N, arb_op()), 0..120),
    ) {
        let mut dense = DenseState::new(balances.clone());
        let mut sparse = Erc20State::from_balances(balances);
        for &(a, p, v) in &approvals {
            dense.allowances[a][p] = v;
            sparse.set_allowance(AccountId::new(a), ProcessId::new(p), v);
        }
        let spec = Erc20Spec::new(Erc20State::new(0));
        for (caller, op) in &script {
            let caller = ProcessId::new(*caller);
            let expected = dense.apply(caller, op);
            let got = spec.apply(&mut sparse, caller, op);
            prop_assert_eq!(got, expected, "diverged on {:?}", op);
        }
        // Full observable-state comparison, including cells never named by
        // the script (a sparse bookkeeping bug could hide there).
        for a in 0..N {
            prop_assert_eq!(sparse.balance(AccountId::new(a)), dense.balances[a]);
            for p in 0..N {
                prop_assert_eq!(
                    sparse.allowance(AccountId::new(a), ProcessId::new(p)),
                    dense.allowances[a][p],
                    "allowance ({}, {})", a, p
                );
            }
        }
        // The cached supply equals the dense scan.
        prop_assert_eq!(sparse.total_supply(), dense.balances.iter().sum::<u64>());
    }

    /// The sparse iterators report exactly the positive cells of the dense
    /// matrix — the support the analysis layer now runs on.
    #[test]
    fn approval_support_matches_dense_positives(
        approvals in vec((0..N, 0..N, 0u64..5), 0..12),
        script in vec((0..N, arb_op()), 0..60),
    ) {
        let mut dense = DenseState::new(vec![10; N]);
        let mut sparse = Erc20State::from_balances(vec![10; N]);
        for &(a, p, v) in &approvals {
            dense.allowances[a][p] = v;
            sparse.set_allowance(AccountId::new(a), ProcessId::new(p), v);
        }
        let spec = Erc20Spec::new(Erc20State::new(0));
        for (caller, op) in &script {
            spec.apply(&mut sparse, ProcessId::new(*caller), op);
            dense.apply(ProcessId::new(*caller), op);
        }
        let mut total = 0;
        for a in 0..N {
            let account = AccountId::new(a);
            let support: Vec<(usize, Amount)> =
                sparse.approvals(account).map(|(p, v)| (p.index(), v)).collect();
            let expected: Vec<(usize, Amount)> = dense.allowances[a]
                .iter()
                .enumerate()
                .filter(|(_, &v)| v > 0)
                .map(|(p, &v)| (p, v))
                .collect();
            prop_assert_eq!(&support, &expected, "support of account {}", a);
            prop_assert_eq!(sparse.approval_count(account), expected.len());
            total += expected.len();
            prop_assert_eq!(
                sparse.accounts_with_approvals().any(|x| x == account),
                !expected.is_empty()
            );
        }
        prop_assert_eq!(sparse.outstanding_approvals(), total);
    }
}
