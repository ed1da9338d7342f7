//! The served states against independent reference models.
//!
//! Each served object runs its sequential state's own transitions, so
//! the linearizability suites compare an object with its own code. These
//! models are the second implementation: `BTreeMap` forms of the ERC721
//! and ERC1155 states (the representation they had before they went
//! dense) and a naive ERC20, each written from the standard, not from
//! the production code. Every step of a random script runs on the
//! model, on the production state's typed transition, on its spec and on
//! the served object. The suites demand the same outcome (to the error
//! value) and the same state after each step, including a state rebuilt
//! from the model's contents: the derived `Eq`/`Hash` of a dense state
//! must be mathematical equality, whatever history built it.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

use proptest::collection::vec;
use proptest::prelude::*;
use tokensync_core::erc20::{Erc20Op, Erc20Resp, Erc20Spec, Erc20State};
use tokensync_core::shared::{ConcurrentObject, ConcurrentToken, ShardedErc20};
use tokensync_core::standards::erc1155::{
    Erc1155Error, Erc1155Op, Erc1155Resp, Erc1155Spec, Erc1155State, ShardedErc1155, TypeId,
};
use tokensync_core::standards::erc721::{
    Erc721Error, Erc721Op, Erc721Resp, Erc721Spec, Erc721State, ShardedErc721, TokenId,
};
use tokensync_core::TokenError;
use tokensync_spec::{AccountId, Amount, ObjectType, ProcessId};

fn a(i: usize) -> AccountId {
    AccountId::new(i)
}
fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}
fn t(i: usize) -> TokenId {
    TokenId::new(i)
}
fn ty(i: usize) -> TypeId {
    TypeId::new(i)
}

fn hash_of<T: Hash>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

// ── ERC20 ──────────────────────────────────────────────────────────────

/// Balances in a vector, positive allowances in a map keyed
/// `(owner, spender)`: Algorithm 3 with nothing cached.
struct Erc20Model {
    balances: Vec<Amount>,
    allowances: BTreeMap<(usize, usize), Amount>,
}

impl Erc20Model {
    fn n(&self) -> usize {
        self.balances.len()
    }

    fn process(&self, q: ProcessId) -> Result<(), TokenError> {
        if q.index() < self.n() {
            Ok(())
        } else {
            Err(TokenError::UnknownProcess { process: q })
        }
    }

    fn account(&self, x: AccountId) -> Result<(), TokenError> {
        if x.index() < self.n() {
            Ok(())
        } else {
            Err(TokenError::UnknownAccount { account: x })
        }
    }

    fn allowance(&self, owner: usize, spender: usize) -> Amount {
        self.allowances.get(&(owner, spender)).copied().unwrap_or(0)
    }

    /// Moves `value` from `from` to `to` if the balance covers it.
    fn debit_credit(
        &mut self,
        from: AccountId,
        to: AccountId,
        value: Amount,
    ) -> Result<(), TokenError> {
        let balance = self.balances[from.index()];
        if balance < value {
            return Err(TokenError::InsufficientBalance {
                account: from,
                balance,
                required: value,
            });
        }
        self.balances[from.index()] -= value;
        self.balances[to.index()] += value;
        Ok(())
    }

    /// A mutator's typed outcome, or a read's answer.
    fn step(&mut self, caller: ProcessId, op: &Erc20Op) -> Result<Result<(), TokenError>, Amount> {
        Ok(match *op {
            Erc20Op::Transfer { to, value } => self
                .process(caller)
                .and_then(|()| self.account(to))
                .and_then(|()| self.debit_credit(caller.own_account(), to, value)),
            Erc20Op::TransferFrom { from, to, value } => (|| {
                self.process(caller)?;
                self.account(from)?;
                self.account(to)?;
                let allowance = self.allowance(from.index(), caller.index());
                if allowance < value {
                    return Err(TokenError::InsufficientAllowance {
                        account: from,
                        spender: caller,
                        allowance,
                        required: value,
                    });
                }
                self.debit_credit(from, to, value)?;
                let key = (from.index(), caller.index());
                match allowance - value {
                    0 => self.allowances.remove(&key),
                    left => self.allowances.insert(key, left),
                };
                Ok(())
            })(),
            Erc20Op::Approve { spender, value } => (|| {
                self.process(caller)?;
                self.process(spender)?;
                let key = (caller.index(), spender.index());
                match value {
                    0 => self.allowances.remove(&key),
                    _ => self.allowances.insert(key, value),
                };
                Ok(())
            })(),
            Erc20Op::BalanceOf { account } => {
                return Err(self.balances.get(account.index()).copied().unwrap_or(0))
            }
            Erc20Op::Allowance { account, spender } => {
                let known = account.index() < self.n() && spender.index() < self.n();
                return Err(if known {
                    self.allowance(account.index(), spender.index())
                } else {
                    0
                });
            }
            Erc20Op::TotalSupply => return Err(self.balances.iter().sum()),
        })
    }

    /// Whether `state` holds exactly the model's balances and positive
    /// allowances.
    fn matches(&self, state: &Erc20State) -> bool {
        let allowances: BTreeMap<(usize, usize), Amount> = (0..self.n())
            .flat_map(|owner| {
                state
                    .approvals(a(owner))
                    .map(move |(spender, v)| ((owner, spender.index()), v))
            })
            .collect();
        (0..self.n()).all(|x| state.balance(a(x)) == self.balances[x])
            && allowances == self.allowances
            && state.total_supply() == self.balances.iter().sum::<Amount>()
    }
}

/// ERC20 ops over ids one past `n`.
fn arb_erc20_op(n: usize) -> impl Strategy<Value = Erc20Op> {
    let id = 0..n + 1;
    prop_oneof![
        (id.clone(), 0u64..6).prop_map(|(to, value)| Erc20Op::Transfer { to: a(to), value }),
        (id.clone(), id.clone(), 0u64..6).prop_map(|(from, to, value)| Erc20Op::TransferFrom {
            from: a(from),
            to: a(to),
            value,
        }),
        (id.clone(), 0u64..6).prop_map(|(spender, value)| Erc20Op::Approve {
            spender: p(spender),
            value,
        }),
        id.clone()
            .prop_map(|x| Erc20Op::BalanceOf { account: a(x) }),
        (id.clone(), id.clone()).prop_map(|(x, q)| Erc20Op::Allowance {
            account: a(x),
            spender: p(q),
        }),
        Just(Erc20Op::TotalSupply),
    ]
}

// ── ERC721 ─────────────────────────────────────────────────────────────

/// Minted tokens and outstanding approvals as maps, operator pairs as a
/// set: only what exists is stored.
#[derive(Default)]
struct Erc721Model {
    processes: usize,
    span: usize,
    owners: BTreeMap<usize, usize>,
    approved: BTreeMap<usize, usize>,
    operators: BTreeSet<(usize, usize)>,
}

impl Erc721Model {
    fn in_range(&self, token: TokenId, processes: &[ProcessId]) -> Result<usize, Erc721Error> {
        if token.index() < self.span && processes.iter().all(|q| q.index() < self.processes) {
            Ok(token.index())
        } else {
            Err(Erc721Error::BadId)
        }
    }

    fn owner(&self, token: TokenId) -> Result<usize, Erc721Error> {
        self.owners
            .get(&token.index())
            .copied()
            .ok_or(Erc721Error::UnknownToken(token))
    }

    fn operates(&self, owner: usize, caller: ProcessId) -> bool {
        self.operators.contains(&(owner, caller.index()))
    }

    fn step(
        &mut self,
        caller: ProcessId,
        op: &Erc721Op,
    ) -> Result<Result<(), Erc721Error>, Option<ProcessId>> {
        Ok(match *op {
            Erc721Op::Mint { to, token } => (|| {
                let id = self.in_range(token, &[caller, to])?;
                if self.owners.contains_key(&id) {
                    return Err(Erc721Error::AlreadyMinted(token));
                }
                self.owners.insert(id, to.index());
                Ok(())
            })(),
            Erc721Op::TransferFrom { from, to, token } => (|| {
                let id = self.in_range(token, &[caller, from, to])?;
                let owner = self.owner(token)?;
                if owner != from.index() {
                    return Err(Erc721Error::WrongOwner {
                        claimed: from,
                        actual: p(owner),
                    });
                }
                let approved = self.approved.get(&id) == Some(&caller.index());
                if caller.index() != owner && !approved && !self.operates(owner, caller) {
                    return Err(Erc721Error::NotAuthorized { caller, token });
                }
                self.owners.insert(id, to.index());
                self.approved.remove(&id);
                Ok(())
            })(),
            Erc721Op::Approve { approved, token } => (|| {
                let id = self.in_range(token, &[caller])?;
                if approved.is_some_and(|q| q.index() >= self.processes) {
                    return Err(Erc721Error::BadId);
                }
                let owner = self.owner(token)?;
                if caller.index() != owner && !self.operates(owner, caller) {
                    return Err(Erc721Error::NotAuthorized { caller, token });
                }
                match approved {
                    Some(q) => self.approved.insert(id, q.index()),
                    None => self.approved.remove(&id),
                };
                Ok(())
            })(),
            Erc721Op::SetApprovalForAll { operator, on } => (|| {
                if caller.index() >= self.processes || operator.index() >= self.processes {
                    return Err(Erc721Error::BadId);
                }
                if operator == caller {
                    return Err(Erc721Error::SelfApproval);
                }
                let pair = (caller.index(), operator.index());
                if on {
                    self.operators.insert(pair);
                } else {
                    self.operators.remove(&pair);
                }
                Ok(())
            })(),
            Erc721Op::OwnerOf { token } => {
                return Err(self.owners.get(&token.index()).map(|&o| p(o)))
            }
            Erc721Op::GetApproved { token } => {
                return Err(self.approved.get(&token.index()).map(|&q| p(q)))
            }
        })
    }

    /// The model's contents put into a fresh dense state, ascending.
    fn rebuilt(&self) -> Erc721State {
        let mut state = Erc721State::new(self.processes, self.span);
        for (&id, &owner) in &self.owners {
            state.put_token(t(id), p(owner), self.approved.get(&id).map(|&q| p(q)));
        }
        for &(h, o) in &self.operators {
            state.set_operator(p(h), p(o), true);
        }
        state
    }

    fn matches(&self, state: &Erc721State) -> bool {
        let tokens: Vec<(usize, usize, Option<usize>)> = state
            .minted_tokens()
            .map(|(id, owner, approved)| {
                (id.index(), owner.index(), approved.map(ProcessId::index))
            })
            .collect();
        let expected: Vec<(usize, usize, Option<usize>)> = self
            .owners
            .iter()
            .map(|(&id, &owner)| (id, owner, self.approved.get(&id).copied()))
            .collect();
        let pairs: BTreeSet<(usize, usize)> = state
            .operator_pairs()
            .map(|(h, o)| (h.index(), o.index()))
            .collect();
        tokens == expected && pairs == self.operators && state.minted() == self.owners.len()
    }
}

/// The typed transition `op` names on the dense state, or `None` for a
/// read.
fn erc721_typed(
    state: &mut Erc721State,
    caller: ProcessId,
    op: &Erc721Op,
) -> Option<Result<(), Erc721Error>> {
    Some(match *op {
        Erc721Op::Mint { to, token } => state.mint(caller, to, token),
        Erc721Op::TransferFrom { from, to, token } => state.transfer_from(caller, from, to, token),
        Erc721Op::Approve { approved, token } => state.approve(caller, approved, token),
        Erc721Op::SetApprovalForAll { operator, on } => {
            state.set_approval_for_all(caller, operator, on)
        }
        Erc721Op::OwnerOf { .. } | Erc721Op::GetApproved { .. } => return None,
    })
}

/// ERC721 ops over processes and token ids one past `n` and `span`.
fn arb_erc721_op(n: usize, span: usize) -> impl Strategy<Value = Erc721Op> {
    prop_oneof![
        (0..=n, 0..=span).prop_map(|(to, token)| Erc721Op::Mint {
            to: p(to),
            token: t(token)
        }),
        (0..=n, 0..=n, 0..=span).prop_map(|(from, to, token)| Erc721Op::TransferFrom {
            from: p(from),
            to: p(to),
            token: t(token),
        }),
        (0..=n + 1, 0..=span).prop_map(move |(q, token)| Erc721Op::Approve {
            approved: (q <= n).then(|| p(q)),
            token: t(token),
        }),
        (0..=n, 0..2usize).prop_map(|(operator, on)| Erc721Op::SetApprovalForAll {
            operator: p(operator),
            on: on == 1,
        }),
        (0..=span).prop_map(|token| Erc721Op::OwnerOf { token: t(token) }),
        (0..=span).prop_map(|token| Erc721Op::GetApproved { token: t(token) }),
    ]
}

// ── ERC1155 ────────────────────────────────────────────────────────────

/// Positive balances keyed `(type, account)`, operator pairs as a set,
/// and the per-type supplies the deploy fixed.
struct Erc1155Model {
    accounts: usize,
    balances: BTreeMap<(usize, usize), Amount>,
    operators: BTreeSet<(usize, usize)>,
    supplies: Vec<Amount>,
}

impl Erc1155Model {
    fn balance(&self, account: usize, type_id: usize) -> Amount {
        self.balances.get(&(type_id, account)).copied().unwrap_or(0)
    }

    fn set(&mut self, account: usize, type_id: usize, value: Amount) {
        if value == 0 {
            self.balances.remove(&(type_id, account));
        } else {
            self.balances.insert((type_id, account), value);
        }
    }

    /// `safeBatchTransferFrom` with the rows as given: all or nothing.
    fn transfer(
        &mut self,
        caller: ProcessId,
        from: AccountId,
        to: AccountId,
        rows: &[(TypeId, Amount)],
    ) -> Result<(), Erc1155Error> {
        let n = self.accounts;
        if from.index() >= n || to.index() >= n || caller.index() >= n {
            return Err(Erc1155Error::BadId);
        }
        if caller != from.owner() && !self.operators.contains(&(from.index(), caller.index())) {
            return Err(Erc1155Error::NotAuthorized { caller, from });
        }
        if rows.iter().any(|(t, _)| t.index() >= self.supplies.len()) {
            return Err(Erc1155Error::BadId);
        }
        // Sum per type; no balance covers a sum past u64, and the lowest
        // such type is the one refused.
        let mut required = BTreeMap::<usize, u128>::new();
        for &(type_id, v) in rows {
            *required.entry(type_id.index()).or_default() += u128::from(v);
        }
        if let Some((&type_id, _)) = required
            .iter()
            .find(|&(_, &sum)| sum > u128::from(Amount::MAX))
        {
            return Err(Erc1155Error::InsufficientBalance {
                type_id: ty(type_id),
                balance: self.balance(from.index(), type_id),
                required: Amount::MAX,
            });
        }
        for (&type_id, &v) in &required {
            let balance = self.balance(from.index(), type_id);
            if u128::from(balance) < v {
                return Err(Erc1155Error::InsufficientBalance {
                    type_id: ty(type_id),
                    balance,
                    required: v as Amount,
                });
            }
        }
        for (&type_id, &v) in &required {
            let v = v as Amount;
            let source = self.balance(from.index(), type_id) - v;
            self.set(from.index(), type_id, source);
            let dest = self.balance(to.index(), type_id) + v;
            self.set(to.index(), type_id, dest);
        }
        Ok(())
    }

    fn step(
        &mut self,
        caller: ProcessId,
        op: &Erc1155Op,
    ) -> Result<Result<(), Erc1155Error>, Amount> {
        Ok(match *op {
            Erc1155Op::Transfer {
                from,
                to,
                type_id,
                value,
            } => self.transfer(caller, from, to, &[(type_id, value)]),
            Erc1155Op::BatchTransfer {
                from,
                to,
                ref entries,
            } => self.transfer(caller, from, to, entries),
            Erc1155Op::SetApprovalForAll { operator, on } => (|| {
                if caller.index() >= self.accounts || operator.index() >= self.accounts {
                    return Err(Erc1155Error::BadId);
                }
                if operator == caller {
                    return Err(Erc1155Error::SelfApproval);
                }
                let pair = (caller.index(), operator.index());
                if on {
                    self.operators.insert(pair);
                } else {
                    self.operators.remove(&pair);
                }
                Ok(())
            })(),
            Erc1155Op::BalanceOf { account, type_id } => {
                return Err(self.balance(account.index(), type_id.index()))
            }
            Erc1155Op::TotalSupply { type_id } => {
                return Err(self.supplies.get(type_id.index()).copied().unwrap_or(0))
            }
        })
    }

    /// The model's contents put into a fresh dense state.
    fn rebuilt(&self) -> Erc1155State {
        let mut state = Erc1155State::deploy(self.accounts, p(0), &vec![0; self.supplies.len()]);
        for (&(type_id, account), &v) in self.balances.iter().rev() {
            state.set_balance(a(account), ty(type_id), v);
        }
        for &(h, o) in &self.operators {
            state.set_operator(a(h), p(o), true);
        }
        state
    }

    fn matches(&self, state: &Erc1155State) -> bool {
        let entries: Vec<((usize, usize), Amount)> = state
            .balance_entries()
            .map(|(type_id, account, v)| ((type_id.index(), account.index()), v))
            .collect();
        let pairs: BTreeSet<(usize, usize)> = state
            .operator_pairs()
            .map(|(h, o)| (h.index(), o.index()))
            .collect();
        let supplies: Vec<Amount> = (0..state.types())
            .map(|x| state.total_supply(ty(x)))
            .collect();
        entries
            .into_iter()
            .eq(self.balances.iter().map(|(&k, &v)| (k, v)))
            && pairs == self.operators
            && supplies == self.supplies
    }
}

/// Mostly small amounts, sometimes over half of `u64`: two of those on
/// one type sum past what any balance covers.
fn arb_amount() -> impl Strategy<Value = Amount> {
    prop_oneof![0u64..4, 0u64..4, 0u64..4, (u64::MAX / 2)..=u64::MAX]
}

/// ERC1155 ops over accounts and types one past `n` and `types`.
fn arb_erc1155_op(n: usize, types: usize) -> impl Strategy<Value = Erc1155Op> {
    prop_oneof![
        (0..=n, 0..=n, 0..=types, arb_amount()).prop_map(|(from, to, x, value)| {
            Erc1155Op::Transfer {
                from: a(from),
                to: a(to),
                type_id: ty(x),
                value,
            }
        }),
        (0..=n, 0..=n, vec((0..=types, arb_amount()), 0..5)).prop_map(|(from, to, rows)| {
            Erc1155Op::BatchTransfer {
                from: a(from),
                to: a(to),
                entries: rows.into_iter().map(|(x, v)| (ty(x), v)).collect(),
            }
        }),
        (0..=n, 0..2usize).prop_map(|(operator, on)| Erc1155Op::SetApprovalForAll {
            operator: p(operator),
            on: on == 1,
        }),
        (0..=n, 0..=types).prop_map(|(x, y)| Erc1155Op::BalanceOf {
            account: a(x),
            type_id: ty(y)
        }),
        (0..=types).prop_map(|x| Erc1155Op::TotalSupply { type_id: ty(x) }),
    ]
}

/// The typed transition `op` names on the dense state, or `None` for a
/// read. A batch goes through the array form.
fn erc1155_typed(
    state: &mut Erc1155State,
    caller: ProcessId,
    op: &Erc1155Op,
) -> Option<Result<(), Erc1155Error>> {
    Some(match *op {
        Erc1155Op::Transfer {
            from,
            to,
            type_id,
            value,
        } => state.safe_transfer_from(caller, from, to, type_id, value),
        Erc1155Op::BatchTransfer {
            from,
            to,
            ref entries,
        } => {
            let (ids, amounts): (Vec<_>, Vec<_>) = entries.iter().copied().unzip();
            state.safe_batch_transfer_from(caller, from, to, &ids, &amounts)
        }
        Erc1155Op::SetApprovalForAll { operator, on } => {
            state.set_approval_for_all(caller, operator, on)
        }
        Erc1155Op::BalanceOf { .. } | Erc1155Op::TotalSupply { .. } => return None,
    })
}

/// Aims three quarters of the token ops at the token's current owner,
/// so transfers and approvals land: `choice` 1 sends a transfer from
/// the claimed owner, 2 claims the actual owner, 3 also calls as it.
fn aim_at_owner(
    model: &Erc721Model,
    caller: ProcessId,
    op: &Erc721Op,
    choice: usize,
) -> (ProcessId, Erc721Op) {
    let owner = |token: TokenId| model.owners.get(&token.index()).map(|&o| p(o));
    match (op.clone(), choice) {
        (Erc721Op::TransferFrom { from, .. }, 1) => (from, op.clone()),
        (Erc721Op::TransferFrom { to, token, from }, 2 | 3) => {
            let from = owner(token).unwrap_or(from);
            let caller = if choice == 3 { from } else { caller };
            (caller, Erc721Op::TransferFrom { from, to, token })
        }
        (Erc721Op::Approve { token, .. }, 2 | 3) => (owner(token).unwrap_or(caller), op.clone()),
        (op, _) => (caller, op),
    }
}

/// Half the transfers come from the source's owner, so they can land.
fn caller_of(caller: usize, choice: usize, from: Option<ProcessId>) -> ProcessId {
    match from {
        Some(owner) if choice == 1 => owner,
        _ => p(caller),
    }
}

proptest! {
    /// The served ERC20 object and the spec against the naive model,
    /// step by step: the typed outcome to the error value, the response,
    /// and every balance and allowance after each step.
    #[test]
    fn erc20_matches_the_reference_model(
        balances in vec(0u64..12, 1..6),
        approvals in vec((0usize..6, 0usize..6, 1u64..6), 0..6),
        script in vec((0usize..7, arb_erc20_op(6)), 0..64),
    ) {
        let n = balances.len();
        let mut genesis = Erc20State::from_balances(balances.clone());
        let mut model = Erc20Model { balances, allowances: BTreeMap::new() };
        for (owner, spender, v) in approvals {
            let (owner, spender) = (owner % n, spender % n);
            genesis.set_allowance(a(owner), p(spender), v);
            model.allowances.insert((owner, spender), v);
        }
        let served = ShardedErc20::from_state(genesis.clone());
        let spec = Erc20Spec::new(genesis);
        let mut state = spec.initial_state();
        for (caller, op) in &script {
            let caller = p(*caller % (n + 1));
            let expected = model.step(caller, op);
            let resp = spec.apply(&mut state, caller, op);
            let typed = match *op {
                Erc20Op::Transfer { to, value } => Some(served.transfer(caller, to, value)),
                Erc20Op::TransferFrom { from, to, value } => {
                    Some(served.transfer_from(caller, from, to, value))
                }
                Erc20Op::Approve { spender, value } => Some(served.approve(caller, spender, value)),
                _ => None,
            };
            match (&expected, typed) {
                (Ok(outcome), Some(typed)) => {
                    prop_assert_eq!(&typed, outcome, "{:?} by {}", op, caller);
                    prop_assert_eq!(resp, Erc20Resp::Bool(outcome.is_ok()));
                }
                (Err(read), None) => {
                    prop_assert_eq!(resp, Erc20Resp::Amount(*read));
                    prop_assert_eq!(served.apply(caller, op), resp);
                }
                _ => prop_assert!(false, "{:?}: mutator and read disagree", op),
            }
            prop_assert!(model.matches(&state), "spec state diverged after {:?}", op);
            prop_assert_eq!(&served.snapshot(), &state);
        }
    }

    /// The dense ERC721 state (typed transitions and spec) and the served
    /// object against the `BTreeMap` model, step by step. Token ids reach
    /// one past the span and mints land anywhere in it, so the table
    /// grows past its genesis length and keeps holes.
    #[test]
    fn erc721_matches_the_reference_model(
        premint in vec((0usize..8, 0usize..4), 0..4),
        approvals in vec((0usize..8, 0usize..4), 0..3),
        operators in vec((0usize..4, 0usize..4), 0..3),
        script in vec((0usize..5, arb_erc721_op(4, 8), 0usize..4), 0..64),
    ) {
        const N: usize = 4;
        const SPAN: usize = 8;
        let mut model = Erc721Model { processes: N, span: SPAN, ..Erc721Model::default() };
        for (token, owner) in premint {
            model.owners.insert(token, owner);
        }
        for (token, q) in approvals {
            if model.owners.contains_key(&token) {
                model.approved.insert(token, q);
            }
        }
        model.operators.extend(operators.into_iter().filter(|(h, o)| h != o));
        let genesis = model.rebuilt();
        prop_assert!(model.matches(&genesis));
        let served = ShardedErc721::from_state(genesis.clone());
        let spec = Erc721Spec::new(genesis.clone());
        let (mut typed_state, mut spec_state) = (genesis.clone(), genesis);
        for (caller, op, choice) in &script {
            let (caller, op) = aim_at_owner(&model, p(*caller), op, *choice);
            let op = &op;
            let expected = model.step(caller, op);
            let resp = spec.apply(&mut spec_state, caller, op);
            match (&expected, erc721_typed(&mut typed_state, caller, op)) {
                (Ok(outcome), Some(typed)) => {
                    prop_assert_eq!(&typed, outcome, "{:?} by {}", op, caller);
                    prop_assert_eq!(resp, Erc721Resp::Bool(outcome.is_ok()));
                }
                (Err(read), None) => prop_assert_eq!(resp, Erc721Resp::Process(*read)),
                _ => prop_assert!(false, "{:?}: mutator and read disagree", op),
            }
            prop_assert_eq!(served.apply(caller, op), resp);
            prop_assert!(model.matches(&spec_state), "spec state diverged after {:?}", op);
            prop_assert_eq!(&typed_state, &spec_state);
            prop_assert_eq!(&served.snapshot(), &spec_state);
            let rebuilt = model.rebuilt();
            prop_assert_eq!(&rebuilt, &spec_state, "equality is not canonical");
            prop_assert_eq!(hash_of(&rebuilt), hash_of(&spec_state));
        }
    }

    /// The dense ERC1155 state (typed transitions and spec) and the
    /// served object against the `BTreeMap` model, step by step, from
    /// random funded genesis states with operators. Batches repeat types,
    /// overdraw, name types one past the last and move whole balances to
    /// zero.
    #[test]
    fn erc1155_matches_the_reference_model(
        funds in vec((0usize..4, 0usize..3, 0u64..6), 0..8),
        operators in vec((0usize..4, 0usize..4), 0..3),
        script in vec((0usize..5, arb_erc1155_op(4, 3), 0usize..2), 0..64),
    ) {
        const N: usize = 4;
        const TYPES: usize = 3;
        let mut model = Erc1155Model {
            accounts: N,
            balances: BTreeMap::new(),
            operators: operators.into_iter().filter(|(h, o)| h != o).collect(),
            supplies: vec![0; TYPES],
        };
        for (account, type_id, v) in funds {
            let old = model.balance(account, type_id);
            model.set(account, type_id, v);
            model.supplies[type_id] = model.supplies[type_id] - old + v;
        }
        let genesis = model.rebuilt();
        prop_assert!(model.matches(&genesis));
        let served = ShardedErc1155::from_state(genesis.clone());
        let spec = Erc1155Spec::new(genesis.clone());
        let (mut typed_state, mut spec_state) = (genesis.clone(), genesis);
        for (caller, op, choice) in &script {
            let from = match *op {
                Erc1155Op::Transfer { from, .. } | Erc1155Op::BatchTransfer { from, .. } => {
                    Some(from.owner())
                }
                _ => None,
            };
            let caller = caller_of(*caller, *choice, from);
            let expected = model.step(caller, op);
            let resp = spec.apply(&mut spec_state, caller, op);
            match (&expected, erc1155_typed(&mut typed_state, caller, op)) {
                (Ok(outcome), Some(typed)) => {
                    prop_assert_eq!(&typed, outcome, "{:?} by {}", op, caller);
                    prop_assert_eq!(resp, Erc1155Resp::Bool(outcome.is_ok()));
                }
                (Err(read), None) => prop_assert_eq!(resp, Erc1155Resp::Amount(*read)),
                _ => prop_assert!(false, "{:?}: mutator and read disagree", op),
            }
            prop_assert_eq!(served.apply(caller, op), resp);
            prop_assert!(model.matches(&spec_state), "spec state diverged after {:?}", op);
            prop_assert_eq!(&typed_state, &spec_state);
            prop_assert_eq!(&served.snapshot(), &spec_state);
            let rebuilt = model.rebuilt();
            prop_assert_eq!(&rebuilt, &spec_state, "equality is not canonical");
            prop_assert_eq!(hash_of(&rebuilt), hash_of(&spec_state));
        }
        prop_assert_eq!(served.audit_supplies(), model.supplies);
    }
}
