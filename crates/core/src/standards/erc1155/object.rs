//! The ERC1155 object as a formal, footprinted, concurrently servable
//! standard: op/response alphabets (including **atomic batches**), a
//! dense sequential state and [`ObjectType`] spec, per-op
//! [`Footprint`]s, and the one-lock [`ShardedErc1155`].
//!
//! The paper observes that ERC1155 plausibly inherits ERC20's
//! synchronization requirements but that exact bounds "would need an
//! in-depth analysis, based on combinations of accounts". The serving
//! side needs only the sound direction of that analysis, and it is
//! cell-granular: a `(type, account)` balance cell per pair, so
//!
//! * `safeTransferFrom` charges an update of the source cell and a
//!   *credit* of the destination cell (deposits commute);
//! * `safeBatchTransferFrom` charges the **union** of its rows' cells —
//!   two batches conflict iff their cell sets intersect;
//! * `setApprovalForAll` updates its operator's column
//!   ([`Cell::Operator`]), and any transfer whose caller may be a
//!   non-owner reads that column;
//! * per-type `totalSupply` is invariant under every transfer
//!   (cached in [`Erc1155State`] and [`ShardedErc1155`]) and has an **empty**
//!   footprint.
//!
//! Soundness — footprint-disjoint pairs commute at every state — is
//! property-tested below against [`Erc1155Spec`].

use std::collections::BTreeSet;

use parking_lot::Mutex;
use tokensync_spec::{AccountId, Amount, ObjectType, ProcessId};

use crate::analysis::cell_index;
use crate::analysis::{Access, Cell, Footprint, FootprintedOp};
use crate::shared::marks::Marks;
use crate::shared::ConcurrentObject;
use crate::standards::MAX_DENSE_CELLS;

use super::{Erc1155Error, TypeId};

/// Operations `O` of the ERC1155 object (the cell-granular subset the
/// pipeline serves).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Erc1155Op {
    /// `safeTransferFrom(from, to, id, amount)` by the caller.
    Transfer {
        /// Source account.
        from: AccountId,
        /// Destination account.
        to: AccountId,
        /// Token type moved.
        type_id: TypeId,
        /// Amount moved.
        value: Amount,
    },
    /// `safeBatchTransferFrom(from, to, ids, amounts)` by the caller —
    /// **atomic**: either every row moves or none does.
    BatchTransfer {
        /// Source account.
        from: AccountId,
        /// Destination account.
        to: AccountId,
        /// The `(type, amount)` rows of the batch.
        entries: Vec<(TypeId, Amount)>,
    },
    /// `setApprovalForAll(operator, on)` by the caller.
    SetApprovalForAll {
        /// The operator enabled/disabled for all of the caller's types.
        operator: ProcessId,
        /// Enable or disable.
        on: bool,
    },
    /// `balanceOf(account, id)`.
    BalanceOf {
        /// The account read.
        account: AccountId,
        /// The token type read.
        type_id: TypeId,
    },
    /// The per-type total supply — invariant under every transfer, so it
    /// commutes with everything (empty footprint).
    TotalSupply {
        /// The token type read.
        type_id: TypeId,
    },
}

/// Responses `R` of the ERC1155 object.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Erc1155Resp {
    /// Outcome of a mutating method.
    Bool(bool),
    /// Result of a read method.
    Amount(Amount),
}

impl Erc1155Resp {
    /// `TRUE`.
    pub const TRUE: Self = Erc1155Resp::Bool(true);
    /// `FALSE`.
    pub const FALSE: Self = Erc1155Resp::Bool(false);
}

impl FootprintedOp for Erc1155Op {
    fn footprint_into(&self, caller: ProcessId, out: &mut Footprint) {
        let mut transfer_cells = |from: AccountId, to: AccountId, type_id: TypeId| {
            let t = cell_index(type_id.index());
            out.push(Cell::Typed(t, cell_index(from.index())), Access::Update);
            out.push(Cell::Typed(t, cell_index(to.index())), Access::Credit);
        };
        match *self {
            Erc1155Op::Transfer {
                from, to, type_id, ..
            } => {
                transfer_cells(from, to, type_id);
                if caller != from.owner() {
                    out.push(Cell::Operator(cell_index(caller.index())), Access::Read);
                }
            }
            Erc1155Op::BatchTransfer {
                from,
                to,
                ref entries,
            } => {
                for &(type_id, _) in entries {
                    transfer_cells(from, to, type_id);
                }
                if caller != from.owner() {
                    out.push(Cell::Operator(cell_index(caller.index())), Access::Read);
                }
            }
            Erc1155Op::SetApprovalForAll { operator, .. } => {
                out.push(Cell::Operator(cell_index(operator.index())), Access::Update);
            }
            Erc1155Op::BalanceOf { account, type_id } => {
                out.push(
                    Cell::Typed(cell_index(type_id.index()), cell_index(account.index())),
                    Access::Read,
                );
            }
            // Per-type supply is invariant under Δ: empty footprint.
            Erc1155Op::TotalSupply { .. } => {}
        }
    }
}

/// The sequential ERC1155 state: one dense row-major `accounts × types`
/// balance matrix — `(account, type)` at `account * types + type` — plus
/// the enabled operator pairs and the cached, transfer-invariant
/// per-type supplies. A debit, a credit and a read are each one index.
/// The op alphabet has no mint and no burn, so the deploy fixes the
/// matrix's shape and derived `Eq`/`Hash` coincide with mathematical
/// state equality. A typed transition that returns an [`Erc1155Error`]
/// leaves the state unchanged.
///
/// **Memory:** 8 B per `(account, type)` pair, funded or not — 6.4 MB at
/// 100 K accounts × 8 types; a wide type space over many accounts pays
/// for every pair. `accounts × types` may not pass [`MAX_DENSE_CELLS`].
///
/// `Default` is the empty state: no accounts, no token types.
///
/// # Example
///
/// ```
/// use tokensync_core::standards::erc1155::{Erc1155State, TypeId};
/// use tokensync_spec::{AccountId, ProcessId};
///
/// // 2 token types, 3 accounts; deployer holds 10 of each type.
/// let mut multi = Erc1155State::deploy(3, ProcessId::new(0), &[10, 10]);
/// multi.safe_batch_transfer_from(
///     ProcessId::new(0),
///     AccountId::new(0),
///     AccountId::new(1),
///     &[TypeId::new(0), TypeId::new(1)],
///     &[3, 4],
/// )?;
/// assert_eq!(multi.balance_of(AccountId::new(1), TypeId::new(1)), 4);
/// # Ok::<(), tokensync_core::standards::erc1155::Erc1155Error>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Erc1155State {
    accounts: usize,
    balances: Vec<Amount>,
    /// Enabled operator pairs `(holder, operator)`.
    operators: BTreeSet<(u32, u32)>,
    /// Cached `Σ_a balance(a, t)` per type; invariant under every
    /// operation (no mint/burn in the op alphabet).
    supplies: Vec<Amount>,
}

impl Erc1155State {
    /// Deploys with `n` accounts and one token type per entry of
    /// `supplies`, all initially held by `deployer`.
    ///
    /// # Panics
    ///
    /// Panics if `deployer.index() >= n`, if the account space exceeds
    /// the `u32` key range, or if `n × supplies.len()` passes
    /// [`MAX_DENSE_CELLS`].
    pub fn deploy(n: usize, deployer: ProcessId, supplies: &[Amount]) -> Self {
        assert!(deployer.index() < n, "deployer out of range");
        assert!(
            n as u128 <= u32::MAX as u128 + 1,
            "account space exceeds the u32 key range"
        );
        let types = supplies.len();
        let cells = n
            .checked_mul(types)
            .filter(|&cells| cells <= MAX_DENSE_CELLS)
            .expect("accounts × types exceeds MAX_DENSE_CELLS");
        let mut balances = vec![0; cells];
        balances[deployer.index() * types..][..types].copy_from_slice(supplies);
        Self {
            accounts: n,
            balances,
            operators: BTreeSet::new(),
            supplies: supplies.to_vec(),
        }
    }

    /// Number of accounts.
    pub fn accounts(&self) -> usize {
        self.accounts
    }

    /// Number of token types.
    pub fn types(&self) -> usize {
        self.supplies.len()
    }

    /// The matrix index of `(account, type_id)`, if both are in range.
    #[inline]
    fn cell(&self, account: AccountId, type_id: TypeId) -> Option<usize> {
        (account.index() < self.accounts && type_id.index() < self.types())
            .then(|| account.index() * self.types() + type_id.index())
    }

    /// The balances of in-range `account`, indexed by type: the slice
    /// ends at the last type, so an id past it reads nothing of the next
    /// row.
    #[inline]
    fn row(&self, account: usize) -> &[Amount] {
        &self.balances[account * self.types()..][..self.types()]
    }

    /// `balanceOf(account, id)`; out-of-range pairs read as 0.
    pub fn balance_of(&self, account: AccountId, type_id: TypeId) -> Amount {
        self.cell(account, type_id).map_or(0, |c| self.balances[c])
    }

    /// Per-type total supply (invariant under transfers); out-of-range
    /// types read as 0. `O(1)` via the maintained cache (debug builds
    /// assert it against the scan).
    pub fn total_supply(&self, type_id: TypeId) -> Amount {
        let Some(&supply) = self.supplies.get(type_id.index()) else {
            return 0;
        };
        debug_assert_eq!(
            supply,
            (0..self.accounts)
                .map(|a| self.row(a)[type_id.index()])
                .sum::<Amount>(),
            "per-type supply cache diverged from the scan"
        );
        supply
    }

    /// `isApprovedForAll(account, operator)` — holders operate for
    /// themselves.
    pub fn is_approved_for_all(&self, account: AccountId, operator: ProcessId) -> bool {
        operator == account.owner()
            || match (
                u32::try_from(account.index()),
                u32::try_from(operator.index()),
            ) {
                (Ok(h), Ok(o)) => self.operators.contains(&(h, o)),
                _ => false,
            }
    }

    /// Directly sets a balance — test-fixture aid; adjusts the cached
    /// per-type supply.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range, or if the type's supply
    /// would pass `u64::MAX`.
    pub fn set_balance(&mut self, account: AccountId, type_id: TypeId, value: Amount) {
        let cell = self
            .cell(account, type_id)
            .expect("balance cell out of range");
        let supply = &mut self.supplies[type_id.index()];
        *supply = (*supply - self.balances[cell])
            .checked_add(value)
            .expect("per-type supply exceeds u64::MAX");
        self.balances[cell] = value;
    }

    /// The positive balance entries `((type, account) → amount)` in
    /// increasing `(type, account)` order — the canonical walk the state
    /// codec serializes: one strided pass down the matrix per type.
    pub fn balance_entries(&self) -> impl Iterator<Item = (TypeId, AccountId, Amount)> + '_ {
        let types = self.types();
        (0..types).flat_map(move |t| {
            self.balances
                .iter()
                .skip(t)
                .step_by(types)
                .enumerate()
                .filter(|&(_, &v)| v > 0)
                .map(move |(a, &v)| (TypeId::new(t), AccountId::new(a), v))
        })
    }

    /// The enabled `(holder, operator)` pairs in increasing order.
    pub fn operator_pairs(&self) -> impl Iterator<Item = (AccountId, ProcessId)> + '_ {
        self.operators
            .iter()
            .map(|&(h, o)| (AccountId::new(h as usize), ProcessId::new(o as usize)))
    }

    /// Enables `(holder, operator)` directly — test-fixture aid.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn set_operator(&mut self, holder: AccountId, operator: ProcessId, on: bool) {
        assert!(holder.index() < self.accounts && operator.index() < self.accounts);
        self.toggle(
            (cell_index(holder.index()), cell_index(operator.index())),
            on,
        );
    }

    fn toggle(&mut self, pair: (u32, u32), on: bool) {
        if on {
            self.operators.insert(pair);
        } else {
            self.operators.remove(&pair);
        }
    }

    /// `safeTransferFrom(from, to, id, amount)` by `caller`.
    ///
    /// # Errors
    ///
    /// [`Erc1155Error::BadId`], [`Erc1155Error::NotAuthorized`] or
    /// [`Erc1155Error::InsufficientBalance`]. The state is unchanged on
    /// error.
    pub fn safe_transfer_from(
        &mut self,
        caller: ProcessId,
        from: AccountId,
        to: AccountId,
        type_id: TypeId,
        amount: Amount,
    ) -> Result<(), Erc1155Error> {
        self.transfer(caller, from, to, &[(type_id, amount)])
    }

    /// `safeBatchTransferFrom(from, to, ids, amounts)` by `caller` —
    /// **atomic**: either every row moves or none does.
    ///
    /// # Errors
    ///
    /// [`Erc1155Error::LengthMismatch`] first, then those of
    /// [`safe_transfer_from`](Self::safe_transfer_from). The state is
    /// unchanged on error.
    pub fn safe_batch_transfer_from(
        &mut self,
        caller: ProcessId,
        from: AccountId,
        to: AccountId,
        ids: &[TypeId],
        amounts: &[Amount],
    ) -> Result<(), Erc1155Error> {
        if ids.len() != amounts.len() {
            return Err(Erc1155Error::LengthMismatch);
        }
        let rows: Vec<_> = ids.iter().copied().zip(amounts.iter().copied()).collect();
        self.transfer(caller, from, to, &rows)
    }

    /// `setApprovalForAll(operator, approved)` by `caller`.
    ///
    /// # Errors
    ///
    /// [`Erc1155Error::BadId`] or [`Erc1155Error::SelfApproval`]. The
    /// state is unchanged on error.
    pub fn set_approval_for_all(
        &mut self,
        caller: ProcessId,
        operator: ProcessId,
        approved: bool,
    ) -> Result<(), Erc1155Error> {
        if caller.index() >= self.accounts || operator.index() >= self.accounts {
            return Err(Erc1155Error::BadId);
        }
        if operator == caller {
            return Err(Erc1155Error::SelfApproval);
        }
        self.set_operator(AccountId::new(caller.index()), operator, approved);
        Ok(())
    }

    /// `balanceOfBatch`: one `(account, id)` query per pair.
    ///
    /// # Errors
    ///
    /// [`Erc1155Error::LengthMismatch`] if the arrays differ in length.
    pub fn balance_of_batch(
        &self,
        accounts: &[AccountId],
        ids: &[TypeId],
    ) -> Result<Vec<Amount>, Erc1155Error> {
        if accounts.len() != ids.len() {
            return Err(Erc1155Error::LengthMismatch);
        }
        Ok(accounts
            .iter()
            .zip(ids)
            .map(|(&a, &t)| self.balance_of(a, t))
            .collect())
    }

    /// The operator census of `account`: `{owner} ∪ operators(account)` if
    /// the account holds any tokens of any type, `{owner}` otherwise — the
    /// conservative ERC1155 analogue of `σ_q(a)`, upper-bounding the
    /// contract's synchronization needs per account. `O(types)` reads.
    pub fn enabled_movers(&self, account: AccountId) -> BTreeSet<ProcessId> {
        let mut movers = BTreeSet::from([account.owner()]);
        let a = account.index();
        if a < self.accounts && self.row(a).iter().any(|&v| v > 0) {
            let h = cell_index(a);
            movers.extend(
                self.operators
                    .range((h, 0)..=(h, u32::MAX))
                    .map(|&(_, o)| ProcessId::new(o as usize)),
            );
        }
        movers
    }

    /// `max_a |movers(a)|` — the upper-bound synchronization level. Only
    /// holders with operators can pass 1, so each is visited once.
    pub fn sync_level(&self) -> usize {
        let mut last = None;
        self.operators
            .iter()
            .filter(|&&(h, _)| last.replace(h) != Some(h))
            .map(|&(h, _)| self.enabled_movers(AccountId::new(h as usize)).len())
            .fold(1, usize::max)
    }

    /// Validates and applies one (possibly batched) transfer: aggregate
    /// per type so duplicated ids cannot overdraw, check everything,
    /// then move — all-or-nothing.
    fn transfer(
        &mut self,
        caller: ProcessId,
        from: AccountId,
        to: AccountId,
        rows: &[(TypeId, Amount)],
    ) -> Result<(), Erc1155Error> {
        if from.index() >= self.accounts
            || to.index() >= self.accounts
            || caller.index() >= self.accounts
        {
            return Err(Erc1155Error::BadId);
        }
        if !self.is_approved_for_all(from, caller) {
            return Err(Erc1155Error::NotAuthorized { caller, from });
        }
        if rows.iter().any(|(t, _)| t.index() >= self.types()) {
            return Err(Erc1155Error::BadId);
        }
        // A sum past `u64::MAX` is an overdraft no balance covers.
        let required = Required::of(rows).map_err(|type_id| Erc1155Error::InsufficientBalance {
            type_id,
            balance: self.balance_of(from, type_id),
            required: Amount::MAX,
        })?;
        let source = self.row(from.index());
        for &(type_id, v) in required.rows() {
            let balance = source[type_id.index()];
            if balance < v {
                return Err(Erc1155Error::InsufficientBalance {
                    type_id,
                    balance,
                    required: v,
                });
            }
        }
        let (f, d) = (from.index() * self.types(), to.index() * self.types());
        for &(type_id, v) in required.rows() {
            self.balances[f + type_id.index()] -= v;
        }
        // from == to as well: debit then credit of the same row is a
        // validated net no-op — the ERC1155 semantics.
        for &(type_id, v) in required.rows() {
            self.balances[d + type_id.index()] += v;
        }
        Ok(())
    }

    /// `op` by `caller`: a mutator runs the typed transition — a batch's
    /// rows as they stand, so no `LengthMismatch` arises — and answers
    /// `TRUE` iff it lands; a read out of range answers `0`.
    fn apply_op(&mut self, caller: ProcessId, op: &Erc1155Op) -> Erc1155Resp {
        let landed = match *op {
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
            Erc1155Op::SetApprovalForAll { operator, on } => {
                self.set_approval_for_all(caller, operator, on)
            }
            Erc1155Op::BalanceOf { account, type_id } => {
                return Erc1155Resp::Amount(self.balance_of(account, type_id))
            }
            Erc1155Op::TotalSupply { type_id } => {
                return Erc1155Resp::Amount(self.total_supply(type_id))
            }
        };
        Erc1155Resp::Bool(landed.is_ok())
    }
}

/// Rows a transfer aggregates without touching the heap: a single
/// `Transfer` is one, and batches carry a handful.
const INLINE_ROWS: usize = 8;

/// What one (possibly batched) transfer must find at its source: its
/// rows summed per type — so duplicated ids in one batch cannot
/// overdraw — in increasing type order, zero rows dropped (they move
/// nothing).
enum Required {
    /// Up to [`INLINE_ROWS`] rows, on the stack; the length in use.
    Inline([(TypeId, Amount); INLINE_ROWS], usize),
    Spilled(Vec<(TypeId, Amount)>),
}

impl Required {
    /// Aggregates `rows`, whose type ids need not be in range. Refuses
    /// with the lowest type whose amounts sum past `u64::MAX`: no
    /// balance covers that.
    fn of(rows: &[(TypeId, Amount)]) -> Result<Self, TypeId> {
        let moving = rows.iter().copied().filter(|row| row.1 > 0);
        if rows.len() <= INLINE_ROWS {
            let mut buf = [(TypeId::new(0), 0); INLINE_ROWS];
            let mut len = 0;
            for row in moving {
                buf[len] = row;
                len += 1;
            }
            let len = sum_per_type(&mut buf[..len])?;
            Ok(Required::Inline(buf, len))
        } else {
            let mut spill: Vec<_> = moving.collect();
            let len = sum_per_type(&mut spill)?;
            spill.truncate(len);
            Ok(Required::Spilled(spill))
        }
    }

    fn rows(&self) -> &[(TypeId, Amount)] {
        match self {
            Required::Inline(buf, len) => &buf[..*len],
            Required::Spilled(rows) => rows,
        }
    }
}

/// Whether no type's amounts in `rows` sum past `u64::MAX`, by the
/// per-type aggregation every transfer runs. The object and the oracle
/// answer FALSE on such rows at every state — no balance covers the
/// sum — so a gate with no state (the server's wire check) refuses
/// exactly these and lets every other batch through. Type ids need not
/// be in range.
pub fn per_type_sums_fit(rows: &[(TypeId, Amount)]) -> bool {
    Required::of(rows).is_ok()
}

/// Sorts `rows` by type and sums each run of one type into a single
/// row, in place; returns how many rows remain at the front, or the
/// first type whose sum passes `u64::MAX`.
fn sum_per_type(rows: &mut [(TypeId, Amount)]) -> Result<usize, TypeId> {
    rows.sort_unstable_by_key(|row| row.0);
    let mut len = 0;
    for i in 0..rows.len() {
        let (t, v) = rows[i];
        if len > 0 && rows[len - 1].0 == t {
            rows[len - 1].1 = rows[len - 1].1.checked_add(v).ok_or(t)?;
        } else {
            rows[len] = (t, v);
            len += 1;
        }
    }
    Ok(len)
}

/// The ERC1155 object type over [`Erc1155State`] — the sequential
/// oracle the pipeline's commit log replays against. Each mutator runs
/// the typed transition on [`Erc1155State`] — a batch's rows as they
/// stand, so no `LengthMismatch` arises — and answers `TRUE` for `Ok`,
/// `FALSE` for `Err` (state unchanged); reads out of range answer `0`.
#[derive(Clone, Debug)]
pub struct Erc1155Spec {
    initial: Erc1155State,
}

impl Erc1155Spec {
    /// Object type starting from an arbitrary state.
    pub fn new(initial: Erc1155State) -> Self {
        Self { initial }
    }
}

impl ObjectType for Erc1155Spec {
    type State = Erc1155State;
    type Op = Erc1155Op;
    type Resp = Erc1155Resp;

    fn initial_state(&self) -> Erc1155State {
        self.initial.clone()
    }

    fn apply(&self, state: &mut Erc1155State, process: ProcessId, op: &Erc1155Op) -> Erc1155Resp {
        state.apply_op(process, op)
    }
}

/// An incremental copy-on-write snapshot of an ERC1155 object: the
/// current value of every `(type, account)` balance cell and the current
/// membership of every operator pair touched since the previous snapshot
/// watermark, drained by [`ShardedErc1155::drain_delta`] and folded back
/// onto a base [`Erc1155State`] at recovery time.
///
/// The delta carries no supplies row: the op alphabet has no mint/burn,
/// so folding full-row balance cells while keeping each type's supply
/// in step leaves every cached per-type supply exactly where the base
/// had it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Erc1155Delta {
    /// `(type, account, amount)` — current values (zero means the cell
    /// is now empty), increasing `(type, account)` order.
    pub balances: Vec<(u32, u32, Amount)>,
    /// `(holder, operator, enabled)` — current membership of every
    /// toggled pair, increasing pair order.
    pub operators: Vec<(u32, u32, bool)>,
}

impl Erc1155Delta {
    /// Whether the delta carries no rows (nothing was touched).
    pub fn is_empty(&self) -> bool {
        self.balances.is_empty() && self.operators.is_empty()
    }

    /// Folds the delta onto `state`, overwriting every carried cell with
    /// its current value. Returns `false` (caller must discard the
    /// state) if any row is outside the state's id spaces or lifts a
    /// type's supply past `u64::MAX` — a valid producer never emits
    /// such a row, so `false` means a corrupt or foreign delta file.
    pub fn apply_to(&self, state: &mut Erc1155State) -> bool {
        let (types, accounts) = (state.types(), state.accounts);
        if self
            .balances
            .iter()
            .any(|&(t, a, _)| t as usize >= types || a as usize >= accounts)
            || self
                .operators
                .iter()
                .any(|&(h, o, _)| h as usize >= accounts || o as usize >= accounts)
        {
            return false;
        }
        // Rows are full-cell replacements in `(type, account)` order, so
        // a type's supply may pass through values above its final one
        // (a credit listed before the debit that funds it): fold each
        // type's run of rows in 128 bits and range-check where it ends.
        for run in self.balances.chunk_by(|x, y| x.0 == y.0) {
            let t = run[0].0 as usize;
            let mut supply = u128::from(state.supplies[t]);
            for &(_, a, v) in run {
                let old = std::mem::replace(&mut state.balances[a as usize * types + t], v);
                supply = supply - u128::from(old) + u128::from(v);
            }
            let Ok(supply) = Amount::try_from(supply) else {
                return false;
            };
            state.supplies[t] = supply;
        }
        for &(h, o, on) in &self.operators {
            state.toggle((h, o), on);
        }
        true
    }
}

/// What the one lock of a [`ShardedErc1155`] guards: the state, and
/// what changed since the last [`ShardedErc1155::drain_delta`] under the
/// mark/drain contract of `shared/marks.rs` — the accounts with a
/// written balance cell, the written cells themselves (a second bitmap
/// indexed like the matrix), and the toggled `(holder, operator)` pairs
/// as an ordered set (`setApprovalForAll` only).
#[derive(Debug)]
struct Served {
    state: Erc1155State,
    dirty_rows: Marks,
    dirty_cells: Marks,
    dirty_ops: BTreeSet<(u32, u32)>,
}

impl Served {
    /// Mark side of the contract: the cells `op` by `caller` wrote,
    /// once it has landed.
    fn mark(&mut self, caller: ProcessId, op: &Erc1155Op) {
        let (from, to, rows) = match *op {
            Erc1155Op::Transfer {
                from,
                to,
                type_id,
                value,
            } => (from, to, &[(type_id, value)][..]),
            Erc1155Op::BatchTransfer {
                from,
                to,
                ref entries,
            } => (from, to, &entries[..]),
            Erc1155Op::SetApprovalForAll { operator, .. } => {
                let pair = (cell_index(caller.index()), cell_index(operator.index()));
                self.dirty_ops.insert(pair);
                return;
            }
            Erc1155Op::BalanceOf { .. } | Erc1155Op::TotalSupply { .. } => return,
        };
        let types = self.state.types();
        // A zero row moves nothing and writes no cell.
        for &(t, _) in rows.iter().filter(|row| row.1 > 0) {
            for account in [from.index(), to.index()] {
                self.dirty_cells.mark(account * types + t.index());
                self.dirty_rows.mark(account);
            }
        }
    }
}

/// An ERC1155 contract behind one lock, scaling to ~1M accounts × many
/// types.
///
/// Every operation runs the [`Erc1155State`] transition under the lock,
/// so a transfer's authorization check, validation, debit and credit
/// are one critical section; a mutation that lands then marks what it
/// wrote. `from_state` moves the state in, and
/// [`ConcurrentObject::snapshot`] is a clone of it. Per-type
/// `totalSupply` takes **no** lock: supplies are invariant under every
/// operation, so a copy taken at construction serves every read.
/// **Memory:** the state's (8 B per `(account, type)` pair, at most
/// 8 B × [`MAX_DENSE_CELLS`]), plus 1 bit per pair and 1 bit per
/// account of dirty tracking.
///
/// Incremental snapshots follow the mark/drain contract of
/// `shared/marks.rs`: a debit or credit sets its cell's bit in the cell
/// bitmap and its account's bit in the row bitmap, and
/// [`drain_delta`](ShardedErc1155::drain_delta) walks the row bitmap and
/// reports each marked row's marked cells — `O(1)` per touched cell,
/// tracking of fixed size whether drained or not. A cell debited to
/// zero is reported as `(type, account, 0)`.
///
/// # Example
///
/// ```
/// use tokensync_core::shared::ConcurrentObject;
/// use tokensync_core::standards::erc1155::{Erc1155Op, Erc1155Resp, Erc1155State, ShardedErc1155, TypeId};
/// use tokensync_spec::{AccountId, ProcessId};
///
/// let initial = Erc1155State::deploy(4, ProcessId::new(0), &[10, 5]);
/// let multi = ShardedErc1155::from_state(initial);
/// let resp = multi.apply(ProcessId::new(0), &Erc1155Op::BatchTransfer {
///     from: AccountId::new(0),
///     to: AccountId::new(1),
///     entries: vec![(TypeId::new(0), 3), (TypeId::new(1), 4)],
/// });
/// assert_eq!(resp, Erc1155Resp::TRUE);
/// assert_eq!(multi.snapshot().balance_of(AccountId::new(1), TypeId::new(1)), 4);
/// assert_eq!(multi.total_supply(TypeId::new(0)), 10); // lock-free read
/// ```
#[derive(Debug)]
pub struct ShardedErc1155 {
    served: Mutex<Served>,
    accounts: usize,
    /// The per-type totals, constant because every operation conserves
    /// each type's supply.
    supplies: Vec<Amount>,
}

impl ShardedErc1155 {
    /// Wraps a sequential state. The state moves in; only the per-type
    /// supplies are copied, for lock-free reads.
    pub fn from_state(state: Erc1155State) -> Self {
        Self {
            accounts: state.accounts,
            supplies: state.supplies.clone(),
            served: Mutex::new(Served {
                dirty_rows: Marks::new(state.accounts),
                dirty_cells: Marks::new(state.balances.len()),
                dirty_ops: BTreeSet::new(),
                state,
            }),
        }
    }

    /// Number of accounts.
    pub fn accounts(&self) -> usize {
        self.accounts
    }

    /// Per-type total supply — lock-free: invariant under every
    /// operation, copied at construction.
    pub fn total_supply(&self, type_id: TypeId) -> Amount {
        self.supplies.get(type_id.index()).copied().unwrap_or(0)
    }

    /// Recomputes every type's supply from the live balances (one pass
    /// over the matrix, `O(accounts × types)`), for auditing the cached
    /// [`total_supply`](ShardedErc1155::total_supply) values — the
    /// conservation check the benchmarks assert after every run. A
    /// divergence means a transfer lost or minted tokens.
    pub fn audit_supplies(&self) -> Vec<Amount> {
        let served = self.served.lock();
        let state = &served.state;
        let mut sums = vec![0; state.types()];
        for account in 0..state.accounts {
            for (sum, &v) in sums.iter_mut().zip(state.row(account)) {
                *sum += v;
            }
        }
        sums
    }

    /// Drains the copy-on-write tracking: the current value of every
    /// `(type, account)` balance cell and the current membership of
    /// every operator pair touched since the previous drain, clearing
    /// the marks and sets.
    ///
    /// The drain holds the lock, so the delta is an atomic cut. It
    /// visits each marked account once, in ascending order,
    /// test-and-clears its cells' bits in type order and files each
    /// marked cell into its type's bucket: every bucket is in account
    /// order, so the buckets concatenate into `(type, account)` order
    /// with no sort. The toggled pairs come out of their ordered set.
    pub fn drain_delta(&self) -> Erc1155Delta {
        let mut served = self.served.lock();
        let Served {
            state,
            dirty_rows,
            dirty_cells,
            dirty_ops,
        } = &mut *served;
        let types = state.types();
        let mut by_type: Vec<Vec<(u32, Amount)>> = vec![Vec::new(); types];
        dirty_rows.drain(|account| {
            let first = account * types;
            for (t, bucket) in by_type.iter_mut().enumerate() {
                if dirty_cells.take(first + t) {
                    bucket.push((cell_index(account), state.balances[first + t]));
                }
            }
        });
        let operators = std::mem::take(dirty_ops)
            .into_iter()
            .map(|pair| (pair.0, pair.1, state.operators.contains(&pair)))
            .collect();
        drop(served);
        let mut balances = Vec::with_capacity(by_type.iter().map(Vec::len).sum());
        for (t, cells) in by_type.into_iter().enumerate() {
            let t = cell_index(t);
            balances.extend(cells.into_iter().map(|(a, v)| (t, a, v)));
        }
        Erc1155Delta {
            balances,
            operators,
        }
    }
}

impl ConcurrentObject for ShardedErc1155 {
    type Op = Erc1155Op;
    type Resp = Erc1155Resp;
    type State = Erc1155State;

    fn apply(&self, process: ProcessId, op: &Erc1155Op) -> Erc1155Resp {
        if let Erc1155Op::TotalSupply { type_id } = *op {
            return Erc1155Resp::Amount(self.total_supply(type_id));
        }
        let mut served = self.served.lock();
        let resp = served.state.apply_op(process, op);
        if resp == Erc1155Resp::TRUE {
            served.mark(process, op);
        }
        resp
    }

    fn snapshot(&self) -> Erc1155State {
        self.served.lock().state.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Codec;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use proptest::test_runner::{cases, rng_for_test};

    fn a(i: usize) -> AccountId {
        AccountId::new(i)
    }
    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }
    fn t(i: usize) -> TypeId {
        TypeId::new(i)
    }

    #[test]
    fn drain_delta_tracks_touched_cells_and_folds_onto_base() {
        let m = ShardedErc1155::from_state(Erc1155State::deploy(8, p(0), &[10, 5]));
        assert!(m.drain_delta().is_empty(), "fresh object has no dirty rows");
        let base = m.snapshot();
        m.apply(
            p(0),
            &Erc1155Op::Transfer {
                from: a(0),
                to: a(5),
                type_id: t(0),
                value: 4,
            },
        );
        m.apply(
            p(3),
            &Erc1155Op::SetApprovalForAll {
                operator: p(1),
                on: true,
            },
        );
        let delta = m.drain_delta();
        assert!(!delta.balances.is_empty() && !delta.operators.is_empty());
        let mut folded = base;
        assert!(delta.apply_to(&mut folded));
        assert_eq!(folded, m.snapshot());
        assert_eq!(folded.total_supply(t(0)), 10, "supply cache stays exact");
        assert!(m.drain_delta().is_empty(), "drain clears the tracking sets");
    }

    #[test]
    fn delta_apply_rejects_out_of_range_rows() {
        let mut state = Erc1155State::deploy(2, p(0), &[5]);
        let delta = Erc1155Delta {
            balances: vec![(7, 0, 1)],
            operators: Vec::new(),
        };
        assert!(!delta.apply_to(&mut state));
        assert_eq!(state, Erc1155State::deploy(2, p(0), &[5]));
    }

    /// A type's whole supply, above `u64::MAX / 2`, moves to a lower
    /// account id: the delta lists the credit before the debit, so the
    /// fold passes through twice the supply on its way back to it.
    #[test]
    fn delta_fold_tolerates_a_credit_listed_before_its_debit() {
        let supply = u64::MAX - 1;
        let m = ShardedErc1155::from_state(Erc1155State::deploy(2, p(1), &[supply]));
        let mut folded = m.snapshot();
        m.apply(
            p(1),
            &Erc1155Op::Transfer {
                from: a(1),
                to: a(0),
                type_id: t(0),
                value: supply,
            },
        );
        let delta = m.drain_delta();
        assert_eq!(delta.balances, [(0, 0, supply), (0, 1, 0)]);
        assert!(delta.apply_to(&mut folded));
        assert_eq!(folded, m.snapshot());
        assert_eq!(folded.total_supply(t(0)), supply);
    }

    #[test]
    fn spec_batch_is_atomic_and_aggregates_duplicates() {
        let spec = Erc1155Spec::new(Erc1155State::deploy(3, p(0), &[10, 2]));
        let mut q = spec.initial_state();
        // Second row overdraws: nothing must move.
        let before = q.clone();
        assert_eq!(
            spec.apply(
                &mut q,
                p(0),
                &Erc1155Op::BatchTransfer {
                    from: a(0),
                    to: a(1),
                    entries: vec![(t(0), 3), (t(1), 5)],
                }
            ),
            Erc1155Resp::FALSE
        );
        assert_eq!(q, before);
        // Duplicate ids aggregate: 6 + 6 > 10 fails, 6 + 4 lands.
        assert_eq!(
            spec.apply(
                &mut q,
                p(0),
                &Erc1155Op::BatchTransfer {
                    from: a(0),
                    to: a(1),
                    entries: vec![(t(0), 6), (t(0), 6)],
                }
            ),
            Erc1155Resp::FALSE
        );
        assert_eq!(
            spec.apply(
                &mut q,
                p(0),
                &Erc1155Op::BatchTransfer {
                    from: a(0),
                    to: a(1),
                    entries: vec![(t(0), 6), (t(0), 4)],
                }
            ),
            Erc1155Resp::TRUE
        );
        assert_eq!(q.balance_of(a(1), t(0)), 10);
        assert_eq!(q.total_supply(t(0)), 10);
    }

    #[test]
    fn sharded_matches_spec_on_scripts() {
        let mut initial = Erc1155State::deploy(5, p(0), &[20, 9, 4]);
        initial.set_operator(a(0), p(3), true);
        let spec = Erc1155Spec::new(initial.clone());
        let script: Vec<(ProcessId, Erc1155Op)> = vec![
            (
                p(3),
                Erc1155Op::BatchTransfer {
                    from: a(0),
                    to: a(2),
                    entries: vec![(t(0), 5), (t(1), 2)],
                },
            ),
            (
                p(0),
                Erc1155Op::SetApprovalForAll {
                    operator: p(4),
                    on: true,
                },
            ),
            (
                p(4),
                Erc1155Op::Transfer {
                    from: a(0),
                    to: a(4),
                    type_id: t(2),
                    value: 4,
                },
            ),
            (
                p(1),
                Erc1155Op::BalanceOf {
                    account: a(2),
                    type_id: t(1),
                },
            ),
            (
                p(2),
                Erc1155Op::Transfer {
                    from: a(2),
                    to: a(1),
                    type_id: t(0),
                    value: 9,
                },
            ),
            (
                p(0),
                Erc1155Op::SetApprovalForAll {
                    operator: p(4),
                    on: false,
                },
            ),
            (
                p(4),
                Erc1155Op::Transfer {
                    from: a(0),
                    to: a(4),
                    type_id: t(0),
                    value: 1,
                },
            ),
            (p(1), Erc1155Op::TotalSupply { type_id: t(1) }),
            (
                p(2),
                Erc1155Op::Transfer {
                    from: a(2),
                    to: a(2),
                    type_id: t(0),
                    value: 2,
                },
            ),
        ];
        let multi = ShardedErc1155::from_state(initial);
        let mut oracle = spec.initial_state();
        for (caller, op) in &script {
            let expected = spec.apply(&mut oracle, *caller, op);
            assert_eq!(
                ConcurrentObject::apply(&multi, *caller, op),
                expected,
                "sharded diverged on {op:?}"
            );
        }
        assert_eq!(multi.snapshot(), oracle, "snapshot diverged");
    }

    #[test]
    fn audit_supplies_recounts_the_cache_from_live_balances() {
        let mut initial = Erc1155State::deploy(4, p(0), &[12, 7]);
        initial.set_operator(a(0), p(2), true);
        let multi = ShardedErc1155::from_state(initial);
        multi.apply(
            p(0),
            &Erc1155Op::BatchTransfer {
                from: a(0),
                to: a(3),
                entries: vec![(t(0), 5), (t(1), 2)],
            },
        );
        multi.apply(
            p(2),
            &Erc1155Op::Transfer {
                from: a(0),
                to: a(1),
                type_id: t(1),
                value: 5,
            },
        );
        // The recount from live balances matches the cached constants —
        // this is the non-vacuous direction the benchmarks assert.
        assert_eq!(multi.audit_supplies(), vec![12, 7]);
        assert_eq!(multi.total_supply(t(0)), 12);
    }

    #[test]
    fn huge_ids_fail_cleanly_instead_of_panicking() {
        let spec = Erc1155Spec::new(Erc1155State::deploy(3, p(0), &[9]));
        let multi = ShardedErc1155::from_state(Erc1155State::deploy(3, p(0), &[9]));
        let huge_acct = a(u32::MAX as usize + 3);
        let huge_type = t(u32::MAX as usize + 3);
        let ops = [
            Erc1155Op::Transfer {
                from: huge_acct,
                to: a(1),
                type_id: t(0),
                value: 1,
            },
            Erc1155Op::Transfer {
                from: a(0),
                to: a(1),
                type_id: huge_type,
                value: 1,
            },
            Erc1155Op::BatchTransfer {
                from: a(0),
                to: huge_acct,
                entries: vec![(huge_type, 1)],
            },
            Erc1155Op::BalanceOf {
                account: huge_acct,
                type_id: huge_type,
            },
            Erc1155Op::TotalSupply { type_id: huge_type },
        ];
        let mut q = spec.initial_state();
        for op in &ops {
            let expected = spec.apply(&mut q, p(0), op);
            assert!(matches!(
                expected,
                Erc1155Resp::FALSE | Erc1155Resp::Amount(0)
            ));
            assert_eq!(ConcurrentObject::apply(&multi, p(0), op), expected);
            let _ = op.footprint(p(0)); // saturates, no panic
        }
        assert_eq!(q, spec.initial_state(), "huge ids must not mutate state");
    }

    /// Account 0's row ends where account 1's begins:
    /// type `KINDS` of account 0 sits where type 0 of account 1 does.
    /// Every op naming that type must still answer as the spec does and
    /// move nothing.
    #[test]
    fn a_type_one_past_the_last_never_aliases_the_next_row() {
        const KINDS: usize = 2;
        let mut initial = Erc1155State::deploy(3, p(0), &[0; KINDS]);
        initial.set_balance(a(0), t(1), 5);
        initial.set_balance(a(1), t(0), 7);
        let spec = Erc1155Spec::new(initial.clone());
        let multi = ShardedErc1155::from_state(initial);
        let past = t(KINDS);
        let ops = [
            (
                Erc1155Op::BalanceOf {
                    account: a(0),
                    type_id: past,
                },
                Erc1155Resp::Amount(0),
            ),
            (
                Erc1155Op::Transfer {
                    from: a(0),
                    to: a(2),
                    type_id: past,
                    value: 1,
                },
                Erc1155Resp::FALSE,
            ),
            (
                Erc1155Op::BatchTransfer {
                    from: a(0),
                    to: a(2),
                    entries: vec![(t(1), 1), (past, 1)],
                },
                Erc1155Resp::FALSE,
            ),
        ];
        let mut q = spec.initial_state();
        for (op, want) in &ops {
            assert_eq!(spec.apply(&mut q, p(0), op), *want, "{op:?}");
            assert_eq!(multi.apply(p(0), op), *want, "{op:?}");
        }
        assert_eq!(multi.snapshot(), spec.initial_state(), "nothing moved");
        assert!(multi.drain_delta().is_empty(), "nothing was written");
    }

    #[test]
    fn batch_conflicts_iff_cell_sets_intersect() {
        let batch = |from: usize, to: usize, types: &[usize]| Erc1155Op::BatchTransfer {
            from: a(from),
            to: a(to),
            entries: types.iter().map(|&ty| (t(ty), 1)).collect(),
        };
        // Disjoint accounts, disjoint types: commute.
        let x = batch(0, 1, &[0, 1]);
        let y = batch(2, 3, &[0, 1]);
        assert!(!x.footprint(p(0)).conflicts_with(&y.footprint(p(2))));
        // Same source account and a shared type: conflict.
        let z = batch(0, 3, &[1, 2]);
        assert!(x.footprint(p(0)).conflicts_with(&z.footprint(p(0))));
        // Shared *destination* only: credits commute.
        let c1 = batch(0, 4, &[0]);
        let c2 = batch(2, 4, &[0]);
        assert!(!c1.footprint(p(0)).conflicts_with(&c2.footprint(p(2))));
        // Supply reads commute with everything.
        let supply = Erc1155Op::TotalSupply { type_id: t(0) };
        assert!(supply.footprint(p(1)).is_empty());
        assert!(!supply.footprint(p(1)).conflicts_with(&x.footprint(p(0))));
    }

    const N: usize = 4;
    const TYPES: usize = 3;

    fn arb_op() -> impl Strategy<Value = Erc1155Op> {
        arb_op_in(N, TYPES)
    }

    /// Ops over accounts (and processes) `0..n` and types `0..types`.
    fn arb_op_in(n: usize, types: usize) -> impl Strategy<Value = Erc1155Op> {
        prop_oneof![
            (0..n, 0..n, 0..types, 0u64..4).prop_map(|(from, to, ty, value)| {
                Erc1155Op::Transfer {
                    from: a(from),
                    to: a(to),
                    type_id: t(ty),
                    value,
                }
            }),
            (0..n, 0..n, vec((0..types, 0u64..4), 0..3)).prop_map(|(from, to, rows)| {
                Erc1155Op::BatchTransfer {
                    from: a(from),
                    to: a(to),
                    entries: rows.into_iter().map(|(ty, v)| (t(ty), v)).collect(),
                }
            }),
            (0..n, 0..2usize).prop_map(|(op, on)| Erc1155Op::SetApprovalForAll {
                operator: p(op),
                on: on == 1,
            }),
            (0..n, 0..types).prop_map(|(account, ty)| Erc1155Op::BalanceOf {
                account: a(account),
                type_id: t(ty),
            }),
            (0..types).prop_map(|ty| Erc1155Op::TotalSupply { type_id: t(ty) }),
        ]
    }

    /// `op`'s typed transition on `q` by `caller`, a batch with one
    /// amount too many when `mismatch`; `None` for a read.
    fn typed(
        q: &mut Erc1155State,
        caller: ProcessId,
        op: &Erc1155Op,
        mismatch: bool,
    ) -> Option<Result<(), Erc1155Error>> {
        Some(match *op {
            Erc1155Op::Transfer {
                from,
                to,
                type_id,
                value,
            } => q.safe_transfer_from(caller, from, to, type_id, value),
            Erc1155Op::BatchTransfer {
                from,
                to,
                ref entries,
            } => {
                let (ids, mut amounts): (Vec<_>, Vec<_>) = entries.iter().copied().unzip();
                if mismatch {
                    amounts.push(1);
                }
                q.safe_batch_transfer_from(caller, from, to, &ids, &amounts)
            }
            Erc1155Op::SetApprovalForAll { operator, on } => {
                q.set_approval_for_all(caller, operator, on)
            }
            Erc1155Op::BalanceOf { .. } | Erc1155Op::TotalSupply { .. } => return None,
        })
    }

    /// Every refused typed transition leaves the state `==` to what it
    /// was and its codec bytes unchanged, over 3 accounts × 2 types.
    /// Scripts draw ids up to one past each space, half the transfers
    /// come from the source's owner, a quarter of the batches carry
    /// unequal arrays, and the run must reach every [`Erc1155Error`]
    /// variant (the match below names each), so the check cannot pass
    /// vacuously.
    #[test]
    fn typed_errors_leave_the_state_unchanged() {
        const ACCOUNTS: usize = 3;
        const KINDS: usize = 2;
        let script = vec(
            (0..=ACCOUNTS, arb_op_in(ACCOUNTS + 1, KINDS + 1), 0..4usize),
            0..32,
        );
        let mut rng = rng_for_test("typed_errors_leave_the_state_unchanged");
        let mut reached = [false; 5];
        for _ in 0..cases() {
            let mut q = Erc1155State::deploy(ACCOUNTS, p(0), &[3, 3]);
            for (caller, op, choice) in script.generate(&mut rng) {
                let caller = match op {
                    Erc1155Op::Transfer { from, .. } | Erc1155Op::BatchTransfer { from, .. }
                        if choice & 1 == 1 =>
                    {
                        from.owner()
                    }
                    _ => p(caller),
                };
                let (before, bytes) = (q.clone(), q.encode());
                let Some(Err(err)) = typed(&mut q, caller, &op, choice == 2) else {
                    continue;
                };
                reached[match err {
                    Erc1155Error::BadId => 0,
                    Erc1155Error::NotAuthorized { .. } => 1,
                    Erc1155Error::InsufficientBalance { .. } => 2,
                    Erc1155Error::LengthMismatch => 3,
                    Erc1155Error::SelfApproval => 4,
                }] = true;
                assert_eq!(q, before, "{err} changed the state ({op:?} by {caller})");
                assert_eq!(q.encode(), bytes, "{err} changed the codec bytes");
            }
        }
        assert_eq!(reached, [true; 5], "an error variant was never reached");
    }

    proptest! {
        /// Soundness of the ERC1155 footprint catalog — including batch
        /// cell unions: footprint-disjoint pairs commute at every
        /// reachable state (mirror of the ERC20 suite).
        #[test]
        fn disjoint_footprints_commute_at_every_state(
            balances in vec((0..TYPES, 0..N, 0u64..5), 0..6),
            operators in vec((0..N, 0..N), 0..3),
            c1 in 0..N,
            c2 in 0..N,
            o1 in arb_op(),
            o2 in arb_op(),
        ) {
            let (c1, c2) = (p(c1), p(c2));
            prop_assume!(!o1.footprint(c1).conflicts_with(&o2.footprint(c2)));
            let mut q = Erc1155State::deploy(N, p(0), &vec![0; TYPES]);
            for &(ty, acct, v) in &balances {
                let old = q.balance_of(a(acct), t(ty));
                q.set_balance(a(acct), t(ty), old.max(v));
            }
            for &(h, o) in &operators {
                q.set_operator(a(h), p(o), true);
            }
            let spec = Erc1155Spec::new(Erc1155State::deploy(N, p(0), &[]));
            let mut qa = q.clone();
            let r1a = spec.apply(&mut qa, c1, &o1);
            let r2a = spec.apply(&mut qa, c2, &o2);
            let mut qb = q.clone();
            let r2b = spec.apply(&mut qb, c2, &o2);
            let r1b = spec.apply(&mut qb, c1, &o1);
            prop_assert_eq!(qa, qb, "states diverge for a non-conflicting pair");
            prop_assert_eq!(r1a, r1b, "first op's response depends on order");
            prop_assert_eq!(r2a, r2b, "second op's response depends on order");
        }

        /// The mark/drain contract, differentially: whatever the script
        /// (debits to exactly zero, re-credits before the drain,
        /// self-transfers, duplicated type ids) and wherever the drains
        /// fall, each drain reports exactly the cells a reference set
        /// of mutated keys names — same rows, same order — the deltas
        /// fold onto genesis to the live snapshot, and an object nobody
        /// drains marks each distinct account and each distinct
        /// cell once.
        #[test]
        fn drains_report_exactly_the_mutated_cells(
            steps in vec((0..N, arb_op(), 0..4usize), 0..48),
        ) {
            let mut genesis = Erc1155State::deploy(N, p(0), &[0; TYPES]);
            for (acct, ty) in (0..N).flat_map(|acct| (0..TYPES).map(move |ty| (acct, ty))) {
                genesis.set_balance(a(acct), t(ty), ((acct + ty) % 3) as Amount);
            }
            let spec = Erc1155Spec::new(genesis.clone());
            let mut oracle = spec.initial_state();
            let drained = ShardedErc1155::from_state(genesis.clone());
            let undrained = ShardedErc1155::from_state(genesis.clone());
            // `(marked accounts, marked cells)`.
            let marked = |m: &ShardedErc1155| {
                let served = m.served.lock();
                (served.dirty_rows.count(), served.dirty_cells.count())
            };
            // `(type, account)` cells and `(holder, operator)` pairs
            // written since the last drain; every cell ever written.
            let mut cells = BTreeSet::new();
            let mut pairs = BTreeSet::new();
            let mut ever = BTreeSet::new();
            let mut folded = genesis;
            // The last step always drains.
            let last = (0, Erc1155Op::TotalSupply { type_id: t(0) }, 3);
            for (caller, op, choice) in steps.into_iter().chain([last]) {
                // Half the transfers come from the holder, so they land.
                let caller = match op {
                    Erc1155Op::Transfer { from, .. } | Erc1155Op::BatchTransfer { from, .. }
                        if choice & 1 == 1 => from.owner(),
                    _ => p(caller),
                };
                let resp = spec.apply(&mut oracle, caller, &op);
                prop_assert_eq!(drained.apply(caller, &op), resp);
                prop_assert_eq!(undrained.apply(caller, &op), resp);
                if resp == Erc1155Resp::TRUE {
                    let (from, to, rows) = match op {
                        Erc1155Op::Transfer { from, to, type_id, value } => {
                            (from, to, vec![(type_id, value)])
                        }
                        Erc1155Op::BatchTransfer { from, to, entries } => (from, to, entries),
                        Erc1155Op::SetApprovalForAll { operator, .. } => {
                            pairs.insert((caller.index() as u32, operator.index() as u32));
                            (a(0), a(0), Vec::new())
                        }
                        _ => unreachable!("reads answer amounts"),
                    };
                    for (ty, _) in rows.into_iter().filter(|row| row.1 > 0) {
                        for account in [from, to] {
                            cells.insert((ty.index() as u32, account.index() as u32));
                        }
                    }
                }
                ever.extend(cells.iter().copied());
                let accounts: BTreeSet<u32> = ever.iter().map(|&(_, acct)| acct).collect();
                prop_assert_eq!(
                    marked(&undrained),
                    (accounts.len(), ever.len()),
                    "one mark per distinct account, one per distinct cell"
                );
                if choice < 3 {
                    continue;
                }
                let delta = drained.drain_delta();
                let expected = Erc1155Delta {
                    balances: std::mem::take(&mut cells)
                        .into_iter()
                        .map(|(ty, acct)| {
                            (ty, acct, oracle.balance_of(a(acct as usize), t(ty as usize)))
                        })
                        .collect(),
                    operators: std::mem::take(&mut pairs)
                        .into_iter()
                        .map(|(h, o)| {
                            (h, o, oracle.is_approved_for_all(a(h as usize), p(o as usize)))
                        })
                        .collect(),
                };
                prop_assert_eq!(&delta, &expected);
                prop_assert!(delta.apply_to(&mut folded));
                prop_assert_eq!(&folded, &drained.snapshot());
                prop_assert_eq!(marked(&drained), (0, 0), "a drain clears row and cell marks");
            }
            prop_assert_eq!(folded, oracle);
            prop_assert_eq!(undrained.snapshot(), drained.snapshot());
        }

        /// `snapshot()` is the spec's state after every step of a
        /// random script, drains or not: cells debited to zero read as
        /// zero whether or not a drain has reported them yet, and
        /// operator pairs toggled off are gone.
        #[test]
        fn snapshot_equals_the_spec_fold(
            steps in vec((0..N, arb_op(), 0..4usize), 0..48),
        ) {
            let mut genesis = Erc1155State::deploy(N, p(0), &[0; TYPES]);
            for (acct, ty) in (0..N).flat_map(|acct| (0..TYPES).map(move |ty| (acct, ty))) {
                genesis.set_balance(a(acct), t(ty), ((acct * 2 + ty) % 3) as Amount);
            }
            genesis.set_operator(a(1), p(2), true);
            let spec = Erc1155Spec::new(genesis.clone());
            let mut oracle = spec.initial_state();
            let m = ShardedErc1155::from_state(genesis);
            prop_assert_eq!(&m.snapshot(), &oracle);
            for (caller, op, choice) in steps {
                // Half the transfers come from the holder, so they land.
                let caller = match op {
                    Erc1155Op::Transfer { from, .. } | Erc1155Op::BatchTransfer { from, .. }
                        if choice & 1 == 1 => from.owner(),
                    _ => p(caller),
                };
                prop_assert_eq!(m.apply(caller, &op), spec.apply(&mut oracle, caller, &op));
                if choice == 3 {
                    m.drain_delta();
                }
                prop_assert_eq!(&m.snapshot(), &oracle);
            }
        }
    }

    #[test]
    fn required_sums_duplicates_spills_and_refuses_overflow() {
        let rows = |rows: &[(usize, Amount)]| -> Vec<(TypeId, Amount)> {
            rows.iter().map(|&(ty, v)| (t(ty), v)).collect()
        };
        let required = Required::of(&rows(&[(2, 6), (0, 1), (2, 4), (1, 0)])).unwrap();
        assert_eq!(required.rows(), rows(&[(0, 1), (2, 10)]));
        // Past the inline capacity the same answer comes off the heap.
        let many: Vec<(usize, Amount)> = (0..3 * INLINE_ROWS).map(|i| (i % 5, 1)).collect();
        let required = Required::of(&rows(&many)).unwrap();
        assert!(matches!(required, Required::Spilled(_)));
        let per_type = (3 * INLINE_ROWS / 5) as Amount;
        assert!(required.rows().iter().map(|row| row.0.index()).eq(0..5));
        assert!(required.rows().iter().all(|row| row.1 >= per_type));
        assert_eq!(
            required.rows().iter().map(|row| row.1).sum::<Amount>(),
            3 * INLINE_ROWS as Amount
        );
        assert!(Required::of(&rows(&[(0, u64::MAX), (1, 5), (0, 1)])).is_err_and(|x| x == t(0)));
        // The lowest type whose sum overflows, whatever the row order.
        let both = rows(&[(3, u64::MAX), (1, u64::MAX), (3, 1), (1, 1)]);
        assert!(Required::of(&both).is_err_and(|x| x == t(1)));
        // The stateless check agrees, on either side of the inline capacity.
        assert!(!per_type_sums_fit(&rows(&[(0, u64::MAX), (1, 5), (0, 1)])));
        assert!(per_type_sums_fit(&rows(&[(0, u64::MAX), (1, 5)])));
        assert!(per_type_sums_fit(&rows(&many)));
        let mut past = rows(&many);
        past.push((t(4), u64::MAX));
        assert!(!per_type_sums_fit(&past));
    }
}
