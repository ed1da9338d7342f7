//! The ERC721 object as a formal, footprinted, concurrently servable
//! standard: op/response alphabets, a dense sequential state and
//! [`ObjectType`] spec, per-op [`Footprint`]s, and the one-lock
//! [`ShardedErc721`] scaling to ~1M token ids.
//!
//! Section 6 of the paper transfers the σ_q analysis to ERC721: a
//! token's movers are its owner, its approved process and the owner's
//! operators, and racing `transferFrom`s on one `tokenId` decide
//! consensus among them. For *serving*, the useful flip side is that
//! transfers of **distinct** tokens by their owners touch disjoint state
//! and commute — which the footprints below encode so the generic
//! pipeline can schedule NFT traffic into wide waves.
//!
//! Footprint catalog (soundness property-tested below):
//!
//! * every op on a `tokenId` charges [`Cell::Token`] — ownership and the
//!   single-use approval live in the same cell, so owner-disjoint
//!   transfers commute while two claims on one token serialize;
//! * an op whose authorization may consult operator rows (`caller` not
//!   the claimed owner) charges a read of [`Cell::Operator`]`(caller)`;
//!   `setApprovalForAll(op, ·)` charges an update of
//!   [`Cell::Operator`]`(op)` — the op serializes against its operator's
//!   column, never against unrelated approvals.

use std::collections::BTreeSet;

use tokensync_spec::{ObjectType, ProcessId};

use crate::analysis::cell_index;
use crate::analysis::{Access, Cell, Footprint, FootprintedOp};
use crate::shared::marks::Marks;
use crate::shared::{Served, Tracked};
use crate::standards::MAX_DENSE_CELLS;

use super::{Erc721Error, TokenId};

/// Operations `O` of the ERC721 object (the subset with cell-granular
/// footprints; `balanceOf` — a whole-contract scan — is served off
/// snapshots, not the pipeline).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Erc721Op {
    /// Mints `token` to `to`: succeeds iff the id is in range and not
    /// yet minted (lazy minting — any process may trigger it).
    Mint {
        /// The receiving process.
        to: ProcessId,
        /// The token id to create.
        token: TokenId,
    },
    /// `transferFrom(from, to, tokenId)` by the caller.
    TransferFrom {
        /// The claimed current owner.
        from: ProcessId,
        /// The receiving process.
        to: ProcessId,
        /// The token moved.
        token: TokenId,
    },
    /// `approve(approved, tokenId)` by the caller; `None` clears.
    Approve {
        /// The process approved to move the token (single-use).
        approved: Option<ProcessId>,
        /// The token involved.
        token: TokenId,
    },
    /// `setApprovalForAll(operator, on)` by the caller.
    SetApprovalForAll {
        /// The operator enabled/disabled for all of the caller's tokens.
        operator: ProcessId,
        /// Enable or disable.
        on: bool,
    },
    /// `ownerOf(tokenId)`.
    OwnerOf {
        /// The token read.
        token: TokenId,
    },
    /// `getApproved(tokenId)`.
    GetApproved {
        /// The token read.
        token: TokenId,
    },
}

/// Responses `R` of the ERC721 object.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Erc721Resp {
    /// Outcome of a mutating method.
    Bool(bool),
    /// Result of `ownerOf` / `getApproved` (`None`: unminted token or no
    /// approval).
    Process(Option<ProcessId>),
}

impl Erc721Resp {
    /// `TRUE`.
    pub const TRUE: Self = Erc721Resp::Bool(true);
    /// `FALSE`.
    pub const FALSE: Self = Erc721Resp::Bool(false);
}

impl FootprintedOp for Erc721Op {
    fn footprint_into(&self, caller: ProcessId, out: &mut Footprint) {
        match *self {
            Erc721Op::Mint { token, .. } => {
                out.push(Cell::Token(cell_index(token.index())), Access::Update);
            }
            Erc721Op::TransferFrom { from, token, .. } => {
                out.push(Cell::Token(cell_index(token.index())), Access::Update);
                // Only a non-owner caller's authorization can depend on
                // operator rows (an owner check and the single-use
                // approval both live in the token cell).
                if caller != from {
                    out.push(Cell::Operator(cell_index(caller.index())), Access::Read);
                }
            }
            Erc721Op::Approve { token, .. } => {
                out.push(Cell::Token(cell_index(token.index())), Access::Update);
                // The caller may or may not be the owner — statically
                // unknown, so conservatively read the caller's operator
                // column.
                out.push(Cell::Operator(cell_index(caller.index())), Access::Read);
            }
            Erc721Op::SetApprovalForAll { operator, .. } => {
                out.push(Cell::Operator(cell_index(operator.index())), Access::Update);
            }
            Erc721Op::OwnerOf { token } | Erc721Op::GetApproved { token } => {
                out.push(Cell::Token(cell_index(token.index())), Access::Read);
            }
        }
    }
}

/// One token's cell: `(owner, single-use approval)` once minted, `None`
/// for an unminted hole. The approval's tag is the hole's niche, so a
/// cell stays 12 bytes, and equal tokens are equal cells.
type NftCell = Option<(u32, Option<u32>)>;

const _: () = assert!(std::mem::size_of::<NftCell>() == 12);

/// The sequential ERC721 state: one dense table of token cells, indexed
/// by token id and one past the highest minted id long, plus the enabled
/// `(holder, operator)` pairs. Every token operation is one
/// bounds-checked index. Tokens are never burned, so the minted set
/// fixes the table's length, and holes and absent approvals are zeroed
/// cells: derived `Eq`/`Hash` coincide with mathematical state equality
/// — the linearizability checker and the model checker both rely on
/// that. A typed transition that returns an [`Erc721Error`] leaves the
/// state unchanged.
///
/// **Memory:** 12 B per id up to the highest minted id; the unminted
/// tail above it costs nothing, and a hole below it costs its 12 B. A
/// mint anywhere in the span may grow the table to that id, so the span
/// is the deploy's memory promise, 12 B × `token_span`, and may not pass
/// [`MAX_DENSE_CELLS`].
///
/// `Default` is the empty state, `Erc721State::new(0, 0)`.
///
/// # Example
///
/// ```
/// use tokensync_core::standards::erc721::{Erc721State, TokenId};
/// use tokensync_spec::ProcessId;
///
/// let minter = ProcessId::new(0);
/// let mut nft = Erc721State::new(3, 2); // 3 processes, ids nft0 and nft1
/// nft.mint(minter, minter, TokenId::new(0))?;
/// nft.approve(minter, Some(ProcessId::new(2)), TokenId::new(0))?;
/// nft.transfer_from(ProcessId::new(2), minter, ProcessId::new(2), TokenId::new(0))?;
/// assert_eq!(nft.owner_of(TokenId::new(0)), Some(ProcessId::new(2)));
/// # Ok::<(), tokensync_core::standards::erc721::Erc721Error>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Erc721State {
    processes: usize,
    /// Capacity of the token-id space; mint beyond it fails.
    token_span: usize,
    cells: Vec<NftCell>,
    /// Enabled operator pairs `(holder, operator)`.
    operators: BTreeSet<(u32, u32)>,
}

impl Erc721State {
    /// The all-unminted state over `processes` processes and a token-id
    /// space of `token_span` ids. Allocates nothing: the table grows
    /// with the mints.
    ///
    /// # Panics
    ///
    /// Panics if the process space exceeds the `u32` key range or the
    /// span passes [`MAX_DENSE_CELLS`].
    pub fn new(processes: usize, token_span: usize) -> Self {
        assert!(
            processes as u128 <= u32::MAX as u128 + 1,
            "process space exceeds the u32 key range"
        );
        assert!(
            token_span <= MAX_DENSE_CELLS,
            "token-id span exceeds MAX_DENSE_CELLS"
        );
        Self {
            processes,
            token_span,
            cells: Vec::new(),
            operators: BTreeSet::new(),
        }
    }

    /// Pre-mints tokens `0..tokens`, distributing ownership round-robin
    /// over all processes (token `t` to process `t % processes`) — the
    /// marketplace starting grid.
    ///
    /// # Panics
    ///
    /// Panics if `tokens > token_span` or `processes == 0`, and as
    /// [`new`](Self::new) does.
    pub fn minted_round_robin(processes: usize, token_span: usize, tokens: usize) -> Self {
        assert!(processes > 0, "need at least one process");
        assert!(tokens <= token_span, "cannot pre-mint past the id space");
        let mut state = Self::new(processes, token_span);
        state.cells = (0..tokens)
            .map(|t| Some((cell_index(t % processes), None)))
            .collect();
        state
    }

    /// Number of processes.
    pub fn processes(&self) -> usize {
        self.processes
    }

    /// The token-id space bound.
    pub fn token_span(&self) -> usize {
        self.token_span
    }

    /// Number of minted tokens — a scan of the table.
    pub fn minted(&self) -> usize {
        self.cells.iter().flatten().count()
    }

    /// The cell of `token` if it is minted.
    #[inline]
    fn cell(&self, token: TokenId) -> NftCell {
        self.cells.get(token.index()).copied().flatten()
    }

    /// Overwrites token `t`'s cell, growing the table to cover it.
    fn write(&mut self, t: usize, owner: u32, approved: Option<u32>) {
        if t >= self.cells.len() {
            self.cells.resize(t + 1, None);
        }
        self.cells[t] = Some((owner, approved));
    }

    /// `ownerOf(token)`.
    pub fn owner_of(&self, token: TokenId) -> Option<ProcessId> {
        self.cell(token)
            .map(|(owner, _)| ProcessId::new(owner as usize))
    }

    /// `getApproved(token)`.
    pub fn get_approved(&self, token: TokenId) -> Option<ProcessId> {
        let (_, approved) = self.cell(token)?;
        approved.map(|p| ProcessId::new(p as usize))
    }

    /// `isApprovedForAll(holder, operator)`.
    pub fn is_approved_for_all(&self, holder: ProcessId, operator: ProcessId) -> bool {
        match (
            u32::try_from(holder.index()),
            u32::try_from(operator.index()),
        ) {
            (Ok(h), Ok(o)) => self.operators.contains(&(h, o)),
            _ => false,
        }
    }

    /// `balanceOf(holder)` — a scan of the table (oracle-side only;
    /// deliberately not in the pipeline op alphabet).
    pub fn balance_of(&self, holder: ProcessId) -> usize {
        self.minted_tokens()
            .filter(|&(_, owner, _)| owner == holder)
            .count()
    }

    /// The minted tokens in increasing id order, each with its owner and
    /// outstanding single-use approval — the canonical walk the state
    /// codec serializes.
    pub fn minted_tokens(
        &self,
    ) -> impl Iterator<Item = (TokenId, ProcessId, Option<ProcessId>)> + '_ {
        let process = |p: u32| ProcessId::new(p as usize);
        self.cells.iter().enumerate().filter_map(move |(t, cell)| {
            let (owner, approved) = (*cell)?;
            Some((TokenId::new(t), process(owner), approved.map(process)))
        })
    }

    /// The enabled `(holder, operator)` pairs in increasing order.
    pub fn operator_pairs(&self) -> impl Iterator<Item = (ProcessId, ProcessId)> + '_ {
        self.operators
            .iter()
            .map(|&(h, o)| (ProcessId::new(h as usize), ProcessId::new(o as usize)))
    }

    /// Directly mints or overwrites `token` with an owner and optional
    /// single-use approval — codec/fixture aid, not an object operation.
    ///
    /// # Panics
    ///
    /// Panics if the token or either process is out of range.
    pub fn put_token(&mut self, token: TokenId, owner: ProcessId, approved: Option<ProcessId>) {
        assert!(token.index() < self.token_span, "token out of range");
        assert!(owner.index() < self.processes, "owner out of range");
        assert!(
            approved.is_none_or(|p| p.index() < self.processes),
            "approved out of range"
        );
        let approved = approved.map(|p| cell_index(p.index()));
        self.write(token.index(), cell_index(owner.index()), approved);
    }

    /// Enables `(holder, operator)` directly — test-fixture aid.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn set_operator(&mut self, holder: ProcessId, operator: ProcessId, on: bool) {
        assert!(holder.index() < self.processes && operator.index() < self.processes);
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

    /// The index of `token` if it and every one of `processes` lie
    /// inside the id spaces — the check each transition makes first.
    fn key_in_range(&self, token: TokenId, processes: &[ProcessId]) -> Result<usize, Erc721Error> {
        if token.index() < self.token_span && processes.iter().all(|p| p.index() < self.processes) {
            Ok(token.index())
        } else {
            Err(Erc721Error::BadId)
        }
    }

    /// `mint(to, tokenId)` by `caller` — lazy minting: any process may
    /// create an unminted id inside the span.
    ///
    /// # Errors
    ///
    /// [`Erc721Error::BadId`] or [`Erc721Error::AlreadyMinted`]. The
    /// state is unchanged on error.
    pub fn mint(
        &mut self,
        caller: ProcessId,
        to: ProcessId,
        token: TokenId,
    ) -> Result<(), Erc721Error> {
        let t = self.key_in_range(token, &[caller, to])?;
        if self.cell(token).is_some() {
            return Err(Erc721Error::AlreadyMinted(token));
        }
        self.write(t, cell_index(to.index()), None);
        Ok(())
    }

    /// `transferFrom(from, to, tokenId)` by `caller`.
    ///
    /// On success the token's single-use approval is cleared (ERC721
    /// semantics) and ownership moves to `to`.
    ///
    /// # Errors
    ///
    /// [`Erc721Error::BadId`], [`Erc721Error::UnknownToken`] for an
    /// unminted id, [`Erc721Error::WrongOwner`] if `from` is not the
    /// current owner, [`Erc721Error::NotAuthorized`] if the caller is
    /// neither owner, approved, nor operator — checked in that order.
    /// The state is unchanged on error.
    pub fn transfer_from(
        &mut self,
        caller: ProcessId,
        from: ProcessId,
        to: ProcessId,
        token: TokenId,
    ) -> Result<(), Erc721Error> {
        let t = self.key_in_range(token, &[caller, from, to])?;
        let (holder, approved) = self.cell(token).ok_or(Erc721Error::UnknownToken(token))?;
        let owner = ProcessId::new(holder as usize);
        if owner != from {
            return Err(Erc721Error::WrongOwner {
                claimed: from,
                actual: owner,
            });
        }
        let c = cell_index(caller.index());
        if caller != owner && approved != Some(c) && !self.operators.contains(&(holder, c)) {
            return Err(Erc721Error::NotAuthorized { caller, token });
        }
        // Single-use approval cleared with the move.
        self.write(t, cell_index(to.index()), None);
        Ok(())
    }

    /// `approve(approved, tokenId)` by `caller` (owner or operator);
    /// `None` clears the approval.
    ///
    /// # Errors
    ///
    /// [`Erc721Error::BadId`], [`Erc721Error::UnknownToken`] or
    /// [`Erc721Error::NotAuthorized`]. The state is unchanged on error.
    pub fn approve(
        &mut self,
        caller: ProcessId,
        approved: Option<ProcessId>,
        token: TokenId,
    ) -> Result<(), Erc721Error> {
        let t = self.key_in_range(token, &[caller])?;
        if approved.is_some_and(|p| p.index() >= self.processes) {
            return Err(Erc721Error::BadId);
        }
        let (holder, _) = self.cell(token).ok_or(Erc721Error::UnknownToken(token))?;
        let owner = ProcessId::new(holder as usize);
        if caller != owner && !self.is_approved_for_all(owner, caller) {
            return Err(Erc721Error::NotAuthorized { caller, token });
        }
        self.write(t, holder, approved.map(|p| cell_index(p.index())));
        Ok(())
    }

    /// `setApprovalForAll(operator, on)` by `caller`.
    ///
    /// # Errors
    ///
    /// [`Erc721Error::BadId`] or [`Erc721Error::SelfApproval`]. The
    /// state is unchanged on error.
    pub fn set_approval_for_all(
        &mut self,
        caller: ProcessId,
        operator: ProcessId,
        on: bool,
    ) -> Result<(), Erc721Error> {
        if caller.index() >= self.processes || operator.index() >= self.processes {
            return Err(Erc721Error::BadId);
        }
        if operator == caller {
            return Err(Erc721Error::SelfApproval);
        }
        self.set_operator(caller, operator, on);
        Ok(())
    }

    /// `op` by `caller`: a mutator runs the typed transition of the same
    /// name and answers `TRUE` iff it lands; a read of an unminted or
    /// out-of-range token answers `None`.
    fn apply_op(&mut self, caller: ProcessId, op: &Erc721Op) -> Erc721Resp {
        let landed = match *op {
            Erc721Op::Mint { to, token } => self.mint(caller, to, token),
            Erc721Op::TransferFrom { from, to, token } => {
                self.transfer_from(caller, from, to, token)
            }
            Erc721Op::Approve { approved, token } => self.approve(caller, approved, token),
            Erc721Op::SetApprovalForAll { operator, on } => {
                self.set_approval_for_all(caller, operator, on)
            }
            Erc721Op::OwnerOf { token } => return Erc721Resp::Process(self.owner_of(token)),
            Erc721Op::GetApproved { token } => {
                return Erc721Resp::Process(self.get_approved(token))
            }
        };
        Erc721Resp::Bool(landed.is_ok())
    }

    /// The movers of `token`: owner, approved process, and the owner's
    /// operators — the ERC721 analogue of `σ_q` for a single token.
    /// Empty for an unminted token.
    pub fn enabled_movers(&self, token: TokenId) -> BTreeSet<ProcessId> {
        let Some(owner) = self.owner_of(token) else {
            return BTreeSet::new();
        };
        let h = cell_index(owner.index());
        let mut movers = BTreeSet::from([owner]);
        movers.extend(self.get_approved(token));
        movers.extend(
            self.operators
                .range((h, 0)..=(h, u32::MAX))
                .map(|&(_, o)| ProcessId::new(o as usize)),
        );
        movers
    }

    /// The contract-wide synchronization level: `max_t |movers(t)|`
    /// over minted tokens, 1 when none is minted.
    pub fn sync_level(&self) -> usize {
        self.minted_tokens()
            .map(|(t, _, _)| self.enabled_movers(t).len())
            .fold(1, usize::max)
    }
}

/// The ERC721 object type over `Erc721State` — the sequential oracle
/// the pipeline's commit log replays against. Each mutator runs the
/// typed transition of the same name on [`Erc721State`] and answers
/// `TRUE` for `Ok`, `FALSE` for `Err` (state unchanged); reads of
/// unminted or out-of-range tokens answer `None`.
#[derive(Clone, Debug)]
pub struct Erc721Spec {
    initial: Erc721State,
}

impl Erc721Spec {
    /// Object type starting from an arbitrary state.
    pub fn new(initial: Erc721State) -> Self {
        Self { initial }
    }
}

impl ObjectType for Erc721Spec {
    type State = Erc721State;
    type Op = Erc721Op;
    type Resp = Erc721Resp;

    fn initial_state(&self) -> Erc721State {
        self.initial.clone()
    }

    fn apply(&self, state: &mut Erc721State, process: ProcessId, op: &Erc721Op) -> Erc721Resp {
        state.apply_op(process, op)
    }
}

/// An incremental copy-on-write snapshot of an ERC721 object: the
/// current cell of every token touched since the previous snapshot
/// watermark plus the current membership of every operator pair toggled
/// since then, drained by [`ShardedErc721::drain_delta`] and folded back
/// onto a base [`Erc721State`] at recovery time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Erc721Delta {
    /// `(token, owner, approved)` — current cell values, increasing
    /// token order. Tokens are never unminted, so a touched token always
    /// carries a full row.
    pub tokens: Vec<(u32, u32, Option<u32>)>,
    /// `(holder, operator, enabled)` — current membership of every
    /// toggled pair, increasing pair order.
    pub operators: Vec<(u32, u32, bool)>,
}

impl Erc721Delta {
    /// Whether the delta carries no rows (nothing was touched).
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty() && self.operators.is_empty()
    }

    /// Folds the delta onto `state`, overwriting every carried cell with
    /// its current value. Returns `false` (caller must discard the
    /// state) if any row is outside the state's id spaces — a valid
    /// producer never emits such a row, so `false` means a corrupt or
    /// foreign delta file.
    pub fn apply_to(&self, state: &mut Erc721State) -> bool {
        let process = |p: u32| (p as usize) < state.processes;
        if self.tokens.iter().any(|&(t, owner, approved)| {
            t as usize >= state.token_span || !process(owner) || !approved.is_none_or(process)
        }) || self
            .operators
            .iter()
            .any(|&(h, o, _)| !process(h) || !process(o))
        {
            return false;
        }
        for &(t, owner, approved) in &self.tokens {
            state.write(t as usize, owner, approved);
        }
        for &(h, o, on) in &self.operators {
            state.toggle((h, o), on);
        }
        true
    }
}

/// What the one lock of a [`ShardedErc721`] guards: the state, and what
/// changed since the last drain under the mark/drain contract of
/// [`Served`] — one bit per token cell, and the toggled
/// `(holder, operator)` pairs.
#[derive(Debug)]
pub struct Erc721Tracked {
    state: Erc721State,
    marks: Marks,
    dirty_ops: BTreeSet<(u32, u32)>,
}

impl Tracked for Erc721Tracked {
    type Op = Erc721Op;
    type Resp = Erc721Resp;
    type State = Erc721State;
    type Delta = Erc721Delta;
    type Spec = Erc721Spec;

    const LANDED: Erc721Resp = Erc721Resp::TRUE;

    fn track(state: Erc721State) -> Self {
        Self {
            marks: Marks::new(state.cells.len()),
            dirty_ops: BTreeSet::new(),
            state,
        }
    }

    fn state(&self) -> &Erc721State {
        &self.state
    }
    fn transition(&mut self, caller: ProcessId, op: &Erc721Op) -> Erc721Resp {
        self.state.apply_op(caller, op)
    }

    fn mark(&mut self, caller: ProcessId, op: &Erc721Op) {
        match *op {
            Erc721Op::Mint { token, .. }
            | Erc721Op::TransferFrom { token, .. }
            | Erc721Op::Approve { token, .. } => {
                // A mint past the end grew the table; the marks follow.
                self.marks.grow(token.index() + 1);
                self.marks.mark(token.index());
            }
            Erc721Op::SetApprovalForAll { operator, .. } => {
                let pair = (cell_index(caller.index()), cell_index(operator.index()));
                self.dirty_ops.insert(pair);
            }
            Erc721Op::OwnerOf { .. } | Erc721Op::GetApproved { .. } => {}
        }
    }

    /// The current cell of every marked token and the current
    /// membership of every toggled operator pair, both in ascending
    /// order.
    fn drain(&mut self) -> Erc721Delta {
        let Self {
            state,
            marks,
            dirty_ops,
        } = self;
        let mut tokens = Vec::new();
        marks.drain(|t| {
            let (owner, approved) = state.cells[t].expect("tokens are never unminted");
            tokens.push((cell_index(t), owner, approved));
        });
        let operators = std::mem::take(dirty_ops)
            .into_iter()
            .map(|pair| (pair.0, pair.1, state.operators.contains(&pair)))
            .collect();
        Erc721Delta { tokens, operators }
    }

    fn spec(initial: Erc721State) -> Erc721Spec {
        Erc721Spec::new(initial)
    }
    fn fold(state: &mut Erc721State, delta: &Erc721Delta) -> bool {
        delta.apply_to(state)
    }
}

/// An ERC721 contract behind one lock, scaling to ~1M token ids: the
/// generic [`Served`] object over [`Erc721Tracked`].
///
/// Every operation runs the [`Erc721State`] transition of the same name
/// under the lock; a mutation that lands then marks its token (a mint
/// past the end of the table grows the bitmap with it), or its operator
/// pair, and [`drain_delta`](Served::drain_delta) walks the bitmap in
/// token order — `O(1)` per write, one bit per id, drained or not.
/// **Memory:** the state's (12 B per id up to the highest minted one, at
/// most 12 B × `token_span`), plus one bit per table cell of dirty
/// tracking.
///
/// Linearizability is established empirically by the per-standard
/// pipeline proptests
/// (`tokensync-pipeline/tests/standards_linearizability.rs`) through
/// [`check_linearizable`](tokensync_spec::check_linearizable).
///
/// # Example
///
/// ```
/// use tokensync_core::shared::ConcurrentObject;
/// use tokensync_core::standards::erc721::{Erc721Op, Erc721Resp, Erc721State, ShardedErc721, TokenId};
/// use tokensync_spec::ProcessId;
///
/// let nft = ShardedErc721::from_state(Erc721State::minted_round_robin(4, 1000, 8));
/// let resp = nft.apply(ProcessId::new(1), &Erc721Op::TransferFrom {
///     from: ProcessId::new(1),
///     to: ProcessId::new(2),
///     token: TokenId::new(1),
/// });
/// assert_eq!(resp, Erc721Resp::TRUE);
/// assert_eq!(nft.snapshot().owner_of(TokenId::new(1)), Some(ProcessId::new(2)));
/// ```
pub type ShardedErc721 = Served<Erc721Tracked>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Codec;
    use crate::shared::ConcurrentObject;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use proptest::test_runner::{cases, rng_for_test};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }
    fn t(i: usize) -> TokenId {
        TokenId::new(i)
    }

    /// The length of the object's token table.
    fn table_len(nft: &ShardedErc721) -> usize {
        nft.lock().state.cells.len()
    }

    #[test]
    fn drain_delta_tracks_touched_cells_and_folds_onto_base() {
        let nft = ShardedErc721::from_state(Erc721State::minted_round_robin(4, 64, 8));
        assert!(
            nft.drain_delta().is_empty(),
            "fresh object has no dirty rows"
        );
        let base = nft.snapshot();
        nft.apply(
            p(1),
            &Erc721Op::TransferFrom {
                from: p(1),
                to: p(2),
                token: t(1),
            },
        );
        nft.apply(
            p(0),
            &Erc721Op::Mint {
                to: p(3),
                token: t(20),
            },
        );
        nft.apply(
            p(2),
            &Erc721Op::SetApprovalForAll {
                operator: p(0),
                on: true,
            },
        );
        nft.apply(
            p(3),
            &Erc721Op::Approve {
                approved: Some(p(0)),
                token: t(3),
            },
        );
        let delta = nft.drain_delta();
        assert!(!delta.tokens.is_empty() && !delta.operators.is_empty());
        let mut folded = base;
        assert!(delta.apply_to(&mut folded));
        assert_eq!(folded, nft.snapshot());
        assert!(
            nft.drain_delta().is_empty(),
            "drain clears the tracking sets"
        );
    }

    #[test]
    fn tables_reach_one_past_the_highest_minted_slot() {
        // A million-id span with 8 tokens minted: one cell per token.
        let nft = ShardedErc721::from_state(Erc721State::minted_round_robin(4, 1 << 20, 8));
        assert_eq!(table_len(&nft), 8);
    }

    #[test]
    fn a_mint_past_the_table_grows_the_table_and_its_marks() {
        const SPAN: usize = 1 << 12;
        let nft = ShardedErc721::from_state(Erc721State::minted_round_robin(4, SPAN, 8));
        assert_eq!(table_len(&nft), 8);
        let moved = Erc721Op::TransferFrom {
            from: p(1),
            to: p(2),
            token: t(1),
        };
        assert_eq!(nft.apply(p(1), &moved), Erc721Resp::TRUE);
        let minted = Erc721Op::Mint {
            to: p(3),
            token: t(SPAN - 1),
        };
        assert_eq!(nft.apply(p(0), &minted), Erc721Resp::TRUE);
        assert_eq!(table_len(&nft), SPAN);
        // The bitmap grew many words past its first one; the drain
        // still reports in token order.
        assert_eq!(
            nft.drain_delta().tokens,
            [(1, 2, None), (SPAN as u32 - 1, 3, None)]
        );
        assert_eq!(nft.snapshot().owner_of(t(SPAN - 1)), Some(p(3)));
        assert_eq!(nft.apply(p(0), &minted), Erc721Resp::FALSE);
    }

    #[test]
    fn a_mint_below_the_top_grows_nothing() {
        let mut genesis = Erc721State::new(4, 1 << 10);
        genesis.put_token(t(100), p(0), None);
        let nft = ShardedErc721::from_state(genesis);
        assert_eq!(table_len(&nft), 101);
        for (to, token) in [(1, 4), (2, 0)] {
            let mint = Erc721Op::Mint {
                to: p(to),
                token: t(token),
            };
            assert_eq!(nft.apply(p(0), &mint), Erc721Resp::TRUE);
        }
        assert_eq!(table_len(&nft), 101);
        assert_eq!(nft.drain_delta().tokens, [(0, 2, None), (4, 1, None)]);
    }

    #[test]
    fn delta_apply_rejects_out_of_range_rows() {
        let mut state = Erc721State::new(2, 4);
        let delta = Erc721Delta {
            tokens: vec![(9, 0, None)],
            operators: Vec::new(),
        };
        assert!(!delta.apply_to(&mut state));
        assert_eq!(state, Erc721State::new(2, 4));
    }

    #[test]
    fn spec_mint_transfer_approve_flow() {
        let spec = Erc721Spec::new(Erc721State::new(3, 8));
        let mut q = spec.initial_state();
        assert_eq!(
            spec.apply(
                &mut q,
                p(0),
                &Erc721Op::Mint {
                    to: p(0),
                    token: t(1)
                }
            ),
            Erc721Resp::TRUE
        );
        // Double mint of the same id fails.
        assert_eq!(
            spec.apply(
                &mut q,
                p(2),
                &Erc721Op::Mint {
                    to: p(2),
                    token: t(1)
                }
            ),
            Erc721Resp::FALSE
        );
        assert_eq!(
            spec.apply(
                &mut q,
                p(0),
                &Erc721Op::Approve {
                    approved: Some(p(2)),
                    token: t(1)
                }
            ),
            Erc721Resp::TRUE
        );
        assert_eq!(
            spec.apply(
                &mut q,
                p(2),
                &Erc721Op::TransferFrom {
                    from: p(0),
                    to: p(2),
                    token: t(1)
                }
            ),
            Erc721Resp::TRUE
        );
        // Approval is single-use: cleared by the transfer.
        assert_eq!(q.get_approved(t(1)), None);
        assert_eq!(q.owner_of(t(1)), Some(p(2)));
        // The losing race: a second claim on the old owner fails.
        assert_eq!(
            spec.apply(
                &mut q,
                p(0),
                &Erc721Op::TransferFrom {
                    from: p(0),
                    to: p(1),
                    token: t(1)
                }
            ),
            Erc721Resp::FALSE
        );
    }

    #[test]
    fn sharded_matches_spec_on_scripts() {
        let initial = Erc721State::minted_round_robin(4, 64, 12);
        let spec = Erc721Spec::new(initial.clone());
        let nft = ShardedErc721::from_state(initial.clone());
        let mut oracle = spec.initial_state();
        let script: Vec<(ProcessId, Erc721Op)> = vec![
            (
                p(1),
                Erc721Op::SetApprovalForAll {
                    operator: p(3),
                    on: true,
                },
            ),
            (
                p(3),
                Erc721Op::TransferFrom {
                    from: p(1),
                    to: p(0),
                    token: t(5),
                },
            ),
            (
                p(0),
                Erc721Op::Approve {
                    approved: Some(p(2)),
                    token: t(0),
                },
            ),
            (
                p(2),
                Erc721Op::TransferFrom {
                    from: p(0),
                    to: p(2),
                    token: t(0),
                },
            ),
            (
                p(2),
                Erc721Op::Mint {
                    to: p(2),
                    token: t(40),
                },
            ),
            (
                p(2),
                Erc721Op::Mint {
                    to: p(2),
                    token: t(40),
                },
            ),
            (p(0), Erc721Op::OwnerOf { token: t(5) }),
            (p(0), Erc721Op::GetApproved { token: t(0) }),
            (
                p(3),
                Erc721Op::TransferFrom {
                    from: p(1),
                    to: p(3),
                    token: t(9),
                },
            ),
            (
                p(1),
                Erc721Op::SetApprovalForAll {
                    operator: p(3),
                    on: false,
                },
            ),
            (
                p(3),
                Erc721Op::TransferFrom {
                    from: p(1),
                    to: p(3),
                    token: t(1),
                },
            ),
        ];
        for (caller, op) in &script {
            let expected = spec.apply(&mut oracle, *caller, op);
            assert_eq!(
                ConcurrentObject::apply(&nft, *caller, op),
                expected,
                "sharded diverged on {op:?}"
            );
        }
        assert_eq!(nft.snapshot(), oracle, "snapshot diverged");
    }

    #[test]
    fn huge_token_ids_fail_cleanly_instead_of_panicking() {
        // Ids beyond the u32 key range: the spec and the sharded object
        // must agree on FALSE/None (totality), and the footprint must
        // saturate rather than panic — a hostile op id submitted through
        // the intake must never take down the engine.
        let huge = TokenId::new(u32::MAX as usize + 7);
        let spec = Erc721Spec::new(Erc721State::minted_round_robin(3, 8, 4));
        let nft = ShardedErc721::from_state(Erc721State::minted_round_robin(3, 8, 4));
        let ops = [
            Erc721Op::Mint {
                to: p(1),
                token: huge,
            },
            Erc721Op::TransferFrom {
                from: p(0),
                to: p(1),
                token: huge,
            },
            Erc721Op::Approve {
                approved: Some(p(1)),
                token: huge,
            },
            Erc721Op::OwnerOf { token: huge },
            Erc721Op::GetApproved { token: huge },
        ];
        let mut q = spec.initial_state();
        for op in &ops {
            let expected = spec.apply(&mut q, p(0), op);
            assert!(matches!(
                expected,
                Erc721Resp::FALSE | Erc721Resp::Process(None)
            ));
            assert_eq!(ConcurrentObject::apply(&nft, p(0), op), expected);
            assert!(!op.footprint(p(0)).is_empty()); // saturates, no panic
        }
        assert_eq!(q, spec.initial_state(), "huge ids must not mutate state");
    }

    #[test]
    fn owner_disjoint_transfers_have_disjoint_footprints() {
        let a = Erc721Op::TransferFrom {
            from: p(0),
            to: p(2),
            token: t(0),
        };
        let b = Erc721Op::TransferFrom {
            from: p(1),
            to: p(2),
            token: t(1),
        };
        assert!(!a.footprint(p(0)).conflicts_with(&b.footprint(p(1))));
        // Same token: both claims serialize.
        let c = Erc721Op::TransferFrom {
            from: p(0),
            to: p(3),
            token: t(0),
        };
        assert!(a.footprint(p(0)).conflicts_with(&c.footprint(p(3))));
        // An operator-authorized transfer serializes against its
        // operator's setApprovalForAll…
        let toggle = Erc721Op::SetApprovalForAll {
            operator: p(2),
            on: false,
        };
        let by_operator = Erc721Op::TransferFrom {
            from: p(0),
            to: p(2),
            token: t(3),
        };
        assert!(by_operator
            .footprint(p(2))
            .conflicts_with(&toggle.footprint(p(0))));
        // …but an owner's own transfer does not.
        assert!(!a.footprint(p(0)).conflicts_with(&toggle.footprint(p(1))));
    }

    const N: usize = 3;
    const SPAN: usize = 4;

    fn arb_op() -> impl Strategy<Value = Erc721Op> {
        arb_op_in(N, SPAN)
    }

    /// Ops over processes `0..n` and token ids `0..span`.
    fn arb_op_in(n: usize, span: usize) -> impl Strategy<Value = Erc721Op> {
        prop_oneof![
            (0..n, 0..span).prop_map(|(to, token)| Erc721Op::Mint {
                to: p(to),
                token: t(token)
            }),
            (0..n, 0..n, 0..span).prop_map(|(from, to, token)| Erc721Op::TransferFrom {
                from: p(from),
                to: p(to),
                token: t(token),
            }),
            (0..=n, 0..span).prop_map(move |(ap, token)| Erc721Op::Approve {
                approved: (ap < n).then(|| p(ap)),
                token: t(token),
            }),
            (0..n, 0..2usize).prop_map(|(op, on)| Erc721Op::SetApprovalForAll {
                operator: p(op),
                on: on == 1,
            }),
            (0..span).prop_map(|token| Erc721Op::OwnerOf { token: t(token) }),
            (0..span).prop_map(|token| Erc721Op::GetApproved { token: t(token) }),
        ]
    }

    /// `op`'s typed transition on `q` by `caller`; `None` for a read.
    fn typed(
        q: &mut Erc721State,
        caller: ProcessId,
        op: &Erc721Op,
    ) -> Option<Result<(), Erc721Error>> {
        Some(match *op {
            Erc721Op::Mint { to, token } => q.mint(caller, to, token),
            Erc721Op::TransferFrom { from, to, token } => q.transfer_from(caller, from, to, token),
            Erc721Op::Approve { approved, token } => q.approve(caller, approved, token),
            Erc721Op::SetApprovalForAll { operator, on } => {
                q.set_approval_for_all(caller, operator, on)
            }
            Erc721Op::OwnerOf { .. } | Erc721Op::GetApproved { .. } => return None,
        })
    }

    /// Every refused typed transition leaves the state `==` to what it
    /// was and its codec bytes unchanged. Scripts draw ids up to one past
    /// each space, half the transfers come from the claimed owner, and
    /// the run must reach every [`Erc721Error`] variant (the match below
    /// names each), so the check cannot pass vacuously.
    #[test]
    fn typed_errors_leave_the_state_unchanged() {
        let script = vec((0..=N, arb_op_in(N + 1, SPAN + 1), 0..2usize), 0..32);
        let mut rng = rng_for_test("typed_errors_leave_the_state_unchanged");
        let mut reached = [false; 6];
        for _ in 0..cases() {
            let mut q = Erc721State::minted_round_robin(N, SPAN, SPAN / 2);
            for (caller, op, choice) in script.generate(&mut rng) {
                let caller = match op {
                    Erc721Op::TransferFrom { from, .. } if choice == 1 => from,
                    _ => p(caller),
                };
                let (before, bytes) = (q.clone(), q.encode());
                let Some(Err(err)) = typed(&mut q, caller, &op) else {
                    continue;
                };
                reached[match err {
                    Erc721Error::BadId => 0,
                    Erc721Error::UnknownToken(_) => 1,
                    Erc721Error::AlreadyMinted(_) => 2,
                    Erc721Error::SelfApproval => 3,
                    Erc721Error::NotAuthorized { .. } => 4,
                    Erc721Error::WrongOwner { .. } => 5,
                }] = true;
                assert_eq!(q, before, "{err} changed the state ({op:?} by {caller})");
                assert_eq!(q.encode(), bytes, "{err} changed the codec bytes");
            }
        }
        assert_eq!(reached, [true; 6], "an error variant was never reached");
    }

    proptest! {
        /// Soundness of the ERC721 footprint catalog: footprint-disjoint
        /// pairs commute — same final state, same responses, both
        /// orders, from arbitrary reachable states (mirror of the ERC20
        /// suite).
        #[test]
        fn disjoint_footprints_commute_at_every_state(
            minted in vec((0..SPAN, 0..N), 0..4),
            approvals in vec((0..SPAN, 0..N), 0..3),
            operators in vec((0..N, 0..N), 0..3),
            c1 in 0..N,
            c2 in 0..N,
            o1 in arb_op(),
            o2 in arb_op(),
        ) {
            let (c1, c2) = (p(c1), p(c2));
            prop_assume!(!o1.footprint(c1).conflicts_with(&o2.footprint(c2)));
            let mut q = Erc721State::new(N, SPAN);
            for &(token, owner) in &minted {
                q.put_token(t(token), p(owner), None);
            }
            for &(token, ap) in &approvals {
                if let Some(owner) = q.owner_of(t(token)) {
                    q.put_token(t(token), owner, Some(p(ap)));
                }
            }
            for &(h, o) in &operators {
                q.set_operator(p(h), p(o), true);
            }
            let spec = Erc721Spec::new(Erc721State::new(N, SPAN));
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
        /// (mints, moves there and back, self-transfers, approvals set
        /// and cleared) and wherever the drains fall, each drain reports
        /// exactly the tokens a reference set of mutated keys names —
        /// same rows, same order — the deltas fold onto genesis to the
        /// live snapshot, and an object nobody drains lists each
        /// distinct token once.
        #[test]
        fn drains_report_exactly_the_mutated_cells(
            steps in vec((0..N, arb_op(), 0..4usize), 0..48),
        ) {
            let genesis = Erc721State::minted_round_robin(N, SPAN, SPAN / 2);
            let spec = Erc721Spec::new(genesis.clone());
            let mut oracle = spec.initial_state();
            let drained = ShardedErc721::from_state(genesis.clone());
            let undrained = ShardedErc721::from_state(genesis.clone());
            let listed = |nft: &ShardedErc721| nft.lock().marks.count();
            // Tokens and `(holder, operator)` pairs written since the
            // last drain; every token ever written.
            let mut tokens = BTreeSet::new();
            let mut pairs = BTreeSet::new();
            let mut ever = BTreeSet::new();
            let mut folded = genesis;
            // The last step always drains.
            let last = (0, Erc721Op::OwnerOf { token: t(0) }, 3);
            for (caller, op, choice) in steps.into_iter().chain([last]) {
                // Half the transfers come from the claimed owner.
                let caller = match op {
                    Erc721Op::TransferFrom { from, .. } if choice & 1 == 1 => from,
                    _ => p(caller),
                };
                let resp = spec.apply(&mut oracle, caller, &op);
                prop_assert_eq!(drained.apply(caller, &op), resp);
                prop_assert_eq!(undrained.apply(caller, &op), resp);
                if resp == Erc721Resp::TRUE {
                    match op {
                        Erc721Op::Mint { token, .. }
                        | Erc721Op::TransferFrom { token, .. }
                        | Erc721Op::Approve { token, .. } => {
                            tokens.insert(token.index() as u32);
                        }
                        Erc721Op::SetApprovalForAll { operator, .. } => {
                            pairs.insert((caller.index() as u32, operator.index() as u32));
                        }
                        _ => unreachable!("reads answer processes"),
                    }
                }
                ever.extend(tokens.iter().copied());
                prop_assert_eq!(listed(&undrained), ever.len(), "one entry per distinct token");
                if choice < 3 {
                    continue;
                }
                let delta = drained.drain_delta();
                let index = |p: ProcessId| p.index() as u32;
                let expected = Erc721Delta {
                    tokens: std::mem::take(&mut tokens)
                        .into_iter()
                        .map(|token| {
                            let id = t(token as usize);
                            let owner = oracle.owner_of(id).expect("written tokens are minted");
                            (token, index(owner), oracle.get_approved(id).map(index))
                        })
                        .collect(),
                    operators: std::mem::take(&mut pairs)
                        .into_iter()
                        .map(|(h, o)| {
                            (h, o, oracle.is_approved_for_all(p(h as usize), p(o as usize)))
                        })
                        .collect(),
                };
                prop_assert_eq!(&delta, &expected);
                prop_assert!(delta.apply_to(&mut folded));
                prop_assert_eq!(&folded, &drained.snapshot());
                prop_assert_eq!(listed(&drained), 0, "a drain empties the lists");
            }
            prop_assert_eq!(folded, oracle);
            prop_assert_eq!(undrained.snapshot(), drained.snapshot());
        }
    }
}
