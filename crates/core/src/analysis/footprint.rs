//! Per-operation state footprints and the *state-independent* conflict
//! relation the batched execution pipeline schedules by — for **every**
//! token standard, not just ERC20.
//!
//! The Section 5 analysis asks which operations need synchronization at a
//! *given* state `q` (the σ_q machinery); a batch scheduler needs the
//! stronger, state-free question: *can these two operations ever fail to
//! commute, at any state?* This module answers it by charging every
//! operation a [`Footprint`] over the token's mutable [`Cell`]s, each
//! tagged with an [`Access`] mode:
//!
//! * [`Access::Update`] both reads and rewrites a cell — a balance
//!   **debit** (precondition and response depend on the cell), an
//!   allowance overwrite/consumption, an NFT ownership change, an
//!   operator-row toggle;
//! * [`Access::Credit`] blindly increases a cell (`+=` commutes with
//!   `+=`, so two credits to the same account are *not* a conflict —
//!   this is what lets a hot sink account absorb parallel deposits);
//! * [`Access::Read`] observes a cell without changing it. Supply reads
//!   (`totalSupply`) have an *empty* footprint — the supply is invariant
//!   under `Δ`, so they commute with everything.
//!
//! Two operations conflict iff they touch a common cell and the accesses
//! are not both reads and not both credits. Disjoint footprints touch
//! disjoint mutable state apart from shared pure increments, so the
//! operations commute — identical final state *and* identical responses
//! in either order, at **every** state. This is checked exhaustively
//! against the sequential specs by property tests (here for ERC20, in
//! `standards::erc721`/`standards::erc1155` for the Section 6 objects),
//! and it is the soundness argument of `tokensync-pipeline`'s wave
//! scheduler. The paper's catalogued conflicts (Theorem 3's proof:
//! same-source withdrawals, the approve/spender race — see
//! `tokensync-mc::commute`) appear here as update/update collisions; the
//! footprint relation is deliberately a *superset* of the catalog because
//! an executor must also order pairs the proof may discharge as
//! "read-only at q" (e.g. a credit landing on an account another op is
//! draining).

use smallvec::SmallVec;
use tokensync_spec::{AccountId, ProcessId};

use crate::erc20::Erc20Op;

/// Inline charge capacity of a [`Footprint`]: every single-op footprint
/// in the tree fits (the widest, `transferFrom`, charges 3 cells; an
/// ERC1155 batch charges `2·rows + 1` and only spills past 3 rows).
const INLINE_CHARGES: usize = 8;

/// One mutable cell of a token object's state, across all the standards
/// of Section 6. The pipeline never interprets a cell — it only compares
/// them for equality — so one enum covers every standard without the
/// scheduler knowing which object it is serving.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Cell {
    /// An ERC20/ERC777 balance slot `β(a)`.
    Balance(u32),
    /// An ERC20 allowance cell `α(a, p̄)`.
    Allowance(u32, u32),
    /// An ERC721 per-token cell: ownership plus the single-use approval
    /// of one `tokenId`.
    Token(u32),
    /// The operator *column* of one process: every
    /// `isApprovedForAll(·, p)` row with `p` as the operator
    /// (ERC721/ERC1155/ERC777 `setApprovalForAll` /
    /// `authorizeOperator`). Keyed by the operator alone — coarser than
    /// the `(holder, operator)` pair, which over-approximates (two
    /// holders toggling the same operator conflict spuriously) but stays
    /// state-independent: an authorization check by caller `p` cannot
    /// know which holder's row it will consult, yet always consults a
    /// row in `p`'s column.
    Operator(u32),
    /// An ERC1155 `(token type, account)` balance cell.
    Typed(u32, u32),
}

impl Cell {
    /// The interned, pre-hashed form of this cell — computed once per
    /// charge so downstream registries (the wave scheduler, the bypass
    /// probe) neither re-hash nor re-compare variant structure per
    /// lookup. See [`CellKey`].
    pub fn key(self) -> CellKey {
        let (tag, a, b) = match self {
            Cell::Balance(a) => (0u128, a, 0),
            Cell::Allowance(a, p) => (1, a, p),
            Cell::Token(t) => (2, t, 0),
            Cell::Operator(p) => (3, p, 0),
            Cell::Typed(t, a) => (4, t, a),
        };
        let packed = (tag << 64) | ((a as u128) << 32) | b as u128;
        CellKey {
            packed,
            hash: mix64((packed as u64) ^ (packed >> 64) as u64 ^ GOLDEN),
        }
    }
}

/// 2⁶⁴/φ — the usual odd multiplicative constant; separates the variant
/// tag bits before the finalizer.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: a cheap full-avalanche mix, so the low bits of a
/// [`CellKey`] hash are usable as open-addressing bucket indices even
/// though account/token ids are small dense integers.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An interned [`Cell`]: the variant packed into one `u128` plus its
/// hash, computed once at [`Cell::key`] time. Equality compares the
/// packing (exact — the packing is injective); [`std::hash::Hash`]
/// forwards the pre-computed hash, so hashing a `CellKey` is free no
/// matter which hasher consumes it.
#[derive(Clone, Copy, Debug, PartialOrd, Ord)]
pub struct CellKey {
    packed: u128,
    hash: u64,
}

impl CellKey {
    /// The injectively packed `(variant, ids)` value.
    pub fn packed(self) -> u128 {
        self.packed
    }

    /// The pre-computed 64-bit hash of [`packed`](CellKey::packed).
    pub fn hash(self) -> u64 {
        self.hash
    }
}

impl PartialEq for CellKey {
    fn eq(&self, other: &Self) -> bool {
        self.packed == other.packed
    }
}

impl Eq for CellKey {}

impl std::hash::Hash for CellKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// How an operation touches a [`Cell`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// Observes the cell without changing it.
    Read,
    /// Blindly increases the cell (`+=`): commutes with other credits of
    /// the same cell, conflicts with everything else.
    Credit,
    /// Reads and/or rewrites the cell: debits, overwrites, consumption,
    /// ownership moves, operator toggles. Conflicts with every other
    /// access of the cell.
    Update,
}

impl Access {
    /// Whether two accesses of the *same* cell commute: only read/read
    /// and credit/credit do.
    pub fn commutes_with(self, other: Access) -> bool {
        matches!(
            (self, other),
            (Access::Read, Access::Read) | (Access::Credit, Access::Credit)
        )
    }
}

/// The set of `(cell, access)` charges of one operation. Built via
/// [`FootprintedOp::footprint_into`] into a caller-owned buffer so the
/// scheduler's hot loop performs no allocation at all: the charges live
/// in an inline small-vector (8 slots — every single-op footprint fits
/// without spilling), and clearing keeps whatever spill
/// capacity a wide batch op ever forced, so the reused buffer is
/// allocation-free in steady state.
///
/// # Examples
///
/// Two owner-disjoint transfers commute (their cell sets only co-credit);
/// two withdrawals racing one source conflict on its balance cell:
///
/// ```
/// use tokensync_core::analysis::FootprintedOp;
/// use tokensync_core::erc20::Erc20Op;
/// use tokensync_spec::{AccountId, ProcessId};
///
/// let pay = |to: usize| Erc20Op::Transfer { to: AccountId::new(to), value: 1 };
/// let alice = (ProcessId::new(0), pay(7));
/// let bob = (ProcessId::new(1), pay(7));
/// // Disjoint sources, shared destination: credits commute.
/// assert!(!alice.1.footprint(alice.0).conflicts_with(&bob.1.footprint(bob.0)));
/// // Same source racing itself: update/update on one balance cell.
/// let again = (ProcessId::new(0), pay(3));
/// assert!(alice.1.footprint(alice.0).conflicts_with(&again.1.footprint(again.0)));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Footprint {
    entries: SmallVec<(Cell, Access), INLINE_CHARGES>,
}

impl Footprint {
    /// An empty footprint (commutes with everything).
    pub const fn new() -> Self {
        Self {
            entries: SmallVec::new(),
        }
    }

    /// Removes all charges, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Charges `access` on `cell`.
    pub fn push(&mut self, cell: Cell, access: Access) {
        self.entries.push((cell, access));
    }

    /// The charges, in push order (one op may charge a cell repeatedly —
    /// e.g. a batch naming a token type twice; self-collisions are
    /// meaningless and ignored by the scheduler).
    pub fn iter(&self) -> impl Iterator<Item = (Cell, Access)> + '_ {
        self.entries.iter().copied()
    }

    /// Whether no cell is charged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of charges.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether this op and `other` may fail to commute at *some* state:
    /// a shared cell with accesses that are not read/read or
    /// credit/credit. Symmetric. If this returns `false` the two
    /// operations commute at **every** state (same final state, same two
    /// responses in either order) — the per-standard property suites
    /// check that claim against the sequential specs.
    pub fn conflicts_with(&self, other: &Footprint) -> bool {
        self.iter().any(|(cell, access)| {
            other
                .iter()
                .any(|(c, a)| c == cell && !access.commutes_with(a))
        })
    }
}

/// An operation that can report its state footprint — the one bound the
/// generic pipeline scheduler needs. Implemented by [`Erc20Op`] and by
/// the ERC721/ERC1155 op alphabets in [`standards`](crate::standards).
pub trait FootprintedOp {
    /// Appends the `(cell, access)` charges of this op invoked by
    /// `caller` into `out` (which the caller has cleared). Batch
    /// operations append one charge per touched cell — their footprint
    /// is the union of their parts.
    fn footprint_into(&self, caller: ProcessId, out: &mut Footprint);

    /// Convenience allocating form of
    /// [`footprint_into`](FootprintedOp::footprint_into).
    fn footprint(&self, caller: ProcessId) -> Footprint {
        let mut out = Footprint::new();
        self.footprint_into(caller, &mut out);
        out
    }
}

/// Convenience: whether two raw `(caller, op)` pairs may fail to commute,
/// per the generic footprint relation.
pub fn footprints_conflict<O: FootprintedOp>(a: (ProcessId, &O), b: (ProcessId, &O)) -> bool {
    a.1.footprint(a.0).conflicts_with(&b.1.footprint(b.0))
}

/// Saturating index → cell-key conversion shared by every standard's
/// [`FootprintedOp`] impl. Ids beyond `u32::MAX` all alias onto the
/// `u32::MAX` sentinel cell, which is *sound*: the specs treat every
/// out-of-range id as a failing/no-op operation, so aliasing them can
/// only add spurious conflicts (serializing what would commute), never
/// hide one — and, unlike a panicking conversion, a hostile op id can
/// never take down the scheduler.
pub(crate) fn cell_index(i: usize) -> u32 {
    u32::try_from(i).unwrap_or(u32::MAX)
}

impl FootprintedOp for Erc20Op {
    fn footprint_into(&self, caller: ProcessId, out: &mut Footprint) {
        let balance = |a: AccountId| Cell::Balance(cell_index(a.index()));
        let allowance = |a: AccountId, p: ProcessId| {
            Cell::Allowance(cell_index(a.index()), cell_index(p.index()))
        };
        match *self {
            // A debit reads its cell (precondition and response depend
            // on it), so it is an update; the deposit is a blind `+=`.
            Erc20Op::Transfer { to, .. } => {
                out.push(balance(caller.own_account()), Access::Update);
                out.push(balance(to), Access::Credit);
            }
            // `transferFrom` also consumes (reads + debits) the
            // caller's allowance on the source.
            Erc20Op::TransferFrom { from, to, .. } => {
                out.push(balance(from), Access::Update);
                out.push(balance(to), Access::Credit);
                out.push(allowance(from, caller), Access::Update);
            }
            // `approve` overwrites, and no pair of allowance writes is
            // order-independent in general.
            Erc20Op::Approve { spender, .. } => {
                out.push(allowance(caller.own_account(), spender), Access::Update);
            }
            Erc20Op::BalanceOf { account } => out.push(balance(account), Access::Read),
            Erc20Op::Allowance { account, spender } => {
                out.push(allowance(account, spender), Access::Read);
            }
            // Supply is invariant under Δ: the read commutes with every
            // operation, so the footprint is empty.
            Erc20Op::TotalSupply => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erc20::{Erc20Spec, Erc20State};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use tokensync_spec::ObjectType;

    fn a(i: usize) -> AccountId {
        AccountId::new(i)
    }
    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn owner_disjoint_transfers_commute() {
        let t1 = Erc20Op::Transfer { to: a(2), value: 1 };
        let t2 = Erc20Op::Transfer { to: a(3), value: 1 };
        assert!(!footprints_conflict((p(0), &t1), (p(1), &t2)));
    }

    #[test]
    fn shared_sink_credits_commute() {
        // Two deposits into the same hot account: += commutes with +=.
        let t1 = Erc20Op::Transfer { to: a(3), value: 1 };
        let t2 = Erc20Op::Transfer { to: a(3), value: 2 };
        assert!(!footprints_conflict((p(0), &t1), (p(1), &t2)));
    }

    #[test]
    fn same_source_withdrawals_conflict() {
        // Theorem 3's Cases 1–3: withdrawals racing on one source.
        let tf1 = Erc20Op::TransferFrom {
            from: a(0),
            to: a(2),
            value: 1,
        };
        let tf2 = Erc20Op::TransferFrom {
            from: a(0),
            to: a(3),
            value: 1,
        };
        assert!(footprints_conflict((p(2), &tf1), (p(3), &tf2)));
        // Owner's own transfer races a transferFrom on its account too.
        let t = Erc20Op::Transfer { to: a(3), value: 1 };
        assert!(footprints_conflict((p(0), &t), (p(2), &tf1)));
    }

    #[test]
    fn approve_spender_race_conflicts() {
        // Theorem 3's Case 4: approve rewrites the allowance the
        // transferFrom consumes.
        let approve = Erc20Op::Approve {
            spender: p(2),
            value: 5,
        };
        let spend = Erc20Op::TransferFrom {
            from: a(0),
            to: a(1),
            value: 1,
        };
        assert!(footprints_conflict((p(0), &approve), (p(2), &spend)));
        // A different spender's allowance is a different cell — but the
        // transferFrom still debits account 0's balance, which approve
        // does not touch, so the pair commutes.
        let other_spend = Erc20Op::TransferFrom {
            from: a(1),
            to: a(3),
            value: 1,
        };
        assert!(!footprints_conflict((p(0), &approve), (p(2), &other_spend)));
    }

    #[test]
    fn credit_into_drained_account_conflicts() {
        // The pair Theorem 3's proof discharges as "read-only at q" but an
        // executor must still order: a deposit can flip a withdrawal's
        // outcome.
        let credit = Erc20Op::Transfer { to: a(1), value: 5 };
        let withdraw = Erc20Op::Transfer { to: a(2), value: 5 };
        assert!(footprints_conflict((p(0), &credit), (p(1), &withdraw)));
    }

    #[test]
    fn approves_by_distinct_owners_commute() {
        let a1 = Erc20Op::Approve {
            spender: p(2),
            value: 5,
        };
        let a2 = Erc20Op::Approve {
            spender: p(2),
            value: 7,
        };
        assert!(!footprints_conflict((p(0), &a1), (p(1), &a2)));
        // Same owner, same spender: overwrites do not commute.
        assert!(footprints_conflict((p(0), &a1), (p(0), &a2)));
    }

    #[test]
    fn total_supply_commutes_with_everything() {
        let read = Erc20Op::TotalSupply;
        let ops = [
            Erc20Op::Transfer { to: a(1), value: 3 },
            Erc20Op::TransferFrom {
                from: a(0),
                to: a(1),
                value: 1,
            },
            Erc20Op::Approve {
                spender: p(1),
                value: 2,
            },
            Erc20Op::BalanceOf { account: a(0) },
        ];
        for op in &ops {
            assert!(!footprints_conflict((p(0), &read), (p(2), op)));
        }
    }

    #[test]
    fn reads_conflict_with_writers_of_their_cell() {
        let bal = Erc20Op::BalanceOf { account: a(1) };
        let credit = Erc20Op::Transfer { to: a(1), value: 1 };
        assert!(footprints_conflict((p(3), &bal), (p(0), &credit)));
        let alw = Erc20Op::Allowance {
            account: a(0),
            spender: p(2),
        };
        let approve = Erc20Op::Approve {
            spender: p(2),
            value: 9,
        };
        assert!(footprints_conflict((p(3), &alw), (p(0), &approve)));
        // Reads never conflict with reads.
        assert!(!footprints_conflict((p(3), &bal), (p(1), &bal)));
    }

    #[test]
    fn empty_footprint_commutes_with_everything() {
        let supply = Erc20Op::TotalSupply.footprint(p(0));
        assert!(supply.is_empty());
        assert_eq!(supply.len(), 0);
        let spend = Erc20Op::TransferFrom {
            from: a(0),
            to: a(1),
            value: 1,
        }
        .footprint(p(2));
        assert_eq!(spend.len(), 3);
        assert!(!supply.conflicts_with(&spend));
        assert!(spend.conflicts_with(&spend.clone()));
    }

    #[test]
    fn cell_keys_are_injective_and_prehashed() {
        // Distinct cells — including same-id cells of different variants,
        // and transposed pair ids — must pack to distinct keys.
        let cells = [
            Cell::Balance(0),
            Cell::Balance(1),
            Cell::Allowance(0, 1),
            Cell::Allowance(1, 0),
            Cell::Token(0),
            Cell::Token(1),
            Cell::Operator(0),
            Cell::Typed(0, 1),
            Cell::Typed(1, 0),
            Cell::Balance(u32::MAX),
            Cell::Allowance(u32::MAX, u32::MAX),
        ];
        for (i, x) in cells.iter().enumerate() {
            for (j, y) in cells.iter().enumerate() {
                assert_eq!(
                    x.key() == y.key(),
                    i == j,
                    "key packing not injective on {x:?} vs {y:?}"
                );
                assert_eq!(x.key().packed() == y.key().packed(), i == j);
            }
            // Stable and pre-hashed: recomputing yields the same hash.
            assert_eq!(x.key().hash(), x.key().hash());
        }
        // The std Hash impl forwards the pre-computed value.
        use std::hash::{Hash, Hasher};
        let mut h = std::hash::DefaultHasher::new();
        Hash::hash(&cells[0].key(), &mut h);
        let _ = h.finish();
    }

    #[test]
    fn footprints_never_spill_for_single_ops() {
        // The inline capacity covers every single-op footprint in the
        // ERC20 alphabet — the scheduler's hot loop stays allocation-free.
        let ops = [
            Erc20Op::Transfer { to: a(1), value: 1 },
            Erc20Op::TransferFrom {
                from: a(0),
                to: a(1),
                value: 1,
            },
            Erc20Op::Approve {
                spender: p(1),
                value: 1,
            },
            Erc20Op::BalanceOf { account: a(0) },
            Erc20Op::Allowance {
                account: a(0),
                spender: p(1),
            },
            Erc20Op::TotalSupply,
        ];
        let mut fp = Footprint::new();
        for op in &ops {
            fp.clear();
            op.footprint_into(p(3), &mut fp);
            assert!(fp.len() <= 3, "{op:?} charges more cells than expected");
        }
    }

    #[test]
    fn access_mode_table() {
        use Access::*;
        assert!(Read.commutes_with(Read));
        assert!(Credit.commutes_with(Credit));
        for (x, y) in [
            (Read, Credit),
            (Read, Update),
            (Credit, Update),
            (Update, Update),
        ] {
            assert!(!x.commutes_with(y));
            assert!(!y.commutes_with(x));
        }
    }

    const N: usize = 4;

    fn arb_op() -> impl Strategy<Value = Erc20Op> {
        prop_oneof![
            (0..N, 0u64..4).prop_map(|(to, value)| Erc20Op::Transfer {
                to: AccountId::new(to),
                value
            }),
            (0..N, 0..N, 0u64..4).prop_map(|(from, to, value)| Erc20Op::TransferFrom {
                from: AccountId::new(from),
                to: AccountId::new(to),
                value,
            }),
            (0..N, 0u64..6).prop_map(|(spender, value)| Erc20Op::Approve {
                spender: ProcessId::new(spender),
                value
            }),
            (0..N).prop_map(|account| Erc20Op::BalanceOf {
                account: AccountId::new(account)
            }),
            (0..N, 0..N).prop_map(|(account, spender)| Erc20Op::Allowance {
                account: AccountId::new(account),
                spender: ProcessId::new(spender),
            }),
            Just(Erc20Op::TotalSupply),
        ]
    }

    proptest! {
        /// Soundness of the state-independent relation: footprint-disjoint
        /// pairs commute exactly — same final state, same responses, in
        /// both orders, from arbitrary states.
        #[test]
        fn disjoint_footprints_commute_at_every_state(
            balances in vec(0u64..6, N),
            approvals in vec((0..N, 0..N, 1u64..5), 0..4),
            c1 in 0..N,
            c2 in 0..N,
            o1 in arb_op(),
            o2 in arb_op(),
        ) {
            let (c1, c2) = (ProcessId::new(c1), ProcessId::new(c2));
            prop_assume!(!footprints_conflict((c1, &o1), (c2, &o2)));
            let mut q = Erc20State::from_balances(balances);
            for &(acct, sp, v) in &approvals {
                q.set_allowance(AccountId::new(acct), ProcessId::new(sp), v);
            }
            let spec = Erc20Spec::new(Erc20State::new(0));
            // Order A: o1 then o2.
            let mut qa = q.clone();
            let r1a = spec.apply(&mut qa, c1, &o1);
            let r2a = spec.apply(&mut qa, c2, &o2);
            // Order B: o2 then o1.
            let mut qb = q.clone();
            let r2b = spec.apply(&mut qb, c2, &o2);
            let r1b = spec.apply(&mut qb, c1, &o1);
            prop_assert_eq!(qa, qb, "states diverge for a non-conflicting pair");
            prop_assert_eq!(r1a, r1b, "first op's response depends on order");
            prop_assert_eq!(r2a, r2b, "second op's response depends on order");
        }
    }
}
