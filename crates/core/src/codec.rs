//! Binary wire codec for the servable standards — the encoding layer the
//! durable store (`tokensync-store`) persists through.
//!
//! Every op/response alphabet and every sequential oracle state of the
//! three served standards (ERC20, ERC721, ERC1155) implements [`Codec`]:
//! a compact little-endian binary encoding with explicit enum tags.
//! States additionally implement [`StateCodec`], which pins a *standard
//! tag* and an *encoding version* — the write-ahead log and snapshot
//! headers embed both, so a store directory can never be silently
//! replayed through the wrong standard or a stale layout.
//!
//! Design rules:
//!
//! * **Canonical** — the encoders walk the canonical public views of the
//!   states (positive entries only, sorted), so
//!   encode → decode → encode is byte-identical and decode → `Eq`
//!   coincides with mathematical state equality.
//! * **Total decoding** — [`Codec::decode`] never panics on hostile
//!   bytes: truncation, range violations and non-canonical payloads
//!   surface as [`CodecError`]. The recovery path relies on this to stop
//!   cleanly at a torn or corrupted record.
//! * **No allocation surprises** — encoders append to a caller-owned
//!   buffer ([`Codec::encode_into`]), so the WAL writer frames records
//!   without intermediate copies.

use tokensync_spec::{AccountId, Amount, ProcessId};

use crate::erc20::{AccountBits, Erc20Delta, Erc20Op, Erc20Resp, Erc20State, SpenderMap};
use crate::standards::erc1155::{Erc1155Delta, Erc1155Op, Erc1155Resp, Erc1155State, TypeId};
use crate::standards::erc721::{Erc721Delta, Erc721Op, Erc721Resp, Erc721State, TokenId};
use crate::standards::MAX_DENSE_CELLS;

/// Why a decode failed. The store layer wraps this into its record /
/// snapshot errors; nothing in the codec panics on bad input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value was complete.
    Truncated,
    /// A structurally complete value violated a semantic bound (unknown
    /// enum tag, id out of the declared space, non-canonical entry, …).
    Invalid(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated mid-value"),
            CodecError::Invalid(what) => write!(f, "invalid encoding: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A value with a self-contained binary encoding.
///
/// # Examples
///
/// ```
/// use tokensync_core::codec::Codec;
/// use tokensync_core::erc20::Erc20Op;
/// use tokensync_spec::AccountId;
///
/// let op = Erc20Op::Transfer { to: AccountId::new(7), value: 42 };
/// let bytes = op.encode();
/// let mut input = bytes.as_slice();
/// assert_eq!(Erc20Op::decode(&mut input).unwrap(), op);
/// assert!(input.is_empty()); // decode consumes exactly the value
/// ```
pub trait Codec: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Decodes one value from the front of `input`, advancing it past
    /// the consumed bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if `input` is too short,
    /// [`CodecError::Invalid`] if the bytes do not form a valid value.
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError>;

    /// The encoding as a fresh buffer.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }
}

/// A sequential oracle state with a versioned, tagged encoding. The
/// store embeds both constants in segment and snapshot headers and
/// refuses to recover through a mismatch.
pub trait StateCodec: Codec {
    /// Which standard this state belongs to (distinct per standard).
    const STANDARD: u8;
    /// Version of the binary layout; bump on any incompatible change.
    const VERSION: u8;
}

// ── field vocabulary ───────────────────────────────────────────────────
//
// Every codec below is spelled in these terms: fixed-width little-endian
// integers, a strict 0/1 boolean, `u32`-wide ids and counts, a
// presence-tagged `Option`, tuples (fields in order, nothing between
// them), and count-prefixed row lists (`put_rows` / `get_list` /
// `get_rows`).

impl Codec for u8 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let (&first, rest) = input.split_first().ok_or(CodecError::Truncated)?;
        *input = rest;
        Ok(first)
    }
}

impl Codec for u32 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let (head, rest) = input.split_first_chunk().ok_or(CodecError::Truncated)?;
        *input = rest;
        Ok(u32::from_le_bytes(*head))
    }
}

impl Codec for u64 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let (head, rest) = input.split_first_chunk().ok_or(CodecError::Truncated)?;
        *input = rest;
        Ok(u64::from_le_bytes(*head))
    }
}

impl Codec for bool {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(input)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("boolean byte not 0/1")),
        }
    }
}

/// An id-space size or an id, encoded as `u32` — the same key width
/// every state layout uses internally (guarded there by constructor
/// asserts).
struct Id(usize);

impl Codec for Id {
    fn encode_into(&self, out: &mut Vec<u8>) {
        u32::try_from(self.0)
            .expect("id exceeds the u32 key space")
            .encode_into(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Id(u32::decode(input)? as usize))
    }
}

impl Codec for AccountId {
    fn encode_into(&self, out: &mut Vec<u8>) {
        Id(self.index()).encode_into(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Self::new(Id::decode(input)?.0))
    }
}

impl Codec for ProcessId {
    fn encode_into(&self, out: &mut Vec<u8>) {
        Id(self.index()).encode_into(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Self::new(Id::decode(input)?.0))
    }
}

impl Codec for TokenId {
    fn encode_into(&self, out: &mut Vec<u8>) {
        Id(self.index()).encode_into(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Self::new(Id::decode(input)?.0))
    }
}

impl Codec for TypeId {
    fn encode_into(&self, out: &mut Vec<u8>) {
        Id(self.index()).encode_into(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Self::new(Id::decode(input)?.0))
    }
}

/// A presence byte (strict boolean), then the value if present.
impl<T: Codec> Codec for Option<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.is_some().encode_into(out);
        if let Some(value) = self {
            value.encode_into(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(if bool::decode(input)? {
            Some(T::decode(input)?)
        } else {
            None
        })
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok((A::decode(input)?, B::decode(input)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
        self.2.encode_into(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok((A::decode(input)?, B::decode(input)?, C::decode(input)?))
    }
}

impl<A: Codec, B: Codec, C: Codec, D: Codec> Codec for (A, B, C, D) {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
        self.2.encode_into(out);
        self.3.encode_into(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok((
            A::decode(input)?,
            B::decode(input)?,
            C::decode(input)?,
            D::decode(input)?,
        ))
    }
}

/// Writes a count-prefixed row list: a `u32` row count, then each row
/// through `put`. The count is patched in after the walk, so `rows` need
/// not know its length up front.
fn put_rows<R>(
    out: &mut Vec<u8>,
    rows: impl IntoIterator<Item = R>,
    mut put: impl FnMut(&R, &mut Vec<u8>),
) {
    let prefix = out.len();
    0u32.encode_into(out);
    let mut count = 0u32;
    for row in rows {
        put(&row, out);
        count = count.checked_add(1).expect("row count exceeds u32");
    }
    out[prefix..prefix + 4].copy_from_slice(&count.to_le_bytes());
}

/// Every row of every list in this file is at least this wide on the
/// wire (two `u32` ids, or an id and a count).
const MIN_ROW_BYTES: usize = 8;

/// Reads a count-prefixed row list, each row through `row`, in wire
/// order. The one place a length read from input sizes an allocation:
/// the capacity is clamped to what the remaining bytes could hold, so a
/// hostile count fails as [`CodecError::Truncated`] when the input runs
/// dry instead of reserving memory first.
fn get_list<T>(
    input: &mut &[u8],
    mut row: impl FnMut(&mut &[u8]) -> Result<T, CodecError>,
) -> Result<Vec<T>, CodecError> {
    let count = u32::decode(input)? as usize;
    let mut rows = Vec::with_capacity(count.min(input.len() / MIN_ROW_BYTES + 1));
    for _ in 0..count {
        rows.push(row(input)?);
    }
    Ok(rows)
}

/// Reads a canonical table: a [`get_list`] whose rows carry **strictly
/// increasing keys**. `row` decodes one row, range-checks it against
/// whatever id space the caller knows, and returns `(key, value)`; the
/// values come back in order (state decoders fold each row into the
/// state as they go and return `()`).
fn get_rows<K: PartialOrd, T>(
    input: &mut &[u8],
    mut row: impl FnMut(&mut &[u8]) -> Result<(K, T), CodecError>,
) -> Result<Vec<T>, CodecError> {
    let mut last = None;
    get_list(input, |input| {
        let (key, value) = row(input)?;
        if last.as_ref().is_some_and(|last| key <= *last) {
            return Err(CodecError::Invalid("table rows not strictly sorted"));
        }
        last = Some(key);
        Ok(value)
    })
}

/// The `(holder, operator)` table of the ERC721 and ERC1155 states,
/// both ids below `bound`.
fn get_operator_pairs(
    input: &mut &[u8],
    bound: usize,
) -> Result<Vec<(ProcessId, ProcessId)>, CodecError> {
    get_rows(input, |input| {
        let pair: (ProcessId, ProcessId) = Codec::decode(input)?;
        if pair.0.index() >= bound || pair.1.index() >= bound {
            return Err(CodecError::Invalid("operator pair out of range"));
        }
        Ok((pair, pair))
    })
}

// ── ERC20 ──────────────────────────────────────────────────────────────

const ERC20_TRANSFER: u8 = 0;
const ERC20_TRANSFER_FROM: u8 = 1;
const ERC20_APPROVE: u8 = 2;
const ERC20_BALANCE_OF: u8 = 3;
const ERC20_ALLOWANCE: u8 = 4;
const ERC20_TOTAL_SUPPLY: u8 = 5;

impl Codec for Erc20Op {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            Erc20Op::Transfer { to, value } => (ERC20_TRANSFER, to, value).encode_into(out),
            Erc20Op::TransferFrom { from, to, value } => {
                (ERC20_TRANSFER_FROM, from, to, value).encode_into(out);
            }
            Erc20Op::Approve { spender, value } => (ERC20_APPROVE, spender, value).encode_into(out),
            Erc20Op::BalanceOf { account } => (ERC20_BALANCE_OF, account).encode_into(out),
            Erc20Op::Allowance { account, spender } => {
                (ERC20_ALLOWANCE, account, spender).encode_into(out);
            }
            Erc20Op::TotalSupply => ERC20_TOTAL_SUPPLY.encode_into(out),
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(match u8::decode(input)? {
            ERC20_TRANSFER => Erc20Op::Transfer {
                to: Codec::decode(input)?,
                value: Codec::decode(input)?,
            },
            ERC20_TRANSFER_FROM => Erc20Op::TransferFrom {
                from: Codec::decode(input)?,
                to: Codec::decode(input)?,
                value: Codec::decode(input)?,
            },
            ERC20_APPROVE => Erc20Op::Approve {
                spender: Codec::decode(input)?,
                value: Codec::decode(input)?,
            },
            ERC20_BALANCE_OF => Erc20Op::BalanceOf {
                account: Codec::decode(input)?,
            },
            ERC20_ALLOWANCE => Erc20Op::Allowance {
                account: Codec::decode(input)?,
                spender: Codec::decode(input)?,
            },
            ERC20_TOTAL_SUPPLY => Erc20Op::TotalSupply,
            _ => return Err(CodecError::Invalid("unknown Erc20Op tag")),
        })
    }
}

const RESP_BOOL: u8 = 0;
const RESP_PAYLOAD: u8 = 1;

impl Codec for Erc20Resp {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            Erc20Resp::Bool(b) => (RESP_BOOL, b).encode_into(out),
            Erc20Resp::Amount(v) => (RESP_PAYLOAD, v).encode_into(out),
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(match u8::decode(input)? {
            RESP_BOOL => Erc20Resp::Bool(Codec::decode(input)?),
            RESP_PAYLOAD => Erc20Resp::Amount(Codec::decode(input)?),
            _ => return Err(CodecError::Invalid("unknown Erc20Resp tag")),
        })
    }
}

/// One allowance row — a table of positive `(spender, value)` entries
/// with every spender below `bound`.
fn get_allowances(input: &mut &[u8], bound: usize) -> Result<SpenderMap, CodecError> {
    let mut row = SpenderMap::new();
    get_rows(input, |input| {
        let (spender, value): (ProcessId, Amount) = Codec::decode(input)?;
        if spender.index() >= bound {
            return Err(CodecError::Invalid("allowance spender out of range"));
        }
        if value == 0 {
            return Err(CodecError::Invalid("zero allowance entry not canonical"));
        }
        // Spenders ascend (`get_rows` refuses the row otherwise), so
        // each `set` appends.
        row.set(spender.index(), value);
        Ok((spender, ()))
    })?;
    Ok(row)
}

impl Codec for Erc20State {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let balances = (0..self.accounts()).map(|i| self.balance(AccountId::new(i)));
        put_rows(out, balances, Codec::encode_into);
        put_rows(out, self.accounts_with_approvals(), |&account, out| {
            account.encode_into(out);
            put_rows(out, self.approvals(account), Codec::encode_into);
        });
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let mut supply = 0u64;
        let balances = get_list(input, |input| {
            let balance = u64::decode(input)?;
            // `from_balances` sums the vector to cache the supply; a
            // hostile payload must not push that sum past u64 (debug
            // panic / silent wrap) — reject it here instead.
            supply = supply
                .checked_add(balance)
                .ok_or(CodecError::Invalid("balance sum overflows the supply"))?;
            Ok(balance)
        })?;
        let n = balances.len();
        let mut allowances = vec![SpenderMap::new(); n];
        // One bit per non-empty row: exactly the approval support.
        let mut with_approvals = AccountBits::new(n);
        get_rows(input, |input| {
            let account = u32::decode(input)?;
            let slot = allowances
                .get_mut(account as usize)
                .ok_or(CodecError::Invalid("allowance row account out of range"))?;
            let row = get_allowances(input, n)?;
            if row.is_empty() {
                return Err(CodecError::Invalid("empty allowance row not canonical"));
            }
            *slot = row;
            with_approvals.set(account as usize, true);
            Ok((account, ()))
        })?;
        Ok(Erc20State::from_rows(
            balances,
            allowances,
            with_approvals,
            supply,
        ))
    }
}

impl StateCodec for Erc20State {
    const STANDARD: u8 = 0x20;
    const VERSION: u8 = 1;
}

// ── ERC721 ─────────────────────────────────────────────────────────────

const ERC721_MINT: u8 = 0;
const ERC721_TRANSFER_FROM: u8 = 1;
const ERC721_APPROVE: u8 = 2;
const ERC721_SET_APPROVAL_FOR_ALL: u8 = 3;
const ERC721_OWNER_OF: u8 = 4;
const ERC721_GET_APPROVED: u8 = 5;

impl Codec for Erc721Op {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            Erc721Op::Mint { to, token } => (ERC721_MINT, to, token).encode_into(out),
            Erc721Op::TransferFrom { from, to, token } => {
                (ERC721_TRANSFER_FROM, from, to, token).encode_into(out);
            }
            Erc721Op::Approve { approved, token } => {
                (ERC721_APPROVE, approved, token).encode_into(out);
            }
            Erc721Op::SetApprovalForAll { operator, on } => {
                (ERC721_SET_APPROVAL_FOR_ALL, operator, on).encode_into(out);
            }
            Erc721Op::OwnerOf { token } => (ERC721_OWNER_OF, token).encode_into(out),
            Erc721Op::GetApproved { token } => (ERC721_GET_APPROVED, token).encode_into(out),
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(match u8::decode(input)? {
            ERC721_MINT => Erc721Op::Mint {
                to: Codec::decode(input)?,
                token: Codec::decode(input)?,
            },
            ERC721_TRANSFER_FROM => Erc721Op::TransferFrom {
                from: Codec::decode(input)?,
                to: Codec::decode(input)?,
                token: Codec::decode(input)?,
            },
            ERC721_APPROVE => Erc721Op::Approve {
                approved: Codec::decode(input)?,
                token: Codec::decode(input)?,
            },
            ERC721_SET_APPROVAL_FOR_ALL => Erc721Op::SetApprovalForAll {
                operator: Codec::decode(input)?,
                on: Codec::decode(input)?,
            },
            ERC721_OWNER_OF => Erc721Op::OwnerOf {
                token: Codec::decode(input)?,
            },
            ERC721_GET_APPROVED => Erc721Op::GetApproved {
                token: Codec::decode(input)?,
            },
            _ => return Err(CodecError::Invalid("unknown Erc721Op tag")),
        })
    }
}

impl Codec for Erc721Resp {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            Erc721Resp::Bool(b) => (RESP_BOOL, b).encode_into(out),
            Erc721Resp::Process(p) => (RESP_PAYLOAD, p).encode_into(out),
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(match u8::decode(input)? {
            RESP_BOOL => Erc721Resp::Bool(Codec::decode(input)?),
            RESP_PAYLOAD => Erc721Resp::Process(Codec::decode(input)?),
            _ => return Err(CodecError::Invalid("unknown Erc721Resp tag")),
        })
    }
}

impl Codec for Erc721State {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (Id(self.processes()), Id(self.token_span())).encode_into(out);
        put_rows(out, self.minted_tokens(), Codec::encode_into);
        put_rows(out, self.operator_pairs(), Codec::encode_into);
    }

    /// Reads and checks every row before building the table, so only a
    /// whole valid state within [`MAX_DENSE_CELLS`] allocates its table.
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let (Id(processes), Id(token_span)) = Codec::decode(input)?;
        if token_span > MAX_DENSE_CELLS {
            return Err(CodecError::Invalid("token span exceeds MAX_DENSE_CELLS"));
        }
        let tokens = get_rows(input, |input| {
            let row: (TokenId, ProcessId, Option<ProcessId>) = Codec::decode(input)?;
            let (token, owner, approved) = row;
            if token.index() >= token_span || owner.index() >= processes {
                return Err(CodecError::Invalid("minted token out of range"));
            }
            if approved.is_some_and(|p| p.index() >= processes) {
                return Err(CodecError::Invalid("approved process out of range"));
            }
            Ok((token, row))
        })?;
        let pairs = get_operator_pairs(input, processes)?;
        let mut state = Erc721State::new(processes, token_span);
        for (token, owner, approved) in tokens {
            state.put_token(token, owner, approved);
        }
        for (holder, operator) in pairs {
            state.set_operator(holder, operator, true);
        }
        Ok(state)
    }
}

impl StateCodec for Erc721State {
    const STANDARD: u8 = 0x21;
    const VERSION: u8 = 1;
}

// ── ERC1155 ────────────────────────────────────────────────────────────

const ERC1155_TRANSFER: u8 = 0;
const ERC1155_BATCH_TRANSFER: u8 = 1;
const ERC1155_SET_APPROVAL_FOR_ALL: u8 = 2;
const ERC1155_BALANCE_OF: u8 = 3;
const ERC1155_TOTAL_SUPPLY: u8 = 4;

impl Codec for Erc1155Op {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            Erc1155Op::Transfer {
                from,
                to,
                type_id,
                value,
            } => (ERC1155_TRANSFER, from, to, (type_id, value)).encode_into(out),
            Erc1155Op::BatchTransfer {
                from,
                to,
                ref entries,
            } => {
                (ERC1155_BATCH_TRANSFER, from, to).encode_into(out);
                put_rows(out, entries.iter().copied(), Codec::encode_into);
            }
            Erc1155Op::SetApprovalForAll { operator, on } => {
                (ERC1155_SET_APPROVAL_FOR_ALL, operator, on).encode_into(out);
            }
            Erc1155Op::BalanceOf { account, type_id } => {
                (ERC1155_BALANCE_OF, account, type_id).encode_into(out);
            }
            Erc1155Op::TotalSupply { type_id } => {
                (ERC1155_TOTAL_SUPPLY, type_id).encode_into(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(match u8::decode(input)? {
            ERC1155_TRANSFER => Erc1155Op::Transfer {
                from: Codec::decode(input)?,
                to: Codec::decode(input)?,
                type_id: Codec::decode(input)?,
                value: Codec::decode(input)?,
            },
            // Entries are a list, not a table: a batch may repeat a type
            // in any order.
            ERC1155_BATCH_TRANSFER => Erc1155Op::BatchTransfer {
                from: Codec::decode(input)?,
                to: Codec::decode(input)?,
                entries: get_list(input, Codec::decode)?,
            },
            ERC1155_SET_APPROVAL_FOR_ALL => Erc1155Op::SetApprovalForAll {
                operator: Codec::decode(input)?,
                on: Codec::decode(input)?,
            },
            ERC1155_BALANCE_OF => Erc1155Op::BalanceOf {
                account: Codec::decode(input)?,
                type_id: Codec::decode(input)?,
            },
            ERC1155_TOTAL_SUPPLY => Erc1155Op::TotalSupply {
                type_id: Codec::decode(input)?,
            },
            _ => return Err(CodecError::Invalid("unknown Erc1155Op tag")),
        })
    }
}

impl Codec for Erc1155Resp {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            Erc1155Resp::Bool(b) => (RESP_BOOL, b).encode_into(out),
            Erc1155Resp::Amount(v) => (RESP_PAYLOAD, v).encode_into(out),
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(match u8::decode(input)? {
            RESP_BOOL => Erc1155Resp::Bool(Codec::decode(input)?),
            RESP_PAYLOAD => Erc1155Resp::Amount(Codec::decode(input)?),
            _ => return Err(CodecError::Invalid("unknown Erc1155Resp tag")),
        })
    }
}

impl Codec for Erc1155State {
    fn encode_into(&self, out: &mut Vec<u8>) {
        Id(self.accounts()).encode_into(out);
        let supplies = (0..self.types()).map(|t| self.total_supply(TypeId::new(t)));
        put_rows(out, supplies, Codec::encode_into);
        put_rows(out, self.balance_entries(), Codec::encode_into);
        put_rows(out, self.operator_pairs(), Codec::encode_into);
    }

    /// Reads and checks every row before building the matrix, so only a
    /// whole valid state within [`MAX_DENSE_CELLS`] allocates its
    /// `accounts × types` balances.
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let Id(accounts) = Id::decode(input)?;
        if accounts == 0 {
            return Err(CodecError::Invalid("ERC1155 state needs >= 1 account"));
        }
        let supplies: Vec<Amount> = get_list(input, Codec::decode)?;
        let types = supplies.len();
        if accounts
            .checked_mul(types)
            .is_none_or(|cells| cells > MAX_DENSE_CELLS)
        {
            return Err(CodecError::Invalid(
                "accounts × types exceeds MAX_DENSE_CELLS",
            ));
        }
        // Each type's entries must sum to its declared supply.
        let mut sums: Vec<Amount> = vec![0; types];
        let entries = get_rows(input, |input| {
            let row: (TypeId, AccountId, Amount) = Codec::decode(input)?;
            let (type_id, account, value) = row;
            if type_id.index() >= types || account.index() >= accounts {
                return Err(CodecError::Invalid("balance entry out of range"));
            }
            if value == 0 {
                return Err(CodecError::Invalid("zero balance entry not canonical"));
            }
            let sum = &mut sums[type_id.index()];
            *sum = sum
                .checked_add(value)
                .ok_or(CodecError::Invalid("per-type supply exceeds u64"))?;
            Ok(((type_id, account), row))
        })?;
        if sums != supplies {
            return Err(CodecError::Invalid("per-type supply mismatch"));
        }
        let pairs = get_operator_pairs(input, accounts)?;
        let mut state = Erc1155State::deploy(accounts, ProcessId::new(0), &vec![0; types]);
        for (type_id, account, value) in entries {
            state.set_balance(account, type_id, value);
        }
        for (holder, operator) in pairs {
            state.set_operator(holder.own_account(), operator, true);
        }
        Ok(state)
    }
}

impl StateCodec for Erc1155State {
    const STANDARD: u8 = 0x55;
    const VERSION: u8 = 1;
}

// ── incremental-snapshot deltas ────────────────────────────────────────
//
// The deltas are canonical like the states (strictly sorted rows), but
// carry no id-space bound of their own — range checking happens when a
// delta is folded onto a concrete base state (`apply_to`), which is the
// only place the bound is known.

/// The `(holder, operator, enabled)` table of the ERC721 and ERC1155
/// deltas.
fn get_toggled_pairs(input: &mut &[u8]) -> Result<Vec<(u32, u32, bool)>, CodecError> {
    get_rows(input, |input| {
        let row: (u32, u32, bool) = Codec::decode(input)?;
        Ok(((row.0, row.1), row))
    })
}

impl Codec for Erc20Delta {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_rows(out, &self.rows, |(account, balance, row), out| {
            (*account, *balance).encode_into(out);
            put_rows(out, row.iter(), Codec::encode_into);
        });
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let rows = get_rows(input, |input| {
            let (account, balance): (u32, Amount) = Codec::decode(input)?;
            let row = get_allowances(input, usize::MAX)?;
            Ok((account, (account, balance, row)))
        })?;
        Ok(Erc20Delta { rows })
    }
}

impl Codec for Erc721Delta {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_rows(out, self.tokens.iter().copied(), Codec::encode_into);
        put_rows(out, self.operators.iter().copied(), Codec::encode_into);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let tokens = get_rows(input, |input| {
            let row: (u32, u32, Option<u32>) = Codec::decode(input)?;
            Ok((row.0, row))
        })?;
        let operators = get_toggled_pairs(input)?;
        Ok(Erc721Delta { tokens, operators })
    }
}

impl Codec for Erc1155Delta {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_rows(out, self.balances.iter().copied(), Codec::encode_into);
        put_rows(out, self.operators.iter().copied(), Codec::encode_into);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        // Zero values are meaningful here (the cell is now empty), unlike
        // the state encoding's positive-only entries.
        let balances = get_rows(input, |input| {
            let row: (u32, u32, Amount) = Codec::decode(input)?;
            Ok(((row.0, row.1), row))
        })?;
        let operators = get_toggled_pairs(input)?;
        Ok(Erc1155Delta {
            balances,
            operators,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put_u32(out: &mut Vec<u8>, v: u32) {
        v.encode_into(out);
    }

    fn put_u64(out: &mut Vec<u8>, v: u64) {
        v.encode_into(out);
    }

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.encode();
        let mut input = bytes.as_slice();
        let back = T::decode(&mut input).expect("decodes");
        assert_eq!(back, value);
        assert!(input.is_empty(), "decode left trailing bytes");
        // Canonical: re-encoding is byte-identical.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn deltas_round_trip() {
        let mut row = SpenderMap::new();
        row.set(3, 9);
        roundtrip(Erc20Delta {
            rows: vec![(1, 50, row), (4, 0, SpenderMap::new())],
        });
        roundtrip(Erc721Delta {
            tokens: vec![(0, 1, None), (7, 2, Some(3))],
            operators: vec![(1, 2, true), (2, 1, false)],
        });
        roundtrip(Erc1155Delta {
            balances: vec![(0, 1, 5), (0, 2, 0), (1, 0, 7)],
            operators: vec![(0, 3, true)],
        });
        roundtrip(Erc20Delta::default());
        roundtrip(Erc721Delta::default());
        roundtrip(Erc1155Delta::default());
    }

    #[test]
    fn unsorted_delta_rows_rejected() {
        let good = Erc1155Delta {
            balances: vec![(1, 0, 7), (0, 1, 5)], // out of order
            operators: Vec::new(),
        };
        let bytes = good.encode();
        let mut input = bytes.as_slice();
        assert!(matches!(
            Erc1155Delta::decode(&mut input),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn erc20_ops_and_resps_round_trip() {
        roundtrip(Erc20Op::Transfer {
            to: AccountId::new(3),
            value: u64::MAX,
        });
        roundtrip(Erc20Op::TransferFrom {
            from: AccountId::new(0),
            to: AccountId::new(9),
            value: 0,
        });
        roundtrip(Erc20Op::Approve {
            spender: ProcessId::new(7),
            value: 5,
        });
        roundtrip(Erc20Op::BalanceOf {
            account: AccountId::new(1),
        });
        roundtrip(Erc20Op::Allowance {
            account: AccountId::new(1),
            spender: ProcessId::new(2),
        });
        roundtrip(Erc20Op::TotalSupply);
        roundtrip(Erc20Resp::TRUE);
        roundtrip(Erc20Resp::FALSE);
        roundtrip(Erc20Resp::Amount(123_456_789));
    }

    #[test]
    fn erc721_ops_and_resps_round_trip() {
        roundtrip(Erc721Op::Mint {
            to: ProcessId::new(2),
            token: TokenId::new(40),
        });
        roundtrip(Erc721Op::TransferFrom {
            from: ProcessId::new(1),
            to: ProcessId::new(2),
            token: TokenId::new(0),
        });
        roundtrip(Erc721Op::Approve {
            approved: Some(ProcessId::new(3)),
            token: TokenId::new(9),
        });
        roundtrip(Erc721Op::Approve {
            approved: None,
            token: TokenId::new(9),
        });
        roundtrip(Erc721Op::SetApprovalForAll {
            operator: ProcessId::new(5),
            on: true,
        });
        roundtrip(Erc721Op::OwnerOf {
            token: TokenId::new(77),
        });
        roundtrip(Erc721Op::GetApproved {
            token: TokenId::new(77),
        });
        roundtrip(Erc721Resp::TRUE);
        roundtrip(Erc721Resp::Process(None));
        roundtrip(Erc721Resp::Process(Some(ProcessId::new(4))));
    }

    #[test]
    fn erc1155_ops_and_resps_round_trip() {
        roundtrip(Erc1155Op::Transfer {
            from: AccountId::new(0),
            to: AccountId::new(1),
            type_id: TypeId::new(2),
            value: 3,
        });
        roundtrip(Erc1155Op::BatchTransfer {
            from: AccountId::new(0),
            to: AccountId::new(1),
            entries: vec![(TypeId::new(0), 1), (TypeId::new(3), 9)],
        });
        roundtrip(Erc1155Op::BatchTransfer {
            from: AccountId::new(0),
            to: AccountId::new(1),
            entries: Vec::new(),
        });
        roundtrip(Erc1155Op::SetApprovalForAll {
            operator: ProcessId::new(1),
            on: false,
        });
        roundtrip(Erc1155Op::BalanceOf {
            account: AccountId::new(4),
            type_id: TypeId::new(0),
        });
        roundtrip(Erc1155Op::TotalSupply {
            type_id: TypeId::new(1),
        });
        roundtrip(Erc1155Resp::FALSE);
        roundtrip(Erc1155Resp::Amount(42));
    }

    #[test]
    fn states_round_trip() {
        let mut erc20 = Erc20State::with_deployer(5, ProcessId::new(0), 100);
        erc20
            .transfer(ProcessId::new(0), AccountId::new(3), 7)
            .unwrap();
        erc20
            .approve(ProcessId::new(3), ProcessId::new(1), 5)
            .unwrap();
        erc20
            .approve(ProcessId::new(0), ProcessId::new(4), 9)
            .unwrap();
        roundtrip(erc20);

        let mut erc721 = Erc721State::minted_round_robin(6, 50, 10);
        erc721.set_operator(ProcessId::new(1), ProcessId::new(2), true);
        roundtrip(erc721);

        let mut erc1155 = Erc1155State::deploy(4, ProcessId::new(1), &[10, 0, 3]);
        erc1155.set_balance(AccountId::new(2), TypeId::new(0), 4);
        erc1155.set_operator(AccountId::new(2), ProcessId::new(3), true);
        roundtrip(erc1155);
    }

    #[test]
    fn truncated_inputs_error_cleanly() {
        let bytes = Erc20State::with_deployer(4, ProcessId::new(0), 10).encode();
        for cut in 0..bytes.len() {
            let mut input = &bytes[..cut];
            assert!(
                Erc20State::decode(&mut input).is_err(),
                "prefix of length {cut} decoded"
            );
        }
    }

    #[test]
    fn non_canonical_payloads_rejected() {
        // A zero allowance entry is representable on the wire but not
        // canonical: decode must refuse it rather than silently drop it.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 2); // n = 2
        put_u64(&mut bytes, 5);
        put_u64(&mut bytes, 0);
        put_u32(&mut bytes, 1); // one allowance row
        put_u32(&mut bytes, 0); // account 0
        put_u32(&mut bytes, 1); // one entry
        put_u32(&mut bytes, 1); // spender 1
        put_u64(&mut bytes, 0); // value 0: not canonical
        let mut input = bytes.as_slice();
        assert_eq!(
            Erc20State::decode(&mut input),
            Err(CodecError::Invalid("zero allowance entry not canonical"))
        );
    }

    #[test]
    fn overflowing_balance_sum_rejected() {
        // Two u64::MAX balances: `from_balances` would panic (debug) or
        // wrap (release) computing the cached supply — decode must
        // reject the payload before that.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 2); // n = 2
        put_u64(&mut bytes, u64::MAX);
        put_u64(&mut bytes, u64::MAX);
        put_u32(&mut bytes, 0); // no allowance rows
        let mut input = bytes.as_slice();
        assert_eq!(
            Erc20State::decode(&mut input),
            Err(CodecError::Invalid("balance sum overflows the supply"))
        );
    }

    #[test]
    fn unsorted_or_duplicate_allowance_rows_rejected() {
        let row = |bytes: &mut Vec<u8>, account: u32, spender: u32| {
            put_u32(bytes, account);
            put_u32(bytes, 1); // one entry
            put_u32(bytes, spender);
            put_u64(bytes, 5);
        };
        // Duplicate rows for account 0.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 3);
        for _ in 0..3 {
            put_u64(&mut bytes, 1);
        }
        put_u32(&mut bytes, 2); // two rows
        row(&mut bytes, 0, 1);
        row(&mut bytes, 0, 2); // duplicate account: not canonical
        let mut input = bytes.as_slice();
        assert_eq!(
            Erc20State::decode(&mut input),
            Err(CodecError::Invalid("table rows not strictly sorted"))
        );
        // Unsorted spenders within a row.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 3);
        for _ in 0..3 {
            put_u64(&mut bytes, 1);
        }
        put_u32(&mut bytes, 1); // one row
        put_u32(&mut bytes, 0); // account 0
        put_u32(&mut bytes, 2); // two entries
        put_u32(&mut bytes, 2);
        put_u64(&mut bytes, 5);
        put_u32(&mut bytes, 1); // out of order
        put_u64(&mut bytes, 5);
        let mut input = bytes.as_slice();
        assert_eq!(
            Erc20State::decode(&mut input),
            Err(CodecError::Invalid("table rows not strictly sorted"))
        );
        // An empty row is never emitted by the encoder.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 3);
        for _ in 0..3 {
            put_u64(&mut bytes, 1);
        }
        put_u32(&mut bytes, 1); // one row
        put_u32(&mut bytes, 0); // account 0
        put_u32(&mut bytes, 0); // zero entries: not canonical
        let mut input = bytes.as_slice();
        assert_eq!(
            Erc20State::decode(&mut input),
            Err(CodecError::Invalid("empty allowance row not canonical"))
        );
    }

    #[test]
    fn out_of_range_ids_rejected() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 2); // n = 2
        put_u64(&mut bytes, 5);
        put_u64(&mut bytes, 0);
        put_u32(&mut bytes, 1); // one allowance row
        put_u32(&mut bytes, 7); // account 7 out of range
        let mut input = bytes.as_slice();
        assert!(matches!(
            Erc20State::decode(&mut input),
            Err(CodecError::Invalid(_))
        ));
    }
}
