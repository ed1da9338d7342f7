//! Other Ethereum token standards (Section 6 of the paper), the
//! adaptations of the consensus constructions to each, and the
//! standard-generic serving objects the batched pipeline executes.
//!
//! * [`erc777`] — operator-based fungible tokens: an operator may move the
//!   holder's *entire* balance, so the unique-winner predicate `U` holds
//!   automatically and the Algorithm 1 race simplifies to a full-balance
//!   drain (the paper: "it is immediate to extend our results to ERC777").
//! * [`erc721`] — non-fungible tokens: each token is transferred
//!   individually; the race is per-`tokenId` and the winner is read off
//!   `ownerOf` (the paper's suggested adaptation). Also home of the
//!   footprinted [`erc721::Erc721Op`] alphabet, the sequential
//!   [`erc721::Erc721Spec`] oracle, and the one-lock
//!   [`erc721::ShardedErc721`] the generic pipeline serves.
//! * [`erc1155`] — multi-token contracts: per-account operators moving any
//!   of several token types, including atomic batches whose footprints are
//!   the **union** of their per-type cells. The paper leaves the exact
//!   requirements open; we implement the object, the per-account census
//!   that upper-bounds its synchronization power, and the one-lock
//!   [`erc1155::ShardedErc1155`] serving path.
//! * [`erc1363`] — payable tokens with receiver callbacks: the paper notes
//!   their synchronization requirements are unbounded a priori; the module
//!   demonstrates why (the callback embeds arbitrary shared objects).
//!
//! The consensus races ([`erc777::race_token`] with `tokensync_kat::Drain`,
//! [`erc721::NftRace`]) are decisive parts of the one publish → fire →
//! scan step machine in `tokensync_spec::race`.

pub mod erc1155;
pub mod erc1363;
pub mod erc721;
pub mod erc777;

/// The most cells a dense state may declare: ERC721's token-id span, or
/// ERC1155's `accounts × types` balance matrix. A dense state's memory
/// is set by what it declares, not by what it holds, so this is the one
/// bound on what a deploy, a decoded snapshot or a replicated state can
/// make the process allocate: 16 Mi cells, 192 MiB of ERC721 token
/// cells or 128 MiB of ERC1155 balances. The constructors panic past
/// it; the state decoders refuse it with a
/// [`CodecError`](crate::codec::CodecError).
pub const MAX_DENSE_CELLS: usize = 1 << 24;
