//! The ERC721 non-fungible token standard.
//!
//! Every token is unique, identified by a `tokenId`, and transferred
//! individually. A token's owner may `approve` one process per token and
//! may enable *operators* for all of its tokens. Section 6 of the paper
//! sketches how the consensus construction adapts: approved processes race
//! `transferFrom` on a single `tokenId` and the winner is read off
//! `ownerOf`.
//!
//! The standard has one representation, the dense sequential state
//! [`Erc721State`]: a table of token cells indexed by token id. Its
//! typed transitions (`mint`, `transfer_from`, `approve`,
//! `set_approval_for_all`) return [`Erc721Error`], and its
//! `enabled_movers`/`sync_level` give the per-token census. The `object`
//! submodule also makes the standard a *servable* concurrent object: the
//! formal [`Erc721Op`]/[`Erc721Resp`] alphabet with per-op footprints,
//! the [`Erc721Spec`] oracle (the typed transitions, `Ok` as `TRUE`), and
//! the one-lock [`ShardedErc721`] the generic pipeline executes — the
//! same state behind a lock, plus its dirty tracking. The
//! consensus race, [`NftRace`], is laid out by [`race_state`];
//! [`Erc721Consensus`] fights it on that same serving object.

use std::fmt;

use tokensync_kat::Proposals;
use tokensync_spec::race::{Race, Scan};
use tokensync_spec::ProcessId;

use crate::shared::ConcurrentObject;

mod object;

pub use object::{Erc721Delta, Erc721Op, Erc721Resp, Erc721Spec, Erc721State, ShardedErc721};

/// Identifier of a non-fungible token.
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug, Default)]
pub struct TokenId(usize);

impl TokenId {
    /// Creates a token id from an index.
    pub const fn new(index: usize) -> Self {
        Self(index)
    }

    /// The zero-based index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for TokenId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nft{}", self.0)
    }
}

/// Errors of the ERC721 object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Erc721Error {
    /// A process or token id lies outside the contract's id spaces.
    BadId,
    /// The token id is in range but not minted.
    UnknownToken(TokenId),
    /// `mint` of a token id that already exists.
    AlreadyMinted(TokenId),
    /// `setApprovalForAll` naming the caller as its own operator.
    SelfApproval,
    /// The caller may not move this token (not owner, approved, or
    /// operator).
    NotAuthorized {
        /// The caller that was refused.
        caller: ProcessId,
        /// The token involved.
        token: TokenId,
    },
    /// `from` does not currently own the token.
    WrongOwner {
        /// The claimed owner.
        claimed: ProcessId,
        /// The actual owner.
        actual: ProcessId,
    },
}

impl fmt::Display for Erc721Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Erc721Error::BadId => write!(f, "process or token id out of range"),
            Erc721Error::UnknownToken(t) => write!(f, "token {t} does not exist"),
            Erc721Error::AlreadyMinted(t) => write!(f, "token {t} is already minted"),
            Erc721Error::SelfApproval => write!(f, "a holder cannot be its own operator"),
            Erc721Error::NotAuthorized { caller, token } => {
                write!(f, "{caller} is not authorized to move {token}")
            }
            Erc721Error::WrongOwner { claimed, actual } => {
                write!(f, "token is owned by {actual}, not {claimed}")
            }
        }
    }
}

impl std::error::Error for Erc721Error {}

/// The NFT the Section 6 race is fought over.
pub const RACE_NFT: TokenId = TokenId::new(0);

/// The process that owns [`RACE_NFT`] when the race starts: mover 0.
pub const RACE_OWNER: ProcessId = ProcessId::new(0);

/// The sink of the race among `k` movers, `p_k`: where the owner parks
/// the NFT to win. It is not a mover, since an owner-to-owner transfer
/// would leave `ownerOf` unchanged and the race winnable twice.
pub const fn race_sink(k: usize) -> ProcessId {
    ProcessId::new(k)
}

/// The starting state of the race among `k` movers `p_0 .. p_{k-1}`:
/// [`RACE_NFT`] minted to [`RACE_OWNER`], every other mover its operator
/// via `setApprovalForAll`, and [`race_sink`]`(k)` as one more process.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn race_state(k: usize) -> Erc721State {
    assert!(k > 0, "consensus requires at least one process");
    let mut state = Erc721State::new(k + 1, 1);
    state
        .mint(RACE_OWNER, RACE_OWNER, RACE_NFT)
        .expect("the race NFT is in range");
    for i in 1..k {
        state
            .set_approval_for_all(RACE_OWNER, ProcessId::new(i), true)
            .expect("movers are in range");
    }
    state
}

/// The decisive part of the race [`race_state`] lays out, for the step
/// machine of [`tokensync_spec::race`]. Each mover fires one
/// `transferFrom(RACE_OWNER, ·, RACE_NFT)`: the owner to the sink, every
/// other mover to itself. Exactly one lands, because it moves `ownerOf`
/// away from the owner and every later claim of `from = RACE_OWNER`
/// fails; one `ownerOf` read then names the winner, the sink standing
/// for the owner.
#[derive(Clone, Debug)]
pub struct NftRace {
    /// The number of movers, `p_0 .. p_{k-1}`.
    pub k: usize,
}

impl Race for NftRace {
    type Op = Erc721Op;
    type Resp = Erc721Resp;

    fn movers(&self) -> usize {
        self.k
    }

    fn fire(&self, i: usize) -> Erc721Op {
        let mover = ProcessId::new(i);
        let to = if mover == RACE_OWNER {
            race_sink(self.k)
        } else {
            mover
        };
        Erc721Op::TransferFrom {
            from: RACE_OWNER,
            to,
            token: RACE_NFT,
        }
    }

    fn scan(&self, j: usize) -> Scan<Erc721Op> {
        if j == 0 {
            Scan::Read(Erc721Op::OwnerOf { token: RACE_NFT })
        } else {
            Scan::End
        }
    }

    fn judge(&self, _j: usize, resp: &Erc721Resp) -> Option<usize> {
        match *resp {
            Erc721Resp::Process(Some(current)) if current == race_sink(self.k) => {
                Some(RACE_OWNER.index())
            }
            Erc721Resp::Process(Some(current)) if current != RACE_OWNER => Some(current.index()),
            _ => None,
        }
    }
}

/// Wait-free consensus from one NFT (Section 6): the [`NftRace`] fought
/// on the serving object, a [`ShardedErc721`] built from [`race_state`].
pub struct Erc721Consensus<V> {
    race: NftRace,
    token: ShardedErc721,
    proposals: Proposals<V>,
}

impl<V: Clone + Send + Sync> Erc721Consensus<V> {
    /// Creates a fresh instance over [`race_state`]`(k)`: one NFT owned
    /// by `p_0`, movers `p_0 .. p_{k-1}`, and sink process `p_k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        Self {
            token: ShardedErc721::from_state(race_state(k)),
            race: NftRace { k },
            proposals: Proposals::new(k),
        }
    }

    /// Proposes `value` on behalf of `process`.
    ///
    /// # Panics
    ///
    /// Panics if `process` is not a mover.
    pub fn propose(&self, process: ProcessId, value: V) -> V {
        self.proposals
            .propose(&self.race, |p, op| self.token.apply(p, op), process, value)
            .expect("after any fire the race exposes a winner")
    }

    /// The decided value: the proposal of the process that captured the
    /// NFT, or `None` if it has not moved yet.
    pub fn peek(&self) -> Option<V> {
        self.proposals
            .peek(&self.race, |p, op| self.token.apply(p, op))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }
    fn t(i: usize) -> TokenId {
        TokenId::new(i)
    }

    /// `tokens` NFTs `nft0..`, all minted to `owner`, in a system of
    /// `processes` processes.
    fn minted_to(processes: usize, owner: ProcessId, tokens: usize) -> Erc721State {
        let mut nft = Erc721State::new(processes, tokens);
        for i in 0..tokens {
            nft.mint(owner, owner, t(i)).unwrap();
        }
        nft
    }

    #[test]
    fn mint_and_transfer() {
        let mut nft = minted_to(3, p(0), 2);
        assert_eq!(nft.balance_of(p(0)), 2);
        assert_eq!(
            nft.mint(p(1), p(1), t(0)),
            Err(Erc721Error::AlreadyMinted(t(0)))
        );
        nft.transfer_from(p(0), p(0), p(1), t(0)).unwrap();
        assert_eq!(nft.owner_of(t(0)), Some(p(1)));
        assert_eq!(nft.balance_of(p(0)), 1);
    }

    #[test]
    fn approval_is_single_use() {
        let mut nft = minted_to(3, p(0), 1);
        nft.approve(p(0), Some(p(2)), t(0)).unwrap();
        nft.transfer_from(p(2), p(0), p(2), t(0)).unwrap();
        // Approval cleared by the transfer: p2 cannot move it again on
        // behalf of anyone (it is now the owner though).
        assert_eq!(nft.get_approved(t(0)), None);
        assert_eq!(nft.owner_of(t(0)), Some(p(2)));
    }

    #[test]
    fn unauthorized_transfer_rejected() {
        let mut nft = minted_to(3, p(0), 1);
        let err = nft.transfer_from(p(1), p(0), p(1), t(0)).unwrap_err();
        assert!(matches!(err, Erc721Error::NotAuthorized { .. }));
    }

    #[test]
    fn wrong_owner_rejected_after_move() {
        let mut nft = minted_to(3, p(0), 1);
        nft.set_approval_for_all(p(0), p(1), true).unwrap();
        nft.transfer_from(p(1), p(0), p(1), t(0)).unwrap();
        // The race property: a second transfer claiming `from = p0` fails.
        let err = nft.transfer_from(p(0), p(0), p(0), t(0)).unwrap_err();
        assert!(matches!(err, Erc721Error::WrongOwner { .. }));
    }

    #[test]
    fn movers_include_owner_approved_and_operators() {
        let mut nft = minted_to(4, p(0), 1);
        nft.approve(p(0), Some(p(1)), t(0)).unwrap();
        nft.set_approval_for_all(p(0), p(2), true).unwrap();
        assert_eq!(nft.enabled_movers(t(0)), [p(0), p(1), p(2)].into());
        assert_eq!(nft.sync_level(), 3);
        assert_eq!(
            nft.set_approval_for_all(p(0), p(0), true),
            Err(Erc721Error::SelfApproval)
        );
    }

    #[test]
    fn consensus_sequential() {
        let c: Erc721Consensus<&str> = Erc721Consensus::new(3);
        assert_eq!(c.peek(), None);
        assert_eq!(c.propose(p(2), "two"), "two");
        assert_eq!(c.propose(p(0), "zero"), "two");
        assert_eq!(c.propose(p(1), "one"), "two");
    }

    #[test]
    fn consensus_owner_first_wins() {
        let c: Erc721Consensus<&str> = Erc721Consensus::new(3);
        assert_eq!(c.propose(p(0), "owner"), "owner");
        assert_eq!(c.propose(p(1), "one"), "owner");
    }

    #[test]
    fn consensus_agreement_under_contention() {
        for k in [2usize, 4, 6] {
            for _ in 0..25 {
                let c: Erc721Consensus<usize> = Erc721Consensus::new(k);
                let decisions: Vec<usize> = std::thread::scope(|s| {
                    let handles: Vec<_> = (0..k)
                        .map(|i| {
                            let c = &c;
                            s.spawn(move || c.propose(p(i), i))
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                let distinct: HashSet<_> = decisions.iter().copied().collect();
                assert_eq!(distinct.len(), 1, "k={k}: {decisions:?}");
                assert!(decisions[0] < k);
            }
        }
    }
}
