//! Drains taken while other threads serve are atomic cuts.
//!
//! Threads serve transfers between distinct accounts while the test
//! thread drains over and over. A drain that read the rows without
//! holding the object's lock could catch a transfer's debit and miss its
//! credit (or the reverse), and the running fold of genesis plus deltas
//! would then hold more or less than the supply. Every running fold must conserve
//! each type's supply (for ERC20, the total supply), and once the
//! threads have joined a final drain must bring the fold to
//! `snapshot()`. ERC721 has no supply to conserve, so its writers move
//! two tokens in a fixed order and the fold must never show the second
//! move without the first.

use std::sync::atomic::{AtomicUsize, Ordering};

use tokensync_core::erc20::Erc20State;
use tokensync_core::shared::{ConcurrentObject, ConcurrentToken, ShardedErc20};
use tokensync_core::standards::erc1155::{Erc1155Op, Erc1155State, ShardedErc1155, TypeId};
use tokensync_core::standards::erc721::{
    Erc721Op, Erc721Resp, Erc721State, ShardedErc721, TokenId,
};
use tokensync_spec::{AccountId, ProcessId};

const ACCOUNTS: usize = 256;
/// The furthest `to` lies past `from`.
const MAX_HOP: usize = 3;
const THREADS: usize = 3;
const OPS: usize = 20_000;

/// A deterministic per-thread stream of `(from, to, value)` with `from`
/// and `to` distinct.
fn transfers(seed: u64) -> impl Iterator<Item = (usize, usize, u64)> {
    let mut x = seed;
    std::iter::repeat_with(move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let from = (x >> 33) as usize % ACCOUNTS;
        let hop = 1 + (x >> 20) as usize % MAX_HOP;
        let to = (from + hop) % ACCOUNTS;
        (from, to, 1 + (x >> 8) % 5)
    })
}

/// Runs `serve(thread)` on [`THREADS`] threads and `drain()` on this one
/// until they are done.
fn drain_while_serving(serve: impl Fn(usize) + Sync, mut drain: impl FnMut()) {
    let done = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let (serve, done) = (&serve, &done);
            scope.spawn(move || {
                serve(thread);
                done.fetch_add(1, Ordering::Release);
            });
        }
        while done.load(Ordering::Acquire) < THREADS {
            drain();
        }
    });
}

#[test]
fn erc20_drains_under_traffic_conserve_the_supply() {
    let genesis = Erc20State::from_balances(vec![1_000; ACCOUNTS]);
    let supply = genesis.total_supply();
    let token = ShardedErc20::from_state(genesis.clone());
    let mut folded = genesis;
    drain_while_serving(
        |thread| {
            for (from, to, value) in transfers(thread as u64).take(OPS) {
                let _ = token.transfer(ProcessId::new(from), AccountId::new(to), value);
            }
        },
        || {
            assert!(token.drain_delta().apply_to(&mut folded));
            assert_eq!(folded.total_supply(), supply, "a drain split a transfer");
        },
    );
    assert!(token.drain_delta().apply_to(&mut folded));
    assert_eq!(folded, token.snapshot());
}

#[test]
fn erc1155_drains_under_traffic_conserve_every_supply() {
    const TYPES: usize = 3;
    let mut genesis = Erc1155State::deploy(ACCOUNTS, ProcessId::new(0), &[0; TYPES]);
    for account in 0..ACCOUNTS {
        for t in 0..TYPES {
            genesis.set_balance(AccountId::new(account), TypeId::new(t), 100);
        }
    }
    let supplies: Vec<u64> = (0..TYPES)
        .map(|t| genesis.total_supply(TypeId::new(t)))
        .collect();
    let multi = ShardedErc1155::from_state(genesis.clone());
    let mut folded = genesis;
    drain_while_serving(
        |thread| {
            for (i, (from, to, value)) in transfers(thread as u64).take(OPS).enumerate() {
                let (from, to) = (AccountId::new(from), AccountId::new(to));
                let op = Erc1155Op::BatchTransfer {
                    from,
                    to,
                    entries: vec![
                        (TypeId::new(i % TYPES), value),
                        (TypeId::new((i + 1) % TYPES), 1),
                    ],
                };
                multi.apply(from.owner(), &op);
            }
        },
        || {
            assert!(multi.drain_delta().apply_to(&mut folded));
            for (t, &supply) in supplies.iter().enumerate() {
                let held: u64 = folded
                    .balance_entries()
                    .filter(|&(ty, _, _)| ty.index() == t)
                    .map(|(_, _, v)| v)
                    .sum();
                assert_eq!(held, supply, "a drain split a transfer of type {t}");
            }
        },
    );
    assert!(multi.drain_delta().apply_to(&mut folded));
    assert_eq!(folded, multi.snapshot());
}

#[test]
fn erc721_drains_under_traffic_never_split_a_writer_s_pair() {
    // Owners cycle through 251 processes, so a token's owner encodes how
    // many times it moved (mod 251). Writer `w` moves token `4w`, then
    // token `4w + 3`, to the same next owner: in any cut the second
    // token is level with the first or one step behind it, never ahead.
    const PROCESSES: usize = 251;
    const MOVES: usize = 200_000;
    let pair = |w: usize| (TokenId::new(4 * w), TokenId::new(4 * w + 3));
    let mut genesis = Erc721State::new(PROCESSES, 4 * THREADS);
    for w in 0..THREADS {
        let (first, second) = pair(w);
        genesis.put_token(first, ProcessId::new(0), None);
        genesis.put_token(second, ProcessId::new(0), None);
    }
    let nft = ShardedErc721::from_state(genesis.clone());
    let mut folded = genesis;
    drain_while_serving(
        |w| {
            let (first, second) = pair(w);
            for step in 0..MOVES {
                let from = ProcessId::new(step % PROCESSES);
                let to = ProcessId::new((step + 1) % PROCESSES);
                for token in [first, second] {
                    let op = Erc721Op::TransferFrom { from, to, token };
                    assert_eq!(nft.apply(from, &op), Erc721Resp::TRUE);
                }
            }
        },
        || {
            assert!(nft.drain_delta().apply_to(&mut folded));
            for w in 0..THREADS {
                let (first, second) = pair(w);
                let owner = |token| folded.owner_of(token).expect("minted").index();
                let (a, b) = (owner(first), owner(second));
                assert!(
                    a == b || a == (b + 1) % PROCESSES,
                    "a drain showed writer {w}'s second move ahead of its first ({a}, {b})"
                );
            }
        },
    );
    assert!(nft.drain_delta().apply_to(&mut folded));
    assert_eq!(folded, nft.snapshot());
}
