//! Heap allocations as a regression gate on the recovery, create and
//! snapshot paths. Wall-clock medians move with the host; the number of `malloc`
//! calls a code path makes does not, so these counts pin the work.
//!
//! A counting global allocator tallies allocations per thread; each
//! check measures one call on the test's own thread at two sizes,
//! `n = 10 000` and `n = 40 000` accounts, each account approving its
//! right neighbour (the `recover_1m` genesis shape) — or, for a whole
//! recovery, at two lengths of the log it replays.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use common::temp_dir;
use tokensync_core::codec::{Codec, StateCodec};
use tokensync_core::erc20::{Erc20Op, Erc20Resp, Erc20State};
use tokensync_core::shared::ShardedErc20;
use tokensync_core::standards::erc1155::{Erc1155State, ShardedErc1155, TypeId};
use tokensync_core::standards::erc721::{Erc721State, ShardedErc721, TokenId};
use tokensync_pipeline::CommittedOp;
use tokensync_spec::{AccountId, ProcessId};
use tokensync_store::wal::Wal;
use tokensync_store::{recover, Restorable, Store, StoreConfig};

/// The system allocator, counting `alloc` and `realloc` calls made by
/// the current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every call forwards unchanged to `System`; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const SIZES: [usize; 2] = [10_000, 40_000];

/// `n` accounts of 10 tokens, each approving its right neighbour.
fn one_approval_each(n: usize) -> Erc20State {
    let mut state = Erc20State::from_balances(vec![10; n]);
    for a in 0..n {
        state.set_allowance(AccountId::new(a), ProcessId::new((a + 1) % n), 5);
    }
    state
}

#[test]
fn decode_and_clone_do_not_allocate_per_one_approval_row() {
    let (mut decodes, mut clones) = (Vec::new(), Vec::new());
    for n in SIZES {
        let state = one_approval_each(n);
        let bytes = state.encode();
        let (decoded, decode_allocs) = counted(|| Erc20State::decode(&mut &bytes[..]).unwrap());
        assert_eq!(decoded, state);
        // Recovery clones the decoded state to fill `Recovered::state`.
        let (cloned, clone_allocs) = counted(|| decoded.clone());
        assert_eq!(cloned, state);
        decodes.push(decode_allocs);
        clones.push(clone_allocs);
    }
    // One allocation per table — balances, allowance rows (a
    // one-approval row is held in place) and the approval bitmap —
    // whatever the number of accounts.
    for (what, counts) in [("decode", decodes), ("clone", clones)] {
        assert!(
            counts[0] == counts[1] && counts[0] <= 3,
            "{what} made {} allocations at n = {} and {} at n = {}",
            counts[0],
            SIZES[0],
            counts[1],
            SIZES[1]
        );
    }
}

/// `Store::create`'s calling-thread allocations at each size (the
/// durability thread it spawns counts on its own thread).
fn create_allocs<T>(genesis: impl Fn(usize) -> T::State) -> Vec<u64>
where
    T: Restorable,
    T::Op: Codec,
    T::Resp: Codec,
    T::State: StateCodec,
{
    SIZES
        .iter()
        .map(|&n| {
            let state = genesis(n);
            let dir = temp_dir("alloc-create");
            let (store, allocs) =
                counted(|| Store::<T>::create(&dir, &state, StoreConfig::default()).unwrap());
            store.close().unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            allocs
        })
        .collect()
}

/// `create` writes the genesis once and reads nothing back, so its
/// allocations do not grow with the number of accounts (the encode
/// buffer's doublings are the only size-dependent term).
fn assert_flat(counts: &[u64], what: &str) {
    let (small, large) = (counts[0], counts[1]);
    assert!(
        large <= small + 8 && large < 200,
        "{what}: Store::create made {small} allocations at n = {} and {large} at n = {}",
        SIZES[0],
        SIZES[1]
    );
}

#[test]
fn create_allocations_do_not_grow_with_accounts_erc20() {
    assert_flat(&create_allocs::<ShardedErc20>(one_approval_each), "ERC20");
}

/// `n` accounts holding 100 of each of 8 token types.
fn funded_1155(n: usize) -> Erc1155State {
    let mut state = Erc1155State::deploy(n, ProcessId::new(0), &[0; 8]);
    for t in 0..8 {
        for a in 0..n {
            state.set_balance(AccountId::new(a), TypeId::new(t), 100);
        }
    }
    state
}

#[test]
fn create_allocations_do_not_grow_with_accounts_erc1155() {
    assert_flat(&create_allocs::<ShardedErc1155>(funded_1155), "ERC1155");
}

/// Runs `restore` on the genesis of each size and returns the
/// allocations each call made.
fn restore_allocs<T: Restorable>(genesis: impl Fn(usize) -> T::State) -> Vec<u64> {
    SIZES
        .iter()
        .map(|&n| {
            let state = genesis(n);
            counted(|| T::restore(state)).1
        })
        .collect()
}

/// Every live object moves the recovered state in and adds only its
/// dirty bitmaps, one allocation apiece: the same count at every size,
/// and at most three.
fn assert_restore_flat(counts: &[u64], what: &str) {
    let (small, large) = (counts[0], counts[1]);
    assert!(
        large == small && small <= 3,
        "{what}: restore made {small} allocations at n = {} and {large} at n = {}",
        SIZES[0],
        SIZES[1]
    );
}

/// ERC20 moves the state in whole: no row is copied.
#[test]
fn restore_allocations_do_not_grow_with_accounts_erc20() {
    assert_restore_flat(&restore_allocs::<ShardedErc20>(one_approval_each), "ERC20");
}

/// `n` tokens minted round-robin over 64 processes, every other one
/// approved to its owner's right neighbour.
fn minted_721(n: usize) -> Erc721State {
    let mut state = Erc721State::minted_round_robin(64, n, n);
    for t in (0..n).step_by(2) {
        let owner = ProcessId::new(t % 64);
        state.put_token(TokenId::new(t), owner, Some(ProcessId::new((t + 1) % 64)));
    }
    state
}

/// ERC721 moves its token table and operator pairs in.
#[test]
fn restore_allocations_do_not_grow_with_accounts_erc721() {
    assert_restore_flat(&restore_allocs::<ShardedErc721>(minted_721), "ERC721");
}

/// ERC1155 moves its balance matrix, operator pairs and supplies in.
#[test]
fn restore_allocations_do_not_grow_with_accounts_erc1155() {
    assert_restore_flat(&restore_allocs::<ShardedErc1155>(funded_1155), "ERC1155");
}

/// `snapshot()`'s allocations on an object restored from the genesis of
/// each size.
fn snapshot_allocs<T: Restorable>(genesis: impl Fn(usize) -> T::State) -> Vec<u64> {
    SIZES
        .iter()
        .map(|&n| {
            let object = T::restore(genesis(n));
            counted(|| object.snapshot()).1
        })
        .collect()
}

/// A snapshot is a clone of the state: one allocation per table, at
/// most `tables`, whatever the size, and nothing buffered on the way.
fn assert_snapshot_flat(counts: &[u64], tables: u64, what: &str) {
    let (small, large) = (counts[0], counts[1]);
    assert!(
        large == small && small <= tables,
        "{what}: snapshot made {small} allocations at n = {} and {large} at n = {}",
        SIZES[0],
        SIZES[1]
    );
}

/// ERC20's balances, allowance rows and approval bitmap.
#[test]
fn snapshot_allocations_do_not_grow_with_accounts_erc20() {
    let counts = snapshot_allocs::<ShardedErc20>(one_approval_each);
    assert_snapshot_flat(&counts, 3, "ERC20");
}

/// ERC721's token cells.
#[test]
fn snapshot_allocations_do_not_grow_with_accounts_erc721() {
    assert_snapshot_flat(&snapshot_allocs::<ShardedErc721>(minted_721), 2, "ERC721");
}

/// ERC1155's balance matrix and supplies.
#[test]
fn snapshot_allocations_do_not_grow_with_accounts_erc1155() {
    assert_snapshot_flat(
        &snapshot_allocs::<ShardedErc1155>(funded_1155),
        2,
        "ERC1155",
    );
}

/// Log lengths of the recovery gate, in 500-entry records: ≈ 380 KB
/// and ≈ 1.5 MB, both past one 256 KiB read of the log scan.
const LOG_LENGTHS: [u64; 2] = [20_000, 80_000];

/// A store over 1 000 funded accounts whose log holds `len` transfers
/// in one segment, each account paying its right neighbour one token.
fn transfer_log(len: u64) -> PathBuf {
    const ACCOUNTS: usize = 1_000;
    let dir = temp_dir("alloc-recover");
    let genesis = Erc20State::from_balances(vec![1_000_000; ACCOUNTS]);
    Store::<ShardedErc20>::create(&dir, &genesis, StoreConfig::default())
        .unwrap()
        .close()
        .unwrap();
    let log: Vec<CommittedOp<Erc20Op, Erc20Resp>> = (0..len)
        .map(|seq| {
            let from = seq as usize % ACCOUNTS;
            CommittedOp {
                seq,
                batch: seq / 500,
                caller: ProcessId::new(from),
                op: Erc20Op::Transfer {
                    to: AccountId::new((from + 1) % ACCOUNTS),
                    value: 1,
                },
                resp: Erc20Resp::Bool(true),
            }
        })
        .collect();
    let (standard, version) = (Erc20State::STANDARD, Erc20State::VERSION);
    let mut wal = Wal::open(&dir, standard, version, u64::MAX, 0).unwrap();
    for record in log.chunks(500) {
        wal.append(0, record).unwrap();
    }
    wal.sync().unwrap();
    dir
}

/// Recovery decodes and replays each entry as the log scan reaches it,
/// so a log four times longer costs it no allocation more: the segment
/// is read once, and nothing holds the suffix.
#[test]
fn recover_allocations_do_not_grow_with_log_length() {
    let counts: Vec<u64> = LOG_LENGTHS
        .iter()
        .map(|&len| {
            let dir = transfer_log(len);
            let (recovered, allocs) = counted(|| recover::<ShardedErc20>(&dir).unwrap());
            assert_eq!(recovered.replayed, len);
            std::fs::remove_dir_all(&dir).unwrap();
            allocs
        })
        .collect();
    assert_eq!(
        counts[0], counts[1],
        "recover made {} allocations over {} entries and {} over {}",
        counts[0], LOG_LENGTHS[0], counts[1], LOG_LENGTHS[1]
    );
}

/// Records in front of the cursor gate's target, one entry each, all in
/// one segment.
const SKIPPED: [u64; 2] = [100, 1_000];

/// Opening a cursor deep in a segment walks the buffered frames in front
/// of its position without copying them, so ten times more frames to
/// skip cost it no allocation more.
#[test]
fn cursor_open_allocations_do_not_grow_with_frames_skipped() {
    let counts: Vec<u64> = SKIPPED
        .iter()
        .map(|&skipped| {
            let dir = temp_dir("alloc-cursor");
            let (standard, version) = (Erc20State::STANDARD, Erc20State::VERSION);
            let mut wal = Wal::open(&dir, standard, version, u64::MAX, 0).unwrap();
            for seq in 0..=skipped {
                let entry: CommittedOp<Erc20Op, Erc20Resp> = CommittedOp {
                    seq,
                    batch: seq,
                    caller: ProcessId::new(0),
                    op: Erc20Op::Transfer {
                        to: AccountId::new(1),
                        value: 1,
                    },
                    resp: Erc20Resp::Bool(true),
                };
                wal.append(0, &[entry]).unwrap();
            }
            let (mut cursor, allocs) = counted(|| wal.cursor(skipped).unwrap());
            let last = cursor.next_record().unwrap().expect("the last record");
            assert_eq!((last.first_seq, last.count), (skipped, 1));
            drop(cursor);
            std::fs::remove_dir_all(&dir).unwrap();
            allocs
        })
        .collect();
    assert_eq!(
        counts[0], counts[1],
        "opening a cursor made {} allocations past {} frames and {} past {}",
        counts[0], SKIPPED[0], counts[1], SKIPPED[1]
    );
}
