//! The one lock-striped container under every sharded object
//! ([`ShardedErc20`](super::ShardedErc20),
//! [`ShardedErc721`](crate::standards::erc721::ShardedErc721),
//! [`ShardedErc1155`](crate::standards::erc1155::ShardedErc1155)).
//!
//! # Striping scheme
//!
//! A key space `0..n` is spread over `S` stripes, `S` a power of two:
//! key `k` lives in stripe `k & (S − 1)` at slot `k >> log2(S)` — shift
//! and mask, not division, because the stripe math sits on the hot path
//! of every operation. Each stripe is one mutex padded to its own cache
//! line, so neighbouring locks do not false-share under cross-core
//! traffic. What a stripe *holds* (dense per-slot rows, a dirty bitmap
//! for incremental snapshots) is the owning object's business;
//! the container only decides which lock guards which key. The
//! arithmetic is [`Striping`]; [`Striped`] is that plus the locks.
//!
//! # Lock order
//!
//! One global order makes deadlock impossible:
//!
//! 1. within a container, stripes are acquired in **ascending stripe
//!    index** — [`Striped::lock_pair`] for the two-key operations
//!    (transfers), [`Striped::lock_all`] for snapshots and
//!    [`Striped::drain_marked`] for drains; `lock_pair` is the only code
//!    in the crate that holds two stripes of one container outside a
//!    snapshot or a drain;
//! 2. an object built from two containers fixes an order between them
//!    and never acquires against it. `ShardedErc721` is the one such
//!    object: **every token stripe before every operator stripe** (token
//!    operations read an operator row under their token lock;
//!    `setApprovalForAll` takes its operator stripe alone).
//!
//! [`Striped::each`] holds one stripe at a time, so the audits never
//! stall more than the stripe they are reading.
//!
//! # Mark/drain contract
//!
//! Incremental snapshots need, per stripe, the set of cells written
//! since the last `drain_delta`. Every object keeps it the same way, so
//! that a mark costs the operation nothing it can feel:
//!
//! * **mark** — under the stripe lock the write already holds, set the
//!   slot's bit in the stripe's [`Marks`] (one OR-store, no allocation).
//!   ERC1155 also sets the written `(account, type)` cell's bit in a
//!   second `Marks` indexed like its balance matrix, so the drain knows
//!   which cells of a marked row to report; ERC20 and ERC721 report the
//!   whole row. ERC721 is the one object whose stripes grow after
//!   construction: a mint past a stripe's last slot extends its table
//!   and, with [`Marks::grow`], its bitmap, so stripes may differ by any
//!   number of words;
//! * **exact** — a bit is set at most once between drains, so the
//!   tracking is one bit per slot whatever the traffic, even on an
//!   object nobody ever drains (a volatile engine, a store with
//!   snapshots off), and a drain needs no de-duplication;
//! * **drain** — [`Striped::drain_marked`] locks every stripe, then
//!   walks the bitmaps' words side by side and visits every marked slot
//!   once, clearing its bit, in ascending *key* order
//!   (`key = slot << log2(S) | stripe`). The object reads each visited
//!   row's current value; ERC1155 test-and-clears the row's cell bits
//!   ([`Marks::take`]) and reports those cells, zeros included;
//! * **order** — the walk's: a drain emits its rows already in key
//!   order (ERC1155 in `(type, account)` order by filling one
//!   account-ordered bucket per type), with no key list and no sort,
//!   so a delta's bytes depend only on which cells were written;
//! * **cut** — the drain holds every stripe at once, so a delta is a
//!   linearizable read of the whole object even while other threads
//!   serve: every operation lands wholly before the drain or wholly in
//!   the next delta. The price is that a library caller who drains
//!   while serving pauses every stripe for the length of the drain
//!   (≈ 6–7 ms for the 155 K-row ERC1155 delta of 40 K batch
//!   transfers over 100 K accounts × 8 types, 8 stripes, on a 2-vCPU
//!   Xeon VM; a store drains at its batch seal, when nothing else runs).
//!
//! The operator-pair sets of ERC721 and ERC1155 (`setApprovalForAll`
//! only) are small `BTreeSet`s: exact, but `O(log n)` per mark. ERC721
//! keeps them in a second container and drains them under the same
//! cut, after the token stripes (the lock order above).

use std::sync::OnceLock;

use parking_lot::{Mutex, MutexGuard};

/// One stripe's dirty slots under the mark/drain contract: bit `s` is
/// set iff slot `s` was written since the last drain.
#[derive(Debug, Default)]
pub(crate) struct Marks {
    words: Vec<u64>,
}

impl Marks {
    /// Clean marks over `slots` slots.
    pub(crate) fn new(slots: usize) -> Self {
        Self {
            words: vec![0; slots.div_ceil(64)],
        }
    }

    /// Extends the marks, clean, to cover at least `slots` slots.
    pub(crate) fn grow(&mut self, slots: usize) {
        let words = slots.div_ceil(64);
        if words > self.words.len() {
            self.words.resize(words, 0);
        }
    }

    /// Marks `slot` dirty (idempotent).
    #[inline]
    pub(crate) fn mark(&mut self, slot: usize) {
        self.words[slot >> 6] |= 1 << (slot & 63);
    }

    /// Whether `slot` is marked, clearing its bit (test-and-clear).
    #[inline]
    pub(crate) fn take(&mut self, slot: usize) -> bool {
        let (word, bit) = (&mut self.words[slot >> 6], 1 << (slot & 63));
        let marked = *word & bit != 0;
        *word &= !bit;
        marked
    }

    /// How many slots are marked.
    #[cfg(test)]
    pub(crate) fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Pads a stripe to its own cache line.
#[derive(Debug)]
#[repr(align(64))]
struct CacheLine<T>(T);

/// The default stripe count: `min(n, 4 × available cores)` rounded *down*
/// to a power of two (so the bound is never exceeded), at least 1.
///
/// Four stripes per core keeps the collision probability of two random
/// concurrent operations low (≤ 1/4 per pair per core) without paying
/// for a lock per slot. The cores are counted once per process: the
/// probe reads cgroup and affinity state and costs more than building a
/// small object.
pub(crate) fn default_stripes(n: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    });
    let bound = n.clamp(1, 4 * cores);
    // Largest power of two ≤ bound (bound ≥ 1, so this is well-formed).
    1 << (usize::BITS - 1 - bound.leading_zeros())
}

/// Which stripe and slot each key of a striped key space lives in — the
/// arithmetic half of the container, usable before the locks exist
/// (objects fill plain stripes with it, then hand them to
/// [`Striped::new`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Striping {
    /// `S − 1`.
    mask: usize,
    /// `log2(S)`.
    shift: u32,
}

impl Striping {
    /// The striping over `count` stripes.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or not a power of two.
    pub(crate) fn new(count: usize) -> Self {
        assert!(
            count.is_power_of_two(),
            "shard count must be a power of two (got {count})"
        );
        Self {
            mask: count - 1,
            shift: count.trailing_zeros(),
        }
    }

    /// The stripe `key` lives in.
    #[inline]
    pub(crate) fn stripe_of(self, key: usize) -> usize {
        key & self.mask
    }

    /// The slot of `key` inside its stripe (dense layouts index by it).
    #[inline]
    pub(crate) fn slot_of(self, key: usize) -> usize {
        key >> self.shift
    }

    /// The key at `slot` of `stripe` — the inverse of
    /// ([`stripe_of`](Self::stripe_of), [`slot_of`](Self::slot_of)).
    #[inline]
    pub(crate) fn key_at(self, stripe: usize, slot: usize) -> usize {
        (slot << self.shift) | stripe
    }
}

/// `S` stripes of state `T`, each behind its own lock; see the module
/// docs for the striping scheme and the lock order.
#[derive(Debug)]
pub(crate) struct Striped<T> {
    stripes: Vec<CacheLine<Mutex<T>>>,
    at: Striping,
}

impl<T> Striped<T> {
    /// Puts `stripes` — already filled, in stripe order — behind their
    /// locks. Filling plain stripes first keeps construction lock-free
    /// and makes the small lock container the object's *last*
    /// allocation, after the stripes' large vectors; the `stack`
    /// benchmark's `setup_s` measurably depends on that order (glibc
    /// trims the heap between reps unless a small chunk caps the
    /// object's region, and a trimmed region is re-faulted page by page).
    ///
    /// # Panics
    ///
    /// Panics if the stripe count is zero or not a power of two.
    pub(crate) fn new(stripes: Vec<T>) -> Self {
        Self {
            at: Striping::new(stripes.len()),
            stripes: stripes
                .into_iter()
                .map(|s| CacheLine(Mutex::new(s)))
                .collect(),
        }
    }

    /// The container's striping.
    #[inline]
    pub(crate) fn at(&self) -> Striping {
        self.at
    }

    /// Locks the stripe of `key`.
    #[inline]
    pub(crate) fn lock(&self, key: usize) -> MutexGuard<'_, T> {
        self.stripes[self.at.stripe_of(key)].0.lock()
    }

    /// Locks the stripes of `src` and `dst`, lower stripe index first.
    #[inline]
    pub(crate) fn lock_pair(&self, src: usize, dst: usize) -> Pair<'_, T> {
        let (s, d) = (self.at.stripe_of(src), self.at.stripe_of(dst));
        if s == d {
            return Pair {
                src: self.stripes[s].0.lock(),
                dst: None,
            };
        }
        let (lo, hi) = (s.min(d), s.max(d));
        let lo_guard = self.stripes[lo].0.lock();
        let hi_guard = self.stripes[hi].0.lock();
        let (src, dst) = if s == lo {
            (lo_guard, hi_guard)
        } else {
            (hi_guard, lo_guard)
        };
        Pair {
            src,
            dst: Some(dst),
        }
    }

    /// Locks every stripe in ascending order (snapshots only): index `i`
    /// of the result guards stripe `i`.
    pub(crate) fn lock_all(&self) -> Vec<MutexGuard<'_, T>> {
        self.stripes.iter().map(|s| s.0.lock()).collect()
    }

    /// Locks every stripe, then visits every slot marked in the stripes'
    /// [`Marks`] (reached through `marks`) once, in ascending key order,
    /// clearing its bit: `visit(key, stripe, slot)`. Returns the guards,
    /// still held, so the caller can drain the rest of its tracking
    /// under the same cut.
    ///
    /// Bitmap word `w` of every stripe covers keys
    /// `64·w·S .. 64·(w+1)·S`, so taking word `w` of each stripe and
    /// walking the set bits of their union, stripes ascending within a
    /// bit, yields the keys in order. Stripes may differ in length by
    /// any number of words (an ERC721 stripe grows on mint); a stripe
    /// with fewer words reads as clean past its end.
    pub(crate) fn drain_marked(
        &self,
        marks: impl Fn(&mut T) -> &mut Marks,
        mut visit: impl FnMut(usize, &mut T, usize),
    ) -> Vec<MutexGuard<'_, T>> {
        let mut guards = self.lock_all();
        let words = guards.iter_mut().map(|g| marks(g).words.len()).max();
        let mut block = vec![0u64; guards.len()];
        for w in 0..words.unwrap_or(0) {
            let mut any = 0;
            for (bits, guard) in block.iter_mut().zip(&mut guards) {
                *bits = marks(guard).words.get_mut(w).map_or(0, std::mem::take);
                any |= *bits;
            }
            while any != 0 {
                let bit = any.trailing_zeros();
                any &= any - 1;
                let slot = (w << 6) | bit as usize;
                for (stripe, (bits, guard)) in block.iter().zip(&mut guards).enumerate() {
                    if bits >> bit & 1 == 1 {
                        visit(self.at.key_at(stripe, slot), guard, slot);
                    }
                }
            }
        }
        guards
    }

    /// Visits every stripe in ascending order, **one lock at a time**
    /// (audits): serving continues on the other
    /// stripes, and the visit is an atomic cut only at a quiescent
    /// point.
    pub(crate) fn each(&self, mut visit: impl FnMut(usize, &mut T)) {
        for (index, stripe) in self.stripes.iter().enumerate() {
            visit(index, &mut stripe.0.lock());
        }
    }
}

/// The locked stripes of a two-key operation, from
/// [`Striped::lock_pair`].
pub(crate) struct Pair<'a, T> {
    src: MutexGuard<'a, T>,
    /// `None` when both keys share `src`'s stripe.
    dst: Option<MutexGuard<'a, T>>,
}

impl<T> Pair<'_, T> {
    /// The source stripe, and the destination stripe when it is a
    /// different one. `None` means both keys live in the source stripe
    /// (covers `src == dst`): finish with `dst.unwrap_or(src)` once the
    /// source side is done.
    #[inline]
    pub(crate) fn split(&mut self) -> (&mut T, Option<&mut T>) {
        (&mut *self.src, self.dst.as_deref_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_at_inverts_stripe_and_slot() {
        for count in (0..=6).map(|log| 1usize << log) {
            let at = Striping::new(count);
            for k in 0..4096 {
                assert!(at.stripe_of(k) < count);
                assert_eq!(at.key_at(at.stripe_of(k), at.slot_of(k)), k, "{count}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "shard count must be a power of two (got 6)")]
    fn non_power_of_two_count_panics() {
        Striped::new(vec![(); 6]);
    }

    #[test]
    #[should_panic(expected = "shard count must be a power of two (got 0)")]
    fn zero_count_panics() {
        Striped::new(Vec::<()>::new());
    }

    #[test]
    fn same_stripe_keys_share_one_guard() {
        let striped = Striped::new(vec![0u32; 4]);
        for (src, dst) in [(1, 1), (1, 5), (6, 2)] {
            let mut pair = striped.lock_pair(src, dst);
            let (src, dst) = pair.split();
            assert!(dst.is_none());
            *dst.unwrap_or(src) += 1;
        }
        assert_eq!(*striped.lock(1), 2);
        assert_eq!(*striped.lock(2), 1);
        // Distinct stripes: src and dst are the stripes of their keys,
        // whichever index is lower.
        for (src, dst) in [(0, 3), (3, 0)] {
            let mut pair = striped.lock_pair(src, dst);
            let (s, d) = pair.split();
            *s += 10;
            *d.expect("two stripes") += 100;
        }
        assert_eq!((*striped.lock(0), *striped.lock(3)), (110, 110));
    }

    #[test]
    fn opposed_lock_pairs_terminate() {
        // lock_pair(a, b) racing lock_pair(b, a): without the ascending
        // order this deadlocks within a few iterations.
        const ROUNDS: u64 = 20_000;
        let striped = Striped::new(vec![0u64; 2]);
        std::thread::scope(|scope| {
            for (src, dst) in [(0, 1), (1, 0)] {
                let striped = &striped;
                scope.spawn(move || {
                    for _ in 0..ROUNDS {
                        let mut pair = striped.lock_pair(src, dst);
                        let (s, d) = pair.split();
                        *s += 1;
                        *d.expect("two stripes") += 1;
                    }
                });
            }
        });
        let mut totals = Vec::new();
        striped.each(|_, total| totals.push(*total));
        assert_eq!(totals, [2 * ROUNDS; 2]);
    }

    #[test]
    fn marks_grow_adds_clean_words_and_keeps_the_set_bits() {
        let mut marks = Marks::new(10);
        marks.mark(3);
        marks.grow(64);
        assert_eq!(
            marks.words.len(),
            1,
            "a bound inside the last word adds none"
        );
        marks.grow(200);
        assert_eq!(marks.words.len(), 4);
        assert_eq!(marks.count(), 1, "new words are clean, old bits kept");
        marks.mark(199);
        marks.grow(65);
        assert_eq!(
            (marks.words.len(), marks.count()),
            (4, 2),
            "grow never shrinks"
        );
        let mut empty = Marks::default();
        empty.grow(1);
        empty.mark(0);
        assert_eq!(empty.count(), 1);
    }

    #[test]
    fn marks_take_clears_only_the_bit_it_reports() {
        let mut marks = Marks::new(130);
        for slot in [0, 63, 64, 129] {
            marks.mark(slot);
        }
        assert!(!marks.take(1), "a clean bit reads clean");
        assert!(marks.take(64));
        assert!(!marks.take(64), "a taken bit is clear");
        assert_eq!(marks.count(), 3, "its neighbours keep theirs");
        assert!([0, 63, 129].into_iter().all(|slot| marks.take(slot)));
        assert_eq!(marks.count(), 0);
    }

    #[test]
    fn drain_marked_visits_each_marked_key_once_in_key_order() {
        for count in [1, 2, 4, 8] {
            let at = Striping::new(count);
            // Slots per stripe: key counts that leave stripes one slot
            // apart, some with a partial last word, some with a word
            // more than their neighbour; then ragged lengths many words
            // apart, empty stripes among them, as minting leaves an
            // ERC721 object.
            let even = [1, 5, 63, 64, 65, 129, 64 * count + 3, 517]
                .map(|n| (0..count).map(|s| (s..n).step_by(count).count()).collect());
            let ragged = [0, 1, 9].map(|seed| {
                (0..count)
                    .map(|s| (s * 5 + seed) % 7 * 150 + s % 2)
                    .collect::<Vec<usize>>()
            });
            for lens in even.into_iter().chain(ragged) {
                let striped = Striped::new(lens.iter().map(|_| Marks::default()).collect());
                for (stripe, &len) in lens.iter().enumerate() {
                    striped.lock(stripe).grow(len);
                }
                let total: usize = lens.iter().sum();
                let mut expected = std::collections::BTreeSet::new();
                let mut x = total as u64;
                for _ in 0..total / 2 + 1 {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    let stripe = (x >> 33) as usize % count;
                    if lens[stripe] == 0 {
                        continue;
                    }
                    let key = at.key_at(stripe, (x >> 40) as usize % lens[stripe]);
                    striped.lock(key).mark(at.slot_of(key));
                    expected.insert(key);
                }
                assert_eq!(
                    striped.lock_all().iter().map(|m| m.count()).sum::<usize>(),
                    expected.len()
                );
                let mut visited = Vec::new();
                let guards = striped.drain_marked(
                    |marks| marks,
                    |key, _, slot| {
                        assert_eq!(at.slot_of(key), slot);
                        visited.push(key);
                    },
                );
                assert!(guards.iter().all(|marks| marks.count() == 0), "{lens:?}");
                drop(guards);
                assert_eq!(
                    visited,
                    expected.into_iter().collect::<Vec<_>>(),
                    "{lens:?}"
                );
                striped.drain_marked(|marks| marks, |key, _, _| panic!("{key} drained twice"));
            }
        }
    }

    #[test]
    fn lock_all_and_each_visit_in_stripe_order() {
        let striped = Striped::new((0..8).collect());
        let all: Vec<usize> = striped.lock_all().iter().map(|g| **g).collect();
        assert_eq!(all, (0..8).collect::<Vec<_>>());
        striped.each(|index, value| assert_eq!(index, *value));
        assert_eq!(*striped.lock(8 + 5), 5);
    }
}
