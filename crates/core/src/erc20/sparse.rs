//! Sparse storage for one account's allowance row `α(a, ·)`.
//!
//! The dense representation of the allowance map — an `n × n` matrix — is
//! what keeps a token from scaling: at a million accounts it needs
//! terabytes before the first `approve`. Real allowance sets are tiny
//! relative to `n` (an account authorizes a handful of spenders, not the
//! whole world), so each row is stored as a sorted list of
//! `(spender, amount)` pairs holding **only the positive entries**.
//!
//! Keeping zero entries out of the row is a representation invariant,
//! not just an optimization: it makes the entry list *canonical*, so
//! [`SpenderMap`]'s `PartialEq`/`Hash` (and the derived ones on
//! [`Erc20State`](super::Erc20State)) coincide with mathematical equality
//! of the allowance function — two states are `==` iff they agree on every
//! `α(a, p)`.
//!
//! The commonest non-trivial row holds exactly one approval
//! (`|σ_q(a)| = 2`), so a row of at most one entry is stored in place and
//! only a second spender spills it to a heap vector: decoding, cloning
//! and restoring such rows allocate nothing. Which form holds a row is
//! invisible: equality, hashing, `Debug` and iteration all read the
//! entry slice.

use std::fmt;
use std::hash::{Hash, Hasher};

use tokensync_spec::{Amount, ProcessId};

/// One account's outstanding approvals: the support of `α(a, ·)` as a
/// sorted list of `(spender index, amount)` pairs with all amounts
/// positive.
///
/// Reads are `O(log e)` (binary search) and iteration is `O(e)`, where `e`
/// is the number of outstanding approvals on the account — independent of
/// the total number of accounts `n`. A row with at most one entry lives in
/// place (no heap allocation); a row that has held two or more lives in a
/// sorted vector, which keeps its capacity when entries are removed.
///
/// # Example
///
/// ```
/// use tokensync_core::erc20::SpenderMap;
/// use tokensync_spec::ProcessId;
///
/// let mut row = SpenderMap::new();
/// row.set(3, 10);
/// row.set(1, 5);
/// assert_eq!(row.get(3), 10);
/// assert_eq!(row.get(2), 0); // absent reads as zero
/// row.set(3, 0); // revocation removes the entry
/// assert_eq!(row.len(), 1);
/// assert_eq!(
///     row.iter().collect::<Vec<_>>(),
///     vec![(ProcessId::new(1), 5)]
/// );
/// ```
#[derive(Default)]
pub struct SpenderMap {
    entries: Entries,
}

/// A row held in place (empty or one entry) or spilled to the heap
/// (`Many`, sorted by spender index, any length once spilled); every
/// amount is `> 0`.
#[derive(Default)]
enum Entries {
    #[default]
    Empty,
    One((u32, Amount)),
    Many(Vec<(u32, Amount)>),
}

// The state's row vector holds one `SpenderMap` per account: the
// in-place form must not widen it.
const _: () =
    assert!(std::mem::size_of::<SpenderMap>() == std::mem::size_of::<Vec<(u32, Amount)>>());

impl SpenderMap {
    /// An empty row: `α(a, p) = 0` for every `p`.
    pub const fn new() -> Self {
        Self {
            entries: Entries::Empty,
        }
    }

    /// The entries, sorted by spender index, whichever form holds them.
    fn as_slice(&self) -> &[(u32, Amount)] {
        match &self.entries {
            Entries::Empty => &[],
            Entries::One(entry) => std::slice::from_ref(entry),
            Entries::Many(entries) => entries,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [(u32, Amount)] {
        match &mut self.entries {
            Entries::Empty => &mut [],
            Entries::One(entry) => std::slice::from_mut(entry),
            Entries::Many(entries) => entries,
        }
    }

    /// Inserts `entry` at sorted position `at`.
    fn insert(&mut self, at: usize, entry: (u32, Amount)) {
        match &mut self.entries {
            Entries::Empty => self.entries = Entries::One(entry),
            Entries::One(first) => {
                // The second spender spills the row to the heap.
                let mut entries = Vec::with_capacity(4);
                entries.push(*first);
                entries.insert(at, entry);
                self.entries = Entries::Many(entries);
            }
            Entries::Many(entries) => entries.insert(at, entry),
        }
    }

    /// Removes the entry at sorted position `at`.
    fn remove(&mut self, at: usize) {
        match &mut self.entries {
            Entries::Many(entries) => {
                entries.remove(at);
            }
            _ => self.entries = Entries::Empty,
        }
    }

    /// `α(a, spender)`; absent spenders read as 0.
    pub fn get(&self, spender: usize) -> Amount {
        // Not `as u32`: a wrapping cast would alias out-of-range spender
        // indices onto small ones, and reads carry no range check.
        let Ok(key) = u32::try_from(spender) else {
            return 0;
        };
        let entries = self.as_slice();
        match entries.binary_search_by_key(&key, |e| e.0) {
            Ok(i) => entries[i].1,
            Err(_) => 0,
        }
    }

    /// Sets `α(a, spender) = value`, removing the entry when `value == 0`
    /// (preserving the no-zero-entries invariant).
    ///
    /// # Panics
    ///
    /// Panics if `spender` exceeds `u32::MAX` (the sparse encoding packs
    /// spender indices into 32 bits; four billion accounts is beyond any
    /// deployment this workspace models).
    pub fn set(&mut self, spender: usize, value: Amount) {
        let key = u32::try_from(spender).expect("spender index exceeds u32::MAX");
        let entries = self.as_mut_slice();
        match entries.binary_search_by_key(&key, |e| e.0) {
            Ok(i) => {
                if value == 0 {
                    self.remove(i);
                } else {
                    entries[i].1 = value;
                }
            }
            Err(i) => {
                if value != 0 {
                    self.insert(i, (key, value));
                }
            }
        }
    }

    /// Consumes `value` of `spender`'s allowance, removing the entry when
    /// it reaches zero. The caller must have checked
    /// `get(spender) >= value` first (the `Δ` precondition).
    pub fn debit(&mut self, spender: usize, value: Amount) {
        if value == 0 {
            return;
        }
        // A positive debit implies a prior `get(spender) >= value > 0`,
        // which only holds for in-range keys; stay defensive anyway.
        let Ok(key) = u32::try_from(spender) else {
            debug_assert!(false, "debit of an out-of-range spender");
            return;
        };
        let entries = self.as_mut_slice();
        match entries.binary_search_by_key(&key, |e| e.0) {
            Ok(i) => {
                debug_assert!(entries[i].1 >= value, "debit past the allowance");
                entries[i].1 -= value;
                if entries[i].1 == 0 {
                    self.remove(i);
                }
            }
            Err(_) => debug_assert!(false, "debit of an absent allowance"),
        }
    }

    /// Iterates the outstanding approvals `(p, α(a, p))` with `α(a, p) > 0`
    /// in increasing spender order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, Amount)> + '_ {
        self.as_slice()
            .iter()
            .map(|&(p, v)| (ProcessId::new(p as usize), v))
    }

    /// Number of outstanding (positive) approvals on the account.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the account has no outstanding approvals.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

/// Clones into the smallest form: a row of at most one entry copies in
/// place, whatever form the original is in.
impl Clone for SpenderMap {
    fn clone(&self) -> Self {
        let entries = match *self.as_slice() {
            [] => Entries::Empty,
            [entry] => Entries::One(entry),
            ref entries => Entries::Many(entries.to_vec()),
        };
        Self { entries }
    }
}

impl PartialEq for SpenderMap {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SpenderMap {}

impl Hash for SpenderMap {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for SpenderMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpenderMap")
            .field("entries", &self.as_slice())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_reads_zero() {
        let row = SpenderMap::new();
        assert_eq!(row.get(0), 0);
        assert_eq!(row.get(1_000_000), 0);
        assert!(row.is_empty());
    }

    #[test]
    fn out_of_range_spender_does_not_alias() {
        let mut row = SpenderMap::new();
        row.set(3, 7);
        // (1 << 32) + 3 truncates to 3 under a wrapping cast; the read
        // must see an absent key, not alias spender 3.
        assert_eq!(row.get((1usize << 32) + 3), 0);
        row.debit((1usize << 32) + 3, 0);
        assert_eq!(row.get(3), 7);
    }

    #[test]
    fn set_get_overwrite_remove() {
        let mut row = SpenderMap::new();
        row.set(5, 7);
        row.set(2, 3);
        row.set(9, 1);
        assert_eq!((row.get(2), row.get(5), row.get(9)), (3, 7, 1));
        row.set(5, 4); // overwrite
        assert_eq!(row.get(5), 4);
        row.set(2, 0); // remove
        assert_eq!(row.get(2), 0);
        assert_eq!(row.len(), 2);
    }

    #[test]
    fn entries_stay_sorted_and_positive() {
        let mut row = SpenderMap::new();
        for &(p, v) in &[(8usize, 2u64), (1, 5), (4, 0), (3, 9), (1, 0)] {
            row.set(p, v);
        }
        let got: Vec<(usize, Amount)> = row.iter().map(|(p, v)| (p.index(), v)).collect();
        assert_eq!(got, vec![(3, 9), (8, 2)]);
    }

    #[test]
    fn debit_consumes_and_collapses() {
        let mut row = SpenderMap::new();
        row.set(1, 10);
        row.debit(1, 4);
        assert_eq!(row.get(1), 6);
        row.debit(1, 6);
        assert_eq!(row.get(1), 0);
        assert!(row.is_empty());
        row.debit(2, 0); // zero debit of an absent entry is a no-op
        assert!(row.is_empty());
    }

    #[test]
    fn one_entry_rows_stay_in_place() {
        let mut row = SpenderMap::new();
        row.set(4, 9);
        assert!(matches!(row.entries, Entries::One((4, 9))));
        row.set(2, 1);
        assert!(matches!(row.entries, Entries::Many(_)));
        assert_eq!(
            row.iter().map(|(p, _)| p.index()).collect::<Vec<_>>(),
            [2, 4]
        );
        // Back to one entry: the vector keeps its capacity, and a clone
        // takes the in-place form.
        row.debit(2, 1);
        assert!(matches!(row.entries, Entries::Many(_)));
        assert!(matches!(row.clone().entries, Entries::One((4, 9))));
        row.set(4, 0);
        assert!(matches!(row.clone().entries, Entries::Empty));
    }

    #[test]
    fn canonical_equality() {
        let mut a = SpenderMap::new();
        a.set(1, 5);
        a.set(1, 0);
        let b = SpenderMap::new();
        // A set-then-revoke row equals a never-touched row.
        assert_eq!(a, b);
    }
}
