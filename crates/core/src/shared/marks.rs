//! The dirty bitmap under every served object's incremental snapshots.
//! The mark/drain contract it serves is stated once, in
//! [`shared::served`](super::served).

/// Dirty keys under the mark/drain contract: bit `k` is set iff key `k`
/// was written since the last drain.
#[derive(Debug, Default)]
pub(crate) struct Marks {
    words: Vec<u64>,
}

impl Marks {
    /// Clean marks over keys `0..keys`.
    pub(crate) fn new(keys: usize) -> Self {
        Self {
            words: vec![0; keys.div_ceil(64)],
        }
    }

    /// Extends the marks, clean, to cover at least keys `0..keys`.
    pub(crate) fn grow(&mut self, keys: usize) {
        let words = keys.div_ceil(64);
        if words > self.words.len() {
            self.words.resize(words, 0);
        }
    }

    /// Marks `key` dirty (idempotent).
    #[inline]
    pub(crate) fn mark(&mut self, key: usize) {
        self.words[key >> 6] |= 1 << (key & 63);
    }

    /// Whether `key` is marked, clearing its bit (test-and-clear).
    #[inline]
    pub(crate) fn take(&mut self, key: usize) -> bool {
        let (word, bit) = (&mut self.words[key >> 6], 1 << (key & 63));
        let marked = *word & bit != 0;
        *word &= !bit;
        marked
    }

    /// Visits every marked key once, in ascending order, clearing the
    /// marks as it goes.
    pub(crate) fn drain(&mut self, mut visit: impl FnMut(usize)) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                visit(w << 6 | bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// How many keys are marked.
    #[cfg(test)]
    pub(crate) fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        for key in [0, 63, 64, 129] {
            marks.mark(key);
        }
        assert!(!marks.take(1), "a clean bit reads clean");
        assert!(marks.take(64));
        assert!(!marks.take(64), "a taken bit is clear");
        assert_eq!(marks.count(), 3, "its neighbours keep theirs");
        assert!([0, 63, 129].into_iter().all(|key| marks.take(key)));
        assert_eq!(marks.count(), 0);
    }

    /// Key counts with a partial last word, an exact multiple of 64 and
    /// an empty bitmap; then a bitmap grown many words past its start,
    /// as a mint past the end leaves an ERC721 table. Each drain visits
    /// the marked keys once, ascending, and leaves every bit clear.
    #[test]
    fn drain_visits_each_marked_key_once_in_ascending_order() {
        let mut grown = Marks::new(5);
        grown.grow(1_000);
        let bitmaps = [0, 1, 5, 63, 64, 65, 129, 517]
            .map(|keys| (keys, Marks::new(keys)))
            .into_iter()
            .chain([(1_000, grown)]);
        for (keys, mut marks) in bitmaps {
            let mut expected = std::collections::BTreeSet::new();
            let mut x = keys as u64;
            for _ in 0..keys / 2 {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let key = (x >> 33) as usize % keys;
                marks.mark(key);
                expected.insert(key);
            }
            // The last key of a partial word, and a key marked twice.
            if keys > 0 {
                marks.mark(keys - 1);
                marks.mark(keys - 1);
                expected.insert(keys - 1);
            }
            assert_eq!(marks.count(), expected.len(), "{keys} keys");
            let mut visited = Vec::new();
            marks.drain(|key| visited.push(key));
            assert_eq!(
                visited,
                expected.into_iter().collect::<Vec<_>>(),
                "{keys} keys"
            );
            assert_eq!(marks.count(), 0, "a drain clears every bit");
            marks.drain(|key| panic!("{key} drained twice"));
        }
    }
}
