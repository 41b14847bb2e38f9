//! A fixed-size bitset over dense indices, iterated in ascending order.
//!
//! Both interconnects keep their "who has work" sets here (routers holding
//! packets, endpoints holding deliveries), so a tick visits only the set
//! members, in the same index order a full scan would.

/// A fixed-capacity set of small indices.
#[derive(Clone, Debug)]
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set over indices `0..n`.
    pub(crate) fn new(n: usize) -> BitSet {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Add `i` to the set.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Remove `i` from the set.
    #[inline]
    pub(crate) fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// True when `i` is in the set.
    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// The smallest member, if any.
    #[inline]
    pub(crate) fn first(&self) -> Option<usize> {
        self.words
            .iter()
            .position(|&w| w != 0)
            .map(|w| w * 64 + self.words[w].trailing_zeros() as usize)
    }

    /// Members in ascending order.
    pub(crate) fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            base: 0,
            bits: 0,
        }
    }
}

/// Ascending iterator over a [`BitSet`]'s members.
pub(crate) struct Iter<'a> {
    /// Words not yet loaded into `bits`.
    words: &'a [u64],
    /// Index of bit 0 of the next word to load.
    base: usize,
    /// Unvisited members of the current word, shifted to its base.
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            let (&w, rest) = self.words.split_first()?;
            self.words = rest;
            self.bits = w;
            self.base += 64;
        }
        let i = self.base - 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_iterate_in_ascending_order_across_words() {
        let mut s = BitSet::new(200);
        assert_eq!(s.first(), None);
        for i in [130, 3, 64, 63, 199, 0] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), [0, 3, 63, 64, 130, 199]);
        assert_eq!(s.first(), Some(0));
        s.remove(0);
        s.remove(3);
        s.remove(63);
        assert_eq!(s.first(), Some(64));
        assert!(s.contains(130) && !s.contains(131));
        assert_eq!(s.iter().count(), 3);
    }
}
