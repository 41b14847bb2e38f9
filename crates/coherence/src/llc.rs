//! Set-associative LLC data array (one bank).
//!
//! The directory keeps protocol state separately (non-inclusive protocol:
//! directory entries outlive the data). This array only tracks which blocks
//! have a *data copy* at the bank, their value token and dirtiness, with LRU
//! replacement within a set.

// lint: file-allow(hash-order) — `lookup` is a pure block->set memo,
// consulted and updated by key only, never iterated; victim choice comes
// from the ordered per-set `Vec`s, so hash order cannot reach sim state.
use std::collections::HashMap;

use ni_mem::BlockAddr;

/// A victim evicted by [`LlcArray::install`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted block.
    pub block: BlockAddr,
    /// Its value token.
    pub value: u64,
    /// True when the copy was dirty and must be written back to memory.
    pub dirty: bool,
}

#[derive(Clone, Copy, Debug)]
struct Line {
    block: BlockAddr,
    value: u64,
    dirty: bool,
    lru: u64,
}

/// One bank's data array.
#[derive(Debug)]
pub struct LlcArray {
    /// Lines of each set, empty until the first [`LlcArray::install`]:
    /// racks build hundreds of banks and most are never filled.
    sets: Vec<Vec<Line>>,
    ways: usize,
    /// Block -> set index memo (cheap set mapping by block address bits).
    index_mask: u64,
    clock: u64,
    lookup: HashMap<BlockAddr, usize>,
}

impl LlcArray {
    /// Create an array with `sets` sets of `ways` ways.
    ///
    /// # Panics
    /// Panics unless `sets` is a power of two and `ways > 0`.
    pub fn new(sets: usize, ways: usize) -> LlcArray {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways > 0, "need at least one way");
        LlcArray {
            // Nothing is allocated until the first install; every other
            // method consults `lookup` before touching a set.
            sets: Vec::new(),
            ways,
            index_mask: (sets - 1) as u64,
            clock: 0,
            lookup: HashMap::new(),
        }
    }

    fn set_of(&self, block: BlockAddr) -> usize {
        // Bank interleaving already consumed the low bits; use the next bits.
        ((block.0 >> 6) & self.index_mask) as usize
    }

    /// Look up a block, refreshing LRU. Returns `(value, dirty)`.
    pub fn get(&mut self, block: BlockAddr) -> Option<(u64, bool)> {
        if !self.lookup.contains_key(&block) {
            return None;
        }
        let s = self.set_of(block);
        self.clock += 1;
        let clock = self.clock;
        let line = self.sets[s]
            .iter_mut()
            .find(|l| l.block == block)
            .expect("lookup map and sets agree");
        line.lru = clock;
        Some((line.value, line.dirty))
    }

    /// True when the block has a data copy (no LRU update).
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.lookup.contains_key(&block)
    }

    /// Look up a block without touching LRU state. Returns `(value, dirty)`.
    pub fn peek(&self, block: BlockAddr) -> Option<(u64, bool)> {
        if !self.lookup.contains_key(&block) {
            return None;
        }
        let s = self.set_of(block);
        self.sets[s]
            .iter()
            .find(|l| l.block == block)
            .map(|l| (l.value, l.dirty))
    }

    /// Overwrite a resident block in place, marking it dirty; `false` when
    /// the block is not cached (no allocation, no eviction, no LRU update).
    pub fn update_in_place(&mut self, block: BlockAddr, value: u64) -> bool {
        if !self.lookup.contains_key(&block) {
            return false;
        }
        let s = self.set_of(block);
        let line = self.sets[s]
            .iter_mut()
            .find(|l| l.block == block)
            .expect("lookup map and sets agree");
        line.value = value;
        line.dirty = true;
        true
    }

    /// Install (or update) a block, returning the victim if a dirty line had
    /// to be evicted to make room. Clean victims are dropped silently.
    pub fn install(&mut self, block: BlockAddr, value: u64, dirty: bool) -> Option<Evicted> {
        self.clock += 1;
        let s = self.set_of(block);
        if self.lookup.contains_key(&block) {
            let clock = self.clock;
            let line = self.sets[s]
                .iter_mut()
                .find(|l| l.block == block)
                .expect("lookup map and sets agree");
            line.value = value;
            line.dirty = line.dirty || dirty;
            line.lru = clock;
            return None;
        }
        if self.sets.is_empty() {
            let n = self.index_mask as usize + 1;
            self.sets = (0..n).map(|_| Vec::new()).collect();
        }
        let mut victim = None;
        if self.sets[s].len() >= self.ways {
            let (i, _) = self.sets[s]
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .expect("full set is non-empty");
            let v = self.sets[s].swap_remove(i);
            self.lookup.remove(&v.block);
            victim = Some(Evicted {
                block: v.block,
                value: v.value,
                dirty: v.dirty,
            });
        }
        self.sets[s].push(Line {
            block,
            value,
            dirty,
            lru: self.clock,
        });
        self.lookup.insert(block, s);
        victim.filter(|v| v.dirty)
    }

    /// Drop a block's data copy (e.g. when ownership moves to an L1 and the
    /// protocol chooses not to keep stale data). Returns the dropped value.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<u64> {
        let s = self.lookup.remove(&block)?;
        let i = self.sets[s]
            .iter()
            .position(|l| l.block == block)
            .expect("lookup map and sets agree");
        Some(self.sets[s].swap_remove(i).value)
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.lookup.len()
    }

    /// True when no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.lookup.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_get_roundtrip() {
        let mut a = LlcArray::new(4, 2);
        assert!(a.install(BlockAddr(1), 10, false).is_none());
        assert_eq!(a.get(BlockAddr(1)), Some((10, false)));
        assert!(a.contains(BlockAddr(1)));
        assert_eq!(a.get(BlockAddr(2)), None);
    }

    #[test]
    fn update_in_place_keeps_dirty_sticky() {
        let mut a = LlcArray::new(4, 2);
        a.install(BlockAddr(1), 10, true);
        a.install(BlockAddr(1), 11, false);
        assert_eq!(a.get(BlockAddr(1)), Some((11, true)));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn eviction_returns_dirty_victims_only() {
        let mut a = LlcArray::new(1, 2);
        // Same set: blocks 0, 64, 128 (>> 6 gives 0 with mask 0... use
        // blocks that collide: with 1 set everything collides).
        a.install(BlockAddr(0), 1, true);
        a.install(BlockAddr(1), 2, false);
        // Third install evicts LRU (block 0, dirty).
        let v = a.install(BlockAddr(2), 3, false).expect("dirty victim");
        assert_eq!(v.block, BlockAddr(0));
        assert_eq!(v.value, 1);
        // Fourth install evicts block 1 (clean) silently.
        assert!(a.install(BlockAddr(3), 4, false).is_none());
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn lru_refresh_on_get_protects_blocks() {
        let mut a = LlcArray::new(1, 2);
        a.install(BlockAddr(0), 1, true);
        a.install(BlockAddr(1), 2, true);
        // Touch block 0 so block 1 becomes LRU.
        a.get(BlockAddr(0));
        let v = a.install(BlockAddr(2), 3, false).expect("dirty victim");
        assert_eq!(v.block, BlockAddr(1));
    }

    #[test]
    fn invalidate_removes_data() {
        let mut a = LlcArray::new(2, 2);
        a.install(BlockAddr(5), 50, true);
        assert_eq!(a.invalidate(BlockAddr(5)), Some(50));
        assert!(!a.contains(BlockAddr(5)));
        assert_eq!(a.invalidate(BlockAddr(5)), None);
    }

    #[test]
    fn untouched_bank_answers_every_query() {
        let mut a = LlcArray::new(256, 16);
        assert_eq!(a.get(BlockAddr(64)), None);
        assert_eq!(a.peek(BlockAddr(64)), None);
        assert!(!a.update_in_place(BlockAddr(64), 1));
        assert_eq!(a.invalidate(BlockAddr(64)), None);
        assert!(a.is_empty() && !a.contains(BlockAddr(64)));
        assert!(a.install(BlockAddr(64), 7, true).is_none());
        assert_eq!(a.peek(BlockAddr(64)), Some((7, true)));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_rejected() {
        let _ = LlcArray::new(3, 2);
    }
}
