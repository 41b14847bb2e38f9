//! Physical addresses and cache-block geometry.
//!
//! The simulated machine uses 64-byte cache blocks (Table 2) and 4 KiB
//! pages. Blocks are statically interleaved across the chip's LLC banks by
//! block address; because 64 banks x 64-byte blocks span exactly one page,
//! the home-bank bits fall inside the page offset — the property §4.3 relies
//! on to steer incoming remote requests to the right RRPP before translation.

use std::fmt;

/// Cache block size in bytes (Table 2: 64-byte blocks).
pub const BLOCK_BYTES: u64 = 64;

/// Page size in bytes.
pub const PAGE_BYTES: u64 = 4096;

/// A byte-granularity physical address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The containing cache block.
    #[inline]
    pub fn block(self) -> BlockAddr {
        BlockAddr(self.0 / BLOCK_BYTES)
    }

    /// Offset within the containing cache block.
    #[inline]
    pub fn block_offset(self) -> u64 {
        self.0 % BLOCK_BYTES
    }

    /// Address advanced by `bytes`.
    #[inline]
    pub fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Addr {
        Addr(v)
    }
}

/// A cache-block-aligned address (the block index, i.e. address / 64).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct BlockAddr(pub u64);

impl BlockAddr {
    /// First byte address of this block.
    #[inline]
    pub fn base(self) -> Addr {
        Addr(self.0 * BLOCK_BYTES)
    }

    /// Home LLC bank under static block interleaving across `n_banks` banks.
    ///
    /// # Panics
    /// Panics if `n_banks` is zero.
    #[inline]
    pub fn home_bank(self, n_banks: u32) -> u32 {
        assert!(n_banks > 0, "bank count must be non-zero");
        (self.0 % u64::from(n_banks)) as u32
    }

    /// The `n`-th block after this one.
    #[inline]
    pub fn step(self, n: u64) -> BlockAddr {
        BlockAddr(self.0 + n)
    }
}

impl fmt::Debug for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk:0x{:x}", self.0)
    }
}

/// Number of blocks covering `bytes` bytes starting block-aligned.
///
/// ```
/// use ni_mem::addr::blocks_for_bytes;
/// assert_eq!(blocks_for_bytes(1), 1);
/// assert_eq!(blocks_for_bytes(64), 1);
/// assert_eq!(blocks_for_bytes(65), 2);
/// assert_eq!(blocks_for_bytes(8192), 128);
/// ```
pub fn blocks_for_bytes(bytes: u64) -> u64 {
    bytes.div_ceil(BLOCK_BYTES).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_decomposition_roundtrips() {
        let a = Addr(0x1234);
        assert_eq!(a.block().base().0, 0x1200);
        assert_eq!(a.block_offset(), 0x34);
        assert_eq!(a.offset(0x10).0, 0x1244);
        assert_eq!(Addr::from(64).block(), BlockAddr(1));
    }

    #[test]
    fn home_bank_bits_fall_in_page_offset_for_64_banks() {
        // §4.3: with 64 banks and 64B blocks the home-selection bits are
        // address bits [6..12), all inside the 4KiB page offset. Two
        // addresses in the same page position of different pages map to the
        // same bank.
        let a = Addr(3 * PAGE_BYTES + 640);
        let b = Addr(9 * PAGE_BYTES + 640);
        assert_eq!(a.block().home_bank(64), b.block().home_bank(64));
        // And consecutive blocks round-robin over banks.
        let base = Addr(0).block();
        for i in 0..128 {
            assert_eq!(base.step(i).home_bank(64), (i % 64) as u32);
        }
    }

    #[test]
    fn block_count_math() {
        assert_eq!(blocks_for_bytes(0), 1);
        assert_eq!(blocks_for_bytes(63), 1);
        assert_eq!(blocks_for_bytes(16384), 256);
    }

    #[test]
    fn formatting_is_hex() {
        assert_eq!(format!("{:?}", Addr(255)), "0xff");
        assert_eq!(format!("{}", Addr(255)), "0xff");
        assert_eq!(format!("{:?}", BlockAddr(16)), "blk:0x10");
    }
}
