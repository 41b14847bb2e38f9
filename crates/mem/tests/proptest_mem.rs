//! Property tests for the physical address space and the memory
//! controller's timing/ordering contract.

use ni_engine::Cycle;
use ni_mem::{blocks_for_bytes, Addr, BlockAddr, MemConfig, MemRequestKind, MemoryController};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn block_base_and_offset_reconstruct_address(a in 0u64..u64::MAX / 2) {
        let addr = Addr(a);
        let b = addr.block();
        prop_assert_eq!(b.base().0 + addr.block_offset(), a);
        prop_assert!(addr.block_offset() < 64);
        prop_assert_eq!(b.base().block(), b, "block base is block-aligned");
    }

    #[test]
    fn same_block_iff_same_upper_bits(a in 0u64..1 << 40, delta in 0u64..256) {
        let x = Addr(a);
        let y = x.offset(delta);
        let same = (a / 64) == ((a + delta) / 64);
        prop_assert_eq!(x.block() == y.block(), same);
    }

    #[test]
    fn block_step_is_additive(b in 0u64..1 << 40, n in 0u64..1000, m in 0u64..1000) {
        let blk = BlockAddr(b);
        prop_assert_eq!(blk.step(n).step(m), blk.step(n + m));
        prop_assert_eq!(blk.step(0), blk);
    }

    #[test]
    fn home_bank_is_stable_and_in_range(b in 0u64..1 << 40, n_banks in 1u32..128) {
        let blk = BlockAddr(b);
        let h = blk.home_bank(n_banks);
        prop_assert!(h < n_banks);
        prop_assert_eq!(h, blk.home_bank(n_banks), "deterministic");
        // Consecutive blocks interleave round-robin across banks.
        prop_assert_eq!(blk.step(1).home_bank(n_banks), (h + 1) % n_banks);
    }

    #[test]
    fn blocks_for_bytes_covers_exactly(bytes in 0u64..1_000_000) {
        let n = blocks_for_bytes(bytes);
        prop_assert!(n * 64 >= bytes);
        if bytes > 0 {
            prop_assert!((n - 1) * 64 < bytes);
        } else {
            prop_assert_eq!(n, 1, "zero-length transfers still move one block");
        }
    }

    #[test]
    fn memory_controller_replies_after_exactly_latency(
        latency in 1u64..500,
        reqs in prop::collection::vec((0u64..1 << 30, any::<bool>(), 0u64..u64::MAX), 1..40),
    ) {
        let mut mc = MemoryController::new(MemConfig { latency });
        for (i, &(block, is_read, value)) in reqs.iter().enumerate() {
            let kind = if is_read { MemRequestKind::Read } else { MemRequestKind::Write };
            mc.push(Cycle(i as u64), BlockAddr(block), kind, value, i as u64);
        }
        // Nothing is ready before its latency elapses.
        prop_assert!(mc.pop_ready(Cycle(latency - 1)).is_none());
        let mut got = Vec::new();
        let horizon = reqs.len() as u64 + latency + 2;
        for t in 0..horizon {
            while let Some(r) = mc.pop_ready(Cycle(t)) {
                got.push((t, r));
            }
        }
        prop_assert_eq!(got.len(), reqs.len(), "every request answered");
        for (t, r) in &got {
            let i = r.tag as usize;
            let (block, is_read, value) = reqs[i];
            prop_assert_eq!(r.block, BlockAddr(block));
            prop_assert_eq!(*t, i as u64 + latency, "fixed-latency service");
            match r.kind {
                MemRequestKind::Read => prop_assert!(is_read),
                MemRequestKind::Write => {
                    prop_assert!(!is_read);
                    // Write acks do not invent data.
                    let _ = value;
                }
            }
        }
    }
}
