//! Coherence subsystem configuration (Table 2 defaults).

/// Timing and sizing of the cache hierarchy.
#[derive(Clone, Copy, Debug)]
pub struct CoherenceConfig {
    /// L1 capacity in blocks (Table 2: 32KB data / 64B = 512).
    pub l1_blocks: usize,
    /// L1 MSHR count (Table 2: 32).
    pub l1_mshrs: usize,
    /// NI cache capacity in blocks (holds QP entries; small).
    pub ni_cache_blocks: usize,
    /// Enable the NI-cache Owned state (§3.4). When disabled, a dirty NI
    /// block polled read-only by the core is first written back to the LLC —
    /// the slow path the Owned state exists to avoid (ablation A2).
    pub ni_owned_state: bool,
}

impl Default for CoherenceConfig {
    fn default() -> Self {
        CoherenceConfig {
            l1_blocks: 512,
            l1_mshrs: 32,
            ni_cache_blocks: 64,
            ni_owned_state: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{L1_LATENCY, NI_TRANSFER_LATENCY};
    use crate::directory::{LLC_BANK_BLOCKS, LLC_LATENCY, LLC_WAYS};

    #[test]
    fn defaults_match_table2() {
        let c = CoherenceConfig::default();
        assert_eq!(L1_LATENCY, 3);
        assert_eq!(c.l1_blocks, 512); // 32KB / 64B
        assert_eq!(c.l1_mshrs, 32);
        assert_eq!(LLC_LATENCY, 6);
        assert_eq!(LLC_WAYS, 16);
        assert_eq!(LLC_BANK_BLOCKS, 4096); // 16MB / 64 banks / 64B
        assert_eq!(LLC_BANK_BLOCKS / LLC_WAYS, 256);
        assert!(c.ni_owned_state);
        assert_eq!(NI_TRANSFER_LATENCY, 5);
    }
}
