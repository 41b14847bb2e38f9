//! The paper's published numbers, kept here so the `paper` example
//! (`examples/paper.rs`) can print paper-vs-measured side by side.

/// Table 1 / Table 3, NIedge (QP-based model), 2 GHz cycles.
pub mod table3_edge {
    /// WQ write software overhead (A1).
    pub const WQ_WRITE: u64 = 104;
    /// WQ read and RGP processing (A2).
    pub const WQ_READ_RGP: u64 = 95;
    /// One intra-rack network hop (A3/A5).
    pub const NET_HOP: u64 = 70;
    /// RRPP servicing (A4).
    pub const RRPP: u64 = 208;
    /// RCP processing and CQ entry write (A6).
    pub const RCP_CQ_WRITE: u64 = 79;
    /// CQ read software overhead (A7).
    pub const CQ_READ: u64 = 84;
    /// End-to-end total.
    pub const TOTAL: u64 = 710;
}

/// Table 3, NIper-tile, 2 GHz cycles.
pub mod table3_per_tile {
    /// WQ write software overhead.
    pub const WQ_WRITE: u64 = 13;
    /// WQ entry transfer (L1 back side to NI cache).
    pub const WQ_TRANSFER: u64 = 5;
    /// RGP processing.
    pub const RGP: u64 = 7;
    /// Transfer request to chip edge.
    pub const TO_EDGE: u64 = 23;
    /// RRPP servicing.
    pub const RRPP: u64 = 208;
    /// Transfer reply to RCP.
    pub const FROM_EDGE: u64 = 23;
    /// RCP processing.
    pub const RCP: u64 = 11;
    /// CQ entry transfer.
    pub const CQ_TRANSFER: u64 = 5;
    /// CQ read software overhead.
    pub const CQ_READ: u64 = 10;
    /// End-to-end total.
    pub const TOTAL: u64 = 445;
}

/// Table 3, NIsplit, 2 GHz cycles.
pub mod table3_split {
    /// WQ write software overhead.
    pub const WQ_WRITE: u64 = 13;
    /// WQ entry transfer.
    pub const WQ_TRANSFER: u64 = 5;
    /// RGP frontend processing.
    pub const RGP_FE: u64 = 4;
    /// Transfer request to RGP backend.
    pub const FE_TO_BE: u64 = 23;
    /// RGP backend processing.
    pub const RGP_BE: u64 = 4;
    /// RRPP servicing.
    pub const RRPP: u64 = 208;
    /// RCP backend processing.
    pub const RCP_BE: u64 = 4;
    /// Transfer reply to RCP frontend.
    pub const BE_TO_FE: u64 = 23;
    /// RCP frontend processing.
    pub const RCP_FE: u64 = 8;
    /// CQ entry transfer.
    pub const CQ_TRANSFER: u64 = 5;
    /// CQ read software overhead.
    pub const CQ_READ: u64 = 10;
    /// End-to-end total.
    pub const TOTAL: u64 = 447;
}

/// Table 3, idealized NUMA projection, 2 GHz cycles.
pub mod table3_numa {
    /// Remote read issuing (single load).
    pub const ISSUE: u64 = 1;
    /// Transfer request to chip edge.
    pub const TO_EDGE: u64 = 23;
    /// RRPP-equivalent remote memory read.
    pub const SERVICE: u64 = 208;
    /// Transfer reply to the requesting core.
    pub const FROM_EDGE: u64 = 23;
    /// End-to-end total (1 network hop each way at 70 cycles).
    pub const TOTAL: u64 = 395;
}

/// Headline latency overheads over NUMA (§1, §6.1).
pub mod overheads {
    /// NIedge over NUMA at one hop (Table 3).
    pub const EDGE_1HOP_PCT: f64 = 79.7;
    /// NIper-tile over NUMA at one hop.
    pub const PER_TILE_1HOP_PCT: f64 = 12.7;
    /// NIsplit over NUMA at one hop.
    pub const SPLIT_1HOP_PCT: f64 = 13.2;
    /// NIedge over NUMA at six hops (Fig. 5).
    pub const EDGE_6HOP_PCT: f64 = 28.6;
    /// NIsplit over NUMA at six hops (Fig. 5).
    pub const SPLIT_6HOP_PCT: f64 = 4.7;
    /// NIedge over NUMA at twelve hops.
    pub const EDGE_12HOP_PCT: f64 = 16.2;
    /// NIsplit over NUMA at twelve hops.
    pub const SPLIT_12HOP_PCT: f64 = 2.6;
}

/// Bandwidth results (§6.2, Fig. 7).
pub mod bandwidth {
    /// Peak aggregate application bandwidth of NIedge/NIsplit (GBps).
    pub const PEAK_APP_GBPS: f64 = 214.0;
    /// Peak per-direction application bandwidth (GBps).
    pub const PEAK_PER_DIR_GBPS: f64 = 107.0;
    /// Aggregate NOC traffic at peak (GBps).
    pub const NOC_AGGREGATE_GBPS: f64 = 594.0;
    /// Bidirectional mesh bisection bandwidth (GBps).
    pub const BISECTION_GBPS: f64 = 512.0;
    /// NIper-tile peak relative to NIedge at 8KB transfers.
    pub const PER_TILE_FRACTION_AT_8K: f64 = 0.25;
    /// Peak without CDR ("less than half, ~100GBps").
    pub const NO_CDR_PEAK_GBPS: f64 = 100.0;
    /// NOC traffic amplification over application bandwidth.
    pub const TRAFFIC_AMPLIFICATION: f64 = 2.7;
}

/// Rack-level parameters (§1, §5, §6.1.2).
pub mod rack {
    /// Nodes in the evaluated rack.
    pub const NODES: u32 = 512;
    /// Average hop count of the 8x8x8 torus.
    pub const AVG_HOPS: u32 = 6;
    /// Maximum hop count (diameter).
    pub const MAX_HOPS: u32 = 12;
    /// Per-hop latency in nanoseconds.
    pub const HOP_NS: f64 = 35.0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_totals_are_internally_consistent() {
        assert_eq!(
            table3_edge::WQ_WRITE
                + table3_edge::WQ_READ_RGP
                + 2 * table3_edge::NET_HOP
                + table3_edge::RRPP
                + table3_edge::RCP_CQ_WRITE
                + table3_edge::CQ_READ,
            table3_edge::TOTAL
        );
        assert_eq!(
            table3_per_tile::WQ_WRITE
                + table3_per_tile::WQ_TRANSFER
                + table3_per_tile::RGP
                + table3_per_tile::TO_EDGE
                + 2 * 70
                + table3_per_tile::RRPP
                + table3_per_tile::FROM_EDGE
                + table3_per_tile::RCP
                + table3_per_tile::CQ_TRANSFER
                + table3_per_tile::CQ_READ,
            table3_per_tile::TOTAL
        );
        assert_eq!(
            table3_split::WQ_WRITE
                + table3_split::WQ_TRANSFER
                + table3_split::RGP_FE
                + table3_split::FE_TO_BE
                + table3_split::RGP_BE
                + 2 * 70
                + table3_split::RRPP
                + table3_split::RCP_BE
                + table3_split::BE_TO_FE
                + table3_split::RCP_FE
                + table3_split::CQ_TRANSFER
                + table3_split::CQ_READ,
            table3_split::TOTAL
        );
        assert_eq!(
            table3_numa::ISSUE
                + table3_numa::TO_EDGE
                + 2 * 70
                + table3_numa::SERVICE
                + table3_numa::FROM_EDGE,
            table3_numa::TOTAL
        );
    }

    #[test]
    fn overhead_percentages_match_totals() {
        let over = |t: u64| (t as f64 / table3_numa::TOTAL as f64 - 1.0) * 100.0;
        assert!((over(table3_edge::TOTAL) - overheads::EDGE_1HOP_PCT).abs() < 0.1);
        assert!((over(table3_per_tile::TOTAL) - overheads::PER_TILE_1HOP_PCT).abs() < 0.1);
        assert!((over(table3_split::TOTAL) - overheads::SPLIT_1HOP_PCT).abs() < 0.1);
    }
}
