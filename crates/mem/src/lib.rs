//! # ni-mem — memory system model
//!
//! Physical addresses, cache-block geometry, and the per-edge memory
//! controllers of the simulated SoC. Following the paper's methodology (§5),
//! off-chip memory bandwidth is intentionally *not* a bottleneck: every
//! access completes in a fixed 50ns (100 cycles at 2 GHz), and controllers
//! accept unlimited concurrent requests.
//!
//! The backing store keeps a 64-bit token per block. Tokens let the
//! coherence test-suite verify data correctness end to end (every write
//! stores a unique token; every read must observe the latest one in
//! coherence order).

#![warn(missing_docs)]

pub mod addr;
pub mod controller;

pub use addr::{blocks_for_bytes, Addr, BlockAddr, BLOCK_BYTES, PAGE_BYTES};
pub use controller::{MemConfig, MemReply, MemRequestKind, MemStats, MemoryController};
