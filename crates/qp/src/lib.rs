//! # ni-qp — queue-pair substrate (soNUMA's memory-mapped WQ/CQ protocol)
//!
//! §2.2 of the paper: cores schedule one-sided remote operations by writing
//! Work Queue (WQ) entries into cacheable memory and learn about completions
//! by polling a Completion Queue (CQ); the NI polls the WQ and writes the
//! CQ. This crate provides the queue bookkeeping and address layout; the
//! actual cache-block traffic (the part the paper's Table 3 dissects) is
//! driven by the SoC layer through the coherence crate.
//!
//! Layout follows the paper's cost model: a WQ entry is 32 bytes (two
//! stores to the same cache block create one), so one 64-byte block holds
//! two entries; CQ entries are 8 bytes (a single polling load covers one).

#![warn(missing_docs)]

pub mod queue;

pub use queue::{
    CqEntry, QueuePair, RemoteOp, WqEntry, CQ_ENTRY_BYTES, WQ_ENTRIES, WQ_ENTRY_BYTES,
};
