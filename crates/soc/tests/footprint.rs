//! Build-time heap footprint of one node.
//!
//! A rack holds hundreds of chips, so what `Chip::new` allocates before
//! the first cycle sets the rack's memory and how much state every full
//! tick sweeps. A counting global allocator measures the live heap each
//! constructor leaves behind. It counts per thread, so the harness's own
//! threads never mix into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ni_coherence::LlcArray;
use ni_engine::Histogram;
use ni_noc::{MeshConfig, MeshNoc};
use ni_soc::{Chip, ChipConfig, Workload};

struct Counting;

thread_local! {
    /// Bytes allocated and not yet freed by this thread.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// Blocks allocated and not yet freed by this thread.
    static LIVE_BLOCKS: Cell<i64> = const { Cell::new(0) };
    /// Allocation calls made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: i64, blocks: i64) {
    // The cells are const-initialised and have no destructor, so they stay
    // reachable even while a thread tears down; `try_with` covers the rest.
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
    let _ = LIVE_BLOCKS.try_with(|c| c.set(c.get() + blocks));
    if blocks > 0 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// The default `alloc_zeroed` and `realloc` go through these two methods, so
// a realloc counts as one allocation plus one free.
// SAFETY: both methods forward to `System` with the caller's arguments
// unchanged; the counters only observe sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64, 1);
        // SAFETY: as above; `System` takes the same contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64), -1);
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What a constructor left on this thread's heap.
#[derive(Debug, PartialEq, Eq)]
struct Footprint {
    live_bytes: i64,
    live_blocks: i64,
    allocs: u64,
}

fn snapshot() -> Footprint {
    Footprint {
        live_bytes: LIVE_BYTES.with(Cell::get),
        live_blocks: LIVE_BLOCKS.with(Cell::get),
        allocs: ALLOCS.with(Cell::get),
    }
}

/// Run `build` and report what its result holds on the heap; the result
/// is dropped only after the second snapshot.
fn footprint<T>(build: impl FnOnce() -> T) -> Footprint {
    let before = snapshot();
    let built = build();
    let after = snapshot();
    drop(built);
    Footprint {
        live_bytes: after.live_bytes - before.live_bytes,
        live_blocks: after.live_blocks - before.live_blocks,
        allocs: after.allocs - before.allocs,
    }
}

#[test]
fn a_default_node_builds_only_what_it_touches() {
    let chip = footprint(|| Chip::new(ChipConfig::default(), Workload::Idle));
    let mesh = footprint(|| MeshNoc::<u64>::new(MeshConfig::default()));
    println!("Chip::new(default, Idle): {chip:?}");
    println!("MeshNoc::new(default): {mesh:?}");
    assert!(
        chip.live_bytes <= 384 * 1024,
        "a default idle chip holds {} B after build (budget 384 KiB)",
        chip.live_bytes
    );
    // An LLC bank's set vectors and a histogram's buckets wait for their
    // first install / record.
    let empty = Footprint {
        live_bytes: 0,
        live_blocks: 0,
        allocs: 0,
    };
    assert_eq!(footprint(|| LlcArray::new(256, 16)), empty, "LlcArray::new");
    assert_eq!(footprint(Histogram::new), empty, "Histogram::new");
}
