//! Pins the sharded engine's zero-allocation claim: once the arenas, dirty
//! lists and staging buckets are warm (first rounds of a run), extra rounds
//! of steady-state traffic perform **no** heap allocation — the allocation
//! count of a `run_sharded` call is independent of how many rounds it runs.
//!
//! Measured with a counting global allocator, like
//! `crates/core/tests/alloc_steady_state.rs` (test binaries may carry their
//! own global allocator; the library crates all `forbid(unsafe_code)`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use congest::engine::{Inbox, LocalView, MessageSize, Network, Outbox, Protocol, Simulator};
use flowgraph::gen;
use parallel::Parallelism;

struct CountingAllocator;

// Process-wide on purpose: the sharded engine allocates on its shard
// worker threads, which a per-thread count would not see. That is sound
// only while this binary holds a single test — a second test running
// concurrently would add its allocations to the count.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// Full-load traffic for a fixed number of rounds: every node broadcasts on
/// every incident edge each round, so the steady state saturates every slot
/// and every staging bucket identically, round after round.
struct FloodFor(u64);

#[derive(Clone, Debug)]
struct Beat;

impl MessageSize for Beat {}

impl Protocol for FloodFor {
    type Msg = Beat;
    type State = ();
    type Output = ();

    fn init(&self, _view: &LocalView<'_>, outbox: &mut Outbox<'_, Self::Msg>) -> Self::State {
        outbox.broadcast(Beat);
    }

    fn round(
        &self,
        _view: &LocalView<'_>,
        _state: &mut Self::State,
        _inbox: &Inbox<'_, Self::Msg>,
        outbox: &mut Outbox<'_, Self::Msg>,
        round: u64,
    ) {
        if round < self.0 {
            outbox.broadcast(Beat);
        }
    }

    fn is_terminated(&self, _state: &Self::State) -> bool {
        true
    }

    fn output(&self, _view: &LocalView<'_>, _state: Self::State) -> Self::Output {}
}

// One test, not two: the counting allocator is process-global, so the two
// measurements must not run concurrently under the parallel test harness.
#[test]
fn round_loops_do_not_allocate_once_warm() {
    let network = Network::new(gen::grid(12, 12, 1.0));
    let par = Parallelism::with_threads(4);
    let sim = Simulator::new();

    // Warm thread-local / allocator state outside the measurement.
    sim.run_sharded(&network, &FloodFor(4), &par)
        .expect("well-behaved protocol");

    // The traffic pattern of every round is identical (full load), so the
    // per-run allocations (arenas, staging warm-up, worker spawns) are
    // identical for both runs and the extra 60 rounds must contribute zero.
    let (alloc_short, _) = allocations_during(|| {
        sim.run_sharded(&network, &FloodFor(8), &par)
            .expect("well-behaved protocol")
    });
    let (alloc_long, _) = allocations_during(|| {
        sim.run_sharded(&network, &FloodFor(68), &par)
            .expect("well-behaved protocol")
    });
    assert_eq!(
        alloc_short, alloc_long,
        "sharded: heap allocations grew with the round count: {alloc_short} for 8 rounds vs \
         {alloc_long} for 68 rounds"
    );

    // The sequential arena engine had the guarantee first; keep both pinned
    // in one place so a regression in either shows up here.
    sim.run(&network, &FloodFor(4)).expect("well-behaved");
    let (alloc_short, _) =
        allocations_during(|| sim.run(&network, &FloodFor(8)).expect("well-behaved"));
    let (alloc_long, _) =
        allocations_during(|| sim.run(&network, &FloodFor(68)).expect("well-behaved"));
    assert_eq!(
        alloc_short, alloc_long,
        "sequential: heap allocations grew with the round count"
    );
}
