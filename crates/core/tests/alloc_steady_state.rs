//! Pins the session API's zero-allocation claim: once the scratch buffers
//! are warm, extra gradient iterations perform **no** heap allocation — the
//! allocation count of an `almost_route_with` call is independent of how many
//! iterations it runs.
//!
//! Measured with a counting global allocator (test binaries are the only
//! places in the repository that need `unsafe`; the library crates all
//! `forbid(unsafe_code)`). The count is per thread: the test harness runs
//! the tests of this binary concurrently, and a process-wide count would
//! charge each test with the other's allocations. Every measured call runs
//! on the calling thread (the default sequential `Parallelism`), so nothing
//! is missed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use capprox::{CongestionApproximator, RackeConfig};
use flowgraph::{gen, Demand, NodeId};
use maxflow::{almost_route_with, AlmostRouteConfig, AlmostRouteScratch, PreparedMaxFlow};

struct CountingAllocator;

thread_local! {
    // Const-initialized and without a destructor, so counting never
    // allocates and never touches a torn-down slot.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.get();
    let out = f();
    (ALLOCATIONS.get() - before, out)
}

fn descent_config(max_iterations: usize) -> AlmostRouteConfig {
    // A tight ε with a large working α keeps δ above the stopping threshold,
    // so the iteration cap is what ends the loop and the two runs below
    // differ only in iteration count.
    AlmostRouteConfig::default()
        .with_epsilon(0.05)
        .with_alpha(Some(8.0))
        .with_max_iterations(max_iterations)
}

#[test]
fn gradient_iterations_do_not_allocate_once_scratch_is_warm() {
    let g = gen::grid(6, 6, 1.0);
    let r =
        CongestionApproximator::build(&g, &RackeConfig::default().with_num_trees(4).with_seed(7))
            .expect("grid is connected");
    let b = Demand::st(&g, NodeId(0), NodeId(35), 1.0);
    let mut scratch = AlmostRouteScratch::for_instance(&g, &r);

    // Warm every buffer (first call may size vectors).
    let warm = almost_route_with(&g, &r, &b, &descent_config(8), &mut scratch);
    assert!(warm.hit_iteration_cap, "cap must bind for this experiment");

    let (alloc_short, short) =
        allocations_during(|| almost_route_with(&g, &r, &b, &descent_config(8), &mut scratch));
    let (alloc_long, long) =
        allocations_during(|| almost_route_with(&g, &r, &b, &descent_config(120), &mut scratch));

    assert!(short.hit_iteration_cap && long.hit_iteration_cap);
    assert!(
        long.iterations >= short.iterations + 100,
        "experiment needs a real iteration-count gap ({} vs {})",
        long.iterations,
        short.iterations
    );
    // The extra ~112 iterations must not have allocated: per-call costs (the
    // working demand clone, the result flow) are identical, so the counts
    // must match exactly.
    assert_eq!(
        alloc_short, alloc_long,
        "heap allocations grew with the iteration count: {alloc_short} for {} iterations vs \
         {alloc_long} for {} iterations",
        short.iterations, long.iterations
    );
}

#[test]
fn session_queries_do_not_scale_allocations_with_iterations() {
    // End-to-end flavor of the same claim: two sessions differing only in
    // the per-phase iteration cap allocate the same amount per query.
    let g = gen::grid(6, 6, 1.0);
    let base = maxflow::MaxFlowConfig::default()
        .with_epsilon(0.05)
        .with_alpha(Some(8.0))
        .with_racke(RackeConfig::default().with_num_trees(4).with_seed(7))
        .with_phases(Some(1));

    let count_for = |cap: usize| {
        let cfg = base.clone().with_max_iterations_per_phase(cap);
        let mut session = PreparedMaxFlow::prepare(&g, &cfg).expect("connected");
        // Warm query, then the measured one.
        let warm = session.max_flow(NodeId(0), NodeId(35)).expect("valid");
        let (allocs, result) =
            allocations_during(|| session.max_flow(NodeId(0), NodeId(35)).expect("valid"));
        assert_eq!(warm.iterations, result.iterations);
        (allocs, result.iterations)
    };

    let (alloc_short, iters_short) = count_for(8);
    let (alloc_long, iters_long) = count_for(120);
    assert!(
        iters_long >= iters_short + 100,
        "experiment needs a real iteration-count gap ({iters_long} vs {iters_short})"
    );
    assert_eq!(
        alloc_short, alloc_long,
        "per-query allocations grew with the iteration count"
    );
}
