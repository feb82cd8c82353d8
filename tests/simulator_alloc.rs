//! `Simulator::new` compiles the dispatch order into its step table with
//! a fixed number of heap allocations, whatever the size of the graph or
//! the number of its sections.
//!
//! A counting global allocator sees every heap allocation in this test
//! binary, so the file holds a single test: nothing else may run
//! concurrently while it counts.

use pas_andor::core::Setup;
use pas_andor::power::ProcessorModel;
use pas_andor::workloads::RandomAppParams;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, so each method
// keeps `System`'s guarantees; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract for
        // `layout`, which is the same contract `System.alloc` has.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated with `layout` by this allocator,
        // i.e. by `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated with `layout` by `System`, and the
        // caller meets `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn compiling_the_step_table_allocates_four_times_at_any_size() {
    let apps = [
        (
            "synthetic",
            pas_andor::workloads::synthetic_app()
                .lower()
                .expect("lowers"),
        ),
        ("atr", pas_andor::experiments::figures::atr_app()),
        (
            "random x4",
            RandomAppParams::default()
                .chained(11, 4)
                .lower()
                .expect("lowers"),
        ),
        (
            "random x64",
            RandomAppParams::default()
                .chained(11, 64)
                .lower()
                .expect("lowers"),
        ),
    ];
    let mut section_counts = Vec::new();
    for (name, app) in apps {
        let setup = Setup::for_load(app, ProcessorModel::xscale(), 2, 0.5).expect("feasible");
        section_counts.push(setup.sections.len());
        // The seen-node set, the steps, the predecessors, the sections.
        let n = allocations_in(|| drop(black_box(setup.simulator(false))));
        assert_eq!(
            n,
            4,
            "{name}: {} nodes, {} sections",
            setup.graph.len(),
            setup.sections.len()
        );
    }
    assert!(
        section_counts.iter().max() > section_counts.iter().min(),
        "the apps differ in section count: {section_counts:?}"
    );
}
