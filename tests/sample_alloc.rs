//! The Monte-Carlo hot loop allocates nothing once its buffers are sized:
//! redrawing a realization in place (with or without a `DrawTable`) and,
//! in release builds, running it through a reused `RunScratch` and
//! policy. Debug builds cross-check every run against a fresh
//! `SectionedLedger`, which allocates by design.
//!
//! A counting global allocator sees every heap allocation in this test
//! binary, so the file holds a single test: nothing else may run
//! concurrently while it counts.

use pas_andor::core::{Scheme, Setup};
use pas_andor::power::ProcessorModel;
use pas_andor::sim::{ExecTimeModel, Realization, RunScratch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
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
fn sized_buffers_make_the_hot_loop_allocation_free() {
    let etm = ExecTimeModel::paper_defaults();
    let app = pas_andor::experiments::figures::atr_app();
    let setup = Setup::for_load(app, ProcessorModel::transmeta5400(), 6, 0.6).expect("feasible");
    let (g, sg) = (&setup.graph, &setup.sections);
    let draws = setup.draw_table(&etm);
    let sim = setup.simulator(false);
    let mut policies: Vec<_> = Scheme::ALL.iter().map(|&s| setup.policy(s)).collect();
    let mut scratch = RunScratch::new();
    let mut real = Realization::default();
    let mut rng = StdRng::seed_from_u64(0xA110C);

    // Warm-up: every buffer reaches the longest OR-path the seeds draw.
    for _ in 0..2_000 {
        draws.sample_into(&mut real, &mut rng);
        real.sample_into(g, sg, &etm, &mut rng);
        for policy in &mut policies {
            sim.run_into(&mut scratch, policy.as_mut(), &real, None, None, None)
                .expect("run succeeds");
        }
    }

    let sampling = allocations_in(|| {
        for _ in 0..500 {
            draws.sample_into(&mut real, &mut rng);
            real.sample_into(g, sg, &etm, &mut rng);
        }
    });
    assert_eq!(sampling, 0, "redrawing a sized realization allocated");

    if cfg!(debug_assertions) {
        return;
    }
    let running = allocations_in(|| {
        for _ in 0..200 {
            draws.sample_into(&mut real, &mut rng);
            for policy in &mut policies {
                sim.run_into(&mut scratch, policy.as_mut(), &real, None, None, None)
                    .expect("run succeeds");
            }
        }
    });
    assert_eq!(
        running, 0,
        "a fault-free run through sized scratch allocated"
    );
}
