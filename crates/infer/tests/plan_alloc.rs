//! The plan executor's allocation contract: once warm, a serial forward
//! through `run_plan` makes zero heap allocations, for every zoo
//! architecture and grid.
//!
//! A counting `#[global_allocator]` sees every allocation in this test
//! binary, which is why the file holds a single test: the count is kept
//! per thread, so the harness thread cannot leak into it, and the forward
//! runs under `pool::with_threads(1)` so no kernel hands work to another
//! thread. Timers stay at their default (on), as users run them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mfaplace_autograd::Graph;
use mfaplace_infer::{run_plan, Plan, PlanOptions};
use mfaplace_models::{Arch, ArchSpec, CongestionModel};
use mfaplace_rt::pool;
use mfaplace_rt::rng::{SeedableRng, StdRng};
use mfaplace_tensor::Tensor;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn bump() {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// thread-local counter is const-initialized and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Deterministic pseudo-random `[b, 6, grid, grid]` input.
fn input_for(b: usize, grid: usize) -> Tensor {
    Tensor::from_fn(vec![b, 6, grid, grid], |i| {
        let h = (i as u32).wrapping_mul(2_654_435_761);
        (h >> 8) as f32 / (1 << 24) as f32 * 2.0 - 1.0
    })
}

/// Captures one eval-mode forward of a small but complete `arch` model
/// (MFA and ViT on).
fn capture(arch: Arch, grid: usize, x: &Tensor) -> Plan {
    let mut spec = ArchSpec::new(arch, grid);
    spec.base_channels = 2;
    spec.vit_layers = 1;
    spec.vit_heads = 2;
    spec.use_mfa = true;
    spec.mfa_reduction = 4;
    let mut g = Graph::new();
    let mut model = spec
        .build(&mut g, &mut StdRng::seed_from_u64(7))
        .expect("build model");
    g.set_grad_enabled(false);
    let mark = g.mark();
    let xv = g.constant(x.clone());
    let y = model.forward(&mut g, xv, false);
    Plan::capture(&g, mark, xv, y, PlanOptions::default()).expect("plan capture")
}

#[test]
fn a_warm_serial_plan_forward_allocates_nothing() {
    for arch in [Arch::Ours, Arch::UNet, Arch::Pgnn, Arch::Pros2] {
        for grid in [16, 32] {
            let x = input_for(2, grid);
            let plan = capture(arch, grid, &x);
            let mut arena = Vec::new();
            let n = pool::with_threads(1, || {
                // Warm-up: sizes the arena and registers the counters.
                run_plan(&plan, &mut arena, x.data());
                let before = allocs();
                run_plan(&plan, &mut arena, x.data());
                allocs() - before
            });
            assert_eq!(
                n, 0,
                "{arch:?} grid {grid}: {n} allocations in a warm forward"
            );
        }
    }
}
