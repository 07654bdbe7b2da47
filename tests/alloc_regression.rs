//! Allocation-regression tests for the serving hot path.
//!
//! The binary installs a counting global allocator and asserts the two
//! steady-state properties the zero-allocation hot path promises:
//!
//! 1. after warmup, `Backend::infer_batch` on a `Network` — the inner loop
//!    of every served micro-batch, including a *random precision switch*
//!    per call — performs **zero** heap allocations when the caller closes
//!    the reuse cycle by recycling the logits tensor;
//! 2. a full `Engine::serve` burst settles to a constant, small,
//!    response-materialisation-only allocation count — per-request
//!    `Response` logits must escape to the caller, but nothing else may
//!    allocate per burst, and the count must not grow burst over burst —
//!    on a one-worker `ShardedEngine` too, where additionally no allocated
//!    byte may scale with the image size (rows are staged from the arena
//!    and served images travel back to it);
//! 3. the flight recorder's enabled record path is allocation-free after
//!    its ring is registered — thousands of stage events, including full
//!    ring wrap-around, are pure atomic stores.
//!
//! Everything runs inside one `#[test]` so no concurrent test pollutes the
//! global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use two_in_one_accel::prelude::*;

struct CountingAllocator;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc that grows is an allocation for our purposes.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocs() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

fn bytes() -> usize {
    BYTES.load(Ordering::Relaxed)
}

#[test]
fn steady_state_serving_allocations() {
    let set = PrecisionSet::range(4, 8);
    let mut rng = SeededRng::new(1);
    let mut net = zoo::preact_resnet18_rps(3, 4, 5, set.clone(), &mut rng);
    let x = Tensor::rand_uniform(&[8, 3, 8, 8], 0.0, 1.0, &mut rng);
    let precisions: Vec<Option<Precision>> =
        std::iter::once(None).chain(set.iter().map(Some)).collect();

    // --- Part 1: the backend hot path is allocation-free after warmup. ---
    // Warmup passes populate the per-precision prepacked-weight memos and
    // let the workspace pool converge to its steady buffer set.
    for _ in 0..3 {
        for &p in &precisions {
            let y = Backend::infer_batch(&mut net, &x, p);
            net.recycle(y);
        }
    }
    let before = allocs();
    for _ in 0..2 {
        for &p in &precisions {
            // Every iteration is a precision switch — under the memo it must
            // cost a lookup, not a re-quantize + re-pack (which would show
            // up here as allocations).
            let y = Backend::infer_batch(&mut net, &x, p);
            net.recycle(y);
        }
    }
    let hot_path = allocs() - before;
    assert_eq!(
        hot_path,
        0,
        "warmed Network::infer_batch must not allocate (got {} allocations \
         across {} precision-switching batches)",
        hot_path,
        2 * precisions.len(),
    );

    // --- Part 2: Engine::serve settles to response materialisation only. ---
    let mut engine = Engine::new(
        &mut net,
        PrecisionPolicy::Fixed(Some(Precision::new(8))),
        EngineConfig::default().with_max_batch(8).with_seed(7),
    );
    let requests = x.shape()[0];
    for _ in 0..3 {
        let _ = engine.serve(&x); // warmup: fixed policy => identical bursts
    }
    let burst = |engine: &mut Engine<&mut Network>| {
        let before = allocs();
        let responses = engine.serve(&x);
        assert_eq!(responses.len(), requests);
        allocs() - before
    };
    let second = burst(&mut engine);
    let third = burst(&mut engine);
    assert_eq!(
        second, third,
        "steady-state serve bursts must have identical allocation counts"
    );
    // Each response owns its logits (one escaping buffer); everything else —
    // batch assembly, image staging, the whole layer stack — is recycled.
    // Allow a small constant for the response/grouping containers.
    let bound = 2 * requests + 16;
    assert!(
        second <= bound,
        "steady-state serve allocated {} times for {} requests (bound {})",
        second,
        requests,
        bound
    );

    // The same burst on a one-worker ShardedEngine (every thread's
    // allocations land on the one global counter): constant burst over
    // burst, and nothing that scales with C*H*W — quadrupling the image
    // leaves the bytes per burst unchanged, within the escaping logits plus
    // the containers of the two channel hand-offs.
    drop(engine);
    let classes = 5;
    let sharded_burst = |hw: usize| {
        let x = Tensor::rand_uniform(&[requests, 3, hw, hw], 0.0, 1.0, &mut SeededRng::new(3));
        let mut engine = ShardedEngine::new(
            vec![net.clone()],
            PrecisionPolicy::Fixed(Some(Precision::new(8))),
            EngineConfig::default().with_max_batch(8).with_seed(7),
        );
        for _ in 0..3 {
            let _ = engine.serve(&x);
        }
        let mut burst = || {
            let before = (allocs(), bytes());
            let responses = engine.serve(&x);
            assert_eq!(responses.len(), requests);
            (allocs() - before.0, bytes() - before.1)
        };
        let (second, third) = (burst(), burst());
        assert_eq!(
            second, third,
            "steady-state sharded bursts must allocate identically ({hw}x{hw})"
        );
        second
    };
    let (small, large) = (sharded_burst(8), sharded_burst(16));
    assert_eq!(small, large, "sharded serve allocations scale with C*H*W");
    assert!(
        small.0 <= 2 * requests + 24,
        "steady-state sharded serve allocated {} times for {requests} requests",
        small.0
    );
    let byte_bound = requests * (4 * classes + 512) + 1024;
    assert!(
        small.1 <= byte_bound && byte_bound < requests * 3 * 8 * 8 * 4,
        "steady-state sharded serve allocated {} bytes (bound {byte_bound})",
        small.1
    );

    // --- Part 3: the enabled trace record path allocates nothing. ---
    // Registration allocates the ring's slot arrays up front; a first
    // record warms nothing further. From then on every record — here 4×
    // the ring's capacity, so the overwrite-oldest wrap path runs too —
    // must be pure atomic stores on the manual clock seam.
    let sink = tia_serve::TraceSink::new(tia_serve::Clock::manual());
    let ring = sink.register("hot-path", 1 << 10);
    ring.record(tia_serve::Stage::Enqueued, 1, 0, 0);
    let before = allocs();
    for i in 0..4096u64 {
        ring.record(tia_serve::Stage::Enqueued, i + 2, i as u32, 0);
    }
    let trace_path = allocs() - before;
    assert_eq!(
        trace_path, 0,
        "warmed trace recording must not allocate (got {trace_path} \
         allocations across 4096 events)"
    );
    assert_eq!(ring.recorded(), 4097);
    assert_eq!(ring.overwritten(), 4097 - (1 << 10));
}
