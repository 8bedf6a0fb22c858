//! Proves the threaded manager loop is allocation-free at steady state.
//!
//! Strategy: a counting `#[global_allocator]` wraps the system allocator.
//! For each engine, two identical runs that differ only in commit target
//! (X vs 3X) are measured; the difference in allocation count is what the
//! extra ~2X of simulated work cost. Under cycle-by-cycle pacing the two
//! engines perform bit-identical simulation work, so the *models*
//! (caches, MSHRs, bus bookkeeping) contribute the same allocation growth
//! to both — any scaling difference is the threaded engine's own
//! machinery: the manager loop, the SPSC event transport, and the wait
//! ladders.
//!
//! The manager loop drains rings into persistent scratch buffers,
//! batch-inserts into the global queue, and records metrics through
//! pre-interned keys, so its steady state performs no heap allocation.
//! One allocation per serviced event would add ~5% to the threaded delta
//! below; one per manager iteration (manager iterations far outnumber
//! cycles) would multiply it. Both trip the threshold.
//!
//! This lives in its own integration-test binary so the allocator wrapper
//! cannot perturb any other test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The counter is process-wide and the test harness runs tests on
/// parallel threads, so each test holds this lock for its whole
/// measurement; otherwise one test's allocations land in the other's
/// deltas.
static MEASURE: Mutex<()> = Mutex::new(());

fn exclusive_counter() -> MutexGuard<'static, ()> {
    MEASURE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn allocs_for_run(
    engine: slacksim::EngineKind,
    scheme: slacksim::scheme::Scheme,
    commit: u64,
) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = slacksim::Simulation::new(slacksim::Benchmark::Fft)
        .cores(8)
        .commit_target(commit)
        .seed(1)
        .scheme(scheme)
        .engine(engine)
        .run()
        .expect("run");
    assert!(report.committed >= commit);
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Allocation growth attributable to ~2X extra steady-state work.
fn steady_delta(engine: slacksim::EngineKind, scheme: &slacksim::scheme::Scheme) -> u64 {
    // Warm-up run absorbs one-time lazy initialization.
    let _ = allocs_for_run(engine, scheme.clone(), 5_000);
    let short = allocs_for_run(engine, scheme.clone(), 20_000);
    let long = allocs_for_run(engine, scheme.clone(), 60_000);
    long.saturating_sub(short)
}

#[test]
fn threaded_manager_loop_is_allocation_free_at_steady_state() {
    use slacksim::scheme::Scheme;
    use slacksim::EngineKind;
    let _counter = exclusive_counter();

    // Cycle-by-cycle: both engines do bit-identical simulation work, so
    // the model-side allocation growth cancels out of the comparison.
    let seq = steady_delta(EngineKind::Sequential, &Scheme::CycleByCycle);
    let thr = steady_delta(EngineKind::Threaded, &Scheme::CycleByCycle);

    // The threaded engine's extra growth over sequential must stay a
    // small fraction: per-event or per-iteration allocation anywhere in
    // the manager loop or the ring transport would exceed this
    // immediately (measured headroom is ~1.10x; one alloc per serviced
    // event alone pushes past 1.19x, per manager iteration far beyond).
    assert!(
        thr as f64 <= seq as f64 * 1.15,
        "threaded steady-state allocation growth ({thr}) exceeds \
         sequential ({seq}) by more than 15% — the manager loop or event \
         transport is allocating per unit of work"
    );

    // Slack pacing exercises the greedy manager path (per-core window
    // publication, adaptive backoff). Interleavings are nondeterministic,
    // so the threshold is looser, but per-iteration allocation would
    // still blow far past it.
    let seq = steady_delta(EngineKind::Sequential, &Scheme::BoundedSlack { bound: 16 });
    let thr = steady_delta(EngineKind::Threaded, &Scheme::BoundedSlack { bound: 16 });
    assert!(
        thr as f64 <= seq as f64 * 1.5,
        "threaded greedy-path steady-state allocation growth ({thr}) far \
         exceeds sequential ({seq})"
    );
}

fn allocs_for_instrumented_run(
    engine: slacksim::EngineKind,
    scheme: slacksim::scheme::Scheme,
    commit: u64,
) -> u64 {
    use std::sync::Arc;
    // Pre-reserved so appending beats never grows the capture buffer —
    // the quantity under test is the engine's and emitter's steady
    // state, not the sink's.
    let capture = Arc::new(Mutex::new(String::with_capacity(1 << 20)));
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = {
        let mut sim = slacksim::Simulation::new(slacksim::Benchmark::Fft);
        sim.cores(8)
            .commit_target(commit)
            .seed(1)
            .scheme(scheme)
            .engine(engine)
            .profile(true)
            .live(
                slacksim::LiveConfig::new()
                    .every(std::time::Duration::from_millis(1))
                    .to_capture(Arc::clone(&capture)),
            );
        sim.run().expect("run")
    };
    assert!(report.committed >= commit);
    assert!(
        !capture.lock().unwrap().is_empty(),
        "emitter beat at least once"
    );
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Allocation growth of an instrumented (profiler + live emitter) run
/// attributable to ~2X extra steady-state work.
fn steady_delta_instrumented(
    engine: slacksim::EngineKind,
    scheme: &slacksim::scheme::Scheme,
) -> u64 {
    let _ = allocs_for_instrumented_run(engine, scheme.clone(), 5_000);
    let short = allocs_for_instrumented_run(engine, scheme.clone(), 20_000);
    let long = allocs_for_instrumented_run(engine, scheme.clone(), 60_000);
    long.saturating_sub(short)
}

/// Profiling spans are two monotonic clock reads and a few relaxed
/// atomics; heartbeat rendering reuses one pre-sized buffer and the
/// engine publishes telemetry through plain atomic stores. None of it
/// may allocate per unit of simulated work: an instrumented run's
/// steady-state allocation growth must match an uninstrumented one's.
/// Per-run constants (emitter thread, profiler arena, render buffer)
/// cancel out of the short/long difference.
#[test]
fn profiling_and_live_emission_are_allocation_free_at_steady_state() {
    use slacksim::scheme::Scheme;
    use slacksim::EngineKind;
    let _counter = exclusive_counter();

    for engine in [EngineKind::Sequential, EngineKind::Threaded] {
        let plain = steady_delta(engine, &Scheme::CycleByCycle);
        let instrumented = steady_delta_instrumented(engine, &Scheme::CycleByCycle);
        assert!(
            instrumented as f64 <= plain as f64 * 1.15 + 256.0,
            "{engine:?}: instrumented steady-state allocation growth \
             ({instrumented}) exceeds uninstrumented ({plain}) — a span \
             guard, telemetry store or heartbeat render is allocating per \
             unit of work"
        );
    }
}
