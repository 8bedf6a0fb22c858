//! The traced wrappers must forward every trait method, the defaulted
//! ones included, and leave the simulated result bit-identical: otherwise
//! a traced batched run would quietly fall back to per-tick stepping, or
//! monitors would stop compacting, and the per-layer split would describe
//! a different run.

use std::time::{Duration, Instant};

use slacksim::scheme::Scheme;
use slacksim::CheckpointMode;
use slacksim_perfbench::trace::{self, Layer, Trace};
use slacksim_perfbench::workload::{self, digest, Workload};

fn shortened(name: &str, commits: u64) -> Workload {
    let mut w = workload::by_name(name).expect("known workload");
    w.commits = commits;
    w
}

fn traced_run(w: &Workload, seed: u64) -> (slacksim::SimReport, Trace) {
    let engine = w.build_traced(seed);
    trace::reset();
    let report = engine.run().expect("traced run");
    (report, trace::take())
}

#[test]
fn batched_wrapper_runs_one_window_per_core_per_quantum() {
    let w = shortened("fft8_bus_batched", 200_000);
    let Scheme::Quantum { quantum } = w.scheme else {
        panic!("fft8_bus_batched runs the quantum scheme");
    };
    let plain = w.build(3).run().expect("plain run");
    let (traced, t) = traced_run(&w, 3);

    assert_eq!(
        digest(&traced),
        digest(&plain),
        "wrappers perturbed the run"
    );
    assert_eq!(
        t.layer(Layer::CoreTick).calls,
        0,
        "fell back to per-tick stepping"
    );
    assert_eq!(
        t.layer(Layer::CoreWindow).calls,
        w.cores as u64 * traced.global_cycles / quantum
    );
    let stream = t.layer(Layer::Stream).calls;
    assert!(stream >= traced.committed, "every commit was fetched");
    assert_eq!(t.layer(Layer::CoreWindow).child_calls, stream);
    assert!(t.layer(Layer::Uncore).calls > 0);
    assert_eq!(t.top_level().child_calls, t.span_count() - stream);
}

#[test]
fn sequential_wrapper_ticks_and_matches_the_user_path() {
    let w = shortened("lu8_bus_seq", 200_000);
    let user = w.simulation(2).run().expect("Simulation::run");
    let (traced, t) = traced_run(&w, 2);

    assert_eq!(digest(&traced), digest(&user), "benchmark path differs");
    assert_eq!(t.layer(Layer::CoreWindow).calls, 0);
    assert!(t.layer(Layer::CoreTick).calls > 0);
    assert_eq!(
        t.layer(Layer::CoreTick).child_calls,
        t.layer(Layer::Stream).calls
    );
    assert_eq!(
        t.layer(Layer::Capture).calls,
        0,
        "no checkpoints without speculation"
    );
    assert_eq!(t.layer(Layer::Compact).calls, 0);
}

#[test]
fn full_mode_checkpoints_are_timed_as_capture_and_restore() {
    let w = shortened("fft8_bus_spec", 300_000);
    let plain = w.build(4).run().expect("plain run");
    let (traced, t) = traced_run(&w, 4);
    let (checkpoints, rollbacks) = (
        traced.kernel.get("checkpoints"),
        traced.kernel.get("rollbacks"),
    );
    let models = w.cores as u64 + 1;

    assert_eq!(
        digest(&traced),
        digest(&plain),
        "wrappers perturbed the run"
    );
    assert!(rollbacks > 0, "the workload must exercise rollback");
    assert_eq!(t.layer(Layer::Compact).calls, checkpoints);
    // One clone per model for the initial snapshot and for every
    // checkpoint; one clone back per model for every rollback.
    assert_eq!(t.layer(Layer::Capture).calls, models * (checkpoints + 1));
    assert_eq!(t.layer(Layer::Restore).calls, models * rollbacks);
    assert_eq!(
        t.spans.len() as u64,
        t.layer(Layer::Compact).calls
            + t.layer(Layer::Capture).calls
            + t.layer(Layer::Restore).calls
    );
}

#[test]
fn delta_mode_forwards_every_checkpointable_method() {
    let mut w = shortened("fft8_bus_spec", 300_000);
    let full = w.build(4).run().expect("full-mode run");
    w.speculation = w.speculation.map(|s| s.with_mode(CheckpointMode::Delta));
    let (traced, t) = traced_run(&w, 4);
    let (checkpoints, rollbacks) = (
        traced.kernel.get("checkpoints"),
        traced.kernel.get("rollbacks"),
    );
    let models = w.cores as u64 + 1;

    assert_eq!(digest(&traced), digest(&full), "checkpoint modes diverged");
    // Seeding: one capture_delta and one clone per model. Each
    // checkpoint: capture_delta and apply_delta per model. Each rollback:
    // restore_from per model.
    assert_eq!(
        t.layer(Layer::Capture).calls,
        models * (2 + 2 * checkpoints)
    );
    assert_eq!(t.layer(Layer::Restore).calls, models * rollbacks);
}

#[test]
fn self_time_excludes_child_spans() {
    let spin = |d: Duration| {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    };
    trace::reset();
    trace::span(Layer::CoreTick, || {
        spin(Duration::from_millis(2));
        trace::span(Layer::Stream, || spin(Duration::from_millis(3)));
    });
    let t = trace::take();
    let (core, stream) = (t.layer(Layer::CoreTick), t.layer(Layer::Stream));

    assert_eq!((core.calls, core.child_calls), (1, 1));
    assert_eq!(core.child_ns, stream.total_ns);
    assert_eq!(
        t.top_level().child_calls,
        1,
        "only the outer span is top-level"
    );
    // Generous above: the spin only bounds the time from below when the
    // test thread is preempted.
    let self_ms = (core.total_ns - core.child_ns) as f64 / 1e6;
    assert!(
        (1.9..50.0).contains(&self_ms),
        "core self time {self_ms} ms"
    );
    assert!(stream.total_ns >= 3_000_000);
}
