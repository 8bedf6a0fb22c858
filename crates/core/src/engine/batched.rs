//! The batched BSP engine: quantum-compiled stepping.
//!
//! The paper's quantum scheme is a *synchronization policy*: cores run one
//! quantum of target cycles, then a barrier services every cross-core
//! event in timestamp order. The other two engines still dispatch that
//! policy cycle by cycle — burst scheduling, window bookkeeping and queue
//! churn on every iteration. This engine compiles the policy into an
//! *execution strategy* (the static-scheduling trick of Manticore and the
//! Berkeley emulation engine): each core runs its whole quantum in a
//! single [`CoreModel::run_window`] call over its hot state, emitting
//! cross-core events into a per-core staging buffer, and the engine only
//! exists at quantum boundaries — where the staged buffers are merged into
//! the global queue and serviced in timestamp order, exactly as the
//! barrier would have.
//!
//! Because a quantum run services events in timestamp order, the paper's
//! monitoring variables still run at every boundary: violation detection,
//! the adaptive controller's sampling cadence and the interval tracker all
//! observe the same state they would under the sequential engine. The
//! result is bit-identical to the sequential engine under any barrier
//! scheme (see the conformance oracle) at a fraction of the host cost.
//!
//! Documented divergences (all invisible to the simulated outcome):
//!
//! * the cycle cap and checkpoint trigger are honoured at the first
//!   quantum boundary at or past them, never mid-window;
//! * metrics/trace sampling happens at boundaries, where every core's
//!   drift is zero by construction.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crate::checkpoint::{CheckpointMode, Checkpointable};
use crate::engine::{
    CheckpointView, CoreModel, EngineConfig, EngineError, EngineResume, FinishReason, SaveHook,
    ServiceSink, UncoreModel,
};
use crate::event::{CoreId, Inbox, Timestamped};
use crate::obs::live::NO_BOUND;
use crate::obs::{
    LiveStats, MetricsRegistry, ObsData, Phase, ProfSite, Profiler, QueueKind, TraceEvent, Tracer,
};
use crate::scheme::PaceSample;
use crate::speculative::{IntervalTracker, SpeculationStats};
use crate::stats::{Counters, SimReport};
use crate::time::Cycle;
use crate::violation::ViolationTally;

/// The standing checkpoint: full restorable state at the last committed
/// boundary (same contents as the sequential engine's snapshot; the
/// batched engine never rolls back, so it exists only to feed delta
/// capture and the durable save hook).
struct Snapshot<C: CoreModel, U> {
    cores: Vec<C>,
    uncore: U,
    core_gens: Vec<u64>,
    uncore_gen: u64,
}

/// Quantum-compiled BSP engine: steps all cores a full quantum per
/// iteration over their hot state, resolving cross-core interaction only
/// at quantum boundaries.
///
/// Only meaningful under barrier schemes (`Scheme::Quantum`,
/// `Scheme::CycleByCycle`); [`run`](BatchedEngine::run) panics on greedy
/// schemes — the CLI validates this before construction and exits with a
/// usage error instead.
pub struct BatchedEngine<C: CoreModel, U: UncoreModel<C::Event>> {
    cores: Vec<C>,
    uncore: U,
    cfg: EngineConfig,
    save_hook: Option<SaveHook<C, U>>,
    resume: Option<EngineResume<C, U>>,
}

impl<C, U> BatchedEngine<C, U>
where
    C: CoreModel + Checkpointable,
    U: UncoreModel<C::Event> + Checkpointable,
{
    /// Creates an engine over the given target cores and uncore.
    pub fn new(cores: Vec<C>, uncore: U, cfg: EngineConfig) -> Self {
        BatchedEngine {
            cores,
            uncore,
            cfg,
            save_hook: None,
            resume: None,
        }
    }

    /// Installs a hook invoked after every committed checkpoint with a
    /// borrowed [`CheckpointView`] of the restorable state; the hook
    /// returns the number of bytes it persisted (or `None` on failure).
    #[must_use]
    pub fn with_save_hook(mut self, hook: SaveHook<C, U>) -> Self {
        self.save_hook = Some(hook);
        self
    }

    /// Starts the run from previously persisted state instead of cycle 0.
    #[must_use]
    pub fn with_resume(mut self, resume: EngineResume<C, U>) -> Self {
        self.resume = Some(resume);
        self
    }

    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NoCores`] for an empty core set and
    /// [`EngineError::Stalled`] if (defensively) the pacer publishes an
    /// empty window.
    ///
    /// # Panics
    ///
    /// Panics if the configured scheme is not a barrier scheme: the
    /// quantum-compiled loop is only equivalent to the paper's semantics
    /// when every cross-core event defers to a window boundary.
    pub fn run(self) -> Result<SimReport, EngineError> {
        let BatchedEngine {
            mut cores,
            mut uncore,
            cfg,
            mut save_hook,
            resume,
        } = self;
        let n = cores.len();
        if n == 0 {
            return Err(EngineError::NoCores);
        }
        let started = Instant::now();

        let mut pacer = cfg.scheme.clone().into_pacer();
        assert!(
            pacer.barrier_service(),
            "BatchedEngine requires a barrier scheme (quantum): greedy \
             schemes service events mid-window, which the batched loop \
             cannot observe"
        );
        let sample_period = cfg.effective_sample_period();
        let mut inboxes: Vec<Inbox<C::Event>> = (0..n).map(|_| Inbox::new()).collect();
        let mut staged: Vec<Vec<Timestamped<C::Event>>> = (0..n).map(|_| Vec::new()).collect();
        let mut sink: ServiceSink<C::Event> = ServiceSink::new();

        let mut tally = ViolationTally::new();
        let mut detected = ViolationTally::new();
        let mut committed: u64 = 0;
        let mut next_sample = sample_period;
        let mut last_sample_tally = tally;
        let mut bound_trace: Vec<(Cycle, u64)> = Vec::new();

        let tracer = match cfg.obs {
            Some(o) => Tracer::new(o.trace_capacity),
            None => Tracer::disabled(),
        };
        let mut th = tracer.handle();

        let prof = cfg.prof.clone().unwrap_or_else(Profiler::disabled);
        let ph = prof.handle();

        let live_stats = Arc::new(LiveStats::new());
        live_stats
            .commit_target
            .store(cfg.commit_target, Ordering::Relaxed);
        let live_handle = cfg
            .live
            .as_ref()
            .filter(|l| l.has_sink())
            .map(|l| crate::obs::live::spawn(l.clone(), Arc::clone(&live_stats), prof.clone()));
        let live_on = live_handle.is_some();

        let mut metrics = MetricsRegistry::new(cfg.obs.map_or(1024, |o| o.sample_every));
        let drift_ids: Vec<_> = (0..n)
            .map(|i| metrics.intern_gauge(&format!("drift.core{i}")))
            .collect();
        let slack_bound_id = metrics.intern_gauge("slack_bound");
        let violation_rate_id = metrics.intern_gauge("violation_rate");
        let globalq_depth_id = metrics.intern_gauge("globalq_depth");
        let globalq_depth_hist = metrics.intern_histogram("globalq_depth");
        let persist_bytes_id = metrics.intern_gauge("persist_bytes");
        let trace_dropped_id = metrics.intern_gauge("trace_dropped");
        let mut last_metrics_detected = 0u64;
        let mut last_metrics_cycle = 0u64;

        // Speculation: the quantum scheme is violation-free by
        // construction (every boundary services in timestamp order), so
        // this engine carries the checkpoint half only — no rollback path.
        let spec = cfg.speculation;
        let mut tracker = spec.map(|s| IntervalTracker::new(s.interval));
        let mut spec_stats = SpeculationStats::default();
        let mut next_cp_trigger: u64 = spec.map_or(u64::MAX, |s| s.interval);
        let cp_mode = spec.map_or(CheckpointMode::Full, |s| s.mode);

        let mut max_spread: u64 = 0;
        let mut start_global = Cycle::ZERO;
        if let Some(res) = resume {
            if res.cores.len() != n {
                return Err(EngineError::Resume(format!(
                    "snapshot holds {} cores but the engine was built with {n}",
                    res.cores.len()
                )));
            }
            start_global = res.global;
            cores.clear();
            inboxes.clear();
            for (core, inbox) in res.cores {
                cores.push(core);
                inboxes.push(inbox);
            }
            uncore = res.uncore;
            pacer = res.pacer;
            committed = res.committed;
            tally = res.tally;
            detected = res.detected;
            next_sample = res.next_sample;
            last_sample_tally = res.last_sample_tally;
            spec_stats = res.spec_stats;
            if let Some(tr) = res.tracker {
                tracker = Some(tr);
            }
            // res.rng is ignored: this engine has no burst scheduler.
            bound_trace = res.bound_trace;
            max_spread = res.max_spread;
            last_metrics_detected = detected.total();
            last_metrics_cycle = start_global.as_u64();
            next_cp_trigger = spec.map_or(u64::MAX, |s| start_global.as_u64() + s.interval);
            th.record(
                start_global,
                TraceEvent::StateRestore {
                    global: start_global,
                },
            );
        }

        let mut snapshot: Option<Snapshot<C, U>> = if spec.is_some() {
            // The initial state is trivially a (free) checkpoint; under
            // delta mode, seed every capture baseline (see the sequential
            // engine).
            let (core_gens, uncore_gen) = if cp_mode == CheckpointMode::Delta {
                let gens: Vec<u64> = cores
                    .iter_mut()
                    .map(|c| {
                        let g = c.generation();
                        let _ = c.capture_delta(g);
                        g
                    })
                    .collect();
                let ug = uncore.generation();
                let _ = uncore.capture_delta(ug);
                (gens, ug)
            } else {
                (vec![0; n], 0)
            };
            Some(Snapshot {
                cores: cores.clone(),
                uncore: uncore.clone(),
                core_gens,
                uncore_gen,
            })
        } else {
            None
        };

        let mut global = start_global;
        let finish_reason;

        loop {
            // `global` is always a serviced boundary here: all locals
            // equal, the global queue empty. These are exactly the states
            // at which the sequential engine's finish checks can pass
            // under a barrier scheme, so stopping here is bit-identical.
            if committed >= cfg.commit_target {
                finish_reason = FinishReason::CommitTarget;
                break;
            }
            if global.as_u64() >= cfg.max_cycles {
                finish_reason = FinishReason::CycleCap;
                break;
            }

            if let Some(tr) = &mut tracker {
                tr.close_intervals_up_to(global);
            }

            // Violation-rate sampling and adaptive feedback. Under a
            // barrier scheme the tally only changes at boundaries, so
            // firing the crossings here (instead of mid-window) hands the
            // pacer identical samples.
            while global.as_u64() >= next_sample {
                let delta = tally.since(&last_sample_tally);
                let sample = PaceSample {
                    global: Cycle::new(next_sample),
                    window_cycles: sample_period,
                    window_violations: delta.total(),
                };
                let bound_before = pacer.current_bound();
                pacer.on_sample(&sample);
                last_sample_tally = tally;
                if let Some(b) = pacer.current_bound() {
                    bound_trace.push((Cycle::new(next_sample), b));
                    if let Some(old) = bound_before {
                        if old != b {
                            th.record(
                                Cycle::new(next_sample),
                                TraceEvent::BoundChange {
                                    old,
                                    new: b,
                                    rate: sample.rate(),
                                },
                            );
                        }
                    }
                }
                next_sample += sample_period;
            }

            if cfg.obs.is_some() && metrics.sample_ready(global) {
                sample_boundary_metrics(BatchSampleCtx {
                    metrics: &mut metrics,
                    th: &mut th,
                    drift_ids: &drift_ids,
                    slack_bound_id,
                    violation_rate_id,
                    globalq_depth_id,
                    globalq_depth_hist,
                    trace_dropped_id,
                    tracer: &tracer,
                    cores: n,
                    global,
                    bound: pacer.current_bound(),
                    detected_total: detected.total(),
                    last_metrics_cycle: &mut last_metrics_cycle,
                    last_metrics_detected: &mut last_metrics_detected,
                });
            }

            if live_on {
                live_stats.global.store(global.as_u64(), Ordering::Relaxed);
                live_stats.committed.store(committed, Ordering::Relaxed);
                live_stats
                    .bound
                    .store(pacer.current_bound().unwrap_or(NO_BOUND), Ordering::Relaxed);
                live_stats
                    .violations
                    .store(tally.total(), Ordering::Relaxed);
                live_stats
                    .dropped_traces
                    .store(tracer.dropped_so_far(), Ordering::Relaxed);
                live_stats
                    .checkpoints
                    .store(spec_stats.checkpoints, Ordering::Relaxed);
            }

            // Checkpoint at the first boundary at or past the trigger.
            // Every event at or below the boundary has been serviced, so
            // queues are empty and the state is restorable as-is.
            if let Some(sp) = spec.filter(|_| global.as_u64() >= next_cp_trigger) {
                spec_stats.checkpoints += 1;
                th.record(
                    Cycle::new(next_cp_trigger.min(global.as_u64())),
                    TraceEvent::Checkpoint {
                        ordinal: spec_stats.checkpoints,
                        overshoot: global.as_u64().saturating_sub(next_cp_trigger),
                    },
                );
                uncore.compact_monitors(global);
                {
                    let _span = ph.enter(ProfSite::CheckpointCapture);
                    let snap = snapshot.as_mut().expect("spec enabled");
                    match cp_mode {
                        CheckpointMode::Full => {
                            snap.cores = cores.clone();
                            snap.uncore = uncore.clone();
                        }
                        CheckpointMode::Delta => {
                            let _apply = ph.enter(ProfSite::CheckpointApply);
                            for (i, c) in cores.iter_mut().enumerate() {
                                let d = c.capture_delta(snap.core_gens[i]);
                                snap.cores[i].apply_delta(d);
                                snap.core_gens[i] = c.generation();
                            }
                            let du = uncore.capture_delta(snap.uncore_gen);
                            snap.uncore.apply_delta(du);
                            snap.uncore_gen = uncore.generation();
                        }
                    }
                }
                if let Some(hook) = save_hook.as_mut() {
                    let _span = ph.enter(ProfSite::PersistIo);
                    let view = CheckpointView {
                        ordinal: spec_stats.checkpoints,
                        global,
                        cores: cores.iter().zip(inboxes.iter()).collect(),
                        uncore: &uncore,
                        committed,
                        tally,
                        detected,
                        next_sample,
                        last_sample_tally,
                        spec_stats,
                        tracker: tracker.as_ref(),
                        pacer: &*pacer,
                        rng: None,
                        bound_trace: &bound_trace,
                        max_spread,
                    };
                    let bytes = hook(&view).unwrap_or(0);
                    th.record(
                        global,
                        TraceEvent::StatePersist {
                            ordinal: spec_stats.checkpoints,
                            bytes,
                        },
                    );
                    metrics.gauge_by(persist_bytes_id, global, bytes as f64);
                }
                next_cp_trigger = global.as_u64() + sp.interval;
            }

            let window_end = pacer.window_end(global);
            if window_end <= global {
                return Err(EngineError::Stalled { at: global });
            }
            max_spread = max_spread.max(window_end - global);

            // The hot loop: every core runs the whole window in one call,
            // staging cross-core events locally. No scheduler, no queue
            // touch, no bookkeeping between cycles.
            for (i, core) in cores.iter_mut().enumerate() {
                th.record(
                    global,
                    TraceEvent::PhaseBegin {
                        core: CoreId::new(i as u16),
                        phase: Phase::Run,
                    },
                );
                {
                    let _span = ph.enter(ProfSite::BatchedRun);
                    committed +=
                        core.run_window(global, window_end, &mut inboxes[i], &mut staged[i]);
                }
                th.record(
                    window_end,
                    TraceEvent::PhaseEnd {
                        core: CoreId::new(i as u16),
                        phase: Phase::Run,
                    },
                );
            }

            // Boundary resolution: k-way merge of the staged buffers in
            // timestamp order. Each buffer is already sorted (a core stages
            // events as its clock advances), so a linear min-scan over the
            // per-core heads replaces a global-queue heap's push/pop sift
            // pair per event. The scan replaces its candidate only on a
            // strictly smaller timestamp and visits cores in index order,
            // so ties resolve to the lowest core id, then staging order —
            // identical to the sequential engine's pop order (timestamp,
            // then core id as fixed bus arbitration priority, then FIFO).
            {
                let _span = ph.enter(ProfSite::BatchedResolve);
                let mut heads: Vec<_> = staged.iter_mut().map(|b| b.drain(..).peekable()).collect();
                loop {
                    let mut best: Option<(Cycle, usize)> = None;
                    for (i, it) in heads.iter_mut().enumerate() {
                        if let Some(head) = it.peek() {
                            if best.is_none_or(|(ts, _)| head.ts < ts) {
                                best = Some((head.ts, i));
                            }
                        }
                    }
                    let Some((_, idx)) = best else { break };
                    let from = CoreId::new(idx as u16);
                    let ev = heads[idx].next().expect("peeked head");
                    {
                        uncore.service(from, ev, &mut sink);
                        for (to, out) in sink.take_deliveries() {
                            inboxes[to.index()].deliver(out);
                        }
                        for v in sink.take_violations() {
                            tally.record(v.kind);
                            detected.record(v.kind);
                            th.record(
                                v.ts,
                                TraceEvent::Violation {
                                    kind: v.kind,
                                    core: from,
                                    ts: v.ts,
                                    high_water: v.high_water,
                                },
                            );
                            if let Some(tr) = tracker.as_mut() {
                                tr.observe_violation(v.ts);
                            }
                            if let Some(sc) = &spec {
                                debug_assert!(
                                    !sc.rollback_on.selects(v.kind),
                                    "timestamp-ordered boundary servicing cannot \
                                     produce rollback-selected violations"
                                );
                            }
                        }
                    }
                }
            }

            global = window_end;
        }

        if let Some(tr) = &mut tracker {
            tr.close_intervals_up_to(global);
        }

        // Terminal gauge flush (see the sequential engine's epilogue).
        if cfg.obs.is_some() && global.as_u64() > last_metrics_cycle {
            sample_boundary_metrics(BatchSampleCtx {
                metrics: &mut metrics,
                th: &mut th,
                drift_ids: &drift_ids,
                slack_bound_id,
                violation_rate_id,
                globalq_depth_id,
                globalq_depth_hist,
                trace_dropped_id,
                tracer: &tracer,
                cores: n,
                global,
                bound: pacer.current_bound(),
                detected_total: detected.total(),
                last_metrics_cycle: &mut last_metrics_cycle,
                last_metrics_detected: &mut last_metrics_detected,
            });
        }

        let mut kernel = Counters::new();
        kernel.set("checkpoints", spec_stats.checkpoints);
        kernel.set("rollbacks", spec_stats.rollbacks);
        kernel.set("wasted_cycles", spec_stats.wasted_cycles);
        kernel.set("replay_cycles", spec_stats.replay_cycles);
        kernel.set("violations_detected_total", detected.total());
        kernel.set(
            "violations_detected_bus",
            detected.count(crate::violation::ViolationKind::Bus),
        );
        kernel.set(
            "violations_detected_map",
            detected.count(crate::violation::ViolationKind::Map),
        );
        kernel.set(
            "violations_detected_directory",
            detected.count(crate::violation::ViolationKind::Directory),
        );
        kernel.set(
            "finish_commit_target",
            u64::from(finish_reason == FinishReason::CommitTarget),
        );
        kernel.set("max_clock_spread", max_spread);
        if let Some(tr) = &tracker {
            kernel.set("intervals_total", tr.intervals_total());
            kernel.set("intervals_violating", tr.intervals_violating());
            kernel.set(
                "mean_first_violation_distance_x1000",
                (tr.mean_first_distance() * 1000.0).round() as u64,
            );
        }

        let obs = cfg.obs.map(|_| {
            th.flush();
            let (records, dropped) = tracer.drain();
            ObsData {
                cores: n,
                records,
                dropped,
                metrics,
            }
        });

        let wall = started.elapsed();

        if live_on {
            live_stats.global.store(global.as_u64(), Ordering::Relaxed);
            live_stats.committed.store(committed, Ordering::Relaxed);
            live_stats
                .violations
                .store(tally.total(), Ordering::Relaxed);
        }
        if let Some(h) = live_handle {
            h.finish();
        }

        Ok(SimReport {
            global_cycles: global.as_u64(),
            committed,
            violations: tally,
            wall,
            per_core: cores.iter().map(CoreModel::counters).collect(),
            uncore: uncore.counters(),
            kernel,
            bound_trace,
            obs,
            prof: prof.is_enabled().then(|| prof.snapshot(wall, 1)),
        })
    }
}

/// Borrowed context for one boundary metrics sample. At a boundary every
/// core's local clock equals global time, so the per-core drift gauges are
/// zero by construction — still emitted so CSV exports keep the same
/// column set as the other engines.
struct BatchSampleCtx<'a> {
    metrics: &'a mut MetricsRegistry,
    th: &'a mut crate::obs::TraceHandle,
    drift_ids: &'a [crate::obs::GaugeId],
    slack_bound_id: crate::obs::GaugeId,
    violation_rate_id: crate::obs::GaugeId,
    globalq_depth_id: crate::obs::GaugeId,
    globalq_depth_hist: crate::obs::HistId,
    trace_dropped_id: crate::obs::GaugeId,
    tracer: &'a Tracer,
    cores: usize,
    global: Cycle,
    bound: Option<u64>,
    detected_total: u64,
    last_metrics_cycle: &'a mut u64,
    last_metrics_detected: &'a mut u64,
}

/// Emits one metrics sample at a quantum boundary.
fn sample_boundary_metrics(ctx: BatchSampleCtx<'_>) {
    let BatchSampleCtx {
        metrics,
        th,
        drift_ids,
        slack_bound_id,
        violation_rate_id,
        globalq_depth_id,
        globalq_depth_hist,
        trace_dropped_id,
        tracer,
        cores,
        global,
        bound,
        detected_total,
        last_metrics_cycle,
        last_metrics_detected,
    } = ctx;
    for (i, &drift_id) in drift_ids.iter().enumerate().take(cores) {
        metrics.gauge_by(drift_id, global, 0.0);
        th.record(
            global,
            TraceEvent::LocalTimeSample {
                core: CoreId::new(i as u16),
                cycle: global,
            },
        );
    }
    if let Some(b) = bound {
        metrics.gauge_by(slack_bound_id, global, b as f64);
    }
    let elapsed = global.as_u64().saturating_sub(*last_metrics_cycle);
    let live_rate = if elapsed == 0 {
        0.0
    } else {
        (detected_total - *last_metrics_detected) as f64 / elapsed as f64
    };
    *last_metrics_cycle = global.as_u64();
    *last_metrics_detected = detected_total;
    metrics.gauge_by(violation_rate_id, global, live_rate);
    // The global queue is empty at every boundary (it only fills inside
    // the resolve span), so the depth gauge is structurally zero.
    metrics.gauge_by(globalq_depth_id, global, 0.0);
    metrics.histogram_by(globalq_depth_hist).record(0);
    th.record(
        global,
        TraceEvent::QueueDepth {
            q: QueueKind::Global,
            len: 0,
        },
    );
    metrics.gauge_by(trace_dropped_id, global, tracer.dropped_so_far() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SequentialEngine, TickCtx};
    use crate::scheme::Scheme;
    use crate::speculative::SpeculationConfig;
    use crate::violation::{TimestampMonitor, ViolationEvent, ViolationKind};

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Toy {
        Ping,
        Pong,
    }

    /// Toy core: commits one instruction per cycle and pings the uncore
    /// every `period` cycles. Uses the *default* `run_window` (the
    /// tick-by-tick loop), so these tests pin the engine machinery, not a
    /// model's fast-forward override.
    #[derive(Debug, Clone)]
    struct ToyCore {
        period: u64,
        committed: u64,
        pongs: u64,
    }

    impl ToyCore {
        fn new(period: u64) -> Self {
            ToyCore {
                period,
                committed: 0,
                pongs: 0,
            }
        }
    }

    impl CoreModel for ToyCore {
        type Event = Toy;

        fn tick(&mut self, ctx: &mut TickCtx<'_, Toy>) -> u32 {
            while let Some(ev) = ctx.pop_event() {
                assert_eq!(ev.payload, Toy::Pong);
                self.pongs += 1;
            }
            if ctx.now().as_u64().is_multiple_of(self.period) {
                ctx.emit(Toy::Ping);
            }
            self.committed += 1;
            1
        }

        fn committed(&self) -> u64 {
            self.committed
        }

        fn counters(&self) -> Counters {
            let mut c = Counters::new();
            c.set("committed", self.committed);
            c.set("pongs", self.pongs);
            c
        }
    }

    /// Toy uncore: one monitored resource, asserting in `service` that
    /// the stream arrives in canonical order — timestamp first, ties
    /// broken by core id. Any engine that merges staged buffers wrong
    /// fails here directly, not just through the monitor.
    #[derive(Debug, Clone, Default)]
    struct ToyUncore {
        monitor: TimestampMonitor,
        serviced: u64,
        last: Option<(u64, u16)>,
    }

    impl UncoreModel<Toy> for ToyUncore {
        fn service(&mut self, from: CoreId, ev: Timestamped<Toy>, sink: &mut ServiceSink<Toy>) {
            self.serviced += 1;
            let key = (ev.ts.as_u64(), from.index() as u16);
            if let Some(prev) = self.last {
                assert!(
                    prev <= key,
                    "service order regressed: {prev:?} then {key:?}"
                );
            }
            self.last = Some(key);
            if self.monitor.observe(ev.ts) {
                sink.report_violation(ViolationEvent {
                    kind: ViolationKind::Bus,
                    ts: ev.ts,
                    high_water: self.monitor.high_water(),
                });
            }
            sink.deliver(from, Timestamped::new(ev.ts + 5, Toy::Pong));
        }

        fn counters(&self) -> Counters {
            let mut c = Counters::new();
            c.set("serviced", self.serviced);
            c
        }
    }

    crate::impl_checkpointable_by_clone!(ToyCore, ToyUncore);

    fn toy_cores(n: usize) -> Vec<ToyCore> {
        (0..n).map(|i| ToyCore::new(3 + (i as u64 % 4))).collect()
    }

    fn run_batched(scheme: Scheme, target: u64) -> SimReport {
        let cfg = EngineConfig::new(scheme, target);
        BatchedEngine::new(toy_cores(4), ToyUncore::default(), cfg)
            .run()
            .expect("run succeeds")
    }

    #[test]
    fn empty_core_set_is_an_error() {
        let cfg = EngineConfig::new(Scheme::Quantum { quantum: 50 }, 10);
        let eng: BatchedEngine<ToyCore, ToyUncore> =
            BatchedEngine::new(Vec::new(), ToyUncore::default(), cfg);
        assert_eq!(eng.run().unwrap_err(), EngineError::NoCores);
    }

    #[test]
    #[should_panic(expected = "requires a barrier scheme")]
    fn greedy_schemes_are_rejected() {
        let _ = run_batched(Scheme::BoundedSlack { bound: 16 }, 1000);
    }

    #[test]
    fn quantum_matches_the_sequential_engine_bit_identically() {
        // The whole point of the engine: same quantum scheme, same
        // simulated outcome, regardless of the sequential engine's seed.
        for seed in [1u64, 7, 42] {
            let mut seq_cfg = EngineConfig::new(Scheme::Quantum { quantum: 50 }, 6000);
            seq_cfg.seed = seed;
            let seq = SequentialEngine::new(toy_cores(4), ToyUncore::default(), seq_cfg)
                .run()
                .unwrap();
            let bat = run_batched(Scheme::Quantum { quantum: 50 }, 6000);
            assert_eq!(seq.global_cycles, bat.global_cycles, "seed {seed}");
            assert_eq!(seq.committed, bat.committed, "seed {seed}");
            assert_eq!(seq.violations, bat.violations, "seed {seed}");
            assert_eq!(seq.per_core, bat.per_core, "seed {seed}");
            assert_eq!(seq.uncore, bat.uncore, "seed {seed}");
        }
    }

    #[test]
    fn cycle_by_cycle_also_matches_sequential() {
        // CC is the degenerate quantum-1 barrier scheme; the batched loop
        // must reproduce it exactly too.
        let seq = SequentialEngine::new(
            toy_cores(4),
            ToyUncore::default(),
            EngineConfig::new(Scheme::CycleByCycle, 2000),
        )
        .run()
        .unwrap();
        let bat = run_batched(Scheme::CycleByCycle, 2000);
        assert_eq!(seq.global_cycles, bat.global_cycles);
        assert_eq!(seq.committed, bat.committed);
        assert_eq!(seq.per_core, bat.per_core);
        assert_eq!(seq.uncore, bat.uncore);
    }

    #[test]
    fn quantum_has_zero_monitor_violations() {
        let r = run_batched(Scheme::Quantum { quantum: 50 }, 6000);
        assert_eq!(r.violations.total(), 0);
        assert!(r.uncore.get("serviced") > 0);
        assert!(r.core_total("pongs") > 0);
    }

    #[test]
    fn staged_events_resolve_in_timestamp_order() {
        // Two cores race events inside every quantum (periods 3 and 4
        // interleave their emission times, tying at every multiple of
        // 12); boundary resolution must service the merged stream in
        // timestamp order with ties broken by core id — ToyUncore
        // asserts exactly that on every service call.
        let cfg = EngineConfig::new(Scheme::Quantum { quantum: 64 }, 2000);
        let cores = vec![ToyCore::new(3), ToyCore::new(4)];
        let r = BatchedEngine::new(cores, ToyUncore::default(), cfg)
            .run()
            .unwrap();
        assert_eq!(r.violations.total(), 0);
        assert!(r.uncore.get("serviced") > 100, "the race actually ran");
    }

    #[test]
    fn cycle_cap_stops_at_a_boundary() {
        let mut cfg = EngineConfig::new(Scheme::Quantum { quantum: 50 }, u64::MAX);
        cfg.max_cycles = 500;
        let r = BatchedEngine::new(toy_cores(2), ToyUncore::default(), cfg)
            .run()
            .unwrap();
        assert_eq!(r.global_cycles, 500);
        assert_eq!(r.kernel.get("finish_commit_target"), 0);
    }

    #[test]
    fn checkpoint_only_counts_boundary_checkpoints() {
        let mut cfg = EngineConfig::new(Scheme::Quantum { quantum: 50 }, 40_000);
        cfg.speculation = Some(SpeculationConfig::checkpoint_only(1000));
        let r = BatchedEngine::new(toy_cores(4), ToyUncore::default(), cfg)
            .run()
            .unwrap();
        let cps = r.kernel.get("checkpoints");
        let expected = r.global_cycles / 1000;
        assert!(
            cps >= expected.saturating_sub(2) && cps <= expected + 2,
            "expected about {expected} checkpoints, took {cps}"
        );
        assert_eq!(r.kernel.get("rollbacks"), 0);
    }

    #[test]
    fn save_hook_fires_at_quantum_boundaries_without_rng() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let seen: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        let mut cfg = EngineConfig::new(Scheme::Quantum { quantum: 50 }, 20_000);
        cfg.speculation = Some(SpeculationConfig::checkpoint_only(700));
        let hook: SaveHook<ToyCore, ToyUncore> = Box::new(move |view| {
            assert!(view.rng.is_none(), "the batched engine has no burst RNG");
            sink.borrow_mut().push(view.global.as_u64());
            Some(1)
        });
        let _ = BatchedEngine::new(toy_cores(4), ToyUncore::default(), cfg)
            .with_save_hook(hook)
            .run()
            .unwrap();
        let globals = seen.borrow();
        assert!(!globals.is_empty(), "hook must fire");
        assert!(
            globals.iter().all(|g| g.is_multiple_of(50)),
            "checkpoints land exactly on quantum boundaries: {globals:?}"
        );
    }

    #[test]
    fn per_core_counters_sum_to_committed() {
        let r = run_batched(Scheme::Quantum { quantum: 32 }, 5000);
        assert_eq!(r.core_total("committed"), r.committed);
    }
}
