//! The deterministic sequential engine.
//!
//! Runs the entire simulation on the calling thread while *emulating* the
//! parallel execution of SlackSim: each target core has a local time capped
//! by the pacer's window, and a seeded burst scheduler decides which core
//! advances next and for how many cycles — a reproducible stand-in for the
//! host OS scheduler's nondeterminism. The manager role (global queue
//! servicing, violation accounting, adaptive sampling, checkpointing and
//! rollback) is interleaved exactly as the threaded engine performs it.
//!
//! Because every run with the same configuration and seed is bit-identical,
//! this engine is the vehicle for the accuracy experiments (Figure 3) and
//! for the fully-deployed speculative rollback extension.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crate::checkpoint::{CheckpointMode, Checkpointable};
use crate::engine::{
    CheckpointView, CoreModel, EngineConfig, EngineError, EngineResume, FinishReason, SaveHook,
    ServiceSink, TickCtx, UncoreModel,
};
use crate::event::{CoreId, GlobalQueue, Inbox, Timestamped};
use crate::obs::live::NO_BOUND;
use crate::obs::{
    GaugeId, HistId, LiveStats, MetricsRegistry, ObsData, Phase, ProfSite, Profiler, QueueKind,
    TraceEvent, TraceHandle, Tracer,
};
use crate::rng::Xoshiro256;
use crate::scheme::{PaceSample, Pacer};
use crate::speculative::{IntervalTracker, SpeculationStats};
use crate::stats::{Counters, SimReport};
use crate::time::Cycle;
use crate::violation::ViolationTally;

/// Execution mode of the speculation state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Running under the configured base scheme.
    Base,
    /// Replaying in cycle-by-cycle mode after a rollback, until the next
    /// checkpoint boundary (guarantees forward progress, paper §5.1).
    Replay,
}

/// Everything restored on rollback. Always holds *full* state: under
/// [`CheckpointMode::Delta`] the model copies are brought up to date by
/// applying capture deltas in place (instead of re-cloning), and rollback
/// copies back only the units that diverged since the checkpoint
/// (`restore_from`) — the snapshot's *contents* are identical in both
/// modes, only the maintenance cost differs.
struct Snapshot<C: CoreModel, U> {
    cores: Vec<C>,
    uncore: U,
    /// Per-core model generation at the checkpoint (delta-mode baseline
    /// tokens; zero and unused under full mode).
    core_gens: Vec<u64>,
    /// Uncore generation at the checkpoint.
    uncore_gen: u64,
    locals: Vec<Cycle>,
    inboxes: Vec<Inbox<C::Event>>,
    tally: ViolationTally,
    committed: u64,
    global: Cycle,
    pacer: Box<dyn Pacer>,
    next_sample: u64,
    last_sample_tally: ViolationTally,
}

/// Deterministic single-threaded slack-simulation engine.
///
/// # Examples
///
/// See the crate-level documentation and the integration tests; the engine
/// is generic and needs a concrete [`CoreModel`]/[`UncoreModel`] pair such
/// as the ones in `slacksim-cmp`.
pub struct SequentialEngine<C: CoreModel, U: UncoreModel<C::Event>> {
    cores: Vec<C>,
    uncore: U,
    cfg: EngineConfig,
    save_hook: Option<SaveHook<C, U>>,
    resume: Option<EngineResume<C, U>>,
}

impl<C, U> SequentialEngine<C, U>
where
    C: CoreModel + Checkpointable,
    U: UncoreModel<C::Event> + Checkpointable,
{
    /// Creates an engine over the given target cores and uncore.
    pub fn new(cores: Vec<C>, uncore: U, cfg: EngineConfig) -> Self {
        SequentialEngine {
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
    /// [`EngineError::Stalled`] if (defensively) no core can advance.
    pub fn run(self) -> Result<SimReport, EngineError> {
        let SequentialEngine {
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
        let sample_period = cfg.effective_sample_period();
        let mut locals = vec![Cycle::ZERO; n];
        let mut inboxes: Vec<Inbox<C::Event>> = (0..n).map(|_| Inbox::new()).collect();
        let mut gq: GlobalQueue<C::Event> = GlobalQueue::new();
        let mut sink: ServiceSink<C::Event> = ServiceSink::new();
        let mut outbox: Vec<Timestamped<C::Event>> = Vec::new();
        let mut rng = Xoshiro256::new(cfg.seed);

        // Violation accounting: `tally` is part of the restorable state,
        // `detected` is monotone (counts violations even if later rolled
        // back).
        let mut tally = ViolationTally::new();
        let mut detected = ViolationTally::new();
        let mut committed: u64 = 0;
        let mut next_sample = sample_period;
        let mut last_sample_tally = tally;
        let mut bound_trace: Vec<(Cycle, u64)> = Vec::new();

        // Observability: a disabled tracer keeps every record call at one
        // relaxed atomic load when no ObsConfig was given.
        let tracer = match cfg.obs {
            Some(o) => Tracer::new(o.trace_capacity),
            None => Tracer::disabled(),
        };
        let mut th = tracer.handle();

        // Host-time profiler: same disabled-cost contract as the tracer.
        // The whole run is one thread, so the coverage denominator is
        // wall * 1.
        let prof = cfg.prof.clone().unwrap_or_else(Profiler::disabled);
        let ph = prof.handle();

        // Live telemetry: the emitter is a plain observer thread reading
        // relaxed-published atomics; the simulation loop never blocks on it.
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
        // Intern the per-core and scalar gauge keys once so the sampling
        // hot path below never formats or allocates key strings.
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

        // Speculation state.
        let spec = cfg.speculation;
        let mut tracker = spec.map(|s| IntervalTracker::new(s.interval));
        let mut spec_stats = SpeculationStats::default();
        let mut mode = Mode::Base;
        let mut stop_at: Option<Cycle> = None;
        let mut next_cp_trigger: u64 = spec.map_or(u64::MAX, |s| s.interval);
        let mut replay_start = Cycle::ZERO;
        let mut pending_rollback = false;
        let cp_mode = spec.map_or(CheckpointMode::Full, |s| s.mode);

        // Largest observed clock spread (max local − min local): the
        // empirical slack, reported so tests can assert the bound.
        let mut max_spread: u64 = 0;
        // Resume: replace the freshly-built state wholesale with the
        // persisted snapshot before the first snapshot baseline is taken,
        // so rollback and delta capture both measure from restored state.
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
            if let Some(r) = res.rng {
                rng = r;
            }
            bound_trace = res.bound_trace;
            max_spread = res.max_spread;
            locals = vec![start_global; n];
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
            // The initial state is trivially a (free) checkpoint. Under
            // delta mode, seed every model's capture baseline at its
            // current generation (an empty capture) so the first real
            // capture resolves exact per-component baselines.
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
                locals: locals.clone(),
                inboxes: inboxes.clone(),
                tally,
                committed,
                global: start_global,
                pacer: pacer.clone_box(),
                next_sample,
                last_sample_tally,
            })
        } else {
            None
        };

        let mut runnable: Vec<usize> = Vec::with_capacity(n);
        // Barrier schemes hold the window fixed until every core reaches it
        // and the batch is serviced; greedy schemes slide it with global
        // time every iteration.
        let mut window_end = pacer.window_end(start_global);
        let finish_reason;

        // The sequential engine has no out-queues to drain; the manager
        // drain site instead carries the dispatch machinery — window
        // computation, burst pick, feedback and metrics sampling. Nested
        // tick/service/checkpoint spans subtract themselves from its
        // self-time, so the profile still separates target work from
        // scheduling overhead. The span is re-entered every
        // ITER_SPAN_BATCH iterations rather than every iteration: a release
        // loop iteration is a few hundred ns, so per-iteration span
        // boundaries (two monotonic clock reads each) would leave several
        // percent of the wall-clock unattributed.
        const ITER_SPAN_BATCH: u32 = 64;
        let mut iter_span = ph.enter(ProfSite::ManagerDrain);
        let mut span_age = 0u32;
        // True exactly when every core sits on a window boundary whose
        // batch has been serviced (or at the start, trivially): the only
        // states where a barrier-scheme run may finish.
        let mut at_serviced_boundary = true;

        loop {
            span_age += 1;
            if span_age == ITER_SPAN_BATCH {
                span_age = 0;
                // Drop before re-entering: the guard pushes a frame on the
                // per-thread child stack, so the old span must pop first.
                drop(iter_span);
                iter_span = ph.enter(ProfSite::ManagerDrain);
            }
            let global = locals.iter().copied().min().expect("n >= 1");
            let furthest_now = locals.iter().copied().max().expect("n >= 1");
            max_spread = max_spread.max(furthest_now.saturating_sub(global));
            let barrier = mode == Mode::Replay || pacer.barrier_service();

            // Finish checks. Barrier schemes only stop at *serviced*
            // window boundaries so that the stopping point is
            // deterministic and identical to the threaded engine's — the
            // natural boundary the pacer published, never a clamped or
            // coincidental intermediate point (with one core "all locals
            // equal" holds mid-window too), so the batched engine (which
            // only observes boundaries) stops in the identical state.
            if at_serviced_boundary {
                debug_assert!(locals.iter().all(|&l| l == global) && gq.is_empty());
            }
            if committed >= cfg.commit_target && (!barrier || at_serviced_boundary) {
                finish_reason = FinishReason::CommitTarget;
                break;
            }
            if global.as_u64() >= cfg.max_cycles {
                finish_reason = FinishReason::CycleCap;
                break;
            }

            // Interval accounting for Tables 3/4 follows the fixed grid.
            if let Some(tr) = &mut tracker {
                tr.close_intervals_up_to(global);
            }

            // Violation-rate sampling and adaptive feedback.
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

            // Metrics sampling (observability cadence, independent of the
            // pacer's feedback period).
            if cfg.obs.is_some() && metrics.sample_ready(global) {
                sample_metrics(SeqSampleCtx {
                    metrics: &mut metrics,
                    th: &mut th,
                    drift_ids: &drift_ids,
                    slack_bound_id,
                    violation_rate_id,
                    globalq_depth_id,
                    globalq_depth_hist,
                    trace_dropped_id,
                    tracer: &tracer,
                    locals: &locals,
                    global,
                    bound: pacer.current_bound(),
                    gq_len: gq.len() as u64,
                    detected_total: detected.total(),
                    last_metrics_cycle: &mut last_metrics_cycle,
                    last_metrics_detected: &mut last_metrics_detected,
                });
            }

            // Live telemetry: relaxed stores the emitter thread samples on
            // its own host-time cadence.
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
                    .globalq_depth
                    .store(gq.len() as u64, Ordering::Relaxed);
                live_stats
                    .dropped_traces
                    .store(tracer.dropped_so_far(), Ordering::Relaxed);
                live_stats
                    .checkpoints
                    .store(spec_stats.checkpoints, Ordering::Relaxed);
                live_stats
                    .rollbacks
                    .store(spec_stats.rollbacks, Ordering::Relaxed);
            }

            // Checkpoint scheduling: once global time crosses the trigger,
            // stop-sync every core at one common local time.
            if spec.is_some() && stop_at.is_none() && global.as_u64() >= next_cp_trigger {
                let furthest = locals.iter().copied().max().expect("n >= 1");
                stop_at = Some(furthest.max(Cycle::new(next_cp_trigger)));
            }

            // Effective window for this iteration. Greedy schemes slide
            // continuously (uniformly, or per core for peer-to-peer
            // pacers); barrier schemes keep `window_end` until the batch
            // at the boundary has been serviced.
            let mut per_core: Option<Vec<Cycle>> = None;
            if !barrier {
                window_end = pacer.window_end(global).min(cfg.lead_cap(global));
                per_core = pacer.window_ends(&locals);
            }
            let cap = cfg.lead_cap(global);
            let win_for = |i: usize| -> Cycle {
                let base = per_core.as_ref().map_or(window_end, |v| v[i].min(cap));
                match stop_at {
                    Some(s) => base.min(s),
                    None => base,
                }
            };
            let win = match stop_at {
                Some(s) => window_end.min(s),
                None => window_end,
            };

            runnable.clear();
            runnable.extend((0..n).filter(|&i| locals[i] < win_for(i)));

            if runnable.is_empty() {
                // Every core reached the window end (or the stop point).
                if let Some(s) = stop_at {
                    if locals.iter().all(|&l| l == s) {
                        // Drain all outstanding events before snapshotting so
                        // queues are empty in the checkpoint.
                        {
                            let _span = ph.enter(ProfSite::ManagerService);
                            Self::service_all(
                                &mut gq,
                                &mut uncore,
                                &mut sink,
                                &mut inboxes,
                                &mut tally,
                                &mut detected,
                                &mut tracker,
                                &mut pending_rollback,
                                &spec,
                                mode,
                                &mut th,
                            );
                        }
                        if pending_rollback {
                            let _span = ph.enter(ProfSite::CheckpointRestore);
                            Self::rollback(
                                snapshot.as_ref().expect("rollback requires a snapshot"),
                                &mut cores,
                                &mut uncore,
                                &mut locals,
                                &mut inboxes,
                                &mut tally,
                                &mut committed,
                                &mut pacer,
                                &mut next_sample,
                                &mut last_sample_tally,
                                &mut gq,
                                &mut spec_stats,
                                global,
                                cp_mode,
                                &mut th,
                            );
                            mode = Mode::Replay;
                            replay_start = locals[0];
                            for i in 0..n {
                                th.record(
                                    replay_start,
                                    TraceEvent::PhaseBegin {
                                        core: CoreId::new(i as u16),
                                        phase: Phase::Replay,
                                    },
                                );
                            }
                            next_cp_trigger =
                                locals[0].as_u64() + spec.expect("spec enabled").interval;
                            stop_at = None;
                            pending_rollback = false;
                            window_end = locals[0] + 1;
                            continue;
                        }
                        if mode == Mode::Replay {
                            let replayed = s.saturating_sub(replay_start);
                            spec_stats.replay_cycles += replayed;
                            mode = Mode::Base;
                            th.record(
                                s,
                                TraceEvent::ReplayEnd {
                                    ordinal: spec_stats.rollbacks,
                                    replay_cycles: replayed,
                                },
                            );
                            for i in 0..n {
                                th.record(
                                    s,
                                    TraceEvent::PhaseEnd {
                                        core: CoreId::new(i as u16),
                                        phase: Phase::Replay,
                                    },
                                );
                            }
                        }
                        spec_stats.checkpoints += 1;
                        th.record(
                            Cycle::new(next_cp_trigger.min(s.as_u64())),
                            TraceEvent::Checkpoint {
                                ordinal: spec_stats.checkpoints,
                                overshoot: s.as_u64().saturating_sub(next_cp_trigger),
                            },
                        );
                        // Every event at or below the checkpoint has been
                        // serviced, so monitor entries whose high-water mark
                        // is at or below `s` can never flag again: drop them
                        // before capture so the snapshot stays compact too.
                        uncore.compact_monitors(s);
                        {
                            let _span = ph.enter(ProfSite::CheckpointCapture);
                            let snap = snapshot.as_mut().expect("spec enabled");
                            match cp_mode {
                                CheckpointMode::Full => {
                                    snap.cores = cores.clone();
                                    snap.uncore = uncore.clone();
                                }
                                CheckpointMode::Delta => {
                                    // Bring the standing snapshot up to this
                                    // checkpoint by applying each model's
                                    // delta against the previous one.
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
                            snap.locals = locals.clone();
                            snap.inboxes = inboxes.clone();
                            snap.tally = tally;
                            snap.committed = committed;
                            snap.global = s;
                            snap.pacer = pacer.clone_box();
                            snap.next_sample = next_sample;
                            snap.last_sample_tally = last_sample_tally;
                        }
                        if let Some(hook) = save_hook.as_mut() {
                            let _span = ph.enter(ProfSite::PersistIo);
                            let view = CheckpointView {
                                ordinal: spec_stats.checkpoints,
                                global: s,
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
                                rng: Some(&rng),
                                bound_trace: &bound_trace,
                                max_spread,
                            };
                            let bytes = hook(&view).unwrap_or(0);
                            th.record(
                                s,
                                TraceEvent::StatePersist {
                                    ordinal: spec_stats.checkpoints,
                                    bytes,
                                },
                            );
                            metrics.gauge_by(persist_bytes_id, s, bytes as f64);
                        }
                        next_cp_trigger = s.as_u64() + spec.expect("spec enabled").interval;
                        stop_at = None;
                        window_end = pacer.window_end(s);
                        continue;
                    }
                }
                if barrier {
                    // Batch-service the window's events in timestamp order,
                    // then open the next window.
                    {
                        let _span = ph.enter(ProfSite::ManagerService);
                        Self::service_all(
                            &mut gq,
                            &mut uncore,
                            &mut sink,
                            &mut inboxes,
                            &mut tally,
                            &mut detected,
                            &mut tracker,
                            &mut pending_rollback,
                            &spec,
                            mode,
                            &mut th,
                        );
                    }
                    debug_assert!(!pending_rollback, "CC/quantum servicing cannot violate");
                    at_serviced_boundary = true;
                    window_end = if mode == Mode::Replay {
                        win + 1
                    } else {
                        pacer.window_end(win)
                    };
                    continue;
                }
                // Greedy mode: the slowest core always has headroom
                // (window_end > global), so this is unreachable unless a
                // pacer breaks its contract.
                return Err(EngineError::Stalled { at: global });
            }

            // Burst-schedule one core: mostly the laggard (host-scheduler
            // fairness), sometimes a random core (reordering noise).
            let pick = if cfg.burst.lag_bias_percent > 0
                && rng.chance(u64::from(cfg.burst.lag_bias_percent), 100)
            {
                runnable
                    .iter()
                    .copied()
                    .min_by_key(|&i| locals[i])
                    .expect("runnable not empty")
            } else {
                runnable[rng.next_below(runnable.len() as u64) as usize]
            };
            let burst = rng.next_range(1, cfg.burst.max_burst);
            let pick_win = win_for(pick);
            let head = pick_win.saturating_sub(locals[pick]).min(burst);
            if head > 0 {
                at_serviced_boundary = false;
            }
            if head > 0 && mode == Mode::Base {
                th.record(
                    locals[pick],
                    TraceEvent::PhaseBegin {
                        core: CoreId::new(pick as u16),
                        phase: Phase::Run,
                    },
                );
            }
            {
                let _span = ph.enter(ProfSite::CoreTick);
                for _ in 0..head {
                    let mut ctx = TickCtx::new(locals[pick], &mut inboxes[pick], &mut outbox);
                    let c = cores[pick].tick(&mut ctx);
                    committed += u64::from(c);
                    locals[pick] += 1;
                    if !barrier && committed >= cfg.commit_target {
                        break;
                    }
                }
                // One heap reserve + push per burst instead of per tick:
                // outbox order is generation order, and `push_batch` assigns
                // arrival sequence numbers in that order, so the pop order
                // is identical to pushing tick by tick.
                gq.push_batch(CoreId::new(pick as u16), &mut outbox);
            }
            if head > 0 && mode == Mode::Base {
                th.record(
                    locals[pick],
                    TraceEvent::PhaseEnd {
                        core: CoreId::new(pick as u16),
                        phase: Phase::Run,
                    },
                );
            }

            if !barrier {
                {
                    let _span = ph.enter(ProfSite::ManagerService);
                    Self::service_all(
                        &mut gq,
                        &mut uncore,
                        &mut sink,
                        &mut inboxes,
                        &mut tally,
                        &mut detected,
                        &mut tracker,
                        &mut pending_rollback,
                        &spec,
                        mode,
                        &mut th,
                    );
                }
                if pending_rollback {
                    let _span = ph.enter(ProfSite::CheckpointRestore);
                    let cur_global = locals.iter().copied().min().expect("n >= 1");
                    Self::rollback(
                        snapshot.as_ref().expect("rollback requires a snapshot"),
                        &mut cores,
                        &mut uncore,
                        &mut locals,
                        &mut inboxes,
                        &mut tally,
                        &mut committed,
                        &mut pacer,
                        &mut next_sample,
                        &mut last_sample_tally,
                        &mut gq,
                        &mut spec_stats,
                        cur_global,
                        cp_mode,
                        &mut th,
                    );
                    mode = Mode::Replay;
                    replay_start = locals[0];
                    for i in 0..n {
                        th.record(
                            replay_start,
                            TraceEvent::PhaseBegin {
                                core: CoreId::new(i as u16),
                                phase: Phase::Replay,
                            },
                        );
                    }
                    next_cp_trigger = locals[0].as_u64() + spec.expect("spec enabled").interval;
                    stop_at = None;
                    pending_rollback = false;
                    window_end = locals[0] + 1;
                }
            }
        }

        let global = locals.iter().copied().min().expect("n >= 1");
        if let Some(tr) = &mut tracker {
            tr.close_intervals_up_to(global);
        }

        // Terminal gauge flush: one last sample at the final global time so
        // CSV exports always contain the run's end state even when the run
        // length is not a multiple of the sampling cadence. Guarded so a
        // sample that already landed on this exact cycle is not duplicated.
        if cfg.obs.is_some() && global.as_u64() > last_metrics_cycle {
            sample_metrics(SeqSampleCtx {
                metrics: &mut metrics,
                th: &mut th,
                drift_ids: &drift_ids,
                slack_bound_id,
                violation_rate_id,
                globalq_depth_id,
                globalq_depth_hist,
                trace_dropped_id,
                tracer: &tracer,
                locals: &locals,
                global,
                bound: pacer.current_bound(),
                gq_len: gq.len() as u64,
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
            // Fixed-point (x1000) so the f64 statistics survive the counter
            // interface; the bench harness divides back.
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

        // Publish the final tallies before the terminal heartbeat so the
        // last emitted line reports the finished run exactly.
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

    /// Services every event currently in the global queue, in timestamp
    /// order among those queued, applying deliveries and recording
    /// violations.
    #[allow(clippy::too_many_arguments)]
    fn service_all(
        gq: &mut GlobalQueue<C::Event>,
        uncore: &mut U,
        sink: &mut ServiceSink<C::Event>,
        inboxes: &mut [Inbox<C::Event>],
        tally: &mut ViolationTally,
        detected: &mut ViolationTally,
        tracker: &mut Option<IntervalTracker>,
        pending_rollback: &mut bool,
        spec: &Option<crate::speculative::SpeculationConfig>,
        mode: Mode,
        th: &mut TraceHandle,
    ) {
        while let Some((from, ev)) = gq.pop() {
            uncore.service(from, ev, sink);
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
                if mode == Mode::Base {
                    if let Some(sc) = spec {
                        if sc.rollback_on.selects(v.kind) {
                            *pending_rollback = true;
                        }
                    }
                }
            }
            if *pending_rollback {
                // State will be restored wholesale; no point servicing the
                // remaining (doomed) events.
                gq.clear();
                break;
            }
        }
    }

    /// Restores the last checkpoint.
    #[allow(clippy::too_many_arguments)]
    fn rollback(
        snap: &Snapshot<C, U>,
        cores: &mut Vec<C>,
        uncore: &mut U,
        locals: &mut Vec<Cycle>,
        inboxes: &mut Vec<Inbox<C::Event>>,
        tally: &mut ViolationTally,
        committed: &mut u64,
        pacer: &mut Box<dyn Pacer>,
        next_sample: &mut u64,
        last_sample_tally: &mut ViolationTally,
        gq: &mut GlobalQueue<C::Event>,
        spec_stats: &mut SpeculationStats,
        global_at_rollback: Cycle,
        cp_mode: CheckpointMode,
        th: &mut TraceHandle,
    ) {
        spec_stats.rollbacks += 1;
        let wasted = global_at_rollback.saturating_sub(snap.global);
        spec_stats.wasted_cycles += wasted;
        th.record(
            global_at_rollback,
            TraceEvent::Rollback {
                ordinal: spec_stats.rollbacks,
                wasted_cycles: wasted,
            },
        );
        match cp_mode {
            CheckpointMode::Full => {
                *cores = snap.cores.clone();
                *uncore = snap.uncore.clone();
            }
            CheckpointMode::Delta => {
                // Copy back only what diverged since the checkpoint.
                for (i, c) in cores.iter_mut().enumerate() {
                    c.restore_from(&snap.cores[i], snap.core_gens[i]);
                }
                uncore.restore_from(&snap.uncore, snap.uncore_gen);
            }
        }
        *locals = snap.locals.clone();
        *inboxes = snap.inboxes.clone();
        *tally = snap.tally;
        *committed = snap.committed;
        *pacer = snap.pacer.clone_box();
        *next_sample = snap.next_sample;
        *last_sample_tally = snap.last_sample_tally;
        gq.clear();
    }
}

/// Borrowed context for one metrics sample (a struct rather than a long
/// argument list). Factored out of the run loop so the epilogue can flush
/// a terminal sample at the final global time — without it, a run whose
/// length is not a multiple of the sampling cadence would export a CSV
/// missing the final state.
struct SeqSampleCtx<'a> {
    metrics: &'a mut MetricsRegistry,
    th: &'a mut TraceHandle,
    drift_ids: &'a [GaugeId],
    slack_bound_id: GaugeId,
    violation_rate_id: GaugeId,
    globalq_depth_id: GaugeId,
    globalq_depth_hist: HistId,
    trace_dropped_id: GaugeId,
    tracer: &'a Tracer,
    locals: &'a [Cycle],
    global: Cycle,
    bound: Option<u64>,
    gq_len: u64,
    detected_total: u64,
    last_metrics_cycle: &'a mut u64,
    last_metrics_detected: &'a mut u64,
}

/// Emits one metrics sample: per-core drift gauges plus the scalar
/// aggregates, mirroring the threaded engine's sampler.
fn sample_metrics(ctx: SeqSampleCtx<'_>) {
    let SeqSampleCtx {
        metrics,
        th,
        drift_ids,
        slack_bound_id,
        violation_rate_id,
        globalq_depth_id,
        globalq_depth_hist,
        trace_dropped_id,
        tracer,
        locals,
        global,
        bound,
        gq_len,
        detected_total,
        last_metrics_cycle,
        last_metrics_detected,
    } = ctx;
    for (i, &l) in locals.iter().enumerate() {
        let drift = l.saturating_sub(global);
        metrics.gauge_by(drift_ids[i], global, drift as f64);
        th.record(
            global,
            TraceEvent::LocalTimeSample {
                core: CoreId::new(i as u16),
                cycle: l,
            },
        );
    }
    if let Some(b) = bound {
        metrics.gauge_by(slack_bound_id, global, b as f64);
    }
    // Rate over the cycles actually elapsed since the previous sample: a
    // fixed divisor misstates the rate whenever the sampler fires
    // off-cadence, and an elapsed count of zero (e.g. the first crossing
    // after a resume) must not produce a NaN/inf gauge value.
    let elapsed = global.as_u64().saturating_sub(*last_metrics_cycle);
    let live_rate = if elapsed == 0 {
        0.0
    } else {
        (detected_total - *last_metrics_detected) as f64 / elapsed as f64
    };
    *last_metrics_cycle = global.as_u64();
    *last_metrics_detected = detected_total;
    metrics.gauge_by(violation_rate_id, global, live_rate);
    metrics.gauge_by(globalq_depth_id, global, gq_len as f64);
    metrics.histogram_by(globalq_depth_hist).record(gq_len);
    th.record(
        global,
        TraceEvent::QueueDepth {
            q: QueueKind::Global,
            len: gq_len,
        },
    );
    metrics.gauge_by(trace_dropped_id, global, tracer.dropped_so_far() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Scheme;
    use crate::speculative::{SpeculationConfig, ViolationSelect};
    use crate::violation::{TimestampMonitor, ViolationEvent, ViolationKind};

    /// Toy event: cores ping the uncore, the uncore pongs back.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Toy {
        Ping,
        Pong,
    }

    /// Toy core: commits one instruction per cycle and pings the uncore
    /// every `period` cycles.
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

    /// Toy uncore: a single monitored resource with a 5-cycle response
    /// latency — a minimal bus.
    #[derive(Debug, Clone, Default)]
    struct ToyUncore {
        monitor: TimestampMonitor,
        serviced: u64,
    }

    impl UncoreModel<Toy> for ToyUncore {
        fn service(&mut self, from: CoreId, ev: Timestamped<Toy>, sink: &mut ServiceSink<Toy>) {
            self.serviced += 1;
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

    fn run(scheme: Scheme, seed: u64, target: u64) -> SimReport {
        let mut cfg = EngineConfig::new(scheme, target);
        cfg.seed = seed;
        SequentialEngine::new(toy_cores(4), ToyUncore::default(), cfg)
            .run()
            .expect("run succeeds")
    }

    #[test]
    fn empty_core_set_is_an_error() {
        let cfg = EngineConfig::new(Scheme::CycleByCycle, 10);
        let eng: SequentialEngine<ToyCore, ToyUncore> =
            SequentialEngine::new(Vec::new(), ToyUncore::default(), cfg);
        assert_eq!(eng.run().unwrap_err(), EngineError::NoCores);
    }

    #[test]
    fn cycle_by_cycle_has_zero_violations() {
        let r = run(Scheme::CycleByCycle, 7, 4000);
        assert_eq!(r.violations.total(), 0, "CC is the gold standard");
        assert!(r.committed >= 4000);
        assert!(r.global_cycles > 0);
        // Barrier servicing must actually run: requests are serviced and
        // replies delivered back to the cores.
        assert!(r.uncore.get("serviced") > 0, "manager serviced no events");
        assert!(r.core_total("pongs") > 0, "cores received no replies");
    }

    #[test]
    fn bounded_one_has_zero_violations() {
        // Slack bound 1 cannot reorder events across cycles.
        let r = run(Scheme::BoundedSlack { bound: 1 }, 7, 4000);
        assert_eq!(r.violations.total(), 0);
    }

    #[test]
    fn unbounded_slack_produces_violations() {
        let r = run(Scheme::UnboundedSlack, 7, 8000);
        assert!(
            r.violations.total() > 0,
            "4 drifting cores must reorder on a single monitored bus"
        );
    }

    #[test]
    fn violations_grow_with_slack_bound() {
        let v8 = run(Scheme::BoundedSlack { bound: 8 }, 7, 8000)
            .violations
            .total();
        let v256 = run(Scheme::BoundedSlack { bound: 256 }, 7, 8000)
            .violations
            .total();
        assert!(
            v256 >= v8,
            "larger slack must not reduce violations ({v8} -> {v256})"
        );
        assert!(v256 > 0);
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let a = run(Scheme::BoundedSlack { bound: 16 }, 42, 6000);
        let b = run(Scheme::BoundedSlack { bound: 16 }, 42, 6000);
        assert_eq!(a.global_cycles, b.global_cycles);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.per_core, b.per_core);
        assert_eq!(a.uncore, b.uncore);
    }

    #[test]
    fn cc_is_seed_independent() {
        // Under cycle-by-cycle pacing, scheduling order within a cycle must
        // not affect any statistic.
        let a = run(Scheme::CycleByCycle, 1, 4000);
        let b = run(Scheme::CycleByCycle, 999, 4000);
        assert_eq!(a.global_cycles, b.global_cycles);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.per_core, b.per_core);
        assert_eq!(a.uncore, b.uncore);
    }

    #[test]
    fn quantum_has_zero_monitor_violations() {
        // Batch servicing at boundaries keeps timestamp order intact.
        let r = run(Scheme::Quantum { quantum: 50 }, 7, 6000);
        assert_eq!(r.violations.total(), 0);
        assert!(r.uncore.get("serviced") > 0);
        assert!(r.core_total("pongs") > 0);
    }

    #[test]
    fn cycle_cap_stops_the_run() {
        let mut cfg = EngineConfig::new(Scheme::CycleByCycle, u64::MAX);
        cfg.max_cycles = 500;
        let r = SequentialEngine::new(toy_cores(2), ToyUncore::default(), cfg)
            .run()
            .unwrap();
        assert_eq!(r.global_cycles, 500);
        assert_eq!(r.kernel.get("finish_commit_target"), 0);
    }

    #[test]
    fn checkpoint_only_counts_checkpoints() {
        let mut cfg = EngineConfig::new(Scheme::BoundedSlack { bound: 32 }, 40_000);
        cfg.speculation = Some(SpeculationConfig::checkpoint_only(1000));
        let r = SequentialEngine::new(toy_cores(4), ToyUncore::default(), cfg)
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
    fn speculative_rollback_eliminates_selected_violations() {
        let mut cfg = EngineConfig::new(Scheme::UnboundedSlack, 20_000);
        cfg.speculation = Some(SpeculationConfig::speculative(500, ViolationSelect::all()));
        cfg.seed = 3;
        let r = SequentialEngine::new(toy_cores(4), ToyUncore::default(), cfg)
            .run()
            .unwrap();
        assert!(
            r.kernel.get("rollbacks") > 0,
            "unbounded slack on a shared bus must trigger rollbacks"
        );
        // Every surviving interval was either clean or replayed in CC mode,
        // so the end-of-run tally contains no *selected* violations beyond
        // those detected in the final (unfinished) interval.
        assert!(r.kernel.get("violations_detected_total") >= r.violations.total());
        assert!(r.kernel.get("replay_cycles") > 0);
        assert!(r.committed >= 20_000);
    }

    #[test]
    fn delta_mode_matches_full_mode_bit_identically() {
        use crate::checkpoint::CheckpointMode;
        for seed in [3u64, 7, 11] {
            let run_mode = |mode: CheckpointMode| {
                let mut cfg = EngineConfig::new(Scheme::UnboundedSlack, 20_000);
                cfg.seed = seed;
                cfg.speculation = Some(
                    SpeculationConfig::speculative(500, ViolationSelect::all()).with_mode(mode),
                );
                SequentialEngine::new(toy_cores(4), ToyUncore::default(), cfg)
                    .run()
                    .unwrap()
            };
            let full = run_mode(CheckpointMode::Full);
            let delta = run_mode(CheckpointMode::Delta);
            assert!(
                full.kernel.get("rollbacks") > 0,
                "seed {seed}: no rollbacks"
            );
            assert_eq!(full.global_cycles, delta.global_cycles, "seed {seed}");
            assert_eq!(full.committed, delta.committed, "seed {seed}");
            assert_eq!(full.violations, delta.violations, "seed {seed}");
            assert_eq!(full.per_core, delta.per_core, "seed {seed}");
            assert_eq!(full.uncore, delta.uncore, "seed {seed}");
            assert_eq!(full.kernel, delta.kernel, "seed {seed}");
        }
    }

    #[test]
    fn interval_tracker_statistics_are_reported() {
        let mut cfg = EngineConfig::new(Scheme::UnboundedSlack, 30_000);
        cfg.speculation = Some(SpeculationConfig::checkpoint_only(1000));
        cfg.seed = 5;
        let r = SequentialEngine::new(toy_cores(4), ToyUncore::default(), cfg)
            .run()
            .unwrap();
        assert!(r.kernel.get("intervals_total") > 0);
        assert!(r.kernel.get("intervals_violating") <= r.kernel.get("intervals_total"));
    }

    #[test]
    fn bound_trace_records_adaptive_bounds() {
        use crate::scheme::AdaptiveConfig;
        let mut cfg = EngineConfig::new(
            Scheme::Adaptive(AdaptiveConfig {
                sample_period: 256,
                ..AdaptiveConfig::default()
            }),
            20_000,
        );
        cfg.seed = 9;
        let r = SequentialEngine::new(toy_cores(4), ToyUncore::default(), cfg)
            .run()
            .unwrap();
        assert!(!r.bound_trace.is_empty());
        assert!(r.bound_trace.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn per_core_counters_sum_to_committed() {
        let r = run(Scheme::BoundedSlack { bound: 4 }, 11, 5000);
        assert_eq!(r.core_total("committed"), r.committed);
    }
}
