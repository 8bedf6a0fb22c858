//! The deterministic sequential engine.
//!
//! Runs the entire simulation on the calling thread while *emulating* the
//! parallel execution of SlackSim: each target core has a local time capped
//! by the pacer's window, and a seeded burst scheduler decides which core
//! advances next and for how many cycles — a reproducible stand-in for the
//! host OS scheduler's nondeterminism. The manager role (violation
//! accounting, adaptive sampling, checkpointing and rollback) is the
//! engine kernel's; this strategy decides only which core advances, when
//! the global queue is serviced, and where cores stop-sync for a
//! checkpoint.
//!
//! Because every run with the same configuration and seed is bit-identical,
//! this engine is the vehicle for the accuracy experiments (Figure 3) and
//! for the fully-deployed speculative rollback extension.

use crate::checkpoint::Checkpointable;
use crate::engine::kernel::{Cores, Kernel, Sample, Start, Strategy};
use crate::engine::{
    CoreModel, EngineConfig, EngineError, EngineResume, SaveHook, TickCtx, UncoreModel,
};
use crate::event::{CoreId, GlobalQueue, Timestamped};
use crate::obs::{Phase, ProfSite, TraceEvent};
use crate::stats::SimReport;
use crate::time::Cycle;

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
    /// borrowed [`CheckpointView`](crate::engine::CheckpointView) of the
    /// restorable state; the hook returns the number of bytes it persisted
    /// (or `None` on failure).
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
            cores,
            uncore,
            cfg,
            save_hook,
            resume,
        } = self;
        let (mut k, start) =
            Kernel::new(&cfg, Strategy::Sequential, cores, uncore, save_hook, resume)?;
        let Start {
            mut cores,
            mut inboxes,
            mut uncore,
            global: start_global,
            mut committed,
            mut rng,
        } = start;
        let n = cores.len();
        // The whole run is one thread, so one profiler handle carries
        // every span and nested spans subtract from their parents.
        let ph = k.prof.handle();
        let mut locals = vec![start_global; n];
        let mut gq: GlobalQueue<C::Event> = GlobalQueue::new();
        let mut outbox: Vec<Timestamped<C::Event>> = Vec::new();
        k.init_snapshot(
            start_global,
            committed,
            &mut uncore,
            Cores::Local(&mut cores, &inboxes),
        );

        let mut stop_at: Option<Cycle> = None;
        let mut runnable: Vec<usize> = Vec::with_capacity(n);
        // Barrier schemes hold the window fixed until every core reaches it
        // and the batch is serviced; greedy schemes slide it with global
        // time every iteration.
        let mut window_end = k.pacer.window_end(start_global);

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

        let finish_reason = loop {
            span_age += 1;
            if span_age == ITER_SPAN_BATCH {
                span_age = 0;
                // Drop before re-entering: the guard pushes a frame on the
                // per-thread child stack, so the old span must pop first.
                drop(iter_span);
                iter_span = ph.enter(ProfSite::ManagerDrain);
            }
            let global = locals.iter().copied().min().expect("n >= 1");
            let furthest = locals.iter().copied().max().expect("n >= 1");
            k.max_spread = k.max_spread.max(furthest.saturating_sub(global));
            let barrier = k.barrier();

            // Barrier schemes only stop at *serviced* window boundaries so
            // that the stopping point is deterministic and identical to the
            // other strategies' — the natural boundary the pacer published,
            // never a clamped or coincidental intermediate point (with one
            // core "all locals equal" holds mid-window too).
            if at_serviced_boundary {
                debug_assert!(locals.iter().all(|&l| l == global) && gq.is_empty());
            }
            if let Some(reason) = k.finished(global, committed, !barrier || at_serviced_boundary) {
                break reason;
            }
            k.observe(global, committed, &Sample::cores(&locals, gq.len() as u64));

            // Checkpoint scheduling: once global time crosses the trigger,
            // stop-sync every core at one common local time.
            if stop_at.is_none() {
                stop_at = k
                    .checkpoint_due(global)
                    .map(|t| furthest.max(Cycle::new(t)));
            }

            // Effective window for this iteration. Greedy schemes slide
            // continuously (uniformly, or per core for peer-to-peer
            // pacers); barrier schemes keep `window_end` until the batch
            // at the boundary has been serviced.
            let mut per_core: Option<Vec<Cycle>> = None;
            if !barrier {
                window_end = k.pacer.window_end(global).min(cfg.lead_cap(global));
                per_core = k.pacer.window_ends(&locals);
            }
            let cap = cfg.lead_cap(global);
            let win_for = |i: usize| -> Cycle {
                let base = per_core.as_ref().map_or(window_end, |v| v[i].min(cap));
                stop_at.map_or(base, |s| base.min(s))
            };
            let win = stop_at.map_or(window_end, |s| window_end.min(s));

            runnable.clear();
            runnable.extend((0..n).filter(|&i| locals[i] < win_for(i)));

            if runnable.is_empty() {
                // Every core reached the window end (or the stop point).
                if let Some(s) = stop_at.filter(|&s| locals.iter().all(|&l| l == s)) {
                    // Drain all outstanding events before snapshotting so
                    // queues are empty in the checkpoint.
                    let rollback = {
                        let _span = ph.enter(ProfSite::ManagerService);
                        k.service_queue(&mut gq, &mut uncore, |to, ev| {
                            inboxes[to.index()].deliver(ev);
                        })
                    };
                    if !rollback {
                        k.commit_checkpoint(
                            &ph,
                            s,
                            committed,
                            &mut uncore,
                            Cores::Local(&mut cores, &inboxes),
                            Some(&rng),
                        );
                        stop_at = None;
                        window_end = k.pacer.window_end(s);
                        continue;
                    }
                } else if barrier {
                    // Batch-service the window's events in timestamp order,
                    // then open the next window.
                    {
                        let _span = ph.enter(ProfSite::ManagerService);
                        k.service_queue(&mut gq, &mut uncore, |to, ev| {
                            inboxes[to.index()].deliver(ev);
                        });
                    }
                    debug_assert!(!k.rollback_pending(), "CC/quantum servicing cannot violate");
                    at_serviced_boundary = true;
                    window_end = if k.replaying() {
                        win + 1
                    } else {
                        k.pacer.window_end(win)
                    };
                    continue;
                } else {
                    // Greedy mode: the slowest core always has headroom
                    // (window_end > global), so this is unreachable unless a
                    // pacer breaks its contract.
                    return Err(EngineError::Stalled { at: global });
                }
            } else {
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
                let head = win_for(pick).saturating_sub(locals[pick]).min(burst);
                let core = CoreId::new(pick as u16);
                let traced = head > 0 && !k.replaying();
                if head > 0 {
                    at_serviced_boundary = false;
                }
                if traced {
                    let phase = Phase::Run;
                    k.th.record(locals[pick], TraceEvent::PhaseBegin { core, phase });
                }
                {
                    let _span = ph.enter(ProfSite::CoreTick);
                    for _ in 0..head {
                        let mut ctx = TickCtx::new(locals[pick], &mut inboxes[pick], &mut outbox);
                        committed += u64::from(cores[pick].tick(&mut ctx));
                        locals[pick] += 1;
                        if !barrier && committed >= cfg.commit_target {
                            break;
                        }
                    }
                    // One heap reserve + push per burst instead of per tick:
                    // outbox order is generation order, and `push_batch`
                    // assigns arrival sequence numbers in that order, so the
                    // pop order is identical to pushing tick by tick.
                    gq.push_batch(core, &mut outbox);
                }
                if traced {
                    let phase = Phase::Run;
                    k.th.record(locals[pick], TraceEvent::PhaseEnd { core, phase });
                }
                if !barrier {
                    let _span = ph.enter(ProfSite::ManagerService);
                    k.service_queue(&mut gq, &mut uncore, |to, ev| {
                        inboxes[to.index()].deliver(ev);
                    });
                }
            }

            if k.rollback_pending() {
                let _span = ph.enter(ProfSite::CheckpointRestore);
                let at = locals.iter().copied().min().expect("n >= 1");
                let snap = k.rollback(at, &mut uncore, &mut cores, &mut inboxes);
                let restart = snap.global;
                committed = snap.committed;
                locals.fill(restart);
                gq.clear();
                stop_at = None;
                window_end = restart + 1;
            }
        };

        let global = locals.iter().copied().min().expect("n >= 1");
        Ok(k.finish(
            global,
            committed,
            finish_reason,
            &Sample::cores(&locals, gq.len() as u64),
            cores.iter().map(CoreModel::counters).collect(),
            uncore.counters(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testkit::{toy_cores, ToyCore, ToyUncore};
    use crate::scheme::Scheme;
    use crate::speculative::{SpeculationConfig, ViolationSelect};

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
