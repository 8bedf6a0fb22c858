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

use crate::checkpoint::Checkpointable;
use crate::engine::kernel::{Cores, Kernel, Sample, Start, Strategy};
use crate::engine::{CoreModel, EngineConfig, EngineError, EngineResume, SaveHook, UncoreModel};
use crate::event::CoreId;
use crate::obs::{Phase, ProfSite, TraceEvent};
use crate::stats::SimReport;
use crate::time::Cycle;

/// Quantum-compiled BSP engine: steps all cores a full quantum per
/// iteration over their hot state, resolving cross-core interaction only
/// at quantum boundaries.
///
/// Only meaningful under barrier schemes (`Scheme::Quantum`,
/// `Scheme::CycleByCycle`); [`run`](BatchedEngine::run) rejects greedy
/// schemes with [`EngineError::Config`].
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
    /// Returns [`EngineError::Config`] when the scheme is not a barrier
    /// scheme — the quantum-compiled loop is only equivalent to the
    /// paper's semantics when every cross-core event defers to a window
    /// boundary — [`EngineError::NoCores`] for an empty core set and
    /// [`EngineError::Stalled`] if (defensively) the pacer publishes an
    /// empty window.
    pub fn run(self) -> Result<SimReport, EngineError> {
        let BatchedEngine {
            cores,
            uncore,
            cfg,
            save_hook,
            resume,
        } = self;
        if !cfg.scheme.clone().into_pacer().barrier_service() {
            return Err(EngineError::Config(format!(
                "the batched engine requires a barrier scheme (quantum or cycle-by-cycle), \
                 not {}: greedy schemes service events mid-window, which the batched loop \
                 cannot observe",
                cfg.scheme.name()
            )));
        }
        let (mut k, start) =
            Kernel::new(&cfg, Strategy::Batched, cores, uncore, save_hook, resume)?;
        let Start {
            mut cores,
            mut inboxes,
            mut uncore,
            mut global,
            mut committed,
            ..
        } = start;
        let ph = k.prof.handle();
        let mut staged: Vec<Vec<_>> = cores.iter().map(|_| Vec::new()).collect();
        k.init_snapshot(
            global,
            committed,
            &mut uncore,
            Cores::Local(&mut cores, &inboxes),
        );

        let finish_reason = loop {
            // `global` is always a serviced boundary here: all locals
            // equal, the global queue empty. These are exactly the states
            // at which the sequential engine's finish checks can pass
            // under a barrier scheme, so stopping here is bit-identical.
            // Under a barrier scheme the tally only changes at
            // boundaries, so sampling here hands the pacer identical
            // samples.
            if let Some(reason) = k.finished(global, committed, true) {
                break reason;
            }
            k.observe(global, committed, &Sample::boundary());
            // Checkpoint at the first boundary at or past the trigger.
            if k.checkpoint_due(global).is_some() {
                let cores = Cores::Local(&mut cores, &inboxes);
                k.commit_checkpoint(&ph, global, committed, &mut uncore, cores, None);
            }

            let window_end = k.pacer.window_end(global);
            if window_end <= global {
                return Err(EngineError::Stalled { at: global });
            }
            k.max_spread = k.max_spread.max(window_end - global);

            // The hot loop: every core runs the whole window in one call,
            // staging cross-core events locally. No scheduler, no queue
            // touch, no bookkeeping between cycles.
            for (i, core) in cores.iter_mut().enumerate() {
                let (id, phase) = (CoreId::new(i as u16), Phase::Run);
                k.th.record(global, TraceEvent::PhaseBegin { core: id, phase });
                {
                    let _span = ph.enter(ProfSite::BatchedRun);
                    committed +=
                        core.run_window(global, window_end, &mut inboxes[i], &mut staged[i]);
                }
                k.th.record(window_end, TraceEvent::PhaseEnd { core: id, phase });
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
                    let ev = heads[idx].next().expect("peeked head");
                    k.service(&mut uncore, CoreId::new(idx as u16), ev, &mut |to, out| {
                        inboxes[to.index()].deliver(out);
                    });
                }
            }
            // The quantum scheme is violation-free by construction, so
            // this strategy carries the checkpoint half of speculation
            // only — no rollback path.
            debug_assert!(
                !k.rollback_pending(),
                "timestamp-ordered boundary servicing cannot produce rollback-selected violations"
            );

            global = window_end;
        };

        Ok(k.finish(
            global,
            committed,
            finish_reason,
            &Sample::boundary(),
            cores.iter().map(CoreModel::counters).collect(),
            uncore.counters(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testkit::{toy_cores, ToyCore, ToyUncore};
    use crate::engine::SequentialEngine;
    use crate::scheme::Scheme;
    use crate::speculative::SpeculationConfig;

    fn run_batched(scheme: Scheme, target: u64) -> SimReport {
        let cfg = EngineConfig::new(scheme, target);
        BatchedEngine::new(toy_cores(4), ToyUncore::ordered(), cfg)
            .run()
            .expect("run succeeds")
    }

    #[test]
    fn empty_core_set_is_an_error() {
        let cfg = EngineConfig::new(Scheme::Quantum { quantum: 50 }, 10);
        let eng: BatchedEngine<ToyCore, ToyUncore> =
            BatchedEngine::new(Vec::new(), ToyUncore::ordered(), cfg);
        assert_eq!(eng.run().unwrap_err(), EngineError::NoCores);
    }

    #[test]
    fn greedy_schemes_are_rejected() {
        let cfg = EngineConfig::new(Scheme::BoundedSlack { bound: 16 }, 1000);
        let err = BatchedEngine::new(toy_cores(4), ToyUncore::ordered(), cfg)
            .run()
            .unwrap_err();
        assert!(
            matches!(&err, EngineError::Config(why) if why.contains("bounded-slack")),
            "{err}"
        );
    }

    #[test]
    fn quantum_matches_the_sequential_engine_bit_identically() {
        // The whole point of the engine: same quantum scheme, same
        // simulated outcome, regardless of the sequential engine's seed.
        for seed in [1u64, 7, 42] {
            let mut seq_cfg = EngineConfig::new(Scheme::Quantum { quantum: 50 }, 6000);
            seq_cfg.seed = seed;
            let seq = SequentialEngine::new(toy_cores(4), ToyUncore::ordered(), seq_cfg)
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
            ToyUncore::ordered(),
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
        let r = BatchedEngine::new(cores, ToyUncore::ordered(), cfg)
            .run()
            .unwrap();
        assert_eq!(r.violations.total(), 0);
        assert!(r.uncore.get("serviced") > 100, "the race actually ran");
    }

    #[test]
    fn cycle_cap_stops_at_a_boundary() {
        let mut cfg = EngineConfig::new(Scheme::Quantum { quantum: 50 }, u64::MAX);
        cfg.max_cycles = 500;
        let r = BatchedEngine::new(toy_cores(2), ToyUncore::ordered(), cfg)
            .run()
            .unwrap();
        assert_eq!(r.global_cycles, 500);
        assert_eq!(r.kernel.get("finish_commit_target"), 0);
    }

    #[test]
    fn checkpoint_only_counts_boundary_checkpoints() {
        let mut cfg = EngineConfig::new(Scheme::Quantum { quantum: 50 }, 40_000);
        cfg.speculation = Some(SpeculationConfig::checkpoint_only(1000));
        let r = BatchedEngine::new(toy_cores(4), ToyUncore::ordered(), cfg)
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
        let _ = BatchedEngine::new(toy_cores(4), ToyUncore::ordered(), cfg)
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
