//! The engine kernel: the simulation manager's role, written once.
//!
//! SlackSim's manager (paper §2–§5) services events, checks the violation
//! monitors, feeds the adaptive controller, checkpoints and rolls back.
//! All three engines play that role; they differ only in how they advance
//! cores and deliver events. [`Kernel`] owns the role — resume, the
//! tracer/profiler/live/metrics set-up, interval tracking and pacing
//! samples, violation recording, checkpoint commit, rollback bookkeeping,
//! metrics sampling, live publishing and the final report — and each
//! engine module is a stepping strategy that calls into it (DESIGN §19).

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crate::checkpoint::{CheckpointMode, Checkpointable};
use crate::engine::{
    CheckpointView, CoreModel, EngineConfig, EngineError, EngineResume, FinishReason, SaveHook,
    ServiceSink, UncoreModel,
};
use crate::event::{CoreId, GlobalQueue, Inbox, Timestamped};
use crate::obs::live::{LiveHandle, NO_BOUND};
use crate::obs::{
    GaugeId, HistId, LiveStats, MetricsRegistry, ObsData, Phase, ProfHandle, ProfSite, Profiler,
    QueueKind, TraceEvent, TraceHandle, Tracer,
};
use crate::rng::Xoshiro256;
use crate::scheme::{PaceSample, Pacer};
use crate::speculative::{IntervalTracker, SpeculationConfig, SpeculationStats};
use crate::stats::{Counters, SimReport};
use crate::time::Cycle;
use crate::violation::{ViolationKind, ViolationTally};

/// The stepping strategy driving a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Strategy {
    /// One thread, a seeded burst scheduler.
    Sequential,
    /// One thread, whole quanta per core.
    Batched,
    /// One host thread per core plus the manager.
    Threaded,
}

/// How one checkpoint captures a model into the standing snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Capture {
    /// Clone the whole model.
    Full,
    /// Clone the whole model and record its delta baseline: the first
    /// capture of a delta-mode run.
    Seed,
    /// Capture only the units mutated since the previous capture.
    Delta,
}

/// A core model together with its pending (undelivered) events.
pub(super) type CoreState<C> = (C, Inbox<<C as CoreModel>::Event>);

/// One core's contribution to a checkpoint.
pub(super) enum CoreCapture<C: CoreModel + Checkpointable> {
    /// Full clone of the model and pending inbox.
    Full(Box<CoreState<C>>),
    /// Delta against the previous capture, plus the pending inbox (tiny at
    /// checkpoint boundaries; deltas do not pay to diff it).
    Delta(Box<(C::Delta, Inbox<C::Event>)>),
}

impl<C: CoreModel + Checkpointable> CoreCapture<C> {
    /// Captures `model` and its pending `inbox`. `generation` is the
    /// model's generation at its previous capture — the delta baseline —
    /// and is advanced by delta and seed captures.
    pub(super) fn take(
        model: &mut C,
        inbox: &Inbox<C::Event>,
        generation: &mut u64,
        how: Capture,
    ) -> Self {
        if how == Capture::Delta {
            let d = model.capture_delta(*generation);
            *generation = model.generation();
            return CoreCapture::Delta(Box::new((d, inbox.clone())));
        }
        if how == Capture::Seed {
            *generation = seed(model);
        }
        CoreCapture::Full(Box::new((model.clone(), inbox.clone())))
    }
}

/// Records `model`'s delta baseline at its current generation (an empty
/// capture) and returns that generation.
fn seed<M: Checkpointable>(model: &mut M) -> u64 {
    let g = model.generation();
    let _ = model.capture_delta(g);
    g
}

/// Where a checkpoint's core state comes from.
pub(super) enum Cores<'a, C: CoreModel + Checkpointable> {
    /// Models living on the kernel's thread, captured in place.
    Local(&'a mut [C], &'a [Inbox<C::Event>]),
    /// Captures already taken on the core threads.
    Captured(Vec<CoreCapture<C>>),
}

/// The standing checkpoint: full restorable state at the last committed
/// checkpoint. Both checkpoint modes hold full state here; delta mode
/// only maintains it incrementally (apply on capture, `restore_from` on
/// rollback), so its cost follows what changed, not the model size.
pub(super) struct Snapshot<C: CoreModel, U> {
    /// Per-core model state and pending events.
    pub(super) cores: Vec<CoreState<C>>,
    /// Per-core delta baselines for locally captured cores (core threads
    /// keep their own).
    core_gens: Vec<u64>,
    uncore: U,
    uncore_gen: u64,
    /// Global cycle of the checkpoint.
    pub(super) global: Cycle,
    /// Aggregate committed instructions at the checkpoint.
    pub(super) committed: u64,
    tally: ViolationTally,
    pacer: Box<dyn Pacer>,
    next_sample: u64,
    last_sample_tally: ViolationTally,
}

/// The state a stepping strategy starts from: fresh, or restored by
/// [`Kernel::new`] from an [`EngineResume`].
pub(super) struct Start<C: CoreModel, U> {
    pub(super) cores: Vec<C>,
    pub(super) inboxes: Vec<Inbox<C::Event>>,
    pub(super) uncore: U,
    pub(super) global: Cycle,
    pub(super) committed: u64,
    /// The burst scheduler's RNG (used by the sequential strategy only).
    pub(super) rng: Xoshiro256,
}

/// What a stepping strategy reports about its own state at a sample
/// point.
pub(super) struct Sample<'a> {
    /// Per-core local clocks; `None` when every core sits at global time
    /// (batched quantum boundaries).
    pub(super) locals: Option<&'a [Cycle]>,
    /// Events waiting in the global queue.
    pub(super) gq_len: u64,
    /// Per-core `(OutQ, InQ)` ring depths (threaded only).
    pub(super) rings: Option<&'a dyn Fn(usize) -> (u64, u64)>,
    /// Cumulative host time the manager spent waiting, in ns (threaded
    /// only).
    pub(super) manager_wait_ns: Option<u64>,
}

impl<'a> Sample<'a> {
    /// A sample of cores at the given local clocks.
    pub(super) fn cores(locals: &'a [Cycle], gq_len: u64) -> Self {
        Sample {
            locals: Some(locals),
            gq_len,
            rings: None,
            manager_wait_ns: None,
        }
    }

    /// A sample at a serviced boundary: every core at global time, the
    /// global queue empty.
    pub(super) fn boundary() -> Self {
        Sample {
            locals: None,
            gq_len: 0,
            rings: None,
            manager_wait_ns: None,
        }
    }
}

/// Interned metric keys, created once so steady-state sampling performs
/// no string formatting or allocation.
struct MetricKeys {
    /// `drift.core{i}` gauge per core.
    drift: Vec<GaugeId>,
    slack_bound: GaugeId,
    violation_rate: GaugeId,
    globalq_depth: GaugeId,
    globalq_depth_h: HistId,
    /// Cumulative trace records dropped to ring overflow, sampled live so
    /// a mid-run overflow is diagnosable from the metrics CSV.
    trace_dropped: GaugeId,
    persist_bytes: GaugeId,
    /// Series only the threaded strategy feeds; interned only there, so
    /// other engines' CSVs carry no empty histograms.
    threaded: Option<ThreadedKeys>,
}

struct ThreadedKeys {
    core_drift: HistId,
    outq_depth: HistId,
    inq_depth: HistId,
    manager_wait: GaugeId,
    manager_wait_h: HistId,
}

impl MetricKeys {
    fn intern(m: &mut MetricsRegistry, n: usize, threaded: bool) -> Self {
        MetricKeys {
            drift: (0..n)
                .map(|i| m.intern_gauge(&format!("drift.core{i}")))
                .collect(),
            slack_bound: m.intern_gauge("slack_bound"),
            violation_rate: m.intern_gauge("violation_rate"),
            globalq_depth: m.intern_gauge("globalq_depth"),
            globalq_depth_h: m.intern_histogram("globalq_depth"),
            trace_dropped: m.intern_gauge("trace_dropped"),
            persist_bytes: m.intern_gauge("persist_bytes"),
            threaded: threaded.then(|| ThreadedKeys {
                core_drift: m.intern_histogram("core_drift"),
                outq_depth: m.intern_histogram("outq_depth"),
                inq_depth: m.intern_histogram("inq_depth"),
                manager_wait: m.intern_gauge("manager_wait_ns"),
                manager_wait_h: m.intern_histogram("manager_wait_ns"),
            }),
        }
    }
}

/// The manager role shared by every stepping strategy.
pub(super) struct Kernel<C: CoreModel, U> {
    n: usize,
    strategy: Strategy,
    started: Instant,
    commit_target: u64,
    max_cycles: u64,
    spec: Option<SpeculationConfig>,
    /// The pacer, carrying any adaptive/peer state.
    pub(super) pacer: Box<dyn Pacer>,
    /// Violations surviving in the committed timeline (restorable).
    tally: ViolationTally,
    /// Violations detected overall, including rolled-back work.
    detected: ViolationTally,
    sample_period: u64,
    next_sample: u64,
    last_sample_tally: ViolationTally,
    bound_trace: Vec<(Cycle, u64)>,
    tracker: Option<IntervalTracker>,
    spec_stats: SpeculationStats,
    /// Where the current cycle-by-cycle replay began; `Some` exactly while
    /// replaying after a rollback (paper §5.1).
    replay_start: Option<Cycle>,
    next_cp_trigger: u64,
    pending_rollback: bool,
    /// Largest clock spread observed (max local − min local): the
    /// empirical slack.
    pub(super) max_spread: u64,
    snapshot: Option<Snapshot<C, U>>,
    save_hook: Option<SaveHook<C, U>>,
    sink: ServiceSink<C::Event>,
    /// The run's tracer; strategies hand its handles to core threads.
    pub(super) tracer: Tracer,
    /// The manager thread's trace handle.
    pub(super) th: TraceHandle,
    /// The run's host-time profiler.
    pub(super) prof: Profiler,
    live_stats: Arc<LiveStats>,
    live: Option<LiveHandle>,
    obs_on: bool,
    metrics: MetricsRegistry,
    keys: MetricKeys,
    last_metrics_cycle: u64,
    last_metrics_detected: u64,
    last_wait_ns: u64,
}

impl<C, U> Kernel<C, U>
where
    C: CoreModel + Checkpointable,
    U: UncoreModel<C::Event> + Checkpointable,
{
    /// Sets up the manager role for a run over `cores` and `uncore`,
    /// applying `resume` in place of fresh state when given.
    ///
    /// # Errors
    ///
    /// [`EngineError::NoCores`] for an empty core set, and
    /// [`EngineError::Resume`] when the snapshot's core count differs.
    pub(super) fn new(
        cfg: &EngineConfig,
        strategy: Strategy,
        cores: Vec<C>,
        uncore: U,
        save_hook: Option<SaveHook<C, U>>,
        resume: Option<EngineResume<C, U>>,
    ) -> Result<(Self, Start<C, U>), EngineError> {
        let n = cores.len();
        if n == 0 {
            return Err(EngineError::NoCores);
        }
        if let Some(res) = resume.as_ref().filter(|r| r.cores.len() != n) {
            return Err(EngineError::Resume(format!(
                "snapshot holds {} cores but the engine was built with {n}",
                res.cores.len()
            )));
        }
        let started = Instant::now();
        let spec = cfg.speculation;
        let sample_period = cfg.effective_sample_period();

        // Disabled instrumentation keeps every record/span site at one
        // relaxed atomic load.
        let tracer = match cfg.obs {
            Some(o) => Tracer::new(o.trace_capacity),
            None => Tracer::disabled(),
        };
        let prof = cfg.prof.clone().unwrap_or_else(Profiler::disabled);
        // Live telemetry: an observer thread reads relaxed-published
        // atomics on its own host-time cadence; the run never blocks on it.
        let live_stats = Arc::new(LiveStats::new());
        live_stats
            .commit_target
            .store(cfg.commit_target, Ordering::Relaxed);
        let live = cfg
            .live
            .as_ref()
            .filter(|l| l.has_sink())
            .map(|l| crate::obs::live::spawn(l.clone(), Arc::clone(&live_stats), prof.clone()));
        let mut metrics = MetricsRegistry::new(cfg.obs.map_or(1024, |o| o.sample_every));
        let keys = MetricKeys::intern(&mut metrics, n, strategy == Strategy::Threaded);

        let mut k = Kernel {
            n,
            strategy,
            started,
            commit_target: cfg.commit_target,
            max_cycles: cfg.max_cycles,
            spec,
            pacer: cfg.scheme.clone().into_pacer(),
            tally: ViolationTally::new(),
            detected: ViolationTally::new(),
            sample_period,
            next_sample: sample_period,
            last_sample_tally: ViolationTally::new(),
            bound_trace: Vec::new(),
            tracker: spec.map(|s| IntervalTracker::new(s.interval)),
            spec_stats: SpeculationStats::default(),
            replay_start: None,
            next_cp_trigger: spec.map_or(u64::MAX, |s| s.interval),
            pending_rollback: false,
            max_spread: 0,
            snapshot: None,
            save_hook,
            sink: ServiceSink::new(),
            th: tracer.handle(),
            tracer,
            prof,
            live_stats,
            live,
            obs_on: cfg.obs.is_some(),
            metrics,
            keys,
            last_metrics_cycle: 0,
            last_metrics_detected: 0,
            last_wait_ns: 0,
        };
        let mut start = Start {
            inboxes: (0..n).map(|_| Inbox::new()).collect(),
            cores,
            uncore,
            global: Cycle::ZERO,
            committed: 0,
            rng: Xoshiro256::new(cfg.seed),
        };
        if let Some(res) = resume {
            let g = res.global;
            (start.cores, start.inboxes) = res.cores.into_iter().unzip();
            start.uncore = res.uncore;
            start.global = g;
            start.committed = res.committed;
            if let Some(r) = res.rng {
                start.rng = r;
            }
            k.pacer = res.pacer;
            k.tally = res.tally;
            k.detected = res.detected;
            k.next_sample = res.next_sample;
            k.last_sample_tally = res.last_sample_tally;
            k.spec_stats = res.spec_stats;
            if let Some(tr) = res.tracker {
                k.tracker = Some(tr);
            }
            k.bound_trace = res.bound_trace;
            k.max_spread = res.max_spread;
            k.last_metrics_detected = k.detected.total();
            k.last_metrics_cycle = g.as_u64();
            k.next_cp_trigger = spec.map_or(u64::MAX, |s| g.as_u64() + s.interval);
            k.th.record(g, TraceEvent::StateRestore { global: g });
        }
        Ok((k, start))
    }

    /// True when checkpoints are configured.
    pub(super) fn speculating(&self) -> bool {
        self.spec.is_some()
    }

    /// True while replaying cycle by cycle after a rollback.
    pub(super) fn replaying(&self) -> bool {
        self.replay_start.is_some()
    }

    /// True when events are serviced in batches at window boundaries:
    /// under a barrier scheme, and always during replay.
    pub(super) fn barrier(&self) -> bool {
        self.replaying() || self.pacer.barrier_service()
    }

    /// True when a rollback-selected violation awaits [`Kernel::rollback`].
    pub(super) fn rollback_pending(&self) -> bool {
        self.pending_rollback
    }

    /// How the next capture takes a model: `initial` for the free
    /// checkpoint at the start state.
    pub(super) fn capture(&self, initial: bool) -> Capture {
        match self.spec.map(|s| s.mode) {
            Some(CheckpointMode::Delta) if initial => Capture::Seed,
            Some(CheckpointMode::Delta) => Capture::Delta,
            _ => Capture::Full,
        }
    }

    /// Why the run should stop at `global`, if it should. The commit
    /// target only counts `at_boundary`, so barrier schemes stop at a
    /// serviced window boundary — a state every strategy observes.
    pub(super) fn finished(
        &self,
        global: Cycle,
        committed: u64,
        at_boundary: bool,
    ) -> Option<FinishReason> {
        if at_boundary && committed >= self.commit_target {
            Some(FinishReason::CommitTarget)
        } else if global.as_u64() >= self.max_cycles {
            Some(FinishReason::CycleCap)
        } else {
            None
        }
    }

    /// The pending checkpoint trigger, when global time has crossed it.
    pub(super) fn checkpoint_due(&self, global: Cycle) -> Option<u64> {
        self.spec
            .map(|_| self.next_cp_trigger)
            .filter(|&t| global.as_u64() >= t)
    }

    /// The manager's per-iteration bookkeeping at global time `global`:
    /// closes intervals on the fixed grid (Tables 3/4), fires every pacing
    /// sample crossed, takes a metrics sample when one is due and
    /// publishes live stats.
    #[inline]
    pub(super) fn observe(&mut self, global: Cycle, committed: u64, s: &Sample<'_>) {
        if let Some(tr) = &mut self.tracker {
            tr.close_intervals_up_to(global);
        }
        if global.as_u64() >= self.next_sample {
            self.pace(global);
        }
        if self.obs_on && self.metrics.sample_ready(global) {
            self.sample(global, s);
        }
        if self.live.is_some() {
            self.publish_live(global, committed, s);
        }
    }

    /// Hands the pacer one violation-rate sample per sampling point
    /// crossed up to `global`, recording the bound trace.
    fn pace(&mut self, global: Cycle) {
        while global.as_u64() >= self.next_sample {
            let at = Cycle::new(self.next_sample);
            let sample = PaceSample {
                global: at,
                window_cycles: self.sample_period,
                window_violations: self.tally.since(&self.last_sample_tally).total(),
            };
            let bound_before = self.pacer.current_bound();
            self.pacer.on_sample(&sample);
            self.last_sample_tally = self.tally;
            if let Some(b) = self.pacer.current_bound() {
                self.bound_trace.push((at, b));
                if let Some(old) = bound_before.filter(|&old| old != b) {
                    let rate = sample.rate();
                    self.th
                        .record(at, TraceEvent::BoundChange { old, new: b, rate });
                }
            }
            self.next_sample += self.sample_period;
        }
    }

    /// Relaxed stores into the live gauge block; the emitter thread reads
    /// them on its own host-time cadence.
    fn publish_live(&self, global: Cycle, committed: u64, s: &Sample<'_>) {
        let ls = &*self.live_stats;
        let store = |a: &std::sync::atomic::AtomicU64, v| a.store(v, Ordering::Relaxed);
        store(&ls.global, global.as_u64());
        store(&ls.committed, committed);
        store(&ls.bound, self.pacer.current_bound().unwrap_or(NO_BOUND));
        store(&ls.violations, self.tally.total());
        store(&ls.globalq_depth, s.gq_len);
        if let Some(rings) = s.rings {
            let (outq, inq) = (0..self.n)
                .map(rings)
                .fold((0, 0), |(o, i), (a, b)| (o + a, i + b));
            store(&ls.outq_depth, outq);
            store(&ls.inq_depth, inq);
        }
        store(&ls.dropped_traces, self.tracer.dropped_so_far());
        store(&ls.checkpoints, self.spec_stats.checkpoints);
        store(&ls.rollbacks, self.spec_stats.rollbacks);
    }

    /// Emits one metrics sample: per-core drift gauges and local-time
    /// trace samples, the scalar aggregates, and the threaded strategy's
    /// ring-depth and manager-wait series when given.
    fn sample(&mut self, global: Cycle, s: &Sample<'_>) {
        let (m, keys, th) = (&mut self.metrics, &self.keys, &mut self.th);
        for i in 0..self.n {
            let core = CoreId::new(i as u16);
            let l = s.locals.map_or(global, |l| l[i]);
            let drift = l.saturating_sub(global);
            m.gauge_by(keys.drift[i], global, drift as f64);
            if let Some(t) = &keys.threaded {
                m.histogram_by(t.core_drift).record(drift);
            }
            th.record(global, TraceEvent::LocalTimeSample { core, cycle: l });
            if let (Some(t), Some(rings)) = (&keys.threaded, s.rings) {
                let (outq, inq) = rings(i);
                m.histogram_by(t.outq_depth).record(outq);
                m.histogram_by(t.inq_depth).record(inq);
                let q = QueueKind::OutQ(core);
                th.record(global, TraceEvent::QueueDepth { q, len: outq });
                let q = QueueKind::InQ(core);
                th.record(global, TraceEvent::QueueDepth { q, len: inq });
            }
        }
        if let Some(b) = self.pacer.current_bound() {
            m.gauge_by(keys.slack_bound, global, b as f64);
        }
        // Rate over the cycles actually elapsed since the previous sample:
        // a fixed divisor misstates the rate whenever the sampler fires
        // off-cadence, and zero elapsed cycles (e.g. the first crossing
        // after a resume) must not produce a non-finite gauge value.
        let elapsed = global.as_u64().saturating_sub(self.last_metrics_cycle);
        let detected = self.detected.total();
        let rate = if elapsed == 0 {
            0.0
        } else {
            (detected - self.last_metrics_detected) as f64 / elapsed as f64
        };
        self.last_metrics_cycle = global.as_u64();
        self.last_metrics_detected = detected;
        m.gauge_by(keys.violation_rate, global, rate);
        m.gauge_by(keys.globalq_depth, global, s.gq_len as f64);
        m.histogram_by(keys.globalq_depth_h).record(s.gq_len);
        let q = QueueKind::Global;
        th.record(global, TraceEvent::QueueDepth { q, len: s.gq_len });
        let dropped = self.tracer.dropped_so_far();
        m.gauge_by(keys.trace_dropped, global, dropped as f64);
        if let (Some(t), Some(wait_ns)) = (&keys.threaded, s.manager_wait_ns) {
            let ns = wait_ns - self.last_wait_ns;
            self.last_wait_ns = wait_ns;
            m.gauge_by(t.manager_wait, global, ns as f64);
            m.histogram_by(t.manager_wait_h).record(ns);
            th.record(global, TraceEvent::ManagerWait { ns });
        }
    }

    /// Services one event, handing its deliveries to `deliver` and
    /// recording every violation it raised: the restorable tally, the
    /// monotone detected count, a trace instant attributed to `from`, the
    /// interval tracker, and — outside replay — the rollback decision.
    #[inline]
    pub(super) fn service(
        &mut self,
        uncore: &mut U,
        from: CoreId,
        ev: Timestamped<C::Event>,
        deliver: &mut impl FnMut(CoreId, Timestamped<C::Event>),
    ) {
        uncore.service(from, ev, &mut self.sink);
        for (to, out) in self.sink.take_deliveries() {
            deliver(to, out);
        }
        for v in self.sink.take_violations() {
            self.tally.record(v.kind);
            self.detected.record(v.kind);
            self.th.record(
                v.ts,
                TraceEvent::Violation {
                    kind: v.kind,
                    core: from,
                    ts: v.ts,
                    high_water: v.high_water,
                },
            );
            if let Some(tr) = self.tracker.as_mut() {
                tr.observe_violation(v.ts);
            }
            if self.replay_start.is_none()
                && self.spec.is_some_and(|s| s.rollback_on.selects(v.kind))
            {
                self.pending_rollback = true;
            }
        }
    }

    /// Services every queued event in timestamp order. Once a rollback is
    /// pending the rest of the queue is doomed and discarded. Returns
    /// whether a rollback is pending.
    pub(super) fn service_queue(
        &mut self,
        gq: &mut GlobalQueue<C::Event>,
        uncore: &mut U,
        mut deliver: impl FnMut(CoreId, Timestamped<C::Event>),
    ) -> bool {
        while let Some((from, ev)) = gq.pop() {
            self.service(uncore, from, ev, &mut deliver);
            if self.pending_rollback {
                gq.clear();
                break;
            }
        }
        self.pending_rollback
    }

    /// Takes the free initial checkpoint of the start state (nothing
    /// without speculation).
    pub(super) fn init_snapshot(
        &mut self,
        global: Cycle,
        committed: u64,
        uncore: &mut U,
        cores: Cores<'_, C>,
    ) {
        if self.spec.is_some() {
            self.store(global, committed, uncore, cores, self.capture(true));
        }
    }

    /// Folds a capture of the cores plus the live uncore and the
    /// restorable scalars into the standing snapshot (creating it on the
    /// first capture).
    fn store(
        &mut self,
        global: Cycle,
        committed: u64,
        uncore: &mut U,
        cores: Cores<'_, C>,
        how: Capture,
    ) {
        let (captures, core_gens) = match cores {
            Cores::Local(models, inboxes) => {
                let mut gens = self
                    .snapshot
                    .as_mut()
                    .map_or_else(|| vec![0; self.n], |s| std::mem::take(&mut s.core_gens));
                let caps = models
                    .iter_mut()
                    .zip(inboxes)
                    .zip(&mut gens)
                    .map(|((m, ib), g)| CoreCapture::take(m, ib, g, how))
                    .collect();
                (caps, gens)
            }
            Cores::Captured(caps) => (caps, Vec::new()),
        };
        let pacer = self.pacer.clone_box();
        let Some(snap) = self.snapshot.as_mut() else {
            let uncore_gen = if how == Capture::Seed {
                seed(uncore)
            } else {
                0
            };
            self.snapshot = Some(Snapshot {
                cores: captures
                    .into_iter()
                    .map(|cap| match cap {
                        CoreCapture::Full(b) => *b,
                        CoreCapture::Delta(_) => unreachable!("the first capture is full"),
                    })
                    .collect(),
                core_gens,
                uncore: uncore.clone(),
                uncore_gen,
                global,
                committed,
                tally: self.tally,
                pacer,
                next_sample: self.next_sample,
                last_sample_tally: self.last_sample_tally,
            });
            return;
        };
        for (slot, cap) in snap.cores.iter_mut().zip(captures) {
            match cap {
                CoreCapture::Full(b) => *slot = *b,
                CoreCapture::Delta(b) => {
                    let (d, inbox) = *b;
                    slot.0.apply_delta(d);
                    slot.1 = inbox;
                }
            }
        }
        if how == Capture::Delta {
            let d = uncore.capture_delta(snap.uncore_gen);
            snap.uncore.apply_delta(d);
            snap.uncore_gen = uncore.generation();
        } else {
            snap.uncore = uncore.clone();
        }
        snap.core_gens = core_gens;
        snap.global = global;
        snap.committed = committed;
        snap.tally = self.tally;
        snap.pacer = pacer;
        snap.next_sample = self.next_sample;
        snap.last_sample_tally = self.last_sample_tally;
    }

    /// Commits a checkpoint at `at`, where every core's clock equals `at`
    /// and every event at or below it has been serviced: ends any replay,
    /// counts and traces the checkpoint, compacts the monitors, captures
    /// the state into the standing snapshot and hands a view of it to the
    /// save hook.
    pub(super) fn commit_checkpoint(
        &mut self,
        ph: &ProfHandle,
        at: Cycle,
        committed: u64,
        uncore: &mut U,
        cores: Cores<'_, C>,
        rng: Option<&Xoshiro256>,
    ) {
        if let Some(start) = self.replay_start.take() {
            let replay_cycles = at.saturating_sub(start);
            self.spec_stats.replay_cycles += replay_cycles;
            let ordinal = self.spec_stats.rollbacks;
            self.th.record(
                at,
                TraceEvent::ReplayEnd {
                    ordinal,
                    replay_cycles,
                },
            );
            for core in CoreId::all(self.n) {
                let phase = Phase::Replay;
                self.th.record(at, TraceEvent::PhaseEnd { core, phase });
            }
        }
        self.spec_stats.checkpoints += 1;
        let ordinal = self.spec_stats.checkpoints;
        let trigger = self.next_cp_trigger;
        self.th.record(
            Cycle::new(trigger.min(at.as_u64())),
            TraceEvent::Checkpoint {
                ordinal,
                overshoot: at.as_u64().saturating_sub(trigger),
            },
        );
        // Every event at or below the checkpoint has been serviced, so
        // monitor entries whose high-water mark is at or below `at` can
        // never flag again: drop them before capture so the snapshot
        // stays compact too.
        uncore.compact_monitors(at);
        {
            let how = self.capture(false);
            let local = matches!(cores, Cores::Local(..));
            let _capture = local.then(|| ph.enter(ProfSite::CheckpointCapture));
            let _apply =
                (!local || how == Capture::Delta).then(|| ph.enter(ProfSite::CheckpointApply));
            self.store(at, committed, uncore, cores, how);
        }
        if let Some(hook) = self.save_hook.as_mut() {
            let _span = ph.enter(ProfSite::PersistIo);
            let snap = self.snapshot.as_ref().expect("checkpoint just stored");
            let view = CheckpointView {
                ordinal,
                global: snap.global,
                cores: snap.cores.iter().map(|(c, ib)| (c, ib)).collect(),
                uncore: &snap.uncore,
                committed: snap.committed,
                tally: snap.tally,
                detected: self.detected,
                next_sample: snap.next_sample,
                last_sample_tally: snap.last_sample_tally,
                spec_stats: self.spec_stats,
                tracker: self.tracker.as_ref(),
                pacer: &*snap.pacer,
                rng,
                bound_trace: &self.bound_trace,
                max_spread: self.max_spread,
            };
            let bytes = hook(&view).unwrap_or(0);
            self.th
                .record(at, TraceEvent::StatePersist { ordinal, bytes });
            self.metrics
                .gauge_by(self.keys.persist_bytes, at, bytes as f64);
        }
        self.next_cp_trigger = at.as_u64() + self.spec.map_or(0, |s| s.interval);
    }

    /// Rolls the manager state back to the standing checkpoint after a
    /// rollback-selected violation at global time `at` and enters
    /// cycle-by-cycle replay: counts and traces the wasted work, restores
    /// the uncore, tally, pacer and sampling state, and the `cores` and
    /// `inboxes` living on this thread (empty when the cores live on their
    /// own threads). Returns the snapshot so the strategy can restore its
    /// clocks, commit count and any remote cores.
    pub(super) fn rollback(
        &mut self,
        at: Cycle,
        uncore: &mut U,
        cores: &mut [C],
        inboxes: &mut [Inbox<C::Event>],
    ) -> &mut Snapshot<C, U> {
        let delta = self.capture(false) == Capture::Delta;
        let snap = self
            .snapshot
            .as_mut()
            .expect("rollback requires a snapshot");
        self.spec_stats.rollbacks += 1;
        let wasted_cycles = at.saturating_sub(snap.global);
        self.spec_stats.wasted_cycles += wasted_cycles;
        // Recorded at the rollback instant: the exporter renders the
        // discarded region as the span [at - wasted, at).
        let ordinal = self.spec_stats.rollbacks;
        self.th.record(
            at,
            TraceEvent::Rollback {
                ordinal,
                wasted_cycles,
            },
        );
        for (i, (core, inbox)) in cores.iter_mut().zip(inboxes).enumerate() {
            let (c, ib) = &snap.cores[i];
            if delta {
                // Copy back only what diverged since the checkpoint.
                core.restore_from(c, snap.core_gens[i]);
            } else {
                *core = c.clone();
            }
            *inbox = ib.clone();
        }
        if delta {
            uncore.restore_from(&snap.uncore, snap.uncore_gen);
        } else {
            *uncore = snap.uncore.clone();
        }
        self.tally = snap.tally;
        self.pacer = snap.pacer.clone_box();
        self.next_sample = snap.next_sample;
        self.last_sample_tally = snap.last_sample_tally;
        self.replay_start = Some(snap.global);
        for core in CoreId::all(self.n) {
            let phase = Phase::Replay;
            self.th
                .record(snap.global, TraceEvent::PhaseBegin { core, phase });
        }
        self.next_cp_trigger = snap.global.as_u64() + self.spec.map_or(0, |s| s.interval);
        self.pending_rollback = false;
        snap
    }

    /// Ends the run at `global`: closes the interval grid, flushes a
    /// terminal metrics sample (so exports always hold the end state),
    /// and assembles the report with the kernel counters.
    pub(super) fn finish(
        mut self,
        global: Cycle,
        committed: u64,
        reason: FinishReason,
        last: &Sample<'_>,
        per_core: Vec<Counters>,
        uncore: Counters,
    ) -> SimReport {
        if let Some(tr) = &mut self.tracker {
            tr.close_intervals_up_to(global);
        }
        // Guarded so a sample that already landed on this exact cycle is
        // not duplicated: gauge series are strictly increasing in cycle.
        if self.obs_on && global.as_u64() > self.last_metrics_cycle {
            self.sample(global, last);
        }

        let mut kernel = Counters::new();
        let s = self.spec_stats;
        kernel.set("checkpoints", s.checkpoints);
        kernel.set("rollbacks", s.rollbacks);
        kernel.set("wasted_cycles", s.wasted_cycles);
        kernel.set("replay_cycles", s.replay_cycles);
        let d = self.detected;
        kernel.set("violations_detected_total", d.total());
        kernel.set("violations_detected_bus", d.count(ViolationKind::Bus));
        kernel.set("violations_detected_map", d.count(ViolationKind::Map));
        kernel.set(
            "violations_detected_directory",
            d.count(ViolationKind::Directory),
        );
        kernel.set(
            "finish_commit_target",
            u64::from(reason == FinishReason::CommitTarget),
        );
        kernel.set("max_clock_spread", self.max_spread);
        if let Some(tr) = &self.tracker {
            kernel.set("intervals_total", tr.intervals_total());
            kernel.set("intervals_violating", tr.intervals_violating());
            // Fixed-point (x1000) so the f64 statistic survives the
            // counter interface; the bench harness divides back.
            kernel.set(
                "mean_first_violation_distance_x1000",
                (tr.mean_first_distance() * 1000.0).round() as u64,
            );
        }

        let metrics = std::mem::take(&mut self.metrics);
        let obs = self.obs_on.then(|| {
            self.th.flush();
            let (records, dropped) = self.tracer.drain();
            ObsData {
                cores: self.n,
                records,
                dropped,
                metrics,
            }
        });
        let wall = self.started.elapsed();

        // Publish the final tallies before the terminal heartbeat so the
        // last emitted line reports the finished run exactly.
        if let Some(h) = self.live.take() {
            let ls = &self.live_stats;
            ls.global.store(global.as_u64(), Ordering::Relaxed);
            ls.committed.store(committed, Ordering::Relaxed);
            ls.violations.store(self.tally.total(), Ordering::Relaxed);
            h.finish();
        }
        // Every core thread plus the manager contributes self-time on the
        // threaded strategy; the coverage denominator is wall * threads.
        let threads = match self.strategy {
            Strategy::Threaded => self.n as u64 + 1,
            Strategy::Sequential | Strategy::Batched => 1,
        };
        SimReport {
            global_cycles: global.as_u64(),
            committed,
            violations: self.tally,
            wall,
            per_core,
            uncore,
            kernel,
            bound_trace: self.bound_trace,
            obs,
            prof: self
                .prof
                .is_enabled()
                .then(|| self.prof.snapshot(wall, threads)),
        }
    }
}
