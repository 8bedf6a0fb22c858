//! The threaded engine: one host thread per target core plus the
//! simulation-manager logic, exactly as SlackSim maps a CMP simulation
//! onto a host CMP (paper §2).
//!
//! Each core thread owns its [`CoreModel`] and advances it while its local
//! time is below the max local time published by the manager. Events flow
//! through shared queues (OutQ/InQ); the manager consolidates OutQ
//! entries into the global queue and services them — greedily under slack
//! schemes, in sorted batches at window boundaries under barrier schemes
//! (cycle-by-cycle, quantum, and post-rollback replay).
//!
//! Checkpoints and rollbacks use a stop-sync protocol over per-core command
//! channels: *stop → run-to common local time → drain → snapshot/restore →
//! resume*, the in-memory equivalent of the paper's `fork()`-based global
//! checkpoints.
//!
//! Everything here is built on `std` alone: `std::sync::mpsc` channels for
//! commands/acks (each core's receiver is moved into its thread), the
//! lock-free [`SpscRing`] for the OutQ/InQ event paths, and the
//! mutex-backed [`SnapshotSlot`] for checkpoint hand-off.
//!
//! ## Host-synchronization design (see DESIGN.md "Engine concurrency")
//!
//! * OutQ/InQ are bounded lock-free SPSC rings with an overflow spill;
//!   each direction has exactly one producer and one consumer, and the
//!   stop-sync protocol's channel acks order every role handoff (e.g. the
//!   manager clearing a core's InQ during rollback while the core is
//!   parked in its command loop).
//! * The manager drains each OutQ in one batch per visit and batch-inserts
//!   into the global queue; its loop reuses persistent scratch buffers and
//!   interned metric keys, so the steady state performs no heap
//!   allocation.
//! * Waiting is an adaptive ladder — spin, then `yield_now`, then
//!   park/unpark with a timeout backstop — for both core threads capped by
//!   the window and the manager when no core made progress.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::checkpoint::{CheckpointMode, Checkpointable};
use crate::engine::{
    CheckpointView, CoreModel, EngineConfig, EngineError, EngineResume, FinishReason, SaveHook,
    ServiceSink, TickCtx, UncoreModel,
};
use crate::event::{CoreId, GlobalQueue, Inbox, Timestamped};
use crate::obs::live::NO_BOUND;
use crate::obs::{
    GaugeId, HistId, LiveStats, MetricsRegistry, ObsData, Phase, ProfHandle, ProfSite, Profiler,
    QueueKind, TraceEvent, TraceHandle, Tracer,
};
use crate::sched::{HostSched, SchedSite, TaskId};
use crate::scheme::{PaceSample, Pacer};
use crate::speculative::{IntervalTracker, SpeculationStats};
use crate::stats::{Counters, SimReport};
use crate::sync::{SnapshotSlot, SpscRing};
use crate::time::Cycle;
use crate::violation::ViolationTally;

/// Spin iterations before a capped core starts yielding (plenty-of-CPUs
/// hosts only; oversubscribed hosts skip the spin tier).
const CORE_SPIN_ITERS: u32 = 64;
/// Yield iterations before a capped core parks.
const CORE_YIELD_ITERS: u32 = 64;
/// Park-timeout backstop for core threads: the manager unparks them on
/// every window publish, the timeout only covers lost-wakeup races.
const CORE_PARK_TIMEOUT: Duration = Duration::from_micros(100);

/// Spin iterations before an idle manager starts yielding.
const MGR_SPIN_ITERS: u32 = 32;
/// Yield iterations before an idle manager parks.
const MGR_YIELD_ITERS: u32 = 32;
/// Yield iterations before an idle manager parks on an oversubscribed
/// host (the spin tier is skipped there: spinning steals the quanta the
/// core threads need, while yielding hands the CPU over within a few
/// scheduler decisions).
const MGR_YIELD_ITERS_OVERSUB: u32 = 128;
/// Yield iterations before a capped core parks on an oversubscribed host.
const CORE_YIELD_ITERS_OVERSUB: u32 = 256;
/// Manager park timeout: nobody unparks the manager, so this is the
/// polling cadence once the ladder bottoms out.
const MGR_PARK_TIMEOUT: Duration = Duration::from_micros(20);

/// Yield-tier depth used under a virtual scheduler (both ladders): the
/// spin tier is skipped and the yield tier pinned to a short,
/// machine-independent count so explored schedules do not depend on the
/// host's core count or timing.
const VIRT_YIELD_ITERS: u32 = 2;

/// True when the host cannot run all `n` core threads plus the manager
/// concurrently. Spinning in that regime only burns the quanta the
/// productive threads need, so both wait ladders skip their spin tier and
/// lead with `yield_now`.
fn host_oversubscribed(n: usize) -> bool {
    std::thread::available_parallelism().map_or(true, |p| p.get() < n + 1)
}

/// Commands the manager sends to a core thread.
enum Command<C: CoreModel> {
    /// Pause at the current local time and acknowledge it.
    Stop,
    /// Run (ignoring the published max local time) until the local clock
    /// reaches the given cycle, then acknowledge.
    RunTo(u64),
    /// Capture the core's state into the snapshot slot: a full clone of
    /// the model and pending inbox, or (delta mode) a delta against the
    /// generation recorded at the previous capture.
    Snapshot { delta: bool },
    /// Replace the core model and inbox with the given restored state
    /// (full mode).
    Restore(Box<CoreSnapshot<C>>),
    /// Rewind the model onto the given checkpoint base via
    /// [`Checkpointable::restore_from`] (delta mode) and hand the
    /// untouched base back through the snapshot slot.
    RestoreDelta(Box<CoreSnapshot<C>>),
    /// Leave the control sub-loop and return to normal execution.
    Resume,
}

/// A core thread's snapshot: the model plus its undelivered inbox events.
type CoreSnapshot<C> = (C, Inbox<<C as CoreModel>::Event>);

/// What a core thread deposits in its snapshot slot.
enum CoreCapture<C: CoreModel + Checkpointable> {
    /// Full clone of the model and pending inbox.
    Full(Box<CoreSnapshot<C>>),
    /// Delta against the previous capture, plus the pending inbox
    /// (inboxes are tiny at checkpoint boundaries; deltas do not pay to
    /// diff them).
    Delta(Box<(C::Delta, Inbox<<C as CoreModel>::Event>)>),
    /// The checkpoint base handed back untouched after a delta-mode
    /// rollback, so the manager keeps its standing copy without a clone.
    Base(Box<CoreSnapshot<C>>),
}

/// State shared between the manager and one core thread.
struct CoreShared<C: CoreModel + Checkpointable> {
    local: AtomicU64,
    max_local: AtomicU64,
    /// Core produces, manager consumes.
    outq: SpscRing<Timestamped<C::Event>>,
    /// Manager produces, core consumes.
    inq: SpscRing<Timestamped<C::Event>>,
    snapshot: SnapshotSlot<CoreCapture<C>>,
    /// True while the core thread is (about to be) parked on the window.
    parked: AtomicBool,
    /// Raised by the manager before every command send; the core's
    /// pre-park re-check reads it so a command can never be lost to the
    /// park race (the parked flag alone is not enough: an earlier wake
    /// may have already claimed it, and the window/done re-check says
    /// nothing about the command channel). Cleared by the core at the
    /// top of its loop, before it polls the channel.
    cmd_pending: AtomicBool,
    /// The core thread's scheduler task, registered once at thread
    /// startup so the manager can unpark it.
    task: OnceLock<TaskId>,
    /// Number of times the core thread reached the park tier.
    parks: AtomicU64,
}

/// Unparks the core thread behind `s` if it is parked (or about to park).
///
/// The SeqCst fence pairs with the core's store-fence-recheck sequence
/// before it parks: the caller's preceding state change (window store,
/// done flag, `cmd_pending`) and the core's parked flag cannot both be
/// missed, so a wake-up is never lost — provided the state change is one
/// the re-check actually reads. Command sends must therefore go through
/// [`send_cmd`], which raises `cmd_pending` first; the send alone is
/// invisible to the re-check, and the parked flag may already have been
/// claimed by an earlier wake, in which case this function does nothing.
fn wake_core<C: CoreModel + Checkpointable>(s: &CoreShared<C>, sched: &dyn HostSched) {
    fence(Ordering::SeqCst);
    if s.parked.load(Ordering::Relaxed) && s.parked.swap(false, Ordering::SeqCst) {
        if let Some(&t) = s.task.get() {
            sched.unpark(t);
        }
    }
}

/// Sends a command to a core with a park-safe wake-up: `cmd_pending` is
/// raised before the send so the core either sees it in its pre-park
/// re-check or is already awake and polls the channel on its next loop
/// iteration. Without the flag a command could strand a core in its park
/// until the timeout backstop — a stall the virtual-scheduler conformance
/// runs (which park without timeouts) diagnose as a livelock.
fn send_cmd<C: CoreModel + Checkpointable>(
    s: &CoreShared<C>,
    tx: &Sender<Command<C>>,
    cmd: Command<C>,
    sched: &dyn HostSched,
) {
    s.cmd_pending.store(true, Ordering::SeqCst);
    tx.send(cmd).expect("core alive");
    wake_core(s, sched);
}

/// The manager's adaptive wait ladder: spin, then yield, then park with a
/// timeout. Reset on any progress. On oversubscribed hosts the spin tier
/// is skipped and the yield tier shortened: no core can advance while the
/// manager holds the CPU, so burning it is counterproductive.
struct Backoff {
    idle: u32,
    parks: u64,
    spin_iters: u32,
    park_after: u32,
}

impl Backoff {
    fn new(oversubscribed: bool, virtualized: bool) -> Self {
        let (spin_iters, yield_iters) = if virtualized {
            (0, VIRT_YIELD_ITERS)
        } else if oversubscribed {
            (0, MGR_YIELD_ITERS_OVERSUB)
        } else {
            (MGR_SPIN_ITERS, MGR_YIELD_ITERS)
        };
        Backoff {
            idle: 0,
            parks: 0,
            spin_iters,
            park_after: spin_iters + yield_iters,
        }
    }

    #[inline]
    fn reset(&mut self) {
        self.idle = 0;
    }

    /// Profiler site the *next* `wait` call will land in, so the caller
    /// can open the matching span before entering the ladder.
    #[inline]
    fn next_site(&self) -> ProfSite {
        let next = self.idle.saturating_add(1);
        if next <= self.spin_iters {
            ProfSite::ManagerWaitSpin
        } else if next <= self.park_after {
            ProfSite::ManagerWaitYield
        } else {
            ProfSite::ManagerWaitPark
        }
    }

    fn wait(&mut self, sched: &dyn HostSched) {
        self.idle = self.idle.saturating_add(1);
        if self.idle <= self.spin_iters {
            sched.idle_spin(SchedSite::ManagerIdle);
        } else if self.idle <= self.park_after {
            sched.idle_yield(SchedSite::ManagerIdle);
        } else {
            self.parks += 1;
            sched.park_timeout(SchedSite::ManagerIdle, MGR_PARK_TIMEOUT);
        }
    }
}

/// Execution mode of the speculation state machine (mirrors the
/// sequential engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Base,
    Replay,
}

/// Manager-side copy of a global checkpoint.
///
/// The snapshot always holds *full* state in both checkpoint modes; the
/// mode only changes how it is maintained. Full mode rebuilds it from
/// fresh clones at every checkpoint; delta mode applies the cores'
/// capture deltas onto the standing copy in place and rolls back via
/// `restore_from`, which copies only the units that diverged.
struct ManagerSnapshot<C: CoreModel, U> {
    cores: Vec<CoreSnapshot<C>>,
    uncore: U,
    /// Generation token of the live uncore at this checkpoint (the
    /// baseline the next delta capture diffs against; unused in full
    /// mode).
    uncore_gen: u64,
    global: Cycle,
    tally: ViolationTally,
    committed: u64,
    pacer: Box<dyn Pacer>,
    next_sample: u64,
    last_sample_tally: ViolationTally,
}

/// Parallel slack-simulation engine: `n` core threads plus the manager.
///
/// Semantics are identical to
/// [`SequentialEngine`](crate::engine::SequentialEngine); under
/// cycle-by-cycle pacing the two produce bit-identical statistics. Under
/// slack pacing the threaded engine inherits the host scheduler's real
/// nondeterminism — which is the paper's point.
pub struct ThreadedEngine<C: CoreModel, U: UncoreModel<C::Event>> {
    cores: Vec<C>,
    uncore: U,
    cfg: EngineConfig,
    save_hook: Option<SaveHook<C, U>>,
    resume: Option<EngineResume<C, U>>,
}

/// Manager-side scalar state carried into `manager_loop` when resuming
/// from a persisted snapshot (the cores, uncore, pacer and aggregate
/// commit count are applied in `run` before the loop starts).
struct ManagerResume {
    global: Cycle,
    tally: ViolationTally,
    detected: ViolationTally,
    next_sample: u64,
    last_sample_tally: ViolationTally,
    spec_stats: SpeculationStats,
    tracker: Option<IntervalTracker>,
    bound_trace: Vec<(Cycle, u64)>,
    max_spread: u64,
}

impl<C, U> ThreadedEngine<C, U>
where
    C: CoreModel + Checkpointable,
    U: UncoreModel<C::Event> + Checkpointable,
{
    /// Creates an engine over the given target cores and uncore.
    pub fn new(cores: Vec<C>, uncore: U, cfg: EngineConfig) -> Self {
        ThreadedEngine {
            cores,
            uncore,
            cfg,
            save_hook: None,
            resume: None,
        }
    }

    /// Installs a hook invoked with a borrowed view of every committed
    /// checkpoint (e.g. to persist it to disk). Runs on the manager
    /// thread while the cores are paused at the checkpoint boundary.
    #[must_use]
    pub fn with_save_hook(mut self, hook: SaveHook<C, U>) -> Self {
        self.save_hook = Some(hook);
        self
    }

    /// Seeds the engine with restored state so the run continues from a
    /// persisted checkpoint instead of cycle zero. The engine must have
    /// been built with the same configuration (core count, scheme,
    /// speculation settings) as the run that produced the snapshot.
    #[must_use]
    pub fn with_resume(mut self, resume: EngineResume<C, U>) -> Self {
        self.resume = Some(resume);
        self
    }

    /// Runs the simulation to completion, spawning one host thread per
    /// target core.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NoCores`] for an empty core set.
    pub fn run(self) -> Result<SimReport, EngineError> {
        let ThreadedEngine {
            cores,
            uncore,
            cfg,
            mut save_hook,
            resume,
        } = self;
        let n = cores.len();
        if n == 0 {
            return Err(EngineError::NoCores);
        }
        let started = Instant::now();

        if cfg.commit_target == 0 {
            // Trivial run: nothing to simulate.
            return Ok(SimReport {
                per_core: cores.iter().map(CoreModel::counters).collect(),
                uncore: uncore.counters(),
                obs: cfg.obs.map(|o| ObsData {
                    cores: n,
                    records: Vec::new(),
                    dropped: 0,
                    metrics: MetricsRegistry::new(o.sample_every),
                }),
                ..SimReport::default()
            });
        }

        // The host scheduler every wait path goes through. The data-structure
        // hook is `None` under the native scheduler, so production queue
        // operations stay instrumentation-free.
        let sched = Arc::clone(cfg.sched.get());
        let hook = cfg.sched.instrumentation_hook();

        // Apply restored state before anything is shared with the core
        // threads: cores and their undelivered inboxes replace the fresh
        // models, every clock starts at the snapshot's global time, and
        // the aggregate commit counter is re-seeded.
        let mut cores = cores;
        let mut uncore = uncore;
        let mut core_inboxes: Vec<Inbox<C::Event>> = (0..n).map(|_| Inbox::new()).collect();
        let mut start_committed = 0u64;
        let mut pacer = cfg.scheme.clone().into_pacer();
        let mut mgr_resume: Option<ManagerResume> = None;
        if let Some(res) = resume {
            if res.cores.len() != n {
                return Err(EngineError::Resume(format!(
                    "snapshot holds {} cores but the engine was built with {n}",
                    res.cores.len()
                )));
            }
            cores.clear();
            core_inboxes.clear();
            for (core, inbox) in res.cores {
                cores.push(core);
                core_inboxes.push(inbox);
            }
            uncore = res.uncore;
            pacer = res.pacer;
            start_committed = res.committed;
            mgr_resume = Some(ManagerResume {
                global: res.global,
                tally: res.tally,
                detected: res.detected,
                next_sample: res.next_sample,
                last_sample_tally: res.last_sample_tally,
                spec_stats: res.spec_stats,
                tracker: res.tracker,
                bound_trace: res.bound_trace,
                max_spread: res.max_spread,
            });
        }
        let start_global = mgr_resume.as_ref().map_or(0, |r| r.global.as_u64());

        let shared: Vec<Arc<CoreShared<C>>> = (0..n)
            .map(|_| {
                Arc::new(CoreShared {
                    local: AtomicU64::new(start_global),
                    max_local: AtomicU64::new(start_global),
                    outq: SpscRing::with_sched(hook.clone()),
                    inq: SpscRing::with_sched(hook.clone()),
                    snapshot: SnapshotSlot::with_sched(hook.clone()),
                    parked: AtomicBool::new(false),
                    cmd_pending: AtomicBool::new(false),
                    task: OnceLock::new(),
                    parks: AtomicU64::new(0),
                })
            })
            .collect();
        let done = Arc::new(AtomicBool::new(false));
        let committed = Arc::new(AtomicU64::new(start_committed));

        // A disabled tracer keeps every instrumentation site at one relaxed
        // atomic load when no ObsConfig was given.
        let tracer = match cfg.obs {
            Some(o) => Tracer::new(o.trace_capacity),
            None => Tracer::disabled(),
        };

        // Host-time profiler: same disabled-cost contract as the tracer —
        // an un-configured profiler reduces every span site to one relaxed
        // atomic load, so uninstrumented runs stay unperturbed.
        let prof = cfg.prof.clone().unwrap_or_else(Profiler::disabled);

        // Live telemetry: an observer thread outside the scheduling
        // discipline reads these engine-published atomics on its own
        // host-time cadence. Cores and the manager only ever issue relaxed
        // stores into it, so enabling a heartbeat never stalls simulation
        // threads.
        let live_stats = Arc::new(LiveStats::new());
        live_stats
            .commit_target
            .store(cfg.commit_target, Ordering::Relaxed);
        live_stats
            .committed
            .store(start_committed, Ordering::Relaxed);
        let live_handle = cfg
            .live
            .as_ref()
            .filter(|l| l.has_sink())
            .map(|l| crate::obs::live::spawn(l.clone(), Arc::clone(&live_stats), prof.clone()));
        let live_on = live_handle.is_some();

        let mut cmd_txs: Vec<Sender<Command<C>>> = Vec::with_capacity(n);
        let mut cmd_rxs: Vec<Receiver<Command<C>>> = Vec::with_capacity(n);
        let mut ack_txs: Vec<Sender<u64>> = Vec::with_capacity(n);
        let mut ack_rxs: Vec<Receiver<u64>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (ct, cr) = channel();
            let (at, ar) = channel();
            cmd_txs.push(ct);
            cmd_rxs.push(cr);
            ack_txs.push(at);
            ack_rxs.push(ar);
        }

        // Cores start frozen (max local time = start time); the manager
        // publishes the first window after taking the free initial
        // checkpoint.
        let report = std::thread::scope(|scope| {
            // --- Core threads ------------------------------------------------
            // std mpsc receivers are single-consumer: each core's command
            // receiver and ack sender are moved into its thread.
            let mut handles = Vec::with_capacity(n);
            let oversubscribed = host_oversubscribed(n);
            for (i, (((model, inbox), cmd_rx), ack_tx)) in cores
                .into_iter()
                .zip(core_inboxes)
                .zip(cmd_rxs)
                .zip(ack_txs)
                .enumerate()
            {
                let shared = Arc::clone(&shared[i]);
                let done = Arc::clone(&done);
                let committed = Arc::clone(&committed);
                let th = tracer.handle();
                let ph = prof.handle();
                let sched = Arc::clone(&sched);
                handles.push(scope.spawn(move || {
                    core_thread(
                        CoreId::new(i as u16),
                        model,
                        inbox,
                        &shared,
                        &done,
                        &committed,
                        &cmd_rx,
                        &ack_tx,
                        oversubscribed,
                        &*sched,
                        th,
                        ph,
                    )
                }));
            }

            // --- Manager (this thread) ---------------------------------------
            // Registration happens after every core is spawned: a virtual
            // scheduler's `register` blocks until the whole expected task
            // set has arrived, so registering earlier would deadlock the
            // spawn loop.
            sched.register("manager");
            let outcome = manager_loop(
                &cfg,
                &mut pacer,
                &mut uncore,
                &shared,
                &committed,
                &cmd_txs,
                &ack_rxs,
                &tracer,
                &mut save_hook,
                mgr_resume,
                &prof,
                live_on.then_some(&*live_stats),
            );

            done.store(true, Ordering::Release);
            for s in &shared {
                wake_core(s, &*sched);
            }
            // Leave the scheduling discipline before joining: the cores
            // only need the token among themselves to run out their
            // windows and unregister, and a native blocking join keeps OS
            // timing out of the schedule (polling `is_finished` through
            // the scheduler would make the decision count — and thus a
            // virtual scheduler's RNG stream — depend on when the OS
            // publishes thread exit).
            sched.unregister();
            let mut finished_cores = Vec::with_capacity(n);
            for h in handles {
                finished_cores.push(h.join().expect("core thread panicked"));
            }
            outcome.map(|mut m| {
                // The manager samples the aggregate commit count at its
                // finish decision, but cores may legally run out the rest
                // of their published window before they observe the done
                // flag. Re-read after the joins so the reported aggregate
                // matches the per-core counters exactly.
                m.committed = committed.load(Ordering::Acquire);
                let obs = cfg.obs.map(|_| {
                    let (records, dropped) = tracer.drain();
                    ObsData {
                        cores: n,
                        records,
                        dropped,
                        metrics: std::mem::take(&mut m.metrics),
                    }
                });
                let mut report = m.into_report(finished_cores, started.elapsed());
                report.obs = obs;
                report
            })
        })?;
        // Publish the final tallies before the terminal heartbeat so the
        // last emitted line reports the finished run exactly.
        if live_on {
            live_stats
                .committed
                .store(report.committed, Ordering::Relaxed);
            live_stats
                .global
                .store(report.global_cycles, Ordering::Relaxed);
            live_stats
                .violations
                .store(report.violations.total(), Ordering::Relaxed);
        }
        if let Some(h) = live_handle {
            h.finish();
        }
        let mut report = report;
        if prof.is_enabled() {
            // n core threads plus the manager contribute self-time; the
            // denominator of the coverage figure is wall * threads.
            report.prof = Some(prof.snapshot(report.wall, n as u64 + 1));
        }
        Ok(report)
    }
}

/// Core-thread main loop: tick while below the max local time, obey
/// manager commands, exit when the done flag rises.
///
/// Records Run/Wait phase spans on its own trace handle at every
/// transition between ticking and being capped by the window. Waiting
/// escalates spin → yield → park; the manager unparks the thread whenever
/// it widens the window or sends a command.
#[allow(clippy::too_many_arguments)]
fn core_thread<C: CoreModel + Checkpointable>(
    core: CoreId,
    mut model: C,
    mut inbox: Inbox<C::Event>,
    shared: &CoreShared<C>,
    done: &AtomicBool,
    committed: &AtomicU64,
    cmd_rx: &Receiver<Command<C>>,
    ack_tx: &Sender<u64>,
    oversubscribed: bool,
    sched: &dyn HostSched,
    mut th: TraceHandle,
    ph: ProfHandle,
) -> C {
    let virt = sched.virtualized();
    let task = sched.register(&format!("core{}", core.index()));
    let _ = shared.task.set(task);
    let mut outbox: Vec<Timestamped<C::Event>> = Vec::new();
    // Generation token recorded at the last snapshot capture: the
    // baseline the next delta capture diffs against and the token a
    // delta-mode restore rewinds to. Refreshed on every capture (full
    // captures seed it so the first delta after the free initial full
    // snapshot has an exact baseline).
    let mut cp_gen: u64 = 0;
    let mut idle_spins = 0u32;
    // On an oversubscribed host a capped core skips the spin tier: the
    // manager cannot widen the window until it gets the CPU this core is
    // holding, so spinning only delays its own wake-up. Yield stays the
    // workhorse tier — futex park/unpark round trips cost more than a
    // handful of scheduler passes — with parking as the long-idle backstop.
    // Virtual schedulers pin both tiers to machine-independent depths.
    let (spin_iters, yield_iters) = if virt {
        (0u32, VIRT_YIELD_ITERS)
    } else if oversubscribed {
        (0u32, CORE_YIELD_ITERS_OVERSUB)
    } else {
        (CORE_SPIN_ITERS, CORE_YIELD_ITERS)
    };
    // Cores start frozen at max local time 0: open a Wait span immediately.
    let mut running = false;
    th.record(
        Cycle::ZERO,
        TraceEvent::PhaseBegin {
            core,
            phase: Phase::Wait,
        },
    );

    'main: loop {
        // Control channel has priority over everything. Clear the pending
        // flag *before* polling: a flag raised after the clear but whose
        // command is missed by this poll is re-derived next iteration (the
        // send's `wake_core` guarantees this loop runs again), while a
        // flag consumed together with its command simply skips one park.
        shared.cmd_pending.store(false, Ordering::Relaxed);
        match cmd_rx.try_recv() {
            Ok(mut cmd) => loop {
                match cmd {
                    Command::Stop => {
                        ack_tx
                            .send(shared.local.load(Ordering::Relaxed))
                            .expect("manager alive");
                    }
                    Command::RunTo(target) => {
                        let _span = ph.enter(ProfSite::CoreTick);
                        let mut l = shared.local.load(Ordering::Relaxed);
                        while l < target {
                            while let Some(ev) = shared.inq.pop() {
                                inbox.deliver(ev);
                            }
                            let c = {
                                let mut ctx = TickCtx::new(Cycle::new(l), &mut inbox, &mut outbox);
                                model.tick(&mut ctx)
                            };
                            committed.fetch_add(u64::from(c), Ordering::Relaxed);
                            shared.outq.push_batch(&mut outbox);
                            l += 1;
                            shared.local.store(l, Ordering::Release);
                        }
                        ack_tx.send(l).expect("manager alive");
                    }
                    Command::Snapshot { delta } => {
                        let _span = ph.enter(ProfSite::CheckpointCapture);
                        while let Some(ev) = shared.inq.pop() {
                            inbox.deliver(ev);
                        }
                        let capture = if delta {
                            let d = model.capture_delta(cp_gen);
                            cp_gen = model.generation();
                            CoreCapture::Delta(Box::new((d, inbox.clone())))
                        } else {
                            // Seed the delta baseline even on full
                            // captures: capturing at the current
                            // generation is an empty delta whose only
                            // effect is recording the baseline, so the
                            // first delta capture after an initial full
                            // snapshot diffs against exact per-unit
                            // stamps instead of degrading to a full walk.
                            let g = model.generation();
                            let _ = model.capture_delta(g);
                            cp_gen = g;
                            CoreCapture::Full(Box::new((model.clone(), inbox.clone())))
                        };
                        shared.snapshot.put(capture);
                        ack_tx
                            .send(shared.local.load(Ordering::Relaxed))
                            .expect("manager alive");
                    }
                    Command::Restore(state) => {
                        let _span = ph.enter(ProfSite::CheckpointRestore);
                        let (m, ib) = *state;
                        model = m;
                        inbox = ib;
                        ack_tx
                            .send(shared.local.load(Ordering::Relaxed))
                            .expect("manager alive");
                    }
                    Command::RestoreDelta(base) => {
                        // Rewind in place: only units that diverged from
                        // the base since `cp_gen` are copied back, and
                        // the base goes back to the manager untouched.
                        let _span = ph.enter(ProfSite::CheckpointRestore);
                        model.restore_from(&base.0, cp_gen);
                        inbox.clone_from(&base.1);
                        shared.snapshot.put(CoreCapture::Base(base));
                        ack_tx
                            .send(shared.local.load(Ordering::Relaxed))
                            .expect("manager alive");
                    }
                    Command::Resume => continue 'main,
                }
                cmd = {
                    // Blocked in the control sub-loop (stop-synced for a
                    // checkpoint or rollback): attribute the host time to
                    // the park tier so it shows up in the profile.
                    let _span = ph.enter(ProfSite::CoreWaitPark);
                    next_command(cmd_rx, virt, sched)
                };
            },
            Err(TryRecvError::Empty) => {}
            Err(TryRecvError::Disconnected) => break 'main,
        }

        if done.load(Ordering::Acquire) {
            break 'main;
        }

        while let Some(ev) = shared.inq.pop() {
            inbox.deliver(ev);
        }
        let mut l = shared.local.load(Ordering::Relaxed);
        let mut m = shared.max_local.load(Ordering::Acquire);
        if l < m {
            if !running {
                th.record(
                    Cycle::new(l),
                    TraceEvent::PhaseEnd {
                        core,
                        phase: Phase::Wait,
                    },
                );
                th.record(
                    Cycle::new(l),
                    TraceEvent::PhaseBegin {
                        core,
                        phase: Phase::Run,
                    },
                );
                running = true;
            }
            idle_spins = 0;
            // Burst: tick until the window caps us, skipping the per-tick
            // command/done checks of the outer loop (a pending command is
            // picked up within one window's worth of ticks). Commit counts
            // accumulate locally and are flushed *before* the local-clock
            // store that ends the burst, so a manager that sees this core
            // at a barrier boundary also sees every commit behind it —
            // barrier-mode finish decisions stay deterministic.
            sched.point(SchedSite::CoreBurst);
            let _span = ph.enter(ProfSite::CoreTick);
            let mut burst: u64 = 0;
            while l < m {
                while let Some(ev) = shared.inq.pop() {
                    inbox.deliver(ev);
                }
                let c = {
                    let mut ctx = TickCtx::new(Cycle::new(l), &mut inbox, &mut outbox);
                    model.tick(&mut ctx)
                };
                burst += u64::from(c);
                shared.outq.push_batch(&mut outbox);
                l += 1;
                if l >= m {
                    committed.fetch_add(burst, Ordering::Relaxed);
                    burst = 0;
                }
                shared.local.store(l, Ordering::Release);
                m = shared.max_local.load(Ordering::Acquire);
            }
            if burst > 0 {
                committed.fetch_add(burst, Ordering::Relaxed);
            }
        } else {
            // Capped: wait for the manager to widen the window. Ladder:
            // spin → yield → park (the manager unparks on every publish;
            // the timeout covers lost-wakeup races and shutdown).
            if running {
                th.record(
                    Cycle::new(l),
                    TraceEvent::PhaseEnd {
                        core,
                        phase: Phase::Run,
                    },
                );
                th.record(
                    Cycle::new(l),
                    TraceEvent::PhaseBegin {
                        core,
                        phase: Phase::Wait,
                    },
                );
                running = false;
            }
            idle_spins = idle_spins.saturating_add(1);
            if idle_spins <= spin_iters {
                let _span = ph.enter(ProfSite::CoreWaitSpin);
                sched.idle_spin(SchedSite::CoreIdle);
            } else if idle_spins <= spin_iters + yield_iters {
                let _span = ph.enter(ProfSite::CoreWaitYield);
                sched.idle_yield(SchedSite::CoreIdle);
            } else {
                let _span = ph.enter(ProfSite::CoreWaitPark);
                // Dekker-style publication: set the parked flag, fence,
                // then re-check the sleep condition. Pairs with the
                // manager's store-fence-check in `publish_window` /
                // `wake_core`: either the manager sees the flag and
                // unparks (token pending), or this re-check sees the new
                // window — a wake-up can never be lost, the timeout is a
                // pure backstop. The scheduling point between the flag
                // store and the re-check is exactly the race window
                // adversarial schedules aim at.
                shared.parked.store(true, Ordering::Relaxed);
                fence(Ordering::SeqCst);
                sched.point(SchedSite::PreParkCheck);
                if shared.max_local.load(Ordering::Relaxed) <= l
                    && !done.load(Ordering::Relaxed)
                    && !shared.cmd_pending.load(Ordering::Relaxed)
                {
                    shared.parks.fetch_add(1, Ordering::Relaxed);
                    sched.park_timeout(SchedSite::CoreIdle, CORE_PARK_TIMEOUT);
                }
                shared.parked.store(false, Ordering::Relaxed);
            }
        }
    }
    let l = shared.local.load(Ordering::Relaxed);
    th.record(
        Cycle::new(l),
        TraceEvent::PhaseEnd {
            core,
            phase: if running { Phase::Run } else { Phase::Wait },
        },
    );
    sched.unregister();
    model
}

/// Blocks for the next manager command: a real blocking receive natively,
/// a scheduler-visible `try_recv` poll under a virtual scheduler (a
/// blocked `recv` would hold the scheduling token forever).
fn next_command<C: CoreModel>(
    cmd_rx: &Receiver<Command<C>>,
    virt: bool,
    sched: &dyn HostSched,
) -> Command<C> {
    if !virt {
        return cmd_rx.recv().expect("manager alive");
    }
    loop {
        match cmd_rx.try_recv() {
            Ok(cmd) => return cmd,
            Err(TryRecvError::Empty) => sched.idle_yield(SchedSite::AwaitCmd),
            Err(TryRecvError::Disconnected) => panic!("manager alive"),
        }
    }
}

/// Manager-side run state that eventually becomes the report.
struct ManagerOutcome<U> {
    uncore: U,
    global: Cycle,
    committed: u64,
    tally: ViolationTally,
    kernel: Counters,
    bound_trace: Vec<(Cycle, u64)>,
    metrics: MetricsRegistry,
}

impl<U> ManagerOutcome<U> {
    fn into_report<C: CoreModel>(self, cores: Vec<C>, wall: std::time::Duration) -> SimReport
    where
        U: UncoreModel<C::Event>,
    {
        SimReport {
            global_cycles: self.global.as_u64(),
            committed: self.committed,
            violations: self.tally,
            wall,
            per_core: cores.iter().map(CoreModel::counters).collect(),
            uncore: self.uncore.counters(),
            kernel: self.kernel,
            bound_trace: self.bound_trace,
            obs: None,
            prof: None,
        }
    }
}

/// Interned metric keys for the manager's sampling loop, created once at
/// startup so steady-state sampling performs no string formatting or
/// allocation.
struct MetricIds {
    /// `drift.core{i}` gauge per core.
    drift: Vec<GaugeId>,
    core_drift: HistId,
    outq_depth: HistId,
    inq_depth: HistId,
    slack_bound: GaugeId,
    violation_rate: GaugeId,
    globalq_depth: GaugeId,
    globalq_depth_h: HistId,
    manager_wait: GaugeId,
    manager_wait_h: HistId,
    /// Cumulative trace records dropped to ring overflow, sampled live so
    /// a mid-run overflow is diagnosable from the metrics CSV.
    trace_dropped: GaugeId,
}

impl MetricIds {
    fn intern(metrics: &mut MetricsRegistry, n: usize) -> Self {
        MetricIds {
            drift: (0..n)
                .map(|i| metrics.intern_gauge(&format!("drift.core{i}")))
                .collect(),
            core_drift: metrics.intern_histogram("core_drift"),
            outq_depth: metrics.intern_histogram("outq_depth"),
            inq_depth: metrics.intern_histogram("inq_depth"),
            slack_bound: metrics.intern_gauge("slack_bound"),
            violation_rate: metrics.intern_gauge("violation_rate"),
            globalq_depth: metrics.intern_gauge("globalq_depth"),
            globalq_depth_h: metrics.intern_histogram("globalq_depth"),
            manager_wait: metrics.intern_gauge("manager_wait_ns"),
            manager_wait_h: metrics.intern_histogram("manager_wait_ns"),
            trace_dropped: metrics.intern_gauge("trace_dropped"),
        }
    }
}

/// Emits one metrics sample: per-core drift and queue-depth gauges plus
/// the manager-side aggregates. Factored out of the manager loop so the
/// run epilogue can flush a terminal sample at the final global time —
/// without it, a run shorter than (or not a multiple of) the sampling
/// cadence would export a CSV missing the final state.
#[allow(clippy::too_many_arguments)]
fn sample_metrics<C: CoreModel + Checkpointable>(
    metrics: &mut MetricsRegistry,
    ids: &MetricIds,
    th: &mut TraceHandle,
    shared: &[Arc<CoreShared<C>>],
    locals: &[u64],
    global: Cycle,
    bound: Option<u64>,
    gq_len: u64,
    detected_total: u64,
    tracer: &Tracer,
    mgr_wait_ns: u64,
    last_metrics_cycle: &mut u64,
    last_metrics_detected: &mut u64,
    last_wait_ns: &mut u64,
) {
    for (i, &l) in locals.iter().enumerate() {
        let core = CoreId::new(i as u16);
        let drift = l.saturating_sub(global.as_u64());
        metrics.gauge_by(ids.drift[i], global, drift as f64);
        metrics.histogram_by(ids.core_drift).record(drift);
        th.record(
            global,
            TraceEvent::LocalTimeSample {
                core,
                cycle: Cycle::new(l),
            },
        );
        let outq = shared[i].outq.depth_hint() as u64;
        let inq = shared[i].inq.depth_hint() as u64;
        metrics.histogram_by(ids.outq_depth).record(outq);
        metrics.histogram_by(ids.inq_depth).record(inq);
        th.record(
            global,
            TraceEvent::QueueDepth {
                q: QueueKind::OutQ(core),
                len: outq,
            },
        );
        th.record(
            global,
            TraceEvent::QueueDepth {
                q: QueueKind::InQ(core),
                len: inq,
            },
        );
    }
    if let Some(b) = bound {
        metrics.gauge_by(ids.slack_bound, global, b as f64);
    }
    // Rate over the cycles actually elapsed since the previous
    // sample, not the nominal cadence: back-to-back samples at the
    // same global time would otherwise divide by zero and push a
    // non-finite gauge value.
    let elapsed = global.as_u64().saturating_sub(*last_metrics_cycle);
    let live_rate = if elapsed == 0 {
        0.0
    } else {
        (detected_total - *last_metrics_detected) as f64 / elapsed as f64
    };
    *last_metrics_cycle = global.as_u64();
    *last_metrics_detected = detected_total;
    metrics.gauge_by(ids.violation_rate, global, live_rate);
    metrics.gauge_by(ids.globalq_depth, global, gq_len as f64);
    metrics.histogram_by(ids.globalq_depth_h).record(gq_len);
    th.record(
        global,
        TraceEvent::QueueDepth {
            q: QueueKind::Global,
            len: gq_len,
        },
    );
    metrics.gauge_by(ids.trace_dropped, global, tracer.dropped_so_far() as f64);
    let wait_delta = mgr_wait_ns - *last_wait_ns;
    *last_wait_ns = mgr_wait_ns;
    metrics.gauge_by(ids.manager_wait, global, wait_delta as f64);
    metrics.histogram_by(ids.manager_wait_h).record(wait_delta);
    th.record(global, TraceEvent::ManagerWait { ns: wait_delta });
}

/// The simulation-manager loop (runs on the caller's thread inside the
/// scope).
#[allow(clippy::too_many_arguments)]
fn manager_loop<C, U>(
    cfg: &EngineConfig,
    pacer: &mut Box<dyn Pacer>,
    uncore: &mut U,
    shared: &[Arc<CoreShared<C>>],
    committed: &AtomicU64,
    cmd_txs: &[Sender<Command<C>>],
    ack_rxs: &[Receiver<u64>],
    tracer: &Tracer,
    save_hook: &mut Option<SaveHook<C, U>>,
    resume: Option<ManagerResume>,
    prof: &Profiler,
    live: Option<&LiveStats>,
) -> Result<ManagerOutcome<U>, EngineError>
where
    C: CoreModel + Checkpointable,
    U: UncoreModel<C::Event> + Checkpointable,
{
    let n = shared.len();
    let sched: &dyn HostSched = &**cfg.sched.get();
    let virt = sched.virtualized();
    let sample_period = cfg.effective_sample_period();
    let mut gq: GlobalQueue<C::Event> = GlobalQueue::new();
    let mut sink: ServiceSink<C::Event> = ServiceSink::new();

    let start_global = resume.as_ref().map_or(Cycle::ZERO, |r| r.global);
    let mut tally = ViolationTally::new();
    let mut detected = ViolationTally::new();
    let mut next_sample = sample_period;
    let mut last_sample_tally = tally;
    let mut bound_trace: Vec<(Cycle, u64)> = Vec::new();

    // Observability: the manager's own trace handle plus the metrics
    // registry sampled on the obs cadence. Host-side manager wait time is
    // accumulated around the backoff points and emitted once per sample.
    let obs_on = cfg.obs.is_some();
    let ph = prof.handle();
    let mut th = tracer.handle();
    let mut metrics = MetricsRegistry::new(cfg.obs.map_or(1024, |o| o.sample_every));
    let ids = MetricIds::intern(&mut metrics, n);
    let persist_bytes_id = metrics.intern_gauge("persist_bytes");
    let mut last_metrics_detected = 0u64;
    let mut last_metrics_cycle = 0u64;
    let mut mgr_wait_ns: u64 = 0;
    let mut last_wait_ns: u64 = 0;

    // Persistent scratch reused every iteration: local-clock snapshots,
    // the previous iteration's snapshot for progress detection, and the
    // OutQ drain buffer. Steady state allocates nothing.
    let mut locals: Vec<u64> = Vec::with_capacity(n);
    let mut prev_locals: Vec<u64> = vec![u64::MAX; n];
    let mut drain_buf: Vec<Timestamped<C::Event>> = Vec::new();
    let mut cycles_buf: Vec<Cycle> = Vec::with_capacity(n);
    let mut backoff = Backoff::new(host_oversubscribed(n), virt);

    let spec = cfg.speculation;
    let mut tracker = spec.map(|s| IntervalTracker::new(s.interval));
    let mut spec_stats = SpeculationStats::default();
    let mut mode = Mode::Base;
    // `u64::MAX` keeps every checkpoint site unreachable when speculation
    // is off; `cp_interval` is only ever added under a `spec.is_some()`
    // guard.
    let cp_interval: u64 = spec.map_or(u64::MAX, |s| s.interval);
    let cp_delta = spec.is_some_and(|s| s.mode == CheckpointMode::Delta);
    let mut next_cp_trigger: u64 = spec.map_or(u64::MAX, |s| start_global.as_u64() + s.interval);
    let mut replay_start = Cycle::ZERO;
    let mut pending_rollback = false;
    // Largest clock spread observed at manager sampling points (the
    // empirical slack; a lower bound on the true maximum since the manager
    // samples asynchronously).
    let mut max_spread: u64 = 0;

    if let Some(res) = resume {
        tally = res.tally;
        detected = res.detected;
        next_sample = res.next_sample;
        last_sample_tally = res.last_sample_tally;
        bound_trace = res.bound_trace;
        spec_stats = res.spec_stats;
        if let Some(tr) = res.tracker {
            tracker = Some(tr);
        }
        max_spread = res.max_spread;
        last_metrics_detected = detected.total();
        last_metrics_cycle = start_global.as_u64();
        th.record(
            start_global,
            TraceEvent::StateRestore {
                global: start_global,
            },
        );
    }

    // The initial state is a free checkpoint taken before the cores move.
    // It is always a *full* capture — delta mode needs a base to diff
    // against — and seeds every delta baseline (cores seed their own in
    // the full-capture path; the manager seeds the uncore's inside
    // `merge_snapshot`).
    let mut snapshot: Option<ManagerSnapshot<C, U>> = None;
    if spec.is_some() {
        let captures = {
            let _span = ph.enter(ProfSite::CheckpointCapture);
            snapshot_all(
                shared,
                cmd_txs,
                ack_rxs,
                &mut gq,
                uncore,
                &mut sink,
                &mut drain_buf,
                sched,
                false,
            )
        };
        // Discard side effects of the (empty) drain above.
        let _span = ph.enter(ProfSite::CheckpointApply);
        merge_snapshot(
            &mut snapshot,
            captures,
            uncore,
            start_global,
            tally,
            committed.load(Ordering::Acquire),
            &**pacer,
            next_sample,
            last_sample_tally,
        );
    }

    let mut window_end = if pacer.barrier_service() {
        pacer.window_end(start_global)
    } else {
        pacer
            .window_end(start_global)
            .min(cfg.lead_cap(start_global))
    };
    publish_window(shared, window_end, sched);

    let finish_reason;
    let final_global;

    loop {
        sched.point(SchedSite::ManagerLoop);
        let drained = {
            let _span = ph.enter(ProfSite::ManagerDrain);
            drain_outqs(shared, &mut gq, &mut drain_buf)
        };
        locals.clear();
        locals.extend(shared.iter().map(|s| s.local.load(Ordering::Acquire)));
        let progress = drained > 0 || locals != prev_locals;
        prev_locals.copy_from_slice(&locals);
        if progress {
            backoff.reset();
        }
        let global = Cycle::new(locals.iter().copied().min().expect("n >= 1"));
        max_spread =
            max_spread.max(locals.iter().copied().max().expect("n >= 1") - global.as_u64());
        let barrier = mode == Mode::Replay || pacer.barrier_service();

        if let Some(tr) = &mut tracker {
            tr.close_intervals_up_to(global);
        }
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
        // pacer's feedback period). All keys were interned at startup;
        // queue depths come from the rings' relaxed counters, so sampling
        // takes no locks and allocates nothing.
        if obs_on && metrics.sample_ready(global) {
            sample_metrics(
                &mut metrics,
                &ids,
                &mut th,
                shared,
                &locals,
                global,
                pacer.current_bound(),
                gq.len() as u64,
                detected.total(),
                tracer,
                mgr_wait_ns,
                &mut last_metrics_cycle,
                &mut last_metrics_detected,
                &mut last_wait_ns,
            );
        }

        // Live telemetry: relaxed stores into the shared gauge block; the
        // emitter thread reads them on its own host-time cadence.
        if let Some(ls) = live {
            ls.global.store(global.as_u64(), Ordering::Relaxed);
            ls.committed
                .store(committed.load(Ordering::Relaxed), Ordering::Relaxed);
            ls.bound
                .store(pacer.current_bound().unwrap_or(NO_BOUND), Ordering::Relaxed);
            ls.violations.store(tally.total(), Ordering::Relaxed);
            ls.globalq_depth.store(gq.len() as u64, Ordering::Relaxed);
            ls.outq_depth.store(
                shared.iter().map(|s| s.outq.depth_hint() as u64).sum(),
                Ordering::Relaxed,
            );
            ls.inq_depth.store(
                shared.iter().map(|s| s.inq.depth_hint() as u64).sum(),
                Ordering::Relaxed,
            );
            ls.dropped_traces
                .store(tracer.dropped_so_far(), Ordering::Relaxed);
            ls.checkpoints
                .store(spec_stats.checkpoints, Ordering::Relaxed);
            ls.rollbacks.store(spec_stats.rollbacks, Ordering::Relaxed);
        }

        if barrier {
            if locals.iter().all(|&l| l == window_end.as_u64()) {
                {
                    let _span = ph.enter(ProfSite::ManagerDrain);
                    drain_outqs(shared, &mut gq, &mut drain_buf);
                }
                {
                    let _span = ph.enter(ProfSite::ManagerService);
                    service_all(
                        &mut gq,
                        uncore,
                        &mut sink,
                        shared,
                        &mut tally,
                        &mut detected,
                        &mut tracker,
                        &mut pending_rollback,
                        &spec,
                        mode == Mode::Base,
                        &mut th,
                    );
                }
                debug_assert!(!pending_rollback, "barrier servicing cannot violate");
                let g = window_end;
                if committed.load(Ordering::Acquire) >= cfg.commit_target {
                    finish_reason = FinishReason::CommitTarget;
                    final_global = g;
                    break;
                }
                if g.as_u64() >= cfg.max_cycles {
                    finish_reason = FinishReason::CycleCap;
                    final_global = g;
                    break;
                }
                if spec.is_some() && g.as_u64() >= next_cp_trigger {
                    // Cores are already aligned at the boundary: snapshot
                    // directly.
                    if mode == Mode::Replay {
                        let replayed = g.saturating_sub(replay_start);
                        spec_stats.replay_cycles += replayed;
                        mode = Mode::Base;
                        th.record(
                            g,
                            TraceEvent::ReplayEnd {
                                ordinal: spec_stats.rollbacks,
                                replay_cycles: replayed,
                            },
                        );
                        for c in CoreId::all(n) {
                            th.record(
                                g,
                                TraceEvent::PhaseEnd {
                                    core: c,
                                    phase: Phase::Replay,
                                },
                            );
                        }
                    }
                    let captures = {
                        let _span = ph.enter(ProfSite::CheckpointCapture);
                        snapshot_all(
                            shared,
                            cmd_txs,
                            ack_rxs,
                            &mut gq,
                            uncore,
                            &mut sink,
                            &mut drain_buf,
                            sched,
                            cp_delta,
                        )
                    };
                    spec_stats.checkpoints += 1;
                    th.record(
                        Cycle::new(next_cp_trigger.min(g.as_u64())),
                        TraceEvent::Checkpoint {
                            ordinal: spec_stats.checkpoints,
                            overshoot: g.as_u64().saturating_sub(next_cp_trigger),
                        },
                    );
                    // Every event at or below the committed boundary has
                    // been serviced: monitors settled below it can be
                    // dropped before they are captured into the snapshot.
                    uncore.compact_monitors(g);
                    {
                        let _span = ph.enter(ProfSite::CheckpointApply);
                        merge_snapshot(
                            &mut snapshot,
                            captures,
                            uncore,
                            g,
                            tally,
                            committed.load(Ordering::Acquire),
                            &**pacer,
                            next_sample,
                            last_sample_tally,
                        );
                    }
                    next_cp_trigger = g.as_u64() + cp_interval;
                    invoke_save_hook(
                        save_hook,
                        &snapshot,
                        spec_stats,
                        detected,
                        tracker.as_ref(),
                        &bound_trace,
                        max_spread,
                        &mut th,
                        &mut metrics,
                        persist_bytes_id,
                        &ph,
                    );
                }
                window_end = if mode == Mode::Replay {
                    g + 1
                } else {
                    pacer.window_end(g)
                };
                publish_window(shared, window_end, sched);
                backoff.reset();
            } else {
                // Even with the commit target already reached, barrier
                // schemes run out the published window: stopping at the
                // natural boundary keeps the finish state deterministic and
                // identical across all three engines (the batched engine
                // can only observe boundaries).
                let _span = ph.enter(backoff.next_site());
                if obs_on {
                    let wait_started = Instant::now();
                    backoff.wait(sched);
                    mgr_wait_ns += wait_started.elapsed().as_nanos() as u64;
                } else {
                    backoff.wait(sched);
                }
            }
            continue;
        }

        // --- Greedy servicing -------------------------------------------
        {
            let _span = ph.enter(ProfSite::ManagerService);
            service_all(
                &mut gq,
                uncore,
                &mut sink,
                shared,
                &mut tally,
                &mut detected,
                &mut tracker,
                &mut pending_rollback,
                &spec,
                mode == Mode::Base,
                &mut th,
            );
        }

        if pending_rollback {
            let _span = ph.enter(ProfSite::CheckpointRestore);
            let snap = snapshot.as_mut().expect("rollback requires a snapshot");
            stop_all(shared, cmd_txs, ack_rxs, sched);
            drain_outqs(shared, &mut gq, &mut drain_buf);
            gq.clear();
            // Cores are stopped (ack received), so the manager may act as
            // the consumer of both rings during the wipe.
            for s in shared {
                s.inq.clear();
                s.outq.clear();
            }
            let cur_global = Cycle::new(
                shared
                    .iter()
                    .map(|s| s.local.load(Ordering::Acquire))
                    .min()
                    .expect("n >= 1"),
            );
            spec_stats.rollbacks += 1;
            let wasted = cur_global.saturating_sub(snap.global);
            spec_stats.wasted_cycles += wasted;
            // Recorded at the rollback instant: the exporter renders the
            // discarded region as the span [cur_global - wasted,
            // cur_global).
            th.record(
                cur_global,
                TraceEvent::Rollback {
                    ordinal: spec_stats.rollbacks,
                    wasted_cycles: wasted,
                },
            );
            for s in shared.iter() {
                s.local.store(snap.global.as_u64(), Ordering::Release);
            }
            if cp_delta {
                // Hand each core its checkpoint base by move; the core
                // rewinds in place via `restore_from` (copying back only
                // the units that diverged) and returns the base through
                // its snapshot slot, so no full-model clone happens on
                // either side.
                let bases = std::mem::take(&mut snap.cores);
                for ((s, tx), base) in shared.iter().zip(cmd_txs).zip(bases) {
                    send_cmd(s, tx, Command::RestoreDelta(Box::new(base)), sched);
                }
                await_acks(ack_rxs, sched);
                snap.cores = shared
                    .iter()
                    .map(|s| match s.snapshot.take().expect("base returned") {
                        CoreCapture::Base(b) => *b,
                        _ => unreachable!("delta restore hands back the base"),
                    })
                    .collect();
                uncore.restore_from(&snap.uncore, snap.uncore_gen);
            } else {
                for (i, tx) in cmd_txs.iter().enumerate() {
                    let (m, ib) = &snap.cores[i];
                    send_cmd(
                        &shared[i],
                        tx,
                        Command::Restore(Box::new((m.clone(), ib.clone()))),
                        sched,
                    );
                }
                await_acks(ack_rxs, sched);
                *uncore = snap.uncore.clone();
            }
            tally = snap.tally;
            committed.store(snap.committed, Ordering::Release);
            *pacer = snap.pacer.clone_box();
            next_sample = snap.next_sample;
            last_sample_tally = snap.last_sample_tally;
            mode = Mode::Replay;
            replay_start = snap.global;
            for c in CoreId::all(n) {
                th.record(
                    snap.global,
                    TraceEvent::PhaseBegin {
                        core: c,
                        phase: Phase::Replay,
                    },
                );
            }
            next_cp_trigger = snap.global.as_u64() + cp_interval;
            pending_rollback = false;
            window_end = snap.global + 1;
            publish_window(shared, window_end, sched);
            resume_all(shared, cmd_txs, sched);
            backoff.reset();
            continue;
        }

        let committed_now = committed.load(Ordering::Acquire);
        if committed_now >= cfg.commit_target {
            finish_reason = FinishReason::CommitTarget;
            final_global = global;
            break;
        }
        if global.as_u64() >= cfg.max_cycles {
            finish_reason = FinishReason::CycleCap;
            final_global = global;
            break;
        }

        if spec.is_some() && global.as_u64() >= next_cp_trigger {
            // Stop-sync all cores at a common local time ≥ the trigger.
            // The whole protocol — stop, run-to, drain, snapshot — bills
            // to the capture site; the merge and persist below open their
            // own nested spans.
            let _span = ph.enter(ProfSite::CheckpointCapture);
            stop_all(shared, cmd_txs, ack_rxs, sched);
            let stop_at = shared
                .iter()
                .map(|s| s.local.load(Ordering::Acquire))
                .max()
                .expect("n >= 1")
                .max(next_cp_trigger);
            publish_window(shared, Cycle::new(stop_at), sched);
            for (i, tx) in cmd_txs.iter().enumerate() {
                send_cmd(&shared[i], tx, Command::RunTo(stop_at), sched);
            }
            // Keep servicing while cores run up to the stop point.
            let mut acked = 0usize;
            let mut ack_iters = ack_rxs.iter().cycle();
            while acked < n {
                drain_outqs(shared, &mut gq, &mut drain_buf);
                service_all(
                    &mut gq,
                    uncore,
                    &mut sink,
                    shared,
                    &mut tally,
                    &mut detected,
                    &mut tracker,
                    &mut pending_rollback,
                    &spec,
                    mode == Mode::Base,
                    &mut th,
                );
                let rx = ack_iters.next().expect("cycle never ends");
                if rx.try_recv().is_ok() {
                    acked += 1;
                } else if virt {
                    // Keep the poll visible to a virtual scheduler so the
                    // cores can run towards their acks.
                    sched.idle_yield(SchedSite::AwaitAck);
                }
            }
            drain_outqs(shared, &mut gq, &mut drain_buf);
            service_all(
                &mut gq,
                uncore,
                &mut sink,
                shared,
                &mut tally,
                &mut detected,
                &mut tracker,
                &mut pending_rollback,
                &spec,
                mode == Mode::Base,
                &mut th,
            );
            if pending_rollback {
                // A violation surfaced during stop-sync: resume and let the
                // rollback branch at the top of the loop handle it.
                resume_all(shared, cmd_txs, sched);
                continue;
            }
            // Cores are paused right after their RunTo ack: snapshot them.
            for (i, tx) in cmd_txs.iter().enumerate() {
                send_cmd(&shared[i], tx, Command::Snapshot { delta: cp_delta }, sched);
            }
            await_acks(ack_rxs, sched);
            let captures: Vec<CoreCapture<C>> = shared
                .iter()
                .map(|s| s.snapshot.take().expect("snapshot filled"))
                .collect();
            if mode == Mode::Replay {
                let replayed = Cycle::new(stop_at).saturating_sub(replay_start);
                spec_stats.replay_cycles += replayed;
                mode = Mode::Base;
                th.record(
                    Cycle::new(stop_at),
                    TraceEvent::ReplayEnd {
                        ordinal: spec_stats.rollbacks,
                        replay_cycles: replayed,
                    },
                );
                for c in CoreId::all(n) {
                    th.record(
                        Cycle::new(stop_at),
                        TraceEvent::PhaseEnd {
                            core: c,
                            phase: Phase::Replay,
                        },
                    );
                }
            }
            spec_stats.checkpoints += 1;
            th.record(
                Cycle::new(next_cp_trigger.min(stop_at)),
                TraceEvent::Checkpoint {
                    ordinal: spec_stats.checkpoints,
                    overshoot: stop_at.saturating_sub(next_cp_trigger),
                },
            );
            uncore.compact_monitors(Cycle::new(stop_at));
            {
                let _span = ph.enter(ProfSite::CheckpointApply);
                merge_snapshot(
                    &mut snapshot,
                    captures,
                    uncore,
                    Cycle::new(stop_at),
                    tally,
                    committed.load(Ordering::Acquire),
                    &**pacer,
                    next_sample,
                    last_sample_tally,
                );
            }
            next_cp_trigger = stop_at + cp_interval;
            invoke_save_hook(
                save_hook,
                &snapshot,
                spec_stats,
                detected,
                tracker.as_ref(),
                &bound_trace,
                max_spread,
                &mut th,
                &mut metrics,
                persist_bytes_id,
                &ph,
            );
            locals.clear();
            locals.resize(n, stop_at);
            window_end =
                publish_greedy_windows(pacer, shared, &locals, &mut cycles_buf, cfg, sched);
            resume_all(shared, cmd_txs, sched);
            backoff.reset();
            continue;
        }

        window_end = publish_greedy_windows(pacer, shared, &locals, &mut cycles_buf, cfg, sched);
        if progress {
            // Something moved this iteration: go straight back to
            // draining instead of waiting.
            continue;
        }
        let _span = ph.enter(backoff.next_site());
        if obs_on {
            let wait_started = Instant::now();
            backoff.wait(sched);
            mgr_wait_ns += wait_started.elapsed().as_nanos() as u64;
        } else {
            backoff.wait(sched);
        }
    }

    // Terminal gauge flush: one last sample at the final global time so
    // CSV exports always contain the run's end state even when the run
    // length is not a multiple of the sampling cadence. Guarded so a
    // sample that already landed on this exact cycle is not duplicated —
    // gauge series are strictly increasing in cycle.
    if obs_on && final_global.as_u64() > last_metrics_cycle {
        locals.clear();
        locals.extend(shared.iter().map(|s| s.local.load(Ordering::Acquire)));
        sample_metrics(
            &mut metrics,
            &ids,
            &mut th,
            shared,
            &locals,
            final_global,
            pacer.current_bound(),
            gq.len() as u64,
            detected.total(),
            tracer,
            mgr_wait_ns,
            &mut last_metrics_cycle,
            &mut last_metrics_detected,
            &mut last_wait_ns,
        );
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
    kernel.set("manager_parks", backoff.parks);
    kernel.set(
        "core_parks",
        shared.iter().map(|s| s.parks.load(Ordering::Relaxed)).sum(),
    );
    if let Some(tr) = &tracker {
        kernel.set("intervals_total", tr.intervals_total());
        kernel.set("intervals_violating", tr.intervals_violating());
        kernel.set(
            "mean_first_violation_distance_x1000",
            (tr.mean_first_distance() * 1000.0).round() as u64,
        );
    }

    Ok(ManagerOutcome {
        uncore: uncore.clone(),
        global: final_global,
        committed: committed.load(Ordering::Acquire),
        tally,
        kernel,
        bound_trace,
        metrics,
    })
}

/// Hands the freshly merged checkpoint snapshot to the save hook (if one
/// is installed) and records the persist in the trace and metrics. Runs on
/// the manager thread while the cores are paused at the boundary, so the
/// snapshot is immutable for the duration.
#[allow(clippy::too_many_arguments)]
fn invoke_save_hook<C, U>(
    save_hook: &mut Option<SaveHook<C, U>>,
    snapshot: &Option<ManagerSnapshot<C, U>>,
    spec_stats: SpeculationStats,
    detected: ViolationTally,
    tracker: Option<&IntervalTracker>,
    bound_trace: &[(Cycle, u64)],
    max_spread: u64,
    th: &mut TraceHandle,
    metrics: &mut MetricsRegistry,
    persist_bytes_id: GaugeId,
    ph: &ProfHandle,
) where
    C: CoreModel + Checkpointable,
    U: UncoreModel<C::Event> + Checkpointable,
{
    let Some(hook) = save_hook.as_mut() else {
        return;
    };
    let _span = ph.enter(ProfSite::PersistIo);
    let snap = snapshot.as_ref().expect("checkpoint just merged");
    let view = CheckpointView {
        ordinal: spec_stats.checkpoints,
        global: snap.global,
        cores: snap.cores.iter().map(|(c, ib)| (c, ib)).collect(),
        uncore: &snap.uncore,
        committed: snap.committed,
        tally: snap.tally,
        detected,
        next_sample: snap.next_sample,
        last_sample_tally: snap.last_sample_tally,
        spec_stats,
        tracker,
        pacer: &*snap.pacer,
        rng: None,
        bound_trace,
        max_spread,
    };
    let bytes = hook(&view).unwrap_or(0);
    th.record(
        snap.global,
        TraceEvent::StatePersist {
            ordinal: spec_stats.checkpoints,
            bytes,
        },
    );
    metrics.gauge_by(persist_bytes_id, snap.global, bytes as f64);
}

/// Sets every core's max local time and unparks any core waiting on it.
fn publish_window<C: CoreModel + Checkpointable>(
    shared: &[Arc<CoreShared<C>>],
    window_end: Cycle,
    sched: &dyn HostSched,
) {
    for s in shared {
        s.max_local.store(window_end.as_u64(), Ordering::Release);
        wake_core(s, sched);
    }
}

/// Publishes windows for a greedy scheme: per-core when the pacer paces
/// against peers (Lax-P2P), uniform otherwise; both clamped by the
/// implementation lead cap. Returns the largest published window for the
/// manager's bookkeeping.
fn publish_greedy_windows<C: CoreModel + Checkpointable>(
    pacer: &mut Box<dyn Pacer>,
    shared: &[Arc<CoreShared<C>>],
    locals: &[u64],
    cycles_buf: &mut Vec<Cycle>,
    cfg: &EngineConfig,
    sched: &dyn HostSched,
) -> Cycle {
    let global = Cycle::new(locals.iter().copied().min().expect("n >= 1"));
    let cap = cfg.lead_cap(global);
    cycles_buf.clear();
    cycles_buf.extend(locals.iter().map(|&l| Cycle::new(l)));
    if let Some(wins) = pacer.window_ends(cycles_buf) {
        let mut max_win = Cycle::ZERO;
        for (i, s) in shared.iter().enumerate() {
            let w = wins[i].min(cap);
            s.max_local.store(w.as_u64(), Ordering::Release);
            wake_core(s, sched);
            max_win = max_win.max(w);
        }
        max_win
    } else {
        let w = pacer.window_end(global).min(cap);
        publish_window(shared, w, sched);
        w
    }
}

/// Moves every queued OutQ entry into the global queue: one batched ring
/// drain plus one batched heap insert per core. Returns the number of
/// events moved.
fn drain_outqs<C: CoreModel + Checkpointable>(
    shared: &[Arc<CoreShared<C>>],
    gq: &mut GlobalQueue<C::Event>,
    buf: &mut Vec<Timestamped<C::Event>>,
) -> usize {
    let mut total = 0;
    for (i, s) in shared.iter().enumerate() {
        buf.clear();
        let moved = s.outq.drain_into(buf);
        if moved > 0 {
            total += moved;
            gq.push_batch(CoreId::new(i as u16), buf);
        }
    }
    total
}

/// Services everything currently in the global queue, recording a
/// violation trace instant (attributed to the originating core) for every
/// violation the uncore reports.
#[allow(clippy::too_many_arguments)]
fn service_all<C: CoreModel + Checkpointable, U: UncoreModel<C::Event>>(
    gq: &mut GlobalQueue<C::Event>,
    uncore: &mut U,
    sink: &mut ServiceSink<C::Event>,
    shared: &[Arc<CoreShared<C>>],
    tally: &mut ViolationTally,
    detected: &mut ViolationTally,
    tracker: &mut Option<IntervalTracker>,
    pending_rollback: &mut bool,
    spec: &Option<crate::speculative::SpeculationConfig>,
    base_mode: bool,
    th: &mut TraceHandle,
) {
    while let Some((from, ev)) = gq.pop() {
        uncore.service(from, ev, sink);
        for (to, out) in sink.take_deliveries() {
            shared[to.index()].inq.push(out);
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
            if base_mode {
                if let Some(sc) = spec {
                    if sc.rollback_on.selects(v.kind) {
                        *pending_rollback = true;
                    }
                }
            }
        }
        if *pending_rollback {
            gq.clear();
            break;
        }
    }
}

/// Sends `Stop` to every core (waking parked ones) and waits for all
/// acknowledgements.
fn stop_all<C: CoreModel + Checkpointable>(
    shared: &[Arc<CoreShared<C>>],
    cmd_txs: &[Sender<Command<C>>],
    ack_rxs: &[Receiver<u64>],
    sched: &dyn HostSched,
) {
    for (i, tx) in cmd_txs.iter().enumerate() {
        send_cmd(&shared[i], tx, Command::Stop, sched);
    }
    await_acks(ack_rxs, sched);
}

/// Sends `Resume` to every (paused) core.
fn resume_all<C: CoreModel + Checkpointable>(
    shared: &[Arc<CoreShared<C>>],
    cmd_txs: &[Sender<Command<C>>],
    sched: &dyn HostSched,
) {
    for (i, tx) in cmd_txs.iter().enumerate() {
        send_cmd(&shared[i], tx, Command::Resume, sched);
    }
}

/// Blocks until every core has acknowledged the last command: a real
/// blocking receive natively, a scheduler-visible poll under a virtual
/// scheduler.
fn await_acks(ack_rxs: &[Receiver<u64>], sched: &dyn HostSched) {
    if !sched.virtualized() {
        for rx in ack_rxs {
            rx.recv().expect("core alive");
        }
        return;
    }
    for rx in ack_rxs {
        loop {
            match rx.try_recv() {
                Ok(_) => break,
                Err(TryRecvError::Empty) => sched.idle_yield(SchedSite::AwaitAck),
                Err(TryRecvError::Disconnected) => panic!("core alive"),
            }
        }
    }
}

/// Stop-syncs all cores at a common local time and collects their
/// captures (full clones or deltas, per `delta`). Also used for the free
/// initial checkpoint, which is always full.
#[allow(clippy::too_many_arguments)]
fn snapshot_all<C: CoreModel + Checkpointable, U: UncoreModel<C::Event>>(
    shared: &[Arc<CoreShared<C>>],
    cmd_txs: &[Sender<Command<C>>],
    ack_rxs: &[Receiver<u64>],
    gq: &mut GlobalQueue<C::Event>,
    uncore: &mut U,
    sink: &mut ServiceSink<C::Event>,
    drain_buf: &mut Vec<Timestamped<C::Event>>,
    sched: &dyn HostSched,
    delta: bool,
) -> Vec<CoreCapture<C>> {
    stop_all(shared, cmd_txs, ack_rxs, sched);
    drain_outqs(shared, gq, drain_buf);
    // Service without violation bookkeeping: only used at cycle 0 where the
    // queues are empty anyway; drain defensively.
    while let Some((from, ev)) = gq.pop() {
        uncore.service(from, ev, sink);
        for (to, out) in sink.take_deliveries() {
            shared[to.index()].inq.push(out);
        }
        let _ = sink.take_violations();
    }
    for (i, tx) in cmd_txs.iter().enumerate() {
        send_cmd(&shared[i], tx, Command::Snapshot { delta }, sched);
    }
    await_acks(ack_rxs, sched);
    let snaps = shared
        .iter()
        .map(|s| s.snapshot.take().expect("snapshot filled"))
        .collect();
    resume_all(shared, cmd_txs, sched);
    snaps
}

/// Folds a round of core captures plus the live uncore into the standing
/// manager snapshot. Full captures rebuild the snapshot outright (and
/// re-seed the uncore's delta baseline, so the first delta after an
/// initial full snapshot has an exact baseline); delta captures are
/// applied onto the previous checkpoint in place, which is the point of
/// delta mode — maintenance cost proportional to what changed, not to
/// total model size.
#[allow(clippy::too_many_arguments)]
fn merge_snapshot<C, U>(
    snapshot: &mut Option<ManagerSnapshot<C, U>>,
    captures: Vec<CoreCapture<C>>,
    uncore: &mut U,
    global: Cycle,
    tally: ViolationTally,
    committed: u64,
    pacer: &dyn Pacer,
    next_sample: u64,
    last_sample_tally: ViolationTally,
) where
    C: CoreModel + Checkpointable,
    U: UncoreModel<C::Event> + Checkpointable,
{
    if matches!(captures.first(), Some(CoreCapture::Delta(_))) {
        let snap = snapshot
            .as_mut()
            .expect("delta capture requires a standing snapshot");
        for (i, cap) in captures.into_iter().enumerate() {
            match cap {
                CoreCapture::Delta(b) => {
                    let (d, ib) = *b;
                    snap.cores[i].0.apply_delta(d);
                    snap.cores[i].1 = ib;
                }
                _ => unreachable!("capture mode is uniform across cores"),
            }
        }
        let ud = uncore.capture_delta(snap.uncore_gen);
        snap.uncore.apply_delta(ud);
        snap.uncore_gen = uncore.generation();
        snap.global = global;
        snap.tally = tally;
        snap.committed = committed;
        snap.pacer = pacer.clone_box();
        snap.next_sample = next_sample;
        snap.last_sample_tally = last_sample_tally;
    } else {
        let g = uncore.generation();
        let _ = uncore.capture_delta(g);
        *snapshot = Some(ManagerSnapshot {
            cores: captures
                .into_iter()
                .map(|cap| match cap {
                    CoreCapture::Full(b) => *b,
                    _ => unreachable!("capture mode is uniform across cores"),
                })
                .collect(),
            uncore: uncore.clone(),
            uncore_gen: g,
            global,
            tally,
            committed,
            pacer: pacer.clone_box(),
            next_sample,
            last_sample_tally,
        });
    }
}

#[cfg(test)]
mod tests {
    // The threaded engine is exercised end-to-end in the workspace
    // integration tests (tests/engines_agree.rs and friends), where it is
    // compared against the sequential engine on real CMP models. The
    // SPSC ring it is built on has its own stress suite in
    // crates/core/tests/spsc_stress.rs.
}
