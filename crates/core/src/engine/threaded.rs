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
//! checkpoints. Every manager decision along the way — what to record,
//! when to checkpoint or roll back, what to sample — is the engine
//! kernel's; this strategy moves cores, events and captures.
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

use crate::checkpoint::Checkpointable;
use crate::engine::kernel::{
    Capture, CoreCapture, CoreState, Cores, Kernel, Sample, Start, Strategy,
};
use crate::engine::{
    CoreModel, EngineConfig, EngineError, EngineResume, FinishReason, SaveHook, TickCtx,
    UncoreModel,
};
use crate::event::{CoreId, GlobalQueue, Inbox, Timestamped};
use crate::obs::{Phase, ProfHandle, ProfSite, TraceEvent, TraceHandle};
use crate::sched::{HostSched, SchedSite, TaskId};
use crate::scheme::Pacer;
use crate::stats::SimReport;
use crate::sync::{SnapshotSlot, SpscRing};
use crate::time::Cycle;

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
    /// Capture the core's state into the snapshot slot (see
    /// `CoreCapture::take`).
    Snapshot(Capture),
    /// Replace the core model and inbox with the given restored state
    /// (full mode).
    Restore(Box<CoreState<C>>),
    /// Rewind the model onto the given checkpoint base via
    /// [`Checkpointable::restore_from`] (delta mode) and hand the
    /// untouched base back through the snapshot slot.
    RestoreDelta(Box<CoreState<C>>),
    /// Leave the control sub-loop and return to normal execution.
    Resume,
}

/// State shared between the manager and one core thread.
struct CoreShared<C: CoreModel + Checkpointable> {
    local: AtomicU64,
    max_local: AtomicU64,
    /// Core produces, manager consumes.
    outq: SpscRing<Timestamped<C::Event>>,
    /// Manager produces, core consumes.
    inq: SpscRing<Timestamped<C::Event>>,
    /// Checkpoint captures (and, after a delta-mode rollback, the
    /// untouched base) going back to the manager.
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
    /// Host time spent waiting, in ns; measured only when `timed` (the
    /// clock reads are skipped on uninstrumented runs).
    waited_ns: u64,
    timed: bool,
}

impl Backoff {
    fn new(oversubscribed: bool, virtualized: bool, timed: bool) -> Self {
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
            waited_ns: 0,
            timed,
        }
    }

    #[inline]
    fn reset(&mut self) {
        self.idle = 0;
    }

    /// Takes one step down the ladder, billed to the profiler site of the
    /// tier it lands in.
    fn wait(&mut self, sched: &dyn HostSched, ph: &ProfHandle) {
        self.idle = self.idle.saturating_add(1);
        let started = self.timed.then(Instant::now);
        if self.idle <= self.spin_iters {
            let _span = ph.enter(ProfSite::ManagerWaitSpin);
            sched.idle_spin(SchedSite::ManagerIdle);
        } else if self.idle <= self.park_after {
            let _span = ph.enter(ProfSite::ManagerWaitYield);
            sched.idle_yield(SchedSite::ManagerIdle);
        } else {
            let _span = ph.enter(ProfSite::ManagerWaitPark);
            self.parks += 1;
            sched.park_timeout(SchedSite::ManagerIdle, MGR_PARK_TIMEOUT);
        }
        if let Some(t) = started {
            self.waited_ns += t.elapsed().as_nanos() as u64;
        }
    }
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
            save_hook,
            resume,
        } = self;
        let (mut k, start) =
            Kernel::new(&cfg, Strategy::Threaded, cores, uncore, save_hook, resume)?;
        let Start {
            cores,
            inboxes,
            mut uncore,
            global: start_global,
            committed: start_committed,
            ..
        } = start;
        let n = cores.len();

        // The host scheduler every wait path goes through. The data-structure
        // hook is `None` under the native scheduler, so production queue
        // operations stay instrumentation-free.
        let sched = Arc::clone(cfg.sched.get());
        let hook = cfg.sched.instrumentation_hook();
        // Every clock starts at the start state's global time.
        let shared: Vec<Arc<CoreShared<C>>> = (0..n)
            .map(|_| {
                Arc::new(CoreShared {
                    local: AtomicU64::new(start_global.as_u64()),
                    max_local: AtomicU64::new(start_global.as_u64()),
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
        let mut backoff = Backoff::new(
            host_oversubscribed(n),
            sched.virtualized(),
            cfg.obs.is_some(),
        );

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
        let (final_global, finish_reason, finished_cores) = std::thread::scope(|scope| {
            // --- Core threads ------------------------------------------------
            // std mpsc receivers are single-consumer: each core's command
            // receiver and ack sender are moved into its thread.
            let mut handles = Vec::with_capacity(n);
            let oversubscribed = host_oversubscribed(n);
            for (i, (((model, inbox), cmd_rx), ack_tx)) in cores
                .into_iter()
                .zip(inboxes)
                .zip(cmd_rxs)
                .zip(ack_txs)
                .enumerate()
            {
                let shared = Arc::clone(&shared[i]);
                let done = Arc::clone(&done);
                let committed = Arc::clone(&committed);
                let th = k.tracer.handle();
                let ph = k.prof.handle();
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
            let (global, reason) = manager_loop(
                &cfg,
                &mut k,
                &mut uncore,
                &Manager {
                    shared: &shared,
                    cmd_txs: &cmd_txs,
                    ack_rxs: &ack_rxs,
                    sched: &*sched,
                },
                &committed,
                &mut backoff,
                start_global,
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
            let finished: Vec<C> = handles
                .into_iter()
                .map(|h| h.join().expect("core thread panicked"))
                .collect();
            (global, reason, finished)
        });

        // The manager samples the aggregate commit count at its finish
        // decision, but cores may legally run out the rest of their
        // published window before they observe the done flag. Read it
        // after the joins so the reported aggregate matches the per-core
        // counters exactly.
        let locals: Vec<Cycle> = shared
            .iter()
            .map(|s| Cycle::new(s.local.load(Ordering::Acquire)))
            .collect();
        let rings = |i: usize| ring_depths(&shared[i]);
        let last = Sample {
            locals: Some(&locals),
            // The manager only finishes with its global queue serviced.
            gq_len: 0,
            rings: Some(&rings),
            manager_wait_ns: Some(backoff.waited_ns),
        };
        let mut report = k.finish(
            final_global,
            committed.load(Ordering::Acquire),
            finish_reason,
            &last,
            finished_cores.iter().map(CoreModel::counters).collect(),
            uncore.counters(),
        );
        report.kernel.set("manager_parks", backoff.parks);
        report.kernel.set(
            "core_parks",
            shared.iter().map(|s| s.parks.load(Ordering::Relaxed)).sum(),
        );
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
    // delta-mode restore rewinds to.
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
                    Command::Snapshot(how) => {
                        let _span = ph.enter(ProfSite::CheckpointCapture);
                        while let Some(ev) = shared.inq.pop() {
                            inbox.deliver(ev);
                        }
                        let capture = CoreCapture::take(&mut model, &inbox, &mut cp_gen, how);
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
                        shared.snapshot.put(CoreCapture::Full(base));
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

/// A core's `(OutQ, InQ)` ring depths, from the rings' relaxed counters
/// (no locks, no allocation).
fn ring_depths<C: CoreModel + Checkpointable>(s: &CoreShared<C>) -> (u64, u64) {
    (s.outq.depth_hint() as u64, s.inq.depth_hint() as u64)
}

/// The manager's handles on the core threads.
struct Manager<'a, C: CoreModel + Checkpointable> {
    shared: &'a [Arc<CoreShared<C>>],
    cmd_txs: &'a [Sender<Command<C>>],
    ack_rxs: &'a [Receiver<u64>],
    sched: &'a dyn HostSched,
}

impl<C: CoreModel + Checkpointable> Manager<'_, C> {
    /// Sends `cmd(i)` to every core `i` (waking parked ones).
    fn send_all(&self, mut cmd: impl FnMut(usize) -> Command<C>) {
        for (i, (s, tx)) in self.shared.iter().zip(self.cmd_txs).enumerate() {
            send_cmd(s, tx, cmd(i), self.sched);
        }
    }

    /// Blocks until every core has acknowledged the last command: a real
    /// blocking receive natively, a scheduler-visible poll under a
    /// virtual scheduler.
    fn await_acks(&self) {
        for rx in self.ack_rxs {
            if !self.sched.virtualized() {
                rx.recv().expect("core alive");
                continue;
            }
            loop {
                match rx.try_recv() {
                    Ok(_) => break,
                    Err(TryRecvError::Empty) => self.sched.idle_yield(SchedSite::AwaitAck),
                    Err(TryRecvError::Disconnected) => panic!("core alive"),
                }
            }
        }
    }

    /// Pauses every core at its current local time.
    fn stop_all(&self) {
        self.send_all(|_| Command::Stop);
        self.await_acks();
    }

    /// Releases every (paused) core.
    fn resume_all(&self) {
        self.send_all(|_| Command::Resume);
    }

    /// Captures every paused core into its snapshot slot and collects the
    /// captures; the cores stay paused.
    fn capture_all(&self, how: Capture) -> Vec<CoreCapture<C>> {
        self.send_all(|_| Command::Snapshot(how));
        self.await_acks();
        self.shared
            .iter()
            .map(|s| s.snapshot.take().expect("snapshot filled"))
            .collect()
    }

    /// Sets every core's max local time and unparks any core waiting on
    /// it.
    fn publish(&self, window_end: Cycle) {
        for s in self.shared {
            s.max_local.store(window_end.as_u64(), Ordering::Release);
            wake_core(s, self.sched);
        }
    }

    /// Publishes windows for a greedy scheme: per-core when the pacer
    /// paces against peers (Lax-P2P), uniform otherwise; both clamped by
    /// the implementation lead cap.
    fn publish_greedy(&self, pacer: &mut dyn Pacer, locals: &[Cycle], cfg: &EngineConfig) {
        let global = locals.iter().copied().min().expect("n >= 1");
        let cap = cfg.lead_cap(global);
        match pacer.window_ends(locals) {
            Some(wins) => {
                for (s, w) in self.shared.iter().zip(wins) {
                    s.max_local.store(w.min(cap).as_u64(), Ordering::Release);
                    wake_core(s, self.sched);
                }
            }
            None => self.publish(pacer.window_end(global).min(cap)),
        }
    }

    /// Moves every queued OutQ entry into the global queue: one batched
    /// ring drain plus one batched heap insert per core. Returns the
    /// number of events moved.
    fn drain(&self, gq: &mut GlobalQueue<C::Event>, buf: &mut Vec<Timestamped<C::Event>>) -> usize {
        let mut total = 0;
        for (i, s) in self.shared.iter().enumerate() {
            buf.clear();
            let moved = s.outq.drain_into(buf);
            if moved > 0 {
                total += moved;
                gq.push_batch(CoreId::new(i as u16), buf);
            }
        }
        total
    }

    /// Delivers a serviced reply to its core's InQ.
    fn deliver(&self, to: CoreId, ev: Timestamped<C::Event>) {
        self.shared[to.index()].inq.push(ev);
    }
}

/// The simulation-manager loop (runs on the caller's thread inside the
/// scope): drains the OutQs, services events, publishes windows and
/// drives the stop-sync protocol for checkpoints and rollbacks, leaving
/// every manager decision to the kernel. Returns the final global time
/// and why the run ended.
fn manager_loop<C, U>(
    cfg: &EngineConfig,
    k: &mut Kernel<C, U>,
    uncore: &mut U,
    m: &Manager<'_, C>,
    committed: &AtomicU64,
    backoff: &mut Backoff,
    start_global: Cycle,
) -> (Cycle, FinishReason)
where
    C: CoreModel + Checkpointable,
    U: UncoreModel<C::Event> + Checkpointable,
{
    let n = m.shared.len();
    let sched = m.sched;
    let ph = k.prof.handle();
    let mut gq: GlobalQueue<C::Event> = GlobalQueue::new();
    // Persistent scratch reused every iteration: local-clock snapshots,
    // the previous iteration's snapshot for progress detection, and the
    // OutQ drain buffer. Steady state allocates nothing.
    let mut locals: Vec<Cycle> = Vec::with_capacity(n);
    let mut prev_locals: Vec<Cycle> = vec![Cycle::new(u64::MAX); n];
    let mut drain_buf: Vec<Timestamped<C::Event>> = Vec::new();
    let rings = |i: usize| ring_depths(&m.shared[i]);

    // The initial state is a free checkpoint taken before the cores move.
    if k.speculating() {
        let captures = {
            let _span = ph.enter(ProfSite::CheckpointCapture);
            m.capture_all(k.capture(true))
        };
        m.resume_all();
        let _span = ph.enter(ProfSite::CheckpointApply);
        let c = committed.load(Ordering::Acquire);
        k.init_snapshot(start_global, c, uncore, Cores::Captured(captures));
    }
    // A run that is already complete (a zero commit target, or a resumed
    // snapshot past it) stops before any window is published.
    if let Some(reason) = k.finished(start_global, committed.load(Ordering::Acquire), true) {
        return (start_global, reason);
    }

    let mut window_end = k.pacer.window_end(start_global);
    if !k.barrier() {
        window_end = window_end.min(cfg.lead_cap(start_global));
    }
    m.publish(window_end);

    loop {
        sched.point(SchedSite::ManagerLoop);
        let drained = {
            let _span = ph.enter(ProfSite::ManagerDrain);
            m.drain(&mut gq, &mut drain_buf)
        };
        locals.clear();
        locals.extend(
            m.shared
                .iter()
                .map(|s| Cycle::new(s.local.load(Ordering::Acquire))),
        );
        let progress = drained > 0 || locals != prev_locals;
        prev_locals.copy_from_slice(&locals);
        if progress {
            backoff.reset();
        }
        let global = locals.iter().copied().min().expect("n >= 1");
        // Sampled asynchronously: a lower bound on the true spread.
        let furthest = locals.iter().copied().max().expect("n >= 1");
        k.max_spread = k.max_spread.max(furthest - global);
        let barrier = k.barrier();
        let sample = Sample {
            locals: Some(&locals),
            gq_len: gq.len() as u64,
            rings: Some(&rings),
            manager_wait_ns: Some(backoff.waited_ns),
        };
        k.observe(global, committed.load(Ordering::Relaxed), &sample);

        if barrier {
            if !locals.iter().all(|&l| l == window_end) {
                // Even with the commit target already reached, barrier
                // schemes run out the published window: stopping at the
                // natural boundary keeps the finish state deterministic and
                // identical across all three engines (the batched engine
                // can only observe boundaries).
                backoff.wait(sched, &ph);
                continue;
            }
            {
                let _span = ph.enter(ProfSite::ManagerDrain);
                m.drain(&mut gq, &mut drain_buf);
            }
            {
                let _span = ph.enter(ProfSite::ManagerService);
                k.service_queue(&mut gq, uncore, |to, ev| m.deliver(to, ev));
            }
            debug_assert!(!k.rollback_pending(), "barrier servicing cannot violate");
            let g = window_end;
            if let Some(reason) = k.finished(g, committed.load(Ordering::Acquire), true) {
                return (g, reason);
            }
            if k.checkpoint_due(g).is_some() {
                // Cores are already aligned (and capped) at the boundary:
                // capture them directly.
                let captures = {
                    let _span = ph.enter(ProfSite::CheckpointCapture);
                    m.capture_all(k.capture(false))
                };
                m.resume_all();
                let c = committed.load(Ordering::Acquire);
                k.commit_checkpoint(&ph, g, c, uncore, Cores::Captured(captures), None);
            }
            window_end = if k.replaying() {
                g + 1
            } else {
                k.pacer.window_end(g)
            };
            m.publish(window_end);
            backoff.reset();
            continue;
        }

        // --- Greedy servicing -------------------------------------------
        {
            let _span = ph.enter(ProfSite::ManagerService);
            k.service_queue(&mut gq, uncore, |to, ev| m.deliver(to, ev));
        }

        if k.rollback_pending() {
            let _span = ph.enter(ProfSite::CheckpointRestore);
            m.stop_all();
            m.drain(&mut gq, &mut drain_buf);
            gq.clear();
            // Cores are stopped (ack received), so the manager may act as
            // the consumer of both rings during the wipe.
            for s in m.shared {
                s.inq.clear();
                s.outq.clear();
            }
            let at = m
                .shared
                .iter()
                .map(|s| Cycle::new(s.local.load(Ordering::Acquire)))
                .min()
                .expect("n >= 1");
            let delta = k.capture(false) == Capture::Delta;
            let snap = k.rollback(at, uncore, &mut [], &mut []);
            for s in m.shared {
                s.local.store(snap.global.as_u64(), Ordering::Release);
            }
            if delta {
                // Hand each core its checkpoint base by move; the core
                // rewinds in place via `restore_from` (copying back only
                // the units that diverged) and returns the base through
                // its snapshot slot, so no full-model clone happens on
                // either side.
                let mut bases = std::mem::take(&mut snap.cores).into_iter();
                m.send_all(|_| {
                    Command::RestoreDelta(Box::new(bases.next().expect("one base per core")))
                });
                m.await_acks();
                snap.cores = m
                    .shared
                    .iter()
                    .map(|s| match s.snapshot.take().expect("base returned") {
                        CoreCapture::Full(base) => *base,
                        CoreCapture::Delta(_) => unreachable!("delta restore hands back the base"),
                    })
                    .collect();
            } else {
                m.send_all(|i| Command::Restore(Box::new(snap.cores[i].clone())));
                m.await_acks();
            }
            committed.store(snap.committed, Ordering::Release);
            window_end = snap.global + 1;
            m.publish(window_end);
            m.resume_all();
            backoff.reset();
            continue;
        }

        if let Some(reason) = k.finished(global, committed.load(Ordering::Acquire), true) {
            return (global, reason);
        }

        if let Some(trigger) = k.checkpoint_due(global) {
            // Stop-sync all cores at a common local time ≥ the trigger.
            // The whole protocol — stop, run-to, drain, snapshot — bills
            // to the capture site; the kernel's merge and persist open
            // their own nested spans.
            let _span = ph.enter(ProfSite::CheckpointCapture);
            m.stop_all();
            let stop_at = m
                .shared
                .iter()
                .map(|s| s.local.load(Ordering::Acquire))
                .max()
                .expect("n >= 1")
                .max(trigger);
            m.publish(Cycle::new(stop_at));
            m.send_all(|_| Command::RunTo(stop_at));
            // Keep servicing while cores run up to the stop point.
            let mut acked = 0usize;
            let mut ack_iters = m.ack_rxs.iter().cycle();
            while acked < n {
                m.drain(&mut gq, &mut drain_buf);
                k.service_queue(&mut gq, uncore, |to, ev| m.deliver(to, ev));
                let rx = ack_iters.next().expect("cycle never ends");
                if rx.try_recv().is_ok() {
                    acked += 1;
                } else if sched.virtualized() {
                    // Keep the poll visible to a virtual scheduler so the
                    // cores can run towards their acks.
                    sched.idle_yield(SchedSite::AwaitAck);
                }
            }
            m.drain(&mut gq, &mut drain_buf);
            if k.service_queue(&mut gq, uncore, |to, ev| m.deliver(to, ev)) {
                // A violation surfaced during stop-sync: resume and let the
                // rollback branch above handle it.
                m.resume_all();
                continue;
            }
            // Cores are paused right after their RunTo ack: capture them.
            let captures = m.capture_all(k.capture(false));
            let stop_at = Cycle::new(stop_at);
            let c = committed.load(Ordering::Acquire);
            k.commit_checkpoint(&ph, stop_at, c, uncore, Cores::Captured(captures), None);
            locals.clear();
            locals.resize(n, stop_at);
            m.publish_greedy(&mut *k.pacer, &locals, cfg);
            m.resume_all();
            backoff.reset();
            continue;
        }

        m.publish_greedy(&mut *k.pacer, &locals, cfg);
        if !progress {
            backoff.wait(sched, &ph);
        }
    }
}
