//! Per-layer host-time tracing from outside the simulator.
//!
//! [`Traced`] wraps a core or uncore model and implements the same public
//! traits by forwarding every method — the defaulted ones too — while
//! timing each call as a span of one [`Layer`]. [`TracedStream`] does the
//! same for a workload's instruction stream. Nothing inside the simulator
//! is instrumented.
//!
//! Spans are per call and a run makes millions of them, so the recorder
//! keeps only per-layer aggregates (calls, total time, time and calls of
//! direct children) plus a parent link: the layer active when the span
//! opened. Time outside every span is the engine's own. Coarse calls
//! (checkpoint capture and restore, monitor compaction) are additionally
//! kept as full [`Span`] records.
//!
//! The recorder is thread-local: the sequential and batched engines run
//! every model call on the thread that called `run()`.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use slacksim::slacksim_cmp::isa::{Instr, InstrStream};
use slacksim::slacksim_core::checkpoint::Checkpointable;
use slacksim::slacksim_core::engine::{CoreModel, ServiceSink, TickCtx, UncoreModel};
use slacksim::slacksim_core::event::{CoreId, Inbox, Timestamped};
use slacksim::slacksim_core::stats::Counters;
use slacksim::slacksim_core::time::Cycle;

/// A simulated layer whose calls are timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `CoreModel::tick`.
    CoreTick,
    /// `CoreModel::run_window`.
    CoreWindow,
    /// `InstrStream::next_instr` (the workload generators).
    Stream,
    /// `UncoreModel::service`.
    Uncore,
    /// `UncoreModel::compact_monitors`.
    Compact,
    /// Checkpoint capture: `Clone` of a live model (full mode), or
    /// `capture_delta` / `apply_delta` (delta mode).
    Capture,
    /// Rollback restore: `Clone` of a snapshot model (full mode), or
    /// `restore_from` (delta mode).
    Restore,
}

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; 7] = [
        Layer::CoreTick,
        Layer::CoreWindow,
        Layer::Stream,
        Layer::Uncore,
        Layer::Compact,
        Layer::Capture,
        Layer::Restore,
    ];

    /// Number of layers.
    pub const COUNT: usize = Layer::ALL.len();

    fn index(self) -> usize {
        self as usize
    }

    fn is_coarse(self) -> bool {
        matches!(self, Layer::Compact | Layer::Capture | Layer::Restore)
    }
}

/// Index of the engine, the implicit root span around every model call.
const ROOT: usize = Layer::COUNT;

/// Aggregates of one layer's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans closed.
    pub calls: u64,
    /// Summed span durations, in ns.
    pub total_ns: u64,
    /// Summed durations of the spans opened directly inside this layer.
    pub child_ns: u64,
    /// Number of spans opened directly inside this layer.
    pub child_calls: u64,
}

/// One recorded coarse span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer timed.
    pub layer: Layer,
    /// The layer the span opened inside; `None` is the engine.
    pub parent: Option<Layer>,
    /// Start, in ns since the last [`reset`].
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

/// Everything recorded since the last [`reset`].
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Per-layer aggregates, indexed by [`Layer`]; the extra last entry is
    /// the engine root, whose `child_*` fields cover the top-level spans.
    pub totals: [LayerTotals; Layer::COUNT + 1],
    /// Full records of the coarse spans.
    pub spans: Vec<Span>,
}

impl Trace {
    /// The aggregates of `layer`.
    pub fn layer(&self, layer: Layer) -> LayerTotals {
        self.totals[layer.index()]
    }

    /// The aggregates of the spans opened outside every other span.
    pub fn top_level(&self) -> LayerTotals {
        self.totals[ROOT]
    }

    /// Total spans closed, over all layers.
    pub fn span_count(&self) -> u64 {
        self.totals[..ROOT].iter().map(|t| t.calls).sum()
    }

    /// Adds another trace's aggregates into this one; its coarse spans
    /// are not copied.
    pub fn merge(&mut self, other: &Trace) {
        for (a, b) in self.totals.iter_mut().zip(other.totals.iter()) {
            a.calls += b.calls;
            a.total_ns += b.total_ns;
            a.child_ns += b.child_ns;
            a.child_calls += b.child_calls;
        }
    }
}

/// The per-call aggregates, kept in cells without a destructor so that
/// the thread-local access on every span stays a plain load.
struct Hot {
    calls: [Cell<u64>; Layer::COUNT + 1],
    ticks: [Cell<u64>; Layer::COUNT + 1],
    child_ticks: [Cell<u64>; Layer::COUNT + 1],
    child_calls: [Cell<u64>; Layer::COUNT + 1],
    current: Cell<usize>,
}

/// The coarse spans (ticks relative to `epoch`) and the tick calibration.
struct Cold {
    spans: Vec<(Layer, Option<Layer>, u64, u64)>,
    epoch: u64,
    /// Measured once per thread, on the first [`reset`].
    ns_per_tick: Option<f64>,
}

thread_local! {
    static HOT: Hot = const {
        Hot {
            calls: [const { Cell::new(0) }; Layer::COUNT + 1],
            ticks: [const { Cell::new(0) }; Layer::COUNT + 1],
            child_ticks: [const { Cell::new(0) }; Layer::COUNT + 1],
            child_calls: [const { Cell::new(0) }; Layer::COUNT + 1],
            current: Cell::new(ROOT),
        }
    };
    static COLD: RefCell<Cold> = const {
        RefCell::new(Cold {
            spans: Vec::new(),
            epoch: 0,
            ns_per_tick: None,
        })
    };
}

/// Reads the span clock.
///
/// On x86-64 this is the time-stamp counter, about half the cost of
/// `Instant::now` on virtualised hosts; elsewhere it is `Instant` in ns.
#[inline]
fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: RDTSC exists on every x86-64 processor and reads a
        // counter without touching memory; `_rdtsc` has no other
        // precondition.
        unsafe { std::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        thread_local! {
            static START: Instant = Instant::now();
        }
        START.with(|s| s.elapsed().as_nanos() as u64)
    }
}

/// Measures the span clock's rate against `Instant` over about 20 ms.
fn ns_per_tick() -> f64 {
    let (t0, c0) = (Instant::now(), ticks());
    while t0.elapsed().as_millis() < 20 {
        std::hint::spin_loop();
    }
    let (ns, c1) = (t0.elapsed().as_nanos() as f64, ticks());
    ns / c1.saturating_sub(c0).max(1) as f64
}

/// Clears this thread's recorder and restarts its span clock.
pub fn reset() {
    HOT.with(|h| {
        for cells in [&h.calls, &h.ticks, &h.child_ticks, &h.child_calls] {
            for c in cells {
                c.set(0);
            }
        }
        h.current.set(ROOT);
    });
    COLD.with(|c| {
        let mut c = c.borrow_mut();
        c.spans.clear();
        if c.ns_per_tick.is_none() {
            c.ns_per_tick = Some(ns_per_tick());
        }
        c.epoch = ticks();
    });
}

/// Returns everything recorded on this thread since the last [`reset`],
/// in ns, and clears it.
pub fn take() -> Trace {
    let (raw, epoch, rate) = COLD.with(|c| {
        let mut c = c.borrow_mut();
        let rate = *c.ns_per_tick.get_or_insert_with(ns_per_tick);
        (std::mem::take(&mut c.spans), c.epoch, rate)
    });
    let ns = |t: u64| (t as f64 * rate) as u64;
    let mut trace = Trace::default();
    HOT.with(|h| {
        for (i, t) in trace.totals.iter_mut().enumerate() {
            *t = LayerTotals {
                calls: h.calls[i].replace(0),
                total_ns: ns(h.ticks[i].replace(0)),
                child_ns: ns(h.child_ticks[i].replace(0)),
                child_calls: h.child_calls[i].replace(0),
            };
        }
    });
    trace.spans = raw
        .into_iter()
        .map(|(layer, parent, start, dur)| Span {
            layer,
            parent,
            start_ns: ns(start.saturating_sub(epoch)),
            dur_ns: ns(dur),
        })
        .collect();
    trace
}

/// Runs `f` as one span of `layer`.
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    HOT.with(|h| {
        let me = layer.index();
        let parent = h.current.replace(me);
        let t0 = ticks();
        let out = f();
        let dur = ticks().saturating_sub(t0);
        h.current.set(parent);
        h.calls[me].set(h.calls[me].get() + 1);
        h.ticks[me].set(h.ticks[me].get() + dur);
        h.child_calls[parent].set(h.child_calls[parent].get() + 1);
        h.child_ticks[parent].set(h.child_ticks[parent].get() + dur);
        if layer.is_coarse() {
            let parent = (parent != ROOT).then(|| Layer::ALL[parent]);
            COLD.with(|c| c.borrow_mut().spans.push((layer, parent, t0, dur)));
        }
        out
    })
}

/// The measured cost of one empty span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanCost {
    /// Part of the cost that falls inside the span's own measured
    /// duration, in ns.
    pub inner_ns: f64,
    /// Part that falls outside it and is charged to the enclosing layer,
    /// in ns.
    pub outer_ns: f64,
}

impl SpanCost {
    /// The whole cost of one span, in ns.
    pub fn full_ns(&self) -> f64 {
        self.inner_ns + self.outer_ns
    }

    /// Measures `rounds` batches of `per_round` empty spans on this thread
    /// and returns the median batch. Clears the recorder.
    pub fn calibrate(rounds: usize, per_round: u64) -> SpanCost {
        let mut inner = Vec::with_capacity(rounds);
        let mut full = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            reset();
            let t = Instant::now();
            for i in 0..per_round {
                std::hint::black_box(span(Layer::Stream, || std::hint::black_box(i)));
            }
            let wall = t.elapsed().as_nanos() as f64;
            let rec = take().layer(Layer::Stream);
            inner.push(rec.total_ns as f64 / per_round as f64);
            full.push(wall / per_round as f64);
        }
        reset();
        let inner_ns = median(&mut inner);
        let full_ns = median(&mut full).max(inner_ns);
        SpanCost {
            inner_ns,
            outer_ns: full_ns - inner_ns,
        }
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// A model wrapped so that every trait call is timed.
///
/// `snapshot` tells a checkpoint copy from a live model: the engines'
/// full-mode capture clones live models into snapshots and their restore
/// clones snapshots back into live models, so the direction of a `Clone`
/// names the layer it belongs to.
#[derive(Debug)]
pub struct Traced<T> {
    inner: T,
    snapshot: bool,
}

impl<T> Traced<T> {
    /// Wraps a live model.
    pub fn new(inner: T) -> Self {
        Traced {
            inner,
            snapshot: false,
        }
    }
}

impl<T: Clone> Clone for Traced<T> {
    fn clone(&self) -> Self {
        let layer = if self.snapshot {
            Layer::Restore
        } else {
            Layer::Capture
        };
        span(layer, || Traced {
            inner: self.inner.clone(),
            snapshot: !self.snapshot,
        })
    }
}

impl<C: CoreModel> CoreModel for Traced<C> {
    type Event = C::Event;

    fn tick(&mut self, ctx: &mut TickCtx<'_, C::Event>) -> u32 {
        span(Layer::CoreTick, || self.inner.tick(ctx))
    }

    fn run_window(
        &mut self,
        from: Cycle,
        to: Cycle,
        inbox: &mut Inbox<C::Event>,
        staged: &mut Vec<Timestamped<C::Event>>,
    ) -> u64 {
        span(Layer::CoreWindow, || {
            self.inner.run_window(from, to, inbox, staged)
        })
    }

    fn committed(&self) -> u64 {
        self.inner.committed()
    }

    fn counters(&self) -> Counters {
        self.inner.counters()
    }
}

impl<E, U: UncoreModel<E>> UncoreModel<E> for Traced<U> {
    fn service(&mut self, from: CoreId, ev: Timestamped<E>, sink: &mut ServiceSink<E>) {
        span(Layer::Uncore, || self.inner.service(from, ev, sink))
    }

    fn counters(&self) -> Counters {
        self.inner.counters()
    }

    fn compact_monitors(&mut self, horizon: Cycle) {
        span(Layer::Compact, || self.inner.compact_monitors(horizon))
    }
}

impl<T: Checkpointable> Checkpointable for Traced<T> {
    type Delta = T::Delta;

    fn generation(&self) -> u64 {
        self.inner.generation()
    }

    fn capture_delta(&mut self, since_gen: u64) -> T::Delta {
        span(Layer::Capture, || self.inner.capture_delta(since_gen))
    }

    fn apply_delta(&mut self, delta: T::Delta) {
        span(Layer::Capture, || self.inner.apply_delta(delta))
    }

    fn restore_from(&mut self, base: &Self, since_gen: u64) {
        span(Layer::Restore, || {
            self.inner.restore_from(&base.inner, since_gen)
        })
    }
}

/// An instruction stream whose `next_instr` calls are timed.
pub struct TracedStream(pub Box<dyn InstrStream>);

impl InstrStream for TracedStream {
    fn next_instr(&mut self) -> Instr {
        span(Layer::Stream, || self.0.next_instr())
    }

    fn clone_box(&self) -> Box<dyn InstrStream> {
        Box::new(TracedStream(self.0.clone_box()))
    }
}
