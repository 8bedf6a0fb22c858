//! A toy target shared by the engine unit tests: cores ping a single
//! monitored resource, which pongs back after five cycles.

use crate::engine::{CoreModel, ServiceSink, TickCtx, UncoreModel};
use crate::event::{CoreId, Timestamped};
use crate::stats::Counters;
use crate::violation::{TimestampMonitor, ViolationEvent, ViolationKind};

/// Toy event: cores ping the uncore, the uncore pongs back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) enum Toy {
    Ping,
    Pong,
}

/// Toy core: commits one instruction per cycle and pings the uncore
/// every `period` cycles. Uses the *default* `run_window` (the
/// tick-by-tick loop), so the tests pin the engine machinery, not a
/// model's fast-forward override.
#[derive(Debug, Clone)]
pub(super) struct ToyCore {
    period: u64,
    committed: u64,
    pongs: u64,
}

impl ToyCore {
    pub(super) fn new(period: u64) -> Self {
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

/// Toy uncore: one monitored resource with a 5-cycle response latency —
/// a minimal bus. An [`ordered`](ToyUncore::ordered) uncore also asserts
/// in `service` that the stream arrives in canonical order (timestamp
/// first, ties broken by core id), so an engine that merges staged
/// buffers wrong fails there directly, not just through the monitor.
#[derive(Debug, Clone, Default)]
pub(super) struct ToyUncore {
    monitor: TimestampMonitor,
    serviced: u64,
    ordered: bool,
    last: Option<(u64, u16)>,
}

impl ToyUncore {
    /// An uncore that asserts canonical service order.
    pub(super) fn ordered() -> Self {
        ToyUncore {
            ordered: true,
            ..ToyUncore::default()
        }
    }
}

impl UncoreModel<Toy> for ToyUncore {
    fn service(&mut self, from: CoreId, ev: Timestamped<Toy>, sink: &mut ServiceSink<Toy>) {
        self.serviced += 1;
        if self.ordered {
            let key = (ev.ts.as_u64(), from.index() as u16);
            if let Some(prev) = self.last {
                assert!(
                    prev <= key,
                    "service order regressed: {prev:?} then {key:?}"
                );
            }
            self.last = Some(key);
        }
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

/// `n` toy cores with ping periods cycling through 3..=6.
pub(super) fn toy_cores(n: usize) -> Vec<ToyCore> {
    (0..n).map(|i| ToyCore::new(3 + (i as u64 % 4))).collect()
}
