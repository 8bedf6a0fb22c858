//! The benchmark's workloads, how each is built from public calls, and the
//! digest that checks a run's simulated result.

use slacksim::scheme::Scheme;
use slacksim::slacksim_cmp::isa::InstrStream;
use slacksim::slacksim_cmp::{CmpCore, CmpUncore};
use slacksim::slacksim_core::checkpoint::Checkpointable;
use slacksim::slacksim_core::engine::{BatchedEngine, CoreModel, SequentialEngine, UncoreModel};
use slacksim::{
    Benchmark, BurstPolicy, CmpConfig, EngineConfig, EngineError, EngineKind, SimReport,
    Simulation, SpeculationConfig, UncoreKind, ViolationKind, ViolationSelect, WorkloadParams,
};

use crate::trace::{Traced, TracedStream};

/// The burst length and lead cap `Simulation` uses by default; the
/// benchmark builds its engine configuration the same way so that the
/// digest check against `Simulation::run` holds.
const MAX_BURST: u64 = 16;
const MAX_LEAD: u64 = 256;

/// One named operating point.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// The SPLASH-2-like generator.
    pub benchmark: Benchmark,
    /// Target cores.
    pub cores: usize,
    /// Interconnect.
    pub uncore: UncoreKind,
    /// Engine: sequential or batched (the threaded engine is left out).
    pub engine: EngineKind,
    /// Pacing scheme.
    pub scheme: Scheme,
    /// Checkpointing and rollback, if any.
    pub speculation: Option<SpeculationConfig>,
    /// Committed instructions per run: long enough to pass the warm-up
    /// of the cold simulated caches (see NOTES.md).
    pub commits: u64,
}

/// Every workload. `BENCHMARK.json` gates only `fft8_bus_batched` and
/// `fft8_bus_spec`: the other two spread too widely between runs on a
/// shared host to gate (see NOTES.md).
pub fn all() -> Vec<Workload> {
    let bounded16 = Scheme::BoundedSlack { bound: 16 };
    vec![
        Workload {
            name: "fft8_bus_batched",
            benchmark: Benchmark::Fft,
            cores: 8,
            uncore: UncoreKind::Bus,
            engine: EngineKind::Batched,
            scheme: Scheme::Quantum { quantum: 50 },
            speculation: None,
            commits: 4_000_000,
        },
        Workload {
            name: "lu8_bus_seq",
            benchmark: Benchmark::Lu,
            cores: 8,
            uncore: UncoreKind::Bus,
            engine: EngineKind::Sequential,
            scheme: bounded16.clone(),
            speculation: None,
            commits: 8_000_000,
        },
        Workload {
            name: "fft64_dir_seq",
            benchmark: Benchmark::Fft,
            cores: 64,
            uncore: UncoreKind::Directory,
            engine: EngineKind::Sequential,
            scheme: bounded16.clone(),
            speculation: None,
            commits: 4_000_000,
        },
        Workload {
            name: "fft8_bus_spec",
            benchmark: Benchmark::Fft,
            cores: 8,
            uncore: UncoreKind::Bus,
            engine: EngineKind::Sequential,
            scheme: bounded16,
            speculation: Some(SpeculationConfig::speculative(
                5_000,
                ViolationSelect::only(&[ViolationKind::Map]),
            )),
            commits: 4_000_000,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// An engine built and ready to run.
pub enum Engine<C: CoreModel, U: UncoreModel<C::Event>> {
    /// The deterministic sequential engine.
    Sequential(SequentialEngine<C, U>),
    /// The quantum-compiled batched engine.
    Batched(BatchedEngine<C, U>),
}

impl<C, U> Engine<C, U>
where
    C: CoreModel + Checkpointable,
    U: UncoreModel<C::Event> + Checkpointable,
{
    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// Propagates the engine's error.
    pub fn run(self) -> Result<SimReport, EngineError> {
        match self {
            Engine::Sequential(e) => e.run(),
            Engine::Batched(e) => e.run(),
        }
    }
}

impl Workload {
    /// The same run expressed through `Simulation`, the user-facing API.
    pub fn simulation(&self, seed: u64) -> Simulation {
        let mut sim = Simulation::new(self.benchmark);
        sim.cores(self.cores)
            .uncore(self.uncore)
            .scheme(self.scheme.clone())
            .engine(self.engine)
            .commit_target(self.commits)
            .seed(seed)
            .max_burst(MAX_BURST)
            .max_lead(MAX_LEAD);
        if let Some(spec) = self.speculation {
            sim.speculation(spec);
        }
        sim
    }

    fn cmp_config(&self) -> CmpConfig {
        let mut cmp = CmpConfig::paper();
        cmp.cores = self.cores;
        cmp.uncore_kind = self.uncore;
        cmp
    }

    fn engine_config(&self, seed: u64) -> EngineConfig {
        let mut cfg = EngineConfig::new(self.scheme.clone(), self.commits);
        cfg.seed = seed;
        cfg.burst = BurstPolicy::new(MAX_BURST);
        cfg.max_lead = MAX_LEAD;
        cfg.speculation = self.speculation;
        cfg
    }

    fn build_with<C, U>(
        &self,
        seed: u64,
        wrap_stream: impl Fn(Box<dyn InstrStream>) -> Box<dyn InstrStream>,
        wrap_core: impl Fn(CmpCore) -> C,
        wrap_uncore: impl FnOnce(CmpUncore) -> U,
    ) -> Engine<C, U>
    where
        C: CoreModel + Checkpointable,
        U: UncoreModel<C::Event> + Checkpointable,
    {
        let cmp = self.cmp_config();
        let (n, benchmark) = (self.cores, self.benchmark);
        let cores = CmpCore::build_cmp(&cmp, |i| {
            wrap_stream(benchmark.stream(&WorkloadParams::new(i, n, seed)))
        })
        .into_iter()
        .map(wrap_core)
        .collect();
        let uncore = wrap_uncore(CmpUncore::new(&cmp));
        let cfg = self.engine_config(seed);
        match self.engine {
            EngineKind::Batched => Engine::Batched(BatchedEngine::new(cores, uncore, cfg)),
            _ => Engine::Sequential(SequentialEngine::new(cores, uncore, cfg)),
        }
    }

    /// Builds the bare cores, streams, uncore and engine.
    pub fn build(&self, seed: u64) -> Engine<CmpCore, CmpUncore> {
        self.build_with(seed, |s| s, |c| c, |u| u)
    }

    /// Builds the same engine over traced wrappers of every model.
    pub fn build_traced(&self, seed: u64) -> Engine<Traced<CmpCore>, Traced<CmpUncore>> {
        self.build_with(
            seed,
            |s| Box::new(TracedStream(s)),
            Traced::new,
            Traced::new,
        )
    }
}

/// A 64-bit FNV-1a digest of a run's simulated result: global cycles,
/// committed instructions, violations per kind, and every uncore and
/// kernel counter. Host time is not part of it.
pub fn digest(r: &SimReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&r.global_cycles.to_le_bytes());
    eat(&r.committed.to_le_bytes());
    for c in r.violations.counts() {
        eat(&c.to_le_bytes());
    }
    for bag in [&r.uncore, &r.kernel] {
        for (name, value) in bag.iter() {
            eat(name.as_bytes());
            eat(&value.to_le_bytes());
        }
        eat(b"|");
    }
    h
}

const RECORDED: &str = include_str!("../digests.txt");

/// The digest recorded in `digests.txt` for this workload and seed, if
/// that seed was recorded.
pub fn recorded_digest(workload: &str, seed: u64) -> Option<u64> {
    RECORDED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}
