//! The benchmark command.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --workload NAME --seed N --print-digest
//! perfbench --workload NAME --seed N --lengths L1,L2,...
//! perfbench --workload NAME --seed N --child
//! ```
//!
//! The first form measures for `S` seconds and prints, as its last line,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The second prints the simulated-result digest of one
//! `Simulation::run` (the source of `digests.txt`). The third prints
//! `commits_per_s` at increasing run lengths (the warm-up evidence in
//! NOTES.md). The fourth is one measured run, which the first form starts
//! as a child process per run.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use slacksim::EngineError;
use slacksim::SimReport;
use slacksim_perfbench::trace::{self, Layer, SpanCost, Trace};
use slacksim_perfbench::workload::{self, digest, recorded_digest, Workload};

const USAGE: &str = "usage: perfbench --workload NAME --seed N \
(--seconds S --trace 0|1 | --print-digest | --lengths L1,L2,... | --child)";

/// Measured runs per result, even when they take longer than `--seconds`.
const MIN_RUNS: usize = 3;

/// Rounds over all lengths in `--lengths` mode.
const LENGTH_ROUNDS: usize = 5;

enum Mode {
    Measure { seconds: f64, traced: bool },
    PrintDigest,
    Lengths(Vec<u64>),
    Child,
}

struct Args {
    workload: Workload,
    seed: u64,
    mode: Mode,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut mode = None;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(workload::by_name(&name).ok_or_else(|| {
                    let names: Vec<_> = workload::all().iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                });
            }
            "--print-digest" => mode = Some(Mode::PrintDigest),
            "--child" => mode = Some(Mode::Child),
            "--lengths" => {
                let lengths = value()?
                    .split(',')
                    .map(|l| l.parse::<u64>().ok().filter(|&l| l > 0))
                    .collect::<Option<Vec<_>>>()
                    .ok_or("--lengths takes positive integers separated by commas")?;
                mode = Some(Mode::Lengths(lengths));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let mode = match (mode, seconds, traced) {
        (Some(m), None, None) => m,
        (None, Some(seconds), Some(traced)) => Mode::Measure { seconds, traced },
        _ => return Err("give --seconds and --trace, or one other mode".to_owned()),
    };
    Ok(Args {
        workload,
        seed,
        mode,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (w, seed) = (&args.workload, args.seed);
    match args.mode {
        Mode::PrintDigest => match w.simulation(seed).run() {
            Ok(r) => {
                println!("{} {seed} {:016x}", w.name, digest(&r));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {} seed {seed}: {e}", w.name);
                ExitCode::FAILURE
            }
        },
        Mode::Lengths(lengths) => lengths_sweep(w, seed, &lengths),
        Mode::Child => child(w, seed),
        Mode::Measure { seconds, traced } => {
            let budget = Duration::from_secs_f64(seconds);
            let mut check = Checker::new(w, seed);
            let (runs, metrics) = if traced {
                measure_traced(w, seed, budget, &mut check)
            } else {
                measure_untraced(w, seed, budget, &mut check)
            };
            println!("{}", provenance(w, seed, runs));
            println!("{}", result_line(&check, &metrics));
            ExitCode::SUCCESS
        }
    }
}

/// Counts attempted and failed runs and checks each run's simulated
/// result against the reference digest.
struct Checker {
    workload: &'static str,
    target: u64,
    expected: Option<u64>,
    attempted: u64,
    failed: u64,
    reference: Option<SimReport>,
}

impl Checker {
    /// Runs the reference: `Simulation::run` on the same configuration,
    /// checked against the digest recorded for this seed when there is
    /// one. Its digest is the one every measured run must reproduce.
    fn new(w: &Workload, seed: u64) -> Checker {
        let recorded = recorded_digest(w.name, seed);
        let mut check = Checker {
            workload: w.name,
            target: w.commits,
            expected: recorded,
            attempted: 0,
            failed: 0,
            reference: None,
        };
        check.reference = check.check("Simulation::run", w.simulation(seed).run());
        if check.expected.is_none() {
            check.expected = check.reference.as_ref().map(digest);
        }
        check
    }

    /// Counts one attempted run: `Ok((committed, digest))` or why it
    /// failed. Returns whether it passed.
    fn record(&mut self, what: &str, outcome: Result<(u64, u64), String>) -> bool {
        self.attempted += 1;
        let why = match outcome {
            Err(why) => Some(why),
            Ok((committed, _)) if committed < self.target => Some(format!(
                "committed {committed} is below the target {}",
                self.target
            )),
            Ok((_, got)) => match self.expected {
                Some(want) if got != want => Some(format!(
                    "digest {got:016x} differs from the expected {want:016x}"
                )),
                _ => None,
            },
        };
        if let Some(why) = &why {
            eprintln!("failed: {} {what}: {why}", self.workload);
            self.failed += 1;
        }
        why.is_none()
    }

    fn check(&mut self, what: &str, run: Result<SimReport, EngineError>) -> Option<SimReport> {
        let outcome = match &run {
            Ok(r) => Ok((r.committed, digest(r))),
            Err(e) => Err(format!("engine error: {e}")),
        };
        if self.record(what, outcome) {
            run.ok()
        } else {
            None
        }
    }
}

type Metric = (&'static str, f64, &'static str);

/// One measured run: engine wall time and its checked report.
fn timed_run<C, U>(
    engine: workload::Engine<C, U>,
    what: &str,
    check: &mut Checker,
) -> Option<(f64, SimReport)>
where
    C: slacksim::slacksim_core::engine::CoreModel + slacksim::Checkpointable,
    U: slacksim::slacksim_core::engine::UncoreModel<C::Event> + slacksim::Checkpointable,
{
    let t = Instant::now();
    let run = engine.run();
    let wall = t.elapsed().as_secs_f64();
    check.check(what, run).map(|r| (wall, r))
}

/// One measured run in a child process, as the child reports it.
struct ChildRun {
    setup_s: f64,
    run_s: f64,
    committed: u64,
    global_cycles: u64,
    digest: u64,
    peak_rss_mb: f64,
}

/// The `--child` mode: one cold set-up and one run in a fresh process,
/// reported on one line for the parent to check.
fn child(w: &Workload, seed: u64) -> ExitCode {
    let t = Instant::now();
    let engine = w.build(seed);
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let run = engine.run();
    let run_s = t.elapsed().as_secs_f64();
    match (run, peak_rss_mb()) {
        (Ok(r), Some(rss)) => {
            println!(
                "{setup_s} {run_s} {} {} {:016x} {rss}",
                r.committed,
                r.global_cycles,
                digest(&r)
            );
            ExitCode::SUCCESS
        }
        (Err(e), _) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        (_, None) => {
            eprintln!("error: cannot read the peak RSS from /proc/self/status");
            ExitCode::FAILURE
        }
    }
}

fn spawn_child(w: &Workload, seed: u64) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string(), "--child"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    if !out.status.success() {
        return Err(format!("child run exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let f: Vec<&str> = text.split_whitespace().collect();
    let parse = || -> Option<ChildRun> {
        let [setup_s, run_s, committed, global_cycles, digest, rss] = f.as_slice() else {
            return None;
        };
        Some(ChildRun {
            setup_s: setup_s.parse().ok()?,
            run_s: run_s.parse().ok()?,
            committed: committed.parse().ok()?,
            global_cycles: global_cycles.parse().ok()?,
            digest: u64::from_str_radix(digest, 16).ok()?,
            peak_rss_mb: rss.parse().ok()?,
        })
    };
    parse().ok_or_else(|| format!("malformed child output {text:?}"))
}

/// Every measured run is a fresh child process: where the heap lands in
/// physical memory is fixed per process and moves this host's throughput
/// by tens of percent, so one process per run turns that bias into
/// sample noise that the median absorbs.
fn measure_untraced(
    w: &Workload,
    seed: u64,
    budget: Duration,
    check: &mut Checker,
) -> (usize, Vec<Metric>) {
    let (mut commits, mut cycles, mut setup, mut rss) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut runs = 0;
    while runs < MIN_RUNS || start.elapsed() < budget {
        runs += 1;
        let run = spawn_child(w, seed);
        let outcome = run
            .as_ref()
            .map(|c| (c.committed, c.digest))
            .map_err(Clone::clone);
        if let (true, Ok(c)) = (check.record("child run", outcome), run) {
            commits.push(c.committed as f64 / c.run_s);
            cycles.push(c.global_cycles as f64 / c.run_s);
            setup.push(c.setup_s);
            rss.push(c.peak_rss_mb);
        }
    }
    (
        runs,
        vec![
            ("commits_per_s", median(&mut commits), "1/s"),
            ("sim_cycles_per_s", median(&mut cycles), "1/s"),
            ("setup_s", median(&mut setup), "s"),
            ("peak_rss_mb", median(&mut rss), "MiB"),
        ],
    )
}

fn measure_traced(
    w: &Workload,
    seed: u64,
    budget: Duration,
    check: &mut Checker,
) -> (usize, Vec<Metric>) {
    let cost = SpanCost::calibrate(7, 200_000);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut sum, mut spans) = (Trace::default(), Vec::new());
    let start = Instant::now();
    // Alternate untraced and traced runs so that both see the same host
    // conditions.
    while traced.len() < MIN_RUNS || start.elapsed() < budget {
        if let Some((wall, _)) = timed_run(w.build(seed), "untraced run", check) {
            untraced.push(wall);
        }
        let engine = w.build_traced(seed);
        trace::reset();
        let run = timed_run(engine, "traced run", check);
        let t = trace::take();
        if let Some((wall, _)) = run {
            traced.push(wall);
            sum.merge(&t);
            spans = t.spans;
        }
    }
    let runs = untraced.len() + traced.len();
    let Some(reference) = check.reference.clone() else {
        return (runs, Vec::new());
    };
    if !spans.is_empty() {
        write_spans(w, seed, &spans);
    }
    let n = traced.len().max(1) as f64;
    let layers = LayerTimes::new(&sum, n, mean(&traced), cost);
    (
        runs,
        layer_metrics(&reference, &sum, n, &layers, mean(&untraced), cost),
    )
}

/// Self times per traced run, in seconds, corrected for span cost.
struct LayerTimes {
    traced_wall: f64,
    core: f64,
    stream: f64,
    uncore: f64,
    compact: f64,
    capture: f64,
    restore: f64,
    engine: f64,
}

impl LayerTimes {
    fn new(sum: &Trace, n: f64, traced_wall: f64, cost: SpanCost) -> LayerTimes {
        // A layer's span measures its own inner timer cost; each child span
        // adds its outer cost to the parent's interval outside the child's
        // measured duration.
        let self_s = |l: Layer| {
            let t = sum.layer(l);
            let ns = t.total_ns as f64
                - t.child_ns as f64
                - t.calls as f64 * cost.inner_ns
                - t.child_calls as f64 * cost.outer_ns;
            (ns / n / 1e9).max(0.0)
        };
        let top = sum.top_level();
        let engine =
            traced_wall - (top.child_ns as f64 + top.child_calls as f64 * cost.outer_ns) / n / 1e9;
        LayerTimes {
            traced_wall,
            core: self_s(Layer::CoreTick) + self_s(Layer::CoreWindow),
            stream: self_s(Layer::Stream),
            uncore: self_s(Layer::Uncore),
            compact: self_s(Layer::Compact),
            capture: self_s(Layer::Capture),
            restore: self_s(Layer::Restore),
            engine: engine.max(0.0),
        }
    }

    /// Traced wall with the span cost taken out: the sum of every
    /// layer's corrected self time.
    fn corrected_wall(&self) -> f64 {
        self.core
            + self.stream
            + self.uncore
            + self.compact
            + self.capture
            + self.restore
            + self.engine
    }
}

fn layer_metrics(
    r: &SimReport,
    sum: &Trace,
    n: f64,
    t: &LayerTimes,
    untraced_wall: f64,
    cost: SpanCost,
) -> Vec<Metric> {
    let calls = |l: Layer| sum.layer(l).calls as f64 / n;
    let core_calls = calls(Layer::CoreTick) + calls(Layer::CoreWindow);
    let uncore_calls = calls(Layer::Uncore);
    let wall = t.corrected_wall();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (u, k) = (&r.uncore, &r.kernel);
    let core_cycles = r.core_total("cycles") as f64;
    let l1d = r.core_total("l1d_hits") + r.core_total("l1d_misses");
    let l2 = u.get("l2_hits") + u.get("l2_misses");
    let (checkpoints, rollbacks) = (k.get("checkpoints") as f64, k.get("rollbacks") as f64);
    vec![
        ("core.calls", core_calls, "count"),
        ("core.window_calls", calls(Layer::CoreWindow), "count"),
        ("core.self_s", t.core, "s"),
        ("core.self_frac", ratio(t.core, wall), "ratio"),
        (
            "core.ns_per_core_cycle",
            ratio(t.core * 1e9, core_cycles),
            "ns",
        ),
        ("stream.calls", calls(Layer::Stream), "count"),
        ("stream.self_s", t.stream, "s"),
        ("stream.self_frac", ratio(t.stream, wall), "ratio"),
        ("uncore.calls", uncore_calls, "count"),
        ("uncore.self_s", t.uncore, "s"),
        ("uncore.self_frac", ratio(t.uncore, wall), "ratio"),
        (
            "uncore.ns_per_event",
            ratio(t.uncore * 1e9, uncore_calls),
            "ns",
        ),
        (
            "uncore.events_per_kinstr",
            ratio(uncore_calls * 1e3, r.committed as f64),
            "1/kinstr",
        ),
        (
            "bus.conflicts_per_txn",
            u.ratio("bus_conflicts", "bus_transactions"),
            "ratio",
        ),
        (
            "dir.conflicts_per_txn",
            u.ratio("dir_conflicts", "dir_transactions"),
            "ratio",
        ),
        (
            "l1d.miss_ratio",
            ratio(r.core_total("l1d_misses") as f64, l1d as f64),
            "ratio",
        ),
        (
            "l2.miss_ratio",
            ratio(u.get("l2_misses") as f64, l2 as f64),
            "ratio",
        ),
        (
            "map.monitor_entries",
            u.get("map_monitor_entries") as f64,
            "count",
        ),
        ("ckpt.captures", checkpoints, "count"),
        ("ckpt.capture_s", t.capture, "s"),
        ("ckpt.restores", rollbacks, "count"),
        ("ckpt.restore_s", t.restore, "s"),
        (
            "ckpt.self_frac",
            ratio(t.capture + t.restore, wall),
            "ratio",
        ),
        ("monitor.compact_calls", calls(Layer::Compact), "count"),
        ("monitor.compact_s", t.compact, "s"),
        ("spec.rollbacks", rollbacks, "count"),
        (
            "spec.replay_frac",
            ratio(k.get("replay_cycles") as f64, r.global_cycles as f64),
            "ratio",
        ),
        (
            "spec.wasted_cycles",
            k.get("wasted_cycles") as f64,
            "cycles",
        ),
        (
            "spec.clean_interval_frac",
            ratio(checkpoints, checkpoints + rollbacks),
            "ratio",
        ),
        ("engine.self_s", t.engine, "s"),
        ("engine.self_frac", ratio(t.engine, wall), "ratio"),
        (
            "sim.violations_per_kcycle",
            ratio(r.violations.total() as f64 * 1e3, r.global_cycles as f64),
            "1/kcycle",
        ),
        (
            "trace.overhead_frac",
            ratio(t.traced_wall, untraced_wall) - 1.0,
            "ratio",
        ),
        (
            "trace.closure_err",
            ratio(wall, untraced_wall) - 1.0,
            "ratio",
        ),
        ("trace.span_ns", cost.full_ns(), "ns"),
    ]
}

/// Writes the coarse spans of the last traced run as CSV under `out/` in
/// the benchmark's directory.
fn write_spans(w: &Workload, seed: u64, spans: &[trace::Span]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut csv = String::from("layer,parent,start_ns,dur_ns\n");
    for s in spans {
        let parent = s.parent.map_or("engine".to_owned(), |p| format!("{p:?}"));
        let _ = writeln!(csv, "{:?},{parent},{},{}", s.layer, s.start_ns, s.dur_ns);
    }
    let path = dir.join(format!("spans-{}-{seed}.csv", w.name));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, csv)) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// Prints `commits_per_s` and `sim_cycles_per_s` at each commit target:
/// medians over rounds that each run every length once, so that host
/// drift spreads over all lengths alike.
fn lengths_sweep(w: &Workload, seed: u64, lengths: &[u64]) -> ExitCode {
    let mut rates = vec![(Vec::new(), Vec::new()); lengths.len()];
    for _ in 0..LENGTH_ROUNDS {
        for (&len, (commits, cycles)) in lengths.iter().zip(rates.iter_mut()) {
            let mut at = w.clone();
            at.commits = len;
            let engine = at.build(seed);
            let t = Instant::now();
            match engine.run() {
                Ok(r) => {
                    let wall = t.elapsed().as_secs_f64();
                    commits.push(r.committed as f64 / wall);
                    cycles.push(r.global_cycles as f64 / wall);
                }
                Err(e) => {
                    eprintln!("error: {} at {len} commits: {e}", w.name);
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!(
        "# {} seed {seed}: commits  commits_per_s  sim_cycles_per_s",
        w.name
    );
    for (len, (commits, cycles)) in lengths.iter().zip(rates.iter_mut()) {
        println!("{len} {:.0} {:.0}", median(commits), median(cycles));
    }
    ExitCode::SUCCESS
}

fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The process's resident-set high-water mark, in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Host and build facts every result carries.
fn provenance(w: &Workload, seed: u64, runs: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {seed}, \"commits_per_run\": {}, \
         \"measured_runs\": {runs}, \"nproc\": {nproc}, \"rustc\": \"{}\", \"git_commit\": \"{}\"}}}}",
        w.name,
        w.commits,
        env!("PERFBENCH_RUSTC"),
        git_commit()
    )
}

/// The commit the benchmark was built from, when it sits in a git
/// checkout; `unknown` otherwise.
fn git_commit() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if !root.join(".git").exists() {
        return "unknown".to_owned();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

fn result_line(check: &Checker, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        check.failed == 0,
        check.attempted,
        check.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}
