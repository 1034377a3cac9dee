//! `repro` — regenerate the I-SPY paper's tables and figures.
//!
//! ```text
//! repro list                      # show available experiments
//! repro fig10                     # run one experiment at full scale
//! repro fig10 fig11 --quick       # several experiments, reduced scale
//! repro all --json out/           # everything, also writing JSON per figure
//! repro all --metrics out/        # everything, plus telemetry JSON per figure
//! repro all --cache               # memoize traces/profiles/plans on disk
//! repro all --jobs 8              # cap the worker pool at 8 threads
//! repro fig17 --apps wordpress    # run on a subset of the applications
//! repro explain wordpress --quick # why/what-did-it-buy audit per injection
//! repro record kafka -o k.itrace  # record an execution to an artifact
//! repro record kafka --events 100000000 -o k.itrace
//!                                 # recording streams; length is not RAM-bound
//! repro plan kafka -o k.iplan     # plan injections, save with provenance
//! repro replay k.itrace           # re-simulate a recorded artifact
//! repro replay k.itrace --stream  # same result, bounded memory
//! repro ingest perf.txt           # lift a perf-script LBR dump to .itrace
//! repro bench                     # quick engine bench vs committed history
//! repro bench --check             # same, failing on a >20% throughput drop
//! repro bench --append my_label   # same, then append the run to the history
//! repro adapt kafka --window 50000 # adaptive replanning with mid-run swaps
//! repro adapt kafka --check       # assert delta speedup + MPKI convergence
//! repro adapt kafka --drift       # same, over a mid-trace request-mix drift
//! repro scenario burst --quick    # multi-tenant scenario: per-phase/tenant stalls
//! repro fleet gen --machines 100  # synthesize a fleet of per-machine profiles
//! repro fleet ingest              # scan the fleet dir into per-app shards
//! repro fleet merge               # consensus-merge each app's profiles
//! repro fleet plan                # plan injections from each consensus
//! repro fleet serve kafka         # three-tier plan service (warm/replan/cold)
//! ```

use ispy_artifact::ArtifactError;
use ispy_harness::cache::{ArtifactCache, DEFAULT_CACHE_DIR};
use ispy_harness::enginebench::{self, BenchRun};
use ispy_harness::metrics::{self, TimingMode};
use ispy_harness::{explain, figures, Scale, Session};
use ispy_telemetry::Telemetry;
use ispy_trace::{apps, AppModel};
use std::ops::RangeBounds;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

/// What a subcommand returns: its failure message on error. Argument,
/// artifact and fleet errors all convert with `?`.
type Outcome = Result<(), Box<dyn std::error::Error>>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let outcome = match cmd.as_str() {
        "adapt" => run_adapt_cmd(rest),
        "bench" => run_bench(rest),
        "record" => run_record(rest),
        "plan" => run_plan(rest),
        "replay" => run_replay(rest),
        "ingest" => run_ingest(rest),
        "fleet" => run_fleet(rest),
        "scenario" => run_scenario_cmd(rest),
        _ => run_figures(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// How a flag takes its value.
#[derive(Clone, Copy, PartialEq)]
enum Takes {
    /// A bare switch: `--check`.
    Nothing,
    /// The next argument, whatever it is: `--jobs 4`.
    Next,
    /// Optionally attached with `=`: `--cache` or `--cache=DIR`.
    Attached,
}

/// A flag a subcommand accepts: its spellings (the first is canonical),
/// how it takes a value, and what that value must be (for error messages).
struct Flag {
    names: &'static [&'static str],
    takes: Takes,
    hint: &'static str,
}

const fn switch(names: &'static [&'static str]) -> Flag {
    Flag { names, takes: Takes::Nothing, hint: "" }
}

const fn value(names: &'static [&'static str], hint: &'static str) -> Flag {
    Flag { names, takes: Takes::Next, hint }
}

const QUICK: Flag = switch(&["--quick"]);
const TEST_SCALE: Flag = switch(&["--test-scale"]);
const JOBS: Flag = value(&["--jobs", "-j"], "a thread count >= 1");
const CACHE: Flag = Flag { names: &["--cache"], takes: Takes::Attached, hint: "a directory" };
const APPS: Flag = value(&["--apps"], "a comma-separated list of apps");

/// `repro <figures>` and `repro explain <app>`.
const FIGURE_FLAGS: &[Flag] = &[
    QUICK,
    TEST_SCALE,
    value(&["--json"], "a directory"),
    value(&["--metrics"], "a directory"),
    value(&["--top"], "a count >= 1"),
    JOBS,
    APPS,
    CACHE,
];
const BENCH_FLAGS: &[Flag] = &[
    switch(&["--full"]),
    switch(&["--check"]),
    value(&["--baseline"], "a JSON file path"),
    value(&["--append"], "a history label"),
];
const ADAPT_FLAGS: &[Flag] = &[
    QUICK,
    TEST_SCALE,
    switch(&["--check"]),
    switch(&["--drift"]),
    value(&["--window"], "an event count >= 1"),
    value(&["--epochs"], "a round count >= 1"),
    value(&["--json"], "a file path"),
];
const SCENARIO_FLAGS: &[Flag] = &[
    QUICK,
    TEST_SCALE,
    value(&["--events"], "an event count >= 1"),
    JOBS,
    value(&["--json"], "a file path"),
];
/// `repro record`, `repro plan` and `repro ingest`.
const ARTIFACT_FLAGS: &[Flag] = &[
    QUICK,
    TEST_SCALE,
    value(&["--events"], "an event count"),
    value(&["--out", "-o"], "a file path"),
];
const REPLAY_FLAGS: &[Flag] = &[value(&["--plan"], "a .iplan file"), switch(&["--stream"])];
const FLEET_FLAGS: &[Flag] = &[
    QUICK,
    TEST_SCALE,
    value(&["--dir"], "a directory"),
    value(&["--machines"], "a count >= 1"),
    value(&["--events"], "an event count >= 1"),
    APPS,
    value(&["--line-vote"], "a fraction in 0.0..=1.0"),
    value(&["--ctx-vote"], "a fraction in 0.0..=1.0"),
    CACHE,
    JOBS,
];

/// A parsed command line: the positional arguments, plus every flag
/// occurrence in command-line order (the getters let the last one win).
struct Args {
    positional: Vec<String>,
    flags: Vec<(&'static Flag, Option<String>)>,
}

/// Parses `args` against a subcommand's declared flags. Anything starting
/// with `-` must be one of them.
fn parse(spec: &'static [Flag], args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { positional: Vec::new(), flags: Vec::new() };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with('-') {
            parsed.positional.push(arg.clone());
            continue;
        }
        let (name, attached) = match arg.split_once('=') {
            Some((name, v)) => (name, Some(v)),
            None => (arg.as_str(), None),
        };
        let flag = spec
            .iter()
            .find(|f| f.names.contains(&name) && (attached.is_none() || f.takes == Takes::Attached))
            .ok_or_else(|| format!("unknown flag `{arg}`"))?;
        let value = match flag.takes {
            Takes::Nothing => None,
            Takes::Attached => attached.map(str::to_string),
            Takes::Next => {
                Some(it.next().ok_or_else(|| format!("{name} needs {}", flag.hint))?.clone())
            }
        };
        parsed.flags.push((flag, value));
    }
    Ok(parsed)
}

impl Args {
    /// Every occurrence of the flag whose canonical spelling is `name`.
    fn occurrences<'a>(
        &'a self,
        name: &'a str,
    ) -> impl Iterator<Item = (&'static Flag, Option<&'a str>)> + 'a {
        self.flags.iter().filter(move |(f, _)| f.names[0] == name).map(|(f, v)| (*f, v.as_deref()))
    }

    fn has(&self, name: &str) -> bool {
        self.occurrences(name).next().is_some()
    }

    /// The last value given for `name`.
    fn value<'a>(&'a self, name: &'a str) -> Option<&'a str> {
        self.occurrences(name).filter_map(|(_, v)| v).last()
    }

    fn path(&self, name: &str) -> Option<PathBuf> {
        self.value(name).map(PathBuf::from)
    }

    /// `--apps a,b,c` as a list of trimmed names.
    fn list(&self, name: &str) -> Option<Vec<String>> {
        self.value(name).map(|list| list.split(',').map(|s| s.trim().to_string()).collect())
    }

    /// The last of `--quick` / `--test-scale`, full scale without either.
    fn scale(&self) -> Scale {
        self.flags
            .iter()
            .rev()
            .find_map(|(f, _)| match f.names[0] {
                "--quick" => Some(Scale::quick()),
                "--test-scale" => Some(Scale::test()),
                _ => None,
            })
            .unwrap_or_else(Scale::full)
    }

    /// A numeric flag; every occurrence must parse and lie in `range`.
    fn number<T: FromStr + PartialOrd>(
        &self,
        name: &str,
        range: impl RangeBounds<T>,
    ) -> Result<Option<T>, String> {
        let mut out = None;
        for (flag, v) in self.occurrences(name) {
            match v.and_then(|v| v.parse::<T>().ok()) {
                Some(n) if range.contains(&n) => out = Some(n),
                _ => return Err(format!("{name} needs {}", flag.hint)),
            }
        }
        Ok(out)
    }

    /// Applies `--jobs N` to the worker pool.
    fn apply_jobs(&self) -> Result<(), String> {
        if let Some(n) = self.number("--jobs", 1..)? {
            ispy_parallel::set_threads(n);
        }
        Ok(())
    }

    /// `--cache` (the default directory) or `--cache=DIR`.
    fn cache(&self) -> Result<Option<PathBuf>, String> {
        let mut out = None;
        for (_, v) in self.occurrences("--cache") {
            out = Some(match v {
                None => PathBuf::from(DEFAULT_CACHE_DIR),
                Some("") => return Err("--cache=DIR needs a directory".into()),
                Some(dir) => PathBuf::from(dir),
            });
        }
        Ok(out)
    }

    /// The one positional argument, described as `what` if it is missing.
    fn single(&self, what: &str) -> Result<&str, String> {
        match self.positional.as_slice() {
            [one] => Ok(one),
            _ => Err(format!("expected exactly one {what}, got {}", self.positional.len())),
        }
    }

    /// The one positional argument, resolved as an app model.
    fn single_app(&self) -> Result<AppModel, String> {
        let one =
            self.single("app").map_err(|e| format!("{e}; known: {}", apps::NAMES.join(",")))?;
        app_model(one)
    }
}

fn app_model(name: &str) -> Result<AppModel, String> {
    apps::by_name(name)
        .ok_or_else(|| format!("unknown app `{name}`; known: {}", apps::NAMES.join(",")))
}

/// Resolves `--apps` names to models (all nine when absent).
fn resolve_models(names: Option<Vec<String>>) -> Result<Vec<AppModel>, String> {
    match names {
        None => Ok(apps::all()),
        Some(names) => names.iter().map(|name| app_model(name)).collect(),
    }
}

/// The experiments named on the command line, `all` expanded, each once in
/// the order first named.
fn figure_ids(positional: &[String]) -> Result<Vec<String>, String> {
    let mut ids: Vec<String> = Vec::new();
    for name in positional {
        let named = match name.as_str() {
            "all" => figures::all().into_iter().map(|s| s.id.to_string()).collect(),
            id if figures::by_id(id).is_some() => vec![id.to_string()],
            id => return Err(format!("unknown experiment `{id}`; try `repro list`")),
        };
        for id in named {
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
    }
    Ok(ids)
}

/// `repro <figures...>`, `repro list` and `repro explain <app>`.
fn run_figures(args: &[String]) -> Outcome {
    let args = parse(FIGURE_FLAGS, args)?;
    args.apply_jobs()?;
    let scale = args.scale();
    let top_n = args.number("--top", 1..)?.unwrap_or(10);
    let cache_dir = args.cache()?;
    if args.positional.iter().any(|p| p == "list") {
        for spec in figures::all() {
            println!("{:12} {}", spec.id, spec.about);
        }
        return Ok(());
    }
    if let Some(at) = args.positional.iter().position(|p| p == "explain") {
        let Some(app) = args.positional.get(at + 1) else {
            return Err(
                format!("explain needs an app name; known: {}", apps::NAMES.join(",")).into()
            );
        };
        return run_explain(app, scale, top_n);
    }
    let ids = figure_ids(&args.positional)?;
    let models = resolve_models(args.list("--apps"))?;
    let json_dir = args.path("--json");
    let metrics_dir = args.path("--metrics");

    eprintln!(
        "preparing {} applications (shrink={}, events={}, threads={}) ...",
        models.len(),
        scale.shrink,
        scale.events,
        ispy_parallel::threads(),
    );
    for dir in [&json_dir, &metrics_dir].into_iter().flatten() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let t0 = Instant::now();
    let session = match &cache_dir {
        Some(dir) => {
            eprintln!("artifact cache: {}", dir.display());
            Session::with_cache(scale, models, ArtifactCache::new(dir, scale))
        }
        None => Session::with_apps(scale, models),
    };
    eprintln!("prepared in {:.1?}", t0.elapsed());
    if let Some(dir) = &metrics_dir {
        // Preparation telemetry (profiling replays, CFG builds) accumulated
        // in the startup registry; harvest it before per-figure scoping.
        write_telemetry(dir, "prepare")?;
    }

    for id in &ids {
        let spec = figures::by_id(id).expect("validated above");
        if metrics_dir.is_some() {
            // A fresh registry per figure attributes planner/profiler work
            // to the experiment that triggered it. Session caches persist,
            // so a figure that only reads cached comparisons shows (almost)
            // empty counters — that, too, is information.
            ispy_telemetry::swap_global(Arc::new(Telemetry::new()));
        }
        let t = Instant::now();
        let table = (spec.run)(&session);
        let secs = t.elapsed().as_secs_f64();
        println!("{table}");
        eprintln!("[{id} took {secs:.1}s]\n");
        if let Some(dir) = &json_dir {
            write_file(&dir.join(format!("{id}.json")), table.to_json_with_runtime(Some(secs)))?;
        }
        if let Some(dir) = &metrics_dir {
            write_telemetry(dir, id)?;
        }
    }
    if let Some(dir) = &metrics_dir {
        write_file(&dir.join("outcomes.json"), metrics::outcome_summary(&session).to_pretty())?;
    }
    Ok(())
}

fn write_file(path: &Path, contents: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Writes the current global registry as `<dir>/<name>.telemetry.json`.
fn write_telemetry(dir: &Path, name: &str) -> Result<(), String> {
    let json = metrics::telemetry_summary(&ispy_telemetry::global(), TimingMode::Full);
    write_file(&dir.join(format!("{name}.telemetry.json")), json.to_pretty())
}

/// `repro explain <app>`: prepare just that app and print the markdown
/// provenance/outcome audit of its top-N injections.
fn run_explain(app: &str, scale: Scale, top_n: usize) -> Outcome {
    let model = app_model(app)?;
    eprintln!(
        "preparing {app} (shrink={}, events={}, threads={}) ...",
        scale.shrink,
        scale.events,
        ispy_parallel::threads(),
    );
    let t0 = Instant::now();
    let session = Session::with_apps(scale, vec![model]);
    let report = explain(&session, app, top_n)?;
    eprintln!("prepared and analysed in {:.1?}\n", t0.elapsed());
    println!("{report}");
    Ok(())
}

/// Throughput rows the `--check` floor gate watches: the tentpole metrics.
/// The remaining rows are printed for context but a dip there never fails
/// the gate (baseline/hw throughput is not what this PR series optimizes).
/// `replan_delta` only gates against history entries that carry the row —
/// older entries predate it and show "(no committed reference)".
const GATED_ROWS: [&str; 5] =
    ["injected", "injected_replay", "stream_replay", "replan_delta", "scenario_replay"];

/// A measured row may drop this fraction below the committed value before
/// `--check` fails. Wide enough to absorb shared-runner noise on a
/// best-of-reps measurement, narrow enough to catch a real fast-path
/// regression (the rework's wins were 2–6x).
const FLOOR_FRACTION: f64 = 0.20;

/// `repro bench`: run the engine throughput benchmark (quick sizing by
/// default) and print each row's blocks/sec next to the *latest*
/// matching-sizing entry of the ordered measurement history committed in
/// `BENCH_engine.json`, so a regression is visible without reading JSON.
/// `--check` turns a >20% drop on the injected rows into a failing exit
/// code — the CI throughput-floor gate. `--append LABEL` then appends the
/// run to the `--baseline` file's history.
fn run_bench(args: &[String]) -> Outcome {
    let args = parse(BENCH_FLAGS, args)?;
    if let Some(extra) = args.positional.first() {
        return Err(format!("unknown bench argument `{extra}`").into());
    }
    let quick = !args.has("--full");
    let sizing = if quick { "quick" } else { "full" };
    eprintln!("measuring engine throughput ({sizing} sizing) ...");
    let bench = enginebench::run_engine_bench(quick);
    println!(
        "engine bench: {} / {} events / best of {} reps (first rep discarded)",
        bench.app, bench.events, bench.reps
    );
    let baseline = args.path("--baseline").unwrap_or_else(|| PathBuf::from("BENCH_engine.json"));
    judge_bench(&bench, &baseline, args.has("--check"), args.value("--append"))
}

/// Compares a measured run with the latest matching-sizing entry in
/// `baseline`, applies the `--check` floor when `check` is set, and only
/// then appends the run under `append` — a failing check appends nothing.
fn judge_bench(bench: &BenchRun, baseline: &Path, check: bool, append: Option<&str>) -> Outcome {
    let sizing = if bench.quick { "quick" } else { "full" };
    let doc = match enginebench::load_history(baseline) {
        Ok(doc) => Some(doc),
        Err(e) => {
            eprintln!("note: {e}");
            None
        }
    };
    let committed = doc.as_ref().and_then(|d| enginebench::latest_entry(d, bench.quick));
    // Name the entry every comparison below is against, so a breach report
    // says exactly which committed measurement it was judged by.
    let reference_name = committed
        .map(|entry| {
            let label = entry.get("label").and_then(|l| l.as_str()).unwrap_or("?");
            format!("`{label}` ({sizing} sizing)")
        })
        .unwrap_or_else(|| "(none)".to_string());
    if committed.is_some() {
        println!("committed reference: {reference_name} in {}", baseline.display());
    }

    let mut floor_breaches = Vec::new();
    for row in &bench.rows {
        let rss = match row.peak_rss_bytes {
            Some(_) => {
                format!("   peak RSS {}", ispy_harness::rss::format_bytes(row.peak_rss_bytes))
            }
            None => String::new(),
        };
        let reference = committed.and_then(|e| enginebench::entry_row(e, row.name));
        match reference {
            Some(reference) if reference > 0.0 => {
                let delta = (row.blocks_per_sec - reference) / reference * 100.0;
                println!(
                    "  {:<16} {:>12.0} {}   committed {:>12.0}   {:>+7.1}%{rss}",
                    row.name,
                    row.blocks_per_sec,
                    row.unit(),
                    reference,
                    delta
                );
                if GATED_ROWS.contains(&row.name) && delta < -100.0 * FLOOR_FRACTION {
                    floor_breaches.push(format!(
                        "throughput floor breached: {}: {:.0} {} is {:.1}% below committed {:.0} \
                         from {reference_name}",
                        row.name,
                        row.blocks_per_sec,
                        row.unit(),
                        -delta,
                        reference
                    ));
                }
            }
            _ => println!(
                "  {:<16} {:>12.0} {}   (no committed reference){rss}",
                row.name,
                row.blocks_per_sec,
                row.unit()
            ),
        }
    }

    if check {
        if committed.is_none() {
            return Err(format!(
                "--check needs a committed {sizing}-sizing entry in {}",
                baseline.display()
            )
            .into());
        }
        if !floor_breaches.is_empty() {
            return Err(floor_breaches.join("\n").into());
        }
        println!(
            "throughput floor ok: gated rows within {:.0}% of {reference_name} values",
            100.0 * FLOOR_FRACTION
        );
    }
    if let Some(label) = append {
        enginebench::append_history(baseline, enginebench::history_entry(bench, label))?;
        eprintln!("appended `{label}` to {}", baseline.display());
    }
    Ok(())
}

/// Delta replans must beat a from-scratch plan by at least this factor for
/// `adapt --check` to pass — the incremental-replanning headline claim.
const ADAPT_MIN_SPEEDUP: f64 = 10.0;

/// `adapt --check` allows the converged (last) window's MPKI to exceed the
/// offline-oracle plan's by at most this fraction.
const ADAPT_MAX_GAP: f64 = 0.02;

/// `repro adapt <app>`: the adaptive-replanning experiment — replay the
/// app's trace for `--epochs` rounds while profiling window `k` as it
/// simulates and hot-swapping the replanned injections in at window `k+1`,
/// then report per-window adaptation latency and MPKI convergence against
/// the offline-oracle plan, plus the full-vs-delta replan microbenchmark.
/// `--check` turns the headline claims into a failing exit code: delta
/// replans ≥10x faster than from-scratch and byte-identical, and the
/// converged window within 2% of the oracle's MPKI.
fn run_adapt_cmd(args: &[String]) -> Outcome {
    let args = parse(ADAPT_FLAGS, args)?;
    let scale = args.scale();
    let window = args.number("--window", 1..)?;
    let epochs = args.number("--epochs", 1..)?.unwrap_or(2);
    let (check, drift) = (args.has("--check"), args.has("--drift"));
    let model = args.single_app()?;
    let app = model.name();
    // 5 adaptation windows per epoch by default, at any scale.
    let window = window.unwrap_or((scale.events / 5).max(1));

    eprintln!(
        "adaptive replanning: {app}{} / {} events x {epochs} epochs / window {window} ...",
        if drift { " (phase-schedule drift)" } else { "" },
        scale.events
    );
    let t0 = Instant::now();
    let outcome = if drift {
        ispy_harness::adapt::run_adapt_drift(model, scale, window, epochs, 3)
    } else {
        ispy_harness::adapt::run_adapt(model, scale, window, epochs, 3)
    };
    for (k, w) in outcome.windows.iter().enumerate() {
        let replan = if w.replan_ms > 0.0 {
            format!("replan {:>7.1} ms", w.replan_ms)
        } else {
            "plan frozen".to_string()
        };
        println!(
            "  w{k:<3} adaptive {:>7.3} MPKI   oracle {:>7.3} MPKI   {replan}",
            w.adaptive_mpki, w.oracle_mpki
        );
    }
    println!(
        "swaps: {}   converged-window gap vs oracle: {:+.1}%   ({:.1}s)",
        outcome.swaps,
        100.0 * outcome.converged_gap(),
        t0.elapsed().as_secs_f64()
    );
    println!(
        "replan microbench ({} of {} samples = {:.2}% delta):",
        outcome.delta_samples,
        outcome.total_samples,
        100.0 * outcome.delta_samples as f64 / outcome.total_samples.max(1) as f64
    );
    println!(
        "  full {:.1} ms   delta {:.2} ms   speedup {:.1}x   plans identical: {}",
        outcome.replan_full_ms,
        outcome.replan_delta_ms,
        outcome.replan_speedup(),
        if outcome.plans_identical { "yes" } else { "NO" }
    );
    if let Some(path) = args.path("--json") {
        std::fs::write(&path, outcome.to_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }

    if check {
        if !outcome.plans_identical {
            return Err(
                "adapt check failed: delta replan diverged from the from-scratch plan".into()
            );
        }
        if outcome.replan_speedup() < ADAPT_MIN_SPEEDUP {
            return Err(format!(
                "adapt check failed: delta replan speedup {:.1}x is below {ADAPT_MIN_SPEEDUP}x \
                 (full {:.1} ms, delta {:.2} ms)",
                outcome.replan_speedup(),
                outcome.replan_full_ms,
                outcome.replan_delta_ms
            )
            .into());
        }
        let gap = outcome.converged_gap();
        if gap > ADAPT_MAX_GAP {
            return Err(format!(
                "adapt check failed: converged-window MPKI is {:.1}% above the oracle plan \
                 (limit {:.0}%)",
                100.0 * gap,
                100.0 * ADAPT_MAX_GAP
            )
            .into());
        }
        println!(
            "adapt check ok: plans identical, speedup {:.1}x >= {ADAPT_MIN_SPEEDUP}x, \
             converged gap {:+.1}% within {:.0}%",
            outcome.replan_speedup(),
            100.0 * gap,
            100.0 * ADAPT_MAX_GAP
        );
    }
    Ok(())
}

/// `repro scenario <spec>`: replay a production-shaped scenario (bursty
/// arrivals, phase transitions, multi-tenant L1I interference) under the
/// baseline/ideal/AsmDB/I-SPY plans and print the per-phase, per-tenant
/// front-end stall and MPKI table (see `docs/SCENARIOS.md`).
fn run_scenario_cmd(args: &[String]) -> Outcome {
    let presets = ispy_scenario::Scenario::PRESETS.join(",");
    let args = parse(SCENARIO_FLAGS, args)?;
    args.apply_jobs()?;
    let scale = args.scale();
    let events = args.number("--events", 1..)?.unwrap_or(scale.events as u64);
    let name = args.single("scenario spec").map_err(|e| format!("{e}; known: {presets}"))?;
    let Some(spec) = ispy_scenario::Scenario::preset(name) else {
        return Err(format!("unknown scenario `{name}`; known: {presets}").into());
    };
    let spec = spec.scaled_down(scale.shrink);

    eprintln!(
        "scenario {name}: {} tenants / {} phases / {events} events / threads {} ...",
        spec.tenants.len(),
        spec.phases.len(),
        ispy_parallel::threads(),
    );
    let t0 = Instant::now();
    let outcome = ispy_harness::run_scenario(&spec, events);
    eprintln!("replayed in {:.1?}\n", t0.elapsed());

    println!(
        "scenario {}: {} events, {} switches   (MPKI and p99 front-end stall, cycles vs ideal)",
        outcome.scenario, outcome.events, outcome.switches
    );
    println!(
        "{:<12} {:<16} {:>9} {:>8} {:>8} {:>8} {:>9} {:>9} {:>9}",
        "phase", "tenant", "events", "base", "asmdb", "i-spy", "p99 base", "asmdb", "i-spy"
    );
    for r in &outcome.rows {
        println!(
            "{:<12} {:<16} {:>9} {:>8.3} {:>8.3} {:>8.3} {:>9} {:>9} {:>9}",
            r.phase,
            r.tenant,
            r.events,
            r.base_mpki,
            r.asmdb_mpki,
            r.ispy_mpki,
            r.base_p99,
            r.asmdb_p99,
            r.ispy_p99
        );
    }
    println!();
    for t in &outcome.tenant_reports {
        println!(
            "{:<12} {:<16} {:>9} {:>8.3} {:>8.3} {:>8.3} {:>9} {:>9} {:>9}   \
             {} injections, {} fired, {} useful",
            "total",
            t.tenant,
            t.events,
            t.base_mpki,
            t.asmdb_mpki,
            t.ispy_mpki,
            t.base_p99,
            t.asmdb_p99,
            t.ispy_p99,
            t.injections,
            t.outcome.fired,
            t.outcome.useful
        );
    }
    println!(
        "\nspeedup over baseline: ideal {:.3}x   asmdb {:.3}x   i-spy {:.3}x   \
         (i-spy at {:.1}% of ideal)",
        outcome.ideal_total.speedup_over(&outcome.base_total),
        outcome.asmdb_total.speedup_over(&outcome.base_total),
        outcome.ispy_total.speedup_over(&outcome.base_total),
        100.0 * outcome.ispy_total.fraction_of_ideal(&outcome.base_total, &outcome.ideal_total),
    );

    if let Some(path) = args.path("--json") {
        std::fs::write(&path, outcome.to_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

fn usage() {
    eprintln!("usage: repro <list|all|fig01|fig03|...|fig21|table1|walkthrough>");
    eprintln!("             [--quick | --test-scale] [--json DIR] [--metrics DIR]");
    eprintln!("             [--cache[=DIR]] [--jobs N] [--apps a,b,c]");
    eprintln!("       repro explain <app> [--quick | --test-scale] [--top N] [--jobs N]");
    eprintln!("       repro record <app> [--quick | --test-scale] [--events N]");
    eprintln!("                   [-o FILE.itrace]");
    eprintln!("       repro plan <app> [--quick | --test-scale] [-o FILE.iplan]");
    eprintln!("       repro replay <FILE.itrace> [--plan FILE.iplan] [--stream]");
    eprintln!("       repro ingest <perf-script.txt> [-o FILE.itrace]");
    eprintln!("       repro bench [--full] [--check] [--baseline BENCH_engine.json]");
    eprintln!("                   [--append LABEL]");
    eprintln!("       repro adapt <app> [--quick | --test-scale] [--window N] [--epochs N]");
    eprintln!("                   [--check] [--drift] [--json FILE.adapt.json]");
    eprintln!("       repro scenario <steady|diurnal|burst|storm> [--quick | --test-scale]");
    eprintln!("                   [--events N] [--jobs N] [--json FILE.json]");
    eprintln!("       repro fleet gen [--machines N] [--apps a,b,c] [--events N] [--dir DIR]");
    eprintln!("       repro fleet ingest|merge|plan [--dir DIR] [--line-vote F] [--ctx-vote F]");
    eprintln!("       repro fleet serve <app>... [--dir DIR] [--cache[=DIR]]");
    eprintln!("       (--cache defaults to {DEFAULT_CACHE_DIR}/, --dir to {DEFAULT_FLEET_DIR}/)");
}

/// `repro record <app>`: record an execution and store it as `.itrace`.
///
/// The trace never exists in memory: the generator feeds a
/// [`RecordingWriter`](ispy_trace::artifact::RecordingWriter) chunk by
/// chunk, so `--events` can exceed RAM (the 100M-block CI gate records this
/// way).
fn run_record(args: &[String]) -> Outcome {
    use ispy_trace::BlockSource;
    let args = parse(ARTIFACT_FLAGS, args)?;
    let scale = args.scale();
    let events = args.number("--events", 0..)?.unwrap_or(scale.events as u64);
    let model = args.single_app()?.scaled_down(scale.shrink);
    let app = model.name();
    let program = model.generate();
    let path = args.path("--out").unwrap_or_else(|| PathBuf::from(format!("{app}.itrace")));
    let walker = ispy_trace::Walker::new(&program, model.default_input());
    let mut source = ispy_trace::WalkerSource::new(walker, events);
    let mut writer =
        ispy_trace::artifact::RecordingWriter::create(&path, &program, program.name())?;
    while let Some(chunk) = source.next_chunk()? {
        writer.push(chunk)?;
    }
    let written = writer.events_written();
    writer.finish()?;
    eprintln!(
        "recorded {app}: {} blocks, {written} events -> {}",
        program.num_blocks(),
        path.display()
    );
    Ok(())
}

/// `repro plan <app>`: profile, plan I-SPY injections, store as `.iplan`.
fn run_plan(args: &[String]) -> Outcome {
    let args = parse(ARTIFACT_FLAGS, args)?;
    // `--events` does not apply here, but a malformed count is still an error.
    args.number::<u64>("--events", 0..)?;
    let model = args.single_app()?;
    let app = model.name();
    let ctx = ispy_harness::session::AppContext::prepare(model, args.scale());
    let plan = ispy_core::Planner::new(
        &ctx.program,
        &ctx.trace,
        &ctx.profile,
        ispy_core::IspyConfig::default(),
    )
    .plan();
    let path = args.path("--out").unwrap_or_else(|| PathBuf::from(format!("{app}.iplan")));
    ispy_core::artifact::write_plan(app, &plan, &path)?;
    eprintln!(
        "planned {app}: {} ops at {} sites ({} bytes injected) -> {}",
        plan.stats.ops_total(),
        plan.stats.sites,
        plan.stats.injected_bytes,
        path.display()
    );
    Ok(())
}

/// `repro replay <file.itrace> [--plan file.iplan] [--stream]`: re-simulate
/// a recorded artifact and print the canonical metric lines. `--stream`
/// replays in bounded memory (the file's events are decoded chunk by chunk,
/// never materialized) and prints byte-identical output.
fn run_replay(args: &[String]) -> Outcome {
    let args = parse(REPLAY_FLAGS, args)?;
    let path = Path::new(args.single(".itrace file")?);
    let plan = match args.path("--plan") {
        Some(p) => Some(ispy_core::artifact::read_plan(&p)?),
        None => None,
    };
    let cfg = ispy_sim::SimConfig::default();
    let opts = ispy_sim::RunOptions {
        injections: plan.as_ref().map(|(_, p)| &p.injections),
        ..Default::default()
    };
    let (name, result) = if args.has("--stream") {
        let file = std::fs::File::open(path).map_err(|e| ArtifactError::io(path, e))?;
        let out = ispy_sim::replay_stream(std::io::BufReader::new(file), &cfg, opts)?;
        (out.name, out.result)
    } else {
        let (program, trace) = ispy_trace::artifact::read_recording(path)?;
        (program.name().to_string(), ispy_sim::run(&program, &trace, &cfg, opts))
    };
    if let Some((label, _)) = &plan {
        if label != &name {
            eprintln!("warning: plan was built for `{label}`, replaying `{name}`");
        }
    }
    print!("{}", metrics::result_lines(&name, &result));
    Ok(())
}

/// The default fleet directory (`repro fleet` with no `--dir`).
const DEFAULT_FLEET_DIR: &str = ".ispy-fleet";

/// Flags shared by the `repro fleet` subcommands.
struct FleetArgs {
    positional: Vec<String>,
    dir: PathBuf,
    scale: Scale,
    machines: usize,
    events: Option<usize>,
    apps: Option<Vec<String>>,
    cache_dir: PathBuf,
    fleet_cfg: ispy_fleet::FleetConfig,
}

/// `repro fleet <gen|ingest|merge|plan|serve>`: the fleet-scale plan
/// pipeline (see `docs/FLEET.md`).
///
/// * `gen` synthesizes a fleet: per app, one representative `.itrace` plus
///   `--machines` per-machine `.iprof` profiles over drifted input variants.
/// * `ingest` scans a fleet directory into the canonical manifest and
///   prints the per-app shard summary.
/// * `merge` folds every app's members into a consensus `.iprof`
///   (`<app>-consensus.iprof`) under the vote thresholds.
/// * `plan` plans injections from each consensus profile against the app's
///   representative recording (`<app>-consensus.iplan`).
/// * `serve <app>...` answers plan requests through the three-tier path
///   (warm cache → replan from aggregate → cold) and prints the per-tier
///   telemetry counters.
fn run_fleet(args: &[String]) -> Outcome {
    let args = parse(FLEET_FLAGS, args)?;
    args.apply_jobs()?;
    let mut fleet_cfg = ispy_fleet::FleetConfig::default();
    if let Some(v) = args.number("--line-vote", 0.0..=1.0)? {
        fleet_cfg.line_vote = v;
    }
    if let Some(v) = args.number("--ctx-vote", 0.0..=1.0)? {
        fleet_cfg.ctx_vote = v;
    }
    let Some((cmd, positional)) = args.positional.split_first() else {
        return Err(
            "fleet needs a subcommand: gen|ingest|merge|plan|serve (see `repro` usage)".into()
        );
    };
    let parsed = FleetArgs {
        positional: positional.to_vec(),
        dir: args.path("--dir").unwrap_or_else(|| PathBuf::from(DEFAULT_FLEET_DIR)),
        scale: args.scale(),
        machines: args.number("--machines", 1..)?.unwrap_or(9),
        events: args.number("--events", 1..)?,
        apps: args.list("--apps"),
        cache_dir: args.cache()?.unwrap_or_else(|| PathBuf::from(DEFAULT_CACHE_DIR)),
        fleet_cfg,
    };
    match cmd.as_str() {
        "gen" => fleet_gen(parsed),
        "ingest" => fleet_ingest(parsed),
        "merge" => fleet_merge(parsed),
        "plan" => fleet_plan(parsed),
        "serve" => fleet_serve(parsed),
        other => {
            Err(format!("unknown fleet subcommand `{other}`; try gen|ingest|merge|plan|serve")
                .into())
        }
    }
}

/// `repro fleet gen`: synthesize a fleet of per-machine profile artifacts.
/// Machine `m` profiles input variant `m % 5` (the Fig. 16 drift variants)
/// with a small deterministic trace-length spread, so the fleet covers
/// several inputs of the same binary — the setting the consensus merge is
/// for.
fn fleet_gen(parsed: FleetArgs) -> Outcome {
    use ispy_profile::{profile, SampleRate};
    let models = resolve_models(parsed.apps)?;
    std::fs::create_dir_all(&parsed.dir)
        .map_err(|e| format!("cannot create {}: {e}", parsed.dir.display()))?;
    let events = parsed.events.unwrap_or(parsed.scale.events);
    let t0 = Instant::now();
    let prepared: Vec<(AppModel, ispy_trace::Program)> = ispy_parallel::par_map_vec(models, |m| {
        let m = m.scaled_down(parsed.scale.shrink);
        let p = m.generate();
        (m, p)
    });
    // One representative recording per app, then the machine grid.
    let traces: Vec<Result<(), ArtifactError>> = ispy_parallel::par_collect(prepared.len(), |i| {
        let (model, program) = &prepared[i];
        let trace = program.record_trace(model.default_input(), events);
        let path = parsed.dir.join(format!("{}.itrace", model.name()));
        ispy_trace::artifact::write_recording(program, &trace, &path)
    });
    let napps = prepared.len();
    let machines = parsed.machines;
    let profiles: Vec<Result<(), ArtifactError>> =
        ispy_parallel::par_collect(napps * machines, |j| {
            let (model, program) = &prepared[j / machines];
            let m = j % machines;
            // Drift across machines: rotate through the five fig16 input
            // variants and spread trace lengths a little so same-variant
            // machines still measure distinct executions.
            let len = events + 61 * (m / 5);
            let trace = program.record_trace(model.input_variant(m % 5), len);
            let prof = profile(program, &trace, &ispy_sim::SimConfig::default(), SampleRate::EXACT);
            let path = parsed.dir.join(format!("{}-m{m:04}.iprof", model.name()));
            ispy_profile::artifact::write_profile(model.name(), &prof, &path)
        });
    traces.into_iter().chain(profiles).collect::<Result<(), _>>()?;
    eprintln!(
        "fleet gen: {napps} apps x {machines} machines -> {} profiles + {napps} traces in {} \
         ({:.1?})",
        napps * machines,
        parsed.dir.display(),
        t0.elapsed(),
    );
    Ok(())
}

fn scan_fleet(dir: &Path) -> Result<ispy_fleet::FleetManifest, String> {
    ispy_fleet::FleetManifest::scan(dir).map_err(|e| format!("cannot scan {}: {e}", dir.display()))
}

/// `repro fleet ingest`: scan the fleet directory, print per-app shards.
fn fleet_ingest(parsed: FleetArgs) -> Outcome {
    let manifest = scan_fleet(&parsed.dir)?;
    println!("fleet dir: {}", parsed.dir.display());
    let apps = manifest.apps();
    for app in &apps {
        let members = manifest.profiles_for(app);
        let distinct: std::collections::BTreeSet<_> = members.iter().map(|p| p.digest).collect();
        let trace = manifest
            .canonical_trace(app)
            .map_or("none".to_string(), |t| t.path.display().to_string());
        println!(
            "  {app:<16} {:>5} profiles ({} distinct)   trace: {trace}",
            members.len(),
            distinct.len(),
        );
    }
    println!(
        "total: {} profiles, {} traces, {} apps",
        manifest.profiles.len(),
        manifest.traces.len(),
        apps.len()
    );
    Ok(())
}

/// `repro fleet merge`: consensus-merge every app's members.
fn fleet_merge(parsed: FleetArgs) -> Outcome {
    let manifest = scan_fleet(&parsed.dir)?;
    let t0 = Instant::now();
    let merged = ispy_fleet::merge_all(&manifest, parsed.fleet_cfg)?;
    if merged.is_empty() {
        return Err(format!("no profile artifacts in {}", parsed.dir.display()).into());
    }
    for (app, profile, stats) in &merged {
        let path = ispy_fleet::store::consensus_profile_path(&parsed.dir, app);
        ispy_profile::artifact::write_profile(app, profile, &path)?;
        println!(
            "merged {app}: {} members, {}/{} lines kept, {} predictors dropped, {} misses -> {}",
            stats.members,
            stats.lines_kept,
            stats.lines_seen,
            stats.predictors_dropped,
            stats.total_misses,
            path.display(),
        );
    }
    eprintln!("merged {} apps in {:.1?}", merged.len(), t0.elapsed());
    Ok(())
}

/// `repro fleet plan`: plan from each consensus profile.
fn fleet_plan(parsed: FleetArgs) -> Outcome {
    let manifest = scan_fleet(&parsed.dir)?;
    let apps = parsed.apps.unwrap_or_else(|| manifest.apps());
    let mut planned = 0usize;
    for app in &apps {
        let consensus_path = ispy_fleet::store::consensus_profile_path(&parsed.dir, app);
        if !consensus_path.exists() {
            eprintln!("note: no consensus profile for `{app}` (run `repro fleet merge` first)");
            continue;
        }
        let Some(trace_entry) = manifest.canonical_trace(app) else {
            eprintln!("note: no representative .itrace for `{app}`; cannot plan");
            continue;
        };
        let (_label, consensus) = ispy_profile::artifact::read_profile(&consensus_path)?;
        let (program, trace) = ispy_trace::artifact::read_recording(&trace_entry.path)?;
        let baseline = ispy_core::PlannerBaseline::new();
        let plan = ispy_fleet::plan_consensus(
            &program,
            &trace,
            &consensus,
            ispy_core::IspyConfig::default(),
            &baseline,
        );
        let path = ispy_fleet::store::consensus_plan_path(&parsed.dir, app);
        ispy_core::artifact::write_plan(app, &plan, &path)?;
        println!(
            "planned {app} from consensus: {} ops at {} sites -> {}",
            plan.stats.ops_total(),
            plan.stats.sites,
            path.display(),
        );
        planned += 1;
    }
    if planned == 0 {
        return Err("nothing planned: no consensus artifacts found".into());
    }
    Ok(())
}

/// `repro fleet serve <app>...`: the three-tier plan service.
fn fleet_serve(parsed: FleetArgs) -> Outcome {
    if parsed.positional.is_empty() {
        return Err(
            format!("serve needs at least one app name; known: {}", apps::NAMES.join(",")).into()
        );
    }
    let service = ispy_harness::fleet::PlanService::with_config(
        &parsed.dir,
        &parsed.cache_dir,
        parsed.scale,
        parsed.fleet_cfg,
    );
    for app in &parsed.positional {
        let outcome = service.serve(app)?;
        println!(
            "served {app} via {}: {} ops at {} sites",
            outcome.tier.name(),
            outcome.plan.stats.ops_total(),
            outcome.plan.stats.sites,
        );
    }
    let tele = ispy_telemetry::global();
    println!("serve tiers:");
    for tier in ["warm", "replan", "cold"] {
        let name = format!("fleet.serve.{tier}");
        let hits = tele.counter(&name);
        let ms = tele.spans().get(&name).map_or(0.0, |s| s.total_ms());
        println!("  {name:<18} hits={hits}   {ms:.1} ms");
    }
    Ok(())
}

/// `repro ingest <perf.txt>`: lift a perf-script LBR dump into `.itrace`.
fn run_ingest(args: &[String]) -> Outcome {
    let args = parse(ARTIFACT_FLAGS, args)?;
    // `--events` does not apply here, but a malformed count is still an error.
    args.number::<u64>("--events", 0..)?;
    let input = args.single("perf-script text file")?;
    let text = std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let (program, trace) = ispy_trace::ingest::parse_perf_script(&text)?;
    let path = args.path("--out").unwrap_or_else(|| PathBuf::from(input).with_extension("itrace"));
    ispy_trace::artifact::write_recording(&program, &trace, &path)?;
    eprintln!(
        "ingested {input}: {} blocks, {} events -> {}",
        program.num_blocks(),
        trace.len(),
        path.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispy_harness::enginebench::BenchRow;
    use ispy_harness::json::Json;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    type Command = fn(&[String]) -> Outcome;

    /// Every subcommand entry point, with the positional arguments it needs
    /// to get past argument checks.
    const COMMANDS: [(Command, &str); 10] = [
        (run_figures, "fig10"),
        (run_figures, "explain kafka"),
        (run_bench, ""),
        (run_adapt_cmd, "kafka"),
        (run_scenario_cmd, "burst"),
        (run_record, "kafka"),
        (run_plan, "kafka"),
        (run_replay, "kafka.itrace"),
        (run_ingest, "perf.txt"),
        (run_fleet, "gen"),
    ];

    #[test]
    fn every_subcommand_rejects_an_unknown_flag() {
        for (cmd, positional) in COMMANDS {
            for flag in ["--bogus", "-x", "--check=1", "--events=5"] {
                let err = cmd(&argv(&format!("{positional} {flag}"))).unwrap_err();
                assert_eq!(
                    err.to_string(),
                    format!("unknown flag `{flag}`"),
                    "`{positional} {flag}`"
                );
            }
        }
        // Only `replay` streams on request; the artifact writers have one path.
        let artifact_cmds: [(Command, &str); 3] =
            [(run_record, "kafka"), (run_plan, "kafka"), (run_ingest, "perf.txt")];
        for (cmd, positional) in artifact_cmds {
            let err = cmd(&argv(&format!("{positional} --stream"))).unwrap_err();
            assert_eq!(err.to_string(), "unknown flag `--stream`", "`{positional} --stream`");
        }
    }

    #[test]
    fn values_below_their_minimum_are_rejected() {
        let cases: [(Command, &str, &str); 14] = [
            (run_figures, "fig10 --jobs 0", "--jobs needs a thread count >= 1"),
            (run_figures, "fig10 -j x", "--jobs needs a thread count >= 1"),
            (run_figures, "fig10 --top 0", "--top needs a count >= 1"),
            (run_figures, "fig10 --cache=", "--cache=DIR needs a directory"),
            (run_figures, "fig10 --json", "--json needs a directory"),
            (run_scenario_cmd, "burst --jobs 0", "--jobs needs a thread count >= 1"),
            (run_scenario_cmd, "burst --events 0", "--events needs an event count >= 1"),
            (run_adapt_cmd, "kafka --window 0", "--window needs an event count >= 1"),
            (run_adapt_cmd, "kafka --epochs 0", "--epochs needs a round count >= 1"),
            (run_fleet, "gen --jobs 0", "--jobs needs a thread count >= 1"),
            (run_fleet, "gen --events 0", "--events needs an event count >= 1"),
            (run_fleet, "gen --machines 0", "--machines needs a count >= 1"),
            (run_fleet, "gen --cache=", "--cache=DIR needs a directory"),
            (run_fleet, "gen --line-vote 1.5", "--line-vote needs a fraction in 0.0..=1.0"),
        ];
        for (cmd, line, msg) in cases {
            assert_eq!(cmd(&argv(line)).unwrap_err().to_string(), msg, "`{line}`");
        }
        // `record --events` has no minimum: zero events is a valid recording.
        let args = parse(ARTIFACT_FLAGS, &argv("kafka --events 0")).unwrap();
        assert_eq!(args.number::<u64>("--events", 0..), Ok(Some(0)));
    }

    #[test]
    fn getters_let_the_last_occurrence_win() {
        let args =
            parse(FIGURE_FLAGS, &argv("fig10 --quick --cache --test-scale --cache=d --top 3"))
                .unwrap();
        assert_eq!(args.scale(), Scale::test());
        assert_eq!(args.cache(), Ok(Some(PathBuf::from("d"))));
        assert_eq!(args.number("--top", 1..), Ok(Some(3usize)));
        assert_eq!(args.positional, ["fig10"]);
        let line = ["--cache", "--apps", "kafka, tomcat"].map(String::from);
        let args = parse(FIGURE_FLAGS, &line).unwrap();
        assert_eq!(args.cache(), Ok(Some(PathBuf::from(DEFAULT_CACHE_DIR))));
        assert_eq!(args.list("--apps"), Some(argv("kafka tomcat")));
        let args = parse(ARTIFACT_FLAGS, &argv("--out a -o b")).unwrap();
        assert_eq!(args.path("--out"), Some(PathBuf::from("b")));
        assert_eq!(parse(ARTIFACT_FLAGS, &argv("kafka")).unwrap().scale(), Scale::full());
    }

    #[test]
    fn figure_ids_keep_the_first_occurrence_in_order() {
        let registry: Vec<String> = figures::all().iter().map(|s| s.id.to_string()).collect();
        assert_eq!(figure_ids(&argv("all fig10")).unwrap(), registry);
        assert_eq!(figure_ids(&argv("fig10 all")).unwrap()[0], "fig10");
        assert_eq!(figure_ids(&argv("all fig10")).unwrap().len(), registry.len());
        assert_eq!(figure_ids(&argv("fig11 fig10 fig11")).unwrap(), ["fig11", "fig10"]);
        assert!(figure_ids(&argv("fig10 nope")).unwrap_err().contains("unknown experiment `nope`"));
    }

    /// A temp copy of the committed history, unique per process.
    fn history_copy(tag: &str) -> PathBuf {
        let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json");
        let dir =
            std::env::temp_dir().join(format!("ispy-repro-bench-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        std::fs::copy(committed, &path).unwrap();
        path
    }

    /// A quick-sizing run measuring `factor` times the latest committed
    /// quick entry on every row.
    fn run_at(path: &Path, factor: f64) -> BenchRun {
        const ROWS: [&str; 9] = [
            "baseline",
            "injected",
            "injected_replay",
            "injected_ledger",
            "hw_prefetcher",
            "stream_replay",
            "scenario_replay",
            "replan_full",
            "replan_delta",
        ];
        let doc = enginebench::load_history(path).unwrap();
        let entry = enginebench::latest_entry(&doc, true).unwrap();
        let rows = ROWS
            .iter()
            .map(|&name| BenchRow {
                name,
                blocks_per_sec: factor * enginebench::entry_row(entry, name).unwrap(),
                peak_rss_bytes: None,
            })
            .collect();
        BenchRun { app: "cassandra".to_string(), events: 50_000, reps: 3, quick: true, rows }
    }

    fn history(path: &Path) -> Vec<Json> {
        let doc = enginebench::load_history(path).unwrap();
        doc.get("history").and_then(Json::as_arr).unwrap().to_vec()
    }

    #[test]
    fn append_grows_the_history_by_exactly_one_entry() {
        let path = history_copy("append");
        let before = history(&path);
        let run = run_at(&path, 1.0);
        judge_bench(&run, &path, true, Some("ci_smoke")).unwrap();
        let after = history(&path);
        assert_eq!(after.len(), before.len() + 1);
        assert_eq!(after[..before.len()], before[..], "earlier entries must not change");
        let expected = enginebench::history_entry(&run, "ci_smoke");
        assert_eq!(after.last(), Some(&Json::parse(&expected.to_pretty()).unwrap()));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn a_failing_check_appends_nothing() {
        let path = history_copy("breach");
        let bytes = std::fs::read(&path).unwrap();
        let err = judge_bench(&run_at(&path, 0.5), &path, true, Some("ci_smoke"))
            .unwrap_err()
            .to_string();
        assert!(err.starts_with("throughput floor breached: injected:"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
