//! `adapt`, the incremental planner workload: the causal loop of
//! `repro adapt --drift` on three apps, driven through public calls
//! (`window_delta` → `ProfileAccumulator::fold` → `Planner::plan` on the
//! seen prefix → hot swap inside `run_adaptive`), then a series of
//! ≤1%-sample `Planner::replan_delta` calls against a warm baseline. The
//! planner makes many small plans here instead of a config grid, so a memo
//! change that helps `sweep` but slows delta replans shows up here.
//!
//! As in `sweep`, set-up prepares [`INPUTS`] independent inputs per app
//! and repetition `r` runs input `r % INPUTS`.

use crate::bench::{derive_seed, Bench, Jobs, SCALE};
use crate::calls::{self, Arms};
use crate::check::{self, Checks};
use crate::replay::materialize;
use crate::spans::Tracer;
use ispy_baselines::{AsmDbConfig, AsmDbPlanner};
use ispy_core::{IspyConfig, Plan, Planner};
use ispy_harness::adapt::{replan_workload, ReplanWorkload};
use ispy_harness::Table;
use ispy_isa::{CompiledInjections, InjectionMap};
use ispy_profile::{profile, window_delta, ProfileAccumulator, SampleRate};
use ispy_scenario::{Arrival, PhaseSpec, Scenario, TenantSpec};
use ispy_sim::{
    run, run_adaptive, run_streaming, AdaptiveRun, OutcomeLedger, RunOptions, SimConfig, SimResult,
    SliceWindows, SwitchEffect,
};
use ispy_trace::{apps, AppModel, Program, Trace, TraceBlocks};
use std::time::Instant;

const APPS: [&str; 3] = ["tomcat", "kafka", "cassandra"];

/// Independent drift scenarios per app.
const INPUTS: usize = 2;

/// Adaptation quantum in trace events: ten windows per epoch.
const WINDOW: usize = 5_000;

/// The trace is replayed twice: epoch one adapts, epoch two runs under the
/// converged plan.
const EPOCHS: usize = 2;

/// Warm-up blocks replayed ahead of each profiled window (as in
/// `repro adapt`).
const PROFILE_WARMUP: usize = 8_192;

/// `replan_delta` calls per app per repetition.
const DELTA_REPLANS: usize = 8;

struct App {
    /// `app` for input 0, `app.i<n>` for input n.
    name: String,
    program: Program,
    /// One epoch of the drifting trace.
    trace: Trace,
    /// `EPOCHS` copies of `trace`.
    replayed: Trace,
    oracle: Plan,
    oracle_c: CompiledInjections,
    /// Whole-epoch replay under the oracle plan.
    oracle_run: SimResult,
    /// Converged-window totals of the comparison arms.
    base: SimResult,
    ideal: SimResult,
    asmdb: SimResult,
    oracle_conv: SimResult,
    delta: ReplanWorkload,
}

struct AppOut {
    run: AdaptiveRun,
    /// `(job, plan digest)` per replanned window.
    windows: Vec<(String, u64)>,
    replanned: Plan,
}

/// The two-phase drift of `repro adapt --drift`: the second half of the
/// trace runs a rotated, wider request mix.
fn drift_scenario(model: AppModel, seed: u64, input: usize) -> Scenario {
    Scenario {
        name: format!("{}-drift", model.name()),
        seed: derive_seed(model.default_input().seed(), seed, input),
        arrival: Arrival::Steady,
        phases: vec![
            PhaseSpec::new("steady", 0),
            PhaseSpec::new("drift", 0).with_rotation(2).with_wss_scale(1.5),
        ],
        tenants: vec![TenantSpec::new(model, 1)],
        quantum: 2_048,
        effect: SwitchEffect::None,
    }
}

/// Windows of one epoch.
fn windows_per_epoch() -> usize {
    SCALE.events.div_ceil(WINDOW)
}

/// Sum of the converged (second-epoch) windows.
fn converged(run: &AdaptiveRun) -> SimResult {
    let mut total = SimResult::default();
    for w in &run.windows[windows_per_epoch()..] {
        total.accumulate(w);
    }
    total
}

fn windowed(
    tr: &Tracer,
    job: &str,
    program: &Program,
    replayed: &Trace,
    cfg: &SimConfig,
    plan: &InjectionMap,
) -> AdaptiveRun {
    let s = tr.span("sim.adaptive", job);
    let r = run_adaptive(
        program,
        cfg,
        &SliceWindows::of_trace(replayed),
        WINDOW,
        plan,
        None,
        |_, _| None,
    )
    .expect("slice-backed windows cannot fail");
    s.work(r.total.blocks);
    r
}

fn prepare(tr: &Tracer, app: &str, seed: u64, input: usize) -> App {
    let model = apps::by_name(app).expect("known app").scaled_down(SCALE.shrink);
    let name = if input == 0 { app.to_string() } else { format!("{app}.i{input}") };
    let name = name.as_str();
    let sc = {
        let _s = tr.span("scenario.compile", name);
        drift_scenario(model, seed, input).compile(SCALE.events as u64)
    };
    let trace = materialize(tr, &sc, name);
    let program = sc.program().clone();
    let mut blocks = Vec::with_capacity(trace.len() * EPOCHS);
    for _ in 0..EPOCHS {
        blocks.extend_from_slice(trace.blocks());
    }
    let replayed = Trace::new(format!("{name}-x{EPOCHS}"), blocks);
    let cfg = SimConfig::default();
    let prof = {
        let _s = tr.span("profile.collect", name);
        profile(&program, &trace, &cfg, SampleRate::EXACT)
    };
    let oracle = {
        let _s = tr.span("core.plan", name);
        Planner::new(&program, &trace, &prof, IspyConfig::default()).plan()
    };
    let asmdb_plan = {
        let _s = tr.span("baselines.asmdb_plan", name);
        AsmDbPlanner::new(&program, &prof, AsmDbConfig::default()).plan()
    };
    let oracle_c = calls::compile(tr, name, &oracle.injections, &program);
    let oracle_run = calls::replay(tr, name, &program, &trace, &cfg, Some(&oracle_c));
    let none = InjectionMap::new();
    let base = converged(&windowed(tr, name, &program, &replayed, &cfg, &none));
    let ideal = converged(&windowed(tr, name, &program, &replayed, &SimConfig::ideal(), &none));
    let asmdb = converged(&windowed(tr, name, &program, &replayed, &cfg, &asmdb_plan.injections));
    let oracle_conv = converged(&windowed(tr, name, &program, &replayed, &cfg, &oracle.injections));
    let delta = {
        let _s = tr.span("harness.replan_workload", name);
        replan_workload(&program, &trace, &cfg)
    };
    App {
        name: name.to_string(),
        program,
        trace,
        replayed,
        oracle,
        oracle_c,
        oracle_run,
        base,
        ideal,
        asmdb,
        oracle_conv,
        delta,
    }
}

fn rep_app(tr: &Tracer, jobs: &mut Jobs, app: &App) -> AppOut {
    let cfg = SimConfig::default();
    let n = app.trace.len();
    let mut acc = ProfileAccumulator::new(app.program.num_blocks(), cfg.lbr_depth);
    let mut window_ms = Vec::new();
    let mut windows = Vec::new();
    let run = {
        let s = tr.span("sim.adaptive", &app.name);
        let parent = s.id();
        let (program, trace, replayed) = (&app.program, &app.trace, &app.replayed);
        let (acc, window_ms, windows, cfg) = (&mut acc, &mut window_ms, &mut windows, &cfg);
        let r = run_adaptive(
            program,
            cfg,
            &SliceWindows::of_trace(replayed),
            WINDOW,
            &InjectionMap::new(),
            None,
            |k, blocks| {
                if acc.events() as usize >= n {
                    return None; // converged: one full epoch folded
                }
                let job = format!("{}/w{k}", app.name);
                let t0 = Instant::now();
                let _r = tr.span_under(parent, "bench.replan", &job);
                let start = k * WINDOW;
                let warmup = &replayed.blocks()[start.saturating_sub(PROFILE_WARMUP)..start];
                let delta = {
                    let _s = tr.span("profile.window_delta", &job);
                    window_delta(
                        program,
                        warmup,
                        blocks,
                        cfg,
                        SampleRate::EXACT,
                        (start % n) as u64,
                    )
                };
                let prof = {
                    let _s = tr.span("profile.fold", &job);
                    acc.fold(&delta);
                    acc.profile()
                };
                let plan = {
                    let _s = tr.span("core.plan", &job);
                    let seen = (start + blocks.len()).min(n);
                    let prefix =
                        Trace::new(format!("{}-w{k}", app.name), trace.blocks()[..seen].to_vec());
                    Planner::new(program, &prefix, &prof, IspyConfig::default()).plan()
                };
                windows.push((job, check::digest_map(&plan.injections)));
                window_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                Some(plan.injections)
            },
        )
        .expect("slice-backed windows cannot fail");
        s.work(r.total.blocks);
        r
    };
    jobs.extend(window_ms);

    let planner = Planner::new(&app.program, &app.trace, &app.delta.profile, IspyConfig::default());
    let mut replanned = None;
    for _ in 0..DELTA_REPLANS {
        let _s = tr.span("core.replan_delta", &app.name);
        replanned = Some(planner.replan_delta(&app.delta.baseline, &app.delta.delta));
    }
    AppOut { run, windows, replanned: replanned.expect("DELTA_REPLANS is positive") }
}

fn rep(tr: &Tracer, jobs: &mut Jobs, apps: &[App]) -> Vec<AppOut> {
    let outs: Vec<AppOut> = apps.iter().map(|a| rep_app(tr, jobs, a)).collect();
    let _s = tr.span("harness.report", "");
    let mut table = Table::new("adapt", "Adaptive replanning", &["app", "window", "MPKI"]);
    for (app, o) in apps.iter().zip(&outs) {
        for (k, w) in o.run.windows.iter().enumerate() {
            table.row(vec![app.name.clone(), k.to_string(), format!("{:.3}", w.mpki())]);
        }
    }
    std::hint::black_box(table.to_json());
    outs
}

fn verify(checks: &mut Checks, apps: &[App], outs: &[AppOut]) {
    for (app, o) in apps.iter().zip(outs) {
        for (job, digest) in &o.windows {
            checks.output(job, *digest);
        }
        let mut h = check::digest_result(&o.run.total);
        for w in &o.run.windows {
            h = check::combine(h, check::digest_result(w));
        }
        checks.output(&format!("{}/adaptive", app.name), check::combine(h, o.run.swaps as u64));
        checks.output(&format!("{}/replan_delta", app.name), check::digest_plan(&o.replanned));
        let c = converged(&o.run).cycles;
        checks.check(
            &format!("{}: ideal <= I-SPY <= baseline cycles (converged)", app.name),
            app.ideal.cycles <= c && c <= app.base.cycles,
        );
    }
}

/// Runs the workload.
pub fn run_workload(b: &mut Bench) {
    let seed = b.seed;
    let inputs: Vec<Vec<App>> = b.setup(|tr| {
        (0..INPUTS).map(|i| APPS.iter().map(|&name| prepare(tr, name, seed, i)).collect()).collect()
    });
    // The latest outputs of each input.
    let mut last: Vec<Vec<AppOut>> = (0..INPUTS).map(|_| Vec::new()).collect();
    let mut verified = 0;
    b.timed(
        INPUTS,
        |r, tr, jobs| rep(tr, jobs, &inputs[r % INPUTS]),
        |checks, outs| {
            let input = verified % INPUTS;
            verified += 1;
            verify(checks, &inputs[input], &outs);
            last[input] = outs;
        },
    );

    // Sampled equivalences: one input per app, chosen by the seed.
    let cfg = SimConfig::default();
    for ai in 0..APPS.len() {
        let input = (seed as usize + ai) % INPUTS;
        let (app, o) = (&inputs[input][ai], &last[input][ai]);
        let fresh =
            Planner::new(&app.program, &app.trace, &app.delta.profile, IspyConfig::default())
                .plan();
        b.checks.check(
            &format!("{}: replan_delta == plan()", app.name),
            check::plans_equal(&fresh, &o.replanned),
        );
        let opts = |reference_loop| RunOptions {
            compiled: Some(&app.oracle_c),
            reference_loop,
            ..Default::default()
        };
        let reference = run(&app.program, &app.trace, &cfg, opts(true));
        b.checks.check(
            &format!("{}: fast path == reference loop", app.name),
            reference == app.oracle_run,
        );
        let mut source = TraceBlocks::with_chunk(app.trace.blocks(), 4_096);
        let streamed =
            run_streaming(&app.program, &mut source, &cfg, opts(false)).expect("in-memory source");
        b.checks
            .check(&format!("{}: streamed == materialized", app.name), streamed == app.oracle_run);
        let mut ledger = OutcomeLedger::with_capacity(app.oracle.provenance.len());
        let attributed = run(
            &app.program,
            &app.trace,
            &cfg,
            RunOptions {
                compiled: Some(&app.oracle_c),
                outcomes: Some(&mut ledger),
                ..Default::default()
            },
        );
        b.checks.check(
            &format!("{}: ledger totals == prefetch counters", app.name),
            attributed == app.oracle_run && check::ledger_matches(&ledger, &attributed),
        );
    }

    let pairs: Vec<(&App, SimResult)> = inputs
        .iter()
        .zip(&last)
        .flat_map(|(apps, outs)| apps.iter().zip(outs).map(|(a, o)| (a, converged(&o.run))))
        .collect();
    let arms: Vec<Arms<'_>> = pairs
        .iter()
        .map(|(a, c)| Arms { base: &a.base, ideal: &a.ideal, asmdb: &a.asmdb, ispy: c })
        .collect();
    calls::record_sim_values(&mut b.values, &arms);
    let gaps: Vec<f64> = pairs
        .iter()
        .map(|(a, c)| {
            (c.mpki() - a.oracle_conv.mpki()) / a.oracle_conv.mpki().max(f64::MIN_POSITIVE) * 100.0
        })
        .collect();
    b.values.insert("adapt_gap_pct", crate::stats::mean(&gaps));
    let swaps: f64 = last.iter().flatten().map(|o| o.run.swaps as f64).sum();
    b.values.insert("sim.swaps", swaps / INPUTS as f64);
    b.values.insert("scenario.switches", 0.0);
}
