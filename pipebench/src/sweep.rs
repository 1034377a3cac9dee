//! `sweep`, the planner-bound workload: on three apps of contrasting
//! footprint, plan every point of the fig17 and fig18 config grids against
//! one shared `PlannerBaseline` per app, then lower and replay each plan
//! once. Planning is most of the timed phase, so planner changes show here.
//!
//! Planning cost depends on the input, so set-up prepares [`INPUTS`]
//! independent inputs per app and repetition `r` plans input `r % INPUTS`:
//! a run's figures then average over nine profiles instead of three.

use crate::bench::{profiled_input, Bench, Jobs, SCALE};
use crate::calls::{self, Arms};
use crate::check::{self, Checks};
use crate::spans::Tracer;
use ispy_baselines::{AsmDbConfig, AsmDbPlanner};
use ispy_core::{IspyConfig, Plan, Planner, PlannerBaseline};
use ispy_harness::figures::{fig17::CTX_SIZES, fig18};
use ispy_harness::Table;
use ispy_profile::{profile, Profile, SampleRate};
use ispy_sim::{run, OutcomeLedger, RunOptions, SimConfig, SimResult};
use ispy_trace::{apps, Program, Trace};

/// A small, a middle and the largest app footprint. With two apps the job
/// latencies split into two clusters and their median falls in the gap;
/// the middle app's jobs overlap both.
const APPS: [&str; 3] = ["kafka", "tomcat", "wordpress"];

/// Independent profiled inputs per app.
const INPUTS: usize = 3;

struct App {
    /// `app` for input 0, `app.i<n>` for input n.
    name: String,
    program: Program,
    trace: Trace,
    profile: Profile,
    base: SimResult,
    ideal: SimResult,
    asmdb: SimResult,
}

/// One job's output. Only the plan of the seed's sampled point is kept,
/// for the equivalence checks; the others are reduced to digests as the
/// repetition goes, so they do not inflate peak memory.
struct Out {
    input: usize,
    app: usize,
    point: usize,
    job: String,
    digest: u64,
    plan: Option<Plan>,
    result: SimResult,
    ops: usize,
}

/// The (input, config point) whose plan is checked for app `app`.
fn sampled(seed: u64, app: usize, points: usize) -> (usize, usize) {
    let k = seed as usize + app;
    (k % INPUTS, k % points)
}

/// The fig17 context-size points, then the fig18 distance points.
fn grid() -> Vec<(String, IspyConfig)> {
    let mut g: Vec<(String, IspyConfig)> = CTX_SIZES
        .iter()
        .map(|&n| (format!("ctx{n}"), IspyConfig::conditional_only().with_ctx_size(n)))
        .collect();
    for min in fig18::MIN_SWEEP {
        g.push((format!("min{min}"), IspyConfig::default().with_distances(min, 200)));
    }
    for max in fig18::MAX_SWEEP {
        g.push((format!("max{max}"), IspyConfig::default().with_distances(27, max)));
    }
    g
}

fn prepare(tr: &Tracer, app: &str, seed: u64, input: usize) -> App {
    let model = apps::by_name(app).expect("known app").scaled_down(SCALE.shrink);
    let name = if input == 0 { app.to_string() } else { format!("{app}.i{input}") };
    let name = name.as_str();
    let program = {
        let _s = tr.span("trace.generate", name);
        model.generate()
    };
    let trace =
        calls::record(tr, name, &program, profiled_input(&model, seed, input), SCALE.events);
    let cfg = SimConfig::default();
    let profile = {
        let _s = tr.span("profile.collect", name);
        profile(&program, &trace, &cfg, SampleRate::EXACT)
    };
    let asmdb_plan = {
        let _s = tr.span("baselines.asmdb_plan", name);
        AsmDbPlanner::new(&program, &profile, AsmDbConfig::default()).plan()
    };
    let asmdb_c = calls::compile(tr, name, &asmdb_plan.injections, &program);
    let base = calls::replay(tr, name, &program, &trace, &cfg, None);
    let ideal = calls::replay(tr, name, &program, &trace, &SimConfig::ideal(), None);
    let asmdb = calls::replay(tr, name, &program, &trace, &cfg, Some(&asmdb_c));
    App { name: name.to_string(), program, trace, profile, base, ideal, asmdb }
}

fn rep(
    tr: &Tracer,
    jobs: &mut Jobs,
    input: usize,
    apps: &[App],
    grid: &[(String, IspyConfig)],
    seed: u64,
) -> Vec<Out> {
    let cfg = SimConfig::default();
    let mut outs = Vec::new();
    for (ai, app) in apps.iter().enumerate() {
        let baseline = PlannerBaseline::new();
        for (pi, (point, icfg)) in grid.iter().enumerate() {
            let job = format!("{}/{point}", app.name);
            let (plan, result) = jobs.time(|| {
                let plan = {
                    let _s = tr.span("core.plan", &job);
                    Planner::new(&app.program, &app.trace, &app.profile, icfg.clone())
                        .plan_with_baseline(&baseline)
                };
                let compiled = calls::compile(tr, &job, &plan.injections, &app.program);
                let result =
                    calls::replay(tr, &job, &app.program, &app.trace, &cfg, Some(&compiled));
                (plan, result)
            });
            let digest = check::combine(check::digest_plan(&plan), check::digest_result(&result));
            let ops = plan.stats.ops_total();
            let plan = (sampled(seed, ai, grid.len()) == (input, pi)).then_some(plan);
            outs.push(Out { input, app: ai, point: pi, job, digest, plan, result, ops });
        }
    }
    let _s = tr.span("harness.report", "");
    let mut table = Table::new("sweep", "I-SPY config sweep", &["job", "MPKI", "speedup", "ops"]);
    for o in &outs {
        table.row(vec![
            o.job.clone(),
            format!("{:.3}", o.result.mpki()),
            format!("{:.4}", o.result.speedup_over(&apps[o.app].base)),
            o.ops.to_string(),
        ]);
    }
    std::hint::black_box(table.to_json());
    outs
}

fn verify(checks: &mut Checks, apps: &[App], outs: &[Out]) {
    for o in outs {
        let app = &apps[o.app];
        checks.output(&o.job, o.digest);
        let c = o.result.cycles;
        checks.check(
            &format!("{}: ideal <= I-SPY <= baseline cycles", o.job),
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
    let grid = grid();
    // The latest outputs of each input.
    let mut last: Vec<Vec<Out>> = (0..INPUTS).map(|_| Vec::new()).collect();
    b.timed(
        INPUTS,
        |r, tr, jobs| rep(tr, jobs, r % INPUTS, &inputs[r % INPUTS], &grid, seed),
        |checks, outs| {
            let input = outs.first().map_or(0, |o| o.input);
            verify(checks, &inputs[input], &outs);
            last[input] = outs;
        },
    );

    // Sampled equivalences: one (input, config point) per app, chosen by
    // the seed.
    let cfg = SimConfig::default();
    for (o, plan) in last.iter().flatten().filter_map(|o| Some((o, o.plan.as_ref()?))) {
        let app = &inputs[o.input][o.app];
        let fresh =
            Planner::new(&app.program, &app.trace, &app.profile, grid[o.point].1.clone()).plan();
        b.checks.check(
            &format!("{}: plan_with_baseline == plan()", o.job),
            check::plans_equal(&fresh, plan),
        );
        let reference = run(
            &app.program,
            &app.trace,
            &cfg,
            RunOptions {
                injections: Some(&plan.injections),
                reference_loop: true,
                ..Default::default()
            },
        );
        b.checks.check(&format!("{}: fast path == reference loop", o.job), reference == o.result);
        let mut ledger = OutcomeLedger::with_capacity(plan.provenance.len());
        let attributed = run(
            &app.program,
            &app.trace,
            &cfg,
            RunOptions {
                injections: Some(&plan.injections),
                outcomes: Some(&mut ledger),
                ..Default::default()
            },
        );
        b.checks.check(
            &format!("{}: ledger totals == prefetch counters", o.job),
            attributed == o.result && check::ledger_matches(&ledger, &attributed),
        );
    }

    let arms: Vec<Arms<'_>> = last
        .iter()
        .flatten()
        .map(|o| {
            let a = &inputs[o.input][o.app];
            Arms { base: &a.base, ideal: &a.ideal, asmdb: &a.asmdb, ispy: &o.result }
        })
        .collect();
    calls::record_sim_values(&mut b.values, &arms);
    b.values.insert("sim.swaps", 0.0);
    b.values.insert("scenario.switches", 0.0);
}
