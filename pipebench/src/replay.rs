//! `replay`, the sim- and artifact-bound workload. Set-up records all nine
//! apps, plans AsmDB and I-SPY for each, and serializes recordings and
//! plans to `.itrace`/`.iplan` bytes. The timed phase decodes those bytes
//! and replays the four arms, the fig16 drift inputs, a ledger-attributed
//! and a streamed I-SPY replay per app, and the `burst` multi-tenant
//! scenario. It plans nothing, so planner changes should not move it.

use crate::bench::{derive_seed, profiled_input, variant_input, Bench, Jobs, SCALE};
use crate::calls::{self, Arms};
use crate::check::{self, Checks};
use crate::spans::Tracer;
use ispy_baselines::{AsmDbConfig, AsmDbPlanner};
use ispy_core::artifact::{plan_from_bytes, plan_to_bytes};
use ispy_core::{IspyConfig, Plan, Planner};
use ispy_harness::Table;
use ispy_isa::CompiledInjections;
use ispy_profile::{profile, SampleRate};
use ispy_scenario::{CompiledScenario, Scenario};
use ispy_sim::{
    replay_stream, run, run_streaming, OutcomeLedger, RunOptions, SimConfig, SimResult,
};
use ispy_trace::artifact::{recording_from_bytes, recording_to_bytes};
use ispy_trace::{apps, BlockSource, Program, Trace};
use std::sync::Arc;

/// Apps whose drifted inputs fig16 replays.
const DRIFT_APPS: [&str; 3] = ["drupal", "mediawiki", "wordpress"];

/// Drift input variants replayed per drift app.
const VARIANTS: std::ops::RangeInclusive<usize> = 1..=4;

/// One app's serialized artifacts.
struct App {
    name: &'static str,
    recording: Vec<u8>,
    asmdb: Vec<u8>,
    ispy: Vec<u8>,
    /// Recordings of drift inputs 1..=4 (drift apps only).
    variants: Vec<Vec<u8>>,
}

/// The compiled `burst` scenario and its plans.
struct Burst {
    sc: CompiledScenario,
    asmdb: CompiledInjections,
    ispy: CompiledInjections,
}

struct Setup {
    apps: Vec<App>,
    burst: Burst,
}

/// Arm order within an app's results.
const ARMS: [&str; 4] = ["baseline", "ideal", "asmdb", "ispy"];

/// One repetition's outputs.
struct Out {
    /// `(job, result)` in job order.
    results: Vec<(String, SimResult)>,
    /// Per app: the four arms, the ledger-attributed replay and its ledger
    /// check, and the streamed replay.
    per_app: Vec<AppOut>,
}

struct AppOut {
    arms: [SimResult; 4],
    ledger_ok: bool,
    ledgered: SimResult,
    streamed: SimResult,
}

fn encode(tr: &Tracer, job: &str, f: impl FnOnce() -> Vec<u8>) -> Vec<u8> {
    let s = tr.span("artifact.encode", job);
    let bytes = f();
    s.work(bytes.len() as u64);
    bytes
}

fn prepare_app(tr: &Tracer, name: &'static str, seed: u64) -> App {
    let model = apps::by_name(name).expect("known app").scaled_down(SCALE.shrink);
    let program = {
        let _s = tr.span("trace.generate", name);
        model.generate()
    };
    let trace = calls::record(tr, name, &program, profiled_input(&model, seed, 0), SCALE.events);
    let prof = {
        let _s = tr.span("profile.collect", name);
        profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT)
    };
    let asmdb_plan = {
        let _s = tr.span("baselines.asmdb_plan", name);
        AsmDbPlanner::new(&program, &prof, AsmDbConfig::default()).plan()
    };
    let ispy_plan = {
        let _s = tr.span("core.plan", name);
        Planner::new(&program, &trace, &prof, IspyConfig::default()).plan()
    };
    let recording = encode(tr, name, || recording_to_bytes(&program, &trace));
    let asmdb = encode(tr, name, || plan_to_bytes(name, &asmdb_plan));
    let ispy = encode(tr, name, || plan_to_bytes(name, &ispy_plan));
    let mut variants = Vec::new();
    if DRIFT_APPS.contains(&name) {
        for k in VARIANTS {
            let job = format!("{name}/v{k}");
            let t = calls::record(tr, &job, &program, variant_input(&model, k, seed), SCALE.events);
            variants.push(encode(tr, &job, || recording_to_bytes(&program, &t)));
        }
    }
    App { name, recording, asmdb, ispy, variants }
}

fn prepare_burst(tr: &Tracer, seed: u64) -> Burst {
    let spec = Scenario::preset("burst").expect("burst is a preset").scaled_down(SCALE.shrink);
    let spec = spec.clone().with_seed(derive_seed(spec.seed, seed, 0));
    let sc = {
        let _s = tr.span("scenario.compile", "burst");
        spec.compile(SCALE.events as u64)
    };
    let trace = materialize(tr, &sc, "burst");
    let cfg = scenario_cfg(&sc, SimConfig::default());
    let program = sc.program();
    let prof = {
        let _s = tr.span("profile.collect", "burst");
        profile(program, &trace, &cfg, SampleRate::EXACT)
    };
    let asmdb_plan = {
        let _s = tr.span("baselines.asmdb_plan", "burst");
        AsmDbPlanner::new(program, &prof, AsmDbConfig::default()).plan()
    };
    let ispy_plan = {
        let _s = tr.span("core.plan", "burst");
        Planner::new(program, &trace, &prof, IspyConfig::default()).plan()
    };
    let asmdb = calls::compile(tr, "burst", &asmdb_plan.injections, program);
    let ispy = calls::compile(tr, "burst", &ispy_plan.injections, program);
    Burst { sc, asmdb, ispy }
}

/// Streams a compiled scenario into one trace (`scenario.source`).
pub fn materialize(tr: &Tracer, sc: &CompiledScenario, job: &str) -> Trace {
    let s = tr.span("scenario.source", job);
    let mut src = sc.source();
    let mut blocks = Vec::with_capacity(sc.total_events() as usize);
    while let Some(chunk) = src.next_chunk().expect("scenario sources cannot fail") {
        blocks.extend_from_slice(chunk);
    }
    s.work(blocks.len() as u64);
    Trace::new(sc.spec().name.clone(), blocks)
}

/// `base` with the scenario's context-switch schedule attached.
pub fn scenario_cfg(sc: &CompiledScenario, base: SimConfig) -> SimConfig {
    SimConfig { schedule: Some(Arc::new(sc.schedule().clone())), ..base }
}

fn decode_recording(tr: &Tracer, job: &str, bytes: &[u8]) -> (Program, Trace) {
    let s = tr.span("artifact.decode", job);
    let rec = recording_from_bytes(bytes).expect("the benchmark's own recordings decode");
    s.work(bytes.len() as u64);
    rec
}

fn decode_plan(tr: &Tracer, job: &str, bytes: &[u8]) -> Plan {
    let s = tr.span("artifact.decode", job);
    let (_, plan) = plan_from_bytes(bytes).expect("the benchmark's own plans decode");
    s.work(bytes.len() as u64);
    plan
}

/// One decode + replay job: the recording, and the plan if the arm has one.
fn replay_job(
    tr: &Tracer,
    job: &str,
    recording: &[u8],
    plan: Option<&[u8]>,
    cfg: &SimConfig,
    outcomes: Option<&mut OutcomeLedger>,
) -> SimResult {
    let (program, trace) = decode_recording(tr, job, recording);
    let compiled =
        plan.map(|p| calls::compile(tr, job, &decode_plan(tr, job, p).injections, &program));
    let s = tr.span("sim.replay", job);
    let r = run(
        &program,
        &trace,
        cfg,
        RunOptions { compiled: compiled.as_ref(), outcomes, ..Default::default() },
    );
    s.work(r.blocks);
    r
}

fn rep(tr: &Tracer, jobs: &mut Jobs, setup: &Setup) -> Out {
    let cfg = SimConfig::default();
    let ideal = SimConfig::ideal();
    let mut results = Vec::new();
    let mut per_app = Vec::new();
    for app in &setup.apps {
        let plans = [None, None, Some(&app.asmdb[..]), Some(&app.ispy[..])];
        let arms: [SimResult; 4] = std::array::from_fn(|i| {
            let job = format!("{}/{}", app.name, ARMS[i]);
            let c = if i == 1 { &ideal } else { &cfg };
            let r = jobs.time(|| replay_job(tr, &job, &app.recording, plans[i], c, None));
            results.push((job, r));
            r
        });
        let job = format!("{}/ledger", app.name);
        let (ledgered, ledger) = jobs.time(|| {
            let mut ledger = OutcomeLedger::default();
            let r = replay_job(tr, &job, &app.recording, Some(&app.ispy), &cfg, Some(&mut ledger));
            (r, ledger)
        });
        let ledger_ok = check::ledger_matches(&ledger, &ledgered);
        results.push((job, ledgered));
        let job = format!("{}/stream", app.name);
        let streamed = jobs.time(|| {
            // The stream decodes the recording and lowers the plan inside
            // the replay call.
            let plan = decode_plan(tr, &job, &app.ispy);
            let s = tr.span("sim.stream_replay", &job);
            let opts = RunOptions { injections: Some(&plan.injections), ..Default::default() };
            let out = replay_stream(&app.recording[..], &cfg, opts)
                .expect("the benchmark's own recordings stream");
            s.work(out.result.blocks);
            out.result
        });
        results.push((job, streamed));
        for (k, bytes) in VARIANTS.zip(&app.variants) {
            let job = format!("{}/v{k}", app.name);
            let r = jobs.time(|| replay_job(tr, &job, bytes, Some(&app.ispy), &cfg, None));
            results.push((job, r));
        }
        per_app.push(AppOut { arms, ledger_ok, ledgered, streamed });
    }
    let b = &setup.burst;
    let burst_cfg = scenario_cfg(&b.sc, cfg.clone());
    let burst_ideal = scenario_cfg(&b.sc, ideal);
    let burst_arms = [
        (&burst_cfg, None),
        (&burst_ideal, None),
        (&burst_cfg, Some(&b.asmdb)),
        (&burst_cfg, Some(&b.ispy)),
    ];
    for (arm, (c, compiled)) in ARMS.iter().zip(burst_arms) {
        let job = format!("burst/{arm}");
        let r = jobs.time(|| {
            let s = tr.span("scenario.replay", &job);
            let mut source = b.sc.source();
            let r = run_streaming(
                b.sc.program(),
                &mut source,
                c,
                RunOptions { compiled, ..Default::default() },
            )
            .expect("scenario sources cannot fail");
            s.work(r.blocks);
            r
        });
        results.push((job, r));
    }
    let _s = tr.span("harness.report", "");
    let mut table = Table::new("replay", "Artifact replays", &["job", "MPKI", "cycles"]);
    for (job, r) in &results {
        table.row(vec![job.clone(), format!("{:.3}", r.mpki()), r.cycles.to_string()]);
    }
    std::hint::black_box(table.to_json());
    Out { results, per_app }
}

fn verify(checks: &mut Checks, setup: &Setup, out: &Out) {
    for (job, r) in &out.results {
        checks.output(job, check::digest_result(r));
    }
    for (app, o) in setup.apps.iter().zip(&out.per_app) {
        let [base, ideal, _, ispy] = &o.arms;
        checks.check(
            &format!("{}: ideal <= I-SPY <= baseline cycles", app.name),
            ideal.cycles <= ispy.cycles && ispy.cycles <= base.cycles,
        );
        checks.check(&format!("{}: streamed == materialized", app.name), o.streamed == *ispy);
        checks.check(
            &format!("{}: ledger totals == prefetch counters", app.name),
            o.ledger_ok && o.ledgered == *ispy,
        );
    }
}

/// Runs the workload.
pub fn run_workload(b: &mut Bench) {
    let seed = b.seed;
    let setup = b.setup(|tr| Setup {
        apps: apps::all().iter().map(|m| prepare_app(tr, m.name(), seed)).collect(),
        burst: prepare_burst(tr, seed),
    });
    let mut last = None;
    b.timed(
        1,
        |_, tr, jobs| rep(tr, jobs, &setup),
        |checks, out| {
            verify(checks, &setup, &out);
            last = Some(out);
        },
    );
    let last = last.expect("at least one repetition");

    // Sampled equivalence: one arm per app, chosen by the seed, against the
    // engine's reference loop.
    let cfg = SimConfig::default();
    let ideal = SimConfig::ideal();
    for (ai, (app, o)) in setup.apps.iter().zip(&last.per_app).enumerate() {
        let arm = (seed as usize + ai) % ARMS.len();
        let (program, trace) = recording_from_bytes(&app.recording).expect("decodes");
        let plan = [None, None, Some(&app.asmdb), Some(&app.ispy)][arm]
            .map(|p| plan_from_bytes(p).expect("decodes").1);
        let reference = run(
            &program,
            &trace,
            if arm == 1 { &ideal } else { &cfg },
            RunOptions {
                injections: plan.as_ref().map(|p| &p.injections),
                reference_loop: true,
                ..Default::default()
            },
        );
        b.checks.check(
            &format!("{}/{}: fast path == reference loop", app.name, ARMS[arm]),
            reference == o.arms[arm],
        );
    }

    let arms: Vec<Arms<'_>> = last
        .per_app
        .iter()
        .map(|o| Arms { base: &o.arms[0], ideal: &o.arms[1], asmdb: &o.arms[2], ispy: &o.arms[3] })
        .collect();
    calls::record_sim_values(&mut b.values, &arms);
    b.values.insert("sim.swaps", 0.0);
    b.values.insert("scenario.switches", setup.burst.sc.schedule().switches().len() as f64);
}
