//! Spanned calls into the layers that more than one workload makes, plus
//! the simulated metrics every workload reports.

use crate::spans::Tracer;
use crate::stats;
use ispy_isa::{CompiledInjections, InjectionMap};
use ispy_sim::{run, RunOptions, SimConfig, SimResult};
use ispy_trace::{Program, Trace};
use std::collections::BTreeMap;

/// Lowers a plan for replay (`isa.compile`).
pub fn compile(
    tr: &Tracer,
    job: &str,
    map: &InjectionMap,
    program: &Program,
) -> CompiledInjections {
    let s = tr.span("isa.compile", job);
    let c = map.compile(program.num_blocks());
    s.work(c.num_ops() as u64);
    c
}

/// Replays a materialized trace (`sim.replay`).
pub fn replay(
    tr: &Tracer,
    job: &str,
    program: &Program,
    trace: &Trace,
    cfg: &SimConfig,
    compiled: Option<&CompiledInjections>,
) -> SimResult {
    let s = tr.span("sim.replay", job);
    let r = run(program, trace, cfg, RunOptions { compiled, ..Default::default() });
    s.work(r.blocks);
    r
}

/// Records `events` blocks of `program` under `input` (`trace.record`).
pub fn record(
    tr: &Tracer,
    job: &str,
    program: &Program,
    input: ispy_trace::InputSpec,
    events: usize,
) -> Trace {
    let s = tr.span("trace.record", job);
    let t = program.record_trace(input, events);
    s.work(t.len() as u64);
    t
}

/// One I-SPY result next to the baseline, ideal and AsmDB results of the
/// same trace.
pub struct Arms<'a> {
    pub base: &'a SimResult,
    pub ideal: &'a SimResult,
    pub asmdb: &'a SimResult,
    pub ispy: &'a SimResult,
}

/// Sets the simulated end-to-end values (mean % of ideal, mean MPKI,
/// geomean AsmDB/I-SPY cycles) and the prefetch ratios from `arms`.
pub fn record_sim_values(values: &mut BTreeMap<&'static str, f64>, arms: &[Arms<'_>]) {
    let pct: Vec<f64> =
        arms.iter().map(|a| a.ispy.fraction_of_ideal(a.base, a.ideal) * 100.0).collect();
    let mpki: Vec<f64> = arms.iter().map(|a| a.ispy.mpki()).collect();
    let vs: Vec<f64> =
        arms.iter().map(|a| a.asmdb.cycles as f64 / a.ispy.cycles.max(1) as f64).collect();
    values.insert("ispy_pct_of_ideal", stats::mean(&pct));
    values.insert("ispy_mpki", stats::mean(&mpki));
    values.insert("ispy_vs_asmdb", stats::geomean(&vs));
    let sum = |f: fn(&SimResult) -> u64| arms.iter().map(|a| f(a.ispy)).sum::<u64>() as f64;
    let ratio = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
    let issued = sum(|r| r.pf_lines_issued);
    values.insert("sim.pf_useful_frac", ratio(sum(|r| r.pf_useful), issued));
    values.insert("sim.pf_late_frac", ratio(sum(|r| r.pf_late), issued));
    values.insert("sim.pf_fired_frac", ratio(sum(|r| r.pf_ops_fired), sum(|r| r.pf_ops_executed)));
}
