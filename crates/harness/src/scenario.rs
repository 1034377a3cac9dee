//! The `repro scenario` driver: replay a production-shaped scenario
//! (bursty arrivals, phase transitions, multi-tenant L1I interference)
//! under the baseline / ideal / AsmDB / I-SPY plans and attribute what
//! happened per phase and per tenant.
//!
//! The pipeline mirrors the deployment story end to end:
//!
//! 1. Compile the [`Scenario`] and materialize one training trace from the
//!    interleaved stream — the profile a datacenter profiler would collect
//!    *under* the interference, switch-induced misses included.
//! 2. Plan AsmDB and I-SPY injections from that profile over the merged
//!    multi-tenant program.
//! 3. Stream four replays through [`run_streaming`] with the compiled
//!    [`SwitchSchedule`](ispy_sim::SwitchSchedule) attached: no-prefetch
//!    baseline, ideal I-cache, AsmDB, and I-SPY (the latter with a
//!    per-injection [`OutcomeLedger`]).
//! 4. Carve every run's counters and request-boundary latencies into
//!    (phase, tenant) buckets via the engine's `phase_boundary` /
//!    `tenant_switch` observer callbacks, and pair each request against the
//!    ideal run so its **front-end stall** (real latency minus ideal
//!    latency) is exact — p99 over those stalls is the tail metric the
//!    paper's production motivation is about.
//!
//! Everything is a deterministic function of `(scenario, events)`: two runs
//! of `repro scenario <spec> --json` are byte-identical at any `--jobs`.

use crate::json::Json;
use ispy_baselines::asmdb::{AsmDbConfig, AsmDbPlanner};
use ispy_core::{IspyConfig, Planner};
use ispy_isa::InjectionMap;
use ispy_profile::{profile, SampleRate};
use ispy_scenario::{CompiledScenario, Scenario};
use ispy_sim::{
    run_streaming, InjectionOutcome, OutcomeLedger, RunOptions, SimConfig, SimObserver, SimResult,
};
use ispy_trace::{BlockId, BlockSource, Trace};
use std::sync::Arc;

/// Per-(phase, tenant) raw counters from one replay.
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    events: u64,
    instrs: u64,
    misses: u64,
}

/// Collects bucketed counters and request-boundary marks from one streamed
/// replay. The current (phase, tenant) is tracked through the engine's
/// schedule callbacks, so attribution is exact at every boundary.
struct BucketObserver<'a> {
    /// `true` for request-entry blocks of the merged program.
    is_boundary: &'a [bool],
    /// Instruction count per merged-program block.
    block_instrs: &'a [u16],
    tenants: usize,
    cur_phase: u32,
    cur_tenant: u32,
    /// `phase * tenants + tenant` counters.
    buckets: Vec<Bucket>,
    /// `(bucket, cycle)` at every request boundary, in trace order.
    marks: Vec<(u32, u64)>,
}

impl<'a> BucketObserver<'a> {
    fn new(
        is_boundary: &'a [bool],
        block_instrs: &'a [u16],
        phases: usize,
        tenants: usize,
    ) -> Self {
        BucketObserver {
            is_boundary,
            block_instrs,
            tenants,
            cur_phase: 0,
            cur_tenant: 0,
            buckets: vec![Bucket::default(); phases * tenants],
            marks: Vec::new(),
        }
    }

    fn bucket(&self) -> usize {
        self.cur_phase as usize * self.tenants + self.cur_tenant as usize
    }
}

impl SimObserver for BucketObserver<'_> {
    fn block_entered(&mut self, _idx: usize, block: BlockId, cycle: u64) {
        let bi = self.bucket();
        let b = &mut self.buckets[bi];
        b.events += 1;
        b.instrs += self.block_instrs[block.0 as usize] as u64;
        if self.is_boundary[block.0 as usize] {
            self.marks.push((bi as u32, cycle));
        }
    }

    fn icache_miss(&mut self, _idx: usize, _block: BlockId, _line: ispy_trace::Line, _cycle: u64) {
        let bi = self.bucket();
        self.buckets[bi].misses += 1;
    }

    fn phase_boundary(&mut self, _idx: usize, phase: u32, _cycle: u64) {
        self.cur_phase = phase;
    }

    fn tenant_switch(&mut self, _idx: usize, tenant: u32, _cycle: u64) {
        self.cur_tenant = tenant;
    }
}

/// One (phase, tenant) row of the scenario report.
#[derive(Debug, Clone)]
pub struct BucketRow {
    /// Phase name from the scenario spec.
    pub phase: String,
    /// Tenant app name.
    pub tenant: String,
    /// Trace events this tenant executed during this phase.
    pub events: u64,
    /// Requests completed inside the bucket (p99 sample count).
    pub requests: usize,
    /// Baseline (no prefetch) MPKI over the bucket.
    pub base_mpki: f64,
    /// AsmDB MPKI over the bucket.
    pub asmdb_mpki: f64,
    /// I-SPY MPKI over the bucket.
    pub ispy_mpki: f64,
    /// p99 per-request front-end stall (cycles vs ideal), baseline.
    pub base_p99: u64,
    /// p99 front-end stall under the AsmDB plan.
    pub asmdb_p99: u64,
    /// p99 front-end stall under the I-SPY plan.
    pub ispy_p99: u64,
}

/// Per-tenant aggregate over all phases, with the I-SPY injection-outcome
/// attribution from the ledger (which injections fired in *whose* code).
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant app name.
    pub tenant: String,
    /// Trace events the tenant executed in total.
    pub events: u64,
    /// Baseline MPKI over the tenant's events.
    pub base_mpki: f64,
    /// AsmDB MPKI over the tenant's events.
    pub asmdb_mpki: f64,
    /// I-SPY MPKI over the tenant's events.
    pub ispy_mpki: f64,
    /// p99 front-end stall, baseline.
    pub base_p99: u64,
    /// p99 front-end stall, AsmDB.
    pub asmdb_p99: u64,
    /// p99 front-end stall, I-SPY.
    pub ispy_p99: u64,
    /// I-SPY injections planted in this tenant's code.
    pub injections: usize,
    /// Summed outcomes of those injections over the whole run.
    pub outcome: InjectionOutcome,
}

/// Everything `repro scenario` measures for one compiled scenario.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Trace events replayed.
    pub events: u64,
    /// Phase names, in schedule order.
    pub phases: Vec<String>,
    /// Tenant app names, in tenant-index order.
    pub tenants: Vec<String>,
    /// Context switches the schedule fired.
    pub switches: usize,
    /// Per-(phase, tenant) rows; buckets that never ran are omitted.
    pub rows: Vec<BucketRow>,
    /// Per-tenant aggregates with injection attribution.
    pub tenant_reports: Vec<TenantReport>,
    /// Whole-run counters: baseline replay.
    pub base_total: SimResult,
    /// Whole-run counters: ideal I-cache.
    pub ideal_total: SimResult,
    /// Whole-run counters: AsmDB plan.
    pub asmdb_total: SimResult,
    /// Whole-run counters: I-SPY plan.
    pub ispy_total: SimResult,
}

impl ScenarioOutcome {
    /// Serializes the outcome for `--json`. Deterministic: field order is
    /// fixed and every value is a pure function of `(scenario, events)`.
    pub fn to_json(&self) -> String {
        let rows: Vec<Json> = self
            .rows
            .iter()
            .map(|r| {
                Json::obj([
                    ("phase", Json::Str(r.phase.clone())),
                    ("tenant", Json::Str(r.tenant.clone())),
                    ("events", Json::Num(r.events as f64)),
                    ("requests", Json::Num(r.requests as f64)),
                    ("base_mpki", Json::Num(r.base_mpki)),
                    ("asmdb_mpki", Json::Num(r.asmdb_mpki)),
                    ("ispy_mpki", Json::Num(r.ispy_mpki)),
                    ("base_p99_stall", Json::Num(r.base_p99 as f64)),
                    ("asmdb_p99_stall", Json::Num(r.asmdb_p99 as f64)),
                    ("ispy_p99_stall", Json::Num(r.ispy_p99 as f64)),
                ])
            })
            .collect();
        let tenants: Vec<Json> = self
            .tenant_reports
            .iter()
            .map(|t| {
                Json::obj([
                    ("tenant", Json::Str(t.tenant.clone())),
                    ("events", Json::Num(t.events as f64)),
                    ("base_mpki", Json::Num(t.base_mpki)),
                    ("asmdb_mpki", Json::Num(t.asmdb_mpki)),
                    ("ispy_mpki", Json::Num(t.ispy_mpki)),
                    ("base_p99_stall", Json::Num(t.base_p99 as f64)),
                    ("asmdb_p99_stall", Json::Num(t.asmdb_p99 as f64)),
                    ("ispy_p99_stall", Json::Num(t.ispy_p99 as f64)),
                    ("injections", Json::Num(t.injections as f64)),
                    ("pf_fired", Json::Num(t.outcome.fired as f64)),
                    ("pf_useful", Json::Num(t.outcome.useful as f64)),
                    ("pf_late", Json::Num(t.outcome.late as f64)),
                    ("pf_evicted_unused", Json::Num(t.outcome.evicted_unused as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("scenario", Json::Str(self.scenario.clone())),
            ("events", Json::Num(self.events as f64)),
            ("phases", Json::strs(&self.phases)),
            ("tenants", Json::strs(&self.tenants)),
            ("switches", Json::Num(self.switches as f64)),
            ("base_mpki", Json::Num(self.base_total.mpki())),
            ("asmdb_mpki", Json::Num(self.asmdb_total.mpki())),
            ("ispy_mpki", Json::Num(self.ispy_total.mpki())),
            ("ideal_speedup", Json::Num(self.ideal_total.speedup_over(&self.base_total))),
            ("asmdb_speedup", Json::Num(self.asmdb_total.speedup_over(&self.base_total))),
            ("ispy_speedup", Json::Num(self.ispy_total.speedup_over(&self.base_total))),
            (
                "ispy_pct_ideal",
                Json::Num(
                    100.0 * self.ispy_total.fraction_of_ideal(&self.base_total, &self.ideal_total),
                ),
            ),
            ("buckets", Json::Arr(rows)),
            ("tenant_totals", Json::Arr(tenants)),
        ])
        .to_pretty()
    }
}

/// The p99 of a sample set (0 when empty).
fn p99(samples: &mut [u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (samples.len() as f64 * 0.99).ceil() as usize;
    samples[rank.saturating_sub(1).min(samples.len() - 1)]
}

fn bucket_mpki(b: &Bucket) -> f64 {
    if b.instrs == 0 {
        0.0
    } else {
        b.misses as f64 * 1000.0 / b.instrs as f64
    }
}

/// What one replay produces: the run's counters, the per-(phase × tenant)
/// buckets, the request-boundary marks, and the ledger when one was attached.
type ReplayOutput = (SimResult, Vec<Bucket>, Vec<(u32, u64)>, Option<OutcomeLedger>);

/// One streamed replay of the compiled scenario with bucket attribution.
fn replay(
    sc: &CompiledScenario,
    cfg: &SimConfig,
    injections: Option<&InjectionMap>,
    is_boundary: &[bool],
    block_instrs: &[u16],
    with_ledger: Option<usize>,
) -> ReplayOutput {
    let mut obs = BucketObserver::new(is_boundary, block_instrs, sc.num_phases(), sc.num_tenants());
    let mut ledger = with_ledger.map(OutcomeLedger::with_capacity);
    let mut source = sc.source();
    let result = run_streaming(
        sc.program(),
        &mut source,
        cfg,
        RunOptions {
            injections,
            observer: Some(&mut obs),
            outcomes: ledger.as_mut(),
            ..Default::default()
        },
    )
    .expect("scenario sources cannot fail");
    (result, obs.buckets, obs.marks, ledger)
}

/// Per-request latencies from a run's boundary marks, each attributed to
/// the bucket its request *started* in.
fn request_latencies(marks: &[(u32, u64)]) -> Vec<(u32, u64)> {
    marks.windows(2).map(|w| (w[0].0, w[1].1 - w[0].1)).collect()
}

/// Runs the whole scenario experiment: train under interference, plan AsmDB
/// and I-SPY, stream the four replays, and bucket everything by (phase,
/// tenant). `spec` should already be scaled (see [`Scenario::scaled_down`]).
pub fn run_scenario(spec: &Scenario, events: u64) -> ScenarioOutcome {
    let sc = spec.compile(events);
    let program = sc.program();
    let schedule = Some(Arc::new(sc.schedule().clone()));
    let cfg = SimConfig { schedule: schedule.clone(), ..SimConfig::default() };
    let ideal_cfg = SimConfig { schedule, ..SimConfig::ideal() };

    // Training pass: materialize the interleaved trace once and profile it
    // under the same schedule, so the planners see the misses interference
    // actually causes (switch-evicted lines included).
    let mut src = sc.source();
    let mut blocks = Vec::with_capacity(events as usize);
    while let Some(chunk) = src.next_chunk().expect("scenario sources cannot fail") {
        blocks.extend_from_slice(chunk);
    }
    let trace = Trace::new(format!("{}-train", spec.name), blocks);
    let prof = profile(program, &trace, &cfg, SampleRate::EXACT);
    let asmdb_plan = AsmDbPlanner::new(program, &prof, AsmDbConfig::default()).plan();
    let ispy_plan = Planner::new(program, &trace, &prof, IspyConfig::default()).plan();
    drop(trace); // the replays below stream; keep peak memory bounded

    // Request boundaries and per-block instruction counts of the merged
    // program, shared by every replay's observer.
    let mut is_boundary = vec![false; program.num_blocks()];
    for path in program.request_paths() {
        if let Some(&f) = path.first() {
            is_boundary[program.func(f).entry().0 as usize] = true;
        }
    }
    let block_instrs: Vec<u16> = program.blocks().iter().map(|b| b.instrs()).collect();

    // The four replays are independent; `--jobs` parallelizes them.
    let runs: Vec<(Option<&InjectionMap>, &SimConfig, Option<usize>)> = vec![
        (None, &cfg, None),
        (None, &ideal_cfg, None),
        (Some(&asmdb_plan.injections), &cfg, None),
        (Some(&ispy_plan.injections), &cfg, Some(ispy_plan.provenance.len())),
    ];
    let mut results = ispy_parallel::par_map_vec(runs, |(inj, rcfg, led)| {
        replay(&sc, rcfg, inj, &is_boundary, &block_instrs, led)
    });
    let (ispy_total, ispy_buckets, ispy_marks, ledger) = results.pop().expect("four runs");
    let (asmdb_total, asmdb_buckets, asmdb_marks, _) = results.pop().expect("three runs");
    let (ideal_total, _ideal_buckets, ideal_marks, _) = results.pop().expect("two runs");
    let (base_total, base_buckets, base_marks, _) = results.pop().expect("one run");

    // Same trace => same request boundaries in every run; pair each request
    // against the ideal replay so its latency excess *is* front-end stall.
    assert_eq!(base_marks.len(), ideal_marks.len(), "boundary streams must align");
    assert_eq!(asmdb_marks.len(), ideal_marks.len(), "boundary streams must align");
    assert_eq!(ispy_marks.len(), ideal_marks.len(), "boundary streams must align");
    let ideal_lat = request_latencies(&ideal_marks);
    let buckets = sc.num_phases() * sc.num_tenants();
    let stalls_by_bucket = |marks: &[(u32, u64)]| -> Vec<Vec<u64>> {
        let mut per = vec![Vec::new(); buckets];
        for ((b, lat), (_, ideal)) in request_latencies(marks).iter().zip(ideal_lat.iter()) {
            per[*b as usize].push(lat.saturating_sub(*ideal));
        }
        per
    };
    let mut base_stalls = stalls_by_bucket(&base_marks);
    let mut asmdb_stalls = stalls_by_bucket(&asmdb_marks);
    let mut ispy_stalls = stalls_by_bucket(&ispy_marks);

    let tenant_names: Vec<String> =
        spec.tenants.iter().map(|t| t.model.name().to_string()).collect();
    let phase_names: Vec<String> = spec.phases.iter().map(|p| p.name.clone()).collect();

    let mut rows = Vec::new();
    for (p, phase_name) in phase_names.iter().enumerate() {
        for (t, tenant_name) in tenant_names.iter().enumerate() {
            let bi = p * sc.num_tenants() + t;
            if base_buckets[bi].events == 0 {
                continue; // the phase never started or the tenant never ran
            }
            rows.push(BucketRow {
                phase: phase_name.clone(),
                tenant: tenant_name.clone(),
                events: base_buckets[bi].events,
                requests: base_stalls[bi].len(),
                base_mpki: bucket_mpki(&base_buckets[bi]),
                asmdb_mpki: bucket_mpki(&asmdb_buckets[bi]),
                ispy_mpki: bucket_mpki(&ispy_buckets[bi]),
                base_p99: p99(&mut base_stalls[bi]),
                asmdb_p99: p99(&mut asmdb_stalls[bi]),
                ispy_p99: p99(&mut ispy_stalls[bi]),
            });
        }
    }

    // Per-tenant aggregates across phases, plus the ledger attribution:
    // provenance record i sits at a site block, and sites are tenant-owned.
    let tenant_of_injection: Vec<usize> =
        ispy_plan.provenance.iter().map(|r| sc.tenant_of_block(r.site) as usize).collect();
    let grouped = ledger
        .as_ref()
        .map(|l| l.grouped(sc.num_tenants(), |i| tenant_of_injection[i]))
        .unwrap_or_else(|| vec![InjectionOutcome::default(); sc.num_tenants()]);
    let mut tenant_reports = Vec::new();
    for t in 0..sc.num_tenants() {
        let fold = |set: &[Bucket]| {
            let mut agg = Bucket::default();
            for p in 0..sc.num_phases() {
                let b = &set[p * sc.num_tenants() + t];
                agg.events += b.events;
                agg.instrs += b.instrs;
                agg.misses += b.misses;
            }
            agg
        };
        let pool = |set: &[Vec<u64>]| -> Vec<u64> {
            (0..sc.num_phases())
                .flat_map(|p| set[p * sc.num_tenants() + t].iter().copied())
                .collect()
        };
        let (mut bs, mut as_, mut is_) =
            (pool(&base_stalls), pool(&asmdb_stalls), pool(&ispy_stalls));
        tenant_reports.push(TenantReport {
            tenant: tenant_names[t].clone(),
            events: fold(&base_buckets).events,
            base_mpki: bucket_mpki(&fold(&base_buckets)),
            asmdb_mpki: bucket_mpki(&fold(&asmdb_buckets)),
            ispy_mpki: bucket_mpki(&fold(&ispy_buckets)),
            base_p99: p99(&mut bs),
            asmdb_p99: p99(&mut as_),
            ispy_p99: p99(&mut is_),
            injections: tenant_of_injection.iter().filter(|&&x| x == t).count(),
            outcome: grouped[t],
        });
    }

    ScenarioOutcome {
        scenario: spec.name.clone(),
        events,
        phases: phase_names,
        tenants: tenant_names,
        switches: sc.schedule().switches().len(),
        rows,
        tenant_reports,
        base_total,
        ideal_total,
        asmdb_total,
        ispy_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> ScenarioOutcome {
        let spec = Scenario::preset("burst").unwrap().scaled_down(20);
        run_scenario(&spec, 30_000)
    }

    #[test]
    fn scenario_run_is_deterministic_and_attributed() {
        let a = outcome();
        let b = outcome();
        assert_eq!(a.to_json(), b.to_json(), "two runs must serialize identically");
        // Every tenant executed something, and bucket events sum to the trace.
        let total: u64 = a.rows.iter().map(|r| r.events).sum();
        assert_eq!(total, a.events);
        for t in &a.tenant_reports {
            assert!(t.events > 0, "tenant {} never ran", t.tenant);
        }
        assert!(a.switches > 0, "multi-tenant scenarios must switch");
    }

    #[test]
    fn prefetching_beats_the_baseline_under_interference() {
        let a = outcome();
        assert!(
            a.ispy_total.mpki() < a.base_total.mpki(),
            "I-SPY must cut MPKI: {} vs {}",
            a.ispy_total.mpki(),
            a.base_total.mpki()
        );
        // Injection attribution is conserved: per-tenant fired counts sum to
        // the run's total fired ops.
        let fired: u64 = a.tenant_reports.iter().map(|t| t.outcome.fired).sum();
        assert_eq!(fired, a.ispy_total.pf_ops_fired);
    }

    #[test]
    fn jobs_do_not_change_the_answer() {
        // par_map_vec is index-deterministic, but pin it down: 1 worker and
        // the ambient pool must serialize to the same bytes.
        ispy_parallel::set_threads(1);
        let serial = outcome().to_json();
        ispy_parallel::set_threads(0);
        assert_eq!(serial, outcome().to_json());
    }
}
