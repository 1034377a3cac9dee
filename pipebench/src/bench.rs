//! The measurement loop shared by the workloads: repeated set-up, timed
//! repetitions, per-job latencies, telemetry snapshots, and the metrics
//! derived from them.

use crate::check::Checks;
use crate::spans::{self, Phase, Span, Tracer};
use crate::stats;
use ispy_harness::Scale;
use ispy_telemetry::SpanStat;
use ispy_trace::{AppModel, InputSpec};
use std::collections::BTreeMap;
use std::time::Instant;

/// Every workload runs at this scale (the repository's test scale: app
/// footprints shrunk 20×, 50k-event traces), so that one run — three
/// set-ups plus the timed repetitions — fits well inside a minute.
pub const SCALE: Scale = Scale { shrink: 20, events: 50_000 };

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// The seed whose inputs are the app models' own defaults.
pub const DEFAULT_SEED: u64 = 0;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derives the seed of a workload's `input`-th input (0, 1, ..) from a
/// model's own seed and the workload seed. Input 0 at the default seed
/// keeps the model's seed.
pub fn derive_seed(base: u64, seed: u64, input: usize) -> u64 {
    if seed == DEFAULT_SEED && input == 0 {
        base
    } else {
        splitmix(base ^ splitmix(seed ^ splitmix(input as u64)))
    }
}

/// The `input`-th profiled input of `model` under the workload seed: the
/// model's request mix with a derived interleaving seed.
pub fn profiled_input(model: &AppModel, seed: u64, input: usize) -> InputSpec {
    let d = model.default_input();
    let s = derive_seed(d.seed(), seed, input);
    d.with_seed(s)
}

/// Drift input variant `k` of `model` under the workload seed.
pub fn variant_input(model: &AppModel, k: usize, seed: u64) -> InputSpec {
    let v = model.input_variant(k);
    let s = derive_seed(v.seed(), seed, 0);
    v.with_seed(s)
}

/// Records the latency of each job of one repetition.
#[derive(Default)]
pub struct Jobs {
    ms: Vec<f64>,
}

impl Jobs {
    /// Runs and times one job.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let v = f();
        self.ms.push(t0.elapsed().as_secs_f64() * 1e3);
        v
    }

    /// Adds latencies measured elsewhere (on the replanner's thread).
    pub fn extend(&mut self, ms: impl IntoIterator<Item = f64>) {
        self.ms.extend(ms);
    }
}

/// Telemetry counters and span totals (`<name>_ms`) gained over a phase.
type Tele = BTreeMap<String, f64>;

fn tele_snapshot() -> (BTreeMap<String, u64>, BTreeMap<String, SpanStat>) {
    let t = ispy_telemetry::global();
    (t.counters(), t.spans())
}

fn tele_since(before: &(BTreeMap<String, u64>, BTreeMap<String, SpanStat>)) -> Tele {
    let (counters, spans) = tele_snapshot();
    let mut d = Tele::new();
    for (k, v) in counters {
        d.insert(k.clone(), (v - before.0.get(&k).copied().unwrap_or(0)) as f64);
    }
    for (k, s) in spans {
        let was = before.1.get(&k).map_or(0, |b| b.total_ns);
        d.insert(format!("{k}_ms"), (s.total_ns - was) as f64 / 1e6);
    }
    d
}

/// One benchmark run of one workload.
pub struct Bench {
    /// Workload seed.
    pub seed: u64,
    seconds: f64,
    traced: bool,
    /// Span recorder (enabled only on traced repetitions).
    pub tracer: Tracer,
    /// Output checks.
    pub checks: Checks,
    setup_s: Vec<f64>,
    /// Wall seconds of each repetition, and whether it was traced.
    reps: Vec<(bool, f64)>,
    job_ms: Vec<f64>,
    setup_tele: Tele,
    timed_tele: Tele,
    peak_rss_mb: f64,
    /// Values the workload computes itself: simulated results, and counts
    /// per repetition.
    pub values: BTreeMap<&'static str, f64>,
}

impl Bench {
    /// A run measuring for `seconds`; `traced` runs alternate traced and
    /// untraced repetitions.
    pub fn new(seed: u64, seconds: f64, traced: bool, checks: Checks) -> Self {
        Bench {
            seed,
            seconds,
            traced,
            tracer: Tracer::new(),
            checks,
            setup_s: Vec::new(),
            reps: Vec::new(),
            job_ms: Vec::new(),
            setup_tele: Tele::new(),
            timed_tele: Tele::new(),
            peak_rss_mb: 0.0,
            values: BTreeMap::new(),
        }
    }

    /// Runs the set-up [`SETUPS`] times, timing each, and keeps the last.
    pub fn setup<T>(&mut self, mut f: impl FnMut(&Tracer) -> T) -> T {
        self.tracer.set_phase(Phase::Setup);
        self.tracer.enable(self.traced);
        let before = tele_snapshot();
        let mut kept = None;
        for _ in 0..SETUPS {
            drop(kept.take());
            let t0 = Instant::now();
            let v = {
                let _s = self.tracer.span("bench.setup", "");
                f(&self.tracer)
            };
            self.setup_s.push(t0.elapsed().as_secs_f64());
            kept = Some(v);
        }
        self.tracer.enable(false);
        self.setup_tele = tele_since(&before);
        kept.expect("SETUPS is positive")
    }

    /// Repeats `rep` until the run has measured for its seconds, has run at
    /// least `min_reps` repetitions, and the job latencies have a ten-sample
    /// tail beyond p90. `rep` gets the repetition's index. Each
    /// repetition's output goes to `verify` after its clock stops.
    pub fn timed<R>(
        &mut self,
        min_reps: usize,
        mut rep: impl FnMut(usize, &Tracer, &mut Jobs) -> R,
        mut verify: impl FnMut(&mut Checks, R),
    ) {
        ispy_harness::rss::reset_peak_rss();
        let before = tele_snapshot();
        let start = Instant::now();
        loop {
            let traced = self.traced && self.reps.len().is_multiple_of(2);
            self.tracer.set_phase(Phase::Timed);
            self.tracer.enable(traced);
            let mut jobs = Jobs::default();
            let t0 = Instant::now();
            let out = {
                let _s = self.tracer.span("bench.rep", "");
                rep(self.reps.len(), &self.tracer, &mut jobs)
            };
            let wall = t0.elapsed().as_secs_f64();
            self.tracer.enable(false);
            self.reps.push((traced, wall));
            self.job_ms.extend(jobs.ms);
            verify(&mut self.checks, out);
            let long_enough = start.elapsed().as_secs_f64() >= self.seconds;
            let tail = stats::samples_beyond(self.job_ms.len(), 90.0) >= stats::MIN_TAIL;
            // Traced runs time two repetitions of each kind, so the
            // overhead compares medians rather than one cold repetition.
            let both_kinds = !self.traced || self.reps.len() >= 4;
            if long_enough && tail && both_kinds && self.reps.len() >= min_reps {
                break;
            }
        }
        self.timed_tele = tele_since(&before);
        self.peak_rss_mb =
            ispy_harness::rss::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1u64 << 20) as f64);
    }

    fn walls(&self, traced: bool) -> Vec<f64> {
        self.reps.iter().filter(|r| r.0 == traced).map(|r| r.1).collect()
    }

    /// End-to-end metrics (from untraced repetitions), in [`END_TO_END`]
    /// order.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let mut jobs = self.job_ms.clone();
        jobs.sort_by(f64::total_cmp);
        let untraced = self.walls(false);
        let wall = if untraced.is_empty() { self.walls(true) } else { untraced };
        let v = |k: &str| self.values.get(k).copied().unwrap_or(0.0);
        let values = [
            stats::median(&self.setup_s),
            stats::median(&wall),
            stats::percentile(&jobs, 50.0),
            stats::percentile(&jobs, 90.0),
            self.peak_rss_mb,
            v("ispy_pct_of_ideal"),
            v("ispy_mpki"),
            v("ispy_vs_asmdb"),
        ];
        END_TO_END.iter().zip(values).map(|(&(name, unit), value)| (name, value, unit)).collect()
    }

    /// Values logged beside the end-to-end metrics but not gated: they are
    /// zero, or undefined, on some workloads.
    pub fn logged(&self) -> Vec<Metric> {
        let mut out = vec![
            ("fail_frac", self.checks.fail_frac(), "fraction"),
            ("jobs", self.job_ms.len() as f64, "count"),
            ("reps", self.reps.len() as f64, "count"),
        ];
        let walls: Vec<f64> = self.reps.iter().map(|r| r.1).collect();
        out.push(("rep_wall_min_s", walls.iter().copied().fold(f64::INFINITY, f64::min), "s"));
        out.push(("rep_wall_max_s", walls.iter().copied().fold(0.0, f64::max), "s"));
        if let Some(&g) = self.values.get("adapt_gap_pct") {
            out.push(("adapt_gap_pct", g, "%"));
        }
        out
    }

    /// Per-layer metrics from the traced repetitions, as `(reported,
    /// detail)`: the reported ones are defined and timed on every workload;
    /// the detail ones are workload-specific and only logged.
    pub fn per_layer(&self, spans: &[Span]) -> (Vec<Metric>, Vec<Metric>) {
        let agg = Aggregate::new(self, spans);
        let eval = |list: &[(&'static str, &'static str, Src)]| -> Vec<Metric> {
            list.iter().map(|&(name, unit, src)| (name, agg.eval(self, src), unit)).collect()
        };
        let mut reported = eval(PER_LAYER);
        for layer in LAYERS {
            reported.push((layer.1, agg.layer_pct(layer.0), "%"));
        }
        let traced = stats::median(&self.walls(true));
        let untraced = self.walls(false);
        let overhead = if untraced.is_empty() {
            0.0
        } else {
            (traced / stats::median(&untraced) - 1.0) * 100.0
        };
        reported.push(("trace_overhead_pct", overhead, "%"));
        (reported, eval(DETAIL))
    }
}

/// `(name, value, unit)`.
pub type Metric = (&'static str, f64, &'static str);

/// End-to-end metrics and their units. The simulated ones repeat exactly
/// for a given seed.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ispy_pct_of_ideal", "%"),
    ("ispy_mpki", "MPKI"),
    ("ispy_vs_asmdb", "x"),
];

/// Where a per-layer metric comes from.
#[derive(Clone, Copy)]
enum Src {
    /// Self time of the named span.
    SelfMs(&'static str),
    /// Inclusive duration of the named span.
    InclMs(&'static str),
    /// Work recorded on the named spans.
    Work(&'static [&'static str]),
    /// Work per self-second of the named span, over the whole run.
    Rate(&'static str),
    /// A telemetry counter, or a telemetry span total (`<name>_ms`).
    Tele(&'static str),
    /// `memo_hits / (memo_hits + memo_misses)`.
    MemoFrac,
    /// A value the workload computed.
    Value(&'static str),
}

/// Per-layer metrics reported by traced runs. Span-derived values are per
/// timed repetition when the span runs in the timed phase, and per set-up
/// otherwise; see `pipebench/README.md`.
const PER_LAYER: &[(&str, &str, Src)] = &[
    ("core.plan_ms", "ms", Src::SelfMs("core.plan")),
    ("core.window.searches", "count", Src::Tele("core.window.searches")),
    ("core.window.nodes_expanded", "count", Src::Tele("core.window.nodes_expanded")),
    ("core.context.subsets_evaluated", "count", Src::Tele("core.context.subsets_evaluated")),
    ("core.coalesce.calls", "count", Src::Tele("core.coalesce.calls")),
    ("core.plan.ops_emitted", "count", Src::Tele("core.plan.ops_emitted")),
    ("core.plan.memo_hits", "count", Src::Tele("core.plan.memo_hits")),
    ("core.plan.memo_misses", "count", Src::Tele("core.plan.memo_misses")),
    ("core.plan.memo_hit_frac", "fraction", Src::MemoFrac),
    ("profile.collect_ms", "ms", Src::SelfMs("profile.collect")),
    ("profile.observe_replay_ms", "ms", Src::Tele("profile.observe_replay_ms")),
    ("profile.misses_recorded", "count", Src::Tele("profile.misses_recorded")),
    ("trace.blocks", "count", Src::Work(&["trace.record", "scenario.source"])),
    ("baselines.asmdb_plan_ms", "ms", Src::SelfMs("baselines.asmdb_plan")),
    ("isa.compile_ms", "ms", Src::SelfMs("isa.compile")),
    ("isa.ops_lowered", "count", Src::Work(&["isa.compile"])),
    ("artifact.bytes_decoded", "bytes", Src::Work(&["artifact.decode"])),
    ("sim.replay_ms", "ms", Src::SelfMs("sim.replay")),
    (
        "sim.blocks",
        "count",
        Src::Work(&["sim.replay", "sim.stream_replay", "sim.adaptive", "scenario.replay"]),
    ),
    ("sim.blocks_per_s", "1/s", Src::Rate("sim.replay")),
    ("sim.swaps", "count", Src::Value("sim.swaps")),
    ("sim.pf_useful_frac", "fraction", Src::Value("sim.pf_useful_frac")),
    ("sim.pf_fired_frac", "fraction", Src::Value("sim.pf_fired_frac")),
    ("sim.pf_late_frac", "fraction", Src::Value("sim.pf_late_frac")),
    ("scenario.switches", "count", Src::Value("scenario.switches")),
    ("harness.report_ms", "ms", Src::SelfMs("harness.report")),
];

/// Workload-specific layer times, logged by traced runs.
const DETAIL: &[(&str, &str, Src)] = &[
    ("trace.generate_ms", "ms", Src::SelfMs("trace.generate")),
    ("trace.record_ms", "ms", Src::SelfMs("trace.record")),
    ("core.replan_delta_ms", "ms", Src::SelfMs("core.replan_delta")),
    ("profile.window_delta_ms", "ms", Src::SelfMs("profile.window_delta")),
    ("profile.fold_ms", "ms", Src::SelfMs("profile.fold")),
    ("artifact.encode_ms", "ms", Src::SelfMs("artifact.encode")),
    ("artifact.decode_ms", "ms", Src::SelfMs("artifact.decode")),
    ("sim.stream_replay_ms", "ms", Src::SelfMs("sim.stream_replay")),
    ("sim.adaptive_ms", "ms", Src::InclMs("sim.adaptive")),
    ("sim.adaptive_replan_busy_ms", "ms", Src::InclMs("bench.replan")),
    ("scenario.compile_ms", "ms", Src::SelfMs("scenario.compile")),
    ("scenario.replay_ms", "ms", Src::SelfMs("scenario.replay")),
];

/// Layers, and the metric giving each one's share of the timed phase.
const LAYERS: [(&str, &str); 10] = [
    ("trace", "trace.self_pct"),
    ("profile", "profile.self_pct"),
    ("core", "core.self_pct"),
    ("baselines", "baselines.self_pct"),
    ("isa", "isa.self_pct"),
    ("artifact", "artifact.self_pct"),
    ("sim", "sim.self_pct"),
    ("scenario", "scenario.self_pct"),
    ("harness", "harness.self_pct"),
    ("bench", "bench.self_pct"),
];

/// Every per-layer metric name a traced run reports, in order.
#[cfg(test)]
pub fn reported_names() -> Vec<(&'static str, &'static str)> {
    let mut v: Vec<_> = PER_LAYER.iter().map(|m| (m.0, m.1)).collect();
    v.extend(LAYERS.iter().map(|l| (l.1, "%")));
    v.push(("trace_overhead_pct", "%"));
    v
}

/// Every logged detail metric name.
#[cfg(test)]
fn detail_names() -> Vec<&'static str> {
    DETAIL.iter().map(|m| m.0).collect()
}

/// Span totals by (phase, name).
struct Aggregate {
    /// `(self ns, inclusive ns, work)` per span name, per phase.
    setup: BTreeMap<&'static str, (u64, u64, u64)>,
    timed: BTreeMap<&'static str, (u64, u64, u64)>,
    layer_timed_ns: BTreeMap<&'static str, u64>,
    traced_reps: f64,
    traced_wall_ns: f64,
}

impl Aggregate {
    fn new(bench: &Bench, spans: &[Span]) -> Self {
        let selfs = spans::self_times(spans);
        let mut setup = BTreeMap::new();
        let mut timed = BTreeMap::new();
        let mut layer_timed_ns = BTreeMap::new();
        for (s, own) in spans.iter().zip(selfs) {
            let map = match s.phase {
                Phase::Setup => &mut setup,
                Phase::Timed => &mut timed,
            };
            let e: &mut (u64, u64, u64) = map.entry(s.name).or_default();
            e.0 += own;
            e.1 += s.end_ns - s.start_ns;
            e.2 += s.work;
            if s.phase == Phase::Timed {
                *layer_timed_ns.entry(s.layer()).or_default() += own;
            }
        }
        let traced = bench.walls(true);
        Aggregate {
            setup,
            timed,
            layer_timed_ns,
            traced_reps: traced.len().max(1) as f64,
            traced_wall_ns: traced.iter().sum::<f64>() * 1e9,
        }
    }

    /// Per timed repetition if the spans ran in the timed phase, else per
    /// set-up.
    fn per_unit(&self, names: &[&str], pick: impl Fn(&(u64, u64, u64)) -> u64) -> f64 {
        let sum = |m: &BTreeMap<&'static str, (u64, u64, u64)>| -> u64 {
            names.iter().filter_map(|n| m.get(n)).map(&pick).sum()
        };
        let timed = sum(&self.timed);
        if timed > 0 {
            timed as f64 / self.traced_reps
        } else {
            sum(&self.setup) as f64 / SETUPS as f64
        }
    }

    fn eval(&self, bench: &Bench, src: Src) -> f64 {
        let tele = |k: &str| {
            let t = bench.timed_tele.get(k).copied().unwrap_or(0.0);
            if t > 0.0 {
                t / bench.reps.len().max(1) as f64
            } else {
                bench.setup_tele.get(k).copied().unwrap_or(0.0) / SETUPS as f64
            }
        };
        match src {
            Src::SelfMs(n) => self.per_unit(&[n], |e| e.0) / 1e6,
            Src::InclMs(n) => self.per_unit(&[n], |e| e.1) / 1e6,
            Src::Work(ns) => self.per_unit(ns, |e| e.2),
            Src::Rate(n) => {
                let (own, work) = [&self.setup, &self.timed]
                    .iter()
                    .filter_map(|m| m.get(n))
                    .fold((0, 0), |a, e| (a.0 + e.0, a.1 + e.2));
                if own == 0 {
                    0.0
                } else {
                    work as f64 / (own as f64 / 1e9)
                }
            }
            Src::Tele(k) => tele(k),
            Src::MemoFrac => {
                let (h, m) = (tele("core.plan.memo_hits"), tele("core.plan.memo_misses"));
                if h + m > 0.0 {
                    h / (h + m)
                } else {
                    0.0
                }
            }
            Src::Value(k) => bench.values.get(k).copied().unwrap_or(0.0),
        }
    }

    fn layer_pct(&self, layer: &str) -> f64 {
        if self.traced_wall_ns <= 0.0 {
            return 0.0;
        }
        self.layer_timed_ns.get(layer).copied().unwrap_or(0) as f64 / self.traced_wall_ns * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispy_trace::apps;

    #[test]
    fn the_default_seed_reproduces_the_models_inputs() {
        let m = apps::kafka();
        assert_eq!(profiled_input(&m, DEFAULT_SEED, 0), m.default_input());
        assert_eq!(variant_input(&m, 3, DEFAULT_SEED), m.input_variant(3));
        assert_ne!(profiled_input(&m, DEFAULT_SEED, 1), m.default_input());
        assert_ne!(profiled_input(&m, 1, 0), m.default_input());
        assert_eq!(profiled_input(&m, 7, 2), profiled_input(&m, 7, 2));
        assert_ne!(profiled_input(&m, 7, 0), profiled_input(&m, 8, 0));
        assert_ne!(profiled_input(&m, 7, 0), profiled_input(&m, 7, 1));
        // Only the interleaving seed moves; the request mix is the model's.
        assert_eq!(profiled_input(&m, 7, 1).weights(), m.default_input().weights());
    }

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut names: Vec<&str> = reported_names().iter().map(|m| m.0).collect();
        names.extend(detail_names());
        names.extend(END_TO_END.iter().map(|m| m.0));
        for n in &names {
            assert!(stats::valid_metric_name(n), "{n}");
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
