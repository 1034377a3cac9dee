//! The `--metrics` export: telemetry registries and per-app
//! injection-outcome histograms, as [`Json`] values.
//!
//! [`telemetry_summary`] renders the counters and spans recorded by
//! [`ispy_telemetry`] — *how much work* each pipeline phase did.
//! [`outcome_summary`] covers *what the injections achieved*: for every app
//! whose [`Comparison`](crate::Comparison) the session computed, each
//! planned injection is classified by its dominant runtime outcome and the
//! classes are counted into a histogram.

use crate::json::{round2, Json};
use crate::session::Session;
use ispy_sim::{InjectionOutcome, SimResult};
use ispy_telemetry::Telemetry;
use std::fmt::Write as _;

/// Renders one run's metrics as canonical `key=value` lines under an app
/// `name` header — the textual fingerprint `repro replay` prints and the
/// record/replay golden tests compare byte-for-byte. Every raw counter is
/// included; derived `f64` metrics use Rust's shortest-round-trip
/// formatting, so equal results render to equal bytes and vice versa.
pub fn result_lines(name: &str, r: &SimResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "[{name}]");
    for (key, v) in [
        ("cycles", r.cycles),
        ("instrs", r.instrs),
        ("base_instrs", r.base_instrs),
        ("blocks", r.blocks),
        ("i_accesses", r.i_accesses),
        ("i_misses", r.i_misses),
        ("i_stall_cycles", r.i_stall_cycles),
        ("d_accesses", r.d_accesses),
        ("d_misses", r.d_misses),
        ("d_stall_cycles", r.d_stall_cycles),
        ("pf_ops_executed", r.pf_ops_executed),
        ("pf_ops_fired", r.pf_ops_fired),
        ("pf_ops_suppressed", r.pf_ops_suppressed),
        ("pf_lines_issued", r.pf_lines_issued),
        ("pf_lines_resident", r.pf_lines_resident),
        ("pf_useful", r.pf_useful),
        ("pf_late", r.pf_late),
        ("pf_evicted_unused", r.pf_evicted_unused),
    ] {
        let _ = writeln!(out, "{key}={v}");
    }
    for (key, v) in [
        ("mpki", r.mpki()),
        ("ipc", r.ipc()),
        ("frontend_bound", r.frontend_bound()),
        ("accuracy", r.accuracy()),
    ] {
        let _ = writeln!(out, "{key}={v:?}");
    }
    out
}

/// Dominant-outcome classes, in the order they render.
const CLASSES: [&str; 6] =
    ["useful", "late_only", "wasted", "always_suppressed", "never_executed", "pending"];

/// Classifies one injection by what dominated its runtime behaviour.
fn classify(o: &InjectionOutcome) -> &'static str {
    if o.executed == 0 {
        "never_executed"
    } else if o.fired == 0 {
        "always_suppressed"
    } else if o.useful > 0 {
        "useful"
    } else if o.late > 0 {
        "late_only"
    } else if o.evicted_unused > 0 {
        "wasted"
    } else {
        // Fired, but no line settled (still resident or in flight at exit).
        "pending"
    }
}

/// Per-app injection-outcome histograms:
/// `{"apps": {"<name>": {"injections": n, "totals": {...}, "histogram":
/// {...}}}}`. Apps are reported in session order; each app's comparison is
/// computed (and cached) on demand.
pub fn outcome_summary(session: &Session) -> Json {
    let apps = session.apps().iter().enumerate().map(|(i, app)| {
        let cmp = session.comparison(i);
        let ledger = &cmp.ispy_outcomes;
        let total = |f: fn(&InjectionOutcome) -> u64| Json::Num(ledger.total(f) as f64);
        let histogram = CLASSES.map(|class| {
            let n = ledger.per_injection.iter().filter(|o| classify(o) == class).count();
            (class, Json::Num(n as f64))
        });
        let summary = Json::obj([
            ("injections", Json::Num(ledger.per_injection.len() as f64)),
            (
                "totals",
                Json::obj([
                    ("executed", total(|o| o.executed)),
                    ("fired", total(|o| o.fired)),
                    ("suppressed", total(|o| o.suppressed)),
                    ("lines_issued", total(|o| o.lines_issued)),
                    ("lines_resident", total(|o| o.lines_resident)),
                    ("useful", total(|o| o.useful)),
                    ("late", total(|o| o.late)),
                    ("evicted_unused", total(|o| o.evicted_unused)),
                ]),
            ),
            ("histogram", Json::obj(histogram)),
        ]);
        (app.name(), summary)
    });
    Json::obj([("apps", Json::obj(apps))])
}

/// How much of a registry [`telemetry_summary`] renders.
///
/// # Examples
///
/// ```
/// use ispy_harness::metrics::{telemetry_summary, TimingMode};
/// use ispy_telemetry::Telemetry;
///
/// let tele = Telemetry::new();
/// drop(tele.span("p"));
/// assert!(telemetry_summary(&tele, TimingMode::Full).to_pretty().contains("total_ms"));
/// assert!(!telemetry_summary(&tele, TimingMode::Deterministic).to_pretty().contains("total_ms"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingMode {
    /// Counters, span counts, and span wall times.
    Full,
    /// Counters and span counts only — byte-identical output regardless of
    /// thread count or machine speed.
    Deterministic,
}

/// A telemetry registry's counters and spans, sorted by name:
/// `{"counters": {..}, "spans": {"name": {"count": n[, "total_ms": x]}}}`.
///
/// [`TimingMode::Deterministic`] omits `total_ms` so the bytes depend only
/// on the work performed, not on how fast or how parallel it ran. `total_ms`
/// is rounded to the writer's two decimals.
///
/// # Examples
///
/// ```
/// use ispy_harness::metrics::{telemetry_summary, TimingMode};
/// use ispy_telemetry::Telemetry;
///
/// let tele = Telemetry::new();
/// {
///     let _phase = tele.span("plan");
///     tele.add("plan.lines", 3);
/// }
/// let json = telemetry_summary(&tele, TimingMode::Deterministic).to_pretty();
/// assert!(json.contains("\"plan.lines\": 3"));
/// ```
pub fn telemetry_summary(tele: &Telemetry, mode: TimingMode) -> Json {
    let counters = tele.counters().into_iter().map(|(name, n)| (name, Json::Num(n as f64)));
    let spans = tele.spans().into_iter().map(|(name, stat)| {
        let mut span = Json::obj([("count", Json::Num(stat.count as f64))]);
        if mode == TimingMode::Full {
            span.set("total_ms", Json::Num(round2(stat.total_ms())));
        }
        (name, span)
    });
    Json::obj([("counters", Json::obj(counters)), ("spans", Json::obj(spans))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Scale;
    use ispy_trace::apps;

    #[test]
    fn classification_covers_the_outcome_space() {
        let mut o = InjectionOutcome::default();
        assert_eq!(classify(&o), "never_executed");
        o.executed = 2;
        o.suppressed = 2;
        assert_eq!(classify(&o), "always_suppressed");
        o.fired = 1;
        assert_eq!(classify(&o), "pending");
        o.evicted_unused = 1;
        assert_eq!(classify(&o), "wasted");
        o.late = 1;
        assert_eq!(classify(&o), "late_only");
        o.useful = 1;
        assert_eq!(classify(&o), "useful");
    }

    #[test]
    fn summary_renders_every_app_and_class() {
        let s = Session::with_apps(Scale::test(), vec![apps::cassandra()]);
        let j = outcome_summary(&s);
        let app = j.get("apps").and_then(|a| a.get("cassandra")).expect("cassandra reported");
        let n = s.comparison(0).ispy_outcomes.per_injection.len();
        assert_eq!(app.get("injections").and_then(Json::as_f64), Some(n as f64));
        // Histogram classes partition the injections.
        let histogram = app.get("histogram").expect("histogram");
        let counted: f64 = CLASSES
            .iter()
            .map(|class| histogram.get(class).and_then(Json::as_f64).expect("every class"))
            .sum();
        assert_eq!(counted, n as f64);
    }

    #[test]
    fn deterministic_json_has_no_timings_and_is_sorted() {
        let t = Telemetry::new();
        t.add("z.last", 1);
        t.add("a.first", 2);
        drop(t.span("phase"));
        let j = telemetry_summary(&t, TimingMode::Deterministic).to_pretty();
        assert!(!j.contains("total_ms"));
        assert!(j.contains("\"phase\": {\n      \"count\": 1\n    }"));
        let a = j.find("a.first").unwrap();
        let z = j.find("z.last").unwrap();
        assert!(a < z, "keys must render in sorted order");
        // Identical work renders identical bytes.
        let t2 = Telemetry::new();
        t2.add("a.first", 2);
        t2.add("z.last", 1);
        drop(t2.span("phase"));
        assert_eq!(j, telemetry_summary(&t2, TimingMode::Deterministic).to_pretty());
    }

    #[test]
    fn full_json_includes_wall_time() {
        let t = Telemetry::new();
        drop(t.span("p"));
        let j = telemetry_summary(&t, TimingMode::Full);
        let span = j.get("spans").and_then(|s| s.get("p")).expect("span p");
        assert_eq!(span.get("count").and_then(Json::as_f64), Some(1.0));
        assert!(span.get("total_ms").and_then(Json::as_f64).is_some());
    }

    #[test]
    fn empty_registry_renders_empty_objects() {
        let t = Telemetry::new();
        assert_eq!(
            telemetry_summary(&t, TimingMode::Deterministic).to_pretty(),
            "{\n  \"counters\": {},\n  \"spans\": {}\n}\n"
        );
    }

    #[test]
    fn json_escapes_names() {
        let t = Telemetry::new();
        t.add("weird\"name", 1);
        let j = telemetry_summary(&t, TimingMode::Deterministic).to_pretty();
        assert!(j.contains("weird\\\"name"));
    }
}
