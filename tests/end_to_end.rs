//! Cross-crate integration: the full profile → plan → replay pipeline
//! reproduces the paper's qualitative results on every application.

use ispy_harness::{Scale, Session};
use ispy_trace::apps;

/// The headline orderings (Fig. 10/11) hold on every app, even at test
/// scale: ideal ≥ I-SPY > baseline, and I-SPY eliminates the majority of
/// misses.
#[test]
fn ispy_beats_baseline_on_every_app() {
    let session = Session::new(Scale::test());
    for i in 0..session.apps().len() {
        let name = session.apps()[i].name();
        let c = session.comparison(i);
        assert!(c.baseline.i_misses > 0, "{name}: workload must miss");
        assert!(
            c.ispy.cycles < c.baseline.cycles,
            "{name}: I-SPY must speed up ({} vs {})",
            c.ispy.cycles,
            c.baseline.cycles
        );
        assert!(c.ideal.cycles <= c.ispy.cycles, "{name}: nothing beats the ideal cache");
        // At this tiny test scale the smallest apps (finagle-*) have few,
        // mostly-cold misses; the bar is meaningful but scale-aware. The
        // full-scale numbers live in EXPERIMENTS.md.
        assert!(
            c.ispy.mpki_reduction_vs(&c.baseline) > 0.25,
            "{name}: I-SPY should remove a large share of misses, got {:.2}",
            c.ispy.mpki_reduction_vs(&c.baseline)
        );
    }
}

/// I-SPY outperforms the AsmDB baseline in aggregate (the paper's +22.4%).
#[test]
fn ispy_outperforms_asmdb_in_aggregate() {
    let session = Session::new(Scale::test());
    let mut ispy_total = 0.0;
    let mut asmdb_total = 0.0;
    for i in 0..session.apps().len() {
        let c = session.comparison(i);
        ispy_total += c.ispy.speedup_over(&c.baseline);
        asmdb_total += c.asmdb.speedup_over(&c.baseline);
    }
    assert!(
        ispy_total > asmdb_total,
        "mean I-SPY speedup {ispy_total} must exceed AsmDB {asmdb_total}"
    );
}

/// The injected binary only helps because of its conditional/coalesced ops:
/// plans are non-trivial on every app.
#[test]
fn plans_are_nontrivial() {
    let session = Session::new(Scale::test());
    for i in 0..session.apps().len() {
        let c = session.comparison(i);
        let s = &c.ispy_plan.stats;
        let name = session.apps()[i].name();
        assert!(s.ops_total() > 0, "{name}: empty plan");
        assert!(s.planned_coverage() > 0.3, "{name}: low planned coverage");
        assert!(s.static_increase > 0.0 && s.static_increase < 0.2, "{name}: absurd footprint");
    }
}

/// Input drift (Fig. 16): a plan profiled on input 0 still helps on a
/// rotated request mix.
#[test]
fn drifted_input_still_benefits() {
    let session = Session::with_apps(Scale::test(), vec![apps::wordpress()]);
    let ctx = &session.apps()[0];
    let c = session.comparison(0);
    let scfg = ispy_sim::SimConfig::default();
    let events = 40_000;
    let trace = ctx.variant_trace(2, events);
    let base = ispy_sim::run(&ctx.program, &trace, &scfg, ispy_sim::RunOptions::default());
    let injections = Some(&c.ispy_plan.injections);
    let opts = ispy_sim::RunOptions { injections, ..Default::default() };
    let with = ispy_sim::run(&ctx.program, &trace, &scfg, opts);
    assert!(
        with.cycles < base.cycles,
        "drifted input must still speed up: {} vs {}",
        with.cycles,
        base.cycles
    );
}

/// Frontend-boundness (Fig. 1): the nine apps stall meaningfully on
/// instruction fetch without prefetching.
#[test]
fn workloads_are_frontend_bound() {
    let session = Session::new(Scale::test());
    let mut bound = 0;
    for i in 0..session.apps().len() {
        let c = session.comparison(i);
        if c.baseline.frontend_bound() > 0.10 {
            bound += 1;
        }
    }
    assert!(bound >= 6, "most apps should stall >10% on fetch, got {bound}/9");
}
