//! Planner work counts, accumulated in a local value and added to telemetry
//! once.
//!
//! The window search, its per-line filter and context discovery run
//! thousands of times per plan. Each used to fetch the global registry and
//! lock it for every counter; now they add into a [`WorkCounters`] that the
//! planner flushes once per plan (and the public one-shot entry points,
//! [`crate::window::find_candidates`] and
//! [`crate::context::discover_multi`], once per call). The totals are
//! unchanged: a flush adds exactly what the per-call adds summed to.

use crate::context::ContextChoice;
use ispy_telemetry::Telemetry;

/// Work done by window searches, window filters and context discoveries.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WorkCounters {
    /// Window searches run (`core.window.searches`).
    pub(crate) searches: u64,
    /// CFG nodes they settled (`core.window.nodes_expanded`).
    pub(crate) nodes_expanded: u64,
    /// Searches filtered by a cycle floor.
    pub(crate) filters: u64,
    /// In-window candidates those filters kept (`core.window.candidates_found`).
    pub(crate) candidates_found: u64,
    /// Settled predecessors outside the window (`core.window.rejected_untimely`).
    pub(crate) rejected_untimely: u64,
    /// Context searches with something to search (`core.context.queries`).
    pub(crate) context_queries: u64,
    /// Subsets they scored (`core.context.subsets_evaluated`).
    pub(crate) subsets_evaluated: u64,
    /// Contexts they chose (`core.context.contexts_adopted`).
    pub(crate) contexts_adopted: u64,
}

impl WorkCounters {
    /// Records one context search's result (see
    /// [`crate::context::discover_multi`]) and returns its contexts and
    /// coverage; `None` (nothing to search) records nothing.
    pub(crate) fn discovery(
        &mut self,
        found: Option<(Vec<ContextChoice>, f64, u64)>,
    ) -> (Vec<ContextChoice>, f64) {
        let Some((chosen, coverage, subsets_evaluated)) = found else {
            return (Vec::new(), 0.0);
        };
        self.context_queries += 1;
        self.subsets_evaluated += subsets_evaluated;
        self.contexts_adopted += chosen.len() as u64;
        (chosen, coverage)
    }

    /// Adds the counts to `tele`. A registry counter exists from its first
    /// add, even of zero, so each group is added only if it recorded an
    /// event: the set of counter names is the one per-call adds produced.
    pub(crate) fn flush(&self, tele: &Telemetry) {
        if self.searches > 0 {
            tele.add("core.window.searches", self.searches);
            tele.add("core.window.nodes_expanded", self.nodes_expanded);
        }
        if self.filters > 0 {
            tele.add("core.window.candidates_found", self.candidates_found);
            tele.add("core.window.rejected_untimely", self.rejected_untimely);
        }
        if self.context_queries > 0 {
            tele.add("core.context.queries", self.context_queries);
            tele.add("core.context.subsets_evaluated", self.subsets_evaluated);
            tele.add("core.context.contexts_adopted", self.contexts_adopted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_adds_only_groups_that_recorded_work() {
        let tele = Telemetry::new();
        WorkCounters::default().flush(&tele);
        assert!(tele.counters().is_empty());
        let mut work = WorkCounters { searches: 2, nodes_expanded: 0, ..Default::default() };
        assert_eq!(work.discovery(None), (Vec::new(), 0.0));
        work.flush(&tele);
        let names: Vec<String> = tele.counters().into_keys().collect();
        assert_eq!(names, ["core.window.nodes_expanded", "core.window.searches"]);
        assert_eq!(tele.counter("core.window.searches"), 2);
        let mut work = WorkCounters::default();
        let (chosen, coverage) = work.discovery(Some((Vec::new(), 0.5, 7)));
        assert!(chosen.is_empty());
        assert_eq!(coverage, 0.5);
        work.flush(&tele);
        assert_eq!(tele.counter("core.context.queries"), 1);
        assert_eq!(tele.counter("core.context.subsets_evaluated"), 7);
        assert!(tele.counters().contains_key("core.context.contexts_adopted"));
    }
}
