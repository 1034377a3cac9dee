//! Prefetch-window analysis: finding timely injection sites (§II-B, §IV).
//!
//! For each missing block the planner walks the dynamic CFG *backwards*,
//! accumulating expected cycles from per-block profile costs (the LBR cycle
//! information the paper uses instead of AsmDB's global-IPC estimate), and
//! keeps predecessors whose distance falls inside the prefetch window.
//! The walk is a bounded Dijkstra on path probability, so each candidate
//! carries the probability that executing it leads to the miss — the
//! complement of the paper's *fan-out*.

use crate::work::WorkCounters;
use ispy_profile::DynCfg;
use ispy_trace::BlockId;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A candidate injection site for one miss target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteCandidate {
    /// The candidate block.
    pub block: BlockId,
    /// Probability that executing this block leads to the miss block along
    /// the maximum-probability path (`1 - fan-out`).
    pub reach_prob: f64,
    /// Expected cycles from entering this block until the miss block begins
    /// fetching.
    pub cycles: f64,
    /// Path length in blocks (used to convert the window into a trace-scan
    /// horizon).
    pub blocks: u32,
}

impl SiteCandidate {
    /// The paper's fan-out: share of paths from this site that do *not*
    /// lead to the miss.
    pub fn fanout(&self) -> f64 {
        1.0 - self.reach_prob
    }
}

/// Heap node ordered by probability (max-heap via total order on f64 bits).
#[derive(Debug, Clone, Copy)]
struct Node {
    prob: f64,
    cycles: f64,
    blocks: u32,
    block: BlockId,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.prob == other.prob && self.block == other.block
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        self.prob
            .partial_cmp(&other.prob)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.block.0.cmp(&other.block.0))
    }
}

/// Finds all candidate injection sites for a miss in `target`, i.e. dynamic
/// predecessors whose expected distance lies within
/// `[min_cycles, max_cycles]`.
///
/// The search visits each block once (highest-probability first) and stops
/// after `max_nodes` expansions, keeping the per-miss cost bounded.
/// `min_cycles` only filters the result: the search itself runs with no
/// lower bound, which lets the planner share one search across every
/// `min_cycles` it tries.
///
/// # Examples
///
/// ```
/// use ispy_core::window::find_candidates;
/// use ispy_profile::DynCfg;
/// use ispy_trace::BlockId;
/// use std::collections::HashMap;
///
/// // Chain 0 -> 1 -> 2, 10 cycles per block: block 0 is ~20 cycles ahead
/// // of block 2's fetch.
/// let mut edges = HashMap::new();
/// edges.insert((0, 1), 10);
/// edges.insert((1, 2), 10);
/// let cfg = DynCfg::new(vec![10, 10, 10], vec![10.0, 10.0, 10.0], &edges);
/// let sites = find_candidates(&cfg, BlockId(2), 15, 100, 64);
/// assert_eq!(sites.len(), 1);
/// assert_eq!(sites[0].block, BlockId(0));
/// ```
pub fn find_candidates(
    cfg: &DynCfg,
    target: BlockId,
    min_cycles: u32,
    max_cycles: u32,
    max_nodes: usize,
) -> Vec<SiteCandidate> {
    let mut work = WorkCounters::default();
    let found =
        search_window(cfg, target, max_cycles, max_nodes, &mut work).within(min_cycles, &mut work);
    work.flush(&ispy_telemetry::global());
    found
}

/// The result of one backward window search with no lower cycle bound:
/// every settled predecessor at most `max_cycles` ahead, in output order.
///
/// The lower bound never steers the search (neither the expansion nor the
/// node budget reads it), and the output order is total, so one search
/// serves every `min_cycles`: [`WindowSearch::within`] filters it. The
/// planner caches one per (CFG, target, `max_cycles`, `max_nodes`).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WindowSearch {
    candidates: Vec<SiteCandidate>,
    /// Settled predecessors beyond `max_cycles`.
    rejected_beyond: u64,
}

impl WindowSearch {
    /// The candidates at least `min_cycles` ahead, highest reach
    /// probability first (ties by block id). Counts the
    /// `[min_cycles, max_cycles]` window's candidates and its untimely
    /// rejections (too close or too far) into `work`.
    pub(crate) fn within(&self, min_cycles: u32, work: &mut WorkCounters) -> Vec<SiteCandidate> {
        let min = f64::from(min_cycles);
        let out: Vec<SiteCandidate> =
            self.candidates.iter().filter(|c| c.cycles >= min).copied().collect();
        let too_close = (self.candidates.len() - out.len()) as u64;
        work.filters += 1;
        work.candidates_found += out.len() as u64;
        work.rejected_untimely += self.rejected_beyond + too_close;
        out
    }
}

/// One thread's search state, reused by every search the thread runs:
/// each block's settled probability, valid only where the block's stamp
/// equals the current search's generation, so a search starts with one
/// increment instead of clearing (or allocating) a per-block array.
#[derive(Default)]
struct Scratch {
    generation: u32,
    stamp: Vec<u32>,
    settled: Vec<f64>,
    heap: BinaryHeap<Node>,
}

impl Scratch {
    /// Starts a search over block ids below `n`.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.settled.resize(n, 0.0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamp.fill(0);
            self.generation = 1;
        }
        self.heap.clear();
    }

    /// `b`'s settled probability in the current search, if it has one.
    fn settled(&self, b: BlockId) -> Option<f64> {
        (self.stamp[b.index()] == self.generation).then(|| self.settled[b.index()])
    }

    fn settle(&mut self, b: BlockId, prob: f64) {
        self.stamp[b.index()] = self.generation;
        self.settled[b.index()] = prob;
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Runs the bounded backward search for `target` with no lower cycle bound
/// (see [`WindowSearch`]), counting the search and its expansions into
/// `work`.
pub(crate) fn search_window(
    cfg: &DynCfg,
    target: BlockId,
    max_cycles: u32,
    max_nodes: usize,
    work: &mut WorkCounters,
) -> WindowSearch {
    let max = f64::from(max_cycles);
    let mut out = Vec::new();
    let mut expanded = 0usize;
    let mut rejected_beyond = 0u64;
    SCRATCH.with(|scratch| {
        let s = &mut *scratch.borrow_mut();
        s.begin(cfg.num_blocks().max(target.index() + 1));
        s.heap.push(Node { prob: 1.0, cycles: 0.0, blocks: 0, block: target });
        while let Some(node) = s.heap.pop() {
            // Settled check: only the best (first-popped) entry per block
            // counts.
            if s.settled(node.block).is_some_and(|p| p >= node.prob) {
                continue;
            }
            s.settle(node.block, node.prob);
            expanded += 1;
            if expanded > max_nodes {
                break;
            }

            if node.block != target && node.cycles <= max {
                out.push(SiteCandidate {
                    block: node.block,
                    reach_prob: node.prob,
                    cycles: node.cycles,
                    blocks: node.blocks,
                });
            } else if node.block != target {
                // Settled predecessor beyond the prefetch window: too far to
                // trust the path estimate.
                rejected_beyond += 1;
            }
            // Expanding beyond max_cycles cannot produce in-window candidates
            // (cycle costs are non-negative along predecessors).
            if node.cycles > max {
                continue;
            }
            for &(pred, w) in cfg.preds(node.block) {
                // `edge_prob(pred, node.block)`: this entry's taken count
                // over `pred`'s out-total, zero (skipped) when never taken.
                if w == 0 {
                    continue;
                }
                let e = w as f64 / cfg.out_total(pred) as f64;
                let cand = Node {
                    prob: node.prob * e,
                    cycles: node.cycles + cfg.avg_cycles(pred),
                    blocks: node.blocks + 1,
                    block: pred,
                };
                if cand.prob < 1e-6 {
                    continue;
                }
                if !s.settled(pred).is_some_and(|p| p >= cand.prob) {
                    s.heap.push(cand);
                }
            }
        }
    });

    // Deterministic order: highest reach probability first, then block id.
    out.sort_by(|a, b| {
        b.reach_prob
            .partial_cmp(&a.reach_prob)
            .unwrap_or(Ordering::Equal)
            .then(a.block.0.cmp(&b.block.0))
    });
    work.searches += 1;
    work.nodes_expanded += expanded as u64;
    WindowSearch { candidates: out, rejected_beyond }
}

/// Picks the planner's injection site: the most-reachable candidate,
/// tie-broken toward more frequently executed blocks (better amortization of
/// the injected instruction).
pub fn select_site(cfg: &DynCfg, candidates: &[SiteCandidate]) -> Option<SiteCandidate> {
    candidates.iter().copied().max_by(|a, b| {
        a.reach_prob
            .partial_cmp(&b.reach_prob)
            .unwrap_or(Ordering::Equal)
            .then_with(|| cfg.exec_count(a.block).cmp(&cfg.exec_count(b.block)))
            .then_with(|| b.block.0.cmp(&a.block.0))
    })
}

/// A site chosen by [`select_covering_sites`], with its coverage/precision
/// estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectedSite {
    /// The underlying window candidate.
    pub cand: SiteCandidate,
    /// Fraction of the line's sampled misses this site preceded (coverage).
    pub presence_frac: f64,
    /// `P(miss | site executes)` estimate: presence / site executions.
    pub precision: f64,
    /// This site is too imprecise to fire unconditionally; it is only kept
    /// if context discovery finds a strong miss context (§III-A).
    pub needs_ctx: bool,
}

/// Selection floors for [`select_covering_sites`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectionPolicy {
    /// Maximum sites per miss line.
    pub max_sites: usize,
    /// Minimum coverage fraction for a site to be worth its footprint.
    pub min_presence: f64,
    /// Precision at or above which a site may fire unconditionally.
    pub min_unconditional_precision: f64,
    /// Precision floor below which a site is useless even with a context
    /// (the injected op would execute far too often relative to the miss).
    pub min_conditional_precision: f64,
    /// Whether conditional (needs-context) sites are allowed at all.
    pub allow_conditional: bool,
}

/// Coverage- and precision-driven multi-site selection (I-SPY's policy).
///
/// Candidates are ranked by how often they actually *preceded* the miss in
/// the profiled LBR histories (`presence`, out of `miss_count` sampled
/// misses) — instance coverage — preferring farther sites on ties. Sites are
/// taken greedily until the summed presence fractions pass 1.3 or
/// `max_sites` is reached. A site whose precision (`presence /
/// exec_count`) is too low to fire unconditionally is marked `needs_ctx`:
/// the planner keeps it only if context discovery succeeds. This is the
/// §II-C trade-off: high-fan-out sites buy coverage but need the run-time
/// condition to stay accurate.
pub fn select_covering_sites(
    candidates: &[SiteCandidate],
    presence: impl Fn(BlockId) -> u64,
    exec_count: impl Fn(BlockId) -> u64,
    miss_count: u64,
    policy: &SelectionPolicy,
) -> Vec<SelectedSite> {
    if miss_count == 0 || policy.max_sites == 0 {
        return Vec::new();
    }
    // A candidate below the coverage floor is never taken, and every
    // candidate ranked after it is below the floor too, so dropping them
    // before the sort leaves the taken prefix unchanged.
    let below_floor = |pres: u64| (pres as f64 / miss_count as f64) < policy.min_presence;
    let mut ranked: Vec<(u64, SiteCandidate)> = candidates
        .iter()
        .map(|&c| (presence(c.block), c))
        .filter(|&(pres, _)| !below_floor(pres))
        .collect();
    // Highest coverage first; among equals prefer *closer* sites — the
    // prefetched line spends less time exposed to eviction before use.
    ranked.sort_by(|a, b| {
        b.0.cmp(&a.0)
            .then_with(|| a.1.cycles.partial_cmp(&b.1.cycles).unwrap_or(Ordering::Equal))
            .then_with(|| a.1.block.0.cmp(&b.1.block.0))
    });
    let mut chosen: Vec<SelectedSite> = Vec::new();
    let mut cum = 0.0;
    for (pres, cand) in ranked {
        let presence_frac = pres as f64 / miss_count as f64;
        let execs = exec_count(cand.block).max(1);
        let precision = (pres as f64 / execs as f64).min(1.0);
        let needs_ctx = precision < policy.min_unconditional_precision;
        if needs_ctx && (!policy.allow_conditional || precision < policy.min_conditional_precision)
        {
            continue;
        }
        chosen.push(SelectedSite { cand, presence_frac, precision, needs_ctx });
        cum += presence_frac;
        if cum >= 1.3 || chosen.len() >= policy.max_sites {
            break;
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispy_trace::rng::Pcg32;
    use std::collections::HashMap;

    fn chain_cfg(n: u32, cycles: f64) -> DynCfg {
        let mut edges = HashMap::new();
        for i in 0..n - 1 {
            edges.insert((i, i + 1), 100);
        }
        DynCfg::new(vec![100; n as usize], vec![cycles; n as usize], &edges)
    }

    #[test]
    fn chain_distances() {
        // 10 blocks, 10 cycles each; target = block 9.
        let cfg = chain_cfg(10, 10.0);
        let sites = find_candidates(&cfg, BlockId(9), 25, 60, 1024);
        // Blocks at distance 30,40,50,60 cycles: blocks 6,5,4,3.
        let ids: Vec<u32> = sites.iter().map(|s| s.block.0).collect();
        assert_eq!(ids.len(), 4);
        assert!(ids.contains(&6) && ids.contains(&3));
        assert!(!ids.contains(&7)); // 20 cycles: too close
        assert!(!ids.contains(&2)); // 70 cycles: too far
        for s in &sites {
            assert!((s.reach_prob - 1.0).abs() < 1e-9);
            assert_eq!(s.fanout(), 0.0);
        }
    }

    #[test]
    fn branch_probabilities_multiply() {
        // 0 -> 1 (75%), 0 -> 2 (25%); 1 -> 3, 2 -> 3; target 3.
        let mut edges = HashMap::new();
        edges.insert((0, 1), 75);
        edges.insert((0, 2), 25);
        edges.insert((1, 3), 75);
        edges.insert((2, 3), 25);
        let cfg = DynCfg::new(vec![100, 75, 25, 100], vec![20.0; 4], &edges);
        let sites = find_candidates(&cfg, BlockId(3), 10, 100, 1024);
        let s0 = sites.iter().find(|s| s.block == BlockId(0)).unwrap();
        // Both paths lead to 3, but max-path probability is via block 1.
        assert!((s0.reach_prob - 0.75).abs() < 1e-9);
        let s1 = sites.iter().find(|s| s.block == BlockId(1)).unwrap();
        assert!((s1.reach_prob - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fanout_reflects_divergence() {
        // Site 0 branches to target (10 %) and elsewhere (90 %).
        let mut edges = HashMap::new();
        edges.insert((0, 1), 10);
        edges.insert((0, 2), 90);
        let cfg = DynCfg::new(vec![100, 10, 90], vec![30.0; 3], &edges);
        let sites = find_candidates(&cfg, BlockId(1), 10, 100, 64);
        let s = sites.iter().find(|s| s.block == BlockId(0)).unwrap();
        assert!((s.fanout() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn empty_when_no_predecessor_in_window() {
        let cfg = chain_cfg(3, 5.0); // total span 10 cycles
        let sites = find_candidates(&cfg, BlockId(2), 27, 200, 64);
        assert!(sites.is_empty());
    }

    #[test]
    fn node_cap_bounds_work() {
        let cfg = chain_cfg(200, 10.0);
        let sites = find_candidates(&cfg, BlockId(199), 27, 200, 8);
        // Cap of 8 expansions: we can still find nearby candidates but the
        // search stops early; no panic, deterministic output.
        assert!(sites.len() <= 8);
    }

    #[test]
    fn select_site_prefers_reach_probability() {
        let a = SiteCandidate { block: BlockId(1), reach_prob: 0.5, cycles: 50.0, blocks: 3 };
        let b = SiteCandidate { block: BlockId(2), reach_prob: 0.9, cycles: 80.0, blocks: 5 };
        let cfg = chain_cfg(4, 10.0);
        assert_eq!(select_site(&cfg, &[a, b]).unwrap().block, BlockId(2));
        assert!(select_site(&cfg, &[]).is_none());
    }

    fn policy() -> SelectionPolicy {
        SelectionPolicy {
            max_sites: 3,
            min_presence: 0.10,
            min_unconditional_precision: 0.25,
            min_conditional_precision: 0.02,
            allow_conditional: true,
        }
    }

    #[test]
    fn covering_sites_rank_by_presence() {
        let mk = |id: u32, cycles: f64| SiteCandidate {
            block: BlockId(id),
            reach_prob: 0.5,
            cycles,
            blocks: 4,
        };
        let cands = [mk(1, 50.0), mk(2, 100.0), mk(3, 40.0)];
        // Presence: block 2 precedes 90 of 100 misses, block 1 precedes 60,
        // block 3 precedes 5 (below the 10 % floor).
        let presence = |b: BlockId| match b.0 {
            1 => 60,
            2 => 90,
            _ => 5,
        };
        let chosen = select_covering_sites(&cands, presence, |_| 300, 100, &policy());
        let ids: Vec<u32> = chosen.iter().map(|c| c.cand.block.0).collect();
        // Block 2 first (highest presence); cumulative 0.9 + 0.6 >= 1.3
        // stops after block 1; block 3 is below the floor anyway.
        assert_eq!(ids, vec![2, 1]);
        // Precision 90/300 = 0.3 clears the 0.25 unconditional floor;
        // 60/300 = 0.2 does not, so block 1 needs a context.
        assert!(!chosen[0].needs_ctx);
        assert!(chosen[1].needs_ctx);
    }

    #[test]
    fn covering_sites_respect_caps() {
        let mk = |id: u32| SiteCandidate {
            block: BlockId(id),
            reach_prob: 0.5,
            cycles: 50.0,
            blocks: 4,
        };
        let cands: Vec<SiteCandidate> = (0..10).map(mk).collect();
        let p = SelectionPolicy { max_sites: 2, ..policy() };
        let chosen = select_covering_sites(&cands, |_| 20, |_| 40, 100, &p);
        assert_eq!(chosen.len(), 2);
        assert!(select_covering_sites(&cands, |_| 20, |_| 40, 0, &p).is_empty());
        assert!(select_covering_sites(&cands, |_| 5, |_| 40, 100, &p).is_empty());
    }

    #[test]
    fn hot_imprecise_sites_are_skipped() {
        let cand = SiteCandidate { block: BlockId(1), reach_prob: 0.5, cycles: 50.0, blocks: 4 };
        // Site precedes all 100 misses but executes 100 000 times: precision
        // 0.001 is below even the conditional floor -> skipped entirely.
        let chosen = select_covering_sites(&[cand], |_| 100, |_| 100_000, 100, &policy());
        assert!(chosen.is_empty());
        // Without conditional sites allowed, a 0.1-precision site also goes.
        let p = SelectionPolicy { allow_conditional: false, ..policy() };
        let chosen = select_covering_sites(&[cand], |_| 100, |_| 1_000, 100, &p);
        assert!(chosen.is_empty());
        // With conditional allowed, the 0.1-precision site is kept but
        // flagged as needing a context.
        let chosen = select_covering_sites(&[cand], |_| 100, |_| 1_000, 100, &policy());
        assert_eq!(chosen.len(), 1);
        assert!(chosen[0].needs_ctx);
    }

    #[test]
    fn loops_do_not_hang_the_search() {
        // 0 <-> 1 loop feeding 2.
        let mut edges = HashMap::new();
        edges.insert((0, 1), 90);
        edges.insert((1, 0), 80);
        edges.insert((1, 2), 10);
        let cfg = DynCfg::new(vec![90, 90, 10], vec![15.0; 3], &edges);
        let sites = find_candidates(&cfg, BlockId(2), 10, 200, 4096);
        assert!(!sites.is_empty());
    }

    /// The single-pass search with the lower bound applied inside the
    /// loop: the definition [`find_candidates`] must match.
    fn reference_candidates(
        cfg: &DynCfg,
        target: BlockId,
        min_cycles: u32,
        max_cycles: u32,
        max_nodes: usize,
    ) -> Vec<SiteCandidate> {
        let mut best: HashMap<u32, Node> = HashMap::new();
        let mut heap = BinaryHeap::new();
        let mut out = Vec::new();
        heap.push(Node { prob: 1.0, cycles: 0.0, blocks: 0, block: target });
        let mut expanded = 0usize;
        while let Some(node) = heap.pop() {
            match best.get(&node.block.0) {
                Some(settled) if settled.prob >= node.prob => continue,
                _ => {}
            }
            best.insert(node.block.0, node);
            expanded += 1;
            if expanded > max_nodes {
                break;
            }
            if node.block != target
                && node.cycles >= f64::from(min_cycles)
                && node.cycles <= f64::from(max_cycles)
            {
                out.push(SiteCandidate {
                    block: node.block,
                    reach_prob: node.prob,
                    cycles: node.cycles,
                    blocks: node.blocks,
                });
            }
            if node.cycles > f64::from(max_cycles) {
                continue;
            }
            for &(pred, _) in cfg.preds(node.block) {
                let e = cfg.edge_prob(pred, node.block);
                if e <= 0.0 {
                    continue;
                }
                let cand = Node {
                    prob: node.prob * e,
                    cycles: node.cycles + cfg.avg_cycles(pred),
                    blocks: node.blocks + 1,
                    block: pred,
                };
                if cand.prob >= 1e-6 && !best.get(&pred.0).is_some_and(|s| s.prob >= cand.prob) {
                    heap.push(cand);
                }
            }
        }
        out.sort_by(|a, b| {
            b.reach_prob
                .partial_cmp(&a.reach_prob)
                .unwrap_or(Ordering::Equal)
                .then(a.block.0.cmp(&b.block.0))
        });
        out
    }

    #[test]
    fn lower_bound_is_a_filter_over_random_cfgs() {
        let mut rng = Pcg32::seed_from_u64(0x5eed_0f18);
        for case in 0..300 {
            let n = 2 + rng.below(60) as u32;
            let mut edges = HashMap::new();
            for _ in 0..rng.below(u64::from(n) * 3) {
                let from = rng.below(u64::from(n)) as u32;
                let to = rng.below(u64::from(n)) as u32;
                edges.insert((from, to), 1 + rng.below(100));
            }
            let exec: Vec<u64> = (0..n).map(|_| 1 + rng.below(500)).collect();
            // Whole-cycle costs make path lengths land exactly on the bound.
            let cycles: Vec<f64> = (0..n).map(|_| rng.below(60) as f64).collect();
            let cfg = DynCfg::new(exec, cycles, &edges);
            let target = BlockId(rng.below(u64::from(n)) as u32);
            let max = rng.below(300) as u32;
            let min = rng.below(u64::from(max) + 20) as u32;
            let nodes = 1 + rng.below(80) as usize;
            let got = find_candidates(&cfg, target, min, max, nodes);
            let filtered: Vec<SiteCandidate> = find_candidates(&cfg, target, 0, max, nodes)
                .into_iter()
                .filter(|c| c.cycles >= f64::from(min))
                .collect();
            assert_eq!(got, filtered, "case {case}: min {min} max {max} nodes {nodes}");
            assert_eq!(
                got,
                reference_candidates(&cfg, target, min, max, nodes),
                "case {case}: min {min} max {max} nodes {nodes}"
            );
        }
    }

    #[test]
    fn scratch_generation_wrap_forgets_every_settled_block() {
        let mut s = Scratch::default();
        s.begin(4);
        s.settle(BlockId(2), 0.5);
        assert_eq!(s.settled(BlockId(2)), Some(0.5));
        s.begin(4);
        assert_eq!(s.settled(BlockId(2)), None);
        s.settle(BlockId(3), 0.25);
        // The next generation wraps to zero, the stamp every fresh slot has.
        s.generation = u32::MAX;
        s.stamp[3] = u32::MAX;
        s.begin(6);
        assert_eq!(s.generation, 1);
        assert!((0..6).all(|b| s.settled(BlockId(b)).is_none()));
    }

    /// The edge probability the search computes from a predecessor entry,
    /// `w / out_total(pred)`, is `edge_prob(pred, b)` bit for bit on every
    /// edge of every app model's test-scale dynamic CFG.
    #[test]
    fn predecessor_weights_reproduce_edge_probabilities() {
        use ispy_profile::{profile, SampleRate};
        use ispy_sim::SimConfig;
        let mut edges = 0usize;
        for model in ispy_trace::apps::all() {
            let model = model.scaled_down(20);
            let program = model.generate();
            let trace = program.record_trace(model.default_input(), 50_000);
            let cfg = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT).cfg;
            for b in (0..cfg.num_blocks() as u32).map(BlockId) {
                for &(pred, w) in cfg.preds(b) {
                    let dense = if w == 0 { 0.0 } else { w as f64 / cfg.out_total(pred) as f64 };
                    assert_eq!(
                        dense.to_bits(),
                        cfg.edge_prob(pred, b).to_bits(),
                        "{}: edge {pred} -> {b}",
                        model.name()
                    );
                    edges += 1;
                }
            }
        }
        assert!(edges > 1_000, "only {edges} edges checked");
    }

    /// [`select_covering_sites`] without the floor prefilter: every
    /// candidate is ranked and the loop stops at the first one below the
    /// floor. The definition the prefiltered selection must match.
    fn reference_covering_sites(
        candidates: &[SiteCandidate],
        presence: impl Fn(BlockId) -> u64,
        exec_count: impl Fn(BlockId) -> u64,
        miss_count: u64,
        policy: &SelectionPolicy,
    ) -> Vec<SelectedSite> {
        if miss_count == 0 || policy.max_sites == 0 {
            return Vec::new();
        }
        let mut ranked: Vec<(u64, SiteCandidate)> =
            candidates.iter().map(|&c| (presence(c.block), c)).collect();
        ranked.sort_by(|a, b| {
            b.0.cmp(&a.0)
                .then_with(|| a.1.cycles.partial_cmp(&b.1.cycles).unwrap_or(Ordering::Equal))
                .then_with(|| a.1.block.0.cmp(&b.1.block.0))
        });
        let mut chosen: Vec<SelectedSite> = Vec::new();
        let mut cum = 0.0;
        for (pres, cand) in ranked {
            let presence_frac = pres as f64 / miss_count as f64;
            if presence_frac < policy.min_presence {
                break;
            }
            let execs = exec_count(cand.block).max(1);
            let precision = (pres as f64 / execs as f64).min(1.0);
            let needs_ctx = precision < policy.min_unconditional_precision;
            if needs_ctx
                && (!policy.allow_conditional || precision < policy.min_conditional_precision)
            {
                continue;
            }
            chosen.push(SelectedSite { cand, presence_frac, precision, needs_ctx });
            cum += presence_frac;
            if cum >= 1.3 || chosen.len() >= policy.max_sites {
                break;
            }
        }
        chosen
    }

    #[test]
    fn prefiltered_selection_matches_reference_on_random_candidates() {
        let mut rng = Pcg32::seed_from_u64(0x5e1e_c7ed);
        for case in 0..2_000 {
            let n = rng.below(40) as u32;
            let miss_count = rng.below(200);
            // Few distinct cycle values and presences make ties common.
            let cands: Vec<SiteCandidate> = (0..n)
                .map(|i| SiteCandidate {
                    block: BlockId(i * 3 % 61),
                    reach_prob: rng.below(100) as f64 / 100.0,
                    cycles: (rng.below(8) * 25) as f64,
                    blocks: rng.below(20) as u32,
                })
                .collect();
            let presence: Vec<u64> = (0..61).map(|_| rng.below(miss_count + 1)).collect();
            let execs: Vec<u64> = (0..61).map(|_| rng.below(2_000)).collect();
            let policy = SelectionPolicy {
                max_sites: rng.below(6) as usize,
                min_presence: rng.below(60) as f64 / 100.0,
                min_unconditional_precision: rng.below(100) as f64 / 100.0,
                min_conditional_precision: rng.below(10) as f64 / 100.0,
                allow_conditional: rng.below(2) == 0,
            };
            let pres = |b: BlockId| presence[b.index()];
            let exec = |b: BlockId| execs[b.index()];
            assert_eq!(
                select_covering_sites(&cands, pres, exec, miss_count, &policy),
                reference_covering_sites(&cands, pres, exec, miss_count, &policy),
                "case {case}: {policy:?}"
            );
        }
    }
}
