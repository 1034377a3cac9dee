//! Joint context statistics: exact conditional probabilities over a trace.
//!
//! Context discovery (§III-A) needs `P(miss at line m | predictor blocks
//! present in the LBR when the injection site executes)`. The paper
//! estimates this from sampled profiles; since the reproduction has the full
//! recorded trace, it computes the statistic *exactly* in one linear pass:
//! for every occurrence of an injection site, record which candidate
//! predictor blocks sit in the rolling 32-block window (a presence mask) and
//! whether a sampled miss of the target line follows within a horizon.
//!
//! Subset probabilities are recovered by superset aggregation: a candidate
//! subset `S` is "present" at an occurrence whose mask is `M` iff `S ⊆ M`,
//! so `count(S) = Σ_{M ⊇ S} count(M)`.

use ispy_trace::{BlockId, Trace};
use std::sync::Arc;

/// Maximum number of candidate predictor blocks per query (masks are `u16`
/// indices into dense arrays, so 8 keeps them tiny).
pub const MAX_CANDIDATES: usize = 8;

/// One question: at `site`, over candidate predictor blocks, how often does
/// one of `target_positions` (ascending trace indices — e.g. the sampled
/// misses of a line, or the executions of a block) follow within
/// `horizon_blocks`?
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JointQuery {
    /// The candidate injection site.
    pub site: BlockId,
    /// Ascending trace positions of the targeted event (shared, so queries
    /// aimed at one target block hold one list).
    pub target_positions: Arc<[u32]>,
    /// Candidate predictor blocks (≤ [`MAX_CANDIDATES`]).
    pub candidates: Vec<BlockId>,
    /// Look-ahead horizon in block events.
    pub horizon_blocks: u32,
}

/// Dense per-mask counts answering a [`JointQuery`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JointCounts {
    /// `occurrences[mask]`: site executions whose window presence mask was
    /// exactly `mask`.
    pub occurrences: Vec<u64>,
    /// `hits[mask]`: of those, how many were followed by a miss of the
    /// target line within the horizon.
    pub hits: Vec<u64>,
}

impl JointCounts {
    fn new(n_candidates: usize) -> Self {
        let size = 1usize << n_candidates;
        JointCounts { occurrences: vec![0; size], hits: vec![0; size] }
    }

    /// Total site executions observed.
    pub fn total_occurrences(&self) -> u64 {
        self.occurrences.iter().sum()
    }

    /// Total site executions followed by the miss.
    pub fn total_hits(&self) -> u64 {
        self.hits.iter().sum()
    }

    /// Occurrences whose mask is a superset of `subset` — i.e., executions
    /// where every block of `subset` was present.
    pub fn occurrences_with(&self, subset: u16) -> u64 {
        self.superset_sum(&self.occurrences, subset)
    }

    /// Hits whose mask is a superset of `subset`.
    pub fn hits_with(&self, subset: u16) -> u64 {
        self.superset_sum(&self.hits, subset)
    }

    /// `P(miss | subset present at site)`, or `None` with no support.
    pub fn conditional_probability(&self, subset: u16) -> Option<f64> {
        let occ = self.occurrences_with(subset);
        if occ == 0 {
            None
        } else {
            Some(self.hits_with(subset) as f64 / occ as f64)
        }
    }

    fn superset_sum(&self, arr: &[u64], subset: u16) -> u64 {
        let subset = subset as usize;
        arr.iter().enumerate().filter(|&(mask, _)| mask & subset == subset).map(|(_, &c)| c).sum()
    }
}

/// Answers all `queries` in one linear pass over `trace`.
///
/// Target positions typically come from the profiling pass (sampled miss
/// positions), so "followed by the target" means a *sampled* miss —
/// consistent with what the planner optimizes for. Passing a block's
/// execution positions instead yields path-based reach/fan-out statistics.
///
/// The scan's state is dense and indexed by block id: the window's
/// per-block multiplicities, the per-site query lists and each query's
/// candidates as indices into the multiplicities. The block leaving the
/// window is read back from the trace, and each query keeps a cursor into
/// its ascending target positions, so the per-event work is array reads.
/// Block ids beyond the trace's largest block never execute, so as
/// candidates they are always absent and as sites they never occur.
///
/// # Panics
///
/// Panics if a query has more than [`MAX_CANDIDATES`] candidates.
pub fn scan_joint(trace: &Trace, lbr_depth: usize, queries: &[JointQuery]) -> Vec<JointCounts> {
    for q in queries {
        assert!(
            q.candidates.len() <= MAX_CANDIDATES,
            "at most {MAX_CANDIDATES} candidates per query"
        );
    }
    let mut results: Vec<JointCounts> =
        queries.iter().map(|q| JointCounts::new(q.candidates.len())).collect();

    let blocks = trace.blocks();
    // Slot `absent` (one past the largest block the trace runs) stands for
    // every block id the trace never runs; its multiplicity stays zero.
    let absent = blocks.iter().map(|b| b.index() + 1).max().unwrap_or(0);
    let slot = |b: BlockId| b.index().min(absent);
    let mut present = vec![0u32; absent + 1];
    let mut by_site: Vec<Vec<usize>> = vec![Vec::new(); absent];
    for (i, q) in queries.iter().enumerate() {
        if let Some(list) = by_site.get_mut(q.site.index()) {
            list.push(i);
        }
    }
    let cand_slots: Vec<Vec<usize>> =
        queries.iter().map(|q| q.candidates.iter().map(|&c| slot(c)).collect()).collect();
    // Index of each query's first target position not yet behind the scan.
    let mut cursor = vec![0usize; queries.len()];

    for (idx, &block) in blocks.iter().enumerate() {
        present[block.index()] += 1;
        if idx >= lbr_depth {
            present[blocks[idx - lbr_depth].index()] -= 1;
        }
        for &qi in &by_site[block.index()] {
            let q = &queries[qi];
            let mut mask = 0u16;
            for (ci, &s) in cand_slots[qi].iter().enumerate() {
                if present[s] > 0 {
                    mask |= 1 << ci;
                }
            }
            results[qi].occurrences[mask as usize] += 1;
            let targets = &q.target_positions;
            let mut next = cursor[qi];
            while targets.get(next).is_some_and(|&p| p <= idx as u32) {
                next += 1;
            }
            cursor[qi] = next;
            let hit = targets.get(next).is_some_and(|&pos| pos - idx as u32 <= q.horizon_blocks);
            if hit {
                results[qi].hits[mask as usize] += 1;
            }
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispy_trace::rng::Pcg32;
    use std::collections::{HashMap, VecDeque};

    fn b(i: u32) -> BlockId {
        BlockId(i)
    }

    /// Trace: [1, 2, 9, 3, 9, 1, 9] with site 9; the target (a miss of some
    /// line) occurs at positions 3 and 7.
    fn setup() -> (Trace, Vec<u32>) {
        let trace = Trace::new("t", vec![b(1), b(2), b(9), b(3), b(9), b(1), b(9)]);
        (trace, vec![3, 7])
    }

    #[test]
    fn masks_and_hits() {
        let (trace, pos) = setup();
        let q = JointQuery {
            site: b(9),
            target_positions: pos.into(),
            candidates: vec![b(1), b(2)],
            horizon_blocks: 2,
        };
        let res = &scan_joint(&trace, 3, &[q])[0];
        // Site executes at idx 2 (window [1,2,9]: both present -> mask 0b11,
        // miss at 3 within horizon -> hit), idx 4 (window [9,3,9]: neither ->
        // mask 0, next miss at 7, distance 3 > 2 -> no hit), idx 6 (window
        // [9,1,9]: b1 present -> mask 0b01, miss at 7 within 1 -> hit).
        assert_eq!(res.total_occurrences(), 3);
        assert_eq!(res.occurrences[0b11], 1);
        assert_eq!(res.occurrences[0b00], 1);
        assert_eq!(res.occurrences[0b01], 1);
        assert_eq!(res.hits[0b11], 1);
        assert_eq!(res.hits[0b00], 0);
        assert_eq!(res.hits[0b01], 1);
    }

    #[test]
    fn superset_aggregation() {
        let (trace, pos) = setup();
        let q = JointQuery {
            site: b(9),
            target_positions: pos.into(),
            candidates: vec![b(1), b(2)],
            horizon_blocks: 2,
        };
        let res = &scan_joint(&trace, 3, &[q])[0];
        // Subset {b1} = bit 0: occurrences with b1 present = masks 01 and 11.
        assert_eq!(res.occurrences_with(0b01), 2);
        assert_eq!(res.hits_with(0b01), 2);
        assert_eq!(res.conditional_probability(0b01), Some(1.0));
        // Empty subset = all occurrences.
        assert_eq!(res.occurrences_with(0), 3);
        let p_uncond = res.conditional_probability(0).unwrap();
        assert!((p_uncond - 2.0 / 3.0).abs() < 1e-12);
        // Conditioning on b1 beats unconditional: the Bayes step the paper
        // describes in Fig. 6.
        assert!(res.conditional_probability(0b01).unwrap() > p_uncond);
    }

    #[test]
    fn window_depth_limits_presence() {
        let trace = Trace::new("t", vec![b(1), b(2), b(3), b(4), b(9)]);
        let q = JointQuery {
            site: b(9),
            target_positions: Arc::from([]),
            candidates: vec![b(1)],
            horizon_blocks: 4,
        };
        // Depth 3: window at site = [3,4,9]; b1 out.
        let res = &scan_joint(&trace, 3, std::slice::from_ref(&q))[0];
        assert_eq!(res.occurrences[0b0], 1);
        // Depth 5: b1 still inside.
        let res = &scan_joint(&trace, 5, &[q])[0];
        assert_eq!(res.occurrences[0b1], 1);
    }

    #[test]
    fn no_support_returns_none() {
        let (trace, pos) = setup();
        let q = JointQuery {
            site: b(42), // never executes
            target_positions: pos.into(),
            candidates: vec![b(1)],
            horizon_blocks: 2,
        };
        let res = &scan_joint(&trace, 4, &[q])[0];
        assert_eq!(res.total_occurrences(), 0);
        assert_eq!(res.conditional_probability(0), None);
    }

    #[test]
    fn multiple_queries_share_the_pass() {
        let (trace, pos) = setup();
        let qs = vec![
            JointQuery {
                site: b(9),
                target_positions: pos.clone().into(),
                candidates: vec![b(1)],
                horizon_blocks: 2,
            },
            JointQuery {
                site: b(2),
                target_positions: pos.into(),
                candidates: vec![],
                horizon_blocks: 2,
            },
        ];
        let res = scan_joint(&trace, 4, &qs);
        assert_eq!(res.len(), 2);
        assert_eq!(res[1].total_occurrences(), 1);
        assert_eq!(res[1].occurrences.len(), 1); // empty candidate set -> one mask
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_candidates_panics() {
        let (trace, pos) = setup();
        let q = JointQuery {
            site: b(9),
            target_positions: pos.into(),
            candidates: (0..9).map(b).collect(),
            horizon_blocks: 2,
        };
        let _ = scan_joint(&trace, 4, &[q]);
    }

    /// The map-based scan the dense one replaced: a `VecDeque` window with
    /// a multiplicity map, a site-to-queries map, and a binary search for
    /// the next target. The definition [`scan_joint`] must match.
    fn reference_scan(trace: &Trace, lbr_depth: usize, queries: &[JointQuery]) -> Vec<JointCounts> {
        let mut results: Vec<JointCounts> =
            queries.iter().map(|q| JointCounts::new(q.candidates.len())).collect();
        let mut by_site: HashMap<BlockId, Vec<usize>> = HashMap::new();
        for (i, q) in queries.iter().enumerate() {
            by_site.entry(q.site).or_default().push(i);
        }
        let mut window: VecDeque<BlockId> = VecDeque::with_capacity(lbr_depth + 1);
        let mut present: HashMap<BlockId, u32> = HashMap::new();
        for (idx, block) in trace.iter().enumerate() {
            window.push_back(block);
            *present.entry(block).or_insert(0) += 1;
            if window.len() > lbr_depth {
                let old = window.pop_front().expect("non-empty");
                if let Some(c) = present.get_mut(&old) {
                    *c -= 1;
                    if *c == 0 {
                        present.remove(&old);
                    }
                }
            }
            let Some(query_ids) = by_site.get(&block) else { continue };
            for &qi in query_ids {
                let q = &queries[qi];
                let mut mask = 0u16;
                for (ci, cand) in q.candidates.iter().enumerate() {
                    if present.contains_key(cand) {
                        mask |= 1 << ci;
                    }
                }
                results[qi].occurrences[mask as usize] += 1;
                let next = q.target_positions.partition_point(|&p| p < idx as u32 + 1);
                let hit = q
                    .target_positions
                    .get(next)
                    .is_some_and(|&pos| pos - idx as u32 <= q.horizon_blocks);
                if hit {
                    results[qi].hits[mask as usize] += 1;
                }
            }
        }
        results
    }

    #[test]
    fn dense_scan_matches_reference_on_random_traces() {
        let mut rng = Pcg32::seed_from_u64(0x5ca2_1017);
        for case in 0..400 {
            // A few hot blocks make windows repeat blocks; the largest id
            // drawn may be below `nb - 1`, so some ids never run.
            let nb = 1 + rng.below(40) as u32;
            let len = rng.below(600) as usize;
            let hot = 1 + rng.below(u64::from(nb)) as u32;
            let trace: Vec<BlockId> = (0..len)
                .map(|_| {
                    b(if rng.below(3) == 0 {
                        rng.below(u64::from(nb))
                    } else {
                        rng.below(u64::from(hot))
                    } as u32)
                })
                .collect();
            let trace = Trace::new("t", trace);
            let lbr_depth = 1 + rng.below(40) as usize;
            let queries: Vec<JointQuery> = (0..rng.below(12))
                .map(|_| {
                    // Sites and candidates range past the largest block id.
                    let site = b(rng.below(u64::from(nb) + 4) as u32);
                    let n_cand = rng.below(MAX_CANDIDATES as u64 + 1) as usize;
                    let candidates =
                        (0..n_cand).map(|_| b(rng.below(u64::from(nb) + 8) as u32)).collect();
                    let mut targets: Vec<u32> =
                        (0..rng.below(40)).map(|_| rng.below(len as u64 + 20) as u32).collect();
                    targets.sort_unstable();
                    targets.dedup();
                    JointQuery {
                        site,
                        target_positions: targets.into(),
                        candidates,
                        horizon_blocks: rng.below(80) as u32,
                    }
                })
                .collect();
            assert_eq!(
                scan_joint(&trace, lbr_depth, &queries),
                reference_scan(&trace, lbr_depth, &queries),
                "case {case}: {len} events over {nb} blocks, depth {lbr_depth}"
            );
        }
    }
}
