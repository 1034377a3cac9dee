//! Miss-context discovery (§III-A, Fig. 6).
//!
//! Given the joint statistics for one (injection site, miss) pair — per
//! presence-mask occurrence and hit counts over the candidate predictor
//! blocks — pick the combination of up to `ctx_size` predictor blocks whose
//! presence in the LBR maximizes the conditional probability of the miss
//! (the paper's Bayes step), subject to a minimum support and a required
//! improvement over the unconditional probability.

use crate::work::WorkCounters;
use ispy_profile::JointCounts;
use ispy_trace::BlockId;

/// A context the planner decided to condition a prefetch on.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextChoice {
    /// The predictor blocks (subset of the candidates, 1..=ctx_size).
    pub blocks: Vec<BlockId>,
    /// `P(miss follows | context present at site)`.
    pub probability: f64,
    /// Site executions with the context present (the estimate's support).
    pub support: u64,
    /// `P(miss follows | site executes)` — the unconditional baseline.
    pub baseline: f64,
}

/// Searches candidate subsets for the best miss context.
///
/// Returns `None` when no subset beats the unconditional probability by
/// `gain_margin` with at least `min_support` observations — the §IV case
/// where "conditionally prefetching a line based on the execution context
/// may not improve the prefetch accuracy".
///
/// # Examples
///
/// ```
/// use ispy_core::context::discover;
/// use ispy_profile::JointCounts;
/// use ispy_trace::BlockId;
///
/// // One candidate block: present at 10 site executions, all of which miss;
/// // absent at 30 executions, none of which miss.
/// let counts = JointCounts { occurrences: vec![30, 10], hits: vec![0, 10] };
/// let ctx = discover(&counts, &[BlockId(7)], 4, 5, 0.1).unwrap();
/// assert_eq!(ctx.blocks, vec![BlockId(7)]);
/// assert_eq!(ctx.probability, 1.0);
/// ```
pub fn discover(
    counts: &JointCounts,
    candidates: &[BlockId],
    ctx_size: usize,
    min_support: u64,
    gain_margin: f64,
) -> Option<ContextChoice> {
    let n = candidates.len();
    if n == 0 {
        return None;
    }
    let baseline = counts.conditional_probability(0)?;
    let mut best: Option<(f64, u64, u16)> = None;

    for subset in 1u16..(1u16 << n) {
        if subset.count_ones() > ctx_size as u32 {
            continue;
        }
        let support = counts.occurrences_with(subset);
        if support < min_support {
            continue;
        }
        let p = counts.hits_with(subset) as f64 / support as f64;
        let better = match best {
            None => true,
            Some((bp, bs, bmask)) => {
                p > bp + 1e-12
                    || ((p - bp).abs() <= 1e-12
                        && (subset.count_ones() < bmask.count_ones()
                            || (subset.count_ones() == bmask.count_ones() && support > bs)))
            }
        };
        if better {
            best = Some((p, support, subset));
        }
    }

    let (p, support, mask) = best?;
    if p < baseline + gain_margin {
        return None;
    }
    let blocks: Vec<BlockId> =
        (0..n).filter(|i| mask & (1 << i) != 0).map(|i| candidates[i]).collect();
    Some(ContextChoice { blocks, probability: p, support, baseline })
}

/// Superset sums over `n` mask bits (the SOS DP, O(n·2ⁿ)): entry `s` of the
/// result is the sum of `values[m]` over every mask `m ⊇ s`.
fn superset_sums(mut values: Vec<u64>, n: usize) -> Vec<u64> {
    values.truncate(1 << n);
    for bit in 0..n {
        for s in 0..values.len() {
            if s & (1 << bit) == 0 {
                values[s] += values[s | (1 << bit)];
            }
        }
    }
    values
}

/// Greedy multi-context discovery.
///
/// One context often cannot cover a miss reached from many calling contexts
/// (each caller predicts only its own share of instances). Like the paper's
/// Fig. 8 — several prefetches of the same target grouped by different
/// contexts at one site — this picks up to `max_contexts` subsets by greedy
/// set-cover over the occurrence masks: each round takes the qualifying
/// subset (probability ≥ `max(baseline + gain_margin, min_prob)`, support ≥
/// `min_support`) that covers the most not-yet-covered target-reaching site
/// executions.
///
/// Returns the chosen contexts plus the fraction of all target-reaching
/// executions they jointly cover.
pub fn discover_multi(
    counts: &JointCounts,
    candidates: &[BlockId],
    ctx_size: usize,
    min_support: u64,
    gain_margin: f64,
    min_prob: f64,
    max_contexts: usize,
) -> (Vec<ContextChoice>, f64) {
    let mut work = WorkCounters::default();
    let found = work.discovery(greedy_cover(
        counts,
        candidates,
        ctx_size,
        min_support,
        gain_margin,
        min_prob,
        max_contexts,
    ));
    // Mining-depth accounting: how much subset space each query explored.
    work.flush(&ispy_telemetry::global());
    found
}

/// [`discover_multi`]'s search, also returning how many subsets it
/// evaluated; `None` when there is nothing to search (no candidates, no
/// context slots, no site occurrences or no hits). The planner calls it
/// directly and counts its work per plan ([`WorkCounters::discovery`]).
pub(crate) fn greedy_cover(
    counts: &JointCounts,
    candidates: &[BlockId],
    ctx_size: usize,
    min_support: u64,
    gain_margin: f64,
    min_prob: f64,
    max_contexts: usize,
) -> Option<(Vec<ContextChoice>, f64, u64)> {
    let n = candidates.len();
    if n == 0 || max_contexts == 0 {
        return None;
    }
    let baseline = counts.conditional_probability(0)?;
    let size = 1usize << n;
    let occ_sup = superset_sums(counts.occurrences.clone(), n);
    let hit_sup = superset_sums(counts.hits.clone(), n);
    let total_hits: u64 = counts.hits.iter().sum();
    if total_hits == 0 {
        return None;
    }
    let threshold = (baseline + gain_margin).max(min_prob);
    let mut covered = vec![false; size];
    let mut chosen: Vec<ContextChoice> = Vec::new();
    let mut covered_hits = 0u64;
    let mut subsets_evaluated = 0u64;

    while chosen.len() < max_contexts {
        // new_sup[s] = the not-yet-covered hits of every mask containing s:
        // one superset sum per round instead of a 2^n scan per subset.
        let uncovered: Vec<u64> =
            counts.hits.iter().zip(&covered).map(|(&h, &c)| if c { 0 } else { h }).collect();
        let new_sup = superset_sums(uncovered, n);
        let mut best: Option<(u64, f64, u64, usize)> = None; // (new, p, support, mask)
        for s in 1..size {
            subsets_evaluated += 1;
            if (s.count_ones() as usize) > ctx_size {
                continue;
            }
            let support = occ_sup[s];
            if support < min_support {
                continue;
            }
            let p = hit_sup[s] as f64 / support as f64;
            if p < threshold {
                continue;
            }
            let new_hits = new_sup[s];
            if new_hits == 0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((bn, bp, _, bmask)) => {
                    new_hits > bn
                        || (new_hits == bn
                            && (p > bp + 1e-12
                                || ((p - bp).abs() <= 1e-12
                                    && s.count_ones() < bmask.count_ones())))
                }
            };
            if better {
                best = Some((new_hits, p, support, s));
            }
        }
        let Some((new_hits, p, support, mask)) = best else { break };
        for (m, c) in covered.iter_mut().enumerate() {
            if m & mask == mask {
                *c = true;
            }
        }
        covered_hits += new_hits;
        let blocks: Vec<BlockId> =
            (0..n).filter(|i| mask & (1 << i) != 0).map(|i| candidates[i]).collect();
        chosen.push(ContextChoice { blocks, probability: p, support, baseline });
    }
    Some((chosen, covered_hits as f64 / total_hits as f64, subsets_evaluated))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u32) -> BlockId {
        BlockId(i)
    }

    /// Two candidates; masks indexed 0b00,0b01,0b10,0b11.
    /// Candidate 0 present -> always miss; candidate 1 uncorrelated.
    fn correlated_counts() -> JointCounts {
        JointCounts {
            //                 00  01  10  11
            occurrences: vec![40, 10, 40, 10],
            hits: vec![4, 10, 4, 10],
        }
    }

    #[test]
    fn picks_the_predictive_candidate() {
        let c = correlated_counts();
        let ctx = discover(&c, &[b(1), b(2)], 4, 5, 0.1).unwrap();
        assert_eq!(ctx.blocks, vec![b(1)]);
        assert!((ctx.probability - 1.0).abs() < 1e-12);
        assert_eq!(ctx.support, 20);
        assert!((ctx.baseline - 0.28).abs() < 1e-12);
    }

    #[test]
    fn prefers_smaller_subset_on_tie() {
        // {0} and {0,1} both give probability 1.0; {0} wins.
        let c = correlated_counts();
        let ctx = discover(&c, &[b(1), b(2)], 2, 5, 0.1).unwrap();
        assert_eq!(ctx.blocks.len(), 1);
    }

    #[test]
    fn respects_ctx_size_cap() {
        // Only the pair {0,1} is perfectly predictive.
        let c = JointCounts {
            //                 00  01  10  11
            occurrences: vec![30, 30, 30, 10],
            hits: vec![0, 12, 12, 10],
        };
        let pair = discover(&c, &[b(1), b(2)], 2, 5, 0.1).unwrap();
        assert_eq!(pair.blocks, vec![b(1), b(2)]);
        let single = discover(&c, &[b(1), b(2)], 1, 5, 0.1).unwrap();
        assert_eq!(single.blocks.len(), 1);
        assert!(single.probability < pair.probability);
    }

    #[test]
    fn insufficient_support_rejected() {
        let c = JointCounts { occurrences: vec![100, 2], hits: vec![10, 2] };
        // Perfect but only 2 observations; min_support 5 rejects it.
        assert!(discover(&c, &[b(1)], 4, 5, 0.1).is_none());
    }

    #[test]
    fn no_gain_over_baseline_rejected() {
        // Candidate present half the time, misses uniform: conditioning
        // gains nothing.
        let c = JointCounts { occurrences: vec![50, 50], hits: vec![30, 30] };
        assert!(discover(&c, &[b(1)], 4, 5, 0.05).is_none());
    }

    #[test]
    fn empty_candidates_yield_none() {
        let c = JointCounts { occurrences: vec![10], hits: vec![10] };
        assert!(discover(&c, &[], 4, 1, 0.0).is_none());
    }

    #[test]
    fn no_site_occurrences_yield_none() {
        let c = JointCounts { occurrences: vec![0, 0], hits: vec![0, 0] };
        assert!(discover(&c, &[b(1)], 4, 1, 0.0).is_none());
    }

    #[test]
    fn multi_context_covers_disjoint_callers() {
        // Two callers, each predicting its own half of the reaches:
        // masks 00 (neither), 01 (caller A), 10 (caller B).
        let c = JointCounts {
            //                 00  01  10  11
            occurrences: vec![100, 20, 20, 0],
            hits: vec![2, 18, 16, 0],
        };
        let (ctxs, coverage) = discover_multi(&c, &[b(1), b(2)], 4, 5, 0.05, 0.3, 4);
        assert_eq!(ctxs.len(), 2, "both callers should become contexts");
        assert_eq!(ctxs[0].blocks, vec![b(1)]); // 18 new hits > 16
        assert_eq!(ctxs[1].blocks, vec![b(2)]);
        // 34 of 36 reaches covered.
        assert!((coverage - 34.0 / 36.0).abs() < 1e-9);
    }

    #[test]
    fn multi_context_respects_max() {
        let c = JointCounts { occurrences: vec![100, 20, 20, 0], hits: vec![2, 18, 16, 0] };
        let (ctxs, coverage) = discover_multi(&c, &[b(1), b(2)], 4, 5, 0.05, 0.3, 1);
        assert_eq!(ctxs.len(), 1);
        assert!(coverage < 0.6);
    }

    #[test]
    fn multi_context_empty_when_nothing_qualifies() {
        // Uniform: no subset is better than baseline.
        let c = JointCounts { occurrences: vec![50, 50], hits: vec![25, 25] };
        let (ctxs, coverage) = discover_multi(&c, &[b(1)], 4, 5, 0.05, 0.9, 4);
        assert!(ctxs.is_empty());
        assert_eq!(coverage, 0.0);
    }

    #[test]
    fn multi_context_single_equals_best_cover() {
        // With one candidate perfectly predictive, multi returns it once.
        let c = JointCounts { occurrences: vec![30, 10], hits: vec![0, 10] };
        let (ctxs, coverage) = discover_multi(&c, &[b(7)], 4, 5, 0.1, 0.3, 4);
        assert_eq!(ctxs.len(), 1);
        assert_eq!(ctxs[0].blocks, vec![b(7)]);
        assert!((coverage - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_fig6_shape() {
        // Fig. 6: six paths through site G, two lead to the miss at K; the
        // combination {B, E} has the highest conditional probability.
        // Candidates: B (bit 0), E (bit 1).
        // Occurrences: B&E together on 2 paths (both miss); B alone 1,
        // E alone 1, neither 2 (none miss).
        let c = JointCounts {
            //                 00 01(B) 10(E) 11(BE)
            occurrences: vec![2, 1, 1, 2],
            hits: vec![0, 0, 0, 2],
        };
        let ctx = discover(&c, &[b(100), b(200)], 4, 1, 0.05).unwrap();
        assert_eq!(ctx.blocks, vec![b(100), b(200)]);
        assert!((ctx.probability - 1.0).abs() < 1e-12);
        assert!((ctx.baseline - 2.0 / 6.0).abs() < 1e-12);
    }

    /// Reference for [`greedy_cover`]: the direct O(4ⁿ)-per-round form, in
    /// which each qualifying subset rescans every mask for its uncovered
    /// hits.
    fn reference_cover(
        counts: &JointCounts,
        candidates: &[BlockId],
        ctx_size: usize,
        min_support: u64,
        gain_margin: f64,
        min_prob: f64,
        max_contexts: usize,
    ) -> Option<(Vec<ContextChoice>, f64, u64)> {
        let n = candidates.len();
        if n == 0 || max_contexts == 0 {
            return None;
        }
        let baseline = counts.conditional_probability(0)?;
        let size = 1usize << n;
        let mut occ_sup = counts.occurrences.clone();
        let mut hit_sup = counts.hits.clone();
        for bit in 0..n {
            for s in 0..size {
                if s & (1 << bit) == 0 {
                    occ_sup[s] += occ_sup[s | (1 << bit)];
                    hit_sup[s] += hit_sup[s | (1 << bit)];
                }
            }
        }
        let total_hits: u64 = counts.hits.iter().sum();
        if total_hits == 0 {
            return None;
        }
        let threshold = (baseline + gain_margin).max(min_prob);
        let mut covered = vec![false; size];
        let mut chosen: Vec<ContextChoice> = Vec::new();
        let mut covered_hits = 0u64;
        let mut subsets_evaluated = 0u64;
        while chosen.len() < max_contexts {
            let mut best: Option<(u64, f64, u64, usize)> = None;
            for s in 1..size {
                subsets_evaluated += 1;
                if (s.count_ones() as usize) > ctx_size {
                    continue;
                }
                let support = occ_sup[s];
                if support < min_support {
                    continue;
                }
                let p = hit_sup[s] as f64 / support as f64;
                if p < threshold {
                    continue;
                }
                let new_hits: u64 =
                    (0..size).filter(|&m| m & s == s && !covered[m]).map(|m| counts.hits[m]).sum();
                if new_hits == 0 {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((bn, bp, _, bmask)) => {
                        new_hits > bn
                            || (new_hits == bn
                                && (p > bp + 1e-12
                                    || ((p - bp).abs() <= 1e-12
                                        && s.count_ones() < bmask.count_ones())))
                    }
                };
                if better {
                    best = Some((new_hits, p, support, s));
                }
            }
            let Some((new_hits, p, support, mask)) = best else { break };
            for (m, c) in covered.iter_mut().enumerate() {
                if m & mask == mask {
                    *c = true;
                }
            }
            covered_hits += new_hits;
            let blocks: Vec<BlockId> =
                (0..n).filter(|i| mask & (1 << i) != 0).map(|i| candidates[i]).collect();
            chosen.push(ContextChoice { blocks, probability: p, support, baseline });
        }
        Some((chosen, covered_hits as f64 / total_hits as f64, subsets_evaluated))
    }

    #[test]
    fn greedy_cover_matches_reference_on_random_counts() {
        use ispy_trace::rng::Pcg32;
        let mut rng = Pcg32::seed_from_u64(0xc0de_0f06);
        let mut adopted = 0;
        for case in 0..400 {
            let n = rng.below(9) as usize;
            let size = 1usize << n;
            // Sparse, skewed occurrence masks like real LBR joint counts,
            // hits never above occurrences.
            let occurrences: Vec<u64> =
                (0..size).map(|_| if rng.below(3) == 0 { 0 } else { rng.below(60) }).collect();
            let hits: Vec<u64> = occurrences.iter().map(|&o| rng.below(o + 1)).collect();
            let counts = JointCounts { occurrences, hits };
            let candidates: Vec<BlockId> = (0..n as u32).map(|i| b(100 + i)).collect();
            let ctx_size = rng.below(n as u64 + 2) as usize;
            let min_support = rng.below(40);
            let gain_margin = rng.below(20) as f64 / 100.0;
            let min_prob = rng.below(80) as f64 / 100.0;
            let max_contexts = rng.below(5) as usize;
            let args = (ctx_size, min_support, gain_margin, min_prob, max_contexts);
            let got = greedy_cover(
                &counts,
                &candidates,
                ctx_size,
                min_support,
                gain_margin,
                min_prob,
                max_contexts,
            );
            let want = reference_cover(
                &counts,
                &candidates,
                ctx_size,
                min_support,
                gain_margin,
                min_prob,
                max_contexts,
            );
            assert_eq!(got, want, "case {case}: n {n}, args {args:?}");
            adopted += got.map_or(0, |(c, _, _)| c.len());
        }
        assert!(adopted > 100, "the cases must exercise multi-round covers: {adopted}");
    }
}
