//! Per-missing-line statistics (the PEBS side of the profile).

use crate::digest::mix64;
use ispy_sim::FxHashMap;
use ispy_trace::{BlockId, Line};

/// Everything the profiler learned about one missing I-cache line.
///
/// The per-block maps use the fixed-key [`FxHashMap`]: site selection probes
/// `history_presence` once per window candidate, and block ids are
/// simulator-internal, so SipHash's keyed DoS resistance buys nothing.
#[derive(Debug, Clone, Default)]
pub struct LineMissStats {
    /// Sampled miss count.
    pub count: u64,
    /// Blocks that were executing when the line missed, with counts.
    /// (A line can miss from several blocks when blocks share a line.)
    pub at_blocks: FxHashMap<BlockId, u64>,
    /// For each block, how many sampled misses had it in the 32-deep
    /// history window — the raw material for predictor-block mining.
    pub history_presence: FxHashMap<BlockId, u64>,
    /// Trace positions (block indices) of the sampled misses, ascending.
    pub positions: Vec<u32>,
}

impl LineMissStats {
    /// The block that most often triggers this miss.
    pub fn dominant_block(&self) -> Option<BlockId> {
        self.at_blocks.iter().max_by_key(|&(b, &c)| (c, std::cmp::Reverse(b.0))).map(|(&b, _)| b)
    }

    /// First sampled miss at or after trace position `idx`, if any.
    pub fn next_miss_at_or_after(&self, idx: u32) -> Option<u32> {
        let i = self.positions.partition_point(|&p| p < idx);
        self.positions.get(i).copied()
    }

    /// A stable content digest of these stats: independent of `HashMap`
    /// iteration order and process hash seeds, and equal whenever the
    /// observable contents are equal. The incremental replanner keys its
    /// per-line memo on this, so two profiles that agree on a line's stats
    /// share the line's plan. Each map is digested as a multiset (a wrapping
    /// sum of per-entry mixes), so no entry list is collected or sorted; the
    /// map digests, lengths and positions are then mixed in sequence. The
    /// value is an in-process memo key and is never persisted.
    pub fn content_digest(&self) -> u64 {
        fn multiset(map: &FxHashMap<BlockId, u64>) -> u64 {
            map.iter().fold(0u64, |acc, (b, &c)| {
                acc.wrapping_add(mix64(mix64(u64::from(b.0)).wrapping_add(c)))
            })
        }
        let mut h = mix64(self.count);
        for word in [
            self.at_blocks.len() as u64,
            multiset(&self.at_blocks),
            self.history_presence.len() as u64,
            multiset(&self.history_presence),
            self.positions.len() as u64,
        ] {
            h = mix64(h ^ word);
        }
        for &p in &self.positions {
            h = mix64(h ^ u64::from(p));
        }
        h
    }
}

/// All missing lines observed by a profiling pass.
#[derive(Debug, Clone, Default)]
pub struct MissProfile {
    by_line: FxHashMap<u64, LineMissStats>,
    total: u64,
}

impl MissProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sampled miss of `line` at `block`, trace position `idx`,
    /// with the 32-deep history window `history`.
    pub fn record(&mut self, line: Line, block: BlockId, idx: u32, history: &[BlockId]) {
        let stats = self.by_line.entry(line.raw()).or_default();
        stats.count += 1;
        *stats.at_blocks.entry(block).or_insert(0) += 1;
        // Presence, not multiplicity: each distinct block counts once per
        // sample (the Bloom filter tests presence only).
        let mut seen = Vec::with_capacity(history.len());
        for &h in history {
            if !seen.contains(&h) {
                seen.push(h);
                *stats.history_presence.entry(h).or_insert(0) += 1;
            }
        }
        stats.positions.push(idx);
        self.total += 1;
    }

    /// Installs fully-formed stats for `line`, replacing any existing entry
    /// — the exact-reconstruction entry point used by the artifact decoder
    /// and by the fleet consensus merge (the incremental
    /// [`MissProfile::record`] path cannot rebuild presorted stats
    /// verbatim).
    ///
    /// # Examples
    ///
    /// ```
    /// use ispy_profile::{LineMissStats, MissProfile};
    /// use ispy_trace::Line;
    ///
    /// let mut mp = MissProfile::new();
    /// let stats = LineMissStats { count: 3, positions: vec![1, 5, 9], ..Default::default() };
    /// mp.insert_line(Line::new(64), stats);
    /// assert_eq!(mp.total_misses(), 3);
    /// ```
    pub fn insert_line(&mut self, line: Line, stats: LineMissStats) {
        self.total += stats.count;
        if let Some(old) = self.by_line.insert(line.raw(), stats) {
            self.total -= old.count;
        }
    }

    /// Folds one delta miss sample into the profile — the same accumulation
    /// as [`MissProfile::record`], except the trace position is inserted in
    /// sorted order so windows may arrive out of order and still reproduce
    /// the profile an in-order recording would have built (positions are
    /// documented ascending, and the planner's byte-equality depends on it).
    pub fn fold_sample(&mut self, line: Line, block: BlockId, idx: u32, history: &[BlockId]) {
        let stats = self.by_line.entry(line.raw()).or_default();
        stats.count += 1;
        *stats.at_blocks.entry(block).or_insert(0) += 1;
        let mut seen = Vec::with_capacity(history.len());
        for &h in history {
            if !seen.contains(&h) {
                seen.push(h);
                *stats.history_presence.entry(h).or_insert(0) += 1;
            }
        }
        match stats.positions.last() {
            Some(&last) if last > idx => {
                let at = stats.positions.partition_point(|&p| p < idx);
                stats.positions.insert(at, idx);
            }
            _ => stats.positions.push(idx),
        }
        self.total += 1;
    }

    /// Removes one previously-folded (or recorded) sample — the exact
    /// inverse of [`MissProfile::fold_sample`]. Entries whose counts reach
    /// zero are deleted outright, so a profile with a sample removed is
    /// byte-equal (and digest-equal) to one that never saw it.
    ///
    /// # Panics
    ///
    /// Panics if the sample was never in the profile (unknown line, absent
    /// trace position, or underflowing block/history counts) — removing
    /// phantom samples would silently corrupt the profile.
    pub fn unfold_sample(&mut self, line: Line, block: BlockId, idx: u32, history: &[BlockId]) {
        let stats = self.by_line.get_mut(&line.raw()).expect("unfold of an unknown line");
        let at = stats.positions.partition_point(|&p| p < idx);
        assert!(
            stats.positions.get(at) == Some(&idx),
            "unfold of a sample not in the profile (line {line}, idx {idx})"
        );
        stats.positions.remove(at);
        stats.count -= 1;
        let bc = stats.at_blocks.get_mut(&block).expect("unfold underflows at_blocks");
        *bc -= 1;
        if *bc == 0 {
            stats.at_blocks.remove(&block);
        }
        let mut seen = Vec::with_capacity(history.len());
        for &h in history {
            if !seen.contains(&h) {
                seen.push(h);
                let hc =
                    stats.history_presence.get_mut(&h).expect("unfold underflows history presence");
                *hc -= 1;
                if *hc == 0 {
                    stats.history_presence.remove(&h);
                }
            }
        }
        if stats.count == 0 {
            self.by_line.remove(&line.raw());
        }
        self.total -= 1;
    }

    /// Stats for `line`, if it ever missed.
    pub fn line(&self, line: Line) -> Option<&LineMissStats> {
        self.by_line.get(&line.raw())
    }

    /// Total sampled misses.
    pub fn total_misses(&self) -> u64 {
        self.total
    }

    /// Number of distinct missing lines.
    pub fn num_lines(&self) -> usize {
        self.by_line.len()
    }

    /// Missing lines ordered by miss count, heaviest first.
    pub fn lines_by_count(&self) -> Vec<(Line, &LineMissStats)> {
        let mut v: Vec<(Line, &LineMissStats)> =
            self.by_line.iter().map(|(&raw, s)| (Line::new(raw), s)).collect();
        v.sort_by_key(|&(l, s)| (std::cmp::Reverse(s.count), l));
        v
    }

    /// Iterates all `(line, stats)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Line, &LineMissStats)> {
        self.by_line.iter().map(|(&raw, s)| (Line::new(raw), s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u32) -> BlockId {
        BlockId(i)
    }

    #[test]
    fn record_accumulates() {
        let mut mp = MissProfile::new();
        let l = Line::new(100);
        mp.record(l, b(5), 10, &[b(1), b(2), b(1)]);
        mp.record(l, b(5), 20, &[b(2), b(3)]);
        let s = mp.line(l).unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.at_blocks[&b(5)], 2);
        // b(1) appeared twice in one sample -> presence counted once.
        assert_eq!(s.history_presence[&b(1)], 1);
        assert_eq!(s.history_presence[&b(2)], 2);
        assert_eq!(s.positions, vec![10, 20]);
        assert_eq!(mp.total_misses(), 2);
        assert_eq!(mp.num_lines(), 1);
    }

    #[test]
    fn dominant_block() {
        let mut mp = MissProfile::new();
        let l = Line::new(7);
        mp.record(l, b(1), 0, &[]);
        mp.record(l, b(2), 1, &[]);
        mp.record(l, b(2), 2, &[]);
        assert_eq!(mp.line(l).unwrap().dominant_block(), Some(b(2)));
    }

    #[test]
    fn next_miss_lookup() {
        let mut mp = MissProfile::new();
        let l = Line::new(1);
        for idx in [5u32, 10, 20] {
            mp.record(l, b(0), idx, &[]);
        }
        let s = mp.line(l).unwrap();
        assert_eq!(s.next_miss_at_or_after(0), Some(5));
        assert_eq!(s.next_miss_at_or_after(5), Some(5));
        assert_eq!(s.next_miss_at_or_after(6), Some(10));
        assert_eq!(s.next_miss_at_or_after(21), None);
    }

    #[test]
    fn lines_by_count_sorted() {
        let mut mp = MissProfile::new();
        mp.record(Line::new(1), b(0), 0, &[]);
        mp.record(Line::new(2), b(0), 1, &[]);
        mp.record(Line::new(2), b(0), 2, &[]);
        let order: Vec<u64> = mp.lines_by_count().iter().map(|(l, _)| l.raw()).collect();
        assert_eq!(order, vec![2, 1]);
    }

    #[test]
    fn missing_line_lookup_is_none() {
        let mp = MissProfile::new();
        assert!(mp.line(Line::new(42)).is_none());
        assert_eq!(mp.total_misses(), 0);
    }

    #[test]
    fn fold_out_of_order_matches_in_order_record() {
        let l = Line::new(100);
        let samples = [(b(5), 10u32, vec![b(1), b(2)]), (b(5), 20, vec![b(2)]), (b(6), 30, vec![])];
        let mut in_order = MissProfile::new();
        for (blk, idx, hist) in &samples {
            in_order.record(l, *blk, *idx, hist);
        }
        let mut shuffled = MissProfile::new();
        for &i in &[2usize, 0, 1] {
            let (blk, idx, hist) = &samples[i];
            shuffled.fold_sample(l, *blk, *idx, hist);
        }
        let a = in_order.line(l).unwrap();
        let s = shuffled.line(l).unwrap();
        assert_eq!(a.positions, s.positions);
        assert_eq!(a.content_digest(), s.content_digest());
        assert_eq!(in_order.total_misses(), shuffled.total_misses());
    }

    #[test]
    fn unfold_is_exact_inverse_of_fold() {
        let l = Line::new(7);
        let mut mp = MissProfile::new();
        mp.record(l, b(1), 5, &[b(9)]);
        let before = mp.line(l).unwrap().content_digest();
        mp.fold_sample(l, b(2), 9, &[b(9), b(4)]);
        assert_eq!(mp.total_misses(), 2);
        mp.unfold_sample(l, b(2), 9, &[b(9), b(4)]);
        assert_eq!(mp.total_misses(), 1);
        let after = mp.line(l).unwrap();
        assert_eq!(after.content_digest(), before);
        assert!(!after.at_blocks.contains_key(&b(2)), "zeroed block counts are deleted");
        assert!(!after.history_presence.contains_key(&b(4)));
    }

    #[test]
    fn unfold_last_sample_removes_the_line() {
        let l = Line::new(64);
        let mut mp = MissProfile::new();
        mp.record(l, b(1), 3, &[b(2)]);
        mp.unfold_sample(l, b(1), 3, &[b(2)]);
        assert!(mp.line(l).is_none(), "a line whose last miss is removed must vanish");
        assert_eq!(mp.total_misses(), 0);
        assert_eq!(mp.num_lines(), 0);
    }

    #[test]
    #[should_panic(expected = "not in the profile")]
    fn unfold_phantom_sample_panics() {
        let l = Line::new(64);
        let mut mp = MissProfile::new();
        mp.record(l, b(1), 3, &[]);
        mp.unfold_sample(l, b(1), 4, &[]);
    }

    #[test]
    fn content_digest_ignores_map_insertion_order() {
        let l = Line::new(1);
        let mut a = MissProfile::new();
        a.record(l, b(1), 0, &[b(3), b(4)]);
        a.record(l, b(2), 1, &[b(4)]);
        let mut c = MissProfile::new();
        c.fold_sample(l, b(2), 1, &[b(4)]);
        c.fold_sample(l, b(1), 0, &[b(3), b(4)]);
        assert_eq!(a.line(l).unwrap().content_digest(), c.line(l).unwrap().content_digest());
        let mut d = MissProfile::new();
        d.record(l, b(1), 0, &[b(3), b(4)]);
        d.record(l, b(2), 2, &[b(4)]);
        assert_ne!(a.line(l).unwrap().content_digest(), d.line(l).unwrap().content_digest());
    }

    #[test]
    fn content_digest_sees_every_field_but_not_insertion_order() {
        let base = LineMissStats {
            count: 5,
            at_blocks: [(b(1), 3), (b(2), 2)].into_iter().collect(),
            history_presence: [(b(3), 4), (b(4), 1), (b(5), 5)].into_iter().collect(),
            positions: vec![10, 20, 30, 40, 50],
        };
        let d = base.content_digest();
        // The same entries inserted in the reverse order.
        let reversed = LineMissStats {
            at_blocks: [(b(2), 2), (b(1), 3)].into_iter().collect(),
            history_presence: [(b(5), 5), (b(4), 1), (b(3), 4)].into_iter().collect(),
            ..base.clone()
        };
        assert_eq!(reversed.content_digest(), d);
        let mut changed = Vec::new();
        let mut s = base.clone();
        s.count += 1;
        changed.push(("count", s));
        let mut s = base.clone();
        *s.at_blocks.get_mut(&b(1)).unwrap() += 1;
        changed.push(("at_blocks count", s));
        let mut s = base.clone();
        *s.history_presence.get_mut(&b(4)).unwrap() += 1;
        changed.push(("history count", s));
        let mut s = base.clone();
        s.positions[2] = 31;
        changed.push(("position", s));
        let mut s = base.clone();
        s.positions.swap(1, 2);
        changed.push(("position order", s));
        // Blocks 1 and 4 trade maps, entries unchanged: both maps keep
        // their sizes and the union of entries stays the same.
        let mut s = base.clone();
        s.at_blocks.remove(&b(1));
        s.history_presence.remove(&b(4));
        s.at_blocks.insert(b(4), 1);
        s.history_presence.insert(b(1), 3);
        changed.push(("map membership", s));
        // Two entries swapping their counts keeps both multisets' sizes.
        let mut s = base.clone();
        s.history_presence.insert(b(3), 5);
        s.history_presence.insert(b(5), 4);
        changed.push(("count owner", s));
        for (what, s) in changed {
            assert_ne!(s.content_digest(), d, "changing the {what} must change the digest");
        }
    }
}
