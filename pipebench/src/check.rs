//! Output checks and failure accounting.
//!
//! Every job's output is reduced to a 64-bit digest. At the default seed the
//! digests are compared against the reference stored with the benchmark
//! (`reference.tsv`); at any other seed each job's output must repeat
//! exactly across the run's repetitions. Sampled equivalence checks (fast
//! path vs reference loop, streamed vs materialized, delta vs full replan,
//! ...) are counted the same way. A failed check is counted, never fatal.

use ispy_core::Plan;
use ispy_isa::InjectionMap;
use ispy_sim::{OutcomeLedger, SimResult};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// The reference digests, compiled into the benchmark.
pub const REFERENCE: &str = include_str!("../reference.tsv");

/// 64-bit FNV-1a, a hasher whose output is the same on every run.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Digest of every counter of a simulation result.
pub fn digest_result(r: &SimResult) -> u64 {
    let mut h = Fnv::default();
    for v in [
        r.cycles,
        r.instrs,
        r.base_instrs,
        r.blocks,
        r.i_accesses,
        r.i_misses,
        r.i_stall_cycles,
        r.d_accesses,
        r.d_misses,
        r.d_stall_cycles,
        r.pf_ops_executed,
        r.pf_ops_fired,
        r.pf_ops_suppressed,
        r.pf_lines_issued,
        r.pf_lines_resident,
        r.pf_useful,
        r.pf_late,
        r.pf_evicted_unused,
    ] {
        h.write_u64(v);
    }
    h.finish()
}

/// Digest of an injection map: every site, op and provenance id in order.
pub fn digest_map(m: &InjectionMap) -> u64 {
    let mut h = Fnv::default();
    for (site, ops) in m.iter() {
        site.0.hash(&mut h);
        ops.hash(&mut h);
        for id in m.ids_at(site) {
            id.map(|p| p.0).hash(&mut h);
        }
    }
    h.finish()
}

/// Digest of a plan: its injections plus the headline plan statistics.
pub fn digest_plan(p: &Plan) -> u64 {
    let mut h = Fnv::default();
    h.write_u64(digest_map(&p.injections));
    for v in [
        p.stats.target_lines,
        p.stats.covered_lines,
        p.stats.sites,
        p.stats.ops_total(),
        p.stats.contexts_adopted,
        p.provenance.len(),
    ] {
        h.write_usize(v);
    }
    h.finish()
}

/// Folds two digests into one.
pub fn combine(a: u64, b: u64) -> u64 {
    let mut h = Fnv::default();
    h.write_u64(a);
    h.write_u64(b);
    h.finish()
}

/// Whole-plan equality, the relation delta and baseline-reusing replans
/// must keep with a from-scratch plan.
pub fn plans_equal(a: &Plan, b: &Plan) -> bool {
    a.injections == b.injections
        && a.stats == b.stats
        && a.context_details == b.context_details
        && a.provenance == b.provenance
}

/// Whether an outcome ledger's totals match the result's prefetch counters.
pub fn ledger_matches(ledger: &OutcomeLedger, r: &SimResult) -> bool {
    ledger.total(|o| o.executed) == r.pf_ops_executed
        && ledger.total(|o| o.fired) == r.pf_ops_fired
        && ledger.total(|o| o.suppressed) == r.pf_ops_suppressed
        && ledger.total(|o| o.lines_issued) == r.pf_lines_issued
        && ledger.total(|o| o.lines_resident) == r.pf_lines_resident
        && ledger.total(|o| o.useful) == r.pf_useful
        && ledger.total(|o| o.late) == r.pf_late
        && ledger.total(|o| o.evicted_unused) == r.pf_evicted_unused
}

/// Parses reference lines `workload<TAB>output<TAB>digest-hex` for one
/// workload. Blank lines and `#` comments are skipped.
///
/// # Errors
///
/// A malformed line.
pub fn parse_reference(text: &str, workload: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut map = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let [w, output, hex] = fields[..] else {
            return Err(format!("reference line {}: expected three tab-separated fields", n + 1));
        };
        let digest = u64::from_str_radix(hex, 16)
            .map_err(|e| format!("reference line {}: bad digest {hex:?}: {e}", n + 1))?;
        if w == workload {
            map.insert(output.to_string(), digest);
        }
    }
    Ok(map)
}

/// What the digests of a run are compared against.
pub enum Expect {
    /// The stored reference (default seed).
    Reference(BTreeMap<String, u64>),
    /// The first repetition of this run (any other seed, and `--bless`).
    FirstSeen,
}

/// Counts checked outputs and failures.
pub struct Checks {
    expect: Expect,
    seen: BTreeMap<String, u64>,
    /// Outputs and sampled equivalences checked.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// One line per failure, for the log.
    pub notes: Vec<String>,
}

impl Checks {
    /// A fresh counter comparing against `expect`.
    pub fn new(expect: Expect) -> Self {
        Checks { expect, seen: BTreeMap::new(), attempted: 0, failed: 0, notes: Vec::new() }
    }

    /// Counts one check; `what` names it in the failure log.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what.to_string());
            }
        }
    }

    /// Checks the digest of output `name` (a job id, or a named artifact
    /// of the run).
    pub fn output(&mut self, name: &str, digest: u64) {
        let first = *self.seen.entry(name.to_string()).or_insert(digest);
        let ok = match &self.expect {
            Expect::Reference(map) => map.get(name) == Some(&digest),
            Expect::FirstSeen => first == digest,
        };
        self.check(&format!("{name}: digest {digest:016x}"), ok);
    }

    /// Failed checks over attempted ones.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The reference lines for this run's outputs (`--bless`).
    pub fn reference_lines(&self, workload: &str) -> String {
        self.seen.iter().map(|(k, v)| format!("{workload}\t{k}\t{v:016x}\n")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_published_vector() {
        let mut h = Fnv::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn reference_parsing_filters_by_workload() {
        let text = "# comment\nsweep\tkafka/ctx1\t00000000000000ff\n\nreplay\tx\t1\n";
        let map = parse_reference(text, "sweep").unwrap();
        assert_eq!(map.len(), 1);
        assert_eq!(map["kafka/ctx1"], 0xff);
        assert!(parse_reference("sweep\tonly-two", "sweep").is_err());
        assert!(parse_reference("sweep\tx\tnothex", "sweep").is_err());
        // The stored reference parses.
        for w in ["sweep", "replay", "adapt"] {
            assert!(!parse_reference(REFERENCE, w).unwrap().is_empty(), "{w}");
        }
    }

    #[test]
    fn fail_frac_counts_a_corrupted_digest() {
        let good = digest_result(&SimResult { cycles: 10, ..Default::default() });
        let mut reference = BTreeMap::new();
        reference.insert("app/ok".to_string(), good);
        // Corrupt one stored digest by a single bit.
        reference.insert("app/bad".to_string(), good ^ 1);
        let mut checks = Checks::new(Expect::Reference(reference));
        checks.output("app/ok", good);
        checks.output("app/bad", good);
        checks.output("app/missing", good);
        checks.check("ordering", true);
        assert_eq!((checks.attempted, checks.failed), (4, 2));
        assert_eq!(checks.fail_frac(), 0.5);
        assert_eq!(checks.notes.len(), 2);
        assert!(checks.notes[0].starts_with("app/bad"));
    }

    #[test]
    fn other_seeds_require_repeats_to_agree() {
        let mut checks = Checks::new(Expect::FirstSeen);
        checks.output("a", 1);
        checks.output("a", 1);
        checks.output("a", 2);
        assert_eq!((checks.attempted, checks.failed), (3, 1));
        assert_eq!(checks.reference_lines("w"), "w\ta\t0000000000000001\n");
        assert_eq!(Checks::new(Expect::FirstSeen).fail_frac(), 0.0);
    }

    #[test]
    fn result_digest_sees_every_counter() {
        let base = SimResult::default();
        let a = digest_result(&base);
        assert_ne!(a, digest_result(&SimResult { pf_evicted_unused: 1, ..base }));
        assert_ne!(a, digest_result(&SimResult { cycles: 1, ..base }));
    }
}
