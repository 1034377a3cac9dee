//! The `.iprof` artifact codec: a durable miss-annotated profile.
//!
//! Serializes a [`Profile`] — the dynamic CFG (execution counts, average
//! cycle costs, weighted edges) plus the per-line miss statistics — so the
//! offline analysis can run on a different machine, or later, than the
//! profiling pass, exactly as the paper's deployment model assumes.
//!
//! Exactness matters more than compactness here: the planner's decisions
//! are functions of these numbers, so `f64`s travel as raw bit patterns and
//! every map is written in sorted order. A reloaded profile is
//! indistinguishable from the in-memory original — plans built from it are
//! equal, and replays of those plans byte-identical.
//!
//! # Examples
//!
//! ```
//! use ispy_profile::{artifact, profile, SampleRate};
//! use ispy_sim::SimConfig;
//! use ispy_trace::apps;
//!
//! let model = apps::drupal().scaled_down(60);
//! let program = model.generate();
//! let trace = program.record_trace(model.default_input(), 5_000);
//! let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
//! let bytes = artifact::profile_to_bytes(program.name(), &prof);
//! let (label, prof2) = artifact::profile_from_bytes(&bytes).unwrap();
//! assert_eq!(label, "drupal");
//! assert_eq!(prof2.misses.total_misses(), prof.misses.total_misses());
//! ```

use crate::collect::Profile;
use crate::dyncfg::DynCfg;
use crate::miss::{LineMissStats, MissProfile};
use ispy_artifact::{narrow, ArtifactError, ArtifactKind, ArtifactReader, ArtifactWriter};
use ispy_trace::{BlockId, Line};
use std::collections::HashMap;
use std::path::Path;

/// Label, trace length, LBR depth, block count.
const SEC_META: u32 = 1;
/// Per-block execution counts.
const SEC_CFG_EXEC: u32 = 2;
/// Per-block average cycle costs (exact `f64` bits).
const SEC_CFG_CYCLES: u32 = 3;
/// Weighted dynamic edges, sorted by (from, to).
const SEC_CFG_EDGES: u32 = 4;
/// Per-line miss statistics, sorted by line address.
const SEC_MISSES: u32 = 5;

/// Serializes a profile to artifact bytes under an app `label`.
pub fn profile_to_bytes(label: &str, profile: &Profile) -> Vec<u8> {
    let n = profile.cfg.num_blocks();
    let mut w = ArtifactWriter::new(ArtifactKind::Profile);

    let mut meta = w.section(SEC_META);
    meta.put_str(label);
    meta.put_varint(profile.trace_len as u64);
    meta.put_varint(profile.lbr_depth as u64);
    meta.put_varint(n as u64);
    w.finish_section(meta);

    let mut exec = w.section(SEC_CFG_EXEC);
    for i in 0..n {
        exec.put_varint(profile.cfg.exec_count(BlockId(i as u32)));
    }
    w.finish_section(exec);

    let mut cycles = w.section(SEC_CFG_CYCLES);
    for i in 0..n {
        cycles.put_f64(profile.cfg.avg_cycles(BlockId(i as u32)));
    }
    w.finish_section(cycles);

    let mut all_edges: Vec<(u32, u32, u64)> = Vec::new();
    for i in 0..n {
        for &(to, weight) in profile.cfg.succs(BlockId(i as u32)) {
            all_edges.push((i as u32, to.0, weight));
        }
    }
    all_edges.sort_unstable();
    let mut edges = w.section(SEC_CFG_EDGES);
    edges.put_varint(all_edges.len() as u64);
    for (from, to, weight) in all_edges {
        edges.put_delta(u64::from(from));
        edges.put_varint(u64::from(to));
        edges.put_varint(weight);
    }
    w.finish_section(edges);

    let mut by_line: Vec<(u64, &LineMissStats)> =
        profile.misses.iter().map(|(l, s)| (l.raw(), s)).collect();
    by_line.sort_unstable_by_key(|&(raw, _)| raw);
    let mut misses = w.section(SEC_MISSES);
    misses.put_varint(by_line.len() as u64);
    for (raw, stats) in by_line {
        misses.put_delta(raw);
        misses.put_varint(stats.count);
        let mut sorted: Vec<(u32, u64)> = stats.at_blocks.iter().map(|(&b, &c)| (b.0, c)).collect();
        sorted.sort_unstable();
        misses.put_varint(sorted.len() as u64);
        for (b, c) in sorted {
            misses.put_varint(u64::from(b));
            misses.put_varint(c);
        }
        let mut sorted: Vec<(u32, u64)> =
            stats.history_presence.iter().map(|(&b, &c)| (b.0, c)).collect();
        sorted.sort_unstable();
        misses.put_varint(sorted.len() as u64);
        for (b, c) in sorted {
            misses.put_varint(u64::from(b));
            misses.put_varint(c);
        }
        misses.put_varint(stats.positions.len() as u64);
        let mut prev = 0u32;
        for &p in &stats.positions {
            misses.put_varint(u64::from(p - prev));
            prev = p;
        }
    }
    w.finish_section(misses);

    w.to_bytes()
}

/// Writes a profile to `path` (conventionally `*.iprof`).
///
/// # Errors
///
/// [`ArtifactError::Io`] on filesystem failure.
pub fn write_profile(label: &str, profile: &Profile, path: &Path) -> Result<(), ArtifactError> {
    std::fs::create_dir_all(path.parent().unwrap_or_else(|| Path::new(".")))
        .map_err(|e| ArtifactError::io(path, e))?;
    std::fs::write(path, profile_to_bytes(label, profile)).map_err(|e| ArtifactError::io(path, e))
}

/// The cheap-to-decode identity of a profile artifact: everything a fleet
/// ingest pass needs to shard and sanity-check thousands of `.iprof` files
/// without paying for the full miss-statistics decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileMeta {
    /// The app label the profile was written under.
    pub label: String,
    /// Length of the profiled trace in block events.
    pub trace_len: usize,
    /// LBR depth used for history snapshots.
    pub lbr_depth: usize,
    /// Number of blocks the profile's CFG covers.
    pub num_blocks: usize,
}

/// Decodes only the metadata section of a profile artifact.
///
/// The container's section CRCs are still verified (corruption is detected),
/// but the CFG and miss sections are never parsed — this is what lets
/// `repro fleet ingest` classify thousands of artifacts in bounded time.
///
/// # Errors
///
/// Typed [`ArtifactError`] on container damage or a malformed meta section.
///
/// # Examples
///
/// ```
/// use ispy_profile::{artifact, profile, SampleRate};
/// use ispy_sim::SimConfig;
/// use ispy_trace::apps;
///
/// let model = apps::kafka().scaled_down(60);
/// let program = model.generate();
/// let trace = program.record_trace(model.default_input(), 4_000);
/// let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
/// let bytes = artifact::profile_to_bytes("kafka", &prof);
/// let meta = artifact::peek_profile_meta(&bytes).unwrap();
/// assert_eq!(meta.label, "kafka");
/// assert_eq!(meta.trace_len, 4_000);
/// ```
pub fn peek_profile_meta(bytes: &[u8]) -> Result<ProfileMeta, ArtifactError> {
    let r = ArtifactReader::from_bytes(bytes, ArtifactKind::Profile)?;
    let mut meta = r.require_section(SEC_META)?;
    let label = meta.take_str()?;
    let trace_len: usize = narrow(meta.take_varint()?, "trace length")?;
    let lbr_depth: usize = narrow(meta.take_varint()?, "lbr depth")?;
    let num_blocks: usize = narrow(meta.take_varint()?, "block count")?;
    meta.finish()?;
    Ok(ProfileMeta { label, trace_len, lbr_depth, num_blocks })
}

/// Decodes `(label, profile)` from artifact bytes.
///
/// # Errors
///
/// Typed [`ArtifactError`] on any container- or payload-level defect; block
/// ids and edge endpoints are range-checked before the (panicking)
/// [`DynCfg`] constructor runs.
pub fn profile_from_bytes(bytes: &[u8]) -> Result<(String, Profile), ArtifactError> {
    let r = ArtifactReader::from_bytes(bytes, ArtifactKind::Profile)?;

    let mut meta = r.require_section(SEC_META)?;
    let label = meta.take_str()?;
    let trace_len: usize = narrow(meta.take_varint()?, "trace length")?;
    let lbr_depth: usize = narrow(meta.take_varint()?, "lbr depth")?;
    let num_blocks: usize = narrow(meta.take_varint()?, "block count")?;
    meta.finish()?;

    let mut exec_sec = r.require_section(SEC_CFG_EXEC)?;
    let mut exec = Vec::with_capacity(num_blocks);
    for _ in 0..num_blocks {
        exec.push(exec_sec.take_varint()?);
    }
    exec_sec.finish()?;

    let mut cycles_sec = r.require_section(SEC_CFG_CYCLES)?;
    let mut avg_cycles = Vec::with_capacity(num_blocks);
    for _ in 0..num_blocks {
        avg_cycles.push(cycles_sec.take_f64()?);
    }
    cycles_sec.finish()?;

    let in_range = |raw: u64, what: &'static str| -> Result<u32, ArtifactError> {
        if (raw as usize) < num_blocks {
            Ok(raw as u32)
        } else {
            Err(ArtifactError::malformed(what, format!("block id {raw} out of range")))
        }
    };

    let mut edges_sec = r.require_section(SEC_CFG_EDGES)?;
    let n_edges: usize = narrow(edges_sec.take_varint()?, "edge count")?;
    let mut edges: HashMap<(u32, u32), u64> = HashMap::with_capacity(n_edges.min(1 << 22));
    for _ in 0..n_edges {
        let from = in_range(edges_sec.take_delta()?, "edge source")?;
        let to = in_range(edges_sec.take_varint()?, "edge target")?;
        let weight = edges_sec.take_varint()?;
        if edges.insert((from, to), weight).is_some() {
            return Err(ArtifactError::malformed("edge", format!("duplicate edge {from}->{to}")));
        }
    }
    edges_sec.finish()?;

    let mut misses_sec = r.require_section(SEC_MISSES)?;
    let n_lines: usize = narrow(misses_sec.take_varint()?, "miss line count")?;
    let mut misses = MissProfile::new();
    let mut prev_line = 0u64;
    for _ in 0..n_lines {
        let raw = misses_sec.take_delta()?;
        if raw < prev_line {
            return Err(ArtifactError::malformed("miss line", "lines not sorted"));
        }
        prev_line = raw + 1;
        let count = misses_sec.take_varint()?;
        let mut stats = LineMissStats { count, ..Default::default() };
        let n_at: usize = narrow(misses_sec.take_varint()?, "at-block count")?;
        for _ in 0..n_at {
            let b = in_range(misses_sec.take_varint()?, "at-block id")?;
            stats.at_blocks.insert(BlockId(b), misses_sec.take_varint()?);
        }
        let n_hist: usize = narrow(misses_sec.take_varint()?, "history-block count")?;
        for _ in 0..n_hist {
            let b = in_range(misses_sec.take_varint()?, "history-block id")?;
            stats.history_presence.insert(BlockId(b), misses_sec.take_varint()?);
        }
        let n_pos: usize = narrow(misses_sec.take_varint()?, "position count")?;
        if n_pos as u64 != count {
            return Err(ArtifactError::malformed("miss positions", "count/positions mismatch"));
        }
        let mut prev = 0u64;
        stats.positions.reserve(n_pos.min(1 << 24));
        for _ in 0..n_pos {
            let p = prev + misses_sec.take_varint()?;
            stats.positions.push(narrow(p, "miss position")?);
            prev = p;
        }
        misses.insert_line(Line::new(raw), stats);
    }
    misses_sec.finish()?;

    let profile =
        Profile { cfg: DynCfg::new(exec, avg_cycles, &edges), misses, trace_len, lbr_depth };
    Ok((label, profile))
}

/// Reads `(label, profile)` from `path`.
///
/// # Errors
///
/// [`ArtifactError::Io`] on filesystem failure, otherwise as
/// [`profile_from_bytes`].
pub fn read_profile(path: &Path) -> Result<(String, Profile), ArtifactError> {
    let bytes = std::fs::read(path).map_err(|e| ArtifactError::io(path, e))?;
    profile_from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{profile, SampleRate};
    use ispy_sim::SimConfig;
    use ispy_trace::apps;

    fn sample() -> (String, Profile) {
        let model = apps::finagle_http().scaled_down(50);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 8_000);
        let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
        (program.name().to_string(), prof)
    }

    #[test]
    fn round_trip_preserves_cfg_and_misses_exactly() {
        let (name, prof) = sample();
        let bytes = profile_to_bytes(&name, &prof);
        let (label, p2) = profile_from_bytes(&bytes).unwrap();
        assert_eq!(label, name);
        assert_eq!(p2.trace_len, prof.trace_len);
        assert_eq!(p2.lbr_depth, prof.lbr_depth);
        assert_eq!(p2.cfg.num_blocks(), prof.cfg.num_blocks());
        for i in 0..prof.cfg.num_blocks() {
            let b = BlockId(i as u32);
            assert_eq!(p2.cfg.exec_count(b), prof.cfg.exec_count(b));
            assert_eq!(p2.cfg.avg_cycles(b).to_bits(), prof.cfg.avg_cycles(b).to_bits());
            assert_eq!(p2.cfg.succs(b), prof.cfg.succs(b));
            assert_eq!(p2.cfg.preds(b), prof.cfg.preds(b));
        }
        assert_eq!(p2.misses.total_misses(), prof.misses.total_misses());
        assert_eq!(p2.misses.num_lines(), prof.misses.num_lines());
        for (line, stats) in prof.misses.iter() {
            let s2 = p2.misses.line(line).expect("line survived the round trip");
            assert_eq!(s2.count, stats.count);
            assert_eq!(s2.at_blocks, stats.at_blocks);
            assert_eq!(s2.history_presence, stats.history_presence);
            assert_eq!(s2.positions, stats.positions);
        }
    }

    #[test]
    fn reencoding_is_byte_identical() {
        let (name, prof) = sample();
        let bytes = profile_to_bytes(&name, &prof);
        let (label, p2) = profile_from_bytes(&bytes).unwrap();
        assert_eq!(profile_to_bytes(&label, &p2), bytes);
    }

    #[test]
    fn out_of_range_edge_is_malformed_not_panic() {
        let (name, prof) = sample();
        let mut bytes = profile_to_bytes(&name, &prof);
        // Shrink the declared block count so every edge/id check trips.
        // Find META (section 1) and patch its block-count varint is fiddly;
        // instead rebuild with a lying META via the public API surface:
        // corrupting any byte is caught by CRC, so construct a tiny profile
        // whose edges reference out-of-range blocks directly.
        bytes.clear();
        let mut edges = HashMap::new();
        edges.insert((0u32, 1u32), 5u64);
        let small = Profile {
            cfg: DynCfg::new(vec![1, 1], vec![1.0, 1.0], &edges),
            misses: MissProfile::new(),
            trace_len: 2,
            lbr_depth: 32,
        };
        let good = profile_to_bytes("small", &small);
        // Decode, then re-encode a hostile variant by writing sections with
        // a block count of 1 but an edge to block 1.
        let r = ArtifactReader::from_bytes(&good, ArtifactKind::Profile).unwrap();
        drop(r);
        let mut w = ArtifactWriter::new(ArtifactKind::Profile);
        let mut meta = w.section(SEC_META);
        meta.put_str("small");
        meta.put_varint(2);
        meta.put_varint(32);
        meta.put_varint(1); // one block...
        w.finish_section(meta);
        let mut exec = w.section(SEC_CFG_EXEC);
        exec.put_varint(1);
        w.finish_section(exec);
        let mut cycles = w.section(SEC_CFG_CYCLES);
        cycles.put_f64(1.0);
        w.finish_section(cycles);
        let mut e = w.section(SEC_CFG_EDGES);
        e.put_varint(1);
        e.put_delta(0);
        e.put_varint(1); // ...but an edge to block 1.
        e.put_varint(5);
        w.finish_section(e);
        let mut m = w.section(SEC_MISSES);
        m.put_varint(0);
        w.finish_section(m);
        assert!(matches!(
            profile_from_bytes(&w.to_bytes()),
            Err(ArtifactError::Malformed { context: "edge target", .. })
        ));
    }

    #[test]
    fn missing_section_is_typed() {
        let w = ArtifactWriter::new(ArtifactKind::Profile);
        assert!(matches!(
            profile_from_bytes(&w.to_bytes()),
            Err(ArtifactError::MissingSection { id: SEC_META })
        ));
    }
}
