//! Integration tests for the artifact subsystem: cross-crate round trips,
//! seeded corruption (decoders must return typed errors, never panic),
//! re-framed containers, monolithic recordings from before the framed form,
//! and the external-ingest pipeline.

use ispy_artifact::{ArtifactError, ArtifactKind, SectionWriter, StreamReader, StreamWriter};
use ispy_core::{IspyConfig, Planner};
use ispy_harness::metrics;
use ispy_profile::{profile, SampleRate};
use ispy_sim::{replay_stream, run, RunOptions, SimConfig};
use ispy_trace::artifact::{open_recording_stream, read_recording, recording_from_bytes};
use ispy_trace::{apps, ingest, BlockSource};
use std::path::Path;

/// xorshift64* — a tiny seeded generator so the corruption tests are
/// reproducible without external crates.
fn next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// A small but non-trivial recording to corrupt.
fn sample_recording() -> (ispy_trace::Program, ispy_trace::Trace) {
    let model = apps::cassandra().scaled_down(40);
    let program = model.generate();
    let trace = program.record_trace(model.default_input(), 4_000);
    (program, trace)
}

/// A monolithic `.itrace` written before the framed form existed, by
/// `repro record finagle-http --test-scale --events 2000`. No writer emits
/// this form any more, so the committed file is its only source.
const MONOLITHIC: &[u8] = include_bytes!("data/finagle-http-monolithic.itrace");

/// The program and trace [`MONOLITHIC`] holds (`--test-scale` shrinks the
/// model 20x).
fn monolithic_recording() -> (ispy_trace::Program, ispy_trace::Trace) {
    let model = apps::finagle_http().scaled_down(20);
    let program = model.generate();
    let trace = program.record_trace(model.default_input(), 2_000);
    (program, trace)
}

/// Both `.itrace` forms to corrupt: a freshly written framed recording and
/// the committed monolithic one.
fn corruption_inputs() -> [Vec<u8>; 2] {
    let (program, trace) = sample_recording();
    [ispy_trace::artifact::recording_to_bytes(&program, &trace), MONOLITHIC.to_vec()]
}

#[test]
fn all_three_artifact_kinds_round_trip_across_crates() {
    let (program, trace) = sample_recording();
    let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
    let plan = Planner::new(&program, &trace, &prof, IspyConfig::default()).plan();

    let tb = ispy_trace::artifact::recording_to_bytes(&program, &trace);
    let (p2, t2) = recording_from_bytes(&tb).unwrap();
    assert_eq!(p2.blocks(), program.blocks());
    assert_eq!(t2, trace);

    let pb = ispy_profile::artifact::profile_to_bytes(program.name(), &prof);
    let (label, prof2) = ispy_profile::artifact::profile_from_bytes(&pb).unwrap();
    assert_eq!(label, program.name());
    assert_eq!(prof2.misses.total_misses(), prof.misses.total_misses());

    let lb = ispy_core::artifact::plan_to_bytes(program.name(), &plan);
    let (label, plan2) = ispy_core::artifact::plan_from_bytes(&lb).unwrap();
    assert_eq!(label, program.name());
    assert_eq!(plan2, plan);

    // A plan rebuilt from the round-tripped profile is identical too: the
    // codec is exact, so downstream decisions cannot diverge.
    let replanned = Planner::new(&p2, &t2, &prof2, IspyConfig::default()).plan();
    assert_eq!(replanned, plan);
}

#[test]
fn seeded_random_bit_flips_error_and_never_panic() {
    for bytes in corruption_inputs() {
        let mut state = 0x15B4_u64 ^ 0xDEAD_BEEF_u64;
        for _ in 0..500 {
            let mut corrupt = bytes.clone();
            let bit = (next(&mut state) as usize) % (corrupt.len() * 8);
            corrupt[bit / 8] ^= 1 << (bit % 8);
            assert!(recording_from_bytes(&corrupt).is_err(), "bit flip at {bit} went undetected");
        }
    }
}

#[test]
fn seeded_random_truncations_error_and_never_panic() {
    for bytes in corruption_inputs() {
        let mut state = 0x5EED_u64;
        for _ in 0..200 {
            let cut = (next(&mut state) as usize) % bytes.len();
            assert!(
                recording_from_bytes(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }
}

#[test]
fn monolithic_recordings_still_decode() {
    let (program, trace) = monolithic_recording();
    let (p2, t2) = recording_from_bytes(MONOLITHIC).unwrap();
    assert_eq!(p2.name(), program.name());
    assert_eq!(p2.blocks(), program.blocks());
    assert_eq!(p2.request_paths(), program.request_paths());
    assert_eq!(t2, trace);

    let (p3, mut stream) = open_recording_stream(MONOLITHIC).unwrap();
    assert_eq!(p3.blocks(), program.blocks());
    assert_eq!(stream.name(), trace.name());
    let mut events = Vec::new();
    while let Some(chunk) = stream.next_chunk().unwrap() {
        events.extend_from_slice(chunk);
    }
    assert_eq!(events, trace.blocks());
}

#[test]
fn repro_replay_of_a_monolithic_recording_matches_with_and_without_stream() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/data/finagle-http-monolithic.itrace");
    let replay = |extra: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg("replay")
            .arg(&path)
            .args(extra)
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).unwrap()
    };
    let materialized = replay(&[]);
    assert_eq!(replay(&["--stream"]), materialized);
    let (program, trace) = monolithic_recording();
    let live = run(&program, &trace, &SimConfig::default(), RunOptions::default());
    assert_eq!(materialized, metrics::result_lines(program.name(), &live));
}

/// First frame-section id of the framed `.itrace` form.
const FRAME_BASE: u32 = 0x4000_0000;

/// Re-frames a trace artifact after `edit` rewrites its `(id, payload)`
/// sections: every CRC and the header count are valid again, so only the
/// decoder's own checks can tell.
fn reframed(bytes: &[u8], edit: impl FnOnce(&mut Vec<(u32, Vec<u8>)>)) -> Vec<u8> {
    let mut r = StreamReader::new(bytes, ArtifactKind::Trace).unwrap();
    let mut sections = Vec::new();
    while let Some((id, _)) = r.next_section().unwrap() {
        sections.push((id, r.take_payload().unwrap()));
    }
    edit(&mut sections);
    let mut w = StreamWriter::new(std::io::Cursor::new(Vec::new()), ArtifactKind::Trace).unwrap();
    for (id, payload) in sections {
        let mut s = SectionWriter::new(id);
        payload.iter().for_each(|&b| s.put_u8(b));
        w.write_section(s).unwrap();
    }
    w.finish().unwrap().into_inner()
}

/// Records `trace` through the streaming writer (the framed form).
fn framed(program: &ispy_trace::Program, trace: &ispy_trace::Trace) -> Vec<u8> {
    let sink = std::io::Cursor::new(Vec::new());
    let mut w = ispy_trace::artifact::RecordingWriter::new(sink, program, trace.name()).unwrap();
    w.push(trace.blocks()).unwrap();
    w.finish().unwrap().into_inner()
}

/// Every decoder entry point rejects `bytes` as out of section order.
fn assert_section_order_rejected(bytes: &[u8], tag: &str) {
    let check = |entry: &str, result: Result<(), ArtifactError>| match result {
        Err(ArtifactError::Malformed { context: "section order", .. }) => {}
        other => panic!("{tag}: {entry} returned {other:?}"),
    };
    check("recording_from_bytes", recording_from_bytes(bytes).map(drop));
    let dir = std::env::temp_dir().join(format!("ispy-reframed-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("reframed.itrace");
    std::fs::write(&path, bytes).unwrap();
    check("read_recording", read_recording(&path).map(drop));
    std::fs::remove_dir_all(&dir).ok();
    let replayed = replay_stream(bytes, &SimConfig::default(), RunOptions::default());
    check("replay_stream", replayed.map(drop));
}

/// A 200 000-event recording spans four frames. With frame 1 cut out and
/// the container re-sealed, it must not decode as a plausible 65 536-event
/// trace.
#[test]
fn a_recording_missing_a_frame_is_rejected() {
    let model = apps::finagle_http().scaled_down(20);
    let program = model.generate();
    let trace = program.record_trace(model.default_input(), 200_000);
    let cut = reframed(&framed(&program, &trace), |sections| {
        let frames = sections.iter().filter(|(id, _)| *id >= FRAME_BASE).count();
        assert_eq!(frames, 4);
        sections.retain(|(id, _)| *id != FRAME_BASE + 1);
    });
    assert_section_order_rejected(&cut, "missing-frame");
}

/// A section no writer emits, after the last frame, is an error rather than
/// silently ignored.
#[test]
fn an_unknown_section_after_the_last_frame_is_rejected() {
    let (program, trace) = sample_recording();
    let extended = reframed(&framed(&program, &trace), |sections| sections.push((99, vec![0])));
    assert_section_order_rejected(&extended, "unknown-section");
}

#[test]
fn corrupt_profile_and_plan_artifacts_error_and_never_panic() {
    let (program, trace) = sample_recording();
    let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
    let plan = Planner::new(&program, &trace, &prof, IspyConfig::default()).plan();
    let pb = ispy_profile::artifact::profile_to_bytes("x", &prof);
    let lb = ispy_core::artifact::plan_to_bytes("x", &plan);
    let mut state = 0xCAFE_u64;
    for _ in 0..200 {
        let mut corrupt = pb.clone();
        let bit = (next(&mut state) as usize) % (corrupt.len() * 8);
        corrupt[bit / 8] ^= 1 << (bit % 8);
        assert!(ispy_profile::artifact::profile_from_bytes(&corrupt).is_err());
        let mut corrupt = lb.clone();
        let bit = (next(&mut state) as usize) % (corrupt.len() * 8);
        corrupt[bit / 8] ^= 1 << (bit % 8);
        assert!(ispy_core::artifact::plan_from_bytes(&corrupt).is_err());
    }
}

#[test]
fn wrong_kind_is_rejected_across_codecs() {
    let (program, trace) = sample_recording();
    let tb = ispy_trace::artifact::recording_to_bytes(&program, &trace);
    // A valid .itrace is not a .iprof or .iplan.
    assert!(ispy_profile::artifact::profile_from_bytes(&tb).is_err());
    assert!(ispy_core::artifact::plan_from_bytes(&tb).is_err());
}

#[test]
fn ingested_dump_replays_through_the_artifact_path() {
    let dump = "# synthetic perf script -F brstack dump\n\
                0x400000/0x400800/P/-/-/3 0x400880/0x400000/P/-/-/5\n\
                0x400000/0x401000/M/-/-/2 0x401040/0x400000/P/-/-/1\n\
                0x400000/0x400800/P/-/-/4\n";
    let (program, trace) = ingest::parse_perf_script(dump).unwrap();
    program.validate().unwrap();
    let dir = std::env::temp_dir().join(format!("ispy-artifacts-it-{}", std::process::id()));
    let path = dir.join("ingested.itrace");
    ispy_trace::artifact::write_recording(&program, &trace, &path).unwrap();
    let live = run(&program, &trace, &SimConfig::default(), RunOptions::default());
    let file = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
    let replayed = replay_stream(file, &SimConfig::default(), RunOptions::default()).unwrap();
    assert_eq!(replayed.result, live);
    assert_eq!(replayed.name, "ingested");
    std::fs::remove_dir_all(&dir).ok();
}
