//! End-to-end and per-layer benchmark of the I-SPY pipeline
//! (trace → profile → plan → lower → replay).
//!
//! ```text
//! pipebench --workload <sweep|replay|adapt> --seed <n> --seconds <s> --trace <0|1> [--bless]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`, holding
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A log of every metric goes to standard error. `--bless`
//! (default seed only) rewrites the reference digests instead of checking
//! them. See `pipebench/README.md`.

mod adapt;
mod bench;
mod calls;
mod check;
mod replay;
mod spans;
mod stats;
mod sweep;

use bench::{Bench, Metric, DEFAULT_SEED};
use check::{Checks, Expect};
use std::path::PathBuf;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut bless) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value:?}: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["sweep", "replay", "adapt"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (sweep, replay, adapt)"));
    }
    let args = Args {
        workload,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
        bless,
    };
    if args.bless && args.seed != DEFAULT_SEED {
        return Err(format!("--bless records the reference at the default seed ({DEFAULT_SEED})"));
    }
    Ok(args)
}

/// Where traced runs write their spans: under the build directory, which
/// stays out of version control.
fn trace_path(args: &Args) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("pipebench/target"), PathBuf::from);
    dir.join("pipebench").join(format!("{}-seed{}.spans.json", args.workload, args.seed))
}

fn json_line(correct: bool, checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

fn log(title: &str, metrics: &[Metric]) {
    eprintln!("{title}");
    for (name, value, unit) in metrics {
        eprintln!("  {name:<34} {value:>16.4} {unit}");
    }
}

fn run(args: &Args) -> Result<String, String> {
    // One worker thread, leaving the host's other core to noise; only
    // `run_adaptive`'s replanner adds a second thread.
    ispy_parallel::set_threads(1);
    let expect = if args.seed == DEFAULT_SEED && !args.bless {
        Expect::Reference(check::parse_reference(check::REFERENCE, &args.workload)?)
    } else {
        Expect::FirstSeen
    };
    let mut b = Bench::new(args.seed, args.seconds, args.trace, Checks::new(expect));
    match args.workload.as_str() {
        "sweep" => sweep::run_workload(&mut b),
        "replay" => replay::run_workload(&mut b),
        _ => adapt::run_workload(&mut b),
    }

    let end_to_end = b.end_to_end();
    log(
        &format!("{} seed {} (trace {})", args.workload, args.seed, u8::from(args.trace)),
        &end_to_end,
    );
    log("logged", &b.logged());
    for note in &b.checks.notes {
        eprintln!("  FAILED {note}");
    }
    if args.bless {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.tsv");
        // Keep the other workloads' lines as the file holds them now.
        let current = std::fs::read_to_string(path).unwrap_or_default();
        let mut text: String = current
            .lines()
            .filter(|l| !l.starts_with(&format!("{}\t", args.workload)))
            .map(|l| format!("{l}\n"))
            .collect();
        text.push_str(&b.checks.reference_lines(&args.workload));
        std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    let correct = b.checks.failed == 0;
    if !args.trace {
        return Ok(json_line(correct, &b.checks, &end_to_end));
    }
    let spans = b.tracer.take();
    let (reported, detail) = b.per_layer(&spans);
    log("per layer", &reported);
    log("per layer (workload-specific, logged only)", &detail);
    let path = trace_path(args);
    spans::write_json(&path, &spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("spans: {}", path.display());
    Ok(json_line(correct, &b.checks, &reported))
}

fn main() {
    let result = parse_args(std::env::args().skip(1)).and_then(|args| run(&args));
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("pipebench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispy_harness::json::Json;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn command_line() {
        let a = args("--workload sweep --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("sweep", 7, 2.5, true));
        assert!(args("--workload nope --seconds 1").is_err());
        assert!(args("--workload adapt --seconds 0").is_err());
        assert!(args("--workload adapt --seconds 1 --trace 2").is_err());
        assert!(args("--workload adapt --seconds 1 --seed 3 --bless").is_err());
        assert!(args("--workload adapt").is_err());
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_runs_print() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> =
            bench::END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(listed("end_to_end"), e2e);
        let per_layer: Vec<(String, String)> =
            bench::reported_names().iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(listed("per_layer"), per_layer);
    }

    #[test]
    fn result_line_is_json_with_the_required_keys() {
        let mut checks = Checks::new(Expect::FirstSeen);
        checks.check("x", true);
        let line = json_line(true, &checks, &[("wall_s", 1.25, "s"), ("nan", f64::NAN, "s")]);
        let v = Json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(1.0));
        assert_eq!(v.get("failed").and_then(Json::as_f64), Some(0.0));
        let wall = v.get("metrics").and_then(|m| m.get("wall_s")).expect("wall_s");
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }
}
