//! The benchmark command:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (it reads `packs/`, `fixtures/charts/` and
//! `CONFORMANCE.json` relative to it). Prints human-readable notes, then, as
//! the last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Span dumps go to `.bench_out/`.

use ij_perfbench::{canary_ns_per_spec, census, charts, churn, WORKLOADS};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(ij_perfbench::OUT_DIR) {
        eprintln!("perfbench: cannot create {}: {e}", ij_perfbench::OUT_DIR);
        return ExitCode::FAILURE;
    }
    let canary_before = canary_ns_per_spec();
    let result = match args.workload.as_str() {
        "census" => census::run(census::CENSUS, args.seed, args.seconds, args.trace),
        "census-mesh-pack" => census::run(census::MESH_PACK, args.seed, args.seconds, args.trace),
        "audit-churn" => churn::run(args.seed, args.seconds, args.trace),
        "charts" => charts::run(args.seed, args.seconds, args.trace),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    let canary_after = canary_ns_per_spec();
    if result.metrics.is_empty() {
        for note in &result.notes {
            eprintln!("perfbench: {note}");
        }
        eprintln!("perfbench: {} produced no result", args.workload);
        return ExitCode::FAILURE;
    }
    for note in &result.notes {
        println!("{note}");
    }
    println!("canary_ns_per_spec: before {canary_before:.1}, after {canary_after:.1}");
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
