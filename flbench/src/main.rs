//! `flbench`: the end-to-end benchmark of whole federated-learning runs.
//!
//! ```sh
//! cargo run --release --manifest-path flbench/Cargo.toml -- \
//!     --workload paper-suite --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` it runs the workload as closed batch runs and
//! prints the end-to-end metrics; with `--trace 1` it prints the
//! per-layer metrics, timed around calls into each layer's public
//! functions. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Lines before it
//! carry the host fingerprint and a human-readable summary.

mod calib;
mod e2e;
mod host;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::Workload;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = workloads::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("unknown workload; expected one of {names:?}"))
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"must be a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Formats the final result line.
fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // Non-finite values are not JSON; they also fail `correct`.
            let v = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_owned()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = failed == 0 && attempted > 0 && metrics.iter().all(|m| m.1.is_finite());
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flbench: {e}");
            eprintln!("usage: flbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // Pin both thread budgets before anything starts the worker pool.
    let threads = host::pin_threads();
    let scratch = PathBuf::from("flbench").join("out");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("flbench: creating {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    println!("{}", host::fingerprint(threads, args.workload, args.seed));

    let (attempted, failed, metrics) = if args.trace {
        let t = trace::run(args.workload, args.seed, args.seconds, &scratch);
        (t.ledger.attempted, t.ledger.failed, t.metrics)
    } else {
        let run = e2e::E2e::run(args.workload, args.seed, args.seconds, threads, &scratch);
        (run.ledger.attempted, run.ledger.failed, run.metrics())
    };
    let _ = std::fs::remove_dir(&scratch);
    for (name, value, unit) in &metrics {
        println!("{name:<32} {value:>14.6} {unit}");
    }
    println!("{}", result_line(attempted, failed, &metrics));
    ExitCode::SUCCESS
}
