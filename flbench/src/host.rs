//! Thread pinning and the host fingerprint recorded with every result.

use crate::workloads::Workload;

/// Thread budget both pools are pinned to: the host's parallelism,
/// capped at two so results compare across hosts of different size.
const MAX_THREADS: usize = 2;

/// Environment variables that change what a scenario runs: the round
/// option overrides `Scenario::build` applies and the quick round
/// budget of `run_scenario`. They are removed so that `--seed` alone
/// decides the workload.
const WORKLOAD_VARS: [&str; 6] = [
    "FT_RENDEZVOUS_DEADLINE_S",
    "FT_HEARTBEAT_INTERVAL_S",
    "FT_HEARTBEAT_DEADLINE_S",
    "FT_MAX_IN_FLIGHT",
    "FT_QUANTIZE_UPDATES",
    "FT_SCENARIO_QUICK",
];

/// Removes [`WORKLOAD_VARS`] from the environment, pins
/// `FT_TENSOR_THREADS` and `FT_CLIENT_THREADS` to at most the host's
/// parallelism, and returns the pinned count. Must run before anything
/// starts the worker pool.
pub fn pin_threads() -> usize {
    for var in WORKLOAD_VARS {
        std::env::remove_var(var);
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = nproc.min(MAX_THREADS);
    std::env::set_var("FT_TENSOR_THREADS", threads.to_string());
    std::env::set_var("FT_CLIENT_THREADS", threads.to_string());
    threads
}

/// Every `FT_*` variable left in the environment, such as the kernel
/// and tile-size overrides, so a result records what it ran under.
fn ft_env() -> serde_json::Value {
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("FT_"))
        .collect();
    vars.sort();
    let map = vars
        .into_iter()
        .map(|(k, v)| (k, serde_json::Value::String(v)))
        .collect();
    serde_json::Value::Object(map)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit of the checkout, or `unknown` outside a git repository.
/// The search stops at the working directory's parent, so an enclosing
/// repository is never read.
fn git_commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().map(|p| p.to_path_buf()).unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// One JSON line describing the host and run: CPU model, `nproc`, the
/// pinned thread counts, the dispatched GEMM kernel, the autotuned
/// MC/KC, the `FT_*` environment, and the commit.
pub fn fingerprint(threads: usize, workload: Workload, seed: u64) -> String {
    let tune = ft_tensor::tune::active();
    let host = serde_json::json!({
        "host": {
            "cpu": cpu_model(),
            "nproc": std::thread::available_parallelism().map_or(1, usize::from),
            "tensor_threads": threads,
            "client_threads": threads,
            "simd": ft_tensor::simd::active().name(),
            "tune_mc": tune.mc,
            "tune_kc": tune.kc,
            "tune_source": tune.source.name(),
            "env": ft_env(),
            "commit": git_commit(),
        },
        "workload": workload.name(),
        "seed": seed,
    });
    serde_json::to_string(&host).unwrap_or_default()
}
