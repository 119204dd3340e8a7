//! `perfbench` — one end-to-end, layer-by-layer benchmark of memo-rs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table3-cold|fleet-mixed|megatrain-1m|decode-replay> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics of
//! [`END_TO_END`]; traced runs (`--trace 1`) repeat the same workload, then
//! run it again with per-layer timing around the public calls into each
//! crate and print the metrics of [`PER_LAYER`]. Every run checks its
//! outputs outside the timed region; a failed check makes the run exit 1.
//! The last line of standard output is the result object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod decode;
mod fleet;
mod megatrain;
mod process;
mod stats;
mod table3;

use memo_obs::json::Json;
use stats::RunOutput;
use std::time::Instant;

/// `(name, unit, better)` of every end-to-end metric. Timings are host
/// time; names starting `sim_` are results of the simulated cluster.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("ok_share", "ratio", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
    ("sim_feasible_share", "ratio", "higher"),
    ("sim_memo_mfu_pct", "%", "higher"),
    ("sim_dsa_gap", "ratio", "lower"),
    ("sim_decode_tok_s", "tok/s", "higher"),
];

/// `(name, unit, better)` of every per-layer metric, grouped by layer.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // memo-parallel: strategy enumeration and the work-stealing pool.
    ("parallel.enumerate_s", "s", "lower"),
    ("parallel.pool_map_s", "s", "lower"),
    ("parallel.pool_jobs", "count", "lower"),
    ("parallel.pool_steals", "count", "lower"),
    ("parallel.pool_idle_share", "ratio", "lower"),
    // memo-core pipeline stages (RunObserver stage split).
    ("core.profile_s", "s", "lower"),
    ("core.policy_s", "s", "lower"),
    ("core.memory_s", "s", "lower"),
    ("core.schedule_s", "s", "lower"),
    ("core.pipeline_runs", "count", "lower"),
    // memo-core::cache (ProfileCache).
    ("core.profile_cache_hits", "count", "higher"),
    ("core.profile_cache_misses", "count", "lower"),
    ("core.profile_cache_hit_ratio", "ratio", "higher"),
    // memo-core::delta + memo-swap::delta (SegmentCache).
    ("core.delta_runs", "count", "lower"),
    ("core.delta_full_fallbacks", "count", "lower"),
    ("core.delta_pin_hits", "count", "higher"),
    ("swap.segment_hits", "count", "higher"),
    ("swap.segment_misses", "count", "lower"),
    ("swap.segment_hit_ratio", "ratio", "higher"),
    // memo-model generators.
    ("model.trace_gen_s", "s", "lower"),
    ("model.trace_requests", "count", "lower"),
    ("model.chunked_gen_s", "s", "lower"),
    ("model.decode_gen_s", "s", "lower"),
    // memo-plan bi-level planner and branch-and-bound.
    ("plan.bilevel_s", "s", "lower"),
    ("plan.bnb_solves", "count", "lower"),
    ("plan.bnb_nodes", "count", "lower"),
    ("plan.bnb_proven_share", "ratio", "higher"),
    // memo-plan whole-trace dispatch, boxing and validation.
    ("plan.dsa_intervals", "count", "lower"),
    ("plan.dsa_build_s", "s", "lower"),
    ("plan.dsa_solve_s", "s", "lower"),
    ("plan.dsa_validate_s", "s", "lower"),
    ("plan.boxing_classes", "count", "lower"),
    ("plan.dsa_lower_bound", "bytes", "lower"),
    // memo-swap α program and schedule builder.
    ("swap.alpha_s", "s", "lower"),
    ("swap.schedule_s", "s", "lower"),
    // memo-alloc caching allocator.
    ("alloc.caching_replay_s", "s", "lower"),
    ("alloc.caching_requests", "count", "lower"),
    ("alloc.caching_reorgs", "count", "lower"),
    // memo-alloc::paged + memo-swap::kv + memo-core::serving.
    ("core.serving_replay_s.paged", "s", "lower"),
    ("core.serving_replay_s.caching", "s", "lower"),
    ("core.serving_replay_s.kvswap", "s", "lower"),
    ("core.serving_replay_s.tiered", "s", "lower"),
    ("core.serving_steps", "count", "lower"),
    ("core.serving_preempted", "count", "lower"),
    ("core.serving_evicted", "count", "lower"),
    // memo-serve admission, elastic budgets and server.
    ("serve.admit_s", "s", "lower"),
    ("serve.exec_s", "s", "lower"),
    ("serve.shed_queue", "count", "lower"),
    ("serve.shed_deadline", "count", "lower"),
    ("serve.shed_budget", "count", "lower"),
    ("serve.rebalances", "count", "lower"),
    ("serve.drift_bytes", "bytes", "lower"),
    // memo-obs, and the cost of tracing itself.
    ("obs.emit_s", "s", "lower"),
    ("obs.trace_overhead_s", "s", "lower"),
];

/// The workloads, with why each was chosen.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "table3-cold",
        "Table 3 grid searched cell by cell on cleared caches: the miss path a memo-sim --all user pays, dominated by BnB",
    ),
    (
        "fleet-mixed",
        "Zipf tenant stream through PlanServer after a warm-up: the steady-state cache, delta-pin and pool reuse path",
    ),
    (
        "megatrain-1m",
        "1M-interval chunked trace planned whole by boxing and validated: the only run of the at-scale DSA path",
    ),
    (
        "decode-replay",
        "Decode traces replayed under all four KV-cache policies: paged, caching, KV-swap and tiered serving",
    ),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(format!("--seconds {value}: must be positive"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(n, _)| *n == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The revision under test: `git rev-parse` where the tree is a checkout,
/// else `"unknown"`.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn run(args: &Args) -> RunOutput {
    match args.workload.as_str() {
        "table3-cold" => table3::run(args),
        "fleet-mixed" => fleet::run(args),
        "megatrain-1m" => megatrain::run(args),
        "decode-replay" => decode::run(args),
        other => unreachable!("validated workload {other}"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = run(&args);

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    // A failed check counts as a failed operation.
    let failed_checks = out.checks.iter().filter(|c| !c.ok).count() as u64;
    out.failed = (out.failed + failed_checks).min(out.attempted);
    let correct = failed_checks == 0;
    if !args.trace {
        out.set("peak_rss_mib", stats::peak_rss_mib());
        out.set(
            "ok_share",
            (out.attempted - out.failed) as f64 / out.attempted as f64,
        );
    }
    // Metrics a workload does not exercise read as a neutral constant: 1 for
    // the end-to-end `sim_*` results (listed in the provenance line), 0 for
    // per-layer counts and times.
    let mut not_applicable = Vec::new();
    for &(name, _, _) in table {
        if !out.metrics.iter().any(|(n, _)| *n == name) {
            if args.trace {
                out.set(name, 0.0);
            } else {
                not_applicable.push(name);
                out.set(name, 1.0);
            }
        }
    }

    let render = |out: &RunOutput| {
        let metrics = table
            .iter()
            .map(|&(name, unit, _)| {
                let value = out.get(name);
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::num(value)),
                        ("unit".into(), Json::str(unit)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::int(out.attempted)),
            ("failed".into(), Json::int(out.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_string()
    };
    if args.trace {
        let t0 = Instant::now();
        let _ = render(&out);
        out.set("obs.emit_s", stats::secs(t0));
    }

    let workers = memo_parallel::pool::available_workers();
    let provenance = Json::Obj(vec![
        ("workload".into(), Json::str(args.workload.as_str())),
        (
            "why".into(),
            Json::str(
                WORKLOADS
                    .iter()
                    .find(|(n, _)| *n == args.workload)
                    .map_or("", |w| w.1),
            ),
        ),
        ("revision".into(), Json::str(git_revision())),
        (
            "nproc".into(),
            Json::int(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("pool_machine_width".into(), Json::int(workers as u64)),
        ("seconds".into(), Json::num(args.seconds)),
        ("traced".into(), Json::Bool(args.trace)),
        (
            "not_applicable".into(),
            Json::Arr(not_applicable.iter().map(|n| Json::str(*n)).collect()),
        ),
        (
            "notes".into(),
            Json::Obj(
                out.notes
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::str(v.as_str())))
                    .collect(),
            ),
        ),
        (
            "checks".into(),
            Json::Arr(
                out.checks
                    .iter()
                    .map(|c| {
                        Json::Obj(vec![
                            ("name".into(), Json::str(c.name.as_str())),
                            ("ok".into(), Json::Bool(c.ok)),
                            ("detail".into(), Json::str(c.detail.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("provenance {provenance}");
    for &(name, unit, _) in table {
        let v = out.get(name);
        println!("{name:<34} {v:>16.6} {unit}");
    }
    for c in out.checks.iter().filter(|c| !c.ok) {
        eprintln!("perfbench: check {} failed: {}", c.name, c.detail);
    }
    println!("{}", render(&out));
    if !correct {
        std::process::exit(1);
    }
}
