//! The benchmark prints every metric `BENCHMARK.json` declares, by a
//! well-formed name with its declared unit, and the declared metric set is
//! the one the benchmark was specified with.

use memo_obs::json::{parse, Json};
use std::process::Command;

const END_TO_END: &[&str] = &[
    "setup_s",
    "ops_per_s",
    "latency_p50_ms",
    "latency_tail_ms",
    "ok_share",
    "peak_rss_mib",
    "sim_feasible_share",
    "sim_memo_mfu_pct",
    "sim_dsa_gap",
    "sim_decode_tok_s",
];

const PER_LAYER: &[&str] = &[
    "parallel.enumerate_s",
    "parallel.pool_map_s",
    "parallel.pool_jobs",
    "parallel.pool_steals",
    "parallel.pool_idle_share",
    "core.profile_s",
    "core.policy_s",
    "core.memory_s",
    "core.schedule_s",
    "core.pipeline_runs",
    "core.profile_cache_hits",
    "core.profile_cache_misses",
    "core.profile_cache_hit_ratio",
    "core.delta_runs",
    "core.delta_full_fallbacks",
    "core.delta_pin_hits",
    "swap.segment_hits",
    "swap.segment_misses",
    "swap.segment_hit_ratio",
    "model.trace_gen_s",
    "model.trace_requests",
    "model.chunked_gen_s",
    "model.decode_gen_s",
    "plan.bilevel_s",
    "plan.bnb_solves",
    "plan.bnb_nodes",
    "plan.bnb_proven_share",
    "plan.dsa_intervals",
    "plan.dsa_build_s",
    "plan.dsa_solve_s",
    "plan.dsa_validate_s",
    "plan.boxing_classes",
    "plan.dsa_lower_bound",
    "swap.alpha_s",
    "swap.schedule_s",
    "alloc.caching_replay_s",
    "alloc.caching_requests",
    "alloc.caching_reorgs",
    "core.serving_replay_s.paged",
    "core.serving_replay_s.caching",
    "core.serving_replay_s.kvswap",
    "core.serving_replay_s.tiered",
    "core.serving_steps",
    "core.serving_preempted",
    "core.serving_evicted",
    "serve.admit_s",
    "serve.exec_s",
    "serve.shed_queue",
    "serve.shed_deadline",
    "serve.shed_budget",
    "serve.rebalances",
    "serve.drift_bytes",
    "obs.emit_s",
    "obs.trace_overhead_s",
];

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of one metric table of `BENCHMARK.json`.
fn declared(doc: &Json, table: &str) -> Vec<(String, String)> {
    doc.get(table)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{table} is a list"))
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{table}.{k}"))
            };
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

/// Run one short workload and return its result line.
fn run(trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "decode-replay",
            "--seed",
            "3",
            "--seconds",
            "0.2",
        ])
        .args(["--trace", trace])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last).expect("result line is JSON");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    result
}

fn check_printed(result: &Json, declared: &[(String, String)]) {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics object");
    };
    assert_eq!(
        metrics.len(),
        declared.len(),
        "one value per declared metric"
    );
    for (name, unit) in declared {
        assert!(well_formed(name), "{name} is not [A-Za-z0-9_.-]+");
        let m = result
            .get("metrics")
            .and_then(|ms| ms.get(name))
            .unwrap_or_else(|| panic!("{name} not printed"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(
            m.get("value").and_then(Json::as_f64).is_some(),
            "{name} has a value"
        );
    }
}

#[test]
fn declared_metrics_are_the_specified_set() {
    let doc = benchmark_json();
    let names = |table| {
        declared(&doc, table)
            .into_iter()
            .map(|(n, _)| n)
            .collect::<Vec<_>>()
    };
    assert_eq!(names("end_to_end"), END_TO_END);
    assert_eq!(names("per_layer"), PER_LAYER);
}

#[test]
fn untraced_run_prints_every_end_to_end_metric() {
    check_printed(&run("0"), &declared(&benchmark_json(), "end_to_end"));
}

#[test]
fn traced_run_prints_every_per_layer_metric() {
    check_printed(&run("1"), &declared(&benchmark_json(), "per_layer"));
}
