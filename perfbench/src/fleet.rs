//! `fleet-mixed`: `memo-serve`'s `PlanServer` over a Zipf-1.1 stream of
//! 48 tenants on 8-GPU slices, every fourth tenant a serving tenant. A
//! warm-up stream with a different seed runs inside `setup_s`; then ten
//! measured streams (rounds) are served one after another, each as one
//! batch (admission runs on a virtual clock). One operation is one planned
//! request; shed requests count as failed.

use crate::process::{reset_caches_and_counters, reset_counters, time_alpha};
use crate::stats::{secs, timed_setup, RunOutput};
use crate::Args;
use memo_core::cache::ProfileCache;
use memo_core::observer::RunObserver;
use memo_core::pipeline::{ActivationPolicy, ExecutionPipeline, PipelineStages};
use memo_core::session::Workload;
use memo_parallel::pool;
use memo_parallel::strategy::SystemSpec;
use memo_plan::bnb;
use memo_serve::{
    generate, replies_match, PlanRequest, PlanServer, RequestOutcome, ServeConfig, ServeReport,
    StreamSpec, TenantKind,
};
use std::time::Instant;

const TENANTS: usize = 48;
/// Every 4th tenant serves: 7B and 13B training tenants then occur at every
/// context length (strides 2 and 3 tie tenant kind to model or context).
const SERVING_STRIDE: usize = 4;
/// Fleet host-staging budget: the paper's 2 TB per node × 48 slices.
const HOST_TOTAL_BYTES: u64 = 98_304 << 30;
const ARENA_TOTAL_BYTES: u64 = 512 << 30;
/// Measured requests per `--seconds`: about 5 s of pooled serving per 10 s
/// on the reference 2-core host.
const REQUESTS_PER_SEC: f64 = 6_000.0;
/// The measured requests are split into this many streams of equal length.
const ROUNDS: usize = 10;
/// Streams re-served by the serial reference leg, rotating with the seed:
/// the serial leg runs the full cached path on one thread, about 4× the
/// pooled leg's time per request.
const PARITY_ROUNDS: usize = 3;
const WARMUP_REQUESTS: usize = 4_000;
/// Warm-up streams draw from a different seed than the measured stream.
const WARMUP_SEED_SALT: u64 = 0xa5a5_a5a5_a5a5_a5a5;
const SETUP_REPS: usize = 3;

fn stream(requests: usize, seed: u64) -> Vec<PlanRequest> {
    let mut spec = StreamSpec::new(TENANTS, requests, seed);
    spec.serving_stride = SERVING_STRIDE;
    generate(&spec)
}

fn server(serial: bool) -> PlanServer {
    PlanServer::new(ServeConfig {
        host_total_bytes: HOST_TOTAL_BYTES,
        arena_total_bytes: ARENA_TOTAL_BYTES,
        serial,
        ..ServeConfig::default()
    })
}

/// The seed of measured stream `round`.
fn round_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_add(round as u64 * 0x9e37_79b9_7f4a_7c15)
}

pub fn run(args: &Args) -> RunOutput {
    let mut out = RunOutput::default();
    out.note("seed", args.seed);
    let per_round = (REQUESTS_PER_SEC * args.seconds / ROUNDS as f64)
        .round()
        .max(1.0) as usize;
    out.note("stream_requests", format!("{ROUNDS} x {per_round}"));
    out.note("warmup_requests", WARMUP_REQUESTS);

    // Set-up: generate the streams and serve the warm-up stream, from cold
    // caches every repetition.
    let (streams, setup) = timed_setup(SETUP_REPS, || {
        reset_caches_and_counters();
        let warm = stream(WARMUP_REQUESTS, args.seed ^ WARMUP_SEED_SALT);
        let _ = server(false).serve(&warm);
        (0..ROUNDS)
            .map(|r| stream(per_round, round_seed(args.seed, r)))
            .collect::<Vec<_>>()
    });
    out.set("setup_s", setup);

    reset_counters();
    let mut reports = Vec::with_capacity(ROUNDS);
    let mut rounds = Vec::with_capacity(ROUNDS);
    for s in &streams {
        let t = Instant::now();
        let report = server(false).serve(s);
        let wall = secs(t);
        rounds.push((
            planned(&report).map(|(_, r)| r.latency_secs).collect(),
            wall,
        ));
        reports.push(report);
    }
    let wall: f64 = rounds.iter().map(|r: &(Vec<f64>, f64)| r.1).sum();
    out.set_rate(
        &rounds
            .iter()
            .map(|(l, wall)| (l.len(), *wall))
            .collect::<Vec<_>>(),
    );
    out.set_latencies(&rounds.into_iter().map(|(l, _)| l).collect::<Vec<_>>());
    for r in &reports {
        let s = &r.summary;
        out.attempted += s.requests as u64;
        out.failed += (s.shed_queue + s.shed_deadline + s.shed_budget) as u64;
    }
    let planned_n: usize = reports.iter().map(|r| r.summary.planned).sum();
    let feasible: usize = reports.iter().map(|r| r.summary.feasible).sum();
    out.note("planned", planned_n);
    out.set(
        "sim_feasible_share",
        feasible as f64 / planned_n.max(1) as f64,
    );
    let drift = reports.iter().map(|r| r.summary.budget_drift_bytes).max();
    out.check(
        "budget_drift",
        drift == Some(0),
        format!("worst ledger drift {drift:?} bytes"),
    );

    if args.trace {
        traced(&streams, wall, &mut out);
    } else {
        let checked: Vec<usize> = (0..PARITY_ROUNDS)
            .map(|i| ((args.seed % ROUNDS as u64) as usize + i * ROUNDS / PARITY_ROUNDS) % ROUNDS)
            .collect();
        out.note("parity_rounds", format!("{checked:?}"));
        for r in checked {
            check_parity(&streams[r], &reports[r], &mut out);
        }
    }
    out
}

fn planned(report: &ServeReport) -> impl Iterator<Item = (&PlanRequest, &memo_serve::PlanReply)> {
    report.records.iter().filter_map(|rec| match &rec.outcome {
        RequestOutcome::Planned(reply) => Some((&rec.request, reply.as_ref())),
        RequestOutcome::Rejected(_) => None,
    })
}

/// The pooled records match a serial leg record by record, and the serial
/// leg's elastic budget ledger never drifted.
fn check_parity(stream: &[PlanRequest], pooled: &ServeReport, out: &mut RunOutput) {
    let serial = server(true).serve(stream);
    let diverged = pooled
        .records
        .iter()
        .zip(&serial.records)
        .filter(|(p, s)| match (&p.outcome, &s.outcome) {
            (RequestOutcome::Planned(a), RequestOutcome::Planned(b)) => !replies_match(a, b),
            (RequestOutcome::Rejected(a), RequestOutcome::Rejected(b)) => a != b,
            _ => true,
        })
        .count();
    let same_len = pooled.records.len() == serial.records.len();
    out.check(
        "serial_parity",
        same_len && diverged == 0,
        format!(
            "{diverged} of {} records diverged from the serial leg",
            stream.len()
        ),
    );
    let drift = serial.summary.budget_drift_bytes;
    out.check(
        "serial_budget_drift",
        drift == 0,
        format!("ledger drift {drift} bytes"),
    );
}

/// The traced run: serve the streams again with the server's counters
/// read out, then re-execute every planned training request's picked cell
/// with the pipeline observer on to split its host time by stage.
fn traced(streams: &[Vec<PlanRequest>], untraced_wall: f64, out: &mut RunOutput) {
    reset_counters();
    let mut wall = 0.0;
    let mut reports = Vec::with_capacity(streams.len());
    for stream in streams {
        let t = Instant::now();
        let report = server(false).serve(stream);
        let w = secs(t);
        let s = &report.summary;
        wall += w;
        out.add("serve.exec_s", s.wall_secs);
        out.add("serve.admit_s", w - s.wall_secs);
        out.add("serve.shed_queue", s.shed_queue as f64);
        out.add("serve.shed_deadline", s.shed_deadline as f64);
        out.add("serve.shed_budget", s.shed_budget as f64);
        out.add("serve.rebalances", s.rebalances as f64);
        out.add("core.profile_cache_hits", s.profile_cache.hits as f64);
        out.add("core.profile_cache_misses", s.profile_cache.misses as f64);
        out.add("swap.segment_hits", s.segment_cache.hits as f64);
        out.add("swap.segment_misses", s.segment_cache.misses as f64);
        out.add("parallel.pool_map_s", s.wall_secs);
        out.add("parallel.pool_jobs", s.pool.jobs as f64);
        out.add("parallel.pool_steals", s.pool.steals as f64);
        let drift = out
            .get("serve.drift_bytes")
            .max(s.budget_drift_bytes as f64);
        out.set("serve.drift_bytes", drift);
        reports.push(report);
    }
    out.set("obs.trace_overhead_s", wall - untraced_wall);
    let ratio = |hits: f64, misses: f64| hits / (hits + misses).max(1.0);
    let (ph, pm) = (
        out.get("core.profile_cache_hits"),
        out.get("core.profile_cache_misses"),
    );
    out.set("core.profile_cache_hit_ratio", ratio(ph, pm));
    let (sh, sm) = (out.get("swap.segment_hits"), out.get("swap.segment_misses"));
    out.set("swap.segment_hit_ratio", ratio(sh, sm));
    let busy: f64 = reports
        .iter()
        .flat_map(planned)
        .map(|(_, r)| r.latency_secs)
        .sum();
    let width = pool::available_workers() as f64;
    let map_wall = out.get("parallel.pool_map_s");
    out.set("parallel.pool_idle_share", 1.0 - busy / (map_wall * width));
    let ds = memo_core::delta::delta_stats();
    out.set("core.delta_runs", ds.delta_runs as f64);
    out.set("core.delta_full_fallbacks", ds.full_fallbacks as f64);
    out.set("core.delta_pin_hits", ds.pin_hits as f64);
    out.set("plan.bnb_solves", bnb::solves_total() as f64);
    out.set("plan.bnb_nodes", bnb::nodes_expanded_total() as f64);

    // Stage split of each planned training request's picked cell.
    let mut runs = 0u64;
    let mut mismatches = 0u64;
    let training = reports
        .iter()
        .flat_map(planned)
        .filter(|(req, _)| req.kind == TenantKind::Training);
    for (req, reply) in training {
        let Some((cfg, alpha)) = reply.picked else {
            continue;
        };
        let mut w = Workload::new(req.model.config(), req.n_gpus, req.seq_len);
        w.calib.set_host_memory_bytes(reply.host_budget_bytes);
        let mut stages = PipelineStages::for_spec(SystemSpec::Memo);
        stages.policy = ActivationPolicy::TokenWise {
            alpha_override: Some(alpha),
            slots: 2,
        };
        let mut obs = RunObserver::new();
        let rep = ExecutionPipeline::with_stages(SystemSpec::Memo, stages).execute_observed(
            &w,
            &cfg,
            true,
            Some(&mut obs),
        );
        mismatches += u64::from(rep.outcome != reply.outcome);
        runs += 1;
        out.add("core.profile_s", obs.stage_secs.profile);
        out.add("core.policy_s", obs.stage_secs.policy);
        out.add("core.memory_s", obs.stage_secs.memory);
        out.add("core.schedule_s", obs.stage_secs.schedule);
        out.add("swap.schedule_s", obs.stage_secs.schedule);

        let p = ProfileCache::global().profile(&w, &cfg, stages.remat, false, true);
        time_alpha(&w, &p, out);
    }
    out.set("core.pipeline_runs", runs as f64);
    out.check(
        "redriven_picks_match",
        mismatches == 0,
        format!("{mismatches} of {runs} re-executed picks differ from the served reply"),
    );
}
