//! `megatrain-1m`: the 100B-class, 1M-token chunked request stream
//! (`ChunkedParams::megatrain()`, 1,013,850 liveness intervals) streamed
//! through `DsaInstanceBuilder` and planned whole by `dispatch::solve`
//! (the boxing backend at this size). One operation is one whole-trace
//! plan: stream, build and solve. Set-up is a warm-up build of the
//! instance; validation runs outside the timed region. Fixed instance:
//! the seed is unused.

use crate::stats::{secs, timed_setup, RunOutput};
use crate::Args;
use memo_model::chunked::{self, ChunkedParams};
use memo_plan::boxing;
use memo_plan::dispatch::{self, DispatchOptions, DispatchSolution};
use memo_plan::{DsaInstance, DsaInstanceBuilder};
use std::time::Instant;

/// A run of `--seconds s` makes `round(s / OP_SECS)` plans (at least one):
/// about 1.3 s of timed work per `OP_SECS` on the reference 2-core host.
const OP_SECS: f64 = 0.8;
const SETUP_REPS: usize = 3;

/// Stream the chunked trace into a DSA instance.
fn build(params: &ChunkedParams) -> DsaInstance {
    let mut builder = DsaInstanceBuilder::new();
    chunked::for_each_request(params, |r| builder.push(r));
    builder.finish().expect("chunked trace is balanced")
}

/// The plan's checks: a valid assignment, at or above the liveness lower
/// bound, within boxing's certified `2·K·LOAD` guarantee.
fn check(inst: &DsaInstance, sol: &DispatchSolution) -> Result<(), String> {
    sol.assignment.validate(inst)?;
    let peak = sol.assignment.peak;
    if peak < sol.lower_bound {
        return Err(format!("peak {peak} below lower bound {}", sol.lower_bound));
    }
    match sol.guarantee {
        Some(g) if peak <= g => Ok(()),
        Some(g) => Err(format!("peak {peak} above certified bound {g}")),
        None => Err(format!(
            "{} backend gave no certified bound",
            sol.backend.name()
        )),
    }
}

pub fn run(args: &Args) -> RunOutput {
    let mut out = RunOutput::default();
    out.note("seed", "none (fixed instance)");
    let params = ChunkedParams::megatrain();
    let opts = DispatchOptions::default();
    out.note("intervals", params.intervals());
    // Warm-up: one untimed build faults in the instance-sized allocations.
    let (_, setup) = timed_setup(SETUP_REPS, || build(&params).len());
    out.set("setup_s", setup);

    let ops = (args.seconds / OP_SECS).round().max(1.0) as usize;
    let mut latencies = Vec::with_capacity(ops);
    let mut first: Option<DispatchSolution> = None;
    let mut repeats = true;
    for _ in 0..ops {
        let t = Instant::now();
        let inst = build(&params);
        let sol = dispatch::solve(&inst, &opts);
        latencies.push(secs(t));
        // The first plan is validated in full; later plans must repeat it.
        match &first {
            None => {
                let valid = check(&inst, &sol);
                out.check("plan_valid", valid.is_ok(), format!("{valid:?}"));
                out.note("backend", sol.backend.name());
                out.set(
                    "sim_dsa_gap",
                    sol.assignment.peak as f64 / sol.lower_bound as f64,
                );
                first = Some(sol);
            }
            Some(f) => repeats &= f.assignment == sol.assignment,
        }
    }
    out.check(
        "plans_repeat",
        repeats,
        "every plan repeats the validated first plan",
    );
    let wall: f64 = latencies.iter().sum();
    out.attempted = ops as u64;
    // Each plan is a round of its own: `ops_per_s` is the median plan rate.
    out.set_rate(&latencies.iter().map(|&s| (1, s)).collect::<Vec<_>>());
    out.set_latencies(&[latencies.clone()]);
    let ms: Vec<String> = latencies
        .iter()
        .map(|s| format!("{:.1}", s * 1e3))
        .collect();
    out.note("latencies_ms", ms.join(" "));
    out.set(
        "sim_feasible_share",
        if out.checks.iter().all(|c| c.ok) {
            1.0
        } else {
            0.0
        },
    );

    if args.trace {
        traced(&params, &opts, ops, wall, &mut out);
    }
    out
}

/// The traced run: the same plans with each layer timed on its own —
/// request generation, interval building, solving and validation.
fn traced(
    params: &ChunkedParams,
    opts: &DispatchOptions,
    ops: usize,
    untraced: f64,
    out: &mut RunOutput,
) {
    let mut timed = 0.0;
    let mut invalid = Vec::new();
    for _ in 0..ops {
        let t = Instant::now();
        let requests = chunked::generate_chunked(params);
        let gen = secs(t);
        let t = Instant::now();
        let mut builder = DsaInstanceBuilder::new();
        for r in &requests {
            builder.push(r);
        }
        let inst = builder.finish().expect("chunked trace is balanced");
        let build = secs(t);
        drop(requests);
        let t = Instant::now();
        let sol = dispatch::solve(&inst, opts);
        let solve = secs(t);
        let t = Instant::now();
        let valid = sol.assignment.validate(&inst);
        out.add("plan.dsa_validate_s", secs(t));
        invalid.extend(valid.err());
        out.add("model.chunked_gen_s", gen);
        out.add("plan.dsa_build_s", build);
        out.add("plan.dsa_solve_s", solve);
        timed += gen + build + solve;
        out.set("plan.dsa_intervals", inst.len() as f64);
        out.set("plan.dsa_lower_bound", sol.lower_bound as f64);
        out.set(
            "plan.boxing_classes",
            boxing::jobsets(&inst).classes.len() as f64,
        );
    }
    out.check(
        "traced_plans_valid",
        invalid.is_empty(),
        format!("{invalid:?}"),
    );
    out.set("obs.trace_overhead_s", timed - untraced);
}
