//! The program's process-global state the workloads reset between phases,
//! and the α-program timing two workloads share.

use crate::stats::{secs, RunOutput};
use memo_core::cache::ProfileCache;
use memo_core::profiler::ProfileReport;
use memo_core::session::Workload;
use memo_plan::bnb;
use memo_swap::alpha::{solve_alpha, AlphaInputs, AlphaSolution};
use memo_swap::SegmentCache;
use std::time::Instant;

/// Zero every global counter: profile- and segment-cache statistics, BnB
/// nodes and solves, and the pool and delta telemetry.
pub fn reset_counters() {
    ProfileCache::global().reset_stats();
    SegmentCache::global().reset_stats();
    bnb::reset_node_counter();
    bnb::reset_solve_counter();
    memo_parallel::pool::reset_stats();
    memo_core::delta::reset_delta_stats();
}

/// Empty the profile and segment caches and zero every global counter, so
/// what follows runs the miss path and counts from zero.
pub fn reset_caches_and_counters() {
    ProfileCache::global().clear();
    SegmentCache::global().clear();
    reset_counters();
}

/// Re-solve the α program of a profiled strategy, adding its time to
/// `swap.alpha_s`.
pub fn time_alpha(w: &Workload, p: &ProfileReport, out: &mut RunOutput) -> AlphaSolution {
    let inputs = AlphaInputs {
        s_input: p.split.s_input,
        s_attn: p.split.s_attn,
        s_others: p.split.s_others,
        bandwidth: w.calib.effective_pcie(),
        t_layer_fwd: p.layer_time.fwd(),
        n_layers: p.layers_local,
        host_capacity: w.calib.host_capacity_per_gpu(),
    };
    let t = Instant::now();
    let sol = solve_alpha(&inputs);
    out.add("swap.alpha_s", secs(t));
    sol
}
