//! `decode-replay`: `ServingEngine::replay` of 7B/13B × 16K/64K/256K decode
//! traces under all four `KvCachePolicy` legs. Traces are generated from
//! the seed during set-up. One operation is one (cell, policy) replay.

use crate::stats::{geomean, secs, timed_setup, RunOutput};
use crate::Args;
use memo_alloc::caching::CachingAllocator;
use memo_alloc::paged::{PagedKvAllocator, PagedKvReference};
use memo_alloc::DeviceAllocator;
use memo_core::serving::{ServingEngine, ServingReport, ServingResources};
use memo_model::config::ModelConfig;
use memo_model::decode::{generate_decode, DecodeEvent, DecodeParams, DecodeTrace};
use memo_model::trace::MemOp;
use memo_parallel::KvCachePolicy;
use memo_swap::TierLink;
use std::collections::HashSet;
use std::time::Instant;

/// Device KV budget in half sequences: 8.5 full-context sequences, so the
/// paged leg saturates at 8 and the caching leg's realloc transient caps
/// it lower.
const DEVICE_SEQS_X2: u64 = 17;
/// Host staging pool (swap and tiered legs), in full sequences.
const HOST_SEQS: u64 = 4;
/// NVMe-class tier behind the host (tiered leg), in full sequences.
const NVME_SEQS: u64 = 16;
/// Minimum tokens per KV page; long contexts scale it to `context / 1024`.
const PAGE_TOKENS: u64 = 16;
/// Sequences per trace, decoded 12 at a time.
const ARRIVALS: usize = 96;
const MAX_BATCH: usize = 12;
/// Decode phases are capped so the 256K cells replay in milliseconds; the
/// KV footprint still reflects the full context.
const MAX_DECODE_TOKENS: u64 = 2048;
/// Replay rounds (each: every cell under every policy) per `--seconds`.
const ROUNDS_PER_SEC: f64 = 4.5;
const SETUP_REPS: usize = 3;

/// One decode cell: its trace and the resources every policy replays it on.
struct Cell {
    label: String,
    trace: DecodeTrace,
    resources: ServingResources,
}

fn cell(model: ModelConfig, context: u64, seed: u64) -> Cell {
    let label = format!("{}@{}K", model.name, context >> 10);
    let mut params = DecodeParams::cell(model, context, MAX_BATCH, ARRIVALS);
    params.decode_tokens = params.decode_tokens.min(MAX_DECODE_TOKENS);
    params.seed = seed;
    let kv = params.kv_bytes_per_token();
    let context_tokens = params.prompt_tokens + params.decode_tokens;
    let context_kv = context_tokens * kv;
    let resources = ServingResources {
        device_kv_bytes: DEVICE_SEQS_X2 * context_kv / 2,
        page_bytes: (context_tokens / 1024).max(PAGE_TOKENS) * kv,
        peak_flops: 312e12,
        efficiency: 0.45,
        kernel_launch_secs: 30e-6,
        host_bandwidth: 24e9,
        host_capacity: HOST_SEQS * context_kv,
        reorg_penalty_secs: 0.01,
        extra_tiers: vec![TierLink {
            bandwidth: 6e9,
            capacity: NVME_SEQS * context_kv,
        }],
    };
    Cell {
        label,
        trace: generate_decode(&params),
        resources,
    }
}

/// The six cells, each trace jittered by its own seed derived from `seed`.
fn cells(seed: u64) -> Vec<Cell> {
    let mut out = Vec::new();
    for model in [ModelConfig::gpt_7b(), ModelConfig::gpt_13b()] {
        for context in [16u64 << 10, 64 << 10, 256 << 10] {
            let cell_seed = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(out.len() as u64 + 1);
            out.push(cell(model.clone(), context, cell_seed));
        }
    }
    out
}

fn replay(c: &Cell, policy: KvCachePolicy) -> ServingReport {
    ServingEngine::new(c.trace.params.clone(), c.resources.clone(), policy).replay(&c.trace)
}

pub fn run(args: &Args) -> RunOutput {
    let mut out = RunOutput::default();
    out.note("seed", args.seed);
    let (cells, setup) = timed_setup(SETUP_REPS, || cells(args.seed));
    out.set("setup_s", setup);
    let rounds = (ROUNDS_PER_SEC * args.seconds).round().max(1.0) as usize;
    out.note("rounds", rounds);

    let mut first: Vec<ServingReport> = Vec::new();
    let mut repeats = true;
    let mut timed = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let mut latencies = Vec::with_capacity(cells.len() * KvCachePolicy::ALL.len());
        let t_round = Instant::now();
        for c in &cells {
            for policy in KvCachePolicy::ALL {
                let t = Instant::now();
                let rep = replay(c, policy);
                latencies.push(secs(t));
                if round == 0 {
                    first.push(rep);
                } else {
                    repeats &= first[latencies.len() - 1] == rep;
                }
            }
        }
        timed.push((latencies, secs(t_round)));
    }
    let wall: f64 = timed.iter().map(|r| r.1).sum();
    out.attempted = (rounds * first.len()) as u64;
    out.set_rate(
        &timed
            .iter()
            .map(|(l, wall)| (l.len(), *wall))
            .collect::<Vec<_>>(),
    );
    out.set_latencies(&timed.into_iter().map(|(l, _)| l).collect::<Vec<_>>());
    out.check(
        "replays_repeat",
        repeats,
        "every round reproduces round one's reports",
    );

    let ok = first.iter().filter(|r| r.to_outcome().is_ok()).count();
    out.set("sim_feasible_share", ok as f64 / first.len() as f64);
    let best: Vec<f64> = first
        .chunks(KvCachePolicy::ALL.len())
        .filter_map(|legs| {
            legs.iter()
                .filter(|r| r.to_outcome().is_ok())
                .map(|r| r.tokens_per_sec)
                .max_by(f64::total_cmp)
        })
        .collect();
    if best.len() == cells.len() {
        out.set("sim_decode_tok_s", geomean(&best));
    }

    // One cell per run, chosen by the seed, replays the paged allocator in
    // lockstep with its linear-scan reference.
    let c = &cells[(args.seed % cells.len() as u64) as usize];
    let parity = paged_parity(c);
    out.check(
        "paged_parity",
        parity.is_ok(),
        format!("{}: {parity:?}", c.label),
    );

    if args.trace {
        traced(args.seed, &cells, rounds, wall, &mut out);
    }
    out
}

/// Replay the paged allocator and its reference on identical operations;
/// free counts agree at every step and the final snapshots are identical.
fn paged_parity(c: &Cell) -> Result<(), String> {
    let kv = c.trace.params.kv_bytes_per_token();
    let (device, page) = (c.resources.device_kv_bytes, c.resources.page_bytes);
    let mut fast = PagedKvAllocator::new(device, page);
    let mut refa = PagedKvReference::new(device, page);
    let mut dead = vec![false; c.trace.params.arrivals];
    let diverged = |what: &str, seq: u32| Err(format!("{what}({seq}) diverged"));
    for ev in &c.trace.events {
        let (seq, bytes) = match *ev {
            DecodeEvent::Arrive { seq, prompt_tokens } => {
                fast.admit(seq).map_err(|e| format!("{e:?}"))?;
                refa.admit(seq).map_err(|e| format!("{e:?}"))?;
                (seq, prompt_tokens * kv)
            }
            DecodeEvent::Append { seq } if !dead[seq as usize] => (seq, kv),
            DecodeEvent::Append { .. } => continue,
            DecodeEvent::Depart { seq } => {
                if !dead[seq as usize] {
                    if fast.release(seq).is_err() != refa.release(seq).is_err() {
                        return diverged("release", seq);
                    }
                    dead[seq as usize] = true;
                }
                continue;
            }
            DecodeEvent::StepEnd => {
                if fast.free_pages() != refa.free_pages()
                    || fast.pages_in_use() != refa.pages_in_use()
                {
                    return Err("free-page counts diverged at a step boundary".into());
                }
                continue;
            }
        };
        let (a, b) = (fast.append_bytes(seq, bytes), refa.append_bytes(seq, bytes));
        if a != b {
            return diverged("append", seq);
        }
        if a.is_err() {
            if fast.release(seq).is_err() != refa.release(seq).is_err() {
                return diverged("release", seq);
            }
            dead[seq as usize] = true;
        }
    }
    if fast.snapshot() != refa.snapshot() {
        return Err("final snapshots differ".into());
    }
    Ok(())
}

/// The traced run: trace generation and one round of replays timed per
/// policy, plus the caching allocator alone on each trace's realloc
/// request stream.
fn traced(seed: u64, cells: &[Cell], rounds: usize, untraced_wall: f64, out: &mut RunOutput) {
    let t = Instant::now();
    let _ = self::cells(seed);
    out.set("model.decode_gen_s", secs(t));

    let mut timed = 0.0;
    for _ in 0..rounds {
        for c in cells {
            for policy in KvCachePolicy::ALL {
                let t = Instant::now();
                let rep = replay(c, policy);
                let dt = secs(t);
                timed += dt;
                out.add(replay_metric(policy), dt);
                out.add("core.serving_steps", rep.steps as f64);
                out.add("core.serving_preempted", rep.preempted as f64);
                out.add("core.serving_evicted", rep.evictions as f64);
            }
        }
    }
    out.set("obs.trace_overhead_s", timed - untraced_wall);

    for c in cells {
        let requests = c.trace.caching_requests();
        let mut alloc = CachingAllocator::new(c.resources.device_kv_bytes);
        // A malloc refused for lack of memory leaves its later free a no-op.
        let mut live = HashSet::new();
        let t = Instant::now();
        for r in &requests {
            match r.op {
                MemOp::Malloc => {
                    if alloc.malloc(r.tensor, r.bytes).is_ok() {
                        live.insert(r.tensor);
                    }
                }
                MemOp::Free => {
                    if live.remove(&r.tensor) {
                        alloc.free(r.tensor);
                    }
                }
            }
        }
        out.add("alloc.caching_replay_s", secs(t));
        out.add("alloc.caching_requests", requests.len() as f64);
        out.add("alloc.caching_reorgs", alloc.reorg_count() as f64);
    }
}

fn replay_metric(policy: KvCachePolicy) -> &'static str {
    match policy {
        KvCachePolicy::Paged => "core.serving_replay_s.paged",
        KvCachePolicy::Caching => "core.serving_replay_s.caching",
        KvCachePolicy::TokenSwap => "core.serving_replay_s.kvswap",
        KvCachePolicy::Tiered => "core.serving_replay_s.tiered",
    }
}
