//! Named entry points for the execution modes: MEMO (§4.3.4), the paper
//! baselines, and the extensions. Each is a thin wrapper that resolves a
//! [`SystemSpec`] into the staged [`ExecutionPipeline`](crate::pipeline) —
//! all policy, memory, and schedule logic lives there.
//!
//! All modes share the same compute cost model (`memo_parallel::cost`) and
//! metric formulas; they differ exactly where the paper says they differ:
//!
//! | | activation policy | allocator | loss | stalls |
//! |---|---|---|---|---|
//! | MEMO | token-wise swap+recompute into rounding buffers | static plan | chunked vocab-parallel | offload/prefetch not hidden (α LP prevents most) |
//! | Megatron-LM | full recomputation | caching | chunked vocab-parallel | re-forward every layer + reorganisation penalties |
//! | DeepSpeed | full recomputation | caching | unfused fp32 (full logits) | re-forward + ZeRO-3 gathers + all-to-all + reorganisations |

use crate::outcome::CellOutcome;
use crate::pipeline::{ActivationPolicy, ExecutionPipeline, PipelineStages};
use crate::serving::ServingEngine;
use crate::session::Workload;
use memo_parallel::strategy::{KvCachePolicy, ParallelConfig, SystemSpec};

/// Run one MEMO iteration: profile → α → bi-level plan → 3-stream schedule.
pub fn run_memo(w: &Workload, cfg: &ParallelConfig) -> CellOutcome {
    ExecutionPipeline::new(SystemSpec::Memo)
        .execute(w, cfg)
        .outcome
}

/// MEMO with an α override (`Some(1.0)` = full swapping ablation,
/// `Some(0.0)` combined with `force_recompute_attention` is not offered —
/// the tensor-level rule is fixed by design).
pub fn run_memo_with_alpha(
    w: &Workload,
    cfg: &ParallelConfig,
    alpha_override: Option<f64>,
) -> CellOutcome {
    let mut stages = PipelineStages::for_spec(SystemSpec::Memo);
    stages.policy = ActivationPolicy::TokenWise {
        alpha_override,
        slots: 2,
    };
    ExecutionPipeline::with_stages(SystemSpec::Memo, stages)
        .execute(w, cfg)
        .outcome
}

/// MEMO extended with a third storage tier (extension beyond the paper):
/// token rows that the host cannot hold spill to NVMe at lower bandwidth —
/// a ZeRO-Infinity-style escape from the `X_oohm` cells of Tables 3/4.
pub fn run_memo_with_nvme(w: &Workload, cfg: &ParallelConfig) -> CellOutcome {
    ExecutionPipeline::new(SystemSpec::MemoNvme)
        .execute(w, cfg)
        .outcome
}

/// MEMO over the calibration's N-tier [`memo_hal::MemoryHierarchy`],
/// truncated to the first `depth` offload tiers (`0` = the whole chain).
/// The α program becomes the greedy per-tier waterfall
/// (`memo_swap::alpha::solve_alpha_tiered`); on the paper's three-tier
/// testbed chain `depth = 1` reproduces [`run_memo`] and `depth = 2`
/// [`run_memo_with_nvme`] bit-exactly.
pub fn run_memo_tiered(w: &Workload, cfg: &ParallelConfig, depth: u8) -> CellOutcome {
    ExecutionPipeline::new(SystemSpec::MemoTiered(depth))
        .execute(w, cfg)
        .outcome
}

/// Run the decode-phase serving workload under a KV-cache policy
/// (`SystemSpec::Serving`): derive the decode cell from the workload's
/// calibration, replay it through `crate::serving`, and report the
/// outcome in the training vocabulary (tokens/sec → TGS, decode
/// utilization → MFU). Serving has no `ParallelConfig` — the cell is a
/// single device.
pub fn run_serving(w: &Workload, policy: KvCachePolicy) -> CellOutcome {
    ServingEngine::from_workload(w, policy).run().to_outcome()
}

/// MEMO with the whole-trace flat planner: instead of the bi-level
/// decomposition, the entire iteration trace goes to `memo_plan`'s
/// size-based dispatch policy — exact branch-and-bound when the instance is
/// small, the boxing solver (certified multiplicative gap to the liveness
/// lower bound) when it is large. Same α program and schedule as
/// [`run_memo`]; only the address-assignment stage differs.
pub fn run_memo_whole_plan(w: &Workload, cfg: &ParallelConfig) -> CellOutcome {
    ExecutionPipeline::new(SystemSpec::MemoWholePlan)
        .execute(w, cfg)
        .outcome
}

/// A Capuchin-style *tensor granularity* hybrid (related work, §6): decide
/// swap-vs-recompute per whole tensor instead of per token row — greedily
/// swap the largest recomputable tensors that still fit under the overlap
/// and host budgets. MEMO's token-wise split dominates this whenever the
/// optimal fraction falls between tensor boundaries.
pub fn run_tensor_hybrid(w: &Workload, cfg: &ParallelConfig) -> CellOutcome {
    ExecutionPipeline::new(SystemSpec::TensorHybrid)
        .execute(w, cfg)
        .outcome
}

/// MEMO with `slots` rounding buffers instead of two — the buffer-count
/// design ablation. The α program is unchanged (the binding constraint is
/// PCIe bandwidth, which extra buffers cannot relax), so the expected result
/// is flat MFU at linearly growing skeletal memory.
pub fn run_memo_with_buffer_slots(w: &Workload, cfg: &ParallelConfig, slots: usize) -> CellOutcome {
    ExecutionPipeline::new(SystemSpec::MemoBufferSlots(slots as u8))
        .execute(w, cfg)
        .outcome
}

/// Megatron-LM + TransformerEngine: TP/SP/CP/PP + ZeRO-1, full activation
/// recomputation, PyTorch caching allocator.
pub fn run_megatron(w: &Workload, cfg: &ParallelConfig) -> CellOutcome {
    ExecutionPipeline::new(SystemSpec::MegatronLM)
        .execute(w, cfg)
        .outcome
}

/// Megatron-LM with rematerialisation disabled (TransformerEngine
/// "selective" checkpointing keeps every skeletal tensor when
/// FlashAttention is in use): fastest per step, but the KeepAll footprint
/// grows as `n · 16·bsh` and OOMs at a fraction of the full-recompute
/// frontier — the reason long-context Megatron runs force full
/// recomputation on (§2.2).
pub fn run_megatron_keepall(w: &Workload, cfg: &ParallelConfig) -> CellOutcome {
    ExecutionPipeline::new(SystemSpec::MegatronKeepAll)
        .execute(w, cfg)
        .outcome
}

/// Megatron-DeepSpeed: Ulysses all-to-all SP + ZeRO-3, full recomputation,
/// unfused fp32 loss, caching allocator.
pub fn run_deepspeed(w: &Workload, cfg: &ParallelConfig) -> CellOutcome {
    ExecutionPipeline::new(SystemSpec::DeepSpeed)
        .execute(w, cfg)
        .outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::w7;
    use memo_model::config::ModelConfig;

    #[test]
    fn memo_mfu_flat_across_lengths() {
        // Table 3's signature: MEMO holds ≈50% MFU from 128K to 1024K.
        let cfgs = [
            (128, ParallelConfig::megatron(4, 2, 1, 1)),
            (256, ParallelConfig::megatron(4, 2, 1, 1)),
            (512, ParallelConfig::megatron(4, 2, 1, 1)),
            (1024, ParallelConfig::megatron(8, 1, 1, 1)),
        ];
        for (s, cfg) in cfgs {
            let out = run_memo(&w7(8, s), &cfg);
            let m = out
                .metrics()
                .unwrap_or_else(|| panic!("{s}K infeasible: {out:?}"));
            assert!(
                m.mfu > 0.42 && m.mfu < 0.60,
                "{s}K: MFU {:.3} outside the ~50% band",
                m.mfu
            );
        }
    }

    #[test]
    fn megatron_pays_recompute_tax() {
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        let memo = run_memo(&w7(8, 256), &cfg).mfu().unwrap();
        let mega = run_megatron(&w7(8, 256), &cfg).mfu().unwrap();
        let ratio = memo / mega;
        assert!(
            ratio > 1.25,
            "MEMO/Megatron MFU ratio {ratio:.2} too small (memo {memo:.3}, mega {mega:.3})"
        );
    }

    #[test]
    fn memo_oom_frontier_beyond_megatron() {
        // Find the largest multiple of 128K each system survives (7B, 8 GPUs)
        // with its best strategy.
        let frontier = |sys: SystemSpec| -> u64 {
            let mut best = 0;
            for sk in (1..=12).map(|k| 128 * k as u64) {
                let w = w7(8, sk);
                if w.run_best(sys).is_some() {
                    best = sk;
                }
            }
            best
        };
        let memo = frontier(SystemSpec::Memo);
        let mega = frontier(SystemSpec::MegatronLM);
        let ds = frontier(SystemSpec::DeepSpeed);
        assert!(
            memo >= mega + 128 && mega >= ds,
            "frontiers (K tokens): memo {memo}, megatron {mega}, deepspeed {ds}"
        );
        assert!(memo >= 1024, "MEMO must reach 1M (got {memo}K)");
    }

    #[test]
    fn keepall_megatron_fast_but_short() {
        // Without recomputation Megatron is faster per step but OOMs at a
        // fraction of the full-recompute frontier.
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        let keep = run_megatron_keepall(&w7(8, 64), &cfg).mfu().unwrap();
        let full = run_megatron(&w7(8, 64), &cfg).mfu().unwrap();
        assert!(keep > full, "no recompute tax: {keep} vs {full}");
        // ...but it dies long before full recomputation does.
        assert!(run_megatron(&w7(8, 384), &cfg).is_ok());
        assert!(!run_megatron_keepall(&w7(8, 384), &cfg).is_ok());
    }

    #[test]
    fn deepspeed_limited_by_fp32_loss() {
        // 7B on 8 GPUs: DS dies within a few hundred K (paper: 384K OOM).
        let cfg = ParallelConfig::ulysses(8, 1);
        assert!(run_deepspeed(&w7(8, 256), &cfg).is_ok());
        let far = run_deepspeed(&w7(8, 768), &cfg);
        assert!(!far.is_ok(), "DS should OOM well before 768K, got {far:?}");
    }

    #[test]
    fn oohm_when_alpha_override_overflows_host() {
        // Full swapping at extreme lengths exhausts the host share (the
        // Table 4 "Full Swapping" column's X_oohm entries).
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        let out = run_memo_with_alpha(&w7(8, 768), &cfg, Some(1.0));
        assert!(
            matches!(out, CellOutcome::Oohm { .. }),
            "full swapping at 768K should OOHM, got {out:?}"
        );
    }

    #[test]
    fn nvme_tier_dominates_host_only() {
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        for s in [512u64, 768, 1024] {
            let w = w7(8, s);
            let base = run_memo(&w, &cfg).mfu().unwrap();
            let nvme = run_memo_with_nvme(&w, &cfg).mfu().unwrap();
            assert!(nvme >= base - 1e-9, "{s}K: nvme {nvme} < host-only {base}");
        }
        // where the host α is capped, NVMe must strictly help
        let w = w7(8, 768);
        let base = run_memo(&w, &cfg).metrics().unwrap().alpha.unwrap();
        let nvme = run_memo_with_nvme(&w, &cfg)
            .metrics()
            .unwrap()
            .alpha
            .unwrap();
        assert!(
            nvme > base,
            "two-tier α {nvme} must exceed host-only α {base}"
        );
    }

    #[test]
    fn tiered_chain_reduces_to_legacy_modes() {
        // On the default three-tier testbed chain, the N-tier waterfall
        // truncated to one offload tier is MEMO and truncated to two (or
        // run over the whole chain) is MEMO+NVMe — outcome, byte and time
        // breakdowns all identical.
        let mega = ParallelConfig::megatron(4, 2, 1, 1);
        for s in [64u64, 256, 512, 768, 1024] {
            let w = w7(8, s);
            for (depth, legacy) in [
                (1u8, SystemSpec::Memo),
                (2, SystemSpec::MemoNvme),
                (0, SystemSpec::MemoNvme),
            ] {
                let tiered =
                    ExecutionPipeline::new(SystemSpec::MemoTiered(depth)).execute(&w, &mega);
                let base = ExecutionPipeline::new(legacy).execute(&w, &mega);
                assert_eq!(
                    tiered.outcome, base.outcome,
                    "{s}K depth {depth} vs {legacy:?}"
                );
                assert_eq!(tiered.bytes, base.bytes, "{s}K depth {depth} bytes");
                assert_eq!(tiered.time, base.time, "{s}K depth {depth} time");
            }
        }
    }

    #[test]
    fn memo_nvme_without_an_nvme_tier_is_memo() {
        // MemoNvme is the tiered policy at depth 2. On a hierarchy with a
        // single offload tier (host only) there is nothing to spill to, so
        // it runs the host-only token-wise policy — MEMO, with MEMO's host
        // gate — in every cell, including the host-bound ones.
        let mega = ParallelConfig::megatron(4, 2, 1, 1);
        for s in [64u64, 768, 1024] {
            let mut w = w7(8, s);
            w.calib.hierarchy.tiers.truncate(1);
            let nvme = ExecutionPipeline::new(SystemSpec::MemoNvme).execute(&w, &mega);
            let memo = ExecutionPipeline::new(SystemSpec::Memo).execute(&w, &mega);
            assert_eq!(nvme.outcome, memo.outcome, "{s}K outcome");
            assert_eq!(nvme.bytes, memo.bytes, "{s}K bytes");
            assert_eq!(nvme.time, memo.time, "{s}K time");
        }
    }

    #[test]
    fn deeper_chain_extends_the_frontier_knob() {
        // Adding a CXL-style tier between host and NVMe must never hurt:
        // the waterfall's α is monotone in chain depth.
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        let mut w = w7(8, 768);
        let nvme = w.calib.hierarchy.tiers.pop().unwrap();
        w.calib.hierarchy.push(memo_hal::TierSpec {
            name: "cxl".into(),
            capacity_bytes: 512 << 30,
            usable_fraction: 1.0,
            write_bandwidth: 64e9,
            read_bandwidth: 64e9,
            utilization: 0.85,
            sharing: memo_hal::TierSharing::Fixed(2.0),
            latency_secs: 250e-9,
        });
        w.calib.hierarchy.push(nvme);
        let two = run_memo_tiered(&w, &cfg, 2)
            .metrics()
            .unwrap()
            .alpha
            .unwrap();
        let four = run_memo_tiered(&w, &cfg, 0)
            .metrics()
            .unwrap()
            .alpha
            .unwrap();
        assert!(
            four >= two,
            "4-tier α {four} must not fall below host+CXL α {two}"
        );
    }

    #[test]
    fn memo_scales_to_64_gpus_8m() {
        // Figure 12(c): 7B on 64 GPUs sustains >45% MFU up to 8M tokens.
        let w = Workload::new(ModelConfig::gpt_7b(), 64, 8 * 1024 * 1024);
        let cfg = ParallelConfig::megatron(8, 8, 1, 1);
        let out = run_memo(&w, &cfg);
        let m = out.metrics().expect("8M on 64 GPUs must be feasible");
        assert!(m.mfu > 0.45, "MFU {:.3}", m.mfu);
    }

    #[test]
    fn report_breakdowns_account_for_the_iteration() {
        // The ExecutionReport's byte and time decompositions must agree
        // with the headline metrics for every mode that succeeds.
        let w = w7(8, 256);
        let mega = ParallelConfig::megatron(4, 2, 1, 1);
        let ds = ParallelConfig::ulysses(8, 1);
        for spec in SystemSpec::ALL_MODES {
            let cfg = if spec == SystemSpec::DeepSpeed {
                &ds
            } else {
                &mega
            };
            let report = ExecutionPipeline::new(spec).execute(&w, cfg);
            let Some(m) = report.outcome.metrics() else {
                continue;
            };
            assert_eq!(report.bytes.peak(), m.peak_gpu_bytes, "{spec:?} bytes");
            let total = report.time.total();
            assert!(
                (total - m.iter_secs).abs() < 1e-6 * m.iter_secs.max(1.0),
                "{spec:?}: breakdown {total} vs iter {}",
                m.iter_secs
            );
            assert!(report.time.compute > 0.0, "{spec:?} compute");
            assert!(report.time.optimizer > 0.0, "{spec:?} optimizer");
        }
    }
}
