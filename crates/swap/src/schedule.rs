//! The three-stream iteration schedule (§4.3.4, Figure 11).
//!
//! Streams: `compute`, `offload` (GPU→CPU), `prefetch` (CPU→GPU). For each
//! forward layer the offload of its swapped skeletal slice is enqueued right
//! after its compute finishes and overlaps the next layer's compute; layer
//! `i+2` waits on layer `i`'s offload event before overwriting the rounding
//! buffer. During the backward pass, finishing layer `i`'s backward releases
//! its buffer and triggers the prefetch of layer `i−2`; the token-wise
//! recompute of the non-swapped slice runs on the compute stream immediately
//! before each backward.
//!
//! A layer's staged slice may span several tiers of the offload chain
//! ([`TierTrafficList`]): the per-layer transfer time is the sum of the
//! per-tier transfer times (the chain is traversed serially), and each
//! tier's bytes are tracked in its own [`TierStaging`] pool.
//!
//! This module holds the schedule's inputs and results; the simulator
//! itself is [`crate::segmented`], and the builders here are its uniform
//! token-wise layout. A build returns both the timings (from which MFU/TGS
//! derive) and the populated [`Timeline`] (for Figure 11 rendering); it
//! reports an out-of-tier failure if the staged activations overflow any
//! pool — the simulation's `X_oohm` when the host tier binds.

use crate::segmented::{build_segmented_schedule_recorded, layer_layout};
use crate::tiers::{OutOfTierMemory, TierStaging};
use memo_hal::engine::{CursorSegment, RecordLevel, Timeline};
use memo_hal::time::SimTime;

/// Maximum offload tiers a layer's traffic can span (chain depth below GPU
/// HBM). Deep enough for GPU→host→CXL→NVMe→remote chains with headroom;
/// keeping it fixed keeps [`LayerCosts`] `Copy`.
pub const MAX_TIERS: usize = 6;

/// One tier's share of a layer's staged slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierTraffic {
    /// Bytes staged on this tier per layer.
    pub bytes: u64,
    /// Effective bandwidth of the tier's link, bytes/s (ignored when
    /// `bytes == 0`).
    pub bandwidth: f64,
    /// Fixed per-transfer latency charged on top of the bandwidth term,
    /// seconds (0.0 for DRAM-class tiers).
    pub latency_secs: f64,
}

/// A layer's traffic across the offload chain, nearest tier first.
/// Fixed-capacity so [`LayerCosts`] stays `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierTrafficList {
    items: [TierTraffic; MAX_TIERS],
    len: usize,
}

impl TierTrafficList {
    pub fn new() -> Self {
        TierTrafficList {
            items: [TierTraffic {
                bytes: 0,
                bandwidth: 1.0,
                latency_secs: 0.0,
            }; MAX_TIERS],
            len: 0,
        }
    }

    /// Append the next-deeper tier's traffic.
    pub fn push(&mut self, t: TierTraffic) {
        assert!(self.len < MAX_TIERS, "offload chain deeper than MAX_TIERS");
        self.items[self.len] = t;
        self.len += 1;
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn get(&self, tier: usize) -> Option<&TierTraffic> {
        self.as_slice().get(tier)
    }

    pub fn as_slice(&self) -> &[TierTraffic] {
        &self.items[..self.len]
    }

    pub fn iter(&self) -> std::slice::Iter<'_, TierTraffic> {
        self.as_slice().iter()
    }

    /// Bytes staged on tier `tier` per layer (0 beyond the chain).
    pub fn bytes(&self, tier: usize) -> u64 {
        self.get(tier).map_or(0, |t| t.bytes)
    }
}

impl Default for TierTrafficList {
    fn default() -> Self {
        TierTrafficList::new()
    }
}

impl<'a> IntoIterator for &'a TierTrafficList {
    type Item = &'a TierTraffic;
    type IntoIter = std::slice::Iter<'a, TierTraffic>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Per-layer costs feeding the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerCosts {
    /// One transformer layer forward compute time.
    pub t_fwd: SimTime,
    /// One transformer layer backward compute time (gradients only).
    pub t_bwd: SimTime,
    /// Token-wise recompute time of the non-swapped slice, run before the
    /// layer's backward (zero when α = 1 or under full swapping).
    pub t_recompute: SimTime,
    /// The layer's staged slice across the offload chain, nearest tier
    /// first (tier 0 carries the mandatory input+attn swaps).
    pub traffic: TierTrafficList,
}

impl LayerCosts {
    /// Costs for the two-level GPU→host chain (the paper's testbed without
    /// its NVMe tier): every staged byte lands on host DRAM over PCIe, so
    /// the traffic list is the single host tier carrying
    /// `offload_bytes = S_input + S_attn + α·S_others` at the effective
    /// PCIe bandwidth.
    pub fn single_tier(
        t_fwd: SimTime,
        t_bwd: SimTime,
        t_recompute: SimTime,
        offload_bytes: u64,
        bandwidth: f64,
    ) -> Self {
        let mut traffic = TierTrafficList::new();
        traffic.push(TierTraffic {
            bytes: offload_bytes,
            bandwidth,
            latency_secs: 0.0,
        });
        LayerCosts {
            t_fwd,
            t_bwd,
            t_recompute,
            traffic,
        }
    }

    /// Costs for an arbitrary offload chain.
    pub fn with_traffic(
        t_fwd: SimTime,
        t_bwd: SimTime,
        t_recompute: SimTime,
        traffic: TierTrafficList,
    ) -> Self {
        LayerCosts {
            t_fwd,
            t_bwd,
            t_recompute,
            traffic,
        }
    }

    /// Bytes staged on the host tier (tier 0) per layer.
    pub fn host_bytes(&self) -> u64 {
        self.traffic.bytes(0)
    }

    /// Per-layer staging transfer time across the whole chain: the tiers
    /// are traversed serially, so the times add. An idle tier (0 bytes)
    /// contributes nothing regardless of its bandwidth or latency.
    pub fn t_transfer(&self) -> SimTime {
        let mut secs = 0.0;
        for t in &self.traffic {
            if t.bytes != 0 {
                secs += t.bytes as f64 / t.bandwidth + t.latency_secs;
            }
        }
        SimTime::from_secs_f64(secs)
    }

    /// Bytes staged per layer across the whole chain.
    pub fn staged_bytes(&self) -> u64 {
        self.traffic.iter().map(|t| t.bytes).sum()
    }
}

/// Timing results of one simulated iteration's transformer portion.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// End of the last forward layer (compute stream).
    pub forward_end: SimTime,
    /// Total makespan of forward + head + backward.
    pub makespan: SimTime,
    /// Compute-stream busy time (the useful + recompute work).
    pub compute_busy: SimTime,
    /// Compute-stream idle time (stalls caused by transfers).
    pub compute_idle: SimTime,
    /// Peak host bytes staged (tier 0).
    pub host_peak: u64,
    /// The populated timeline (3 streams), for rendering.
    pub timeline: Timeline,
}

/// Scalar results of a cursor-only schedule build — everything besides the
/// timeline and the staging side effects. Small and `Copy` so the segment
/// cache ([`crate::delta`]) can memoize it and replay the staging effects
/// in bulk without re-running the recurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalarSchedule {
    /// End of the last forward layer (compute stream).
    pub forward_end: SimTime,
    /// Final compute-stream cursor (forward + head + backward).
    pub compute_end: SimTime,
    /// Final offload-stream cursor.
    pub offload_end: SimTime,
    /// Final prefetch-stream cursor.
    pub prefetch_end: SimTime,
    /// Compute-stream busy total (useful + recompute work).
    pub compute_busy: SimTime,
    /// Busy total of each IO stream (offload and prefetch move the same
    /// bytes, so they share one figure).
    pub io_busy: SimTime,
}

impl ScalarSchedule {
    pub fn makespan(&self) -> SimTime {
        self.compute_end
            .max(self.offload_end)
            .max(self.prefetch_end)
    }

    pub fn compute_idle(&self) -> SimTime {
        self.makespan().saturating_sub(self.compute_busy)
    }

    /// Materialise the cursor-only [`ScheduleOutcome`] the scalar path
    /// returns: a 3-stream timeline carrying exactly these cursors and
    /// busy totals, landed through the [`CursorSegment`] splice.
    pub fn into_outcome(self, staging: &TierStaging) -> ScheduleOutcome {
        let mut tl = Timeline::with_recording(RecordLevel::CursorOnly);
        tl.add_stream("compute");
        tl.add_stream("offload");
        tl.add_stream("prefetch");
        tl.apply_segment(&CursorSegment::from_advances(vec![
            (self.compute_end, self.compute_busy),
            (self.offload_end, self.io_busy),
            (self.prefetch_end, self.io_busy),
        ]));
        ScheduleOutcome {
            forward_end: self.forward_end,
            makespan: self.makespan(),
            compute_busy: self.compute_busy,
            compute_idle: self.compute_idle(),
            host_peak: staging.host_peak(),
            timeline: tl,
        }
    }
}

/// Build the full transformer-layer schedule with a `t_head` block (final
/// norm + classifier fwd/bwd + loss) between forward and backward.
///
/// `n_layers ≥ 1`. Layers `n−1` and `n−2` are never offloaded (§4.1).
pub fn build_iteration_schedule(
    n_layers: usize,
    costs: LayerCosts,
    t_head: SimTime,
    staging: &mut TierStaging,
    buffer_bytes: u64,
) -> Result<ScheduleOutcome, OutOfTierMemory> {
    build_iteration_schedule_with_slots(n_layers, costs, t_head, staging, buffer_bytes, 2)
}

/// [`build_iteration_schedule`] generalised to `slots ≥ 2` rotating buffers:
/// layer `i+slots` waits on layer `i`'s offload, so an offload may hide
/// under `slots − 1` layers of compute (and the last `slots` layers never
/// swap).
pub fn build_iteration_schedule_with_slots(
    n_layers: usize,
    costs: LayerCosts,
    t_head: SimTime,
    staging: &mut TierStaging,
    buffer_bytes: u64,
    slots: usize,
) -> Result<ScheduleOutcome, OutOfTierMemory> {
    build_iteration_schedule_recorded(
        n_layers,
        costs,
        t_head,
        staging,
        buffer_bytes,
        slots,
        RecordLevel::Full,
    )
}

/// [`build_iteration_schedule_with_slots`] with an explicit recording level:
/// the uniform layout `[Swap × (n − slots)][Retained × min(n, slots)]` of
/// [`layer_layout`] through [`build_segmented_schedule_recorded`].
///
/// * [`RecordLevel::Full`] runs the event-machinery simulation and returns a
///   timeline with every span and mark — the `--trace`/Figure-11 path.
/// * [`RecordLevel::CursorOnly`] runs the scalar recurrence. Makespan,
///   per-stream cursors, busy times, per-tier peaks and out-of-tier errors
///   are bit-identical to the `Full` run (asserted by
///   `tests/differential.rs`); the returned timeline carries cursors and
///   busy totals but no spans.
pub fn build_iteration_schedule_recorded(
    n_layers: usize,
    costs: LayerCosts,
    t_head: SimTime,
    staging: &mut TierStaging,
    buffer_bytes: u64,
    slots: usize,
    level: RecordLevel,
) -> Result<ScheduleOutcome, OutOfTierMemory> {
    build_segmented_schedule_recorded(
        &layer_layout(n_layers, n_layers, slots, costs),
        t_head,
        staging,
        buffer_bytes,
        slots,
        level,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs(t_fwd_ms: u64, transfer_ratio: f64, t_remat_ms: u64) -> LayerCosts {
        let bytes = 1_000_000u64;
        let t_fwd = SimTime::from_millis(t_fwd_ms);
        LayerCosts::single_tier(
            t_fwd,
            SimTime::from_millis(2 * t_fwd_ms),
            SimTime::from_millis(t_remat_ms),
            bytes,
            bytes as f64 / (t_fwd.as_secs_f64() * transfer_ratio),
        )
    }

    fn run(n: usize, c: LayerCosts) -> ScheduleOutcome {
        let mut staging = TierStaging::unbounded(1);
        build_iteration_schedule(n, c, SimTime::from_millis(5), &mut staging, 0).unwrap()
    }

    #[test]
    fn full_overlap_when_transfer_fits_under_compute() {
        // transfer = 0.8 × layer forward: offload hides completely.
        let c = costs(10, 0.8, 0);
        let out = run(8, c);
        // forward should take exactly 8 × t_fwd — no stalls.
        assert_eq!(out.forward_end, SimTime::from_millis(80));
        assert_eq!(out.compute_idle, SimTime::ZERO);
    }

    #[test]
    fn stalls_when_transfer_exceeds_compute() {
        // transfer = 2 × layer forward: layer i+2 waits for layer i's
        // offload (the Figure 11 "w/o token-wise" picture).
        let c = costs(10, 2.0, 0);
        let out = run(8, c);
        assert!(out.forward_end > SimTime::from_millis(80));
        assert!(out.compute_idle > SimTime::ZERO);
    }

    #[test]
    fn backward_prefetch_overlaps() {
        // backward is 2× forward; transfer < bwd time → prefetches hide.
        let c = costs(10, 1.5, 0);
        let out = run(8, c);
        // Backward portion (from forward_end + head) should be ~8 × t_bwd.
        let bwd_span = out
            .makespan
            .saturating_sub(out.forward_end + SimTime::from_millis(5));
        let lower = SimTime::from_millis(8 * 20);
        let upper = SimTime::from_millis(8 * 20 + 25);
        assert!(
            bwd_span >= lower && bwd_span <= upper,
            "bwd span {bwd_span} outside [{lower}, {upper}]"
        );
    }

    #[test]
    fn recompute_serialises_on_compute_stream() {
        let with = run(8, costs(10, 0.5, 4));
        let without = run(8, costs(10, 0.5, 0));
        // 6 swapped layers × 4ms recompute.
        let delta = with.makespan.saturating_sub(without.makespan);
        assert_eq!(delta, SimTime::from_millis(24));
    }

    #[test]
    fn host_usage_returns_to_zero() {
        let mut staging = TierStaging::unbounded(1);
        let c = costs(10, 0.5, 0);
        build_iteration_schedule(8, c, SimTime::ZERO, &mut staging, 0).unwrap();
        assert_eq!(staging.host_used(), 0);
        assert_eq!(staging.host_peak(), 6 * c.host_bytes());
    }

    #[test]
    fn oohm_surfaces() {
        let mut staging = TierStaging::single(3 * 1_000_000); // room for 3 layers
        let c = costs(10, 0.5, 0);
        let err = build_iteration_schedule(12, c, SimTime::ZERO, &mut staging, 0).unwrap_err();
        assert_eq!(err.capacity, 3_000_000);
        assert_eq!(err.tier, 0);
    }

    #[test]
    fn deep_tier_overflow_surfaces_with_its_index() {
        // Host roomy, the second tier fits only 3 layers: the failure must
        // name tier 1 and leave the host pool holding the committed layers.
        let mut c = costs(10, 0.5, 0);
        c.traffic.push(TierTraffic {
            bytes: 500_000,
            bandwidth: 1e9,
            latency_secs: 0.0,
        });
        let mut staging = TierStaging::new(&[u64::MAX / 2, 3 * 500_000]);
        let err = build_iteration_schedule(12, c, SimTime::ZERO, &mut staging, 0).unwrap_err();
        assert_eq!(err.tier, 1);
        assert_eq!(err.capacity, 1_500_000);
        assert_eq!(staging.host_used(), 4 * 1_000_000);
    }

    #[test]
    fn multi_tier_transfer_times_add() {
        // 1 MB to a 1 GB/s host tier + 0.5 MB to a 0.1 GB/s deep tier with
        // 1 ms latency: 1 ms + (5 + 1) ms per layer.
        let mut traffic = TierTrafficList::new();
        traffic.push(TierTraffic {
            bytes: 1_000_000,
            bandwidth: 1e9,
            latency_secs: 0.0,
        });
        traffic.push(TierTraffic {
            bytes: 500_000,
            bandwidth: 1e8,
            latency_secs: 1e-3,
        });
        let c = LayerCosts::with_traffic(
            SimTime::from_millis(10),
            SimTime::from_millis(20),
            SimTime::ZERO,
            traffic,
        );
        assert_eq!(c.t_transfer(), SimTime::from_millis(7));
        assert_eq!(c.staged_bytes(), 1_500_000);
        // An idle tier costs nothing even with a huge latency.
        let mut idle = traffic;
        idle.push(TierTraffic {
            bytes: 0,
            bandwidth: 1.0,
            latency_secs: 10.0,
        });
        assert_eq!(
            LayerCosts::with_traffic(c.t_fwd, c.t_bwd, c.t_recompute, idle).t_transfer(),
            SimTime::from_millis(7)
        );
    }

    #[test]
    fn zero_offload_bytes_never_stalls() {
        let c = LayerCosts::single_tier(
            SimTime::from_millis(10),
            SimTime::from_millis(20),
            SimTime::ZERO,
            0,
            1e9,
        );
        let out = run(6, c);
        assert_eq!(out.compute_idle, SimTime::ZERO);
    }

    #[test]
    fn tiny_models_skip_swapping_entirely() {
        // n = 2: both layers retained; no offload traffic at all.
        let mut staging = TierStaging::single(1);
        let out =
            build_iteration_schedule(2, costs(10, 2.0, 0), SimTime::ZERO, &mut staging, 0).unwrap();
        assert_eq!(staging.host_peak(), 0);
        assert_eq!(out.compute_idle, SimTime::ZERO);
    }

    #[test]
    fn extra_slots_cannot_beat_the_bandwidth_limit() {
        // transfer = 1.5 × layer fwd: the single offload stream is a serial
        // throughput bottleneck, so a third rounding buffer cannot remove
        // the forward stalls — it only smooths the first few layers. This
        // is why the paper's design stops at two buffers: the binding
        // constraint of Eq. (2) is PCIe bandwidth, not buffer count.
        let c = costs(10, 1.5, 0);
        let run_slots = |slots: usize| {
            let mut staging = TierStaging::unbounded(1);
            build_iteration_schedule_with_slots(24, c, SimTime::ZERO, &mut staging, 0, slots)
                .unwrap()
        };
        let two = run_slots(2);
        let three = run_slots(3);
        let four = run_slots(4);
        assert!(two.compute_idle > SimTime::ZERO);
        assert!(three.compute_idle > SimTime::ZERO, "still bandwidth-bound");
        // Marginal gains shrink: each extra slot saves at most one layer's
        // worth of stall, while costing a full 16·bsh of GPU memory.
        assert!(three.makespan <= two.makespan);
        assert!(four.makespan <= three.makespan);
        let gain23 = two.makespan.saturating_sub(three.makespan);
        assert!(
            gain23.as_secs_f64() < 0.1 * two.compute_idle.as_secs_f64() + 0.021,
            "extra slots must not materially remove bandwidth stalls (saved {gain23})"
        );
    }

    #[test]
    fn timeline_renders_three_streams() {
        let out = run(6, costs(10, 0.8, 2));
        let art = memo_hal::timeline::render_ascii(&out.timeline, 80);
        assert!(art.contains("compute"));
        assert!(art.contains("offload"));
        assert!(art.contains("prefetch"));
    }
}
