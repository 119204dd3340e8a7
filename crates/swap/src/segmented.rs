//! The three-stream schedule simulator (§4.3.4, Figure 11) over per-layer
//! roles. Each layer is in one of three roles:
//!
//! * [`SegmentPolicy::Swap`] — token-wise swap: offload the staged slice
//!   in the forward pass, prefetch + recompute the non-swapped slice in
//!   the backward pass. Occupies a rounding-buffer slot.
//! * [`SegmentPolicy::Recompute`] — full recompute: nothing staged, no
//!   buffer slot; the backward pass re-runs the layer's forward
//!   (`t_recompute`) before its gradient step.
//! * [`SegmentPolicy::Retained`] — activations stay resident in a
//!   rounding buffer; no traffic, no recompute.
//!
//! [`layer_layout`] is the one layout rule every caller builds from:
//! `[Swap × k][Recompute × rest][Retained × min(n, slots)]`. The paper's
//! uniform token-wise schedule is the case `k = n − min(n, slots)` (no
//! layer recomputes); smaller `k` trades host-staging pressure for
//! re-forward compute (the delta-search extension).
//!
//! Buffer rotation is over *buffer users* (Swap + Retained layers) by
//! their occupancy ordinal, not the raw layer index — recompute layers
//! pass through without touching the ring. The rotation demands a
//! specific occupancy shape (asserted, see [`validate_layout`]): every
//! Swap ordinal needs a later occupant of its slot to kick its prefetch,
//! and a Retained ordinal must be among the last `slots` occupants or a
//! later user would clobber its resident activations.
//!
//! There is one recurrence per recording level: the event loop
//! ([`RecordLevel::Full`], every op a span) and the scalar recurrence
//! ([`RecordLevel::CursorOnly`], cursors and busy totals only). The
//! differential suite pins both against the verbatim reference builder
//! ([`crate::reference`]) on uniform layouts, and against each other on
//! mixed ones.

use crate::schedule::{LayerCosts, ScalarSchedule, ScheduleOutcome};
use crate::tiers::{OutOfTierMemory, TierStaging};
use memo_hal::engine::{EventId, RecordLevel, Timeline};
use memo_hal::time::SimTime;

/// How one layer's activations are handled in a mixed-policy schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentPolicy {
    /// Token-wise swap (offload + prefetch + partial recompute).
    Swap,
    /// Full recompute (refwd before backward, nothing staged).
    Recompute,
    /// Resident in a rounding buffer (no traffic, no recompute).
    Retained,
}

/// A run of consecutive layers sharing one policy and one cost profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerSegment {
    pub count: usize,
    pub policy: SegmentPolicy,
    /// Per-layer costs; `traffic` is read only for `Swap` layers and
    /// `t_recompute` only for `Swap`/`Recompute` layers.
    pub costs: LayerCosts,
}

impl LayerSegment {
    pub fn new(count: usize, policy: SegmentPolicy, costs: LayerCosts) -> Self {
        LayerSegment {
            count,
            policy,
            costs,
        }
    }
}

/// The layout rule of the three-stream schedule: the first `swap_layers`
/// layers swap token-wise, the last `min(n_layers, slots)` stay retained
/// in their rounding buffers, and every layer in between fully recomputes
/// (a re-forward costing `t_fwd`). `swap_layers` is clamped to the layers
/// that can swap at all, `n_layers − min(n_layers, slots)`; at the clamp
/// no layer recomputes — the paper's uniform token-wise schedule.
pub fn layer_layout(
    n_layers: usize,
    swap_layers: usize,
    slots: usize,
    costs: LayerCosts,
) -> [LayerSegment; 3] {
    let retained = slots.min(n_layers);
    let swap = swap_layers.min(n_layers - retained);
    let refwd = LayerCosts {
        t_recompute: costs.t_fwd,
        ..costs
    };
    [
        LayerSegment::new(swap, SegmentPolicy::Swap, costs),
        LayerSegment::new(n_layers - retained - swap, SegmentPolicy::Recompute, refwd),
        LayerSegment::new(retained, SegmentPolicy::Retained, costs),
    ]
}

/// Per-layer view of a segment list.
fn expand(segments: &[LayerSegment]) -> Vec<(SegmentPolicy, &LayerCosts)> {
    let mut layers = Vec::with_capacity(segments.iter().map(|s| s.count).sum());
    for seg in segments {
        layers.extend(std::iter::repeat_n((seg.policy, &seg.costs), seg.count));
    }
    layers
}

/// Check the rotation-validity invariants of a segmented layout and return
/// `(buffer_users, swap_layers)`. Panics on an ill-formed layout — these
/// are construction bugs, not data-dependent failures:
///
/// * a Swap buffer ordinal `b` must have an occupant at ordinal
///   `b + slots` (whose backward kicks the prefetch), i.e.
///   `b < users − slots`;
/// * a Retained ordinal must be among the last `slots` occupants
///   (`b ≥ users − slots`), or the next user of its slot would overwrite
///   resident activations in the forward pass.
fn validate_layout(layers: &[(SegmentPolicy, &LayerCosts)], slots: usize) -> (usize, usize) {
    assert!(!layers.is_empty(), "schedule needs at least one layer");
    assert!(slots >= 2, "rotation needs at least two slots");
    let users = layers
        .iter()
        .filter(|(p, _)| *p != SegmentPolicy::Recompute)
        .count();
    let swap_cut = users.saturating_sub(slots);
    let mut b = 0usize;
    let mut swaps = 0usize;
    for (i, (policy, _)) in layers.iter().enumerate() {
        match policy {
            SegmentPolicy::Recompute => {}
            SegmentPolicy::Swap => {
                assert!(
                    b < swap_cut,
                    "layer {i}: Swap at buffer ordinal {b} of {users} has no \
                     ordinal {b}+{slots} occupant to kick its prefetch"
                );
                swaps += 1;
                b += 1;
            }
            SegmentPolicy::Retained => {
                assert!(
                    b >= swap_cut,
                    "layer {i}: Retained at buffer ordinal {b} of {users} would \
                     be clobbered by the ordinal {b}+{slots} occupant"
                );
                b += 1;
            }
        }
    }
    (users, swaps)
}

/// Build a segmented iteration schedule at the given recording level.
/// [`RecordLevel::Full`] runs the event machinery (spans, marks, causality
/// check); [`RecordLevel::CursorOnly`] runs [`build_segmented_scalars`]
/// and materialises the cursor-only outcome — bit-identical timings,
/// staging state, and errors (asserted by the differential tests).
pub fn build_segmented_schedule_recorded(
    segments: &[LayerSegment],
    t_head: SimTime,
    staging: &mut TierStaging,
    buffer_bytes: u64,
    slots: usize,
    level: RecordLevel,
) -> Result<ScheduleOutcome, OutOfTierMemory> {
    match level {
        RecordLevel::Full => {
            build_segmented_event_loop(segments, t_head, staging, buffer_bytes, slots)
        }
        RecordLevel::CursorOnly => {
            let s = build_segmented_scalars(segments, t_head, staging, slots)?;
            Ok(s.into_outcome(staging))
        }
    }
}

/// The scalar recurrence over a segmented layout — the cursor-only path:
/// the event loop's cursor arithmetic, one layer at a time, with no
/// spans, marks or events.
pub fn build_segmented_scalars(
    segments: &[LayerSegment],
    t_head: SimTime,
    staging: &mut TierStaging,
    slots: usize,
) -> Result<ScalarSchedule, OutOfTierMemory> {
    let layers = expand(segments);
    validate_layout(&layers, slots);

    // ---- forward ------------------------------------------------------------
    let mut c = SimTime::ZERO;
    let mut o = SimTime::ZERO;
    let mut compute_busy = SimTime::ZERO;
    let mut io_busy = SimTime::ZERO;
    let mut off_end = vec![SimTime::ZERO; slots];
    // Buffer ordinal of each buffer-using layer, assigned in layer order.
    let mut b = 0usize;
    for (policy, costs) in &layers {
        compute_busy += costs.t_fwd;
        match policy {
            SegmentPolicy::Recompute => {
                c += costs.t_fwd;
            }
            SegmentPolicy::Swap | SegmentPolicy::Retained => {
                if b >= slots {
                    // The slot's previous occupant (always a Swap layer by
                    // layout validity) is offloading.
                    c = c.max(off_end[b % slots]);
                }
                c += costs.t_fwd;
                if *policy == SegmentPolicy::Swap {
                    staging.reserve_layer(&costs.traffic)?;
                    let tt = costs.t_transfer();
                    o = o.max(c) + tt;
                    off_end[b % slots] = o;
                    io_busy += tt;
                }
                b += 1;
            }
        }
    }
    let users = b;
    let forward_end = c;

    // ---- head ---------------------------------------------------------------
    c += t_head;
    compute_busy += t_head;

    // ---- backward -----------------------------------------------------------
    let mut p = SimTime::ZERO;
    let mut pf_end = vec![SimTime::ZERO; slots];
    // Transfer time of the Swap layer at each buffer ordinal (kick targets).
    let swap_tt: Vec<SimTime> = layers
        .iter()
        .filter(|(pol, _)| *pol != SegmentPolicy::Recompute)
        .map(|(_, costs)| costs.t_transfer())
        .collect();
    let mut b = users;
    for (policy, costs) in layers.iter().rev() {
        match policy {
            SegmentPolicy::Recompute => {
                // Re-forward the whole layer, then its backward.
                c += costs.t_recompute + costs.t_bwd;
                compute_busy += costs.t_recompute + costs.t_bwd;
            }
            SegmentPolicy::Swap | SegmentPolicy::Retained => {
                b -= 1;
                if *policy == SegmentPolicy::Swap {
                    // Wait for the prefetch kicked by the ordinal b+slots
                    // occupant's backward, then recompute the non-swapped
                    // token slice.
                    c = c.max(pf_end[b % slots]) + costs.t_recompute;
                    compute_busy += costs.t_recompute;
                }
                c += costs.t_bwd;
                compute_busy += costs.t_bwd;
                if *policy == SegmentPolicy::Swap {
                    staging.release_layer(&costs.traffic);
                }
                if b >= slots {
                    // This backward frees the slot: kick the prefetch of
                    // the Swap layer at ordinal b − slots.
                    p = p.max(c) + swap_tt[b - slots];
                    pf_end[(b - slots) % slots] = p;
                }
            }
        }
    }

    Ok(ScalarSchedule {
        forward_end,
        compute_end: c,
        offload_end: o,
        prefetch_end: p,
        compute_busy,
        io_busy,
    })
}

/// The full event-machinery simulation of a segmented layout: every op a
/// span, every dependency a recorded event — the differential reference
/// for [`build_segmented_scalars`] and the `--trace` rendering path.
fn build_segmented_event_loop(
    segments: &[LayerSegment],
    t_head: SimTime,
    staging: &mut TierStaging,
    buffer_bytes: u64,
    slots: usize,
) -> Result<ScheduleOutcome, OutOfTierMemory> {
    let layers = expand(segments);
    let (users, swaps) = validate_layout(&layers, slots);
    let n = layers.len();
    let _ = buffer_bytes; // sized by the caller's memory accounting

    let mut tl = Timeline::new();
    let swap_remats = layers
        .iter()
        .filter(|(p, c)| *p == SegmentPolicy::Swap && c.t_recompute > SimTime::ZERO)
        .count();
    let refwds = layers
        .iter()
        .filter(|(p, c)| *p == SegmentPolicy::Recompute && c.t_recompute > SimTime::ZERO)
        .count();
    let n_spans = 2 * n + 2 * swaps + usize::from(t_head > SimTime::ZERO) + swap_remats + refwds;
    let n_events = 2 * n + 2 * swaps;
    tl.reserve_ops(n_spans, n_events + 4 * swaps, n_events);
    let compute = tl.add_stream("compute");
    let offload = tl.add_stream("offload");
    let prefetch = tl.add_stream("prefetch");

    // ---- forward ------------------------------------------------------------
    // Offload-done event of the current occupant of each buffer slot.
    let mut slot_off_done: Vec<Option<EventId>> = vec![None; slots];
    // Layer index of each buffer ordinal (for backward prefetch kicks).
    let mut user_layer: Vec<usize> = Vec::with_capacity(users);
    let mut b = 0usize;
    for (layer, (policy, costs)) in layers.iter().enumerate() {
        if *policy != SegmentPolicy::Recompute {
            if b >= slots {
                let ev = slot_off_done[b % slots]
                    .expect("layout validity: previous slot occupant swaps");
                tl.wait_event(compute, ev);
            }
            user_layer.push(layer);
        }
        tl.enqueue_fmt(compute, costs.t_fwd, format_args!("fwd L{layer}"));
        let fwd_done = tl.record_event(compute);
        if *policy == SegmentPolicy::Swap {
            staging.reserve_layer(&costs.traffic)?;
            tl.wait_event(offload, fwd_done);
            tl.enqueue_fmt(offload, costs.t_transfer(), format_args!("off L{layer}"));
            slot_off_done[b % slots] = Some(tl.record_event(offload));
        }
        if *policy != SegmentPolicy::Recompute {
            b += 1;
        }
    }
    let forward_end = tl.stream_cursor(compute);

    // ---- head ---------------------------------------------------------------
    if t_head > SimTime::ZERO {
        tl.enqueue(compute, t_head, "head");
    }

    // ---- backward -----------------------------------------------------------
    let mut pf_done: Vec<Option<EventId>> = vec![None; n];
    let mut b = users;
    for (layer, (policy, costs)) in layers.iter().enumerate().rev() {
        match policy {
            SegmentPolicy::Recompute => {
                if costs.t_recompute > SimTime::ZERO {
                    tl.enqueue_fmt(compute, costs.t_recompute, format_args!("refwd L{layer}"));
                }
            }
            SegmentPolicy::Swap => {
                b -= 1;
                let ev = pf_done[layer].expect("prefetch must be kicked before backward");
                tl.wait_event(compute, ev);
                if costs.t_recompute > SimTime::ZERO {
                    tl.enqueue_fmt(compute, costs.t_recompute, format_args!("remat L{layer}"));
                }
            }
            SegmentPolicy::Retained => {
                b -= 1;
            }
        }
        tl.enqueue_fmt(compute, costs.t_bwd, format_args!("bwd L{layer}"));
        let bwd_done = tl.record_event(compute);
        if *policy == SegmentPolicy::Swap {
            staging.release_layer(&costs.traffic);
        }
        if *policy != SegmentPolicy::Recompute && b >= slots {
            // This backward frees slot b % slots: kick the prefetch of the
            // Swap layer occupying ordinal b − slots.
            let target = user_layer[b - slots];
            let (tp, tc) = (&layers[target].0, &layers[target].1);
            debug_assert_eq!(*tp, SegmentPolicy::Swap, "layout validity");
            tl.wait_event(prefetch, bwd_done);
            tl.enqueue_fmt(prefetch, tc.t_transfer(), format_args!("pf L{target}"));
            pf_done[target] = Some(tl.record_event(prefetch));
        }
    }

    tl.check_causality()
        .expect("segmented schedule must be causal");
    let makespan = tl.makespan();
    let compute_busy = tl.busy_time(compute);
    Ok(ScheduleOutcome {
        forward_end,
        makespan,
        compute_busy,
        compute_idle: makespan.saturating_sub(compute_busy),
        host_peak: staging.host_peak(),
        timeline: tl,
    })
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

    /// The MEMO-shaped layout: k swap, then recompute, then `slots` retained.
    fn mixed(n: usize, k: usize, slots: usize, c: LayerCosts, refwd_ms: u64) -> Vec<LayerSegment> {
        assert!(k + slots <= n);
        let mut refwd = c;
        refwd.t_recompute = SimTime::from_millis(refwd_ms);
        vec![
            LayerSegment::new(k, SegmentPolicy::Swap, c),
            LayerSegment::new(n - k - slots, SegmentPolicy::Recompute, refwd),
            LayerSegment::new(slots, SegmentPolicy::Retained, c),
        ]
    }

    fn assert_outcomes_match(a: &ScheduleOutcome, b: &ScheduleOutcome) {
        assert_eq!(a.forward_end, b.forward_end);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.compute_busy, b.compute_busy);
        assert_eq!(a.compute_idle, b.compute_idle);
        assert_eq!(a.host_peak, b.host_peak);
    }

    #[test]
    fn layer_layout_clamps_and_refwds_at_t_fwd() {
        let c = costs(10, 1.0, 3);
        let counts = |segs: [LayerSegment; 3]| segs.map(|s| s.count);
        assert_eq!(counts(layer_layout(12, 4, 2, c)), [4, 6, 2]);
        assert_eq!(counts(layer_layout(12, 99, 2, c)), [10, 0, 2]);
        assert_eq!(counts(layer_layout(1, 1, 2, c)), [0, 0, 1]);
        let segs = layer_layout(12, 4, 2, c);
        assert_eq!(segs[0].costs, c);
        assert_eq!(segs[1].costs.t_recompute, c.t_fwd);
        assert_eq!(segs[2].costs, c);
    }

    #[test]
    fn scalar_path_matches_event_loop_on_mixed_layouts() {
        for n in [4usize, 6, 9, 16] {
            for slots in [2usize, 3] {
                if n < slots + 1 {
                    continue;
                }
                for k in 0..=(n - slots) {
                    for ratio in [0.6, 1.7] {
                        let c = costs(10, ratio, 3);
                        let segs = mixed(n, k, slots, c, 9);
                        let mut s1 = TierStaging::unbounded(1);
                        let mut s2 = TierStaging::unbounded(1);
                        let full = build_segmented_schedule_recorded(
                            &segs,
                            SimTime::from_millis(5),
                            &mut s1,
                            0,
                            slots,
                            RecordLevel::Full,
                        )
                        .unwrap();
                        let fast = build_segmented_schedule_recorded(
                            &segs,
                            SimTime::from_millis(5),
                            &mut s2,
                            0,
                            slots,
                            RecordLevel::CursorOnly,
                        )
                        .unwrap();
                        assert_outcomes_match(&full, &fast);
                        assert_eq!(s1, s2);
                    }
                }
            }
        }
    }

    #[test]
    fn fewer_swap_layers_cut_host_peak_and_add_refwd_time() {
        let c = costs(10, 0.8, 3);
        let n = 12;
        let all = mixed(n, n - 2, 2, c, 0);
        let half = mixed(n, 5, 2, c, 10);
        let mut s_all = TierStaging::unbounded(1);
        let mut s_half = TierStaging::unbounded(1);
        let out_all = build_segmented_schedule_recorded(
            &all,
            SimTime::ZERO,
            &mut s_all,
            0,
            2,
            RecordLevel::CursorOnly,
        )
        .unwrap();
        let out_half = build_segmented_schedule_recorded(
            &half,
            SimTime::ZERO,
            &mut s_half,
            0,
            2,
            RecordLevel::CursorOnly,
        )
        .unwrap();
        assert_eq!(s_half.host_peak(), 5 * c.host_bytes());
        assert!(s_half.host_peak() < s_all.host_peak());
        // 5 recompute layers × 10 ms refwd lands on the compute stream.
        assert!(out_half.compute_busy > out_all.compute_busy);
    }

    #[test]
    fn oohm_failure_is_identical_across_levels() {
        let c = costs(10, 0.5, 0);
        let segs = mixed(12, 10, 2, c, 0);
        let mut s1 = TierStaging::single(3 * 1_000_000);
        let mut s2 = TierStaging::single(3 * 1_000_000);
        let e_full = build_segmented_schedule_recorded(
            &segs,
            SimTime::ZERO,
            &mut s1,
            0,
            2,
            RecordLevel::Full,
        )
        .unwrap_err();
        let e_fast = build_segmented_schedule_recorded(
            &segs,
            SimTime::ZERO,
            &mut s2,
            0,
            2,
            RecordLevel::CursorOnly,
        )
        .unwrap_err();
        assert_eq!(e_full, e_fast);
        assert_eq!(s1, s2);
    }

    #[test]
    #[should_panic(expected = "kick its prefetch")]
    fn swap_without_successor_is_rejected() {
        // Swap in the last `slots` buffer ordinals: no one kicks its
        // prefetch.
        let c = costs(10, 1.0, 0);
        let segs = vec![
            LayerSegment::new(1, SegmentPolicy::Swap, c),
            LayerSegment::new(1, SegmentPolicy::Retained, c),
        ];
        let mut s = TierStaging::unbounded(1);
        let _ = build_segmented_scalars(&segs, SimTime::ZERO, &mut s, 2);
    }

    #[test]
    #[should_panic(expected = "clobbered")]
    fn retained_before_a_later_buffer_user_is_rejected() {
        let c = costs(10, 1.0, 0);
        let segs = vec![
            LayerSegment::new(1, SegmentPolicy::Retained, c),
            LayerSegment::new(1, SegmentPolicy::Swap, c),
            LayerSegment::new(2, SegmentPolicy::Retained, c),
        ];
        let mut s = TierStaging::unbounded(1);
        let _ = build_segmented_scalars(&segs, SimTime::ZERO, &mut s, 2);
    }

    #[test]
    fn all_recompute_layout_is_pure_compute() {
        let mut c = costs(10, 1.0, 0);
        c.t_recompute = SimTime::from_millis(10);
        let segs = vec![
            LayerSegment::new(6, SegmentPolicy::Recompute, c),
            LayerSegment::new(2, SegmentPolicy::Retained, c),
        ];
        let mut s = TierStaging::unbounded(1);
        let out = build_segmented_scalars(&segs, SimTime::from_millis(5), &mut s, 2).unwrap();
        assert_eq!(out.io_busy, SimTime::ZERO);
        assert_eq!(s.host_peak(), 0);
        // 8 fwd + head + 6 refwd + 8 bwd, fully serial.
        assert_eq!(
            out.makespan(),
            SimTime::from_millis(8 * 10 + 5 + 6 * 10 + 8 * 20)
        );
        assert_eq!(out.compute_idle(), SimTime::ZERO);
    }
}
