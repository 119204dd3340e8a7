//! # memo-swap — token-wise recomputation and swapping (§4.1)
//!
//! MEMO's first contribution: manage skeletal activations with a *fine
//! grained* mix of CPU offloading and recomputation.
//!
//! * Tensor level: always offload the layer input (the recompute anchor) and
//!   the FlashAttention output (1/16 of the bytes but ~the whole compute).
//! * Token level: of the remaining skeletal tensors, offload an `α` fraction
//!   of token rows and recompute the rest; `α` comes from the linear program
//!   of Eq. (1)–(3) ([`alpha`]).
//! * Two GPU **rounding buffers** hold skeletal activations — even layers in
//!   buffer 0, odd layers in buffer 1 — with CUDA events guarding reuse
//!   ([`buffers`]). When `α = 0` a single buffer suffices (§4.1 special
//!   case).
//! * The offload / prefetch / recompute operations are laid out on three
//!   streams exactly as in Figure 11 ([`schedule`] holds the inputs and
//!   results, [`segmented`] the one simulator and its layer layout).
//! * Host staging capacity (and OOHM) is tracked by [`host`]; the N-tier
//!   offload chain keeps one such pool per tier in [`tiers`], and the
//!   α program generalises to a per-tier greedy waterfall
//!   ([`alpha::solve_alpha_tiered`]).

//! * The same α program drives token-wise **KV** swapping for the serving
//!   workload family ([`kv`]): the decode step is the overlap window, the
//!   KV cache the α-managed pool, and cold sequences page down the tier
//!   chain MemGPT-style.

pub mod alpha;
pub mod buffers;
pub mod delta;
pub mod host;
pub mod kv;
pub mod reference;
pub mod schedule;
pub mod segmented;
pub mod tiers;

pub use alpha::{
    solve_alpha, solve_alpha_tiered, AlphaInputs, AlphaSolution, BindingConstraint, TierLink,
    TieredSolution,
};
pub use buffers::RoundingBuffers;
pub use delta::{ScheduleKey, SegmentCache, SegmentCacheStats, SegmentStatsScope};
pub use host::HostStaging;
pub use kv::{plan_kv_swap, plan_kv_tiered, KvPager, KvSwapInputs, KvSwapPlan, KvTieredPlan};
pub use schedule::{
    build_iteration_schedule, build_iteration_schedule_recorded, LayerCosts, ScalarSchedule,
    ScheduleOutcome, TierTraffic, TierTrafficList, MAX_TIERS,
};
pub use segmented::{
    build_segmented_scalars, build_segmented_schedule_recorded, layer_layout, LayerSegment,
    SegmentPolicy,
};
pub use tiers::{OutOfTierMemory, TierStaging};
