//! Near-optimal whole-trace DSA via height classes and stacked bands.
//!
//! Exact branch-and-bound ([`crate::bnb`]) is limited to the tiny instances
//! produced by the bi-level decomposition; the whole-model ("flat")
//! formulation of §4.2 carries thousands to millions of intervals. This
//! module solves it in the idealloc/Buchsbaum family:
//!
//! 1. **Best-fit first** (instances of at most `portfolio_max_tensors`):
//!    the [`crate::heuristic`] best-fit solve runs first, and if it meets
//!    the liveness bound `LOAD = lower_bound()` it is returned at once —
//!    no bands, no polish, since nothing can go lower.
//! 2. **Stacked bands in one sweep**: every nonzero tensor falls in a
//!    power-of-two *height class* `c` (true sizes in `(2^(c-1), 2^c]`).
//!    One birth-ordered sweep, with a death-ordered release cursor and a
//!    free-track stack per class, colors each class onto exactly `T_c`
//!    tracks (its maximum number of concurrently-live tensors, the clique
//!    number) of height `h_c`, the class's largest true size, and measures
//!    `LOAD` on the way. Each class's tracks form one contiguous band and
//!    the bands are stacked: offsets are `base_c + track·h_c`, the peak
//!    `Σ_c T_c·h_c`.
//! 3. **Certificate**: at the instant class `c` reaches `T_c` live
//!    tensors, each has true size `> 2^(c-1) ≥ h_c/2`, so
//!    `T_c·h_c < 2·maxload_c ≤ 2·LOAD` (class 0 sizes are exactly 1, so
//!    the factor 2 is not even needed there) and the bands' peak is at
//!    most `2·K·LOAD`, `K` the number of nonempty classes.
//!
//! Otherwise the solver keeps the lower of {stacked bands, best-fit} and
//! runs the compaction polish, so its peak is **provably ≤ `2·K·LOAD`** —
//! the `guarantee` field — while in practice landing at or near the lower
//! bound. The sweep is two sorts plus a linear pass, which is what lets a
//! ≥1M-interval trace solve in a fraction of a second (see `dsa_bench`).
//! [`jobsets`] recomputes the per-class summary on its own, as the oracle
//! for the sweep.

use crate::dsa::{Assignment, DsaInstance};
use crate::heuristic;
use crate::index::IntervalIndex;
use std::collections::BTreeMap;

/// Tuning knobs for [`solve_with`]. Defaults are documented thresholds
/// (also exercised by the dispatch tests).
#[derive(Debug, Clone)]
pub struct BoxingOptions {
    /// Run best-fit first when `n ≤` this; it is returned at once when it
    /// meets the liveness bound, and otherwise competes with the bands.
    pub portfolio_max_tensors: usize,
    /// Run compaction polish passes when `n ≤` this.
    pub polish_max_tensors: usize,
    /// Skip polish if the instance has more conflicting pairs than this.
    pub polish_max_pairs: usize,
    /// Maximum number of compaction passes.
    pub polish_passes: usize,
}

impl Default for BoxingOptions {
    fn default() -> Self {
        BoxingOptions {
            portfolio_max_tensors: 4096,
            polish_max_tensors: 65_536,
            polish_max_pairs: 4_000_000,
            polish_passes: 3,
        }
    }
}

/// Per-height-class liveness summary from [`jobsets`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassLoad {
    /// Height class: true sizes in `(2^(class-1), 2^class]`.
    pub class: u32,
    /// Number of tensors in the class.
    pub count: usize,
    /// Maximum concurrently-live tensors (= optimal track count).
    pub tracks: usize,
    /// Maximum concurrently-live true bytes within the class.
    pub max_live_bytes: u64,
}

/// Event-point liveness jobsets: the global load plus per-class summaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Jobsets {
    /// `DsaInstance::lower_bound()`: max total live bytes at any event.
    pub load: u64,
    /// Nonempty height classes, ascending. Zero-size tensors are excluded
    /// (they occupy no address space).
    pub classes: Vec<ClassLoad>,
}

/// How the winning candidate was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Candidate {
    StackedBands,
    BestFit,
}

impl Candidate {
    pub fn name(self) -> &'static str {
        match self {
            Candidate::StackedBands => "stacked-bands",
            Candidate::BestFit => "best-fit",
        }
    }
}

/// Solve statistics.
#[derive(Debug, Clone)]
pub struct BoxingStats {
    pub n_tensors: usize,
    /// Nonempty height classes (the `K` in the `2·K·LOAD` guarantee).
    pub classes: usize,
    /// Which candidate won (before polish).
    pub candidate: Candidate,
    /// Compaction passes actually run.
    pub polish_passes: usize,
}

/// A validated boxing solution with its certified bound.
#[derive(Debug, Clone)]
pub struct BoxingSolution {
    pub assignment: Assignment,
    pub lower_bound: u64,
    /// Certified multiplicative-gap bound: `peak ≤ guarantee = 2·K·LOAD`.
    pub guarantee: u64,
    pub stats: BoxingStats,
}

/// Height class of a (nonzero) size: `size ∈ (2^(c-1), 2^c]` maps to `c`.
fn class_of(size: u64) -> u32 {
    debug_assert!(size > 0);
    if size >= (1u64 << 63) {
        // Clamp: a >8 EiB tensor never occurs; avoids shift overflow.
        return 63;
    }
    63 - size.next_power_of_two().leading_zeros()
}

/// Compute the event-point liveness jobsets.
pub fn jobsets(inst: &DsaInstance) -> Jobsets {
    let mut per_class: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, t) in inst.tensors.iter().enumerate() {
        if t.size == 0 {
            continue;
        }
        per_class.entry(class_of(t.size)).or_default().push(i);
    }
    let classes = per_class
        .iter()
        .map(|(&class, members)| {
            // Sweep this class's events: deaths before births at equal
            // positions (half-open lifespans).
            let mut events: Vec<(usize, i64, i64)> = Vec::with_capacity(members.len() * 2);
            for &i in members {
                let t = &inst.tensors[i];
                events.push((t.birth, 1, t.size as i64));
                events.push((t.death, -1, -(t.size as i64)));
            }
            events.sort_unstable_by_key(|&(pos, d, _)| (pos, d));
            let (mut live, mut bytes) = (0i64, 0i64);
            let (mut tracks, mut max_bytes) = (0i64, 0i64);
            for (_, d, b) in events {
                live += d;
                bytes += b;
                tracks = tracks.max(live);
                max_bytes = max_bytes.max(bytes);
            }
            ClassLoad {
                class,
                count: members.len(),
                tracks: tracks as usize,
                max_live_bytes: max_bytes as u64,
            }
        })
        .collect();
    Jobsets {
        load: inst.lower_bound(),
        classes,
    }
}

/// One height class's tracks during the [`stacked_bands`] sweep.
#[derive(Debug, Default, Clone)]
struct Band {
    /// Tracks opened so far; `T_c` once the sweep ends.
    tracks: u32,
    /// Largest true size seen: the band's track height `h_c`.
    height: u64,
    /// Tracks released by dead tensors, reused last-in first-out.
    free: Vec<u32>,
}

/// The bands candidate: each class's tracks stacked as one contiguous
/// band of height `T_c·h_c` (see the module docs for the certificate).
struct Bands {
    offsets: Vec<u64>,
    peak: u64,
    /// The liveness load `LOAD`, measured by the same sweep.
    load: u64,
}

/// Stacked bands at true heights in one sweep. The nonzero tensors are
/// visited in `(birth, death, idx)` order while a second cursor walks them
/// in `(death, idx)` order; before each birth, every tensor dead by then
/// hands its track back to its class's free stack. Any free track will
/// do: when none is free, all of the class's tracks are held by tensors
/// live at this birth, so each class opens exactly `T_c` tracks (the
/// clique number of its interval graph).
fn stacked_bands(inst: &DsaInstance) -> Bands {
    let tensors = &inst.tensors;
    let mut by_death: Vec<u32> = (0..tensors.len() as u32)
        .filter(|&i| tensors[i as usize].size > 0)
        .collect();
    let mut by_birth = by_death.clone();
    // Builder output is already in death order, so this stable sort is a
    // near-linear check.
    by_death.sort_by_key(|&i| tensors[i as usize].death);
    by_birth.sort_unstable_by_key(|&i| {
        let t = &tensors[i as usize];
        (t.birth, t.death, i)
    });

    let mut bands: Vec<Band> = vec![Band::default(); 64];
    let mut track = vec![0u32; tensors.len()];
    let (mut live, mut load) = (0u64, 0u64);
    let mut dead = by_death.iter().peekable();
    for &i in &by_birth {
        let t = &tensors[i as usize];
        while let Some(&&j) = dead.peek() {
            let d = &tensors[j as usize];
            if d.death > t.birth {
                break;
            }
            dead.next();
            // A zero-width lifespan (never built from a trace) holds no
            // track past its own birth, below.
            if d.death > d.birth {
                bands[class_of(d.size) as usize]
                    .free
                    .push(track[j as usize]);
                live -= d.size;
            }
        }
        let band = &mut bands[class_of(t.size) as usize];
        band.height = band.height.max(t.size);
        let k = band.free.pop().unwrap_or_else(|| {
            band.tracks += 1;
            band.tracks - 1
        });
        track[i as usize] = k;
        if t.death > t.birth {
            live += t.size;
            load = load.max(live);
        } else {
            band.free.push(k);
        }
    }

    let mut base = [0u64; 64];
    let mut peak = 0u64;
    for (b, band) in base.iter_mut().zip(&bands) {
        *b = peak;
        peak = peak.saturating_add(u64::from(band.tracks).saturating_mul(band.height));
    }
    let offsets = tensors
        .iter()
        .zip(&track)
        .map(|(t, &k)| {
            if t.size == 0 {
                return 0;
            }
            let c = class_of(t.size) as usize;
            base[c].saturating_add(u64::from(k).saturating_mul(bands[c].height))
        })
        .collect();
    Bands {
        offsets,
        peak,
        load,
    }
}

/// Number of nonempty height classes: the `K` of the guarantee.
fn class_count(inst: &DsaInstance) -> usize {
    let mask = inst
        .tensors
        .iter()
        .filter(|t| t.size > 0)
        .fold(0u64, |m, t| m | 1 << class_of(t.size));
    mask.count_ones() as usize
}

/// One compaction pass: re-place every tensor in ascending current-offset
/// order at the lowest address feasible w.r.t. already re-placed
/// conflicts. Never increases the peak (the standard normalization
/// argument: by induction each tensor's old offset stays feasible).
fn compact(inst: &DsaInstance, adj: &[Vec<usize>], offsets: &mut [u64]) {
    let n = inst.tensors.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&i| (offsets[i], i));
    let mut placed = vec![false; n];
    let mut busy: Vec<(u64, u64)> = Vec::new();
    for &i in &order {
        let size = inst.tensors[i].size;
        busy.clear();
        for &j in &adj[i] {
            if placed[j] {
                let s = inst.tensors[j].size;
                if s > 0 {
                    busy.push((offsets[j], offsets[j].saturating_add(s)));
                }
            }
        }
        busy.sort_unstable();
        let mut cursor = 0u64;
        for &(start, end) in &busy {
            if start.saturating_sub(cursor) >= size {
                break;
            }
            cursor = cursor.max(end);
        }
        offsets[i] = cursor;
        placed[i] = true;
    }
}

fn peak_of(inst: &DsaInstance, offsets: &[u64]) -> u64 {
    inst.tensors
        .iter()
        .zip(offsets)
        .map(|(t, &o)| o.saturating_add(t.size))
        .max()
        .unwrap_or(0)
}

/// Solve with default options.
pub fn solve(inst: &DsaInstance) -> BoxingSolution {
    solve_with(inst, &BoxingOptions::default())
}

/// Solve: best-fit first on small instances (returned as soon as it meets
/// the liveness bound), else the lower of best-fit and the stacked bands,
/// polished; certified against `2·K·LOAD` either way.
pub fn solve_with(inst: &DsaInstance, opts: &BoxingOptions) -> BoxingSolution {
    let n = inst.tensors.len();
    let classes = class_count(inst);
    let certify = |assignment: Assignment, load: u64, candidate, polish_passes| {
        // Certified bound peak ≤ 2·K·LOAD (see module docs): the bands'
        // peak obeys it by construction, and every other returned
        // assignment is at most the bands' peak or exactly `LOAD`.
        let guarantee = load.saturating_mul(2).saturating_mul(classes as u64);
        debug_assert!(assignment.validate(inst).is_ok());
        debug_assert!(assignment.peak <= guarantee);
        BoxingSolution {
            assignment,
            lower_bound: load,
            guarantee,
            stats: BoxingStats {
                n_tensors: n,
                classes,
                candidate,
                polish_passes,
            },
        }
    };

    let mut best_fit = (n > 0 && n <= opts.portfolio_max_tensors).then(|| heuristic::solve(inst));
    // Polish cannot go below the bound: nothing left to gain.
    if let Some(bf) = best_fit.take_if(|bf| bf.peak == inst.lower_bound()) {
        let load = bf.peak;
        return certify(bf, load, Candidate::BestFit, 0);
    }

    let bands = stacked_bands(inst);
    let mut best = (Candidate::StackedBands, bands.offsets, bands.peak);
    if let Some(bf) = best_fit {
        if bf.peak < best.2 {
            best = (Candidate::BestFit, bf.offsets, bf.peak);
        }
    }
    let (candidate, mut offsets, mut peak) = best;

    let mut polish_passes = 0usize;
    if n > 0 && n <= opts.polish_max_tensors {
        if let Some(adj) = IntervalIndex::new(inst).adjacency_capped(inst, opts.polish_max_pairs) {
            for _ in 0..opts.polish_passes {
                compact(inst, &adj, &mut offsets);
                polish_passes += 1;
                let new_peak = peak_of(inst, &offsets);
                debug_assert!(new_peak <= peak, "compaction must not raise the peak");
                if new_peak >= peak {
                    peak = new_peak.min(peak);
                    break;
                }
                peak = new_peak;
            }
        }
    }

    certify(
        Assignment { offsets, peak },
        bands.load,
        candidate,
        polish_passes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsa::DsaTensor;
    use memo_model::trace::TensorId;

    fn t(id: u64, size: u64, birth: usize, death: usize) -> DsaTensor {
        DsaTensor {
            id: TensorId(id),
            size,
            birth,
            death,
        }
    }

    fn random_inst(seed: u64, n: usize, horizon: usize, max_size: u64) -> DsaInstance {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        DsaInstance {
            tensors: (0..n)
                .map(|i| {
                    let b = (next() as usize) % horizon;
                    let len = 1 + (next() as usize) % horizon;
                    t(i as u64, 1 + next() % max_size, b, b + len)
                })
                .collect(),
        }
    }

    #[test]
    fn class_of_power_of_two_boundaries() {
        assert_eq!(class_of(1), 0);
        assert_eq!(class_of(2), 1);
        assert_eq!(class_of(3), 2);
        assert_eq!(class_of(4), 2);
        assert_eq!(class_of(5), 3);
        assert_eq!(class_of(1 << 40), 40);
        assert_eq!(class_of((1 << 40) + 1), 41);
    }

    #[test]
    fn jobsets_counts_tracks_and_load() {
        let inst = DsaInstance {
            tensors: vec![t(0, 3, 0, 4), t(1, 4, 2, 6), t(2, 16, 1, 3)],
        };
        let js = jobsets(&inst);
        assert_eq!(js.load, inst.lower_bound());
        assert_eq!(js.classes.len(), 2);
        let c2 = &js.classes[0];
        assert_eq!((c2.class, c2.count, c2.tracks), (2, 2, 2));
        let c4 = &js.classes[1];
        assert_eq!((c4.class, c4.count, c4.tracks), (4, 1, 1));
    }

    #[test]
    fn solve_validates_and_respects_bounds_on_random_instances() {
        for seed in 1..=30u64 {
            let inst = random_inst(seed, 120, 60, 1 << 20);
            let sol = solve(&inst);
            sol.assignment.validate(&inst).unwrap();
            assert!(sol.assignment.peak >= sol.lower_bound, "seed {seed}");
            assert!(sol.assignment.peak <= sol.guarantee, "seed {seed}");
            assert_eq!(sol.assignment.peak, sol.assignment.measured_peak(&inst));
        }
    }

    #[test]
    fn solve_is_optimal_on_disjoint_and_identical_instances() {
        // All-disjoint: everything at offset 0.
        let inst = DsaInstance {
            tensors: vec![t(0, 7, 0, 1), t(1, 9, 1, 2), t(2, 5, 2, 3)],
        };
        let sol = solve(&inst);
        assert_eq!(sol.assignment.peak, 9);
        // Fully-overlapping equal power-of-two sizes: perfect stacking.
        let inst = DsaInstance {
            tensors: (0..8).map(|i| t(i, 16, 0, 10)).collect(),
        };
        let sol = solve(&inst);
        assert_eq!(sol.assignment.peak, 128);
        assert_eq!(sol.assignment.peak, sol.lower_bound);
    }

    #[test]
    fn zero_size_tensors_are_placed_at_zero() {
        let inst = DsaInstance {
            tensors: vec![t(0, 0, 0, 5), t(1, 8, 0, 5), t(2, 0, 2, 4)],
        };
        let sol = solve(&inst);
        sol.assignment.validate(&inst).unwrap();
        assert_eq!(sol.assignment.peak, 8);
        assert_eq!(sol.assignment.offsets[0], 0);
        assert_eq!(sol.assignment.offsets[2], 0);
    }

    #[test]
    fn empty_instance() {
        let sol = solve(&DsaInstance::default());
        assert_eq!(sol.assignment.peak, 0);
        assert_eq!(sol.guarantee, 0);
        assert_eq!(sol.stats.classes, 0);
    }

    #[test]
    fn best_fit_meeting_the_bound_returns_before_bands_and_polish() {
        // Non-power-of-two sizes in one class: bands round each track up
        // to 7, best-fit packs the true sizes at the bound.
        let inst = DsaInstance {
            tensors: vec![t(0, 5, 0, 4), t(1, 7, 0, 2), t(2, 6, 2, 4), t(3, 5, 4, 6)],
        };
        let sol = solve(&inst);
        assert_eq!(sol.stats.candidate, Candidate::BestFit);
        assert_eq!(sol.stats.polish_passes, 0);
        assert_eq!(sol.assignment.peak, inst.lower_bound());
        assert_eq!(sol.lower_bound, 12);
        assert_eq!(sol.guarantee, 2 * 12);
        sol.assignment.validate(&inst).unwrap();
        let bands = solve_with(
            &inst,
            &BoxingOptions {
                portfolio_max_tensors: 0,
                polish_max_tensors: 0,
                ..BoxingOptions::default()
            },
        );
        assert_eq!(bands.stats.candidate, Candidate::StackedBands);
        assert_eq!(bands.assignment.peak, 2 * 7);
    }

    #[test]
    fn polish_never_raises_peak_and_large_path_skips_portfolio() {
        let inst = random_inst(99, 200, 80, 1 << 12);
        let base = solve_with(
            &inst,
            &BoxingOptions {
                portfolio_max_tensors: 0,
                polish_max_tensors: 0,
                ..BoxingOptions::default()
            },
        );
        let polished = solve_with(
            &inst,
            &BoxingOptions {
                portfolio_max_tensors: 0,
                ..BoxingOptions::default()
            },
        );
        assert!(polished.assignment.peak <= base.assignment.peak);
        assert_eq!(base.stats.candidate, Candidate::StackedBands);
    }
}
