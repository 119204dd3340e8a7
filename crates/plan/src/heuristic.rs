//! Best-fit placement heuristics for offline DSA.
//!
//! Used (a) as the incumbent seeding the exact branch-and-bound and (b) as
//! the solver of record for instances beyond exact reach (the paper's flat
//! formulation with thousands of requests). Each placement slides the
//! tensor into the lowest feasible gap among already-placed temporal
//! conflicts — the standard first/best-fit-decreasing family for DSA, which
//! is a constant factor off optimal in theory and usually optimal on
//! layered traces. Conflicts come from one [`IntervalIndex`] built per
//! [`solve`], so each placement visits only the tensor's actual conflicts
//! rather than all n tensors.
//!
//! A single best-fit pass per order often stops short of the liveness
//! bound. [`solve`] therefore reorders by *squeaky wheel* (Joslin &
//! Clements, JAIR 1999): after each pass, the tensors whose top reaches that
//! pass's peak move to the front of the order (keeping their relative
//! order) and the pass runs again. A base order stops after two passes in a
//! row that fail to lower its own best; the whole solve stops as soon as a
//! pass reaches the liveness bound, which proves it optimal.

use crate::dsa::{Assignment, DsaInstance};
use crate::index::IntervalIndex;

/// Base placement orders tried by [`solve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Order {
    /// Largest size first (classic BFD).
    SizeDesc,
    /// Longest lifespan first, ties by size.
    DurationDesc,
    /// Program order (birth index).
    BirthAsc,
    /// Size × duration ("area") descending.
    AreaDesc,
}

const ORDERS: [Order; 4] = [
    Order::SizeDesc,
    Order::DurationDesc,
    Order::BirthAsc,
    Order::AreaDesc,
];

/// Consecutive non-improving squeaky-wheel passes after which a base order
/// is abandoned.
const STALE_PASSES: usize = 2;

/// Lowest offset at which `size` bytes fit between the `busy` address
/// intervals (sorted in place).
fn lowest_gap(busy: &mut [(u64, u64)], size: u64) -> u64 {
    busy.sort_unstable();
    let mut candidate = 0u64;
    for &(start, end) in busy.iter() {
        if candidate + size <= start {
            break;
        }
        candidate = candidate.max(end);
    }
    candidate
}

/// Place tensors one by one in `order`, each at the lowest offset that fits
/// among its already-placed temporal conflicts. `busy` is scratch.
fn place(
    inst: &DsaInstance,
    index: &IntervalIndex,
    order: &[usize],
    busy: &mut Vec<(u64, u64)>,
) -> Assignment {
    let n = inst.tensors.len();
    let mut offsets = vec![0u64; n];
    let mut placed = vec![false; n];
    let mut peak = 0u64;

    for &i in order {
        let ti = inst.tensors[i];
        busy.clear();
        index.for_each_overlap(ti.birth, ti.death, |j| {
            if placed[j] {
                busy.push((offsets[j], offsets[j] + inst.tensors[j].size));
            }
        });
        let candidate = lowest_gap(busy, ti.size);
        offsets[i] = candidate;
        placed[i] = true;
        peak = peak.max(candidate + ti.size);
    }
    Assignment { offsets, peak }
}

fn ordering(inst: &DsaInstance, order: Order) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..inst.tensors.len()).collect();
    match order {
        Order::SizeDesc => idx.sort_by_key(|&i| {
            let t = inst.tensors[i];
            (std::cmp::Reverse(t.size), t.birth)
        }),
        Order::DurationDesc => idx.sort_by_key(|&i| {
            let t = inst.tensors[i];
            (
                std::cmp::Reverse(t.death - t.birth),
                std::cmp::Reverse(t.size),
            )
        }),
        Order::BirthAsc => idx.sort_by_key(|&i| inst.tensors[i].birth),
        Order::AreaDesc => idx.sort_by_key(|&i| {
            let t = inst.tensors[i];
            std::cmp::Reverse(t.size.saturating_mul((t.death - t.birth) as u64))
        }),
    }
    idx
}

/// Squeaky-wheel step: move the tensors whose top equals `a.peak` to the
/// front of `order`, each group keeping its relative order.
fn promote_peak_tensors(inst: &DsaInstance, a: &Assignment, order: &mut [usize]) {
    // Stable sort: `false` (at the peak) before `true`.
    order.sort_by_key(|&i| a.offsets[i] + inst.tensors[i].size != a.peak);
}

/// Best-fit over the base orders, each refined by squeaky-wheel passes.
/// Returns the lowest-peak pass (the earliest on ties). The result always
/// validates and its peak is ≥ the liveness lower bound.
pub fn solve(inst: &DsaInstance) -> Assignment {
    if inst.is_empty() {
        return Assignment {
            offsets: Vec::new(),
            peak: 0,
        };
    }
    let lower_bound = inst.lower_bound();
    let index = IntervalIndex::new(inst);
    let mut busy: Vec<(u64, u64)> = Vec::new();
    let mut best: Option<Assignment> = None;
    for &base in &ORDERS {
        let mut order = ordering(inst, base);
        let mut order_best = u64::MAX;
        let mut stale = 0usize;
        while stale < STALE_PASSES {
            let a = place(inst, &index, &order, &mut busy);
            if a.peak < order_best {
                order_best = a.peak;
                stale = 0;
            } else {
                stale += 1;
            }
            if a.peak <= lower_bound {
                return a;
            }
            promote_peak_tensors(inst, &a, &mut order);
            if best.as_ref().is_none_or(|b| a.peak < b.peak) {
                best = Some(a);
            }
        }
    }
    best.expect("at least one pass")
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

    #[test]
    fn disjoint_lifespans_share_addresses() {
        let inst = DsaInstance {
            tensors: vec![t(0, 100, 0, 2), t(1, 100, 2, 4), t(2, 100, 4, 6)],
        };
        let a = solve(&inst);
        a.validate(&inst).unwrap();
        assert_eq!(a.peak, 100, "sequential tensors must reuse one slot");
    }

    #[test]
    fn overlapping_tensors_stack() {
        let inst = DsaInstance {
            tensors: vec![t(0, 100, 0, 4), t(1, 50, 1, 3), t(2, 25, 2, 5)],
        };
        let a = solve(&inst);
        a.validate(&inst).unwrap();
        assert_eq!(a.peak, 175);
        assert_eq!(a.peak, inst.lower_bound());
    }

    #[test]
    fn peak_never_below_lower_bound() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let n = rng.gen_range(1..40);
            let tensors = (0..n)
                .map(|i| {
                    let birth = rng.gen_range(0..100usize);
                    t(
                        i as u64,
                        rng.gen_range(1..1000),
                        birth,
                        birth + rng.gen_range(1..30),
                    )
                })
                .collect();
            let inst = DsaInstance { tensors };
            let a = solve(&inst);
            a.validate(&inst).unwrap();
            assert!(a.peak >= inst.lower_bound());
            assert_eq!(a.peak, a.measured_peak(&inst));
        }
    }

    /// All-pairs oracle for `place`: the same busy set and gap rule, with
    /// conflicts found by testing every tensor.
    fn place_quadratic(inst: &DsaInstance, order: &[usize]) -> Assignment {
        let n = inst.tensors.len();
        let mut offsets = vec![0u64; n];
        let mut placed = vec![false; n];
        let mut peak = 0u64;
        for &i in order {
            let ti = inst.tensors[i];
            let mut busy: Vec<(u64, u64)> = Vec::new();
            for (j, tj) in inst.tensors.iter().enumerate() {
                if placed[j] && ti.overlaps(tj) {
                    busy.push((offsets[j], offsets[j] + tj.size));
                }
            }
            let candidate = lowest_gap(&mut busy, ti.size);
            offsets[i] = candidate;
            placed[i] = true;
            peak = peak.max(candidate + ti.size);
        }
        Assignment { offsets, peak }
    }

    #[test]
    fn indexed_place_matches_quadratic_oracle() {
        // Small horizons force shared birth/death positions (touching and
        // coincident lifespans); sizes include zero. Lifespans are
        // non-empty, as the instance builder always produces.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(14);
        for round in 0..200 {
            let n = rng.gen_range(1..60);
            let horizon = rng.gen_range(2..25usize);
            let tensors = (0..n)
                .map(|i| {
                    let birth = rng.gen_range(0..horizon);
                    let size = if rng.gen_bool(0.15) {
                        0
                    } else {
                        rng.gen_range(1..200)
                    };
                    t(i as u64, size, birth, birth + rng.gen_range(1..horizon))
                })
                .collect();
            let inst = DsaInstance { tensors };
            let index = IntervalIndex::new(&inst);
            let mut busy = Vec::new();
            let mut orders: Vec<Vec<usize>> = ORDERS.iter().map(|&o| ordering(&inst, o)).collect();
            let mut shuffled: Vec<usize> = (0..n).collect();
            for k in (1..n).rev() {
                shuffled.swap(k, rng.gen_range(0..k + 1));
            }
            orders.push(shuffled);
            for (k, order) in orders.iter_mut().enumerate() {
                // Each order and its first squeaky-wheel reordering.
                for _ in 0..2 {
                    let fast = place(&inst, &index, order, &mut busy);
                    let oracle = place_quadratic(&inst, order);
                    assert_eq!(fast, oracle, "round {round} order {k}");
                    fast.validate(&inst).unwrap();
                    promote_peak_tensors(&inst, &fast, order);
                }
            }
        }
    }

    #[test]
    fn squeaky_wheel_reaches_bound_on_logged_level1_instance() {
        // A 15-tensor level-1 layer instance logged from a Table 3 search
        // (MiB; birth/death rebased). One best-fit pass per base order
        // stops at 520 MiB, which node-limited BnB could not improve within
        // 2,000,000 nodes; squeaky-wheel reordering reaches the bound.
        const MIB: u64 = 1 << 20;
        let spec: [(u64, usize, usize); 15] = [
            (10, 0, 1),
            (160, 2, 6),
            (200, 3, 4),
            (160, 5, 10),
            (200, 7, 8),
            (40, 9, 12),
            (40, 11, 30),
            (40, 13, 21),
            (50, 14, 15),
            (40, 16, 27),
            (40, 17, 26),
            (40, 18, 25),
            (20, 19, 20),
            (40, 22, 29),
            (150, 23, 24),
        ];
        let inst = DsaInstance {
            tensors: spec
                .iter()
                .enumerate()
                .map(|(i, &(mib, b, d))| t(i as u64, mib * MIB, b, d))
                .collect(),
        };
        assert_eq!(inst.lower_bound(), 360 * MIB);
        let index = IntervalIndex::new(&inst);
        let mut busy = Vec::new();
        let single_pass = ORDERS
            .iter()
            .map(|&o| place(&inst, &index, &ordering(&inst, o), &mut busy).peak)
            .min()
            .unwrap();
        assert_eq!(single_pass, 520 * MIB);

        let a = solve(&inst);
        a.validate(&inst).unwrap();
        assert_eq!(a.peak, 360 * MIB);
        let sol = crate::bnb::solve(&inst, crate::bnb::BnbOptions::default());
        assert!(sol.optimal);
        assert_eq!(
            sol.nodes, 0,
            "the incumbent must close the bound at the root"
        );
        assert_eq!(sol.assignment.peak, 360 * MIB);
    }

    #[test]
    fn empty_instance() {
        let a = solve(&DsaInstance::default());
        assert_eq!(a.peak, 0);
    }
}
