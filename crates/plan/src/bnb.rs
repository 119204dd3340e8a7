//! Exact branch-and-bound for offline DSA (the "MIP solver" of §4.2).
//!
//! The paper hands its MIP to an off-the-shelf solver; we implement the
//! equivalent combinatorial search directly. Correctness rests on the
//! *normalised solution* property: any feasible placement can be compacted
//! (pushing tensors toward address 0 in increasing-offset order) into one
//! where every tensor sits either at offset 0 or flush on top of a
//! temporally-conflicting tensor, without raising the peak. The search
//! therefore branches over
//!
//! * which unplaced tensor to place next (so every topological order of the
//!   optimal solution's "support forest" is reachable), and
//! * which candidate offset to give it: `0` or `offset_j + size_j` of a
//!   placed conflicting tensor `j`.
//!
//! Pruning: a best-fit incumbent (from [`crate::heuristic`]), peak-based
//! branch cuts, a clique-packing bound recomputed at every node (see
//! [`Searcher::clique_bound`]), early exit when the incumbent meets the
//! liveness lower bound (then it is provably optimal), symmetry breaking
//! among identical tensors, and a node budget. Within the budget the solver
//! is exact; beyond it, it returns the incumbent flagged `optimal = false`
//! unless the bound closed.
//!
//! The inner loop is allocation-free: candidate/interval/symmetry buffers
//! are preallocated per depth and reused across the whole search, placed
//! conflicts are kept as offset-sorted intervals so both candidate
//! generation and feasibility checks stream them with early exit, and
//! tensors are expanded in incumbent order (the heuristic's offsets are a
//! strong hint for where the optimum packs tight).

use crate::dsa::{Assignment, DsaInstance};
use crate::heuristic;
use std::sync::atomic::{AtomicU64, Ordering};

/// Solver configuration.
#[derive(Debug, Clone, Copy)]
pub struct BnbOptions {
    /// Maximum search nodes before falling back to the incumbent.
    pub node_limit: u64,
    /// Instances larger than this skip exact search entirely.
    pub max_tensors: usize,
}

impl Default for BnbOptions {
    fn default() -> Self {
        BnbOptions {
            node_limit: 2_000_000,
            max_tensors: 40,
        }
    }
}

/// Solve outcome.
#[derive(Debug, Clone)]
pub struct Solution {
    pub assignment: Assignment,
    /// True iff the returned peak is provably optimal.
    pub optimal: bool,
    /// Search nodes expanded (0 when the bound closed immediately).
    pub nodes: u64,
    /// Liveness lower bound of the instance.
    pub lower_bound: u64,
}

/// Process-wide count of search nodes expanded by every [`solve`] call
/// (planner instrumentation for `search_bench`).
static TOTAL_NODES: AtomicU64 = AtomicU64::new(0);

/// Total nodes expanded across all [`solve`] calls since process start (or
/// the last [`reset_node_counter`]).
pub fn nodes_expanded_total() -> u64 {
    TOTAL_NODES.load(Ordering::Relaxed)
}

/// Zero the global node counter (bench runs measure per-phase counts).
pub fn reset_node_counter() {
    TOTAL_NODES.store(0, Ordering::Relaxed)
}

/// Process-wide count of [`solve`] invocations, counted at entry — unlike
/// [`nodes_expanded_total`], this moves even when the heuristic closes the
/// bound immediately and zero nodes are expanded. `search_bench` uses the
/// pair to tell "BnB ran and was lucky" (solves > 0, nodes == 0) from
/// "this cell never reached the planner" (solves == 0).
static TOTAL_SOLVES: AtomicU64 = AtomicU64::new(0);

/// Total [`solve`] calls since process start (or the last
/// [`reset_solve_counter`]).
pub fn solves_total() -> u64 {
    TOTAL_SOLVES.load(Ordering::Relaxed)
}

/// Zero the global solve counter.
pub fn reset_solve_counter() {
    TOTAL_SOLVES.store(0, Ordering::Relaxed)
}

/// Reusable per-depth scratch. Each DFS depth owns one (taken/restored
/// around the expansion loop), so recursion never clobbers a live buffer
/// and no `Vec` is allocated per node.
#[derive(Default)]
struct DepthBuf {
    /// Candidate offsets for the tensor under expansion, ascending.
    candidates: Vec<u64>,
    /// `(offset, end)` of placed conflicting tensors, sorted by offset.
    placed_iv: Vec<(u64, u64)>,
    /// Symmetry stamps per class: `class_seen[c] == stamp of this node`
    /// marks class `c` as already expanded here. Depth-local so deeper
    /// nodes (which bump the global stamp) cannot invalidate our marks.
    class_seen: Vec<u64>,
}

struct Searcher<'a> {
    inst: &'a DsaInstance,
    /// Conflict adjacency, ascending index order.
    conflicts: Vec<Vec<usize>>,
    /// Symmetry class (identical `(size, birth, death)`) of each tensor.
    class_of: Vec<usize>,
    /// Static expansion order: incumbent offset ascending, size descending.
    order: Vec<usize>,
    /// Tensors live at the max-liveness point (their sizes sum to the
    /// liveness lower bound).
    clique: Vec<usize>,
    /// Scratch for [`Self::clique_bound`] (never live across recursion).
    clique_iv: Vec<(u64, u64)>,
    depth_bufs: Vec<DepthBuf>,
    stamp: u64,
    best: Assignment,
    nodes: u64,
    node_limit: u64,
    exhausted: bool,
    offsets: Vec<u64>,
    placed: Vec<bool>,
    lower_bound: u64,
}

/// Overlap test against an offset-sorted interval list, early-exiting once
/// intervals start at or above `offset + size`.
fn feasible_sorted(placed_iv: &[(u64, u64)], offset: u64, size: u64) -> bool {
    for &(o, e) in placed_iv {
        if o >= offset + size {
            break;
        }
        if offset < e {
            return false;
        }
    }
    true
}

impl<'a> Searcher<'a> {
    /// Node-local lower bound from the max-liveness clique: its placed
    /// members occupy known, pairwise-disjoint address intervals, and the
    /// unplaced members' bytes must land somewhere outside them. Packing
    /// those bytes greedily into the gaps from address 0 upward (allowing
    /// fractional splits — a relaxation, hence a valid bound) yields the
    /// minimal address `P` any completion of this node can reach. At the
    /// root this equals the liveness bound; once placements leave gaps the
    /// clique cannot use, it is strictly stronger.
    fn clique_bound(&mut self, current_peak: u64) -> u64 {
        let mut iv = std::mem::take(&mut self.clique_iv);
        iv.clear();
        let mut unplaced_bytes = 0u64;
        for idx in 0..self.clique.len() {
            let i = self.clique[idx];
            let size = self.inst.tensors[i].size;
            if self.placed[i] {
                iv.push((self.offsets[i], self.offsets[i] + size));
            } else {
                unplaced_bytes += size;
            }
        }
        iv.sort_unstable();
        let mut bound = current_peak;
        let mut cursor = 0u64;
        let mut rem = unplaced_bytes;
        for &(o, e) in &iv {
            if rem > 0 && o > cursor {
                let used = (o - cursor).min(rem);
                rem -= used;
                if rem == 0 {
                    bound = bound.max(cursor + used);
                }
            }
            cursor = cursor.max(e);
        }
        if rem > 0 {
            bound = bound.max(cursor + rem);
        }
        self.clique_iv = iv;
        bound
    }

    fn dfs(&mut self, n_placed: usize, current_peak: u64) {
        self.nodes += 1;
        if self.nodes > self.node_limit {
            self.exhausted = true;
            return;
        }
        if current_peak >= self.best.peak {
            return; // cannot improve
        }
        if self.clique_bound(current_peak) >= self.best.peak {
            return; // no completion fits under the incumbent
        }
        let n = self.inst.tensors.len();
        if n_placed == n {
            self.best = Assignment {
                offsets: self.offsets.clone(),
                peak: current_peak,
            };
            return;
        }

        self.stamp += 1;
        let stamp = self.stamp;
        let mut bufs = std::mem::take(&mut self.depth_bufs[n_placed]);
        for oi in 0..n {
            let i = self.order[oi];
            if self.placed[i] {
                continue;
            }
            // Symmetry breaking: among unplaced tensors with identical
            // (size, birth, death), expand only the first in order.
            let class = self.class_of[i];
            if bufs.class_seen[class] == stamp {
                continue;
            }
            bufs.class_seen[class] = stamp;
            let t = self.inst.tensors[i];

            bufs.placed_iv.clear();
            for &j in &self.conflicts[i] {
                if self.placed[j] {
                    bufs.placed_iv
                        .push((self.offsets[j], self.offsets[j] + self.inst.tensors[j].size));
                }
            }
            bufs.placed_iv.sort_unstable();

            // Candidate offsets: 0 plus tops of placed conflicting tensors.
            bufs.candidates.clear();
            bufs.candidates.push(0);
            bufs.candidates
                .extend(bufs.placed_iv.iter().map(|&(_, e)| e));
            bufs.candidates.sort_unstable();
            bufs.candidates.dedup();

            for ci in 0..bufs.candidates.len() {
                let c = bufs.candidates[ci];
                if c + t.size >= self.best.peak {
                    break; // ascending candidates: every later one fails too
                }
                if !feasible_sorted(&bufs.placed_iv, c, t.size) {
                    continue;
                }
                self.offsets[i] = c;
                self.placed[i] = true;
                self.dfs(n_placed + 1, current_peak.max(c + t.size));
                self.placed[i] = false;
                if self.exhausted || self.best.peak <= self.lower_bound {
                    self.depth_bufs[n_placed] = bufs;
                    return;
                }
            }
        }
        self.depth_bufs[n_placed] = bufs;
    }
}

/// Indices of the tensors live at the point of maximum liveness (their
/// sizes sum to `inst.lower_bound()`). Liveness peaks at some tensor's
/// birth, so scanning births suffices.
fn max_liveness_clique(inst: &DsaInstance, lower_bound: u64) -> Vec<usize> {
    let mut best: Vec<usize> = Vec::new();
    let mut best_bytes = 0u64;
    for t in &inst.tensors {
        let at = t.birth;
        let mut members: Vec<usize> = Vec::new();
        let mut bytes = 0u64;
        for (j, u) in inst.tensors.iter().enumerate() {
            if u.birth <= at && at < u.death {
                members.push(j);
                bytes += u.size;
            }
        }
        if bytes > best_bytes {
            best_bytes = bytes;
            best = members;
        }
    }
    debug_assert_eq!(best_bytes, lower_bound);
    best
}

/// Solve the instance. Exact within the node budget and size cap; otherwise
/// returns the best-fit incumbent (still validated, just not certified).
pub fn solve(inst: &DsaInstance, opts: BnbOptions) -> Solution {
    TOTAL_SOLVES.fetch_add(1, Ordering::Relaxed);
    let lower_bound = inst.lower_bound();
    let incumbent = heuristic::solve(inst);
    debug_assert!(incumbent.validate(inst).is_ok());

    if incumbent.peak == lower_bound {
        return Solution {
            assignment: incumbent,
            optimal: true,
            nodes: 0,
            lower_bound,
        };
    }
    if inst.tensors.len() > opts.max_tensors {
        return Solution {
            assignment: incumbent,
            optimal: false,
            nodes: 0,
            lower_bound,
        };
    }

    let n = inst.tensors.len();
    let conflicts: Vec<Vec<usize>> = crate::index::IntervalIndex::new(inst).adjacency(inst);

    // Symmetry classes: tensors sharing (size, birth, death) are
    // interchangeable; give each distinct key one class id.
    let mut keys: Vec<(u64, usize, usize)> = inst
        .tensors
        .iter()
        .map(|t| (t.size, t.birth, t.death))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let class_of: Vec<usize> = inst
        .tensors
        .iter()
        .map(|t| {
            keys.binary_search(&(t.size, t.birth, t.death))
                .expect("key set covers every tensor")
        })
        .collect();

    // Incumbent-aware expansion order: tensors the heuristic packs lowest
    // go first (big ones ahead on ties), steering the DFS toward the
    // incumbent's neighbourhood where improvements live.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| {
        (
            incumbent.offsets[i],
            std::cmp::Reverse(inst.tensors[i].size),
            i,
        )
    });

    let clique = max_liveness_clique(inst, lower_bound);
    let depth_bufs = (0..=n)
        .map(|_| DepthBuf {
            candidates: Vec::with_capacity(n + 1),
            placed_iv: Vec::with_capacity(n),
            class_seen: vec![0; keys.len()],
        })
        .collect();

    let mut s = Searcher {
        inst,
        conflicts,
        class_of,
        order,
        clique,
        clique_iv: Vec::with_capacity(n),
        depth_bufs,
        stamp: 0,
        best: incumbent,
        nodes: 0,
        node_limit: opts.node_limit,
        exhausted: false,
        offsets: vec![0; n],
        placed: vec![false; n],
        lower_bound,
    };
    s.dfs(0, 0);
    TOTAL_NODES.fetch_add(s.nodes, Ordering::Relaxed);
    let optimal = !s.exhausted || s.best.peak == lower_bound;
    debug_assert!(s.best.validate(inst).is_ok());
    Solution {
        assignment: s.best,
        optimal,
        nodes: s.nodes,
        lower_bound,
    }
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

    /// Brute-force optimal peak by exhaustive normalised search without any
    /// pruning shortcuts (tiny instances only).
    #[allow(clippy::needless_range_loop)]
    fn brute_force(inst: &DsaInstance) -> u64 {
        fn rec(inst: &DsaInstance, offsets: &mut Vec<Option<u64>>, best: &mut u64, peak: u64) {
            if peak >= *best {
                return;
            }
            let n = inst.tensors.len();
            if offsets.iter().all(|o| o.is_some()) {
                *best = peak;
                return;
            }
            for i in 0..n {
                if offsets[i].is_some() {
                    continue;
                }
                let ti = inst.tensors[i];
                let mut cands = vec![0u64];
                for j in 0..n {
                    if let Some(oj) = offsets[j] {
                        if ti.overlaps(&inst.tensors[j]) {
                            cands.push(oj + inst.tensors[j].size);
                        }
                    }
                }
                cands.sort_unstable();
                cands.dedup();
                'cand: for c in cands {
                    for j in 0..n {
                        if let Some(oj) = offsets[j] {
                            let tj = inst.tensors[j];
                            if ti.overlaps(&tj) && c < oj + tj.size && oj < c + ti.size {
                                continue 'cand;
                            }
                        }
                    }
                    offsets[i] = Some(c);
                    rec(inst, offsets, best, peak.max(c + ti.size));
                    offsets[i] = None;
                }
            }
        }
        let mut best = u64::MAX;
        let mut offsets = vec![None; inst.tensors.len()];
        rec(inst, &mut offsets, &mut best, 0);
        best
    }

    #[test]
    fn classic_gap_instance_beats_greedy() {
        // Sizes and lifespans chosen so naive size-ordered best-fit leaves a
        // hole; exact search must reach the liveness bound or prove a gap.
        let inst = DsaInstance {
            tensors: vec![t(0, 4, 0, 3), t(1, 4, 4, 8), t(2, 6, 2, 6), t(3, 2, 1, 7)],
        };
        let sol = solve(&inst, BnbOptions::default());
        assert!(sol.optimal);
        sol.assignment.validate(&inst).unwrap();
        assert_eq!(sol.assignment.peak, brute_force(&inst));
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        for round in 0..40 {
            let n = rng.gen_range(2..7);
            let tensors = (0..n)
                .map(|i| {
                    let birth = rng.gen_range(0..12usize);
                    t(
                        i as u64,
                        rng.gen_range(1..9) * 4,
                        birth,
                        birth + rng.gen_range(1..8),
                    )
                })
                .collect();
            let inst = DsaInstance { tensors };
            let sol = solve(&inst, BnbOptions::default());
            assert!(sol.optimal, "round {round}: search not exhausted");
            let bf = brute_force(&inst);
            assert_eq!(
                sol.assignment.peak, bf,
                "round {round}: bnb {} vs brute force {bf} for {inst:?}",
                sol.assignment.peak
            );
        }
    }

    #[test]
    fn harder_instances_stay_optimal_and_node_counts_do_not_regress() {
        // The seed-7 corpus exercises real search pressure (the seed-3
        // corpus above closes at 0 nodes). The pre-overhaul searcher
        // (per-node allocations, O(n²) symmetry scan, liveness-only bound)
        // expanded 15_514 nodes over the 12 rounds, and the single-pass
        // best-fit incumbent 9_276. With the squeaky-wheel incumbent only
        // round 8 still searches, for 27 nodes. The solver must stay exact,
        // still search somewhere (so the DFS stays covered), and expand no
        // more nodes than that.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const BASELINE_TOTAL_NODES: u64 = 27;
        let mut rng = StdRng::seed_from_u64(7);
        let mut total = 0u64;
        let mut searched_rounds = 0usize;
        for round in 0..12 {
            let n = rng.gen_range(8..18);
            let tensors = (0..n)
                .map(|i| {
                    let birth = rng.gen_range(0..20usize);
                    t(
                        i as u64,
                        rng.gen_range(1..60),
                        birth,
                        birth + rng.gen_range(1..12),
                    )
                })
                .collect();
            let inst = DsaInstance { tensors };
            let sol = solve(&inst, BnbOptions::default());
            assert!(sol.optimal, "round {round}: search not exhausted");
            sol.assignment.validate(&inst).unwrap();
            assert!(
                sol.assignment.peak >= sol.lower_bound,
                "round {round}: peak below the liveness bound"
            );
            total += sol.nodes;
            searched_rounds += usize::from(sol.nodes > 0);
        }
        assert!(
            searched_rounds >= 1,
            "every round closed at the root: the DFS is no longer exercised"
        );
        assert!(
            total <= BASELINE_TOTAL_NODES,
            "node count regressed: {total} > baseline {BASELINE_TOTAL_NODES}"
        );
    }

    #[test]
    fn global_node_counter_accumulates() {
        let before = nodes_expanded_total();
        let inst = DsaInstance {
            tensors: vec![t(0, 4, 0, 3), t(1, 4, 4, 8), t(2, 6, 2, 6), t(3, 2, 1, 7)],
        };
        let sol = solve(&inst, BnbOptions::default());
        assert_eq!(
            nodes_expanded_total() - before,
            sol.nodes,
            "global counter must advance by exactly the solve's nodes"
        );
    }

    #[test]
    fn instant_optimality_when_heuristic_hits_bound() {
        let inst = DsaInstance {
            tensors: vec![t(0, 8, 0, 2), t(1, 8, 2, 4)],
        };
        let solves_before = solves_total();
        let sol = solve(&inst, BnbOptions::default());
        assert!(sol.optimal);
        assert_eq!(sol.nodes, 0, "bound should close without search");
        assert_eq!(sol.assignment.peak, 8);
        // The solve counter moves even on the zero-node early return —
        // that's the whole point of tracking it separately from nodes.
        // (`>=`: sibling tests may solve concurrently in this process.)
        assert!(solves_total() - solves_before >= 1);
    }

    #[test]
    fn oversized_instances_fall_back_to_heuristic() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let tensors = (0..120)
            .map(|i| {
                let birth = rng.gen_range(0..50usize);
                t(
                    i as u64,
                    rng.gen_range(1..100),
                    birth,
                    birth + rng.gen_range(1..20),
                )
            })
            .collect();
        let inst = DsaInstance { tensors };
        let sol = solve(
            &inst,
            BnbOptions {
                max_tensors: 40,
                ..Default::default()
            },
        );
        sol.assignment.validate(&inst).unwrap();
        assert!(sol.assignment.peak >= sol.lower_bound);
    }

    #[test]
    fn node_limit_degrades_gracefully() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let tensors = (0..18)
            .map(|i| {
                let birth = rng.gen_range(0..10usize);
                t(
                    i as u64,
                    rng.gen_range(1..50),
                    birth,
                    birth + rng.gen_range(1..9),
                )
            })
            .collect();
        let inst = DsaInstance { tensors };
        let sol = solve(
            &inst,
            BnbOptions {
                node_limit: 50,
                max_tensors: 40,
            },
        );
        sol.assignment.validate(&inst).unwrap();
    }
}
