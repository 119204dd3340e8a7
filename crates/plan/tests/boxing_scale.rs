//! Randomized and scale coverage for the whole-model DSA planner stack:
//! the boxing solver's invariants, the size-based dispatch thresholds, the
//! sweep validator against its quadratic oracle, and the interval index
//! against the linear-scan `conflicts_of`.

use memo_model::trace::TensorId;
use memo_plan::bnb::BnbOptions;
use memo_plan::boxing::{self, BoxingOptions};
use memo_plan::dispatch::{self, DispatchOptions, PlannerBackend};
use memo_plan::synth::{megatrain_instance, MegaTrainParams};
use memo_plan::{Assignment, DsaInstance, DsaTensor, IntervalIndex};
use proptest::prelude::*;

/// Arbitrary instances: jittered sizes (including zero-size markers) over
/// random sub-intervals of a short horizon.
fn inst_strategy(max_n: usize) -> impl Strategy<Value = DsaInstance> {
    prop::collection::vec((0u64..1024, 0usize..96, 1usize..48), 1..max_n).prop_map(|raw| {
        DsaInstance {
            tensors: raw
                .into_iter()
                .enumerate()
                .map(|(i, (size, birth, len))| DsaTensor {
                    id: TensorId(i as u64),
                    size,
                    birth,
                    death: birth + len,
                })
                .collect(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Tentpole invariant: every boxing assignment validates, sits at or
    // above the liveness lower bound, and within the certified guarantee.
    #[test]
    fn boxing_always_validates_and_respects_bounds(inst in inst_strategy(120)) {
        let sol = boxing::solve(&inst);
        sol.assignment.validate(&inst).unwrap();
        prop_assert!(sol.assignment.peak >= sol.lower_bound);
        prop_assert!(sol.assignment.peak <= sol.guarantee);
    }

    // The one-sweep bands against the `jobsets` oracle: they validate,
    // their peak is `Σ T_c·h_c` (h_c the class's largest true size), never
    // above the power-of-two bands' `Σ T_c·2^c`, and the sweep's load is
    // the liveness bound.
    #[test]
    fn true_height_bands_match_jobsets_and_beat_power_of_two_bands(
        inst in inst_strategy(120),
    ) {
        let bands = boxing::solve_with(
            &inst,
            &BoxingOptions {
                portfolio_max_tensors: 0,
                polish_max_tensors: 0,
                ..BoxingOptions::default()
            },
        );
        bands.assignment.validate(&inst).unwrap();
        let js = boxing::jobsets(&inst);
        let height = |class: u32| {
            inst.tensors
                .iter()
                .filter(|t| t.size > 0 && t.size.next_power_of_two().trailing_zeros() == class)
                .map(|t| t.size)
                .max()
                .unwrap()
        };
        let true_heights: u64 = js.classes.iter().map(|c| c.tracks as u64 * height(c.class)).sum();
        let powers_of_two: u64 = js.classes.iter().map(|c| (c.tracks as u64) << c.class).sum();
        prop_assert_eq!(bands.assignment.peak, true_heights);
        prop_assert!(bands.assignment.peak <= powers_of_two);
        prop_assert_eq!(bands.lower_bound, inst.lower_bound());
        prop_assert_eq!(bands.stats.classes, js.classes.len());
    }

    // The two validators are behaviourally identical on arbitrary
    // (instance, offsets) pairs — valid and invalid alike — except for
    // overflow, which only the checked sweep path reports.
    #[test]
    fn sweep_validator_matches_quadratic_oracle(
        inst in inst_strategy(60),
        salt in prop::collection::vec(0u64..64, 60..61),
    ) {
        let offsets: Vec<u64> = inst
            .tensors
            .iter()
            .zip(salt.iter().cycle())
            .map(|(_, s)| s * 32)
            .collect();
        let peak = inst
            .tensors
            .iter()
            .zip(&offsets)
            .map(|(t, o)| o + t.size)
            .max()
            .unwrap_or(0);
        let a = Assignment { offsets, peak };
        prop_assert_eq!(
            a.validate(&inst).is_ok(),
            a.validate_naive(&inst).is_ok(),
            "sweep and naive validators disagree"
        );
    }

    // The sweep-line interval index reproduces the linear-scan oracle
    // exactly (same rows, same ascending order) at sizes the quadratic
    // path can still afford.
    #[test]
    fn interval_index_matches_conflicts_of(inst in inst_strategy(90)) {
        let index = IntervalIndex::new(&inst);
        let adjacency = index.adjacency(&inst);
        for (i, row) in adjacency.iter().enumerate() {
            prop_assert_eq!(row, &inst.conflicts_of(i));
            prop_assert_eq!(&index.query(&inst, i), &inst.conflicts_of(i));
        }
    }

    // Documented dispatch thresholds: `n ≤ exact.max_tensors` (40) goes to
    // BnB; larger instances go to the boxing family, whose winner is
    // reported as Boxing or BestFit depending on which candidate won.
    #[test]
    fn dispatch_respects_documented_thresholds(inst in inst_strategy(120)) {
        // Default thresholds, but a small node budget: the routing decision
        // under test is size-based and independent of how long BnB searches.
        let mut opts = DispatchOptions::default();
        opts.exact.node_limit = 20_000;
        prop_assert_eq!(opts.exact.max_tensors, BnbOptions::default().max_tensors);
        let sol = dispatch::solve(&inst, &opts);
        sol.assignment.validate(&inst).unwrap();
        if inst.len() <= opts.exact.max_tensors {
            prop_assert_eq!(sol.backend, PlannerBackend::Exact);
            prop_assert!(sol.guarantee.is_none());
        } else {
            prop_assert!(sol.backend != PlannerBackend::Exact);
            let g = sol.guarantee.expect("boxing path certifies a gap");
            prop_assert!(sol.assignment.peak <= g);
        }
    }
}

// With the best-fit portfolio disabled, the dispatcher can only report the
// pure boxing candidates — the last-resort backend never appears.
#[test]
fn best_fit_is_last_resort_only() {
    let inst = DsaInstance {
        tensors: (0..60)
            .map(|i| DsaTensor {
                id: TensorId(i),
                size: 64 + i,
                birth: 0,
                death: 10,
            })
            .collect(),
    };
    let no_portfolio = DispatchOptions {
        boxing: BoxingOptions {
            portfolio_max_tensors: 0,
            ..BoxingOptions::default()
        },
        ..DispatchOptions::default()
    };
    let sol = dispatch::solve(&inst, &no_portfolio);
    assert_eq!(sol.backend, PlannerBackend::Boxing);
    let sol = dispatch::solve(&inst, &DispatchOptions::default());
    assert_ne!(sol.backend, PlannerBackend::Exact, "above exact threshold");
}

// A mid-scale MegaTrain instance (26,412 intervals): boxing must stay within
// its certificate and validate end to end through the dispatch policy.
#[test]
fn megatrain_midscale_plans_within_certificate() {
    let params = MegaTrainParams {
        layers: 12,
        chunks_per_layer: 100,
        transients_per_chunk: 10,
        transient_bytes: 1 << 20,
        resident_bytes: 64 << 20,
        seed: 42,
    };
    let inst = megatrain_instance(&params);
    assert!(
        inst.len() > 25_000,
        "mid-scale instance, got {}",
        inst.len()
    );
    let sol = dispatch::solve(&inst, &DispatchOptions::default());
    sol.assignment.validate(&inst).unwrap();
    assert!(sol.assignment.peak >= sol.lower_bound);
    assert!(sol.assignment.peak <= sol.guarantee.expect("boxing path"));
    // Pinned: polished true-height bands land at gap 1.010909 here.
    let gap = sol.assignment.peak as f64 / sol.lower_bound as f64;
    assert!(gap <= 1.011, "mid-scale gap {gap:.6}");
}
