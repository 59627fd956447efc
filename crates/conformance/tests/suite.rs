//! Integration tests for the conformance suite itself: a scaled-down
//! clean run, the corruption drill (the suite must *detect* a broken
//! engine, not just pass on a healthy one), and replays of the seeds
//! that exposed real engine bugs during development.

use fastz_conformance::{replay, report, run_suite, Category, SuiteConfig};

fn small_config() -> SuiteConfig {
    SuiteConfig {
        pairs: 24,
        seed: 7,
        // Skip the two largest bin-boundary extents (8192/32768): they
        // are covered by the CLI acceptance run and would dominate the
        // test's runtime.
        max_extent: 4096,
        pipeline_workloads: 1,
        corrupt_warp_match: 0,
        // One fault drill rides along so the resilient-pipeline checks
        // stay exercised in tier-1 (CI's smoke job runs them at scale).
        fault_seed: Some(7),
        // The sanitizer drill rides along too, exercising the
        // `--sanitize` path through `run_suite` end to end.
        sanitize: true,
        backend: fastz_core::WavefrontBackend::Interpreter,
        // The cross-algorithm bitvector drill rides along so the
        // agreement/inequality contract stays exercised in tier-1
        // (CI's bitvector job runs it at 500 pairs).
        bitvector: true,
    }
}

#[test]
fn small_suite_is_clean() {
    let suite = run_suite(&small_config());
    assert!(suite.is_clean(), "divergences: {:#?}", suite.divergences);
    assert!(suite.checks > 200, "only {} checks ran", suite.checks);
}

#[test]
fn corrupted_engine_is_detected_with_replayable_cell() {
    let config = SuiteConfig {
        pairs: 8,
        corrupt_warp_match: 2,
        pipeline_workloads: 0,
        fault_seed: None,
        ..small_config()
    };
    let suite = run_suite(&config);
    assert!(
        !suite.is_clean(),
        "a +2 match-score corruption of the warp engine went unnoticed"
    );
    // At least one divergence must pin down the first divergent cell,
    // and its replay seed must reproduce the case deterministically.
    let pinned = suite
        .divergences
        .iter()
        .find(|d| d.first_divergent_cell.is_some())
        .expect("no divergence carries a first divergent cell");
    let (case, _, _) = replay(pinned.category, pinned.seed);
    assert_eq!(case.category, pinned.category);
    assert_eq!(case.seed, pinned.seed);
    // The JSON report serializes the cell coordinates.
    let json = report::to_json(&suite);
    assert!(json.contains("first_divergent_cell"));
    assert!(json.contains("replay_seed"));
}

/// Replays of fuzz cases that exposed real bugs while this suite was
/// being built. Root causes, for the record:
///
/// * warp-superset violations at `(r, strip_base + 1)` — the warp
///   engine's strip-entry row window was judged against the global
///   running best instead of the order-safe row-prefix maxima, pruning
///   rows the scalar engines keep (`crates/core/src/warp_engine.rs`).
/// * pipeline-accounting mismatch — `FastZReport::bin_counts` is a
///   per-seed (Table 2) classification; the checker originally
///   expected a per-problem total.
#[test]
fn development_regression_seeds_stay_clean() {
    let seeds = [
        (Category::CleanHomology, 13679457532755275413u64),
        (Category::IndelDense, 2949826092126892291),
        (Category::Garbage, 5139283748462763858),
        (Category::StripStraddle, 6349198060258255764),
        (Category::EagerEdge, 701532786141963250),
    ];
    for (category, seed) in seeds {
        let (_, checks, divergences) = replay(category, seed);
        assert!(checks > 0);
        assert!(
            divergences.is_empty(),
            "{}:{} regressed: {:#?}",
            category.name(),
            seed,
            divergences
        );
    }
}
