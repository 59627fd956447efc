//! Tier-1 hook for the differential conformance suite: a scaled-down
//! fuzz run through all four engines (scalar exact, scalar
//! conservative, warp, pipeline) checked against the dense DP oracle.
//! The full 500-pair acceptance run lives behind the `conformance` CLI
//! (`cargo run -p fastz-conformance -- --pairs 500 --seed 42`).

use fastz_conformance::{run_suite, SuiteConfig};

#[test]
fn engines_agree_on_a_small_fuzz_corpus() {
    let suite = run_suite(&SuiteConfig {
        pairs: 16,
        seed: 42,
        // Cap the fixed bin-boundary sweep at the 2048-extent cases so
        // tier-1 stays fast; the CLI acceptance run covers the rest.
        max_extent: 2048,
        pipeline_workloads: 1,
        corrupt_warp_match: 0,
        // The fault drill runs in tier-1 via crates/core/tests/resilience.rs
        // and at full scale in CI's fault-injection job.
        fault_seed: None,
        // The sanitizer drill runs in tier-1 via the fastz-conformance
        // crate's own tests and at full scale in CI's sanitize job.
        sanitize: false,
        // The run_case_on path plus the per-case backend-identity drill
        // exercise the SIMD backend regardless of this setting.
        backend: fastz_core::WavefrontBackend::Interpreter,
        // The cross-algorithm drill runs in tier-1 via the
        // fastz-conformance crate's own suite tests and at 500 pairs in
        // CI's bitvector job.
        bitvector: false,
    });
    assert!(
        suite.is_clean(),
        "conformance divergences: {:#?}",
        suite.divergences
    );
}

#[test]
fn conformance_detects_a_corrupted_engine() {
    let suite = run_suite(&SuiteConfig {
        pairs: 6,
        seed: 42,
        max_extent: 0,
        pipeline_workloads: 0,
        corrupt_warp_match: 1,
        fault_seed: None,
        sanitize: false,
        backend: fastz_core::WavefrontBackend::Interpreter,
        bitvector: false,
    });
    assert!(
        !suite.is_clean(),
        "a corrupted warp scoring matrix must produce divergences"
    );
    assert!(suite
        .divergences
        .iter()
        .any(|d| d.first_divergent_cell.is_some()));
}
