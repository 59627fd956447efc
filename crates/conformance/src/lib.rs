//! # fastz-conformance
//!
//! Differential conformance oracle for the FastZ engines.
//!
//! The same seed-extension workload is run through four engines — the
//! scalar exact y-drop engine, the scalar conservative engine, the
//! warp engine, and the full pipeline — on seeded reproducible corpora,
//! and the paper's invariants are checked cell for cell against a dense
//! reference DP ([`oracle`]). Violations come back as structured
//! [`report::Divergence`] records (engine pair, first divergent cell,
//! replay seed) that the `conformance` CLI serializes as JSON.

#![warn(missing_docs)]

pub mod corpus;
pub mod crossalg;
pub mod engines;
pub mod index;
pub mod invariants;
pub mod oracle;
pub mod pipeline;
pub mod report;
pub mod sanitize;
pub mod serve;

pub use corpus::{bin_boundary_cases, fuzz_corpus, make_case, Case, Category};
pub use crossalg::check_bitvec_case;
pub use engines::{run_case, CaseRun};
pub use index::check_index_persist;
pub use invariants::{check_case, rescore_ops};
pub use oracle::{edit_oracle, oracle_extend, EditOracleRun, OracleRun};
pub use report::{CellDiff, Divergence, SuiteReport};

use fastz_core::WavefrontBackend;
use fastz_genome::{GapPenalties, Scoring, SubstMatrix};

/// The scoring scheme the suite runs under (match/mismatch 10/−15,
/// gaps 30 + 5k, y-drop 120 — the workspace's standard test scoring).
pub fn suite_scoring() -> Scoring {
    Scoring {
        subst: SubstMatrix::match_mismatch(10, -15),
        gaps: GapPenalties::new(30, 5),
        ydrop: 120,
        xdrop: 40,
        hsp_threshold: 50,
        gapped_threshold: 50,
    }
}

/// The unit-cost scoring regime where the affine y-drop algorithm and
/// the bitvector edit-distance algorithm must agree *exactly*: +2 per
/// match, −1 per mismatch, −2 per gap base (`GapPenalties::new(0, 2)`
/// makes open free so every gap base costs exactly 2), and a y-drop so
/// large pruning never fires on suite-sized inputs. Under this regime
/// every alignment path scores `(i + j) − 3·ED_path`, so the affine
/// optimum over the full rectangle equals
/// `max_{i,j} (i + j) − 3·ED(i, j)` — the quantity the bitvector
/// engine maximizes.
pub fn unit_scoring() -> Scoring {
    Scoring {
        subst: SubstMatrix::match_mismatch(2, -1),
        gaps: GapPenalties::new(0, 2),
        ydrop: 1 << 20,
        xdrop: 1 << 20,
        hsp_threshold: 0,
        gapped_threshold: 0,
    }
}

/// Suite configuration.
#[derive(Clone, Debug)]
pub struct SuiteConfig {
    /// Fuzz pairs to generate.
    pub pairs: usize,
    /// Master seed.
    pub seed: u64,
    /// Largest bin-boundary extent to include (the 32769-extent case
    /// runs millions of DP cells; CI may cap this).
    pub max_extent: usize,
    /// Number of full-pipeline workloads to run.
    pub pipeline_workloads: usize,
    /// Optional scoring perturbation applied to the warp engine only
    /// (the CLI's `--corrupt` switch): added to the match score.
    pub corrupt_warp_match: i32,
    /// Optional fault-injection drill (the CLI's `--fault-seed`): each
    /// pipeline workload re-runs under this seeded fault plan and must
    /// reproduce the fault-free alignments with complete fault
    /// accounting.
    pub fault_seed: Option<u64>,
    /// Run the sanitizer drill (the CLI's `--sanitize`): every corpus
    /// family through the warp engine on a sanitizer-attached arena,
    /// plus a sanitized pipeline workload — all of which must report
    /// zero findings and unperturbed functional output.
    pub sanitize: bool,
    /// Wavefront backend the warp engine runs on throughout the suite
    /// (the CLI's `--engine`). Every invariant must hold identically on
    /// either backend, and the per-case backend-identity drill compares
    /// the two directly regardless of this setting.
    pub backend: WavefrontBackend,
    /// Run the cross-algorithm bitvector drill on every corpus case
    /// (the CLI's `--engine bitvector`): the GenASM-style bitvector
    /// backend against the dense edit-distance oracle and the affine
    /// y-drop oracle — exact agreement on the unit-cost overlap
    /// domain, documented inequalities elsewhere (see
    /// [`crossalg`]).
    pub bitvector: bool,
}

impl Default for SuiteConfig {
    fn default() -> SuiteConfig {
        SuiteConfig {
            pairs: 500,
            seed: 42,
            max_extent: usize::MAX,
            pipeline_workloads: 2,
            corrupt_warp_match: 0,
            fault_seed: None,
            sanitize: false,
            backend: WavefrontBackend::Interpreter,
            bitvector: false,
        }
    }
}

/// Runs the whole suite: fuzz corpus + fixed bin-boundary sweep +
/// pipeline workloads.
pub fn run_suite(config: &SuiteConfig) -> SuiteReport {
    let scoring = suite_scoring();
    let warp_scoring = if config.corrupt_warp_match != 0 {
        Scoring {
            subst: SubstMatrix::match_mismatch(10 + config.corrupt_warp_match, -15),
            ..scoring.clone()
        }
    } else {
        scoring.clone()
    };

    let mut report = SuiteReport {
        pairs: config.pairs,
        seed: config.seed,
        ..SuiteReport::default()
    };

    let mut cases = fuzz_corpus(config.seed, config.pairs);
    cases.extend(bin_boundary_cases(config.max_extent));
    for case in &cases {
        let run = engines::run_case_on(case, &scoring, &warp_scoring, config.backend);
        let (checks, divergences) = check_case(case, &run, &scoring);
        report.cases += 1;
        report.checks += checks;
        report.divergences.extend(divergences);

        // Wavefront-backend identity drill: interpreter and SIMD must be
        // bit-identical on every case (skipped under --corrupt, whose
        // perturbed scoring targets the suite's own divergence plumbing,
        // not the backend contract).
        if config.corrupt_warp_match == 0 {
            let (checks, divergences) = engines::check_backend_identity(case, &scoring);
            report.checks += checks;
            report.divergences.extend(divergences);
        }

        // Cross-algorithm drill: the bitvector edit-distance backend
        // against the dense edit oracle and the affine y-drop oracle,
        // under the agreement/inequality contract (skipped under
        // --corrupt, which perturbs the warp engine only).
        if config.bitvector && config.corrupt_warp_match == 0 {
            let (checks, divergences) =
                crossalg::check_bitvec_case(case, &fastz_core::BitvecConfig::default(), &scoring);
            report.checks += checks;
            report.divergences.extend(divergences);
        }
    }

    for k in 0..config.pipeline_workloads {
        let (checks, divergences) =
            pipeline::check_pipeline(config.seed.wrapping_add(k as u64), &scoring);
        report.cases += 1;
        report.checks += checks;
        report.divergences.extend(divergences);
    }

    // Metrics engine-invariance drill: the observed pipeline at warp and
    // scalar strip widths must agree on every semantic metric.
    for k in 0..config.pipeline_workloads {
        let (checks, divergences, _recorder) =
            pipeline::check_pipeline_metrics(config.seed.wrapping_add(k as u64), &scoring);
        report.cases += 1;
        report.checks += checks;
        report.divergences.extend(divergences);
    }

    // Sanitizer drill: all six corpus families through the warp engine
    // on a sanitizer-attached arena, plus sanitized pipeline workloads.
    if config.sanitize {
        let (checks, divergences) = sanitize::check_sanitize_corpus(
            config.seed,
            config.max_extent,
            &scoring,
            config.backend,
        );
        report.cases += 1;
        report.checks += checks;
        report.divergences.extend(divergences);
        // Backend equality of the merged sanitizer reports (findings,
        // provenance, traffic totals) over the same drill corpus.
        let (checks, divergences) =
            sanitize::check_sanitize_backend_equality(config.seed, config.max_extent, &scoring);
        report.cases += 1;
        report.checks += checks;
        report.divergences.extend(divergences);
        for k in 0..config.pipeline_workloads.max(1) {
            let (checks, divergences) = sanitize::check_sanitize_pipeline(
                config.seed.wrapping_add(k as u64),
                &scoring,
                config.backend,
            );
            report.cases += 1;
            report.checks += checks;
            report.divergences.extend(divergences);
        }
    }

    if let Some(fault_seed) = config.fault_seed {
        for k in 0..config.pipeline_workloads.max(1) {
            let (checks, divergences) = pipeline::check_pipeline_resilient(
                config.seed.wrapping_add(k as u64),
                fault_seed.wrapping_add(k as u64),
                &scoring,
            );
            report.cases += 1;
            report.checks += checks;
            report.divergences.extend(divergences);
        }
    }

    report
}

/// Replays a single case (the CLI's `--replay category:seed`),
/// returning the case and its divergences.
pub fn replay(category: Category, seed: u64) -> (Case, usize, Vec<Divergence>) {
    let scoring = suite_scoring();
    let case = make_case(category, seed);
    let run = run_case(&case, &scoring, &scoring);
    let (checks, divergences) = check_case(&case, &run, &scoring);
    (case, checks, divergences)
}
