//! The three workloads, their inputs and the values they must reproduce.
//!
//! A workload is a catalog genome pair at a stated scale plus a way of
//! handing its anchors to the program. The generator writes the pair as
//! FASTA; everything after that (parse, seeding, alignment) reads only
//! those files. `WORKLOADS.md` beside this crate records the provenance
//! and the layer → end-to-end predictions.

use fastz_core::FastZConfig;
use fastz_genome::{find_pair, generate_pair, write_fasta_file, Scale, Scoring};
use fastz_gpu_sim::DeviceSpec;
use std::path::Path;

/// The seed whose results are pinned in [`Expected`].
pub const DEFAULT_SEED: u64 = 0;
/// Requests per burst handed to one `AlignService::run` call.
pub const BURST: usize = 8;
/// Bursts per serve pass. A pass is the unit `align_wall_s` times on
/// `serve_burst`; 100 bursts leave ten samples beyond the p90.
pub const PASS_BURSTS: usize = 100;
/// Largest request, in anchors (sizes are drawn from `1..=MAX_REQ`).
pub const MAX_REQ: usize = 4;
/// Shards of the persisted index `serve_burst` loads.
pub const INDEX_SHARDS: usize = 4;

/// How a workload hands anchors to the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One `run_fastz` call over the whole (capped) anchor set.
    Pair,
    /// Closed-loop bursts of small requests to `AlignService::run`.
    Serve,
}

/// Results a run at [`DEFAULT_SEED`] must reproduce exactly. For
/// `serve_burst` they cover one pass: the deduped union of the served
/// alignments and the summed makespan.
#[derive(Clone, Copy, Debug)]
pub struct Expected {
    pub alignments: usize,
    pub checksum: u64,
    pub modeled_bits: u64,
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub pair: &'static str,
    pub scale: Scale,
    pub scoring: fn() -> Scoring,
    /// How `scoring` is named in the output.
    pub scoring_name: &'static str,
    /// Anchor cap after filtering: the whole workload of a pair run, or
    /// the pool `serve_burst` draws its requests from.
    pub max_anchors: usize,
    /// Whether the seed regenerates the genome pair. Only the
    /// cross-genus pair keeps the same work across draws; a fresh
    /// within-genus draw changes how many 32K-class segments exist.
    pub seed_regenerates_genome: bool,
    pub expected: Expected,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "similar_pair",
        kind: Kind::Pair,
        pair: "C1_1,1",
        scale: Scale::BENCH,
        scoring: Scoring::lastz_default,
        scoring_name: "lastz_default",
        max_anchors: 300,
        seed_regenerates_genome: false,
        expected: Expected {
            alignments: 1,
            checksum: 0xa8d3_ffa9_c05f_aac8,
            modeled_bits: 0x3fb8_055f_cc77_7c9d,
        },
    },
    Spec {
        name: "divergent_pair",
        kind: Kind::Pair,
        pair: "CD_1,2R",
        scale: Scale::LARGE,
        scoring: Scoring::bench_scaled,
        scoring_name: "bench_scaled",
        max_anchors: 2_000,
        seed_regenerates_genome: true,
        expected: Expected {
            alignments: 119,
            checksum: 0x2900_e90d_6f00_3859,
            modeled_bits: 0x3f79_bd7a_b68b_aacc,
        },
    },
    Spec {
        name: "serve_burst",
        kind: Kind::Serve,
        pair: "C1_1,1",
        scale: Scale::LARGE,
        scoring: Scoring::bench_scaled,
        scoring_name: "bench_scaled",
        max_anchors: 1_000,
        seed_regenerates_genome: false,
        expected: Expected {
            alignments: 52,
            checksum: 0x08bc_3d1a_1981_8d9b,
            modeled_bits: 0x3fd8_3ab1_1e2c_3227,
        },
    },
];

pub fn find(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    /// `FastZConfig::new` defaults with the host thread count made
    /// explicit (0 would mean "all cores" implicitly).
    pub fn config(&self, threads: usize) -> FastZConfig {
        FastZConfig {
            sim_threads: threads,
            ..FastZConfig::new((self.scoring)(), DeviceSpec::rtx3080_ampere())
        }
    }
}

/// Host cores, the `sim_threads` every timed run uses.
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

pub const TARGET_FA: &str = "target.fa";
pub const QUERY_FA: &str = "query.fa";

/// Writes the workload's genome pair for `seed` into `dir` as FASTA and
/// returns the (target, query) lengths in bp.
pub fn write_inputs(spec: &Spec, seed: u64, dir: &Path) -> std::io::Result<(usize, usize)> {
    let pair = find_pair(spec.pair).expect("workload pairs are catalog labels");
    let mut params = pair.pair_params(spec.scale);
    if spec.seed_regenerates_genome {
        params.rng_seed = params.rng_seed.wrapping_add(seed.wrapping_mul(7919));
    }
    let g = generate_pair(&params);
    write_fasta_file(dir.join(TARGET_FA), std::slice::from_ref(&g.target))?;
    write_fasta_file(dir.join(QUERY_FA), std::slice::from_ref(&g.query))?;
    Ok((g.target.len(), g.query.len()))
}

/// SplitMix64: the benchmark's own deterministic stream for everything
/// it draws from `--seed` (anchor order, request sizes and contents).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_F457_BE4C_0000)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}
