//! Regression tests for the warp engine's executor traceback.
//!
//! The digest test runs ~200 seeded homologous pairs through the inspector and the
//! executor (trimmed and untrimmed) at every conformance strip width on
//! both wavefront backends, and folds every observable output — best
//! score and cell, explored extents, eager and executor edit scripts,
//! and all [`WarpCounters`] fields — into one FNV-1a digest. The pinned
//! value was produced by the dense `m×n` executor traceback store, so
//! any change to how the traceback is stored or walked that moves a
//! single alignment or modeled-work counter fails here. The memory test
//! pins the host store to the strip bands the executor computes, so a
//! return to a dense `m×n` buffer fails too.

use fastz_align::EditOp;
use fastz_core::{
    warp_extend, warp_extend_in, OptFlags, WarpConfig, WarpExtension, WavefrontBackend,
};
use fastz_genome::evolve::{mutate, random_codes, MutationRates};
use fastz_genome::{GapPenalties, Scoring, SubstMatrix};
use fastz_gpu_sim::{DeviceSpec, SharedMem, WarpCounters};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Digest of the dense-store engine's outputs over the corpus below.
const PINNED_DIGEST: u64 = 0x371b_9202_f15e_c3d9;

const PAIRS: u64 = 200;
const WIDTHS: [usize; 5] = [1, 2, 7, 31, 32];
const BACKENDS: [WavefrontBackend; 2] = [WavefrontBackend::Interpreter, WavefrontBackend::Simd];

/// FNV-1a accumulator over little-endian words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn ops(&mut self, ops: &Option<Vec<EditOp>>) {
        match ops {
            None => self.word(u64::MAX),
            Some(ops) => {
                self.word(ops.len() as u64);
                for op in ops {
                    let (tag, len) = match *op {
                        EditOp::Diag(k) => (1, k),
                        EditOp::GapQ(k) => (2, k),
                        EditOp::GapT(k) => (3, k),
                    };
                    self.word(tag);
                    self.word(u64::from(len));
                }
            }
        }
    }

    fn counters(&mut self, c: &WarpCounters) {
        for v in [
            c.steps,
            c.cells,
            c.alu_ops,
            c.divergent_steps,
            c.global_read,
            c.global_written,
            c.shared_bytes,
            c.shuffles,
            c.scalar_ops,
        ] {
            self.word(v);
        }
    }

    fn extension(&mut self, r: &WarpExtension) {
        self.word(r.best_score as u64);
        self.word(r.best_i as u64);
        self.word(r.best_j as u64);
        self.word(r.explored_rows as u64);
        self.word(r.explored_cols as u64);
        self.ops(&r.eager_ops);
        self.ops(&r.ops);
        self.counters(&r.counters);
    }
}

fn small_scoring() -> Scoring {
    Scoring {
        subst: SubstMatrix::match_mismatch(10, -15),
        gaps: GapPenalties::new(30, 5),
        ydrop: 120,
        xdrop: 40,
        hsp_threshold: 50,
        gapped_threshold: 50,
    }
}

/// Pair `seed`: a homologous core (conserved or weakly conserved copy)
/// followed by unrelated tails, so some extensions stop on y-drop inside
/// the sequences and some run off their ends. Even seeds use a tight
/// match/mismatch scoring, odd seeds the LASTZ defaults.
fn pair(seed: u64) -> (Vec<u8>, Vec<u8>, Scoring) {
    let mut rng = SmallRng::seed_from_u64(0xD16E_5700 + seed);
    let core = random_codes(rng.gen_range(20..300), 0.45, &mut rng);
    let rates = if rng.gen_bool(0.5) {
        MutationRates::conserved()
    } else {
        MutationRates::weak()
    };
    let mut t = core.clone();
    let mut q = mutate(&core, &rates, 0.45, &mut rng);
    t.extend(random_codes(rng.gen_range(0..120), 0.45, &mut rng));
    q.extend(random_codes(rng.gen_range(0..120), 0.45, &mut rng));
    let scoring = if seed.is_multiple_of(2) {
        small_scoring()
    } else {
        Scoring::lastz_default()
    };
    (t, q, scoring)
}

fn run(t: &[u8], q: &[u8], sc: &Scoring, cfg: &WarpConfig) -> WarpExtension {
    let mut shared = SharedMem::for_device(&DeviceSpec::rtx3080_ampere());
    warp_extend(t, q, sc, cfg, &mut shared)
}

#[test]
fn executor_outputs_match_the_pinned_digest() {
    let mut digest = Digest(0xcbf2_9ce4_8422_2325);
    for seed in 0..PAIRS {
        let (t, q, sc) = pair(seed);
        for width in WIDTHS {
            for backend in BACKENDS {
                let icfg = WarpConfig::inspector(&OptFlags::fastz())
                    .with_strip_width(width)
                    .with_backend(backend);
                let insp = run(&t, &q, &sc, &icfg);
                digest.extension(&insp);
                for flags in [OptFlags::fastz(), OptFlags::with_eager()] {
                    let ecfg = WarpConfig::executor(&flags, insp.best_i, insp.best_j)
                        .with_strip_width(width)
                        .with_backend(backend);
                    digest.extension(&run(&t, &q, &sc, &ecfg));
                }
            }
        }
    }
    assert_eq!(
        digest.0, PINNED_DIGEST,
        "warp engine outputs moved: digest {:#018x}",
        digest.0
    );
}

#[test]
fn executor_traceback_store_is_band_sized() {
    // A ~20 kbp near-identical pair: the trimmed executor rectangle is
    // over 400 M cells, but the computed band is a thin diagonal strip.
    let mut rng = SmallRng::seed_from_u64(20_000);
    let core = random_codes(20_500, 0.45, &mut rng);
    let rates = MutationRates {
        substitution: 0.02,
        indel: 0.001,
        mean_indel_len: 2.0,
    };
    let q = mutate(&core, &rates, 0.45, &mut rng);
    let sc = small_scoring();
    let insp = run(&core, &q, &sc, &WarpConfig::inspector(&OptFlags::fastz()));
    let dense = insp.best_i * insp.best_j;
    assert!(
        dense >= 400_000_000,
        "optimum ({}, {}) too small to exercise the store",
        insp.best_i,
        insp.best_j
    );

    let ecfg = WarpConfig::executor(&OptFlags::fastz(), insp.best_i, insp.best_j);
    let mut shared = SharedMem::for_device(&DeviceSpec::rtx3080_ampere());
    let mut tbm = Vec::new();
    let exec = warp_extend_in(&core, &q, &sc, &ecfg, &mut shared, &mut tbm);
    assert_eq!(exec.best_score, insp.best_score);
    assert!(exec.ops.is_some());
    let cells = exec.counters.cells as usize;
    assert!(
        tbm.len() <= 4 * cells,
        "traceback store holds {} B for {cells} computed cells (dense would be {dense} B)",
        tbm.len()
    );
}
