//! The warp-parallel y-drop extension engine (FastZ's DP kernel body).
//!
//! One seed-extension side runs on one warp (paper §3.1.1). Columns of
//! the DP matrix are strip-mined 32 at a time; within a strip the
//! wavefront advances along anti-diagonals, lane ℓ owning column
//! `strip_base + ℓ + 1` and computing one row per step. Per-lane live
//! state is exactly the paper's three-diagonal **cyclic use-and-discard
//! register buffer** (§3.2): the S/I/D values of the lane's previous row
//! plus the S value of the row before that; horizontal and diagonal
//! dependencies arrive from lane ℓ−1 via warp shuffles. Only lane 31
//! writes its column's state to the strip-boundary spill buffer — the
//! 1/32 residual traffic of §3.2.
//!
//! Pruning uses a **provably LASTZ-superset threshold**: a cell `(i, j)`
//! may be pruned only against scores of cells that LASTZ's row-major
//! sweep would have completed before it — rows `< i`, or row `i` at
//! columns `< j`. Two sources satisfy that order: (a) the warp-wide
//! maxima of anti-diagonals at least 32 steps old (every lane of those
//! diagonals lies on a strictly smaller row than any current cell), and
//! (b) the per-row prefix maxima of all previous strips. Consequently
//! the engine explores a superset of sequential LASTZ's cells and
//! returns the same or an occasionally higher score (§3.4).

use crate::ablation::OptFlags;
use crate::wavefront_step::{step_interpreter, step_simd, StepIn};
use fastz_align::score;
use fastz_align::trace::{CellScores, CellSink, NoTrace};
use fastz_align::ydrop::{tb, NEG_INF};
use fastz_align::{walk_traceback_with, EditOp};
use fastz_genome::Scoring;
use fastz_gpu_sim::sanitize::stage as san_stage;
use fastz_gpu_sim::{lanes32, shfl_up, splat, Lanes, SharedMem, WarpCounters, WARP_SIZE};

/// Which host realization of the 32-lane wavefront executes each step.
///
/// Both backends run the identical step semantics (the kernels live in
/// [`crate::wavefront_step`]); every observable output — alignments, bin
/// counts, counters, sanitizer findings, modeled-GPU-time bits — is
/// bit-identical between them. The choice only affects host wall-clock,
/// so the faster SIMD backend is the default; code that means the
/// reference semantics (identity checks, conformance) names
/// [`WavefrontBackend::Interpreter`] explicitly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WavefrontBackend {
    /// Scalar lane-by-lane interpretation (the reference semantics).
    Interpreter,
    /// 32-wide host-SIMD vectors via [`fastz_gpu_sim::lanes32`].
    #[default]
    Simd,
}

/// Per-call configuration of the warp engine.
#[derive(Clone, Copy, Debug)]
pub struct WarpConfig {
    /// Keep the three-diagonal state in registers (true) or round-trip
    /// every lane's scores through global memory (false) — §3.2 / Fig 9.
    pub cyclic_buffers: bool,
    /// Eager-traceback window size (0 disables): a `W×W` packed traceback
    /// kept in shared memory; alignments that end inside it finish in the
    /// inspector (§3.1.2).
    pub eager_window: usize,
    /// Record a full packed traceback matrix and walk it (executor mode).
    pub record_traceback: bool,
    /// Row bound (query extent); `usize::MAX` = full search.
    pub max_rows: usize,
    /// Column bound (target extent); `usize::MAX` = full search.
    pub max_cols: usize,
    /// Lanes per strip, `1..=WARP_SIZE` (default [`WARP_SIZE`]). The
    /// result must not depend on this — it only changes how the matrix
    /// is strip-mined — which the conformance suite checks by sweeping
    /// widths.
    pub strip_width: usize,
    /// Host realization of the per-step lane arithmetic (interpreter or
    /// SIMD). The result must not depend on this either — both backends
    /// are bit-identical by contract.
    pub backend: WavefrontBackend,
}

impl WarpConfig {
    /// Inspector configuration under `flags`.
    pub fn inspector(flags: &OptFlags) -> WarpConfig {
        WarpConfig {
            cyclic_buffers: flags.cyclic_buffers,
            eager_window: if flags.eager_traceback { 16 } else { 0 },
            record_traceback: false,
            max_rows: usize::MAX,
            max_cols: usize::MAX,
            strip_width: WARP_SIZE,
            backend: WavefrontBackend::default(),
        }
    }

    /// Executor configuration under `flags`, trimmed to the inspector's
    /// optimal cell when trimming is enabled.
    pub fn executor(flags: &OptFlags, best_i: usize, best_j: usize) -> WarpConfig {
        let (max_rows, max_cols) = if flags.executor_trimming {
            (best_i, best_j)
        } else {
            (usize::MAX, usize::MAX)
        };
        WarpConfig {
            cyclic_buffers: flags.cyclic_buffers,
            eager_window: 0,
            record_traceback: true,
            max_rows,
            max_cols,
            strip_width: WARP_SIZE,
            backend: WavefrontBackend::default(),
        }
    }

    /// The same configuration with `width` lanes per strip.
    pub fn with_strip_width(self, width: usize) -> WarpConfig {
        WarpConfig {
            strip_width: width,
            ..self
        }
    }

    /// The same configuration running on `backend`.
    pub fn with_backend(self, backend: WavefrontBackend) -> WarpConfig {
        WarpConfig { backend, ..self }
    }
}

/// Result of one warp extension.
#[derive(Clone, Debug)]
pub struct WarpExtension {
    /// Best score found (≥ 0).
    pub best_score: i32,
    /// Query bases consumed at the best cell.
    pub best_i: usize,
    /// Target bases consumed at the best cell.
    pub best_j: usize,
    /// Edit script recovered by eager traceback (inspector mode, only if
    /// the optimum fell inside the window).
    pub eager_ops: Option<Vec<EditOp>>,
    /// Edit script recovered from the full traceback (executor mode).
    pub ops: Option<Vec<EditOp>>,
    /// Work counters for the timing model.
    pub counters: WarpCounters,
    /// Maximum row (query extent) computed during the search.
    pub explored_rows: usize,
    /// Maximum column (target extent) computed during the search.
    pub explored_cols: usize,
}

impl WarpExtension {
    /// Optimal-alignment extent: the larger of the two sequence extents
    /// at the best cell. This is the length that drives §3.3 binning
    /// ("smallest bin in which the alignment is contained") and the
    /// seed-extent histogram.
    pub fn extent(&self) -> usize {
        self.best_i.max(self.best_j)
    }
}

/// Spill-buffer entry: boundary-column (S, I) for one row.
#[derive(Clone, Copy)]
struct Spill {
    s: i32,
    i: i32,
}

const DEAD: Spill = Spill {
    s: NEG_INF,
    i: NEG_INF,
};

/// One strip's band of the executor traceback store: rows
/// `first_row..first_row + rows`, `width` bytes per row from `offset`.
#[derive(Clone, Copy)]
struct TbStrip {
    first_row: usize,
    rows: usize,
    offset: usize,
}

/// Runs one warp extension of `query` against `target` (suffix slices in
/// the extension direction). `shared` models the block's shared memory;
/// the eager window lives there.
pub fn warp_extend(
    target: &[u8],
    query: &[u8],
    scoring: &Scoring,
    cfg: &WarpConfig,
    shared: &mut SharedMem,
) -> WarpExtension {
    warp_extend_traced(target, query, scoring, cfg, shared, &mut NoTrace)
}

/// [`warp_extend`] with an externally owned traceback matrix buffer.
///
/// In executor mode `tbm` is cleared and then grown by one zero-filled
/// band per strip as the strip starts — its computed rows × the strip
/// width, not the trimmed `m×n` rectangle the modeled GPU allocates.
/// Non-recording calls never touch it. A buffer reused across problems
/// — e.g. from a [`crate::pool::Arena`] — therefore produces
/// bit-identical results to a fresh allocation, and reallocates only
/// when a problem's bands outgrow its capacity.
pub fn warp_extend_in(
    target: &[u8],
    query: &[u8],
    scoring: &Scoring,
    cfg: &WarpConfig,
    shared: &mut SharedMem,
    tbm: &mut Vec<u8>,
) -> WarpExtension {
    warp_extend_traced_in(target, query, scoring, cfg, shared, tbm, &mut NoTrace)
}

/// [`warp_extend`] that additionally reports every live cell to `sink`
/// (the conformance oracle's cell-for-cell hook; [`NoTrace`] compiles
/// the calls away on the production path).
pub fn warp_extend_traced<K: CellSink>(
    target: &[u8],
    query: &[u8],
    scoring: &Scoring,
    cfg: &WarpConfig,
    shared: &mut SharedMem,
    sink: &mut K,
) -> WarpExtension {
    let mut tbm = Vec::new();
    warp_extend_traced_in(target, query, scoring, cfg, shared, &mut tbm, sink)
}

/// [`warp_extend_traced`] with an externally owned traceback buffer
/// (see [`warp_extend_in`]).
pub fn warp_extend_traced_in<K: CellSink>(
    target: &[u8],
    query: &[u8],
    scoring: &Scoring,
    cfg: &WarpConfig,
    shared: &mut SharedMem,
    tbm: &mut Vec<u8>,
    sink: &mut K,
) -> WarpExtension {
    let so_se = scoring.gaps.open_score();
    let se = scoring.gaps.extend_score();
    let ydrop = scoring.ydrop;
    let n = target.len().min(cfg.max_cols);
    let m = query.len().min(cfg.max_rows);
    let w = cfg.eager_window;
    // The strip width defaults to the warp size; narrower strips model
    // partial warps and must produce identical results.
    let width = cfg.strip_width;
    assert!(
        (1..=WARP_SIZE).contains(&width),
        "strip_width {width} outside 1..={WARP_SIZE}"
    );

    let mut counters = WarpCounters::default();
    let mut best_score = 0i32;
    let (mut best_i, mut best_j) = (0usize, 0usize);

    // Racecheck accessor identity for the DP sweep (no-op unless a
    // sanitizer is attached to the scratchpad). The sanitizer never
    // touches `counters`, so modeled time is bit-identical either way.
    shared.sanitize_stage(san_stage::WAVEFRONT);
    let sanitizing = shared.sanitizer().is_some();

    if n == 0 || m == 0 {
        // Pure gap chains score negative; the origin is optimal.
        return WarpExtension {
            best_score: 0,
            best_i: 0,
            best_j: 0,
            eager_ops: (w > 0).then(Vec::new),
            ops: cfg.record_traceback.then(Vec::new),
            counters,
            explored_rows: 0,
            explored_cols: 0,
        };
    }

    // Row-0 boundary chain value at column j. Saturating-clamped gap
    // arithmetic: a chain long enough to overflow i32 must floor at the
    // NEG_INF sentinel, not wrap (crates/align score module docs).
    let r0 = |j: usize| -> i32 {
        if j == 0 {
            0
        } else {
            score::gap_chain(so_se, se, j as i32 - 1)
        }
    };

    // Sound per-strip row-reachability bound: entering a `width`-column
    // strip at row r, a path can gain at most `width` diagonal matches
    // before every further row costs a gap-extend, so live cells cannot
    // lie more than `width + (ydrop + width·max_match)/extend` rows below
    // any live entry row. This caps every row-indexed buffer at the
    // explored region instead of the full query suffix.
    let max_match = scoring.subst.max_score().max(0);
    let delta =
        width + ((ydrop + width as i32 * max_match).max(0) / scoring.gaps.extend.max(1)) as usize;

    // Executor traceback store. The modeled kernel allocates the whole
    // trimmed m×n matrix (and is capped on it), but the host keeps only
    // each strip's computed row band: `tb_strips[k]` holds the first
    // row, row count and byte offset of strip k's band in `tbm`, laid
    // out row-major `width` bytes per row. Written bytes carry a marker
    // bit, and every cell outside a band reads back as unreachable —
    // exactly what an untouched byte of the dense matrix would hold.
    const TB_WRITTEN: u8 = 0x80;
    let mut tb_strips: Vec<TbStrip> = Vec::new();
    if cfg.record_traceback {
        let cells = m.checked_mul(n).expect("traceback matrix size overflow");
        assert!(
            cells <= 8 << 30,
            "executor traceback of {m}x{n} cells exceeds the model's allocation cap"
        );
        tbm.clear();
    }

    // Spill buffer: boundary column state per row. Strip 0's boundary is
    // matrix column 0 (analytic gap chain).
    let mut row_cap = m.min(delta);
    let mut spill: Vec<Spill> = (0..=row_cap)
        .map(|i| {
            if i == 0 {
                Spill { s: 0, i: NEG_INF }
            } else {
                Spill {
                    s: score::gap_chain(so_se, se, i as i32 - 1),
                    i: NEG_INF,
                }
            }
        })
        .collect();

    // Per-row maxima of completed strips (LASTZ-order-safe threshold
    // source b), kept as prefix maxima over rows.
    let mut row_prefix_best: Vec<i32> = vec![NEG_INF; row_cap + 1];
    row_prefix_best[0] = 0; // the origin
    let mut row_max_strip: Vec<i32> = vec![NEG_INF; row_cap + 1];
    let mut explored_rows = 0usize;
    let mut explored_cols = 0usize;

    let mut strip_base = 0usize;
    loop {
        let lanes_valid = width.min(n - strip_base);
        debug_assert!(lanes_valid > 0);
        explored_cols = explored_cols.max(strip_base + lanes_valid);

        // Start the wavefront at the strip's live row window instead of
        // row 1: rows whose only inputs are dead spill entries and a
        // dead row-0 chain cannot hold live cells, so skipping them is
        // exact (a real kernel tracks this window the same way; without
        // it every strip of a long alignment would sweep from the top).
        //
        // Liveness here must be judged against the same order-safe
        // threshold sources as the in-strip check (module docs): the
        // row-prefix maxima of completed strips, never the global best,
        // which already contains cells from rows *below* the candidate —
        // rows a row-major scan has not reached yet. Using the global
        // best here pruned rows the scalar engines keep (caught by the
        // conformance suite's warp-superset invariant). `max_match`
        // covers the one diagonal gain a spill value contributes to the
        // row beneath it, whose prefix threshold may be higher.
        let entry_dead = |r: usize, s: i32, i: i32| -> bool {
            s.max(i) + max_match < row_prefix_best[r.min(row_cap)] - ydrop
        };
        let row0_alive = !entry_dead(1, r0(strip_base), NEG_INF);
        let row_base = if row0_alive {
            0
        } else {
            match spill
                .iter()
                .enumerate()
                .position(|(r, sp)| !entry_dead(r, sp.s, sp.i))
            {
                Some(first_live) => first_live.saturating_sub(1),
                None => break, // no live input anywhere: done
            }
        };

        // Open this strip's traceback band: rows row_base+1..=row_cap,
        // the only rows its wavefront can reach.
        let rows_avail = row_cap - row_base;
        let tb_base = tbm.len();
        if cfg.record_traceback {
            tb_strips.push(TbStrip {
                first_row: row_base + 1,
                rows: rows_avail,
                offset: tb_base,
            });
            tbm.resize(tb_base + rows_avail * width, 0);
        }

        // Per-lane cyclic register state, initialized to row `row_base`
        // (the row-0 boundary chain when starting at the top, dead
        // otherwise — cells of row `row_base` itself are dead or
        // boundary by construction).
        let mut s_cur: Lanes<i32> = splat(NEG_INF);
        let mut i_cur: Lanes<i32> = splat(NEG_INF);
        let mut d_cur: Lanes<i32> = splat(NEG_INF);
        let mut s_prev: Lanes<i32> = splat(NEG_INF);
        if row_base == 0 {
            for l in 0..lanes_valid {
                let j = strip_base + l + 1;
                s_cur[l] = r0(j);
                i_cur[l] = r0(j);
            }
        }

        row_max_strip.clear();
        row_max_strip.resize(row_cap + 1, NEG_INF);

        let mut next_spill: Vec<Spill> = vec![DEAD; row_cap + 1];
        if strip_base + width < n {
            let boundary = strip_base + width;
            next_spill[0] = Spill {
                s: r0(boundary),
                i: r0(boundary),
            };
        }

        // Lagged anti-diagonal maxima (threshold source a): ring of the
        // last `width` step maxima plus the running max of anything
        // older (a diagonal `width` steps old lies entirely on rows
        // strictly below every current cell).
        let mut diag_ring = [NEG_INF; WARP_SIZE];
        let mut lagged_best = NEG_INF;

        let mut strip_live = false;
        let mut last_live_t: i64 = -1;
        let mut spill_live_ptr = row_base + 1; // next spill row not yet known-dead

        let mut live_max_row = 0usize;
        // Per-step gather scratch shared by both backends (substitution
        // scores and pruning thresholds of the active lanes).
        let mut subst_v: Lanes<i32> = splat(0);
        let mut thresh_v: Lanes<i32> = splat(0);
        // the last lane finishes row row_cap at t_max - 2
        let t_max = rows_avail + width;
        let mut t = 0usize;
        while t < t_max {
            let lane0_row = row_base + t + 1;
            // Shuffle in the left-neighbour values; lane 0 reads the
            // strip-boundary spill. The SIMD backend realizes the same
            // `__shfl_up_sync` as one whole-vector shift with edge-lane
            // injection (bit-identical; pinned by the lanes32 tests).
            let sp = |r: usize| spill.get(r).copied().unwrap_or(DEAD);
            let fill = sp(lane0_row);
            let fill_diag = sp(lane0_row - 1).s;
            let (s_left, i_left, s_diag_v) = match cfg.backend {
                WavefrontBackend::Interpreter => (
                    shfl_up(&s_cur, 1, fill.s),
                    shfl_up(&i_cur, 1, fill.i),
                    shfl_up(&s_prev, 1, fill_diag),
                ),
                WavefrontBackend::Simd => (
                    lanes32::shift_up1(&s_cur, fill.s),
                    lanes32::shift_up1(&i_cur, fill.i),
                    lanes32::shift_up1(&s_prev, fill_diag),
                ),
            };
            counters.shuffles += 3;
            // One bank-conflict access group per wavefront step.
            shared.sanitize_tick();

            // Contiguous active-lane window of this step: lane ℓ computes
            // row `lane0_row − ℓ`, so lanes above `hi` have not started
            // and lanes below `lo` have finished their column (the same
            // predicate the interpreter's per-lane guards used to check
            // one lane at a time).
            let lo = (t + 1).saturating_sub(rows_avail);
            let hi = t.min(lanes_valid - 1);

            // Shared per-lane gathers: the substitution score of each
            // active lane's cell and the LASTZ-order-safe pruning
            // threshold (module docs). Performed once, fed to whichever
            // kernel runs, so both backends consume identical inputs.
            if lo <= hi {
                for l in lo..=hi {
                    let i_idx = lane0_row - l;
                    let j_idx = strip_base + l + 1;
                    subst_v[l] = scoring.subst.score(target[j_idx - 1], query[i_idx - 1]);
                    thresh_v[l] = lagged_best.max(row_prefix_best[i_idx]) - ydrop;
                }
            }

            let step_in = StepIn {
                s_left: &s_left,
                i_left: &i_left,
                s_diag: &s_diag_v,
                s_cur: &s_cur,
                d_cur: &d_cur,
                subst: &subst_v,
                threshold: &thresh_v,
                so_se,
                se,
                lo,
                hi,
            };
            let out = match cfg.backend {
                WavefrontBackend::Interpreter => step_interpreter(&step_in),
                WavefrontBackend::Simd => step_simd(&step_in),
            };

            if sanitizing {
                if let Some(s) = shared.sanitizer() {
                    // Ballot-mask / active-lane consistency: a step may
                    // only activate lanes inside the strip's valid set.
                    let valid_mask = ((1u64 << lanes_valid) - 1) as u32;
                    s.check_ballot(out.active_mask, valid_mask);
                }
            }

            if out.active_mask == 0 {
                break;
            }
            let active_lanes = u64::from(out.active_mask.count_ones());
            // Rows decrease with lane index, so lane `lo` is deepest.
            explored_rows = explored_rows.max(lane0_row - lo);

            // Shared bookkeeping over the step's outputs — identical for
            // both backends, which can therefore only diverge inside the
            // step kernels (and those are pinned per step by the
            // differential tests).
            let mut live_this_step = false;
            let mut step_max = NEG_INF;
            for l in lo..=hi {
                let i_idx = lane0_row - l;
                let j_idx = strip_base + l + 1;
                if out.live_mask & (1 << l) != 0 {
                    debug_assert!(
                        out.s_store[l] > NEG_INF / 2,
                        "live cell ({i_idx},{j_idx}) carries a sentinel-derived S value {}",
                        out.s_store[l]
                    );
                    sink.record(
                        i_idx,
                        j_idx,
                        CellScores {
                            s: out.s_store[l],
                            i: out.i_store[l],
                            d: out.d_store[l],
                        },
                    );
                    live_this_step = true;
                    strip_live = true;
                    live_max_row = live_max_row.max(i_idx);
                    step_max = step_max.max(out.s_store[l]);
                    row_max_strip[i_idx] = row_max_strip[i_idx].max(out.s_store[l]);
                    if out.s_store[l] > best_score {
                        best_score = out.s_store[l];
                        best_i = i_idx;
                        best_j = j_idx;
                    }
                }

                // Traceback byte (the kernel computes one for every
                // active lane; S_ORIGIN source when pruned).
                if cfg.record_traceback {
                    tbm[tb_base + (i_idx - row_base - 1) * width + l] = out.tb[l] | TB_WRITTEN;
                    counters.global_written += 1; // 1 B/cell, staged
                    counters.shared_bytes += 2; //   through shared
                }
                if w > 0 && i_idx <= w && j_idx <= w {
                    shared.write_u8((i_idx - 1) * w + (j_idx - 1), out.tb[l]);
                    counters.shared_bytes += 1;
                }
            }

            // Cyclic register rotation: discard the oldest diagonal. The
            // windowed copy leaves finished and unstarted lanes' registers
            // untouched; with the whole warp active it degenerates to a
            // whole-vector rotation of the three-row buffer.
            s_prev[lo..=hi].copy_from_slice(&s_cur[lo..=hi]);
            s_cur[lo..=hi].copy_from_slice(&out.s_store[lo..=hi]);
            i_cur[lo..=hi].copy_from_slice(&out.i_store[lo..=hi]);
            d_cur[lo..=hi].copy_from_slice(&out.d_store[lo..=hi]);

            // The last lane spills the strip boundary for the next strip.
            if strip_base + width < n && (lo..=hi).contains(&(width - 1)) {
                next_spill[lane0_row - (width - 1)] = Spill {
                    s: out.s_store[width - 1],
                    i: out.i_store[width - 1],
                };
            }

            counters.steps += 1;
            counters.cells += active_lanes;
            counters.alu_ops += 9 * width as u64;
            let any_dead = out.active_mask & !out.live_mask != 0;
            if any_dead && out.live_mask != 0 {
                counters.divergent_steps += 1;
                if let Some(s) = shared.sanitizer() {
                    s.note_divergent_step();
                }
            }
            if cfg.cyclic_buffers {
                // Only the boundary lane writes scores (12 B: S, I, D).
                if strip_base + width < n {
                    counters.global_written += 12;
                }
            } else {
                // Every active lane round-trips its 12 B of scores.
                counters.global_written += 12 * active_lanes;
            }

            // Update the lagged threshold source.
            let expiring = diag_ring[t % width];
            lagged_best = lagged_best.max(expiring);
            diag_ring[t % width] = step_max;

            if live_this_step {
                last_live_t = t as i64;
            } else if t as i64 - last_live_t >= width as i64 {
                // A full diagonal window has been dead; if no live spill
                // input remains ahead of lane 0, nothing downstream can
                // revive. Judged with the same order-safe entry threshold
                // as the strip-start window scan.
                let spill_rows = spill.len() - 1;
                while spill_live_ptr <= spill_rows
                    && (spill_live_ptr <= lane0_row
                        || entry_dead(
                            spill_live_ptr,
                            spill[spill_live_ptr].s,
                            spill[spill_live_ptr].i,
                        ))
                {
                    spill_live_ptr += 1;
                }
                if spill_live_ptr > spill_rows {
                    break;
                }
            }
            t += 1;
        }

        if !strip_live {
            break;
        }

        // Fold this strip's row maxima into the prefix-best array.
        let mut running = NEG_INF;
        for i in 0..=row_cap {
            running = running.max(row_max_strip[i]);
            row_prefix_best[i] = row_prefix_best[i].max(running).max(if i > 0 {
                row_prefix_best[i - 1]
            } else {
                NEG_INF
            });
        }

        // Grow the row cap for the next strip from this strip's deepest
        // live row (see the reachability bound above); rows beyond the
        // old cap inherit the prefix maximum.
        let new_cap = m.min(live_max_row + delta);
        if new_cap > row_cap {
            let tail = row_prefix_best[row_cap];
            row_prefix_best.resize(new_cap + 1, tail);
        }
        row_cap = new_cap;

        strip_base += width;
        if strip_base >= n {
            break;
        }
        // The boundary spill is consumed by the same warp on the very next
        // strip, so the reload hits L2 — like the paper's §6 accounting we
        // charge only the 12 B/step write side to DRAM.
        spill = next_spill;
    }

    // Eager traceback: finish in the inspector if the optimum fits the
    // shared-memory window.
    let eager_ops = if w > 0 && best_i <= w && best_j <= w {
        // The CUDA kernel separates the wavefront writes from the
        // in-window walk with __syncthreads(); model that barrier so
        // the racecheck knows these reads cannot race the DP sweep.
        shared.sanitize_barrier();
        shared.sanitize_stage(san_stage::EAGER_TRACEBACK);
        let get = |i: usize, j: usize| -> u8 {
            if i == 0 && j == 0 {
                tb::S_ORIGIN
            } else if i == 0 {
                tb::S_FROM_I | if j > 1 { tb::I_EXTEND } else { 0 }
            } else if j == 0 {
                tb::S_FROM_D | if i > 1 { tb::D_EXTEND } else { 0 }
            } else {
                // The walk is a single scalar lane: each read is its
                // own access group, never a bank conflict.
                shared.sanitize_tick();
                shared.read_u8((i - 1) * w + (j - 1))
            }
        };
        let ops = walk_traceback_with(get, best_i, best_j);
        counters.scalar_ops += ops.iter().map(|o| o.len() as u64).sum::<u64>();
        Some(ops)
    } else {
        None
    };

    // Executor traceback walk (single lane; inter-seed parallelism only).
    let ops = if cfg.record_traceback {
        let get = |i: usize, j: usize| -> u8 {
            if i == 0 && j == 0 {
                tb::S_ORIGIN
            } else if i == 0 {
                tb::S_FROM_I | if j > 1 { tb::I_EXTEND } else { 0 }
            } else if j == 0 {
                tb::S_FROM_D | if i > 1 { tb::D_EXTEND } else { 0 }
            } else {
                let k = (j - 1) / width;
                match tb_strips.get(k) {
                    Some(st) if i >= st.first_row && i < st.first_row + st.rows => {
                        let b = tbm[st.offset + (i - st.first_row) * width + (j - 1 - k * width)];
                        if b & TB_WRITTEN == 0 {
                            tb::S_ORIGIN
                        } else {
                            b & 0x0F
                        }
                    }
                    _ => tb::S_ORIGIN,
                }
            }
        };
        let ops = walk_traceback_with(get, best_i, best_j);
        let walked: u64 = ops.iter().map(|o| o.len() as u64).sum();
        counters.scalar_ops += walked;
        counters.global_read += walked; // 1 B read per traceback step
        Some(ops)
    } else {
        None
    };

    WarpExtension {
        best_score,
        best_i,
        best_j,
        eager_ops,
        ops,
        counters,
        explored_rows,
        explored_cols,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastz_align::ydrop::{ydrop_extend, PruneMode};
    use fastz_genome::evolve::random_codes;
    use fastz_genome::{GapPenalties, Scoring, Sequence, SubstMatrix};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn codes(s: &[u8]) -> Vec<u8> {
        Sequence::from_ascii("x", s).unwrap().codes().to_vec()
    }

    fn scoring() -> Scoring {
        Scoring {
            subst: SubstMatrix::match_mismatch(10, -15),
            gaps: GapPenalties::new(30, 5),
            ydrop: 120,
            xdrop: 40,
            hsp_threshold: 50,
            gapped_threshold: 50,
        }
    }

    fn inspector_cfg() -> WarpConfig {
        WarpConfig::inspector(&OptFlags::fastz())
    }

    /// The inspector on the reference backend, for identity checks.
    fn interpreter_cfg() -> WarpConfig {
        inspector_cfg().with_backend(WavefrontBackend::Interpreter)
    }

    fn run(t: &[u8], q: &[u8], cfg: &WarpConfig) -> WarpExtension {
        // Sized from the modeled device, not a hardcoded byte count.
        let mut shared = SharedMem::for_device(&fastz_gpu_sim::DeviceSpec::rtx3080_ampere());
        warp_extend(t, q, &scoring(), cfg, &mut shared)
    }

    #[test]
    fn reused_traceback_buffer_matches_fresh_allocation() {
        // An arena-reused (dirty, over-capacity) buffer must be invisible
        // to the DP: identical score, optimum, and edit script.
        let sc = scoring();
        let mut rng = SmallRng::seed_from_u64(21);
        let t = random_codes(250, 0.5, &mut rng);
        let mut q = t.clone();
        q.splice(100..104, []);
        let insp = run(&t, &q, &inspector_cfg());
        let exec_cfg = WarpConfig::executor(&OptFlags::fastz(), insp.best_i, insp.best_j);
        let fresh = run(&t, &q, &exec_cfg);
        let mut shared = SharedMem::for_device(&fastz_gpu_sim::DeviceSpec::rtx3080_ampere());
        let mut dirty = vec![0xFFu8; 1 << 20];
        let reused = warp_extend_in(&t, &q, &sc, &exec_cfg, &mut shared, &mut dirty);
        assert_eq!(reused.best_score, fresh.best_score);
        assert_eq!((reused.best_i, reused.best_j), (fresh.best_i, fresh.best_j));
        assert_eq!(reused.ops, fresh.ops);
        assert_eq!(reused.counters, fresh.counters);
    }

    #[test]
    fn empty_inputs_return_origin() {
        let r = run(&[], &[], &inspector_cfg());
        assert_eq!(r.best_score, 0);
        assert_eq!(r.eager_ops.as_deref(), Some(&[][..]));
    }

    #[test]
    fn perfect_match_within_one_strip() {
        let t = codes(b"ACGTACGTAC");
        let r = run(&t, &t, &inspector_cfg());
        assert_eq!(r.best_score, 100);
        assert_eq!((r.best_i, r.best_j), (10, 10));
        assert_eq!(r.eager_ops.unwrap(), vec![EditOp::Diag(10)]);
    }

    #[test]
    fn perfect_match_across_many_strips() {
        let t: Vec<u8> = random_codes(500, 0.5, &mut SmallRng::seed_from_u64(1));
        let r = run(&t, &t, &inspector_cfg());
        assert_eq!(r.best_score, 5000);
        assert_eq!((r.best_i, r.best_j), (500, 500));
        // Too long for the eager window.
        assert!(r.eager_ops.is_none());
    }

    #[test]
    fn matches_exact_engine_on_clean_homology() {
        let sc = scoring();
        for seed in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let t = random_codes(300, 0.45, &mut rng);
            // Query: noisy copy with one small indel.
            let mut q = t.clone();
            for b in q.iter_mut() {
                if rng.gen_bool(0.05) {
                    *b = (*b + 1 + rng.gen_range(0..3)) % 4;
                }
            }
            let cut = rng.gen_range(50..250);
            q.splice(cut..cut + 2, []);
            let exact = ydrop_extend(&t, &q, &sc, PruneMode::Exact, false);
            let warp = run(&t, &q, &inspector_cfg());
            assert!(
                warp.best_score >= exact.best_score,
                "seed {seed}: warp {} < exact {}",
                warp.best_score,
                exact.best_score
            );
        }
    }

    #[test]
    fn equality_with_exact_engine_is_the_common_case() {
        let sc = scoring();
        let mut equal = 0;
        let total = 50;
        for seed in 0..total {
            let mut rng = SmallRng::seed_from_u64(1000 + seed);
            let t = random_codes(200, 0.5, &mut rng);
            let mut q = t.clone();
            for b in q.iter_mut() {
                if rng.gen_bool(0.08) {
                    *b = (*b + 1 + rng.gen_range(0..3)) % 4;
                }
            }
            let exact = ydrop_extend(&t, &q, &sc, PruneMode::Exact, false);
            let warp = run(&t, &q, &inspector_cfg());
            assert!(warp.best_score >= exact.best_score, "seed {seed}");
            if warp.best_score == exact.best_score {
                equal += 1;
            }
        }
        assert!(
            equal as f64 / total as f64 > 0.9,
            "only {equal}/{total} matched the exact engine"
        );
    }

    #[test]
    fn executor_traceback_rescores_to_best() {
        let sc = scoring();
        let mut rng = SmallRng::seed_from_u64(7);
        let t = random_codes(180, 0.5, &mut rng);
        let mut q = t.clone();
        q.splice(60..63, []); // 3-bp deletion
        let insp = run(&t, &q, &inspector_cfg());
        let exec_cfg = WarpConfig::executor(&OptFlags::fastz(), insp.best_i, insp.best_j);
        let exec = run(&t, &q, &exec_cfg);
        assert_eq!(
            exec.best_score, insp.best_score,
            "trimming changed the optimum"
        );
        assert_eq!((exec.best_i, exec.best_j), (insp.best_i, insp.best_j));
        let ops = exec.ops.unwrap();
        // Re-score the edit script.
        let (mut ti, mut qi, mut score) = (0usize, 0usize, 0i32);
        for op in &ops {
            match *op {
                EditOp::Diag(k) => {
                    for _ in 0..k {
                        score += sc.subst.score(t[ti], q[qi]);
                        ti += 1;
                        qi += 1;
                    }
                }
                EditOp::GapQ(k) => {
                    score -= sc.gaps.gap_cost(k as usize);
                    ti += k as usize;
                }
                EditOp::GapT(k) => {
                    score -= sc.gaps.gap_cost(k as usize);
                    qi += k as usize;
                }
            }
        }
        assert_eq!((ti, qi), (exec.best_j, exec.best_i));
        assert_eq!(score, exec.best_score);
    }

    #[test]
    fn eager_window_only_fires_for_short_alignments() {
        // 8-bp homology then garbage: optimum at (8, 8) fits the window.
        let mut t = codes(b"ACGTACGT");
        let mut q = t.clone();
        t.extend(codes(&[b'C'; 100]));
        q.extend(codes(&[b'G'; 100]));
        let r = run(&t, &q, &inspector_cfg());
        assert_eq!(r.best_score, 80);
        assert_eq!(r.eager_ops.unwrap(), vec![EditOp::Diag(8)]);

        // 20-bp homology: outside the 16×16 window.
        let mut t = codes(&b"ACGT".repeat(5));
        let mut q = t.clone();
        t.extend(codes(&[b'C'; 100]));
        q.extend(codes(&[b'G'; 100]));
        let r = run(&t, &q, &inspector_cfg());
        assert_eq!(r.best_score, 200);
        assert!(r.eager_ops.is_none());
    }

    #[test]
    fn cyclic_buffers_cut_score_traffic_but_not_results() {
        let mut rng = SmallRng::seed_from_u64(9);
        let t = random_codes(400, 0.5, &mut rng);
        let with = run(&t, &t, &inspector_cfg());
        let without_cfg = WarpConfig {
            cyclic_buffers: false,
            ..inspector_cfg()
        };
        let without = run(&t, &t, &without_cfg);
        assert_eq!(with.best_score, without.best_score);
        assert_eq!(with.counters.cells, without.counters.cells);
        assert!(
            without.counters.global_written > 20 * with.counters.global_written,
            "cyclic {} vs naive {}",
            with.counters.global_written,
            without.counters.global_written
        );
    }

    #[test]
    fn ydrop_terminates_search_in_garbage() {
        let mut rng = SmallRng::seed_from_u64(11);
        let t = random_codes(4000, 0.5, &mut rng);
        let q = random_codes(4000, 0.5, &mut rng);
        let r = run(&t, &q, &inspector_cfg());
        assert!(
            r.counters.cells < 3_000_000,
            "explored {} cells of unrelated sequence",
            r.counters.cells
        );
    }

    #[test]
    fn trimmed_executor_computes_fewer_cells() {
        // Short homology inside long junk: the inspector searches far, the
        // trimmed executor recomputes only the optimal rectangle.
        let mut t = codes(&b"ACGT".repeat(10));
        let mut q = t.clone();
        let mut rng = SmallRng::seed_from_u64(13);
        t.extend(random_codes(2000, 0.5, &mut rng));
        q.extend(random_codes(2000, 0.5, &mut rng));
        let insp = run(&t, &q, &inspector_cfg());
        // The optimum is the planted 40-bp homology, give or take a few
        // coincidental tail matches (the tails are random data).
        assert!(
            insp.best_i >= 40 && insp.best_i < 60 && insp.best_j >= 40 && insp.best_j < 60,
            "optimum ({}, {}) far from the planted homology",
            insp.best_i,
            insp.best_j
        );
        let trimmed = run(
            &t,
            &q,
            &WarpConfig::executor(&OptFlags::fastz(), insp.best_i, insp.best_j),
        );
        let untrimmed = run(
            &t,
            &q,
            &WarpConfig::executor(&OptFlags::with_eager(), insp.best_i, insp.best_j),
        );
        assert_eq!(trimmed.best_score, untrimmed.best_score);
        assert!(
            trimmed.counters.cells * 4 < untrimmed.counters.cells,
            "trimmed {} vs untrimmed {}",
            trimmed.counters.cells,
            untrimmed.counters.cells
        );
    }

    #[test]
    fn counters_account_steps_and_cells() {
        let t = codes(b"ACGTACGTACGTACGTACGT");
        let r = run(&t, &t, &inspector_cfg());
        assert!(r.counters.steps > 0);
        assert!(r.counters.cells >= 20);
        assert_eq!(r.counters.alu_ops, r.counters.steps * 9 * 32);
        assert!(r.counters.shuffles >= 3 * r.counters.steps);
    }

    #[test]
    fn simd_backend_is_bit_identical_to_the_interpreter() {
        // The engine's hard contract: backend choice changes host
        // wall-clock only. Optimum, edit scripts, counters (hence modeled
        // GPU time), and explored extents must match exactly, across
        // strip widths and in both inspector and executor modes.
        let sc = scoring();
        for seed in 0..10u64 {
            let mut rng = SmallRng::seed_from_u64(3000 + seed);
            let t = random_codes(260, 0.5, &mut rng);
            let mut q = t.clone();
            for b in q.iter_mut() {
                if rng.gen_bool(0.06) {
                    *b = (*b + 1 + rng.gen_range(0..3)) % 4;
                }
            }
            let cut = rng.gen_range(40..200);
            q.splice(cut..cut + 2, []);
            for width in [1usize, 2, 7, 31, 32] {
                let icfg = interpreter_cfg().with_strip_width(width);
                let a = run(&t, &q, &icfg);
                let b = run(&t, &q, &icfg.with_backend(WavefrontBackend::Simd));
                let ctx = format!("seed {seed} width {width}");
                assert_eq!(a.best_score, b.best_score, "{ctx}");
                assert_eq!((a.best_i, a.best_j), (b.best_i, b.best_j), "{ctx}");
                assert_eq!(a.eager_ops, b.eager_ops, "{ctx}");
                assert_eq!(a.counters, b.counters, "{ctx}");
                assert_eq!(
                    (a.explored_rows, a.explored_cols),
                    (b.explored_rows, b.explored_cols),
                    "{ctx}"
                );

                let ecfg = WarpConfig::executor(&OptFlags::fastz(), a.best_i, a.best_j)
                    .with_strip_width(width)
                    .with_backend(WavefrontBackend::Interpreter);
                let ea = run(&t, &q, &ecfg);
                let eb = run(&t, &q, &ecfg.with_backend(WavefrontBackend::Simd));
                assert_eq!(ea.ops, eb.ops, "{ctx} (executor)");
                assert_eq!(ea.counters, eb.counters, "{ctx} (executor)");
            }
        }
        // Cell-for-cell: every live cell both backends report to a trace
        // sink must agree in position and all three scores.
        let mut rng = SmallRng::seed_from_u64(77);
        let t = random_codes(150, 0.5, &mut rng);
        let mut q = t.clone();
        q.splice(70..72, []);
        let mut shared = SharedMem::for_device(&fastz_gpu_sim::DeviceSpec::rtx3080_ampere());
        let mut trace_a = fastz_align::DenseTrace::default();
        warp_extend_traced(&t, &q, &sc, &interpreter_cfg(), &mut shared, &mut trace_a);
        let mut shared = SharedMem::for_device(&fastz_gpu_sim::DeviceSpec::rtx3080_ampere());
        let mut trace_b = fastz_align::DenseTrace::default();
        warp_extend_traced(
            &t,
            &q,
            &sc,
            &inspector_cfg().with_backend(WavefrontBackend::Simd),
            &mut shared,
            &mut trace_b,
        );
        assert_eq!(trace_a.cells, trace_b.cells);
    }
}
