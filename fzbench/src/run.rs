//! Set-up, the alignment operations, and the untraced measurement that
//! yields the end-to-end metrics.

use crate::span::Tracer;
use crate::spec::{self, Kind, Rng, Spec, BURST, INDEX_SHARDS, MAX_REQ, PASS_BURSTS};
use crate::verify::{bad_alignments, checksum};
use crate::Output;
use fastz_align::{dedupe_alignments, Alignment};
use fastz_core::{run_fastz, FastZConfig};
use fastz_genome::{read_fasta_file, Sequence};
use fastz_seed::{
    Anchor, IndexOrigin, SeedIndex, SeedShape, ShardedSeedIndex, Workload, WorkloadParams,
};
use fastz_serve::{AlignRequest, AlignService, Outcome, ServeConfig, ServeReport};
use std::path::Path;
use std::time::Instant;

/// Everything set-up produces: the parsed pair and its anchors (the
/// capped workload, or the request pool on `serve_burst`).
pub struct Prepared {
    pub target: Sequence,
    pub query: Sequence,
    pub workload: Workload,
    pub index_bytes: usize,
    pub cfg: FastZConfig,
}

fn read_one(path: &Path) -> Result<Sequence, String> {
    read_fasta_file(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .into_iter()
        .next()
        .ok_or_else(|| format!("{}: no records", path.display()))
}

/// Builds and saves the sharded index `serve_burst` loads during
/// set-up. Not part of `setup_s`: a service keeps its index on disk.
pub fn presave_index(dir: &Path, tr: &mut Tracer) -> Result<(), String> {
    let target = read_one(&dir.join(spec::TARGET_FA))?;
    let (_, origin) = tr
        .span("seed.index_build", None, |_| {
            ShardedSeedIndex::load_or_build(dir, &target, SeedShape::lastz_12of19(), INDEX_SHARDS)
        })
        .map_err(|e| format!("seed index: {e}"))?;
    if origin != IndexOrigin::Built {
        return Err("seed index: a stale artifact was already present".into());
    }
    Ok(())
}

/// One set-up: parse the FASTA pair, seed (in-memory index build, or a
/// warm load of the persisted sharded index), filter and cap anchors.
pub fn setup(spec: &Spec, dir: &Path, threads: usize, tr: &mut Tracer) -> Result<Prepared, String> {
    let (target, query) = tr.span("genome.parse", None, |_| {
        Ok::<_, String>((
            read_one(&dir.join(spec::TARGET_FA))?,
            read_one(&dir.join(spec::QUERY_FA))?,
        ))
    })?;
    let params = WorkloadParams {
        max_anchors: spec.max_anchors,
        ..WorkloadParams::default()
    };
    let mut cfg = spec.config(threads);
    let (workload, index_bytes) = match spec.kind {
        Kind::Pair => {
            let index = tr.span("seed.index_build", None, |_| {
                SeedIndex::build(&target, params.shape.clone())
            });
            let w = tr.span("seed.anchors", None, |_| {
                Workload::build_with_index(&index, &query, &params)
            });
            (w, index.heap_bytes())
        }
        Kind::Serve => {
            let (index, origin) = tr
                .span("seed.index_load", None, |_| {
                    ShardedSeedIndex::load_or_build(
                        dir,
                        &target,
                        params.shape.clone(),
                        INDEX_SHARDS,
                    )
                })
                .map_err(|e| format!("seed index: {e}"))?;
            if origin != IndexOrigin::LoadedFromDisk {
                return Err("seed index was rebuilt instead of loaded".into());
            }
            cfg.index_fingerprint = index.fingerprint();
            let w = tr.span("seed.anchors", None, |_| {
                Workload::build_with_index(&index, &query, &params)
            });
            (w, index.heap_bytes())
        }
    };
    if workload.is_empty() {
        return Err("workload has no anchors".into());
    }
    Ok(Prepared {
        target,
        query,
        workload,
        index_bytes,
        cfg,
    })
}

/// What one timed operation runs, drawn from the workload seed.
pub enum Jobs {
    /// The anchor list of one `run_fastz` call.
    Pair(Vec<Anchor>),
    /// One pass: `PASS_BURSTS` bursts of `BURST` requests.
    Serve(Vec<Vec<AlignRequest>>),
}

pub fn make_jobs(spec: &Spec, prep: &Prepared, seed: u64) -> Jobs {
    let mut rng = Rng::new(seed);
    let pool = &prep.workload.anchors;
    let span = prep.workload.shape.span();
    match spec.kind {
        Kind::Pair => {
            // The seed permutes the order anchors reach the pipeline
            // (which problems share a kernel batch and which worker
            // claims them); the default seed keeps the workload order.
            let mut anchors = pool.clone();
            if seed != spec::DEFAULT_SEED {
                for i in (1..anchors.len()).rev() {
                    anchors.swap(i, rng.below(i + 1));
                }
            }
            Jobs::Pair(anchors)
        }
        Kind::Serve => Jobs::Serve(
            (0..PASS_BURSTS)
                .map(|b| {
                    (0..BURST)
                        .map(|k| {
                            let n = 1 + rng.below(MAX_REQ);
                            let mut anchors: Vec<Anchor> =
                                (0..n).map(|_| pool[rng.below(pool.len())]).collect();
                            anchors.sort_by_key(|a| (a.target_pos, a.query_pos));
                            AlignRequest::new((b * BURST + k) as u64, anchors, span)
                        })
                        .collect()
                })
                .collect(),
        ),
    }
}

impl Jobs {
    /// Requests (serve) or runs (pair) in one operation.
    pub fn requests(&self) -> usize {
        match self {
            Jobs::Pair(_) => 1,
            Jobs::Serve(bursts) => bursts.iter().map(Vec::len).sum(),
        }
    }

    /// Every anchor list the pipeline sees, one per request.
    pub fn anchor_sets(&self) -> Vec<&[Anchor]> {
        match self {
            Jobs::Pair(a) => vec![a.as_slice()],
            Jobs::Serve(bursts) => bursts
                .iter()
                .flatten()
                .map(|r| r.anchors.as_slice())
                .collect(),
        }
    }
}

/// The result of one timed operation and its checks.
pub struct OpResult {
    pub wall_s: f64,
    /// Per-burst latencies (serve only).
    pub burst_s: Vec<f64>,
    pub modeled_s: f64,
    /// Deduped alignments of the whole operation.
    pub alignments: Vec<Alignment>,
    pub attempted: usize,
    pub failed: usize,
    /// Serve reports of every burst, in order (serve only).
    pub serve: Vec<ServeReport>,
}

/// Runs one operation: a `run_fastz` call, or a pass of bursts, each
/// burst timed from its hand-off to `AlignService::run` until return.
pub fn run_op(prep: &Prepared, jobs: &Jobs, cfg: &FastZConfig, tr: &mut Tracer) -> OpResult {
    let scoring = &cfg.scoring;
    match jobs {
        Jobs::Pair(anchors) => {
            let span = prep.workload.shape.span();
            let t0 = Instant::now();
            let rep = tr.span("pipeline.run_fastz", None, |_| {
                run_fastz(&prep.target, &prep.query, anchors, span, cfg)
            });
            let wall_s = t0.elapsed().as_secs_f64();
            let bad = bad_alignments(&rep.alignments, &prep.target, &prep.query, scoring);
            OpResult {
                wall_s,
                burst_s: Vec::new(),
                modeled_s: rep.modeled_time_s,
                alignments: rep.alignments,
                attempted: 1,
                failed: usize::from(bad > 0),
                serve: Vec::new(),
            }
        }
        Jobs::Serve(bursts) => {
            let service =
                AlignService::new(&prep.target, &prep.query, ServeConfig::new(cfg.clone()));
            let mut burst_s = Vec::with_capacity(bursts.len());
            let mut reports = Vec::with_capacity(bursts.len());
            let t0 = Instant::now();
            for (b, burst) in bursts.iter().enumerate() {
                let tb = Instant::now();
                let rep = tr.span("serve.burst", Some(b as u64), |_| service.run(burst));
                burst_s.push(tb.elapsed().as_secs_f64());
                reports.push(rep);
            }
            let wall_s = t0.elapsed().as_secs_f64();
            let mut union = Vec::new();
            let mut failed = 0;
            let mut modeled_s = 0.0;
            for rep in &reports {
                modeled_s += rep.makespan_s;
                for r in &rep.records {
                    let ok = matches!(r.outcome, Outcome::Completed)
                        && bad_alignments(&r.alignments, &prep.target, &prep.query, scoring) == 0;
                    failed += usize::from(!ok);
                    union.extend(r.alignments.iter().cloned());
                }
            }
            OpResult {
                wall_s,
                burst_s,
                modeled_s,
                alignments: dedupe_alignments(union),
                attempted: jobs.requests(),
                failed,
                serve: reports,
            }
        }
    }
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    (s[(n - 1) / 2] + s[n / 2]) / 2.0
}

/// Nearest-rank quantile.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed integer loop that calls no program code: its time tracks
/// host speed only, so a set of runs spoiled by a slow host can be told
/// apart from a program regression.
pub fn host_calib_s() -> f64 {
    let mut samples = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
        for _ in 0..20_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        samples.push(t0.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Seconds of set-up in one batch. Set-up is sampled in batches across
/// the whole run, one before the first operation and one after each
/// operation, so its median covers the host's slow and fast phases alike.
const SETUP_BATCH_S: f64 = 0.3;

/// Set-ups until at least `min` of them and [`SETUP_BATCH_S`] seconds
/// have run; returns the last one.
fn setup_batch(
    spec: &Spec,
    dir: &Path,
    threads: usize,
    min: usize,
    times: &mut Vec<f64>,
) -> Result<Prepared, String> {
    let mut tr = Tracer::new(false);
    let (mut n, mut spent) = (0, 0.0);
    loop {
        let t0 = Instant::now();
        let prep = setup(spec, dir, threads, &mut tr)?;
        let d = t0.elapsed().as_secs_f64();
        times.push(d);
        n += 1;
        spent += d;
        if n >= min && spent >= SETUP_BATCH_S {
            return Ok(prep);
        }
    }
}

/// The untraced run: operations until `seconds` have passed (at least
/// three), each checked against the first and, at the default seed,
/// against the pinned results, with set-up batches between them.
pub fn untraced(
    spec: &Spec,
    dir: &Path,
    seed: u64,
    seconds: f64,
    out: &mut Output,
) -> Result<(), String> {
    let threads = spec::host_threads();
    let calib = host_calib_s();
    let mut setup_times = Vec::new();
    let mut prep = setup_batch(spec, dir, threads, 5, &mut setup_times)?;
    let jobs = make_jobs(spec, &prep, seed);
    let mut tr = Tracer::new(false);

    let mut walls = Vec::new();
    let mut bursts = Vec::new();
    let mut first: Option<(u64, u64, usize)> = None;
    let t0 = Instant::now();
    while walls.len() < 3 || t0.elapsed().as_secs_f64() < seconds {
        let op = run_op(&prep, &jobs, &prep.cfg, &mut tr);
        walls.push(op.wall_s);
        bursts.extend_from_slice(&op.burst_s);
        out.attempted += op.attempted;
        out.failed += op.failed;
        let sig = (
            op.modeled_s.to_bits(),
            checksum(&op.alignments),
            op.alignments.len(),
        );
        match first {
            None => first = Some(sig),
            Some(f) if f != sig => out.mismatch(format!(
                "operation {} differs from the first: modeled/checksum/count {sig:x?} vs {f:x?}",
                walls.len()
            )),
            Some(_) => {}
        }
        // The batch replaces the prepared inputs, so no more than one
        // set-up's memory is alive at a time.
        drop(prep);
        prep = setup_batch(spec, dir, threads, 1, &mut setup_times)?;
    }
    let (modeled_bits, sum, count) = first.expect("at least one operation ran");
    if seed == spec::DEFAULT_SEED {
        let e = spec.expected;
        if (count, sum, modeled_bits) != (e.alignments, e.checksum, e.modeled_bits) {
            out.mismatch(format!(
                "default-seed results {count} alignments, checksum {sum:#018x}, modeled bits {modeled_bits:#018x} \
                 differ from the pinned {} / {:#018x} / {:#018x}",
                e.alignments, e.checksum, e.modeled_bits
            ));
        }
    }

    let setup_s = median(&setup_times);
    let align_s = median(&walls);
    out.metric("setup_s", setup_s, "s");
    out.metric("align_wall_s", align_s, "s");
    out.metric("peak_rss_mib", peak_rss_mib(), "MiB");

    println!(
        "{}: seed {seed}, sim_threads {threads}, host.calib_s {calib:.4}",
        spec.name
    );
    let (lo, hi) = setup_times
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &t| {
            (lo.min(t), hi.max(t))
        });
    println!(
        "setup_s {setup_s:.4} s (median of {}, range {lo:.4}-{hi:.4}); modeled_gpu_s {:e} s; \
         {count} alignments, checksum {sum:#018x}",
        setup_times.len(),
        f64::from_bits(modeled_bits),
    );
    let list: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    println!(
        "align_wall_s {align_s:.4} s (median of {} operations)",
        walls.len()
    );
    println!("operation walls (s): {}", list.join(" "));
    if !bursts.is_empty() {
        let reqs = jobs.requests() * walls.len();
        println!(
            "req_p50_ms {:.3} ms, req_p90_ms {:.3} ms (over {} bursts of {BURST}; {} beyond p90), req_per_s {:.1} 1/s ({reqs} requests)",
            quantile(&bursts, 0.5) * 1e3,
            quantile(&bursts, 0.9) * 1e3,
            bursts.len(),
            bursts.len() - (0.9 * bursts.len() as f64).ceil() as usize,
            reqs as f64 / walls.iter().sum::<f64>(),
        );
    }
    println!(
        "fail_frac {} ({} of {} {})",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted,
        if spec.kind == Kind::Serve {
            "requests"
        } else {
            "runs"
        },
    );
    Ok(())
}
