//! The traced run: the workload again, with a span around every call
//! into a layer, plus the serial replays that split wall time by layer.
//! Every per-layer metric is printed on every workload; a layer the
//! workload does not exercise reports 0.

use crate::run::{self, median, Prepared};
use crate::span::Tracer;
use crate::spec::{self, Kind, Spec};
use crate::verify::checksum;
use crate::Output;
use fastz_align::{dedupe_alignments, sequential_gapped, DriverConfig};
use fastz_core::{
    run_fastz_in_pool, warp_extend_in, FastZConfig, FastZReport, HostPool, PoolStats,
    ResilienceConfig, WarpConfig,
};
use fastz_genome::Sequence;
use fastz_gpu_sim::{SharedMem, WARP_SIZE};
use fastz_obs::{names, MetricsSink};
use fastz_seed::Anchor;
use fastz_serve::{AlignRequest, AlignService, ServeConfig};
use std::path::Path;
use std::time::Instant;

/// Wall-clock marks one pipeline run leaves through its metrics sink.
///
/// The pipeline hands its sink every inspector result right after the
/// inspector phase returns, then every seed extent, then each executor
/// bin's results right after that bin's pool phase, and its own counters
/// only once the alignments and the report figures are final. So the
/// marks split a run's wall time into engine phases, the rest, and the
/// sink's own emit block, all inside the same run: host drift between
/// two separately timed runs cannot enter the split.
#[derive(Default)]
struct PhaseClock {
    inspector_end: Option<Instant>,
    last_extent: Option<Instant>,
    last_executor: Option<Instant>,
    emit_start: Option<Instant>,
}

impl PhaseClock {
    fn emitting(&mut self) {
        self.emit_start.get_or_insert_with(Instant::now);
    }

    /// Engine-phase seconds of a run that started at `start`, or NaN if
    /// the pipeline left too few marks to tell.
    fn engine_s(&self, start: Instant) -> f64 {
        match (self.inspector_end, self.last_extent) {
            (Some(insp), Some(extent)) => {
                let exec = self
                    .last_executor
                    .map_or(0.0, |e| e.duration_since(extent).as_secs_f64());
                insp.duration_since(start).as_secs_f64() + exec
            }
            _ => f64::NAN,
        }
    }
}

impl MetricsSink for PhaseClock {
    const ENABLED: bool = true;

    fn counter_add(&mut self, _name: &str, _v: u64) {
        self.emitting();
    }

    fn gauge_set(&mut self, _name: &str, _v: f64) {
        self.emitting();
    }

    fn observe(&mut self, name: &str, _bounds: &[f64], _v: f64) {
        let now = Instant::now();
        match name {
            names::TASK_CYCLES_INSPECTOR_HIST => {
                self.inspector_end.get_or_insert(now);
            }
            names::SEED_EXTENT_HIST => self.last_extent = Some(now),
            names::TASK_CYCLES_EXECUTOR_HIST => self.last_executor = Some(now),
            _ => {}
        }
    }

    fn span(&mut self, _name: &str, _cat: &str, _start_us: f64, _dur_us: f64) {
        self.emitting();
    }
}

/// Pipeline runs, each on its own pool exactly as `run_fastz` builds
/// one, summed. `wall_s` leaves out the sink's emit block, which a
/// `run_fastz` call does not run; `engine_s` is the part of `wall_s`
/// spent in the inspector and executor phases.
#[derive(Default)]
struct Pass {
    wall_s: f64,
    engine_s: f64,
    reports: Vec<FastZReport>,
    pool: PoolStats,
}

impl Pass {
    fn run(
        &mut self,
        prep: &Prepared,
        anchors: &[Anchor],
        cfg: &FastZConfig,
        name: &'static str,
        id: u64,
        tr: &mut Tracer,
    ) {
        let mut clock = PhaseClock::default();
        let t0 = Instant::now();
        let (rep, stats, start, ret) = tr.span(name, Some(id), |_| {
            std::thread::scope(|scope| {
                let pool = HostPool::new(
                    scope,
                    cfg.sim_threads,
                    &cfg.device,
                    cfg.host_dispatch,
                    cfg.sanitize,
                );
                let start = Instant::now();
                let rep = run_fastz_in_pool(
                    &prep.target,
                    &prep.query,
                    anchors,
                    prep.workload.shape.span(),
                    cfg,
                    &ResilienceConfig::disabled(),
                    &mut clock,
                    &pool,
                );
                (rep, pool.stats(), start, Instant::now())
            })
        });
        let emit_s = clock
            .emit_start
            .map_or(0.0, |e| ret.duration_since(e).as_secs_f64());
        self.wall_s += t0.elapsed().as_secs_f64() - emit_s;
        self.engine_s += clock.engine_s(start);
        self.pool.workers = stats.workers;
        self.pool.phases += stats.phases;
        self.pool.tasks += stats.tasks;
        self.pool.steals += stats.steals;
        self.pool.busy_turns += stats.busy_turns;
        self.pool.tb_hits += stats.tb_hits;
        self.pool.tb_misses += stats.tb_misses;
        self.reports.push(rep);
    }
}

/// One pipeline run per anchor set.
fn pipeline_pass(
    prep: &Prepared,
    sets: &[&[Anchor]],
    cfg: &FastZConfig,
    name: &'static str,
    tr: &mut Tracer,
) -> Pass {
    let mut pass = Pass::default();
    for (i, anchors) in sets.iter().enumerate() {
        pass.run(prep, anchors, cfg, name, i as u64, tr);
    }
    pass
}

/// Rounds of [`serve_round`] on `serve_burst`.
const SERVE_ROUNDS: usize = 3;

/// One served pass and the same requests as pipeline runs one by one,
/// interleaved burst by burst (which of the two goes first alternates),
/// so host drift cancels out of their difference. Returns the served
/// wall and the pipeline pass.
fn serve_round(
    prep: &Prepared,
    bursts: &[Vec<AlignRequest>],
    cfg: &FastZConfig,
    tr: &mut Tracer,
) -> (f64, Pass) {
    let service = AlignService::new(&prep.target, &prep.query, ServeConfig::new(cfg.clone()));
    let mut served_s = 0.0;
    let mut pass = Pass::default();
    for (b, burst) in bursts.iter().enumerate() {
        for serve_first in [b % 2 == 0, b % 2 == 1] {
            if serve_first {
                let t0 = Instant::now();
                tr.span("serve.burst", Some(b as u64), |_| service.run(burst));
                served_s += t0.elapsed().as_secs_f64();
            } else {
                for r in burst {
                    pass.run(prep, &r.anchors, cfg, "pipeline.run", r.id, tr);
                }
            }
        }
    }
    (served_s, pass)
}

/// Everything in a report that must not depend on host threads.
fn signature(r: &FastZReport) -> String {
    format!(
        "{:x} {:x} {} {:?} {:?} {:?}",
        r.modeled_time_s.to_bits(),
        checksum(&r.alignments),
        r.alignments.len(),
        r.stats,
        r.bin_counts,
        r.timeline,
    )
}

/// Engine time from a serial replay of every extension problem through
/// `warp_extend_in`, as the pipeline issues them.
struct EngineReplay {
    inspector_s: f64,
    executor_s: f64,
    max_task_s: f64,
    inspector_cells: u64,
    executor_cells: u64,
    steps: u64,
}

fn replay_engine(prep: &Prepared, sets: &[&[Anchor]], cfg: &FastZConfig) -> EngineReplay {
    let (tc, qc) = (prep.target.codes(), prep.query.codes());
    let span = prep.workload.shape.span();
    let width = cfg.strip_width.clamp(1, WARP_SIZE);
    let insp_cfg = WarpConfig::inspector(&cfg.flags)
        .with_strip_width(width)
        .with_backend(cfg.backend);
    let mut shared = SharedMem::for_device(&cfg.device);
    let mut tbm = Vec::new();
    let (mut rt, mut rq) = (Vec::new(), Vec::new());
    let mut out = EngineReplay {
        inspector_s: 0.0,
        executor_s: 0.0,
        max_task_s: 0.0,
        inspector_cells: 0,
        executor_cells: 0,
        steps: 0,
    };
    for a in sets.iter().flat_map(|s| s.iter()) {
        let (t0, q0) = (a.target_pos as usize, a.query_pos as usize);
        for left in [true, false] {
            let (t, q): (&[u8], &[u8]) = if left {
                rt.clear();
                rq.clear();
                rt.extend(tc[t0.saturating_sub(cfg.max_extension)..t0].iter().rev());
                rq.extend(qc[q0.saturating_sub(cfg.max_extension)..q0].iter().rev());
                (&rt, &rq)
            } else {
                (
                    &tc[t0 + span..tc.len().min(t0 + span + cfg.max_extension)],
                    &qc[q0 + span..qc.len().min(q0 + span + cfg.max_extension)],
                )
            };
            shared.clear();
            let start = Instant::now();
            let r = warp_extend_in(t, q, &cfg.scoring, &insp_cfg, &mut shared, &mut tbm);
            let d = start.elapsed().as_secs_f64();
            out.inspector_s += d;
            out.max_task_s = out.max_task_s.max(d);
            out.inspector_cells += r.counters.cells;
            out.steps += r.counters.steps;
            if cfg.flags.eager_traceback && r.eager_ops.is_some() {
                continue;
            }
            let exec_cfg = WarpConfig::executor(&cfg.flags, r.best_i, r.best_j)
                .with_strip_width(width)
                .with_backend(cfg.backend);
            shared.clear();
            let start = Instant::now();
            let e = warp_extend_in(t, q, &cfg.scoring, &exec_cfg, &mut shared, &mut tbm);
            let d = start.elapsed().as_secs_f64();
            out.executor_s += d;
            out.max_task_s = out.max_task_s.max(d);
            out.executor_cells += e.counters.cells;
            out.steps += e.counters.steps;
        }
    }
    out
}

fn lastz(
    target: &Sequence,
    query: &Sequence,
    sets: &[&[Anchor]],
    span: usize,
    cfg: &FastZConfig,
) -> (f64, u64) {
    let dcfg = DriverConfig::gapped(cfg.scoring.clone());
    let t0 = Instant::now();
    let cells = sets
        .iter()
        .map(|a| {
            sequential_gapped(target, query, a, span, &dcfg)
                .stats
                .total_cells
        })
        .sum();
    (t0.elapsed().as_secs_f64(), cells)
}

pub fn traced(
    spec: &Spec,
    dir: &Path,
    seed: u64,
    seconds: f64,
    target_dir: &Path,
    out: &mut Output,
) -> Result<(), String> {
    let threads = spec::host_threads();
    let calib = run::host_calib_s();
    let mut tr = Tracer::new(true);
    let serve = spec.kind == Kind::Serve;

    if serve {
        run::presave_index(dir, &mut tr)?;
    }
    let prep = run::setup(spec, dir, threads, &mut tr)?;
    let jobs = run::make_jobs(spec, &prep, seed);
    let sets = jobs.anchor_sets();
    let cfg = &prep.cfg;
    let requests = jobs.requests();

    // Untraced and traced operations, interleaved. On a pair workload the
    // traced operation is the pipeline pass that also reads the pool
    // counters; on serve_burst it is the served pass with a span per burst.
    let mut quiet = Tracer::new(false);
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut served = None;
    let mut layer: Option<Pass> = None;
    let t0 = Instant::now();
    while plain.len() < 2 || t0.elapsed().as_secs_f64() < seconds / 2.0 {
        let op = tr.span("bench.untraced_op", None, |_| {
            run::run_op(&prep, &jobs, cfg, &mut quiet)
        });
        plain.push(op.wall_s);
        out.attempted += op.attempted;
        out.failed += op.failed;
        if serve {
            let op = run::run_op(&prep, &jobs, cfg, &mut tr);
            spanned.push(op.wall_s);
            out.attempted += op.attempted;
            out.failed += op.failed;
            served = Some(op);
        } else {
            let pass = pipeline_pass(&prep, &sets, cfg, "pipeline.run", &mut tr);
            spanned.push(pass.wall_s);
            if let Some(prev) = &layer {
                if signature(&prev.reports[0]) != signature(&pass.reports[0]) {
                    out.mismatch("two pipeline runs of the same anchors differ".into());
                }
            }
            layer = Some(pass);
        }
    }

    // serve_burst: the pipeline layer of a served pass is its requests
    // run one by one, timed burst by burst beside the service itself.
    let mut overhead = Vec::new();
    let pipeline_wall = match &jobs {
        run::Jobs::Serve(bursts) => {
            let mut walls = Vec::new();
            for _ in 0..SERVE_ROUNDS {
                let (served_s, pass) = serve_round(&prep, bursts, cfg, &mut tr);
                overhead.push((served_s - pass.wall_s) / requests as f64 * 1e3);
                walls.push(pass.wall_s);
                layer = Some(pass);
            }
            median(&walls)
        }
        run::Jobs::Pair(_) => median(&spanned),
    };
    let Pass { reports, pool, .. } = layer.expect("at least one pipeline pass ran");

    // Self-test: the counts and modeled bits must not depend on threads.
    // The serial pass also splits its own wall time into engine phases
    // and the rest.
    let serial_cfg = FastZConfig {
        sim_threads: 1,
        ..cfg.clone()
    };
    let serial = pipeline_pass(&prep, &sets, &serial_cfg, "pipeline.serial", &mut tr);
    if reports
        .iter()
        .zip(&serial.reports)
        .any(|(a, b)| signature(a) != signature(b))
    {
        out.mismatch(format!(
            "pipeline reports differ between sim_threads {threads} and 1"
        ));
    }
    let serial_s = serial.wall_s;
    let other_s = serial_s - serial.engine_s;
    if other_s.is_nan() || other_s < 0.0 {
        out.mismatch(format!(
            "pipeline.other_s is {other_s}: the serial pass's phase marks are missing or out of order"
        ));
    }

    let eng = tr.span("engine.replay", None, |_| replay_engine(&prep, &sets, cfg));
    let insp_cells: u64 = reports.iter().map(|r| r.stats.inspector.total.cells).sum();
    let exec_cells: u64 = reports.iter().map(|r| r.stats.executor.total.cells).sum();
    if (insp_cells, exec_cells) != (eng.inspector_cells, eng.executor_cells) {
        out.mismatch(format!(
            "engine replay cells {}+{} differ from the pipeline's {insp_cells}+{exec_cells}",
            eng.inspector_cells, eng.executor_cells
        ));
    }

    let first = [sets[0][0]];
    let fixed: Vec<f64> = (0..21)
        .map(|_| pipeline_pass(&prep, &[&first], cfg, "pipeline.fixed", &mut tr).wall_s)
        .collect();

    let span = prep.workload.shape.span();
    let (lastz_s, lastz_cells) = tr.span("align.lastz", None, |_| {
        lastz(&prep.target, &prep.query, &sets, span, cfg)
    });

    let mut sv = ServeLayer::default();
    if let Some(op) = &served {
        sv.overhead_ms = median(&overhead);
        for r in &op.serve {
            sv.merged_launches += r.merged_launches as f64;
            sv.fills.extend_from_slice(&r.bin_fills);
            sv.batched_exec_s += r.batched_exec_s;
            sv.solo_exec_s += r.solo_exec_s;
            sv.peak_depth = sv.peak_depth.max(r.peak_depth as f64);
            sv.shed += r.count("shed-error") as f64;
            sv.degraded += r.count("degraded") as f64;
        }
        // The deduped union of the served alignments must equal one run
        // over the same anchors.
        let union: Vec<Anchor> = sets.concat();
        let whole = pipeline_pass(&prep, &[&union], cfg, "pipeline.union", &mut tr);
        let whole = dedupe_alignments(whole.reports[0].alignments.clone());
        if checksum(&whole) != checksum(&op.alignments) || whole.len() != op.alignments.len() {
            out.mismatch(format!(
                "served union has {} alignments, one run over the same anchors {}",
                op.alignments.len(),
                whole.len()
            ));
        }
        let one = tr.span("serve.serial_pass", None, |_| {
            run::run_op(&prep, &jobs, &serial_cfg, &mut quiet)
        });
        let classes = |o: &run::OpResult| -> Vec<_> {
            o.serve
                .iter()
                .map(|r| (r.outcome_classes(), r.makespan_s.to_bits()))
                .collect()
        };
        if classes(op) != classes(&one) {
            out.mismatch(format!(
                "serve outcome classes differ between sim_threads {threads} and 1"
            ));
        }
    }

    let wall = tr.now();
    let coverage = tr.coverage(wall);
    if coverage < 0.95 {
        out.mismatch(format!(
            "only {:.1}% of the traced run is inside spans",
            coverage * 100.0
        ));
    }

    let sum = |f: &dyn Fn(&FastZReport) -> f64| reports.iter().map(f).sum::<f64>();
    let problems = sum(&|r| r.stats.problems as f64);
    let engine_s = eng.inspector_s + eng.executor_s;
    let raw = prep.workload.raw_anchors.max(1) as f64;

    out.metric("genome.parse_s", tr.total("genome.parse"), "s");
    out.metric("seed.index_build_s", tr.total("seed.index_build"), "s");
    out.metric("seed.index_load_s", tr.total("seed.index_load"), "s");
    out.metric("seed.index_bytes", prep.index_bytes as f64, "B");
    out.metric("seed.anchor_s", tr.total("seed.anchors"), "s");
    out.metric(
        "seed.kept_frac",
        prep.workload.anchors.len() as f64 / raw,
        "frac",
    );
    out.metric("pipeline.wall_s", pipeline_wall, "s");
    out.metric("pipeline.serial_s", serial_s, "s");
    out.metric("pipeline.other_s", other_s, "s");
    out.metric("pipeline.fixed_ms", median(&fixed) * 1e3, "ms");
    out.metric("pipeline.problems", problems, "count");
    out.metric(
        "pipeline.eager_frac",
        sum(&|r| r.stats.eager_resolved as f64) / problems,
        "frac",
    );
    out.metric(
        "pipeline.executor_problems",
        sum(&|r| r.stats.executor_problems as f64),
        "count",
    );
    out.metric(
        "pipeline.alignments",
        sum(&|r| r.alignments.len() as f64),
        "count",
    );
    out.metric(
        "pipeline.bin_eager",
        sum(&|r| r.bin_counts.eager as f64),
        "count",
    );
    for (k, name) in [
        "pipeline.bin_512",
        "pipeline.bin_2048",
        "pipeline.bin_8192",
        "pipeline.bin_32768",
    ]
    .into_iter()
    .enumerate()
    {
        out.metric(name, sum(&|r| r.bin_counts.bins[k] as f64), "count");
    }
    out.metric(
        "pipeline.bin_overflow",
        sum(&|r| r.bin_counts.overflow as f64),
        "count",
    );
    out.metric("engine.inspector_s", eng.inspector_s, "s");
    out.metric("engine.executor_s", eng.executor_s, "s");
    out.metric("engine.inspector_cells", insp_cells as f64, "count");
    out.metric("engine.executor_cells", exec_cells as f64, "count");
    out.metric("engine.steps", eng.steps as f64, "count");
    out.metric(
        "engine.gcups",
        (insp_cells + exec_cells) as f64 / engine_s / 1e9,
        "GCUPS",
    );
    out.metric("engine.max_task_s", eng.max_task_s, "s");
    out.metric("pool.phases", pool.phases as f64, "count");
    out.metric("pool.tasks", pool.tasks as f64, "count");
    out.metric("pool.steals", pool.steals as f64, "count");
    out.metric("pool.occupancy", pool.occupancy(), "frac");
    out.metric("pool.tb_misses", pool.tb_misses as f64, "count");
    out.metric(
        "pool.efficiency",
        serial_s / (threads as f64 * pipeline_wall),
        "frac",
    );
    out.metric(
        "model.inspector_s",
        sum(&|r| r.timeline.seconds("inspector")),
        "s",
    );
    out.metric(
        "model.executor_s",
        sum(&|r| r.timeline.seconds("executor")),
        "s",
    );
    out.metric("model.other_s", sum(&|r| r.timeline.seconds("other")), "s");
    out.metric("serve.overhead_ms", sv.overhead_ms, "ms");
    out.metric("serve.merged_launches", sv.merged_launches, "count");
    let fill = if sv.fills.is_empty() {
        0.0
    } else {
        sv.fills.iter().sum::<f64>() / sv.fills.len() as f64
    };
    out.metric("serve.mean_bin_fill", fill, "frac");
    out.metric("serve.batched_exec_s", sv.batched_exec_s, "s");
    out.metric("serve.solo_exec_s", sv.solo_exec_s, "s");
    out.metric("serve.peak_depth", sv.peak_depth, "count");
    out.metric("serve.shed", sv.shed, "count");
    out.metric("serve.degraded", sv.degraded, "count");
    out.metric("align.lastz_s", lastz_s, "s");
    out.metric(
        "align.lastz_gcups",
        lastz_cells as f64 / lastz_s / 1e9,
        "GCUPS",
    );
    out.metric(
        "trace.overhead_frac",
        median(&spanned) / median(&plain) - 1.0,
        "frac",
    );
    out.metric("trace.coverage", coverage, "frac");
    out.metric("host.calib_s", calib, "s");

    let stem = format!("{}-s{seed}", spec.name);
    let trace_dir = target_dir.join("fzbench-trace");
    tr.write(&trace_dir, &stem, wall)
        .map_err(|e| format!("writing spans: {e}"))?;
    println!(
        "{}: traced run {wall:.2} s, {:.1}% inside spans, spans in {}/{stem}.*.json",
        spec.name,
        coverage * 100.0,
        trace_dir.display()
    );
    if !overhead.is_empty() {
        let list: Vec<String> = overhead.iter().map(|o| format!("{o:.4}")).collect();
        println!("  serve.overhead_ms per round: {}", list.join(" "));
    }
    for (name, s) in tr.self_times() {
        println!("  self {name:<22} {s:>9.4} s");
    }
    Ok(())
}

#[derive(Default)]
struct ServeLayer {
    overhead_ms: f64,
    merged_launches: f64,
    fills: Vec<f64>,
    batched_exec_s: f64,
    solo_exec_s: f64,
    peak_depth: f64,
    shed: f64,
    degraded: f64,
}
