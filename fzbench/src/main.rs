//! fzbench: the end-to-end and per-layer benchmark of the FastZ system.
//!
//! ```text
//! cargo run --release --manifest-path fzbench/Cargo.toml -- \
//!     --workload similar_pair|divergent_pair|serve_burst \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! The process generates the workload's genome pair from `--seed` as
//! FASTA (untimed) into a per-process directory under the Cargo target
//! directory, then runs the measurement in a child process that reads
//! only those files, so `peak_rss_mib` is the workload's own `VmHWM`.
//!
//! * `--trace 0` reports the end-to-end metrics `setup_s`,
//!   `align_wall_s` and `peak_rss_mib`, and prints `modeled_gpu_s`,
//!   `fail_frac` and (on `serve_burst`) request latency percentiles with
//!   their sample counts.
//! * `--trace 1` runs the workload again with spans around every call
//!   into a layer and prints the per-layer metrics; spans are written to
//!   `<target>/fzbench-trace/` as JSON and as a Chrome trace.
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object `{correct, attempted, failed, metrics}`. Any failed
//! check makes the exit code non-zero. `WORKLOADS.md` describes the
//! workloads, checks and per-layer metrics.

mod layers;
mod run;
mod span;
mod spec;
mod verify;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the child: the directory holding the generated inputs.
    child: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: spec::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        child: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--child" => args.child = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The result object a run prints last.
pub struct Output {
    pub attempted: usize,
    pub failed: usize,
    correct: bool,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Output {
    fn new() -> Output {
        Output {
            attempted: 0,
            failed: 0,
            correct: true,
            metrics: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.mismatch(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push((name, value, unit));
    }

    /// Records a failed check.
    pub fn mismatch(&mut self, msg: String) {
        eprintln!("fzbench: CHECK FAILED: {msg}");
        self.correct = false;
    }

    fn ok(&self) -> bool {
        self.correct && self.failed == 0 && self.attempted > 0
    }

    fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.ok(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// The Cargo target directory this binary was built into.
fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{}: not inside a target directory", exe.display()))
}

fn parent(args: &Args, spec: &spec::Spec) -> Result<ExitCode, String> {
    let work =
        target_dir()?
            .join("fzbench-work")
            .join(format!("{}-{}", spec.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = (|| {
        let (t_bp, q_bp) = spec::write_inputs(spec, args.seed, &work)
            .map_err(|e| format!("writing inputs: {e}"))?;
        println!(
            "{}: {} at scale 1/{} ({t_bp} + {q_bp} bp), scoring {}, seed {}",
            spec.name, spec.pair, spec.scale.divisor, spec.scoring_name, args.seed
        );
        if spec.kind == spec::Kind::Serve && !args.trace {
            run::presave_index(&work, &mut span::Tracer::new(false))?;
        }
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let status = Command::new(exe)
            .args(["--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--child")
            .arg(&work)
            .status()
            .map_err(|e| format!("spawning the measurement: {e}"))?;
        Ok(if status.success() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        })
    })();
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn child(args: &Args, spec: &spec::Spec, dir: &Path) -> Result<ExitCode, String> {
    let mut out = Output::new();
    if args.trace {
        layers::traced(spec, dir, args.seed, args.seconds, &target_dir()?, &mut out)?;
    } else {
        run::untraced(spec, dir, args.seed, args.seconds, &mut out)?;
    }
    println!("{}", out.json());
    Ok(if out.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        let spec = spec::find(&args.workload).ok_or_else(|| {
            let names: Vec<_> = spec::SPECS.iter().map(|s| s.name).collect();
            format!("--workload must be one of {}", names.join(", "))
        })?;
        match &args.child {
            Some(dir) => child(&args, &spec, dir),
            None => parent(&args, &spec),
        }
    });
    result.unwrap_or_else(|msg| {
        eprintln!("fzbench: {msg}");
        ExitCode::from(2)
    })
}
