//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tpch-adaptive|tpch-brj|spill-stream|serve-mix|all> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--steady RUNS]
//! ```
//!
//! One workload per process, so that its peak RSS is its own. The last line
//! of standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. `--workload all` runs every workload in a
//! child process of its own; `--steady RUNS` does that for two sets of
//! `RUNS` seeds and prints each end-to-end metric's median and quartile
//! spread per set (see README.md).

mod host;
mod layers;
mod serve;
mod spill;
mod stats;
mod tpch;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// The workloads, in the order `all` and `--steady` run them.
const WORKLOADS: [&str; 4] = ["tpch-adaptive", "tpch-brj", "spill-stream", "serve-mix"];

/// The end-to-end metrics every workload reports, in output order.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "p50_ms",
    "geomean_ms",
    "tuples_per_s",
    "peak_rss_mib",
];

/// One named measurement.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every answer check passed.
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON result (reference
    /// figures that are not gated, check details).
    pub notes: Vec<String>,
}

/// Run options shared by every workload.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout (spill files); removed on exit.
    pub work_dir: PathBuf,
}

/// In the traced run, which arm operation `i` belongs to (`Some(true)`:
/// profiler and tracer on). The first operation warms caches up and
/// belongs to neither arm; after it the arms alternate untraced, traced,
/// traced, untraced, so that neither always runs first. A traced run makes
/// at least [`MIN_TRACED_OPS`] operations.
pub fn traced_arm(i: usize) -> Option<bool> {
    (i > 0).then(|| matches!((i - 1) % 4, 1 | 2))
}

pub const MIN_TRACED_OPS: usize = 5;

/// Median set-up time of a run: `first` is the set-up the run used;
/// `again` sets up (and tears down) once more and returns the seconds the
/// set-up took. The repeats run after the run's peak RSS was read, so they
/// do not raise it.
pub fn setup_median(first: f64, reps: usize, mut again: impl FnMut() -> f64) -> f64 {
    let mut secs = vec![first];
    secs.extend((1..reps).map(|_| again()));
    stats::median(&secs)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        steady: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                }
            }
            "--steady" => {
                let runs: usize = value()?.parse().map_err(|e| format!("--steady: {e}"))?;
                if !(1..=50).contains(&runs) {
                    return Err("--steady expects 1..=50 runs per set".into());
                }
                args.steady = Some(runs);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.steady {
        return steady(&args, runs);
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    run_one(&args)
}

fn run_one(args: &Args) -> ExitCode {
    println!("{}", host::fingerprint());
    let work_dir = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        return ExitCode::FAILURE;
    }
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work_dir: work_dir.clone(),
    };
    let outcome = match args.workload.as_str() {
        "tpch-adaptive" => tpch::run(&opts, joinstudy_core::JoinAlgo::Adaptive),
        "tpch-brj" => tpch::run(&opts, joinstudy_core::JoinAlgo::Brj),
        "spill-stream" => spill::run(&opts),
        "serve-mix" => serve::run(&opts),
        _ => unreachable!("workload names are checked in parse_args"),
    };
    // Remove the run's scratch directory, and the parent if no concurrent
    // run still uses it.
    std::fs::remove_dir_all(&work_dir).ok();
    std::fs::remove_dir(".bench_work").ok();

    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{} operations attempted, {} failed, answers {}",
        outcome.attempted,
        outcome.failed,
        if outcome.correct { "correct" } else { "WRONG" }
    );
    println!("{}", result_json(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The result line. Metric values are printed with every digit Rust's
/// shortest round-trip formatting gives; a value that could not be
/// measured is written as 0 so the line stays valid JSON.
fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// Run one workload in a child process of this same binary; returns the
/// child's result line, or `None` if it failed or printed none.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool, echo: bool) -> Option<String> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{stdout}");
    }
    if !out.status.success() {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        return None;
    }
    stdout.lines().last().map(str::to_string)
}

fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        println!("== {w}");
        ok &= child(w, args.seed, args.seconds, args.trace, true).is_some();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Pull `"<name>": {"value": <number>` out of a result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let at = line.find(&format!("\"{name}\": {{\"value\": "))?;
    let rest = &line[at + name.len() + 14..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Two sets of `runs` runs per workload, each run with its own seed; print
/// each end-to-end metric's median and quartile spread per set, and how
/// far the second median lies from the first.
fn steady(args: &Args, runs: usize) -> ExitCode {
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    println!("{}", host::fingerprint());
    let mut ok = true;
    for w in workloads {
        let mut sets: Vec<Vec<Vec<f64>>> = Vec::new();
        for set in 0..2u64 {
            let mut values = vec![Vec::new(); END_TO_END.len()];
            for i in 0..runs as u64 {
                let seed = args.seed + set * 1000 + i;
                let Some(line) = child(w, seed, args.seconds, false, false) else {
                    eprintln!("{w}: run with seed {seed} failed");
                    ok = false;
                    continue;
                };
                let mut run = format!("{w} set {} seed {seed}:", set + 1);
                for (k, name) in END_TO_END.iter().enumerate() {
                    let v = metric_value(&line, name);
                    run.push_str(&format!(" {name}={}", v.unwrap_or(f64::NAN)));
                    values[k].extend(v);
                }
                println!("{run}");
            }
            sets.push(values);
        }
        println!("== {w} ({runs} runs per set, {} s each)", args.seconds);
        println!(
            "{:<14} {:>14} {:>8} {:>14} {:>8} {:>8}",
            "metric", "median 1", "spread", "median 2", "spread", "drift"
        );
        for (k, name) in END_TO_END.iter().enumerate() {
            let (a, b) = (&sets[0][k], &sets[1][k]);
            let (ma, mb) = (stats::median(a), stats::median(b));
            println!(
                "{name:<14} {ma:>14.4} {:>7.1}% {mb:>14.4} {:>7.1}% {:>+7.1}%",
                100.0 * stats::spread(a),
                100.0 * stats::spread(b),
                100.0 * (mb / ma - 1.0)
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
