//! `perf` — the repo's benchmark. See `README.md` beside this package.
//!
//! ```text
//! perf --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>] [--smoke]
//! perf --smoke --seed <u64>           all four workloads, tiny, verification on
//! perf --aa <k> --seed <u64>          two sets of k runs per workload, compared
//! perf --self-test                    the runner's own arithmetic on fixtures
//! perf --manifest                     print BENCHMARK.json
//! ```
//!
//! The last line on stdout is one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`. Exit status is non-zero when a result is wrong.

mod aa;
mod inputs;
mod metrics;
mod rig;
mod run;
mod selftest;
mod stats;
mod trace;

use std::process::{Command, ExitCode};

use inputs::{Sizes, Workload};

const USAGE: &str = "usage: perf --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>] \
                     [--smoke] | --smoke --seed <u64> | --aa <k> --seed <u64> | --self-test | \
                     --manifest";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    aa: Option<usize>,
    self_test: bool,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--aa" => args.aa = Some(value()?.parse().map_err(|e| format!("--aa: {e}"))?),
            "--smoke" => args.smoke = true,
            "--self-test" => args.self_test = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Host facts printed with every result: numbers from two hosts, or two
/// toolchains, are not comparable.
fn print_host_facts() {
    let first_line = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().next().map(str::to_string))
            .unwrap_or_else(|| "unknown".into())
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host: nproc {threads}; rayon-shim threads {threads} (spawned per parallel call); {}; \
         commit {}",
        first_line("rustc", &["--version"]),
        first_line("git", &["rev-parse", "--short", "HEAD"])
    );
}

fn print_outcome(outcome: &run::Outcome, seed: u64) {
    println!("workload {} seed {seed}", outcome.workload.name());
    for note in &outcome.notes {
        println!("  {note}");
    }
    for (name, unit, value) in &outcome.metrics {
        println!("  {name} = {value} {unit}");
    }
    println!("  ops_attempted = {}  ops_failed = {}", outcome.attempted, outcome.failed);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perf: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", metrics::manifest());
        return ExitCode::SUCCESS;
    }
    if args.self_test {
        return selftest::run();
    }
    let Some(seed) = args.seed else {
        eprintln!("perf: --seed is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let seconds = args.seconds.unwrap_or(metrics::RUN_SECONDS as f64);
    if let Some(k) = args.aa {
        return aa::run(k, seed, seconds, args.smoke);
    }
    let sizes = if args.smoke { Sizes::smoke() } else { Sizes::full(seconds) };
    let workloads = match &args.workload {
        Some(name) => match Workload::parse(name) {
            Some(workload) => vec![workload],
            None => {
                eprintln!("perf: unknown workload {name}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
        // One workload per process keeps peak_rss_mb that workload's own;
        // only the smoke run, which gates nothing on memory, takes them all.
        None if args.smoke => Workload::ALL.to_vec(),
        None => {
            eprintln!("perf: --workload is required\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    print_host_facts();
    let mut all_correct = true;
    let mut last = String::new();
    for workload in workloads {
        let outcome = run::run(workload, seed, &sizes, args.trace);
        print_outcome(&outcome, seed);
        all_correct &= outcome.correct;
        last = metrics::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics,
        );
    }
    println!("{last}");
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perf: results are wrong (see ops_failed above)");
        ExitCode::FAILURE
    }
}
