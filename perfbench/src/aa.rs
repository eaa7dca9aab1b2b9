//! `--aa <k>`: the same code measured twice. Two sets of `k` runs of each
//! workload, back to back, one process per run (so `peak_rss_mb` is each
//! run's own), run `i` of either set seeded `seed + i`. Per end-to-end
//! metric the report shows both set medians, how much worse the second is
//! than the first, each set's inter-quartile spread, and the bound — the
//! same two checks the acceptance harness makes. Non-zero exit if a metric
//! fails either (the spread check spares `setup_s`, as the harness does).

use std::process::{Command, ExitCode};

use crate::inputs::Workload;
use crate::metrics::END_TO_END;
use crate::stats::{iqr_spread, median, worsening};

/// Read `"<name>": {"value": <number>` out of a result line.
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// One run in a child process; its end-to-end metrics in gate order.
fn child_run(workload: Workload, seed: u64, seconds: f64, smoke: bool) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command.args(["--workload", workload.name(), "--seed", &seed.to_string()]);
    command.args(["--seconds", &seconds.to_string(), "--trace", "0"]);
    if smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !output.status.success() || !line.contains("\"correct\": true") {
        return Err(format!("{} seed {seed}: run failed: {line}", workload.name()));
    }
    END_TO_END
        .iter()
        .map(|g| metric_value(line, g.name).ok_or_else(|| format!("no {} in {line}", g.name)))
        .collect()
}

pub fn run(k: usize, seed: u64, seconds: f64, smoke: bool) -> ExitCode {
    if k < 2 {
        eprintln!("perf: --aa needs at least 2 runs per set");
        return ExitCode::from(2);
    }
    println!("# A/A check: 2 sets x {k} runs per workload, seeds {seed}..{}", seed + k as u64 - 1);
    println!();
    println!("| workload | metric | median A | median B | B worse by | spread A | spread B | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut ok = true;
    let mut identical = Vec::new();
    for workload in Workload::ALL {
        // sets[set][metric] = that metric's k values
        let mut sets = vec![vec![Vec::with_capacity(k); END_TO_END.len()]; 2];
        for set in &mut sets {
            for i in 0..k as u64 {
                match child_run(workload, seed + i, seconds, smoke) {
                    Ok(values) => {
                        for (samples, value) in set.iter_mut().zip(values) {
                            samples.push(value);
                        }
                    }
                    Err(error) => {
                        eprintln!("perf: {error}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        for (m, gate) in END_TO_END.iter().enumerate() {
            let (a, b) = (&sets[0][m], &sets[1][m]);
            let worse = worsening(median(a), median(b), gate.lower_is_better);
            let (spread_a, spread_b) = (iqr_spread(a), iqr_spread(b));
            let steady = gate.name == "setup_s" || spread_a.max(spread_b) <= gate.bound;
            let pass = worse <= gate.bound && steady;
            ok &= pass;
            println!(
                "| {} | {} | {:.6} | {:.6} | {:+.2}% | {:.2}% | {:.2}% | {:.0}% | {} |",
                workload.name(),
                gate.name,
                median(a),
                median(b),
                worse * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
                gate.bound * 100.0,
                if pass { "ok" } else { "FAIL" }
            );
            if gate.name == "sim_device_s" {
                // Same seeds, same code: the simulated clock must not move.
                let same = a.iter().zip(b).filter(|(x, y)| x.to_bits() == y.to_bits()).count();
                identical.push(format!("{}: {same}/{k}", workload.name()));
            }
        }
    }
    println!();
    println!("sim_device_s bit-identical between the sets, runs: {}", identical.join(", "));
    println!();
    println!("{}", if ok { "A/A: every metric within its bound" } else { "A/A: FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
