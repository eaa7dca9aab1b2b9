//! `--self-test`: the runner's own arithmetic on fixed fixtures, the
//! manifest against the harness limits, and proof that verification
//! catches a corrupted record. Cargo's `#[test]` would need a second
//! target; this keeps the package one binary the benchmark command builds.

use std::process::ExitCode;

use tdts_core::{PreparedDataset, SearchEngine};
use tdts_geom::MatchRecord;
use tdts_gpu_sim::Device;

use crate::aa::metric_value;
use crate::inputs::{Inputs, Sizes, Workload, D, RESULT_CAPACITY};
use crate::metrics::{manifest, result_line, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::run::verify_direct;
use crate::stats::{iqr_spread, median, percentile, quartiles, worsening};
use crate::trace::{render_json, self_times, Span, Tracer};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn check_statistics() -> Result<(), String> {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let ok = close(median(&ten), 5.5)
        && close(percentile(&ten, 0.9), 9.1)
        && close(percentile(&[], 0.5), 0.0)
        // Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        && quartiles(&ten) == (2.75, 8.25)
        && close(iqr_spread(&ten), 1.0)
        && close(worsening(10.0, 11.0, true), 0.1)
        && close(worsening(10.0, 11.0, false), -0.1);
    ok.then_some(()).ok_or_else(|| "percentile / quartile arithmetic".into())
}

fn check_self_time() -> Result<(), String> {
    let span = |start, end, parent| Span { name: "s", start, end, parent, op: 0 };
    // A root with two children, one of which has a child of its own: the
    // grandchild is charged to its parent only.
    let spans = [
        span(0.0, 10.0, None),
        span(1.0, 3.0, Some(0)),
        span(4.0, 8.0, Some(0)),
        span(5.0, 6.0, Some(2)),
    ];
    let own = self_times(&spans);
    let fixture = [4.0, 2.0, 3.0, 1.0].iter().zip(&own).all(|(want, got)| close(*want, *got));
    let mut tr = Tracer::new(true);
    let outer = tr.begin("outer");
    tr.time("inner", || ());
    tr.end(outer);
    let nested = tr.spans().len() == 2
        && tr.spans()[1].parent == Some(0)
        && render_json(tr.spans()).matches("\"name\"").count() == 2;
    let mut off = Tracer::new(false);
    off.time("ignored", || ());
    (fixture && nested && off.spans().is_empty())
        .then_some(())
        .ok_or_else(|| "span self-time arithmetic".into())
}

fn check_json() -> Result<(), String> {
    let line = result_line(true, 7, 0, &[("op_p50_ms", "ms", 1.25), ("setup_s", "s", f64::NAN)]);
    let want = "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": \
                {\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
                \"setup_s\": {\"value\": 0, \"unit\": \"s\"}}}";
    let parsed = metric_value(&line, "op_p50_ms") == Some(1.25)
        && metric_value(&line, "setup_s") == Some(0.0)
        && metric_value(&line, "absent").is_none();
    (line == want && parsed).then_some(()).ok_or(format!("result line: {line}"))
}

/// The limits the harness puts on `BENCHMARK.json`.
fn check_manifest() -> Result<(), String> {
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    names.extend(END_TO_END.iter().map(|g| g.name));
    names.extend(PER_LAYER.iter().map(|m| m.0));
    let distinct: std::collections::BTreeSet<&str> = names.iter().copied().collect();
    let ok = names.iter().all(|n| valid_name(n))
        && distinct.len() == names.len()
        && WORKLOADS.iter().all(|w| w.1.len() <= 200 && !w.1.contains('\n'))
        && END_TO_END.iter().all(|g| valid_unit(g.unit) && g.bound > 0.0 && g.bound <= 0.25)
        && END_TO_END.iter().any(|g| g.name == "setup_s" && g.unit == "s" && g.lower_is_better)
        && END_TO_END.iter().all(|g| g.bound <= END_TO_END[0].bound)
        && PER_LAYER.iter().all(|m| valid_unit(m.1))
        && PER_LAYER.len() <= 128
        && (1..=60).contains(&RUN_SECONDS)
        && manifest().len() <= 64 * 1024;
    if !ok {
        return Err("manifest breaks a harness limit".into());
    }
    // From the repo root the committed file must be the rendered one.
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(file) if file != manifest() => {
            Err("BENCHMARK.json differs from `perf --manifest`".into())
        }
        _ => Ok(()),
    }
}

/// A single flipped record must fail verification; the untouched results
/// must pass it.
fn check_corruption_is_caught() -> Result<(), String> {
    let workload = Workload::BatchTemporal;
    let inputs = Inputs::generate(workload, 1, &Sizes::smoke());
    let dataset = PreparedDataset::new(inputs.base.clone());
    let device = Device::new(workload.device()).map_err(|e| e.to_string())?;
    let engine =
        SearchEngine::build(&dataset, workload.method(), device).map_err(|e| e.to_string())?;
    let mut results: Vec<Vec<MatchRecord>> = Vec::new();
    for queries in &inputs.query_sets {
        results.push(engine.search(queries, D, RESULT_CAPACITY).map_err(|e| e.to_string())?.0);
    }
    if verify_direct(&inputs, &results) != 0 {
        return Err("clean results failed verification".into());
    }
    let victim = results.iter_mut().find(|r| !r.is_empty()).ok_or("no matches to corrupt")?;
    victim[0].entry ^= 1;
    if verify_direct(&inputs, &results) == 0 {
        return Err("a corrupted record passed verification".into());
    }
    Ok(())
}

type Check = fn() -> Result<(), String>;

pub fn run() -> ExitCode {
    let checks: [(&str, Check); 5] = [
        ("statistics", check_statistics),
        ("self time", check_self_time),
        ("json", check_json),
        ("manifest", check_manifest),
        ("corrupted record", check_corruption_is_caught),
    ];
    let mut failed = 0;
    for (name, check) in checks {
        match check() {
            Ok(()) => println!("self-test {name}: ok"),
            Err(why) => {
                println!("self-test {name}: FAILED ({why})");
                failed += 1;
            }
        }
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
