//! Regenerate the paper's tables and figures: one target per name in
//! `tdts_bench::TARGETS`. Run without arguments for the options.
//!
//! ```sh
//! cargo run --release -p tdts-bench --bin figures -- [options] <target>...
//! cargo run --release -p tdts-bench --bin figures -- --list
//! ```

use tdts_bench::{names, run, select, RunConfig};
use tdts_geom::{scan_isa, PartitionStrategy};
use tdts_gpu_sim::{KernelShape, SanitizerMode};

const OPTIONS: &str = "  --list              print the target names and exit
  --scale <f>         dataset scale vs the paper (default 1/16)
  --no-verify         skip cross-arm result-set verification
  --kernel-shape <s>  thread-per-query (default) | warp-per-tile
  --tile-size <n>     work-queue tile size in candidate entries (default 128;
                      used by warp-per-tile kernels)
  --shards <n>        simulated devices the entry database is partitioned
                      across (default 1 = unsharded)
  --partition <s>     temporal (default) | spatial-grid slab orientation
  --sanitizer <m>     off (default) | full: the shadow-state device
                      sanitizer. Findings abort the run.";

fn exit_usage(why: &str) -> ! {
    eprintln!("{why}\nusage: figures [options] <{}|all>...\n{OPTIONS}", names().join("|"));
    std::process::exit(2);
}

/// The value of option `flag`, which must parse as `expects` describes.
fn value<T>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    expects: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> T {
    let parsed = args.next().and_then(|v| parse(&v));
    parsed.unwrap_or_else(|| exit_usage(&format!("{flag} must be {expects}")))
}

fn main() {
    let mut cfg = RunConfig::default();
    let mut targets: Vec<&str> = Vec::new();
    let positive = |v: &str| v.parse().ok().filter(|&n| n > 0);
    let args = &mut std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let shard = &mut cfg.sharding;
        match arg.as_str() {
            "--list" => return names().iter().for_each(|name| println!("{name}")),
            "--scale" => {
                let in_range = |v: &str| v.parse().ok().filter(|s| *s > 0.0 && *s <= 1.0);
                cfg.scale = value(args, "--scale", "a float in (0, 1]", in_range);
            }
            "--no-verify" => cfg.verify = false,
            "--kernel-shape" => {
                let expects = "thread-per-query or warp-per-tile";
                cfg.device.kernel_shape = value(args, "--kernel-shape", expects, |v| match v {
                    "thread-per-query" => Some(KernelShape::ThreadPerQuery),
                    "warp-per-tile" => Some(KernelShape::WarpPerTile),
                    _ => None,
                });
            }
            "--tile-size" => {
                cfg.device.tile_size = value(args, "--tile-size", "a positive integer", positive)
            }
            "--shards" => shard.shards = value(args, "--shards", "a positive integer", positive),
            "--partition" => {
                let expects = "temporal or spatial-grid";
                shard.partition = value(args, "--partition", expects, PartitionStrategy::parse);
            }
            "--sanitizer" => {
                cfg.device.sanitizer =
                    value(args, "--sanitizer", "off or full", SanitizerMode::parse)
            }
            arg => match select(arg) {
                Some(selected) => targets.extend(selected),
                None if arg.starts_with("--") => exit_usage(&format!("unknown option {arg}")),
                None => exit_usage(&format!("unknown target {arg}")),
            },
        }
    }
    if targets.is_empty() {
        exit_usage("no target given");
    }

    println!(
        "# tdts figures — scale {:.5} of paper sizes, device: {}, host scan pre-test: {}",
        cfg.scale,
        cfg.device.name,
        scan_isa()
    );
    let shard = cfg.sharding;
    if shard.shards > 1 {
        println!("# sharded: {} simulated devices, {} partition", shard.shards, shard.partition);
    }
    for target in targets {
        // Configuration problems, sanitizer findings, diverging result sets
        // and failed shape checks all end the run: a table built on any of
        // them is worse than no table.
        if let Err(why) = run(&cfg, target).and_then(|ran| ran.shape) {
            eprintln!("[harness] error: {target}: {why}");
            std::process::exit(1);
        }
    }
}
