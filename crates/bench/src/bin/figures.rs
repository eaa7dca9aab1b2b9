//! Regenerate the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p tdts-bench --bin figures -- [options] <target>...
//!
//! targets: fig4 fig5 fig6 fig7 sweep-fsg sweep-bins sweep-subbins
//!          ablation-indirection ablation-buffer fallback-rate
//!          ablation-workqueue ablation-sharding ablation-routing
//!          scaling-sharding all
//! options: --scale <f>         dataset scale vs the paper (default 1/16)
//!          --no-verify         skip cross-method result-set verification
//!          --trials <n>        trials per measurement (default 2)
//!          --kernel-shape <s>  thread-per-query (default) | warp-per-tile
//!          --tile-size <n>     work-queue tile size in candidate entries
//!                              (default 128; used by warp-per-tile kernels)
//!          --shards <n>        simulated devices the entry database is
//!                              partitioned across (default 1 = unsharded)
//!          --partition <s>     temporal (default) | spatial-grid slab
//!                              orientation for sharded runs
//!          --routing <s>       slab (default) | broadcast query dispatch
//!                              for sharded runs
//!          --slab-mode <s>     uniform (default) | balanced slab edge
//!                              placement for sharded runs
//!          --sanitizer <m>     off (default) | memcheck | racecheck | full;
//!                              the shadow-state device sanitizer (also set
//!                              by the TDTS_SANITIZER env var). Findings
//!                              abort the run.
//! ```

use tdts_bench::{RunConfig, Runner};
use tdts_core::RoutingMode;
use tdts_geom::{PartitionStrategy, SlabMode};
use tdts_gpu_sim::{KernelShape, SanitizerMode};

fn main() {
    let mut cfg = RunConfig::default();
    let mut targets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    if let Some(mode) = SanitizerMode::from_env() {
        cfg.device.sanitizer = mode;
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().expect("--scale needs a value");
                cfg.scale = v.parse().expect("--scale must be a float in (0, 1]");
            }
            "--no-verify" => cfg.verify = false,
            "--trials" => {
                let v = args.next().expect("--trials needs a value");
                cfg.trials = v.parse().expect("--trials must be a positive integer");
            }
            "--kernel-shape" => {
                let v = args.next().expect("--kernel-shape needs a value");
                cfg.device.kernel_shape = match v.as_str() {
                    "thread-per-query" => KernelShape::ThreadPerQuery,
                    "warp-per-tile" => KernelShape::WarpPerTile,
                    other => {
                        eprintln!(
                            "--kernel-shape must be thread-per-query or warp-per-tile, got {other}"
                        );
                        std::process::exit(2);
                    }
                };
            }
            "--tile-size" => {
                let v = args.next().expect("--tile-size needs a value");
                cfg.device.tile_size = v.parse().expect("--tile-size must be a positive integer");
            }
            "--shards" => {
                let v = args.next().expect("--shards needs a value");
                cfg.shards = v.parse().expect("--shards must be a positive integer");
                if cfg.shards == 0 {
                    eprintln!("--shards must be at least 1");
                    std::process::exit(2);
                }
            }
            "--partition" => {
                let v = args.next().expect("--partition needs a value");
                cfg.partition = PartitionStrategy::parse(&v).unwrap_or_else(|| {
                    eprintln!("--partition must be temporal or spatial-grid, got {v}");
                    std::process::exit(2);
                });
            }
            "--routing" => {
                let v = args.next().expect("--routing needs a value");
                cfg.routing = RoutingMode::parse(&v).unwrap_or_else(|| {
                    eprintln!("--routing must be slab or broadcast, got {v}");
                    std::process::exit(2);
                });
            }
            "--slab-mode" => {
                let v = args.next().expect("--slab-mode needs a value");
                cfg.slab_mode = SlabMode::parse(&v).unwrap_or_else(|| {
                    eprintln!("--slab-mode must be uniform or balanced, got {v}");
                    std::process::exit(2);
                });
            }
            "--sanitizer" => {
                let v = args.next().expect("--sanitizer needs a value");
                cfg.device.sanitizer = SanitizerMode::parse(&v)
                    .expect("--sanitizer must be off, memcheck, racecheck, or full");
            }
            other if other.starts_with("--") => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
            target => targets.push(target.to_string()),
        }
    }
    if targets.is_empty() {
        eprintln!(
            "usage: figures [--scale f] [--no-verify] [--trials n] [--kernel-shape s] \
             [--tile-size n] [--shards n] [--partition s] [--routing s] [--slab-mode s] \
             [--sanitizer m] \
             <fig4|fig5|fig6|fig7|sweep-fsg|sweep-bins|sweep-subbins|\
             ablation-indirection|ablation-buffer|fallback-rate|future-trends|batched|ablation-sort|crossover|ablation-write|ablation-workqueue|ablation-sharding|ablation-routing|scaling-sharding|all>..."
        );
        std::process::exit(2);
    }
    if targets.iter().any(|t| t == "all") {
        targets = [
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "sweep-fsg",
            "sweep-bins",
            "sweep-subbins",
            "ablation-indirection",
            "ablation-buffer",
            "fallback-rate",
            "future-trends",
            "batched",
            "ablation-sort",
            "crossover",
            "ablation-write",
            "ablation-workqueue",
            "ablation-sharding",
            "ablation-routing",
            "scaling-sharding",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    println!("# tdts figures — scale {:.5} of paper sizes, device: {}", cfg.scale, cfg.device.name);
    if cfg.shards > 1 {
        println!(
            "# sharded: {} simulated devices, {} partition, {} routing, {} slabs",
            cfg.shards, cfg.partition, cfg.routing, cfg.slab_mode
        );
    }
    let runner = Runner::new(cfg);
    for t in &targets {
        match t.as_str() {
            "fig4" => runner.fig4(),
            "fig5" => runner.fig5(),
            "fig6" => runner.fig6(),
            "fig7" => runner.fig7(),
            "sweep-fsg" => runner.sweep_fsg(),
            "sweep-bins" => runner.sweep_bins(),
            "sweep-subbins" => runner.sweep_subbins(),
            "ablation-indirection" => runner.ablation_indirection(),
            "ablation-buffer" => runner.ablation_buffer(),
            "fallback-rate" => runner.fallback_rate(),
            "future-trends" => runner.future_trends(),
            "batched" => runner.batched(),
            "ablation-sort" => runner.ablation_sort(),
            "crossover" => runner.crossover(),
            "ablation-write" => runner.ablation_write(),
            "ablation-workqueue" => runner.ablation_workqueue(),
            "ablation-sharding" => runner.ablation_sharding(),
            "ablation-routing" => runner.ablation_routing(),
            "scaling-sharding" => runner.scaling_sharding(),
            other => {
                eprintln!("unknown target {other}");
                std::process::exit(2);
            }
        };
    }
}
