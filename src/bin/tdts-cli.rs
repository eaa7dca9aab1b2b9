//! Command-line interface to the trajectory distance threshold search.
//!
//! ```sh
//! tdts-cli generate --dataset random --scale 0.01 --out /tmp/d.csv
//! tdts-cli search   --dataset random --scale 0.01 --method spatiotemporal --d 10
//! tdts-cli info     --dataset merger --scale 0.01
//! tdts-cli serve    --dataset merger --scale 0.01 --method temporal --d 5
//! tdts-cli replay   --dataset merger --scale 0.01 --queries 64 --clients 64
//! tdts-cli stream   --dataset merger --scale 0.01 --method spatial --d 5 \
//!                   --ticks 10 --tick-segments 200 --verify
//! ```

use std::time::{Duration, Instant};
use tdts::prelude::*;

fn usage() -> ! {
    eprintln!(
        "usage: tdts-cli <command> [options]\n\
         \n\
         commands:\n\
         \u{20}  generate   generate a dataset and write it as CSV\n\
         \u{20}  search     run a distance threshold search\n\
         \u{20}  info       print dataset statistics\n\
         \u{20}  serve      run the query service over per-trajectory requests\n\
         \u{20}  replay     replay concurrent clients through the service and\n\
         \u{20}             compare with sequential single-request engine calls\n\
         \u{20}  stream     stream object updates through a windowed service: per\n\
         \u{20}             tick one window advance (append + expiry cut) and one\n\
         \u{20}             request, reporting advance/search cost; --shards and\n\
         \u{20}             --workers are honoured\n\
         \n\
         options:\n\
         \u{20}  --dataset <random|dense|merger>   (default random)\n\
         \u{20}  --scale <f>                       dataset scale (default 0.01)\n\
         \u{20}  --method <rtree|spatial|temporal|spatiotemporal>\n\
         \u{20}                                    (default spatiotemporal)\n\
         \u{20}  --d <f>                           query distance (default 10)\n\
         \u{20}  --queries <n>                     query trajectories (default 10)\n\
         \u{20}  --bins <n>                        temporal bins (default 1000)\n\
         \u{20}  --subbins <n>                     spatial subbins (default 4)\n\
         \u{20}  --kernel-shape <s>                thread-per-query (default) or\n\
         \u{20}                                    warp-per-tile (work-queue kernels)\n\
         \u{20}  --tile-size <n>                   candidate entries per work-queue\n\
         \u{20}                                    tile (default 128)\n\
         \u{20}  --sanitizer <off|full>            shadow-state device sanitizer\n\
         \u{20}                                    (default off)\n\
         \u{20}  --shards <n>                      simulated devices the entry database\n\
         \u{20}                                    is partitioned across in temporal\n\
         \u{20}                                    slabs (default 1)\n\
         \u{20}  --clients <n>                     concurrent replay clients (default 16)\n\
         \u{20}  --request-size <n>                query segments per client request\n\
         \u{20}                                    (default 0 = one whole trajectory)\n\
         \u{20}  --requests <n>                    cap on replayed requests (default 0 = all)\n\
         \u{20}  --workers <n>                     service worker threads (default 2)\n\
         \u{20}  --max-batch <n>                   queries per coalesced batch (default 256)\n\
         \u{20}  --max-delay-ms <f>                batch flush delay (default 2)\n\
         \u{20}  --deadline-ms <f>                 per-request deadline (default none)\n\
         \u{20}  --queue-capacity <n>              admission bound (default 1024)\n\
         \u{20}  --out <path>                      output file for generate\n\
         \u{20}  --ticks <n>                       stream ticks to run (default 8)\n\
         \u{20}  --tick-segments <n>               segments appended per tick (default\n\
         \u{20}                                    0 = 5% of the base dataset)\n\
         \u{20}  --window <f>                      sliding retention window (default\n\
         \u{20}                                    half the base time span)\n\
         \u{20}  --advance-every <n>               ticks between expiry cuts (default 1)\n\
         \u{20}  --verify                          check results against brute force\n\
         \u{20}                                    (stream: against a cold rebuild)"
    );
    std::process::exit(2);
}

fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("error: {e}");
    std::process::exit(1);
}

struct Opts {
    command: String,
    dataset: String,
    scale: f64,
    method: String,
    d: f64,
    queries: usize,
    bins: usize,
    subbins: usize,
    kernel_shape: KernelShape,
    tile_size: usize,
    sanitizer: SanitizerMode,
    /// Handed unchanged to `search` and to the service commands.
    sharding: ShardedIndexConfig,
    clients: usize,
    request_size: usize,
    requests: usize,
    workers: usize,
    max_batch: usize,
    max_delay: Duration,
    deadline: Option<Duration>,
    queue_capacity: usize,
    out: Option<String>,
    ticks: usize,
    tick_segments: usize,
    window: Option<f64>,
    advance_every: usize,
    verify: bool,
}

fn parse() -> Opts {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| usage());
    let mut o = Opts {
        command,
        dataset: "random".into(),
        scale: 0.01,
        method: "spatiotemporal".into(),
        d: 10.0,
        queries: 10,
        bins: 1_000,
        subbins: 4,
        kernel_shape: KernelShape::ThreadPerQuery,
        tile_size: 128,
        sanitizer: SanitizerMode::Off,
        sharding: ShardedIndexConfig::default(),
        clients: 16,
        request_size: 0,
        requests: 0,
        workers: 2,
        max_batch: 256,
        max_delay: Duration::from_millis(2),
        deadline: None,
        queue_capacity: 1024,
        out: None,
        ticks: 8,
        tick_segments: 0,
        window: None,
        advance_every: 1,
        verify: false,
    };
    while let Some(a) = args.next() {
        let val = |args: &mut dyn Iterator<Item = String>| args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--dataset" => o.dataset = val(&mut args),
            "--scale" => {
                o.scale = val(&mut args).parse().unwrap_or_else(|_| usage());
                if !(o.scale > 0.0 && o.scale.is_finite()) {
                    usage()
                }
            }
            "--method" => o.method = val(&mut args),
            "--d" => o.d = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--queries" => o.queries = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--bins" => o.bins = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--subbins" => o.subbins = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--kernel-shape" => {
                o.kernel_shape = match val(&mut args).as_str() {
                    "thread-per-query" => KernelShape::ThreadPerQuery,
                    "warp-per-tile" => KernelShape::WarpPerTile,
                    _ => usage(),
                }
            }
            "--tile-size" => o.tile_size = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--sanitizer" => {
                o.sanitizer = SanitizerMode::parse(&val(&mut args)).unwrap_or_else(|| usage())
            }
            "--shards" => {
                o.sharding.shards = val(&mut args).parse().unwrap_or_else(|_| usage());
                if o.sharding.shards == 0 {
                    usage()
                }
            }
            "--clients" => o.clients = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--request-size" => o.request_size = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--requests" => o.requests = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--workers" => o.workers = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--max-batch" => o.max_batch = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--max-delay-ms" => o.max_delay = millis(&val(&mut args)),
            "--deadline-ms" => o.deadline = Some(millis(&val(&mut args))),
            "--queue-capacity" => {
                o.queue_capacity = val(&mut args).parse().unwrap_or_else(|_| usage())
            }
            "--out" => o.out = Some(val(&mut args)),
            "--ticks" => o.ticks = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--tick-segments" => {
                o.tick_segments = val(&mut args).parse().unwrap_or_else(|_| usage())
            }
            "--window" => o.window = Some(val(&mut args).parse().unwrap_or_else(|_| usage())),
            "--advance-every" => {
                o.advance_every = val(&mut args).parse().unwrap_or_else(|_| usage())
            }
            "--verify" => o.verify = true,
            _ => usage(),
        }
    }
    o
}

/// A millisecond flag value. A NaN or negative one is refused, and so is
/// one too large to add to an [`Instant`], which the service does with it.
fn millis(v: &str) -> Duration {
    let ms: f64 = v.parse().unwrap_or_else(|_| usage());
    let duration = Duration::try_from_secs_f64(ms / 1e3).unwrap_or_else(|_| usage());
    if Instant::now().checked_add(duration).is_none() {
        usage()
    }
    duration
}

fn main() {
    let o = parse();

    // Dataset + queries.
    let (store, queries): (SegmentStore, SegmentStore) = match o.dataset.as_str() {
        "random" => {
            let cfg = RandomWalkConfig::default().scaled(o.scale);
            let q =
                RandomWalkConfig { trajectories: o.queries, seed: cfg.seed ^ 0x51, ..cfg.clone() }
                    .generate();
            (cfg.generate(), q)
        }
        "dense" => {
            let cfg = RandomDenseConfig::default().scaled(o.scale);
            let q = RandomWalkConfig {
                trajectories: o.queries,
                timesteps: cfg.timesteps,
                box_side: cfg.box_side(),
                step_sigma: cfg.step_sigma,
                start_time_min: 0.0,
                start_time_max: 0.0,
                dt: cfg.dt,
                seed: cfg.seed ^ 0x51,
            }
            .generate();
            (cfg.generate(), q)
        }
        "merger" => {
            let cfg = MergerConfig::default().scaled(o.scale);
            let q =
                MergerConfig { particles: o.queries.max(2), seed: cfg.seed ^ 0x51, ..cfg.clone() }
                    .generate();
            (cfg.generate(), q)
        }
        other => {
            eprintln!("unknown dataset {other}");
            usage()
        }
    };

    match o.command.as_str() {
        "info" => {
            let stats = store.stats().expect("non-empty dataset");
            println!("dataset:        {}", o.dataset);
            println!("segments:       {}", store.len());
            println!("trajectories:   {}", store.trajectory_count());
            println!(
                "spatial bounds: [{:.2}, {:.2}] x [{:.2}, {:.2}] x [{:.2}, {:.2}]",
                stats.bounds.lo.x,
                stats.bounds.hi.x,
                stats.bounds.lo.y,
                stats.bounds.hi.y,
                stats.bounds.lo.z,
                stats.bounds.hi.z
            );
            println!("time span:      [{:.2}, {:.2}]", stats.time_span.start, stats.time_span.end);
            println!(
                "max segment extent: [{:.3}, {:.3}, {:.3}]",
                stats.max_segment_extent[0],
                stats.max_segment_extent[1],
                stats.max_segment_extent[2]
            );
            println!("scan pre-test:  {}", tdts_geom::scan_isa());
        }
        "generate" => {
            let out = o.out.as_deref().unwrap_or("dataset.csv");
            let file = std::fs::File::create(out).unwrap_or_else(|e| fail(format!("{out}: {e}")));
            write_csv(&store, file).unwrap_or_else(|e| fail(format!("{out}: {e}")));
            println!("wrote {} segments to {out}", store.len());
        }
        "search" | "serve" | "replay" | "stream" => {
            let mut device_config = DeviceConfig::tesla_c2075();
            device_config.kernel_shape = o.kernel_shape;
            device_config.tile_size = o.tile_size;
            device_config.sanitizer = o.sanitizer;
            let dataset = PreparedDataset::new(store);
            let method = match o.method.as_str() {
                "rtree" => Method::CpuRTree(RTreeConfig::default()),
                "spatial" => Method::GpuSpatial(GpuSpatialConfig::default()),
                "temporal" => Method::GpuTemporal(TemporalIndexConfig { bins: o.bins }),
                "spatiotemporal" => Method::GpuSpatioTemporal(SpatioTemporalIndexConfig {
                    bins: o.bins,
                    subbins: o.subbins,
                    sort_by_selector: true,
                }),
                other => {
                    eprintln!("unknown method {other}");
                    usage()
                }
            };
            let cap = 5_000_000;

            if o.command == "serve" || o.command == "replay" {
                run_service(&o, &dataset, method, &device_config, &queries, cap);
                return;
            }

            if o.command == "stream" {
                run_stream(&o, &dataset, method, &device_config, &queries, cap);
                return;
            }

            let engine = build_engine(&o, &dataset, method, &device_config);
            let started = Instant::now();
            let (matches, report) = engine.search(&queries, o.d, cap).unwrap_or_else(|e| fail(e));
            let wall = started.elapsed();
            println!("method:       {}", engine.method().name());
            if o.sharding.shards > 1 {
                println!("shards:       {} (temporal partition)", o.sharding.shards);
                let r = &report.routing;
                println!(
                    "routing:      {} shard-queries dispatched, {} skipped; \
                     {} shards probed, {} skipped, {} budget redos",
                    r.shard_queries_routed,
                    r.shard_queries_skipped,
                    r.shards_probed,
                    r.shards_skipped,
                    r.budget_redos
                );
            }
            println!("matches:      {}", matches.len());
            println!("comparisons:  {}", report.comparisons);
            println!(
                "response:     {:.6}s simulated ({})",
                report.response_seconds(),
                report.response
            );
            println!("wall:         {:.3}s", wall.as_secs_f64());
            if !o.sanitizer.is_off() {
                if let Some(device) = engine.device() {
                    let san = device.sanitizer_report();
                    if san.is_clean() {
                        println!(
                            "sanitizer:    clean ({} over {} launches)",
                            o.sanitizer, san.launches
                        );
                    } else {
                        eprint!("sanitizer FAILED:\n{san}");
                        std::process::exit(1);
                    }
                } else if report.sanitizer_findings == 0 {
                    // Sharded devices live inside the index; their findings
                    // are aggregated into the merged report.
                    println!(
                        "sanitizer:    clean ({} across {} shards)",
                        o.sanitizer, o.sharding.shards
                    );
                } else {
                    eprintln!("sanitizer FAILED: {} findings", report.sanitizer_findings);
                    std::process::exit(1);
                }
            }
            if o.verify {
                match verify_against_oracle(dataset.store(), &queries, o.d, &matches, 1e-9) {
                    None => println!("verification: OK (matches brute force)"),
                    Some(diff) => {
                        eprintln!("verification FAILED: {diff}");
                        std::process::exit(1);
                    }
                }
            }
        }
        _ => usage(),
    }
}

/// The engine `search` runs and `stream --verify` rebuilds cold: sharded
/// per `--shards`, on fresh devices.
fn build_engine(
    o: &Opts,
    dataset: &PreparedDataset,
    method: Method,
    device_config: &DeviceConfig,
) -> SearchEngine {
    let engine = if o.sharding.shards > 1 {
        SearchEngine::build_sharded(dataset, method, device_config, &o.sharding)
    } else {
        let device = Device::new(device_config.clone()).unwrap_or_else(|e| fail(e));
        SearchEngine::build(dataset, method, device)
    };
    engine.unwrap_or_else(|e| fail(e))
}

/// Start the service every service command runs, from the options; with
/// `window`, a sliding-window service. Its validation is where the option
/// rules live: a bad value fails here.
fn start_service(
    o: &Opts,
    dataset: &PreparedDataset,
    method: Method,
    device_config: &DeviceConfig,
    cap: usize,
    window: Option<f64>,
) -> QueryService {
    let mut builder = ServiceConfig::builder(method)
        .device(device_config.clone())
        .workers(o.workers)
        .sharding(o.sharding)
        .max_batch(o.max_batch)
        .max_delay(o.max_delay)
        .queue_capacity(o.queue_capacity)
        .result_capacity(cap)
        .advance_every(o.advance_every);
    if let Some(deadline) = o.deadline {
        builder = builder.default_deadline(deadline);
    }
    if let Some(window) = window {
        builder = builder.window(window);
    }
    let config = builder.build().unwrap_or_else(|e| fail(e));
    QueryService::start(dataset, config).unwrap_or_else(|e| fail(e))
}

/// Split a query set into client requests: `request_size` consecutive
/// segments each, or one whole trajectory each when `request_size` is zero
/// (preserving first appearance order). `cap` bounds the request count
/// (zero = unlimited).
fn split_requests(queries: &SegmentStore, request_size: usize, cap: usize) -> Vec<SegmentStore> {
    let mut requests: Vec<SegmentStore> = if request_size == 0 {
        let mut grouped: Vec<(TrajId, SegmentStore)> = Vec::new();
        for seg in queries.iter() {
            match grouped.iter_mut().find(|(t, _)| *t == seg.traj_id) {
                Some((_, store)) => store.push(*seg),
                None => {
                    let mut store = SegmentStore::new();
                    store.push(*seg);
                    grouped.push((seg.traj_id, store));
                }
            }
        }
        grouped.into_iter().map(|(_, store)| store).collect()
    } else {
        queries
            .segments()
            .chunks(request_size)
            .map(|chunk| chunk.iter().copied().collect())
            .collect()
    };
    if cap > 0 {
        requests.truncate(cap);
    }
    requests
}

fn print_stats(stats: &ServiceStats) {
    println!("service stats:");
    println!(
        "  requests: {} admitted, {} served, {} rejected, {} timed out, {} failed",
        stats.requests_admitted,
        stats.requests_served,
        stats.requests_rejected,
        stats.requests_timed_out,
        stats.requests_failed
    );
    println!(
        "  batches:  {} executed ({} on fallback), {:.1} queries/batch, {:.3} ms mean latency",
        stats.batches_executed,
        stats.fallback_batches,
        stats.mean_batch_queries,
        stats.mean_batch_latency_seconds * 1e3
    );
    println!("  queue:    max depth {}; degraded: {}", stats.max_queue_depth, stats.degraded);
    println!(
        "  kernels:  {} invocations, {} comparisons total",
        stats.cumulative.response.kernel_invocations, stats.cumulative.comparisons
    );
    if stats.shards > 1 {
        println!(
            "  shards:   {} configured, {} cross-shard duplicates dropped",
            stats.shards, stats.duplicates_dropped
        );
        let r = &stats.cumulative.routing;
        println!(
            "  routing:  {} shard-queries dispatched, {} skipped; \
             {} shard probes, {} skips, {} budget redos",
            r.shard_queries_routed,
            r.shard_queries_skipped,
            r.shards_probed,
            r.shards_skipped,
            r.budget_redos
        );
        for s in &stats.per_shard {
            println!(
                "    shard {:>2} [{:.2}, {:.2}]: {} entries ({} replicated), {} searches, \
                 {} routed / {} skipped queries, {} budget redos, \
                 {:.4} s summed response, {} comparisons",
                s.shard,
                s.slab_lo,
                s.slab_hi,
                s.entries,
                s.replicated,
                s.searches,
                s.queries_routed,
                s.queries_skipped,
                s.budget_redos,
                s.response_seconds,
                s.comparisons
            );
        }
    }
}

/// Synthesize one tick of time-ordered object updates: `count` segments of
/// length `duration` — one time step — with starts spread evenly over
/// `[frontier, frontier + duration)`, positions drawn inside `bounds` from a
/// cheap deterministic generator (splitmix-style).
fn synth_tick(
    bounds: &Mbb,
    frontier: f64,
    count: usize,
    duration: f64,
    state: &mut u64,
    next_id: &mut u32,
) -> Vec<Segment> {
    let unit = |state: &mut u64| -> f64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*state >> 33) as f64) / ((1u64 << 31) as f64)
    };
    let extent = [
        (bounds.hi.x - bounds.lo.x).max(1e-9),
        (bounds.hi.y - bounds.lo.y).max(1e-9),
        (bounds.hi.z - bounds.lo.z).max(1e-9),
    ];
    let dt = duration / count as f64;
    (0..count)
        .map(|i| {
            let start = Point3::new(
                bounds.lo.x + unit(state) * extent[0],
                bounds.lo.y + unit(state) * extent[1],
                bounds.lo.z + unit(state) * extent[2],
            );
            let step = duration * 0.1;
            let end = Point3::new(
                start.x + (unit(state) - 0.5) * step,
                start.y + (unit(state) - 0.5) * step,
                start.z + (unit(state) - 0.5) * step,
            );
            let t0 = frontier + i as f64 * dt;
            let id = *next_id;
            *next_id += 1;
            Segment::new(start, end, t0, t0 + duration, SegId(id), TrajId(id % 97))
        })
        .collect()
}

/// Stream mode: a sliding-window service takes one window advance per tick
/// (append, and every `--advance-every` ticks the expiry cut) and then one
/// request, the same query set shifted to sit inside the live window.
/// Reports per-tick advance and search cost; with `--verify`, each tick's
/// results are checked byte-identical against a cold rebuild of the
/// service's store, and a run in which every tick compared two empty result
/// sets fails: it verified nothing.
fn run_stream(
    o: &Opts,
    dataset: &PreparedDataset,
    method: Method,
    device_config: &DeviceConfig,
    queries: &SegmentStore,
    cap: usize,
) {
    let stats = dataset.store().stats().expect("non-empty dataset");
    let span = stats.time_span;
    let window = o.window.unwrap_or((span.end - span.start).max(1.0) * 0.5);
    let service = start_service(o, dataset, method, device_config, cap, Some(window));
    let tick_segments =
        if o.tick_segments > 0 { o.tick_segments } else { (dataset.store().len() / 20).max(16) };
    let duration = stats.mean_duration.max(1e-3);
    let q_min = queries.iter().map(|s| s.t_start).fold(f64::INFINITY, f64::min);

    println!(
        "stream: {} over {} base entries; {} ticks x {} segments, window {:.2}, \
         expiry every {} tick(s){}",
        method.name(),
        dataset.store().len(),
        o.ticks,
        tick_segments,
        window,
        o.advance_every,
        if o.verify { ", verifying against cold rebuilds" } else { "" }
    );
    println!(
        "{:>4} {:>9} {:>8} {:>9} {:>11} {:>11} {:>9}",
        "tick", "entries", "ingested", "expired", "advance ms", "search ms", "matches"
    );

    let mut rng = 0x5eed_u64 ^ dataset.store().len() as u64;
    let mut next_id = dataset.store().len() as u32 + 1_000_000;
    // The generator's clock: each tick starts where the last one ended.
    let mut frontier = span.end;
    let mut entries = dataset.store().len();
    let (mut total_advance, mut total_search) = (0.0f64, 0.0f64);
    let mut nonempty_ticks = 0usize;
    for tick in 0..o.ticks {
        let new =
            synth_tick(&stats.bounds, frontier, tick_segments, duration, &mut rng, &mut next_id);
        frontier = new.iter().map(|s| s.t_end).fold(frontier, f64::max);

        let t = Instant::now();
        let advance = service.advance_window(&new).unwrap_or_else(|e| fail(e));
        let advance_ms = t.elapsed().as_secs_f64() * 1e3;
        entries = entries + advance.ingested - advance.expired;

        // The repeated query set, shifted so it probes the live window.
        let offset = (frontier - window * 0.5) - q_min;
        let probe: SegmentStore = queries
            .iter()
            .map(|s| {
                let mut s = *s;
                s.t_start += offset;
                s.t_end += offset;
                s
            })
            .collect();
        let t = Instant::now();
        let matches = service.submit(&probe, o.d).unwrap_or_else(|e| fail(e)).matches;
        let search_ms = t.elapsed().as_secs_f64() * 1e3;

        total_advance += advance_ms;
        total_search += search_ms;
        nonempty_ticks += usize::from(!matches.is_empty());
        println!(
            "{:>4} {:>9} {:>8} {:>9} {:>11.3} {:>11.3} {:>9}",
            tick,
            entries,
            advance.ingested,
            advance.expired,
            advance_ms,
            search_ms,
            matches.len()
        );

        if o.verify {
            let cold_set = PreparedDataset::new(service.store_snapshot().as_ref().clone());
            let cold = build_engine(o, &cold_set, method, device_config);
            let (want, _) = cold.search(&probe, o.d, cap).unwrap_or_else(|e| fail(e));
            if matches != want {
                eprintln!(
                    "verification FAILED at tick {tick}: streamed service returned {} \
                     matches, cold rebuild {} (generation {})",
                    matches.len(),
                    want.len(),
                    advance.generation
                );
                std::process::exit(1);
            }
        }
    }
    service.shutdown();
    let stats = service.stats();
    println!(
        "totals: {:.3} ms advance, {:.3} ms search over {} ticks (generation {})",
        total_advance,
        total_search,
        o.ticks,
        service.generation()
    );
    print_stats(&stats);
    // Each tick's search counts its devices' findings since the last one,
    // those of the tick's advance (cuts, a sharded rebuild) included.
    if !o.sanitizer.is_off() {
        let findings = stats.cumulative.sanitizer_findings;
        if findings > 0 {
            fail(format!("sanitizer FAILED: {findings} finding(s)"));
        }
        println!("sanitizer:    clean ({} over {} batches)", o.sanitizer, stats.batches_executed);
    }
    if o.verify {
        if nonempty_ticks == 0 {
            eprintln!(
                "verification FAILED: all {} ticks compared empty result sets; \
                 nothing was verified",
                o.ticks
            );
            std::process::exit(1);
        }
        println!(
            "verification: OK (all {} ticks byte-identical to cold rebuilds, {} with matches)",
            o.ticks, nonempty_ticks
        );
    }
}

fn run_service(
    o: &Opts,
    dataset: &PreparedDataset,
    method: Method,
    device_config: &DeviceConfig,
    queries: &SegmentStore,
    cap: usize,
) {
    let requests = split_requests(queries, o.request_size, o.requests);
    if requests.is_empty() {
        fail("no query trajectories to serve");
    }
    let service = start_service(o, dataset, method, device_config, cap, None);
    println!(
        "service: {} over {} entries; {} workers, max batch {}, max delay {:.1} ms",
        method.name(),
        dataset.store().len(),
        o.workers,
        o.max_batch,
        o.max_delay.as_secs_f64() * 1e3
    );

    if o.command == "serve" {
        for (i, request) in requests.iter().enumerate() {
            match service.submit(request, o.d) {
                Ok(r) => println!(
                    "request {i}: {} matches over {} queries; waited {:.3} ms \
                     (batch of {} requests / {} queries)",
                    r.matches.len(),
                    request.len(),
                    r.waited.as_secs_f64() * 1e3,
                    r.batch_requests,
                    r.batch_queries
                ),
                Err(e) => eprintln!("request {i}: error: {e}"),
            }
        }
        service.shutdown();
        print_stats(&service.stats());
        return;
    }

    // replay: concurrent clients through the service...
    let clients = o.clients.max(1);
    let start = Instant::now();
    let (service_matches, request_errors) = std::thread::scope(|scope| {
        let service = &service;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let slice: Vec<&SegmentStore> = requests.iter().skip(c).step_by(clients).collect();
                scope.spawn(move || {
                    let (mut total, mut errors) = (0usize, 0usize);
                    for request in slice {
                        match service.submit(request, o.d) {
                            Ok(r) => total += r.matches.len(),
                            Err(e) => {
                                eprintln!("client {c}: error: {e}");
                                errors += 1;
                            }
                        }
                    }
                    (total, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .fold((0, 0), |(total, errors), (t, e)| (total + t, errors + e))
    });
    let service_wall = start.elapsed();
    service.shutdown();
    let stats = service.stats();

    // ...versus the same requests sequentially, one engine call each.
    let device = Device::new(device_config.clone()).unwrap_or_else(|e| fail(e));
    let engine = SearchEngine::build(dataset, method, device).unwrap_or_else(|e| fail(e));
    let seq_start = Instant::now();
    let mut seq_matches = 0usize;
    let mut seq_response = 0.0f64;
    for request in &requests {
        let (matches, report) = engine.search(request, o.d, cap).unwrap_or_else(|e| fail(e));
        seq_matches += matches.len();
        seq_response += report.response_seconds();
    }
    let seq_wall = seq_start.elapsed();

    println!(
        "replay:   {} requests over {} clients -> {} matches in {:.3} s wall \
         ({:.4} s simulated response)",
        requests.len(),
        clients,
        service_matches,
        service_wall.as_secs_f64(),
        stats.cumulative.response_seconds()
    );
    println!(
        "sequential: {} requests -> {} matches in {:.3} s wall ({:.4} s simulated response)",
        requests.len(),
        seq_matches,
        seq_wall.as_secs_f64(),
        seq_response
    );
    println!(
        "speedup:  {:.2}x wall, {:.2}x simulated",
        seq_wall.as_secs_f64() / service_wall.as_secs_f64().max(1e-12),
        seq_response / stats.cumulative.response_seconds().max(1e-12)
    );
    print_stats(&stats);
    let findings = stats.cumulative.sanitizer_findings;
    if let Err(reason) = replay_verdict(service_matches, seq_matches, request_errors, findings) {
        fail(format!("replay FAILED: {reason}"));
    }
}

/// Whether a replay may exit 0: the service's answers must add up to the
/// sequential engine's, every request must have been answered, and the
/// sanitizer (when on) must have stayed silent.
fn replay_verdict(
    service_matches: usize,
    seq_matches: usize,
    request_errors: usize,
    sanitizer_findings: u64,
) -> Result<(), String> {
    if request_errors > 0 {
        return Err(format!("{request_errors} request(s) resolved with an error"));
    }
    if service_matches != seq_matches {
        return Err(format!(
            "match totals differ (service {service_matches} vs sequential {seq_matches})"
        ));
    }
    if sanitizer_findings > 0 {
        return Err(format!("{sanitizer_findings} sanitizer finding(s)"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::replay_verdict;

    #[test]
    fn replay_fails_on_wrong_totals_errors_or_findings() {
        assert!(replay_verdict(10, 10, 0, 0).is_ok());
        assert!(replay_verdict(9, 10, 0, 0).unwrap_err().contains("totals differ"));
        assert!(replay_verdict(10, 10, 1, 0).unwrap_err().contains("error"));
        assert!(replay_verdict(10, 10, 0, 2).unwrap_err().contains("sanitizer"));
    }
}
