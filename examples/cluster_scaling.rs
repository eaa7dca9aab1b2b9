//! Multi-GPU cluster partitioning (§III): shard the database across
//! simulated GPU nodes, broadcast the queries, and watch the response time
//! scale with the node count.
//!
//! ```sh
//! cargo run --release --example cluster_scaling
//! ```

use tdts::prelude::*;

fn main() {
    let store = MergerConfig { particles: 8_192, timesteps: 49, ..Default::default() }.generate();
    let queries =
        MergerConfig { particles: 32, timesteps: 49, seed: 0xC1, ..Default::default() }.generate();
    println!("|D| = {} segments, |Q| = {}", store.len(), queries.len());

    let dataset = PreparedDataset::new(store);
    let method = Method::GpuSpatioTemporal(SpatioTemporalIndexConfig {
        bins: 200,
        subbins: 4,
        sort_by_selector: true,
    });
    let d = 2.0;
    let mut reference: Option<Vec<MatchRecord>> = None;

    println!("\n{:>6} {:>14} {:>16} {:>16}", "nodes", "matches", "device (s)", "comparisons");
    for nodes in [1usize, 2, 4, 8] {
        // Temporal slabs (the default partition), every query sent to
        // every node.
        let sharding = ShardedIndexConfig::builder()
            .shards(nodes)
            .routing(RoutingMode::Broadcast)
            .build()
            .expect("shard config");
        let cluster =
            SearchEngine::build_sharded(&dataset, method, &DeviceConfig::tesla_c2075(), &sharding)
                .expect("cluster build");
        let (matches, report) = cluster.search(&queries, d, 2_000_000).expect("search");
        match &reference {
            None => reference = Some(matches.clone()),
            Some(r) => assert_eq!(&matches, r, "sharding must not change results"),
        }
        // The simulated device phases; host-side merging is measured wall
        // time and would bury them in noise.
        let device_seconds = report.response_seconds() - report.response.get(Phase::HostCompute);
        println!(
            "{:>6} {:>14} {:>16.6} {:>16}",
            nodes,
            matches.len(),
            device_seconds,
            report.comparisons
        );
    }
    println!("\n(results are identical for every node count; nodes search side by");
    println!(" side, so the device time is the slowest node's — whose share of each");
    println!(" query's candidate range shrinks as nodes are added)");
}
