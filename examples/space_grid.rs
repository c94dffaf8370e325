//! Space-grid demo: the same option-pricing job as `remote_workers`, but
//! the tuple space is *partitioned over four shard servers* and every
//! worker reaches it through a `PartitionedSpace` — hash-routed writes,
//! scatter-gather reads, per-shard health.
//!
//! Run with: `cargo run --release --example space_grid`
//!
//! In production each shard would be its own process, and a worker
//! process would find every shard from shard 0's address alone
//! (`PartitionedSpace::discover` reads the lookup entry the cluster
//! publishes there); here they share the process so the demo is
//! self-contained and the transcript reproducible. Set
//! `ACC_OBSERVE=127.0.0.1:9137` and pass `--hold-ms 60000` to curl the
//! `/healthz` grid check and the `/cluster.json` shard list while it holds.
//!
//! Accepts `--shards <n>` (default 4) and `--workers <n>` (default 3).

use std::time::Duration;

use adaptive_spaces::apps::pricing::{price_sequential, OptionSpec, PricingApp};
use adaptive_spaces::cluster::NodeSpec;
use adaptive_spaces::framework::{ClusterBuilder, FrameworkConfig};
use adaptive_spaces::space::{Space, SpaceHandle, SpaceServer};

fn flag(args: &[String], name: &str) -> Option<u64> {
    args.iter().position(|a| a == name).map(|i| {
        args.get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("{name} needs a number");
                std::process::exit(2);
            })
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let hold_ms = flag(&args, "--hold-ms");
    let n_shards = flag(&args, "--shards").unwrap_or(4) as usize;
    let n_workers = flag(&args, "--workers").unwrap_or(3) as usize;

    // Host the shards: one space + one TCP server each, ephemeral ports.
    let mut shards: Vec<(SpaceHandle, SpaceServer)> = Vec::new();
    for i in 0..n_shards {
        let space = Space::new(format!("shard-{i}"));
        let server = SpaceServer::spawn(space.clone(), "127.0.0.1:0").expect("bind shard");
        println!("shard-{i} serving at {}", server.addr());
        shards.push((space, server));
    }
    let shard_list: Vec<String> = shards.iter().map(|(_, s)| s.addr().to_string()).collect();

    let config = FrameworkConfig {
        poll_interval: Duration::from_millis(20),
        ..FrameworkConfig::default()
    };
    let mut cluster = ClusterBuilder::new(config).shards(shard_list).build();
    let grid = cluster.grid().expect("grid configured").clone();
    println!(
        "grid: {} shards, {} healthy",
        grid.shard_count(),
        grid.healthy_count()
    );

    let mut app = PricingApp::new(OptionSpec::paper_default(), 20, 50);
    cluster.install(&app);
    for i in 0..n_workers {
        cluster.add_worker(NodeSpec::new(format!("gw-{i}"), 800, 256));
    }

    let report = cluster.run(&mut app);
    println!();
    println!(
        "run complete: {}/{} results in {:.1} ms",
        report.results_collected, report.times.tasks, report.times.parallel_ms
    );
    let parallel = app.result();
    let sequential = price_sequential(&PricingApp::new(OptionSpec::paper_default(), 20, 50));
    assert_eq!(parallel, sequential, "grid run is bit-identical");
    println!(
        "price bracket: high {:.4} / low {:.4} (identical to sequential)",
        parallel.high, parallel.low
    );

    // Per-shard traffic: hash routing spread the job over every shard.
    println!("shard traffic:");
    for (i, (space, server)) in shards.iter().enumerate() {
        let stats = space.stats();
        println!(
            "  shard-{i} {}  writes {:>4}  takes {:>4}",
            server.addr(),
            stats.writes,
            stats.takes
        );
    }

    if let Some(ms) = hold_ms {
        match cluster.observe_addr() {
            Some(addr) => println!("holding for {ms} ms; observability endpoint at http://{addr}"),
            None => println!("holding for {ms} ms (set ACC_OBSERVE=127.0.0.1:0 for an endpoint)"),
        }
        std::thread::sleep(Duration::from_millis(ms));
    }
    cluster.shutdown();
}
